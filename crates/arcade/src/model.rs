//! The elaborated system model: signal table, validation, and the I/O-IMC
//! semantics of every building block.

use std::collections::{HashMap, HashSet};

use ioimc::{ActionId, Alphabet, IoImc};

use crate::ast::{OmGroup, RepairStrategy, SystemDef};
use crate::dist::Dist;
use crate::error::ArcadeError;
use crate::expr::{Expr, Literal, ModeRef};

/// The interned signal vocabulary of a system.
///
/// Naming scheme (visible in DOT exports and error messages):
///
/// * `{bc}.failed.m{j}` — inherent failure mode `j` (1-based),
/// * `{bc}.failed.df` — destructive functional dependency failure,
/// * `{bc}.failed.na` — became inaccessible with `INACCESSIBLE MEANS
///   DOWN: YES`,
/// * `{bc}.up` — the component became operational/visible again,
/// * `{bc}.repaired` — sent by the repair unit,
/// * `{bc}.activate` / `{bc}.deactivate` — sent by the spare management
///   unit,
/// * `{gate}.failed` / `{gate}.up` — fault-tree gate outputs.
#[derive(Debug, Clone)]
pub struct Signals {
    index: HashMap<String, usize>,
    /// Per component, per inherent failure mode.
    pub failed_m: Vec<Vec<ActionId>>,
    /// Per component, if it has a destructive functional dependency.
    pub failed_df: Vec<Option<ActionId>>,
    /// Per component, if inaccessibility is environment-visible.
    pub failed_na: Vec<Option<ActionId>>,
    /// Per component.
    pub up: Vec<ActionId>,
    /// Per component.
    pub repaired: Vec<ActionId>,
    /// Per component, if it has an active/inactive OM group.
    pub activate: Vec<Option<ActionId>>,
    /// Per component, if it has an active/inactive OM group.
    pub deactivate: Vec<Option<ActionId>>,
}

impl Signals {
    fn build(def: &SystemDef, alphabet: &mut Alphabet) -> Self {
        let mut s = Signals {
            index: HashMap::new(),
            failed_m: Vec::new(),
            failed_df: Vec::new(),
            failed_na: Vec::new(),
            up: Vec::new(),
            repaired: Vec::new(),
            activate: Vec::new(),
            deactivate: Vec::new(),
        };
        for (i, bc) in def.components.iter().enumerate() {
            s.index.insert(bc.name.clone(), i);
            s.failed_m.push(
                (1..=bc.num_failure_modes())
                    .map(|j| alphabet.intern(&format!("{}.failed.m{j}", bc.name)))
                    .collect(),
            );
            s.failed_df.push(
                bc.df
                    .as_ref()
                    .map(|_| alphabet.intern(&format!("{}.failed.df", bc.name))),
            );
            s.failed_na.push(if bc.inaccessible_means_down {
                Some(alphabet.intern(&format!("{}.failed.na", bc.name)))
            } else {
                None
            });
            s.up.push(alphabet.intern(&format!("{}.up", bc.name)));
            s.repaired
                .push(alphabet.intern(&format!("{}.repaired", bc.name)));
            let ai = bc.has_active_inactive();
            s.activate.push(if ai {
                Some(alphabet.intern(&format!("{}.activate", bc.name)))
            } else {
                None
            });
            s.deactivate.push(if ai {
                Some(alphabet.intern(&format!("{}.deactivate", bc.name)))
            } else {
                None
            });
        }
        s
    }

    /// The index of a component by name.
    pub fn component_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The failure signals that make `literal` true.
    ///
    /// `x.down` matches every failure signal of `x` (inherent modes, DF,
    /// and inaccessibility if visible); `x.down.mK` and `x.down.df` match
    /// only the specific signal. The signals that make the literal false
    /// again are given by [`Signals::clear_signals`].
    pub fn down_signals(&self, literal: &Literal) -> Result<Vec<ActionId>, ArcadeError> {
        let i = self.component_index(&literal.component).ok_or_else(|| {
            ArcadeError::invalid(format!("unknown component `{}`", literal.component))
        })?;
        match &literal.mode {
            ModeRef::Any => {
                let mut v = self.failed_m[i].clone();
                v.extend(self.failed_df[i]);
                v.extend(self.failed_na[i]);
                Ok(v)
            }
            ModeRef::Mode(k) => {
                let j = *k as usize;
                if j == 0 || j > self.failed_m[i].len() {
                    return Err(ArcadeError::invalid(format!(
                        "component `{}` has no failure mode m{k}",
                        literal.component
                    )));
                }
                Ok(vec![self.failed_m[i][j - 1]])
            }
            ModeRef::Df => self.failed_df[i].map(|a| vec![a]).ok_or_else(|| {
                ArcadeError::invalid(format!(
                    "component `{}` has no destructive functional dependency",
                    literal.component
                ))
            }),
        }
    }

    /// The signals that make `literal` false again.
    ///
    /// Always includes the component's `up`. For a cause-specific literal
    /// (`x.down.mK`, `x.down.df`) it also includes every *other* failure
    /// signal of the component: a component repaired under a still-active
    /// destructive dependency (or while visibly inaccessible) re-announces
    /// the new cause urgently without ever passing through `up`, so a
    /// cause-specific observer must hand over on that re-announcement
    /// instead of waiting for an `up` that never comes.
    pub fn clear_signals(&self, literal: &Literal) -> Result<Vec<ActionId>, ArcadeError> {
        let i = self.component_index(&literal.component).ok_or_else(|| {
            ArcadeError::invalid(format!("unknown component `{}`", literal.component))
        })?;
        let mut v = vec![self.up[i]];
        match &literal.mode {
            ModeRef::Any => {}
            ModeRef::Mode(k) => {
                let j = *k as usize;
                v.extend(
                    self.failed_m[i]
                        .iter()
                        .enumerate()
                        .filter(|&(idx, _)| idx + 1 != j)
                        .map(|(_, &a)| a),
                );
                v.extend(self.failed_df[i]);
                v.extend(self.failed_na[i]);
            }
            ModeRef::Df => {
                v.extend(self.failed_m[i].iter().copied());
                v.extend(self.failed_na[i]);
            }
        }
        Ok(v)
    }

    /// The `up` signal that makes any literal about the component false.
    pub fn up_signal(&self, component: &str) -> Result<ActionId, ArcadeError> {
        let i = self
            .component_index(component)
            .ok_or_else(|| ArcadeError::invalid(format!("unknown component `{component}`")))?;
        Ok(self.up[i])
    }
}

/// One building block's automaton, with its role recorded for reporting and
/// composition-order heuristics.
#[derive(Debug, Clone)]
pub struct Block {
    /// Human-readable name (component/unit/gate name).
    pub name: String,
    /// The I/O-IMC semantics.
    pub imc: IoImc,
}

/// A fully elaborated system: every block translated to its I/O-IMC.
#[derive(Debug, Clone)]
pub struct SystemModel {
    /// The source definition.
    pub def: SystemDef,
    /// The shared action alphabet.
    pub alphabet: Alphabet,
    /// The signal table.
    pub signals: Signals,
    /// All block automata (components, repair units, SMUs, gates, and the
    /// observer — in that order).
    pub blocks: Vec<Block>,
    /// The canonical internal action for reductions.
    pub tau: ActionId,
}

impl SystemModel {
    /// Validates `def` and builds the I/O-IMC semantics of every block.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] for inconsistent definitions and
    /// [`ArcadeError::Build`] if a block's automaton cannot be constructed.
    pub fn build(def: &SystemDef) -> Result<Self, ArcadeError> {
        validate(def)?;
        let mut alphabet = Alphabet::new();
        let tau = alphabet.intern("tau");
        let signals = Signals::build(def, &mut alphabet);

        let mut blocks = Vec::new();
        for (i, bc) in def.components.iter().enumerate() {
            let imc = crate::build::bc::build_bc(def, i, &signals)?;
            blocks.push(Block {
                name: bc.name.clone(),
                imc,
            });
        }
        for ru in &def.repair_units {
            let imc = crate::build::ru::build_ru(def, ru, &signals)?;
            blocks.push(Block {
                name: ru.name.clone(),
                imc,
            });
        }
        for smu in &def.smus {
            let imc = crate::build::smu::build_smu(def, smu, &signals)?;
            blocks.push(Block {
                name: smu.name.clone(),
                imc,
            });
        }
        let down = def
            .system_down
            .as_ref()
            .ok_or_else(|| ArcadeError::invalid("SYSTEM DOWN criterion missing"))?;
        let gates = crate::build::gate::build_gate_tree(down, &signals, &mut alphabet)?;
        let top_gate_name = gates
            .last()
            .map(|b| b.name.clone())
            .expect("gate tree is never empty");
        blocks.extend(gates);
        blocks.push(crate::build::observer::build_observer(
            &top_gate_name,
            &mut alphabet,
        )?);

        Ok(Self {
            def: def.clone(),
            alphabet,
            signals,
            blocks,
            tau,
        })
    }

    /// The automata of all blocks, in declaration order.
    pub fn automata(&self) -> Vec<&IoImc> {
        self.blocks.iter().map(|b| &b.imc).collect()
    }

    /// Looks up a block by name.
    pub fn block(&self, name: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.name == name)
    }
}

/// The most phases one distribution may have: the component, repair-unit
/// and SMU automata index a phase in a `u8`.
const MAX_PHASES: usize = 256;
/// The most failure modes a component may have, its destructive FDEP mode
/// included: the component and repair-unit automata index a mode in a
/// `u8`.
const MAX_MODES: usize = 256;
/// The most components one repair unit may serve: its automaton indexes
/// them in a `u8`.
const MAX_UNIT_COMPONENTS: usize = 256;
/// The most spares one SMU may manage: its automaton keeps the primary's
/// and every spare's announced-down bit in one `u32`.
const MAX_SPARES: usize = 31;

/// Static validation of a [`SystemDef`] (name uniqueness, arities,
/// cross-references, SMU/RU constraints, and the sizes the automata
/// index: at most 256 phases per distribution, 256 failure modes per
/// component, 256 components per repair unit and 31 spares per SMU).
/// It reads only the definition, so a model it rejects allocates nothing.
pub fn validate(def: &SystemDef) -> Result<(), ArcadeError> {
    // Rate parameters: unique names, positive finite bases, and pairwise
    // distinct base bits (a base shared between two parameters would make
    // the bit-equality binding ambiguous).
    let mut param_names = HashSet::new();
    let mut param_bases: HashMap<u64, &str> = HashMap::new();
    for p in &def.params {
        if p.name.is_empty() {
            return Err(ArcadeError::invalid("parameter with empty name"));
        }
        if !param_names.insert(p.name.as_str()) {
            return Err(ArcadeError::invalid(format!(
                "duplicate parameter name `{}`",
                p.name
            )));
        }
        if !p.base.is_finite() || p.base <= 0.0 {
            return Err(ArcadeError::invalid(format!(
                "parameter `{}`: base value {} must be positive and finite",
                p.name, p.base
            )));
        }
        if let Some(other) = param_bases.insert(p.base.to_bits(), &p.name) {
            return Err(ArcadeError::invalid(format!(
                "parameters `{other}` and `{}` share the base value {} \
                 (bases must be bitwise distinct to bind unambiguously)",
                p.name, p.base
            )));
        }
    }

    let mut names = HashSet::new();
    for bc in &def.components {
        if bc.name.is_empty() {
            return Err(ArcadeError::invalid("component with empty name"));
        }
        if !names.insert(bc.name.as_str()) {
            return Err(ArcadeError::invalid(format!(
                "duplicate component name `{}`",
                bc.name
            )));
        }
        let dists = bc.ttf.iter().chain(&bc.ttr).chain(&bc.ttr_df);
        if let Some(phases) = dists.map(Dist::num_phases).find(|&k| k > MAX_PHASES) {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: a distribution with {phases} phases (at most {MAX_PHASES})",
                bc.name
            )));
        }
        let modes = bc.failure_mode_probs.len() + usize::from(bc.df.is_some());
        if modes > MAX_MODES {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: {modes} failure modes, the destructive one included \
                 (at most {MAX_MODES})",
                bc.name
            )));
        }
        if bc.ttf.len() != bc.num_operational_states() {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: {} operational states but {} time-to-failure distributions",
                bc.name,
                bc.num_operational_states(),
                bc.ttf.len()
            )));
        }
        let phase_counts: HashSet<usize> = bc
            .ttf
            .iter()
            .filter(|d| !matches!(d, Dist::Never))
            .map(|d| d.num_phases())
            .collect();
        if phase_counts.len() > 1 {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: time-to-failure distributions must share one phase structure \
                 (mode switches preserve the phase)",
                bc.name
            )));
        }
        if bc.failure_mode_probs.is_empty() {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: needs at least one failure mode",
                bc.name
            )));
        }
        let sum: f64 = bc.failure_mode_probs.iter().sum();
        if (sum - 1.0).abs() > 1e-9 || bc.failure_mode_probs.iter().any(|p| *p <= 0.0 || *p > 1.0) {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: failure mode probabilities must be in (0,1] and sum to 1",
                bc.name
            )));
        }
        if bc.ttr.len() != bc.failure_mode_probs.len() {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: {} failure modes but {} time-to-repair distributions",
                bc.name,
                bc.failure_mode_probs.len(),
                bc.ttr.len()
            )));
        }
        if bc.df.is_some() && bc.ttr_df.is_none() {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: destructive FDEP requires a df repair distribution",
                bc.name
            )));
        }
        let ai_groups = bc
            .om_groups
            .iter()
            .filter(|g| matches!(g, OmGroup::ActiveInactive))
            .count();
        if ai_groups > 1 {
            return Err(ArcadeError::invalid(format!(
                "component `{}`: more than one active/inactive group",
                bc.name
            )));
        }
    }

    // Expression cross-references.
    let check_expr = |owner: &str, e: &Expr| -> Result<(), ArcadeError> {
        for lit in e.literals() {
            let target = def.component(&lit.component).ok_or_else(|| {
                ArcadeError::invalid(format!(
                    "`{owner}` references unknown component `{}`",
                    lit.component
                ))
            })?;
            match &lit.mode {
                ModeRef::Any => {}
                ModeRef::Mode(k) => {
                    if *k == 0 || *k as usize > target.num_failure_modes() {
                        return Err(ArcadeError::invalid(format!(
                            "`{owner}`: component `{}` has no failure mode m{k}",
                            lit.component
                        )));
                    }
                }
                ModeRef::Df => {
                    if target.df.is_none() {
                        return Err(ArcadeError::invalid(format!(
                            "`{owner}`: component `{}` has no destructive FDEP",
                            lit.component
                        )));
                    }
                }
            }
        }
        check_kofn(owner, e)
    };
    for bc in &def.components {
        for g in &bc.om_groups {
            if let Some(t) = g.trigger() {
                if t.contains_pand() {
                    return Err(ArcadeError::invalid(format!(
                        "component `{}`: PAND is only supported in SYSTEM DOWN \
                         (trigger expressions are evaluated statelessly)",
                        bc.name
                    )));
                }
                if t.literals().iter().any(|l| l.component == bc.name) {
                    return Err(ArcadeError::invalid(format!(
                        "component `{}`: mode-switch trigger references itself",
                        bc.name
                    )));
                }
                check_expr(&bc.name, t)?;
            }
        }
        if let Some(d) = &bc.df {
            if d.contains_pand() {
                return Err(ArcadeError::invalid(format!(
                    "component `{}`: PAND is only supported in SYSTEM DOWN",
                    bc.name
                )));
            }
            if d.literals().iter().any(|l| l.component == bc.name) {
                return Err(ArcadeError::invalid(format!(
                    "component `{}`: destructive FDEP references itself",
                    bc.name
                )));
            }
            check_expr(&bc.name, d)?;
        }
    }
    if let Some(e) = &def.system_down {
        check_expr("SYSTEM DOWN", e)?;
    }

    // Repair units.
    let mut repaired_by: HashMap<&str, &str> = HashMap::new();
    let mut unit_names = HashSet::new();
    for ru in &def.repair_units {
        if !unit_names.insert(ru.name.as_str()) {
            return Err(ArcadeError::invalid(format!(
                "duplicate unit name `{}`",
                ru.name
            )));
        }
        if ru.components.is_empty() {
            return Err(ArcadeError::invalid(format!(
                "repair unit `{}` has no components",
                ru.name
            )));
        }
        if ru.components.len() > MAX_UNIT_COMPONENTS {
            return Err(ArcadeError::invalid(format!(
                "repair unit `{}` serves {} components (at most {MAX_UNIT_COMPONENTS})",
                ru.name,
                ru.components.len()
            )));
        }
        if ru.strategy == RepairStrategy::Dedicated && ru.components.len() != 1 {
            return Err(ArcadeError::invalid(format!(
                "dedicated repair unit `{}` must serve exactly one component",
                ru.name
            )));
        }
        if matches!(
            ru.strategy,
            RepairStrategy::PreemptivePriority | RepairStrategy::NonPreemptivePriority
        ) && ru.priorities.len() != ru.components.len()
        {
            return Err(ArcadeError::invalid(format!(
                "repair unit `{}`: priority list must match the component list",
                ru.name
            )));
        }
        let mut seen = HashSet::new();
        for c in &ru.components {
            if def.component(c).is_none() {
                return Err(ArcadeError::invalid(format!(
                    "repair unit `{}` references unknown component `{c}`",
                    ru.name
                )));
            }
            if !seen.insert(c.as_str()) {
                return Err(ArcadeError::invalid(format!(
                    "repair unit `{}` lists component `{c}` twice",
                    ru.name
                )));
            }
            if let Some(other) = repaired_by.insert(c, &ru.name) {
                return Err(ArcadeError::invalid(format!(
                    "component `{c}` is repaired by both `{other}` and `{}` \
                     (at most one RU per component, §3.2)",
                    ru.name
                )));
            }
        }
    }

    // Spare management units.
    let mut spare_of: HashMap<&str, &str> = HashMap::new();
    for smu in &def.smus {
        if !unit_names.insert(smu.name.as_str()) {
            return Err(ArcadeError::invalid(format!(
                "duplicate unit name `{}`",
                smu.name
            )));
        }
        let primary = def.component(&smu.primary).ok_or_else(|| {
            ArcadeError::invalid(format!(
                "SMU `{}` references unknown primary `{}`",
                smu.name, smu.primary
            ))
        })?;
        if primary.has_active_inactive() {
            return Err(ArcadeError::invalid(format!(
                "SMU `{}`: the primary `{}` must not have an active/inactive group \
                 (the primary is always active, §3.3)",
                smu.name, smu.primary
            )));
        }
        if smu.spares.is_empty() {
            return Err(ArcadeError::invalid(format!(
                "SMU `{}` has no spares",
                smu.name
            )));
        }
        if smu.spares.len() > MAX_SPARES {
            return Err(ArcadeError::invalid(format!(
                "SMU `{}` manages {} spares (at most {MAX_SPARES})",
                smu.name,
                smu.spares.len()
            )));
        }
        if let Some(phases) = smu.failover.as_ref().map(Dist::num_phases) {
            if phases > MAX_PHASES {
                return Err(ArcadeError::invalid(format!(
                    "SMU `{}`: a failover distribution with {phases} phases (at most {MAX_PHASES})",
                    smu.name
                )));
            }
        }
        for sp in &smu.spares {
            let spare = def.component(sp).ok_or_else(|| {
                ArcadeError::invalid(format!(
                    "SMU `{}` references unknown spare `{sp}`",
                    smu.name
                ))
            })?;
            if !spare.has_active_inactive() {
                return Err(ArcadeError::invalid(format!(
                    "SMU `{}`: spare `{sp}` needs an active/inactive OM group",
                    smu.name
                )));
            }
            if let Some(other) = spare_of.insert(sp, &smu.name) {
                return Err(ArcadeError::invalid(format!(
                    "spare `{sp}` is managed by both `{other}` and `{}`",
                    smu.name
                )));
            }
        }
    }
    Ok(())
}

/// Support for builder unit tests: exposes the private `Signals::build`.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Builds the signal table for `def` (no validation).
    pub fn signals(def: &SystemDef, alphabet: &mut Alphabet) -> Signals {
        Signals::build(def, alphabet)
    }
}

fn check_kofn(owner: &str, e: &Expr) -> Result<(), ArcadeError> {
    match e {
        Expr::Lit(_) => Ok(()),
        Expr::And(cs) | Expr::Or(cs) => cs.iter().try_for_each(|c| check_kofn(owner, c)),
        Expr::Pand(cs) => {
            if cs.len() < 2 {
                return Err(ArcadeError::invalid(format!(
                    "`{owner}`: PAND needs at least two children"
                )));
            }
            cs.iter().try_for_each(|c| check_kofn(owner, c))
        }
        Expr::KofN(k, cs) => {
            if *k == 0 || *k as usize > cs.len() {
                return Err(ArcadeError::invalid(format!(
                    "`{owner}`: {k}-of-{} gate is out of range",
                    cs.len()
                )));
            }
            cs.iter().try_for_each(|c| check_kofn(owner, c))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BcDef, RuDef, SmuDef};

    fn simple_def() -> SystemDef {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.1), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.1), Dist::exp(1.0)));
        def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
        def
    }

    #[test]
    fn valid_def_passes() {
        assert!(validate(&simple_def()).is_ok());
    }

    #[test]
    fn duplicate_component_rejected() {
        let mut def = simple_def();
        def.add_component(BcDef::new("a", Dist::exp(0.1), Dist::exp(1.0)));
        assert!(validate(&def).is_err());
    }

    #[test]
    fn ttf_arity_checked() {
        let mut def = simple_def();
        def.components[0].ttf = vec![];
        assert!(validate(&def).is_err());
    }

    #[test]
    fn probs_must_sum_to_one() {
        let mut def = simple_def();
        def.components[0].failure_mode_probs = vec![0.5, 0.4];
        def.components[0].ttr = vec![Dist::exp(1.0), Dist::exp(1.0)];
        assert!(validate(&def).is_err());
    }

    #[test]
    fn unknown_reference_in_system_down() {
        let mut def = simple_def();
        def.set_system_down(Expr::down("zz"));
        assert!(validate(&def).is_err());
    }

    #[test]
    fn ru_constraints() {
        let mut def = simple_def();
        def.add_repair_unit(RuDef::new("r1", ["a"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("r2", ["a"], RepairStrategy::Fcfs));
        assert!(validate(&def).is_err()); // a repaired twice
        let mut def = simple_def();
        def.add_repair_unit(RuDef::new("r1", ["a", "b"], RepairStrategy::Dedicated));
        assert!(validate(&def).is_err()); // dedicated with 2 comps
        let mut def = simple_def();
        def.add_repair_unit(RuDef::new(
            "r1",
            ["a", "b"],
            RepairStrategy::PreemptivePriority,
        ));
        assert!(validate(&def).is_err()); // missing priorities
    }

    #[test]
    fn param_constraints() {
        let mut def = simple_def();
        def.add_param("lambda", 0.1);
        assert!(validate(&def).is_ok());
        def.add_param("lambda", 0.2);
        assert!(validate(&def).is_err()); // duplicate name
        let mut def = simple_def();
        def.add_param("a", 0.5).add_param("b", 0.5);
        assert!(validate(&def).is_err()); // shared base
        let mut def = simple_def();
        def.add_param("a", 0.0);
        assert!(validate(&def).is_err()); // non-positive base
        let mut def = simple_def();
        def.add_param("a", f64::NAN);
        assert!(validate(&def).is_err()); // non-finite base
    }

    #[test]
    fn smu_constraints() {
        let mut def = simple_def();
        def.add_smu(SmuDef::new("m", "a", ["b"]));
        // b has no active/inactive group
        assert!(validate(&def).is_err());
    }

    /// The sizes the automata index in a `u8` (phases, failure modes,
    /// components per repair unit) or a `u32` bit set (SMU members) are
    /// capped by name, before anything is built: beyond them an index
    /// would wrap, and a 2^32 − 1 phase count would size a 32 GiB rate
    /// vector.
    #[test]
    fn sizes_past_the_automata_indices_are_invalid() {
        let erlang = |k: u32| {
            let mut def = SystemDef::new("t");
            def.add_component(BcDef::new("a", Dist::erlang(k, 1.0), Dist::exp(1.0)));
            def.add_repair_unit(RuDef::new("r", ["a"], RepairStrategy::Dedicated));
            def.set_system_down(Expr::down("a"));
            def
        };
        let invalid = |def: &SystemDef, needle: &str| match validate(def) {
            Err(ArcadeError::Invalid(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Invalid naming {needle}, got {other:?}"),
        };
        assert!(validate(&erlang(256)).is_ok());
        for k in [257, 300, u32::MAX] {
            invalid(
                &erlang(k),
                &format!("component `a`: a distribution with {k} phases"),
            );
        }
        let mut def = simple_def();
        def.components[0].ttr = vec![Dist::exp(1.0), Dist::erlang(257, 2.0)];
        def.components[0].failure_mode_probs = vec![0.5, 0.5];
        invalid(&def, "component `a`: a distribution with 257");
        let mut def = simple_def();
        def.components[0].failure_mode_probs = vec![1.0 / 256.0; 256];
        def.components[0].ttr = vec![Dist::exp(1.0); 256];
        assert!(validate(&def).is_ok());
        def.components[0] = def.components[0]
            .clone()
            .with_df(Expr::down("b"), Dist::exp(1.0));
        invalid(&def, "component `a`: 257 failure modes");

        let names: Vec<String> = (0..257).map(|i| format!("c{i}")).collect();
        let mut def = SystemDef::new("t");
        for n in &names {
            def.add_component(BcDef::new(n.as_str(), Dist::exp(0.1), Dist::exp(1.0)));
        }
        def.set_system_down(Expr::down("c0"));
        def.add_repair_unit(RuDef::new(
            "r",
            names.iter().map(String::as_str),
            RepairStrategy::Fcfs,
        ));
        invalid(&def, "repair unit `r` serves 257 components");
        def.repair_units[0].components.pop();
        assert!(validate(&def).is_ok());

        let mut def = SystemDef::new("t");
        for n in &names[..33] {
            let spare = BcDef::new(n.as_str(), Dist::exp(0.1), Dist::exp(1.0))
                .with_om_group(OmGroup::ActiveInactive)
                .with_ttf([Dist::Never, Dist::exp(0.1)]);
            def.add_component(spare);
        }
        def.components[0] = BcDef::new("c0", Dist::exp(0.1), Dist::exp(1.0));
        def.set_system_down(Expr::down("c0"));
        def.add_smu(SmuDef::new(
            "m",
            "c0",
            names[1..33].iter().map(String::as_str),
        ));
        invalid(&def, "SMU `m` manages 32 spares");
        def.smus[0].spares.pop();
        assert!(validate(&def).is_ok());
        def.smus[0].failover = Some(Dist::erlang(257, 1.0));
        invalid(&def, "SMU `m`: a failover distribution with 257 phases");
    }

    #[test]
    fn self_reference_rejected() {
        let mut def = simple_def();
        def.components[0] = BcDef::new("a", Dist::exp(0.1), Dist::exp(1.0))
            .with_df(Expr::down("a"), Dist::exp(1.0));
        assert!(validate(&def).is_err());
    }

    #[test]
    fn kofn_range_checked() {
        let mut def = simple_def();
        def.set_system_down(Expr::k_of_n(3, [Expr::down("a"), Expr::down("b")]));
        assert!(validate(&def).is_err());
    }

    #[test]
    fn signals_mode_matching() {
        let def = simple_def();
        let mut ab = Alphabet::new();
        let s = Signals::build(&def, &mut ab);
        let lit = Literal {
            component: "a".into(),
            mode: ModeRef::Any,
        };
        let sigs = s.down_signals(&lit).unwrap();
        assert_eq!(sigs.len(), 1); // one inherent mode, no df, no na
        assert!(s
            .down_signals(&Literal {
                component: "a".into(),
                mode: ModeRef::Df,
            })
            .is_err());
        assert!(s.up_signal("a").is_ok());
        assert!(s.up_signal("zz").is_err());
    }
}
