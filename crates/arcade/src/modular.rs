//! Modularization (paper §5.2.2).
//!
//! When the `SYSTEM DOWN` criterion is a top-level OR whose branches touch
//! statistically independent parts of the system, each part ("module") can
//! be analyzed separately and the results combined — the technique the
//! paper borrows from \[7\] for the reactor cooling system, where the pump
//! subsystem and the heat-exchanger subsystem are solved as separate
//! CTMCs.
//!
//! Two top-level OR branches belong to the same module iff their
//! *dependency closures* overlap. The closure of a component set adds:
//! components referenced by members' trigger/DF expressions, components
//! sharing a repair unit, and components sharing an SMU. Modules computed
//! this way are independent CTMCs, and the system is down iff some module
//! is, so a measure factors over the modules when it is the probability
//! of an event that is a union or an intersection of per-module events
//! ([`ModularAnalysis::evaluate`]):
//!
//! * the down-type measures — steady-state and point unavailability,
//!   no-repair unreliability and first-passage unreliability with repairs
//!   (a first passage in any module is the first system failure) —
//!   combine as `1 - Π (1 - xᵢ)`;
//! * the up-type measures — steady-state and point availability and
//!   no-repair reliability — combine as `Π yᵢ`.
//!
//! The MTTF, interval availability and bounded-until probabilities are
//! not products of per-module values, so they need the monolithic
//! [`Session`].

use std::collections::HashSet;

use crate::ast::SystemDef;
use crate::engine::EngineOptions;
use crate::error::ArcadeError;
use crate::expr::Expr;
use crate::query::{Measure, Session};

/// One independent module and its analysis.
#[derive(Debug)]
pub struct ModuleAnalysis {
    /// Module name (`module0`, `module1`, …).
    pub name: String,
    /// The components the module contains.
    pub components: Vec<String>,
    /// The module's own session, with both configurations built.
    pub session: Session,
}

/// The combined modular analysis.
#[derive(Debug)]
pub struct ModularAnalysis {
    /// The per-module analyses.
    pub modules: Vec<ModuleAnalysis>,
}

impl ModularAnalysis {
    /// Evaluates a measure batch for the whole system: every module's
    /// session answers the batch in one pass (one transient solve per
    /// module and measure kind), then each measure is combined over the
    /// modules in module order — `1 - Π (1 - xᵢ)` for the down-type kinds,
    /// `Π yᵢ` for the up-type kinds (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] for [`Measure::Mttf`],
    /// [`Measure::IntervalAvailability`] and [`Measure::BoundedUntil`],
    /// which do not factor over independent modules; otherwise as
    /// [`Session::evaluate`].
    pub fn evaluate(&self, measures: &[Measure]) -> Result<Vec<f64>, ArcadeError> {
        let up = measures
            .iter()
            .map(|m| match m {
                Measure::SteadyStateAvailability
                | Measure::PointAvailability(_)
                | Measure::Reliability(_) => Ok(true),
                Measure::SteadyStateUnavailability
                | Measure::PointUnavailability(_)
                | Measure::Unreliability(_)
                | Measure::UnreliabilityWithRepair(_) => Ok(false),
                Measure::Mttf | Measure::IntervalAvailability(_) | Measure::BoundedUntil { .. } => {
                    Err(ArcadeError::invalid(format!(
                        "{m:?} does not factor over independent modules"
                    )))
                }
            })
            .collect::<Result<Vec<bool>, _>>()?;
        let per_module = self
            .modules
            .iter()
            .map(|m| m.session.evaluate(measures))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(up
            .iter()
            .enumerate()
            .map(|(j, &up)| {
                if up {
                    per_module.iter().map(|v| v[j]).product()
                } else {
                    1.0 - per_module.iter().map(|v| 1.0 - v[j]).product::<f64>()
                }
            })
            .collect())
    }
}

/// Runs a modular analysis of `def` with the given engine options.
///
/// Each module gets its own [`Session`], with both of its configurations
/// (availability and no-repair) aggregated here, the modules
/// concurrently. The solver configuration in [`EngineOptions::solver`] —
/// including the transient kernels ([`ctmc::SolverOptions::transient`]) —
/// applies per module; [`ModularAnalysis::evaluate`] solves the modules
/// one after another.
///
/// # Errors
///
/// Returns an error if the definition is invalid or a module analysis
/// fails. A criterion that does not decompose (single module) still works —
/// it just runs as one module, i.e. a full analysis.
pub fn modular_analysis(
    def: &SystemDef,
    opts: &EngineOptions,
) -> Result<ModularAnalysis, ArcadeError> {
    crate::model::validate(def)?;
    let down = def
        .system_down
        .as_ref()
        .ok_or_else(|| ArcadeError::invalid("SYSTEM DOWN criterion missing"))?;

    // Top-level OR branches.
    let branches: Vec<Expr> = match down {
        Expr::Or(cs) => cs.clone(),
        other => vec![other.clone()],
    };

    // Dependency closure of each branch's component set.
    let closures: Vec<HashSet<String>> = branches
        .iter()
        .map(|b| {
            let mut set: HashSet<String> =
                b.literals().iter().map(|l| l.component.clone()).collect();
            dependency_closure(def, &mut set);
            set
        })
        .collect();

    // Union-find over branches with overlapping closures. `find` is a
    // plain loop with path halving — the top-level branch count bounds
    // nothing, so no recursion depth to worry about.
    let n = branches.len();
    let mut group: Vec<usize> = (0..n).collect();
    fn find(group: &mut [usize], mut i: usize) -> usize {
        while group[i] != i {
            group[i] = group[group[i]];
            i = group[i];
        }
        i
    }
    for i in 0..n {
        for j in i + 1..n {
            if !closures[i].is_disjoint(&closures[j]) {
                let (ri, rj) = (find(&mut group, i), find(&mut group, j));
                if ri != rj {
                    group[rj] = ri;
                }
            }
        }
    }

    // Build one sub-definition per group.
    let roots: Vec<usize> = (0..n).map(|i| find(&mut group, i)).collect();
    let mut unique_roots: Vec<usize> = roots.clone();
    unique_roots.sort_unstable();
    unique_roots.dedup();

    let jobs: Vec<(String, Vec<String>, SystemDef)> = unique_roots
        .iter()
        .enumerate()
        .map(|(mi, &root)| {
            let member_branches: Vec<Expr> = (0..n)
                .filter(|&i| roots[i] == root)
                .map(|i| branches[i].clone())
                .collect();
            let mut comps: HashSet<String> = member_branches
                .iter()
                .flat_map(|b| b.literals().into_iter().map(|l| l.component.clone()))
                .collect();
            dependency_closure(def, &mut comps);

            let mut sub = SystemDef::new(format!("{}-module{mi}", def.name));
            for bc in &def.components {
                if comps.contains(&bc.name) {
                    sub.add_component(bc.clone());
                }
            }
            for ru in &def.repair_units {
                if ru.components.iter().any(|c| comps.contains(c)) {
                    sub.add_repair_unit(ru.clone());
                }
            }
            for smu in &def.smus {
                if comps.contains(&smu.primary) || smu.spares.iter().any(|s| comps.contains(s)) {
                    sub.add_smu(smu.clone());
                }
            }
            sub.set_system_down(if member_branches.len() == 1 {
                member_branches.into_iter().next().expect("one branch")
            } else {
                Expr::Or(member_branches)
            });
            let mut components: Vec<String> = comps.into_iter().collect();
            components.sort();
            (format!("module{mi}"), components, sub)
        })
        .collect();

    // Modules are statistically independent CTMCs — solve them
    // concurrently. Each worker runs the exact analysis the sequential
    // loop would; results come back in module order, so the combined
    // report is identical for every thread count. A module session's
    // `prefetch_all` fans its two configurations out in turn, so the
    // thread budget is split across the module workers to bound the
    // total thread count.
    let threads = ioimc::par::effective_threads(opts.threads);
    let worker_opts = if threads > 1 && jobs.len() > 1 {
        opts.clone()
            .with_threads(ioimc::par::split_budget(threads, jobs.len()))
    } else {
        opts.clone()
    };
    let results = ioimc::par::par_map(threads, &jobs, |_, (_, _, sub)| {
        let session = Session::new(sub)?.with_options(worker_opts.clone());
        session.prefetch_all()?;
        Ok::<_, ArcadeError>(session)
    });
    let mut modules = Vec::with_capacity(jobs.len());
    for ((name, components, _), session) in jobs.into_iter().zip(results) {
        modules.push(ModuleAnalysis {
            name,
            components,
            session: session?,
        });
    }
    Ok(ModularAnalysis { modules })
}

/// Extends `set` with every component coupled to a member through trigger
/// expressions, destructive dependencies, shared repair units or shared
/// SMUs, to a fixpoint.
fn dependency_closure(def: &SystemDef, set: &mut HashSet<String>) {
    loop {
        let before = set.len();
        for bc in &def.components {
            if !set.contains(&bc.name) {
                continue;
            }
            for g in &bc.om_groups {
                if let Some(t) = g.trigger() {
                    for l in t.literals() {
                        set.insert(l.component.clone());
                    }
                }
            }
            if let Some(d) = &bc.df {
                for l in d.literals() {
                    set.insert(l.component.clone());
                }
            }
        }
        for ru in &def.repair_units {
            if ru.components.iter().any(|c| set.contains(c)) {
                set.extend(ru.components.iter().cloned());
            }
        }
        for smu in &def.smus {
            let members: Vec<&String> = std::iter::once(&smu.primary).chain(&smu.spares).collect();
            if members.iter().any(|c| set.contains(*c)) {
                set.extend(members.into_iter().cloned());
            }
        }
        // Reverse coupling: a component whose trigger/DF references a
        // member is itself coupled to the member.
        for bc in &def.components {
            if set.contains(&bc.name) {
                continue;
            }
            let refs_member = bc
                .om_groups
                .iter()
                .filter_map(|g| g.trigger())
                .chain(bc.df.as_ref())
                .flat_map(|e| e.literals())
                .any(|l| set.contains(&l.component));
            if refs_member {
                set.insert(bc.name.clone());
            }
        }
        if set.len() == before {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BcDef, RepairStrategy, RuDef};
    use crate::dist::Dist;

    /// Two independent single-component modules: modular result equals the
    /// monolithic one.
    #[test]
    fn modular_matches_monolithic() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.01), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.03), Dist::exp(2.0)));
        def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::or([Expr::down("a"), Expr::down("b")]));

        let opts = EngineOptions::new();
        let modular = modular_analysis(&def, &opts).unwrap();
        assert_eq!(modular.modules.len(), 2);
        let t = 3.0;
        let batch = [
            Measure::SteadyStateUnavailability,
            Measure::Reliability(t),
            Measure::UnreliabilityWithRepair(t),
            Measure::PointUnavailability(t),
            Measure::SteadyStateAvailability,
        ];
        let m = modular.evaluate(&batch).unwrap();
        let mono = Session::new(&def).unwrap().evaluate(&batch).unwrap();
        assert!((m[0] - mono[0]).abs() < 1e-10);
        assert!((m[1] - mono[1]).abs() < 1e-9);
        assert!((m[2] - mono[2]).abs() < 1e-9);
        assert!((m[3] - mono[3]).abs() < 1e-9);
        assert!((m[4] + m[0] - 1.0).abs() < 1e-12);
        // The MTTF is no product of per-module values.
        assert!(matches!(
            modular.evaluate(&[Measure::Mttf]),
            Err(ArcadeError::Invalid(_))
        ));
    }

    /// The module fan-out (and each module session's configuration
    /// prefetch inside it) is a scheduling change only: the two-module
    /// model of `modular_matches_monolithic` evaluates bitwise identically
    /// at 1, 2 and 8 threads.
    #[test]
    fn modular_evaluation_is_thread_count_invariant() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.01), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.03), Dist::exp(2.0)));
        def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::or([Expr::down("a"), Expr::down("b")]));
        let batch = [
            Measure::SteadyStateUnavailability,
            Measure::Reliability(3.0),
            Measure::UnreliabilityWithRepair(3.0),
            Measure::PointUnavailability(3.0),
            Measure::SteadyStateAvailability,
        ];
        let bits = |threads: usize| -> Vec<u64> {
            let opts = EngineOptions::new().with_threads(threads);
            let modular = modular_analysis(&def, &opts).unwrap();
            assert_eq!(modular.modules.len(), 2);
            let values = modular.evaluate(&batch).unwrap();
            values.iter().map(|v| v.to_bits()).collect()
        };
        let serial = bits(1);
        for threads in [2, 8] {
            assert_eq!(bits(threads), serial, "{threads} threads");
        }
    }

    /// A shared repair unit couples the components into one module.
    #[test]
    fn shared_ru_merges_modules() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.01), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.03), Dist::exp(2.0)));
        def.add_repair_unit(RuDef::new("r", ["a", "b"], RepairStrategy::Fcfs));
        def.set_system_down(Expr::or([Expr::down("a"), Expr::down("b")]));
        let modular = modular_analysis(&def, &EngineOptions::new()).unwrap();
        assert_eq!(modular.modules.len(), 1);
        assert_eq!(modular.modules[0].components.len(), 2);
    }

    /// An AND across independent components is one module (no unsound
    /// splitting).
    #[test]
    fn and_branch_stays_together() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.01), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.03), Dist::exp(2.0)));
        def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
        let modular = modular_analysis(&def, &EngineOptions::new()).unwrap();
        assert_eq!(modular.modules.len(), 1);
    }

    /// Trigger expressions couple components (load sharing).
    #[test]
    fn trigger_couples() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("p1", Dist::exp(0.01), Dist::exp(1.0)));
        def.add_component(
            BcDef::new("p2", Dist::exp(0.01), Dist::exp(1.0))
                .with_om_group(crate::ast::OmGroup::NormalDegraded(Expr::down("p1")))
                .with_ttf([Dist::exp(0.01), Dist::exp(0.02)]),
        );
        def.add_component(BcDef::new("c", Dist::exp(0.05), Dist::exp(1.0)));
        def.set_system_down(Expr::or([Expr::down("p2"), Expr::down("c")]));
        let modular = modular_analysis(&def, &EngineOptions::new()).unwrap();
        // p2 pulls in p1; c stays separate
        assert_eq!(modular.modules.len(), 2);
        let big = modular
            .modules
            .iter()
            .find(|m| m.components.len() == 2)
            .unwrap();
        assert!(big.components.contains(&"p1".to_owned()));
    }
}
