//! Elimination of vanishing states in closed models.
//!
//! After the full system has been composed, everything hidden, and the model
//! reduced, the remaining interactive transitions are internal and happen in
//! zero time. States with outgoing internal transitions are *vanishing*:
//! the sojourn time is zero, so they contribute nothing to any measure and
//! can be skipped by redirecting incoming Markovian transitions to the
//! stable state the tau path leads to. This is the final step before CTMC
//! extraction.
//!
//! Well-formed Arcade models are *weakly deterministic*: every vanishing
//! state reaches exactly one stable state (diamonds from interleaved urgent
//! signals have been merged by the preceding bisimulation reduction). A
//! vanishing state with several distinct stable successors signals genuine
//! nondeterminism that makes the stochastic process ill-defined; it is
//! reported as an error instead of being silently resolved.

use std::fmt;

use ioimc::{IoImc, StateId};

/// A vanishing state could silently reach more than one stable state (or a
/// tau cycle), so the model has no unique underlying CTMC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NondeterminismError {
    /// The offending state.
    pub state: StateId,
    /// The distinct stable states it can reach (empty for a tau cycle).
    pub targets: Vec<StateId>,
}

impl fmt::Display for NondeterminismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.targets.is_empty() {
            write!(
                f,
                "state {} diverges on an internal cycle; no stable successor",
                self.state
            )
        } else {
            write!(
                f,
                "state {} nondeterministically reaches stable states {:?}",
                self.state, self.targets
            )
        }
    }
}

impl std::error::Error for NondeterminismError {}

/// Eliminates vanishing states of a *closed* automaton (no inputs/outputs),
/// producing an automaton whose states are exactly the stable states of the
/// input and whose transitions are purely Markovian.
///
/// # Errors
///
/// Returns [`NondeterminismError`] if a vanishing state reaches more than
/// one stable state or lies on a tau cycle.
///
/// # Panics
///
/// Panics if the automaton still has inputs or outputs.
pub fn eliminate_vanishing(imc: &IoImc) -> Result<IoImc, NondeterminismError> {
    assert!(
        imc.inputs().is_empty() && imc.outputs().is_empty(),
        "eliminate_vanishing requires a closed automaton"
    );
    let n = imc.num_states();
    // resolve[s]: the unique stable state reachable from s via tau steps.
    let mut resolve: Vec<Option<StateId>> = vec![None; n];
    let mut visiting = vec![false; n];
    for s in 0..n as StateId {
        resolve_state(imc, s, &mut resolve, &mut visiting)?;
    }

    // Keep stable states only, renumbered in order.
    let mut stable_index: Vec<Option<StateId>> = vec![None; n];
    let mut stable: Vec<StateId> = Vec::new();
    for s in 0..n as StateId {
        if imc.interactive_from(s).is_empty() {
            stable_index[s as usize] = Some(stable.len() as StateId);
            stable.push(s);
        }
    }
    let map = |s: StateId| -> StateId {
        let r = resolve[s as usize].expect("resolved above");
        stable_index[r as usize].expect("resolution target is stable")
    };

    let markovian = stable
        .iter()
        .map(|&s| {
            imc.markovian_from(s)
                .iter()
                .map(|&(r, t)| (r, map(t)))
                .collect()
        })
        .collect();
    let labels = stable.iter().map(|&s| imc.label(s)).collect();
    let mut out = IoImc::from_parts_unchecked(
        map(imc.initial()),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        vec![Vec::new(); stable.len()],
        markovian,
        labels,
    );
    if let Some(forms) = imc.forms() {
        out.attach_forms(
            forms.with_ids(
                stable
                    .iter()
                    .flat_map(|&s| imc.markovian_forms_from(s).expect("forms present"))
                    .copied()
                    .collect(),
            ),
        );
    }
    out.normalize();
    Ok(ioimc::reach::restrict_reachable(&out))
}

fn resolve_state(
    imc: &IoImc,
    s: StateId,
    resolve: &mut Vec<Option<StateId>>,
    visiting: &mut Vec<bool>,
) -> Result<StateId, NondeterminismError> {
    if let Some(r) = resolve[s as usize] {
        return Ok(r);
    }
    if visiting[s as usize] {
        return Err(NondeterminismError {
            state: s,
            targets: Vec::new(),
        });
    }
    if imc.interactive_from(s).is_empty() {
        resolve[s as usize] = Some(s);
        return Ok(s);
    }
    visiting[s as usize] = true;
    let mut targets: Vec<StateId> = Vec::new();
    for &(_, t) in imc.interactive_from(s) {
        let r = resolve_state(imc, t, resolve, visiting)?;
        if !targets.contains(&r) {
            targets.push(r);
        }
    }
    visiting[s as usize] = false;
    if targets.len() != 1 {
        targets.sort_unstable();
        return Err(NondeterminismError { state: s, targets });
    }
    resolve[s as usize] = Some(targets[0]);
    Ok(targets[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioimc::builder::IoImcBuilder;
    use ioimc::Alphabet;

    fn tau_alpha() -> (Alphabet, ioimc::ActionId) {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        (ab, tau)
    }

    #[test]
    fn chain_is_skipped() {
        let (_, tau) = tau_alpha();
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        // s0 -1.0-> s1 -tau-> s2 -tau-> s3 -2.0-> s0
        b.markovian(s[0], 1.0, s[1])
            .interactive(s[1], tau, s[2])
            .interactive(s[2], tau, s[3])
            .markovian(s[3], 2.0, s[0]);
        let imc = b.build().unwrap();
        let out = eliminate_vanishing(&imc).unwrap();
        assert_eq!(out.num_states(), 2);
        assert_eq!(out.num_interactive(), 0);
        assert_eq!(out.num_markovian(), 2);
    }

    #[test]
    fn confluent_diamond_is_merged() {
        let (_, tau) = tau_alpha();
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s: Vec<_> = (0..5).map(|_| b.add_state()).collect();
        // s0 -1.0-> s1; s1 -tau-> s2 -tau-> s4; s1 -tau-> s3 -tau-> s4
        b.markovian(s[0], 1.0, s[1])
            .interactive(s[1], tau, s[2])
            .interactive(s[2], tau, s[4])
            .interactive(s[1], tau, s[3])
            .interactive(s[3], tau, s[4]);
        let imc = b.build().unwrap();
        let out = eliminate_vanishing(&imc).unwrap();
        assert_eq!(out.num_states(), 2);
    }

    #[test]
    fn genuine_nondeterminism_is_reported() {
        let (_, tau) = tau_alpha();
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.interactive(s[0], tau, s[1]).interactive(s[0], tau, s[2]);
        let imc = b.build().unwrap();
        let err = eliminate_vanishing(&imc).unwrap_err();
        assert_eq!(err.state, 0);
        assert_eq!(err.targets, vec![1, 2]);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn tau_cycle_is_reported() {
        let (_, tau) = tau_alpha();
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.interactive(s0, tau, s1).interactive(s1, tau, s0);
        let imc = b.build().unwrap();
        let err = eliminate_vanishing(&imc).unwrap_err();
        assert!(err.targets.is_empty());
    }

    #[test]
    fn vanishing_initial_state_is_resolved() {
        let (_, tau) = tau_alpha();
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s0 = b.add_state();
        let s1 = b.add_labeled_state(1);
        b.interactive(s0, tau, s1);
        let imc = b.build().unwrap();
        let out = eliminate_vanishing(&imc).unwrap();
        assert_eq!(out.num_states(), 1);
        assert_eq!(out.label(out.initial()), 1);
    }
}
