//! Parallel composition of I/O-IMCs.
//!
//! Synchronization follows the I/O-automata discipline the paper adopts:
//! every automaton that has a visible action `a` in its signature must
//! participate in every `a`-transition. Because I/O-IMCs are input-enabled,
//! a component can never block an output of another component; when an
//! output `a!` synchronizes with inputs `a?` the result is an output `a!`.
//! Markovian transitions interleave.

use std::fmt;

use crate::alphabet::ActionId;
use crate::automaton::{IoImc, StateId};
use crate::budget::{self, BudgetExceeded};

/// The ways two I/O-IMCs can fail to be composable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// Both automata declare the action as an output.
    SharedOutput(ActionId),
    /// An internal action of one automaton is a *visible* action of the
    /// other. Internal actions never synchronize, so sharing an internal
    /// action id between two automata is harmless, but an internal action
    /// clashing with an input or output would silently fail to synchronize.
    SharedInternal(ActionId),
    /// The product BFS outgrew the ambient [`crate::budget::Budget`]
    /// (state/transition ceiling, deadline, or cancellation). Combinatorial
    /// products explode *inside* a single composition step, so the ceiling
    /// must bite here, not only between steps.
    Budget(BudgetExceeded),
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SharedOutput(a) => write!(f, "action {a} is an output of both automata"),
            Self::SharedInternal(a) => {
                write!(f, "internal action {a} clashes with the other automaton")
            }
            Self::Budget(e) => write!(f, "composition aborted: {e}"),
        }
    }
}

impl std::error::Error for ComposeError {}

/// Checks whether `a` and `b` are composable (disjoint outputs, private
/// internals).
///
/// # Errors
///
/// Returns the offending action on the first violation.
pub fn check_compatible(a: &IoImc, b: &IoImc) -> Result<(), ComposeError> {
    for &x in a.outputs() {
        if b.outputs().binary_search(&x).is_ok() {
            return Err(ComposeError::SharedOutput(x));
        }
    }
    for &x in a.internals() {
        if b.is_visible(x) {
            return Err(ComposeError::SharedInternal(x));
        }
    }
    for &x in b.internals() {
        if a.is_visible(x) {
            return Err(ComposeError::SharedInternal(x));
        }
    }
    Ok(())
}

/// Parallel composition `a || b`, restricted to states reachable from the
/// pair of initial states.
///
/// The composite signature is: outputs `O_a ∪ O_b`; inputs
/// `(I_a ∪ I_b) \ (O_a ∪ O_b)`; internals `H_a ∪ H_b`. State labels are
/// OR-ed.
///
/// # Errors
///
/// Returns a [`ComposeError`] if the automata are not composable.
///
/// # Example
///
/// ```
/// use ioimc::{Alphabet, builder::IoImcBuilder, compose::parallel};
/// let mut ab = Alphabet::new();
/// let ping = ab.intern("ping");
/// let mut sender = IoImcBuilder::new();
/// sender.set_outputs([ping]);
/// let s0 = sender.add_state();
/// let s1 = sender.add_state();
/// sender.interactive(s0, ping, s1);
/// let sender = sender.build()?;
///
/// let mut receiver = IoImcBuilder::new();
/// receiver.set_inputs([ping]);
/// let r0 = receiver.add_state();
/// let r1 = receiver.add_state();
/// receiver.interactive(r0, ping, r1);
/// let receiver = receiver.complete_inputs().build()?;
///
/// let p = parallel(&sender, &receiver)?;
/// // ping! forces both to move: (0,0) -ping!-> (1,1)
/// assert_eq!(p.num_states(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn parallel(a: &IoImc, b: &IoImc) -> Result<IoImc, ComposeError> {
    check_compatible(a, b)?;

    // Composite signature.
    let mut outputs: Vec<ActionId> = a.outputs().iter().chain(b.outputs()).copied().collect();
    outputs.sort_unstable();
    outputs.dedup();
    let mut inputs: Vec<ActionId> = a
        .inputs()
        .iter()
        .chain(b.inputs())
        .copied()
        .filter(|x| outputs.binary_search(x).is_err())
        .collect();
    inputs.sort_unstable();
    inputs.dedup();
    let mut internals: Vec<ActionId> = a.internals().iter().chain(b.internals()).copied().collect();
    internals.sort_unstable();
    internals.dedup();

    // BFS over the reachable product states. States are numbered in
    // discovery order and fully expanded one at a time, so the composite
    // transitions can be emitted straight into flat CSR storage — no
    // per-state Vec allocations on this hot path.
    let mut index: crate::fxhash::FxHashMap<(StateId, StateId), StateId> =
        crate::fxhash::FxHashMap::default();
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();
    let mut inter_off: Vec<u32> = vec![0];
    let mut inter: Vec<(ActionId, StateId)> = Vec::new();
    let mut mark_off: Vec<u32> = vec![0];
    let mut mark: Vec<(f64, StateId)> = Vec::new();
    let mut labels: Vec<u64> = Vec::new();
    // Rate forms ride along whenever either side carries them: an
    // interleaved transition keeps its component's form, with constant
    // forms synthesized for the formless side.
    let carry_forms = a.forms().is_some() || b.forms().is_some();
    let mut forms: Vec<crate::form::RateForm> = Vec::new();

    let get_or_insert = |sa: StateId,
                         sb: StateId,
                         index: &mut crate::fxhash::FxHashMap<(StateId, StateId), StateId>,
                         pairs: &mut Vec<(StateId, StateId)>|
     -> StateId {
        *index.entry((sa, sb)).or_insert_with(|| {
            let id = pairs.len() as StateId;
            pairs.push((sa, sb));
            id
        })
    };

    let init = get_or_insert(a.initial(), b.initial(), &mut index, &mut pairs);
    debug_assert_eq!(init, 0);
    // Poll the ambient budget every `CHECK_MASK + 1` expanded states: the
    // product can be exponentially larger than either factor, so the
    // state/transition ceiling (and the deadline) must be able to stop
    // the BFS itself.
    const CHECK_MASK: usize = 0xFFF;
    let limited = budget::current().is_some_and(|b| b.is_limited());
    let mut next = 0usize;
    while next < pairs.len() {
        if limited && next & CHECK_MASK == 0 {
            budget::check_model_size(pairs.len() as u64, (inter.len() + mark.len()) as u64)
                .map_err(ComposeError::Budget)?;
        }
        let (sa, sb) = pairs[next];

        // Markovian interleaving.
        for (i, &(r, ta)) in a.markovian_from(sa).iter().enumerate() {
            let t = get_or_insert(ta, sb, &mut index, &mut pairs);
            mark.push((r, t));
            if carry_forms {
                forms.push(match a.markovian_forms_from(sa) {
                    Some(f) => f[i].clone(),
                    None => crate::form::RateForm::constant(r),
                });
            }
        }
        for (i, &(r, tb)) in b.markovian_from(sb).iter().enumerate() {
            let t = get_or_insert(sa, tb, &mut index, &mut pairs);
            mark.push((r, t));
            if carry_forms {
                forms.push(match b.markovian_forms_from(sb) {
                    Some(f) => f[i].clone(),
                    None => crate::form::RateForm::constant(r),
                });
            }
        }

        // Interactive transitions of `a`.
        for &(act, ta) in a.interactive_from(sa) {
            if b.is_visible(act) {
                // Shared visible action: both move.
                let mut matched = false;
                for &(act_b, tb) in b.interactive_from(sb) {
                    if act_b == act {
                        let t = get_or_insert(ta, tb, &mut index, &mut pairs);
                        inter.push((act, t));
                        matched = true;
                    }
                }
                // If `act` is an *input* of `b`, input-enabledness demands
                // a transition in every state; a missing one would make
                // this synchronization vanish silently.
                debug_assert!(
                    matched || b.kind_of(act) != Some(crate::ActionKind::Input),
                    "partner automaton is not input-enabled for shared \
                     action {act} in state {sb}: synchronization dropped"
                );
            } else {
                let t = get_or_insert(ta, sb, &mut index, &mut pairs);
                inter.push((act, t));
            }
        }
        // Interactive transitions of `b` on actions not shared with `a`
        // (shared ones were handled above).
        for &(act, tb) in b.interactive_from(sb) {
            if !a.is_visible(act) {
                let t = get_or_insert(sa, tb, &mut index, &mut pairs);
                inter.push((act, t));
            } else {
                // Mirror of the check above: `a` must offer every one of
                // its shared *inputs* here, or the pairing was lost when
                // `a`'s transitions were expanded.
                debug_assert!(
                    a.kind_of(act) != Some(crate::ActionKind::Input)
                        || a.interactive_from(sa).iter().any(|&(x, _)| x == act),
                    "automaton is not input-enabled for shared action \
                     {act} in state {sa}: synchronization dropped"
                );
            }
        }

        inter_off.push(u32::try_from(inter.len()).expect("more than u32::MAX transitions"));
        mark_off.push(u32::try_from(mark.len()).expect("more than u32::MAX transitions"));
        labels.push(a.label(sa) | b.label(sb));
        next += 1;
    }

    if limited {
        // Final exact check: the last BFS chunk may have crossed a ceiling
        // between polls.
        budget::check_model_size(pairs.len() as u64, (inter.len() + mark.len()) as u64)
            .map_err(ComposeError::Budget)?;
    }
    let mut out = IoImc::from_csr_unchecked(
        0, inputs, outputs, internals, inter_off, inter, mark_off, mark, labels,
    );
    if carry_forms {
        out.attach_forms(forms);
    }
    out.normalize();
    Ok(out)
}

/// Folds [`parallel`] over a non-empty slice of automata, left to right.
///
/// # Errors
///
/// Returns the first composition error.
///
/// # Panics
///
/// Panics if `automata` is empty.
pub fn parallel_all(automata: &[IoImc]) -> Result<IoImc, ComposeError> {
    assert!(!automata.is_empty(), "parallel_all of empty slice");
    let mut acc = automata[0].clone();
    for x in &automata[1..] {
        acc = parallel(&acc, x)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IoImcBuilder;
    use crate::Alphabet;

    /// Output automaton: emits `a!` after rate-λ delay, then stops.
    fn emitter(a: ActionId, rate: f64) -> IoImc {
        let mut b = IoImcBuilder::new();
        b.set_outputs([a]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        let s2 = b.add_state();
        b.markovian(s0, rate, s1).interactive(s1, a, s2);
        b.build().unwrap()
    }

    /// Input automaton: flips between two states on `a?`.
    fn listener(a: ActionId) -> IoImc {
        let mut b = IoImcBuilder::new();
        b.set_inputs([a]);
        let s0 = b.add_state();
        let s1 = b.add_labeled_state(1);
        b.interactive(s0, a, s1).interactive(s1, a, s0);
        b.build().unwrap()
    }

    #[test]
    fn output_synchronizes_with_input() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let p = parallel(&emitter(a, 1.0), &listener(a)).unwrap();
        // (0,0) -1.0-> (1,0) -a!-> (2,1); 3 reachable states.
        assert_eq!(p.num_states(), 3);
        assert_eq!(p.outputs(), &[a]);
        assert!(p.inputs().is_empty());
        // label of final state comes from the listener
        let last = p
            .iter_interactive()
            .map(|(_, _, t)| t)
            .next()
            .expect("one interactive transition");
        assert_eq!(p.label(last), 1);
    }

    #[test]
    fn two_inputs_synchronize_as_input() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let p = parallel(&listener(a), &listener(a)).unwrap();
        assert_eq!(p.inputs(), &[a]);
        // lock-step: (0,0) <-> (1,1); only 2 reachable states
        assert_eq!(p.num_states(), 2);
    }

    #[test]
    fn shared_output_is_rejected() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let e = parallel(&emitter(a, 1.0), &emitter(a, 2.0));
        assert_eq!(e, Err(ComposeError::SharedOutput(a)));
    }

    #[test]
    fn internal_clash_is_rejected() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let mut b = IoImcBuilder::new();
        b.set_internals([a]);
        let s = b.add_state();
        b.interactive(s, a, s);
        let internal = b.build().unwrap();
        let e = parallel(&internal, &listener(a));
        assert_eq!(e, Err(ComposeError::SharedInternal(a)));
    }

    #[test]
    fn markovian_interleaves() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b_ = ab.intern("b");
        let p = parallel(&emitter(a, 1.0), &emitter(b_, 2.0)).unwrap();
        // initial state has both rates racing
        assert_eq!(p.markovian_from(p.initial()).len(), 2);
        let total: f64 = p.markovian_from(p.initial()).iter().map(|x| x.0).sum();
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unrelated_actions_interleave() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b_ = ab.intern("b");
        let p = parallel(&listener(a), &listener(b_)).unwrap();
        // full 2x2 product reachable via independent inputs
        assert_eq!(p.num_states(), 4);
        let mut ins = p.inputs().to_vec();
        ins.sort_unstable();
        assert_eq!(ins, vec![a, b_]);
    }

    #[test]
    fn parallel_all_folds() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let p = parallel_all(&[emitter(a, 1.0), listener(a), listener(a)]).unwrap();
        assert_eq!(p.num_states(), 3);
    }

    /// An ambient state ceiling aborts the product BFS with a structured
    /// error instead of materializing the full product.
    #[test]
    fn ambient_state_ceiling_aborts_composition() {
        use crate::budget::{scope, Budget, BudgetKind};
        use std::sync::Arc;
        let mut ab = Alphabet::new();
        // 2x2 independent listeners: full product has 4 states.
        let a = ab.intern("a");
        let b_ = ab.intern("b");
        let (x, y) = (listener(a), listener(b_));
        let cap = Arc::new(Budget::unlimited().with_max_states(3));
        let e = scope(Some(cap), || parallel(&x, &y)).unwrap_err();
        match e {
            ComposeError::Budget(be) => assert_eq!(be.kind, BudgetKind::States),
            other => panic!("expected budget error, got {other:?}"),
        }
        // Without the ambient budget the same product composes fine.
        assert_eq!(parallel(&x, &y).unwrap().num_states(), 4);
    }

    #[test]
    fn composition_is_commutative_on_counts() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let x = emitter(a, 1.0);
        let y = listener(a);
        let xy = parallel(&x, &y).unwrap();
        let yx = parallel(&y, &x).unwrap();
        assert_eq!(xy.num_states(), yx.num_states());
        assert_eq!(xy.num_transitions(), yx.num_transitions());
    }
}
