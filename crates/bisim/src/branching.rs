//! Branching (weak) bisimulation with Markovian lumping.
//!
//! This is the equivalence Arcade's compositional aggregation minimizes
//! with: internal (tau) steps that stay inside an equivalence class are
//! unobservable, and cumulative Markovian rates into each class must match
//! (states with urgent transitions enabled carry no rates after the
//! maximal-progress cut).
//!
//! The implementation is signature-based partition refinement in the style
//! of Blom–Orzan: the signature of a state is the set of non-inert moves it
//! can make *after any sequence of inert tau steps*, computed by unioning
//! signatures along inert tau edges in reverse topological order.
//!
//! # Preconditions
//!
//! The tau graph must be acyclic ([`ioimc::scc::collapse_tau_sccs`]) and the
//! maximal-progress cut must have been applied — [`crate::pipeline::reduce`]
//! takes care of both.

use ioimc::{ActionKind, IoImc, StateId};

use crate::partition::Partition;
use crate::signature::{canonicalize, push_rate_entries, SigEntry, Signature};
use crate::strong::split;

/// Refines `initial` to the coarsest branching-bisimulation-with-lumping
/// partition of `imc`, returning the partition and the fixpoint signature of
/// each state.
///
/// Implemented by the worklist/splitter refiner (the crate-internal
/// `worklist` module; see the crate docs). A state's branching signature
/// reads the signatures of its inert tau successors, so dirty states are
/// re-signed in tau-topological order (tau-sinks first). The result —
/// partition numbering and signatures — is identical to
/// [`refine_branching_legacy`].
///
/// # Panics
///
/// Panics (in debug builds) if the tau graph has a cycle; release builds
/// fall back to treating the offending tau edges as observable, which is
/// sound but reduces less.
pub fn refine_branching(imc: &IoImc, initial: Partition) -> (Partition, Vec<Signature>) {
    let mut counters = crate::worklist::RefineCounters::default();
    crate::worklist::refine_worklist(
        imc,
        &initial,
        crate::worklist::Mode::Branching,
        &mut counters,
    )
}

/// The pre-worklist refinement loop: recomputes every state's signature on
/// every round. Kept (serial only) as the differential-testing oracle for
/// the worklist refiner — the proptests in this crate and the
/// `exp_scaling --smoke` gate assert both produce identical partitions and
/// quotients. Not a supported hot path.
pub fn refine_branching_legacy(imc: &IoImc, initial: Partition) -> (Partition, Vec<Signature>) {
    let n = imc.num_states();
    let order = tau_topological_order(imc);
    debug_assert_eq!(order.len(), n, "tau graph must be acyclic");
    let mut part = initial;
    let mut sigs: Vec<Signature> = vec![Vec::new(); n];
    loop {
        // Process tau-sinks first so that inert successors are ready.
        for &s in &order {
            sigs[s as usize] =
                branching_signature_with(imc, part.blocks(), |t| sigs[t as usize].as_slice(), s);
        }
        // States not covered by the order (tau cycles; should not happen
        // after SCC collapse) get a conservative, non-absorbing signature.
        if order.len() < n {
            let mut seen = vec![false; n];
            for &s in &order {
                seen[s as usize] = true;
            }
            for s in 0..n as StateId {
                if !seen[s as usize] {
                    sigs[s as usize] = conservative_signature(imc, part.blocks(), s);
                }
            }
        }
        let next = split(&part, &sigs);
        if next.num_blocks() == part.num_blocks() {
            return (next, sigs);
        }
        part = next;
    }
}

/// The branching signature of `s` against the per-state block array,
/// reading the already-computed signature entries of each inert tau
/// successor through `succ` (a slice into either the legacy per-state
/// `Vec<Signature>` or the worklist's hash-consed [`crate::signature::SigTable`]).
pub(crate) fn branching_signature_with<'a, F>(
    imc: &IoImc,
    block_of: &[u32],
    succ: F,
    s: StateId,
) -> Signature
where
    F: Fn(StateId) -> &'a [SigEntry],
{
    let mut sig: Signature = Vec::new();
    let mut rates: Vec<(u32, f64)> = Vec::new();
    branching_signature_into(imc, block_of, succ, s, &mut sig, &mut rates);
    sig
}

/// [`branching_signature_with`] into caller-provided buffers: `sig`
/// receives the canonicalized signature, `rates` is rate-accumulation
/// scratch. Hot refinement loops reuse both across states to avoid a heap
/// allocation per re-signed state.
pub(crate) fn branching_signature_into<'a, F>(
    imc: &IoImc,
    block_of: &[u32],
    succ: F,
    s: StateId,
    sig: &mut Signature,
    rates: &mut Vec<(u32, f64)>,
) where
    F: Fn(StateId) -> &'a [SigEntry],
{
    sig.clear();
    let own_block = block_of[s as usize];
    for &(a, t) in imc.interactive_from(s) {
        match imc.kind_of(a) {
            Some(ActionKind::Internal) => {
                let block = block_of[t as usize];
                if block == own_block {
                    // Inert: everything the successor can do, we can do
                    // after an unobservable step.
                    sig.extend_from_slice(succ(t));
                } else {
                    sig.push(SigEntry::Tau { block });
                }
            }
            _ => sig.push(SigEntry::Act {
                action: a,
                block: block_of[t as usize],
            }),
        }
    }
    push_rate_entries(imc, block_of, s, sig, rates);
    canonicalize(sig);
}

/// Signature that treats every tau edge as observable — used only as a
/// fallback for states on unexpected tau cycles.
pub(crate) fn conservative_signature(imc: &IoImc, block_of: &[u32], s: StateId) -> Signature {
    let mut sig: Signature = Vec::new();
    let mut rates: Vec<(u32, f64)> = Vec::new();
    conservative_signature_into(imc, block_of, s, &mut sig, &mut rates);
    sig
}

/// [`conservative_signature`] into caller-provided buffers (see
/// [`branching_signature_into`]).
pub(crate) fn conservative_signature_into(
    imc: &IoImc,
    block_of: &[u32],
    s: StateId,
    sig: &mut Signature,
    rates: &mut Vec<(u32, f64)>,
) {
    sig.clear();
    for &(a, t) in imc.interactive_from(s) {
        match imc.kind_of(a) {
            Some(ActionKind::Internal) => sig.push(SigEntry::Tau {
                block: block_of[t as usize],
            }),
            _ => sig.push(SigEntry::Act {
                action: a,
                block: block_of[t as usize],
            }),
        }
    }
    push_rate_entries(imc, block_of, s, sig, rates);
    canonicalize(sig);
}

/// The tau-edge structure the branching refiners schedule by: the
/// topological order (tau-sinks first) plus the tau-predecessor adjacency
/// in flat CSR form. The worklist refiner reuses the predecessor CSR to
/// close its dirty set under internal-action predecessors.
pub(crate) struct TauGraph {
    /// States in topological order of the tau graph, tau-sinks first.
    /// States on tau cycles are omitted.
    pub order: Vec<StateId>,
    /// Offsets into `preds` per state (`num_states + 1` entries).
    pub pred_off: Vec<u32>,
    /// Sources of internal-action edges into each state.
    pub preds: Vec<StateId>,
}

/// Builds the [`TauGraph`] of `imc` (count + fill passes, Kahn's
/// algorithm on the predecessor CSR).
pub(crate) fn tau_graph(imc: &IoImc) -> TauGraph {
    let n = imc.num_states();
    let mut out_degree = vec![0usize; n];
    let mut pred_off = vec![0u32; n + 1];
    for (s, a, t) in imc.iter_interactive() {
        if imc.kind_of(a) == Some(ActionKind::Internal) && s != t {
            out_degree[s as usize] += 1;
            pred_off[t as usize + 1] += 1;
        }
    }
    for i in 0..n {
        pred_off[i + 1] += pred_off[i];
    }
    let mut preds: Vec<StateId> = vec![0; pred_off[n] as usize];
    let mut cursor: Vec<u32> = pred_off[..n].to_vec();
    for (s, a, t) in imc.iter_interactive() {
        if imc.kind_of(a) == Some(ActionKind::Internal) && s != t {
            preds[cursor[t as usize] as usize] = s;
            cursor[t as usize] += 1;
        }
    }
    let mut order: Vec<StateId> = (0..n as StateId)
        .filter(|&s| out_degree[s as usize] == 0)
        .collect();
    let mut head = 0;
    while head < order.len() {
        let t = order[head] as usize;
        head += 1;
        for &p in &preds[pred_off[t] as usize..pred_off[t + 1] as usize] {
            out_degree[p as usize] -= 1;
            if out_degree[p as usize] == 0 {
                order.push(p);
            }
        }
    }
    TauGraph {
        order,
        pred_off,
        preds,
    }
}

/// Orders states so that every tau edge goes from a later to an earlier
/// position (tau-sinks first). States on tau cycles are omitted.
fn tau_topological_order(imc: &IoImc) -> Vec<StateId> {
    tau_graph(imc).order
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioimc::builder::IoImcBuilder;
    use ioimc::Alphabet;

    /// tau chain into an observable action: all chain states equivalent.
    #[test]
    fn inert_tau_chain_collapses() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let out = ab.intern("fail");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]).set_outputs([out]);
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.interactive(s[0], tau, s[1])
            .interactive(s[1], tau, s[2])
            .interactive(s[2], out, s[3]);
        let imc = b.build().unwrap();
        let (p, _) = refine_branching(&imc, Partition::by_label(&imc));
        assert_eq!(p.num_blocks(), 2);
        assert!(p.same_block(0, 1) && p.same_block(1, 2));
    }

    /// A tau step into a state with different options is observable.
    #[test]
    fn non_inert_tau_preserved() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let out = ab.intern("a");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]).set_outputs([out]);
        // s0 can do tau to s1 or a! to s2; s1 can only do a! to s2.
        // s0 and s1 are NOT branching bisimilar: s0 never loses the option
        // here (both reach a!)... they actually both just offer a!. The
        // tau from s0 to s1 is inert once they merge.
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.interactive(s[0], tau, s[1])
            .interactive(s[0], out, s[2])
            .interactive(s[1], out, s[2]);
        let imc = b.build().unwrap();
        let (p, _) = refine_branching(&imc, Partition::by_label(&imc));
        assert!(p.same_block(0, 1));
        assert_eq!(p.num_blocks(), 2);
    }

    /// Unstable state with an inert tau into a stable state inherits its
    /// rate signature (weak IMC bisimulation).
    #[test]
    fn unstable_merges_with_stable_successor() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        // s2 is labeled so the rate into it is observable.
        let s: Vec<_> = (0..3)
            .map(|i| b.add_labeled_state(u64::from(i == 2)))
            .collect();
        // s0 -tau-> s1 -3.0-> s2
        b.interactive(s[0], tau, s[1]).markovian(s[1], 3.0, s[2]);
        let imc = b.build().unwrap();
        let (p, _) = refine_branching(&imc, Partition::by_label(&imc));
        assert!(p.same_block(0, 1));
        assert!(!p.same_block(0, 2));
    }

    /// Distinct rates must not merge even through tau abstraction.
    #[test]
    fn rates_still_distinguish() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        // s3 is labeled so the differing rates into it are observable.
        let s: Vec<_> = (0..4)
            .map(|i| b.add_labeled_state(u64::from(i == 3)))
            .collect();
        b.interactive(s[0], tau, s[1])
            .markovian(s[1], 3.0, s[3])
            .markovian(s[2], 4.0, s[3]);
        let imc = b.build().unwrap();
        let (p, _) = refine_branching(&imc, Partition::by_label(&imc));
        assert!(p.same_block(0, 1));
        assert!(!p.same_block(1, 2));
    }

    /// Labels always separate, even across inert taus.
    #[test]
    fn labels_block_merging() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s0 = b.add_labeled_state(0);
        let s1 = b.add_labeled_state(1);
        b.interactive(s0, tau, s1);
        let imc = b.build().unwrap();
        let (p, _) = refine_branching(&imc, Partition::by_label(&imc));
        assert_eq!(p.num_blocks(), 2);
    }

    /// The classic branching-bisim counterexample: tau that discards an
    /// option is observable.
    #[test]
    fn option_discarding_tau_is_observable() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let a = ab.intern("a");
        let c = ab.intern("c");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]).set_outputs([a, c]);
        // s0: tau -> s1 (only a!), and c! -> s3. s1: a! -> s2.
        let s: Vec<_> = (0..4).map(|_| b.add_state()).collect();
        b.interactive(s[0], tau, s[1])
            .interactive(s[0], c, s[3])
            .interactive(s[1], a, s[2]);
        let imc = b.build().unwrap();
        let (p, _) = refine_branching(&imc, Partition::by_label(&imc));
        // s0 offers {tau->B(s1), c}, s1 offers {a}: must differ.
        assert!(!p.same_block(0, 1));
    }

    #[test]
    fn topological_order_is_complete_on_dags() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]);
        let s: Vec<_> = (0..5).map(|_| b.add_state()).collect();
        b.interactive(s[0], tau, s[1])
            .interactive(s[0], tau, s[2])
            .interactive(s[1], tau, s[3])
            .interactive(s[2], tau, s[3]);
        let imc = b.build().unwrap();
        let order = tau_topological_order(&imc);
        assert_eq!(order.len(), 5);
        let pos: Vec<_> = {
            let mut pos = vec![0; 5];
            for (i, &st) in order.iter().enumerate() {
                pos[st as usize] = i;
            }
            pos
        };
        assert!(pos[1] < pos[0] && pos[3] < pos[1] && pos[3] < pos[2]);
    }
}
