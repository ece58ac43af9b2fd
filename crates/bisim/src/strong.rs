//! Strong bisimulation with Markovian lumping.
//!
//! Two states are strongly bisimilar iff they can match each other's
//! interactive transitions action-by-action into equivalent states and have
//! equal cumulative Markovian rates into every equivalence class (ordinary
//! lumpability). Internal actions are treated like visible ones (no
//! abstraction), which is why strong bisimulation reduces less than
//! branching bisimulation but is cheaper — the ablation experiment A1
//! compares the two.

use std::collections::HashMap;

use ioimc::{ActionKind, IoImc, StateId};

use crate::partition::Partition;
use crate::signature::{canonicalize, push_rate_entries, SigEntry, Signature};

/// Refines `initial` to the coarsest strong-bisimulation partition of
/// `imc`, returning the partition and the fixpoint signature of each state.
///
/// Implemented by the worklist/splitter refiner (the crate-internal
/// `worklist` module; see the crate docs): only states whose signature
/// can have changed since the last round are re-signed. The result —
/// partition numbering and signatures — is identical to
/// [`refine_strong_legacy`].
pub fn refine_strong(imc: &IoImc, initial: Partition) -> (Partition, Vec<Signature>) {
    let mut counters = crate::worklist::RefineCounters::default();
    crate::worklist::refine_worklist(imc, &initial, crate::worklist::Mode::Strong, &mut counters)
}

/// The pre-worklist refinement loop: recomputes every state's signature on
/// every round. Kept (serial only) as the differential-testing oracle for
/// the worklist refiner — the proptests in this crate and the
/// `exp_scaling --smoke` gate assert both produce identical partitions and
/// quotients. Not a supported hot path.
pub fn refine_strong_legacy(imc: &IoImc, initial: Partition) -> (Partition, Vec<Signature>) {
    let n = imc.num_states();
    let mut part = initial;
    let mut sigs: Vec<Signature> = vec![Vec::new(); n];
    loop {
        for s in 0..n as StateId {
            sigs[s as usize] = strong_signature(imc, part.blocks(), s);
        }
        let next = split(&part, &sigs);
        if next.num_blocks() == part.num_blocks() {
            return (next, sigs);
        }
        part = next;
    }
}

/// The strong signature of `s` against the per-state block array.
pub(crate) fn strong_signature(imc: &IoImc, block_of: &[u32], s: StateId) -> Signature {
    let mut sig: Signature = Vec::new();
    let mut rates: Vec<(u32, f64)> = Vec::new();
    strong_signature_into(imc, block_of, s, &mut sig, &mut rates);
    sig
}

/// [`strong_signature`] into caller-provided buffers: `sig` receives the
/// canonicalized signature, `rates` is rate-accumulation scratch. Hot
/// refinement loops reuse both across states to avoid per-state heap
/// allocation.
pub(crate) fn strong_signature_into(
    imc: &IoImc,
    block_of: &[u32],
    s: StateId,
    sig: &mut Signature,
    rates: &mut Vec<(u32, f64)>,
) {
    sig.clear();
    for &(a, t) in imc.interactive_from(s) {
        let block = block_of[t as usize];
        match imc.kind_of(a) {
            Some(ActionKind::Internal) => sig.push(SigEntry::Tau { block }),
            _ => sig.push(SigEntry::Act { action: a, block }),
        }
    }
    push_rate_entries(imc, block_of, s, sig, rates);
    canonicalize(sig);
}

/// Splits every block of `part` by signature, producing the refined
/// partition. Shared by the strong and branching refiners.
pub(crate) fn split(part: &Partition, sigs: &[Signature]) -> Partition {
    let mut ids: HashMap<(u32, &Signature), u32> = HashMap::new();
    let mut block = Vec::with_capacity(sigs.len());
    for (s, sig) in sigs.iter().enumerate() {
        let key = (part.block_of(s as StateId), sig);
        let next = ids.len() as u32;
        block.push(*ids.entry(key).or_insert(next));
    }
    let num = ids.len();
    Partition::from_blocks(block, num)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioimc::builder::IoImcBuilder;
    use ioimc::Alphabet;

    #[test]
    fn lumps_symmetric_rates() {
        // s0 -1-> s1 -2-> s3, s0 -1-> s2 -2-> s3: s1 ~ s2 (s3 labeled so
        // the rates are observable)
        let mut b = IoImcBuilder::new();
        let s: Vec<_> = (0..4)
            .map(|i| b.add_labeled_state(u64::from(i == 3)))
            .collect();
        b.markovian(s[0], 1.0, s[1])
            .markovian(s[0], 1.0, s[2])
            .markovian(s[1], 2.0, s[3])
            .markovian(s[2], 2.0, s[3]);
        let imc = b.build().unwrap();
        let (p, _) = refine_strong(&imc, Partition::by_label(&imc));
        assert_eq!(p.num_blocks(), 3);
        assert!(p.same_block(1, 2));
    }

    #[test]
    fn distinguishes_rates() {
        let mut b = IoImcBuilder::new();
        let s: Vec<_> = (0..4)
            .map(|i| b.add_labeled_state(u64::from(i == 3)))
            .collect();
        b.markovian(s[0], 1.0, s[1])
            .markovian(s[0], 1.0, s[2])
            .markovian(s[1], 2.0, s[3])
            .markovian(s[2], 3.0, s[3]);
        let imc = b.build().unwrap();
        let (p, _) = refine_strong(&imc, Partition::by_label(&imc));
        assert!(!p.same_block(1, 2));
    }

    #[test]
    fn respects_labels() {
        let mut b = IoImcBuilder::new();
        let s0 = b.add_labeled_state(0);
        let s1 = b.add_labeled_state(1);
        b.markovian(s0, 1.0, s1).markovian(s1, 1.0, s0);
        let imc = b.build().unwrap();
        let (p, _) = refine_strong(&imc, Partition::by_label(&imc));
        assert_eq!(p.num_blocks(), 2);
    }

    #[test]
    fn distinguishes_actions() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let c = ab.intern("c");
        let mut b = IoImcBuilder::new();
        b.set_outputs([a, c]);
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.interactive(s[0], a, s[2]).interactive(s[1], c, s[2]);
        let imc = b.build().unwrap();
        let (p, _) = refine_strong(&imc, Partition::by_label(&imc));
        assert!(!p.same_block(0, 1));
    }

    #[test]
    fn internal_actions_are_interchangeable() {
        let mut ab = Alphabet::new();
        let t1 = ab.intern("t1");
        let t2 = ab.intern("t2");
        let mut b = IoImcBuilder::new();
        b.set_internals([t1, t2]);
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.interactive(s[0], t1, s[2]).interactive(s[1], t2, s[2]);
        let imc = b.build().unwrap();
        let (p, _) = refine_strong(&imc, Partition::by_label(&imc));
        assert!(p.same_block(0, 1));
    }

    #[test]
    fn lumping_sums_parallel_rates() {
        // s0 has two rate-1 edges to equivalent targets; s1 one rate-2 edge.
        // The targets are labeled so the move is observable.
        let mut b = IoImcBuilder::new();
        let s: Vec<_> = (0..4)
            .map(|i| b.add_labeled_state(u64::from(i >= 2)))
            .collect();
        b.markovian(s[0], 1.0, s[2])
            .markovian(s[0], 1.0, s[3])
            .markovian(s[1], 2.0, s[2]);
        let imc = b.build().unwrap();
        let (p, _) = refine_strong(&imc, Partition::by_label(&imc));
        // s2 ~ s3 (both deadlock, same label); then s0 and s1 both move at
        // total rate 2 into that class.
        assert!(p.same_block(2, 3));
        assert!(p.same_block(0, 1));
    }
}
