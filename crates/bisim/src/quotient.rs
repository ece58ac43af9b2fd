//! Quotient construction.

use ioimc::{ActionId, FormId, IoImc, StateId};

use crate::partition::Partition;
use crate::signature::{SigEntry, Signature};

/// Builds the quotient automaton of `imc` under the fixpoint `part` with
/// per-state `sigs` (as returned by the refiners).
///
/// * Interactive transitions come from the block signature: `Act` entries
///   keep their action, `Tau` entries are emitted with the canonical `tau`
///   action.
/// * Markovian transitions are the lumped rates of a member that carries
///   rates (after the maximal-progress cut all such members agree up to
///   quantization).
/// * The label of a block is the label of its members (label-respecting
///   refinement guarantees they agree; we OR them defensively).
///
/// # Panics
///
/// Panics if `tau` is a visible (input/output) action of `imc`.
pub fn quotient(imc: &IoImc, part: &Partition, sigs: &[Signature], tau: ActionId) -> IoImc {
    quotient_inner(imc, part, |_, rep| sigs[rep as usize].as_slice(), tau)
}

/// [`quotient`] from one fixpoint signature per canonical *block* (as
/// produced by the worklist refiner), skipping the per-state signature
/// materialization. Identical output to [`quotient`] on the expanded
/// per-state view.
pub(crate) fn quotient_blocks(
    imc: &IoImc,
    part: &Partition,
    block_sigs: &[Signature],
    tau: ActionId,
) -> IoImc {
    quotient_inner(imc, part, |b, _| block_sigs[b].as_slice(), tau)
}

fn quotient_inner<'a>(
    imc: &IoImc,
    part: &Partition,
    sig_for: impl Fn(usize, StateId) -> &'a [SigEntry],
    tau: ActionId,
) -> IoImc {
    assert!(
        !imc.is_visible(tau),
        "canonical tau action must not be visible"
    );
    // Flat CSR membership: one counting sort, no per-block Vec allocations.
    let members = part.members_csr();
    let k = part.num_blocks();

    let mut interactive: Vec<Vec<(ActionId, StateId)>> = Vec::with_capacity(k);
    let mut markovian: Vec<Vec<(f64, StateId)>> = Vec::with_capacity(k);
    // The quotient keeps the input's form table and interns the sums
    // of lumped rates into it.
    let mut forms = imc
        .forms()
        .map(|f| f.with_ids(Vec::with_capacity(f.ids.len())));
    let mut labels: Vec<u64> = Vec::with_capacity(k);
    let mut uses_tau = false;
    let mut rates: Vec<(u32, f64)> = Vec::new();
    let mut rate_ids: Vec<FormId> = Vec::new();

    for b in 0..k {
        let rep = members.of(b)[0];
        // Interactive edges from the block's fixpoint signature.
        let mut inter = Vec::new();
        for &entry in sig_for(b, rep) {
            match entry {
                SigEntry::Act { action, block } => inter.push((action, block as StateId)),
                SigEntry::Tau { block } => {
                    uses_tau = true;
                    inter.push((tau, block as StateId));
                }
                SigEntry::Rate { .. } => {}
            }
        }
        // Markovian edges: exact lumped rates from a rate-carrying member.
        // Intra-block rates are dropped — they would be self-loops of the
        // quotient, which a CTMC generator cancels (and the refinement
        // accordingly never constrained them). Markovian out-degrees are
        // small, so a linear scan beats hashing; per-block sums accumulate
        // in transition order, exactly like the hash-map accumulation this
        // replaces, so rate sums are bit-identical.
        // With forms, a lumped rate's form is the chain of `Sum` nodes of
        // exactly these additions.
        rates.clear();
        rate_ids.clear();
        if let Some(&carrier) = members
            .of(b)
            .iter()
            .find(|&&s| !imc.markovian_from(s).is_empty())
        {
            let carrier_ids = imc.markovian_forms_from(carrier);
            for (i, &(r, t)) in imc.markovian_from(carrier).iter().enumerate() {
                let tb = part.block_of(t);
                if tb != b as u32 {
                    match rates.iter_mut().position(|&mut (bb, _)| bb == tb) {
                        Some(j) => {
                            rates[j].1 += r;
                            if let (Some(f), Some(ids)) = (&mut forms, carrier_ids) {
                                rate_ids[j] = f.table.sum(rate_ids[j], ids[i]);
                            }
                        }
                        None => {
                            rates.push((tb, r));
                            if let Some(ids) = carrier_ids {
                                rate_ids.push(ids[i]);
                            }
                        }
                    }
                }
            }
        }
        // Sort by target block: accumulation order is not canonical, and
        // downstream rate-sum accumulation order must be reproducible
        // across processes for the bitwise-determinism guarantee.
        let mut order: Vec<u32> = (0..rates.len() as u32).collect();
        order.sort_unstable_by_key(|&i| rates[i as usize].0);
        let mark: Vec<(f64, StateId)> = order
            .iter()
            .map(|&i| {
                let (t, r) = rates[i as usize];
                (r, t as StateId)
            })
            .collect();
        if let Some(f) = &mut forms {
            f.ids.extend(order.iter().map(|&i| rate_ids[i as usize]));
        }

        let label = members
            .of(b)
            .iter()
            .fold(0u64, |acc, &s| acc | imc.label(s));
        interactive.push(inter);
        markovian.push(mark);
        labels.push(label);
    }

    let mut internals = if uses_tau { vec![tau] } else { Vec::new() };
    internals.sort_unstable();
    let mut out = IoImc::from_parts_unchecked(
        part.block_of(imc.initial()) as StateId,
        imc.inputs().to_vec(),
        imc.outputs().to_vec(),
        internals,
        interactive,
        markovian,
        labels,
    );
    if let Some(forms) = forms {
        out.attach_forms(forms);
    }
    out.normalize();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branching::refine_branching;
    use crate::strong::refine_strong;
    use ioimc::builder::IoImcBuilder;
    use ioimc::Alphabet;

    #[test]
    fn quotient_of_symmetric_diamond() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        // s3 labeled so the chain structure is observable
        let s: Vec<_> = (0..4)
            .map(|i| b.add_labeled_state(u64::from(i == 3)))
            .collect();
        b.markovian(s[0], 1.0, s[1])
            .markovian(s[0], 1.0, s[2])
            .markovian(s[1], 2.0, s[3])
            .markovian(s[2], 2.0, s[3]);
        let imc = b.build().unwrap();
        let (p, sigs) = refine_strong(&imc, Partition::by_label(&imc));
        let q = quotient(&imc, &p, &sigs, tau);
        assert_eq!(q.num_states(), 3);
        // initial block moves at total rate 2 into the merged middle block
        let init_rates = q.markovian_from(q.initial());
        assert_eq!(init_rates.len(), 1);
        assert!((init_rates[0].0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quotient_rewrites_internals_to_tau() {
        let mut ab = Alphabet::new();
        let t1 = ab.intern("some.hidden.signal");
        let tau = ab.intern("tau");
        let mut b = IoImcBuilder::new();
        b.set_internals([t1]);
        let s0 = b.add_labeled_state(0);
        let s1 = b.add_labeled_state(1); // label forces the tau to stay
        b.interactive(s0, t1, s1);
        let imc = b.build().unwrap();
        let (p, sigs) = refine_branching(&imc, Partition::by_label(&imc));
        let q = quotient(&imc, &p, &sigs, tau);
        assert_eq!(q.num_states(), 2);
        assert_eq!(q.internals(), &[tau]);
        assert_eq!(q.iter_interactive().count(), 1);
        let (_, a, _) = q.iter_interactive().next().unwrap();
        assert_eq!(a, tau);
    }

    #[test]
    fn quotient_preserves_visible_signature() {
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let inp = ab.intern("go");
        let out = ab.intern("done");
        let mut b = IoImcBuilder::new();
        b.set_inputs([inp]).set_outputs([out]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.interactive(s0, inp, s1).interactive(s1, out, s0);
        let imc = b.complete_inputs().build().unwrap();
        let (p, sigs) = refine_branching(&imc, Partition::by_label(&imc));
        let q = quotient(&imc, &p, &sigs, tau);
        assert_eq!(q.inputs(), &[inp]);
        assert_eq!(q.outputs(), &[out]);
        assert!(ioimc::validate::validate(&q).is_ok());
    }
}
