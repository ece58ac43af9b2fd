//! Property-based tests of the partition-refinement engine on random
//! automata, over deterministically seeded random cases (the workspace is
//! dependency-free, so a small internal generator plays the role of
//! proptest).

use smallrand::SmallRng;

use bisim::branching::{refine_branching, refine_branching_legacy};
use bisim::partition::Partition;
use bisim::pipeline::{reduce, reduce_legacy, ReduceOptions, Strategy as Equivalence};
use bisim::quotient::quotient;
use bisim::strong::{refine_strong, refine_strong_legacy};
use ioimc::builder::IoImcBuilder;
use ioimc::{ActionId, IoImc};

fn arb_automaton(rng: &mut SmallRng) -> IoImc {
    let n = rng.range_usize(2, 7);
    let num_inter = rng.range_usize(0, 14);
    let num_mark = rng.range_usize(0, 8);
    let act = ActionId(0); // visible output
    let tau = ActionId(1); // internal
    let inp = ActionId(2); // input
    let mut b = IoImcBuilder::new();
    b.set_outputs([act]).set_internals([tau]).set_inputs([inp]);
    for _ in 0..n {
        b.add_labeled_state(rng.below(2));
    }
    let n = n as u32;
    for _ in 0..num_inter {
        let s = rng.range_u32(0, 7) % n;
        let a = match rng.range_u32(0, 3) {
            0 => act,
            1 => tau,
            _ => inp,
        };
        let t = rng.range_u32(0, 7) % n;
        b.interactive(s, a, t);
    }
    for _ in 0..num_mark {
        let s = rng.range_u32(0, 7) % n;
        let r = f64::from(rng.range_u32(1, 5));
        let t = rng.range_u32(0, 7) % n;
        b.markovian(s, r, t);
    }
    b.complete_inputs().build().expect("valid")
}

fn opts(strategy: Equivalence) -> ReduceOptions {
    ReduceOptions {
        strategy,
        tau: ActionId(1),
    }
}

const CASES: u64 = 128;

/// The refined partition never merges states with different labels.
#[test]
fn refinement_respects_labels() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(seed));
        let (p, _) = refine_strong(&a, Partition::by_label(&a));
        for s in 0..a.num_states() as u32 {
            for t in 0..a.num_states() as u32 {
                if p.same_block(s, t) {
                    assert_eq!(a.label(s), a.label(t));
                }
            }
        }
    }
}

/// Strong bisimilarity implies matching lumped rate sums into every
/// *other* block (ordinary lumpability; intra-block rates are
/// unobservable quotient self-loops).
#[test]
fn strong_partition_lumps_rates() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(1000 + seed));
        let (p, _) = refine_strong(&a, Partition::by_label(&a));
        for s in 0..a.num_states() as u32 {
            for t in (s + 1)..a.num_states() as u32 {
                if !p.same_block(s, t) {
                    continue;
                }
                for block in (0..p.num_blocks() as u32).filter(|&b| b != p.block_of(s)) {
                    let sum = |x: u32| -> f64 {
                        a.markovian_from(x)
                            .iter()
                            .filter(|&&(_, tgt)| p.block_of(tgt) == block)
                            .map(|&(r, _)| r)
                            .sum()
                    };
                    assert!((sum(s) - sum(t)).abs() < 1e-9);
                }
            }
        }
    }
}

/// The branching partition is never finer than needed: refining its
/// own quotient again yields no further splits (fixpoint).
#[test]
fn branching_reaches_fixpoint() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(2000 + seed));
        let r1 = reduce(&a, &opts(Equivalence::Branching)).imc;
        let r2 = reduce(&r1, &opts(Equivalence::Branching)).imc;
        assert_eq!(r1.num_states(), r2.num_states());
    }
}

/// Strong refines branching: the branching quotient is never larger.
#[test]
fn branching_coarser_than_strong() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(3000 + seed));
        let s = reduce(&a, &opts(Equivalence::Strong)).imc;
        let b = reduce(&a, &opts(Equivalence::Branching)).imc;
        assert!(b.num_states() <= s.num_states());
    }
}

/// Quotients are valid automata (signature intact, input-enabled).
#[test]
fn quotient_is_valid() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(4000 + seed));
        for strategy in [Equivalence::Strong, Equivalence::Branching] {
            let r = reduce(&a, &opts(strategy)).imc;
            assert!(ioimc::validate::validate(&r).is_ok());
            assert_eq!(r.inputs(), a.inputs());
            assert_eq!(r.outputs(), a.outputs());
        }
    }
}

/// The branching refinement of the disjoint union puts each state in
/// the same block as itself-in-the-copy (reflexivity across union).
#[test]
fn union_self_equivalence() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(5000 + seed));
        assert!(bisim::pipeline::equivalent(
            &a,
            &a,
            &opts(Equivalence::Branching)
        ));
    }
}

/// Relabeling a state differently must split it from its old block.
/// (Uses the strong refiner: `refine_branching` requires the
/// tau-acyclic form that `reduce` prepares, and the preparation would
/// merge the relabeled state away.)
#[test]
fn label_change_splits() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(6000 + seed));
        if a.num_states() < 2 {
            continue;
        }
        let mut labels = a.labels().to_vec();
        labels[0] = 7; // unique label
        let relabeled = a.clone().with_labels(labels);
        let (p, _) = refine_strong(&relabeled, Partition::by_label(&relabeled));
        for t in 1..relabeled.num_states() as u32 {
            assert!(!p.same_block(0, t));
        }
    }
}

/// `reduce` (which collapses tau cycles first) accepts any automaton
/// and respects labels modulo tau-cycle merging.
#[test]
fn reduce_handles_tau_cycles() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(7000 + seed));
        let r = reduce(&a, &opts(Equivalence::Branching)).imc;
        assert!(r.num_states() >= 1);
        assert!(ioimc::validate::validate(&r).is_ok());
    }
}

/// The tau-acyclic preparation the pipeline applies before branching
/// refinement (the branching refiner's precondition).
fn prepare_branching(a: &IoImc) -> IoImc {
    let mut cur = ioimc::scc::collapse_tau_sccs(&ioimc::reach::restrict_reachable(a));
    ioimc::mp::maximal_progress_cut(&mut cur);
    ioimc::reach::restrict_reachable(&cur)
}

/// The worklist strong refiner is a drop-in for the legacy
/// recompute-all loop: identical partition (same numbering, not just the
/// same equivalence), identical fixpoint signatures and identical
/// quotient automaton.
#[test]
fn worklist_strong_matches_legacy() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(8000 + seed));
        let (lp, lsigs) = refine_strong_legacy(&a, Partition::by_label(&a));
        let (wp, wsigs) = refine_strong(&a, Partition::by_label(&a));
        assert_eq!(wp.num_blocks(), lp.num_blocks(), "seed {seed}");
        assert_eq!(wp.blocks(), lp.blocks(), "seed {seed}");
        assert_eq!(wsigs, lsigs, "seed {seed}");
        let wq = quotient(&a, &wp, &wsigs, ActionId(1));
        let lq = quotient(&a, &lp, &lsigs, ActionId(1));
        assert_eq!(wq, lq, "seed {seed}");
    }
}

/// Same drop-in contract for the branching refiner (on the tau-acyclic
/// form the pipeline prepares).
#[test]
fn worklist_branching_matches_legacy() {
    for seed in 0..CASES {
        let a = prepare_branching(&arb_automaton(&mut SmallRng::seed_from_u64(9000 + seed)));
        let (lp, lsigs) = refine_branching_legacy(&a, Partition::by_label(&a));
        let (wp, wsigs) = refine_branching(&a, Partition::by_label(&a));
        assert_eq!(wp.num_blocks(), lp.num_blocks(), "seed {seed}");
        assert_eq!(wp.blocks(), lp.blocks(), "seed {seed}");
        assert_eq!(wsigs, lsigs, "seed {seed}");
        let wq = quotient(&a, &wp, &wsigs, ActionId(1));
        let lq = quotient(&a, &lp, &lsigs, ActionId(1));
        assert_eq!(wq, lq, "seed {seed}");
    }
}

/// The full worklist pipeline reproduces the legacy pipeline's automaton
/// exactly (every strategy).
#[test]
fn reduce_matches_reduce_legacy() {
    for seed in 0..CASES {
        let a = arb_automaton(&mut SmallRng::seed_from_u64(10_000 + seed));
        for strategy in [
            Equivalence::None,
            Equivalence::Strong,
            Equivalence::Branching,
        ] {
            let w = reduce(&a, &opts(strategy)).imc;
            let l = reduce_legacy(&a, &opts(strategy)).imc;
            assert_eq!(w, l, "seed {seed}, {strategy:?}");
        }
    }
}
