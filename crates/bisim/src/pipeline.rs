//! The aggregation pipeline used after every composition step.

use std::time::Instant;

use ioimc::mp::maximal_progress_cut;
use ioimc::reach::restrict_reachable;
use ioimc::scc::collapse_tau_sccs;
use ioimc::{ActionId, IoImc, Stats};

use crate::branching::{refine_branching, refine_branching_legacy};
use crate::partition::Partition;
use crate::quotient::{quotient, quotient_blocks};
use crate::strong::{refine_strong, refine_strong_legacy};
use crate::worklist::{refine_worklist_blocks, Mode, RefineCounters};

/// Which equivalence to minimize with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// No minimization: reachability restriction and maximal-progress cut
    /// only. Used by the "no aggregation" ablation.
    None,
    /// Strong bisimulation with exact lumping.
    Strong,
    /// Branching (weak) bisimulation with lumping — the equivalence the
    /// paper's toolchain minimizes with; the default.
    #[default]
    Branching,
}

/// Options for [`reduce`].
#[derive(Debug, Clone, Copy)]
pub struct ReduceOptions {
    /// The equivalence to use.
    pub strategy: Strategy,
    /// Canonical internal action used for residual tau transitions in
    /// quotients. Must not be a visible action of any automaton involved.
    pub tau: ActionId,
}

/// Aggregation-phase breakdown of one [`reduce`] call (or the sum over a
/// whole aggregation run): where refinement time goes and how much work
/// the worklist discipline actually performed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefineStats {
    /// Refinement rounds across all refine calls (≥ 1 per call).
    pub refine_rounds: u64,
    /// Per-state signature computations (the work the worklist saves:
    /// the legacy loop's count is `rounds × states`).
    pub states_resigned: u64,
    /// Wall time computing and interning signatures.
    pub signature_secs: f64,
    /// Wall time splitting blocks and propagating dirtiness.
    pub split_secs: f64,
    /// Wall time building quotient automata.
    pub quotient_secs: f64,
}

impl RefineStats {
    /// Accumulates `other` into `self` (counter and time sums).
    pub fn merge(&mut self, other: &RefineStats) {
        self.refine_rounds += other.refine_rounds;
        self.states_resigned += other.states_resigned;
        self.signature_secs += other.signature_secs;
        self.split_secs += other.split_secs;
        self.quotient_secs += other.quotient_secs;
    }

    fn absorb(&mut self, counters: &RefineCounters) {
        self.refine_rounds += counters.rounds;
        self.states_resigned += counters.states_resigned;
        self.signature_secs += counters.signature_secs;
        self.split_secs += counters.split_secs;
    }
}

/// Result of [`reduce`]: the minimized automaton plus before/after sizes
/// (the paper reports the *largest intermediate* model, so callers track
/// these).
#[derive(Debug, Clone)]
pub struct Reduced {
    /// The reduced automaton.
    pub imc: IoImc,
    /// Size before reduction.
    pub before: Stats,
    /// Size after reduction.
    pub after: Stats,
    /// Where the reduction time went (zeroed by [`reduce_legacy`]).
    pub refine: RefineStats,
}

/// Reduces `imc`: reachability restriction, tau-cycle collapse,
/// maximal-progress cut, then partition refinement and quotient under the
/// chosen [`Strategy`]. The reduction is label-respecting and preserves
/// weak-bisimulation equivalence (hence all Arcade measures).
pub fn reduce(imc: &IoImc, opts: &ReduceOptions) -> Reduced {
    reduce_threaded(imc, opts, 1)
}

/// [`reduce`] with the per-state signature computation of the refinement
/// loops spread over `threads` scoped workers. The result is bitwise
/// identical for every thread count.
pub fn reduce_threaded(imc: &IoImc, opts: &ReduceOptions, threads: usize) -> Reduced {
    let before = Stats::of(imc);
    let mut refine = RefineStats::default();
    let mut cur = restrict_reachable(imc);
    if opts.strategy != Strategy::None || !cur.internals().is_empty() {
        cur = collapse_tau_sccs(&cur);
    }
    maximal_progress_cut(&mut cur); // in place: no renumbering
    cur = restrict_reachable(&cur);
    match opts.strategy {
        Strategy::None => {}
        Strategy::Strong => {
            let mut counters = RefineCounters::default();
            let (p, sigs) = refine_worklist_blocks(
                &cur,
                &Partition::by_label(&cur),
                threads,
                Mode::Strong,
                &mut counters,
            );
            refine.absorb(&counters);
            let t0 = Instant::now();
            cur = quotient_blocks(&cur, &p, &sigs, opts.tau);
            refine.quotient_secs += t0.elapsed().as_secs_f64();
            cur = restrict_reachable(&cur);
        }
        Strategy::Branching => {
            // Quotients can expose new tau cycles between blocks that were
            // separated by labels; iterate to a fixpoint (usually 1 round).
            loop {
                let states_before = cur.num_states();
                let mut counters = RefineCounters::default();
                let (p, sigs) = refine_worklist_blocks(
                    &cur,
                    &Partition::by_label(&cur),
                    threads,
                    Mode::Branching,
                    &mut counters,
                );
                refine.absorb(&counters);
                let t0 = Instant::now();
                cur = quotient_blocks(&cur, &p, &sigs, opts.tau);
                refine.quotient_secs += t0.elapsed().as_secs_f64();
                let q_sizes = (cur.num_states(), cur.num_interactive(), cur.num_markovian());
                cur = collapse_tau_sccs(&cur);
                maximal_progress_cut(&mut cur);
                cur = restrict_reachable(&cur);
                // The quotient of the *coarsest* stable partition has
                // pairwise non-bisimilar states, so if the post passes left
                // it untouched (no tau cycle collapsed, no rate cut, no
                // state unreachable — the only things that could re-enable
                // merging), re-refining it is a provable no-op: stop
                // without the confirming pass the legacy loop pays for.
                if (cur.num_states(), cur.num_interactive(), cur.num_markovian()) == q_sizes
                    || cur.num_states() >= states_before
                {
                    break;
                }
            }
        }
    }
    let after = Stats::of(&cur);
    Reduced {
        imc: cur,
        before,
        after,
        refine,
    }
}

/// [`reduce`] built on the pre-worklist recompute-all refinement loops
/// ([`refine_strong_legacy`] / [`refine_branching_legacy`]), serial only.
/// Kept as the differential-testing oracle: the `exp_scaling --smoke`
/// gate asserts its quotient matches the worklist path on the full
/// `rcs_scaled` aggregation. `refine` counters are left zeroed.
pub fn reduce_legacy(imc: &IoImc, opts: &ReduceOptions) -> Reduced {
    let before = Stats::of(imc);
    let mut cur = restrict_reachable(imc);
    if opts.strategy != Strategy::None || !cur.internals().is_empty() {
        cur = collapse_tau_sccs(&cur);
    }
    maximal_progress_cut(&mut cur);
    cur = restrict_reachable(&cur);
    match opts.strategy {
        Strategy::None => {}
        Strategy::Strong => {
            let (p, sigs) = refine_strong_legacy(&cur, Partition::by_label(&cur));
            cur = quotient(&cur, &p, &sigs, opts.tau);
            cur = restrict_reachable(&cur);
        }
        Strategy::Branching => loop {
            let states_before = cur.num_states();
            let (p, sigs) = refine_branching_legacy(&cur, Partition::by_label(&cur));
            cur = quotient(&cur, &p, &sigs, opts.tau);
            cur = collapse_tau_sccs(&cur);
            maximal_progress_cut(&mut cur);
            cur = restrict_reachable(&cur);
            if cur.num_states() >= states_before {
                break;
            }
        },
    }
    let after = Stats::of(&cur);
    Reduced {
        imc: cur,
        before,
        after,
        refine: RefineStats::default(),
    }
}

/// Checks whether two automata with identical visible signatures are
/// equivalent under the given strategy, by refining their disjoint union
/// and comparing the initial blocks. Intended for tests and debugging.
///
/// # Panics
///
/// Panics if the visible signatures differ.
pub fn equivalent(a: &IoImc, b: &IoImc, opts: &ReduceOptions) -> bool {
    assert_eq!(a.inputs(), b.inputs(), "input signatures differ");
    assert_eq!(a.outputs(), b.outputs(), "output signatures differ");
    let ra = reduce(a, opts).imc;
    let rb = reduce(b, opts).imc;
    let u = disjoint_union(&ra, &rb);
    let init_b = ra.num_states() as u32 + rb.initial();
    let part = match opts.strategy {
        Strategy::None | Strategy::Strong => refine_strong(&u, Partition::by_label(&u)).0,
        Strategy::Branching => refine_branching(&u, Partition::by_label(&u)).0,
    };
    part.same_block(ra.initial(), init_b)
}

/// Disjoint union of two automata (initial state taken from `a`).
fn disjoint_union(a: &IoImc, b: &IoImc) -> IoImc {
    let off = a.num_states() as u32;
    let mut inputs: Vec<ActionId> = a.inputs().iter().chain(b.inputs()).copied().collect();
    inputs.sort_unstable();
    inputs.dedup();
    let mut outputs: Vec<ActionId> = a.outputs().iter().chain(b.outputs()).copied().collect();
    outputs.sort_unstable();
    outputs.dedup();
    let mut internals: Vec<ActionId> = a.internals().iter().chain(b.internals()).copied().collect();
    internals.sort_unstable();
    internals.dedup();
    let mut interactive: Vec<Vec<(ActionId, u32)>> = (0..a.num_states() as u32)
        .map(|s| a.interactive_from(s).to_vec())
        .collect();
    interactive.extend((0..b.num_states() as u32).map(|s| {
        b.interactive_from(s)
            .iter()
            .map(|&(x, t)| (x, t + off))
            .collect::<Vec<_>>()
    }));
    let mut markovian: Vec<Vec<(f64, u32)>> = (0..a.num_states() as u32)
        .map(|s| a.markovian_from(s).to_vec())
        .collect();
    markovian.extend((0..b.num_states() as u32).map(|s| {
        b.markovian_from(s)
            .iter()
            .map(|&(r, t)| (r, t + off))
            .collect::<Vec<_>>()
    }));
    let labels = a.labels().iter().chain(b.labels()).copied().collect();
    IoImc::from_parts_unchecked(
        a.initial(),
        inputs,
        outputs,
        internals,
        interactive,
        markovian,
        labels,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioimc::builder::IoImcBuilder;
    use ioimc::Alphabet;

    fn opts(ab: &mut Alphabet, strategy: Strategy) -> ReduceOptions {
        ReduceOptions {
            strategy,
            tau: ab.intern("tau"),
        }
    }

    /// A hidden handshake between two components reduces to a single
    /// exponential step (the final state is labeled so it stays
    /// observable; the vanishing intermediate state is then removed by
    /// `eliminate_vanishing`).
    #[test]
    fn hidden_handshake_vanishes() {
        let mut ab = Alphabet::new();
        let sync = ab.intern("sync");
        let mut b = IoImcBuilder::new();
        b.set_internals([sync]);
        let s: Vec<_> = (0..3)
            .map(|i| b.add_labeled_state(u64::from(i == 2)))
            .collect();
        b.markovian(s[0], 4.0, s[1]).interactive(s[1], sync, s[2]);
        let imc = b.build().unwrap();
        let o = opts(&mut ab, Strategy::Branching);
        let red = reduce(&imc, &o);
        // labels keep s2 apart from s1 (the tau is label-changing)
        assert_eq!(red.before.states, 3);
        let chain = crate::vanishing::eliminate_vanishing(&red.imc).unwrap();
        assert_eq!(chain.num_states(), 2);
        assert_eq!(chain.num_markovian(), 1);
        assert!((chain.markovian_from(chain.initial())[0].0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn none_strategy_only_prunes() {
        let mut ab = Alphabet::new();
        let sync = ab.intern("sync");
        let mut b = IoImcBuilder::new();
        b.set_internals([sync]);
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        b.markovian(s[0], 4.0, s[1]).interactive(s[1], sync, s[2]);
        let imc = b.build().unwrap();
        let o = opts(&mut ab, Strategy::None);
        let red = reduce(&imc, &o);
        assert_eq!(red.imc.num_states(), 3);
    }

    #[test]
    fn strong_reduces_less_than_branching() {
        let mut ab = Alphabet::new();
        let hidden = ab.intern("h");
        let mut b = IoImcBuilder::new();
        b.set_internals([hidden]);
        let s: Vec<_> = (0..4)
            .map(|i| b.add_labeled_state(u64::from(i == 3)))
            .collect();
        b.markovian(s[0], 1.0, s[1])
            .interactive(s[1], hidden, s[2])
            .interactive(s[2], hidden, s[3]);
        let imc = b.build().unwrap();
        let strong_states = reduce(&imc, &opts(&mut ab, Strategy::Strong))
            .imc
            .num_states();
        let branching_states = reduce(&imc, &opts(&mut ab, Strategy::Branching))
            .imc
            .num_states();
        assert!(branching_states <= strong_states);
        // branching collapses the inert tau chain s1 -> s2 (same label);
        // s3 stays apart (label) and s0 keeps the rate: 3 states.
        assert_eq!(branching_states, 3);
    }

    #[test]
    fn equivalent_detects_equality_and_difference() {
        let mut ab = Alphabet::new();
        let out = ab.intern("done");
        let mk = |rate: f64| {
            let mut b = IoImcBuilder::new();
            b.set_outputs([out]);
            let s0 = b.add_state();
            let s1 = b.add_state();
            b.markovian(s0, rate, s1).interactive(s1, out, s0);
            b.build().unwrap()
        };
        let o = opts(&mut ab, Strategy::Branching);
        assert!(equivalent(&mk(2.0), &mk(2.0), &o));
        assert!(!equivalent(&mk(2.0), &mk(3.0), &o));
    }

    /// The threaded refiners are a scheduling change only: the reduced
    /// automaton must be identical (not just equivalent) for any worker
    /// count. The model is built wide enough (both in total states and in
    /// the tau layers) to clear `PAR_STATE_THRESHOLD`, so the parallel
    /// code paths really run.
    #[test]
    fn threaded_reduce_is_bitwise_identical() {
        let width = 2 * crate::PAR_STATE_THRESHOLD;
        let mut ab = Alphabet::new();
        let tau = ab.intern("tau");
        let out = ab.intern("alarm");
        let mut b = IoImcBuilder::new();
        b.set_internals([tau]).set_outputs([out]);
        let hub = b.add_labeled_state(1 << 60);
        // `width` labeled sinks with varying rate structure (tau layer 0)
        // and one tau state above each (tau layer 1).
        let sinks: Vec<_> = (0..width)
            .map(|i| b.add_labeled_state(1 << (i % 5)))
            .collect();
        for (i, &s) in sinks.iter().enumerate() {
            b.markovian(s, 1.0 + (i % 7) as f64, hub);
            let t = b.add_state();
            b.interactive(t, tau, s);
            if i % 3 == 0 {
                b.interactive(t, out, hub);
            }
            b.markovian(hub, 0.25 + (i % 4) as f64, t);
        }
        let imc = b.build().unwrap();
        for strategy in [Strategy::Strong, Strategy::Branching] {
            let o = opts(&mut ab, strategy);
            let seq = reduce(&imc, &o);
            for threads in [2, 4, 8] {
                let par = reduce_threaded(&imc, &o, threads);
                assert_eq!(par.imc, seq.imc, "{strategy:?} with {threads} threads");
                assert_eq!(par.after, seq.after);
            }
        }
    }

    /// Reduction must preserve the total rate structure of a birth-death
    /// chain exactly.
    #[test]
    fn preserves_birth_death_chain() {
        let mut ab = Alphabet::new();
        let mut b = IoImcBuilder::new();
        let s: Vec<_> = (0..3)
            .map(|i| b.add_labeled_state(u64::from(i == 2)))
            .collect();
        b.markovian(s[0], 1.0, s[1])
            .markovian(s[1], 2.0, s[0])
            .markovian(s[1], 3.0, s[2])
            .markovian(s[2], 4.0, s[1]);
        let imc = b.build().unwrap();
        let o = opts(&mut ab, Strategy::Branching);
        let red = reduce(&imc, &o);
        assert_eq!(red.imc.num_states(), 3);
        assert_eq!(red.imc.num_markovian(), 4);
    }
}
