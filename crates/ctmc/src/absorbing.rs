//! Absorbing-state analyses: first passage and mean time to failure.
//!
//! [`mean_time_to_absorption`] first **pre-restricts** the chain by
//! reachability: only states reachable from the initial state matter,
//! and if any reachable transient state cannot reach a target at all (a
//! dead end — including zero-exit-rate states), the expected hitting
//! time is `∞` and nothing is solved. The surviving states become a
//! regenerative chain whose steady state gives the mean time to
//! absorption, so MTTF has no solver of its own: it runs on the
//! steady-state path of [`crate::steady`] and follows its one
//! certification rule (GTH elimination up to
//! [`SolverOptions::dense_limit`]; above it Gauss–Seidel, whose iterate
//! must be certified and pass the balance-residual check, else GTH
//! re-solves chains of at most 8,192 states and larger ones raise
//! [`CtmcError::Uncertified`](crate::CtmcError::Uncertified)).
//!
//! # MTTF as a renewal ratio
//!
//! Every target is merged into one *renewal* state `ρ` that returns to
//! the initial state at rate `ν`, the initial state's exit rate. The
//! result is irreducible on the `m` surviving states plus `ρ`: each of
//! them is reachable from the initial state and reaches a target. Each
//! jump from `ρ` to the initial state starts a cycle that spends on
//! average the MTTF among the surviving ("up") states and `1/ν` in `ρ`,
//! so by the renewal-reward theorem the stationary distribution `π` has
//! `π_ρ = (1/ν) / (MTTF + 1/ν)` and `Σ_up π = MTTF / (MTTF + 1/ν)`:
//!
//! ```text
//! MTTF = Σ_up π / (ν · π_ρ)
//! ```
//!
//! The ratio involves no subtraction, so GTH's entrywise relative
//! accuracy carries over to stiff chains (failure rates of 1e-9 beside
//! repair rates of 10), where Gaussian elimination on the hitting-time
//! system `Q_T x = −1` loses digits. The same regenerative argument
//! underlies GTH's state reduction (Grassmann, Taksar & Heyman,
//! Operations Research 1985). `ν` is positive and comes from the chain
//! itself, so the answer does not depend on the time unit.

use crate::chain::Ctmc;
use crate::context::MeasureContext;
use crate::solver::{SolverOptions, TransientOptions};
use crate::transient::{transient, transient_many_from_ctx};

/// Probability of having *reached* any state in `targets` by time `t`
/// (first-passage probability).
///
/// The target states are made absorbing, so re-entering an up state after a
/// visit does not count as recovery — this is the "unreliability" measure
/// of the paper's RCS case study (§5.2.2), where components keep being
/// repaired but the first system-level failure is what matters.
///
/// # Panics
///
/// Panics if `t` is negative or not finite.
pub fn first_passage_probability(ctmc: &Ctmc, targets: &[u32], t: f64) -> f64 {
    let absorbing = ctmc.make_absorbing(targets.iter().copied());
    let pi = transient(&absorbing, t);
    crate::measures::state_mass(targets, &pi)
}

/// First-passage probabilities for a whole time grid (any order,
/// duplicates allowed), built from **one** absorbing transformation and
/// one incremental uniformization sweep ([`transient_many_from_ctx`])
/// instead of one of each per point.
///
/// Returns one probability per entry of `ts`, in the order given.
///
/// # Panics
///
/// Panics if any time is negative or not finite.
pub fn first_passage_many(ctmc: &Ctmc, targets: &[u32], ts: &[f64]) -> Vec<f64> {
    let absorbing = ctmc.make_absorbing(targets.iter().copied());
    transient_many_from_ctx(
        &absorbing,
        &absorbing.initial_distribution(),
        ts,
        &TransientOptions::default(),
        &MeasureContext::new(),
    )
    .iter()
    .map(|pi| crate::measures::state_mass(targets, pi))
    .collect()
}

/// Mean time until any state in `targets` is first entered (MTTF when the
/// targets are the system-down states), with default [`SolverOptions`].
///
/// Returns `f64::INFINITY` when the targets are unreachable from the
/// initial state, or when some reachable transient state cannot reach a
/// target (the walk can get trapped — e.g. a zero-exit-rate dead end —
/// so the expected hitting time diverges).
///
/// # Panics
///
/// Panics if the initial state is itself a target (MTTF is 0 — degenerate),
/// and as [`mean_time_to_absorption_with`].
pub fn mean_time_to_absorption(ctmc: &Ctmc, targets: &[u32]) -> f64 {
    mean_time_to_absorption_with(ctmc, targets, &SolverOptions::default())
}

/// [`mean_time_to_absorption`] with explicit solver configuration.
///
/// # Panics
///
/// Panics if the initial state is itself a target, and as
/// [`steady_state_with`](crate::steady::steady_state_with) on the
/// regenerative chain (an uncertified solve beyond the rescue limit, a
/// tripped budget).
pub fn mean_time_to_absorption_with(ctmc: &Ctmc, targets: &[u32], opts: &SolverOptions) -> f64 {
    let n = ctmc.num_states();
    let mut is_target = vec![false; n];
    for &s in targets {
        is_target[s as usize] = true;
    }
    assert!(
        !is_target[ctmc.initial() as usize],
        "initial state is already a target"
    );

    // Forward reachability from the initial state; targets are frontier
    // ends (the walk stops there, so their successors are irrelevant).
    let mut reachable = vec![false; n];
    let mut stack = vec![ctmc.initial()];
    reachable[ctmc.initial() as usize] = true;
    let mut any_target_reachable = false;
    while let Some(s) = stack.pop() {
        if is_target[s as usize] {
            any_target_reachable = true;
            continue;
        }
        for &(_, t) in ctmc.row(s) {
            if !reachable[t as usize] {
                reachable[t as usize] = true;
                stack.push(t);
            }
        }
    }
    if !any_target_reachable {
        return f64::INFINITY;
    }

    // Backward reachability from the targets over the transposed CSR:
    // which states can still reach a target?
    let incoming = ctmc.incoming();
    let mut can_reach = vec![false; n];
    let mut stack: Vec<u32> = targets.to_vec();
    for &s in targets {
        can_reach[s as usize] = true;
    }
    while let Some(s) = stack.pop() {
        for &(_, j) in incoming.row(s) {
            if !can_reach[j as usize] && !is_target[j as usize] {
                can_reach[j as usize] = true;
                stack.push(j);
            }
        }
    }
    // A reachable transient state that cannot reach a target is a trap:
    // the walk enters it with positive probability and never absorbs.
    if (0..n).any(|s| reachable[s] && !is_target[s] && !can_reach[s]) {
        return f64::INFINITY;
    }

    // The regenerative chain: the surviving transient states (reachable ∧
    // can-reach) in state order, then the renewal state `m`, which stands
    // for every target and restarts the walk at the initial state.
    let mut idx = vec![u32::MAX; n];
    let mut restricted = Vec::new();
    for s in 0..n {
        if reachable[s] && !is_target[s] {
            idx[s] = restricted.len() as u32;
            restricted.push(s as u32);
        }
    }
    let m = restricted.len();
    for &s in targets {
        idx[s as usize] = m as u32;
    }
    let initial = idx[ctmc.initial() as usize];
    let nu = ctmc.exit_rate(ctmc.initial());
    let mut off = vec![0];
    let mut tr = Vec::new();
    for &s in &restricted {
        tr.extend(ctmc.row(s).iter().map(|&(r, t)| (r, idx[t as usize])));
        off.push(tr.len() as u32);
    }
    tr.push((nu, initial));
    off.push(tr.len() as u32);
    let regenerative = Ctmc::from_csr(off, tr, vec![0; m + 1], initial)
        .expect("the regenerative chain keeps the chain's own rates");
    let pi = crate::steady::steady_state_with(&regenerative, opts);
    let up: f64 = pi[..m].iter().sum();
    up / (nu * pi[m])
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    use ioimc::budget::{self, Budget, BudgetExceeded, BudgetKind};

    use super::*;
    use crate::CtmcError;

    /// Runs `f` under a cancelled ambient budget and returns the
    /// [`BudgetExceeded`] payload it must unwind with.
    fn cancelled_unwind<R>(f: impl FnOnce() -> R) -> BudgetExceeded {
        let cancelled = Arc::new(Budget::unlimited());
        cancelled.cancel();
        let payload =
            std::panic::catch_unwind(AssertUnwindSafe(|| budget::scope(Some(cancelled), f)))
                .err()
                .expect("a cancelled budget aborts the solve");
        *payload
            .downcast_ref::<BudgetExceeded>()
            .expect("a BudgetExceeded payload")
    }

    /// Birth–death chain on `0..=k` absorbed at `k`.
    fn absorbed_birth_death(l: f64, m: f64, k: usize) -> Ctmc {
        let rows: Vec<Vec<(f64, u32)>> = (0..=k)
            .map(|i| {
                let mut row = Vec::new();
                if i < k {
                    row.push((l, (i + 1) as u32));
                }
                if i > 0 && i < k {
                    row.push((m, (i - 1) as u32));
                }
                row
            })
            .collect();
        Ctmc::new(rows, vec![0; k + 1], 0).unwrap()
    }

    /// Both solver paths poll the ambient budget: a cancelled one
    /// unwinds the GTH elimination and the Gauss–Seidel sweeps.
    #[test]
    fn mttf_honors_the_ambient_budget() {
        let c = absorbed_birth_death(0.2, 1.5, 20);
        let dense =
            cancelled_unwind(|| mean_time_to_absorption_with(&c, &[20], &SolverOptions::default()));
        assert_eq!(dense.kind, BudgetKind::Cancelled);
        let sparse = cancelled_unwind(|| {
            mean_time_to_absorption_with(&c, &[20], &SolverOptions::default().with_dense_limit(0))
        });
        assert_eq!(sparse.kind, BudgetKind::Cancelled);
    }

    /// The MTTF follows the steady state's rule: an uncertified
    /// regenerative chain beyond the rescue limit (`RESCUE_LIMIT`
    /// surviving states plus the renewal state, after one sweep) raises
    /// the typed payload instead of paying for a dense solve.
    #[test]
    fn mttf_beyond_rescue_limit_is_uncertified() {
        let k = crate::steady::RESCUE_LIMIT;
        let c = absorbed_birth_death(0.7, 1.0, k);
        let opts = SolverOptions::default()
            .with_dense_limit(0)
            .with_max_sweeps(1);
        let payload =
            std::panic::catch_unwind(|| mean_time_to_absorption_with(&c, &[k as u32], &opts))
                .expect_err("one sweep cannot certify the iterate");
        match payload.downcast_ref::<CtmcError>() {
            Some(&CtmcError::Uncertified { states, .. }) => assert_eq!(states, k + 1),
            other => panic!("expected an Uncertified payload, got {other:?}"),
        }
    }

    #[test]
    fn first_passage_of_pure_death() {
        let l = 0.05;
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(99.0, 0)]], vec![0, 1], 0).unwrap();
        // With state 1 absorbing, the repair rate 99 must not matter.
        let p = first_passage_probability(&c, &[1], 10.0);
        assert!((p - (1.0 - (-l * 10.0f64).exp())).abs() < 1e-10);
    }

    #[test]
    fn mttf_of_exponential() {
        let l = 0.25;
        let c = Ctmc::new(vec![vec![(l, 1)], vec![]], vec![0, 1], 0).unwrap();
        let mttf = mean_time_to_absorption(&c, &[1]);
        assert!((mttf - 1.0 / l).abs() < 1e-10);
    }

    /// MTTF of a 2-unit parallel system without repair: 3/(2λ).
    #[test]
    fn mttf_parallel_redundancy() {
        let l = 0.1;
        // states: 0 = both up, 1 = one up, 2 = none up
        let c = Ctmc::new(
            vec![vec![(2.0 * l, 1)], vec![(l, 2)], vec![]],
            vec![0, 0, 1],
            0,
        )
        .unwrap();
        let mttf = mean_time_to_absorption(&c, &[2]);
        assert!((mttf - 1.5 / l).abs() < 1e-9);
    }

    /// Repair extends MTTF: 2-unit system with repair µ has
    /// MTTF = (3λ + µ) / (2λ²). The stiff rows (repair 7 and 10 orders
    /// of magnitude faster than failure) keep full relative accuracy on
    /// both solver paths: the renewal ratio subtracts nothing.
    #[test]
    fn mttf_with_repair() {
        for (l, m) in [(0.1, 2.0), (1e-7, 1.0), (1e-9, 10.0)] {
            let c = Ctmc::new(
                vec![vec![(2.0 * l, 1)], vec![(l, 2), (m, 0)], vec![]],
                vec![0, 0, 1],
                0,
            )
            .unwrap();
            let expected = (3.0 * l + m) / (2.0 * l * l);
            for opts in [
                SolverOptions::default(),
                SolverOptions::default().with_dense_limit(0),
            ] {
                let mttf = mean_time_to_absorption_with(&c, &[2], &opts);
                let rel = (mttf - expected).abs() / expected;
                assert!(
                    rel < 1e-13,
                    "λ = {l}, µ = {m}, dense limit {}: {mttf} vs {expected} ({rel:e})",
                    opts.dense_limit
                );
            }
        }
    }

    #[test]
    fn unreachable_target_gives_infinite_mttf() {
        let c = Ctmc::new(
            vec![vec![(1.0, 1)], vec![(1.0, 0)], vec![]],
            vec![0, 0, 1],
            0,
        )
        .unwrap();
        assert_eq!(mean_time_to_absorption(&c, &[2]), f64::INFINITY);
    }

    /// The sparse path agrees with the dense path on the same chain.
    #[test]
    fn sparse_mttf_matches_dense() {
        let k = 20usize;
        let c = absorbed_birth_death(0.2, 1.5, k);
        let dense = mean_time_to_absorption(&c, &[k as u32]);
        let sparse = mean_time_to_absorption_with(
            &c,
            &[k as u32],
            &SolverOptions::default().with_dense_limit(0),
        );
        assert!(
            (dense - sparse).abs() / dense < 1e-10,
            "{dense} vs {sparse}"
        );
    }

    /// A reachable zero-exit-rate dead end makes the expected hitting
    /// time infinite (the walk parks there forever with probability > 0).
    #[test]
    fn reachable_dead_end_gives_infinite_mttf() {
        // 0 → 1 (dead end), 0 → 2 (target)
        let c = Ctmc::new(
            vec![vec![(1.0, 1), (1.0, 2)], vec![], vec![]],
            vec![0, 0, 1],
            0,
        )
        .unwrap();
        assert_eq!(mean_time_to_absorption(&c, &[2]), f64::INFINITY);
        // ... on the sparse path too
        assert_eq!(
            mean_time_to_absorption_with(&c, &[2], &SolverOptions::default().with_dense_limit(0)),
            f64::INFINITY
        );
    }

    /// Unreachable parts of the chain (even pathological ones) do not
    /// affect the answer: the pre-restriction drops them.
    #[test]
    fn unreachable_states_are_ignored() {
        let l = 0.25;
        // state 2 is an unreachable dead end; 0 → 1 is the real chain
        let c = Ctmc::new(vec![vec![(l, 1)], vec![], vec![]], vec![0, 1, 0], 0).unwrap();
        let mttf = mean_time_to_absorption(&c, &[1]);
        assert!((mttf - 1.0 / l).abs() < 1e-10);
    }
}
