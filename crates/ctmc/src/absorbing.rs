//! Absorbing-state analyses: first passage and mean time to failure.
//!
//! [`mean_time_to_absorption`] solves the hitting-time system
//! `Q_T x = -1` on the transient (non-target) states. Since the sparse
//! rewrite it first **pre-restricts** the system by reachability: only
//! states reachable from the initial state matter, and if any reachable
//! transient state cannot reach a target at all (a dead end — including
//! zero-exit-rate states), the expected hitting time is `∞` and no linear
//! solve is needed. The surviving system is solved densely up to
//! [`SolverOptions::dense_limit`] and by Gauss–Seidel sweeps over the CSR
//! rows above it.

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
/// Panics if the initial state is itself a target (MTTF is 0 — degenerate).
pub fn mean_time_to_absorption(ctmc: &Ctmc, targets: &[u32]) -> f64 {
    mean_time_to_absorption_with(ctmc, targets, &SolverOptions::default())
}

/// [`mean_time_to_absorption`] with explicit solver configuration.
///
/// # Panics
///
/// Panics if the initial state is itself a target.
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

    // Index the surviving transient states (reachable ∧ can-reach), in
    // state order — for irreducible chains this is exactly the old dense
    // system, so small-model results are unchanged bit for bit.
    let mut idx = vec![usize::MAX; n];
    let mut restricted = Vec::new();
    for s in 0..n {
        if reachable[s] && !is_target[s] {
            idx[s] = restricted.len();
            restricted.push(s as u32);
        }
    }
    let m = restricted.len();
    let x = if m <= opts.dense_limit {
        dense_hitting_time(ctmc, &is_target, &idx, &restricted)
    } else {
        sparse_hitting_time(ctmc, &is_target, &idx, &restricted, opts)
    };
    x[idx[ctmc.initial() as usize]]
}

/// Dense solve of the restricted system `A x = -1` (A = Q over the
/// restricted transient states) by Gaussian elimination with partial
/// pivoting. All restricted states reach a target, so A is nonsingular.
/// Polls the ambient [`ioimc::budget`] once per pivot.
fn dense_hitting_time(
    ctmc: &Ctmc,
    is_target: &[bool],
    idx: &[usize],
    restricted: &[u32],
) -> Vec<f64> {
    let m = restricted.len();
    let mut a = vec![0.0f64; m * m];
    let mut b = vec![-1.0f64; m];
    for (i, &s) in restricted.iter().enumerate() {
        for &(r, tgt) in ctmc.row(s) {
            if !is_target[tgt as usize] {
                a[i * m + idx[tgt as usize]] += r;
            }
        }
        a[i * m + i] -= ctmc.exit_rate(s);
    }
    for col in 0..m {
        ioimc::budget::checkpoint();
        let pivot_row = (col..m)
            .max_by(|&i, &j| a[i * m + col].abs().total_cmp(&a[j * m + col].abs()))
            .expect("non-empty");
        // The pre-restriction guarantees nonsingularity mathematically;
        // keep the numerical guard of the old implementation anyway.
        if a[pivot_row * m + col].abs() < f64::MIN_POSITIVE {
            return vec![f64::INFINITY; m];
        }
        if pivot_row != col {
            for j in 0..m {
                a.swap(col * m + j, pivot_row * m + j);
            }
            b.swap(col, pivot_row);
        }
        let pivot = a[col * m + col];
        for row in col + 1..m {
            let factor = a[row * m + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..m {
                a[row * m + j] -= factor * a[col * m + j];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; m];
    for row in (0..m).rev() {
        let mut rhs = b[row];
        for j in row + 1..m {
            rhs -= a[row * m + j] * x[j];
        }
        x[row] = rhs / a[row * m + row];
    }
    x
}

/// Sparse Gauss–Seidel on the hitting-time fixpoint
/// `x_i = (1 + Σ_{j transient} r_ij x_j) / exit_i`, sweeping the CSR rows
/// in place. The restricted system is a strictly substochastic M-matrix
/// (every state reaches a target), so the iteration converges
/// monotonically from the zero start.
///
/// Stopping on the raw sweep-to-sweep change alone is **unsound**: for
/// rare-failure chains the contraction factor `ρ` sits near 1 and each
/// sweep moves `x` by a tiny fraction of the remaining error, so a small
/// per-sweep change can coexist with an answer that is orders of
/// magnitude too low (the differential fuzzer found MTTFs underestimated
/// by 10^8×). The sweep therefore certifies convergence with a geometric
/// tail bound — `ρ` estimated from consecutive sweep changes, remaining
/// error bounded by `diff·ρ/(1−ρ)` — and if the sweep cap runs out
/// before the bound is met, falls back to the exact dense elimination
/// instead of returning the silently unconverged iterate. Polls the
/// ambient [`ioimc::budget`] once per sweep.
fn sparse_hitting_time(
    ctmc: &Ctmc,
    is_target: &[bool],
    idx: &[usize],
    restricted: &[u32],
    opts: &SolverOptions,
) -> Vec<f64> {
    let m = restricted.len();
    let mut x = vec![0.0f64; m];
    let mut prev_diff = f64::INFINITY;
    for _ in 0..opts.max_sweeps {
        ioimc::budget::checkpoint();
        let mut diff = 0.0f64; // max absolute change this sweep
        let mut scale = 0.0f64; // max |x_i| after this sweep
        for (i, &s) in restricted.iter().enumerate() {
            let mut acc = 1.0f64;
            for &(r, tgt) in ctmc.row(s) {
                if !is_target[tgt as usize] {
                    acc += r * x[idx[tgt as usize]];
                }
            }
            let new = acc / ctmc.exit_rate(s);
            diff = diff.max((new - x[i]).abs());
            scale = scale.max(new.abs());
            x[i] = new;
        }
        if diff == 0.0 {
            return x; // exact fixpoint
        }
        if prev_diff.is_finite() && diff < prev_diff {
            let rho = diff / prev_diff;
            if diff * rho / (1.0 - rho) <= opts.tol * scale {
                return x;
            }
        }
        prev_diff = diff;
    }
    // The cap ran out before the tail bound certified convergence: the
    // chain contracts too slowly for iteration (stiff or rare-failure).
    // Solve exactly instead of returning an unconverged underestimate.
    dense_hitting_time(ctmc, is_target, idx, restricted)
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    use ioimc::budget::{self, Budget, BudgetExceeded, BudgetKind};

    use super::*;

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

    /// Both hitting-time solvers poll the ambient budget: a cancelled
    /// one unwinds the dense elimination and the sparse sweeps.
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
    /// MTTF = (3λ + µ) / (2λ²).
    #[test]
    fn mttf_with_repair() {
        let (l, m) = (0.1, 2.0);
        let c = Ctmc::new(
            vec![vec![(2.0 * l, 1)], vec![(l, 2), (m, 0)], vec![]],
            vec![0, 0, 1],
            0,
        )
        .unwrap();
        let mttf = mean_time_to_absorption(&c, &[2]);
        let expected = (3.0 * l + m) / (2.0 * l * l);
        assert!((mttf - expected).abs() / expected < 1e-10);
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
