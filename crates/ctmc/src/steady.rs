//! Steady-state distribution.
//!
//! Solves the global balance equations `πQ = 0`, `Σπ = 1`. Chains up to
//! [`SolverOptions::dense_limit`] use the subtraction-free GTH
//! state-elimination algorithm (entrywise relative accuracy regardless
//! of stiffness — robust for the chains dependability models produce,
//! with failure rates of 1e-8 next to repair rates of 1e-1). The
//! elimination updates only at the non-zero entries of each pivot row,
//! so its cost follows the fill pattern of the chain's own state order
//! rather than `n³`, and its result is bitwise that of sweeping every
//! entry: a skipped term would have added `+0`. Larger chains use
//! Gauss–Seidel sweeps over the transposed CSR adjacency
//! ([`crate::chain::Incoming`]).
//!
//! # One certification rule
//!
//! Every answer comes from a certified path. The steady state and the
//! mean time to absorption, whose regenerative chain is solved here (see
//! [`crate::absorbing`]), follow the same rule:
//!
//! 1. GTH up to `dense_limit`.
//! 2. Above it, Gauss–Seidel. Its iterate is accepted only if the
//!    geometric-tail bound certified it and an O(nnz) balance-residual
//!    check passes.
//! 3. Otherwise GTH re-solves the chain when it has at most 8,192 states.
//! 4. A larger chain raises [`CtmcError::Uncertified`] as a typed panic
//!    payload (`std::panic::panic_any`), the mechanism of
//!    [`BudgetExceeded`](crate::budget::BudgetExceeded): the caller's
//!    evaluation boundary catches the unwind and answers an error.
//!
//! Within the rescue limit, Gauss–Seidel also watches its own progress.
//! When it stalls — less than 2× residual improvement across a 64-sweep
//! window while still far from tolerance, which happens on
//! nearly-decoupled chains where local propagation mixes too slowly — it
//! stops early and GTH takes over. Above the limit nothing can take
//! over, so the sweeps go on: a slowly contracting chain can still
//! certify long after such a window.

use crate::chain::{Ctmc, CtmcError, Incoming};
use crate::solver::SolverOptions;

/// Computes the steady-state distribution of an irreducible CTMC with
/// default [`SolverOptions`].
///
/// For reducible chains the result is the stationary distribution reachable
/// from the chain's structure and should not be relied on; Arcade models
/// with repair are irreducible by construction.
///
/// # Panics
///
/// As [`steady_state_with`].
pub fn steady_state(ctmc: &Ctmc) -> Vec<f64> {
    steady_state_with(ctmc, &SolverOptions::default())
}

/// Largest chain that GTH re-solves when the Gauss–Seidel iterate ends
/// uncertified, and the only size at which Gauss–Seidel exits early on a
/// stall. The rescue is an `n × n` matrix (512 MiB at this limit) and a
/// time that follows the chain's fill pattern, up to `n³/3`
/// multiply-adds when the elimination fills in completely — which the
/// chains that reach the rescue (slowly mixing, nearly decoupled) give
/// no reason to rule out. A larger uncertified chain raises
/// [`CtmcError::Uncertified`].
pub(crate) const RESCUE_LIMIT: usize = 8192;

/// [`steady_state`] with explicit solver configuration.
///
/// Iterative results are *verified*, not trusted: besides the
/// geometric-tail certificate of the sweeps, the max relative balance
/// residual `|inflow_i − π_i·exit_i| / (π_i·exit_i)` is checked in
/// O(nnz), because a change-based stopping rule can mistake stagnation
/// for convergence (the differential fuzzer caught a stagnated iterate
/// on a nearly-decomposable 6-state chain off by 1e-4). A certified
/// sweep lands at residual ~1e-15; an uncertified one sits orders of
/// magnitude higher. An iterate that fails either check is re-solved by
/// GTH on chains of at most 8,192 states.
///
/// # Panics
///
/// Panics with a [`CtmcError::Uncertified`] payload when a chain of more
/// than 8,192 states (and more than `dense_limit`) ends without a
/// certified iterate — the sweep cap ran out, or the residual check
/// failed — and with a [`BudgetExceeded`](crate::budget::BudgetExceeded)
/// payload when the ambient budget trips.
pub fn steady_state_with(ctmc: &Ctmc, opts: &SolverOptions) -> Vec<f64> {
    let n = ctmc.num_states();
    if n == 1 {
        return vec![1.0];
    }
    if n <= opts.dense_limit {
        return dense_solve(ctmc);
    }
    let rescuable = n <= RESCUE_LIMIT;
    let incoming = ctmc.incoming();
    let (pi, outcome) = gauss_seidel(ctmc, &incoming, opts, rescuable);
    // Residual acceptance: sqrt(tol) sits between the ~1e-15 residual of
    // a genuinely converged sweep and the ≥1e-5 residual of the failure
    // modes observed in fuzzing, and scales with the requested accuracy.
    let accept = opts.tol.max(1e-14).sqrt();
    let residual = max_rel_residual(ctmc, &incoming, &pi);
    if outcome == GsOutcome::Converged && residual <= accept {
        return pi;
    }
    if rescuable {
        return dense_solve(ctmc);
    }
    std::panic::panic_any(CtmcError::Uncertified {
        states: n,
        residual,
    })
}

/// Max relative balance-equation residual of a candidate stationary
/// vector: `max_i |inflow_i − π_i·exit_i| / (π_i·exit_i)`, with the
/// chain's transposed adjacency `incoming`.
fn max_rel_residual(ctmc: &Ctmc, incoming: &Incoming, pi: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..ctmc.num_states() {
        let inflow: f64 = incoming
            .row(i as u32)
            .iter()
            .map(|&(r, j)| r * pi[j as usize])
            .sum();
        let hold = pi[i] * ctmc.exit_rate(i as u32);
        let denom = hold.abs().max(inflow.abs()).max(1e-300);
        worst = worst.max((inflow - hold).abs() / denom);
    }
    worst
}

/// Exact solve of the global balance equations by the
/// Grassmann–Taksar–Heyman (GTH) state-elimination algorithm.
///
/// GTH never forms the diagonal and never subtracts: eliminating the
/// highest-numbered state redistributes its rates over the survivors
/// (the censored chain), so every quantity stays a sum of nonnegative
/// products and each `π_i` comes out with small *entrywise relative*
/// error — independent of stiffness or near-decomposability, exactly
/// where pivoted elimination on `Q^T` loses digits to cancellation.
/// Dependability chains are routinely stiff (1e-8 failure rates beside
/// 1e-1 repair rates), which is why this is the exact kernel.
///
/// GTH assumes irreducibility, so the solve is restricted to the first
/// bottom strongly-connected class reachable from the initial state —
/// which for a reducible chain is also where the process ends up, so
/// transient states correctly get zero mass. Irreducible chains (every
/// Arcade model with repair) have one class covering every state.
///
/// The elimination skips structural zeros: see [`eliminate`]. Its cost
/// follows the fill pattern of the chain's own state order, not `m³`.
fn dense_solve(ctmc: &Ctmc) -> Vec<f64> {
    let (class, mut q) = class_rates(ctmc);
    eliminate(&mut q, class.len());
    stationary(ctmc.num_states(), &class, &q)
}

/// The first bottom class of [`reachable_bottom_class`] and its
/// off-diagonal rate matrix, row-major `m × m` over class-local indices.
fn class_rates(ctmc: &Ctmc) -> (Vec<u32>, Vec<f64>) {
    let class = reachable_bottom_class(ctmc);
    let m = class.len();
    // Map full state ids to class-local indices.
    let mut local = vec![usize::MAX; ctmc.num_states()];
    for (i, &s) in class.iter().enumerate() {
        local[s as usize] = i;
    }
    // Self-loops are dropped (they do not affect the stationary
    // distribution). A bottom class has no outgoing edges, so every
    // transition stays inside it.
    let mut q = vec![0.0f64; m * m];
    for (i, &s) in class.iter().enumerate() {
        for &(r, t) in ctmc.row(s) {
            let j = local[t as usize];
            if j != usize::MAX && j != i {
                q[i * m + j] += r;
            }
        }
    }
    (class, q)
}

/// GTH elimination of states `m-1 .. 1` of the row-major `m × m` rate
/// matrix `q`, in place: state `k`'s rates are folded into the censored
/// chain on `{0, .., k-1}`.
///
/// Pivot row `k`'s non-zero entries `(j, q_kj)`, `j < k`, are gathered
/// once per pivot, and each predecessor row `i` with a non-zero factor
/// is updated at those columns only. Every skipped term is `f·0 = +0`
/// added to a non-negative entry, which leaves the entry unchanged; each
/// entry still receives its updates in the same pivot order, and the
/// pivot's exit rate sums the same non-zeros in the same order — so the
/// result is bitwise identical to sweeping every column `j < k`.
/// On the paper's DDS (2,100 states) that sweep did 273 M multiply-adds,
/// 87% of them by zeros. Zeros are never written either, so pages of `q`
/// that hold only zeros are never faulted in.
///
/// Polls the ambient [`ioimc::budget`] once per pivot.
fn eliminate(q: &mut [f64], m: usize) {
    let mut pivot: Vec<(usize, f64)> = Vec::with_capacity(m);
    for k in (1..m).rev() {
        ioimc::budget::checkpoint();
        pivot.clear();
        pivot.extend(
            q[k * m..k * m + k]
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(j, &v)| (j, v)),
        );
        let out: f64 = pivot.iter().map(|&(_, v)| v).sum();
        if out <= 0.0 {
            continue; // defensive: cannot happen inside one SCC
        }
        for i in 0..k {
            let f = q[i * m + k] / out;
            if f == 0.0 {
                continue;
            }
            let row = &mut q[i * m..i * m + k];
            for &(j, v) in &pivot {
                if j != i {
                    row[j] += f * v;
                }
            }
        }
    }
}

/// Back-accumulates the stationary weights of an eliminated class
/// matrix and scatters them, normalized, over the chain's `n` states
/// (states outside the class get zero).
///
/// State `k`'s weight is its inflow `Σ_{i<k} x_i·q_ik` over its exit
/// rate. The inflows are accumulated row by row: once `x_i` is known,
/// row `i` adds `x_i·q_ik` to every later `inflow[k]`, so `q` is read
/// contiguously instead of down column `k`. Each `inflow[k]` still
/// receives its terms for `i = 0, 1, .., k-1` in that order, zeros
/// included, so every weight is bitwise the column-order sum's.
fn stationary(n: usize, class: &[u32], q: &[f64]) -> Vec<f64> {
    let m = class.len();
    let mut x = vec![0.0f64; m];
    let mut inflow = vec![0.0f64; m];
    x[0] = 1.0;
    for k in 0..m {
        let row = &q[k * m..(k + 1) * m];
        if k > 0 {
            let out: f64 = row[..k].iter().sum();
            x[k] = if out > 0.0 { inflow[k] / out } else { 0.0 };
        }
        let xk = x[k];
        for (acc, &v) in inflow[k + 1..].iter_mut().zip(&row[k + 1..]) {
            *acc += xk * v;
        }
    }
    let total: f64 = x.iter().sum();
    let mut pi = vec![0.0f64; n];
    if total > 0.0 {
        for (i, &s) in class.iter().enumerate() {
            pi[s as usize] = x[i] / total;
        }
    }
    pi
}

/// The first bottom strongly-connected class reachable from the chain's
/// initial state (every SCC without outgoing edges is "bottom"; at least
/// one is always reachable). States are returned in ascending order.
/// For an irreducible chain this is simply all states.
fn reachable_bottom_class(ctmc: &Ctmc) -> Vec<u32> {
    let n = ctmc.num_states();
    // Tarjan's SCC with an explicit stack (chains can be deep).
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![u32::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut ncomps = 0u32;
    for root in 0..n as u32 {
        if index[root as usize] != u32::MAX {
            continue;
        }
        let mut frames: Vec<(u32, usize)> = vec![(root, 0)];
        index[root as usize] = next_index;
        low[root as usize] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root as usize] = true;
        while let Some(&(v, ei)) = frames.last() {
            let row = ctmc.row(v);
            if ei < row.len() {
                frames.last_mut().expect("nonempty").1 += 1;
                let w = row[ei].1;
                if index[w as usize] == u32::MAX {
                    index[w as usize] = next_index;
                    low[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                if low[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = ncomps;
                        if w == v {
                            break;
                        }
                    }
                    ncomps += 1;
                }
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
            }
        }
    }
    // A component with an edge into another component is not bottom.
    let mut bottom = vec![true; ncomps as usize];
    for s in 0..n as u32 {
        for &(_, t) in ctmc.row(s) {
            if comp[s as usize] != comp[t as usize] {
                bottom[comp[s as usize] as usize] = false;
            }
        }
    }
    // BFS from the initial state; the first bottom component reached
    // wins (deterministic, and matches where the process actually goes).
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let init = ctmc.initial();
    seen[init as usize] = true;
    queue.push_back(init);
    let mut chosen = comp[init as usize];
    while let Some(s) = queue.pop_front() {
        if bottom[comp[s as usize] as usize] {
            chosen = comp[s as usize];
            break;
        }
        for &(_, t) in ctmc.row(s) {
            if !seen[t as usize] {
                seen[t as usize] = true;
                queue.push_back(t);
            }
        }
    }
    (0..n as u32)
        .filter(|&s| comp[s as usize] == chosen)
        .collect()
}

/// How a budgeted Gauss–Seidel run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GsOutcome {
    /// The geometric-tail bound certified the remaining error within
    /// tolerance (or an exact fixpoint was hit).
    Converged,
    /// The sweep budget ran out first.
    Exhausted,
    /// Progress stalled: less than 2× residual improvement across a
    /// 64-sweep window while still above tolerance.
    Stalled,
}

/// Gauss–Seidel iteration on `π_i · exit_i = Σ_j π_j q_{ji}` from the
/// uniform start, sweeping the transposed CSR adjacency `incoming` so
/// each state's inflow is one contiguous slice, for at most
/// `opts.max_sweeps` sweeps. Returns the iterate and how the run ended.
///
/// Convergence is certified with a geometric tail bound, not the raw
/// sweep-to-sweep change: on a slowly contracting chain (`ρ` near 1) the
/// per-sweep change can sit below tolerance while the iterate is still
/// far from the fixpoint — the differential fuzzer caught exactly that
/// as a 1e-4 relative steady-state error passing a 1e-13 "tolerance".
/// The contraction is estimated from consecutive sweep changes and the
/// projected remaining drift `Δ·ρ/(1−ρ)` must be within tolerance. With
/// `stall_exit`, a chain that contracts too slowly to certify trips the
/// stall detector instead, and the run ends early for the GTH rescue.
fn gauss_seidel(
    ctmc: &Ctmc,
    incoming: &Incoming,
    opts: &SolverOptions,
    stall_exit: bool,
) -> (Vec<f64>, GsOutcome) {
    /// Sweeps between stall checks (and the minimum run before one).
    const STALL_WINDOW: usize = 64;
    let n = ctmc.num_states();
    let exit = ctmc.exit_rates();
    let mut pi = vec![1.0 / n as f64; n];
    let mut window_rel = f64::INFINITY;
    let mut prev_rel = f64::INFINITY;
    for sweep in 1..=opts.max_sweeps {
        // Cooperative cancellation once per sweep (a sweep is one pass
        // over all transitions, on the calling thread).
        ioimc::budget::checkpoint();
        let mut max_rel = 0.0f64;
        for i in 0..n {
            if exit[i] <= 0.0 {
                continue; // absorbing state keeps its mass (not expected here)
            }
            let inflow: f64 = incoming
                .row(i as u32)
                .iter()
                .map(|&(r, j)| r * pi[j as usize])
                .sum();
            let new = inflow / exit[i];
            let denom = new.abs().max(1e-300);
            max_rel = max_rel.max((new - pi[i]).abs() / denom);
            pi[i] = new;
        }
        let total: f64 = pi.iter().sum();
        if total > 0.0 {
            for v in &mut pi {
                *v /= total;
            }
        }
        if max_rel == 0.0 {
            return (pi, GsOutcome::Converged); // exact fixpoint
        }
        if prev_rel.is_finite() && max_rel < prev_rel {
            let rho = max_rel / prev_rel;
            if max_rel * rho / (1.0 - rho) <= opts.tol {
                return (pi, GsOutcome::Converged);
            }
        }
        prev_rel = max_rel;
        if stall_exit && sweep % STALL_WINDOW == 0 {
            if max_rel > window_rel * 0.5 {
                return (pi, GsOutcome::Stalled);
            }
            window_rel = max_rel;
        }
    }
    (pi, GsOutcome::Exhausted)
}

#[cfg(test)]
mod tests {
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;

    use ioimc::budget::{self, Budget, BudgetExceeded, BudgetKind};
    use smallrand::SmallRng;

    use super::*;

    /// The column-order back-substitution that [`stationary`] replaced:
    /// state `k`'s inflow is summed down column `k` of `q`.
    fn column_order_stationary(n: usize, class: &[u32], q: &[f64]) -> Vec<f64> {
        let m = class.len();
        let mut x = vec![0.0f64; m];
        x[0] = 1.0;
        for k in 1..m {
            let out: f64 = (0..k).map(|j| q[k * m + j]).sum();
            let inflow: f64 = (0..k).map(|i| x[i] * q[i * m + k]).sum();
            x[k] = if out > 0.0 { inflow / out } else { 0.0 };
        }
        let total: f64 = x.iter().sum();
        let mut pi = vec![0.0f64; n];
        if total > 0.0 {
            for (i, &s) in class.iter().enumerate() {
                pi[s as usize] = x[i] / total;
            }
        }
        pi
    }

    /// The row-wise inflow accumulation changes no rounding: on the same
    /// 64 seeded chains and birth–death fixtures, [`stationary`] is
    /// bitwise the column-order sum on every eliminated class matrix.
    #[test]
    fn stationary_is_bitwise_the_column_order_sum() {
        let mut chains: Vec<Ctmc> = (0..64).map(random_chain).collect();
        chains.extend([
            birth_death(0.7, 1.0, 6),
            birth_death(0.3, 1.0, 9),
            birth_death(0.7, 1.0, 12),
            birth_death(0.9, 1.0, 120),
        ]);
        for (c, chain) in chains.iter().enumerate() {
            let (class, mut q) = class_rates(chain);
            eliminate(&mut q, class.len());
            let rows = stationary(chain.num_states(), &class, &q);
            let cols = column_order_stationary(chain.num_states(), &class, &q);
            for (s, (a, b)) in rows.iter().zip(&cols).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "chain {c}, state {s}: {a:e} vs {b:e}"
                );
            }
        }
    }

    /// The full-row GTH elimination that [`eliminate`] replaced: every
    /// predecessor row is swept over every column `j < k`, zeros
    /// included. The structural-zero skip must match it bit for bit.
    fn full_row_dense_solve(ctmc: &Ctmc) -> Vec<f64> {
        let (class, mut q) = class_rates(ctmc);
        let m = class.len();
        for k in (1..m).rev() {
            let out: f64 = (0..k).map(|j| q[k * m + j]).sum();
            if out <= 0.0 {
                continue;
            }
            for i in 0..k {
                let f = q[i * m + k] / out;
                if f == 0.0 {
                    continue;
                }
                for j in 0..k {
                    if j != i {
                        q[i * m + j] += f * q[k * m + j];
                    }
                }
            }
        }
        stationary(ctmc.num_states(), &class, &q)
    }

    /// A seeded random chain of 2–300 states with one to three
    /// transitions per state and rates log-uniform in `1e-8..1e2`. A
    /// quarter of the draws are reducible: transient states (the initial
    /// one among them) drain into two to four bottom classes, some of
    /// them single absorbing states. State ids are shuffled, so a class
    /// is rarely a contiguous range.
    fn random_chain(seed: u64) -> Ctmc {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.range_usize(2, 301);
        // Block bounds in the unshuffled order: states below `bounds[0]`
        // are transient, each later `[bounds[c], bounds[c + 1])` is one
        // bottom class.
        let bounds = if n >= 4 && rng.below(4) == 0 {
            let transient = rng.range_usize(1, n - 1);
            let mut bounds: Vec<usize> = (0..rng.range_usize(1, 4))
                .map(|_| rng.range_usize(transient + 1, n))
                .collect();
            bounds.push(transient);
            bounds.push(n);
            bounds.sort_unstable();
            bounds.dedup();
            bounds
        } else {
            vec![0, n]
        };
        let rate = |rng: &mut SmallRng| 10f64.powf(rng.range_f64(-8.0, 2.0));
        let mut rows: Vec<Vec<(f64, u32)>> = vec![Vec::new(); n];
        for row in &mut rows[..bounds[0]] {
            let exit = rng.range_usize(bounds[0], n);
            row.push((rate(&mut rng), exit as u32));
            for _ in 0..rng.below(3) {
                let t = rng.range_usize(0, n);
                row.push((rate(&mut rng), t as u32));
            }
        }
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi - lo == 1 {
                continue; // an absorbing bottom class
            }
            for (s, row) in (lo..hi).zip(&mut rows[lo..hi]) {
                let ring = lo + (s - lo + 1) % (hi - lo);
                row.push((rate(&mut rng), ring as u32));
                for _ in 0..rng.below(3) {
                    let t = rng.range_usize(lo, hi);
                    row.push((rate(&mut rng), t as u32));
                }
            }
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.range_usize(0, i + 1));
        }
        let mut shuffled = vec![Vec::new(); n];
        for (s, row) in rows.into_iter().enumerate() {
            shuffled[perm[s] as usize] = row
                .into_iter()
                .map(|(r, t)| (r, perm[t as usize]))
                .collect();
        }
        Ctmc::new(shuffled, vec![0; n], perm[0]).unwrap()
    }

    /// The structural-zero skip changes no rounding: on 64 seeded random
    /// chains (21 of them reducible) and the birth–death fixtures, the
    /// steady state is bitwise the full-row elimination's.
    #[test]
    fn gth_is_bitwise_the_full_row_elimination() {
        let mut chains: Vec<Ctmc> = (0..64).map(random_chain).collect();
        let reducible = chains
            .iter()
            .filter(|c| reachable_bottom_class(c).len() < c.num_states())
            .count();
        assert!(
            (8..=24).contains(&reducible),
            "{reducible} of 64 random chains are reducible"
        );
        chains.extend([
            birth_death(0.7, 1.0, 6),
            birth_death(0.3, 1.0, 9),
            birth_death(0.7, 1.0, 12),
            birth_death(0.9, 1.0, 120),
        ]);
        for (c, chain) in chains.iter().enumerate() {
            let skip = steady_state(chain);
            let full = full_row_dense_solve(chain);
            for (s, (a, b)) in skip.iter().zip(&full).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "chain {c}, state {s}: {a:e} vs {b:e}"
                );
            }
        }
    }

    /// The GTH elimination polls the ambient budget: a cancelled one
    /// unwinds it with a typed payload.
    #[test]
    fn gth_honors_the_ambient_budget() {
        let c = birth_death(0.7, 1.0, 40);
        let cancelled = Arc::new(Budget::unlimited());
        cancelled.cancel();
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
            budget::scope(Some(cancelled), || {
                steady_state_with(&c, &SolverOptions::default())
            })
        }))
        .expect_err("a cancelled budget aborts the GTH");
        let e = payload
            .downcast_ref::<BudgetExceeded>()
            .expect("a BudgetExceeded payload");
        assert_eq!(e.kind, BudgetKind::Cancelled);
    }

    fn birth_death(lambda: f64, mu: f64, k: usize) -> Ctmc {
        let rows: Vec<Vec<(f64, u32)>> = (0..=k)
            .map(|i| {
                let mut row = Vec::new();
                if i < k {
                    row.push((lambda, (i + 1) as u32));
                }
                if i > 0 {
                    row.push((mu, (i - 1) as u32));
                }
                row
            })
            .collect();
        Ctmc::new(rows, vec![0; k + 1], 0).unwrap()
    }

    /// Two-state machine: π_up = µ/(λ+µ).
    #[test]
    fn two_state_machine() {
        let (l, m) = (0.01, 2.0);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let pi = steady_state(&c);
        assert!((pi[0] - m / (l + m)).abs() < 1e-12);
        assert!((pi[1] - l / (l + m)).abs() < 1e-12);
    }

    /// M/M/1/K queue: π_k ∝ ρ^k.
    #[test]
    fn mm1k_queue() {
        let (lambda, mu, k) = (0.7, 1.0, 6usize);
        let c = birth_death(lambda, mu, k);
        let pi = steady_state(&c);
        let rho: f64 = lambda / mu;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        for (i, &p) in pi.iter().enumerate() {
            let expected = rho.powi(i as i32) / norm;
            assert!((p - expected).abs() < 1e-12, "state {i}: {p} vs {expected}");
        }
    }

    /// A stiff repairable system (rates spanning 7 orders of magnitude).
    #[test]
    fn stiff_chain() {
        let (l, m) = (1e-7, 0.1);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let pi = steady_state(&c);
        let expected = l / (l + m);
        assert!((pi[1] - expected).abs() / expected < 1e-10);
    }

    /// The sparse path agrees with the dense path on the same chain.
    #[test]
    fn iterative_paths_match_dense() {
        let c = birth_death(0.3, 1.0, 9);
        let dense = steady_state(&c);
        let gs = steady_state_with(&c, &SolverOptions::default().with_dense_limit(0));
        for i in 0..c.num_states() {
            assert!((dense[i] - gs[i]).abs() < 1e-10, "GS state {i}");
        }
    }

    /// A stiff chain forced down the sparse path still gets full relative
    /// accuracy (the Gauss–Seidel sweep works in balance-equation space,
    /// not probability space, so the 1e-8 mass is resolved).
    #[test]
    fn sparse_path_resolves_stiff_mass() {
        let (l, m) = (1e-7, 0.1);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let pi = steady_state_with(&c, &SolverOptions::default().with_dense_limit(0));
        let expected = l / (l + m);
        assert!((pi[1] - expected).abs() / expected < 1e-9);
    }

    /// The sweep cap is honored without sacrificing the answer: a capped
    /// run is never accepted, and the small chain is rescued by the exact
    /// solver. One sweep leaves a large residual. Fifty sweeps on the
    /// 7-state chain, all before the first stall check, leave a residual
    /// of 3.7e-8, inside the 1e-7 gate, on an iterate still 2e-7 off:
    /// only the missing tail-bound certificate rejects it.
    #[test]
    fn capped_iterate_is_rescued_by_gth() {
        for (k, sweeps) in [(12, 1), (6, 50)] {
            let c = birth_death(0.7, 1.0, k);
            let capped = steady_state_with(
                &c,
                &SolverOptions::default()
                    .with_dense_limit(0)
                    .with_max_sweeps(sweeps),
            );
            let exact = dense_solve(&c);
            for (i, (a, b)) in capped.iter().zip(&exact).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{k}, {sweeps} sweeps, state {i}: {a:e} vs {b:e}"
                );
            }
        }
    }

    /// A chain of 2,049 states on which Gauss–Seidel cannot certify
    /// (its stationary mass spans over 300 decades) is rescued: the
    /// answer is bitwise the GTH vector. With a rescue limit of 2,048
    /// states, this chain answered an uncertified iterate.
    #[test]
    fn stalled_chain_is_rescued_by_gth() {
        let c = birth_death(0.7, 1.0, 2048);
        let exact = dense_solve(&c);
        let sparse = steady_state_with(&c, &SolverOptions::default().with_dense_limit(0));
        for (i, (a, b)) in sparse.iter().zip(&exact).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "state {i}: {a:e} vs {b:e}");
        }
    }

    /// Beyond the rescue limit an uncertified iterate is an error, not an
    /// answer: one sweep cannot converge, and the solve unwinds with a
    /// typed [`CtmcError::Uncertified`] payload naming the chain's size.
    #[test]
    fn sweep_cap_beyond_rescue_limit_is_uncertified() {
        let c = birth_death(0.7, 1.0, RESCUE_LIMIT);
        let payload = std::panic::catch_unwind(|| {
            steady_state_with(
                &c,
                &SolverOptions::default()
                    .with_dense_limit(0)
                    .with_max_sweeps(1),
            )
        })
        .expect_err("one sweep cannot certify the iterate");
        match payload.downcast_ref::<CtmcError>() {
            Some(&CtmcError::Uncertified { states, residual }) => {
                assert_eq!(states, RESCUE_LIMIT + 1);
                assert!(residual > 1e-7, "residual {residual:e}");
            }
            other => panic!("expected an Uncertified payload, got {other:?}"),
        }
    }

    /// Regression: the nearly-decomposable 6-state chain (from fuzz seed
    /// 9587389500486994162) on which an earlier Gauss–Seidel stall
    /// fallback stagnated and declared a 1e-4-wrong answer converged.
    /// Only a certified iterate may be accepted — one that stalls or
    /// exhausts its sweeps is not, even when its residual looks small —
    /// so the sparse path must agree with GTH to full tolerance.
    #[test]
    fn nearly_decomposable_chain_is_rescued() {
        let (slow, fast) = (0.00134, 13.4);
        let rows = vec![
            vec![(slow, 1), (fast, 2)],
            vec![(slow, 3), (fast, 4)],
            vec![(slow, 0), (slow, 4)],
            vec![(slow, 0), (fast, 5)],
            vec![(slow, 1)],
            vec![(slow, 3)],
        ];
        let c = Ctmc::new(rows, vec![0, 0, 0, 0, 1, 1], 0).unwrap();
        let exact = dense_solve(&c);
        let residual = max_rel_residual(&c, &c.incoming(), &exact);
        assert!(residual < 1e-12, "GTH residual {residual}");
        let mut opts = SolverOptions::default().with_dense_limit(0);
        opts.tol = 1e-13;
        opts.max_sweeps = 50_000;
        let iterative = steady_state_with(&c, &opts);
        let down_exact = exact[4] + exact[5];
        let down_iter = iterative[4] + iterative[5];
        assert!(
            (down_exact - down_iter).abs() / down_exact < 1e-9,
            "{down_exact} vs {down_iter}"
        );
    }

    #[test]
    fn single_state_is_trivial() {
        let c = Ctmc::new(vec![vec![]], vec![0], 0).unwrap();
        assert_eq!(steady_state(&c), vec![1.0]);
    }
}
