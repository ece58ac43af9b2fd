//! The dense transient kernel: subtraction-free scaling and squaring of
//! the uniformized chain, and the cost model that decides when it pays.
//!
//! For a grid segment of length `Δt` the kernel computes `e^{QΔt}` as
//!
//! 1. `P = I + Q/Λ` with the global uniformization rate `Λ`;
//! 2. `s = max(0, ⌈log₂ ΛΔt⌉)`, so the scaled horizon `x = ΛΔt/2^s ≤ 1`;
//! 3. `E = Σ_k Poisson(x)[k]·Pᵏ`, the short (≈ 20-term) Poisson series
//!    summed by Horner with weights from the [`PoissonCache`];
//! 4. `s` squarings `E ← E²`, each followed by rescaling every row of
//!    `E` to sum 1;
//!
//! and applies the result to the distribution. `P`, the weights and every
//! intermediate product are entrywise nonnegative, so no step subtracts
//! and small probabilities keep their relative accuracy (Xue & Ye,
//! "Entrywise relative perturbation bounds for exponentials of
//! essentially non-negative matrices", Numer. Math. 2008; Moler & Van
//! Loan, "Nineteen dubious ways to compute the exponential of a matrix,
//! twenty-five years later", SIAM Review 2003). The cost is
//! `(s + K)` products of `n × n` matrices — `O(n³·log ΛΔt)`, independent
//! of how stiff the chain is — where uniformization pays `O(ΛΔt·nnz)`.
//!
//! The last exponential is kept for the lifetime of one solve, so a run
//! of segments of one width — a uniform grid, or the Simpson chunks of
//! the CSL integrators — pays for it once. The kernel is serial: its
//! results do not depend on the thread count.

use crate::chain::Ctmc;
use crate::context::SolveCounters;
use crate::poisson::PoissonCache;

/// Hard cap on the states the dense kernel accepts: beyond it the
/// `n × n` buffers (2 MB each at the cap) and `n³` products are never
/// worth it, whatever the stiffness.
pub(crate) const DENSE_MAX_STATES: usize = 512;

/// `K` in the cost model: the length of the Poisson series at a scaled
/// horizon `x ≤ 1` (the weights' relative cutoff of `1e-18` keeps about
/// 20 terms at `x = 1`).
const SERIES_TERMS: f64 = 20.0;

/// `c` in the cost model: the wall time of one dense multiply-add (one
/// unit of `n³`) over the windowed engine's wall time per unit of its
/// global-Λ estimate `Λ·t_max·(n + nnz)`.
///
/// Measured on a 2-thread x86-64 host, release build, one thread: dense
/// exponentials of random sparse chains with `n` = 64, 128, 256 and 512
/// ran at 0.45, 0.44, 0.40 and 0.41 ns per multiply-add. The stiffest
/// chain the windowed engine keeps, `rcs_stiff(3)` (432 states, 2,912
/// transitions, 50-point grid to `t = 1000`, `Λt = 6.1e5`), took 0.31 s
/// for 234,159 DTMC steps: 0.40 ns per step unit of `n + nnz`, but only
/// 0.15 ns per unit of the estimate, because windowing and per-segment
/// `Λ` take 2.6× fewer steps than `Λ·t_max`. The measured cost ratio
/// there is 0.41 / 0.15 ≈ 2.7; it is rounded up to 4 so that chains near
/// the crossover stay on the windowed engine (its real per-unit cost
/// ranged from 0.007 to 1.4 ns over the DDS grids measured alongside).
/// `rcs_stiff(3)` itself is far from the crossover: its dense side is
/// `(14 + 20)·432³ ≈ 2.74e9` against an estimate of `≈ 2.05e9`, so it
/// would switch only at `c ≈ 0.75`, where the measured ratio predicts a
/// dense solve about 3.6× slower than the windowed one.
const DENSE_COST_FACTOR: f64 = 4.0;

/// The most squarings the kernel takes. `2^s` must stay finite, and a
/// horizon of `2^1000` uniformization steps is past any stationary limit;
/// the cost model leaves anything longer (or not finite) to the windowed
/// engine, which rejects a global `Λt` above `2^53`.
const MAX_SQUARINGS: u32 = 1000;

/// The number of squarings that brings `ΛΔt` down to at most 1, or `None`
/// when `ΛΔt` is not finite or needs more than [`MAX_SQUARINGS`].
fn squarings(lambda_t: f64) -> Option<u32> {
    if !lambda_t.is_finite() {
        return None;
    }
    let mut s = 0;
    let mut x = lambda_t;
    while x > 1.0 {
        if s == MAX_SQUARINGS {
            return None;
        }
        x *= 0.5;
        s += 1;
    }
    Some(s)
}

/// The cost model: whether the dense kernel is cheaper than windowed
/// uniformization for a grid solve over a chain with `n` states, `nnz`
/// transitions and global uniformization rate `unif`.
///
/// Dense is chosen when `n ≤ DENSE_MAX_STATES`, `Λ·t_max` needs at most
/// [`MAX_SQUARINGS`] squarings, and
/// `c · Σ (⌈log₂ ΛΔt⌉ + K)·n³ < Λ·t_max·(n + nnz)`, the sum running over
/// the positive step widths `Δt` of the grid visited in ascending order
/// from 0, counting a width only where it differs from the one before
/// (the kernel keeps the last exponential). The right-hand side is the
/// work of uniformization at the global rate, which bounds the windowed
/// engine's.
pub(crate) fn dense_pays(n: usize, nnz: usize, unif: f64, ts: &[f64]) -> bool {
    if n > DENSE_MAX_STATES || unif <= 0.0 {
        return false;
    }
    let mut sorted = ts.to_vec();
    sorted.sort_by(f64::total_cmp);
    let t_max = sorted.last().copied().unwrap_or(0.0);
    // Every `ΛΔt` is at most `Λ·t_max`, so each width below has its count.
    if squarings(unif * t_max).is_none() {
        return false;
    }
    let windowed = unif * t_max * (n + nnz) as f64;
    let n3 = (n as f64).powi(3);
    let mut dense = 0.0f64;
    let (mut prev, mut last_dt) = (0.0f64, None);
    for &t in &sorted {
        let dt = t - prev;
        prev = t;
        if dt > 0.0 && last_dt != Some(dt.to_bits()) {
            last_dt = Some(dt.to_bits());
            let s = squarings(unif * dt).unwrap_or(MAX_SQUARINGS);
            dense += (f64::from(s) + SERIES_TERMS) * n3;
        }
    }
    DENSE_COST_FACTOR * dense < windowed
}

/// The dense kernel for one chain: `P = I + Q/Λ` as a row-major `n × n`
/// matrix plus the last exponential it computed. Dropped with the grid
/// solver that owns it, so its buffers live for one solve.
pub(crate) struct DenseExp {
    n: usize,
    unif: f64,
    /// `P = I + Q/Λ`, row-major.
    p: Vec<f64>,
    /// The bits of the last `Δt` and `e^{QΔt}`.
    last: Option<(u64, Vec<f64>)>,
}

impl DenseExp {
    pub(crate) fn new(ctmc: &Ctmc, unif: f64) -> Self {
        // The dense twin of the uniformization engines' start of a solve:
        // chaos faults injected at `session.shard` unwind here, before any
        // buffer is filled.
        ioimc::failpoint::hit("session.shard");
        let n = ctmc.num_states();
        let mut p = vec![0.0f64; n * n];
        for s in 0..n {
            let row = &mut p[s * n..(s + 1) * n];
            row[s] = 1.0 - ctmc.exit_rate(s as u32) / unif;
            for &(r, t) in ctmc.row(s as u32) {
                row[t as usize] = r / unif;
            }
        }
        Self {
            n,
            unif,
            p,
            last: None,
        }
    }

    /// `π·e^{QΔt}` for `dt > 0`.
    pub(crate) fn advance(
        &mut self,
        pi: &[f64],
        dt: f64,
        cache: &PoissonCache,
        counters: &SolveCounters,
    ) -> Vec<f64> {
        let n = self.n;
        let key = dt.to_bits();
        if self.last.as_ref().map(|(bits, _)| *bits) != Some(key) {
            self.last = Some((key, self.exponential(dt, cache, counters)));
        }
        let e = &self.last.as_ref().expect("just ensured").1;
        let mut out = vec![0.0f64; n];
        for (i, &w) in pi.iter().enumerate() {
            if w != 0.0 {
                for (o, &x) in out.iter_mut().zip(&e[i * n..(i + 1) * n]) {
                    *o += w * x;
                }
            }
        }
        out
    }

    /// `e^{QΔt}` by scaling, the Horner-summed Poisson series, and
    /// row-renormalized squaring.
    fn exponential(&self, dt: f64, cache: &PoissonCache, counters: &SolveCounters) -> Vec<f64> {
        let n = self.n;
        let lambda_t = self.unif * dt;
        let s = squarings(lambda_t).expect("the cost model admits only horizons it can square");
        // Exact: scaling by a power of two only moves the exponent.
        let pw = cache.get(lambda_t / f64::from(s).exp2());
        let weight = |k: usize| k.checked_sub(pw.left).map_or(0.0, |i| pw.weights[i]);
        let last = pw.total_steps() - 1;
        // Horner: E = (…((w_last·P + w_{last-1}·I)·P + …)·P + w_0·I.
        let mut e = vec![0.0f64; n * n];
        let mut tmp = vec![0.0f64; n * n];
        add_diagonal(&mut e, n, weight(last));
        for k in (0..last).rev() {
            ioimc::budget::checkpoint();
            matmul(&e, &self.p, &mut tmp, n, counters);
            add_diagonal(&mut tmp, n, weight(k));
            std::mem::swap(&mut e, &mut tmp);
        }
        normalize_rows(&mut e, n);
        for _ in 0..s {
            ioimc::budget::checkpoint();
            matmul(&e, &e, &mut tmp, n, counters);
            normalize_rows(&mut tmp, n);
            std::mem::swap(&mut e, &mut tmp);
        }
        e
    }
}

fn add_diagonal(m: &mut [f64], n: usize, w: f64) {
    for i in 0..n {
        m[i * n + i] += w;
    }
}

/// `c = a·b` for row-major `n × n` matrices, in i-k-j order so the inner
/// loop streams rows of `b` and `c`. Zero entries of `a` (most of them in
/// the early Horner iterates of a sparse `P`) are skipped; adding their
/// zero products would not change a bit of `c`.
fn matmul(a: &[f64], b: &[f64], c: &mut [f64], n: usize, counters: &SolveCounters) {
    counters.count_dense_product();
    c.fill(0.0);
    for (a_row, c_row) in a.chunks_exact(n).zip(c.chunks_exact_mut(n)) {
        for (&aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if aik != 0.0 {
                for (cij, &bkj) in c_row.iter_mut().zip(b_row) {
                    *cij += aik * bkj;
                }
            }
        }
    }
}

/// Rescales every row to sum 1. Every row of `e^{Qt}` sums to 1 for a
/// conservative generator; the rescaling stops each squaring from doubling
/// the rounding drift of the row sums (without it the drift after `s`
/// squarings is about `2^s·u ≈ ΛΔt·u`). Division, not multiplication by
/// the reciprocal, keeps an absorbing state's row an exact unit row.
fn normalize_rows(m: &mut [f64], n: usize) {
    for row in m.chunks_exact_mut(n) {
        let sum: f64 = row.iter().sum();
        if sum > 0.0 {
            for x in row {
                *x /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squarings_bring_the_horizon_to_at_most_one() {
        assert_eq!(squarings(0.0), Some(0));
        assert_eq!(squarings(0.7), Some(0));
        assert_eq!(squarings(1.0), Some(0));
        assert_eq!(squarings(1.5), Some(1));
        assert_eq!(squarings(2.0), Some(1));
        assert_eq!(squarings(1e6), Some(20));
        for x in [3.7, 1e3, 1e8] {
            let s = squarings(x).expect("finite horizon");
            assert!(x / f64::from(s).exp2() <= 1.0 && x / f64::from(s - 1).exp2() > 1.0);
        }
        assert_eq!(squarings(1000f64.exp2()), Some(MAX_SQUARINGS));
    }

    /// Horizons the kernel cannot square — not finite, or so long that
    /// `2^s` would overflow — are refused, promptly, and the cost model
    /// leaves them to the windowed engine.
    #[test]
    fn unsquarable_horizons_stay_off_the_dense_kernel() {
        let huge = 1001f64.exp2();
        for x in [
            f64::INFINITY,
            f64::NAN,
            f64::MAX,
            1.5 * 1023f64.exp2(),
            huge,
        ] {
            assert_eq!(squarings(x), None, "{x:e}");
        }
        // 2 · 1e308 overflows to +inf; 1e300 · 1e9 lies in (2^1023, MAX].
        assert!(!dense_pays(2, 2, 2.0, &[1e308]));
        assert!(!dense_pays(16, 36, 1e9, &[1e300]));
        assert!(!dense_pays(4, 8, 30.0, &[10.0, huge]));
        // Just inside the cap the kernel still pays.
        assert!(dense_pays(2, 2, 2.0, &[1000f64.exp2() / 2.0]));
    }

    /// The cost model puts the benchmark's chain shapes on the documented
    /// sides: every `stiff_small` chain (availability and first-passage
    /// chains of 4-16 states, Λt up to ~1e6 over its 10/100/1000 h grid)
    /// on the dense kernel; every `cold_models` DDS chain (150-2,100
    /// states, Λt ≈ 4,000-8,000 over its 84/420/840 h grid) on the
    /// windowed engine, which a plain state-count threshold would get
    /// wrong for the 150- and 350-state ones. Shapes are `(states,
    /// transitions, max exit rate)` of the aggregated chains.
    #[test]
    fn cost_model_sides_match_the_chain_shapes() {
        let dense = |&(n, nnz, max_exit): &(usize, usize, f64), ts: &[f64]| {
            dense_pays(n, nnz, max_exit * 1.02, ts)
        };
        let stiff_small = [
            (4, 8, 30.5),
            (4, 6, 30.0003),
            (8, 24, 160.5),
            (8, 21, 160.001),
            (16, 64, 403.0),
            (16, 36, 253.0002),
            (16, 64, 1003.0),
            (16, 36, 503.0002),
        ];
        for shape in &stiff_small {
            assert!(
                dense(shape, &[10.0, 100.0, 1000.0]),
                "{shape:?} must go dense"
            );
        }
        let cold_models = [
            (150, 760, 5.0025),
            (150, 51, 5.0025),
            (350, 2_040, 6.003),
            (350, 72, 6.003),
            (700, 4_480, 7.0035),
            (1_260, 8_624, 8.004),
            (2_100, 15_120, 9.0045),
        ];
        for shape in &cold_models {
            assert!(
                !dense(shape, &[84.0, 420.0, 840.0]),
                "{shape:?} must stay windowed"
            );
        }
        // rcs_stiff(3)'s 50-point grid stays windowed too.
        let grid: Vec<f64> = (1..=50).map(|k| f64::from(k) * 20.0).collect();
        assert!(!dense(&(432, 2_912, 600.0), &grid));
        // Above the cap nothing goes dense, however stiff.
        assert!(!dense_pays(DENSE_MAX_STATES + 1, 2_000, 1e6, &[1e3]));
        // No rate, no horizon: nothing to pay for.
        assert!(!dense_pays(4, 0, 0.0, &[10.0]));
        assert!(!dense_pays(4, 8, 30.0, &[0.0]));
    }

    /// A run of equal step widths is paid once: a uniform grid costs the
    /// same as its first segment, while the windowed estimate keeps
    /// growing. Widths that alternate are paid at every change, as the
    /// kernel recomputes them.
    #[test]
    fn cost_model_counts_step_width_changes() {
        let (n, nnz, unif) = (8, 16, 1000.0);
        let one = [1.0];
        let uniform: Vec<f64> = (1..=64).map(f64::from).collect();
        assert!(!dense_pays(n, nnz, unif, &one));
        assert!(dense_pays(n, nnz, unif, &uniform));
        // 1, 2, 1, 2, …: 64 changes over t_max = 96 cost more than the
        // 96-step uniform grid's single width.
        let alternating: Vec<f64> = (1..=64).map(|k| f64::from(k / 2 * 3 + k % 2)).collect();
        let uniform_96: Vec<f64> = (1..=96).map(f64::from).collect();
        assert!(dense_pays(n, nnz, unif, &uniform_96));
        assert!(!dense_pays(n, nnz, unif, &alternating));
    }

    #[test]
    fn matmul_matches_the_definition() {
        let a = [1.0, 2.0, 0.0, 3.0];
        let b = [0.5, 0.0, 4.0, 1.0];
        let mut c = [0.0; 4];
        matmul(&a, &b, &mut c, 2, &SolveCounters::new());
        assert_eq!(c, [8.5, 2.0, 12.0, 3.0]);
    }
}
