//! Shared solver configuration for the CTMC numerics kernels.
//!
//! The steady-state ([`crate::steady`]) and first-passage
//! ([`crate::absorbing`]) solvers pick between a dense direct path and a
//! sparse iterative path; [`SolverOptions`] makes the crossover point and
//! the iteration-control knobs explicit instead of burying them as module
//! constants. The defaults reproduce the pre-`SolverOptions` behavior
//! exactly (dense up to 3 000 states, 1e-14 relative tolerance, 200 000
//! sweep cap), so `*_with(&SolverOptions::default())` equals the plain
//! entry points.

/// Head-room factor applied to the maximum exit rate when uniformizing
/// (`Λ = headroom · max exit`): the strict inequality keeps every state's
/// self-loop probability positive, so the DTMC is aperiodic. Shared by
/// the transient engine and the Krylov steady-state kernel.
pub(crate) const UNIF_HEADROOM: f64 = 1.02;

/// Configuration of the transient kernels: kernel selection, the
/// uniformization engines' steady-state detection and support truncation
/// (see [`crate::transient`]). Every kernel runs serially on the calling
/// thread; the parallelism that pays sits above it (sweep points, sibling
/// plan groups, concurrent requests).
///
/// # Semantics
///
/// * `threads` — **unread**. No transient kernel uses threads. The field
///   remains only because the repository benchmark's replay
///   (`arcbench/src/api.rs:28`) assigns it; it goes once that line does.
/// * `steady_tol` — steady-state detection budget: the uniformized chain
///   is declared converged when the **projected total remaining drift**
///   `δ / (1 − ρ̂)` falls below it, where `δ = ‖π P − π‖∞` is the DTMC
///   step delta and `ρ̂` the contraction ratio estimated from the recent
///   delta history (the raw delta alone under-reports the remaining
///   distance by the spectral gap on nearly-decoupled chains — rare
///   failures next to fast repairs). On detection the remaining Poisson
///   tail mass is assigned to the converged vector, and **all later grid
///   points** of the batched entry points answer from that vector
///   without further stepping. `0.0` disables detection. The projection
///   is tight when a single slow mode dominates; a hidden mode decaying
///   orders of magnitude slower than everything visible in the delta
///   history can still evade it, as with any detection that does not
///   eigen-analyze the chain. The dense kernel has no detection: its cost
///   does not grow with the horizon.
/// * `adaptive` — `true` (default) lets the grid solver pick a kernel
///   per solve by a cost model over the chain's state and transition
///   counts, its global uniformization rate and the time grid
///   ([`crate::transient::select_kernel`]): small chains with a large
///   `Λt` get the **dense** scaling-and-squaring kernel (`O(n³·log Λt)`,
///   independent of stiffness), everything else the **adaptive,
///   support-windowed** uniformization engine. The windowed engine stores
///   the transposed operator with raw rates over a BFS locality
///   reordering, re-chooses the uniformization rate `Λ` per grid segment
///   from the maximum exit rate of the distribution's current ε-support,
///   and gathers only the contiguous window of rows reachable from that
///   support in each DTMC step. `false` forces the exact global-Λ
///   full-sweep engine (every row, `Λ` from the global maximum exit rate)
///   — the reference both other kernels are tested against. See
///   [`crate::transient`] for the error budgets.
/// * `support_tol` — the adaptive engine's per-segment mass budget for
///   support truncation: within one grid segment, the probability mass
///   dropped across the four truncation channels (trailing-level
///   shrinking, up-front zeroing of dust on states hotter than `Λ_seg`,
///   frozen-frontier escape, exit-capped inflow — a quarter of the
///   budget each) is bounded by `support_tol`, so a `k`-segment grid
///   answers within `k · support_tol` (sup-norm) of the exact engine, on
///   top of the shared `~1e-15` Poisson truncation. `0.0` makes the
///   windowing lossless (the window expands whenever any mass could
///   escape, and `Λ_seg` covers every state carrying mass). Ignored by
///   the exact engine and the dense kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Unread; kept only for an external assignment (see type docs).
    pub threads: usize,
    /// Steady-state detection threshold; `0.0` disables (see type docs).
    pub steady_tol: f64,
    /// Kernel selection: dense or adaptive windowed by the cost model
    /// (default) vs the exact global-Λ full-sweep engine (see type docs).
    pub adaptive: bool,
    /// Per-segment support-truncation mass budget of the adaptive engine;
    /// `0.0` keeps the windowing lossless (see type docs).
    pub support_tol: f64,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            steady_tol: 1e-13,
            adaptive: true,
            support_tol: 1e-14,
        }
    }
}

impl TransientOptions {
    /// Returns a copy with the given steady-state detection threshold
    /// (`0.0` disables detection).
    pub fn with_steady_tol(mut self, steady_tol: f64) -> Self {
        self.steady_tol = steady_tol;
        self
    }

    /// Returns a copy selecting the cost-model choice between the dense
    /// and the adaptive windowed kernels (`true`, the default) or the
    /// exact global-Λ full-sweep engine (`false`).
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Returns a copy with the given per-segment support-truncation mass
    /// budget (`0.0` keeps the windowing lossless).
    pub fn with_support_tol(mut self, support_tol: f64) -> Self {
        self.support_tol = support_tol;
        self
    }
}

/// Configuration of the dense/iterative solver split and the iterative
/// termination criteria.
///
/// # Semantics
///
/// * `dense_limit` — chains with `num_states <= dense_limit` are solved
///   by dense direct methods: the steady state by subtraction-free GTH
///   state elimination (entrywise relative accuracy, robust for stiff
///   chains), mean times to absorption by Gaussian elimination with
///   partial pivoting. Larger chains use the sparse iterative path
///   (Gauss–Seidel, with a Krylov fallback when it stalls; see
///   [`crate::steady`]). The GTH elimination skips structural zeros, so
///   its time follows the fill pattern of the chain's own state order,
///   not `n³`: the paper's 2,100-state DDS takes 34 M multiply-adds. Its
///   `n × n` matrix is still allocated (35 MB at 2,100 states). The
///   default (3 000) is the historical built-in threshold, so existing
///   small-model results are bit-for-bit unchanged.
/// * `tol` — iterative convergence criterion. The sparse solvers do not
///   stop on the raw sweep-to-sweep change `Δ`, which under-reports the
///   remaining error when the chain contracts slowly: they estimate the
///   contraction `ρ` from consecutive sweeps and stop once the geometric
///   tail bound `Δ·ρ/(1−ρ) ≤ tol` certifies the remaining drift. For the
///   steady state `Δ` is the maximum relative change
///   `max_i |x'_i - x_i| / max(|x'_i|, 1e-300)`; for hitting times it is
///   the maximum absolute change, bounded by `tol · max_i |x_i|`.
/// * `max_sweeps` — hard cap on iterative sweeps (Krylov matvecs count as
///   sweeps). Neither a converged nor a capped iterate is trusted as is:
///   every steady-state iterate must pass an O(nnz) balance-residual
///   check, and one that fails is re-solved by GTH on chains of at most
///   2,048 states (larger chains keep the iterate). A hitting-time run
///   whose cap ends before the tail bound certifies it falls back to the
///   dense elimination, at any size.
/// * `transient` — configuration of the transient kernels (kernel
///   selection, steady-state detection, support truncation); see
///   [`TransientOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Largest chain solved densely (see type docs).
    pub dense_limit: usize,
    /// Tolerance of the certified geometric-tail stopping bound (see type
    /// docs).
    pub tol: f64,
    /// Iteration cap for the sparse solvers (see type docs).
    pub max_sweeps: usize,
    /// Transient kernel configuration (selection, detection, truncation).
    pub transient: TransientOptions,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            dense_limit: 3000,
            tol: 1e-14,
            max_sweeps: 200_000,
            transient: TransientOptions::default(),
        }
    }
}

impl SolverOptions {
    /// Returns a copy with the dense/iterative crossover set to `limit`
    /// (`0` forces the sparse path even for tiny chains — used by tests
    /// to compare both paths on the same model).
    pub fn with_dense_limit(mut self, limit: usize) -> Self {
        self.dense_limit = limit;
        self
    }

    /// Returns a copy with the given sweep cap.
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }
}
