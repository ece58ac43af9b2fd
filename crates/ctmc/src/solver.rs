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
/// the transient engine and the DTMC-based steady kernels.
pub(crate) const UNIF_HEADROOM: f64 = 1.02;

/// The iterative kernel used above [`SolverOptions::dense_limit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IterativeMethod {
    /// Gauss–Seidel sweeps over the balance equations (default). Updates
    /// propagate within a sweep, which converges far faster than power
    /// iteration on the stiff chains dependability models produce. When
    /// the sweep-to-sweep progress stalls far above the tolerance, the
    /// solver falls back to the Krylov kernel with the remaining sweep
    /// budget (see [`crate::steady`]).
    #[default]
    GaussSeidel,
    /// Power iteration on the uniformized DTMC (`P = I + Q/Λ`). Slower —
    /// its convergence rate is the subdominant eigenvalue of `P` — but
    /// useful as a cross-check because it only ever mixes distributions.
    Power,
    /// Restarted Arnoldi iteration on the uniformized DTMC: builds a small
    /// Krylov basis per restart and extracts the Ritz vector of the unit
    /// eigenvalue, followed by a short Gauss–Seidel polish for full
    /// relative accuracy on stiff chains. Converges where plain
    /// Gauss–Seidel stalls (nearly-decoupled or badly ordered chains).
    Krylov,
}

/// Configuration of the transient kernels: kernel selection, the sharded
/// uniformization engines and their steady-state detection (see
/// [`crate::transient`]).
///
/// # Semantics
///
/// * `threads` — worker threads for the DTMC matrix-vector step. `0`
///   means one worker per available core, `1` (the default) forces the
///   sequential path; requests above the machine's core count are
///   clamped (oversubscribed lockstep workers are strictly slower). The
///   sharded step computes every state's inflow with exactly the per-row
///   code the serial path runs, so results are **bitwise identical** for
///   every thread count and shard size; only the wall clock changes.
///   The dense kernel is serial and ignores it.
/// * `shard_min` — minimum number of states per shard. Chains with fewer
///   than `2 * shard_min` states run serially no matter the thread count
///   (fan-out overhead would dominate); larger chains get at most
///   `num_states / shard_min` shards, balanced by transition count.
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
    /// Worker threads for the sharded DTMC step (see type docs).
    pub threads: usize,
    /// Minimum states per shard (see type docs).
    pub shard_min: usize,
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
            shard_min: 4096,
            steady_tol: 1e-13,
            adaptive: true,
            support_tol: 1e-14,
        }
    }
}

impl TransientOptions {
    /// Returns a copy with the given worker thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with the given minimum shard size.
    pub fn with_shard_min(mut self, shard_min: usize) -> Self {
        self.shard_min = shard_min;
        self
    }

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
///   partial pivoting. Larger chains use the sparse iterative path. The default (3 000) is the historical built-in
///   threshold, so existing small-model results are bit-for-bit
///   unchanged.
/// * `tol` — iterative convergence criterion: the sweep-to-sweep
///   **maximum relative change** over all vector components,
///   `max_i |x'_i - x_i| / max(|x'_i|, 1e-300)`. Iteration stops at the
///   first sweep where this drops below `tol`.
/// * `max_sweeps` — hard cap on iterative sweeps. If the tolerance is not
///   reached the solver returns the current iterate (it does not error):
///   dependability pipelines prefer a slightly stale vector over an
///   abort, and callers can tighten/loosen the pair as needed.
/// * `method` — which iterative kernel runs above the dense limit.
/// * `transient` — configuration of the sharded uniformization engine
///   (worker threads, shard granularity, steady-state detection); see
///   [`TransientOptions`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOptions {
    /// Largest chain solved densely (see type docs).
    pub dense_limit: usize,
    /// Relative sweep-to-sweep convergence tolerance (see type docs).
    pub tol: f64,
    /// Iteration cap for the sparse solvers (see type docs).
    pub max_sweeps: usize,
    /// Iterative kernel choice.
    pub method: IterativeMethod,
    /// Uniformization engine configuration (threads, shards, detection).
    pub transient: TransientOptions,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            dense_limit: 3000,
            tol: 1e-14,
            max_sweeps: 200_000,
            method: IterativeMethod::GaussSeidel,
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

    /// Returns a copy with the given relative tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Returns a copy with the given sweep cap.
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Returns a copy using the given iterative kernel.
    pub fn with_method(mut self, method: IterativeMethod) -> Self {
        self.method = method;
        self
    }

    /// Returns a copy with the given uniformization engine configuration.
    pub fn with_transient(mut self, transient: TransientOptions) -> Self {
        self.transient = transient;
        self
    }
}
