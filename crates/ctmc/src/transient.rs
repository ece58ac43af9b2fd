//! Transient analysis: three kernels behind one grid solver.
//!
//! The distribution at time `t` is `π(t) = π(0)·e^{Qt}`. Uniformization
//! expands it as `π(t) = Σ_k Poisson(Λt)[k] · π(0) Pᵏ`, where
//! `P = I + Q/Λ` is the uniformized DTMC and `Λ ≥ max exit rate`. Poisson
//! weights come from [`crate::poisson::poisson_weights`], memoized per
//! `Λ·Δt` through a [`PoissonCache`] (uniform grids step by the same `Δt`
//! every segment).
//!
//! Every entry point — [`transient`] (one point, all defaults) and
//! [`transient_many_from_ctx`] (everything explicit) here, the
//! [`crate::csl`] integrators and, through them, `arcade`'s
//! `Session::evaluate` and `Session::sweep` — runs through one grid
//! solver, which picks the kernel for each solve with [`select_kernel`]:
//!
//! * [`TransientKernel::Exact`] — the exact global-Λ engine, whenever
//!   [`TransientOptions::adaptive`] is `false`. It is the reference the
//!   other two are tested against.
//! * [`TransientKernel::Dense`] — subtraction-free scaling and squaring
//!   of `P`, when the cost model says it is cheaper.
//! * [`TransientKernel::Windowed`] — the adaptive, support-windowed
//!   uniformization engine, for everything else.
//!
//! # Kernel selection
//!
//! The choice uses only the chain's states `n`, its transitions `nnz`,
//! the global uniformization rate `Λ` and the time grid. Uniformization
//! costs `O(Λ·t_max·(n + nnz))`: on a stiff chain, where one fast repair
//! sets `Λ`, a 16-state model can need millions of DTMC steps. Scaling and
//! squaring costs `(⌈log₂ ΛΔt⌉ + K)` dense `n × n` products for each
//! segment whose width `Δt` differs from the one before, independent of
//! stiffness. Dense is chosen when `n ≤ 512`, `Λ·t_max ≤ 2^1000` and
//! `c · Σ_Δt (⌈log₂ ΛΔt⌉ + K)·n³ < Λ·t_max·(n + nnz)` with `K = 20` (the
//! series length) and `c = 4` (the measured cost of a dense multiply-add
//! relative to one windowed gather unit, rounded up from 2.7). Small
//! stiff chains therefore go dense; large chains, small ones whose `Λt`
//! is modest, and horizons too long (or not finite) to square stay on the
//! windowed engine. A plain state-count threshold would not do: a
//! 150-state chain with `Λt ≈ 6,000` is far cheaper to uniformize.
//!
//! # The dense kernel
//!
//! For each segment the kernel forms `P` with the global `Λ`, picks `s`
//! with `ΛΔt/2^s ≤ 1`, sums the ≈ 20-term Poisson series of `P` at the
//! scaled horizon by Horner, squares `s` times and applies the result to
//! the distribution. It keeps the last exponential for the lifetime of
//! the solve, so uniform grids and chunked Simpson integrations compute
//! it once per run of equal widths. Each segment counts as one sweep with
//! no DTMC steps; its matrix products are counted by
//! [`SolveCounters::dense_products`].
//!
//! ## Error budget
//!
//! `P`, the Poisson weights and every product are entrywise nonnegative,
//! so no operation after forming `P` subtracts and no entry loses digits
//! to cancellation: each product adds a relative error of order `n·u` to
//! every entry, the tiny ones included, where the windowed engine's
//! absolute `support_tol` budget can swamp a `1e-8` probability. The
//! Poisson truncation is the one uniformization pays (relative cutoff
//! `1e-18`).
//!
//! Squaring has one failure mode: each product doubles any error in the
//! row sums, so after `s` squarings a rounding-level drift of `u` becomes
//! `2^s·u ≈ ΛΔt·u` — `1e-8` at `ΛΔt = 1e8`. Every row of `e^{QΔt}` sums to
//! exactly 1 for a conservative generator, so the kernel rescales each row
//! to sum 1 after every squaring, which keeps the drift at rounding level.
//! Absorbing states stay exact unit rows through the series, the
//! squarings and the rescaling, so first-passage curves stay monotone.
//! The unit tests hold the kernel to the exact engine within `1e-12`
//! (sup-norm) on random stiff chains, to the steady state within `1e-10`
//! at `ΛΔt ≈ 1e8`, and to a `5e-8` closed form within `1e-13` relative at
//! `ΛΔt ≈ 1e6`.
//!
//! # The adaptive windowed engine
//!
//! The windowed engine attacks the two costs the classical scheme pays on
//! dependability chains: a step count proportional to the **global**
//! maximum exit rate even when all probability mass sits on low-rate
//! states (stiff chains: repair rates dwarf failure rates), and a full
//! `n`-row traversal per step even when the mass occupies a handful of
//! states (early horizons).
//!
//! * **Locality reordering.** Once per solve the states are renumbered
//!   breadth-first from the initial support ([`Ctmc::bfs_order`]), and
//!   the transposed operator is stored with **raw** rates in that order
//!   (a `WindowedOp`). BFS levels make the set of rows reachable from
//!   any level prefix a contiguous, cache-resident row range. The
//!   permutation is applied at operator build and undone on output.
//! * **Support windowing.** The distribution's ε-support is tracked as a
//!   level frontier; each step gathers only the window `0..hi` of rows
//!   reachable from it. The frontier expands one level when the mass
//!   that could escape it in one step exceeds the per-step budget, and
//!   is otherwise frozen with the (bounded) escape mass accounted as
//!   truncation. Trailing levels whose total mass is below budget are
//!   zeroed between segments so the window can shrink again.
//! * **Per-segment Λ (adaptive uniformization).** Because rates are
//!   stored raw and `1/Λ` is folded into the gather as a scalar, `Λ` is
//!   switchable per grid segment with zero rebuild cost: each segment
//!   uniformizes at `Λ_seg = headroom · max exit over the ε-mass
//!   support` (the window states actually carrying more than a
//!   per-state share of the budget), which on stiff chains is orders of
//!   magnitude below the global rate — and the DTMC step count is
//!   proportional to `Λ_seg`. Window states hotter than `Λ_seg` (the
//!   uniformized step is undefined for them) are **exit-capped**: they
//!   carry only truncation-grade dust, and are zeroed after every step
//!   with the gross inflow charged against the budget. If real mass
//!   heads their way the budget trips and the segment restarts from its
//!   entry distribution with `Λ` doubled (capped at the global rate), so
//!   restarts are logarithmically bounded.
//!
//! ## Error budget
//!
//! The engine's deviation from the exact expansion is the sum of
//!
//! * the Poisson truncation of [`crate::poisson::poisson_weights`]
//!   (relative tail cutoff `1e-18`, total mass error well below `1e-15`),
//!   paid by both engines, and
//! * the support truncation: per grid segment, the mass dropped across
//!   the four truncation channels — trailing-level shrinking between
//!   segments, up-front zeroing of dust sitting on states hotter than
//!   `Λ_seg`, frozen-frontier escape, and the per-step inflow into
//!   exit-capped states — is bounded by
//!   [`TransientOptions::support_tol`], a quarter of the budget per
//!   channel. A grid visited in `k` segments therefore answers within
//!   `k · support_tol + O(1e-15)` (sup-norm) of the exact engine; the
//!   default `support_tol = 1e-14` keeps a 50-point grid at `≤ 5e-13` —
//!   comfortably inside the `1e-10` cross-engine gates. With
//!   `support_tol = 0` the windowing is lossless (the window expands
//!   whenever any mass could escape it, and `Λ_seg` covers every state
//!   carrying mass).
//!
//! # The exact global-Λ engine (`adaptive: false`)
//!
//! The reference engine: the hot kernel is the DTMC matrix-vector product
//! `π ← π P`, computed as a **gather** over the transposed CSR adjacency:
//! state `i`'s next mass is `π[i]·stay[i] + Σ_{j→i} π[j]·q_{ji}/Λ`, one
//! contiguous slice per state with the transition probabilities prescaled
//! once per solve, over **all** rows at the **global** uniformization
//! rate. Configure via [`TransientOptions`] (reachable from
//! [`crate::SolverOptions::transient`]).
//!
//! # Long segments
//!
//! A uniformization sweep over a segment of width `Δt` first expands
//! about `18·√(ΛΔt)` Poisson weights. So that a huge horizon cannot
//! allocate gigabytes before the first budget checkpoint, the exact and
//! windowed engines advance a segment whose **global** `Λ·Δt` exceeds
//! `2^24` (about 74 k weights) as `⌈ΛΔt / 2^24⌉` equal sub-segments, with
//! a budget checkpoint before each and none after the trajectory has
//! converged; each sub-segment counts as one segment of the windowed
//! engine's error budget. Shorter segments are advanced in one piece. A
//! grid whose global `Λ·t` exceeds `2^53` is rejected up front, the bound
//! [`crate::poisson::poisson_weights`] enforces. The dense kernel's cost
//! grows with `log₂ ΛΔt`, so it never splits.
//!
//! # Steady-state detection
//!
//! When the projected total remaining drift of the uniformized chain —
//! the sup-norm step delta `‖πP − π‖∞` divided by the spectral headroom
//! `1 − ρ̂` estimated from the recent delta history (see
//! `SteadyDetector`) — falls below [`TransientOptions::steady_tol`], the
//! chain has converged: the remaining Poisson tail mass is assigned to
//! the converged vector and the sweep stops early. The batched entry
//! points additionally answer **all later grid points** from that
//! vector, so long-horizon grids cost only as many DTMC steps as the
//! chain's mixing time. Detection is disabled with `steady_tol = 0.0`.
//!
//! # Batching
//!
//! Curve-shaped workloads should pass the whole grid to
//! [`transient_many_from_ctx`]: it evaluates a time grid in **one**
//! incremental uniformization sweep (the chain is stepped from each grid
//! point to the next by the Markov property) instead of one independent
//! sweep per point, turning the `O(Λ·Σtᵢ)` cost of the scalar loop into
//! `O(Λ·max tᵢ)` — and less than that once steady-state detection kicks
//! in. The context's [`SolveCounters`] count the DTMC steps and sweeps,
//! which is how the batching and detection wins are measured.

use crate::chain::Ctmc;
use crate::context::{MeasureContext, SolveCounters};
use crate::expm::{dense_pays, DenseExp};
use crate::poisson::{PoissonCache, PoissonWeights, MAX_LAMBDA};
use crate::solver::{TransientOptions, UNIF_HEADROOM};

/// The largest global `Λ·Δt` the exact and windowed engines advance in
/// one sweep: `2^24`, whose Poisson window is about 74 k weights (0.6 MB).
/// Longer segments are split (see the module docs).
const MAX_SEGMENT_LAMBDA_T: f64 = 16_777_216.0;

/// The kernels a transient grid solve can run on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransientKernel {
    /// The exact global-Λ uniformization engine (`adaptive: false`).
    Exact,
    /// The adaptive, support-windowed uniformization engine.
    Windowed,
    /// Subtraction-free scaling and squaring of the uniformized matrix.
    Dense,
}

impl TransientKernel {
    /// Stable machine-readable name (used in fuzz evidence and BENCH
    /// records).
    pub fn name(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Windowed => "windowed",
            Self::Dense => "dense",
        }
    }
}

/// The kernel every transient entry point runs a solve of `ctmc` over the
/// grid `ts` on: [`TransientKernel::Exact`] when `opts.adaptive` is off,
/// otherwise [`TransientKernel::Dense`] or [`TransientKernel::Windowed`]
/// by the cost model of the module docs. A pure function of the chain's
/// state and transition counts, its global uniformization rate and the
/// grid (measured from time 0, as one solve visits it).
pub fn select_kernel(ctmc: &Ctmc, ts: &[f64], opts: &TransientOptions) -> TransientKernel {
    if !opts.adaptive {
        return TransientKernel::Exact;
    }
    let unif = ctmc.max_exit_rate() * UNIF_HEADROOM;
    if dense_pays(ctmc.num_states(), ctmc.num_transitions(), unif, ts) {
        TransientKernel::Dense
    } else {
        TransientKernel::Windowed
    }
}

/// Computes the state distribution at time `t` starting from the chain's
/// initial state, with default [`TransientOptions`] and a fresh
/// [`MeasureContext`].
///
/// # Panics
///
/// Panics if `t` is negative or not finite, or if it is too long to
/// uniformize (see the module docs).
pub fn transient(ctmc: &Ctmc, t: f64) -> Vec<f64> {
    transient_many_from_ctx(
        ctmc,
        &ctmc.initial_distribution(),
        &[t],
        &TransientOptions::default(),
        &MeasureContext::new(),
    )
    .pop()
    .expect("one grid point")
}

/// Computes the state distributions at every time in `ts` (any order,
/// duplicates allowed) from an arbitrary initial distribution `pi0` in
/// one incremental sweep: the grid is visited in ascending order and the
/// chain is advanced from each grid point to the next (exact by the
/// Markov property), so the total work is proportional to `Λ·max(ts)`
/// plus a per-point truncation overhead, instead of the scalar loop's
/// `Λ·Σts` — or less, once steady-state detection answers the tail of the
/// grid from the converged vector.
///
/// Returns one distribution per entry of `ts`, in the order given. The
/// context's Poisson memo answers the weight lookups, so repeated solves
/// over the same grid (several measures of one batched query, repeated
/// sessions) expand each distinct `Λ·Δt` weight vector once, and the
/// context's [`SolveCounters`] record the sweeps, DTMC steps and dense
/// products this solve performs.
///
/// # Panics
///
/// Panics if any time is negative or not finite, if `pi0` has the wrong
/// length, or if the grid is too long to uniformize (see the module
/// docs).
pub fn transient_many_from_ctx(
    ctmc: &Ctmc,
    pi0: &[f64],
    ts: &[f64],
    opts: &TransientOptions,
    ctx: &MeasureContext,
) -> Vec<Vec<f64>> {
    GridSolver::new(ctmc, opts, &ctx.poisson, &ctx.counters).solve_from(pi0, ts)
}

/// A reusable grid driver over one chain: validates inputs, visits each
/// grid in ascending order, and advances the chain segment by segment
/// through a lazily built (and then reused) engine. Crate-internal so
/// long chunked integrations (`csl::interval_down_fraction_ctx`) can
/// amortize the stepping engine across chunks instead of rebuilding the
/// prescaled transposed CSR per call.
///
/// Successive [`GridSolver::solve_from`] calls are treated as **one
/// trajectory** continued piecewise (each call's `pi0` is the previous
/// call's last result): once a segment reports steady-state convergence,
/// all later grid points — in this call *and* in later calls — are
/// answered from the converged vector.
pub(crate) struct GridSolver<'a> {
    ctmc: &'a Ctmc,
    opts: &'a TransientOptions,
    cache: &'a PoissonCache,
    counters: &'a SolveCounters,
    stepper: Option<Stepper>,
    adaptive: Option<AdaptiveEngine>,
    dense: Option<DenseExp>,
    max_exit: f64,
    unif: f64,
    converged: bool,
}

impl<'a> GridSolver<'a> {
    pub(crate) fn new(
        ctmc: &'a Ctmc,
        opts: &'a TransientOptions,
        cache: &'a PoissonCache,
        counters: &'a SolveCounters,
    ) -> Self {
        let max_exit = ctmc.max_exit_rate();
        Self {
            ctmc,
            opts,
            cache,
            counters,
            stepper: None,
            adaptive: None,
            dense: None,
            max_exit,
            unif: max_exit * UNIF_HEADROOM,
            converged: false,
        }
    }

    pub(crate) fn solve_from(&mut self, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
        let kernel = select_kernel(self.ctmc, ts, self.opts);
        self.solve_on(kernel, pi0, ts)
    }

    /// [`GridSolver::solve_from`] on a given kernel instead of the cost
    /// model's choice; unit tests pin the engine they test with it.
    fn solve_on(&mut self, kernel: TransientKernel, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(
            pi0.len(),
            self.ctmc.num_states(),
            "distribution length mismatch"
        );
        for &t in ts {
            assert!(
                t.is_finite() && t >= 0.0,
                "time must be non-negative, got {t}"
            );
        }
        if self.max_exit > 0.0 {
            if kernel == TransientKernel::Dense {
                return self.solve_from_dense(pi0, ts);
            }
            let lambda_t = self.unif * ts.iter().copied().fold(0.0, f64::max);
            assert!(
                lambda_t <= MAX_LAMBDA,
                "uniformization rate times time must be at most 2^53, got {lambda_t:e}"
            );
            if kernel == TransientKernel::Windowed {
                return self.solve_from_adaptive(pi0, ts);
            }
        }
        let mut order: Vec<usize> = (0..ts.len()).collect();
        order.sort_by(|&a, &b| ts[a].total_cmp(&ts[b]));

        let mut results: Vec<Vec<f64>> = vec![Vec::new(); ts.len()];
        let mut cur = pi0.to_vec();
        let mut cur_t = 0.0f64;
        for &i in &order {
            let dt = ts[i] - cur_t;
            if dt > 0.0 && self.max_exit > 0.0 && !self.converged {
                let (ctmc, unif) = (self.ctmc, self.unif);
                for width in segment_widths(unif, dt) {
                    if self.converged {
                        break;
                    }
                    ioimc::budget::checkpoint();
                    let st = self.stepper.get_or_insert_with(|| Stepper::new(ctmc, unif));
                    let pw = self.cache.get(unif * width);
                    self.counters.count_sweep();
                    let (res, conv) = st.sweep(&cur, &pw, self.opts.steady_tol, self.counters);
                    cur = res;
                    self.converged = conv;
                }
                cur_t = ts[i];
            }
            results[i] = cur.clone();
        }
        results
    }

    /// The adaptive-engine grid loop: the working distribution lives in
    /// the engine's permuted space across segments (and across
    /// [`GridSolver::solve_from`] calls); each grid point un-permutes a
    /// snapshot into original state order.
    fn solve_from_adaptive(&mut self, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
        let mut order: Vec<usize> = (0..ts.len()).collect();
        order.sort_by(|&a, &b| ts[a].total_cmp(&ts[b]));
        let rebuild = match &mut self.adaptive {
            // `load` adopts `pi0` unless it carries mass the stored
            // ordering considers unreachable (possible only when a caller
            // continues one solver with an unrelated distribution).
            Some(e) => !e.load(pi0),
            None => true,
        };
        if rebuild {
            self.adaptive = Some(AdaptiveEngine::new(self.ctmc, pi0));
        }
        let engine = self.adaptive.as_mut().expect("just ensured");
        let mut results: Vec<Vec<f64>> = vec![Vec::new(); ts.len()];
        let mut cur_t = 0.0f64;
        for &i in &order {
            let dt = ts[i] - cur_t;
            if dt > 0.0 && !self.converged {
                for width in segment_widths(self.unif, dt) {
                    if self.converged {
                        break;
                    }
                    ioimc::budget::checkpoint();
                    self.converged = engine.advance(width, self.cache, self.opts, self.counters);
                }
                cur_t = ts[i];
            }
            results[i] = engine.output();
        }
        results
    }

    /// The dense-kernel grid loop: each segment applies the exponential
    /// of its width (reused while the width repeats) to the running
    /// distribution and counts as one sweep. A trajectory an earlier call
    /// left converged keeps answering from its converged vector.
    fn solve_from_dense(&mut self, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
        let mut order: Vec<usize> = (0..ts.len()).collect();
        order.sort_by(|&a, &b| ts[a].total_cmp(&ts[b]));
        let (ctmc, unif) = (self.ctmc, self.unif);
        let dense = self.dense.get_or_insert_with(|| DenseExp::new(ctmc, unif));
        let mut results: Vec<Vec<f64>> = vec![Vec::new(); ts.len()];
        let mut cur = pi0.to_vec();
        let mut cur_t = 0.0f64;
        for &i in &order {
            let dt = ts[i] - cur_t;
            if dt > 0.0 && !self.converged {
                ioimc::budget::checkpoint();
                self.counters.count_sweep();
                cur = dense.advance(&cur, dt, self.cache, self.counters);
                cur_t = ts[i];
            }
            results[i] = cur.clone();
        }
        results
    }
}

/// The widths a uniformization engine advances a segment of width `dt`
/// in at global rate `unif`: `dt` itself when `unif·dt` is at most
/// [`MAX_SEGMENT_LAMBDA_T`], otherwise `⌈unif·dt / MAX_SEGMENT_LAMBDA_T⌉`
/// equal parts.
fn segment_widths(unif: f64, dt: f64) -> impl Iterator<Item = f64> {
    let pieces = (unif * dt / MAX_SEGMENT_LAMBDA_T).ceil().max(1.0);
    let width = if pieces > 1.0 { dt / pieces } else { dt };
    std::iter::repeat_n(width, pieces as usize)
}

/// The steady-state detector fed one sup-norm step delta per DTMC step.
///
/// A small step delta alone does **not** mean the iterates are near the
/// invariant vector: a slow mode with per-step contraction `ρ` close to 1
/// still has `‖π_k − π_∞‖ ≈ δ_k / (1 − ρ)` left to travel, which can be
/// orders of magnitude above `δ_k` on nearly-decoupled chains (rare
/// failure rates next to fast repair rates — exactly the dependability
/// regime). The detector therefore estimates the contraction from the
/// recent delta history (`ρ̂` = the largest of the last 8 step-to-step
/// ratios) and fires only when the **projected total remaining drift**
/// `δ / (1 − ρ̂)` is within tolerance. When one mode dominates, the
/// projection is tight; a fast-decaying transient cannot fake it because
/// the ratio window has to see eight consecutive small ratios first.
struct SteadyDetector {
    tol: f64,
    /// Last step-to-step delta ratios, clamped to `[0, 1]`; seeded with
    /// the conservative 1.0 so no verdict fires before a full window.
    ratios: [f64; 8],
    idx: usize,
    prev_delta: f64,
}

impl SteadyDetector {
    fn new(tol: f64) -> Self {
        Self {
            tol,
            ratios: [1.0; 8],
            idx: 0,
            prev_delta: f64::INFINITY,
        }
    }

    /// Feeds the sup-norm delta of one step; returns whether the chain
    /// is steady to within the tolerance.
    fn feed(&mut self, delta: f64) -> bool {
        if self.tol <= 0.0 {
            return false;
        }
        if delta == 0.0 {
            return true; // the iterate is exactly invariant
        }
        let ratio = if self.prev_delta.is_finite() && self.prev_delta > 0.0 {
            (delta / self.prev_delta).min(1.0)
        } else {
            1.0
        };
        self.ratios[self.idx] = ratio;
        self.idx = (self.idx + 1) % self.ratios.len();
        self.prev_delta = delta;
        let rho = self.ratios.iter().fold(0.0f64, |a, &b| a.max(b));
        rho < 1.0 && delta <= self.tol * (1.0 - rho)
    }
}

/// The uniformization stepping engine for one chain and one `Λ`: the
/// prescaled transposed adjacency (`p = rate/Λ` per incoming transition)
/// and the per-state self-loop probabilities.
struct Stepper {
    n: usize,
    /// Self-loop probability `1 - exit/Λ` per state.
    stay: Vec<f64>,
    /// Transposed CSR offsets (`n + 1` entries).
    inc_off: Vec<u32>,
    /// Prescaled incoming transition probabilities, row-major.
    inc_p: Vec<f64>,
    /// Incoming transition sources, parallel to `inc_p`.
    inc_src: Vec<u32>,
}

impl Stepper {
    fn new(ctmc: &Ctmc, unif: f64) -> Self {
        // The solver-shard boundary: chaos faults injected here (the
        // `session.shard` failpoint, via the ambient hook) unwind or
        // stall before the operator is built.
        ioimc::failpoint::hit("session.shard");
        let (stay, inc_off, inc_p, inc_src) = prescaled_transpose(ctmc, unif);
        Self {
            n: ctmc.num_states(),
            stay,
            inc_off,
            inc_p,
            inc_src,
        }
    }

    /// One state's next mass: `π[i]·stay[i] + Σ p·π[src]` over the
    /// state's contiguous incoming slice.
    #[inline]
    fn row_value(&self, cur: &[f64], i: usize) -> f64 {
        let lo = self.inc_off[i] as usize;
        let hi = self.inc_off[i + 1] as usize;
        let mut acc = cur[i] * self.stay[i];
        for (&p, &j) in self.inc_p[lo..hi].iter().zip(&self.inc_src[lo..hi]) {
            acc += p * cur[j as usize];
        }
        acc
    }

    /// One uniformization sweep: `π(Δt)` from `pi0` with the given
    /// Poisson weights; returns the result and whether the **result** is
    /// steady: detection fired (`tol > 0` and the step delta dropped
    /// below it) *and* the Poisson mixture it produced is itself within
    /// `tol` of the invariant iterate. The second condition is what lets
    /// the grid driver answer later points from the result — the DTMC
    /// iterates converging mid-sweep is not enough, because early
    /// (pre-convergence) iterates still carry Poisson weight in the
    /// mixture.
    fn sweep(
        &self,
        pi0: &[f64],
        pw: &PoissonWeights,
        tol: f64,
        counters: &SolveCounters,
    ) -> (Vec<f64>, bool) {
        let n = self.n;
        let total = pw.total_steps();
        // Double-buffered stepping: `cur` and `nxt` swap roles each step,
        // so the whole sweep costs two distribution buffers total.
        let mut cur = pi0.to_vec();
        let mut nxt = vec![0.0f64; n];
        let mut result = vec![0.0f64; n];
        let mut cum = 0.0f64;
        let mut detector = SteadyDetector::new(tol);
        // Steps 0..left-1 only advance the power; steps left.. accumulate.
        for step in 0..total {
            if step >= pw.left {
                let w = pw.weights[step - pw.left];
                for i in 0..n {
                    result[i] += w * cur[i];
                }
                cum += w;
            }
            if step + 1 == total {
                break;
            }
            // Gate the poll so long sweeps pay ~nothing.
            if step & 0x3FF == 0 {
                ioimc::budget::checkpoint();
            }
            counters.count_step();
            let mut delta = 0.0f64;
            for i in 0..n {
                let v = self.row_value(&cur, i);
                delta = delta.max((v - cur[i]).abs());
                nxt[i] = v;
            }
            std::mem::swap(&mut cur, &mut nxt);
            if detector.feed(delta) {
                // Converged: the remaining Poisson tail all sits on the
                // (now invariant) current vector.
                let tail = 1.0 - cum;
                let mut res_diff = 0.0f64;
                for i in 0..n {
                    result[i] += tail * cur[i];
                    res_diff = res_diff.max((result[i] - cur[i]).abs());
                }
                return (result, res_diff <= tol);
            }
        }
        (result, false)
    }
}

/// Geometric Λ escalation factor applied when a segment restart is
/// forced by mass reaching an exit-capped state faster than the budget
/// allows: doubling bounds the restarts per segment to
/// `log₂(Λ_global / Λ_initial)`.
const LAMBDA_ESCALATION: f64 = 2.0;

/// The chain's generator in the adaptive engine's working form: the
/// transposed CSR adjacency with **raw** rates (so `1/Λ` folds into the
/// gather as a per-segment scalar), permuted into the BFS locality order
/// of [`Ctmc::bfs_order`] so the ε-support's reachable row window is a
/// contiguous prefix. Built once per solve.
struct WindowedOp {
    n: usize,
    /// Row → original state id (BFS order, unreachable states last).
    perm: Vec<u32>,
    /// Original state id → row.
    inv: Vec<u32>,
    /// Exit rates in row order.
    exit: Vec<f64>,
    /// Transposed CSR offsets (`n + 1` entries).
    inc_off: Vec<u32>,
    /// Raw incoming transition rates, row-major.
    inc_rate: Vec<f64>,
    /// Incoming transition source rows, parallel to `inc_rate` and
    /// ascending within each row (so a window gather can stop at the
    /// first out-of-window source).
    inc_src: Vec<u32>,
    /// BFS level boundaries in rows (`levels + 1` entries).
    level_off: Vec<u32>,
    /// BFS level per row (reachable rows only; unreachable rows hold
    /// `levels`).
    level_of: Vec<u32>,
    /// Rows `reachable..` can never carry mass flowing out of the roots.
    reachable: usize,
    /// Per row: total outgoing rate into the **next** BFS level — the
    /// only edges that can carry mass out of a level-prefix window, so
    /// `Σ π[j]·fwd_rate[j]/Λ` over the frontier level bounds the
    /// one-step escape mass.
    fwd_rate: Vec<f64>,
    /// `headroom · global max exit` — the Λ escalation cap; at this rate
    /// every window state has a nonnegative self-loop probability and no
    /// restart can ever be needed.
    global_unif: f64,
}

impl WindowedOp {
    fn new(ctmc: &Ctmc, roots: impl IntoIterator<Item = u32>) -> Self {
        let n = ctmc.num_states();
        let order = ctmc.bfs_order(roots);
        let inv = order.inverse();
        let levels = order.num_levels();
        let exit: Vec<f64> = order.perm.iter().map(|&s| ctmc.exit_rate(s)).collect();
        let mut level_of = vec![levels as u32; n];
        for l in 0..levels {
            for row in &mut level_of[order.level_off[l] as usize..order.level_off[l + 1] as usize] {
                *row = l as u32;
            }
        }
        // Forward (next-level) rate per row, from the outgoing adjacency.
        let mut fwd_rate = vec![0.0f64; n];
        for (row, &s) in order.perm.iter().enumerate().take(order.reachable) {
            let boundary = order.level_off[level_of[row] as usize + 1];
            fwd_rate[row] = ctmc
                .row(s)
                .iter()
                .filter(|&&(_, t)| inv[t as usize] >= boundary)
                .map(|&(r, _)| r)
                .sum();
        }
        // Transposed CSR in row space. Scattering sources in ascending
        // row order leaves every row's source list sorted.
        let m = ctmc.num_transitions();
        let mut counts = vec![0u32; n + 1];
        for s in 0..n as u32 {
            for &(_, t) in ctmc.row(s) {
                counts[inv[t as usize] as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let inc_off = counts.clone();
        let mut cursor = counts;
        let mut inc_rate = vec![0.0f64; m];
        let mut inc_src = vec![0u32; m];
        for (row, &s) in order.perm.iter().enumerate() {
            for &(r, t) in ctmc.row(s) {
                let dst = inv[t as usize] as usize;
                let slot = cursor[dst] as usize;
                inc_rate[slot] = r;
                inc_src[slot] = row as u32;
                cursor[dst] += 1;
            }
        }
        Self {
            n,
            perm: order.perm,
            inv,
            exit,
            inc_off,
            inc_rate,
            inc_src,
            level_off: order.level_off,
            level_of,
            reachable: order.reachable,
            fwd_rate,
            global_unif: ctmc.max_exit_rate() * UNIF_HEADROOM,
        }
    }

    /// One window row's next mass under uniformization rate `1/inv_l`:
    /// `π[i] + (Σ q_{ji}·π[j] − exit_i·π[i]) / Λ`, gathering only sources
    /// inside the window (rows `>= hi` hold exactly zero).
    #[inline]
    fn row_value(&self, cur: &[f64], i: usize, inv_l: f64, hi: usize) -> f64 {
        let lo = self.inc_off[i] as usize;
        let up = self.inc_off[i + 1] as usize;
        let mut acc = 0.0f64;
        for (&r, &j) in self.inc_rate[lo..up].iter().zip(&self.inc_src[lo..up]) {
            if j as usize >= hi {
                break;
            }
            acc += r * cur[j as usize];
        }
        cur[i] + inv_l * (acc - self.exit[i] * cur[i])
    }
}

/// Per-segment control state of a windowed sweep.
struct SegmentCtrl {
    /// Current frontier level (window = rows `0..level_off[lvl + 1]`).
    lvl: usize,
    /// Exit-capped rows: inside the gather window but with
    /// `exit > Λ_seg`, so the uniformized step is not defined for them —
    /// they are zeroed after every step with the (gross) inflow charged
    /// against the truncation budget. They carry only ε-support dust by
    /// construction of `Λ_seg`; if real mass heads their way the budget
    /// trips and the segment restarts with an escalated Λ.
    capped: Vec<u32>,
    /// Poisson weight mass accumulated into the result so far.
    cum: f64,
    /// Truncated mass (frozen-frontier escape bound + capped inflow).
    leaked: f64,
    detector: SteadyDetector,
}

impl SegmentCtrl {
    /// Pre-step frontier decision: expand the window one level when the
    /// mass that could escape it this step exceeds the budget (newly
    /// admitted rows with `exit > Λ` join the capped set), otherwise
    /// freeze and account the escape bound. Returns the window end.
    fn expand(&mut self, op: &WindowedOp, cur: &[f64], lambda: f64, budget: f64) -> usize {
        let inv_l = 1.0 / lambda;
        let mut hi = op.level_off[self.lvl + 1] as usize;
        if hi < op.reachable {
            let frontier = op.level_off[self.lvl] as usize..hi;
            let escape: f64 = cur[frontier.clone()]
                .iter()
                .zip(&op.fwd_rate[frontier])
                .map(|(&p, &f)| p * f)
                .sum::<f64>()
                * inv_l;
            if escape > budget {
                self.lvl += 1;
                let new_hi = op.level_off[self.lvl + 1] as usize;
                for row in hi..new_hi {
                    if op.exit[row] > lambda {
                        self.capped.push(row as u32);
                    }
                }
                hi = new_hi;
            } else {
                self.leaked += escape;
            }
        }
        hi
    }

    /// Post-step settlement of the capped rows: zero them and charge the
    /// gross inflow against the budget. Returns `true` when the inflow
    /// breaches it — the segment must restart with a larger Λ.
    fn settle_capped(&mut self, nxt: &mut [f64], budget: f64) -> bool {
        if self.capped.is_empty() {
            return false;
        }
        let mut inflow = 0.0f64;
        for &c in &self.capped {
            inflow += nxt[c as usize];
            nxt[c as usize] = 0.0;
        }
        self.leaked += inflow;
        inflow > budget
    }
}

/// The adaptive windowed uniformization engine: the locality-reordered
/// operator plus the working distribution in permuted row space,
/// persistent across grid segments (and across `GridSolver::solve_from`
/// calls) so the operator is built once per solve.
struct AdaptiveEngine {
    op: WindowedOp,
    /// Working distribution in row space; rows `>= window end` hold
    /// exactly zero.
    cur: Vec<f64>,
    /// Frontier level: all mass sits in levels `0..=lvl`.
    lvl: usize,
    /// Cumulative support-truncation mass (diagnostics).
    leaked: f64,
}

impl AdaptiveEngine {
    fn new(ctmc: &Ctmc, pi0: &[f64]) -> Self {
        // The windowed twin of the `Stepper::new` solver-shard boundary:
        // the `session.shard` failpoint fires here, before the operator
        // is built.
        ioimc::failpoint::hit("session.shard");
        let roots = (0..pi0.len() as u32).filter(|&s| pi0[s as usize] != 0.0);
        let mut engine = Self {
            op: WindowedOp::new(ctmc, roots),
            cur: Vec::new(),
            lvl: 0,
            leaked: 0.0,
        };
        let adopted = engine.load(pi0);
        assert!(adopted, "roots cover the support by construction");
        engine
    }

    /// Adopts `pi0` as the working distribution. Returns `false` (engine
    /// must be rebuilt) if `pi0` carries mass on states unreachable from
    /// the ordering's roots.
    fn load(&mut self, pi0: &[f64]) -> bool {
        let op = &self.op;
        self.cur.clear();
        self.cur.resize(op.n, 0.0);
        let mut last = 0usize;
        for (s, &p) in pi0.iter().enumerate() {
            if p != 0.0 {
                let row = op.inv[s] as usize;
                if row >= op.reachable {
                    return false;
                }
                self.cur[row] = p;
                last = last.max(row);
            }
        }
        self.lvl = op.level_of[last] as usize;
        true
    }

    /// The working distribution in original state order.
    fn output(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.op.n];
        for (row, &s) in self.op.perm.iter().enumerate() {
            out[s as usize] = self.cur[row];
        }
        out
    }

    /// Advances the working distribution by `dt`: shrinks the trailing
    /// support within budget, picks `Λ_seg` from the ε-mass support's
    /// maximum exit rate (exit-capping the window's dust states above
    /// it), and runs windowed sweeps — restarting with an escalated Λ
    /// when capped inflow breaches the budget. Returns whether the
    /// distribution is steady (all later grid points can answer from it).
    fn advance(
        &mut self,
        dt: f64,
        cache: &PoissonCache,
        opts: &TransientOptions,
        counters: &SolveCounters,
    ) -> bool {
        let op = &self.op;
        // Trailing-support shrink: zero whole top levels while their
        // total mass fits in a quarter of the per-segment budget, so
        // long-frozen dust cannot pin the window (and Λ) forever.
        if opts.support_tol > 0.0 {
            let budget = opts.support_tol * 0.25;
            let mut zeroed = 0.0f64;
            while self.lvl > 0 {
                let rows = op.level_off[self.lvl] as usize..op.level_off[self.lvl + 1] as usize;
                let mass: f64 = self.cur[rows.clone()].iter().sum();
                if zeroed + mass > budget {
                    break;
                }
                self.cur[rows].fill(0.0);
                zeroed += mass;
                self.lvl -= 1;
            }
            self.leaked += zeroed;
        }
        let hi = op.level_off[self.lvl + 1] as usize;
        // Zero-rate segment: all mass on absorbing states — the
        // distribution is exactly invariant, now and forever.
        let active: f64 = self.cur[..hi]
            .iter()
            .zip(&op.exit[..hi])
            .map(|(&p, &e)| p * e)
            .sum();
        if active == 0.0 {
            return true;
        }
        // Λ_seg from the ε-mass support: the maximum exit rate over
        // window states carrying more than a per-state share of the
        // budget. Dust on hotter states is zeroed up front (within the
        // same quarter-budget) and the states join the capped set.
        let theta = opts.support_tol * 0.25 / op.n as f64;
        let support_max = self.cur[..hi]
            .iter()
            .zip(&op.exit[..hi])
            .filter(|&(&p, _)| p > theta)
            .map(|(_, &e)| e)
            .fold(0.0f64, f64::max);
        let mut lambda = if support_max > 0.0 {
            (support_max * UNIF_HEADROOM).min(op.global_unif)
        } else {
            op.global_unif
        };
        if opts.support_tol > 0.0 {
            let mut zeroed = 0.0f64;
            for (row, p) in self.cur[..hi].iter_mut().enumerate() {
                if *p != 0.0 && op.exit[row] > lambda {
                    zeroed += *p;
                    *p = 0.0;
                }
            }
            self.leaked += zeroed;
        }
        let global_unif = op.global_unif;
        let snapshot = self.cur.clone();
        // One sweep per segment; Λ restarts are internal retries of the
        // same sweep, not additional solver work units.
        counters.count_sweep();
        loop {
            // Poll the budget before each sweep, Λ-escalation retries
            // included.
            ioimc::budget::checkpoint();
            let pw = cache.get(lambda * dt);
            match self.sweep(lambda, &pw, opts, counters) {
                Ok(steady) => return steady,
                Err(()) => {
                    lambda = (lambda * LAMBDA_ESCALATION).min(global_unif);
                    self.cur.copy_from_slice(&snapshot);
                }
            }
        }
    }

    /// Initial control state for a sweep at `lambda`: current frontier
    /// level plus the capped set (window rows hotter than Λ).
    fn segment_ctrl(&self, lambda: f64, opts: &TransientOptions) -> SegmentCtrl {
        let hi = self.op.level_off[self.lvl + 1] as usize;
        let capped: Vec<u32> = (0..hi as u32)
            .filter(|&row| self.op.exit[row as usize] > lambda)
            .collect();
        SegmentCtrl {
            lvl: self.lvl,
            capped,
            cum: 0.0,
            leaked: 0.0,
            detector: SteadyDetector::new(opts.steady_tol),
        }
    }

    /// One windowed uniformization sweep at rate `lambda`, double-buffered:
    /// on success the working distribution becomes the Poisson mixture
    /// and the frontier level is updated; `Err(())` means capped inflow
    /// breached the budget (caller restores the entry distribution and
    /// restarts with a larger Λ).
    fn sweep(
        &mut self,
        lambda: f64,
        pw: &PoissonWeights,
        opts: &TransientOptions,
        counters: &SolveCounters,
    ) -> SweepOutcome {
        // Quarter of the budget for each in-sweep truncation channel
        // (frozen-frontier escape, capped inflow), spread over the steps.
        let total = pw.total_steps();
        let step_budget = if opts.support_tol > 0.0 {
            opts.support_tol * 0.25 / total as f64
        } else {
            0.0
        };
        let mut st = self.segment_ctrl(lambda, opts);
        let op = &self.op;
        let n = op.n;
        let inv_l = 1.0 / lambda;
        let mut cur = std::mem::take(&mut self.cur);
        let mut nxt = vec![0.0f64; n];
        let mut result = vec![0.0f64; n];
        let mut hi = op.level_off[st.lvl + 1] as usize;
        let mut steady = false;
        for step in 0..total {
            if step >= pw.left {
                let wt = pw.weights[step - pw.left];
                for (r, &c) in result[..hi].iter_mut().zip(&cur[..hi]) {
                    *r += wt * c;
                }
                st.cum += wt;
            }
            if step + 1 == total {
                break;
            }
            if step & 0x3FF == 0 {
                ioimc::budget::checkpoint();
            }
            hi = st.expand(op, &cur, lambda, step_budget);
            counters.count_step();
            let mut delta = 0.0f64;
            for i in 0..hi {
                let v = op.row_value(&cur, i, inv_l, hi);
                delta = delta.max((v - cur[i]).abs());
                nxt[i] = v;
            }
            if st.settle_capped(&mut nxt, step_budget) {
                self.cur = cur;
                return Err(());
            }
            std::mem::swap(&mut cur, &mut nxt);
            if st.detector.feed(delta) {
                // Converged: the remaining Poisson tail all sits on the
                // (now invariant) current vector.
                let tail = 1.0 - st.cum;
                let mut res_diff = 0.0f64;
                for (r, &c) in result[..hi].iter_mut().zip(&cur[..hi]) {
                    *r += tail * c;
                    res_diff = res_diff.max((*r - c).abs());
                }
                steady = res_diff <= opts.steady_tol;
                break;
            }
        }
        self.cur = result;
        self.lvl = st.lvl;
        self.leaked += st.leaked;
        Ok(steady)
    }
}

/// `Ok(steady)` on a completed sweep, `Err(())` when Λ must be escalated
/// and the segment restarted.
type SweepOutcome = Result<bool, ()>;

/// The uniformized DTMC `P = I + Q/Λ` in gather-friendly form: per-state
/// self-loop probabilities (`stay = 1 − exit/Λ`) plus the transposed CSR
/// adjacency with transition probabilities prescaled to `p = rate/Λ`
/// (offsets / probabilities / sources as flat SoA arrays). Shared by the
/// transient [`Stepper`] and the steady-state Krylov matvec so the two
/// kernels cannot drift apart.
pub(crate) fn prescaled_transpose(
    ctmc: &Ctmc,
    unif: f64,
) -> (Vec<f64>, Vec<u32>, Vec<f64>, Vec<u32>) {
    let n = ctmc.num_states();
    let stay: Vec<f64> = ctmc.exit_rates().iter().map(|&e| 1.0 - e / unif).collect();
    let incoming = ctmc.incoming();
    let m = ctmc.num_transitions();
    let mut inc_off = Vec::with_capacity(n + 1);
    let mut inc_p = Vec::with_capacity(m);
    let mut inc_src = Vec::with_capacity(m);
    inc_off.push(0u32);
    for i in 0..n as u32 {
        for &(r, j) in incoming.row(i) {
            inc_p.push(r / unif);
            inc_src.push(j);
        }
        inc_off.push(inc_p.len() as u32);
    }
    (stay, inc_off, inc_p, inc_src)
}

#[cfg(test)]
mod tests {
    use smallrand::SmallRng;

    use super::*;

    /// One grid solve through the public entry point, on a fresh context.
    fn many(c: &Ctmc, pi0: &[f64], ts: &[f64], opts: &TransientOptions) -> Vec<Vec<f64>> {
        transient_many_from_ctx(c, pi0, ts, opts, &MeasureContext::new())
    }

    /// One grid solve on a pinned kernel, bypassing the cost model: the
    /// crate-internal entry point of the tests whose subject is one engine.
    fn solve_on(
        kernel: TransientKernel,
        c: &Ctmc,
        pi0: &[f64],
        ts: &[f64],
        opts: &TransientOptions,
    ) -> Vec<Vec<f64>> {
        let ctx = MeasureContext::new();
        GridSolver::new(c, opts, &ctx.poisson, &ctx.counters).solve_on(kernel, pi0, ts)
    }

    /// [`solve_on`] the windowed engine from the chain's initial state.
    fn windowed(c: &Ctmc, ts: &[f64], opts: &TransientOptions) -> Vec<Vec<f64>> {
        solve_on(
            TransientKernel::Windowed,
            c,
            &c.initial_distribution(),
            ts,
            opts,
        )
    }

    /// [`solve_on`] the dense kernel from the chain's initial state.
    fn dense(c: &Ctmc, ts: &[f64]) -> Vec<Vec<f64>> {
        solve_on(
            TransientKernel::Dense,
            c,
            &c.initial_distribution(),
            ts,
            &TransientOptions::default(),
        )
    }

    /// Two-state machine point availability:
    /// A(t) = µ/(λ+µ) + λ/(λ+µ)·e^{-(λ+µ)t}.
    #[test]
    fn two_state_transient_matches_closed_form() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        for &t in &[0.0, 0.1, 1.0, 5.0, 50.0] {
            let pi = transient(&c, t);
            let a = m / (l + m) + l / (l + m) * (-(l + m) * t).exp();
            assert!((pi[0] - a).abs() < 1e-10, "t={t}: {} vs {a}", pi[0]);
        }
    }

    /// Pure death process: P(absorbed by t) = 1 - e^{-λt}.
    #[test]
    fn exponential_absorption() {
        let l = 0.37;
        let c = Ctmc::new(vec![vec![(l, 1)], vec![]], vec![0, 1], 0).unwrap();
        let pi = transient(&c, 2.0);
        assert!((pi[1] - (1.0 - (-l * 2.0f64).exp())).abs() < 1e-12);
    }

    /// Erlang-3 absorption time: P(done by t) follows the Erlang CDF.
    #[test]
    fn erlang_chain() {
        let r = 2.0;
        let c = Ctmc::new(
            vec![vec![(r, 1)], vec![(r, 2)], vec![(r, 3)], vec![]],
            vec![0, 0, 0, 1],
            0,
        )
        .unwrap();
        let t = 1.3;
        let pi = transient(&c, t);
        // Erlang-3 CDF = 1 - e^{-rt}(1 + rt + (rt)^2/2)
        let x = r * t;
        let expected = 1.0 - (-x).exp() * (1.0 + x + x * x / 2.0);
        assert!((pi[3] - expected).abs() < 1e-10);
    }

    #[test]
    fn long_horizon_converges_to_steady_state() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let pi = transient(&c, 1e4);
        let steady = crate::steady::steady_state(&c);
        assert!((pi[0] - steady[0]).abs() < 1e-9);
    }

    #[test]
    fn distribution_stays_normalized() {
        let c = Ctmc::new(
            vec![vec![(1.0, 1), (2.0, 2)], vec![(0.5, 2)], vec![(3.0, 0)]],
            vec![0, 0, 0],
            0,
        )
        .unwrap();
        for &t in &[0.3, 3.0, 30.0] {
            let pi = transient(&c, t);
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let c = Ctmc::new(vec![vec![]], vec![0], 0).unwrap();
        let _ = transient(&c, -1.0);
    }

    #[test]
    fn batched_grid_matches_closed_form_in_input_order() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        // deliberately unsorted, with a duplicate and a zero
        let ts = [5.0, 0.1, 0.0, 1.0, 1.0, 50.0];
        let pis = many(
            &c,
            &c.initial_distribution(),
            &ts,
            &TransientOptions::default(),
        );
        assert_eq!(pis.len(), ts.len());
        for (&t, pi) in ts.iter().zip(&pis) {
            let a = m / (l + m) + l / (l + m) * (-(l + m) * t).exp();
            assert!((pi[0] - a).abs() < 1e-10, "t={t}: {} vs {a}", pi[0]);
        }
    }

    #[test]
    fn rateless_chain_grid_is_constant() {
        let c = Ctmc::new(vec![vec![]], vec![0], 0).unwrap();
        let pis = many(&c, &[1.0], &[0.0, 1.0, 10.0], &TransientOptions::default());
        for pi in pis {
            assert_eq!(pi, vec![1.0]);
        }
    }

    /// A multi-state chain with no transitions at all (`max_exit == 0.0`)
    /// must return the starting distribution verbatim at every grid point,
    /// including from a non-initial `pi0`.
    #[test]
    fn zero_exit_rate_chain_keeps_pi0_on_grid() {
        let c = Ctmc::new(vec![vec![], vec![], vec![]], vec![0, 0, 1], 0).unwrap();
        assert_eq!(c.max_exit_rate(), 0.0);
        let pi0 = [0.25, 0.5, 0.25];
        let pis = many(&c, &pi0, &[0.0, 2.5, 100.0], &TransientOptions::default());
        for pi in pis {
            assert_eq!(pi, pi0.to_vec());
        }
    }

    /// `t = 0` grid points must return `pi0` exactly, even when mixed with
    /// positive times (the incremental sweep must not step before them).
    #[test]
    fn zero_time_points_return_pi0_exactly() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let pi0 = [0.0, 1.0];
        let pis = many(
            &c,
            &pi0,
            &[3.0, 0.0, 7.0, 0.0],
            &TransientOptions::default(),
        );
        assert_eq!(pis[1], pi0.to_vec());
        assert_eq!(pis[3], pi0.to_vec());
        // and the positive points still match the closed form from pi0
        for &(i, t) in &[(0usize, 3.0f64), (2, 7.0)] {
            let a = m / (l + m) - m / (l + m) * (-(l + m) * t).exp();
            assert!((pis[i][0] - a).abs() < 1e-10, "t={t}");
        }
    }

    /// Duplicate and unsorted grid entries answer from one shared sweep
    /// and must agree with independent scalar solves bitwise-closely.
    #[test]
    fn from_distribution_handles_duplicate_unsorted_grid() {
        let c = Ctmc::new(
            vec![vec![(1.0, 1), (2.0, 2)], vec![(0.5, 2)], vec![(3.0, 0)]],
            vec![0, 0, 0],
            0,
        )
        .unwrap();
        let pi0 = [0.2, 0.3, 0.5];
        let ts = [4.0, 1.0, 4.0, 0.5, 1.0];
        let opts = TransientOptions::default();
        let pis = many(&c, &pi0, &ts, &opts);
        assert_eq!(pis[0], pis[2], "duplicate grid points must agree");
        assert_eq!(pis[1], pis[4]);
        for (&t, pi) in ts.iter().zip(&pis) {
            let scalar = many(&c, &pi0, &[t], &opts).pop().unwrap();
            for (a, b) in pi.iter().zip(&scalar) {
                assert!((a - b).abs() < 1e-10, "t={t}: {a} vs {b}");
            }
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-10);
        }
    }

    /// Steady-state detection answers long-horizon grids from the
    /// converged vector: the detected run needs far fewer steps, agrees
    /// with the undetected run to well below 1e-10, and still matches the
    /// closed form.
    #[test]
    fn steady_detection_matches_undetected_sweep() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let grid: Vec<f64> = (1..=20).map(|k| f64::from(k) * 50.0).collect();
        let detected = windowed(&c, &grid, &TransientOptions::default());
        let exact = windowed(&c, &grid, &TransientOptions::default().with_steady_tol(0.0));
        for (i, &t) in grid.iter().enumerate() {
            let a = m / (l + m) + l / (l + m) * (-(l + m) * t).exp();
            assert!((detected[i][0] - exact[i][0]).abs() < 1e-11, "t={t}");
            assert!((detected[i][0] - a).abs() < 1e-10, "t={t}");
        }
    }

    /// Two fast clusters bridged by one rare transition.
    fn nearly_decoupled() -> Ctmc {
        Ctmc::new(
            vec![
                vec![(1.0, 1), (1e-4, 2)], // fast cluster A, rare escape
                vec![(1.0, 0)],
                vec![(1.0, 3)], // fast cluster B
                vec![(1.0, 2)],
            ],
            vec![0, 0, 1, 1],
            0,
        )
        .unwrap()
    }

    /// A nearly-decoupled chain — two fast clusters bridged by one rare
    /// transition — must not trigger premature detection: the raw step
    /// delta is tiny long before the slow mode has equilibrated (the
    /// remaining distance is `δ / spectral gap`), so a plain
    /// `δ ≤ steady_tol` check would freeze the grid on a vector still
    /// far from steady. The projected-drift criterion has to see
    /// through it and keep the long-horizon point at the true steady
    /// state.
    #[test]
    fn detection_resists_nearly_decoupled_chains() {
        let c = nearly_decoupled();
        // t1 sits where the raw step delta has already dropped below the
        // default steady_tol while ~1e-9 of slow-mode mass is still in
        // flight; t2 is far past mixing.
        let grid = [4.2e5, 1e8];
        let pis = windowed(&c, &grid, &TransientOptions::default());
        let steady = crate::steady::steady_state(&c);
        for (a, b) in pis[1].iter().zip(&steady) {
            assert!(
                (a - b).abs() < 1e-10,
                "long-horizon point frozen before steady state: {a} vs {b}"
            );
        }
    }

    /// The `_ctx` entry point is bitwise identical from one context to the
    /// next and records the solve's work on the context's counters
    /// (without disturbing other contexts).
    #[test]
    fn ctx_counters_record_session_scoped_work() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let ts = [1.0, 2.0, 5.0];
        let opts = TransientOptions::default();
        let ctx = MeasureContext::new();
        let pis = transient_many_from_ctx(&c, &c.initial_distribution(), &ts, &opts, &ctx);
        assert_eq!(pis, many(&c, &c.initial_distribution(), &ts, &opts));
        assert!(ctx.counters.sweeps() >= 1);
        assert!(ctx.counters.dtmc_steps() >= 1);
        let other = MeasureContext::new();
        assert_eq!(other.counters.sweeps(), 0);
        assert_eq!(other.counters.dtmc_steps(), 0);
    }

    /// An absorbing chain converges once all mass is absorbed; detection
    /// must stop the sweep and keep the absorbed mass exact.
    #[test]
    fn steady_detection_on_absorbing_chain() {
        let l = 2.5;
        let c = Ctmc::new(vec![vec![(l, 1)], vec![]], vec![0, 1], 0).unwrap();
        let grid = [5.0, 50.0, 500.0];
        let pis = windowed(&c, &grid, &TransientOptions::default());
        for (&t, pi) in grid.iter().zip(&pis) {
            let expected = 1.0 - (-l * t).exp();
            assert!((pi[1] - expected).abs() < 1e-10, "t={t}: {}", pi[1]);
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    /// Random sparse chain with rates spanning several orders of
    /// magnitude — the regime where the per-segment Λ and the ε-support
    /// window actually differ from the global scheme. Some states are
    /// made absorbing so the support-collapse machinery runs too.
    fn arb_chain(rng: &mut SmallRng) -> Ctmc {
        let n = rng.range_usize(2, 40);
        let rows: Vec<Vec<(f64, u32)>> = (0..n)
            .map(|i| {
                if rng.range_u32(0, 10) == 0 {
                    return Vec::new(); // absorbing state
                }
                let degree = rng.range_usize(1, 4.min(n));
                (0..degree)
                    .map(|_| {
                        // Rates from 1e-6 to ~1e2: stiff by construction
                        // (the horizon is bounded so the exact engine's
                        // step count stays where 1e-12 agreement is
                        // meaningful — roundoff grows with Λ·t).
                        let mag = rng.range_u32(0, 8) as i32 - 6;
                        let rate = f64::from(rng.range_u32(1, 10)) * 10f64.powi(mag);
                        let target = rng.range_usize(0, n) as u32;
                        (rate, target)
                    })
                    .filter(|&(_, t)| t != i as u32)
                    .collect()
            })
            .collect();
        let labels = vec![0u64; n];
        Ctmc::new(rows, labels, 0).expect("valid chain")
    }

    /// A seeded random chain from [`arb_chain`] plus a random grid of up
    /// to six points on `[0, 40)`.
    fn arb_case(seed: u64) -> (Ctmc, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let chain = arb_chain(&mut rng);
        let points = rng.range_usize(1, 7);
        let ts: Vec<f64> = (0..points)
            .map(|_| f64::from(rng.range_u32(0, 160)) * 0.25)
            .collect();
        (chain, ts)
    }

    fn sup_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
        a.iter()
            .zip(b)
            .flat_map(|(x, y)| x.iter().zip(y))
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()))
    }

    fn exact_opts() -> TransientOptions {
        TransientOptions::default()
            .with_steady_tol(0.0)
            .with_adaptive(false)
    }

    const CASES: u64 = 48;

    /// The adaptive windowed engine agrees with the exact global-Λ engine
    /// to ≤ 1e-12 sup-norm on random stiff chains and random grids
    /// (detection disabled on both sides so the comparison isolates the
    /// windowing and Λ-adaptation machinery).
    #[test]
    fn adaptive_matches_exact_engine_on_random_chains() {
        for seed in 0..CASES {
            let (chain, ts) = arb_case(seed);
            let adaptive = windowed(
                &chain,
                &ts,
                &TransientOptions::default().with_steady_tol(0.0),
            );
            let exact = many(&chain, &chain.initial_distribution(), &ts, &exact_opts());
            let diff = sup_diff(&adaptive, &exact);
            assert!(
                diff < 1e-12,
                "seed {seed}: engines disagree by {diff:e} on ts {ts:?}"
            );
            // Truncation keeps the distributions sub-stochastic at worst
            // by the documented budget; they must still be essentially
            // normalized.
            for pi in &adaptive {
                let mass: f64 = pi.iter().sum();
                assert!((mass - 1.0).abs() < 1e-9, "seed {seed}: mass {mass}");
            }
        }
    }

    /// Lossless windowing (`support_tol = 0`) also matches, and
    /// steady-state detection on both engines stays within its own
    /// tolerance.
    #[test]
    fn lossless_windowing_and_detection_match() {
        for seed in 0..CASES / 2 {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let chain = arb_chain(&mut rng);
            let ts = [0.5, 2.5, 12.0];
            let lossless = windowed(
                &chain,
                &ts,
                &TransientOptions::default()
                    .with_steady_tol(0.0)
                    .with_support_tol(0.0),
            );
            let exact = many(&chain, &chain.initial_distribution(), &ts, &exact_opts());
            let diff = sup_diff(&lossless, &exact);
            assert!(diff < 1e-12, "seed {seed}: lossless diff {diff:e}");
            let detected = windowed(&chain, &ts, &TransientOptions::default());
            let diff = sup_diff(&detected, &exact);
            assert!(diff < 1e-10, "seed {seed}: detected diff {diff:e}");
        }
    }

    /// Support collapse onto absorbing states: once all mass sits on
    /// absorbing states, segments become zero-rate no-ops — the
    /// distribution is exactly invariant and later grid points answer
    /// without stepping.
    #[test]
    fn support_collapse_onto_absorbing_states() {
        // 0 -> 1 -> 2(absorbing), fast rates: by t = 200 everything is
        // absorbed up to double precision.
        let c = Ctmc::new(
            vec![vec![(2.0, 1)], vec![(3.0, 2)], vec![]],
            vec![0, 0, 1],
            0,
        )
        .unwrap();
        let grid = [200.0, 500.0, 1000.0, 1e6];
        let pis = windowed(&c, &grid, &TransientOptions::default());
        for (i, pi) in pis.iter().enumerate() {
            assert!(
                (pi[2] - 1.0).abs() < 1e-12,
                "t={}: absorbed mass {}",
                grid[i],
                pi[2]
            );
            let mass: f64 = pi.iter().sum();
            assert!((mass - 1.0).abs() < 1e-12);
        }
        // The same grid with the exact engine agrees bit-for-bit-closely.
        let exact = many(
            &c,
            &c.initial_distribution(),
            &grid,
            &TransientOptions::default().with_adaptive(false),
        );
        assert!(sup_diff(&pis, &exact) < 1e-12);
    }

    /// The dense kernel agrees with the exact engine to ≤ 1e-12 sup-norm
    /// on the same random stiff chains and grids the windowed engine is
    /// tested on, and its distributions stay normalized.
    #[test]
    fn dense_matches_exact_engine_on_random_chains() {
        for seed in 0..CASES {
            let (chain, ts) = arb_case(seed);
            let got = dense(&chain, &ts);
            let exact = many(&chain, &chain.initial_distribution(), &ts, &exact_opts());
            let diff = sup_diff(&got, &exact);
            assert!(
                diff < 1e-12,
                "seed {seed}: dense disagrees by {diff:e} on ts {ts:?}"
            );
            for pi in &got {
                let mass: f64 = pi.iter().sum();
                assert!((mass - 1.0).abs() < 1e-12, "seed {seed}: mass {mass}");
            }
        }
    }

    /// Λt ≈ 1e8 on the nearly-decoupled chain: the long-horizon point is
    /// the steady state to 1e-10. Squaring without row renormalization
    /// drifts by about `Λt·u` here and fails this bound.
    #[test]
    fn dense_holds_the_nearly_decoupled_chain_at_lambda_t_1e8() {
        let c = nearly_decoupled();
        let pis = dense(&c, &[4.2e5, 1e8]);
        let steady = crate::steady::steady_state(&c);
        for (a, b) in pis[1].iter().zip(&steady) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    /// Two independent repairable components as a product chain: state 1
    /// has A down, state 2 has B down, state 3 has both down.
    fn two_components(la: f64, ma: f64, lb: f64, mb: f64) -> Ctmc {
        Ctmc::new(
            vec![
                vec![(la, 1), (lb, 2)],
                vec![(ma, 0), (lb, 3)],
                vec![(mb, 0), (la, 3)],
                vec![(mb, 1), (ma, 2)],
            ],
            vec![0, 0, 0, 1],
            0,
        )
        .unwrap()
    }

    /// A fast repair sets Λt ≈ 1e6 and the cost model sends the solve to
    /// the dense kernel, which reproduces a both-down probability near
    /// 5e-8 to 1e-13 relative: `u_A(t)·u_B(t)` with
    /// `u(t) = λ/(λ+µ)·(1 − e^{−(λ+µ)t})`.
    #[test]
    fn dense_matches_a_small_closed_form_at_lambda_t_1e6() {
        let (la, ma, lb, mb) = (2.0, 1000.0, 4e-8, 1e-3);
        let c = two_components(la, ma, lb, mb);
        let t = 1000.0;
        assert!(c.max_exit_rate() * UNIF_HEADROOM * t > 1e6);
        assert_eq!(
            select_kernel(&c, &[t], &TransientOptions::default()),
            TransientKernel::Dense
        );
        let u = |l: f64, m: f64| l / (l + m) * -(-(l + m) * t).exp_m1();
        let expected = u(la, ma) * u(lb, mb);
        assert!((4e-8..6e-8).contains(&expected));
        let got = transient(&c, t)[3];
        let rel = (got - expected).abs() / expected;
        assert!(rel < 1e-13, "{got:e} vs {expected:e} (rel {rel:e})");
    }

    /// A horizon whose `Λt` overflows is not squarable: the selection
    /// returns at once and leaves the solve to the windowed engine, which
    /// rejects it as it always has.
    #[test]
    fn overflowing_horizons_select_the_windowed_engine() {
        let c = Ctmc::new(vec![vec![(2.0, 1)], vec![(3.0, 0)]], vec![0, 1], 0).unwrap();
        let opts = TransientOptions::default();
        for ts in [&[1e308][..], &[1.0, 1e308], &[f64::MAX]] {
            assert_eq!(select_kernel(&c, ts, &opts), TransientKernel::Windowed);
        }
        assert_eq!(select_kernel(&c, &[1e3], &opts), TransientKernel::Dense);
    }

    /// First-passage curves on the dense kernel are monotone, and mass
    /// that starts on the absorbing state stays there exactly: absorbing
    /// rows are exact unit rows of every exponential.
    #[test]
    fn dense_first_passage_curves_are_monotone() {
        let c = two_components(1.0, 500.0, 1e-6, 0.5).make_absorbing([3]);
        let grid: Vec<f64> = (1..=60).map(|k| f64::from(k) * 17.0).collect();
        let pis = dense(&c, &grid);
        for w in pis.windows(2) {
            assert!(w[1][3] >= w[0][3], "{} then {}", w[0][3], w[1][3]);
        }
        assert!(pis[0][3] > 0.0 && pis[59][3] <= 1.0);
        let pi0 = [0.0, 0.0, 0.0, 1.0];
        let opts = TransientOptions::default();
        for pi in solve_on(TransientKernel::Dense, &c, &pi0, &grid, &opts) {
            assert_eq!(pi, pi0.to_vec(), "absorbed mass must stay exact");
        }
    }

    /// `t = 0` points reproduce `pi0` exactly, duplicates answer
    /// identically and an unsorted grid matches the exact engine.
    #[test]
    fn dense_handles_zero_duplicate_and_unsorted_grids() {
        let c = two_components(1.0, 500.0, 1e-4, 2.0);
        let pi0 = [0.25, 0.25, 0.25, 0.25];
        let ts = [7.0, 0.0, 7.0, 2.0, 0.0, 2.0];
        let opts = TransientOptions::default();
        let pis = solve_on(TransientKernel::Dense, &c, &pi0, &ts, &opts);
        assert_eq!(pis[1], pi0.to_vec(), "t = 0 must reproduce pi0 exactly");
        assert_eq!(pis[4], pi0.to_vec());
        assert_eq!(pis[0], pis[2], "duplicate grid points must agree");
        assert_eq!(pis[3], pis[5]);
        let exact = many(&c, &pi0, &ts, &exact_opts());
        assert!(sup_diff(&pis, &exact) < 1e-12);
    }

    /// A dense segment counts as one sweep with no DTMC steps, and its
    /// matrix products land on the context's counters; a uniform grid
    /// computes its one exponential once.
    #[test]
    fn dense_segments_count_as_sweeps_without_steps() {
        let c = two_components(1.0, 500.0, 1e-6, 0.5);
        let grid = [10.0, 20.0, 30.0];
        assert_eq!(
            select_kernel(&c, &grid, &TransientOptions::default()),
            TransientKernel::Dense
        );
        let ctx = MeasureContext::new();
        let pis = transient_many_from_ctx(
            &c,
            &c.initial_distribution(),
            &grid,
            &TransientOptions::default(),
            &ctx,
        );
        assert_eq!(pis, dense(&c, &grid));
        assert_eq!(ctx.counters.sweeps(), 3);
        assert_eq!(ctx.counters.dtmc_steps(), 0);
        let one_exponential = ctx.counters.dense_products();
        let single = MeasureContext::new();
        let _ = transient_many_from_ctx(
            &c,
            &c.initial_distribution(),
            &[10.0],
            &TransientOptions::default(),
            &single,
        );
        assert!(one_exponential > 0);
        assert_eq!(one_exponential, single.counters.dense_products());
    }

    /// A grid point far past the per-sweep cap (`Λt ≈ 1.5e12`, about
    /// 90,000 times `2^24`) is advanced in capped sub-segments on both
    /// uniformization engines: steady-state detection fires in the first
    /// one, which answers the point within 1e-10 of the steady state.
    #[test]
    fn huge_horizons_land_on_the_steady_state_on_both_engines() {
        let (l, m) = (0.2, 1.5);
        let c = Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap();
        let t = 1e12;
        assert!(c.max_exit_rate() * UNIF_HEADROOM * t > 5e4 * MAX_SEGMENT_LAMBDA_T);
        let steady = crate::steady::steady_state(&c);
        let opts = TransientOptions::default();
        for kernel in [TransientKernel::Exact, TransientKernel::Windowed] {
            let ctx = MeasureContext::new();
            let pis = GridSolver::new(&c, &opts, &ctx.poisson, &ctx.counters).solve_on(
                kernel,
                &c.initial_distribution(),
                &[1.0, t],
            );
            for (a, b) in pis[1].iter().zip(&steady) {
                assert!((a - b).abs() < 1e-10, "{kernel:?}: {a} vs {b}");
            }
            assert_eq!(
                ctx.counters.sweeps(),
                2,
                "{kernel:?}: the converged trajectory must stop stepping"
            );
        }
    }

    /// A grid whose global `Λt` exceeds `2^53` is rejected before any
    /// weight is expanded.
    #[test]
    #[should_panic(expected = "at most 2^53")]
    fn horizons_past_2_pow_53_are_rejected_up_front() {
        let c = Ctmc::new(vec![vec![(0.2, 1)], vec![(1.5, 0)]], vec![0, 1], 0).unwrap();
        let _ = windowed(&c, &[1e16], &TransientOptions::default());
    }
}
