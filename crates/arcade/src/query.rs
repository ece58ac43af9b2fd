//! The query-driven measure engine: lazy [`Session`] + batched
//! [`Measure`] evaluation.
//!
//! The Arcade pipeline's expensive artifacts — the compositionally
//! aggregated CTMC per model configuration, its steady-state vector, the
//! down-state list, the absorbing-transformed chain for first-passage
//! measures — are all independent of *which* time points a caller asks
//! about. A [`Session`] therefore owns the [`SystemDef`] and builds each
//! artifact **lazily, once**, answering whole batches of measures in one
//! pass with the batched transient solves of
//! [`ctmc::transient::transient_many_from_ctx`].
//!
//! # Laziness and caching contract
//!
//! Two model configurations exist, each built on first demand and then
//! memoized for the lifetime of the session:
//!
//! * the **availability configuration** (repairs active) — needed by
//!   [`Measure::SteadyStateAvailability`],
//!   [`Measure::SteadyStateUnavailability`],
//!   [`Measure::PointAvailability`], [`Measure::PointUnavailability`],
//!   [`Measure::UnreliabilityWithRepair`], [`Measure::Mttf`],
//!   [`Measure::IntervalAvailability`] and [`Measure::BoundedUntil`];
//! * the **no-repair configuration** (`SystemDef::without_repair`,
//!   §5.1.2) — needed by [`Measure::Reliability`] and
//!   [`Measure::Unreliability`].
//!
//! Within a configuration, the steady-state vector, the down-state list,
//! the absorbing-down chain (the third, derived "absorbing-down"
//! configuration), the MTTF and the windowed transient operators of the
//! aggregated chain and of its absorbing-down copy
//! ([`ctmc::transient::WindowedOperator`]) are each computed at most
//! once. A batch
//! [`Session::evaluate`] call groups the grid-friendly measure kinds —
//! point (un)availability, (un)reliability and first-passage
//! unreliability — so each (configuration, kind) pair costs **one**
//! uniformization sweep over the whole grid, no matter how many points
//! the curve has. The CSL measures ([`Measure::IntervalAvailability`],
//! [`Measure::BoundedUntil`]) are evaluated per instance: their internal
//! grids/transformed chains are query-specific and do not batch.
//!
//! All transient sweeps run through the steady-state-aware transient
//! kernels configured by
//! [`EngineOptions::solver`](crate::engine::EngineOptions)`.transient`
//! (see [`ctmc::TransientOptions`]), and share one session-wide
//! [`ctmc::PoissonCache`]: a uniform grid steps by a single `Λ·Δt`, so
//! evaluating several measure kinds over the same grid expands each
//! Poisson weight vector once ([`SessionStats::poisson_hits`] counts the
//! savings). Every measure time must be finite and non-negative: a batch
//! holding any other time is rejected with [`ArcadeError::Invalid`]
//! before anything is built.
//!
//! # Budgets and panics
//!
//! To bound a query, run it inside [`guarded`] with a [`Budget`]: the
//! budget becomes the ambient scope whose checkpoints the aggregation and
//! solver loops poll, a tripped limit answers [`ArcadeError::Budget`],
//! and any other panic escaping the query answers
//! [`ArcadeError::Internal`] instead of unwinding into the caller. Hold a
//! clone of the budget's `Arc` and call [`Budget::cancel`] from another
//! thread to abort a query in flight. Artifacts finished before the trip
//! stay cached; a partially built aggregation is discarded, and a later
//! query rebuilds it. [`Session::evaluate`], [`Session::evaluate_at`] and
//! [`Session::sweep`] also run their batch under [`guarded`] themselves,
//! so a steady-state or MTTF solve that ends uncertified on a chain too
//! large for the exact rescue ([`ctmc::CtmcError::Uncertified`]) answers
//! [`ArcadeError::Analysis`] rather than unwinding into the caller.
//!
//! # Example
//!
//! ```
//! use arcade::prelude::*;
//!
//! let mut sys = SystemDef::new("pair");
//! for name in ["p1", "p2"] {
//!     sys.add_component(BcDef::new(name, Dist::exp(0.001), Dist::exp(0.5)));
//! }
//! sys.add_repair_unit(RuDef::new("rep", ["p1", "p2"], RepairStrategy::Fcfs));
//! sys.set_system_down(Expr::and([Expr::down("p1"), Expr::down("p2")]));
//!
//! let session = Session::new(&sys)?;
//! let batch = [
//!     Measure::SteadyStateAvailability,
//!     Measure::Reliability(100.0),
//!     Measure::Reliability(1000.0),
//!     Measure::Mttf,
//! ];
//! let values = session.evaluate(&batch)?;
//! assert!(values[0] > 0.999);
//! assert!(values[2] < values[1]); // reliability decreases
//! # Ok::<(), arcade::ArcadeError>(())
//! ```

use std::cell::OnceCell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ctmc::csl::StateFormula;
use ctmc::measures::state_mass as mass;
use ctmc::transient::{
    select_kernel, transient_many_from_ctx, transient_many_on, TransientKernel, WindowedOperator,
};
use ctmc::{Ctmc, CtmcError, MeasureContext};
use ioimc::budget::{self, Budget, BudgetExceeded};

use crate::ast::SystemDef;
use crate::build::observer::DOWN_BIT;
use crate::chaos;
use crate::engine::{aggregate, Aggregation, EngineOptions};
use crate::error::ArcadeError;
use crate::model::SystemModel;
use crate::sync::{panic_message, CellError, RetryCell};

/// One dependability measure. Time-dependent variants carry their time
/// point; a batch of them over a grid is answered by one shared sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum Measure {
    /// Long-run availability `A` (availability configuration).
    SteadyStateAvailability,
    /// Long-run unavailability `1 - A`, computed directly for precision.
    SteadyStateUnavailability,
    /// Point availability `A(t)`.
    PointAvailability(f64),
    /// Point unavailability `1 - A(t)`, computed directly.
    PointUnavailability(f64),
    /// Reliability `R(t)` with **no repairs at all** — the paper's Table 1
    /// definition (§5.1.2); evaluated on the no-repair configuration.
    Reliability(f64),
    /// Unreliability `1 - R(t)` of the no-repair configuration.
    Unreliability(f64),
    /// First-passage unreliability **with component repairs active** — the
    /// RCS definition (§5.2.2); evaluated on the availability
    /// configuration with the down states made absorbing.
    UnreliabilityWithRepair(f64),
    /// Mean time to the first system failure (repairs active).
    Mttf,
    /// Expected fraction of `[0, t]` the system is up (CSL layer, §6).
    IntervalAvailability(f64),
    /// `P[Φ U≤t Ψ]` on the availability CTMC (CSL layer, §6).
    BoundedUntil {
        /// The path constraint Φ.
        phi: StateFormula,
        /// The goal formula Ψ.
        psi: StateFormula,
        /// The time bound.
        t: f64,
    },
}

/// Cheap observability into what a [`Session`] has built so far — used by
/// tests and benchmarks to assert the laziness/batching contract, and
/// surfaced by `arcade analyze --json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Compositional aggregations run (≤ 2: availability, no-repair).
    pub aggregations_built: u32,
    /// Absorbing-down transformations built (≤ 2, one per configuration).
    pub absorbing_built: u32,
    /// Steady-state solves completed (≤ 1 — only the availability steady
    /// state is ever needed; a solve aborted by its budget is not counted).
    pub steady_solves: u32,
    /// Poisson weight lookups answered from the session memo.
    pub poisson_hits: u64,
    /// Poisson weight lookups that had to expand a fresh vector.
    pub poisson_misses: u64,
    /// Poisson weight vectors evicted from the session's bounded memo
    /// (see [`ctmc::PoissonCache::DEFAULT_CAPACITY`]).
    pub poisson_evictions: u64,
    /// DTMC matrix-vector products this session performed. Counted
    /// through the session's own [`ctmc::MeasureContext`], so concurrent
    /// sessions in one process attribute their work exactly — no
    /// cross-contamination.
    pub dtmc_steps: u64,
    /// Uniformization sweeps (grid segments stepped) this session ran;
    /// per-session like [`SessionStats::dtmc_steps`].
    pub sweeps: u64,
    /// Wall time of the aggregation builds this session ran, in
    /// microseconds (integral so the stats snapshot stays `Eq`).
    pub aggregation_us: u64,
    /// Aggregation wall time spent computing and interning refinement
    /// signatures, in microseconds.
    pub signature_us: u64,
    /// Aggregation wall time spent splitting blocks, in microseconds.
    pub split_us: u64,
    /// Aggregation wall time spent building quotient automata, in
    /// microseconds.
    pub quotient_us: u64,
    /// Worklist refinement rounds across all aggregation builds.
    pub refine_rounds: u64,
    /// Per-state signature computations across all aggregation builds —
    /// the work the worklist discipline actually did (the legacy loop
    /// would have paid `rounds × states`).
    pub states_resigned: u64,
}

/// What one [`Session::prefetch_measures`] call did to the aggregation
/// cache — the attribution record the `arcaded` server turns into its
/// cache-hit / cache-miss / in-flight-dedup counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalTrace {
    /// Aggregations this call ran itself (cold configurations it built).
    pub built: u32,
    /// Aggregations this call needed while another thread was already
    /// building them — it blocked on the shared cell instead of
    /// duplicating the build.
    pub waited: u32,
}

/// The points of a parametric sweep: named rate parameters (declared on
/// the [`SystemDef`] via [`SystemDef::add_param`]) paired with the values
/// to evaluate — either as a cartesian product of per-parameter axes or
/// as an explicit point list. See [`Session::sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGrid {
    names: Vec<String>,
    kind: GridKind,
}

#[derive(Debug, Clone, PartialEq)]
enum GridKind {
    /// One value axis per parameter; the points are the cartesian product
    /// in row-major order (the **last** axis varies fastest).
    Cartesian(Vec<Vec<f64>>),
    /// An explicit point list, one value per parameter each.
    Explicit(Vec<Vec<f64>>),
}

impl ParamGrid {
    /// A cartesian grid: one `(parameter name, axis values)` pair per
    /// swept parameter. Points enumerate in row-major order with the last
    /// axis varying fastest. Finite-difference sensitivities are
    /// available on cartesian grids (central differences between grid
    /// neighbors, one-sided at the edges).
    pub fn cartesian(axes: impl IntoIterator<Item = (impl Into<String>, Vec<f64>)>) -> Self {
        let (names, axes) = axes.into_iter().map(|(n, v)| (n.into(), v)).unzip();
        Self {
            names,
            kind: GridKind::Cartesian(axes),
        }
    }

    /// An explicit point list: each point gives one value per named
    /// parameter, in the order of `names`. No sensitivities are computed
    /// for explicit lists (the points need not be axis-aligned).
    pub fn points_list(
        names: impl IntoIterator<Item = impl Into<String>>,
        points: impl Into<Vec<Vec<f64>>>,
    ) -> Self {
        Self {
            names: names.into_iter().map(Into::into).collect(),
            kind: GridKind::Explicit(points.into()),
        }
    }

    /// The swept parameter names, in point-value order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of points the grid enumerates, saturating at `usize::MAX`
    /// (a cartesian grid of 8 axes × 1,000 values has 10^24 points).
    pub fn len(&self) -> usize {
        match &self.kind {
            GridKind::Cartesian(axes) => axes
                .iter()
                .fold(1usize, |n, axis| n.saturating_mul(axis.len())),
            GridKind::Explicit(ps) => ps.len(),
        }
    }

    /// Whether the grid enumerates no points at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the points, each a vector of values in `names` order.
    /// This allocates a row per point: check [`ParamGrid::len`] first on
    /// a grid from an untrusted source ([`Session::sweep`] does).
    pub fn points(&self) -> Vec<Vec<f64>> {
        match &self.kind {
            GridKind::Explicit(ps) => ps.clone(),
            GridKind::Cartesian(axes) => {
                let total = self.len();
                let mut out = Vec::with_capacity(total);
                let mut idx = vec![0usize; axes.len()];
                for _ in 0..total {
                    out.push(idx.iter().zip(axes).map(|(&i, ax)| ax[i]).collect());
                    for k in (0..axes.len()).rev() {
                        idx[k] += 1;
                        if idx[k] < axes[k].len() {
                            break;
                        }
                        idx[k] = 0;
                    }
                }
                out
            }
        }
    }
}

/// The most points one [`Session::sweep`] evaluates; a larger grid is
/// rejected before anything is built or materialized. The largest sweep
/// in this repository (`exp_scaling`'s `rcs_scaled_parametric(2)` grid)
/// has 256 points, so the cap leaves 256× headroom, while the points,
/// values and sensitivities of a grid at the cap take about 10 MB for 3
/// parameters and 2 measures. Without a cap, a 60 KB wire `sweep` line
/// names 10^12 points, and reserving one row per point aborts the
/// process.
const MAX_SWEEP_POINTS: usize = 1 << 16;

/// The result of a [`Session::sweep`]: per-point measure values plus
/// finite-difference sensitivities where the grid provides neighbors.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The swept parameter names, in point-value order.
    pub names: Vec<String>,
    /// The evaluated points (one value per name each), in grid order.
    pub points: Vec<Vec<f64>>,
    /// `values[i][j]` — measure `j` of the batch at point `i`. Every row
    /// is bitwise identical to what a fresh session's
    /// [`Session::evaluate_at`] returns at that point.
    pub values: Vec<Vec<f64>>,
    /// `sensitivities[i][j][k]` — the finite-difference estimate of
    /// `∂ measure j / ∂ param k` at point `i`: a central difference
    /// between the two grid neighbors along axis `k` where both exist,
    /// one-sided at the axis edges, and `None` on explicit point lists or
    /// single-value axes.
    pub sensitivities: Vec<Vec<Vec<Option<f64>>>>,
}

/// Per-configuration memo: the aggregation and everything derived from it.
///
/// Besides the aggregation it holds the steady-state vector, the down
/// states, the absorbing-down copy of the aggregated chain, the MTTF, and
/// the windowed transient operator of each chain solved from its initial
/// state (the aggregated chain and the absorbing copy), built the first
/// time the cost model sends a solve of that chain to the windowed engine
/// (or a sweep point needs it). Each operator holds about 16 MB for an
/// 83,808-state, 1.09 M-transition chain (`12·nnz + 32·n` bytes), plus
/// 4.4 MB of slot form ids when the chain is parametric; the cache dies
/// with its session.
///
/// A `Session` shared behind an [`Arc`] can be queried from many threads
/// at once: the first thread to need an artifact builds it while every
/// concurrent requester **blocks on the same cell** — N simultaneous cold
/// queries trigger exactly one aggregation (the in-flight dedup the
/// `arcaded` server relies on).
///
/// The aggregation slot is a panic-safe [`RetryCell`], because a resident
/// server must contain build failures, not wedge on them:
///
/// * **deterministic** errors (invalid model, nondeterminism, …) are
///   cached as the cell's value — the build cannot be helped by retrying;
/// * **transient** errors ([`ArcadeError::Budget`],
///   [`ArcadeError::Internal`]) are delivered to the building caller and
///   every blocked waiter but *not* cached, so a later request with a
///   larger budget (or after a chaos-injected panic) rebuilds;
/// * a builder **panic** is caught at the cell, every waiter wakes with a
///   typed error, and the cell clears for the next request.
///
/// The derived slots stay [`OnceLock`]s: their builders only panic on a
/// budget checkpoint (or injected fault), and `std`'s `OnceLock` retries
/// after a panicked initializer, so a later request simply recomputes.
#[derive(Debug, Default)]
struct ConfigCache {
    agg: RetryCell<Result<Arc<Aggregation>, ArcadeError>, ArcadeError>,
    steady: OnceLock<Vec<f64>>,
    down: OnceLock<Arc<[u32]>>,
    absorbing: OnceLock<Ctmc>,
    mttf: OnceLock<f64>,
    /// The windowed operator of the aggregated chain.
    operator: OnceLock<WindowedOperator>,
    /// The windowed operator of `absorbing`.
    absorbing_operator: OnceLock<WindowedOperator>,
}

/// Which model configuration a measure needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Config {
    /// Repairs active.
    Availability,
    /// All repair units stripped (`SystemDef::without_repair`).
    NoRepair,
}

/// A lazy, memoizing measure-evaluation session over one system
/// definition. See the module docs for the caching contract.
///
/// A `Session` is `Send + Sync`: share one behind an [`Arc`] and query it
/// from any number of threads. Each aggregation sits in a panic-safe
/// [`RetryCell`] and every artifact derived from it in a [`OnceLock`], so
/// concurrent first requests for the same artifact block on one build
/// instead of duplicating it, and repeat queries read the cached value.
/// Answers are identical to single-threaded evaluation —
/// the memoized artifacts are built by exactly the code the serial path
/// runs (aggregation and the solvers are serial themselves).
#[derive(Debug)]
pub struct Session {
    def: SystemDef,
    opts: EngineOptions,
    availability: ConfigCache,
    no_repair: ConfigCache,
    /// The session's measurement context: the Poisson weight memo shared
    /// by **all** transient queries of the session (uniform grids step by
    /// one `Δt`, and chains with equal uniformization rates — e.g. the
    /// availability CTMC and its absorbing-down transform — share the
    /// exact `Λ·Δt` keys, so repeated measures over the same grid expand
    /// each weight vector once; the memo is capacity-bounded so large
    /// parameter sweeps cannot grow it without limit), plus the
    /// session-scoped solver work counters behind
    /// [`SessionStats::dtmc_steps`] / [`SessionStats::sweeps`].
    ctx: MeasureContext,
    aggregations_built: AtomicU32,
    absorbing_built: AtomicU32,
    steady_solves: AtomicU32,
    /// Aggregation-phase accounting (µs / counters), accumulated by
    /// whichever thread wins each cold build.
    aggregation_us: AtomicU64,
    signature_us: AtomicU64,
    split_us: AtomicU64,
    quotient_us: AtomicU64,
    refine_rounds: AtomicU64,
    states_resigned: AtomicU64,
}

impl Session {
    /// Creates a session with default engine options. Validates the
    /// definition eagerly; builds **nothing** until the first query.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] for inconsistent definitions.
    pub fn new(def: &SystemDef) -> Result<Self, ArcadeError> {
        crate::model::validate(def)?;
        if def.system_down.is_none() {
            return Err(ArcadeError::invalid("SYSTEM DOWN criterion missing"));
        }
        Ok(Self {
            def: def.clone(),
            opts: EngineOptions::new(),
            availability: ConfigCache::default(),
            no_repair: ConfigCache::default(),
            ctx: MeasureContext::new(),
            aggregations_built: AtomicU32::new(0),
            absorbing_built: AtomicU32::new(0),
            steady_solves: AtomicU32::new(0),
            aggregation_us: AtomicU64::new(0),
            signature_us: AtomicU64::new(0),
            split_us: AtomicU64::new(0),
            quotient_us: AtomicU64::new(0),
            refine_rounds: AtomicU64::new(0),
            states_resigned: AtomicU64::new(0),
        })
    }

    /// Overrides the engine options. Resets nothing — call before the
    /// first query.
    pub fn with_options(mut self, opts: EngineOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The system definition this session answers queries about.
    pub fn def(&self) -> &SystemDef {
        &self.def
    }

    /// What has been built so far.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            aggregations_built: self.aggregations_built.load(Ordering::Relaxed),
            absorbing_built: self.absorbing_built.load(Ordering::Relaxed),
            steady_solves: self.steady_solves.load(Ordering::Relaxed),
            poisson_hits: self.ctx.poisson.hits(),
            poisson_misses: self.ctx.poisson.misses(),
            poisson_evictions: self.ctx.poisson.evictions(),
            dtmc_steps: self.ctx.counters.dtmc_steps(),
            sweeps: self.ctx.counters.sweeps(),
            aggregation_us: self.aggregation_us.load(Ordering::Relaxed),
            signature_us: self.signature_us.load(Ordering::Relaxed),
            split_us: self.split_us.load(Ordering::Relaxed),
            quotient_us: self.quotient_us.load(Ordering::Relaxed),
            refine_rounds: self.refine_rounds.load(Ordering::Relaxed),
            states_resigned: self.states_resigned.load(Ordering::Relaxed),
        }
    }

    fn cache(&self, cfg: Config) -> &ConfigCache {
        match cfg {
            Config::Availability => &self.availability,
            Config::NoRepair => &self.no_repair,
        }
    }

    fn config_def(&self, cfg: Config) -> SystemDef {
        match cfg {
            Config::Availability => self.def.clone(),
            Config::NoRepair => self.def.without_repair(),
        }
    }

    /// The aggregation of `cfg`, built on first use. Concurrent callers
    /// block on the same [`RetryCell`], so a cold configuration is
    /// aggregated exactly once no matter how many threads race for it.
    /// When `trace` is given, it records whether this call ran the build
    /// itself or blocked on one in flight.
    fn aggregation_traced(
        &self,
        cfg: Config,
        trace: Option<&TraceCells>,
    ) -> Result<Arc<Aggregation>, ArcadeError> {
        let cache = self.cache(cfg);
        let was_missing = cache.agg.get().is_none();
        let mut ran = false;
        let res = cache.agg.get_or_try_init(|| {
            ran = true;
            let t0 = std::time::Instant::now();
            // Catch panics here (injected faults, budget checkpoints deep
            // in refinement) so waiters blocked on this cell receive a
            // *typed* error instead of a silent retry, and the cell's
            // caching policy below can tell transient failures apart.
            let agg = guarded(None, || {
                chaos::failpoint("session.agg");
                build_aggregation(&self.config_def(cfg), &self.opts)
            });
            if let Ok(a) = &agg {
                self.aggregations_built.fetch_add(1, Ordering::Relaxed);
                let us = |secs: f64| (secs * 1e6) as u64;
                self.aggregation_us
                    .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                self.signature_us
                    .fetch_add(us(a.refine.signature_secs), Ordering::Relaxed);
                self.split_us
                    .fetch_add(us(a.refine.split_secs), Ordering::Relaxed);
                self.quotient_us
                    .fetch_add(us(a.refine.quotient_secs), Ordering::Relaxed);
                self.refine_rounds
                    .fetch_add(a.refine.refine_rounds, Ordering::Relaxed);
                self.states_resigned
                    .fetch_add(a.refine.states_resigned, Ordering::Relaxed);
            }
            match agg {
                Ok(a) => Ok(Ok(Arc::new(a))),
                // Transient failures are not cached: the same build can
                // succeed later (bigger budget, fault injection over).
                Err(e @ (ArcadeError::Budget(_) | ArcadeError::Internal(_))) => Err(e),
                // Deterministic failures are permanent for this
                // definition — cache them like the artifact.
                Err(e) => Ok(Err(e)),
            }
        });
        if let Some(t) = trace {
            if ran {
                t.built.fetch_add(1, Ordering::Relaxed);
            } else if was_missing {
                t.waited.fetch_add(1, Ordering::Relaxed);
            }
        }
        match res {
            Ok(Ok(a)) => Ok(a),
            Ok(Err(e)) | Err(CellError::Init(e)) => Err(e),
            Err(CellError::Interrupted) => Err(ArcadeError::Internal(
                "in-flight aggregation was interrupted; retry".into(),
            )),
        }
    }

    /// The aggregation of `cfg`, built on first use.
    fn aggregation(&self, cfg: Config) -> Result<Arc<Aggregation>, ArcadeError> {
        self.aggregation_traced(cfg, None)
    }

    /// Builds every configuration in `need` that is still missing. The
    /// configurations are independent (different model variants), so when
    /// more than one is missing they are aggregated on concurrent worker
    /// threads, one configuration per worker — each worker runs exactly
    /// the serial aggregation the lazy path would, so the cached
    /// artifacts (and all measures derived from them) are identical to
    /// sequential building.
    ///
    /// # Errors
    ///
    /// Propagates composition/determinism/analysis errors (the first, in
    /// `Config` declaration order).
    fn prefetch(&self, need: &[Config], trace: Option<&TraceCells>) -> Result<(), ArcadeError> {
        let missing: Vec<Config> = need
            .iter()
            .copied()
            .filter(|&c| self.cache(c).agg.get().is_none())
            .collect();
        let threads = ioimc::par::effective_threads(self.opts.threads);
        if missing.len() > 1 && threads > 1 {
            // Each worker routes through the configuration's RetryCell,
            // so a concurrent evaluator racing this prefetch never
            // duplicates a build. Carry the caller's ambient budget into
            // the workers (the thread-local does not cross spawns by
            // itself).
            let budget = budget::current();
            let results = ioimc::par::par_map(threads, &missing, |_, &cfg| {
                budget::scope(budget.clone(), || {
                    self.aggregation_traced(cfg, trace).map(|_| ())
                })
            });
            results.into_iter().collect()
        } else {
            for c in missing {
                self.aggregation_traced(c, trace)?;
            }
            Ok(())
        }
    }

    /// Eagerly builds **both** model configurations (availability and
    /// no-repair), in parallel when more than one thread is available.
    /// Purely an optimization — the lazy per-measure path builds the same
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Propagates composition/determinism/analysis errors.
    pub fn prefetch_all(&self) -> Result<(), ArcadeError> {
        self.prefetch(&[Config::Availability, Config::NoRepair], None)
    }

    /// The aggregation of the availability configuration (repairs active),
    /// building it if this is the first query to need it.
    ///
    /// # Errors
    ///
    /// Propagates composition/determinism/analysis errors.
    pub fn availability_model(&self) -> Result<Arc<Aggregation>, ArcadeError> {
        self.aggregation(Config::Availability)
    }

    /// The aggregation of the no-repair configuration (§5.1.2), building
    /// it if this is the first query to need it.
    ///
    /// # Errors
    ///
    /// Propagates composition/determinism/analysis errors.
    pub fn reliability_model(&self) -> Result<Arc<Aggregation>, ArcadeError> {
        self.aggregation(Config::NoRepair)
    }

    /// Builds exactly the configurations `measures` will need, without
    /// evaluating anything, and reports what that did to the aggregation
    /// cache ([`EvalTrace`]): how many cold configurations this call built
    /// itself, and how many builds already in flight on other threads it
    /// blocked on. A fully warm call reports zeros for both. A subsequent
    /// [`Session::evaluate`] of the same batch finds every aggregation
    /// warm — the `arcaded` server uses this to time the build phase
    /// separately from the solve phase and to attribute each request as a
    /// cache hit, miss or dedup wait.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] for a negative or non-finite
    /// measure time; otherwise propagates composition/determinism/analysis
    /// errors.
    pub fn prefetch_measures(&self, measures: &[Measure]) -> Result<EvalTrace, ArcadeError> {
        let trace = TraceCells::default();
        self.prefetch(&Grids::gather(measures)?.need(), Some(&trace))?;
        Ok(EvalTrace {
            built: trace.built.load(Ordering::Relaxed),
            waited: trace.waited.load(Ordering::Relaxed),
        })
    }

    /// Evaluates one measure. Prefer [`Session::evaluate`] for curves —
    /// single values still benefit from the session's memoized artifacts.
    ///
    /// # Errors
    ///
    /// As [`Session::evaluate`].
    pub fn value(&self, measure: &Measure) -> Result<f64, ArcadeError> {
        Ok(self.evaluate(std::slice::from_ref(measure))?[0])
    }

    /// Evaluates a whole batch in one pass: each needed configuration is
    /// aggregated at most once, and all time points of a kind share one
    /// uniformization sweep. Returns the values in the order of
    /// `measures`.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] for a negative or non-finite
    /// measure time; otherwise propagates composition/determinism/analysis
    /// errors.
    pub fn evaluate(&self, measures: &[Measure]) -> Result<Vec<f64>, ArcadeError> {
        guarded(None, || self.run_batch(measures, None))
    }

    /// Evaluates a measure batch at one parameter point of a parametric
    /// model (one declared via [`SystemDef::add_param`]): the base
    /// aggregation is built (or reused) **once**, and each node of its
    /// quotient's rate-form table is evaluated once at `values`. A
    /// transient measure the cost model sends to the windowed engine
    /// solves on the configuration's cached windowed operator, its rates
    /// refilled from the node values
    /// ([`WindowedOperator::refill`](ctmc::transient::WindowedOperator::refill));
    /// the other measures (steady state, MTTF, interval availability,
    /// bounded until) and solves on the dense or exact kernel run on the
    /// quotient re-rated to `values` ([`Ctmc::rerate`]: same CSR layout,
    /// the Markovian rates gathered from the node values), built only
    /// when one of them needs it. No re-composition, no re-refinement.
    ///
    /// `values` gives one value per **declared** parameter, in declaration
    /// order (positive, finite). Evaluating at the declared base values
    /// reproduces [`Session::evaluate`] bitwise: every form records the
    /// exact sums the aggregation computed (see [`ioimc::form`]), so
    /// re-rating at the base recovers every aggregated rate and exit rate
    /// bit for bit, and the solver path is the same. Away from the base,
    /// a lumped rate is summed in the same grouping as at the base, and a
    /// refilled operator answers bitwise what a solve of the re-rated
    /// chain answers.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] if the model declares no
    /// parameters, the arity is wrong, a value is not positive finite, or
    /// a measure time is negative or non-finite; otherwise propagates
    /// aggregation/analysis errors.
    pub fn evaluate_at(
        &self,
        measures: &[Measure],
        values: &[f64],
    ) -> Result<Vec<f64>, ArcadeError> {
        let names: Vec<String> = self.def.params.iter().map(|p| p.name.clone()).collect();
        let full = self.param_vectors(&names, &[values.to_vec()])?;
        guarded(None, || self.run_batch(measures, Some(&full[0])))
    }

    /// Evaluates a measure batch over a whole [`ParamGrid`]: each needed
    /// configuration is aggregated **once** (at the declared base values),
    /// and its windowed transient operators are ordered and transposed
    /// once; every grid point then evaluates the quotient's form nodes and
    /// solves as [`Session::evaluate_at`] does — a windowed transient
    /// solve refills the cached operator's rates, anything else re-rates
    /// the quotient ([`Ctmc::rerate`]) —
    /// points fan out over worker threads
    /// ([`EngineOptions::with_threads`](crate::engine::EngineOptions)),
    /// and every per-point row is bitwise identical to a fresh session's
    /// [`Session::evaluate_at`] at any thread count (each point is solved
    /// by exactly the code the serial path runs). Finite-difference
    /// sensitivities come with cartesian grids ([`SweepResult`]).
    ///
    /// Per-point scratch artifacts (refilled operators, re-rated chains,
    /// steady vectors, absorbing transforms) are not recorded in
    /// [`SessionStats::steady_solves`] / [`SessionStats::absorbing_built`]
    /// (the configuration's own absorbing-down copy, whose operator the
    /// first-passage points refill, counts once); the solver work itself
    /// shows up in [`SessionStats::dtmc_steps`] / [`SessionStats::sweeps`], and
    /// [`SessionStats::aggregations_built`] stays at one per needed
    /// configuration no matter how many points the grid has.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] for a grid of more than 65,536
    /// points (checked before anything is built or materialized),
    /// unknown/duplicate grid parameter names, ragged explicit points,
    /// non-positive values, or a negative or non-finite measure time;
    /// otherwise propagates aggregation/analysis errors.
    pub fn sweep(
        &self,
        measures: &[Measure],
        grid: &ParamGrid,
    ) -> Result<SweepResult, ArcadeError> {
        let len = grid.len();
        if len > MAX_SWEEP_POINTS {
            let count = if len == usize::MAX {
                format!("more than {len}")
            } else {
                len.to_string()
            };
            return Err(ArcadeError::invalid(format!(
                "the grid has {count} points; a sweep evaluates at most {MAX_SWEEP_POINTS}"
            )));
        }
        let points = grid.points();
        let fulls = self.param_vectors(grid.names(), &points)?;
        // Warm the needed aggregations before fanning out, so the workers
        // never race a cold build and the whole sweep costs exactly one
        // aggregation per configuration.
        self.prefetch(&Grids::gather(measures)?.need(), None)?;
        let threads = ioimc::par::effective_threads(self.opts.threads);
        // Per-point solves honor the caller's ambient budget too: the
        // thread-local is re-installed inside each worker.
        let budget = budget::current();
        let results = ioimc::par::par_map(threads, &fulls, |_, full| {
            budget::scope(budget.clone(), || {
                // The sweep fan-out boundary: one hit per grid point, on
                // the worker about to solve it, inside the re-installed
                // budget so an injected delay observes the request
                // deadline on worker threads too. An injected panic
                // propagates through the scoped join and is classified by
                // the caller's `guarded` ring.
                chaos::failpoint("session.sweep_point");
                guarded(None, || self.run_batch(measures, Some(full)))
            })
        });
        let mut values = Vec::with_capacity(results.len());
        for r in results {
            values.push(r?);
        }
        let sensitivities = sweep_sensitivities(grid, &values, measures.len());
        Ok(SweepResult {
            names: grid.names().to_vec(),
            points,
            values,
            sensitivities,
        })
    }

    /// Checks the points of a sweep over the parameters `names` and
    /// expands each into a full parameter vector: one value per declared
    /// parameter, in declaration order, with the declared base value for
    /// every parameter `names` leaves out.
    fn param_vectors(
        &self,
        names: &[String],
        points: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, ArcadeError> {
        if self.def.params.is_empty() {
            return Err(ArcadeError::invalid(
                "parametric evaluation needs declared rate parameters (SystemDef::add_param)",
            ));
        }
        let mut pids: Vec<usize> = Vec::with_capacity(names.len());
        for n in names {
            let pid = self
                .def
                .param_index(n)
                .ok_or_else(|| ArcadeError::invalid(format!("unknown parameter `{n}`")))?;
            if pids.contains(&pid) {
                return Err(ArcadeError::invalid(format!(
                    "parameter `{n}` appears twice in the grid"
                )));
            }
            pids.push(pid);
        }
        let base: Vec<f64> = self.def.params.iter().map(|p| p.base).collect();
        points
            .iter()
            .map(|pt| {
                if pt.len() != pids.len() {
                    return Err(ArcadeError::invalid(format!(
                        "point {pt:?} has {} values for {} parameters",
                        pt.len(),
                        pids.len()
                    )));
                }
                let mut full = base.clone();
                for ((&pid, &v), n) in pids.iter().zip(pt).zip(names) {
                    if !v.is_finite() || v <= 0.0 {
                        return Err(ArcadeError::invalid(format!(
                            "parameter `{n}`: value {v} must be positive and finite"
                        )));
                    }
                    full[pid] = v;
                }
                Ok(full)
            })
            .collect()
    }

    /// The one batch evaluator: [`Session::evaluate`] runs it on the
    /// memoized configurations (`point` is `None`), [`Session::evaluate_at`]
    /// and [`Session::sweep`] on the cached quotients at a full parameter
    /// vector (refilled operators, or re-rated chains). It gathers one
    /// time grid per (configuration, kind), runs one transient solve per
    /// grid, and reads the results
    /// out in measure order. Both chain sources run the same arithmetic,
    /// so a point at the declared base values reproduces the memoized
    /// path bitwise.
    ///
    /// Its callers run it under [`guarded`] without a budget of their
    /// own: a solver that unwinds with a typed payload — a tripped ambient
    /// budget, or a steady state the solver could not certify
    /// ([`ctmc::CtmcError::Uncertified`]) — answers an error on the thread
    /// that solved it, so the error also survives a sweep's fan-out.
    fn run_batch(
        &self,
        measures: &[Measure],
        point: Option<&[f64]>,
    ) -> Result<Vec<f64>, ArcadeError> {
        let grids = Grids::gather(measures)?;
        // When the batch spans both configurations and neither is built
        // yet, aggregate them concurrently instead of back to back.
        self.prefetch(&grids.need(), None)?;
        let avail_view = if grids.needs_avail {
            Some(self.view(Config::Availability, point)?)
        } else {
            None
        };
        let norepair_view = if grids.fp_norepair.is_empty() {
            None
        } else {
            Some(self.view(Config::NoRepair, point)?)
        };
        let avail = || {
            avail_view
                .as_ref()
                .expect("the batch needs the availability configuration")
        };
        let mut unavail = avail_view
            .as_ref()
            .map_or_else(Vec::new, |v| v.unavailability(&grids.unavail))
            .into_iter();
        let mut fp_repair = avail_view
            .as_ref()
            .map_or_else(Vec::new, |v| v.first_passage(&grids.fp_repair))
            .into_iter();
        let mut fp_norepair = norepair_view
            .map_or_else(Vec::new, |v| v.first_passage(&grids.fp_norepair))
            .into_iter();
        let next =
            |it: &mut std::vec::IntoIter<f64>| it.next().expect("one grid value per measure");

        let (mut steady_down, mut mttf) = (None, None);
        let mut out = Vec::with_capacity(measures.len());
        for m in measures {
            out.push(match m {
                Measure::SteadyStateAvailability => {
                    1.0 - *steady_down.get_or_insert_with(|| avail().steady_down_mass())
                }
                Measure::SteadyStateUnavailability => {
                    *steady_down.get_or_insert_with(|| avail().steady_down_mass())
                }
                Measure::PointAvailability(_) => 1.0 - next(&mut unavail),
                Measure::PointUnavailability(_) => next(&mut unavail),
                Measure::UnreliabilityWithRepair(_) => next(&mut fp_repair),
                Measure::Reliability(_) => 1.0 - next(&mut fp_norepair),
                Measure::Unreliability(_) => next(&mut fp_norepair),
                Measure::Mttf => *mttf.get_or_insert_with(|| avail().mttf()),
                Measure::IntervalAvailability(t) => avail().interval_availability(*t),
                Measure::BoundedUntil { phi, psi, t } => ctmc::csl::until_bounded_ctx(
                    avail().chain(),
                    phi,
                    psi,
                    *t,
                    &self.opts.solver.transient,
                    &self.ctx,
                ),
            });
        }
        Ok(out)
    }

    /// What [`Session::run_batch`] reads of `cfg`: the memoized
    /// aggregation, at its own rates or at the full parameter vector
    /// `point`. A point evaluates the chain's rate-form table once and
    /// rejects it, as [`Ctmc::rerate`] would, when a transition reads a
    /// rate that is not positive and finite.
    fn view(&self, cfg: Config, point: Option<&[f64]>) -> Result<View<'_>, ArcadeError> {
        let agg = self.aggregation(cfg)?;
        let point = match point {
            None => None,
            Some(values) => {
                let forms = agg.ctmc.forms().ok_or(CtmcError::NotParametric)?;
                let nodes = forms.table.eval_all(values);
                let rerated = OnceCell::new();
                if !nodes.iter().all(|&r| r.is_finite() && r > 0.0) {
                    // `rerate` names the first transition, in row order,
                    // that reads a bad node (or finds that none does).
                    let _ = rerated.set(agg.ctmc.rerate(values)?);
                }
                Some(Point {
                    values: values.to_vec(),
                    nodes,
                    rerated,
                })
            }
        };
        let down = self
            .cache(cfg)
            .down
            .get_or_init(|| agg.ctmc.states_with_label(DOWN_BIT).collect());
        Ok(View {
            session: self,
            cfg,
            down: Arc::clone(down),
            agg,
            point,
        })
    }
}

/// Internal, thread-shared accumulation cells behind [`EvalTrace`] (the
/// parallel prefetch records from worker threads).
#[derive(Debug, Default)]
struct TraceCells {
    built: AtomicU32,
    waited: AtomicU32,
}

/// A measure batch split the way [`Session::run_batch`] solves it: one
/// time grid per batched (configuration, kind) pair — point
/// (un)availability and first passage with repairs on the availability
/// configuration, first passage on the no-repair configuration — and
/// whether any measure needs the availability configuration.
#[derive(Debug, Default)]
struct Grids {
    unavail: Vec<f64>,
    fp_repair: Vec<f64>,
    fp_norepair: Vec<f64>,
    needs_avail: bool,
}

impl Grids {
    /// Splits `measures`, rejecting a negative or non-finite time (the
    /// transient kernels assume a valid horizon) before anything is built.
    fn gather(measures: &[Measure]) -> Result<Self, ArcadeError> {
        let mut g = Self::default();
        for m in measures {
            let time = |t: f64| {
                if t.is_finite() && t >= 0.0 {
                    Ok(t)
                } else {
                    Err(ArcadeError::invalid(format!(
                        "{m:?}: time must be finite and non-negative"
                    )))
                }
            };
            match m {
                Measure::PointAvailability(t) | Measure::PointUnavailability(t) => {
                    g.unavail.push(time(*t)?);
                    g.needs_avail = true;
                }
                Measure::UnreliabilityWithRepair(t) => {
                    g.fp_repair.push(time(*t)?);
                    g.needs_avail = true;
                }
                Measure::Reliability(t) | Measure::Unreliability(t) => {
                    g.fp_norepair.push(time(*t)?);
                }
                Measure::IntervalAvailability(t) | Measure::BoundedUntil { t, .. } => {
                    time(*t)?;
                    g.needs_avail = true;
                }
                Measure::SteadyStateAvailability
                | Measure::SteadyStateUnavailability
                | Measure::Mttf => g.needs_avail = true,
            }
        }
        Ok(g)
    }

    /// The configurations the batch needs, in `Config` declaration order:
    /// the no-repair configuration for (un)reliability, the availability
    /// configuration for everything else.
    fn need(&self) -> Vec<Config> {
        let mut need = Vec::new();
        if self.needs_avail {
            need.push(Config::Availability);
        }
        if !self.fp_norepair.is_empty() {
            need.push(Config::NoRepair);
        }
        need
    }
}

/// One configuration's chain as [`Session::run_batch`] reads it: either
/// the memoized aggregation, whose derived artifacts live in the
/// session's [`ConfigCache`] (each built once, counted in
/// [`SessionStats`], behind the `session.solve` failpoint), or one sweep
/// point of it, whose derived artifacts are uncounted per-point scratch.
struct View<'s> {
    session: &'s Session,
    cfg: Config,
    agg: Arc<Aggregation>,
    /// A sweep point; `None` on the memoized path.
    point: Option<Point>,
    down: Arc<[u32]>,
}

/// One sweep point of a configuration's aggregated chain.
struct Point {
    /// The full parameter vector.
    values: Vec<f64>,
    /// The value of every node of the chain's rate-form table.
    nodes: Vec<f64>,
    /// The chain re-rated to the point, built when a solve needs the
    /// chain itself rather than its windowed operator.
    rerated: OnceCell<Ctmc>,
}

impl View<'_> {
    fn chain(&self) -> &Ctmc {
        match &self.point {
            None => &self.agg.ctmc,
            Some(p) => p.rerated.get_or_init(|| {
                self.agg
                    .ctmc
                    .rerate(&p.values)
                    .expect("the point's rates were checked when it was viewed")
            }),
        }
    }

    /// The configuration's memo cells, on the memoized path only.
    fn memo(&self) -> Option<&ConfigCache> {
        self.point.is_none().then(|| self.session.cache(self.cfg))
    }

    /// The memoized absorbing-down transform of the aggregated chain.
    fn absorbing(&self) -> &Ctmc {
        self.session.cache(self.cfg).absorbing.get_or_init(|| {
            self.session.absorbing_built.fetch_add(1, Ordering::Relaxed);
            self.agg.ctmc.make_absorbing(self.down.iter().copied())
        })
    }

    /// The probability mass on the down states at each time of `ts`, from
    /// the initial state of the chain or, with `absorbing`, of its
    /// absorbing-down transform: one batched transient solve (kernel and
    /// detection per [`EngineOptions::solver`], Poisson weights from the
    /// session memo). A windowed solve steps on the configuration's cached
    /// operator, refilled at a sweep point; when the cost model picks
    /// another kernel, the chain itself is solved (re-rated at a point).
    fn down_mass(&self, absorbing: bool, ts: &[f64]) -> Vec<f64> {
        let s = self.session;
        let (opts, ctx) = (&s.opts.solver.transient, &s.ctx);
        let cache = s.cache(self.cfg);
        let (base, cell) = if absorbing {
            (self.absorbing(), &cache.absorbing_operator)
        } else {
            (&self.agg.ctmc, &cache.operator)
        };
        let operator = || cell.get_or_init(|| WindowedOperator::new(base));
        let windowed = match &self.point {
            None => (select_kernel(base, ts, opts) == TransientKernel::Windowed)
                .then(|| transient_many_on(operator(), ts, opts, ctx))
                .flatten(),
            Some(p) => transient_many_on(&operator().refill(base, &p.nodes), ts, opts, ctx),
        };
        let pis = windowed.unwrap_or_else(|| {
            let solve =
                |c: &Ctmc| transient_many_from_ctx(c, &c.initial_distribution(), ts, opts, ctx);
            match (&self.point, absorbing) {
                (None, _) => solve(base),
                (Some(_), false) => solve(self.chain()),
                (Some(_), true) => solve(&self.chain().make_absorbing(self.down.iter().copied())),
            }
        });
        pis.iter().map(|pi| mass(&self.down, pi)).collect()
    }

    /// Point unavailabilities over a grid.
    fn unavailability(&self, ts: &[f64]) -> Vec<f64> {
        if ts.is_empty() {
            return Vec::new();
        }
        if self.memo().is_some() {
            chaos::failpoint("session.solve");
        }
        self.down_mass(false, ts)
    }

    /// First-passage probabilities over a grid: one batched solve of the
    /// absorbing-down transform of the chain.
    fn first_passage(&self, ts: &[f64]) -> Vec<f64> {
        if ts.is_empty() || self.down.is_empty() {
            return vec![0.0; ts.len()];
        }
        self.down_mass(true, ts)
    }

    /// The long-run probability of being down.
    fn steady_down_mass(&self) -> f64 {
        let solve = || ctmc::steady::steady_state_with(self.chain(), &self.session.opts.solver);
        match self.memo() {
            Some(cache) => mass(
                &self.down,
                cache.steady.get_or_init(|| {
                    chaos::failpoint("session.solve");
                    // Counted once it returns: an aborted solve caches
                    // nothing, so it must not count either.
                    let pi = solve();
                    self.session.steady_solves.fetch_add(1, Ordering::Relaxed);
                    pi
                }),
            ),
            None => mass(&self.down, &solve()),
        }
    }

    /// The mean time to the first down state.
    fn mttf(&self) -> f64 {
        let solve = || {
            if self.down.is_empty() {
                f64::INFINITY
            } else {
                ctmc::absorbing::mean_time_to_absorption_with(
                    self.chain(),
                    &self.down,
                    &self.session.opts.solver,
                )
            }
        };
        match self.memo() {
            Some(cache) => *cache.mttf.get_or_init(|| {
                chaos::failpoint("session.solve");
                solve()
            }),
            None => solve(),
        }
    }

    /// The expected up fraction of `[0, t]`; at `t = 0` its limit `A(0)`,
    /// one minus the initial down mass.
    fn interval_availability(&self, t: f64) -> f64 {
        let chain = self.chain();
        if t == 0.0 {
            return 1.0 - mass(&self.down, &chain.initial_distribution());
        }
        1.0 - ctmc::csl::interval_down_fraction_ctx(
            chain,
            &StateFormula::down(),
            t,
            &self.session.opts.solver.transient,
            &self.session.ctx,
        )
    }
}

/// Central-difference sensitivities over a cartesian grid: for point `i`,
/// measure `j`, and grid axis `k`, the slope between the two grid
/// neighbours along axis `k` — one-sided at the axis edges, `None` when
/// the axis has fewer than two distinct values or the grid is an explicit
/// point list (no neighbour structure to difference over). Layout:
/// `result[point][measure][axis]`.
fn sweep_sensitivities(
    grid: &ParamGrid,
    values: &[Vec<f64>],
    num_measures: usize,
) -> Vec<Vec<Vec<Option<f64>>>> {
    let GridKind::Cartesian(axes) = &grid.kind else {
        return values
            .iter()
            .map(|_| vec![vec![None; grid.names().len()]; num_measures])
            .collect();
    };
    let lens: Vec<usize> = axes.iter().map(Vec::len).collect();
    // Row-major strides: the last axis varies fastest, matching
    // `ParamGrid::points`.
    let mut strides = vec![1usize; lens.len()];
    for k in (0..lens.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * lens[k + 1];
    }
    (0..values.len())
        .map(|i| {
            (0..num_measures)
                .map(|j| {
                    (0..lens.len())
                        .map(|k| {
                            if lens[k] < 2 {
                                return None;
                            }
                            let ik = (i / strides[k]) % lens[k];
                            let lo = ik.saturating_sub(1);
                            let hi = (ik + 1).min(lens[k] - 1);
                            let dx = axes[k][hi] - axes[k][lo];
                            if dx == 0.0 {
                                return None;
                            }
                            let i_lo = i - (ik - lo) * strides[k];
                            let i_hi = i + (hi - ik) * strides[k];
                            Some((values[i_hi][j] - values[i_lo][j]) / dx)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Elaborates `def` and runs compositional aggregation — the unit of work
/// a configuration build costs, shared by the lazy and parallel paths.
fn build_aggregation(def: &SystemDef, opts: &EngineOptions) -> Result<Aggregation, ArcadeError> {
    let model = SystemModel::build(def)?;
    aggregate(&model, opts)
}

/// Runs `f` with `budget`, when one is given, installed as the ambient
/// [`ioimc::budget`] scope (the session carries it across its internal
/// fan-outs), and converts any panic escaping `f` into a typed error with
/// `classify_panic`, consulting `budget` or, without one, the ambient
/// budget. Without a budget the ambient scope is left as it is. See the
/// module docs on budgets and panics.
///
/// # Errors
///
/// [`ArcadeError::Budget`] when a budget limit trips,
/// [`ArcadeError::Analysis`] when a steady-state solve ended uncertified,
/// [`ArcadeError::Internal`] when `f` panicked otherwise; else whatever
/// `f` returns.
pub fn guarded<R>(
    budget: Option<Arc<Budget>>,
    f: impl FnOnce() -> Result<R, ArcadeError>,
) -> Result<R, ArcadeError> {
    let consulted = budget.clone().or_else(budget::current);
    match std::panic::catch_unwind(AssertUnwindSafe(|| budget::scope(budget, f))) {
        Ok(r) => r,
        Err(payload) => Err(classify_panic(payload.as_ref(), consulted.as_deref())),
    }
}

/// Classifies a caught panic payload: a [`BudgetExceeded`] payload (or a
/// trip recorded on `budget` — scoped-thread joins may swallow the typed
/// payload) becomes [`ArcadeError::Budget`]; a [`ctmc::CtmcError`]
/// payload (an uncertified steady-state solve) becomes
/// [`ArcadeError::Analysis`]; anything else becomes
/// [`ArcadeError::Internal`] carrying the panic message.
fn classify_panic(payload: &(dyn std::any::Any + Send), budget: Option<&Budget>) -> ArcadeError {
    if let Some(e) = payload.downcast_ref::<BudgetExceeded>() {
        return ArcadeError::Budget(*e);
    }
    if let Some(e) = payload.downcast_ref::<ctmc::CtmcError>() {
        return e.clone().into();
    }
    if let Some(e) = budget.and_then(Budget::tripped) {
        return ArcadeError::Budget(e);
    }
    ArcadeError::Internal(panic_message(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BcDef, RepairStrategy, RuDef};
    use crate::dist::Dist;
    use crate::expr::Expr;

    fn pair() -> SystemDef {
        let mut def = SystemDef::new("pair");
        def.add_component(BcDef::new("a", Dist::exp(0.01), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.02), Dist::exp(2.0)));
        def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::or([Expr::down("a"), Expr::down("b")]));
        def
    }

    #[test]
    fn session_is_lazy_per_configuration() {
        let session = Session::new(&pair()).unwrap();
        assert_eq!(session.stats().aggregations_built, 0);
        let _ = session
            .evaluate(&[
                Measure::SteadyStateAvailability,
                Measure::PointAvailability(5.0),
                Measure::Mttf,
            ])
            .unwrap();
        // Only the availability configuration was needed.
        assert_eq!(session.stats().aggregations_built, 1);
        let _ = session.value(&Measure::Reliability(5.0)).unwrap();
        assert_eq!(session.stats().aggregations_built, 2);
        // Repeat queries rebuild nothing.
        let _ = session
            .evaluate(&[Measure::Reliability(7.0), Measure::Mttf])
            .unwrap();
        assert_eq!(session.stats().aggregations_built, 2);
        assert_eq!(session.stats().steady_solves, 1);
        assert_eq!(session.stats().absorbing_built, 1);
    }

    #[test]
    fn batch_matches_singletons() {
        let session = Session::new(&pair()).unwrap();
        let batch = [
            Measure::SteadyStateUnavailability,
            Measure::PointUnavailability(3.0),
            Measure::Reliability(3.0),
            Measure::UnreliabilityWithRepair(3.0),
            Measure::Mttf,
        ];
        let values = session.evaluate(&batch).unwrap();
        let fresh = Session::new(&pair()).unwrap();
        for (m, &v) in batch.iter().zip(&values) {
            let single = fresh.value(m).unwrap();
            assert!(
                (single - v).abs() < 1e-12,
                "{m:?}: batch {v} vs single {single}"
            );
        }
    }

    #[test]
    fn closed_forms_hold() {
        let session = Session::new(&pair()).unwrap();
        // independent dedicated repair: A = Π µ/(λ+µ)
        let a = session.value(&Measure::SteadyStateAvailability).unwrap();
        let expected = (1.0 / 1.01) * (2.0 / 2.02);
        assert!((a - expected).abs() < 1e-10, "{a} vs {expected}");
        // series system, no repair: R(t) = e^{-(λ1+λ2)t}
        let t = 7.0;
        let r = session.value(&Measure::Reliability(t)).unwrap();
        assert!((r - (-0.03f64 * t).exp()).abs() < 1e-9);
        // complementarity inside one batch
        let v = session
            .evaluate(&[
                Measure::PointAvailability(t),
                Measure::PointUnavailability(t),
                Measure::Unreliability(t),
                Measure::Reliability(t),
            ])
            .unwrap();
        assert!((v[0] + v[1] - 1.0).abs() < 1e-12);
        assert!((v[2] + v[3] - 1.0).abs() < 1e-12);
        // steady unavailability + availability = 1
        let u = session.value(&Measure::SteadyStateUnavailability).unwrap();
        assert!((u + a - 1.0).abs() < 1e-12);
        // point availability starts at 1 and decreases toward steady state
        let p = session
            .evaluate(&[
                Measure::PointAvailability(0.0),
                Measure::PointUnavailability(1000.0),
            ])
            .unwrap();
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p[1] > 0.0);
        // MTTF of a series system: 1/(λ1+λ2) (both dedicated repairs can't
        // prevent the first failure)
        let mttf = session.value(&Measure::Mttf).unwrap();
        assert!((mttf - 1.0 / 0.03).abs() < 1e-6);
    }

    #[test]
    fn first_passage_differs_from_no_repair_reliability() {
        // redundant pair with repair: first-passage unreliability is much
        // smaller than the no-repair unreliability
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.1), Dist::exp(5.0)));
        def.add_component(BcDef::new("b", Dist::exp(0.1), Dist::exp(5.0)));
        def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
        let t = 10.0;
        let v = Session::new(&def)
            .unwrap()
            .evaluate(&[
                Measure::UnreliabilityWithRepair(t),
                Measure::Unreliability(t),
            ])
            .unwrap();
        let (with_repair, without) = (v[0], v[1]);
        assert!(with_repair < without);
        assert!(with_repair > 0.0);
    }

    /// A negative or non-finite time is refused before anything is built,
    /// on the memoized and the sweep path alike; interval availability at
    /// `t = 0` answers its limit `A(0)`.
    #[test]
    fn bad_measure_times_are_invalid() {
        let session = Session::new(&param_pair()).unwrap();
        let grid = ParamGrid::cartesian([("lambda_a", vec![0.01])]);
        let until = |t| Measure::BoundedUntil {
            phi: StateFormula::up(),
            psi: StateFormula::down(),
            t,
        };
        for bad in [
            Measure::Reliability(-1.0),
            Measure::PointUnavailability(f64::NAN),
            Measure::PointUnavailability(f64::INFINITY),
            Measure::IntervalAvailability(-1.0),
            until(-1.0),
            Measure::UnreliabilityWithRepair(f64::NAN),
        ] {
            let batch = [Measure::SteadyStateAvailability, bad];
            assert!(
                matches!(session.evaluate(&batch), Err(ArcadeError::Invalid(_))),
                "evaluate {batch:?}"
            );
            assert!(
                matches!(session.sweep(&batch, &grid), Err(ArcadeError::Invalid(_))),
                "sweep {batch:?}"
            );
        }
        assert_eq!(session.stats().aggregations_built, 0);
        let a0 = session.value(&Measure::IntervalAvailability(0.0)).unwrap();
        assert_eq!(a0, 1.0);
    }

    #[test]
    fn parallel_prefetch_matches_lazy_sequential() {
        // A batch that needs both configurations on a fresh session takes
        // the concurrent prefetch path; a session with threads=1 takes
        // the lazy sequential path. Values must agree bitwise.
        let batch = [
            Measure::SteadyStateAvailability,
            Measure::PointUnavailability(5.0),
            Measure::Reliability(5.0),
            Measure::UnreliabilityWithRepair(5.0),
            Measure::Mttf,
        ];
        let par = Session::new(&pair()).unwrap();
        let par_values = par.evaluate(&batch).unwrap();
        assert_eq!(par.stats().aggregations_built, 2);
        let seq = Session::new(&pair())
            .unwrap()
            .with_options(crate::engine::EngineOptions::new().with_threads(1));
        let seq_values = seq.evaluate(&batch).unwrap();
        for (m, (p, s)) in batch.iter().zip(par_values.iter().zip(&seq_values)) {
            assert_eq!(p.to_bits(), s.to_bits(), "{m:?}: {p} vs {s}");
        }
        // prefetch_all on an already-warm session is a no-op.
        par.prefetch_all().unwrap();
        assert_eq!(par.stats().aggregations_built, 2);
    }

    #[test]
    fn missing_system_down_rejected() {
        let mut def = SystemDef::new("t");
        def.add_component(BcDef::new("a", Dist::exp(0.01), Dist::exp(1.0)));
        assert!(Session::new(&def).is_err());
    }

    /// A uniform grid steps by one `Λ·Δt`, so the session's Poisson memo
    /// answers every segment after the first — and a repeated batch
    /// recomputes no weight vector at all.
    #[test]
    fn uniform_grid_reuses_poisson_weights() {
        let mut opts = crate::engine::EngineOptions::new();
        opts.solver.transient.steady_tol = 0.0; // keep every segment stepping
        let session = Session::new(&pair()).unwrap().with_options(opts);
        let batch: Vec<Measure> = (1..=6)
            .map(|k| Measure::PointUnavailability(f64::from(k) * 10.0))
            .collect();
        let _ = session.evaluate(&batch).unwrap();
        let first = session.stats();
        assert!(first.poisson_hits >= 4, "{first:?}");
        let _ = session.evaluate(&batch).unwrap();
        let second = session.stats();
        assert!(second.poisson_hits > first.poisson_hits, "{second:?}");
        assert_eq!(second.poisson_misses, first.poisson_misses, "{second:?}");
    }

    #[test]
    fn csl_measures_route_through_the_session() {
        let session = Session::new(&pair()).unwrap();
        let t = 10.0;
        let until = session
            .value(&Measure::BoundedUntil {
                phi: StateFormula::up(),
                psi: StateFormula::down(),
                t,
            })
            .unwrap();
        let fp = session.value(&Measure::UnreliabilityWithRepair(t)).unwrap();
        assert!((until - fp).abs() < 1e-12);
        let ia = session.value(&Measure::IntervalAvailability(t)).unwrap();
        let pa = session.value(&Measure::PointAvailability(t)).unwrap();
        assert!(ia <= 1.0 && ia >= pa - 1e-9);
    }

    /// The [`pair`] system with the failure rate of `a` and the repair
    /// rate of `b` declared as sweep parameters (at their concrete values
    /// as bases).
    fn param_pair() -> SystemDef {
        let mut def = pair();
        def.add_param("lambda_a", 0.01).add_param("mu_b", 2.0);
        def
    }

    #[test]
    fn evaluate_at_base_reproduces_evaluate_bitwise() {
        let def = param_pair();
        let session = Session::new(&def).unwrap();
        let measures = [
            Measure::SteadyStateAvailability,
            Measure::PointUnavailability(5.0),
            Measure::UnreliabilityWithRepair(5.0),
            Measure::Unreliability(5.0),
            Measure::Mttf,
            Measure::IntervalAvailability(5.0),
        ];
        let memo = session.evaluate(&measures).unwrap();
        let at = session.evaluate_at(&measures, &[0.01, 2.0]).unwrap();
        for (m, (a, b)) in measures.iter().zip(memo.iter().zip(&at)) {
            assert_eq!(a.to_bits(), b.to_bits(), "{m:?}: memo {a} vs at-base {b}");
        }
    }

    #[test]
    fn sweep_is_one_aggregation_and_matches_fresh_points_bitwise() {
        let def = param_pair();
        let session = Session::new(&def).unwrap();
        let measures = [
            Measure::SteadyStateUnavailability,
            Measure::Unreliability(4.0),
            Measure::Mttf,
        ];
        let grid = ParamGrid::cartesian([
            ("lambda_a", vec![0.005, 0.01, 0.02]),
            ("mu_b", vec![1.0, 2.0]),
        ]);
        let result = session.sweep(&measures, &grid).unwrap();
        assert_eq!(result.points.len(), 6);
        assert_eq!(result.values.len(), 6);
        // Both configurations were needed; each was aggregated exactly
        // once for the entire grid.
        assert_eq!(session.stats().aggregations_built, 2);
        // Grid names match the declared parameter order here, so a point
        // is already a full parameter vector.
        for (pt, row) in result.points.iter().zip(&result.values) {
            let fresh = Session::new(&def).unwrap();
            let vals = fresh.evaluate_at(&measures, pt).unwrap();
            for (m, (a, b)) in measures.iter().zip(vals.iter().zip(row)) {
                assert_eq!(a.to_bits(), b.to_bits(), "{m:?} at {pt:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn cartesian_sensitivities_are_finite_differences() {
        let session = Session::new(&param_pair()).unwrap();
        let axis = vec![0.005, 0.01, 0.02];
        let grid = ParamGrid::cartesian([("lambda_a", axis.clone())]);
        let r = session
            .sweep(&[Measure::SteadyStateUnavailability], &grid)
            .unwrap();
        // One swept axis per point/measure, even though two parameters
        // are declared.
        assert_eq!(r.sensitivities[1][0].len(), 1);
        let central = (r.values[2][0] - r.values[0][0]) / (axis[2] - axis[0]);
        assert_eq!(
            r.sensitivities[1][0][0].unwrap().to_bits(),
            central.to_bits()
        );
        let left = (r.values[1][0] - r.values[0][0]) / (axis[1] - axis[0]);
        assert_eq!(r.sensitivities[0][0][0].unwrap().to_bits(), left.to_bits());
        // A higher failure rate means more steady-state unavailability.
        assert!(central > 0.0);
        // Explicit point lists carry no neighbour structure: no slopes.
        let list = ParamGrid::points_list(["lambda_a"], vec![vec![0.005], vec![0.02]]);
        let r = session
            .sweep(&[Measure::SteadyStateUnavailability], &list)
            .unwrap();
        assert!(r
            .sensitivities
            .iter()
            .flatten()
            .flatten()
            .all(Option::is_none));
    }

    /// A grid above the point cap answers `Invalid` before anything is
    /// built: 3 × 10,000 values name 10^12 points, and 8 × 1,000 values
    /// (10^24) overflow `usize`.
    #[test]
    fn oversized_sweep_grids_are_invalid() {
        let def = crate::cases::dds_scaled_parametric(2);
        let session = Session::new(&def).unwrap();
        let axis = |n: usize| (1..=n).map(|i| 1e-4 * i as f64).collect::<Vec<f64>>();
        let names: Vec<String> = def.params.iter().map(|p| p.name.clone()).collect();
        let wide = ParamGrid::cartesian(names.iter().map(|n| (n.clone(), axis(10_000))));
        assert_eq!(wide.len(), 1_000_000_000_000);
        let deep = ParamGrid::cartesian((0..8).map(|i| (format!("p{i}"), axis(1_000))));
        assert_eq!(deep.len(), usize::MAX);
        for (grid, count) in [(wide, "1000000000000"), (deep, "more than")] {
            match session.sweep(&[Measure::Mttf], &grid) {
                Err(ArcadeError::Invalid(msg)) => assert!(msg.contains(count), "{msg}"),
                other => panic!("expected Invalid, got {other:?}"),
            }
        }
        assert_eq!(session.stats().aggregations_built, 0);
    }

    #[test]
    fn sweep_and_evaluate_at_validate_inputs() {
        let plain = Session::new(&pair()).unwrap();
        assert!(plain.evaluate_at(&[Measure::Mttf], &[0.01]).is_err());
        let session = Session::new(&param_pair()).unwrap();
        // wrong arity, non-positive value
        assert!(session.evaluate_at(&[Measure::Mttf], &[0.01]).is_err());
        assert!(session
            .evaluate_at(&[Measure::Mttf], &[0.01, -1.0])
            .is_err());
        // unknown and duplicate grid parameters
        let unknown = ParamGrid::cartesian([("nope", vec![1.0])]);
        assert!(session.sweep(&[Measure::Mttf], &unknown).is_err());
        let dup = ParamGrid::points_list(["lambda_a", "lambda_a"], vec![vec![0.01, 0.01]]);
        assert!(session.sweep(&[Measure::Mttf], &dup).is_err());
        // ragged explicit point
        let ragged = ParamGrid::points_list(["lambda_a"], vec![vec![0.01, 0.02]]);
        assert!(session.sweep(&[Measure::Mttf], &ragged).is_err());
    }

    /// Two components with Erlang-100 and Erlang-90 lifetimes make a
    /// 9,191-state chain (its MTTF's regenerative chain: 9,001), past the
    /// solver's 8,192-state rescue limit. Solved on the iterative path
    /// with one sweep, neither can be certified: the solver unwinds with a
    /// typed `CtmcError` payload, which the batch's [`guarded`] answers as
    /// an analysis error for the steady state and the MTTF, and the
    /// session keeps answering the measures it can.
    #[test]
    fn uncertified_solves_answer_an_analysis_error() {
        let mut def = SystemDef::new("long_lived");
        def.add_component(BcDef::new("a", Dist::erlang(100, 1.0), Dist::exp(1.0)));
        def.add_component(BcDef::new("b", Dist::erlang(90, 2.0), Dist::exp(3.0)));
        def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::or([Expr::down("a"), Expr::down("b")]));
        let mut opts = EngineOptions::new();
        opts.solver = opts.solver.with_dense_limit(0).with_max_sweeps(1);
        let session = Session::new(&def).unwrap().with_options(opts);
        for m in [Measure::SteadyStateUnavailability, Measure::Mttf] {
            match session.value(&m) {
                Err(ArcadeError::Analysis(msg)) => assert!(msg.contains("uncertified"), "{msg}"),
                other => panic!("{m:?}: expected an analysis error, got {other:?}"),
            }
        }
        assert!(session.value(&Measure::PointUnavailability(1.0)).is_ok());
        assert_eq!(session.stats().steady_solves, 0);
    }

    /// An Erlang lifetime of 256 phases is the longest a component
    /// automaton indexes: with dedicated repair it aggregates to 257
    /// states. Longer ones, whose phase index would wrap, are refused
    /// before anything is built.
    #[test]
    fn erlang_phases_past_256_are_invalid() {
        let single = |k: u32| {
            let mut def = SystemDef::new("long_erlang");
            def.add_component(BcDef::new("a", Dist::erlang(k, 1.0), Dist::exp(1.0)));
            def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
            def.set_system_down(Expr::down("a"));
            def
        };
        let session = Session::new(&single(256)).unwrap();
        assert_eq!(session.availability_model().unwrap().ctmc.num_states(), 257);
        for k in [257, 300, u32::MAX] {
            match Session::new(&single(k)) {
                Err(ArcadeError::Invalid(msg)) => assert!(msg.contains("component `a`"), "{msg}"),
                other => panic!("erlang({k}): expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn solver_counters_are_per_session() {
        let a = Session::new(&pair()).unwrap();
        let b = Session::new(&pair()).unwrap();
        let _ = a.value(&Measure::PointUnavailability(5.0)).unwrap();
        assert!(a.stats().dtmc_steps > 0);
        assert!(a.stats().sweeps > 0);
        assert_eq!(b.stats().dtmc_steps, 0, "sessions must not share counters");
        assert_eq!(b.stats().sweeps, 0);
    }
}
