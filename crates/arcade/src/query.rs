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
//! configuration) and the MTTF are each computed at most once. A batch
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
//! savings).
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

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ctmc::csl::StateFormula;
use ctmc::measures::state_mass as mass;
use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext, TransientOptions};
use ioimc::budget::{self, Budget, BudgetExceeded};

use crate::ast::SystemDef;
use crate::build::observer::DOWN_BIT;
use crate::chaos;
use crate::engine::{aggregate, Aggregation, EngineOptions};
use crate::error::ArcadeError;
use crate::model::SystemModel;
use crate::sync::{CellError, RetryCell};

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
    /// Steady-state solves run (≤ 1 — only the availability steady state
    /// is ever needed).
    pub steady_solves: u32,
    /// Poisson weight lookups answered from the session memo.
    pub poisson_hits: u64,
    /// Poisson weight lookups that had to expand a fresh vector.
    pub poisson_misses: u64,
    /// Poisson weight vectors evicted from the session's bounded memo
    /// (see [`ctmc::poisson::DEFAULT_CAPACITY`]).
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

/// What one [`Session::evaluate_traced`] call did to the aggregation
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

    /// Number of points the grid enumerates.
    pub fn len(&self) -> usize {
        match &self.kind {
            GridKind::Cartesian(axes) => axes.iter().map(Vec::len).product(),
            GridKind::Explicit(ps) => ps.len(),
        }
    }

    /// Whether the grid enumerates no points at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the points, each a vector of values in `names` order.
    pub fn points(&self) -> Vec<Vec<f64>> {
        match &self.kind {
            GridKind::Explicit(ps) => ps.clone(),
            GridKind::Cartesian(axes) => {
                let total: usize = axes.iter().map(Vec::len).product();
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
#[derive(Debug, Clone, Default)]
struct ConfigCache {
    agg: RetryCell<Result<Arc<Aggregation>, ArcadeError>, ArcadeError>,
    steady: OnceLock<Vec<f64>>,
    down: OnceLock<Arc<[u32]>>,
    absorbing: OnceLock<Ctmc>,
    mttf: OnceLock<f64>,
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
/// from any number of threads. Every cached artifact sits in a
/// [`OnceLock`], so concurrent first requests for the same artifact block
/// on one build instead of duplicating it, and repeat queries are
/// lock-free reads. Answers are identical to single-threaded evaluation —
/// the memoized artifacts are built by exactly the code the serial path
/// runs (and the engines themselves are bitwise thread-count-invariant).
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

impl Clone for Session {
    /// Clones the definition, options and every artifact cached so far
    /// (counter snapshots included) — the clone answers warm queries warm.
    fn clone(&self) -> Self {
        Self {
            def: self.def.clone(),
            opts: self.opts.clone(),
            availability: self.availability.clone(),
            no_repair: self.no_repair.clone(),
            ctx: self.ctx.clone(),
            aggregations_built: AtomicU32::new(self.aggregations_built.load(Ordering::Relaxed)),
            absorbing_built: AtomicU32::new(self.absorbing_built.load(Ordering::Relaxed)),
            steady_solves: AtomicU32::new(self.steady_solves.load(Ordering::Relaxed)),
            aggregation_us: AtomicU64::new(self.aggregation_us.load(Ordering::Relaxed)),
            signature_us: AtomicU64::new(self.signature_us.load(Ordering::Relaxed)),
            split_us: AtomicU64::new(self.split_us.load(Ordering::Relaxed)),
            quotient_us: AtomicU64::new(self.quotient_us.load(Ordering::Relaxed)),
            refine_rounds: AtomicU64::new(self.refine_rounds.load(Ordering::Relaxed)),
            states_resigned: AtomicU64::new(self.states_resigned.load(Ordering::Relaxed)),
        }
    }
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
    /// block on the same [`OnceLock`], so a cold configuration is
    /// aggregated exactly once no matter how many threads race for it;
    /// `opts` overrides the engine options the winning build runs with
    /// (results are thread-count-invariant, so which caller wins never
    /// changes the artifact). When `trace` is given, it records whether
    /// this call ran the build itself or blocked on one in flight.
    fn aggregation_traced(
        &self,
        cfg: Config,
        opts: &EngineOptions,
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
            let agg = catch_eval(|| {
                chaos::failpoint("session.agg");
                build_aggregation(&self.config_def(cfg), opts)
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

    /// The aggregation of `cfg`, built on first use (session options).
    fn aggregation(&self, cfg: Config) -> Result<Arc<Aggregation>, ArcadeError> {
        self.aggregation_traced(cfg, &self.opts, None)
    }

    /// Builds every configuration in `need` that is still missing. The
    /// configurations are independent (different model variants), so when
    /// more than one is missing they are aggregated on concurrent worker
    /// threads — each worker runs exactly the computation the lazy path
    /// would, so the cached artifacts (and all measures derived from
    /// them) are identical to sequential building.
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
            // Split the thread budget across the configuration builds to
            // bound the total thread count. Each worker still routes
            // through the configuration's OnceLock, so a concurrent
            // evaluator racing this prefetch never duplicates a build.
            let worker_opts = self
                .opts
                .clone()
                .with_threads(ioimc::par::split_budget(threads, missing.len()));
            // Carry the caller's ambient budget into the workers (the
            // thread-local does not cross spawns by itself).
            let budget = budget::current();
            let results = ioimc::par::par_map(missing.len(), &missing, |_, &cfg| {
                budget::scope(budget.clone(), || {
                    self.aggregation_traced(cfg, &worker_opts, trace)
                        .map(|_| ())
                })
            });
            for r in results {
                r?;
            }
        } else {
            for c in missing {
                self.aggregation_traced(c, &self.opts, trace)?;
            }
        }
        Ok(())
    }

    /// Eagerly builds **both** model configurations (availability and
    /// no-repair), in parallel when more than one thread is available.
    /// Used by the eager [`crate::analysis::Analysis::run`] wrapper;
    /// purely an optimization — the lazy per-measure path builds the same
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

    fn down_states(&self, cfg: Config) -> Result<Arc<[u32]>, ArcadeError> {
        let agg = self.aggregation(cfg)?;
        Ok(self
            .cache(cfg)
            .down
            .get_or_init(|| agg.ctmc.states_with_label(DOWN_BIT).collect())
            .clone())
    }

    fn steady(&self, cfg: Config) -> Result<&[f64], ArcadeError> {
        let agg = self.aggregation(cfg)?;
        Ok(self.cache(cfg).steady.get_or_init(|| {
            chaos::failpoint("session.solve");
            self.steady_solves.fetch_add(1, Ordering::Relaxed);
            ctmc::steady::steady_state_with(&agg.ctmc, &self.opts.solver)
        }))
    }

    fn absorbing(&self, cfg: Config) -> Result<&Ctmc, ArcadeError> {
        let down = self.down_states(cfg)?;
        let agg = self.aggregation(cfg)?;
        Ok(self.cache(cfg).absorbing.get_or_init(|| {
            self.absorbing_built.fetch_add(1, Ordering::Relaxed);
            agg.ctmc.make_absorbing(down.iter().copied())
        }))
    }

    fn mttf(&self) -> Result<f64, ArcadeError> {
        let down = self.down_states(Config::Availability)?;
        let agg = self.aggregation(Config::Availability)?;
        Ok(*self.cache(Config::Availability).mttf.get_or_init(|| {
            chaos::failpoint("session.solve");
            if down.is_empty() {
                f64::INFINITY
            } else {
                ctmc::absorbing::mean_time_to_absorption_with(&agg.ctmc, &down, &self.opts.solver)
            }
        }))
    }

    fn steady_down_mass(&self) -> Result<f64, ArcadeError> {
        let down = self.down_states(Config::Availability)?;
        let pi = self.steady(Config::Availability)?;
        Ok(mass(&down, pi))
    }

    /// Point unavailabilities over a grid: one batched transient sweep on
    /// the availability CTMC (kernel and detection per
    /// [`EngineOptions::solver`], Poisson weights from the session memo).
    fn unavailability_curve(&self, ts: &[f64]) -> Result<Vec<f64>, ArcadeError> {
        let down = self.down_states(Config::Availability)?;
        let agg = self.aggregation(Config::Availability)?;
        let ctmc = &agg.ctmc;
        chaos::failpoint("session.solve");
        Ok(transient_many_from_ctx(
            ctmc,
            &ctmc.initial_distribution(),
            ts,
            &self.opts.solver.transient,
            &self.ctx,
        )
        .iter()
        .map(|pi| mass(&down, pi))
        .collect())
    }

    /// First-passage probabilities over a grid for `cfg`: one cached
    /// absorbing transformation, one batched sweep.
    fn first_passage_curve(&self, cfg: Config, ts: &[f64]) -> Result<Vec<f64>, ArcadeError> {
        let down = self.down_states(cfg)?;
        if down.is_empty() {
            return Ok(vec![0.0; ts.len()]);
        }
        let absorbing = self.absorbing(cfg)?;
        Ok(transient_many_from_ctx(
            absorbing,
            &absorbing.initial_distribution(),
            ts,
            &self.opts.solver.transient,
            &self.ctx,
        )
        .iter()
        .map(|pi| mass(&down, pi))
        .collect())
    }

    /// Builds exactly the configurations `measures` will need, without
    /// evaluating anything, and reports what that did to the aggregation
    /// cache. A subsequent [`Session::evaluate`] of the same batch finds
    /// every aggregation warm — the `arcaded` server uses this to time
    /// the build phase separately from the sweep phase.
    ///
    /// # Errors
    ///
    /// Propagates composition/determinism/analysis errors.
    pub fn prefetch_measures(&self, measures: &[Measure]) -> Result<EvalTrace, ArcadeError> {
        let trace = TraceCells::default();
        self.prefetch(&needed_configs(measures), Some(&trace))?;
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
    /// Propagates composition/determinism/analysis errors.
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
    /// Propagates composition/determinism/analysis errors.
    pub fn evaluate(&self, measures: &[Measure]) -> Result<Vec<f64>, ArcadeError> {
        Ok(self.evaluate_traced(measures)?.0)
    }

    /// [`Session::evaluate`] under a wall-clock deadline: the evaluation
    /// aborts cooperatively (at composition chunks, refinement rounds,
    /// uniformization segments, solver sweeps) once `deadline` has
    /// elapsed, returning [`ArcadeError::Budget`] instead of running to
    /// completion. Artifacts finished before the trip stay cached; a
    /// partially built aggregation is discarded, and a later call — with
    /// a larger budget — rebuilds it from scratch.
    ///
    /// # Errors
    ///
    /// [`ArcadeError::Budget`] on deadline expiry; otherwise as
    /// [`Session::evaluate`].
    pub fn evaluate_deadline(
        &self,
        measures: &[Measure],
        deadline: Duration,
    ) -> Result<Vec<f64>, ArcadeError> {
        self.evaluate_bounded(
            measures,
            Arc::new(Budget::unlimited().with_deadline(deadline)),
        )
    }

    /// [`Session::evaluate`] under an explicit [`Budget`] (deadline,
    /// state/transition ceilings, cancellation — see [`ioimc::budget`]).
    /// The budget is installed as the ambient scope of the evaluation and
    /// carried across its internal fan-outs; any panic escaping the
    /// evaluation (a budget checkpoint deep in a solver, an injected
    /// fault) is caught here and classified into [`ArcadeError::Budget`]
    /// or [`ArcadeError::Internal`] — it never unwinds into the caller.
    ///
    /// Hold a clone of the `Arc` and call [`Budget::cancel`] from another
    /// thread to abort an evaluation in flight.
    ///
    /// # Errors
    ///
    /// [`ArcadeError::Budget`] when a limit trips,
    /// [`ArcadeError::Internal`] when the evaluation panicked; otherwise
    /// as [`Session::evaluate`].
    pub fn evaluate_bounded(
        &self,
        measures: &[Measure],
        budget: Arc<Budget>,
    ) -> Result<Vec<f64>, ArcadeError> {
        let scoped = budget.clone();
        match std::panic::catch_unwind(AssertUnwindSafe(|| {
            budget::scope(Some(scoped), || self.evaluate(measures))
        })) {
            Ok(r) => r,
            Err(payload) => Err(classify_panic(payload.as_ref(), Some(&budget))),
        }
    }

    /// [`Session::sweep`] under a wall-clock deadline — the sweep
    /// counterpart of [`Session::evaluate_deadline`].
    ///
    /// # Errors
    ///
    /// [`ArcadeError::Budget`] on deadline expiry; otherwise as
    /// [`Session::sweep`].
    pub fn sweep_deadline(
        &self,
        measures: &[Measure],
        grid: &ParamGrid,
        deadline: Duration,
    ) -> Result<SweepResult, ArcadeError> {
        self.sweep_bounded(
            measures,
            grid,
            Arc::new(Budget::unlimited().with_deadline(deadline)),
        )
    }

    /// [`Session::sweep`] under an explicit [`Budget`] — the sweep
    /// counterpart of [`Session::evaluate_bounded`].
    ///
    /// # Errors
    ///
    /// [`ArcadeError::Budget`] when a limit trips,
    /// [`ArcadeError::Internal`] when the sweep panicked; otherwise as
    /// [`Session::sweep`].
    pub fn sweep_bounded(
        &self,
        measures: &[Measure],
        grid: &ParamGrid,
        budget: Arc<Budget>,
    ) -> Result<SweepResult, ArcadeError> {
        let scoped = budget.clone();
        match std::panic::catch_unwind(AssertUnwindSafe(|| {
            budget::scope(Some(scoped), || self.sweep(measures, grid))
        })) {
            Ok(r) => r,
            Err(payload) => Err(classify_panic(payload.as_ref(), Some(&budget))),
        }
    }

    /// Like [`Session::evaluate`], additionally reporting what this call
    /// did to the aggregation cache: how many cold configurations it
    /// built itself, and how many builds already in flight on other
    /// threads it blocked on ([`EvalTrace`]). A fully warm call reports
    /// zeros for both — the attribution the `arcaded` server's
    /// cache-hit/miss/dedup counters are made of.
    ///
    /// # Errors
    ///
    /// Propagates composition/determinism/analysis errors.
    pub fn evaluate_traced(
        &self,
        measures: &[Measure],
    ) -> Result<(Vec<f64>, EvalTrace), ArcadeError> {
        let trace = TraceCells::default();
        // Gather the time grids per (configuration, kind).
        let mut unavail_ts = Vec::new();
        let mut fp_repair_ts = Vec::new();
        let mut fp_norepair_ts = Vec::new();
        let mut needs_avail = false;
        for m in measures {
            match m {
                Measure::PointAvailability(t) | Measure::PointUnavailability(t) => {
                    unavail_ts.push(*t);
                    needs_avail = true;
                }
                Measure::UnreliabilityWithRepair(t) => {
                    fp_repair_ts.push(*t);
                    needs_avail = true;
                }
                Measure::Reliability(t) | Measure::Unreliability(t) => {
                    fp_norepair_ts.push(*t);
                }
                _ => needs_avail = true,
            }
        }
        // When the batch spans both configurations and neither is built
        // yet, aggregate them concurrently instead of back to back.
        let mut need: Vec<Config> = Vec::new();
        if needs_avail {
            need.push(Config::Availability);
        }
        if !fp_norepair_ts.is_empty() {
            need.push(Config::NoRepair);
        }
        self.prefetch(&need, Some(&trace))?;
        let unavail = if unavail_ts.is_empty() {
            Vec::new()
        } else {
            self.unavailability_curve(&unavail_ts)?
        };
        let fp_repair = if fp_repair_ts.is_empty() {
            Vec::new()
        } else {
            self.first_passage_curve(Config::Availability, &fp_repair_ts)?
        };
        let fp_norepair = if fp_norepair_ts.is_empty() {
            Vec::new()
        } else {
            self.first_passage_curve(Config::NoRepair, &fp_norepair_ts)?
        };

        // Read the batched results back out in measure order.
        let (mut ui, mut ri, mut ni) = (0usize, 0usize, 0usize);
        let mut out = Vec::with_capacity(measures.len());
        for m in measures {
            let v = match m {
                Measure::SteadyStateAvailability => 1.0 - self.steady_down_mass()?,
                Measure::SteadyStateUnavailability => self.steady_down_mass()?,
                Measure::PointAvailability(_) => {
                    ui += 1;
                    1.0 - unavail[ui - 1]
                }
                Measure::PointUnavailability(_) => {
                    ui += 1;
                    unavail[ui - 1]
                }
                Measure::UnreliabilityWithRepair(_) => {
                    ri += 1;
                    fp_repair[ri - 1]
                }
                Measure::Reliability(_) => {
                    ni += 1;
                    1.0 - fp_norepair[ni - 1]
                }
                Measure::Unreliability(_) => {
                    ni += 1;
                    fp_norepair[ni - 1]
                }
                Measure::Mttf => self.mttf()?,
                Measure::IntervalAvailability(t) => {
                    let agg = self.aggregation(Config::Availability)?;
                    1.0 - ctmc::csl::interval_down_fraction_ctx(
                        &agg.ctmc,
                        &StateFormula::down(),
                        *t,
                        &self.opts.solver.transient,
                        &self.ctx,
                    )
                }
                Measure::BoundedUntil { phi, psi, t } => {
                    let agg = self.aggregation(Config::Availability)?;
                    ctmc::csl::until_bounded_ctx(
                        &agg.ctmc,
                        phi,
                        psi,
                        *t,
                        &self.opts.solver.transient,
                        &self.ctx,
                    )
                }
            };
            out.push(v);
        }
        Ok((
            out,
            EvalTrace {
                built: trace.built.load(Ordering::Relaxed),
                waited: trace.waited.load(Ordering::Relaxed),
            },
        ))
    }

    /// Evaluates a measure batch at one parameter point of a parametric
    /// model (one declared via [`SystemDef::add_param`]): the base
    /// aggregation is built (or reused) **once**, its quotient CTMC is
    /// re-rated to `values` — same CSR layout, only the Markovian rates
    /// rewritten through the carried rate forms — and the measures are
    /// solved on the re-rated chain. No re-composition, no re-refinement.
    ///
    /// `values` gives one value per **declared** parameter, in declaration
    /// order (positive, finite). Evaluating at the declared base values
    /// reproduces [`Session::evaluate`] bitwise: re-rating at the base
    /// recovers the aggregated rates exactly, and the solver path is the
    /// same.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] if the model declares no
    /// parameters, the arity is wrong, or a value is not positive finite;
    /// otherwise propagates aggregation/analysis errors.
    pub fn evaluate_at(
        &self,
        measures: &[Measure],
        values: &[f64],
    ) -> Result<Vec<f64>, ArcadeError> {
        if self.def.params.is_empty() {
            return Err(ArcadeError::invalid(
                "evaluate_at needs declared rate parameters (SystemDef::add_param)",
            ));
        }
        if values.len() != self.def.params.len() {
            return Err(ArcadeError::invalid(format!(
                "expected {} parameter values, got {}",
                self.def.params.len(),
                values.len()
            )));
        }
        for (p, &v) in self.def.params.iter().zip(values) {
            if !v.is_finite() || v <= 0.0 {
                return Err(ArcadeError::invalid(format!(
                    "parameter `{}`: value {v} must be positive and finite",
                    p.name
                )));
            }
        }
        self.evaluate_at_full(measures, values)
    }

    /// Evaluates a measure batch over a whole [`ParamGrid`]: each needed
    /// configuration is aggregated **once** (at the declared base values),
    /// then every grid point re-rates the cached quotient and solves —
    /// points fan out over worker threads
    /// ([`EngineOptions::with_threads`](crate::engine::EngineOptions)),
    /// and every per-point row is bitwise identical to a fresh session's
    /// [`Session::evaluate_at`] at any thread count (each point is solved
    /// by exactly the code the serial path runs). Finite-difference
    /// sensitivities come with cartesian grids ([`SweepResult`]).
    ///
    /// Per-point scratch artifacts (steady vectors, absorbing transforms)
    /// are not recorded in [`SessionStats::steady_solves`] /
    /// [`SessionStats::absorbing_built`]; the solver work itself shows up
    /// in [`SessionStats::dtmc_steps`] / [`SessionStats::sweeps`], and
    /// [`SessionStats::aggregations_built`] stays at one per needed
    /// configuration no matter how many points the grid has.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::Invalid`] for unknown/duplicate grid
    /// parameter names, ragged explicit points, or non-positive values;
    /// otherwise propagates aggregation/analysis errors.
    pub fn sweep(
        &self,
        measures: &[Measure],
        grid: &ParamGrid,
    ) -> Result<SweepResult, ArcadeError> {
        if self.def.params.is_empty() {
            return Err(ArcadeError::invalid(
                "sweep needs declared rate parameters (SystemDef::add_param)",
            ));
        }
        let mut pids: Vec<usize> = Vec::with_capacity(grid.names().len());
        for n in grid.names() {
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
        let points = grid.points();
        let base: Vec<f64> = self.def.params.iter().map(|p| p.base).collect();
        let mut fulls: Vec<Vec<f64>> = Vec::with_capacity(points.len());
        for pt in &points {
            if pt.len() != pids.len() {
                return Err(ArcadeError::invalid(format!(
                    "point {pt:?} has {} values for {} grid parameters",
                    pt.len(),
                    pids.len()
                )));
            }
            let mut full = base.clone();
            for (k, &pid) in pids.iter().enumerate() {
                let v = pt[k];
                if !v.is_finite() || v <= 0.0 {
                    return Err(ArcadeError::invalid(format!(
                        "parameter `{}`: value {v} must be positive and finite",
                        grid.names()[k]
                    )));
                }
                full[pid] = v;
            }
            fulls.push(full);
        }
        // Warm the needed aggregations before fanning out, so the workers
        // never race a cold build and the whole sweep costs exactly one
        // aggregation per configuration.
        self.prefetch(&needed_configs(measures), None)?;
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
                // `sweep_bounded` / the server's per-request ring.
                chaos::failpoint("session.sweep_point");
                self.evaluate_at_full(measures, full)
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

    /// Re-rates the cached quotient of `cfg` to the full parameter vector
    /// `full` (one value per declared parameter).
    fn rerated(&self, cfg: Config, full: &[f64]) -> Result<Ctmc, ArcadeError> {
        Ok(self.aggregation(cfg)?.ctmc.rerate(full)?)
    }

    /// The per-point evaluation path shared by [`Session::evaluate_at`]
    /// and [`Session::sweep`]: mirrors [`Session::evaluate_traced`]'s
    /// batching exactly, but on freshly re-rated chains instead of the
    /// per-configuration memo — so a point at the declared base values
    /// reproduces the memoized path bitwise.
    fn evaluate_at_full(
        &self,
        measures: &[Measure],
        full: &[f64],
    ) -> Result<Vec<f64>, ArcadeError> {
        let mut unavail_ts = Vec::new();
        let mut fp_repair_ts = Vec::new();
        let mut fp_norepair_ts = Vec::new();
        let mut needs_avail = false;
        for m in measures {
            match m {
                Measure::PointAvailability(t) | Measure::PointUnavailability(t) => {
                    unavail_ts.push(*t);
                    needs_avail = true;
                }
                Measure::UnreliabilityWithRepair(t) => {
                    fp_repair_ts.push(*t);
                    needs_avail = true;
                }
                Measure::Reliability(t) | Measure::Unreliability(t) => {
                    fp_norepair_ts.push(*t);
                }
                _ => needs_avail = true,
            }
        }
        let mut need: Vec<Config> = Vec::new();
        if needs_avail {
            need.push(Config::Availability);
        }
        if !fp_norepair_ts.is_empty() {
            need.push(Config::NoRepair);
        }
        self.prefetch(&need, None)?;

        let avail = if needs_avail {
            Some(self.rerated(Config::Availability, full)?)
        } else {
            None
        };
        let norepair = if fp_norepair_ts.is_empty() {
            None
        } else {
            Some(self.rerated(Config::NoRepair, full)?)
        };
        let avail_chain = || avail.as_ref().expect("availability chain was re-rated");
        let avail_down: Vec<u32> = avail
            .as_ref()
            .map(|c| c.states_with_label(DOWN_BIT).collect())
            .unwrap_or_default();

        let needs_steady = measures.iter().any(|m| {
            matches!(
                m,
                Measure::SteadyStateAvailability | Measure::SteadyStateUnavailability
            )
        });
        let steady_down = if needs_steady {
            let pi = ctmc::steady::steady_state_with(avail_chain(), &self.opts.solver);
            Some(mass(&avail_down, &pi))
        } else {
            None
        };
        let mttf = if measures.iter().any(|m| matches!(m, Measure::Mttf)) {
            Some(if avail_down.is_empty() {
                f64::INFINITY
            } else {
                ctmc::absorbing::mean_time_to_absorption_with(
                    avail_chain(),
                    &avail_down,
                    &self.opts.solver,
                )
            })
        } else {
            None
        };
        let unavail = if unavail_ts.is_empty() {
            Vec::new()
        } else {
            let c = avail_chain();
            transient_many_from_ctx(
                c,
                &c.initial_distribution(),
                &unavail_ts,
                &self.opts.solver.transient,
                &self.ctx,
            )
            .iter()
            .map(|pi| mass(&avail_down, pi))
            .collect()
        };
        let fp_repair = if fp_repair_ts.is_empty() {
            Vec::new()
        } else {
            point_first_passage(
                avail_chain(),
                &avail_down,
                &fp_repair_ts,
                &self.opts.solver.transient,
                &self.ctx,
            )
        };
        let fp_norepair = if fp_norepair_ts.is_empty() {
            Vec::new()
        } else {
            let c = norepair.as_ref().expect("no-repair chain was re-rated");
            let down: Vec<u32> = c.states_with_label(DOWN_BIT).collect();
            point_first_passage(
                c,
                &down,
                &fp_norepair_ts,
                &self.opts.solver.transient,
                &self.ctx,
            )
        };

        let (mut ui, mut ri, mut ni) = (0usize, 0usize, 0usize);
        let mut out = Vec::with_capacity(measures.len());
        for m in measures {
            let v = match m {
                Measure::SteadyStateAvailability => {
                    1.0 - steady_down.expect("steady mass was computed")
                }
                Measure::SteadyStateUnavailability => {
                    steady_down.expect("steady mass was computed")
                }
                Measure::PointAvailability(_) => {
                    ui += 1;
                    1.0 - unavail[ui - 1]
                }
                Measure::PointUnavailability(_) => {
                    ui += 1;
                    unavail[ui - 1]
                }
                Measure::UnreliabilityWithRepair(_) => {
                    ri += 1;
                    fp_repair[ri - 1]
                }
                Measure::Reliability(_) => {
                    ni += 1;
                    1.0 - fp_norepair[ni - 1]
                }
                Measure::Unreliability(_) => {
                    ni += 1;
                    fp_norepair[ni - 1]
                }
                Measure::Mttf => mttf.expect("MTTF was computed"),
                Measure::IntervalAvailability(t) => {
                    1.0 - ctmc::csl::interval_down_fraction_ctx(
                        avail_chain(),
                        &StateFormula::down(),
                        *t,
                        &self.opts.solver.transient,
                        &self.ctx,
                    )
                }
                Measure::BoundedUntil { phi, psi, t } => ctmc::csl::until_bounded_ctx(
                    avail_chain(),
                    phi,
                    psi,
                    *t,
                    &self.opts.solver.transient,
                    &self.ctx,
                ),
            };
            out.push(v);
        }
        Ok(out)
    }
}

/// Internal, thread-shared accumulation cells behind [`EvalTrace`] (the
/// parallel prefetch records from worker threads).
#[derive(Debug, Default)]
struct TraceCells {
    built: AtomicU32,
    waited: AtomicU32,
}

/// The model configurations a measure batch needs: the no-repair
/// configuration for (un)reliability, the availability configuration for
/// everything else — the same rule [`Session::evaluate`] applies while
/// gathering its grids.
fn needed_configs(measures: &[Measure]) -> Vec<Config> {
    let mut need = Vec::new();
    if measures
        .iter()
        .any(|m| !matches!(m, Measure::Reliability(_) | Measure::Unreliability(_)))
    {
        need.push(Config::Availability);
    }
    if measures
        .iter()
        .any(|m| matches!(m, Measure::Reliability(_) | Measure::Unreliability(_)))
    {
        need.push(Config::NoRepair);
    }
    need
}

/// First-passage probabilities over a grid for one sweep point: an
/// absorbing transform on the re-rated chain, one batched sweep. The
/// per-point transform is sweep scratch, not a session artifact, so it is
/// not recorded in [`SessionStats::absorbing_built`].
fn point_first_passage(
    ctmc: &Ctmc,
    down: &[u32],
    ts: &[f64],
    opts: &TransientOptions,
    ctx: &MeasureContext,
) -> Vec<f64> {
    if down.is_empty() {
        return vec![0.0; ts.len()];
    }
    let absorbing = ctmc.make_absorbing(down.iter().copied());
    transient_many_from_ctx(&absorbing, &absorbing.initial_distribution(), ts, opts, ctx)
        .iter()
        .map(|pi| mass(down, pi))
        .collect()
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

/// Runs `f`, converting any panic into a structured [`ArcadeError`] via
/// [`classify_panic`] (with the ambient budget consulted for trips whose
/// typed payload did not survive a scoped-thread join).
fn catch_eval<R>(f: impl FnOnce() -> Result<R, ArcadeError>) -> Result<R, ArcadeError> {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(classify_panic(
            payload.as_ref(),
            budget::current().as_deref(),
        )),
    }
}

/// Classifies a caught panic payload: a [`BudgetExceeded`] payload (or a
/// trip recorded on `budget` — scoped-thread joins may swallow the typed
/// payload) becomes [`ArcadeError::Budget`]; anything else becomes
/// [`ArcadeError::Internal`] carrying the panic message.
pub(crate) fn classify_panic(
    payload: &(dyn std::any::Any + Send),
    budget: Option<&Budget>,
) -> ArcadeError {
    if let Some(e) = payload.downcast_ref::<BudgetExceeded>() {
        return ArcadeError::Budget(*e);
    }
    if let Some(e) = budget.and_then(Budget::tripped) {
        return ArcadeError::Budget(e);
    }
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    };
    ArcadeError::Internal(msg)
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
