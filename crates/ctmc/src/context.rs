//! Per-analysis measurement context: a Poisson weight memo plus solver
//! work counters scoped to one analysis session.
//!
//! The context's counters are the one record of transient solver work:
//! a server hosting several concurrent sessions needs counters that
//! cannot cross-contaminate (two sessions solving at the same time must
//! each see only their own work), and a benchmark or test reads the work
//! of exactly the solves it ran through its own context. A
//! [`MeasureContext`] bundles the session-scoped [`SolveCounters`] with
//! the session's [`PoissonCache`]; the `_ctx` entry points
//! ([`crate::transient::transient_many_from_ctx`],
//! [`crate::csl::until_bounded_ctx`],
//! [`crate::csl::interval_down_fraction_ctx`]) thread both through the
//! grid solver. The plain entry points solve on a fresh context.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::poisson::PoissonCache;

/// Solver work counters for one analysis context. All increments are
/// relaxed atomics so sweeps running on worker threads (parallel
/// prefetches, sweep points) are neither lost nor raced.
#[derive(Debug, Default)]
pub struct SolveCounters {
    dtmc_steps: AtomicU64,
    sweeps: AtomicU64,
    dense_products: AtomicU64,
}

impl Clone for SolveCounters {
    /// The clone restarts at the current counter values.
    fn clone(&self) -> Self {
        Self {
            dtmc_steps: AtomicU64::new(self.dtmc_steps()),
            sweeps: AtomicU64::new(self.sweeps()),
            dense_products: AtomicU64::new(self.dense_products()),
        }
    }
}

impl SolveCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// DTMC matrix-vector products performed through this context: the
    /// unit of uniformization work, so batching and steady-state
    /// detection wins show up directly in it.
    pub fn dtmc_steps(&self) -> u64 {
        self.dtmc_steps.load(Ordering::Relaxed)
    }

    /// Transient sweeps (scalar solves or batched grid segments) started
    /// through this context, on any kernel: a segment the dense kernel
    /// answers counts as one sweep with no DTMC steps.
    pub fn sweeps(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Dense `n × n` matrix products performed by the dense transient
    /// kernel through this context (the series and squaring steps of each
    /// exponential; see [`crate::transient`]).
    pub fn dense_products(&self) -> u64 {
        self.dense_products.load(Ordering::Relaxed)
    }

    /// Records one DTMC matrix-vector product.
    pub fn count_step(&self) {
        self.dtmc_steps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one uniformization sweep.
    pub fn count_sweep(&self) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one dense matrix product.
    pub fn count_dense_product(&self) {
        self.dense_products.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-session analysis context: a [`PoissonCache`] (so identical
/// uniformization parameters are expanded once per session) and
/// session-scoped [`SolveCounters`].
#[derive(Debug, Clone, Default)]
pub struct MeasureContext {
    /// The session's Poisson weight memo.
    pub poisson: PoissonCache,
    /// The session's solver work counters.
    pub counters: SolveCounters,
}

impl MeasureContext {
    /// Creates a fresh context with a default-capacity cache and zeroed
    /// counters.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_accumulate() {
        let c = SolveCounters::new();
        assert_eq!((c.dtmc_steps(), c.sweeps()), (0, 0));
        c.count_step();
        c.count_step();
        c.count_sweep();
        c.count_dense_product();
        assert_eq!((c.dtmc_steps(), c.sweeps(), c.dense_products()), (2, 1, 1));
        let cloned = c.clone();
        c.count_step();
        assert_eq!(cloned.dtmc_steps(), 2, "clone restarts at the snapshot");
        assert_eq!(c.dtmc_steps(), 3);
    }

    #[test]
    fn context_counters_are_independent_between_contexts() {
        let a = MeasureContext::new();
        let b = MeasureContext::new();
        a.counters.count_sweep();
        assert_eq!(a.counters.sweeps(), 1);
        assert_eq!(b.counters.sweeps(), 0);
    }
}
