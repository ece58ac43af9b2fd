//! Dependability measures over labelled CTMCs.
//!
//! Arcade labels system-down states with bit 0; all measures here take the
//! label mask explicitly so other propositions can be queried the same way.
//!
//! [`MeasureContext`] is the batch-friendly entry point: it caches the
//! steady-state vector, the per-mask down-state lists and the per-mask
//! absorbing transformations, so a whole curve of queries against one
//! chain pays for each expensive artifact **once**. The free functions
//! remain as thin one-shot wrappers for callers with a single query.

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use ioimc::StateLabel;

use crate::absorbing::mean_time_to_absorption_with;
use crate::chain::Ctmc;
use crate::poisson::PoissonCache;
use crate::solver::SolverOptions;
use crate::steady::steady_state_with;
use crate::transient::transient_many_from_cached;

/// A measure-evaluation context over one chain: memoizes the steady-state
/// vector, the down-state index list per label mask, and the
/// absorbing-transformed chain per label mask, sharing them across every
/// query made through it.
///
/// The context is deliberately lazy — nothing is computed before the
/// first query that needs it — and single-threaded (interior mutability
/// via `OnceCell`/`RefCell`).
#[derive(Debug)]
pub struct MeasureContext<'a> {
    ctmc: &'a Ctmc,
    solver: SolverOptions,
    steady: OnceCell<Vec<f64>>,
    targets: RefCell<HashMap<StateLabel, Rc<[u32]>>>,
    absorbing: RefCell<HashMap<StateLabel, Rc<Ctmc>>>,
    mttf: RefCell<HashMap<StateLabel, f64>>,
    /// Poisson weight memo shared by every transient query of the
    /// context (availability and first-passage curves over the same grid
    /// reuse each `Λ·Δt` expansion).
    poisson: PoissonCache,
}

impl<'a> MeasureContext<'a> {
    /// Creates an empty context over `ctmc` with default [`SolverOptions`].
    pub fn new(ctmc: &'a Ctmc) -> Self {
        Self::with_solver(ctmc, SolverOptions::default())
    }

    /// Creates an empty context over `ctmc` with explicit solver
    /// configuration, used by every steady-state and MTTF solve the
    /// context performs.
    pub fn with_solver(ctmc: &'a Ctmc, solver: SolverOptions) -> Self {
        Self {
            ctmc,
            solver,
            steady: OnceCell::new(),
            targets: RefCell::new(HashMap::new()),
            absorbing: RefCell::new(HashMap::new()),
            mttf: RefCell::new(HashMap::new()),
            poisson: PoissonCache::new(),
        }
    }

    /// The underlying chain.
    pub fn ctmc(&self) -> &'a Ctmc {
        self.ctmc
    }

    /// The steady-state distribution (computed on first use).
    pub fn steady_state(&self) -> &[f64] {
        self.steady
            .get_or_init(|| steady_state_with(self.ctmc, &self.solver))
    }

    /// The states matching `mask` (collected on first use per mask).
    pub fn states_with_label(&self, mask: StateLabel) -> Rc<[u32]> {
        self.targets
            .borrow_mut()
            .entry(mask)
            .or_insert_with(|| self.ctmc.states_with_label(mask).collect())
            .clone()
    }

    /// The chain with the `mask` states made absorbing (built on first use
    /// per mask; shared by every first-passage query).
    fn absorbing_chain(&self, mask: StateLabel) -> Rc<Ctmc> {
        let targets = self.states_with_label(mask);
        self.absorbing
            .borrow_mut()
            .entry(mask)
            .or_insert_with(|| Rc::new(self.ctmc.make_absorbing(targets.iter().copied())))
            .clone()
    }

    /// Steady-state availability: long-run probability of *not* matching
    /// `mask`.
    pub fn steady_state_availability(&self, mask: StateLabel) -> f64 {
        1.0 - self.steady_state_unavailability(mask)
    }

    /// Steady-state unavailability, computed directly to preserve
    /// precision for very small values.
    pub fn steady_state_unavailability(&self, mask: StateLabel) -> f64 {
        let targets = self.states_with_label(mask);
        state_mass(&targets, self.steady_state())
    }

    /// Point availability `A(t)`.
    pub fn point_availability(&self, mask: StateLabel, t: f64) -> f64 {
        1.0 - self.point_unavailability(mask, t)
    }

    /// Point unavailability `1 - A(t)`, computed directly.
    pub fn point_unavailability(&self, mask: StateLabel, t: f64) -> f64 {
        self.point_unavailability_many(mask, &[t])[0]
    }

    /// Point unavailability over a whole time grid in one batched
    /// transient solve (on the kernel [`crate::transient::select_kernel`]
    /// picks per the context's [`SolverOptions::transient`] configuration
    /// — grid accuracy composes as documented in [`crate::transient`]).
    pub fn point_unavailability_many(&self, mask: StateLabel, ts: &[f64]) -> Vec<f64> {
        let targets = self.states_with_label(mask);
        transient_many_from_cached(
            self.ctmc,
            &self.ctmc.initial_distribution(),
            ts,
            &self.solver.transient,
            &self.poisson,
        )
        .iter()
        .map(|pi| state_mass(&targets, pi))
        .collect()
    }

    /// Reliability `R(t)`: probability that no `mask` state has been
    /// entered up to `t` (mask states made absorbing).
    pub fn reliability(&self, mask: StateLabel, t: f64) -> f64 {
        1.0 - self.unreliability(mask, t)
    }

    /// Unreliability `1 - R(t)`: first-passage probability into the
    /// `mask` states, computed directly (the RCS case study reports
    /// values around 1e-9 where `1 - R` would lose all precision).
    pub fn unreliability(&self, mask: StateLabel, t: f64) -> f64 {
        self.unreliability_many(mask, &[t])[0]
    }

    /// First-passage unreliability over a whole time grid: one cached
    /// absorbing transformation, one batched sweep.
    pub fn unreliability_many(&self, mask: StateLabel, ts: &[f64]) -> Vec<f64> {
        let targets = self.states_with_label(mask);
        if targets.is_empty() {
            return vec![0.0; ts.len()];
        }
        let absorbing = self.absorbing_chain(mask);
        transient_many_from_cached(
            &absorbing,
            &absorbing.initial_distribution(),
            ts,
            &self.solver.transient,
            &self.poisson,
        )
        .iter()
        .map(|pi| state_mass(&targets, pi))
        .collect()
    }

    /// Mean time to failure: expected time until the first `mask` state
    /// is entered (memoized per mask).
    pub fn mttf(&self, mask: StateLabel) -> f64 {
        if let Some(&v) = self.mttf.borrow().get(&mask) {
            return v;
        }
        let targets = self.states_with_label(mask);
        let v = if targets.is_empty() {
            f64::INFINITY
        } else {
            mean_time_to_absorption_with(self.ctmc, &targets, &self.solver)
        };
        self.mttf.borrow_mut().insert(mask, v);
        v
    }
}

/// Steady-state availability: long-run probability of *not* being in a
/// state matching `down_mask`.
pub fn steady_state_availability(ctmc: &Ctmc, down_mask: StateLabel) -> f64 {
    MeasureContext::new(ctmc).steady_state_availability(down_mask)
}

/// Steady-state unavailability: complement of
/// [`steady_state_availability`], computed directly to preserve precision
/// for very small values.
pub fn steady_state_unavailability(ctmc: &Ctmc, down_mask: StateLabel) -> f64 {
    MeasureContext::new(ctmc).steady_state_unavailability(down_mask)
}

/// Point availability `A(t)`: probability of being up at time `t`.
pub fn point_availability(ctmc: &Ctmc, down_mask: StateLabel, t: f64) -> f64 {
    MeasureContext::new(ctmc).point_availability(down_mask, t)
}

/// Point unavailability `1 - A(t)`, computed directly.
pub fn point_unavailability(ctmc: &Ctmc, down_mask: StateLabel, t: f64) -> f64 {
    MeasureContext::new(ctmc).point_unavailability(down_mask, t)
}

/// Reliability `R(t)`: probability that no down state has been entered up
/// to time `t` (down states made absorbing).
pub fn reliability(ctmc: &Ctmc, down_mask: StateLabel, t: f64) -> f64 {
    MeasureContext::new(ctmc).reliability(down_mask, t)
}

/// Unreliability `1 - R(t)`: first-passage probability into the down
/// states, computed directly (the RCS case study reports values around
/// 1e-9 where `1 - R` would lose all precision).
pub fn unreliability(ctmc: &Ctmc, down_mask: StateLabel, t: f64) -> f64 {
    MeasureContext::new(ctmc).unreliability(down_mask, t)
}

/// Mean time to failure: expected time until the first down state is
/// entered.
pub fn mttf(ctmc: &Ctmc, down_mask: StateLabel) -> f64 {
    MeasureContext::new(ctmc).mttf(down_mask)
}

/// Probability mass of `pi` on `targets`, clamped to `[0, 1]` (sums of a
/// numerically computed distribution can stray by rounding). Shared by
/// every measure layer so clamping policy lives in one place.
pub fn state_mass(targets: &[u32], pi: &[f64]) -> f64 {
    targets
        .iter()
        .map(|&s| pi[s as usize])
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(l: f64, m: f64) -> Ctmc {
        Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap()
    }

    #[test]
    fn availability_pair_is_consistent() {
        let c = machine(0.01, 1.0);
        let a = steady_state_availability(&c, 1);
        let u = steady_state_unavailability(&c, 1);
        assert!((a + u - 1.0).abs() < 1e-12);
        assert!((u - 0.01 / 1.01).abs() < 1e-12);
    }

    #[test]
    fn reliability_ignores_repair() {
        let c = machine(0.1, 100.0);
        // first failure is exp(0.1) regardless of the huge repair rate
        let r = reliability(&c, 1, 5.0);
        assert!((r - (-0.5f64).exp()).abs() < 1e-10);
        let u = unreliability(&c, 1, 5.0);
        assert!((r + u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn point_availability_interpolates() {
        let c = machine(0.5, 0.5);
        let a0 = point_availability(&c, 1, 0.0);
        let ainf = point_availability(&c, 1, 1e3);
        assert!((a0 - 1.0).abs() < 1e-12);
        assert!((ainf - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mttf_of_machine() {
        let c = machine(0.25, 1.0);
        assert!((mttf(&c, 1) - 4.0).abs() < 1e-10);
    }

    #[test]
    fn no_down_states_is_perfect() {
        let c = Ctmc::new(vec![vec![(1.0, 1)], vec![(1.0, 0)]], vec![0, 0], 0).unwrap();
        assert_eq!(unreliability(&c, 1, 10.0), 0.0);
        assert_eq!(mttf(&c, 1), f64::INFINITY);
        assert!((steady_state_availability(&c, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn context_batches_agree_with_scalars() {
        let c = machine(0.2, 2.0);
        let ctx = MeasureContext::new(&c);
        let ts = [0.5, 5.0, 1.0, 5.0];
        let unavail = ctx.point_unavailability_many(1, &ts);
        let unrel = ctx.unreliability_many(1, &ts);
        for (i, &t) in ts.iter().enumerate() {
            assert!((unavail[i] - point_unavailability(&c, 1, t)).abs() < 1e-12);
            assert!((unrel[i] - unreliability(&c, 1, t)).abs() < 1e-12);
        }
    }

    #[test]
    fn context_caches_down_state_lists() {
        let c = machine(0.2, 2.0);
        let ctx = MeasureContext::new(&c);
        let a = ctx.states_with_label(1);
        let b = ctx.states_with_label(1);
        assert!(Rc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(&*a, &[1]);
    }
}
