//! CSL-style probabilistic queries.
//!
//! The Arcade paper's future-work section (§6) plans "CSL-type expressions,
//! thus querying more complex measures than system reliability or
//! availability" — this module implements that extension: the
//! continuous-stochastic-logic operators over a labelled CTMC, with atomic
//! propositions given by label-bit formulas.
//!
//! Supported:
//!
//! * [`StateFormula`] — boolean combinations of label bits,
//! * `P[Φ U≤t Ψ]` ([`until_bounded`]) — time-bounded until,
//! * `P[◇≤t Φ]` ([`eventually_bounded`]) — bounded reachability
//!   (unreliability when Φ = down),
//! * `P[□≤t Φ]` ([`always_bounded`]) — bounded invariance (reliability),
//! * `S[Φ]` ([`steady_state_probability`]) — long-run probability,
//! * expected interval availability ([`interval_down_fraction`]).

use crate::chain::Ctmc;
use crate::context::{MeasureContext, SolveCounters};
use crate::poisson::PoissonCache;
use crate::solver::{SolverOptions, TransientOptions};
use crate::steady::steady_state_with;
use crate::transient::{transient_many_from_cached, transient_many_from_ctx, GridSolver};

/// A boolean state formula over label bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateFormula {
    /// True everywhere.
    True,
    /// True iff all bits of the mask are set in the state label.
    Label(u64),
    /// Negation.
    Not(Box<StateFormula>),
    /// Conjunction.
    And(Box<StateFormula>, Box<StateFormula>),
    /// Disjunction.
    Or(Box<StateFormula>, Box<StateFormula>),
}

impl StateFormula {
    /// The proposition "label bit 0 is set" — Arcade's "system down".
    pub fn down() -> Self {
        Self::Label(1)
    }

    /// The proposition "system up".
    pub fn up() -> Self {
        Self::Not(Box::new(Self::down()))
    }

    /// Negation (builder style).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Self::Not(Box::new(self))
    }

    /// Conjunction (builder style).
    pub fn and(self, other: Self) -> Self {
        Self::And(Box::new(self), Box::new(other))
    }

    /// Disjunction (builder style).
    pub fn or(self, other: Self) -> Self {
        Self::Or(Box::new(self), Box::new(other))
    }

    /// Evaluates the formula on a state label.
    pub fn holds(&self, label: u64) -> bool {
        match self {
            Self::True => true,
            Self::Label(mask) => label & mask == *mask,
            Self::Not(f) => !f.holds(label),
            Self::And(a, b) => a.holds(label) && b.holds(label),
            Self::Or(a, b) => a.holds(label) || b.holds(label),
        }
    }

    /// The satisfying states of `ctmc`.
    pub fn states(&self, ctmc: &Ctmc) -> Vec<u32> {
        (0..ctmc.num_states() as u32)
            .filter(|&s| self.holds(ctmc.label(s)))
            .collect()
    }
}

/// `P[Φ U≤t Ψ]` from the initial state: the probability that a Ψ-state is
/// reached within `t` while only passing through Φ-states.
///
/// Computed with the standard CSL transformation: Ψ-states are made
/// absorbing (reaching them is success), ¬Φ∧¬Ψ-states are made absorbing
/// too (entering them is failure), then one transient analysis gives the
/// success mass.
///
/// # Panics
///
/// Panics if `t` is negative or not finite.
pub fn until_bounded(ctmc: &Ctmc, phi: &StateFormula, psi: &StateFormula, t: f64) -> f64 {
    until_bounded_with(
        ctmc,
        phi,
        psi,
        t,
        &TransientOptions::default(),
        &PoissonCache::new(),
    )
}

/// [`until_bounded`] with explicit uniformization engine configuration
/// and a shared Poisson weight memo (the transient solve dominates this
/// query on large chains; batches of until queries over one grid reuse
/// each `Λ·Δt` expansion through the cache). When the default options
/// pick the adaptive windowed engine, the answer deviates from the exact
/// expansion by at most [`TransientOptions::support_tol`] (one segment is
/// stepped), on top of the shared `~1e-15` Poisson truncation; the dense
/// kernel truncates no support.
///
/// # Panics
///
/// Panics if `t` is negative or not finite.
pub fn until_bounded_with(
    ctmc: &Ctmc,
    phi: &StateFormula,
    psi: &StateFormula,
    t: f64,
    opts: &TransientOptions,
    cache: &PoissonCache,
) -> f64 {
    until_bounded_inner(ctmc, phi, psi, t, |transformed, pi0| {
        transient_many_from_cached(transformed, pi0, &[t], opts, cache)
    })
}

/// [`until_bounded_with`] driven through a [`MeasureContext`]: the
/// context's Poisson memo answers the weight lookups and the context's
/// [`crate::SolveCounters`] record the transient solve's work, scoped to
/// the session instead of the whole process.
///
/// # Panics
///
/// Panics if `t` is negative or not finite.
pub fn until_bounded_ctx(
    ctmc: &Ctmc,
    phi: &StateFormula,
    psi: &StateFormula,
    t: f64,
    opts: &TransientOptions,
    ctx: &MeasureContext,
) -> f64 {
    until_bounded_inner(ctmc, phi, psi, t, |transformed, pi0| {
        transient_many_from_ctx(transformed, pi0, &[t], opts, ctx)
    })
}

fn until_bounded_inner(
    ctmc: &Ctmc,
    phi: &StateFormula,
    psi: &StateFormula,
    _t: f64,
    solve: impl FnOnce(&Ctmc, &[f64]) -> Vec<Vec<f64>>,
) -> f64 {
    let absorbing: Vec<u32> = (0..ctmc.num_states() as u32)
        .filter(|&s| {
            let l = ctmc.label(s);
            psi.holds(l) || !phi.holds(l)
        })
        .collect();
    let transformed = ctmc.make_absorbing(absorbing.iter().copied());
    // Success = sitting in a Ψ-state at time t of the transformed chain;
    // since Ψ-states are absorbing, that equals "reached Ψ by t via Φ".
    // A failure state (¬Φ∧¬Ψ) is absorbing and not Ψ, so it contributes 0.
    let pi = solve(&transformed, &transformed.initial_distribution())
        .pop()
        .expect("one grid point");
    (0..ctmc.num_states() as u32)
        .filter(|&s| psi.holds(ctmc.label(s)))
        .map(|s| pi[s as usize])
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

/// `P[◇≤t Φ]`: bounded reachability (with Φ = down this is the system
/// unreliability in the first-passage sense of §5.2.2).
pub fn eventually_bounded(ctmc: &Ctmc, phi: &StateFormula, t: f64) -> f64 {
    until_bounded(ctmc, &StateFormula::True, phi, t)
}

/// `P[□≤t Φ]`: the probability of staying in Φ-states for all of `[0, t]`.
pub fn always_bounded(ctmc: &Ctmc, phi: &StateFormula, t: f64) -> f64 {
    1.0 - eventually_bounded(ctmc, &phi.clone().not(), t)
}

/// `S[Φ]`: long-run probability of Φ.
pub fn steady_state_probability(ctmc: &Ctmc, phi: &StateFormula) -> f64 {
    steady_state_probability_with(ctmc, phi, &SolverOptions::default())
}

/// [`steady_state_probability`] with explicit solver configuration (the
/// steady-state solve dominates this query on large chains).
pub fn steady_state_probability_with(ctmc: &Ctmc, phi: &StateFormula, opts: &SolverOptions) -> f64 {
    let pi = steady_state_with(ctmc, opts);
    phi.states(ctmc)
        .into_iter()
        .map(|s| pi[s as usize])
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

/// Expected fraction of `[0, t]` spent in Φ-states (interval availability
/// when Φ = up): `(1/t) ∫₀ᵗ P(Φ at u) du`, evaluated by numerically
/// integrating the transient distribution with Simpson's rule on a grid
/// fine enough for the chain's dynamics.
///
/// # Panics
///
/// Panics if `t` is not strictly positive and finite.
pub fn interval_down_fraction(ctmc: &Ctmc, phi: &StateFormula, t: f64) -> f64 {
    interval_down_fraction_with(
        ctmc,
        phi,
        t,
        &TransientOptions::default(),
        &PoissonCache::new(),
    )
}

/// [`interval_down_fraction`] with explicit uniformization engine
/// configuration. The Simpson grid is evaluated in chunked batched
/// sweeps over **one** reused grid solver — the adaptive engine's
/// locality reordering and operator are built once for the whole
/// integration, and the constant step width means every chunk whose
/// support (and hence `Λ_seg`) has stabilized answers its Poisson
/// weights from the shared [`PoissonCache`] memo. Error budget: each of
/// the `steps` grid segments truncates at most
/// [`TransientOptions::support_tol`] of mass, so the integrand is
/// pointwise within `steps · support_tol` of exact — at the default
/// `1e-14` budget that is dwarfed by the `O(h⁴)` Simpson error this
/// grid resolution targets.
///
/// # Panics
///
/// Panics if `t` is not strictly positive and finite.
pub fn interval_down_fraction_with(
    ctmc: &Ctmc,
    phi: &StateFormula,
    t: f64,
    opts: &TransientOptions,
    cache: &PoissonCache,
) -> f64 {
    interval_down_fraction_inner(ctmc, phi, t, opts, cache, None)
}

/// [`interval_down_fraction_with`] driven through a [`MeasureContext`]
/// (session-scoped Poisson memo and work counters).
///
/// # Panics
///
/// Panics if `t` is not strictly positive and finite.
pub fn interval_down_fraction_ctx(
    ctmc: &Ctmc,
    phi: &StateFormula,
    t: f64,
    opts: &TransientOptions,
    ctx: &MeasureContext,
) -> f64 {
    interval_down_fraction_inner(ctmc, phi, t, opts, &ctx.poisson, Some(&ctx.counters))
}

fn interval_down_fraction_inner(
    ctmc: &Ctmc,
    phi: &StateFormula,
    t: f64,
    opts: &TransientOptions,
    cache: &PoissonCache,
    counters: Option<&SolveCounters>,
) -> f64 {
    assert!(
        t.is_finite() && t > 0.0,
        "horizon must be positive, got {t}"
    );
    // Grid resolution: several points per fastest transition, bounded.
    let max_rate = ctmc.max_exit_rate();
    let steps = ((t * max_rate * 8.0).ceil() as usize).clamp(64, 4096);
    let steps = steps + steps % 2; // Simpson needs an even count
    let h = t / steps as f64;
    let mut pi = ctmc.initial_distribution();
    let phi_states = phi.states(ctmc);
    let mass = |pi: &[f64]| -> f64 { phi_states.iter().map(|&s| pi[s as usize]).sum() };
    let mut integral = mass(&pi); // f(0), weight 1

    // Chunked batching bounds the resident distributions (the grid can be
    // thousands of points on a large chain) while one GridSolver + one
    // PoissonCache amortize the stepping engine (prescaled transposed
    // CSR) and the weight vectors across all chunks.
    const CHUNK: usize = 64;
    let mut solver = GridSolver::new(ctmc, opts, cache);
    if let Some(c) = counters {
        solver = solver.with_counters(c);
    }
    let mut k = 1usize;
    while k <= steps {
        let m = CHUNK.min(steps - k + 1);
        let grid: Vec<f64> = (1..=m).map(|j| j as f64 * h).collect();
        let pis = solver.solve_from(&pi, &grid);
        for (j, p) in pis.iter().enumerate() {
            let idx = k + j;
            let w = if idx == steps {
                1.0
            } else if idx % 2 == 1 {
                4.0
            } else {
                2.0
            };
            integral += w * mass(p);
        }
        pi = pis.into_iter().next_back().expect("non-empty chunk");
        k += m;
    }
    (integral * h / 3.0 / t).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Up(0) -λ-> Down(1) -µ-> Up, plus a "degraded" bit on a middle state.
    fn machine(l: f64, m: f64) -> Ctmc {
        Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap()
    }

    #[test]
    fn formula_evaluation() {
        let down = StateFormula::down();
        let up = StateFormula::up();
        assert!(down.holds(1));
        assert!(!down.holds(0));
        assert!(up.holds(0));
        assert!(StateFormula::True.holds(123));
        let both = StateFormula::Label(0b10).and(StateFormula::down());
        assert!(both.holds(0b11));
        assert!(!both.holds(0b01));
        let either = StateFormula::Label(0b10).or(StateFormula::down());
        assert!(either.holds(0b10));
    }

    #[test]
    fn eventually_matches_first_passage() {
        let c = machine(0.1, 5.0);
        let t = 7.0;
        let p = eventually_bounded(&c, &StateFormula::down(), t);
        let expected = 1.0 - (-0.1f64 * t).exp();
        assert!((p - expected).abs() < 1e-10, "{p} vs {expected}");
    }

    #[test]
    fn always_is_complement_of_eventually_not() {
        let c = machine(0.3, 1.0);
        let t = 2.0;
        let r = always_bounded(&c, &StateFormula::up(), t);
        let u = eventually_bounded(&c, &StateFormula::down(), t);
        assert!((r + u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn until_respects_the_path_constraint() {
        // 0(up) -> 1(degraded) -> 2(down); query up U≤t down must be 0
        // because the path leaves "up" before reaching "down".
        let c = Ctmc::new(
            vec![vec![(1.0, 1)], vec![(1.0, 2)], vec![]],
            vec![0, 0b10, 0b1],
            0,
        )
        .unwrap();
        let up = StateFormula::Label(0b10)
            .not()
            .and(StateFormula::down().not());
        let down = StateFormula::down();
        let p_strict = until_bounded(&c, &up, &down, 10.0);
        assert!(
            p_strict < 1e-12,
            "blocked path must have probability 0, got {p_strict}"
        );
        // allowing degraded on the way makes it reachable
        let p_relaxed = until_bounded(&c, &StateFormula::down().not(), &down, 10.0);
        assert!(p_relaxed > 0.9);
    }

    #[test]
    fn steady_state_probability_matches_measures() {
        let c = machine(0.01, 1.0);
        let s = steady_state_probability(&c, &StateFormula::down());
        assert!((s - 0.01 / 1.01).abs() < 1e-12);
    }

    #[test]
    fn interval_availability_between_point_and_steady() {
        let c = machine(0.5, 1.0);
        let t = 10.0;
        let frac = interval_down_fraction(&c, &StateFormula::down(), t);
        // starts up, so the average down-fraction is below the steady value
        let steady = 0.5 / 1.5;
        assert!(frac > 0.0 && frac < steady);
        // closed form: (1/t)∫ u(s) ds with u(s) = q(1 - e^{-(λ+µ)s}),
        // q = λ/(λ+µ): integral = q(t - (1-e^{-(λ+µ)t})/(λ+µ))
        let rate = 1.5;
        let q: f64 = 0.5 / 1.5;
        let expected = q * (t - (1.0 - (-rate * t).exp()) / rate) / t;
        assert!((frac - expected).abs() < 1e-5, "{frac} vs {expected}");
    }

    #[test]
    fn interval_fraction_converges_to_steady_state() {
        let c = machine(0.5, 1.0);
        let frac = interval_down_fraction(&c, &StateFormula::down(), 500.0);
        assert!((frac - 1.0 / 3.0).abs() < 1e-3);
    }
}
