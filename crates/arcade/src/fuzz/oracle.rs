//! Differential oracle pairs.
//!
//! Each [`OraclePair`] names two independent ways of computing the same
//! dependability measures; [`check_pair`] runs both on a model and
//! reports every disagreement beyond tolerance. The four pairs cover
//! the main redundant code paths of the engine:
//!
//! * [`OraclePair::Modular`] — the monolithic [`Session`] pipeline vs
//!   the dependency-closure module decomposition of
//!   [`crate::modular::modular_analysis`] (both exact; product
//!   combination of per-module measures).
//! * [`OraclePair::AdaptiveTransient`] — whichever kernel the cost model
//!   of [`ctmc::transient::select_kernel`] picks (dense scaling and
//!   squaring, or windowed steady-state-aware uniformization) vs the
//!   exact global-Λ scheme. Each compared measure is labelled with the
//!   kernel it ran on ([`PairCheck::kernels`]), and a solve labelled dense
//!   that took DTMC steps is a disagreement too.
//! * [`OraclePair::SteadySolver`] — dense elimination vs the iterative
//!   (Gauss–Seidel/Krylov) steady-state and MTTF solvers.
//! * [`OraclePair::MonteCarlo`] — the exact no-repair unreliability vs
//!   a seeded discrete-event simulation, compared against a widened
//!   confidence interval. Deterministic for a fixed seed, so a committed
//!   seed can never flake in CI.
//!
//! Tolerances are relative (`|a-b| ≤ tol · (1 + max(|a|,|b|))`) except
//! for Monte Carlo, where the tolerance is derived from the estimate's
//! own standard error.

use ctmc::transient::{select_kernel, TransientKernel};
use ctmc::{Ctmc, TransientOptions};

use crate::ast::SystemDef;
use crate::build::observer::DOWN_BIT;
use crate::engine::EngineOptions;
use crate::error::ArcadeError;
use crate::modular::modular_analysis;
use crate::query::{Measure, Session};
use crate::sim;

/// One redundant pair of computation paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OraclePair {
    /// Monolithic session vs modular decomposition.
    Modular,
    /// The cost model's kernel (dense or windowed) vs exact
    /// uniformization.
    AdaptiveTransient,
    /// Dense vs iterative steady/MTTF solvers.
    SteadySolver,
    /// Exact engine vs Monte-Carlo simulation.
    MonteCarlo,
}

impl OraclePair {
    /// All four pairs, in the order `fuzz_diff` runs them.
    pub const ALL: [Self; 4] = [
        Self::Modular,
        Self::AdaptiveTransient,
        Self::SteadySolver,
        Self::MonteCarlo,
    ];

    /// Stable machine-readable name (used in artifacts and summaries).
    pub fn name(self) -> &'static str {
        match self {
            Self::Modular => "modular",
            Self::AdaptiveTransient => "adaptive-transient",
            Self::SteadySolver => "steady-solver",
            Self::MonteCarlo => "monte-carlo",
        }
    }
}

/// One measure on which a pair's two paths disagreed beyond tolerance.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Which oracle pair disagreed.
    pub pair: OraclePair,
    /// Human-readable measure description (includes the time point).
    pub measure: String,
    /// The primary path's value.
    pub primary: f64,
    /// The oracle path's value.
    pub oracle: f64,
    /// The absolute tolerance that was exceeded.
    pub tolerance: f64,
    /// The transient kernel the primary path ran this measure on
    /// ([`OraclePair::AdaptiveTransient`] only).
    pub kernel: Option<TransientKernel>,
}

/// What one run of an oracle pair found.
#[derive(Debug, Clone)]
pub struct PairCheck {
    /// Every measure on which the two paths disagreed beyond tolerance.
    pub disagreements: Vec<Disagreement>,
    /// The transient kernel of each compared measure that ran a
    /// transient solve, in measure order ([`OraclePair::AdaptiveTransient`]
    /// only; empty for the others).
    pub kernels: Vec<TransientKernel>,
}

/// Engine options shared by every oracle run: a state budget keeps a
/// pathological draw from stalling the fuzz loop (the caller treats the
/// budget error as a skip), and one thread keeps runs bitwise
/// reproducible regardless of the host.
fn base_opts() -> EngineOptions {
    let mut opts = EngineOptions::new().with_max_states(100_000);
    opts.threads = 1;
    opts
}

/// Relative agreement with protection against non-finite values (two
/// infinite MTTFs of the same sign agree).
fn agree(a: f64, b: f64, tol: f64) -> Option<f64> {
    if !a.is_finite() || !b.is_finite() {
        return (a == b || (a.is_nan() && b.is_nan())).then_some(0.0);
    }
    let abs_tol = tol * (1.0 + a.abs().max(b.abs()));
    ((a - b).abs() <= abs_tol).then_some(abs_tol)
}

fn push_if_disagrees(
    out: &mut Vec<Disagreement>,
    pair: OraclePair,
    measure: String,
    primary: f64,
    oracle: f64,
    tol: f64,
    kernel: Option<TransientKernel>,
) {
    if agree(primary, oracle, tol).is_none() {
        let abs_tol = tol * (1.0 + primary.abs().max(oracle.abs()));
        out.push(Disagreement {
            pair,
            measure,
            primary,
            oracle,
            tolerance: abs_tol,
            kernel,
        });
    }
}

/// The kernels of a session's transient solves for point unavailability,
/// unreliability and unreliability with repair at `t`, in that order:
/// each measure is one single-point solve, on the availability chain or
/// on the first-passage (down states absorbing) transform of the
/// no-repair or the availability chain. A chain without down states
/// answers its first-passage measure without a solve (`None`).
fn transient_kernels(
    session: &Session,
    t: f64,
    opts: &TransientOptions,
) -> Result<[Option<TransientKernel>; 3], ArcadeError> {
    let avail = session.availability_model()?;
    let norepair = session.reliability_model()?;
    let first_passage = |c: &Ctmc| {
        let down: Vec<u32> = c.states_with_label(DOWN_BIT).collect();
        (!down.is_empty()).then(|| select_kernel(&c.make_absorbing(down), &[t], opts))
    };
    Ok([
        Some(select_kernel(&avail.ctmc, &[t], opts)),
        first_passage(&norepair.ctmc),
        first_passage(&avail.ctmc),
    ])
}

/// Picks a time horizon at which the model's unreliability is
/// informative (away from 0 and 1), scanning a log grid capped so that
/// `rate_max · t` stays bounded — the stiff generator profile produces
/// rates up to ~1e5, and an uncapped horizon would push exact
/// uniformization into hundreds of millions of steps. Deterministic in
/// the model alone.
fn pick_horizon(def: &SystemDef, session: &Session) -> Result<f64, ArcadeError> {
    let cap = 2e4 / max_rate(def);
    let grid: Vec<f64> = [1.0, 10.0, 100.0, 1000.0]
        .into_iter()
        .filter(|t| *t <= cap)
        .collect();
    let grid = if grid.is_empty() { vec![cap] } else { grid };
    let mut best = grid[0];
    let mut best_score = f64::NEG_INFINITY;
    for &t in &grid {
        let u = session.value(&Measure::Unreliability(t))?;
        // Score peaks when u is near 0.5 and collapses at the extremes.
        let score = -(u - 0.5).abs();
        if score > best_score {
            best_score = score;
            best = t;
        }
    }
    Ok(best)
}

/// The largest phase rate anywhere in the definition (TTF, TTR, FDEP
/// repair, SMU failover) — a proxy for the uniformization constant Λ.
fn max_rate(def: &SystemDef) -> f64 {
    let comp_rates = def.components.iter().flat_map(|bc| {
        bc.ttf
            .iter()
            .chain(bc.ttr.iter())
            .chain(bc.ttr_df.iter())
            .flat_map(|d| d.phase_rates())
    });
    let failover_rates = def
        .smus
        .iter()
        .filter_map(|smu| smu.failover.as_ref())
        .flat_map(|d| d.phase_rates());
    comp_rates.chain(failover_rates).fold(1e-12, f64::max)
}

/// Raises every rate below `max_rate / max_ratio` up to that floor.
///
/// The steady-solver pair compares two linear-solver *implementations*;
/// beyond a stiffness of ~1e4 the iterative methods legitimately lose
/// digits on the ill-conditioned steady/MTTF systems, so a disagreement
/// there would measure conditioning, not correctness. Clamping is a
/// deterministic function of the draw, so the pair still exercises
/// every generated structure.
fn clamp_stiffness(def: &SystemDef, max_ratio: f64) -> SystemDef {
    let floor = max_rate(def) / max_ratio;
    let mut out = def.clone();
    for bc in &mut out.components {
        for d in bc
            .ttf
            .iter_mut()
            .chain(bc.ttr.iter_mut())
            .chain(bc.ttr_df.iter_mut())
        {
            *d = d.map_rates(|r| r.max(floor));
        }
    }
    for smu in &mut out.smus {
        if let Some(f) = &mut smu.failover {
            *f = f.map_rates(|r| r.max(floor));
        }
    }
    out
}

/// The concrete model an oracle run analyzes: parametric definitions are
/// pinned at their declared base point.
fn concretize(def: &SystemDef) -> SystemDef {
    if def.is_parametric() {
        let bases: Vec<f64> = def.params.iter().map(|p| p.base).collect();
        def.at_point(&bases)
    } else {
        def.clone()
    }
}

/// Runs one oracle pair on `def` and returns every disagreement, plus
/// the transient kernel of each measure the adaptive-transient pair
/// compared.
///
/// `seed` only affects [`OraclePair::MonteCarlo`] (the simulation
/// stream); the exact pairs ignore it. Parametric definitions are
/// evaluated at their base point.
///
/// # Errors
///
/// Propagates validation/build errors (including state-budget refusals)
/// — callers treat these as "model unsuitable", not as disagreements.
pub fn check_pair(def: &SystemDef, pair: OraclePair, seed: u64) -> Result<PairCheck, ArcadeError> {
    let def = concretize(def);
    let mut out = Vec::new();
    let mut kernels = Vec::new();
    match pair {
        OraclePair::Modular => {
            let session = Session::new(&def)?.with_options(base_opts());
            let t = pick_horizon(&def, &session)?;
            let values = session.evaluate(&[
                Measure::SteadyStateUnavailability,
                Measure::PointUnavailability(t),
                Measure::Unreliability(t),
                Measure::UnreliabilityWithRepair(t),
            ])?;
            let m = modular_analysis(&def, &base_opts())?;
            let oracle = [
                m.steady_state_unavailability(),
                m.point_unavailability(t),
                1.0 - m.reliability(t),
                m.unreliability_with_repair(t),
            ];
            let names = [
                "steady_state_unavailability".to_owned(),
                format!("point_unavailability({t})"),
                format!("unreliability({t})"),
                format!("unreliability_with_repair({t})"),
            ];
            for ((name, &a), b) in names.iter().zip(&values).zip(oracle) {
                push_if_disagrees(&mut out, pair, name.clone(), a, b, 1e-7, None);
            }
        }
        OraclePair::AdaptiveTransient => {
            let mut adaptive = base_opts();
            adaptive.solver.transient.adaptive = true;
            let mut exact = base_opts();
            exact.solver.transient.adaptive = false;
            let s1 = Session::new(&def)?.with_options(adaptive.clone());
            let t = pick_horizon(&def, &s1)?;
            let labels = transient_kernels(&s1, t, &adaptive.solver.transient)?;
            kernels = labels.iter().flatten().copied().collect();
            let measures = [
                Measure::PointUnavailability(t),
                Measure::Unreliability(t),
                Measure::UnreliabilityWithRepair(t),
            ];
            let names = [
                format!("point_unavailability({t})"),
                format!("unreliability({t})"),
                format!("unreliability_with_repair({t})"),
            ];
            // One measure at a time, so the session's counters show the
            // work of each solve: a solve labelled dense must take no
            // DTMC steps (a memoized answer takes none either).
            let mut a = Vec::with_capacity(measures.len());
            for ((m, name), &kernel) in measures.iter().zip(&names).zip(&labels) {
                let before = s1.stats().dtmc_steps;
                a.push(s1.value(m)?);
                if kernel == Some(TransientKernel::Dense) {
                    let steps = (s1.stats().dtmc_steps - before) as f64;
                    push_if_disagrees(
                        &mut out,
                        pair,
                        format!("dtmc_steps of {name}"),
                        steps,
                        0.0,
                        0.0,
                        kernel,
                    );
                }
            }
            let b = Session::new(&def)?
                .with_options(exact)
                .evaluate(&measures)?;
            for (((name, &x), &y), &kernel) in names.iter().zip(&a).zip(&b).zip(&labels) {
                push_if_disagrees(&mut out, pair, name.clone(), x, y, 1e-7, kernel);
            }
        }
        OraclePair::SteadySolver => {
            let def = clamp_stiffness(&def, 1e4);
            let mut dense = base_opts();
            dense.solver.dense_limit = usize::MAX;
            let mut iterative = base_opts();
            iterative.solver.dense_limit = 0;
            iterative.solver.tol = 1e-13;
            iterative.solver.max_sweeps = 50_000;
            let measures = [Measure::SteadyStateUnavailability, Measure::Mttf];
            let a = Session::new(&def)?
                .with_options(dense)
                .evaluate(&measures)?;
            let b = Session::new(&def)?
                .with_options(iterative)
                .evaluate(&measures)?;
            push_if_disagrees(
                &mut out,
                pair,
                "steady_state_unavailability".to_owned(),
                a[0],
                b[0],
                1e-6,
                None,
            );
            push_if_disagrees(&mut out, pair, "mttf".to_owned(), a[1], b[1], 1e-6, None);
        }
        OraclePair::MonteCarlo => {
            let session = Session::new(&def)?.with_options(base_opts());
            let t = pick_horizon(&def, &session)?;
            let exact = session.value(&Measure::Unreliability(t))?;
            let est = sim::simulate_unreliability(&def, t, 1200, seed, false)?;
            // Four standard errors plus an absolute cushion: wide enough
            // that a correct engine essentially never trips it, narrow
            // enough that a mis-rated transition (the bug class this pair
            // exists for) still does. Deterministic for a fixed seed.
            let sigma = est.half_width / 1.96;
            let tol = 4.0 * sigma + 0.015;
            if (exact - est.mean).abs() > tol {
                out.push(Disagreement {
                    pair,
                    measure: format!("unreliability({t}) [mc reps={}]", est.reps),
                    primary: exact,
                    oracle: est.mean,
                    tolerance: tol,
                    kernel: None,
                });
            }
        }
    }
    Ok(PairCheck {
        disagreements: out,
        kernels,
    })
}

/// Runs all four oracle pairs and concatenates their disagreements.
///
/// # Errors
///
/// Propagates the first build/validation error (see [`check_pair`]).
pub fn check_all(def: &SystemDef, seed: u64) -> Result<Vec<Disagreement>, ArcadeError> {
    let mut out = Vec::new();
    for pair in OraclePair::ALL {
        out.extend(check_pair(def, pair, seed)?.disagreements);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BcDef, RepairStrategy, RuDef};
    use crate::dist::Dist;
    use crate::expr::Expr;

    fn two_comp() -> SystemDef {
        let mut def = SystemDef::new("oracle-fixture");
        def.add_component(BcDef::new("a", Dist::exp(0.02), Dist::exp(0.5)));
        def.add_component(BcDef::new("b", Dist::erlang(2, 0.01), Dist::exp(1.0)));
        def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
        def
    }

    #[test]
    fn a_healthy_model_passes_all_four_pairs() {
        let def = two_comp();
        let ds = check_all(&def, 11).expect("oracles run");
        assert!(ds.is_empty(), "unexpected disagreements: {ds:?}");
    }

    #[test]
    fn parametric_models_are_checked_at_their_base_point() {
        let mut def = two_comp();
        def.add_param("lambda", 0.02);
        let ds = check_all(&def, 5).expect("oracles run");
        assert!(ds.is_empty(), "unexpected disagreements: {ds:?}");
    }

    /// The transient pair labels each compared measure with the kernel
    /// it ran on: a fast repair next to slow failures sends this small
    /// model's solves to the dense kernel, which must agree with the
    /// exact engine.
    #[test]
    fn adaptive_transient_checks_carry_their_kernel() {
        let mut def = SystemDef::new("stiff-fixture");
        def.add_component(BcDef::new("a", Dist::exp(1e-3), Dist::exp(500.0)));
        def.add_component(BcDef::new("b", Dist::exp(1e-2), Dist::exp(1.0)));
        def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
        def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
        def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
        let checked = check_pair(&def, OraclePair::AdaptiveTransient, 0).expect("oracle runs");
        assert!(checked.disagreements.is_empty(), "{checked:?}");
        assert_eq!(checked.kernels.len(), 3, "every measure ran a solve");
        assert!(checked.kernels.contains(&TransientKernel::Dense));
        let steady = check_pair(&def, OraclePair::SteadySolver, 0).expect("oracle runs");
        assert!(steady.kernels.is_empty());
    }

    #[test]
    fn pair_names_are_stable() {
        let names: Vec<&str> = OraclePair::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "modular",
                "adaptive-transient",
                "steady-solver",
                "monte-carlo"
            ]
        );
    }
}
