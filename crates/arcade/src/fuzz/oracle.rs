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
//!   combination of per-module measures). On a parametric draw the
//!   session runs on the parametric definition itself, and the pair
//!   also requires [`Session::evaluate_at`] at the declared base values
//!   to equal that session's [`Session::evaluate`] bitwise: the re-rate
//!   path (rate forms carried through aggregation, then
//!   [`Ctmc::rerate`]) with zero tolerance, on the aggregations the
//!   session already built. At one seeded point off the base, the
//!   transient measures of `evaluate_at` (solved on the configurations'
//!   cached windowed operators, refilled at the point) must equal
//!   [`rerated_reference`] bitwise.
//! * [`OraclePair::AdaptiveTransient`] — whichever kernel the cost model
//!   of [`ctmc::transient::select_kernel`] picks (dense scaling and
//!   squaring, or windowed steady-state-aware uniformization) vs the
//!   exact global-Λ scheme. Each compared measure is labelled with the
//!   kernel it ran on ([`PairCheck::kernels`]), and a solve labelled dense
//!   that took DTMC steps is a disagreement too.
//! * [`OraclePair::SteadySolver`] — dense GTH elimination vs the
//!   iterative path of the steady-state and MTTF solvers (Gauss–Seidel,
//!   or its GTH rescue when the iterate ends uncertified).
//! * [`OraclePair::MonteCarlo`] — the exact no-repair unreliability vs
//!   a seeded discrete-event simulation, compared against a widened
//!   confidence interval. Deterministic for a fixed seed, so a committed
//!   seed can never flake in CI.
//!
//! Tolerances are relative (`|a-b| ≤ tol · (1 + max(|a|,|b|))`) except
//! for Monte Carlo, where the tolerance is derived from the estimate's
//! own standard error.

use std::sync::Arc;

use ctmc::measures::state_mass;
use ctmc::transient::{select_kernel, transient_many_from_ctx, TransientKernel};
use ctmc::{Ctmc, MeasureContext, TransientOptions};
use smallrand::SmallRng;

use crate::ast::SystemDef;
use crate::build::observer::DOWN_BIT;
use crate::engine::{Aggregation, EngineOptions};
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

/// The declared base values of a parametric definition, in declaration
/// order.
fn bases(def: &SystemDef) -> Vec<f64> {
    def.params.iter().map(|p| p.base).collect()
}

/// One point off the declared base of a parametric definition, seeded:
/// every parameter at `0.5×` to `2×` its base.
fn off_base_point(def: &SystemDef, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0FF_BA5E);
    bases(def)
        .iter()
        .map(|b| b * (2.0 * rng.next_f64() - 1.0).exp2())
        .collect()
}

/// The transient measures of `measures` at the full parameter vector
/// `point`, computed the reference way, through the chain API alone:
/// the aggregated chain of each configuration `session` has built,
/// re-rated with [`Ctmc::rerate`], its absorbing-down copy
/// ([`Ctmc::make_absorbing`]) for the first-passage kinds, one
/// [`transient_many_from_ctx`] per (configuration, kind) over that
/// kind's times in batch order, and the down mass of each distribution.
/// [`Session::evaluate_at`] and [`Session::sweep`], run with the
/// transient options `opts`, answer these bit for bit.
///
/// # Errors
///
/// Propagates aggregation errors and a re-rate error at `point`.
///
/// # Panics
///
/// Panics on a measure other than point (un)availability,
/// (un)reliability and unreliability with repair.
pub fn rerated_reference(
    session: &Session,
    measures: &[Measure],
    point: &[f64],
    opts: &TransientOptions,
) -> Result<Vec<f64>, ArcadeError> {
    // The down mass over `ts` on one configuration's chain (or its
    // absorbing-down copy) at the point.
    let solve = |config: fn(&Session) -> Result<Arc<Aggregation>, ArcadeError>,
                 absorbing: bool,
                 kind: fn(&Measure) -> Option<f64>|
     -> Result<std::vec::IntoIter<f64>, ArcadeError> {
        let ts: Vec<f64> = measures.iter().filter_map(kind).collect();
        if ts.is_empty() {
            return Ok(Vec::new().into_iter());
        }
        let chain = config(session)?.ctmc.rerate(point)?;
        let down: Vec<u32> = chain.states_with_label(DOWN_BIT).collect();
        if absorbing && down.is_empty() {
            return Ok(vec![0.0; ts.len()].into_iter());
        }
        let chain = if absorbing {
            chain.make_absorbing(down.iter().copied())
        } else {
            chain
        };
        let pis = transient_many_from_ctx(
            &chain,
            &chain.initial_distribution(),
            &ts,
            opts,
            &MeasureContext::new(),
        );
        let masses: Vec<f64> = pis.iter().map(|pi| state_mass(&down, pi)).collect();
        Ok(masses.into_iter())
    };
    let mut unavail = solve(Session::availability_model, false, |m| match m {
        Measure::PointAvailability(t) | Measure::PointUnavailability(t) => Some(*t),
        _ => None,
    })?;
    let mut repair = solve(Session::availability_model, true, |m| match m {
        Measure::UnreliabilityWithRepair(t) => Some(*t),
        _ => None,
    })?;
    let mut norepair = solve(Session::reliability_model, true, |m| match m {
        Measure::Reliability(t) | Measure::Unreliability(t) => Some(*t),
        _ => None,
    })?;
    let values = measures.iter().map(|m| {
        let value = match m {
            Measure::PointAvailability(_) => unavail.next().map(|x| 1.0 - x),
            Measure::PointUnavailability(_) => unavail.next(),
            Measure::UnreliabilityWithRepair(_) => repair.next(),
            Measure::Reliability(_) => norepair.next().map(|x| 1.0 - x),
            Measure::Unreliability(_) => norepair.next(),
            other => panic!("{other:?} is not a transient measure"),
        };
        value.expect("one value per measure")
    });
    Ok(values.collect())
}

/// The concrete model an oracle run analyzes: parametric definitions are
/// pinned at their declared base point.
fn concretize(def: &SystemDef) -> SystemDef {
    if def.is_parametric() {
        def.at_point(&bases(def))
    } else {
        def.clone()
    }
}

/// Runs one oracle pair on `def` and returns every disagreement, plus
/// the transient kernel of each measure the adaptive-transient pair
/// compared.
///
/// `seed` only affects [`OraclePair::MonteCarlo`] (the simulation
/// stream) and the off-base point of the modular pair's parametric check;
/// the other exact pairs ignore it. Parametric definitions are evaluated
/// at their base point; the modular pair's session keeps the parameters
/// and checks its re-rate path there and at the off-base point (see the
/// module docs).
///
/// # Errors
///
/// Propagates validation/build errors (including state-budget refusals)
/// — callers treat these as "model unsuitable", not as disagreements.
pub fn check_pair(def: &SystemDef, pair: OraclePair, seed: u64) -> Result<PairCheck, ArcadeError> {
    let parametric = def.is_parametric().then_some(def);
    let def = concretize(def);
    let mut out = Vec::new();
    let mut kernels = Vec::new();
    match pair {
        OraclePair::Modular => {
            // A parametric session carries rate forms but computes the
            // same rates as the concrete one.
            let session = Session::new(parametric.unwrap_or(&def))?.with_options(base_opts());
            let t = pick_horizon(&def, &session)?;
            let measures = [
                Measure::SteadyStateUnavailability,
                Measure::PointUnavailability(t),
                Measure::Unreliability(t),
                Measure::UnreliabilityWithRepair(t),
            ];
            let values = session.evaluate(&measures)?;
            let oracle = modular_analysis(&def, &base_opts())?.evaluate(&measures)?;
            let names = [
                "steady_state_unavailability".to_owned(),
                format!("point_unavailability({t})"),
                format!("unreliability({t})"),
                format!("unreliability_with_repair({t})"),
            ];
            for ((name, &a), b) in names.iter().zip(&values).zip(oracle) {
                push_if_disagrees(&mut out, pair, name.clone(), a, b, 1e-7, None);
            }
            if let Some(p) = parametric {
                // Re-rating at the base point must reproduce the memoized
                // answers to the bit.
                let at_base = session.evaluate_at(&measures, &bases(p))?;
                let point = off_base_point(p, seed);
                let transient = &measures[1..];
                let at_point = session.evaluate_at(transient, &point)?;
                let opts = base_opts().solver.transient;
                let reference = rerated_reference(&session, transient, &point, &opts)?;
                let base_pairs = names.iter().zip(&values).zip(&at_base);
                let base_pairs = base_pairs
                    .map(|((n, &a), &b)| (format!("{n} re-rated at the base point"), a, b));
                let off_pairs = names[1..].iter().zip(&at_point).zip(&reference);
                let off_pairs = off_pairs
                    .map(|((n, &a), &b)| (format!("{n} at the off-base point {point:?}"), a, b));
                for (measure, a, b) in base_pairs.chain(off_pairs) {
                    if a.to_bits() != b.to_bits() {
                        out.push(Disagreement {
                            pair,
                            measure,
                            primary: a,
                            oracle: b,
                            tolerance: 0.0,
                            kernel: None,
                        });
                    }
                }
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

    /// On a parametric model the modular pair re-rates its session at the
    /// base values and requires the memoized answers bitwise.
    /// `dds_scaled_parametric(3)` lumps rates that depend on several
    /// parameters, where a re-rate that regrouped the sums moves the last
    /// bits of three of the four measures.
    #[test]
    fn modular_pair_checks_the_rerate_path_bitwise() {
        let def = crate::cases::dds_scaled_parametric(3);
        let checked = check_pair(&def, OraclePair::Modular, 0).expect("oracle runs");
        assert!(checked.disagreements.is_empty(), "{checked:?}");
    }

    /// The modular pair also solves each parametric draw at one seeded
    /// point off its base: there `evaluate_at` steps on the refilled
    /// windowed operators, and its transient measures must equal the
    /// re-rate reference path bit for bit, while differing from the base
    /// answers.
    #[test]
    fn modular_pair_checks_an_off_base_point_bitwise() {
        let mut def = two_comp();
        def.add_param("lambda", 0.02);
        let measures = [
            Measure::PointUnavailability(50.0),
            Measure::Unreliability(50.0),
            Measure::UnreliabilityWithRepair(50.0),
        ];
        let opts = base_opts().solver.transient;
        for seed in [1, 2, 3] {
            let point = off_base_point(&def, seed);
            assert_ne!(point, bases(&def));
            let session = Session::new(&def)
                .expect("session")
                .with_options(base_opts());
            let at = session.evaluate_at(&measures, &point).expect("evaluate_at");
            let reference =
                rerated_reference(&session, &measures, &point, &opts).expect("reference");
            let base = session.evaluate(&measures).expect("evaluate");
            for ((a, b), c) in at.iter().zip(&reference).zip(&base) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}: {a:e} vs {b:e}");
                assert_ne!(a, c, "seed {seed}: the point must move the answer");
            }
            let checked = check_pair(&def, OraclePair::Modular, seed).expect("oracle runs");
            assert!(checked.disagreements.is_empty(), "{checked:?}");
        }
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
