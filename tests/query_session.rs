//! Acceptance tests for the query-driven measure engine: the lazy
//! `Session` answers batched curves with one aggregation per needed
//! configuration and a fraction of the scalar loop's uniformization work,
//! while agreeing with the scalar path to 1e-10 — checked on the DDS case
//! study.

use arcade::build::observer::DOWN_BIT;
use arcade::cases::dds::{dds_scaled, FIVE_WEEKS_H};
use arcade::prelude::*;
use ctmc::measures::state_mass;
use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext, TransientOptions};

/// The probability mass on `down` at time `t` of one scalar solve of
/// `chain` through `ctx`.
fn scalar_mass(chain: &Ctmc, down: &[u32], t: f64, ctx: &MeasureContext) -> f64 {
    let pi = transient_many_from_ctx(
        chain,
        &chain.initial_distribution(),
        &[t],
        &TransientOptions::default(),
        ctx,
    );
    state_mass(down, &pi[0])
}

/// A 50-point unavailability + first-passage curve on the DDS case:
/// exactly one aggregation (only the availability configuration is
/// needed), one absorbing transformation, and at least 5x fewer DTMC
/// steps than the per-point scalar loop — with identical values.
#[test]
fn dds_curve_batched_is_5x_cheaper_and_agrees() {
    let def = dds_scaled(1);
    let session = Session::new(&def).expect("valid DDS");
    let grid: Vec<f64> = (1..=50)
        .map(|k| FIVE_WEEKS_H * f64::from(k) / 50.0)
        .collect();
    let mut batch: Vec<Measure> = grid
        .iter()
        .map(|&t| Measure::PointUnavailability(t))
        .collect();
    batch.extend(grid.iter().map(|&t| Measure::UnreliabilityWithRepair(t)));

    let values = session.evaluate(&batch).expect("batched curve");
    let batched_steps = session.stats().dtmc_steps;

    // Laziness: both curves live on the availability configuration, so
    // exactly one aggregation ran; the absorbing-down chain was built
    // once for the whole first-passage grid.
    assert_eq!(session.stats().aggregations_built, 1);
    assert_eq!(session.stats().absorbing_built, 1);

    // The scalar loop: one independent transient solve per point and one
    // absorbing transformation + solve per first-passage point, all
    // counted on one context.
    let ctmc = &session.availability_model().expect("built").ctmc;
    let down: Vec<u32> = ctmc.states_with_label(DOWN_BIT).collect();
    let scalar = MeasureContext::new();
    let scalar_unavail: Vec<f64> = grid
        .iter()
        .map(|&t| scalar_mass(ctmc, &down, t, &scalar))
        .collect();
    let scalar_fp: Vec<f64> = grid
        .iter()
        .map(|&t| {
            let absorbing = ctmc.make_absorbing(down.iter().copied());
            scalar_mass(&absorbing, &down, t, &scalar)
        })
        .collect();
    let scalar_steps = scalar.counters.dtmc_steps();

    assert!(
        batched_steps * 5 <= scalar_steps,
        "batched curve must be >=5x cheaper: {batched_steps} vs {scalar_steps} DTMC steps"
    );

    for (i, &t) in grid.iter().enumerate() {
        assert!(
            (values[i] - scalar_unavail[i]).abs() < 1e-10,
            "unavailability at t={t}: batched {} vs scalar {}",
            values[i],
            scalar_unavail[i]
        );
        assert!(
            (values[50 + i] - scalar_fp[i]).abs() < 1e-10,
            "unreliability at t={t}: batched {} vs scalar {}",
            values[50 + i],
            scalar_fp[i]
        );
    }
}

/// The batched `Session` answers exactly what the eager `AnalysisReport`
/// answers one measure at a time.
#[test]
fn session_batch_matches_analysis_report() {
    let mut def = SystemDef::new("xcheck");
    def.add_component(BcDef::new("pp", Dist::exp(0.02), Dist::exp(0.5)));
    def.add_component(
        BcDef::new("ps", Dist::exp(0.02), Dist::exp(0.5))
            .with_om_group(OmGroup::ActiveInactive)
            .with_ttf([Dist::exp(0.002), Dist::exp(0.02)]),
    );
    def.add_repair_unit(RuDef::new("rep", ["pp", "ps"], RepairStrategy::Fcfs));
    def.add_smu(SmuDef::new("smu", "pp", ["ps"]));
    def.set_system_down(Expr::and([Expr::down("pp"), Expr::down("ps")]));

    let report = Analysis::new(&def).unwrap().run().unwrap();
    let session = Session::new(&def).unwrap();
    let ts = [1.0, 10.0, 50.0, 200.0];
    let mut batch = vec![
        Measure::SteadyStateAvailability,
        Measure::SteadyStateUnavailability,
        Measure::Mttf,
    ];
    for &t in &ts {
        batch.push(Measure::PointUnavailability(t));
        batch.push(Measure::Reliability(t));
        batch.push(Measure::UnreliabilityWithRepair(t));
    }
    let values = session.evaluate(&batch).unwrap();
    assert!((values[0] - report.steady_state_availability()).abs() < 1e-12);
    assert!((values[1] - report.steady_state_unavailability()).abs() < 1e-12);
    assert!((values[2] - report.mttf()).abs() < 1e-9);
    for (i, &t) in ts.iter().enumerate() {
        assert!((values[3 + 3 * i] - report.point_unavailability(t)).abs() < 1e-12);
        assert!((values[4 + 3 * i] - report.reliability(t)).abs() < 1e-12);
        assert!((values[5 + 3 * i] - report.unreliability_with_repair(t)).abs() < 1e-12);
    }
    // Both configurations were needed (reliability is a no-repair
    // measure) and nothing was built twice.
    assert_eq!(session.stats().aggregations_built, 2);
    assert_eq!(session.stats().steady_solves, 1);
}

/// Unfailable systems answer the degenerate values through the batch
/// path too.
#[test]
fn unfailable_system_degenerates_gracefully() {
    let mut def = SystemDef::new("solid");
    def.add_component(BcDef::new("a", Dist::Never, Dist::exp(1.0)));
    def.add_component(BcDef::new("b", Dist::exp(0.1), Dist::exp(1.0)));
    def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
    // down only when the unfailable component fails
    def.set_system_down(Expr::down("a"));
    let session = Session::new(&def).unwrap();
    let v = session
        .evaluate(&[
            Measure::SteadyStateAvailability,
            Measure::Unreliability(100.0),
            Measure::UnreliabilityWithRepair(100.0),
            Measure::Mttf,
        ])
        .unwrap();
    assert_eq!(v[0], 1.0);
    assert_eq!(v[1], 0.0);
    assert_eq!(v[2], 0.0);
    assert_eq!(v[3], f64::INFINITY);
}
