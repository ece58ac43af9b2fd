//! End-to-end cross-validation of the exact engine against the
//! independent Monte-Carlo simulator (`arcade::sim`), on the paper's two
//! case studies. The sim module documents this oracle role; this test
//! enforces it: seeded, deterministic MC estimates must bracket the exact
//! measures inside their 95% confidence intervals.
//!
//! Measures are chosen where Monte Carlo has resolving power (event
//! probabilities well above 1/reps). The RCS *with-repair* measures sit
//! around 1e-9 and are unreachable for plain MC — the no-repair
//! unreliability at long horizons is the MC-tractable RCS measure, and
//! the exact side goes through the same `Session`-backed pipeline.

use arcade::cases::dds::dds;
use arcade::cases::rcs::rcs;
use arcade::engine::EngineOptions;
use arcade::modular::modular_analysis;
use arcade::query::{Measure, Session};
use arcade::sim::{simulate_unavailability, simulate_unreliability};

/// DDS: the no-repair unreliability (Table 1's R complemented), the
/// with-repair first passage, and the long-run unavailability — one
/// batched exact evaluation, three independent seeded estimators.
#[test]
fn dds_exact_measures_lie_in_simulation_confidence_intervals() {
    let def = dds();
    let t = 840.0; // the paper's five-week mission
    let session = Session::new(&def).expect("DDS session");
    let exact = session
        .evaluate(&[
            Measure::Unreliability(t),
            Measure::UnreliabilityWithRepair(t),
            Measure::SteadyStateUnavailability,
        ])
        .expect("exact measures");

    let no_repair = simulate_unreliability(&def, t, 20_000, 42, false).expect("sim runs");
    assert!(
        no_repair.contains(exact[0]),
        "no-repair unreliability {:.6e} outside CI {:?}",
        exact[0],
        no_repair
    );

    let with_repair = simulate_unreliability(&def, t, 20_000, 43, true).expect("sim runs");
    assert!(
        with_repair.contains(exact[1]),
        "with-repair unreliability {:.6e} outside CI {:?}",
        exact[1],
        with_repair
    );

    // Long-run unavailability as a time average over a long horizon; the
    // estimator is noisy (rare ~1h down intervals in a 150k-hour run),
    // so its own CI is wide — the exact value must still sit inside it.
    let unavail = simulate_unavailability(&def, 150_000.0, 60, 7).expect("sim runs");
    assert!(
        unavail.contains(exact[2]),
        "steady unavailability {:.6e} outside CI {:?}",
        exact[2],
        unavail
    );
}

/// RCS: no-repair unreliability at long horizons (where the failure
/// probability is MC-sized), exact values from the modular analysis
/// (each module its own `Session`; the decomposition is exact for
/// independent modules).
#[test]
fn rcs_exact_measures_lie_in_simulation_confidence_intervals() {
    let def = rcs();
    let horizons = [(200_000.0, 11u64), (400_000.0, 12)];
    let reliability = modular_analysis(&def, &EngineOptions::new())
        .expect("RCS analysis")
        .evaluate(&horizons.map(|(t, _)| Measure::Reliability(t)))
        .expect("RCS reliabilities");
    for ((t, seed), r) in horizons.into_iter().zip(reliability) {
        let exact = 1.0 - r;
        let est = simulate_unreliability(&def, t, 20_000, seed, false).expect("sim runs");
        assert!(
            est.mean > 0.05 && est.mean < 0.95,
            "t={t}: estimate {est:?} has no MC resolving power — pick another horizon"
        );
        assert!(
            est.contains(exact),
            "t={t}: exact unreliability {exact:.6e} outside CI {est:?}"
        );
    }
}
