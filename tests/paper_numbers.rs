//! Regression tests pinning the reproduced paper numbers, so that
//! `cargo test` itself guards the headline results (the `exp_*` binaries
//! regenerate and print them).

use arcade::cases::dds::{dds, FIVE_WEEKS_H};
use arcade::cases::rcs::rcs;
use arcade::engine::{aggregate, EngineOptions};
use arcade::model::SystemModel;
use arcade::modular::modular_analysis;
use arcade::query::{Measure, Session};

/// Table 1: A = 0.999997, R(5 weeks) = 0.402018 (modular analysis —
/// fast enough for the debug-profile test suite).
#[test]
fn table1_dds_measures() {
    let m = modular_analysis(&dds(), &EngineOptions::new()).expect("DDS analysis");
    let v = m
        .evaluate(&[
            Measure::SteadyStateAvailability,
            Measure::Reliability(FIVE_WEEKS_H),
        ])
        .expect("DDS measures");
    let (a, r) = (v[0], v[1]);
    assert!(
        (a - 0.999997).abs() < 5e-7,
        "availability {a} drifted from the paper's 0.999997"
    );
    assert!(
        (r - 0.402018).abs() < 5e-6,
        "reliability {r} drifted from the paper's 0.402018"
    );
}

/// Numerics regression pin: the DDS measures computed on the monolithic
/// 2,100-state chain, captured **before** the CSR/`SolverOptions` rewrite
/// of the `ctmc` crate. Every kernel that changed representation (steady
/// state, uniformization, hitting times) must reproduce these to ≤1e-10
/// relative.
#[test]
fn dds_measures_match_pre_csr_refactor_values() {
    let session = Session::new(&dds()).expect("DDS session");
    let mut measures = vec![
        Measure::SteadyStateAvailability,
        Measure::SteadyStateUnavailability,
        Measure::Mttf,
        Measure::UnreliabilityWithRepair(840.0),
    ];
    for k in 1..=10u32 {
        measures.push(Measure::Unreliability(84.0 * f64::from(k)));
    }
    let expected = [
        0.9999965021714378,
        3.497828562245593e-6,
        286089.3108182308,
        0.0029283693822186605,
        0.011842306106247698,
        0.0449985245623829,
        0.09537395877785343,
        0.15854893761332614,
        0.23018712382599893,
        0.30633161625759064,
        0.383590668804612,
        0.4592271216571215,
        0.5311717758903122,
        0.5979824289215058,
    ];
    let values = session.evaluate(&measures).expect("batch evaluates");
    for ((m, &got), &want) in measures.iter().zip(&values).zip(&expected) {
        assert!(
            (got - want).abs() <= 1e-10 * want.abs(),
            "{m:?}: {got:.17e} drifted from pre-refactor {want:.17e}"
        );
    }
}

/// The same DDS pins, re-asserted per transient engine: the default
/// adaptive windowed engine and the exact global-Λ full-sweep engine
/// must both reproduce the pinned numbers to ≤ 1e-10 relative — the
/// adaptive engine's support truncation (default budget 1e-14 per grid
/// segment) is invisible at this precision. This is the paper-numbers
/// leg of the adaptive-engine regression gate (`exp_scaling` carries the
/// full-distribution leg).
#[test]
fn dds_measures_pinned_on_both_transient_engines() {
    let measures = [
        Measure::UnreliabilityWithRepair(840.0),
        Measure::Unreliability(84.0),
        Measure::Unreliability(420.0),
        Measure::Unreliability(840.0),
        Measure::PointUnavailability(840.0),
    ];
    let mut exact_opts = EngineOptions::new();
    exact_opts.solver.transient.adaptive = false;
    let adaptive = Session::new(&dds()).expect("DDS session");
    let exact = Session::new(&dds())
        .expect("DDS session")
        .with_options(exact_opts);
    let a = adaptive.evaluate(&measures).expect("adaptive batch");
    let e = exact.evaluate(&measures).expect("exact batch");
    for ((m, &got), &want) in measures.iter().zip(&a).zip(&e) {
        assert!(
            (got - want).abs() <= 1e-10 * want.abs().max(1e-300),
            "{m:?}: adaptive {got:.17e} vs exact {want:.17e}"
        );
    }
}

/// §5.1.2: the full monolithic aggregation of the DDS yields exactly the
/// paper's 2,100-state / 15,120-transition CTMC.
#[test]
fn dds_final_ctmc_is_exactly_the_papers() {
    let model = SystemModel::build(&dds()).expect("DDS model");
    let agg = aggregate(&model, &EngineOptions::new()).expect("aggregation");
    assert_eq!(agg.ctmc_stats.states, 2_100, "CTMC states");
    assert_eq!(agg.ctmc_stats.transitions(), 15_120, "CTMC transitions");
    // the peak stays in the paper's ballpark (they report 6,522)
    assert!(
        agg.largest_intermediate.states < 50_000,
        "peak {} states — the hierarchical plan regressed",
        agg.largest_intermediate.states
    );
}

/// §5.2.2: the RCS modularizes into the paper's two subsystems and the
/// 50-hour measures stay within the inventory-uncertainty band
/// (paper: 6.52100e-10 unavailability, 5.29242e-9 unreliability).
#[test]
fn rcs_measures_within_inventory_band() {
    let m = modular_analysis(&rcs(), &EngineOptions::new()).expect("RCS analysis");
    assert_eq!(m.modules.len(), 2, "pump + heat-exchanger subsystems");
    let v = m
        .evaluate(&[
            Measure::PointUnavailability(50.0),
            Measure::UnreliabilityWithRepair(50.0),
        ])
        .expect("RCS measures");
    let (ua, ur) = (v[0], v[1]);
    let ratio_a = ua / 6.52100e-10;
    let ratio_r = ur / 5.29242e-9;
    assert!(
        (0.5..2.0).contains(&ratio_a),
        "unavailability {ua} left the band (x{ratio_a:.2})"
    );
    assert!(
        (0.5..2.0).contains(&ratio_r),
        "unreliability {ur} left the band (x{ratio_r:.2})"
    );
    // the two measures must drift together (inventory, not semantics)
    assert!(
        (ratio_a - ratio_r).abs() < 0.05,
        "measures drifted apart: x{ratio_a:.2} vs x{ratio_r:.2}"
    );
}
