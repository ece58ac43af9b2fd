//! Integration tests of the paper's proposed extensions: the Priority-AND
//! gate (footnote 8), the SMU failover time (§3.6), and the CSL layer
//! (§6) — each checked against closed forms through the full pipeline.

use arcade::parser::parse_system;
use arcade::prelude::*;
use arcade::printer::to_arcade_text;
use ctmc::csl::StateFormula;

/// PAND without repair has a closed form: for exponential components
/// F (rate f) and C (rate c),
/// `P(T_F < T_C ≤ t) = (1 - e^{-ct}) - c/(c+f) (1 - e^{-(c+f)t})`.
#[test]
fn pand_no_repair_closed_form() {
    let (f, c) = (0.004, 0.001);
    let mut def = SystemDef::new("pand");
    def.add_component(BcDef::new("fan", Dist::exp(f), Dist::exp(1.0)));
    def.add_component(BcDef::new("cpu", Dist::exp(c), Dist::exp(1.0)));
    def.set_system_down(Expr::pand([Expr::down("fan"), Expr::down("cpu")]));
    let t = 400.0;
    let unreliability = |def: &SystemDef| {
        Session::new(def)
            .unwrap()
            .value(&Measure::Unreliability(t))
            .unwrap()
    };
    let got = unreliability(&def);
    let expected = (1.0 - (-c * t).exp()) - c / (c + f) * (1.0 - (-(c + f) * t).exp());
    assert!(
        (got - expected).abs() < 1e-10,
        "PAND unreliability {got} vs closed form {expected}"
    );
    // the AND variant is strictly more likely
    let mut and_def = def.clone();
    and_def.set_system_down(Expr::and([Expr::down("fan"), Expr::down("cpu")]));
    assert!(unreliability(&and_def) > got);
}

/// PAND over three components: the probability that three exponentials
/// fall in a fixed order by t=∞ is λ1/(λ1+λ2+λ3) · λ2/(λ2+λ3).
#[test]
fn pand_three_way_ordering_probability() {
    let rates = [0.03, 0.02, 0.01];
    let mut def = SystemDef::new("pand3");
    for (i, &r) in rates.iter().enumerate() {
        def.add_component(BcDef::new(format!("c{i}"), Dist::exp(r), Dist::exp(1.0)));
    }
    def.set_system_down(Expr::pand([
        Expr::down("c0"),
        Expr::down("c1"),
        Expr::down("c2"),
    ]));
    // by t -> infinity every component has failed; the PAND fired iff the
    // order was c0 < c1 < c2
    let t = 5000.0;
    let got = Session::new(&def)
        .unwrap()
        .value(&Measure::Unreliability(t))
        .unwrap();
    let total: f64 = rates.iter().sum();
    let expected = rates[0] / total * (rates[1] / (rates[1] + rates[2]));
    assert!(
        (got - expected).abs() < 1e-6,
        "3-way PAND {got} vs order probability {expected}"
    );
}

/// The failover SMU converges to the instantaneous SMU as the failover
/// rate grows, monotonically.
#[test]
fn failover_converges_monotonically() {
    let t = 200.0;
    let unreliability_with_repair = |failover: Option<Dist>| {
        let mut def = SystemDef::new("fo");
        def.add_component(BcDef::new("pp", Dist::exp(0.02), Dist::exp(1.0)));
        def.add_component(
            BcDef::new("ps", Dist::exp(0.02), Dist::exp(1.0))
                .with_om_group(OmGroup::ActiveInactive)
                .with_ttf([Dist::Never, Dist::exp(0.02)]),
        );
        def.add_repair_unit(RuDef::new("r", ["pp", "ps"], RepairStrategy::Fcfs));
        let mut smu = SmuDef::new("m", "pp", ["ps"]);
        if let Some(d) = failover {
            smu = smu.with_failover(d);
        }
        def.add_smu(smu);
        def.set_system_down(Expr::and([Expr::down("pp"), Expr::down("ps")]));
        Session::new(&def)
            .unwrap()
            .value(&Measure::UnreliabilityWithRepair(t))
            .unwrap()
    };
    let instant = unreliability_with_repair(None);
    let mut last = unreliability_with_repair(Some(Dist::exp(0.5)));
    for rate in [2.0, 10.0, 100.0] {
        let cur = unreliability_with_repair(Some(Dist::exp(rate)));
        assert!(
            cur >= last - 1e-12,
            "cold-spare exposure grows with failover rate: {cur} < {last}"
        );
        last = cur;
    }
    assert!((last - instant).abs() < 1e-3, "{last} vs instant {instant}");
}

/// CSL layer: nested propositions over the final CTMC behave consistently
/// with the classic measures on a repairable pair.
#[test]
fn csl_consistency_on_repairable_pair() {
    let mut def = SystemDef::new("csl");
    def.add_component(BcDef::new("a", Dist::exp(0.05), Dist::exp(1.0)));
    def.add_component(BcDef::new("b", Dist::exp(0.05), Dist::exp(1.0)));
    def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
    def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
    def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
    let t = 30.0;
    let v = Session::new(&def)
        .unwrap()
        .evaluate(&[
            Measure::BoundedUntil {
                phi: StateFormula::up(),
                psi: StateFormula::down(),
                t,
            },
            Measure::UnreliabilityWithRepair(t),
            Measure::IntervalAvailability(t),
            Measure::PointAvailability(t),
        ])
        .unwrap();
    // until from an up state == first passage
    let q = v[0];
    assert!((q - v[1]).abs() < 1e-12);
    // interval availability lies between the point availability at t and 1
    let ia = v[2];
    assert!(ia <= 1.0);
    assert!(ia >= v[3] - 1e-9);
}

/// PAND survives the textual round trip and the parser rejects misuse.
#[test]
fn pand_text_round_trip_and_guards() {
    let text = "
COMPONENT: fan
TIME-TO-FAILURE: exp(0.004)

COMPONENT: cpu
TIME-TO-FAILURE: exp(0.001)

SYSTEM DOWN: PAND(fan.down, cpu.down)
";
    let def = parse_system(text).unwrap();
    assert!(def.system_down.as_ref().unwrap().contains_pand());
    let printed = to_arcade_text(&def);
    let again = parse_system(&printed).unwrap();
    assert_eq!(again.system_down, def.system_down);

    // the simulator refuses PAND (order-dependent, stateless evaluation)
    let err = arcade::sim::simulate_unreliability(&def, 10.0, 100, 1, false);
    assert!(err.is_err());
    // the analytic evaluator refuses it too
    assert!(arcade::analytic::static_unreliability(&def, 10.0).is_err());
    // PAND in a trigger expression is rejected at validation
    let mut bad = def.clone();
    bad.components[1] = BcDef::new("cpu", Dist::exp(0.001), Dist::exp(1.0)).with_df(
        Expr::pand([Expr::down("fan"), Expr::down("fan")]),
        Dist::exp(1.0),
    );
    assert!(arcade::model::validate(&bad).is_err());
}
