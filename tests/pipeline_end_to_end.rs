//! End-to-end integration tests spanning all four crates: model
//! definitions go through elaboration, composition, reduction, CTMC
//! extraction and measure computation, and the results are checked against
//! closed forms and against the independent Monte-Carlo simulator.

use arcade::analytic;
use arcade::engine::{aggregate, EngineOptions};
use arcade::model::SystemModel;
use arcade::parser::parse_system;
use arcade::prelude::*;
use arcade::sim;
use bisim::pipeline::Strategy;
use ctmc::measures;

/// k-out-of-n:G system of identical repairable components with dedicated
/// repair: compare against the closed-form independent-component answer.
#[test]
fn k_of_n_availability_closed_form() {
    let (lambda, mu) = (0.01, 1.0);
    let n = 4;
    let k_fail = 2; // system down when >= 2 of 4 are down
    let mut def = SystemDef::new("koon");
    let names: Vec<String> = (0..n).map(|i| format!("u{i}")).collect();
    for name in &names {
        def.add_component(BcDef::new(name, Dist::exp(lambda), Dist::exp(mu)));
        def.add_repair_unit(RuDef::new(
            format!("{name}.rep"),
            [name.clone()],
            RepairStrategy::Dedicated,
        ));
    }
    def.set_system_down(Expr::k_of_n(
        k_fail,
        names.iter().map(|n| Expr::down(n.clone())),
    ));
    let session = Session::new(&def).unwrap();
    // closed form: each unit independently down with prob u = λ/(λ+µ)
    let u = lambda / (lambda + mu);
    let p_down: f64 = (k_fail..=n as u32)
        .map(|j| {
            let j = j as i32;
            binom(n, j) * u.powi(j) * (1.0 - u).powi(n - j)
        })
        .sum();
    let got = session.value(&Measure::SteadyStateUnavailability).unwrap();
    assert!(
        (got - p_down).abs() / p_down < 1e-9,
        "engine {got}, closed form {p_down}"
    );
    // analytic evaluator agrees too
    let a = analytic::independent_unavailability(&def).unwrap();
    assert!((a - p_down).abs() / p_down < 1e-12);
}

fn binom(n: i32, k: i32) -> f64 {
    let mut r = 1.0;
    for i in 0..k {
        r *= f64::from(n - i) / f64::from(i + 1);
    }
    r
}

/// The engine's exact unreliability must fall inside the Monte-Carlo
/// confidence interval for a model exercising SMU + FCFS repair + KofN.
#[test]
fn engine_agrees_with_simulation() {
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

    let t = 50.0;
    let v = Session::new(&def)
        .unwrap()
        .evaluate(&[
            Measure::Unreliability(t),
            Measure::UnreliabilityWithRepair(t),
        ])
        .unwrap();
    let exact = v[0];
    let mc = sim::simulate_unreliability(&def, t, 30_000, 42, false).unwrap();
    assert!(
        mc.contains(exact),
        "exact {exact} outside MC interval {mc:?}"
    );

    let exact_fp = v[1];
    let mc_fp = sim::simulate_unreliability(&def, t, 100_000, 43, true).unwrap();
    assert!(
        mc_fp.contains(exact_fp),
        "exact {exact_fp} outside MC interval {mc_fp:?}"
    );
}

/// Erlang distributions flow correctly through the whole pipeline:
/// a single Erlang-3 component's no-repair unreliability equals the
/// Erlang CDF.
#[test]
fn erlang_component_end_to_end() {
    let mut def = SystemDef::new("erl");
    def.add_component(BcDef::new("p", Dist::erlang(3, 0.01), Dist::erlang(2, 0.1)));
    def.add_repair_unit(RuDef::new("rep", ["p"], RepairStrategy::Dedicated));
    def.set_system_down(Expr::down("p"));
    let t = 250.0;
    let v = Session::new(&def)
        .unwrap()
        .evaluate(&[Measure::Unreliability(t), Measure::SteadyStateAvailability])
        .unwrap();
    let got = v[0];
    let expected = Dist::erlang(3, 0.01).cdf(t);
    assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
    // availability: MTTF = 300, MTTR = 20 -> A = 300/320
    let a = v[1];
    assert!((a - 300.0 / 320.0).abs() < 1e-9, "availability {a}");
}

/// Load sharing (normal/degraded) measurably reduces reliability compared
/// to independent components, and the engine's number matches the
/// 4-state Markov closed form.
#[test]
fn load_sharing_closed_form() {
    let (l, l2) = (0.01, 0.03);
    let mut def = SystemDef::new("ls");
    for (me, other) in [("a", "b"), ("b", "a")] {
        def.add_component(
            BcDef::new(me, Dist::exp(l), Dist::exp(1.0))
                .with_om_group(OmGroup::NormalDegraded(Expr::down(other)))
                .with_ttf([Dist::exp(l), Dist::exp(l2)]),
        );
    }
    def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
    let session = Session::new(&def).unwrap();
    // closed form: both up -> first failure at 2λ; then survivor fails at λ2:
    // R(t) = e^{-2λt} + 2λ/(λ2-2λ) (e^{-2λt} - e^{-λ2 t}) for λ2 != 2λ
    let t = 40.0;
    let r_closed =
        (-2.0 * l * t).exp() + 2.0 * l / (l2 - 2.0 * l) * ((-2.0 * l * t).exp() - (-l2 * t).exp());
    let got = session.value(&Measure::Reliability(t)).unwrap();
    assert!((got - r_closed).abs() < 1e-9, "{got} vs {r_closed}");
}

/// Destructive FDEP cascades are visible at the system level.
#[test]
fn df_cascade_end_to_end() {
    let mut def = SystemDef::new("df");
    def.add_component(BcDef::new("fan", Dist::exp(0.05), Dist::exp(1.0)));
    def.add_component(
        BcDef::new("cpu", Dist::exp(0.001), Dist::exp(1.0))
            .with_df(Expr::down("fan"), Dist::exp(1.0)),
    );
    def.add_repair_unit(RuDef::new("rf", ["fan"], RepairStrategy::Dedicated));
    def.add_repair_unit(RuDef::new("rc", ["cpu"], RepairStrategy::Dedicated));
    def.set_system_down(Expr::down("cpu"));
    let session = Session::new(&def).unwrap();
    // no repair: cpu down by t if its own failure OR the fan's failure
    // fired: R(t) = e^{-(0.001+0.05)t}
    let t = 30.0;
    let got = session.value(&Measure::Reliability(t)).unwrap();
    let expected = (-(0.051f64) * t).exp();
    assert!((got - expected).abs() < 1e-9, "{got} vs {expected}");
}

/// The three reduction strategies and the flat ablation agree on a model
/// with non-trivial concurrency.
#[test]
fn strategies_agree_on_concurrent_model() {
    let mut def = SystemDef::new("conc");
    for n in ["a", "b", "c"] {
        def.add_component(BcDef::new(n, Dist::exp(0.03), Dist::exp(0.7)));
    }
    def.add_repair_unit(RuDef::new("r1", ["a", "b"], RepairStrategy::Fcfs));
    def.add_repair_unit(RuDef::new("r2", ["c"], RepairStrategy::Dedicated));
    def.set_system_down(Expr::or([
        Expr::and([Expr::down("a"), Expr::down("b")]),
        Expr::down("c"),
    ]));
    let model = SystemModel::build(&def).unwrap();
    let mut results = Vec::new();
    for strategy in [Strategy::Branching, Strategy::Strong, Strategy::None] {
        for reduce_intermediate in [true, false] {
            let agg = aggregate(
                &model,
                &EngineOptions {
                    strategy,
                    reduce_intermediate,
                    ..EngineOptions::new()
                },
            )
            .unwrap();
            results.push(measures::steady_state_unavailability(&agg.ctmc, 1));
        }
    }
    for w in results.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-10, "{results:?}");
    }
}

/// Branching reduction yields the smallest CTMC of the strategies.
#[test]
fn branching_reduces_most() {
    let mut def = SystemDef::new("size");
    for n in ["a", "b"] {
        def.add_component(BcDef::new(n, Dist::exp(0.01), Dist::exp(1.0)));
    }
    def.add_repair_unit(RuDef::new("r", ["a", "b"], RepairStrategy::Fcfs));
    def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
    let model = SystemModel::build(&def).unwrap();
    let sizes: Vec<usize> = [Strategy::Branching, Strategy::Strong, Strategy::None]
        .iter()
        .map(|&strategy| {
            aggregate(
                &model,
                &EngineOptions {
                    strategy,
                    ..EngineOptions::new()
                },
            )
            .unwrap()
            .ctmc
            .num_states()
        })
        .collect();
    assert!(sizes[0] <= sizes[1]);
    assert!(sizes[1] <= sizes[2]);
}

/// Fuzz draw of `fuzz_diff --smoke` (seed 0xF0DD), iteration 63, printed by
/// `to_arcade_text(&gen_system(&mut SmallRng::seed_from_u64(
/// 17268758816398539254), &GenConfig::engine()))`. Its availability chain
/// is larger than the default `dense_limit`, and Gauss–Seidel stalls on it.
const FUZZ_SMOKE_ITERATION_63: &str = "\
# gen841

COMPONENT: c0
TIME-TO-FAILURES: exp(96600)
FAILURE MODE PROBABILITIES: 0.4921875, 0.5078125
TIME-TO-REPAIRS: hypo(900, 1800), erlang(3, 94)

COMPONENT: c1
OPERATIONAL MODES: (accessible, inaccessible)
ACCESSIBLE-TO-INACCESSIBLE: c0.down
TIME-TO-FAILURES: exp(0.668), exp(0.334)
FAILURE MODE PROBABILITIES: 0.71875, 0.28125
TIME-TO-REPAIRS: exp(0.000022499999999999998), hypo(0.00000418, 0.00000836)

COMPONENT: c2
TIME-TO-FAILURES: hypo(0.006200000000000001, 0.012400000000000001)
FAILURE MODE PROBABILITIES: 0.0625, 0.9375
TIME-TO-REPAIRS: erlang(3, 5.1000000000000005), exp(22700)

COMPONENT: c3
TIME-TO-FAILURES: exp(62.5)
TIME-TO-REPAIRS: erlang(4, 0.661), exp(8.69)
DESTRUCTIVE FDEP: c2.down

COMPONENT: c4
TIME-TO-FAILURES: hypo(0.307, 0.614)
TIME-TO-REPAIRS: erlang(3, 726)

REPAIR UNIT: ru0
COMPONENTS: c0, c1, c2, c3
REPAIR STRATEGY: PNP
PRIORITIES: 3, 0, 3, 0

REPAIR UNIT: ru1
COMPONENTS: c4
REPAIR STRATEGY: PNP
PRIORITIES: 6

SYSTEM DOWN: ((c3.down.df AND c1.down AND c0.down) AND c1.down.m2 AND (c3.down AND c2.down.m2 AND c2.down.m2 AND c4.down))
";

/// Regression: on fuzz iteration 63 the default options solve the steady
/// state on the iterative path, where Gauss–Seidel stalls. The GTH rescue
/// must answer it, bitwise the dense solve's value. A Krylov stall
/// fallback answered 7.5460967154606e-6 here (5.2× too high) after tens
/// of seconds.
#[test]
fn stalled_fuzz_draw_is_rescued_exactly() {
    let def = parse_system(FUZZ_SMOKE_ITERATION_63).unwrap();
    let states = aggregate(&SystemModel::build(&def).unwrap(), &EngineOptions::new())
        .unwrap()
        .ctmc
        .num_states();
    assert!(
        states > EngineOptions::new().solver.dense_limit,
        "{states} states"
    );
    let measure = Measure::SteadyStateUnavailability;
    let default = Session::new(&def).unwrap().value(&measure).unwrap();
    let mut dense = EngineOptions::new();
    dense.solver.dense_limit = usize::MAX;
    let exact = Session::new(&def)
        .unwrap()
        .with_options(dense)
        .value(&measure)
        .unwrap();
    assert_eq!(
        default.to_bits(),
        exact.to_bits(),
        "{default:e} vs {exact:e}"
    );
    assert_eq!(default, 1.4469669688238904e-6);
}
