//! Property-based tests of the algebraic laws the Arcade pipeline relies
//! on: composition laws of the I/O-IMC calculus, soundness of the
//! reductions, and agreement between the exact engine and the analytic
//! evaluator on randomly generated models. Cases are generated from a
//! deterministically seeded internal generator (the workspace is
//! dependency-free, so it plays the role of proptest).

use smallrand::SmallRng;

use arcade::analytic;
use arcade::prelude::*;
use bisim::pipeline::{equivalent, reduce, ReduceOptions, Strategy as Equivalence};
use ioimc::builder::IoImcBuilder;
use ioimc::compose::parallel;
use ioimc::{ActionId, IoImc};

/// A small random I/O-IMC over a fixed 4-action alphabet (1 input, 1
/// output chosen from two depending on a coin flip, internal tau).
fn arb_ioimc(rng: &mut SmallRng, outputs_from: [u32; 2]) -> IoImc {
    let n = rng.range_usize(2, 5);
    let num_inter = rng.range_usize(0, 10);
    let num_mark = rng.range_usize(0, 6);
    let input = ActionId(0);
    let output = ActionId(outputs_from[usize::from(rng.flip())]);
    let tau = ActionId(3);
    let mut b = IoImcBuilder::new();
    b.set_inputs([input])
        .set_outputs([output])
        .set_internals([tau]);
    for _ in 0..n {
        b.add_state();
    }
    let n = n as u32;
    for _ in 0..num_inter {
        let s = rng.range_u32(0, 5) % n;
        let act = match rng.range_u32(0, 4) {
            0 => input,
            1 | 2 => output,
            _ => tau,
        };
        let t = rng.range_u32(0, 5) % n;
        b.interactive(s, act, t);
    }
    for _ in 0..num_mark {
        let s = rng.range_u32(0, 5) % n;
        let r = f64::from(rng.range_u32(1, 4));
        let t = rng.range_u32(0, 5) % n;
        b.markovian(s, r, t);
    }
    b.complete_inputs()
        .build()
        .expect("generated automaton is valid")
}

fn tau() -> ActionId {
    // The generators above reserve id 3 for tau; reductions reuse it.
    ActionId(3)
}

const CASES: u64 = 64;

/// `a || b` and `b || a` are strongly bisimilar.
#[test]
fn composition_commutes() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = arb_ioimc(&mut rng, [1, 1]);
        let b = arb_ioimc(&mut rng, [2, 2]);
        let ab = parallel(&a, &b).expect("compose");
        let ba = parallel(&b, &a).expect("compose");
        let opts = ReduceOptions {
            strategy: Equivalence::Strong,
            tau: tau(),
        };
        assert!(equivalent(&ab, &ba, &opts), "seed {seed}");
    }
}

/// Branching reduction preserves branching equivalence.
#[test]
fn reduction_is_sound() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let a = arb_ioimc(&mut rng, [1, 1]);
        let opts = ReduceOptions {
            strategy: Equivalence::Branching,
            tau: tau(),
        };
        let red = reduce(&a, &opts).imc;
        assert!(equivalent(&a, &red, &opts), "seed {seed}");
    }
}

/// Reduction is idempotent (a second pass changes nothing).
#[test]
fn reduction_is_idempotent() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let a = arb_ioimc(&mut rng, [1, 2]);
        let opts = ReduceOptions {
            strategy: Equivalence::Branching,
            tau: tau(),
        };
        let once = reduce(&a, &opts).imc;
        let twice = reduce(&once, &opts).imc;
        assert_eq!(once.num_states(), twice.num_states());
        assert_eq!(once.num_transitions(), twice.num_transitions());
    }
}

/// Branching never reduces less than strong bisimulation.
#[test]
fn branching_at_least_as_coarse() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(3000 + seed);
        let a = arb_ioimc(&mut rng, [1, 2]);
        let strong = reduce(
            &a,
            &ReduceOptions {
                strategy: Equivalence::Strong,
                tau: tau(),
            },
        )
        .imc;
        let branching = reduce(
            &a,
            &ReduceOptions {
                strategy: Equivalence::Branching,
                tau: tau(),
            },
        )
        .imc;
        assert!(branching.num_states() <= strong.num_states());
    }
}

/// Reducing before composing gives an equivalent result to composing
/// before reducing — the essence of compositional aggregation.
#[test]
fn reduce_then_compose_equals_compose_then_reduce() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(4000 + seed);
        let a = arb_ioimc(&mut rng, [1, 1]);
        let b = arb_ioimc(&mut rng, [2, 2]);
        let opts = ReduceOptions {
            strategy: Equivalence::Branching,
            tau: tau(),
        };
        let composed_first = parallel(&a, &b).expect("compose");
        let ra = reduce(&a, &opts).imc;
        let rb = reduce(&b, &opts).imc;
        let reduced_first = parallel(&ra, &rb).expect("compose");
        assert!(
            equivalent(&composed_first, &reduced_first, &opts),
            "seed {seed}"
        );
    }
}

/// Random independent dependability models from the shared
/// [`arcade::fuzz`] generator: exponential components with dedicated
/// repair, each appearing exactly once in a flat gate — the sub-space on
/// which the analytic independent-component evaluation is exact. Paired
/// with a random evaluation horizon.
fn arb_system(rng: &mut SmallRng) -> (SystemDef, f64) {
    let def = arcade::fuzz::gen_system(rng, &arcade::fuzz::GenConfig::independent());
    let t = f64::from(rng.range_u32(1, 100));
    (def, t)
}

/// Engine == analytic on independent systems, for availability and
/// no-repair reliability.
#[test]
fn engine_matches_analytic() {
    for seed in 0..24 {
        let mut rng = SmallRng::seed_from_u64(5000 + seed);
        let (def, t) = arb_system(&mut rng);
        let v = Session::new(&def)
            .expect("valid")
            .evaluate(&[
                Measure::SteadyStateUnavailability,
                Measure::Unreliability(t),
            ])
            .expect("analysis");
        let a_engine = v[0];
        let a_analytic = analytic::independent_unavailability(&def).expect("analytic");
        assert!(
            (a_engine - a_analytic).abs() < 1e-9,
            "seed {seed} availability: engine {a_engine} vs analytic {a_analytic}"
        );
        let r_engine = v[1];
        let r_analytic =
            analytic::static_unreliability(&def.without_repair(), t).expect("analytic");
        assert!(
            (r_engine - r_analytic).abs() < 1e-8,
            "seed {seed} unreliability({t}): engine {r_engine} vs analytic {r_analytic}"
        );
    }
}

/// Measures are proper probabilities and consistent with each other.
#[test]
fn measures_are_probabilities() {
    for seed in 0..24 {
        let mut rng = SmallRng::seed_from_u64(6000 + seed);
        let (def, t) = arb_system(&mut rng);
        let v = Session::new(&def)
            .expect("valid")
            .evaluate(&[
                Measure::SteadyStateAvailability,
                Measure::Reliability(t),
                Measure::Reliability(t * 2.0),
                Measure::UnreliabilityWithRepair(t),
                Measure::Unreliability(t),
            ])
            .expect("analysis");
        let a = v[0];
        assert!((0.0..=1.0).contains(&a));
        let (r1, r2) = (v[1], v[2]);
        assert!((0.0..=1.0).contains(&r1));
        assert!(r2 <= r1 + 1e-12, "reliability must be non-increasing");
        // first passage with repair never exceeds no-repair unreliability
        assert!(v[3] <= v[4] + 1e-9);
    }
}
