//! Property-based tests of the CTMC solvers against closed forms and
//! internal consistency conditions, over deterministically seeded random
//! chains (the workspace is dependency-free, so a small internal generator
//! plays the role of proptest).

use smallrand::SmallRng;

use ctmc::{absorbing, measures, steady, transient, Ctmc, MeasureContext, TransientOptions};

/// One default-options solve from `pi0` through a fresh context.
fn solve(chain: &Ctmc, pi0: &[f64], ts: &[f64]) -> Vec<Vec<f64>> {
    transient::transient_many_from_ctx(
        chain,
        pi0,
        ts,
        &TransientOptions::default(),
        &MeasureContext::new(),
    )
}

/// Random birth-death chain with positive rates.
fn arb_birth_death(rng: &mut SmallRng) -> (Ctmc, Vec<f64>, Vec<f64>) {
    let n = rng.range_usize(2, 8);
    let births: Vec<f64> = (0..n - 1)
        .map(|_| f64::from(rng.range_u32(1, 50)) * 0.1)
        .collect();
    let deaths: Vec<f64> = (0..n - 1)
        .map(|_| f64::from(rng.range_u32(1, 50)) * 0.1)
        .collect();
    let rows: Vec<Vec<(f64, u32)>> = (0..n)
        .map(|i| {
            let mut row = Vec::new();
            if i + 1 < n {
                row.push((births[i], (i + 1) as u32));
            }
            if i > 0 {
                row.push((deaths[i - 1], (i - 1) as u32));
            }
            row
        })
        .collect();
    let labels = (0..n).map(|i| u64::from(i == n - 1)).collect();
    (
        Ctmc::new(rows, labels, 0).expect("valid chain"),
        births,
        deaths,
    )
}

const CASES: u64 = 64;

/// Steady state of a birth-death chain matches the product formula
/// π_i ∝ Π b_j/d_j (detailed balance).
#[test]
fn birth_death_steady_state() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (chain, births, deaths) = arb_birth_death(&mut rng);
        let pi = steady::steady_state(&chain);
        let n = chain.num_states();
        let mut expected = vec![1.0f64; n];
        for i in 1..n {
            expected[i] = expected[i - 1] * births[i - 1] / deaths[i - 1];
        }
        let total: f64 = expected.iter().sum();
        for e in &mut expected {
            *e /= total;
        }
        for (i, (&got, &want)) in pi.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "seed {seed} state {i}: {got} vs {want}"
            );
        }
    }
}

/// Transient distributions stay normalized and converge to the steady
/// state.
#[test]
fn transient_consistency() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let t = rng.range_f64(0.1, 20.0);
        let pi_t = transient::transient(&chain, t);
        let sum: f64 = pi_t.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "mass {sum} at t={t}");
        assert!(pi_t.iter().all(|&p| (-1e-12..=1.0 + 1e-12).contains(&p)));
        let pi_inf = transient::transient(&chain, 1e5);
        let steady = steady::steady_state(&chain);
        for (a, b) in pi_inf.iter().zip(&steady) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}

/// The Chapman-Kolmogorov property: stepping to `t1` and then `t2-t1`
/// equals stepping to `t2` directly.
#[test]
fn chapman_kolmogorov() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let t1 = rng.range_f64(0.1, 5.0);
        let dt = rng.range_f64(0.1, 5.0);
        let via = {
            let mid = transient::transient(&chain, t1);
            solve(&chain, &mid, &[dt]).pop().unwrap()
        };
        let direct = transient::transient(&chain, t1 + dt);
        for (a, b) in via.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
        }
    }
}

/// First-passage probability is monotone in t and bounded by 1, and
/// the mean time to absorption is consistent with it (median-ish
/// sanity: P(T <= mttf) is sizeable).
#[test]
fn first_passage_monotone() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(3000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let t = rng.range_f64(0.5, 10.0);
        let target = [(chain.num_states() - 1) as u32];
        let p1 = absorbing::first_passage_probability(&chain, &target, t);
        let p2 = absorbing::first_passage_probability(&chain, &target, 2.0 * t);
        assert!((0.0..=1.0).contains(&p1));
        assert!(p2 + 1e-12 >= p1);
        let mttf = absorbing::mean_time_to_absorption(&chain, &target);
        assert!(mttf > 0.0);
        let p_at_mttf = absorbing::first_passage_probability(&chain, &target, mttf);
        assert!(p_at_mttf > 0.2, "P(T <= E[T]) = {p_at_mttf}");
    }
}

/// Unavailability measures agree between the steady-state and
/// long-horizon transient paths.
#[test]
fn measures_consistent() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(4000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let u1 = measures::steady_state_unavailability(&chain, 1);
        let u2 = measures::point_unavailability(&chain, 1, 1e5);
        assert!((u1 - u2).abs() < 1e-6, "{u1} vs {u2}");
    }
}

/// A batched grid solve agrees with the scalar `transient` to 1e-12 on random
/// chains and random (unsorted, duplicate-carrying) time grids.
#[test]
fn transient_many_matches_scalar() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(5000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let m = rng.range_usize(1, 9);
        let mut ts: Vec<f64> = (0..m).map(|_| rng.range_f64(0.0, 25.0)).collect();
        if m >= 2 {
            ts[1] = ts[0]; // exercise duplicate grid points
        }
        let batched = solve(&chain, &chain.initial_distribution(), &ts);
        for (t, pi) in ts.iter().zip(&batched) {
            let scalar = transient::transient(&chain, *t);
            for (a, b) in pi.iter().zip(&scalar) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "seed {seed} t={t}: batched {a} vs scalar {b}"
                );
            }
        }
    }
}

/// `first_passage_many` agrees with the scalar
/// `first_passage_probability` to 1e-12.
#[test]
fn first_passage_many_matches_scalar() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(6000 + seed);
        let (chain, _, _) = arb_birth_death(&mut rng);
        let target = [(chain.num_states() - 1) as u32];
        let m = rng.range_usize(1, 9);
        let ts: Vec<f64> = (0..m).map(|_| rng.range_f64(0.0, 25.0)).collect();
        let batched = absorbing::first_passage_many(&chain, &target, &ts);
        for (t, p) in ts.iter().zip(&batched) {
            let scalar = absorbing::first_passage_probability(&chain, &target, *t);
            assert!(
                (p - scalar).abs() < 1e-12,
                "seed {seed} t={t}: batched {p} vs scalar {scalar}"
            );
        }
    }
}
