//! Tests that read the DTMC step and sweep counters of a
//! [`MeasureContext`].
//!
//! Each test solves through its own contexts, so the counters it reads
//! hold exactly the work of its own solves, whatever else runs in the
//! same process.

use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext, TransientOptions};

fn two_state() -> Ctmc {
    let (l, m) = (0.2, 1.5);
    Ctmc::new(vec![vec![(l, 1)], vec![(m, 0)]], vec![0, 1], 0).unwrap()
}

/// The exact global-Λ engine, which these tests count the steps of: the
/// default kernel selection sends a chain as small as [`two_state`] over
/// these horizons to the dense kernel, which takes no DTMC steps.
fn exact() -> TransientOptions {
    TransientOptions::default().with_adaptive(false)
}

/// One solve of [`two_state`] from its initial state through `ctx`.
fn solve(ts: &[f64], opts: &TransientOptions, ctx: &MeasureContext) -> Vec<Vec<f64>> {
    let c = two_state();
    transient_many_from_ctx(&c, &c.initial_distribution(), ts, opts, ctx)
}

/// The batched grid sweep performs far fewer DTMC steps than one scalar
/// solve per point.
#[test]
fn batched_sweep_does_less_work_than_scalar_loop() {
    let grid: Vec<f64> = (1..=50).map(|k| f64::from(k) * 4.0).collect();
    // Disable steady-state detection so the comparison measures batching
    // alone (detection would short-circuit both sides).
    let opts = exact().with_steady_tol(0.0);
    let scalar = MeasureContext::new();
    for &t in &grid {
        let _ = solve(&[t], &opts, &scalar);
    }
    let scalar_steps = scalar.counters.dtmc_steps();
    assert_eq!(scalar.counters.sweeps(), 50);
    let batched = MeasureContext::new();
    let _ = solve(&grid, &opts, &batched);
    let batched_steps = batched.counters.dtmc_steps();
    assert!(
        batched_steps * 5 <= scalar_steps,
        "batched {batched_steps} vs scalar {scalar_steps} DTMC steps"
    );
}

/// Steady-state detection cuts the DTMC steps of a long-horizon grid by
/// at least 2x while every grid value stays within 1e-10.
#[test]
fn steady_detection_cuts_long_horizon_steps() {
    // A grid that keeps stepping far past the chain's mixing time.
    let grid: Vec<f64> = (1..=40).map(|k| f64::from(k) * 25.0).collect();
    let off = MeasureContext::new();
    let undetected = solve(&grid, &exact().with_steady_tol(0.0), &off);
    let undetected_steps = off.counters.dtmc_steps();
    let on = MeasureContext::new();
    let detected = solve(&grid, &exact(), &on);
    let detected_steps = on.counters.dtmc_steps();
    assert!(
        detected_steps * 2 <= undetected_steps,
        "detection saved too little: {detected_steps} vs {undetected_steps} DTMC steps"
    );
    for (i, &t) in grid.iter().enumerate() {
        for (a, b) in detected[i].iter().zip(&undetected[i]) {
            assert!((a - b).abs() < 1e-10, "t={t}: {a} vs {b}");
        }
    }
}

/// A grid living entirely past the mixing time costs one segment of
/// stepping: every later point answers from the converged vector.
#[test]
fn grid_entirely_past_convergence_steps_once() {
    let ctx = MeasureContext::new();
    let pis = solve(&[500.0, 1000.0, 2000.0, 4000.0], &exact(), &ctx);
    assert_eq!(
        ctx.counters.sweeps(),
        1,
        "later points must reuse the vector"
    );
    let steady = ctmc::steady::steady_state(&two_state());
    for pi in &pis {
        assert!((pi[0] - steady[0]).abs() < 1e-10);
    }
    assert_eq!(pis[1], pis[2]);
    assert_eq!(pis[2], pis[3]);
}

/// Counter-thread-safety regression: sweeps performed on worker threads
/// (here: explicitly spawned threads sharing one context, as the parallel
/// `Session` prefetch does) must be visible to the reader.
#[test]
fn counters_count_worker_thread_sweeps() {
    let ctx = MeasureContext::new();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let _ = solve(&[25.0], &exact(), &ctx);
            });
        }
    });
    assert_eq!(ctx.counters.sweeps(), 2, "worker-thread sweeps were lost");
    assert!(ctx.counters.dtmc_steps() > 0);
}
