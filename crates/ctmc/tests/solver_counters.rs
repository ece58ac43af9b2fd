//! Tests that read the process-wide DTMC step/sweep counters.
//!
//! Since the counters became atomics (so sweeps on worker threads are
//! counted), every test that resets/reads them must hold [`COUNTERS`] for
//! its whole body — concurrent transient solves from *any* test in the
//! same binary would otherwise leak into the measured window. Keep
//! counter-reading tests in this file and take the lock first.

use std::sync::Mutex;

use ctmc::transient::{
    dtmc_steps_performed, reset_solver_counters, sweeps_performed, transient_many_with,
    transient_with,
};
use ctmc::{Ctmc, TransientOptions};

static COUNTERS: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// The batched grid sweep performs far fewer DTMC steps than one scalar
/// solve per point (moved here from the `transient` unit tests when the
/// counters became process-wide).
#[test]
fn batched_sweep_does_less_work_than_scalar_loop() {
    let _g = lock();
    let c = two_state();
    let grid: Vec<f64> = (1..=50).map(|k| f64::from(k) * 4.0).collect();
    // Disable steady-state detection so the comparison measures batching
    // alone (detection would short-circuit both sides).
    let opts = exact().with_steady_tol(0.0);
    reset_solver_counters();
    for &t in &grid {
        let _ = transient_with(&c, t, &opts);
    }
    let scalar_steps = dtmc_steps_performed();
    assert_eq!(sweeps_performed(), 50);
    reset_solver_counters();
    let _ = transient_many_with(&c, &grid, &opts);
    let batched_steps = dtmc_steps_performed();
    assert!(
        batched_steps * 5 <= scalar_steps,
        "batched {batched_steps} vs scalar {scalar_steps} DTMC steps"
    );
}

/// Steady-state detection cuts the DTMC steps of a long-horizon grid by
/// at least 2x while every grid value stays within 1e-10.
#[test]
fn steady_detection_cuts_long_horizon_steps() {
    let _g = lock();
    let c = two_state();
    // A grid that keeps stepping far past the chain's mixing time.
    let grid: Vec<f64> = (1..=40).map(|k| f64::from(k) * 25.0).collect();
    reset_solver_counters();
    let undetected = transient_many_with(&c, &grid, &exact().with_steady_tol(0.0));
    let undetected_steps = dtmc_steps_performed();
    reset_solver_counters();
    let detected = transient_many_with(&c, &grid, &exact());
    let detected_steps = dtmc_steps_performed();
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
    let _g = lock();
    let c = two_state();
    reset_solver_counters();
    let pis = transient_many_with(&c, &[500.0, 1000.0, 2000.0, 4000.0], &exact());
    assert_eq!(sweeps_performed(), 1, "later points must reuse the vector");
    let steady = ctmc::steady::steady_state(&c);
    for pi in &pis {
        assert!((pi[0] - steady[0]).abs() < 1e-10);
    }
    assert_eq!(pis[1], pis[2]);
    assert_eq!(pis[2], pis[3]);
}

/// Counter-thread-safety regression: sweeps performed on worker threads
/// (here: an explicitly spawned thread, as the parallel `Session`
/// prefetch and modular analysis do) must be visible to the reader — the
/// old thread-local counters silently dropped them.
#[test]
fn counters_count_worker_thread_sweeps() {
    let _g = lock();
    let c = two_state();
    reset_solver_counters();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let _ = transient_with(&c, 25.0, &exact());
            });
        }
    });
    assert_eq!(sweeps_performed(), 2, "worker-thread sweeps were lost");
    assert!(dtmc_steps_performed() > 0);
}

/// A sharded step is one matrix-vector product: running the same grid
/// with more worker threads must not change the step count.
#[test]
fn sharded_steps_count_once() {
    let _g = lock();
    let c = two_state();
    let grid = [2.0, 6.0, 11.0];
    let serial_opts = exact().with_steady_tol(0.0);
    reset_solver_counters();
    let serial = transient_many_with(&c, &grid, &serial_opts);
    let serial_steps = dtmc_steps_performed();
    reset_solver_counters();
    let sharded = transient_many_with(
        &c,
        &grid,
        &serial_opts.clone().with_threads(4).with_shard_min(1),
    );
    let sharded_steps = dtmc_steps_performed();
    assert_eq!(serial_steps, sharded_steps);
    assert_eq!(serial, sharded);
}
