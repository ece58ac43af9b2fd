//! Structural edge cases of the adaptive windowed uniformization engine
//! against the exact global-Λ full-sweep engine: zero-rate segments,
//! `t = 0` and duplicate grid points, and multi-root supports with
//! unreachable states. Each chain is small, so each test first checks
//! that the kernel selection keeps it on the windowed engine. The random
//! property tests, which draw chains the selection would send to the
//! dense kernel, live with the crate-internal entry point that pins the
//! engine, in `ctmc::transient`'s unit tests.

use ctmc::transient::{select_kernel, transient_many_from_ctx, TransientKernel};
use ctmc::{Ctmc, MeasureContext, TransientOptions};

/// One solve from `pi0` through a fresh context.
fn solve(c: &Ctmc, pi0: &[f64], ts: &[f64], opts: &TransientOptions) -> Vec<Vec<f64>> {
    transient_many_from_ctx(c, pi0, ts, opts, &MeasureContext::new())
}

fn sup_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y))
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()))
}

/// Asserts the default options solve `c` over `ts` on the windowed
/// engine this file tests.
fn assert_windowed(c: &Ctmc, ts: &[f64]) {
    assert_eq!(
        select_kernel(c, ts, &TransientOptions::default()),
        TransientKernel::Windowed
    );
}

/// A zero-rate segment from the start: `pi0` entirely on an absorbing
/// state must pass through every grid point untouched, bitwise.
#[test]
fn zero_rate_segments_keep_pi0() {
    let c = Ctmc::new(
        vec![vec![(1.0, 1)], vec![], vec![(0.5, 1)]],
        vec![0, 1, 0],
        0,
    )
    .unwrap();
    let pi0 = [0.0, 1.0, 0.0];
    assert_windowed(&c, &[0.0, 3.0, 100.0]);
    let pis = solve(&c, &pi0, &[0.0, 3.0, 100.0], &TransientOptions::default());
    for pi in &pis {
        assert_eq!(pi, &pi0.to_vec(), "absorbing pi0 must be invariant");
    }
}

/// `t = 0` and duplicate grid points through the adaptive engine: zeros
/// reproduce `pi0` exactly (the permutation round-trip is a pure copy)
/// and duplicates answer identically from the shared sweep.
#[test]
fn zero_and_duplicate_grid_points() {
    let c = Ctmc::new(
        vec![vec![(0.4, 1), (2e-4, 2)], vec![(3.0, 0)], vec![(1.0, 0)]],
        vec![0, 1, 1],
        0,
    )
    .unwrap();
    let pi0 = [0.25, 0.25, 0.5];
    let ts = [7.0, 0.0, 7.0, 2.0, 0.0, 2.0];
    assert_windowed(&c, &ts);
    let pis = solve(&c, &pi0, &ts, &TransientOptions::default());
    assert_eq!(pis[1], pi0.to_vec(), "t = 0 must reproduce pi0 exactly");
    assert_eq!(pis[4], pi0.to_vec());
    assert_eq!(pis[0], pis[2], "duplicate grid points must agree");
    assert_eq!(pis[3], pis[5]);
    for (&t, pi) in ts.iter().zip(&pis) {
        let exact = solve(
            &c,
            &pi0,
            &[t],
            &TransientOptions::default().with_adaptive(false),
        );
        for (a, b) in pi.iter().zip(&exact[0]) {
            assert!((a - b).abs() < 1e-12, "t={t}: {a} vs {b}");
        }
    }
}

/// An initial distribution spread over multiple states (multi-root BFS)
/// with unreachable states present: the window machinery must keep the
/// unreachable rows at exactly zero and the reachable dynamics exact.
#[test]
fn multi_root_support_with_unreachable_states() {
    // 4 is unreachable from {0, 1, 2}; 3 is a sink.
    let c = Ctmc::new(
        vec![
            vec![(1.0, 2)],
            vec![(0.5, 2)],
            vec![(2.0, 3)],
            vec![],
            vec![(1.0, 0)],
        ],
        vec![0, 0, 0, 1, 0],
        0,
    )
    .unwrap();
    let pi0 = [0.4, 0.6, 0.0, 0.0, 0.0];
    let ts = [1.0, 10.0, 100.0];
    assert_windowed(&c, &ts);
    let adaptive = solve(&c, &pi0, &ts, &TransientOptions::default());
    let exact = solve(
        &c,
        &pi0,
        &ts,
        &TransientOptions::default().with_adaptive(false),
    );
    assert!(sup_diff(&adaptive, &exact) < 1e-12);
    for pi in &adaptive {
        assert_eq!(pi[4], 0.0, "unreachable state must hold exactly zero");
    }
}
