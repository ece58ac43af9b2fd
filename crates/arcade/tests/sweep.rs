//! End-to-end checks of the parametric sweep engine: grid evaluation
//! must be bitwise identical to fresh-session `evaluate_at` at every
//! thread count (pseudo-random grids, proptest style), a large sweep
//! must run exactly one aggregation per configuration while keeping the
//! Poisson cache bounded, a sampled subset of sweep points must fall
//! inside the Monte-Carlo simulator's confidence intervals, and
//! re-rating at the declared base values must reproduce the aggregated
//! chains and the memoized answers to the bit.

use arcade::ast::{BcDef, RepairStrategy, RuDef, SystemDef};
use arcade::cases::{dds_parametric, dds_scaled_parametric, rcs_scaled_parametric};
use arcade::dist::Dist;
use arcade::engine::EngineOptions;
use arcade::expr::Expr;
use arcade::fuzz::oracle::rerated_reference;
use arcade::query::{Measure, ParamGrid, Session};
use arcade::sim::simulate_unreliability;
use ctmc::poisson::PoissonCache;
use ctmc::transient::{select_kernel, TransientKernel};

/// Splitmix-style generator for reproducible pseudo-random grids (the
/// workspace is dependency-free, so no proptest crate).
fn next_unit(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut z = *state;
    z = (z ^ (z >> 33)).wrapping_mul(0xff51afd7ed558ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ceb9fe1a85ec53);
    ((z >> 11) as f64) / (1u64 << 53) as f64
}

#[test]
fn sweep_matches_fresh_sessions_bitwise_at_threads_1_2_4() {
    let def = dds_scaled_parametric(2);
    let measures = [
        Measure::SteadyStateUnavailability,
        Measure::Mttf,
        Measure::Unreliability(500.0),
        Measure::PointUnavailability(200.0),
    ];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for round in 0..3usize {
        // 2–3 pseudo-random values per axis, 0.25×–1.75× around each base.
        let axes: Vec<(String, Vec<f64>)> = def
            .params
            .iter()
            .map(|p| {
                let k = 2 + round % 2;
                let vals = (0..k)
                    .map(|_| p.base * (0.25 + 1.5 * next_unit(&mut state)))
                    .collect();
                (p.name.clone(), vals)
            })
            .collect();
        let grid = ParamGrid::cartesian(axes);
        let points = grid.points();

        // Reference: a fresh session per point, serial options.
        let reference: Vec<Vec<f64>> = points
            .iter()
            .map(|pt| {
                Session::new(&def)
                    .expect("fresh session")
                    .evaluate_at(&measures, pt)
                    .expect("fresh evaluate_at")
            })
            .collect();

        for threads in [1usize, 2, 4] {
            let session = Session::new(&def)
                .expect("sweep session")
                .with_options(EngineOptions::new().with_threads(threads));
            let result = session.sweep(&measures, &grid).expect("sweep");
            assert_eq!(result.points, points, "round {round}, threads {threads}");
            // The whole grid re-rates two aggregations (availability +
            // no-repair), never re-aggregates per point.
            assert_eq!(
                session.stats().aggregations_built,
                2,
                "round {round}, threads {threads}"
            );
            for (i, (row, want)) in result.values.iter().zip(&reference).enumerate() {
                for (j, (got, exp)) in row.iter().zip(want).enumerate() {
                    assert!(
                        got.to_bits() == exp.to_bits(),
                        "round {round}, threads {threads}, point {i}, measure {j}: \
                         sweep {got:e} != fresh session {exp:e}"
                    );
                }
            }
        }
    }
}

/// Re-rating at the declared base values is exact. These models lump
/// transitions whose rates depend on several parameters, so their forms
/// hold multi-leaf sums. Every rate and exit rate of `rerate(base)` must
/// be bitwise the aggregated one, in each configuration built, and
/// `evaluate_at(base)` must be bitwise `evaluate`.
#[test]
fn rerating_at_the_base_point_is_bitwise_exact() {
    let with_repair = [
        Measure::SteadyStateUnavailability,
        Measure::PointUnavailability(100.0),
        Measure::UnreliabilityWithRepair(100.0),
        Measure::Unreliability(100.0),
        Measure::Mttf,
    ];
    let no_repair = [Measure::Unreliability(100.0)];
    // The availability configuration of `rcs_scaled_parametric(2)` is an
    // 83,808-state chain; `exp_scaling --smoke` checks that one.
    let cases = [
        (dds_scaled_parametric(2), &with_repair[..]),
        (dds_scaled_parametric(3), &with_repair[..]),
        (dds_parametric(), &with_repair[..]),
        (rcs_scaled_parametric(2), &no_repair[..]),
    ];
    for (def, measures) in cases {
        let session = Session::new(&def).expect("session");
        let base: Vec<f64> = def.params.iter().map(|p| p.base).collect();
        let mut aggs = vec![("no-repair", session.reliability_model().expect("no-repair"))];
        if measures.len() > 1 {
            aggs.push((
                "availability",
                session.availability_model().expect("availability"),
            ));
        }
        for (cfg, agg) in &aggs {
            let chain = &agg.ctmc;
            let rerated = chain.rerate(&base).expect("rerate at base");
            assert_eq!(rerated.offsets(), chain.offsets(), "{} {cfg}", def.name);
            for (i, (a, b)) in chain
                .transitions()
                .iter()
                .zip(rerated.transitions())
                .enumerate()
            {
                assert!(
                    a.0.to_bits() == b.0.to_bits() && a.1 == b.1,
                    "{} {cfg}, transition {i}: aggregated {a:?}, re-rated {b:?}",
                    def.name
                );
            }
            for (s, (a, b)) in chain
                .exit_rates()
                .iter()
                .zip(rerated.exit_rates())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} {cfg}, exit rate of {s}: aggregated {a:e}, re-rated {b:e}",
                    def.name
                );
            }
        }
        let memo = session.evaluate(measures).expect("evaluate");
        let at_base = session.evaluate_at(measures, &base).expect("evaluate_at");
        for (m, (a, b)) in measures.iter().zip(memo.iter().zip(&at_base)) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {m:?}: evaluate {a:e}, evaluate_at(base) {b:e}",
                def.name
            );
        }
    }
}

#[test]
fn large_sweep_runs_one_aggregation_and_bounds_the_poisson_cache() {
    let def = dds_scaled_parametric(1);
    // Availability-configuration transient only: exactly one aggregation
    // serves the whole grid.
    let measures = [Measure::PointUnavailability(75.0)];
    // More distinct repair rates than the Poisson cache holds: every
    // point brings a fresh uniformization rate, so the (Λ·Δt)-keyed
    // cache must evict to stay within its capacity.
    let n_points = PoissonCache::DEFAULT_CAPACITY + 76;
    let vals: Vec<f64> = (0..n_points).map(|i| 0.5 + i as f64 * 1e-3).collect();
    let grid = ParamGrid::cartesian([("repair_rate", vals)]);

    let session = Session::new(&def)
        .expect("session")
        .with_options(EngineOptions::new().with_threads(2));
    let result = session.sweep(&measures, &grid).expect("sweep");
    assert_eq!(result.points.len(), n_points);
    assert!(result.points.len() >= 200, "grid must be sweep-sized");
    for row in &result.values {
        assert!(
            row[0].is_finite() && (0.0..=1.0).contains(&row[0]),
            "{row:?}"
        );
    }

    let stats = session.stats();
    assert_eq!(
        stats.aggregations_built, 1,
        "a single-configuration sweep must aggregate exactly once: {stats:?}"
    );
    assert!(
        stats.poisson_evictions > 0,
        "distinct per-point rates must overflow the cache: {stats:?}"
    );
    // Inserts happen on misses only, so the resident entry count is
    // misses − evictions — the bound the cache promises.
    assert!(
        stats.poisson_misses - stats.poisson_evictions <= PoissonCache::DEFAULT_CAPACITY as u64,
        "cache grew past its capacity: {stats:?}"
    );
    assert!(
        stats.dtmc_steps > 0 && stats.sweeps >= n_points as u64,
        "{stats:?}"
    );
}

#[test]
fn sampled_sweep_points_fall_inside_monte_carlo_intervals() {
    let def = dds_scaled_parametric(1);
    let t = 1000.0;
    let measures = [Measure::Unreliability(t)];
    // Sweep all declared parameters so each grid point is a full
    // parameter vector, directly usable by `SystemDef::at_point`. The
    // 0.5×/1.5× ladder keeps every point's unreliability away from the
    // 0/1 extremes, where the binomial interval is healthiest.
    let axes: Vec<(String, Vec<f64>)> = def
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let vals = if i < 2 {
                vec![0.5 * p.base, 1.5 * p.base]
            } else {
                vec![p.base]
            };
            (p.name.clone(), vals)
        })
        .collect();
    let grid = ParamGrid::cartesian(axes);
    let session = Session::new(&def).expect("session");
    let result = session.sweep(&measures, &grid).expect("sweep");
    assert_eq!(result.points.len(), 4);

    // Cross-validate every point against the independent discrete-event
    // simulator: the exact sweep value must fall inside the 95% interval.
    for (i, (point, row)) in result.points.iter().zip(&result.values).enumerate() {
        let concrete = def.at_point(point);
        let estimate = simulate_unreliability(&concrete, t, 8000, 0xA5CADE + i as u64, false)
            .expect("simulation runs");
        assert!(
            estimate.contains(row[0]),
            "point {i} {point:?}: sweep unreliability {:e} outside MC interval \
             {:e} ± {:e}",
            row[0],
            estimate.mean,
            estimate.half_width
        );
    }
}

/// Asserts `evaluate_at` and `sweep` rows equal the reference path
/// ([`rerated_reference`]: `Ctmc::rerate`, `make_absorbing`,
/// `transient_many_from_ctx`, then the down mass) bit for bit at every
/// point of `grid`.
fn assert_points_match_reference(def: &SystemDef, measures: &[Measure], grid: &ParamGrid) {
    let session = Session::new(def).expect("session");
    let swept = session.sweep(measures, grid).expect("sweep");
    for (point, row) in swept.points.iter().zip(&swept.values) {
        let full = def.params.iter().map(|p| {
            grid.names()
                .iter()
                .position(|n| *n == p.name)
                .map_or(p.base, |i| point[i])
        });
        let full: Vec<f64> = full.collect();
        let opts = EngineOptions::new().solver.transient;
        let want = rerated_reference(&session, measures, &full, &opts).expect("reference path");
        let at = Session::new(def)
            .expect("session")
            .evaluate_at(measures, &full)
            .expect("evaluate_at");
        for (j, m) in measures.iter().enumerate() {
            assert_eq!(
                (row[j].to_bits(), at[j].to_bits()),
                (want[j].to_bits(), want[j].to_bits()),
                "{} {m:?} at {full:?}: sweep {:e}, evaluate_at {:e}, reference {:e}",
                def.name,
                row[j],
                at[j],
                want[j]
            );
        }
    }
}

/// Off the base point, the transient measures of a sweep and of
/// `evaluate_at` solve on the configuration's cached windowed operator,
/// refilled at each point. Their rows must equal the reference path
/// bitwise: point unavailability and unreliability with repair on the
/// availability configuration, reliability on the no-repair one.
#[test]
fn off_base_points_match_the_rerate_reference_path_bitwise() {
    let measures = [
        Measure::PointUnavailability(100.0),
        Measure::UnreliabilityWithRepair(100.0),
        Measure::PointUnavailability(1000.0),
        Measure::Reliability(500.0),
        Measure::UnreliabilityWithRepair(1000.0),
    ];
    for def in [dds_parametric(), dds_scaled_parametric(3)] {
        let axes: Vec<(String, Vec<f64>)> = def
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let vals = if i == 0 {
                    vec![0.55 * p.base, 1.8 * p.base]
                } else {
                    vec![p.base * (1.0 + 0.3 * i as f64)]
                };
                (p.name.clone(), vals)
            })
            .collect();
        assert_points_match_reference(&def, &measures, &ParamGrid::cartesian(axes));
    }
}

/// A small parametric model whose fast repair sends some points' solves
/// to the dense kernel: those re-rate the chain and solve it, the others
/// step on the refilled operator, and every row still equals the
/// reference path bitwise.
#[test]
fn dense_selections_at_sweep_points_match_the_reference_path_bitwise() {
    let mut def = SystemDef::new("fast_repair");
    def.add_component(BcDef::new("a", Dist::exp(0.01), Dist::exp(2.0)));
    def.add_component(BcDef::new("b", Dist::exp(0.02), Dist::exp(0.5)));
    def.add_repair_unit(RuDef::new("ra", ["a"], RepairStrategy::Dedicated));
    def.add_repair_unit(RuDef::new("rb", ["b"], RepairStrategy::Dedicated));
    def.set_system_down(Expr::and([Expr::down("a"), Expr::down("b")]));
    def.add_param("mu_a", 2.0).add_param("lambda_b", 0.02);
    let measures = [
        Measure::PointUnavailability(300.0),
        Measure::UnreliabilityWithRepair(300.0),
        Measure::Reliability(300.0),
    ];
    let mu_a = vec![0.05, 4000.0];
    let session = Session::new(&def).expect("session");
    let avail = session.availability_model().expect("availability");
    let opts = EngineOptions::new().solver.transient;
    let kernels: Vec<TransientKernel> = mu_a
        .iter()
        .map(|&mu| {
            let chain = avail.ctmc.rerate(&[mu, 0.02]).expect("re-rate");
            select_kernel(&chain, &[300.0], &opts)
        })
        .collect();
    assert_eq!(kernels, [TransientKernel::Windowed, TransientKernel::Dense]);
    let grid = ParamGrid::cartesian([("mu_a", mu_a), ("lambda_b", vec![0.03])]);
    assert_points_match_reference(&def, &measures, &grid);
}
