//! Scaling sweep — family size, plus sparse-solver and adaptive-engine
//! timings.
//!
//! Aggregates the scaled case families (`dds_scaled(n)` disk clusters,
//! `rcs_scaled(k)` pump lines, the `rcs_scaled_kofn(n, k)` k-of-n variant
//! and the stiff `rcs_stiff(k)` family) once each — aggregation is
//! serial — and reports, per family: wall-clock time, the peak
//! intermediate I/O-IMC sizes, and the final CTMC size.
//!
//! The one fan-out above aggregation is measured on its own row: cold
//! [`Session::prefetch_all`]s of the paper's DDS (`dds_scaled(6)`) build
//! its two model configurations, three times at 1 worker and three at
//! `--threads` workers; every run's chains must be bitwise equal, and
//! the ratio of the median wall times is printed (no timing gate).
//!
//! After each family's aggregation the final CTMC is **solved**:
//! one steady-state distribution, then a timed 50-point transient
//! (unavailability) grid on the kernel the default options pick. Every
//! transient kernel is serial, so the grid has no thread axis. Two
//! ablations follow:
//!
//! * the **exact global-Λ full-sweep engine** (`adaptive = false`) — the
//!   run must agree with the adaptive windowed engine to ≤ 1e-10
//!   sup-norm (the adaptive-engine regression gate), and the wall-clock
//!   and DTMC-step ratios are the adaptive win;
//! * **steady-state detection off** (`steady_tol = 0`) — must agree to
//!   ≤ 1e-10, measuring the steps detection saves.
//!
//! The smoke subset's `dds_scaled(6)` is the paper's 2,100-state DDS, so
//! its `steady_secs` times the dense GTH elimination on a real chain.
//! Families above the [`SolverOptions::dense_limit`] exercise the sparse
//! iterative path — the smoke subset includes `rcs_scaled(2)` (≈84k
//! states, ≈1.1M transitions), which the run asserts is solved without
//! the dense path, and `rcs_stiff(3)`, whose repair rates sit seven
//! orders of magnitude above its failure rates (the adaptive-Λ stress).
//! The `rcs_scaled(2)` chain's MTTF is solved too, with default options:
//! its regenerative chain (10,647 up states plus one renewal state) goes
//! through Gauss–Seidel, and the run asserts the result within 1e-12 of a
//! pinned dense GTH solve of the same chain and prints its wall time.
//!
//! After the family rows a **parametric sweep benchmark** runs: a
//! `dds_scaled_parametric` session evaluates a multi-hundred-point rate
//! grid through [`Session::sweep`] (one aggregation per configuration,
//! re-rated per point) and a rebuild-per-point baseline re-aggregates a
//! sampled subset from fresh sessions. The sampled points are asserted
//! bitwise identical between the two paths, and in `--smoke` mode the
//! re-rate path is **gated ≥ 10× faster** (points/sec) than rebuilding.
//!
//! A **stiff family** follows: the transient solves of the fuzzer draw
//! that used to dominate the test suite (seed 6000 of
//! `tests/proptest_laws.rs::measures_are_probabilities`, a 16-state chain
//! whose reliabilities took millions of DTMC steps) and of `rcs_stiff(3)`.
//! Each solve records the kernel [`select_kernel`] picks, its wall time,
//! DTMC steps and dense matrix products, and its distance to the exact
//! global-Λ engine. `--smoke` gates on counts, not time: the seed-6000
//! draw's first-passage solves are selected for the dense kernel and do
//! its work (matrix products, no DTMC steps), and `rcs_stiff(3)`'s grid
//! stays on the windowed engine at exactly [`RCS_STIFF_WINDOWED_STEPS`]
//! DTMC steps and no dense products, within 1e-10 of the exact engine.
//!
//! `--json` additionally writes every transient measurement to
//! `BENCH_transient.json` (schema v5: family, states, transitions, the
//! kernel as `engine`, aggregation/steady/grid wall times, DTMC step
//! counts), a `sweep` object (`sweep_points_per_sec`, the rebuild
//! baseline and the speedup) and the `stiff` records for the bench
//! trajectory; CI uploads it as an artifact. DTMC steps are read from
//! each solve's own [`MeasureContext`].
//!
//! Run: `cargo run --release -p arcade-bench --bin exp_scaling`
//! (`-- --smoke` runs a minutes-sized subset for CI; `--threads N` sets
//! the worker count of the prefetch row and the parametric sweeps, at
//! least 2; `--smoke --threads 2 --json` is the CI gate).

use std::time::Instant;

use arcade::build::observer::DOWN_BIT;
use arcade::cases::{
    dds_scaled, dds_scaled_parametric, rcs_scaled, rcs_scaled_kofn, rcs_scaled_parametric,
    rcs_stiff,
};
use arcade::engine::{aggregate, Aggregation, EngineOptions, RefineMode};
use arcade::fuzz::oracle::rerated_reference;
use arcade::fuzz::{gen_system, GenConfig};
use arcade::model::SystemModel;
use arcade::modular::modular_analysis;
use arcade::query::{Measure, ParamGrid, Session};
use arcade_bench::Table;
use ctmc::absorbing::mean_time_to_absorption_with;
use ctmc::measures::state_mass;
use ctmc::transient::{select_kernel, transient_many_from_ctx, TransientKernel, WindowedOperator};
use ctmc::{steady, Ctmc, MeasureContext, SolverOptions, TransientOptions};
use smallrand::SmallRng;

/// One transient-grid measurement for the machine-readable output.
struct TransientRecord {
    family: String,
    states: usize,
    transitions: usize,
    /// The transient kernel that ran: `"windowed"` or `"dense"` (the
    /// default options' cost-model choice) or `"exact"` (the global-Λ
    /// full-sweep ablation).
    engine: &'static str,
    steady_tol: f64,
    support_tol: f64,
    aggregation_secs: f64,
    /// Aggregation-phase breakdown (schema v2): wall time in refinement
    /// signatures, block splits and quotient construction, plus the
    /// worklist work counters.
    signature_secs: f64,
    split_secs: f64,
    quotient_secs: f64,
    refine_rounds: u64,
    states_resigned: u64,
    steady_secs: f64,
    grid_secs: f64,
    grid_points: usize,
    dtmc_steps: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json = args.iter().any(|a| a == "--json");
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Always a >1 worker request (even on small machines) so the parallel
    // scheduling paths are exercised where cores exist; requests are
    // clamped to `hw` inside the engines.
    let threads = args
        .windows(2)
        .filter(|w| w[0] == "--threads")
        .filter_map(|w| w[1].parse().ok())
        .fold(if smoke { 2 } else { hw.max(4) }, usize::max);

    // The aggregation and solver hot loops carry cooperative budget
    // checkpoints and chaos failpoints; disarmed, both reduce to one
    // relaxed atomic load and must cost nothing measurable. Refuse to
    // run with chaos armed (e.g. a stray ARCADE_CHAOS) — an injected
    // delay or panic would invalidate every timing and bitwise gate
    // below, and this assertion is what pins the "disarmed" claim in CI.
    assert!(
        !arcade::chaos::enabled(),
        "chaos failpoints are armed (ARCADE_CHAOS?); scaling timings would be meaningless"
    );

    println!(
        "scaling sweep on {hw} hardware threads{}",
        if smoke { " (smoke subset)" } else { "" }
    );
    println!();

    // Family sizes chosen so the slowest single-threaded run stays in the
    // tens of seconds (dds_scaled(12) and rcs_scaled(3) already take
    // minutes — the state spaces grow combinatorially with family size).
    // The smoke subset includes dds_scaled(6) for its dense GTH solve.
    let dds_sizes: Vec<usize> = if smoke { vec![3, 6] } else { vec![2, 4, 6, 9] };

    let mut records: Vec<TransientRecord> = Vec::new();
    let mut table = Table::new(&[
        "family",
        "blocks",
        "time",
        "peak states",
        "peak transitions",
        "CTMC",
        "steady",
        "grid(50)",
    ]);
    for &n in &dds_sizes {
        aggregate_family(
            &mut table,
            &format!("dds_scaled({n})"),
            &dds_scaled(n),
            &mut records,
        );
    }
    // rcs_scaled(2) is the big sparse-solver workload: its CTMC has
    // ≈84k states, far beyond the dense limit.
    let rcs_def = rcs_scaled(2);
    let (rcs_agg, rcs_u) = aggregate_family(&mut table, "rcs_scaled(2)", &rcs_def, &mut records);
    // This family is the sparse-path regression gate: if the default
    // dense limit ever outgrows it, the iterative kernels lose coverage.
    assert!(
        rcs_agg.ctmc.num_states() > SolverOptions::default().dense_limit,
        "rcs_scaled(2) no longer exceeds the dense limit — pick a bigger family"
    );
    if smoke {
        worklist_gate(&rcs_def, &rcs_agg, rcs_u, &records);
    }
    // The stiff family: repair rates seven orders of magnitude above the
    // failure rates, so the adaptive per-segment Λ (chosen from the
    // ε-support's exit rates) runs far below the global uniformization
    // rate — the lever the exact-engine ablation quantifies.
    let (stiff_agg, _) = aggregate_family(&mut table, "rcs_stiff(3)", &rcs_stiff(3), &mut records);
    if !smoke {
        aggregate_family(
            &mut table,
            "rcs_scaled_kofn(2, 2)",
            &rcs_scaled_kofn(2, 2),
            &mut records,
        );
    }
    println!("{}", table.render());
    prefetch_row(threads);

    // Cross-validate the sparse monolithic steady solve (reusing the
    // distribution from its row): the same family decomposes into
    // independent modules whose small CTMCs are solved on the dense
    // path, and the combined unavailability must agree.
    let sparse_u = rcs_u;
    let modular_u = modular_analysis(&rcs_def, &EngineOptions::new())
        .expect("modular analysis succeeds")
        .evaluate(&[Measure::SteadyStateUnavailability])
        .expect("modular steady unavailability")[0];
    let rel = (sparse_u - modular_u).abs() / modular_u.max(1e-300);
    assert!(
        rel < 1e-6,
        "sparse steady unavailability {sparse_u:e} disagrees with the \
         modular dense result {modular_u:e} (rel {rel:e})"
    );
    println!(
        "sparse (monolithic, {} st) vs dense (modular) steady unavailability: \
         {sparse_u:.6e} vs {modular_u:.6e} (rel diff {rel:.1e})",
        rcs_agg.ctmc.num_states()
    );
    rcs_mttf_gate(&rcs_agg.ctmc);
    println!();
    println!(
        "every adaptive windowed grid was verified within 1e-10 of the exact global-Λ \
         full-sweep engine; grid speedups come from the support-windowed adaptive engine \
         and steady-state detection. families beyond the dense limit are solved on the \
         sparse iterative path."
    );
    println!();
    let stiff_records = stiff_family(smoke, &stiff_agg.ctmc);
    let sweep_rec = param_sweep_bench(smoke, threads);
    let rcs_agg_secs = records
        .iter()
        .find(|r| r.family == "rcs_scaled(2)")
        .expect("rcs_scaled(2) record")
        .aggregation_secs;
    rcs_sweep_gate(threads, rcs_agg_secs);
    if json {
        let path = "BENCH_transient.json";
        arcade_bench::write_atomic(
            path,
            &render_json(hw, smoke, &records, &sweep_rec, &stiff_records),
        )
        .expect("write BENCH_transient.json");
        println!("wrote {} transient records to {path}", records.len());
    }
}

/// The MTTF of `rcs_scaled(2)` from a dense GTH solve of its regenerative
/// chain (`dense_limit = usize::MAX`: 10,647 up states plus the renewal
/// state, a 0.9 GB matrix, 80 s on a 2-CPU host).
const RCS_MTTF_GTH: f64 = 9.327_874_649_134_187e8;

/// Solves the MTTF of the `rcs_scaled(2)` chain with default options and
/// asserts it is within 1e-12 of [`RCS_MTTF_GTH`]. The regenerative chain
/// of the renewal ratio (the up states plus one renewal state) is above
/// the dense limit, so this is the Gauss–Seidel path with its residual
/// gate, on a rare-failure chain.
fn rcs_mttf_gate(ctmc: &Ctmc) {
    let opts = SolverOptions::default();
    let down: Vec<u32> = ctmc.states_with_label(DOWN_BIT).collect();
    let regenerative = ctmc.num_states() - down.len() + 1;
    assert!(
        regenerative > opts.dense_limit,
        "rcs_scaled(2)'s regenerative chain ({regenerative} states) no longer exceeds \
         the dense limit — the MTTF gate would not reach Gauss–Seidel"
    );
    let start = Instant::now();
    let mttf = mean_time_to_absorption_with(ctmc, &down, &opts);
    let secs = start.elapsed().as_secs_f64();
    let rel = (mttf - RCS_MTTF_GTH).abs() / RCS_MTTF_GTH;
    assert!(
        rel < 1e-12,
        "rcs_scaled(2): MTTF {mttf:e} is {rel:e} from the dense GTH value {RCS_MTTF_GTH:e}"
    );
    println!(
        "rcs_scaled(2): MTTF {mttf:e} on the {regenerative}-state regenerative chain \
         (Gauss–Seidel) in {secs:.3} s, {rel:.1e} from the dense GTH value"
    );
}

/// The DTMC steps of `rcs_stiff(3)`'s 50-point unavailability grid on the
/// windowed engine. The smoke gate holds the count exactly: the kernel
/// selection must leave this 432-state stiff chain to the windowed
/// engine, and that engine must do the same work it did before the dense
/// kernel existed.
const RCS_STIFF_WINDOWED_STEPS: u64 = 234_159;

/// One stiff transient solve for the machine-readable output.
struct StiffRecord {
    family: String,
    /// The measure solved: `"unavailability"` on the availability chain,
    /// or `"reliability"`/`"unreliability_with_repair"` on a first-passage
    /// (down states absorbing) transform.
    solve: &'static str,
    states: usize,
    transitions: usize,
    kernel: &'static str,
    grid_points: usize,
    /// Global uniformization rate times the horizon: uniformization's
    /// cost factor.
    lambda_t: f64,
    wall_secs: f64,
    dtmc_steps: u64,
    dense_products: u64,
    /// Sup-norm distance to the exact global-Λ engine.
    exact_diff: f64,
}

/// Times one solve of `chain` over `grid` on the default options' kernel
/// and checks it against the exact engine.
fn stiff_solve(family: &str, solve: &'static str, chain: &Ctmc, grid: &[f64]) -> StiffRecord {
    let opts = TransientOptions::default();
    let kernel = select_kernel(chain, grid, &opts);
    let ctx = MeasureContext::new();
    let pi0 = chain.initial_distribution();
    let start = Instant::now();
    let got = transient_many_from_ctx(chain, &pi0, grid, &opts, &ctx);
    let wall_secs = start.elapsed().as_secs_f64();
    let exact = transient_many_from_ctx(
        chain,
        &pi0,
        grid,
        &opts.clone().with_adaptive(false),
        &MeasureContext::new(),
    );
    let exact_diff = grid_sup_diff(&got, &exact);
    let horizon = grid.iter().copied().fold(0.0, f64::max);
    let rec = StiffRecord {
        family: family.to_owned(),
        solve,
        states: chain.num_states(),
        transitions: chain.num_transitions(),
        kernel: kernel.name(),
        grid_points: grid.len(),
        lambda_t: chain.max_exit_rate() * horizon,
        wall_secs,
        dtmc_steps: ctx.counters.dtmc_steps(),
        dense_products: ctx.counters.dense_products(),
        exact_diff,
    };
    println!(
        "{family} {solve}: {} states, Λt {:.3e}, {} kernel, {wall_secs:.4} s, {} DTMC steps, \
         {} dense products, {exact_diff:.1e} from the exact engine",
        rec.states, rec.lambda_t, rec.kernel, rec.dtmc_steps, rec.dense_products
    );
    assert!(
        exact_diff < 1e-10,
        "{family} {solve}: the {} kernel deviates from the exact engine by {exact_diff:e}",
        rec.kernel
    );
    rec
}

/// The stiff family (see the module docs): the seed-6000 fuzzer draw's
/// solves and `rcs_stiff(3)`'s 50-point grid, each on the kernel the cost
/// model picks, gated on counts in smoke mode.
fn stiff_family(smoke: bool, rcs_stiff_chain: &Ctmc) -> Vec<StiffRecord> {
    let mut rng = SmallRng::seed_from_u64(6000);
    let def = gen_system(&mut rng, &GenConfig::independent());
    let t = f64::from(rng.range_u32(1, 100));
    let session = Session::new(&def).expect("the seed-6000 draw elaborates");
    let first_passage = |c: &Ctmc| c.make_absorbing(c.states_with_label(DOWN_BIT));
    let avail = session
        .availability_model()
        .expect("the seed-6000 draw aggregates");
    let norepair = session
        .reliability_model()
        .expect("the seed-6000 draw aggregates");
    let family = "seed6000";
    let records = vec![
        stiff_solve(
            family,
            "reliability",
            &first_passage(&norepair.ctmc),
            &[t, 2.0 * t],
        ),
        stiff_solve(
            family,
            "unreliability_with_repair",
            &first_passage(&avail.ctmc),
            &[t],
        ),
        stiff_solve(family, "unavailability", &avail.ctmc, &[t]),
        stiff_solve(
            "rcs_stiff(3)",
            "unavailability",
            rcs_stiff_chain,
            &(1..=50).map(|k| k as f64 * 20.0).collect::<Vec<_>>(),
        ),
    ];
    if smoke {
        // Both the selection and the work the solve did: a dense solve
        // takes matrix products and no DTMC steps, a windowed one the
        // reverse.
        for r in records.iter().filter(|r| r.solve != "unavailability") {
            assert_eq!(
                (r.kernel, r.dtmc_steps == 0, r.dense_products > 0),
                (TransientKernel::Dense.name(), true, true),
                "{} {}: the stiff first-passage solve left the dense kernel \
                 ({} DTMC steps, {} dense products)",
                r.family,
                r.solve,
                r.dtmc_steps,
                r.dense_products
            );
        }
        let rcs = records.last().expect("rcs_stiff(3) record");
        assert_eq!(
            (rcs.kernel, rcs.dtmc_steps, rcs.dense_products),
            (
                TransientKernel::Windowed.name(),
                RCS_STIFF_WINDOWED_STEPS,
                0
            ),
            "rcs_stiff(3) must stay on the windowed engine at its step count"
        );
    }
    records
}

/// The most form nodes the `rcs_scaled_parametric(2)` availability chain
/// may hold. Its 1,089,792 transitions share 14 distinct forms; a pass
/// that stored one form per transition would hold about a million.
const RCS_FORM_NODES_MAX: usize = 64;

/// The acceptance check on the big sparse family: a ≥200-point sweep on
/// `rcs_scaled_parametric(2)` (83,808 quotient states) must run exactly
/// **one** aggregation, agree bitwise between thread counts 1 and
/// `threads`, and agree bitwise with fresh-session `evaluate_at` on
/// sampled points. Re-rating the aggregated chain at the base values must
/// give it back bitwise, from a form table of at most
/// [`RCS_FORM_NODES_MAX`] nodes. The parametric aggregation's wall time
/// is printed beside `rcs_agg_secs`, that of `rcs_scaled(2)`. At the
/// sampled points, the `param_sweep` batch through `evaluate_at` (solved
/// on the session's cached windowed operators, refilled at the point)
/// must equal the re-rate reference path bitwise, and the time to refill
/// both operators prints beside the batch's solve time.
fn rcs_sweep_gate(threads: usize, rcs_agg_secs: f64) {
    let def = rcs_scaled_parametric(2);
    let measures = [Measure::PointUnavailability(100.0)];
    // 4 values on each of the 4 declared rates: 256 points.
    let axes: Vec<(String, Vec<f64>)> = def
        .params
        .iter()
        .map(|p| {
            let vals = (0..4).map(|i| p.base * (0.7 + 0.2 * i as f64)).collect();
            (p.name.clone(), vals)
        })
        .collect();
    let grid = ParamGrid::cartesian(axes);

    let start = Instant::now();
    let serial_session = Session::new(&def)
        .expect("parametric family elaborates")
        .with_options(EngineOptions::new().with_threads(1));
    let agg = serial_session
        .availability_model()
        .expect("parametric aggregation");
    let agg_secs = start.elapsed().as_secs_f64();
    let chain = &agg.ctmc;
    let base: Vec<f64> = def.params.iter().map(|p| p.base).collect();
    let rerated = chain.rerate(&base).expect("re-rate at the base values");
    assert!(
        rerated.offsets() == chain.offsets() && rate_bits(&rerated) == rate_bits(chain),
        "rcs_scaled_parametric(2): re-rating at the base values changed the chain"
    );
    let nodes = chain.forms().map_or(0, |f| f.table.len());
    assert!(
        nodes <= RCS_FORM_NODES_MAX,
        "rcs_scaled_parametric(2): {nodes} form nodes for {} transitions \
         (at most {RCS_FORM_NODES_MAX})",
        chain.num_transitions()
    );
    println!(
        "rcs_scaled_parametric(2): aggregated in {agg_secs:.3} s at 1 thread \
         (rcs_scaled(2): {rcs_agg_secs:.3} s), {} transitions on {nodes} form nodes, \
         re-rated at the base values bitwise",
        chain.num_transitions()
    );
    let serial = serial_session
        .sweep(&measures, &grid)
        .expect("serial sweep");
    let serial_secs = start.elapsed().as_secs_f64();
    assert!(serial.points.len() >= 200, "gate needs a ≥200-point grid");
    assert_eq!(
        serial_session.stats().aggregations_built,
        1,
        "rcs_scaled_parametric(2): the whole grid must re-rate one aggregation"
    );

    let start = Instant::now();
    let par_session = Session::new(&def)
        .expect("parametric family elaborates")
        .with_options(EngineOptions::new().with_threads(threads));
    let par = par_session.sweep(&measures, &grid).expect("parallel sweep");
    let par_secs = start.elapsed().as_secs_f64();
    assert_eq!(par_session.stats().aggregations_built, 1);
    for (i, (a, b)) in serial.values.iter().zip(&par.values).enumerate() {
        assert_eq!(
            a[0].to_bits(),
            b[0].to_bits(),
            "rcs point {i}: {threads}-thread sweep differs from serial"
        );
    }

    // The sampled points: the sweep value against a fresh session (each
    // pays a full aggregation), and the `param_sweep` batch through
    // `evaluate_at` on the serial session against the re-rate reference
    // path. A point's fill of both windowed operators is timed beside the
    // batch's solve.
    let batch = [
        Measure::PointUnavailability(100.0),
        Measure::PointUnavailability(1000.0),
        Measure::UnreliabilityWithRepair(100.0),
        Measure::UnreliabilityWithRepair(1000.0),
    ];
    let transient = EngineOptions::new().solver.transient;
    let start = Instant::now();
    let down: Vec<u32> = chain.states_with_label(DOWN_BIT).collect();
    let absorbing = chain.make_absorbing(down.iter().copied());
    let operators = [
        (WindowedOperator::new(chain), chain),
        (WindowedOperator::new(&absorbing), &absorbing),
    ];
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let (mut fill_ms, mut solve_ms) = (Vec::new(), Vec::new());
    for (point, row) in serial.points.iter().zip(&serial.values).step_by(128) {
        let fresh = Session::new(&def).expect("parametric family elaborates");
        let vals = fresh
            .evaluate_at(&measures, point)
            .expect("fresh evaluate_at");
        assert_eq!(
            vals[0].to_bits(),
            row[0].to_bits(),
            "rcs sweep value at {point:?} differs from a fresh session"
        );
        let start = Instant::now();
        let nodes = chain.forms().expect("parametric").table.eval_all(point);
        for (op, base) in &operators {
            std::hint::black_box(op.refill(base, &nodes));
        }
        fill_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let vals = serial_session
            .evaluate_at(&batch, point)
            .expect("evaluate_at on the serial session");
        solve_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let reference =
            rerated_reference(&serial_session, &batch, point, &transient).expect("reference path");
        for ((m, a), b) in batch.iter().zip(&vals).zip(&reference) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "rcs {m:?} at {point:?}: evaluate_at {a:e}, re-rate reference path {b:e}"
            );
        }
    }
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    println!(
        "rcs_scaled_parametric(2): {} points in {serial_secs:.3} s serial / \
         {par_secs:.3} s at {threads} threads ({:.1} points/s), one aggregation \
         for the whole grid, thread counts and sampled fresh sessions bitwise \
         identical; sampled points: operator fill {} ms (both chains; built \
         once in {build_ms:.1} ms), evaluate_at of the 4-measure batch {} ms, \
         bitwise the re-rate reference path",
        serial.points.len(),
        serial.points.len() as f64 / par_secs,
        ms(&fill_ms),
        ms(&solve_ms),
    );
}

/// Points re-evaluated from fresh sessions for the rebuild-per-point
/// baseline — each pays the full per-configuration aggregations that
/// [`Session::sweep`] amortises across the whole grid.
const REBUILD_SAMPLE: usize = 3;

/// One parametric-sweep measurement for the machine-readable output.
struct SweepBenchRecord {
    family: String,
    grid_points: usize,
    measures: usize,
    threads: usize,
    sweep_secs: f64,
    sweep_points_per_sec: f64,
    rebuild_sample: usize,
    rebuild_secs: f64,
    rebuild_points_per_sec: f64,
    rerate_speedup: f64,
    aggregations_built: u32,
}

/// Benchmarks [`Session::sweep`] on a parametric DDS family against a
/// rebuild-per-point baseline (fresh session + `evaluate_at`, i.e. one
/// aggregation pass per sampled point). The sampled points are asserted
/// bitwise identical between the two paths; in smoke mode the re-rate
/// path must be ≥ 10× faster in points/sec (the sweep regression gate).
fn param_sweep_bench(smoke: bool, threads: usize) -> SweepBenchRecord {
    let (n, fail_axis, repair_axis) = if smoke { (2, 4, 3) } else { (3, 6, 6) };
    let def = dds_scaled_parametric(n);
    let family = format!("dds_scaled_parametric({n})");
    // Multiplicative ladders over each declared base rate, 0.5×..2×:
    // proc_rate × disk_rate × repair_rate, 48 points in smoke, 216 full.
    let axes: Vec<(String, Vec<f64>)> = def
        .params
        .iter()
        .zip([fail_axis, fail_axis, repair_axis])
        .map(|(p, k)| {
            let vals = (0..k)
                .map(|i| p.base * 0.5 * 4.0f64.powf(i as f64 / (k - 1) as f64))
                .collect();
            (p.name.clone(), vals)
        })
        .collect();
    let grid = ParamGrid::cartesian(axes);
    let measures = [
        Measure::SteadyStateUnavailability,
        Measure::Mttf,
        Measure::Unreliability(1000.0),
    ];
    let opts = EngineOptions::new().with_threads(threads);
    let session = Session::new(&def)
        .expect("parametric family elaborates")
        .with_options(opts.clone());
    let start = Instant::now();
    let result = session.sweep(&measures, &grid).expect("sweep succeeds");
    let sweep_secs = start.elapsed().as_secs_f64();
    let stats = session.stats();
    // The whole grid must run exactly one aggregation per configuration
    // (availability + no-repair) — the quotient-reuse contract.
    assert_eq!(
        stats.aggregations_built, 2,
        "{family}: sweep re-aggregated instead of re-rating the quotient"
    );
    let grid_points = result.points.len();
    // Every point runs at least one uniformization sweep (the transient
    // measure), all attributed to this session's counters.
    assert!(
        stats.sweeps >= grid_points as u64,
        "{family}: session counted {} uniformization sweeps for {grid_points} points",
        stats.sweeps
    );

    // Rebuild-per-point baseline: a fresh session per sampled point pays
    // the aggregations again; `evaluate_at` must still agree bitwise.
    let rebuild_sample = REBUILD_SAMPLE.min(grid_points);
    let start = Instant::now();
    for (point, row) in result
        .points
        .iter()
        .zip(&result.values)
        .take(rebuild_sample)
    {
        let fresh = Session::new(&def)
            .expect("parametric family elaborates")
            .with_options(opts.clone());
        let vals = fresh
            .evaluate_at(&measures, point)
            .expect("fresh evaluate_at succeeds");
        for ((a, b), m) in vals.iter().zip(row).zip(&measures) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{family}: sweep value for {m:?} at {point:?} differs from a \
                 fresh session ({b:e} vs {a:e})"
            );
        }
    }
    let rebuild_secs = start.elapsed().as_secs_f64();
    let sweep_points_per_sec = grid_points as f64 / sweep_secs;
    let rebuild_points_per_sec = rebuild_sample as f64 / rebuild_secs;
    let rerate_speedup = sweep_points_per_sec / rebuild_points_per_sec;
    println!(
        "{family}: sweep {grid_points} points x {} measures in {sweep_secs:.3} s \
         ({sweep_points_per_sec:.1} points/s) vs rebuild-per-point \
         {rebuild_points_per_sec:.1} points/s over {rebuild_sample} sampled points \
         ({rerate_speedup:.1}x, sampled points bitwise identical, \
         {} aggregations for the whole grid)",
        measures.len(),
        stats.aggregations_built,
    );
    if smoke {
        assert!(
            rerate_speedup >= 10.0,
            "{family}: re-rate sweep is only {rerate_speedup:.1}x faster than \
             rebuild-per-point (gate: >= 10x)"
        );
    }
    SweepBenchRecord {
        family,
        grid_points,
        measures: measures.len(),
        threads,
        sweep_secs,
        sweep_points_per_sec,
        rebuild_sample,
        rebuild_secs,
        rebuild_points_per_sec,
        rerate_speedup,
        aggregations_built: stats.aggregations_built,
    }
}

/// The 1-thread `rcs_scaled(2)` aggregation wall time committed with the
/// pre-worklist engine (recompute-all refinement) — the baseline the
/// worklist refactor is gated against.
const SEED_AGGREGATION_SECS: f64 = 8.647185;

/// The worklist-refiner regression gate (smoke mode): re-aggregates
/// `rcs_scaled(2)` with the legacy recompute-all engine and asserts the
/// worklist quotient is the same CTMC (sizes equal, steady measure within
/// 1e-12) and that the worklist aggregation beats the committed
/// pre-worklist seed time.
fn worklist_gate(
    def: &arcade::ast::SystemDef,
    agg: &Aggregation,
    steady_unavail: f64,
    records: &[TransientRecord],
) {
    let model = SystemModel::build(def).expect("case family elaborates");
    let legacy_opts = EngineOptions {
        refine: RefineMode::Legacy,
        ..EngineOptions::new()
    };
    let start = Instant::now();
    let legacy = aggregate(&model, &legacy_opts).expect("legacy aggregation succeeds");
    let legacy_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        legacy.ctmc_stats.states, agg.ctmc_stats.states,
        "worklist quotient CTMC state count differs from the legacy engine"
    );
    assert_eq!(
        legacy.ctmc_stats.transitions(),
        agg.ctmc_stats.transitions(),
        "worklist quotient CTMC transition count differs from the legacy engine"
    );
    let pi = steady::steady_state_with(&legacy.ctmc, &SolverOptions::default());
    let down: Vec<u32> = legacy.ctmc.states_with_label(1).collect();
    let legacy_unavail = state_mass(&down, &pi);
    let diff = (legacy_unavail - steady_unavail).abs();
    assert!(
        diff <= 1e-12,
        "worklist steady unavailability {steady_unavail:e} deviates from the \
         legacy engine's {legacy_unavail:e} by {diff:e}"
    );
    let worklist_secs = records
        .iter()
        .find(|r| r.family == "rcs_scaled(2)")
        .expect("rcs_scaled(2) was aggregated")
        .aggregation_secs;
    assert!(
        worklist_secs < SEED_AGGREGATION_SECS,
        "worklist aggregation ({worklist_secs:.3} s) no longer beats the \
         committed pre-worklist seed ({SEED_AGGREGATION_SECS:.3} s)"
    );
    println!(
        "rcs_scaled(2): worklist aggregation {worklist_secs:.3} s vs committed \
         pre-worklist seed {SEED_AGGREGATION_SECS:.3} s ({:.2}x) and in-process \
         legacy engine {legacy_secs:.3} s ({:.2}x); quotient CTMC sizes equal, \
         steady unavailability agrees to {diff:.1e}",
        SEED_AGGREGATION_SECS / worklist_secs,
        legacy_secs / worklist_secs,
    );
}

/// Aggregates one family once, solves its chain (see [`solve`]) and adds
/// its table row; returns the aggregation plus its steady-state
/// unavailability.
fn aggregate_family(
    table: &mut Table,
    family: &str,
    def: &arcade::ast::SystemDef,
    records: &mut Vec<TransientRecord>,
) -> (Aggregation, f64) {
    let model = SystemModel::build(def).expect("case family elaborates");
    let start = Instant::now();
    let agg = aggregate(&model, &EngineOptions::new()).expect("aggregation succeeds");
    let secs = start.elapsed().as_secs_f64();
    let (steady_secs, grid_secs, steady_unavail) = solve(family, &agg, secs, records);
    table.row(&[
        family.into(),
        model.blocks.len().to_string(),
        format!("{secs:.3} s"),
        agg.largest_intermediate.states.to_string(),
        agg.largest_intermediate.transitions().to_string(),
        format!(
            "{} st / {} tr",
            agg.ctmc_stats.states,
            agg.ctmc_stats.transitions()
        ),
        format!("{steady_secs:.3} s"),
        format!("{grid_secs:.3} s"),
    ]);
    (agg, steady_unavail)
}

/// Every rate of `c` as bits, transitions then exit rates, with each
/// transition's target: equal vectors (and equal offsets) mean bitwise
/// equal chains.
fn rate_bits(c: &Ctmc) -> Vec<(u64, u32)> {
    let exit = c.exit_rates().iter().map(|r| (r.to_bits(), u32::MAX));
    let tr = c.transitions().iter().map(|&(r, t)| (r.to_bits(), t));
    tr.chain(exit).collect()
}

/// The configuration fan-out row: cold [`Session::prefetch_all`]s of
/// the paper's DDS (`dds_scaled(6)`), three at 1 worker and three at
/// `threads` workers, alternating which count runs first. Every run's
/// chains, both configurations, must be bitwise equal to the first
/// 1-worker run's; the ratio of the median wall times is printed, not
/// gated.
fn prefetch_row(threads: usize) {
    let def = dds_scaled(6);
    let workers = [1, threads];
    let mut secs: [Vec<f64>; 2] = Default::default();
    let mut reference: Option<[std::sync::Arc<Aggregation>; 2]> = None;
    for k in [0, 1, 1, 0, 0, 1] {
        let session = Session::new(&def)
            .expect("dds_scaled(6) elaborates")
            .with_options(EngineOptions::new().with_threads(workers[k]));
        let start = Instant::now();
        session.prefetch_all().expect("dds_scaled(6) aggregates");
        secs[k].push(start.elapsed().as_secs_f64());
        let aggs = [
            session.availability_model().expect("warm"),
            session.reliability_model().expect("warm"),
        ];
        match &reference {
            None => reference = Some(aggs),
            Some(first) => {
                for (a, b) in first.iter().zip(&aggs) {
                    assert!(
                        a.ctmc == b.ctmc && rate_bits(&a.ctmc) == rate_bits(&b.ctmc),
                        "dds_scaled(6): a configuration's chain differs between 1 and {} \
                         workers",
                        workers[k]
                    );
                }
            }
        }
    }
    let [serial, par] = secs.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    println!(
        "dds_scaled(6): cold prefetch_all of both configurations, median of 3: \
         {serial:.3} s at 1 worker vs {par:.3} s at {threads} workers ({:.2}x), \
         chains bitwise equal",
        serial / par
    );
}

/// Sup-norm distance between two grids of distributions.
fn grid_sup_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y))
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()))
}

/// One timed grid solve of `ctmc` from its initial state through a fresh
/// context: the distributions, the wall time and the DTMC steps taken.
fn timed_grid(ctmc: &Ctmc, grid: &[f64], opts: &TransientOptions) -> (Vec<Vec<f64>>, f64, u64) {
    let ctx = MeasureContext::new();
    let pi0 = ctmc.initial_distribution();
    let start = Instant::now();
    let curve = transient_many_from_ctx(ctmc, &pi0, grid, opts, &ctx);
    (
        curve,
        start.elapsed().as_secs_f64(),
        ctx.counters.dtmc_steps(),
    )
}

/// Solves steady state once, then the 50-point transient grid on the
/// default options' kernel, one exact global-Λ full-sweep ablation
/// (≤ 1e-10 agreement gate — the adaptive-engine regression check) and
/// one detection-disabled ablation, appending a record per run. Returns
/// the steady wall time, the default grid wall time and the steady-state
/// unavailability.
fn solve(
    family: &str,
    agg: &Aggregation,
    aggregation_secs: f64,
    records: &mut Vec<TransientRecord>,
) -> (f64, f64, f64) {
    let ctmc = &agg.ctmc;
    let opts = SolverOptions::default();
    if ctmc.num_states() > opts.dense_limit {
        println!(
            "{family}: {} states > dense limit {} -- sparse iterative path",
            ctmc.num_states(),
            opts.dense_limit
        );
    }
    let down: Vec<u32> = ctmc.states_with_label(1).collect();

    let start = Instant::now();
    let pi = steady::steady_state_with(ctmc, &opts);
    let steady_secs = start.elapsed().as_secs_f64();
    let mass: f64 = pi.iter().sum();
    assert!(
        (mass - 1.0).abs() < 1e-9,
        "{family}: steady state not normalized (mass {mass})"
    );
    let unavail = state_mass(&down, &pi);
    assert!(
        unavail.is_finite() && (0.0..=1.0).contains(&unavail),
        "{family}: bad steady unavailability {unavail}"
    );

    // 50-point unavailability curve over a mission-sized horizon, one
    // incremental uniformization sweep per run.
    let grid: Vec<f64> = (1..=50).map(|k| k as f64 * 20.0).collect();
    let mut push_record = |topts: &TransientOptions, engine, grid_secs: f64, steps: u64| {
        records.push(TransientRecord {
            family: family.to_owned(),
            states: ctmc.num_states(),
            transitions: ctmc.num_transitions(),
            engine,
            steady_tol: topts.steady_tol,
            support_tol: topts.support_tol,
            aggregation_secs,
            signature_secs: agg.refine.signature_secs,
            split_secs: agg.refine.split_secs,
            quotient_secs: agg.refine.quotient_secs,
            refine_rounds: agg.refine.refine_rounds,
            states_resigned: agg.refine.states_resigned,
            steady_secs,
            grid_secs,
            grid_points: grid.len(),
            dtmc_steps: steps,
        });
    };
    let topts = TransientOptions::default();
    let kernel = select_kernel(ctmc, &grid, &topts).name();
    let (base_curve, base_secs, adaptive_steps) = timed_grid(ctmc, &grid, &topts);
    push_record(&topts, kernel, base_secs, adaptive_steps);
    for (i, pi_t) in base_curve.iter().enumerate() {
        let u = state_mass(&down, pi_t);
        assert!(
            u.is_finite() && (0.0..=1.0).contains(&u),
            "{family}: bad point unavailability {u} at t={}",
            grid[i]
        );
    }
    println!(
        "{family}: steady unavailability {unavail:.3e}, U({:.0}) = {:.3e}, \
         grid {base_secs:.3} s ({adaptive_steps} DTMC steps, {kernel})",
        grid[grid.len() - 1],
        state_mass(&down, &base_curve[base_curve.len() - 1])
    );

    // Adaptive-engine ablation: the exact global-Λ full-sweep engine on
    // the same grid. The agreement gate is the adaptive engine's
    // regression check; the wall-clock and step ratios are its win.
    let exact_opts = TransientOptions::default().with_adaptive(false);
    let (exact_curve, exact_secs, exact_steps) = timed_grid(ctmc, &grid, &exact_opts);
    push_record(&exact_opts, "exact", exact_secs, exact_steps);
    let adaptive_diff = grid_sup_diff(&base_curve, &exact_curve);
    assert!(
        adaptive_diff < 1e-10,
        "{family}: adaptive windowed grid deviates from the exact engine by {adaptive_diff:e}"
    );
    println!(
        "{family}: adaptive {base_secs:.3} s / {adaptive_steps} steps vs exact \
         {exact_secs:.3} s / {exact_steps} steps ({:.1}x wall, {:.1}x steps), \
         grids agree to {adaptive_diff:.1e}",
        exact_secs / base_secs,
        exact_steps as f64 / adaptive_steps.max(1) as f64,
    );

    // Detection ablation: the same grid with steady-state detection off
    // measures the DTMC steps the detector saves.
    let no_detect = TransientOptions::default().with_steady_tol(0.0);
    let (undetected, ablation_secs, ablation_steps) = timed_grid(ctmc, &grid, &no_detect);
    push_record(&no_detect, kernel, ablation_secs, ablation_steps);
    let max_diff = grid_sup_diff(&base_curve, &undetected);
    assert!(
        max_diff < 1e-10,
        "{family}: steady-state detection perturbed the grid by {max_diff:e}"
    );
    println!(
        "{family}: detection {adaptive_steps} vs {ablation_steps} DTMC steps \
         (ablation {ablation_secs:.3} s), grids agree to {max_diff:.1e}"
    );
    (steady_secs, base_secs, unavail)
}

/// Renders the records as a self-contained JSON document (the workspace
/// is dependency-free, so the encoder is by hand like the CLI's).
fn render_json(
    hw: usize,
    smoke: bool,
    records: &[TransientRecord],
    sweep: &SweepBenchRecord,
    stiff: &[StiffRecord],
) -> String {
    let mut rows = String::new();
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            "\n  {{\"family\":\"{}\",\"states\":{},\"transitions\":{},\"engine\":\"{}\",\
             \"steady_tol\":{:e},\"support_tol\":{:e},\"aggregation_secs\":{:.6},\
             \"signature_secs\":{:.6},\"split_secs\":{:.6},\"quotient_secs\":{:.6},\
             \"refine_rounds\":{},\"states_resigned\":{},\
             \"steady_secs\":{:.6},\"grid_secs\":{:.6},\
             \"grid_points\":{},\"dtmc_steps\":{}}}",
            r.family,
            r.states,
            r.transitions,
            r.engine,
            r.steady_tol,
            r.support_tol,
            r.aggregation_secs,
            r.signature_secs,
            r.split_secs,
            r.quotient_secs,
            r.refine_rounds,
            r.states_resigned,
            r.steady_secs,
            r.grid_secs,
            r.grid_points,
            r.dtmc_steps,
        ));
    }
    let sweep_obj = format!(
        "{{\"family\":\"{}\",\"grid_points\":{},\"measures\":{},\"threads\":{},\
         \"sweep_secs\":{:.6},\"sweep_points_per_sec\":{:.3},\
         \"rebuild_sample\":{},\"rebuild_secs\":{:.6},\
         \"rebuild_points_per_sec\":{:.3},\"rerate_speedup\":{:.3},\
         \"aggregations_built\":{}}}",
        sweep.family,
        sweep.grid_points,
        sweep.measures,
        sweep.threads,
        sweep.sweep_secs,
        sweep.sweep_points_per_sec,
        sweep.rebuild_sample,
        sweep.rebuild_secs,
        sweep.rebuild_points_per_sec,
        sweep.rerate_speedup,
        sweep.aggregations_built,
    );
    let stiff_rows: Vec<String> = stiff
        .iter()
        .map(|r| {
            format!(
                "\n  {{\"family\":\"{}\",\"solve\":\"{}\",\"states\":{},\"transitions\":{},\
                 \"kernel\":\"{}\",\"grid_points\":{},\"lambda_t\":{:e},\
                 \"wall_secs\":{:.6},\"dtmc_steps\":{},\"dense_products\":{},\
                 \"exact_diff\":{:e}}}",
                r.family,
                r.solve,
                r.states,
                r.transitions,
                r.kernel,
                r.grid_points,
                r.lambda_t,
                r.wall_secs,
                r.dtmc_steps,
                r.dense_products,
                r.exact_diff,
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"exp_scaling_transient\",\"schema_version\":5,\
         \"hw_threads\":{hw},\"smoke\":{smoke},\
         \"sweep\":{sweep_obj},\
         \"stiff\":[{}\n],\
         \"records\":[{rows}\n]}}\n",
        stiff_rows.join(",")
    )
}
