//! `fuzz_diff` — seeded differential fuzzing of the analysis pipeline.
//!
//! ```text
//! fuzz_diff [--smoke] [--seed N] [--iters N] [--out DIR]
//! ```
//!
//! Each iteration draws a random model from the engine profile of
//! [`arcade::fuzz::gen_system`] and runs all four differential oracle
//! pairs on it ([`arcade::fuzz::OraclePair`]): monolithic session vs
//! modular decomposition, the cost model's transient kernel (dense or
//! windowed) vs the exact engine, dense vs iterative steady solvers, and
//! exact vs Monte-Carlo. A disagreement
//! beyond tolerance is delta-debugged down to a minimal model
//! ([`arcade::fuzz::shrink_system`]) and committed as a
//! schema-versioned evidence artifact under `--out` (atomic
//! temp-and-rename writes, so an interrupted run never leaves a
//! half-written record). The run summary always lands in
//! `DIR/summary.json`, with the number of adaptive-transient checks that
//! ran on each transient kernel.
//!
//! Fully deterministic for a fixed `--seed`: the generator, the oracle
//! horizons, and the Monte-Carlo simulation stream all derive from it,
//! so `--smoke` in CI can never flake. A draw that trips the fuzz state
//! budget or is not weakly deterministic is skipped and re-drawn (counted
//! as `skipped_draws`); any other oracle error, an uncertified
//! steady-state solve among them, aborts the run. Exits non-zero iff at
//! least one disagreement survived, an oracle failed, or, under
//! `--smoke`, the adaptive-transient pair did not check at least one
//! measure on each of the dense and the windowed kernels.

use std::process::ExitCode;

use smallrand::SmallRng;

use arcade::fuzz::{check_pair, gen_system, Evidence, GenConfig, OraclePair};
use arcade::printer::to_arcade_text;
use arcade::serve::Json;
use arcade::ArcadeError;
use arcade_bench::write_atomic;
use ctmc::transient::TransientKernel;

const SMOKE_SEED: u64 = 0xF0DD;
const SMOKE_ITERS: u64 = 64;

fn main() -> ExitCode {
    // Differential results are only meaningful with fault injection off —
    // an injected delay or panic would turn every oracle run into noise.
    // The same guard pins `exp_scaling`'s timing claims.
    assert!(
        !arcade::chaos::enabled(),
        "chaos failpoints are armed (ARCADE_CHAOS?); differential results would be meaningless"
    );

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 1;
    let mut iters: u64 = 256;
    let mut smoke = false;
    let mut out_dir = "artifacts/fuzz".to_owned();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => {
                smoke = true;
                seed = SMOKE_SEED;
                iters = SMOKE_ITERS;
            }
            "--seed" => seed = parse(it.next(), "--seed"),
            "--iters" => iters = parse(it.next(), "--iters"),
            "--out" => out_dir = it.next().expect("--out needs a value").clone(),
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("usage: fuzz_diff [--smoke] [--seed N] [--iters N] [--out DIR]");
                return ExitCode::FAILURE;
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create artifact directory");

    println!("fuzz_diff: seed {seed}, {iters} iterations, artifacts in {out_dir}/");
    let cfg = GenConfig::engine();
    let mut checked_per_pair = [0u64; 4];
    // Adaptive-transient measure checks per kernel: [dense, windowed].
    let mut kernel_checks = [0u64; 2];
    let mut skipped: u64 = 0;
    let mut artifacts: Vec<String> = Vec::new();
    let mut survivors: u64 = 0;

    for iteration in 0..iters {
        // Distinct, well-mixed stream per iteration.
        let iter_seed = seed ^ (iteration.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = SmallRng::seed_from_u64(iter_seed);

        // Draw until the model is analyzable: a draw that trips the fuzz
        // state budget or is not weakly deterministic counts as a skip,
        // never as a silent pass. Any other error (an uncertified solve
        // among them) is a finding and fails the run, as in the pair loop
        // below. The probe is the modular pair's own check, and that check
        // is deterministic, so its result stands in for the pair below.
        let mut def = gen_system(&mut rng, &cfg);
        let mut attempts = 0;
        let mut modular = loop {
            match check_pair(&def, OraclePair::Modular, iter_seed) {
                Ok(checked) => break Some(checked),
                Err(ArcadeError::Budget(_) | ArcadeError::Nondeterministic(_)) if attempts < 8 => {
                    attempts += 1;
                    skipped += 1;
                    def = gen_system(&mut rng, &cfg);
                }
                Err(e) => panic!(
                    "iteration {iteration}: no analyzable model ({attempts} draws skipped): {e}"
                ),
            }
        };

        for (pi, pair) in OraclePair::ALL.into_iter().enumerate() {
            let checked = match pair {
                OraclePair::Modular => modular.take().expect("one modular pair per draw"),
                // The probe above ran the full pipeline once, so a
                // pair-specific failure here is a real bug surface.
                _ => check_pair(&def, pair, iter_seed).unwrap_or_else(|e| {
                    panic!("iteration {iteration}: {} oracle failed: {e}", pair.name())
                }),
            };
            checked_per_pair[pi] += 1;
            for kernel in &checked.kernels {
                match kernel {
                    TransientKernel::Dense => kernel_checks[0] += 1,
                    TransientKernel::Windowed => kernel_checks[1] += 1,
                    TransientKernel::Exact => {}
                }
            }
            for d in checked.disagreements {
                survivors += 1;
                println!(
                    "iteration {iteration}: DISAGREEMENT [{}] {}: {} vs {} (tol {}, kernel {})",
                    d.pair.name(),
                    d.measure,
                    d.primary,
                    d.oracle,
                    d.tolerance,
                    d.kernel.map_or("-", TransientKernel::name)
                );
                // Reduce while *this pair* still disagrees on *some*
                // measure; oracle errors reject the candidate.
                let outcome = arcade::fuzz::shrink_system(&def, |cand| {
                    check_pair(cand, pair, iter_seed)
                        .map(|c| !c.disagreements.is_empty())
                        .unwrap_or(false)
                });
                let evidence = Evidence {
                    seed: iter_seed,
                    iteration,
                    disagreement: d,
                    original: to_arcade_text(&def),
                    minimal: to_arcade_text(&outcome.def),
                    shrink_steps: outcome.steps,
                    shrink_checks: outcome.checks,
                };
                let path = format!("{out_dir}/{}", evidence.file_name());
                write_atomic(&path, &evidence.to_json().to_string())
                    .expect("write evidence artifact");
                println!(
                    "  shrunk in {} steps / {} checks -> {path}",
                    outcome.steps, outcome.checks
                );
                artifacts.push(path);
            }
        }
        if (iteration + 1) % 16 == 0 {
            println!("  ... {}/{iters} iterations", iteration + 1);
        }
    }

    let summary = Json::obj([
        ("schema", Json::Num(f64::from(arcade::fuzz::SCHEMA_VERSION))),
        ("seed", Json::Num(seed as f64)),
        ("iterations", Json::Num(iters as f64)),
        (
            "checked",
            Json::obj([
                ("modular", Json::Num(checked_per_pair[0] as f64)),
                ("adaptive_transient", Json::Num(checked_per_pair[1] as f64)),
                ("steady_solver", Json::Num(checked_per_pair[2] as f64)),
                ("monte_carlo", Json::Num(checked_per_pair[3] as f64)),
            ]),
        ),
        (
            "adaptive_transient_kernels",
            Json::obj([
                ("dense", Json::Num(kernel_checks[0] as f64)),
                ("windowed", Json::Num(kernel_checks[1] as f64)),
            ]),
        ),
        ("skipped_draws", Json::Num(skipped as f64)),
        ("disagreements", Json::Num(survivors as f64)),
        (
            "artifacts",
            Json::Arr(artifacts.iter().map(Json::str).collect()),
        ),
    ]);
    let summary_path = format!("{out_dir}/summary.json");
    write_atomic(&summary_path, &summary.to_string()).expect("write summary");

    println!(
        "fuzz_diff: {} pair-checks across {iters} iterations, {skipped} skipped draws, \
         {survivors} disagreements -> {summary_path}",
        checked_per_pair.iter().sum::<u64>()
    );
    println!(
        "adaptive-transient measure checks by kernel: {} dense, {} windowed",
        kernel_checks[0], kernel_checks[1]
    );
    // Every transient kernel the cost model can pick must meet its
    // oracle in the smoke run, or a kernel could regress unobserved.
    let uncovered = smoke && kernel_checks.contains(&0);
    if uncovered {
        println!("fuzz_diff: the smoke run did not check both the dense and the windowed kernel");
    }
    if survivors > 0 || uncovered {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse(v: Option<&String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a non-negative integer"))
}
