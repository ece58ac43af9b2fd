//! `arcade` — command-line dependability evaluation.
//!
//! ```text
//! arcade analyze  <model.arcade> [--time T]... [--json] [--dense-limit N]
//!                                [--threads N] [--steady-tol X]
//!                                [--adaptive 0|1] [--support-tol X]
//! arcade modular  <model.arcade> [--time T]... [--json] [--dense-limit N]
//!                                [--threads N] [--steady-tol X]
//!                                [--adaptive 0|1] [--support-tol X]
//! arcade sweep    <model.arcade> --param NAME@BASE=V1,V2,... [--param ...]
//!                                [--time T]... [--json] [engine flags]
//! arcade simulate <model.arcade> --time T [--reps N] [--seed S]
//! arcade check    <model.arcade>                          validate only
//! arcade blocks   <model.arcade>                          block automaton sizes
//! arcade dot      <model.arcade> <block>                  Graphviz of one block
//! arcade format   <model.arcade>                          re-print canonically
//! ```
//!
//! `analyze` and `modular` collect **all** `--time` flags into one batched
//! query answered by a single lazy [`Session`]: one aggregation per needed
//! model configuration, one uniformization sweep per measure kind over the
//! whole time grid. `--dense-limit` moves the dense-vs-iterative solver
//! crossover (default 3000 states; `0` forces the sparse path — see
//! [`ctmc::SolverOptions`]). `--threads` sets the worker count of the
//! aggregation and sweep fan-out (sibling plan groups, bisimulation
//! signatures, sweep points; `0` = one per core, larger requests are
//! clamped to the core count; results are bitwise identical for every
//! value; transient solves are serial), and `--steady-tol`
//! tunes steady-state detection inside transient grids (`0` disables it —
//! see [`ctmc::TransientOptions`]). `--adaptive 1` (the default) lets a
//! cost model pick the transient kernel per solve — dense scaling and
//! squaring for small stiff chains, the adaptive windowed scheme
//! (per-segment Λ over the distribution's ε-support) otherwise — and
//! `--adaptive 0` forces the exact global-Λ full sweep;
//! `--support-tol` sets the windowed engine's per-segment support
//! truncation budget (`0` = lossless windowing). `analyze --json` also
//! reports session counters (Poisson cache hits/misses, DTMC steps,
//! sweeps) under `"stats"`.
//!
//! `sweep` runs a parametric sweep: each `--param NAME@BASE=V1,V2,...`
//! declares rate parameter `NAME` binding every rate in the model whose
//! value is exactly `BASE`, and sweeps it over the listed values (the
//! cartesian product across `--param` flags). The model is aggregated
//! **once** at the base rates; every grid point re-rates the quotient
//! CTMC and solves steady-state unavailability, MTTF, and unreliability
//! at each `--time` (see [`arcade::query::Session::sweep`]). Output rows
//! carry finite-difference sensitivities per parameter.

use std::process::ExitCode;

use arcade::engine::EngineOptions;
use arcade::model::SystemModel;
use arcade::modular::modular_analysis;
use arcade::parser::parse_system;
use arcade::printer::to_arcade_text;
use arcade::query::{Measure, ParamGrid, Session};
use arcade::sim;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let file = args.get(1).ok_or_else(usage)?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let def = parse_system(&text).map_err(|e| e.to_string())?;
    let json = args.iter().any(|a| a == "--json");
    if json && !matches!(cmd.as_str(), "analyze" | "modular" | "sweep") {
        return Err("--json is only supported by `analyze`, `modular` and `sweep`".to_owned());
    }

    match cmd.as_str() {
        "check" => {
            arcade::model::validate(&def).map_err(|e| e.to_string())?;
            println!(
                "ok: {} components, {} repair units, {} SMUs",
                def.components.len(),
                def.repair_units.len(),
                def.smus.len()
            );
            Ok(())
        }
        "format" => {
            print!("{}", to_arcade_text(&def));
            Ok(())
        }
        "blocks" => {
            let model = SystemModel::build(&def).map_err(|e| e.to_string())?;
            println!("{:<20} {:>8} {:>12}", "block", "states", "transitions");
            for b in &model.blocks {
                println!(
                    "{:<20} {:>8} {:>12}",
                    b.name,
                    b.imc.num_states(),
                    b.imc.num_transitions()
                );
            }
            Ok(())
        }
        "dot" => {
            let block_name = args.get(2).ok_or("dot needs a block name")?;
            let model = SystemModel::build(&def).map_err(|e| e.to_string())?;
            let block = model
                .block(block_name)
                .ok_or_else(|| format!("no block named `{block_name}`"))?;
            print!(
                "{}",
                ioimc::dot::to_dot(&block.imc, &model.alphabet, block_name)
            );
            Ok(())
        }
        "analyze" => {
            let times = time_values(args)?;
            let opts = engine_options(args)?;
            let session = Session::new(&def)
                .map_err(|e| e.to_string())?
                .with_options(opts);

            // One batched query answers everything: the steady-state
            // measures, the MTTF, and all three curves over the grid.
            let mut measures = vec![
                Measure::SteadyStateAvailability,
                Measure::SteadyStateUnavailability,
                Measure::Mttf,
            ];
            for &t in &times {
                measures.push(Measure::Reliability(t));
                measures.push(Measure::UnreliabilityWithRepair(t));
                measures.push(Measure::PointUnavailability(t));
            }
            let values = session.evaluate(&measures).map_err(|e| e.to_string())?;
            let agg = session.availability_model().map_err(|e| e.to_string())?;

            if json {
                let mut points = String::new();
                for (i, &t) in times.iter().enumerate() {
                    if i > 0 {
                        points.push(',');
                    }
                    points.push_str(&format!(
                        "{{\"t\":{t},\"reliability\":{},\"unreliability_with_repair\":{},\"point_unavailability\":{}}}",
                        json_f64(values[3 + 3 * i]),
                        json_f64(values[4 + 3 * i]),
                        json_f64(values[5 + 3 * i]),
                    ));
                }
                let stats = session.stats();
                println!(
                    "{{\"model\":{},\"schema_version\":1,\
                     \"ctmc\":{{\"states\":{},\"transitions\":{}}},\
                     \"largest_intermediate\":{{\"states\":{},\"transitions\":{}}},\
                     \"steady_state_availability\":{},\"steady_state_unavailability\":{},\
                     \"mttf\":{},\"points\":[{points}],\
                     \"stats\":{{\"poisson_hits\":{},\"poisson_misses\":{},\
                     \"dtmc_steps\":{},\"sweeps\":{}}}}}",
                    json_str(&def.name),
                    agg.ctmc_stats.states,
                    agg.ctmc_stats.transitions(),
                    agg.largest_intermediate.states,
                    agg.largest_intermediate.transitions(),
                    json_f64(values[0]),
                    json_f64(values[1]),
                    json_f64(values[2]),
                    stats.poisson_hits,
                    stats.poisson_misses,
                    stats.dtmc_steps,
                    stats.sweeps,
                );
                return Ok(());
            }
            println!("final CTMC: {}", agg.ctmc_stats);
            println!("largest intermediate: {}", agg.largest_intermediate);
            println!();
            println!("steady-state availability:   {:.10}", values[0]);
            println!("steady-state unavailability: {:.6e}", values[1]);
            println!("MTTF:                        {:.6e}", values[2]);
            for (i, &t) in times.iter().enumerate() {
                println!();
                println!("t = {t}:");
                println!("  reliability (no repair):   {:.10}", values[3 + 3 * i]);
                println!("  unreliability w/ repair:   {:.6e}", values[4 + 3 * i]);
                println!("  point unavailability:      {:.6e}", values[5 + 3 * i]);
            }
            Ok(())
        }
        "sweep" => {
            let mut def = def;
            let specs = param_specs(args)?;
            if specs.is_empty() {
                return Err("sweep needs at least one --param NAME@BASE=V1,V2,...".to_owned());
            }
            for (name, base, _) in &specs {
                def.add_param(name, *base);
            }
            let times = time_values(args)?;
            let opts = engine_options(args)?;
            let session = Session::new(&def)
                .map_err(|e| e.to_string())?
                .with_options(opts);
            let mut measures = vec![Measure::SteadyStateUnavailability, Measure::Mttf];
            for &t in &times {
                measures.push(Measure::Unreliability(t));
            }
            let grid = ParamGrid::cartesian(
                specs
                    .iter()
                    .map(|(name, _, values)| (name.clone(), values.clone())),
            );
            let result = session.sweep(&measures, &grid).map_err(|e| e.to_string())?;

            if json {
                let mut points = String::new();
                for (i, (pt, row)) in result.points.iter().zip(&result.values).enumerate() {
                    if i > 0 {
                        points.push(',');
                    }
                    let sens = result.sensitivities[i]
                        .iter()
                        .map(|per_param| {
                            format!(
                                "[{}]",
                                per_param
                                    .iter()
                                    .map(|s| s.map_or("null".to_owned(), json_f64))
                                    .collect::<Vec<_>>()
                                    .join(",")
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(",");
                    points.push_str(&format!(
                        "{{\"point\":[{}],\"steady_state_unavailability\":{},\"mttf\":{},\
                         \"unreliability\":[{}],\"sensitivities\":[{sens}]}}",
                        pt.iter()
                            .map(|v| json_f64(*v))
                            .collect::<Vec<_>>()
                            .join(","),
                        json_f64(row[0]),
                        json_f64(row[1]),
                        row[2..]
                            .iter()
                            .map(|v| json_f64(*v))
                            .collect::<Vec<_>>()
                            .join(","),
                    ));
                }
                let stats = session.stats();
                println!(
                    "{{\"model\":{},\"schema_version\":1,\
                     \"params\":[{}],\"times\":[{}],\"points\":[{points}],\
                     \"stats\":{{\"aggregations_built\":{},\"poisson_hits\":{},\
                     \"poisson_misses\":{},\"poisson_evictions\":{},\
                     \"dtmc_steps\":{},\"sweeps\":{}}}}}",
                    json_str(&def.name),
                    result
                        .names
                        .iter()
                        .map(|n| json_str(n))
                        .collect::<Vec<_>>()
                        .join(","),
                    times
                        .iter()
                        .map(|t| json_f64(*t))
                        .collect::<Vec<_>>()
                        .join(","),
                    stats.aggregations_built,
                    stats.poisson_hits,
                    stats.poisson_misses,
                    stats.poisson_evictions,
                    stats.dtmc_steps,
                    stats.sweeps,
                );
                return Ok(());
            }
            println!(
                "{} points over {} ({} aggregation(s))",
                result.points.len(),
                result.names.join(" × "),
                session.stats().aggregations_built,
            );
            for (pt, row) in result.points.iter().zip(&result.values) {
                let coords = result
                    .names
                    .iter()
                    .zip(pt)
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                println!();
                println!("{coords}:");
                println!("  steady-state unavailability: {:.6e}", row[0]);
                println!("  MTTF:                        {:.6e}", row[1]);
                for (k, &t) in times.iter().enumerate() {
                    println!("  unreliability(t={t}):        {:.6e}", row[2 + k]);
                }
            }
            Ok(())
        }
        "modular" => {
            let times = time_values(args)?;
            let m = modular_analysis(&def, &engine_options(args)?).map_err(|e| e.to_string())?;
            // Batched curves: one sweep per (module, measure kind).
            let rel = m.reliability_many(&times);
            let unrel = m.unreliability_with_repair_many(&times);
            let a = m.steady_state_availability();

            if json {
                let mut modules = String::new();
                for (i, module) in m.modules.iter().enumerate() {
                    if i > 0 {
                        modules.push(',');
                    }
                    modules.push_str(&format!(
                        "{{\"name\":{},\"components\":{},\"ctmc_states\":{}}}",
                        json_str(&module.name),
                        module.components.len(),
                        module.report.ctmc_stats().states,
                    ));
                }
                let mut points = String::new();
                for (i, &t) in times.iter().enumerate() {
                    if i > 0 {
                        points.push(',');
                    }
                    points.push_str(&format!(
                        "{{\"t\":{t},\"reliability\":{},\"unreliability_with_repair\":{}}}",
                        json_f64(rel[i]),
                        json_f64(unrel[i]),
                    ));
                }
                println!(
                    "{{\"model\":{},\"modules\":[{modules}],\
                     \"steady_state_availability\":{},\"points\":[{points}]}}",
                    json_str(&def.name),
                    json_f64(a),
                );
                return Ok(());
            }
            for module in &m.modules {
                println!(
                    "{}: {} components, CTMC {}",
                    module.name,
                    module.components.len(),
                    module.report.ctmc_stats()
                );
            }
            println!();
            println!("steady-state availability:   {a:.10}");
            for (i, &t) in times.iter().enumerate() {
                println!(
                    "R({t}) = {:.10}   unreliability w/ repair = {:.6e}",
                    rel[i], unrel[i]
                );
            }
            Ok(())
        }
        "simulate" => {
            let times = time_values(args)?;
            let t = *times.first().ok_or("simulate needs --time T")?;
            let reps = flag_values(args, "--reps")?
                .first()
                .map_or(10_000, |r| *r as usize);
            let seed = flag_values(args, "--seed")?
                .first()
                .map_or(1, |s| *s as u64);
            let no_rep = sim::simulate_unreliability(&def, t, reps, seed, false)
                .map_err(|e| e.to_string())?;
            let with_rep = sim::simulate_unreliability(&def, t, reps, seed + 1, true)
                .map_err(|e| e.to_string())?;
            println!("Monte-Carlo, {reps} replications, seed {seed}:");
            println!(
                "  R({t}) (no repair)        = {:.6} ± {:.6}",
                1.0 - no_rep.mean,
                no_rep.half_width
            );
            println!(
                "  unreliability w/ repair  = {:.6e} ± {:.2e}",
                with_rep.mean, with_rep.half_width
            );
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// Engine options from the command line: the `--dense-limit` solver
/// crossover, the `--threads` worker count (aggregation and sweep
/// fan-out, clamped to the core count), the `--steady-tol`
/// detection threshold, the `--adaptive` engine switch and the
/// `--support-tol` windowing budget (see [`ctmc::SolverOptions`] /
/// [`ctmc::TransientOptions`]).
fn engine_options(args: &[String]) -> Result<EngineOptions, String> {
    let mut opts = EngineOptions::new();
    if let Some(&n) = flag_values(args, "--dense-limit")?.first() {
        if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0) {
            return Err(format!(
                "--dense-limit must be a non-negative integer, got {n}"
            ));
        }
        opts.solver.dense_limit = n as usize;
    }
    if let Some(&n) = flag_values(args, "--threads")?.first() {
        if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0) {
            return Err(format!(
                "--threads must be a non-negative integer (0 = auto), got {n}"
            ));
        }
        opts.threads = n as usize;
    }
    if let Some(&x) = flag_values(args, "--steady-tol")?.first() {
        if !(x.is_finite() && x >= 0.0) {
            return Err(format!(
                "--steady-tol must be non-negative and finite (0 disables detection), got {x}"
            ));
        }
        opts.solver.transient.steady_tol = x;
    }
    if let Some(&x) = flag_values(args, "--adaptive")?.first() {
        if x != 0.0 && x != 1.0 {
            return Err(format!(
                "--adaptive must be 0 (exact global-Λ engine) or 1 (dense or windowed \
                 by cost model), got {x}"
            ));
        }
        opts.solver.transient.adaptive = x != 0.0;
    }
    if let Some(&x) = flag_values(args, "--support-tol")?.first() {
        if !(x.is_finite() && x >= 0.0) {
            return Err(format!(
                "--support-tol must be non-negative and finite (0 = lossless windowing), got {x}"
            ));
        }
        opts.solver.transient.support_tol = x;
    }
    Ok(opts)
}

/// Collects `--param NAME@BASE=V1,V2,...` declarations for `sweep`:
/// parameter name, the base rate it binds in the model, and the value
/// axis to sweep.
fn param_specs(args: &[String]) -> Result<Vec<(String, f64, Vec<f64>)>, String> {
    let bad =
        |spec: &str, why: &str| format!("--param expects NAME@BASE=V1,V2,... — `{spec}`: {why}");
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a != "--param" {
            continue;
        }
        let spec = it.next().ok_or("--param needs a value")?;
        let (head, tail) = spec
            .split_once('=')
            .ok_or_else(|| bad(spec, "missing `=`"))?;
        let (name, base) = head
            .split_once('@')
            .ok_or_else(|| bad(spec, "missing `@BASE`"))?;
        if name.is_empty() {
            return Err(bad(spec, "empty parameter name"));
        }
        let base: f64 = base.parse().map_err(|e| bad(spec, &format!("base: {e}")))?;
        let values: Vec<f64> = tail
            .split(',')
            .map(|v| v.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|e| bad(spec, &format!("values: {e}")))?;
        if values.is_empty() {
            return Err(bad(spec, "needs at least one value"));
        }
        out.push((name.to_owned(), base, values));
    }
    Ok(out)
}

/// Collects `--time` values and rejects what the solvers would panic on.
fn time_values(args: &[String]) -> Result<Vec<f64>, String> {
    let times = flag_values(args, "--time")?;
    if let Some(bad) = times.iter().find(|t| !(t.is_finite() && **t >= 0.0)) {
        return Err(format!("--time must be non-negative and finite, got {bad}"));
    }
    Ok(times)
}

fn flag_values(args: &[String], flag: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            let v = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .parse::<f64>()
                .map_err(|e| format!("{flag}: {e}"))?;
            out.push(v);
        }
    }
    Ok(out)
}

/// JSON number rendering: finite values print as-is, non-finite ones
/// (MTTF of an unfailable system is infinite) become null.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage() -> String {
    "usage: arcade <analyze|modular|sweep|simulate|check|blocks|dot|format> <model.arcade> \
     [--time T]... [--json] [--param NAME@BASE=V1,V2,...] [--reps N] [--seed S] \
     [--dense-limit N] [--threads N (aggregation and sweep fan-out, 0 = auto)] \
     [--steady-tol X (0 disables detection)] \
     [--adaptive 0|1] [--support-tol X (0 = lossless windowing)]"
        .to_owned()
}
