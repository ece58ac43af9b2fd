//! `arcbench` — the repository's benchmark. See `README.md` beside this
//! crate for the workloads, the metrics and how to run them.
//!
//! ```text
//! arcbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs the workload end to end against a fresh
//! `arcaded` and prints the end-to-end metrics, with times scaled by a
//! host-speed probe run on the server's CPU (`calib`); with `--trace 1`
//! it runs the traced replay and prints the per-layer metrics. The last
//! line of standard output is always one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod api;
mod calib;
mod deck;
mod json;
mod reference;
mod rng;
mod server;
mod stats;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use deck::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (one of {})", all.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer".to_owned())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Refuses configurations whose numbers would not describe the program:
/// armed chaos failpoints, or an unoptimised build.
fn guard_rails() -> Result<(), String> {
    if std::env::var_os("ARCADE_CHAOS").is_some_and(|v| !v.is_empty()) {
        return Err("refusing to run with chaos failpoints armed; unset ARCADE_CHAOS".into());
    }
    if cfg!(debug_assertions) {
        return Err("refusing to run an unoptimised build; build with --release".into());
    }
    Ok(())
}

/// `arcaded`, built into the same target directory as this executable.
fn arcaded_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name("arcaded");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "no arcaded next to {}; run arcbench/run.sh",
            exe.display()
        ))
    }
}

/// The commit, when run from the root of a git checkout.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".to_owned();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "none".to_owned())
}

/// One metric of the result line: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        fields.join(",")
    )
}

fn run(args: &Args) -> Result<(String, usize, usize, Vec<Metric>), String> {
    guard_rails()?;
    let exe = arcaded_path()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpus = server::Cpus::pin()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    println!(
        "arcbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={} \
         server_workers={} engine_threads={} client_cpu={} server_cpu={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(&root),
        server::WORKERS,
        server::ENGINE_THREADS,
        cpus.client,
        cpus.server,
    );
    let plan = deck::plan(args.workload, args.seed);
    if args.trace {
        let t = trace::run(&exe, args.workload, args.seed, &plan, args.seconds, cpus)?;
        let report = t.report();
        Ok((report.text, t.attempted, t.failed, report.metrics))
    } else {
        let r = wire::run(&exe, args.workload, &plan, args.seconds, cpus)?;
        let attempted = r.attempted();
        let metrics = vec![
            ("setup_s", r.setup_median_s(), "s"),
            ("ops_per_s", r.ops_per_s(), "1/s"),
            ("op_p50_ms", r.p50_ms(), "ms"),
            ("op_p90_ms", r.p90_ms(), "ms"),
            ("peak_rss_mb", r.peak_rss_mb, "MB"),
        ];
        let (raw_rate, raw_p50, raw_p90) = r.unscaled();
        let mut text = format!(
            "{attempted} ops in {} whole passes; set-ups {:?} s; median probe {:.4} ms\n\
             times scaled to the probe's nominal {:.1} ms; as measured: set-up {:.4} s, \
             {raw_rate:.4} ops/s, p50 {raw_p50:.4} ms, p90 {raw_p90:.4} ms\n",
            r.passes,
            r.setup_s,
            r.probe_median_ms(),
            calib::NOMINAL_MS,
            r.setup_measured_median_s(),
        );
        for (name, value, unit) in &metrics {
            text.push_str(&format!("  {name:<12} {value:>12.4} {unit}\n"));
        }
        for (class, n, p50) in r.by_class() {
            text.push_str(&format!(
                "    class {class:<8} {n:>6} ops, median {p50:.4} ms\n"
            ));
        }
        text.push_str(&format!(
            "  {:<12} {:>12.4} (failed {} of {attempted})\n",
            "error_rate",
            r.failed as f64 / attempted as f64,
            r.failed
        ));
        for e in r.errors.iter().take(5) {
            text.push_str(&format!("  check failed: {e}\n"));
        }
        Ok((text, attempted, r.failed, metrics))
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(calib::PROBE_FLAG) {
        return match calib::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("arcbench probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arcbench: {e}");
            eprintln!("usage: arcbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((text, attempted, failed, metrics)) => {
            print!("{text}");
            println!("{}", result_line(attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("arcbench: {e}");
            ExitCode::FAILURE
        }
    }
}
