//! `arcaded` — the resident Arcade analysis daemon.
//!
//! ```text
//! arcaded [--addr HOST:PORT] [--workers N] [--threads N]
//!         [--idle-timeout-secs S] [--max-line-bytes N]
//!         [--max-states N] [--chaos SPEC]
//!         [--preload MODEL]...
//! ```
//!
//! Binds a TCP listener (default `127.0.0.1:7171`; port `0` picks an
//! ephemeral port) and serves the newline-delimited JSON protocol of
//! [`arcade::serve`]. On startup it prints exactly one line to stdout —
//!
//! ```text
//! arcaded listening on 127.0.0.1:7171
//! ```
//!
//! — which scripts can parse for the bound address (CI boots the daemon
//! on port 0 and scrapes the port from this line). `--preload` names
//! (repeatable) are warmed **before** the listening line is printed, so a
//! client that connects immediately gets warm-cache latencies.
//!
//! `--workers` sizes the connection worker pool (0 = one per core);
//! `--threads` is forwarded to every session's engine options (0 = auto),
//! controlling the aggregation and sweep fan-out per request; transient
//! solves are serial.
//!
//! `--max-states N` caps intermediate model size during aggregation for
//! **every** session (0 = unlimited, the default) — a `load`-ed
//! combinatorial model trips a structured `budget` error instead of
//! exhausting the daemon's memory. `--chaos SPEC` arms fault-injection
//! failpoints (see [`arcade::chaos`]; also honored from the
//! `ARCADE_CHAOS` environment variable) — testing only, never in
//! production.
//!
//! The daemon exits gracefully on SIGTERM or ctrl-c (SIGINT): it stops
//! accepting, lets in-flight requests finish, then returns 0. A
//! `{"cmd":"shutdown"}` request does the same over the wire.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use arcade::serve::{serve, Json, ServerConfig};

/// Set by the signal handler; polled by the main loop.
static STOP: AtomicBool = AtomicBool::new(false);

// Minimal libc surface for dependency-free signal handling. The handler
// only stores to an atomic, which is async-signal-safe.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

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
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_owned(),
        ..ServerConfig::default()
    };
    let mut preload: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => config.workers = parse_count(&value("--workers")?, "--workers")?,
            "--threads" => {
                let n = parse_count(&value("--threads")?, "--threads")?;
                config.engine.threads = n;
            }
            "--idle-timeout-secs" => {
                let secs = parse_count(&value("--idle-timeout-secs")?, "--idle-timeout-secs")?;
                if secs == 0 {
                    return Err("--idle-timeout-secs must be positive".to_owned());
                }
                config.idle_timeout = Duration::from_secs(secs as u64);
            }
            "--max-line-bytes" => {
                let n = parse_count(&value("--max-line-bytes")?, "--max-line-bytes")?;
                if n < 64 {
                    return Err("--max-line-bytes must be at least 64".to_owned());
                }
                config.max_line_bytes = n;
            }
            "--max-states" => {
                config.engine.max_states =
                    parse_count(&value("--max-states")?, "--max-states")? as u64;
            }
            "--chaos" => {
                arcade::chaos::arm_spec(&value("--chaos")?).map_err(|e| format!("--chaos: {e}"))?;
                eprintln!("arcaded: chaos failpoints armed");
            }
            "--preload" => preload.push(value("--preload")?),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }

    // Environment-armed chaos (testing only). A malformed spec refuses
    // startup: a daemon silently running *without* the requested faults
    // would produce misleading chaos results.
    match arcade::chaos::init_from_env() {
        Ok(true) => eprintln!("arcaded: chaos failpoints armed from ARCADE_CHAOS"),
        Ok(false) => {}
        Err(e) => return Err(format!("ARCADE_CHAOS: {e}")),
    }

    // SAFETY: registering a handler that only stores to a static atomic.
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }

    let handle = serve(config).map_err(|e| format!("cannot start server: {e}"))?;

    // Warm the requested models before announcing readiness, so the first
    // real client never pays a cold build for a preloaded name.
    if !preload.is_empty() {
        let mut client = arcade::serve::Client::connect(&handle.local_addr().to_string())
            .map_err(|e| format!("cannot connect for preload: {e}"))?;
        for name in &preload {
            let response = client
                .query(
                    name,
                    Json::Arr(vec![Json::str("steady_state_unavailability")]),
                    None,
                )
                .map_err(|e| format!("preload of `{name}` failed: {e}"))?;
            let cold = response.get("cold") == Some(&Json::Bool(true));
            eprintln!(
                "arcaded: preloaded {name} ({})",
                if cold { "built" } else { "cached" }
            );
        }
    }

    println!("arcaded listening on {}", handle.local_addr());

    // Wait for a signal or an over-the-wire shutdown command.
    while !STOP.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("arcaded: shutting down");
    handle.shutdown();
    handle.join();
    Ok(())
}

fn parse_count(s: &str, flag: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|_| format!("{flag} must be a non-negative integer, got `{s}`"))
}

fn usage() -> String {
    "usage: arcaded [--addr HOST:PORT (default 127.0.0.1:7171)] \
     [--workers N (0 = auto)] [--threads N (aggregation and sweep fan-out, 0 = auto)] \
     [--idle-timeout-secs S] [--max-line-bytes N] \
     [--max-states N (0 = unlimited)] [--chaos SPEC (testing only)] \
     [--preload MODEL]..."
        .to_owned()
}
