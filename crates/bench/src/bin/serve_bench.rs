//! `serve_bench` — load-tests an **in-process** `arcaded` server and
//! writes `BENCH_serve.json`.
//!
//! ```text
//! serve_bench [--smoke] [--threads N] [--workers N]
//! ```
//!
//! Four phases, all against one server started on a loopback ephemeral
//! port inside this process (no daemon management, no port races):
//!
//! 1. **Cold + dedup** — 8 clients synchronize on a barrier and fire the
//!    *same* query at a cold `rcs_scaled(2)` (83 808 states, ~seconds of
//!    compositional aggregation). Exactly one request may run the
//!    aggregation; the others must block on the in-flight build. Gated:
//!    `builders == 1`, `waiters >= 1`, `aggregations_built == 1`.
//! 2. **Warm** — the same query repeated against the now-warm session.
//!    Gated: the cold wall time must be ≥ 50× the median warm wall time
//!    (the whole point of a resident server).
//! 3. **Throughput** — 4 clients hammer mixed warm queries (DDS + RCS,
//!    different measure batches); reports requests/s and client-side
//!    p50/p99.
//! 4. **Robustness** — a chaos failpoint delays one cold build
//!    (`session.agg`) while a second client measures warm-query latency
//!    the whole time the delayed build is in flight. Gated: the delay
//!    demonstrably fired, and the warm p50 stays far below the injected
//!    delay — a stuck build must not block warm traffic.
//!
//! `--smoke` shrinks phase 3 (CI wall clock); the other phases always
//! run in full because they carry the gates. The report is written
//! atomically — a crashed run never leaves a truncated
//! `BENCH_serve.json`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use arcade::serve::{serve, Client, Json, ServerConfig};
use arcade_bench::write_atomic;

/// Version of the `BENCH_serve.json` report layout (independent of the
/// wire protocol's version). v2 added the `robustness` section and the
/// containment counters inside `server`.
const BENCH_SCHEMA_VERSION: u32 = 2;

/// One client-side request timing in microseconds.
fn us(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    // Benchmarks must measure the real server: refuse to run if the
    // environment (e.g. ARCADE_CHAOS) armed any chaos failpoint.
    assert!(
        !arcade::chaos::enabled(),
        "serve_bench refuses to run with chaos failpoints armed; \
         unset ARCADE_CHAOS"
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse::<usize>()
                    .unwrap_or_else(|_| panic!("{name} must be an integer"))
            })
    };
    let threads = flag("--threads").unwrap_or(0);
    let workers = flag("--workers").unwrap_or(8);

    let mut config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    config.engine.threads = threads;
    let handle = serve(config).expect("start in-process server");
    let addr = handle.local_addr().to_string();
    println!("serve_bench: in-process server on {addr} (workers {workers}, threads {threads})");

    // ---- Phase 1: cold + dedup ------------------------------------------
    const COLD_CLIENTS: usize = 8;
    let query = Json::obj([
        ("model", Json::str("rcs_scaled(2)")),
        (
            "measures",
            Json::Arr(vec![Json::str("steady_state_unavailability")]),
        ),
    ]);
    let barrier = Barrier::new(COLD_CLIENTS);
    let builders = AtomicU64::new(0);
    let waiters = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    let cold_us = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..COLD_CLIENTS {
            s.spawn(|| {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                let t0 = Instant::now();
                let response = client.expect_ok(&query).expect("cold query succeeds");
                let wall = us(t0);
                let trace = response.get("trace").expect("query reports a trace");
                let built = trace.get("built").and_then(Json::as_f64).unwrap_or(0.0);
                let waited = trace.get("waited").and_then(Json::as_f64).unwrap_or(0.0);
                if built > 0.0 {
                    builders.fetch_add(1, Ordering::Relaxed);
                    cold_us.store(wall, Ordering::Relaxed);
                } else if waited > 0.0 {
                    waiters.fetch_add(1, Ordering::Relaxed);
                } else {
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let cold_wall_secs = started.elapsed().as_secs_f64();
    let (builders, waiters, hits) = (
        builders.into_inner(),
        waiters.into_inner(),
        hits.into_inner(),
    );
    let cold_us = cold_us.into_inner();
    println!(
        "phase 1 (cold, {COLD_CLIENTS} concurrent clients): {builders} built, \
         {waiters} waited on the in-flight build, {hits} warm — {cold_wall_secs:.2} s"
    );
    assert_eq!(
        builders, 1,
        "dedup violated: {builders} of {COLD_CLIENTS} concurrent cold queries ran the build"
    );
    assert!(
        waiters >= 1,
        "dedup not demonstrated: no query blocked on the in-flight build"
    );

    // The session must report exactly one aggregation after all that.
    let mut probe = Client::connect(&addr).expect("connect");
    let stats = probe.stats().expect("stats");
    let aggs = stats
        .get("models")
        .and_then(Json::as_arr)
        .and_then(|ms| ms.first())
        .and_then(|m| m.get("stats"))
        .and_then(|s| s.get("aggregations_built"))
        .and_then(Json::as_f64)
        .expect("stats report aggregations_built");
    assert_eq!(aggs, 1.0, "expected exactly one aggregation, saw {aggs}");

    // ---- Phase 2: warm repeats ------------------------------------------
    let warm_reps = if smoke { 20 } else { 200 };
    let mut warm: Vec<u64> = Vec::with_capacity(warm_reps);
    let mut warm_values: Option<Vec<f64>> = None;
    for _ in 0..warm_reps {
        let t0 = Instant::now();
        let response = probe.expect_ok(&query).expect("warm query succeeds");
        warm.push(us(t0));
        assert_eq!(
            response.get("cold"),
            Some(&Json::Bool(false)),
            "repeat query must be warm"
        );
        let values = Client::values(&response).expect("values");
        match &warm_values {
            None => warm_values = Some(values),
            // Warm answers are served from the same cached artifacts —
            // bitwise stability across repeats is part of the contract.
            Some(first) => assert_eq!(first, &values, "warm values drifted between repeats"),
        }
    }
    warm.sort_unstable();
    let warm_p50 = quantile(&warm, 0.50);
    let warm_p99 = quantile(&warm, 0.99);
    let ratio = cold_us as f64 / warm_p50.max(1) as f64;
    println!(
        "phase 2 (warm, {warm_reps} reps): p50 {warm_p50} µs, p99 {warm_p99} µs — \
         cold/warm ratio {ratio:.0}x (cold {cold_us} µs)"
    );
    assert!(
        ratio >= 50.0,
        "resident-server speedup gate failed: cold {cold_us} µs is only {ratio:.1}x \
         the warm p50 of {warm_p50} µs (need ≥ 50x)"
    );

    // ---- Phase 3: mixed warm throughput ---------------------------------
    const THROUGHPUT_CLIENTS: usize = 4;
    let per_client = if smoke { 25 } else { 250 };
    let mixed = [
        Json::obj([
            ("model", Json::str("dds")),
            (
                "measures",
                Json::Arr(vec![Json::str("unavailability"), Json::str("mttf")]),
            ),
            (
                "times",
                Json::Arr(vec![Json::Num(10.0), Json::Num(100.0), Json::Num(1000.0)]),
            ),
        ]),
        Json::obj([
            ("model", Json::str("rcs_scaled(2)")),
            (
                "measures",
                Json::Arr(vec![Json::str("steady_state_unavailability")]),
            ),
        ]),
        Json::obj([
            ("model", Json::str("dds")),
            (
                "measures",
                Json::Arr(vec![Json::obj([
                    ("kind", Json::str("reliability")),
                    ("t", Json::Num(500.0)),
                ])]),
            ),
        ]),
    ];
    // Warm every model the mix touches so phase 3 measures routing, not
    // builds.
    for q in &mixed {
        probe.expect_ok(q).expect("warm-up query succeeds");
    }
    let t0 = Instant::now();
    let lat: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THROUGHPUT_CLIENTS)
            .map(|c| {
                let mixed = &mixed;
                let addr = &addr;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let q = &mixed[(c + i) % mixed.len()];
                        let t = Instant::now();
                        client.expect_ok(q).expect("mixed query succeeds");
                        lat.push(us(t));
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let total_secs = t0.elapsed().as_secs_f64();
    let mut lat = lat;
    lat.sort_unstable();
    let n = lat.len();
    let throughput = n as f64 / total_secs;
    let (tp50, tp99) = (quantile(&lat, 0.50), quantile(&lat, 0.99));
    println!(
        "phase 3 (mixed warm, {THROUGHPUT_CLIENTS} clients x {per_client} reqs): \
         {throughput:.0} req/s, p50 {tp50} µs, p99 {tp99} µs"
    );

    // ---- Phase 4: warm latency under a chaos-delayed cold build ---------
    let chaos_delay_ms: u64 = 300;
    arcade::chaos::arm(
        "session.agg",
        arcade::chaos::Action::Delay(chaos_delay_ms),
        Some(1),
    );
    let delayed_query = Json::obj([
        ("model", Json::str("dds_scaled(3)")),
        (
            "measures",
            Json::Arr(vec![Json::str("steady_state_unavailability")]),
        ),
    ]);
    let cold_done = AtomicBool::new(false);
    let (chaos_cold_us, warm_chaos): (u64, Vec<u64>) = std::thread::scope(|s| {
        let cold = s.spawn(|| {
            let mut client = Client::connect(&addr).expect("connect");
            let t0 = Instant::now();
            client
                .expect_ok(&delayed_query)
                .expect("chaos-delayed cold build succeeds");
            let wall = us(t0);
            cold_done.store(true, Ordering::Release);
            wall
        });
        // Hammer warm queries for the entire lifetime of the delayed
        // build — this is the latency a well-behaved client sees while
        // some other request is stuck in a slow aggregation.
        let mut client = Client::connect(&addr).expect("connect");
        let mut lat = Vec::new();
        while !cold_done.load(Ordering::Acquire) || lat.is_empty() {
            let t = Instant::now();
            client
                .expect_ok(&query)
                .expect("warm query under chaos succeeds");
            lat.push(us(t));
        }
        (cold.join().expect("cold client thread"), lat)
    });
    arcade::chaos::disarm_all();
    let mut warm_chaos = warm_chaos;
    warm_chaos.sort_unstable();
    let (wc_p50, wc_p99) = (quantile(&warm_chaos, 0.50), quantile(&warm_chaos, 0.99));
    println!(
        "phase 4 (robustness): cold build delayed {chaos_delay_ms} ms took \
         {chaos_cold_us} µs; {} concurrent warm queries — p50 {wc_p50} µs, p99 {wc_p99} µs",
        warm_chaos.len()
    );
    assert!(
        chaos_cold_us >= chaos_delay_ms * 1000,
        "injected delay did not fire: delayed cold build took only {chaos_cold_us} µs"
    );
    assert!(
        wc_p50 < chaos_delay_ms * 1000,
        "warm queries blocked behind a delayed cold build: p50 {wc_p50} µs \
         vs a {chaos_delay_ms} ms injected delay"
    );

    // ---- Server-side view + report --------------------------------------
    let stats = probe.stats().expect("final stats");
    let server = stats.get("server").expect("server section").clone();
    for counter in [
        "panics_caught",
        "deadline_aborts",
        "budget_aborts",
        "retries",
    ] {
        assert!(
            server.get(counter).is_some(),
            "stats missing robustness counter `{counter}`"
        );
    }
    handle.shutdown();
    handle.join();

    let report = Json::obj([
        ("bench", Json::str("serve")),
        ("schema_version", Json::Num(f64::from(BENCH_SCHEMA_VERSION))),
        ("smoke", Json::Bool(smoke)),
        ("workers", Json::Num(workers as f64)),
        ("engine_threads", Json::Num(threads as f64)),
        (
            "cold",
            Json::obj([
                ("model", Json::str("rcs_scaled(2)")),
                ("clients", Json::Num(COLD_CLIENTS as f64)),
                ("builders", Json::Num(builders as f64)),
                ("dedup_waiters", Json::Num(waiters as f64)),
                ("warm_hits", Json::Num(hits as f64)),
                ("cold_us", Json::Num(cold_us as f64)),
            ]),
        ),
        (
            "warm",
            Json::obj([
                ("reps", Json::Num(warm_reps as f64)),
                ("p50_us", Json::Num(warm_p50 as f64)),
                ("p99_us", Json::Num(warm_p99 as f64)),
                ("cold_over_warm", Json::Num(ratio)),
            ]),
        ),
        (
            "throughput",
            Json::obj([
                ("clients", Json::Num(THROUGHPUT_CLIENTS as f64)),
                ("requests", Json::Num(n as f64)),
                ("secs", Json::Num(total_secs)),
                ("req_per_sec", Json::Num(throughput)),
                ("p50_us", Json::Num(tp50 as f64)),
                ("p99_us", Json::Num(tp99 as f64)),
            ]),
        ),
        (
            "robustness",
            Json::obj([
                ("chaos_delay_ms", Json::Num(chaos_delay_ms as f64)),
                ("delayed_cold_model", Json::str("dds_scaled(3)")),
                ("delayed_cold_us", Json::Num(chaos_cold_us as f64)),
                ("warm_reqs_during_build", Json::Num(warm_chaos.len() as f64)),
                ("warm_p50_us", Json::Num(wc_p50 as f64)),
                ("warm_p99_us", Json::Num(wc_p99 as f64)),
            ]),
        ),
        ("server", server),
    ]);
    let path = "BENCH_serve.json";
    let mut text = report.to_string();
    text.push('\n');
    write_atomic(path, &text).expect("write BENCH_serve.json");
    println!("wrote {path}");
}
