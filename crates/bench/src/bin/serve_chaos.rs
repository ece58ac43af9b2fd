//! `serve_chaos` — fault-injection harness for the in-process `arcaded`
//! server: proves the containment contract of [`arcade::serve`] holds
//! under every injected fault class.
//!
//! ```text
//! serve_chaos [--smoke] [--seed N] [--iters N]
//! ```
//!
//! Boots one server on a loopback ephemeral port, then walks the fault
//! classes with chaos failpoints armed one at a time (see
//! [`arcade::chaos`]):
//!
//! * **A — registry build panic** (`serve.build=panic`): concurrent cold
//!   clients race the same unbuilt model; every client gets an answer
//!   (no hang), at least one sees a typed `internal_panic`, and a retry
//!   rebuilds and succeeds.
//! * **B — aggregation panic** (`session.agg=panic`): a panic inside the
//!   session's build pipeline answers `internal_panic` and clears the
//!   cell; [`Client::expect_ok_retry`] succeeds on the rebuild.
//! * **C — deadline under a slow solve** (`session.solve=delay` +
//!   `timeout_ms`): the injected delay cooperatively observes the
//!   request budget, so the structured `deadline` error lands well
//!   within 2× the requested deadline and the worker is freed; the same
//!   query succeeds once the chaos is disarmed.
//! * **D — torn write** (`serve.respond=torn`): the client sees a
//!   retryable transport error, reconnects, and the retry succeeds.
//! * **E — compute budget** (per-request `max_states` on a cold model):
//!   aggregation trips the state ceiling, answers a structured `budget`
//!   error, does *not* cache the half-built artifact, and an
//!   unrestricted retry builds the model fully.
//! * **F — stiff load** (no fault): the first model drawn by
//!   `tests/proptest_laws.rs::measures_are_probabilities` (seed 6000), a
//!   16-state chain whose no-repair reliability took millions of DTMC
//!   steps under uniformization, is `load`-ed over the wire and its two
//!   reliabilities must answer inside `timeout_ms: 250`; then
//!   `session.shard=panic` must still fire on a solve the cost model
//!   sends to the dense transient kernel, and heal.
//!
//! Afterwards: the `stats` containment counters (`panics_caught`,
//! `deadline_aborts`, `budget_aborts`, `retries`) must all have moved,
//! the daemon must still answer `ping`, and a warm answer must be
//! **bitwise identical** to a direct in-process [`Session`] evaluation —
//! recovery restores full correctness, not just liveness.
//!
//! With `--seed N` a **seeded randomized walk** follows the fixed one:
//! each iteration draws a failpoint and a fault class (panic, or a delay
//! raced against a request deadline) and a driving request that provably
//! reaches the armed point — a transient solve for `session.shard`, a
//! parametric sweep over `dds_parametric` for `session.sweep_point`, a
//! freshly generated and `load`-ed model (via [`arcade::fuzz`]) for the
//! cold-build-only `session.agg`. The first four iterations
//! deterministically cover the two in-solver failpoints
//! (`session.shard`, `session.sweep_point`) under both fault classes,
//! whatever the seed. Every iteration asserts the containment contract:
//! the structured error code matches the injected fault, the daemon
//! still answers `ping`, the poisoned cell heals (a disarmed retry
//! succeeds), and the matching containment counter moved. The walk ends
//! with the same bitwise warm-vs-direct check as the fixed phases.
//!
//! Exits non-zero (panics) on the first violated expectation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use smallrand::SmallRng;

use arcade::build::observer::DOWN_BIT;
use arcade::chaos::{self, Action};
use arcade::fuzz::{gen_system, GenConfig};
use arcade::printer::to_arcade_text;
use arcade::query::Session;
use arcade::serve::{expand_measures, serve, Client, Json, ServerConfig};
use ctmc::transient::{select_kernel, TransientKernel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed: Option<u64> = None;
    let mut iters: u64 = 12;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs a non-negative integer"),
                )
            }
            "--iters" => {
                iters = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--iters needs a non-negative integer")
            }
            other => {
                eprintln!("unknown flag `{other}`");
                eprintln!("usage: serve_chaos [--smoke] [--seed N] [--iters N]");
                std::process::exit(2);
            }
        }
    }
    let cold_clients = if smoke { 4 } else { 8 };

    // Start from a clean slate whatever the environment says: this
    // harness arms its own failpoints, one phase at a time.
    chaos::disarm_all();

    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let handle = serve(config).expect("start in-process server");
    let addr = handle.local_addr().to_string();
    println!("serve_chaos: in-process server on {addr} ({cold_clients} cold clients)");

    let mut probe = Client::connect(&addr).expect("connect");

    // ---- Phase A: registry build panic with concurrent cold clients -----
    let dds_query = Json::obj([
        ("model", Json::str("dds")),
        (
            "measures",
            Json::Arr(vec![
                Json::str("steady_state_unavailability"),
                Json::str("mttf"),
                Json::str("unavailability"),
            ]),
        ),
        (
            "times",
            Json::Arr(vec![Json::Num(10.0), Json::Num(100.0), Json::Num(1000.0)]),
        ),
    ]);
    chaos::arm("serve.build", Action::Panic, Some(1));
    let barrier = Barrier::new(cold_clients);
    let ok = AtomicU64::new(0);
    let panicked = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..cold_clients {
            s.spawn(|| {
                let mut client = Client::connect(&addr).expect("connect");
                barrier.wait();
                match client.expect_ok(&dds_query) {
                    Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                    Err(e) => {
                        assert_eq!(
                            e.code, "internal_panic",
                            "cold client saw `{}` instead of internal_panic: {e}",
                            e.code
                        );
                        panicked.fetch_add(1, Ordering::Relaxed)
                    }
                };
            });
        }
    });
    let (ok, panicked) = (ok.into_inner(), panicked.into_inner());
    println!(
        "phase A (serve.build panic, {cold_clients} cold clients): \
         {panicked} internal_panic, {ok} succeeded"
    );
    assert_eq!(
        ok + panicked,
        cold_clients as u64,
        "a cold client hung instead of getting an answer"
    );
    assert!(
        panicked >= 1,
        "injected build panic never surfaced as internal_panic"
    );
    // The panic cleared the cell: a retried request rebuilds and succeeds.
    let recovered = probe
        .expect_ok_retry(&dds_query, 5)
        .expect("retry after build panic rebuilds the session");
    let recovered_values = Client::values(&recovered).expect("values");
    assert_eq!(
        recovered_values.len(),
        5,
        "2 timeless + 1 timed kind x 3 times"
    );
    probe.ping().expect("daemon alive after phase A");

    // ---- Phase B: aggregation panic inside the session ------------------
    let agg_query = Json::obj([
        ("model", Json::str("dds_scaled(2)")),
        (
            "measures",
            Json::Arr(vec![Json::str("steady_state_unavailability")]),
        ),
    ]);
    chaos::arm("session.agg", Action::Panic, Some(1));
    let e = probe
        .expect_ok(&agg_query)
        .expect_err("injected aggregation panic must answer an error");
    assert_eq!(e.code, "internal_panic", "{e}");
    let rebuilt = probe
        .expect_ok_retry(&agg_query, 5)
        .expect("retry after aggregation panic rebuilds");
    let rebuilt_values = Client::values(&rebuilt).expect("values");
    println!("phase B (session.agg panic): internal_panic, then rebuilt ok");
    probe.ping().expect("daemon alive after phase B");

    // ---- Phase C: deadline trips a chaos-delayed solve ------------------
    let timeout_ms: u64 = 200;
    chaos::arm("session.solve", Action::Delay(10 * timeout_ms), Some(1));
    let slow_query = Json::obj([
        ("model", Json::str("dds_scaled(2)")),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("kind", Json::str("unavailability")),
                ("t", Json::Num(250.0)),
            ])]),
        ),
        ("timeout_ms", Json::Num(timeout_ms as f64)),
    ]);
    let t0 = Instant::now();
    let e = probe
        .expect_ok(&slow_query)
        .expect_err("deadline must trip under the injected solver delay");
    let elapsed = t0.elapsed();
    assert_eq!(e.code, "deadline", "{e}");
    assert!(
        elapsed < Duration::from_millis(2 * timeout_ms) + Duration::from_millis(100),
        "deadline answered only after {elapsed:?} for a {timeout_ms} ms budget"
    );
    println!(
        "phase C (session.solve delay + timeout_ms {timeout_ms}): \
         deadline error in {elapsed:?}"
    );
    chaos::disarm_all();
    // The half-solved artifact was not cached: the same query without a
    // deadline now solves fully.
    let solved = probe
        .expect_ok(&Json::obj([
            ("model", Json::str("dds_scaled(2)")),
            (
                "measures",
                Json::Arr(vec![Json::obj([
                    ("kind", Json::str("unavailability")),
                    ("t", Json::Num(250.0)),
                ])]),
            ),
        ]))
        .expect("query succeeds once the delay is disarmed");
    assert_eq!(Client::values(&solved).expect("values").len(), 1);
    probe.ping().expect("daemon alive after phase C");

    // ---- Phase D: torn write, client-side reconnect ---------------------
    chaos::arm("serve.respond", Action::Torn, Some(1));
    let e = probe
        .roundtrip(&agg_query)
        .map(|v| panic!("torn write still produced a full response: {v}"))
        .expect_err("torn response must be a transport error");
    assert_eq!(
        e.code, "io",
        "torn write must classify as retryable io: {e}"
    );
    assert!(Client::is_retryable(&e), "io must be retryable");
    let retried = probe
        .expect_ok_retry(&agg_query, 5)
        .expect("retry reconnects after the torn write");
    assert_eq!(
        Client::values(&retried).expect("values"),
        rebuilt_values,
        "post-torn warm answer drifted"
    );
    println!("phase D (serve.respond torn): io error, reconnect + retry ok");
    chaos::disarm_all();

    // ---- Phase E: compute budget caps a cold aggregation ----------------
    let budget_model = "dds_scaled(3)";
    let e = probe
        .expect_ok(&Json::obj([
            ("model", Json::str(budget_model)),
            (
                "measures",
                Json::Arr(vec![Json::str("steady_state_unavailability")]),
            ),
            ("max_states", Json::Num(4.0)),
        ]))
        .expect_err("a 4-state ceiling must trip on a combinatorial model");
    assert_eq!(e.code, "budget", "{e}");
    // Nothing half-built was cached: the unrestricted retry builds fully.
    let full = probe
        .expect_ok(&Json::obj([
            ("model", Json::str(budget_model)),
            (
                "measures",
                Json::Arr(vec![Json::str("steady_state_unavailability")]),
            ),
        ]))
        .expect("unrestricted query builds the model fully");
    assert_eq!(Client::values(&full).expect("values").len(), 1);
    println!("phase E (max_states 4 on {budget_model}): budget error, then full build ok");
    probe.ping().expect("daemon alive after phase E");

    stiff_load(&mut probe);

    // ---- Containment counters must all have moved -----------------------
    let stats = probe.stats().expect("stats");
    let server = stats.get("server").expect("server section");
    let counter = |name: &str| {
        server
            .get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("stats missing {name}"))
    };
    assert!(counter("panics_caught") >= 2.0, "panics_caught never moved");
    assert!(
        counter("deadline_aborts") >= 1.0,
        "deadline_aborts never moved"
    );
    assert!(counter("budget_aborts") >= 1.0, "budget_aborts never moved");
    assert!(counter("retries") >= 1.0, "retries never moved");
    println!(
        "counters: panics_caught {}, deadline_aborts {}, budget_aborts {}, retries {}",
        counter("panics_caught"),
        counter("deadline_aborts"),
        counter("budget_aborts"),
        counter("retries"),
    );

    // ---- Post-recovery warm answers are bitwise identical ---------------
    let warm = probe.expect_ok(&dds_query).expect("warm query");
    assert_eq!(
        warm.get("cold"),
        Some(&Json::Bool(false)),
        "dds must be warm after recovery"
    );
    let warm_values = Client::values(&warm).expect("values");
    assert_eq!(
        warm_values, recovered_values,
        "warm answer drifted across the chaos run"
    );
    let measures = expand_measures(&dds_query).expect("expand the chaos batch");
    let def = arcade::cases::dds();
    let direct = Session::new(&def)
        .expect("direct session")
        .evaluate(&measures)
        .expect("direct evaluate");
    assert_eq!(direct.len(), warm_values.len());
    for (i, (a, b)) in direct.iter().zip(&warm_values).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "measure {i}: post-recovery served value {b:e} is not bitwise \
             identical to direct {a:e}"
        );
    }
    println!(
        "recovery: {} warm values bitwise identical to direct evaluation",
        direct.len()
    );

    // ---- Seeded randomized walk (opt-in via --seed) ---------------------
    if let Some(seed) = seed {
        run_seeded(&addr, &mut probe, seed, iters);
    }

    handle.shutdown();
    handle.join();
    println!("serve_chaos: OK");
}

/// Phase F: the seed-6000 draw of `measures_are_probabilities` — the
/// first model that test generates, with its horizon `t` — answers
/// `Reliability(t)` and `Reliability(2t)` over the wire inside a 250 ms
/// deadline, and the `session.shard` failpoint still fires on a solve
/// of that model the cost model sends to the dense kernel. Both solves
/// must show dense work in the session counters of their responses:
/// sweeps, and no DTMC steps.
fn stiff_load(probe: &mut Client) {
    let mut rng = SmallRng::seed_from_u64(6000);
    let def = gen_system(&mut rng, &GenConfig::independent());
    let t = f64::from(rng.range_u32(1, 100));
    probe
        .expect_ok(&Json::obj([
            ("cmd", Json::str("load")),
            ("name", Json::str("stiff6000")),
            ("source", Json::str(to_arcade_text(&def))),
        ]))
        .expect("load the stiff draw");
    let reliability = |times: &[f64], timeout_ms: Option<u64>| {
        let measures = times
            .iter()
            .map(|&t| Json::obj([("kind", Json::str("reliability")), ("t", Json::Num(t))]))
            .collect();
        let mut fields = vec![
            ("model", Json::str("stiff6000")),
            ("measures", Json::Arr(measures)),
        ];
        if let Some(ms) = timeout_ms {
            fields.push(("timeout_ms", Json::Num(ms as f64)));
        }
        Json::obj(fields)
    };
    // The kernel each solve should run on, from the same pure selection
    // the grid solver uses, and the work it did, from the session
    // counters every query response carries: a dense segment is one
    // sweep with no DTMC steps.
    let work = |response: &Json| {
        let counter = |name: &str| {
            response
                .get("session")
                .and_then(|s| s.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("query response missing session.{name}"))
        };
        (counter("sweeps"), counter("dtmc_steps"))
    };
    let session = Session::new(&def).expect("the stiff draw elaborates");
    let chain = &session
        .reliability_model()
        .expect("the stiff draw aggregates")
        .ctmc;
    let first_passage = chain.make_absorbing(chain.states_with_label(DOWN_BIT));
    let kernel = |times: &[f64]| select_kernel(&first_passage, times, &Default::default());

    let timeout_ms: u64 = 250;
    let t0 = Instant::now();
    let answered = probe
        .expect_ok(&reliability(&[t, 2.0 * t], Some(timeout_ms)))
        .unwrap_or_else(|e| {
            panic!("stiff reliabilities missed their {timeout_ms} ms deadline: {e}")
        });
    let elapsed = t0.elapsed();
    let (sweeps, steps) = work(&answered);
    assert!(
        sweeps > 0.0 && steps == 0.0,
        "the stiff reliabilities did not run on the dense kernel \
         ({sweeps} sweeps, {steps} DTMC steps)"
    );
    let values = Client::values(&answered).expect("values");
    assert_eq!(values.len(), 2);
    assert!(
        values.iter().all(|r| (0.0..=1.0).contains(r)) && values[1] <= values[0] + 1e-12,
        "stiff reliabilities are not a non-increasing pair of probabilities: {values:?}"
    );
    println!(
        "phase F (stiff load, {} states): Reliability({t}) and Reliability({}) answered in \
         {elapsed:?} under timeout_ms {timeout_ms} on the {} kernel",
        first_passage.num_states(),
        2.0 * t,
        kernel(&[t, 2.0 * t]).name()
    );

    // A fresh time point, so the armed solve cannot come from a memo.
    let shard_query = reliability(&[3.0 * t], None);
    assert_eq!(
        kernel(&[3.0 * t]),
        TransientKernel::Dense,
        "the session.shard check needs a dense-kernel solve"
    );
    chaos::arm("session.shard", Action::Panic, Some(1));
    let e = probe
        .expect_ok(&shard_query)
        .expect_err("session.shard must fire on the dense kernel");
    assert_eq!(e.code, "internal_panic", "{e}");
    chaos::disarm_all();
    let healed = probe
        .expect_ok_retry(&shard_query, 5)
        .expect("the dense solve heals once disarmed");
    let (healed_sweeps, healed_steps) = work(&healed);
    assert!(
        healed_sweeps > sweeps && healed_steps == 0.0,
        "the healed session.shard solve did not run on the dense kernel \
         ({healed_sweeps} sweeps after {sweeps}, {healed_steps} DTMC steps)"
    );
    println!("phase F: session.shard panic fired on a dense-kernel solve, then healed");
    probe.ping().expect("daemon alive after phase F");
}

/// Which fault class an iteration injects at its chosen failpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// `panic` at the point; the request must answer `internal_panic`.
    Panic,
    /// A long `delay` at the point raced against a short request
    /// deadline; the request must answer `deadline` promptly.
    Deadline,
}

/// A query on the warm `dds` model whose transient solve reaches
/// `session.shard` and `session.solve`. The time point varies per
/// iteration so no layer can serve a memoized answer instead of solving.
fn timed_query(t: f64, timeout_ms: Option<u64>) -> Json {
    let mut fields = vec![
        ("model", Json::str("dds")),
        (
            "measures",
            Json::Arr(vec![Json::obj([
                ("kind", Json::str("unavailability")),
                ("t", Json::Num(t)),
            ])]),
        ),
    ];
    if let Some(ms) = timeout_ms {
        fields.push(("timeout_ms", Json::Num(ms as f64)));
    }
    Json::obj(fields)
}

/// A two-point parametric sweep over `dds_parametric` that reaches
/// `session.sweep_point`. The grid values vary per iteration.
fn sweep_request(i: u64, timeout_ms: Option<u64>) -> Json {
    let v0 = arcade::cases::dds::DISK_RATE * (1.0 + 0.01 * i as f64);
    let mut fields = vec![
        ("cmd", Json::str("sweep")),
        ("model", Json::str("dds_parametric")),
        (
            "measures",
            Json::Arr(vec![Json::str("steady_state_unavailability")]),
        ),
        (
            "params",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("disk_rate")),
                (
                    "values",
                    Json::Arr(vec![Json::Num(v0), Json::Num(v0 * 1.05)]),
                ),
            ])]),
        ),
    ];
    if let Some(ms) = timeout_ms {
        fields.push(("timeout_ms", Json::Num(ms as f64)));
    }
    Json::obj(fields)
}

fn read_counter(probe: &mut Client, name: &str) -> f64 {
    let stats = probe.stats().expect("stats");
    stats
        .get("server")
        .and_then(|s| s.get(name))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("stats missing {name}"))
}

fn run_seeded(addr: &str, probe: &mut Client, seed: u64, iters: u64) {
    println!("seeded chaos: seed {seed}, {iters} iterations");
    let mut rng = SmallRng::seed_from_u64(seed);
    // Deterministic coverage prefix: the two in-solver failpoints under
    // both fault classes, whatever the seed draws afterwards.
    let forced = [
        ("session.shard", Fault::Panic),
        ("session.shard", Fault::Deadline),
        ("session.sweep_point", Fault::Panic),
        ("session.sweep_point", Fault::Deadline),
    ];
    let points = [
        "session.shard",
        "session.sweep_point",
        "session.solve",
        "session.agg",
    ];
    let timeout_ms: u64 = 200;

    for i in 0..iters {
        let (point, fault) = if (i as usize) < forced.len() {
            forced[i as usize]
        } else {
            let p = points[rng.range_usize(0, points.len())];
            let f = if rng.flip() {
                Fault::Panic
            } else {
                Fault::Deadline
            };
            (p, f)
        };

        // Build the driving request for this point. `session.agg` only
        // runs on a cold build, so it gets a freshly generated model
        // loaded under a unique name; the in-solver points run against
        // warm models with per-iteration time points / grid values.
        let fault_request = match point {
            "session.sweep_point" => sweep_request(
                i,
                match fault {
                    Fault::Panic => None,
                    Fault::Deadline => Some(timeout_ms),
                },
            ),
            "session.agg" => {
                // Draw from the oracle-safe profile until the model
                // analyzes locally: the syntax profile admits models the
                // engine legitimately rejects (e.g. not weakly
                // deterministic), which would make the heal check fail
                // for a reason that has nothing to do with containment.
                let cfg = GenConfig::engine();
                let def = loop {
                    let candidate = gen_system(&mut rng, &cfg);
                    if Session::new(&candidate)
                        .and_then(|s| {
                            s.evaluate(&[arcade::query::Measure::SteadyStateUnavailability])
                        })
                        .is_ok()
                    {
                        break candidate;
                    }
                };
                let name = format!("chaos_gen_{i}");
                probe
                    .expect_ok(&Json::obj([
                        ("cmd", Json::str("load")),
                        ("name", Json::str(name.clone())),
                        ("source", Json::str(to_arcade_text(&def))),
                    ]))
                    .expect("load generated model");
                let mut fields = vec![
                    ("model", Json::str(name)),
                    (
                        "measures",
                        Json::Arr(vec![Json::str("steady_state_unavailability")]),
                    ),
                ];
                if fault == Fault::Deadline {
                    fields.push(("timeout_ms", Json::Num(timeout_ms as f64)));
                }
                Json::obj(fields)
            }
            _ => timed_query(
                61.0 + i as f64,
                match fault {
                    Fault::Panic => None,
                    Fault::Deadline => Some(timeout_ms),
                },
            ),
        };
        // The disarmed healing request: same work, no deadline.
        let heal_request = match point {
            "session.sweep_point" => sweep_request(i, None),
            "session.agg" => {
                let mut obj = fault_request.clone();
                if let Json::Obj(fields) = &mut obj {
                    fields.retain(|(k, _)| k != "timeout_ms");
                }
                obj
            }
            _ => timed_query(61.0 + i as f64, None),
        };

        // Warm the target model for the in-solver deadline cases, so the
        // short deadline races the *armed* failpoint, not a cold build.
        // Salted time points / grid values: a prewarm at the fault
        // request's own coordinates would let the session answer the
        // armed request from its memo without reaching the failpoint.
        if fault == Fault::Deadline && point != "session.agg" {
            let prewarm = match point {
                "session.sweep_point" => sweep_request(i + 7919, None),
                _ => timed_query(61.25 + i as f64, None),
            };
            probe
                .expect_ok_retry(&prewarm, 3)
                .unwrap_or_else(|e| panic!("iteration {i}: prewarm failed: {e}"));
        }

        let panics_before = read_counter(probe, "panics_caught");
        let deadlines_before = read_counter(probe, "deadline_aborts");
        match fault {
            Fault::Panic => {
                chaos::arm(point, Action::Panic, Some(1));
                // A single attempt: `internal_panic` is retryable, so a
                // retrying call would sail past the count-1 failpoint.
                let e = probe
                    .expect_ok(&fault_request)
                    .map(|_| panic!("iteration {i}: injected panic at {point} never surfaced"))
                    .unwrap_err();
                assert_eq!(
                    e.code, "internal_panic",
                    "iteration {i}: {point} panic answered `{}`: {e}",
                    e.code
                );
                chaos::disarm_all();
                let after = read_counter(probe, "panics_caught");
                assert!(
                    after > panics_before,
                    "iteration {i}: panics_caught stuck at {after}"
                );
            }
            Fault::Deadline => {
                chaos::arm(point, Action::Delay(10 * timeout_ms), Some(1));
                let t0 = Instant::now();
                let e = probe
                    .expect_ok(&fault_request)
                    .map(|_| panic!("iteration {i}: delay at {point} never tripped the deadline"))
                    .unwrap_err();
                let elapsed = t0.elapsed();
                assert_eq!(
                    e.code, "deadline",
                    "iteration {i}: {point} delay answered `{}`: {e}",
                    e.code
                );
                assert!(
                    elapsed < Duration::from_millis(2 * timeout_ms) + Duration::from_millis(200),
                    "iteration {i}: deadline answered only after {elapsed:?}"
                );
                chaos::disarm_all();
                let after = read_counter(probe, "deadline_aborts");
                assert!(
                    after > deadlines_before,
                    "iteration {i}: deadline_aborts stuck at {after}"
                );
            }
        }

        // Containment: the daemon still answers, and the cell heals — the
        // same work succeeds with chaos disarmed.
        probe
            .ping()
            .unwrap_or_else(|e| panic!("iteration {i}: daemon dead after {point}: {e}"));
        probe
            .expect_ok_retry(&heal_request, 5)
            .unwrap_or_else(|e| panic!("iteration {i}: {point} cell never healed: {e}"));
        println!("  iteration {i}: {point} {fault:?} contained, healed");
    }

    // Post-walk recovery is full correctness, not just liveness: a warm
    // answer is bitwise identical to a direct in-process evaluation.
    let check_query = timed_query(42.0, None);
    let warm = probe.expect_ok(&check_query).expect("post-walk warm query");
    let warm_values = Client::values(&warm).expect("values");
    let measures = expand_measures(&check_query).expect("expand");
    let direct = Session::new(&arcade::cases::dds())
        .expect("direct session")
        .evaluate(&measures)
        .expect("direct evaluate");
    assert_eq!(direct.len(), warm_values.len());
    for (k, (a, b)) in direct.iter().zip(&warm_values).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "measure {k}: post-seeded-walk value {b:e} vs direct {a:e}"
        );
    }
    let _ = addr;
    println!("seeded chaos: {iters} iterations contained, warm answers bitwise identical");
}
