//! Protocol edge cases against a real in-process server: malformed
//! JSON, unknown models, empty measure batches, oversized request lines
//! and clients that disconnect mid-conversation must all produce
//! structured errors (or clean closes) **without wedging the worker
//! pool** — after every abuse, a fresh client must still get answers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use arcade::query::{Measure, Session};
use arcade::serve::{serve, Client, Json, ServerConfig};

/// Starts a small test server (2 workers, tight line cap so the
/// oversized case is cheap) and returns its handle + address.
fn test_server() -> (arcade::serve::ServerHandle, String) {
    let config = ServerConfig {
        workers: 2,
        max_line_bytes: 4096,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let handle = serve(config).expect("start test server");
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

/// One raw request line → one raw response line.
fn raw_roundtrip(addr: &str, line: &[u8]) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line).expect("write");
    stream.write_all(b"\n").expect("newline");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read response");
    Json::parse(response.trim_end()).expect("response is valid JSON")
}

fn error_code(v: &Json) -> &str {
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "expected error: {v}");
    v.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .expect("error has a code")
}

#[test]
fn structured_errors_do_not_wedge_the_pool() {
    let (handle, addr) = test_server();

    // Malformed JSON variants.
    for bad in [
        &b"not json at all"[..],
        b"{\"model\":\"dds\"",
        b"{\"model\":}",
        b"\xff\xfe garbage",
        b"[1,2,3] trailing {",
    ] {
        assert_eq!(error_code(&raw_roundtrip(&addr, bad)), "bad_json");
    }

    // Structurally valid JSON, semantically bad requests.
    assert_eq!(
        error_code(&raw_roundtrip(&addr, b"[1,2,3]")),
        "bad_request",
        "non-object request"
    );
    assert_eq!(
        error_code(&raw_roundtrip(
            &addr,
            br#"{"model":"no_such_model","measures":["mttf"]}"#
        )),
        "unknown_model"
    );
    assert_eq!(
        error_code(&raw_roundtrip(&addr, br#"{"model":"dds","measures":[]}"#)),
        "bad_request",
        "empty measure list"
    );
    assert_eq!(
        error_code(&raw_roundtrip(
            &addr,
            br#"{"model":"dds","measures":["unavailability"]}"#
        )),
        "bad_request",
        "timed measure without times"
    );
    assert_eq!(
        error_code(&raw_roundtrip(&addr, br#"{"cmd":"frobnicate"}"#)),
        "bad_request"
    );
    assert_eq!(
        error_code(&raw_roundtrip(
            &addr,
            br#"{"model":"rcs_scaled(99)","measures":["mttf"]}"#
        )),
        "bad_request",
        "out-of-range family size"
    );

    // Oversized line: structured error, then the server closes that
    // connection.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let big = vec![b'x'; 5000];
        stream.write_all(&big).expect("write oversized");
        stream.write_all(b"\n").expect("newline");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        let v = Json::parse(response.trim_end()).expect("response parses");
        assert_eq!(error_code(&v), "oversized");
        // ...and the connection is closed afterwards (EOF).
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("eof read"), 0);
    }

    // Clients that vanish mid-conversation, in every rude way available.
    {
        // Connect and say nothing, then drop.
        drop(TcpStream::connect(&addr).expect("connect"));
        // Half a line, no newline, then drop.
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(b"{\"model\":\"dds\"").expect("write");
        drop(stream);
        // A full request, dropped without reading the response.
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(b"{\"model\":\"dds\",\"measures\":[\"mttf\"]}\n")
            .expect("write");
        drop(stream);
    }

    // After all of the above, with only 2 workers, real clients must
    // still be served promptly — errors and disconnects released their
    // workers.
    for _ in 0..3 {
        let mut client = Client::connect(&addr).expect("connect");
        client.ping().expect("pool still serving");
        let response = client
            .query(
                "dds",
                Json::Arr(vec![Json::str("steady_state_unavailability")]),
                None,
            )
            .expect("query still works");
        let values = Client::values(&response).expect("values");
        assert_eq!(values.len(), 1);
        assert!(values[0] > 0.0 && values[0] < 1e-3, "{values:?}");
    }

    // Error responses never pollute the cache counters' invariants: the
    // stats endpoint still answers and reports the error traffic.
    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    let server = stats.get("server").expect("server section");
    let errors = server.get("errors").and_then(Json::as_f64).expect("errors");
    assert!(
        errors >= 12.0,
        "all abuse above must be counted, saw {errors}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn sweep_wire_command_roundtrips() {
    let (handle, addr) = test_server();

    // A 2×2 cartesian sweep over two of the three declared parameters.
    let request = br#"{"cmd":"sweep","model":"dds_scaled_parametric(1)","measures":["steady_state_unavailability","mttf"],"params":[{"name":"proc_rate","values":[0.0005,0.001]},{"name":"repair_rate","values":[1.0,2.0]}]}"#;
    let v = raw_roundtrip(&addr, request);
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{v}");
    assert_eq!(v.get("cold"), Some(&Json::Bool(true)), "first sweep builds");
    let names: Vec<&str> = v
        .get("params")
        .and_then(Json::as_arr)
        .expect("params")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(names, ["proc_rate", "repair_rate"]);
    let points = v.get("points").and_then(Json::as_arr).expect("points");
    let values = v.get("values").and_then(Json::as_arr).expect("values");
    assert_eq!(points.len(), 4, "2x2 grid");
    assert_eq!(values.len(), 4);
    for row in values {
        let row = row.as_arr().expect("value row");
        assert_eq!(row.len(), 2, "one value per measure");
        let unavail = row[0].as_f64().expect("finite unavailability");
        assert!(unavail > 0.0 && unavail < 1e-2, "{row:?}");
    }
    // sensitivities[point][measure][param]: central differences exist on
    // a 2-value axis only at its edges (one-sided), never `null` here.
    let sens = v
        .get("sensitivities")
        .and_then(Json::as_arr)
        .expect("sensitivities");
    assert_eq!(sens.len(), 4);
    for per_point in sens {
        let per_point = per_point.as_arr().expect("per-point");
        assert_eq!(per_point.len(), 2, "one row per measure");
        for per_measure in per_point {
            let per_measure = per_measure.as_arr().expect("per-measure");
            assert_eq!(per_measure.len(), 2, "one slope per swept param");
        }
    }
    // Both measures live on the availability configuration: the server
    // session aggregated exactly once for the whole grid.
    let session = v.get("session").expect("session stats");
    assert_eq!(
        session.get("aggregations_built").and_then(Json::as_f64),
        Some(1.0),
        "{session}"
    );
    assert!(
        session
            .get("poisson_evictions")
            .and_then(Json::as_f64)
            .is_some(),
        "stats expose the cache eviction counter: {session}"
    );

    // Same model again: served warm from the session cache.
    let warm = raw_roundtrip(&addr, request);
    assert_eq!(warm.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(warm.get("cold"), Some(&Json::Bool(false)), "{warm}");
    assert_eq!(warm.get("values"), v.get("values"), "warm sweep identical");

    // Malformed grids: unknown parameter name and mixed axis styles.
    assert_eq!(
        error_code(&raw_roundtrip(
            &addr,
            br#"{"cmd":"sweep","model":"dds_scaled_parametric(1)","measures":["mttf"],"params":[{"name":"no_such_rate","values":[1.0]}]}"#
        )),
        "model_error"
    );
    assert_eq!(
        error_code(&raw_roundtrip(
            &addr,
            br#"{"cmd":"sweep","model":"dds_scaled_parametric(1)","measures":["mttf"],"params":[{"name":"proc_rate","values":[0.001]},"repair_rate"]}"#
        )),
        "bad_request"
    );
    // Sweeping a non-parametric model is a model-level error, not a hang.
    assert_eq!(
        error_code(&raw_roundtrip(
            &addr,
            br#"{"cmd":"sweep","model":"dds","measures":["mttf"],"params":[{"name":"proc_rate","values":[0.001]}]}"#
        )),
        "model_error"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn timeout_ms_answers_deadline_and_frees_the_worker() {
    let (handle, addr) = test_server();

    // A 1 ms deadline on a combinatorial cold build: the aggregation's
    // cooperative checkpoints must trip it long before the build would
    // finish, and the structured answer must come back promptly.
    let request =
        br#"{"model":"dds_scaled(3)","measures":["steady_state_unavailability"],"timeout_ms":1}"#;
    let t0 = std::time::Instant::now();
    let v = raw_roundtrip(&addr, request);
    let elapsed = t0.elapsed();
    assert_eq!(error_code(&v), "deadline", "{v}");
    assert!(
        elapsed < Duration::from_secs(2),
        "deadline answer took {elapsed:?}"
    );

    // The aborted request freed its worker (2-worker pool) and did not
    // cache the half-built aggregation: an un-budgeted retry succeeds.
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("worker freed after deadline abort");
    let response = client
        .query(
            "dds_scaled(3)",
            Json::Arr(vec![Json::str("steady_state_unavailability")]),
            None,
        )
        .expect("un-budgeted retry builds fully");
    assert_eq!(Client::values(&response).expect("values").len(), 1);

    // The abort is visible in the containment counters.
    let stats = client.stats().expect("stats");
    let aborts = stats
        .get("server")
        .and_then(|s| s.get("deadline_aborts"))
        .and_then(Json::as_f64)
        .expect("deadline_aborts counter");
    assert!(aborts >= 1.0, "deadline abort not counted");

    handle.shutdown();
    handle.join();
}

/// A sweep grid above the point cap answers `model_error`, and the daemon
/// keeps serving: a 3 × 10,000 cartesian grid (10^12 points) fits one
/// request line under the default 1 MiB cap, and reserving its rows used
/// to abort the whole process.
#[test]
fn oversized_sweep_grid_answers_model_error_and_the_daemon_keeps_serving() {
    let config = ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let handle = serve(config).expect("start test server");
    let addr = handle.local_addr().to_string();
    let values: Vec<String> = (1..=10_000).map(|i| format!("{i}e-6")).collect();
    let axes: Vec<String> = ["proc_rate", "disk_rate", "repair_rate"]
        .iter()
        .map(|name| format!(r#"{{"name":"{name}","values":[{}]}}"#, values.join(",")))
        .collect();
    let line = format!(
        r#"{{"cmd":"sweep","model":"dds_scaled_parametric(2)","measures":["mttf"],"params":[{}]}}"#,
        axes.join(",")
    );
    let v = raw_roundtrip(&addr, line.as_bytes());
    assert_eq!(error_code(&v), "model_error", "{v}");
    let message = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .expect("error message");
    assert!(message.contains("1000000000000 points"), "{message}");
    let ok = raw_roundtrip(
        &addr,
        br#"{"model":"dds","measures":["unavailability"],"times":[1]}"#,
    );
    assert_eq!(ok.get("ok"), Some(&Json::Bool(true)), "{ok}");
    handle.shutdown();
    handle.join();
}

/// A huge horizon is advanced in capped uniformization sub-segments:
/// DDS point unavailability at t = 1e12 under a 1 s deadline answers the
/// steady state instead of expanding gigabytes of Poisson weights and
/// tripping the deadline.
#[test]
fn huge_horizon_unavailability_answers_within_its_deadline() {
    let (handle, addr) = test_server();
    let mut client = Client::connect(&addr).expect("connect");
    // Warm the session first, so the deadline covers the solve alone.
    let steady = client
        .query(
            "dds",
            Json::Arr(vec![Json::str("steady_state_unavailability")]),
            None,
        )
        .expect("steady state");
    let steady = Client::values(&steady).expect("values")[0];
    let response = client
        .expect_ok(&Json::obj([
            ("model", Json::str("dds")),
            ("measures", Json::Arr(vec![Json::str("unavailability")])),
            ("times", Json::Arr(vec![Json::Num(1e12)])),
            ("timeout_ms", Json::Num(1000.0)),
        ]))
        .expect("t = 1e12 answers within its deadline");
    let u = Client::values(&response).expect("values")[0];
    assert!(
        (u - steady).abs() < 1e-12,
        "U(1e12) = {u:e}, steady state {steady:e}"
    );
    handle.shutdown();
    handle.join();
}

/// `timeout_ms` bounds the steady-state solve itself: on a warm DDS
/// session (aggregated, steady vector not yet solved) the GTH elimination
/// polls the request's deadline and answers `deadline`. The aborted solve
/// caches and counts nothing, so the same request without a deadline then
/// answers `ok` with the value of a direct `Session::evaluate`.
#[test]
fn timeout_ms_bounds_the_steady_state_solve() {
    let (handle, addr) = test_server();
    let mut client = Client::connect(&addr).expect("connect");
    client
        .query(
            "dds",
            Json::Arr(vec![Json::str("unavailability")]),
            Some(Json::Arr(vec![Json::Num(1.0)])),
        )
        .expect("warm the DDS session");
    let steady = || Json::Arr(vec![Json::str("steady_state_unavailability")]);
    let steady_solves = |client: &mut Client| {
        let stats = client.stats().expect("stats");
        stats
            .get("models")
            .and_then(Json::as_arr)
            .and_then(|models| {
                models
                    .iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some("dds"))
            })
            .and_then(|m| m.get("stats"))
            .and_then(|s| s.get("steady_solves"))
            .and_then(Json::as_f64)
            .expect("the dds session's steady_solves")
    };

    // The DDS GTH takes tens of milliseconds even in release builds.
    let v = client
        .roundtrip(&Json::obj([
            ("model", Json::str("dds")),
            ("measures", steady()),
            ("timeout_ms", Json::Num(1.0)),
        ]))
        .expect("roundtrip");
    assert_eq!(error_code(&v), "deadline", "{v}");
    assert_eq!(
        steady_solves(&mut client),
        0.0,
        "an aborted solve is not counted"
    );

    let response = client
        .query("dds", steady(), None)
        .expect("the unbudgeted retry solves");
    let served = Client::values(&response).expect("values")[0];
    let direct = Session::new(&arcade::cases::dds())
        .expect("DDS session")
        .evaluate(&[Measure::SteadyStateUnavailability])
        .expect("direct evaluate")[0];
    assert_eq!(
        served.to_bits(),
        direct.to_bits(),
        "served {served:e} vs direct {direct:e}"
    );
    assert_eq!(steady_solves(&mut client), 1.0);
    handle.shutdown();
    handle.join();
}

/// Interval availability at `t = 0` answers its limit `A(0)` in both
/// request forms instead of panicking inside the solver.
#[test]
fn interval_availability_at_time_zero_answers_its_limit() {
    let (handle, addr) = test_server();
    let mut client = Client::connect(&addr).expect("connect");
    let object_form = client
        .expect_ok(&Json::obj([
            ("model", Json::str("dds")),
            (
                "measures",
                Json::Arr(vec![Json::obj([
                    ("kind", Json::str("interval_availability")),
                    ("t", Json::Num(0.0)),
                ])]),
            ),
        ]))
        .expect("t = 0 answers");
    assert_eq!(Client::values(&object_form).expect("values"), vec![1.0]);
    let grid_form = client
        .expect_ok(&Json::obj([
            ("model", Json::str("dds")),
            (
                "measures",
                Json::Arr(vec![Json::str("interval_availability")]),
            ),
            ("times", Json::Arr(vec![Json::Num(0.0), Json::Num(10.0)])),
        ]))
        .expect("times [0, 10] answer");
    let v = Client::values(&grid_form).expect("values");
    assert_eq!(v[0], 1.0);
    assert!(v[1] > 0.0 && v[1] <= 1.0, "A over [0, 10] = {}", v[1]);
    let stats = client.stats().expect("stats");
    let caught = stats
        .get("server")
        .and_then(|s| s.get("panics_caught"))
        .and_then(Json::as_f64)
        .expect("panics_caught counter");
    assert_eq!(caught, 0.0, "no request may panic");
    handle.shutdown();
    handle.join();
}

#[test]
fn max_states_caps_a_loaded_combinatorial_model() {
    let (handle, addr) = test_server();

    // Register a combinatorial model over the wire, exactly as an
    // untrusted client would.
    let source = arcade::printer::to_arcade_text(&arcade::cases::dds_scaled(2));
    let load = Json::obj([
        ("cmd", Json::str("load")),
        ("name", Json::str("wire_dds")),
        ("source", Json::str(&source)),
    ]);
    let mut client = Client::connect(&addr).expect("connect");
    client.expect_ok(&load).expect("load over the wire");

    // A tiny per-request state ceiling trips during aggregation with a
    // structured `budget` error...
    let e = client
        .expect_ok(&Json::obj([
            ("model", Json::str("wire_dds")),
            (
                "measures",
                Json::Arr(vec![Json::str("steady_state_unavailability")]),
            ),
            ("max_states", Json::Num(4.0)),
        ]))
        .expect_err("a 4-state ceiling must trip");
    assert_eq!(e.code, "budget", "{e}");

    // ...and a generous ceiling lets the same model build fully — the
    // tripped attempt cached nothing half-built.
    let ok = client
        .expect_ok(&Json::obj([
            ("model", Json::str("wire_dds")),
            (
                "measures",
                Json::Arr(vec![Json::str("steady_state_unavailability")]),
            ),
            ("max_states", Json::Num(1_000_000.0)),
        ]))
        .expect("generous ceiling builds fully");
    assert_eq!(Client::values(&ok).expect("values").len(), 1);

    let stats = client.stats().expect("stats");
    let aborts = stats
        .get("server")
        .and_then(|s| s.get("budget_aborts"))
        .and_then(Json::as_f64)
        .expect("budget_aborts counter");
    assert!(aborts >= 1.0, "budget abort not counted");

    handle.shutdown();
    handle.join();
}

/// A wire `load` of a component whose Erlang lifetime has 2^32 − 1
/// phases is refused by validation, before anything is sized by the
/// phase count, with a structured `model_error`; the daemon keeps
/// serving.
#[test]
fn oversized_phase_counts_are_refused_on_load() {
    let (handle, addr) = test_server();
    let source = "
COMPONENT: a
TIME-TO-FAILURE: erlang(4294967295, 1)
TIME-TO-REPAIR: exp(1)

SYSTEM DOWN: a.down
";
    let load = Json::obj([
        ("cmd", Json::str("load")),
        ("name", Json::str("long_erlang")),
        ("source", Json::str(source)),
    ]);
    let mut client = Client::connect(&addr).expect("connect");
    let e = client
        .expect_ok(&load)
        .expect_err("the load must be refused");
    assert_eq!(e.code, "model_error", "{e}");
    assert!(e.to_string().contains("4294967295 phases"), "{e}");
    let ok = client
        .expect_ok(&Json::obj([
            ("model", Json::str("dds")),
            ("measures", Json::Arr(vec![Json::str("unavailability")])),
            ("times", Json::Arr(vec![Json::Num(10.0)])),
        ]))
        .expect("the daemon keeps serving");
    assert_eq!(Client::values(&ok).expect("values").len(), 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_command_stops_the_server() {
    let (handle, addr) = test_server();
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown acknowledged");
    // The handle observes the request and join() returns.
    assert!(handle.shutdown_requested());
    handle.join();
    // New connections are no longer served.
    std::thread::sleep(Duration::from_millis(100));
    let refused = match TcpStream::connect(&addr) {
        Err(_) => true,
        // The listener socket may linger briefly; a connect that succeeds
        // must at least get no service (EOF on read).
        Ok(stream) => {
            let mut line = String::new();
            let mut reader = BufReader::new(stream);
            reader.read_line(&mut line).map(|n| n == 0).unwrap_or(true)
        }
    };
    assert!(refused, "server still serving after shutdown");
}
