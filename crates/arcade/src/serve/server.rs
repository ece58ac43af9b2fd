//! The resident TCP server: bounded worker pool over a newline-delimited
//! JSON protocol (see [`super::protocol`]).
//!
//! # Architecture
//!
//! One **accept loop** thread owns the (non-blocking) listener and feeds
//! accepted connections into a **bounded** channel; `workers` threads
//! drain it. The bound is the overload valve: when every worker is busy
//! and the backlog is full, the accept loop blocks — new connections
//! queue in the kernel instead of piling up requests in memory.
//! Connections are persistent; a worker serves one connection at a time,
//! request by request.
//!
//! # Timeouts and robustness
//!
//! Sockets run with a short poll timeout, so a worker blocked on an idle
//! client re-checks the shutdown flag (and the configured idle limit)
//! every few hundred milliseconds — a silent client cannot wedge the
//! pool, and neither can a client that disconnects mid-response (the
//! write fails, the worker closes the connection and moves on). Request
//! lines are capped at [`ServerConfig::max_line_bytes`]; an oversized
//! line gets a structured `oversized` error and the connection is closed
//! (the remainder of the line is unreadable garbage).
//!
//! # Fault containment
//!
//! Evaluation is cooperatively preemptible: a request carrying
//! `timeout_ms` / `max_states` runs under an ambient
//! [`ioimc::budget::Budget`] that the aggregation and solver loops poll
//! at round/segment boundaries, answering `deadline` / `budget` errors
//! instead of wedging the worker. Panics are caught at three nested
//! boundaries — the session/registry build cells (typed `internal_panic`
//! to the builder *and* every dedup waiter, cell cleared for retry), the
//! per-request dispatch, and the worker loop itself (the pool never
//! shrinks silently). See [`super`] (crate-level *Fault containment*
//! docs) for the full contract and the chaos failpoints that exercise it.
//!
//! # Shutdown
//!
//! [`ServerHandle::shutdown`] (or a `{"cmd":"shutdown"}` request, or the
//! `arcaded` binary's SIGTERM/ctrl-c handler) sets one flag: the accept
//! loop stops accepting and drops the channel sender, the workers finish
//! their current connection and exit, and [`ServerHandle::join`] returns.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ioimc::budget::{Budget, BudgetKind};

use super::json::Json;
use super::metrics::Metrics;
use super::protocol::{Limits, ProtoError, Request};
use super::registry::Registry;
use crate::chaos;
use crate::engine::EngineOptions;
use crate::error::ArcadeError;
use crate::query::{guarded, EvalTrace, Measure, ParamGrid, Session, SessionStats};
use crate::sync::panic_message;

/// Protocol schema version stamped into every response envelope.
/// Version 2 added the fault-containment surface: `timeout_ms` /
/// `max_states` request fields, the `deadline` / `budget` /
/// `internal_panic` error codes, and the robustness counters in `stats`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (`0` = one per core, minimum 2).
    pub workers: usize,
    /// Engine options every session runs with (threads, solver knobs).
    pub engine: EngineOptions,
    /// Idle limit per connection: a client that sends nothing for this
    /// long is disconnected.
    pub idle_timeout: Duration,
    /// Largest accepted request line, in bytes.
    pub max_line_bytes: usize,
    /// Accepted connections queued ahead of the worker pool.
    pub backlog: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            engine: EngineOptions::new(),
            idle_timeout: Duration::from_secs(300),
            max_line_bytes: 1 << 20,
            backlog: 128,
        }
    }
}

/// Shared server state: registry, counters, shutdown flag.
#[derive(Debug)]
struct Inner {
    registry: Registry,
    metrics: Metrics,
    shutdown: AtomicBool,
    started: Instant,
    idle_timeout: Duration,
    max_line_bytes: usize,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful stop: stop accepting, finish in-flight
    /// connections. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a shutdown has been requested (by [`ServerHandle::shutdown`],
    /// a signal handler, or a `shutdown` protocol command).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the accept loop and every worker to exit. Call
    /// [`ServerHandle::shutdown`] first (or let a protocol `shutdown`
    /// trigger it), otherwise this blocks until one arrives.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Binds the listener and spawns the accept loop plus the worker pool.
///
/// # Errors
///
/// Any I/O error from binding the address.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr.as_str())?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = if config.workers == 0 {
        std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
    } else {
        config.workers
    };
    let inner = Arc::new(Inner {
        registry: Registry::new(config.engine.clone()),
        metrics: Metrics::new(),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        idle_timeout: config.idle_timeout,
        max_line_bytes: config.max_line_bytes,
    });
    let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.backlog);
    let rx = Arc::new(Mutex::new(rx));
    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let inner = Arc::clone(&inner);
        let rx = Arc::clone(&rx);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("arcaded-worker-{i}"))
                .spawn(move || worker_loop(&inner, &rx))
                .expect("spawn worker thread"),
        );
    }
    let accept = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("arcaded-accept".to_owned())
            .spawn(move || accept_loop(&listener, &inner, &tx))
            .expect("spawn accept thread")
    };
    Ok(ServerHandle {
        addr,
        inner,
        accept: Some(accept),
        workers: worker_handles,
    })
}

fn accept_loop(listener: &TcpListener, inner: &Inner, tx: &SyncSender<TcpStream>) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                Metrics::bump(&inner.metrics.connections);
                // A full backlog blocks here — intended backpressure.
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping `tx` (by returning) closes the channel; workers drain the
    // queued connections and exit.
}

fn worker_loop(inner: &Inner, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Hold the lock only for the receive itself so workers pull
        // connections one at a time.
        let next = {
            let rx = rx.lock().expect("receiver not poisoned");
            rx.recv_timeout(Duration::from_millis(200))
        };
        match next {
            Ok(stream) => {
                // Per-connection errors are already answered in-protocol
                // where possible; anything else just closes the socket.
                // Panics that escape every inner containment boundary are
                // caught HERE so the pool never shrinks silently — the
                // worker drops the connection and serves the next one.
                if std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let _ = handle_connection(inner, stream);
                }))
                .is_err()
                {
                    Metrics::bump(&inner.metrics.panics_caught);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    // Keep draining until the accept loop has closed the
                    // channel, then the Disconnected arm exits.
                    continue;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Outcome of reading one request line.
enum Line {
    /// A complete line (without the trailing newline).
    Some(String),
    /// Clean end of stream.
    Eof,
    /// Line exceeded the configured cap.
    Oversized,
    /// Idle/shutdown — close the connection silently.
    Close,
}

fn handle_connection(inner: &Inner, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // Short poll so idle reads re-check shutdown and the idle budget.
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    loop {
        match read_line(inner, &mut reader)? {
            Line::Eof | Line::Close => return Ok(()),
            Line::Oversized => {
                Metrics::bump(&inner.metrics.requests);
                Metrics::bump(&inner.metrics.errors);
                let err = ProtoError::with_code(
                    "oversized",
                    format!("request line exceeds {} bytes", inner.max_line_bytes),
                );
                write_response(&mut out, &err.to_json())?;
                // The rest of the line is unread garbage: drain it (so
                // closing does not RST the error response off the wire
                // mid-send), then drop the connection rather than
                // resynchronize.
                drain_line(inner, &mut reader)?;
                return Ok(());
            }
            Line::Some(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let started = Instant::now();
                Metrics::bump(&inner.metrics.requests);
                // Second containment ring: a panic inside request handling
                // answers *this* request with `internal_panic` and keeps
                // the connection alive for the next one.
                let (response, stop) =
                    match std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(inner, &line))) {
                        Ok(r) => r,
                        Err(payload) => {
                            Metrics::bump(&inner.metrics.panics_caught);
                            (
                                ProtoError::with_code(
                                    "internal_panic",
                                    panic_message(payload.as_ref()),
                                )
                                .to_json(),
                                false,
                            )
                        }
                    };
                if response.get("ok") != Some(&Json::Bool(true)) {
                    Metrics::bump(&inner.metrics.errors);
                }
                inner.metrics.total.record(started.elapsed());
                write_response(&mut out, &response)?;
                if stop {
                    return Ok(());
                }
            }
        }
    }
}

/// Reads one `\n`-terminated line, polling so shutdown and the idle
/// budget are honored, and capping the line length.
fn read_line(inner: &Inner, reader: &mut BufReader<TcpStream>) -> std::io::Result<Line> {
    let mut buf: Vec<u8> = Vec::new();
    let idle_start = Instant::now();
    loop {
        if inner.shutdown.load(Ordering::SeqCst) && buf.is_empty() {
            return Ok(Line::Close);
        }
        if idle_start.elapsed() > inner.idle_timeout {
            return Ok(Line::Close);
        }
        // Read whatever the socket has, up to the cap, stopping at `\n`.
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                Line::Eof
            } else {
                Line::Close
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        buf.extend_from_slice(&available[..take]);
        reader.consume(take);
        if buf.len() > inner.max_line_bytes {
            return Ok(Line::Oversized);
        }
        if newline.is_some() {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(match String::from_utf8(buf) {
                Ok(line) => Line::Some(line),
                // Invalid UTF-8 still yields a parse error in-protocol.
                Err(_) => Line::Some("\u{fffd}".to_owned()),
            });
        }
    }
}

/// Discards input up to and including the next newline (or EOF), bounded
/// by a hard cap so a hostile endless line cannot pin the worker.
fn drain_line(inner: &Inner, reader: &mut BufReader<TcpStream>) -> std::io::Result<()> {
    // Generous but finite: 64x the line cap.
    let mut budget = inner.max_line_bytes.saturating_mul(64);
    let started = Instant::now();
    loop {
        if inner.shutdown.load(Ordering::SeqCst)
            || started.elapsed() > inner.idle_timeout
            || budget == 0
        {
            return Ok(());
        }
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => return Ok(()),
        };
        if available.is_empty() {
            return Ok(());
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let want = newline.map_or(available.len(), |i| i + 1);
        let take = want.min(budget.max(1));
        reader.consume(take);
        budget = budget.saturating_sub(take);
        if newline.is_some() && take == want {
            return Ok(());
        }
    }
}

fn write_response(out: &mut TcpStream, response: &Json) -> std::io::Result<()> {
    let mut text = response.to_string();
    text.push('\n');
    if chaos::failpoint("serve.respond") == chaos::Fired::Torn {
        // Emulate a torn write: half the response bytes, then the
        // connection dies. The returned error closes this connection; the
        // worker stays in the pool and serves the next one.
        let _ = out.write_all(&text.as_bytes()[..text.len() / 2]);
        let _ = out.flush();
        return Err(std::io::Error::new(
            ErrorKind::ConnectionAborted,
            "chaos: torn write injected at serve.respond",
        ));
    }
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// Parses and executes one request line. Returns the response and whether
/// the connection should close after it (shutdown acknowledgements).
fn dispatch(inner: &Inner, line: &str) -> (Json, bool) {
    let parse_started = Instant::now();
    let parsed = Json::parse(line);
    inner.metrics.parse.record(parse_started.elapsed());
    let value = match parsed {
        Ok(v) => v,
        Err(e) => {
            return (
                ProtoError::with_code("bad_json", e.to_string()).to_json(),
                false,
            )
        }
    };
    let request = match Request::from_json(&value) {
        Ok(r) => r,
        Err(e) => return (e.to_json(), false),
    };
    match request {
        Request::Ping => (ok_envelope(vec![("pong", Json::Bool(true))]), false),
        Request::List => {
            let models = inner
                .registry
                .list()
                .into_iter()
                .map(Json::Str)
                .collect::<Vec<_>>();
            (ok_envelope(vec![("models", Json::Arr(models))]), false)
        }
        Request::Load { name, source } => match inner.registry.load(&name, &source) {
            Ok(()) => (ok_envelope(vec![("loaded", Json::Str(name))]), false),
            Err(e) => (e.to_json(), false),
        },
        Request::Stats => (stats_response(inner), false),
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::SeqCst);
            (ok_envelope(vec![("shutting_down", Json::Bool(true))]), true)
        }
        Request::Query {
            model,
            measures,
            limits,
        } => (query_response(inner, &model, &measures, limits), false),
        Request::Sweep {
            model,
            measures,
            grid,
            limits,
        } => (
            sweep_response(inner, &model, &measures, &grid, limits),
            false,
        ),
    }
}

/// The per-request compute budget, when the request carries limits.
fn request_budget(limits: Limits) -> Option<Arc<Budget>> {
    if !limits.is_some() {
        return None;
    }
    let mut b = Budget::unlimited();
    if let Some(ms) = limits.timeout_ms {
        b = b.with_deadline(Duration::from_millis(ms));
    }
    if let Some(states) = limits.max_states {
        b = b.with_max_states(states);
    }
    Some(Arc::new(b))
}

/// Maps an evaluation error to its wire code — `deadline` for an expired
/// wall clock, `budget` for a size ceiling or cancellation,
/// `internal_panic` for a contained panic, `model_error` otherwise — and
/// bumps the matching containment counter.
fn arcade_error_response(inner: &Inner, e: &ArcadeError) -> Json {
    let code = match e {
        ArcadeError::Budget(b) => {
            if b.kind == BudgetKind::Deadline {
                Metrics::bump(&inner.metrics.deadline_aborts);
                "deadline"
            } else {
                Metrics::bump(&inner.metrics.budget_aborts);
                "budget"
            }
        }
        ArcadeError::Internal(_) => {
            Metrics::bump(&inner.metrics.panics_caught);
            "internal_panic"
        }
        _ => "model_error",
    };
    ProtoError::with_code(code, e.to_string()).to_json()
}

/// The part `query` and `sweep` requests share: looks up the model's
/// session, runs the build phase — aggregating exactly the
/// configurations `measures` need, deduplicated inside the shared session
/// — and attributes the request as a cache hit, miss or dedup wait, then
/// runs `eval` as the separately timed evaluate phase. Both phases run
/// under the request budget inside [`guarded`]. The response carries the
/// model name, the fields `render` makes of the result and the build
/// trace, then the session counters and the phase timings; a failure
/// answers its error response.
fn evaluate_request<R>(
    inner: &Inner,
    model: &str,
    measures: &[Measure],
    limits: Limits,
    eval: impl FnOnce(&Session) -> Result<R, ArcadeError>,
    render: impl FnOnce(R, &EvalTrace) -> Vec<(&'static str, Json)>,
) -> Json {
    let budget = request_budget(limits);
    let build_started = Instant::now();
    let (session, retried) = inner.registry.session_traced(model);
    if retried {
        Metrics::bump(&inner.metrics.retries);
    }
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            if e.code == "internal_panic" {
                Metrics::bump(&inner.metrics.panics_caught);
            }
            return e.to_json();
        }
    };
    let trace = match guarded(budget.clone(), || session.prefetch_measures(measures)) {
        Ok(t) => t,
        Err(e) => return arcade_error_response(inner, &e),
    };
    let build_elapsed = build_started.elapsed();
    inner.metrics.build.record(build_elapsed);
    if trace.built > 0 {
        Metrics::bump(&inner.metrics.cache_misses);
    } else if trace.waited > 0 {
        Metrics::bump(&inner.metrics.dedup_waits);
    } else {
        Metrics::bump(&inner.metrics.cache_hits);
    }
    let eval_started = Instant::now();
    let result = match guarded(budget, || eval(&session)) {
        Ok(r) => r,
        Err(e) => return arcade_error_response(inner, &e),
    };
    let eval_elapsed = eval_started.elapsed();
    inner.metrics.evaluate.record(eval_elapsed);
    let mut fields = vec![("model", Json::str(model))];
    fields.extend(render(result, &trace));
    fields.push(("session", session_stats_json(&session.stats())));
    fields.push((
        "timings",
        Json::obj([
            ("build_us", Json::Num(build_elapsed.as_micros() as f64)),
            ("evaluate_us", Json::Num(eval_elapsed.as_micros() as f64)),
        ]),
    ));
    ok_envelope(fields)
}

/// Whether the request had to build (or wait for) an aggregation.
fn cold(trace: &EvalTrace) -> Json {
    Json::Bool(trace.built > 0 || trace.waited > 0)
}

fn query_response(inner: &Inner, model: &str, measures: &[Measure], limits: Limits) -> Json {
    let eval = |s: &Session| s.evaluate(measures);
    evaluate_request(inner, model, measures, limits, eval, |values, trace| {
        vec![
            (
                "values",
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            ),
            ("cold", cold(trace)),
            (
                "trace",
                Json::obj([
                    ("built", Json::Num(f64::from(trace.built))),
                    ("waited", Json::Num(f64::from(trace.waited))),
                ]),
            ),
        ]
    })
}

fn sweep_response(
    inner: &Inner,
    model: &str,
    measures: &[Measure],
    grid: &ParamGrid,
    limits: Limits,
) -> Json {
    let eval = |s: &Session| s.sweep(measures, grid);
    evaluate_request(inner, model, measures, limits, eval, |result, trace| {
        let rows = |rows: &[Vec<f64>]| {
            Json::Arr(
                rows.iter()
                    .map(|row| Json::Arr(row.iter().copied().map(Json::Num).collect()))
                    .collect(),
            )
        };
        let sensitivities = Json::Arr(
            result
                .sensitivities
                .iter()
                .map(|per_measure| {
                    Json::Arr(
                        per_measure
                            .iter()
                            .map(|per_param| {
                                Json::Arr(
                                    per_param
                                        .iter()
                                        .map(|s| s.map_or(Json::Null, Json::Num))
                                        .collect(),
                                )
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        vec![
            (
                "params",
                Json::Arr(result.names.iter().map(Json::str).collect()),
            ),
            ("points", rows(&result.points)),
            ("values", rows(&result.values)),
            ("sensitivities", sensitivities),
            ("cold", cold(trace)),
        ]
    })
}

fn stats_response(inner: &Inner) -> Json {
    let models = inner
        .registry
        .session_stats()
        .into_iter()
        .map(|(name, stats)| {
            Json::obj([
                ("name", Json::Str(name)),
                ("stats", session_stats_json(&stats)),
            ])
        })
        .collect::<Vec<_>>();
    ok_envelope(vec![
        (
            "uptime_secs",
            Json::Num(inner.started.elapsed().as_secs_f64()),
        ),
        ("server", inner.metrics.to_json()),
        ("models", Json::Arr(models)),
    ])
}

/// The success envelope every response shares.
fn ok_envelope(fields: Vec<(&'static str, Json)>) -> Json {
    let mut all = vec![
        ("ok", Json::Bool(true)),
        ("schema_version", Json::Num(f64::from(PROTOCOL_VERSION))),
    ];
    all.extend(fields);
    Json::obj(all)
}

/// A [`SessionStats`] snapshot as a JSON object (the same counters
/// `arcade analyze --json` reports, plus the aggregation-level ones).
pub fn session_stats_json(stats: &SessionStats) -> Json {
    Json::obj([
        (
            "aggregations_built",
            Json::Num(f64::from(stats.aggregations_built)),
        ),
        (
            "absorbing_built",
            Json::Num(f64::from(stats.absorbing_built)),
        ),
        ("steady_solves", Json::Num(f64::from(stats.steady_solves))),
        ("poisson_hits", Json::Num(stats.poisson_hits as f64)),
        ("poisson_misses", Json::Num(stats.poisson_misses as f64)),
        (
            "poisson_evictions",
            Json::Num(stats.poisson_evictions as f64),
        ),
        ("dtmc_steps", Json::Num(stats.dtmc_steps as f64)),
        ("sweeps", Json::Num(stats.sweeps as f64)),
        (
            "aggregation_secs",
            Json::Num(stats.aggregation_us as f64 / 1e6),
        ),
        ("signature_secs", Json::Num(stats.signature_us as f64 / 1e6)),
        ("split_secs", Json::Num(stats.split_us as f64 / 1e6)),
        ("quotient_secs", Json::Num(stats.quotient_us as f64 / 1e6)),
        ("refine_rounds", Json::Num(stats.refine_rounds as f64)),
        ("states_resigned", Json::Num(stats.states_resigned as f64)),
    ])
}

/// Resolves a `host:port` string to the first socket address (helper for
/// binaries and clients).
///
/// # Errors
///
/// I/O error when resolution fails or yields nothing.
pub fn resolve_addr(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidInput, format!("cannot resolve `{addr}`"))
    })
}
