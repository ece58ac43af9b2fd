//! The closed-loop load generator. It reaches the program only through
//! the `arcaded` wire protocol: `load`, `query`, `sweep`, `stats`.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::calib::{self, Prober};
use crate::deck::{Op, Plan, Workload};
use crate::json::{self, Value};
use crate::reference;
use crate::server::{Conn, Cpus, Server};
use crate::stats::{median, quantile};

/// A deck op with its request lines ready to send.
pub struct Prepared<'a> {
    pub op: &'a Op,
    pub lines: Vec<String>,
    /// The set-up answer the op is compared against, if any.
    pub reference: Option<Vec<f64>>,
}

/// A server set up for a workload: connections open, resident models
/// loaded, reference answers taken.
pub struct Ready {
    pub server: Server,
    pub conns: Vec<Conn>,
    /// Answers to the plan's warm requests, in plan order.
    pub warm_answers: Vec<Vec<f64>>,
    /// Set-up time: the server launch and connections as measured, plus
    /// the loads and warm requests scaled by probes sampled through them.
    pub setup_s: f64,
    /// The same set-up time as measured.
    pub setup_measured_s: f64,
}

/// How many times a run sets the server up; `setup_s` is their median.
/// The long `param_sweep` set-up repeats least.
fn setups(workload: Workload) -> usize {
    match workload {
        Workload::ParamSweep => 3,
        _ => 5,
    }
}

/// Launches the server and sets it up: from launch until the first op
/// can be sent. The loads and warm requests run while the probe samples
/// the server's CPU, since a long set-up outlasts many speed switches.
pub fn set_up(
    exe: &Path,
    workload: Workload,
    plan: &Plan,
    cpu: usize,
    probe: &mut Prober,
) -> Result<Ready, String> {
    let started = Instant::now();
    let server = Server::launch(exe, cpu)?;
    let mut launch_s = started.elapsed().as_secs_f64();
    // The accept loop polls every 10 ms from its start, which is about
    // when the server announces its address; connecting at once would
    // race the first poll and make the wait bimodal. An untimed pause
    // lets the first poll pass, so the wait is the rest of the period.
    std::thread::sleep(Duration::from_millis(2));
    let connected = Instant::now();
    let mut conns = (0..workload.connections())
        .map(|_| Conn::open(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    launch_s += connected.elapsed().as_secs_f64();
    let conn = &mut conns[0];
    let mut setup_s = launch_s;
    let mut setup_measured_s = launch_s;
    let mut warm_answers = Vec::new();
    if !(plan.resident.is_empty() && plan.warm.is_empty()) {
        let (warm, secs, probes) = probe.watch(|| warm_up(conn, plan))?;
        warm_answers = warm?;
        setup_s += calib::scaled_sampled(secs, &probes);
        setup_measured_s += secs;
    }
    Ok(Ready {
        server,
        conns,
        warm_answers,
        setup_s,
        setup_measured_s,
    })
}

/// Loads the plan's resident models and answers its warm requests,
/// checking every response. Returns the warm answers in plan order.
fn warm_up(conn: &mut Conn, plan: &Plan) -> Result<Vec<Vec<f64>>, String> {
    for (name, text) in &plan.resident {
        let line = format!(
            "{{\"cmd\":\"load\",\"name\":{},\"source\":{}}}",
            json::quote(name),
            json::quote(text)
        );
        let answer = conn.call(&line)?;
        if !answer.is_ok() {
            return Err(format!("set-up load of {name} failed: {answer:?}"));
        }
    }
    plan.warm
        .iter()
        .map(|op| {
            let (_, checked) = send_op(conn, &Prepared::new(op, None))?;
            let rows = checked.map_err(|e| format!("set-up answer: {e}"))?;
            Ok(rows.into_iter().next().expect("a query has one row"))
        })
        .collect()
}

impl<'a> Prepared<'a> {
    pub fn new(op: &'a Op, reference: Option<Vec<f64>>) -> Prepared<'a> {
        Prepared {
            op,
            lines: op.lines().into_iter().map(|l| l + "\n").collect(),
            reference,
        }
    }
}

/// Pairs each deck op with its lines and its set-up reference answer.
pub fn prepare<'a>(plan: &'a Plan, warm_answers: &[Vec<f64>]) -> Vec<Prepared<'a>> {
    plan.deck
        .iter()
        .map(|op| {
            let reference = plan
                .warm
                .iter()
                .position(|w| w.model == op.model && w.batch == op.batch && w.sweep.is_none())
                .map(|i| warm_answers[i].clone());
            Prepared::new(op, reference)
        })
        .collect()
}

/// An answer's rows, or why its check failed.
pub type Checked = Result<Vec<Vec<f64>>, String>;

/// Sends one op and checks its answers. Returns the op's latency (first
/// request sent to last response received) and the check outcome; the
/// error is a transport failure, which ends the run.
pub fn send_op(conn: &mut Conn, p: &Prepared) -> Result<(Duration, Checked), String> {
    let (last_line, first_lines) = p.lines.split_last().expect("an op sends a request");
    let t0 = Instant::now();
    let mut first = Vec::with_capacity(first_lines.len());
    for line in first_lines {
        first.push(conn.send(line)?.to_owned());
    }
    let last = conn.send(last_line)?;
    let latency = t0.elapsed();
    Ok((latency, check_op(p, &first, last)))
}

/// Checks an op's responses: every one before the last must be ok, and
/// the last must answer the op. A failed `load` leaves the previous model
/// in place, so the query after it would still be answered.
pub fn check_op(p: &Prepared, first: &[String], last: &str) -> Checked {
    for response in first {
        let answer = json::parse(response)?;
        if !answer.is_ok() {
            return Err(format!("error response: {:?}", answer.get("error")));
        }
    }
    let rows = reference::rows(p.op, &json::parse(last)?)?;
    reference::check(p.op, &rows, p.reference.as_deref())?;
    Ok(rows)
}

/// Ops per probe segment on each connection. Single-connection
/// ops take milliseconds to seconds and are probed one by one; a
/// `served_warm` pass takes about a millisecond, so a segment holds
/// enough passes that probing costs a few percent of the run.
fn segment_ops(workload: Workload, deck_len: usize) -> usize {
    match workload {
        Workload::ServedWarm => 16 * deck_len,
        _ => 1,
    }
}

/// One op as the load generator saw it.
struct Sample {
    segment: usize,
    class: &'static str,
    latency_ms: f64,
}

/// The end-to-end result of one run.
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub setup_measured_s: Vec<f64>,
    samples: Vec<Sample>,
    /// Wall time of each segment (ms) and the probes around it: probe
    /// `k` was taken before segment `k`, probe `k + 1` after it.
    segment_ms: Vec<f64>,
    probes_ms: Vec<f64>,
    pub passes: usize,
    pub failed: usize,
    pub peak_rss_mb: f64,
    pub errors: Vec<String>,
}

impl E2e {
    pub fn attempted(&self) -> usize {
        self.samples.len()
    }

    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }

    pub fn setup_measured_median_s(&self) -> f64 {
        median(&self.setup_measured_s)
    }

    fn scale(&self, segment: usize, ms: f64) -> f64 {
        calib::scaled(ms, self.probes_ms[segment], self.probes_ms[segment + 1])
    }

    /// Op latencies, scaled by the probes around their segments.
    fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| self.scale(s.segment, s.latency_ms))
            .collect()
    }

    /// Completed ops over the segments' scaled wall time.
    pub fn ops_per_s(&self) -> f64 {
        let ms: f64 = (0..self.segment_ms.len())
            .map(|k| self.scale(k, self.segment_ms[k]))
            .sum();
        self.samples.len() as f64 * 1e3 / ms
    }

    pub fn p50_ms(&self) -> f64 {
        quantile(&self.latencies(), 0.5)
    }

    pub fn p90_ms(&self) -> f64 {
        quantile(&self.latencies(), 0.9)
    }

    /// The same figures as measured, before scaling: ops per second over
    /// the segments' wall time, median and 90th-percentile latency (ms).
    pub fn unscaled(&self) -> (f64, f64, f64) {
        let raw: Vec<f64> = self.samples.iter().map(|s| s.latency_ms).collect();
        let wall_ms: f64 = self.segment_ms.iter().sum();
        (
            raw.len() as f64 * 1e3 / wall_ms,
            quantile(&raw, 0.5),
            quantile(&raw, 0.9),
        )
    }

    pub fn probe_median_ms(&self) -> f64 {
        median(&self.probes_ms)
    }

    /// Each op class with its op count and median scaled latency.
    pub fn by_class(&self) -> Vec<(&'static str, usize, f64)> {
        let latencies = self.latencies();
        let mut names: Vec<&'static str> = self.samples.iter().map(|s| s.class).collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|c| {
                let lat: Vec<f64> = self
                    .samples
                    .iter()
                    .zip(&latencies)
                    .filter(|(s, _)| s.class == c)
                    .map(|(_, l)| *l)
                    .collect();
                (c, lat.len(), median(&lat))
            })
            .collect()
    }
}

/// What the connections of a run share: the barrier that starts and ends
/// every segment, and the lead connection's decision to stop.
struct Segments {
    barrier: Barrier,
    stop: AtomicBool,
    /// A connection failed; every connection still meets the barrier, so
    /// that none waits forever, and the run stops after the segment.
    broken: AtomicBool,
    ops: usize,
}

/// What only the lead connection does between segments: probe the host,
/// time the segments, and end the run at a pass boundary once another
/// pass would end further from `seconds` after `start` than stopping now.
struct Lead<'a> {
    probe: &'a mut Prober,
    start: Instant,
    seconds: f64,
    segment_ms: Vec<f64>,
    probes_ms: Vec<f64>,
    passes: usize,
}

struct Loop {
    samples: Vec<Sample>,
    errors: Vec<String>,
}

/// One connection's closed loop over the deck, starting at `offset`, in
/// segments of `seg.ops` ops that every connection runs between the same
/// two probes.
fn closed_loop(
    conn: &mut Conn,
    deck: &[Prepared],
    offset: usize,
    seg: &Segments,
    mut lead: Option<&mut Lead>,
) -> Result<Loop, String> {
    let mut out = Loop {
        samples: Vec::new(),
        errors: Vec::new(),
    };
    let mut segment = 0;
    let mut next = 0;
    let mut pass_start = Instant::now();
    let mut fatal = None;
    loop {
        seg.barrier.wait();
        if seg.stop.load(Ordering::SeqCst) {
            return match fatal {
                None => Ok(out),
                Some(e) => Err(e),
            };
        }
        let seg_start = Instant::now();
        for _ in 0..seg.ops {
            let p = &deck[(offset + next) % deck.len()];
            next += 1;
            let (latency, outcome) = match send_op(conn, p) {
                Ok(r) => r,
                Err(e) => {
                    fatal = Some(e);
                    seg.broken.store(true, Ordering::SeqCst);
                    break;
                }
            };
            out.samples.push(Sample {
                segment,
                class: p.op.class,
                latency_ms: latency.as_secs_f64() * 1e3,
            });
            if let Err(e) = outcome {
                out.errors.push(format!("{}: {e}", p.op.class));
            }
        }
        seg.barrier.wait();
        segment += 1;
        if let Some(l) = lead.as_mut() {
            l.segment_ms.push(seg_start.elapsed().as_secs_f64() * 1e3);
            match l.probe.time_ms() {
                Ok(ms) => l.probes_ms.push(ms),
                Err(e) => {
                    fatal = Some(e);
                    seg.broken.store(true, Ordering::SeqCst);
                }
            }
            if seg.broken.load(Ordering::SeqCst) {
                seg.stop.store(true, Ordering::SeqCst);
            } else if next % deck.len() == 0 {
                l.passes += 1;
                let pass_s = pass_start.elapsed().as_secs_f64();
                pass_start = Instant::now();
                if l.start.elapsed().as_secs_f64() + pass_s / 2.0 >= l.seconds {
                    seg.stop.store(true, Ordering::SeqCst);
                }
            }
        }
    }
}

/// Runs a workload end to end: repeated set-ups, then whole passes of
/// the deck on every connection for `seconds`, probing the host between
/// segments.
pub fn run(
    exe: &Path,
    workload: Workload,
    plan: &Plan,
    seconds: f64,
    cpus: Cpus,
) -> Result<E2e, String> {
    let mut probe = Prober::launch(cpus.server)?;
    let mut setup_s = Vec::new();
    let mut setup_measured_s = Vec::new();
    let mut ready = None;
    for i in 0..setups(workload) {
        let r = set_up(exe, workload, plan, cpus.server, &mut probe)?;
        setup_s.push(r.setup_s);
        setup_measured_s.push(r.setup_measured_s);
        if i + 1 == setups(workload) {
            ready = Some(r);
        }
    }
    let Ready {
        server,
        mut conns,
        warm_answers,
        ..
    } = ready.expect("the last set-up is kept");
    let deck = prepare(plan, &warm_answers);
    let n = conns.len();
    let seg = Segments {
        barrier: Barrier::new(n),
        stop: AtomicBool::new(false),
        broken: AtomicBool::new(false),
        ops: segment_ops(workload, deck.len()),
    };
    let mut lead = Lead {
        probes_ms: vec![probe.time_ms()?],
        probe: &mut probe,
        start: Instant::now(),
        seconds,
        segment_ms: Vec::new(),
        passes: 0,
    };
    let (first, rest) = conns
        .split_first_mut()
        .expect("a workload has a connection");
    let loops: Vec<Result<Loop, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (deck, seg) = (&deck, &seg);
                s.spawn(move || closed_loop(conn, deck, (c + 1) * deck.len() / n, seg, None))
            })
            .collect();
        let mut loops = vec![closed_loop(first, &deck, 0, &seg, Some(&mut lead))];
        loops.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("load generator thread")),
        );
        loops
    });
    let mut out = E2e {
        setup_s,
        setup_measured_s,
        samples: Vec::new(),
        segment_ms: lead.segment_ms,
        probes_ms: lead.probes_ms,
        passes: lead.passes,
        failed: 0,
        peak_rss_mb: server.peak_rss_mb()?,
        errors: Vec::new(),
    };
    for l in loops {
        let l = l?;
        out.samples.extend(l.samples);
        out.failed += l.errors.len();
        out.errors.extend(l.errors);
    }
    Ok(out)
}

/// The server's cache-hit share of queries, from `stats` over an open
/// connection.
pub fn cache_hit_ratio(conn: &mut Conn) -> Result<f64, String> {
    let stats = conn.call(r#"{"cmd":"stats"}"#)?;
    let server = stats.get("server").ok_or("stats has no server section")?;
    let count = |k: &str| server.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let hits = count("cache_hits");
    let all = hits + count("cache_misses") + count("dedup_waits");
    Ok(if all > 0.0 { hits / all } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::{Batch, Expect, Kind};

    #[test]
    fn a_failed_load_fails_the_op_even_when_the_query_answers() {
        let op = Op {
            class: "c",
            source: Some("COMPONENT: c1".to_owned()),
            model: "cold".to_owned(),
            batch: Batch {
                kinds: vec![Kind::Mttf],
                times: Vec::new(),
            },
            sweep: None,
            expect: Expect::Invariants,
        };
        let p = Prepared::new(&op, None);
        assert_eq!(p.lines.len(), 2, "a load, then a query");
        // The previous model's warm session still answers the query.
        let query = r#"{"ok":true,"model":"cold","values":[12.5]}"#;
        let loaded = r#"{"ok":true,"loaded":"cold"}"#.to_owned();
        assert_eq!(check_op(&p, &[loaded], query), Ok(vec![vec![12.5]]));
        let rejected =
            r#"{"ok":false,"error":{"code":"parse_error","message":"line 1"}}"#.to_owned();
        let err = check_op(&p, &[rejected], query).unwrap_err();
        assert!(err.contains("parse_error"), "{err}");
        let bad_query = r#"{"ok":false,"error":{"code":"model_error","message":"x"}}"#;
        let loaded = r#"{"ok":true,"loaded":"cold"}"#.to_owned();
        assert!(check_op(&p, &[loaded], bad_query).is_err());
    }

    #[test]
    fn scaled_metrics_divide_each_segment_by_its_probes() {
        let sample = |segment, latency_ms| Sample {
            segment,
            class: "c",
            latency_ms,
        };
        let nominal = calib::NOMINAL_MS;
        let r = E2e {
            setup_s: vec![3.0, 1.0, 2.0],
            setup_measured_s: vec![3.0, 1.0, 2.0],
            samples: vec![sample(0, 10.0), sample(1, 20.0)],
            segment_ms: vec![10.0, 20.0],
            // Segment 0 runs at the nominal speed, segment 1 between a
            // nominal probe and one twice as slow: its times count at
            // 1/1.5 of their measured length.
            probes_ms: vec![nominal, nominal, 2.0 * nominal],
            passes: 1,
            failed: 0,
            peak_rss_mb: 1.0,
            errors: Vec::new(),
        };
        let second = 20.0 / 1.5;
        assert_eq!(r.setup_median_s(), 2.0);
        assert!((r.ops_per_s() - 2.0 * 1e3 / (10.0 + second)).abs() < 1e-9);
        assert!((r.p50_ms() - (10.0 + second) / 2.0).abs() < 1e-9);
        assert!((r.p90_ms() - (10.0 + 0.9 * (second - 10.0))).abs() < 1e-9);
        assert_eq!(r.unscaled(), (2.0 * 1e3 / 30.0, 15.0, 19.0));
    }
}
