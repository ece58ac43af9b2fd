//! The traced run: the same seeded ops, each sent once over the wire
//! (untraced) and replayed twice in process through the layers' entry
//! points — once with the span recorder off and once with it on. Spans
//! stay in memory and are written out when the run ends; per-layer
//! metrics are self times and counts per op.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::api::Replayer;
use crate::calib::Prober;
use crate::deck::{Expect, Plan, Workload};
use crate::reference::{DDS_STATES, DDS_TRANSITIONS};
use crate::server::Cpus;
use crate::stats::{median, self_times, Span};
use crate::wire;
use crate::Metric;

/// Records spans (name, start, end, parent, op) around layer calls, and
/// counts at the same boundaries. Off, a span is a plain call.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    op: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op: self.op.get(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    pub fn add(&self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.borrow_mut().entry(name).or_insert(0.0) += value;
        }
    }

    pub fn max(&self, name: &'static str, value: f64) {
        if self.on {
            let mut counts = self.counts.borrow_mut();
            let slot = counts.entry(name).or_insert(0.0);
            *slot = slot.max(value);
        }
    }
}

/// Everything a traced run measured.
pub struct Traced {
    pub workload: Workload,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// Per op: wire round trip, untraced replay, traced replay (ms).
    pub roundtrip_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, f64>,
    pub cache_hit_ratio: f64,
    pub spans_file: PathBuf,
}

/// Where span files go: beside the build, inside the checkout.
fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().and_then(Path::parent).map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("arcbench-spans");
    dir.join(format!("{}-seed{seed}.tsv", workload.name()))
}

pub fn run(
    exe: &Path,
    workload: Workload,
    seed: u64,
    plan: &Plan,
    seconds: f64,
    cpus: Cpus,
) -> Result<Traced, String> {
    let mut probe = Prober::launch(cpus.server)?;
    let ready = wire::set_up(exe, workload, plan, cpus.server, &mut probe)?;
    drop(probe);
    let replayer = Replayer::new();
    replayer.set_up(plan)?;
    let deck = wire::prepare(plan, &ready.warm_answers);
    let wire::Ready {
        server, mut conns, ..
    } = ready;
    let off = Recorder::new(false);
    let rec = Recorder::new(true);
    let mut t = Traced {
        workload,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        roundtrip_ms: Vec::new(),
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        spans: Vec::new(),
        counts: BTreeMap::new(),
        cache_hit_ratio: 0.0,
        spans_file: spans_path(workload, seed),
    };
    let start = Instant::now();
    let mut op_id = 0u32;
    while t.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        // A pass goes over the wire back to back, as in the end-to-end
        // run, before its ops are replayed.
        let mut answers = Vec::with_capacity(deck.len());
        for p in &deck {
            let (latency, wire_rows) = wire::send_op(&mut conns[0], p)?;
            t.roundtrip_ms.push(latency.as_secs_f64() * 1e3);
            answers.push(wire_rows);
        }
        for (p, wire_rows) in deck.iter().zip(answers) {
            t.attempted += 1;
            // Alternate which replay goes first, so that neither gains
            // from the other warming caches.
            let untraced_replay = |t: &mut Traced| {
                let t0 = Instant::now();
                let r = replayer.replay(&off, &p.lines);
                t.untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                r
            };
            let traced_replay = |t: &mut Traced| {
                rec.op.set(op_id);
                let r = rec.span("op", || replayer.replay(&rec, &p.lines));
                let spans = rec.spans.borrow();
                let root = spans.iter().rev().find(|s| s.parent.is_none());
                let root = root.expect("the op span was recorded");
                t.traced_ms.push((root.end_ns - root.start_ns) as f64 / 1e6);
                r
            };
            let (untraced, traced) = if op_id.is_multiple_of(2) {
                (untraced_replay(&mut t), traced_replay(&mut t))
            } else {
                let traced = traced_replay(&mut t);
                (untraced_replay(&mut t), traced)
            };
            op_id += 1;

            let outcome = (|| {
                let wire_rows = wire_rows?;
                let untraced = untraced?;
                let traced = traced?;
                for replayed in [&untraced, &traced] {
                    let same = replayed.rows.len() == wire_rows.len()
                        && replayed.rows.iter().zip(&wire_rows).all(|(a, b)| {
                            a.len() == b.len()
                                && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                        });
                    if !same {
                        return Err("in-process replay differs from the wire answer".to_owned());
                    }
                }
                if p.op.expect == Expect::PaperDds
                    && traced.chain != Some((DDS_STATES, DDS_TRANSITIONS))
                {
                    return Err(format!("paper DDS chain is {:?}", traced.chain));
                }
                Ok(())
            })();
            if let Err(e) = outcome {
                t.failed += 1;
                t.errors.push(format!("{}: {e}", p.op.class));
            }
        }
    }
    t.cache_hit_ratio = wire::cache_hit_ratio(&mut conns[0])?;
    drop(server);
    t.spans = rec.spans.into_inner();
    t.counts = rec.counts.into_inner();
    write_spans(&t.spans_file, &t.spans)?;
    Ok(t)
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let own = self_times(spans);
    let mut text = String::from("op\tname\tstart_ns\tend_ns\tparent\tself_ns\n");
    for (s, own) in spans.iter().zip(own) {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{parent}\t{own}",
            s.op, s.name, s.start_ns, s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The per-layer report.
pub struct Report {
    pub text: String,
    pub metrics: Vec<Metric>,
}

impl Traced {
    pub fn report(&self) -> Report {
        let ops = self.traced_ms.len() as f64;
        let own = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&own) {
            *by_name.entry(s.name).or_insert(0) += own;
        }
        let self_ms = |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e6;
        let per_op_ms = |name: &str| self_ms(name) / ops;
        let count = |name: &str| self.counts.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        let roundtrip_ms = self.roundtrip_ms.iter().sum::<f64>() / ops;
        let untraced_ms = self.untraced_ms.iter().sum::<f64>() / ops;
        let traced_ms = self.traced_ms.iter().sum::<f64>() / ops;
        // The in-process parts of a round trip: the traced op without the
        // replay work the server does not do.
        let extra_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == "query.sweep_replay")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let in_process_ms = traced_ms - extra_ns as f64 / 1e6 / ops;
        let points = count("query.sweep_points");
        let sweep_point_ms = ratio(self_ms("query.sweep"), points);
        let bisim_s =
            count("bisim.signature_s") + count("bisim.split_s") + count("bisim.quotient_s");
        let aggregations = count("engine.aggregations");
        let metrics: Vec<Metric> = vec![
            ("serve.roundtrip_us", roundtrip_ms * 1e3, "us"),
            ("serve.decode_us", per_op_ms("serve.decode") * 1e3, "us"),
            ("serve.lookup_us", per_op_ms("serve.lookup") * 1e3, "us"),
            ("serve.encode_us", per_op_ms("serve.encode") * 1e3, "us"),
            (
                "serve.transport_us",
                (roundtrip_ms - in_process_ms) * 1e3,
                "us",
            ),
            ("serve.cache_hit_ratio", self.cache_hit_ratio, "ratio"),
            ("query.evaluate_us", per_op_ms("query.evaluate") * 1e3, "us"),
            ("query.sweep_point_ms", sweep_point_ms, "ms"),
            (
                "query.sweep_residual_ms",
                if points > 0.0 {
                    sweep_point_ms - (self_ms("ctmc.rerate") + self_ms("ctmc.transient")) / points
                } else {
                    0.0
                },
                "ms",
            ),
            ("parser.parse_ms", per_op_ms("parser.parse"), "ms"),
            ("build.model_ms", per_op_ms("build.model"), "ms"),
            ("engine.aggregate_ms", per_op_ms("engine.aggregate"), "ms"),
            (
                "engine.residual_ms",
                (self_ms("engine.aggregate") - bisim_s * 1e3) / ops,
                "ms",
            ),
            (
                "engine.ctmc_states",
                ratio(count("engine.ctmc_states"), aggregations),
                "count",
            ),
            (
                "engine.ctmc_transitions",
                ratio(count("engine.ctmc_transitions"), aggregations),
                "count",
            ),
            ("ioimc.peak_states", count("ioimc.peak_states"), "count"),
            (
                "ioimc.peak_transitions",
                count("ioimc.peak_transitions"),
                "count",
            ),
            (
                "ioimc.compose_steps",
                ratio(count("ioimc.compose_steps"), aggregations),
                "count",
            ),
            (
                "bisim.signature_ms",
                count("bisim.signature_s") * 1e3 / ops,
                "ms",
            ),
            ("bisim.split_ms", count("bisim.split_s") * 1e3 / ops, "ms"),
            (
                "bisim.quotient_ms",
                count("bisim.quotient_s") * 1e3 / ops,
                "ms",
            ),
            (
                "bisim.refine_rounds",
                count("bisim.refine_rounds") / ops,
                "count",
            ),
            (
                "bisim.states_resigned",
                count("bisim.states_resigned") / ops,
                "count",
            ),
            ("ctmc.steady_ms", per_op_ms("ctmc.steady"), "ms"),
            (
                "ctmc.steady_dense_share",
                ratio(count("ctmc.steady_dense_s") * 1e3, self_ms("ctmc.steady")).min(1.0),
                "ratio",
            ),
            ("ctmc.mttf_ms", per_op_ms("ctmc.mttf"), "ms"),
            ("ctmc.transient_ms", per_op_ms("ctmc.transient"), "ms"),
            ("ctmc.dtmc_steps", count("ctmc.dtmc_steps") / ops, "count"),
            (
                "ctmc.lambda_t",
                ratio(count("ctmc.lambda_t"), count("ctmc.transient_calls")),
                "count",
            ),
            ("ctmc.rerate_ms", per_op_ms("ctmc.rerate"), "ms"),
            (
                "ctmc.poisson_hit_ratio",
                ratio(
                    count("ctmc.poisson_hits"),
                    count("ctmc.poisson_hits") + count("ctmc.poisson_misses"),
                ),
                "ratio",
            ),
            ("trace.op_ms", traced_ms, "ms"),
            ("trace.residual_ms", per_op_ms("op"), "ms"),
            (
                "trace.overhead_pct",
                (ratio(traced_ms, untraced_ms) - 1.0) * 100.0,
                "%",
            ),
        ];

        let mut text = String::new();
        let _ = writeln!(
            text,
            "traced {} ops of {} ({} failed); spans in {}",
            self.traced_ms.len(),
            self.workload.name(),
            self.failed,
            self.spans_file.display()
        );
        let _ = writeln!(
            text,
            "  end to end     wire (untraced)   replay (untraced)   replay (traced)"
        );
        let e2e = |v: &[f64]| (v.len() as f64 * 1e3 / v.iter().sum::<f64>(), median(v));
        let (w_rate, w_p50) = e2e(&self.roundtrip_ms);
        let (u_rate, u_p50) = e2e(&self.untraced_ms);
        let (t_rate, t_p50) = e2e(&self.traced_ms);
        let _ = writeln!(
            text,
            "  ops_per_s    {w_rate:>14.3} {u_rate:>19.3} {t_rate:>17.3}"
        );
        let _ = writeln!(
            text,
            "  op_p50_ms    {w_p50:>14.4} {u_p50:>19.4} {t_p50:>17.4}"
        );
        let _ = writeln!(
            text,
            "  tracing overhead: {:+.2}% of the untraced replay's mean op",
            (ratio(traced_ms, untraced_ms) - 1.0) * 100.0
        );
        let _ = writeln!(text, "  self time per op, by layer (ms):");
        let total: u64 = own.iter().sum();
        for (name, ns) in &by_name {
            let label = if *name == "op" {
                "residual (benchmark glue)"
            } else {
                name
            };
            let _ = writeln!(
                text,
                "    {label:<26} {:>12.4}  {:>5.1}%",
                *ns as f64 / 1e6 / ops,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        let wall_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let _ = writeln!(
            text,
            "    {:<26} {:>12.4}  (self times sum to {} ns of {} ns op wall time)",
            "op wall time",
            wall_ns as f64 / 1e6 / ops,
            total,
            wall_ns
        );
        for e in self.errors.iter().take(5) {
            let _ = writeln!(text, "  check failed: {e}");
        }
        Report { text, metrics }
    }
}
