//! Every call the traced replay makes into the program's public API. The
//! end-to-end runs never link against the program; the traced run
//! replays the same requests through the layers' entry points, mirroring
//! what the server does for each request, with a span around each call.
//! Renames of those entry points touch this file only.

use std::time::Instant;

use arcade::build::observer::DOWN_BIT;
use arcade::engine::{aggregate, Aggregation, EngineOptions};
use arcade::model::{validate, SystemModel};
use arcade::parser::parse_system;
use arcade::query::{EvalTrace, Measure, ParamGrid, Session, SessionStats, SweepResult};
use arcade::serve::protocol::Request;
use arcade::serve::server::session_stats_json;
use arcade::serve::{Json, Registry, PROTOCOL_VERSION};
use ctmc::measures::state_mass;
use ctmc::transient::transient_many_from_ctx;
use ctmc::{Ctmc, MeasureContext};

use crate::deck::Plan;
use crate::server::ENGINE_THREADS;
use crate::trace::Recorder;

/// The engine options `arcaded` runs with under the benchmark.
fn engine_options() -> EngineOptions {
    let mut opts = EngineOptions::new().with_threads(ENGINE_THREADS);
    opts.solver.transient.threads = ENGINE_THREADS;
    opts
}

/// What a replayed op produced: its answer rows and, for a model it
/// aggregated, the final chain's size.
pub struct Replayed {
    pub rows: Vec<Vec<f64>>,
    pub chain: Option<(usize, usize)>,
}

/// In-process stand-in for the server: a registry holding the same
/// resident models.
pub struct Replayer {
    opts: EngineOptions,
    registry: Registry,
}

/// The time grids of a measure batch, split the way the session batches
/// them: point unavailability, first passage with repair, and first
/// passage without repair.
#[derive(Default)]
struct Grids {
    unavail: Vec<f64>,
    fp_repair: Vec<f64>,
    fp_norepair: Vec<f64>,
    needs_avail: bool,
}

fn grids(measures: &[Measure]) -> Grids {
    let mut g = Grids::default();
    for m in measures {
        match m {
            Measure::PointAvailability(t) | Measure::PointUnavailability(t) => {
                g.unavail.push(*t);
                g.needs_avail = true;
            }
            Measure::UnreliabilityWithRepair(t) => {
                g.fp_repair.push(*t);
                g.needs_avail = true;
            }
            Measure::Reliability(t) | Measure::Unreliability(t) => g.fp_norepair.push(*t),
            _ => g.needs_avail = true,
        }
    }
    g
}

impl Replayer {
    pub fn new() -> Self {
        let opts = engine_options();
        Replayer {
            registry: Registry::new(opts.clone()),
            opts,
        }
    }

    /// Loads the plan's resident models and answers its warm requests,
    /// as the server's set-up does.
    pub fn set_up(&self, plan: &Plan) -> Result<(), String> {
        let off = Recorder::new(false);
        for (name, text) in &plan.resident {
            self.registry.load(name, text).map_err(|e| e.to_string())?;
        }
        for op in &plan.warm {
            self.replay(&off, &op.lines())?;
        }
        Ok(())
    }

    /// Replays one op's request lines.
    pub fn replay(&self, rec: &Recorder, lines: &[String]) -> Result<Replayed, String> {
        let requests = rec.span("serve.decode", || {
            lines
                .iter()
                .map(|l| {
                    let v = Json::parse(l.trim_end()).map_err(|e| e.to_string())?;
                    Request::from_json(&v).map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<Request>, String>>()
        })?;
        let mut loaded = None;
        let mut out = None;
        for request in requests {
            out = match request {
                Request::Load { source, .. } => {
                    loaded = Some(source);
                    None
                }
                Request::Query {
                    model, measures, ..
                } => Some(match loaded.take() {
                    Some(source) => self.cold_query(rec, &model, &source, &measures)?,
                    None => self.warm_query(rec, &model, &measures)?,
                }),
                Request::Sweep {
                    model,
                    measures,
                    grid,
                    ..
                } => Some(self.sweep(rec, &model, &measures, &grid)?),
                other => return Err(format!("cannot replay {other:?}")),
            };
        }
        out.ok_or_else(|| "op has no query".to_owned())
    }

    /// A freshly loaded model: parse, build and aggregate each needed
    /// configuration, then solve — the work a cold session does.
    fn cold_query(
        &self,
        rec: &Recorder,
        model: &str,
        source: &str,
        measures: &[Measure],
    ) -> Result<Replayed, String> {
        let started = Instant::now();
        let def = rec
            .span("parser.parse", || parse_system(source))
            .map_err(|e| e.to_string())?;
        rec.span("build.model", || validate(&def))
            .map_err(|e| e.to_string())?;
        let g = grids(measures);
        let avail = if g.needs_avail {
            Some(self.aggregate(rec, || def.clone())?)
        } else {
            None
        };
        let norepair = if g.fp_norepair.is_empty() {
            None
        } else {
            Some(self.aggregate(rec, || def.without_repair())?)
        };
        let build_us = micros(started);
        let solve_started = Instant::now();
        let ctx = MeasureContext::new();
        let avail_down: Vec<u32> = avail
            .as_ref()
            .map(|a| a.ctmc.states_with_label(DOWN_BIT).collect())
            .unwrap_or_default();
        let unavail = if g.unavail.is_empty() {
            Vec::new()
        } else {
            self.curve(rec, chain_of(&avail)?, &avail_down, &g.unavail, &ctx)
        };
        let fp_repair = if g.fp_repair.is_empty() {
            Vec::new()
        } else {
            self.first_passage(rec, chain_of(&avail)?, &avail_down, &g.fp_repair, &ctx)
        };
        let fp_norepair = if g.fp_norepair.is_empty() {
            Vec::new()
        } else {
            let c = chain_of(&norepair)?;
            let down: Vec<u32> = c.states_with_label(DOWN_BIT).collect();
            self.first_passage(rec, c, &down, &g.fp_norepair, &ctx)
        };
        let mut steady = None;
        let (mut ui, mut ri, mut ni) = (0, 0, 0);
        let mut values = Vec::with_capacity(measures.len());
        for m in measures {
            values.push(match m {
                Measure::SteadyStateAvailability | Measure::SteadyStateUnavailability => {
                    let down_mass = match steady {
                        Some(x) => x,
                        None => {
                            let pi = self.steady(rec, chain_of(&avail)?);
                            let x = state_mass(&avail_down, &pi);
                            steady = Some(x);
                            x
                        }
                    };
                    if matches!(m, Measure::SteadyStateAvailability) {
                        1.0 - down_mass
                    } else {
                        down_mass
                    }
                }
                Measure::PointAvailability(_) | Measure::PointUnavailability(_) => {
                    ui += 1;
                    if matches!(m, Measure::PointAvailability(_)) {
                        1.0 - unavail[ui - 1]
                    } else {
                        unavail[ui - 1]
                    }
                }
                Measure::UnreliabilityWithRepair(_) => {
                    ri += 1;
                    fp_repair[ri - 1]
                }
                Measure::Reliability(_) | Measure::Unreliability(_) => {
                    ni += 1;
                    if matches!(m, Measure::Reliability(_)) {
                        1.0 - fp_norepair[ni - 1]
                    } else {
                        fp_norepair[ni - 1]
                    }
                }
                Measure::Mttf => {
                    let c = chain_of(&avail)?;
                    if avail_down.is_empty() {
                        f64::INFINITY
                    } else {
                        rec.span("ctmc.mttf", || {
                            ctmc::absorbing::mean_time_to_absorption_with(
                                c,
                                &avail_down,
                                &self.opts.solver,
                            )
                        })
                    }
                }
                other => return Err(format!("the benchmark does not send {other:?}")),
            });
        }
        let evaluate_us = micros(solve_started);
        rec.add("ctmc.poisson_hits", ctx.poisson.hits() as f64);
        rec.add("ctmc.poisson_misses", ctx.poisson.misses() as f64);
        rec.add("ctmc.dtmc_steps", ctx.counters.dtmc_steps() as f64);
        // The fresh session's counters, as the server would report them.
        let aggs: Vec<&Aggregation> = avail.iter().chain(&norepair).collect();
        let refine_us = |secs: fn(&Aggregation) -> f64| -> u64 {
            aggs.iter().map(|a| (secs(a) * 1e6) as u64).sum()
        };
        let stats = SessionStats {
            aggregations_built: aggs.len() as u32,
            absorbing_built: u32::from(!g.fp_repair.is_empty())
                + u32::from(!g.fp_norepair.is_empty()),
            steady_solves: u32::from(steady.is_some()),
            poisson_hits: ctx.poisson.hits(),
            poisson_misses: ctx.poisson.misses(),
            poisson_evictions: 0,
            dtmc_steps: ctx.counters.dtmc_steps(),
            sweeps: 0,
            aggregation_us: build_us as u64,
            signature_us: refine_us(|a| a.refine.signature_secs),
            split_us: refine_us(|a| a.refine.split_secs),
            quotient_us: refine_us(|a| a.refine.quotient_secs),
            refine_rounds: aggs.iter().map(|a| a.refine.refine_rounds).sum(),
            states_resigned: aggs.iter().map(|a| a.refine.states_resigned).sum(),
        };
        let served = Served {
            trace: EvalTrace {
                built: stats.aggregations_built,
                waited: 0,
            },
            build_us,
            evaluate_us,
        };
        rec.span("serve.encode", || {
            encode_query(model, &values, &served, &stats)
        });
        Ok(Replayed {
            chain: avail
                .as_ref()
                .map(|a| (a.ctmc_stats.states, a.ctmc_stats.transitions())),
            rows: vec![values],
        })
    }

    /// Builds one configuration's automata and aggregates them.
    fn aggregate(
        &self,
        rec: &Recorder,
        def: impl FnOnce() -> arcade::ast::SystemDef,
    ) -> Result<Aggregation, String> {
        let model = rec
            .span("build.model", || SystemModel::build(&def()))
            .map_err(|e| e.to_string())?;
        let agg = rec
            .span("engine.aggregate", || aggregate(&model, &self.opts))
            .map_err(|e| e.to_string())?;
        rec.add("engine.aggregations", 1.0);
        rec.add("engine.ctmc_states", agg.ctmc_stats.states as f64);
        rec.add(
            "engine.ctmc_transitions",
            agg.ctmc_stats.transitions() as f64,
        );
        rec.max("ioimc.peak_states", agg.largest_intermediate.states as f64);
        rec.max(
            "ioimc.peak_transitions",
            agg.largest_intermediate.transitions() as f64,
        );
        rec.add("ioimc.compose_steps", agg.steps.len() as f64);
        let r = &agg.refine;
        rec.add("bisim.signature_s", r.signature_secs);
        rec.add("bisim.split_s", r.split_secs);
        rec.add("bisim.quotient_s", r.quotient_secs);
        rec.add("bisim.refine_rounds", r.refine_rounds as f64);
        rec.add("bisim.states_resigned", r.states_resigned as f64);
        Ok(agg)
    }

    fn steady(&self, rec: &Recorder, chain: &Ctmc) -> Vec<f64> {
        let t0 = Instant::now();
        let pi = rec.span("ctmc.steady", || {
            ctmc::steady::steady_state_with(chain, &self.opts.solver)
        });
        if chain.num_states() <= self.opts.solver.dense_limit {
            rec.add("ctmc.steady_dense_s", t0.elapsed().as_secs_f64());
        }
        pi
    }

    /// Point unavailability over a grid: one batched transient solve.
    fn curve(
        &self,
        rec: &Recorder,
        chain: &Ctmc,
        down: &[u32],
        ts: &[f64],
        ctx: &MeasureContext,
    ) -> Vec<f64> {
        self.count_transient(rec, chain, ts);
        rec.span("ctmc.transient", || {
            transient_many_from_ctx(
                chain,
                &chain.initial_distribution(),
                ts,
                &self.opts.solver.transient,
                ctx,
            )
            .iter()
            .map(|pi| state_mass(down, pi))
            .collect()
        })
    }

    /// First-passage probabilities over a grid: the absorbing transform
    /// and one batched transient solve.
    fn first_passage(
        &self,
        rec: &Recorder,
        chain: &Ctmc,
        down: &[u32],
        ts: &[f64],
        ctx: &MeasureContext,
    ) -> Vec<f64> {
        if down.is_empty() {
            return vec![0.0; ts.len()];
        }
        rec.span("ctmc.transient", || {
            let absorbing = chain.make_absorbing(down.iter().copied());
            self.count_transient(rec, &absorbing, ts);
            transient_many_from_ctx(
                &absorbing,
                &absorbing.initial_distribution(),
                ts,
                &self.opts.solver.transient,
                ctx,
            )
            .iter()
            .map(|pi| state_mass(down, pi))
            .collect()
        })
    }

    /// Uniformization's cost driver: the largest exit rate times the
    /// horizon.
    fn count_transient(&self, rec: &Recorder, chain: &Ctmc, ts: &[f64]) {
        let horizon = ts.iter().copied().fold(0.0, f64::max);
        rec.add("ctmc.transient_calls", 1.0);
        rec.add("ctmc.lambda_t", chain.max_exit_rate() * horizon);
    }

    fn lookup(&self, rec: &Recorder, model: &str) -> Result<std::sync::Arc<Session>, String> {
        rec.span("serve.lookup", || self.registry.session(model))
            .map_err(|e| e.to_string())
    }

    /// Adds the session's solver-work counters since `before`.
    fn count_session(rec: &Recorder, session: &Session, before: &arcade::query::SessionStats) {
        let after = session.stats();
        rec.add(
            "ctmc.poisson_hits",
            (after.poisson_hits - before.poisson_hits) as f64,
        );
        rec.add(
            "ctmc.poisson_misses",
            (after.poisson_misses - before.poisson_misses) as f64,
        );
        rec.add(
            "ctmc.dtmc_steps",
            (after.dtmc_steps - before.dtmc_steps) as f64,
        );
    }

    /// A query against a resident model: a warm session evaluation.
    fn warm_query(
        &self,
        rec: &Recorder,
        model: &str,
        measures: &[Measure],
    ) -> Result<Replayed, String> {
        let session = self.lookup(rec, model)?;
        let before = session.stats();
        let (values, served) = rec
            .span("query.evaluate", || {
                let started = Instant::now();
                let trace = session.prefetch_measures(measures)?;
                let build_us = micros(started);
                let evaluated = Instant::now();
                let values = session.evaluate(measures)?;
                let served = Served {
                    trace,
                    build_us,
                    evaluate_us: micros(evaluated),
                };
                Ok::<_, arcade::ArcadeError>((values, served))
            })
            .map_err(|e| e.to_string())?;
        Self::count_session(rec, &session, &before);
        rec.span("serve.encode", || {
            encode_query(model, &values, &served, &session.stats())
        });
        Ok(Replayed {
            rows: vec![values],
            chain: None,
        })
    }

    /// A sweep over a resident parametric model, followed by a direct
    /// replay of each point's re-rate and transient solves, which splits
    /// the per-point cost.
    fn sweep(
        &self,
        rec: &Recorder,
        model: &str,
        measures: &[Measure],
        grid: &ParamGrid,
    ) -> Result<Replayed, String> {
        let session = self.lookup(rec, model)?;
        let before = session.stats();
        let (result, served) = rec
            .span("query.sweep", || {
                let started = Instant::now();
                let trace = session.prefetch_measures(measures)?;
                let build_us = micros(started);
                let swept = Instant::now();
                let result = session.sweep(measures, grid)?;
                let served = Served {
                    trace,
                    build_us,
                    evaluate_us: micros(swept),
                };
                Ok::<_, arcade::ArcadeError>((result, served))
            })
            .map_err(|e| e.to_string())?;
        Self::count_session(rec, &session, &before);
        let points = grid.points();
        rec.add("query.sweep_points", points.len() as f64);
        let agg = session.availability_model().map_err(|e| e.to_string())?;
        let g = grids(measures);
        let ctx = MeasureContext::new();
        // Work the server does not do: kept under one span, so that the
        // transport estimate can leave it out.
        rec.span("query.sweep_replay", || {
            for point in &points {
                let chain = rec
                    .span("ctmc.rerate", || agg.ctmc.rerate(point))
                    .map_err(|e| e.to_string())?;
                let down: Vec<u32> = chain.states_with_label(DOWN_BIT).collect();
                if !g.unavail.is_empty() {
                    self.curve(rec, &chain, &down, &g.unavail, &ctx);
                }
                if !g.fp_repair.is_empty() {
                    self.first_passage(rec, &chain, &down, &g.fp_repair, &ctx);
                }
            }
            Ok::<(), String>(())
        })?;
        rec.add("ctmc.poisson_hits", ctx.poisson.hits() as f64);
        rec.add("ctmc.poisson_misses", ctx.poisson.misses() as f64);
        rec.add("ctmc.dtmc_steps", ctx.counters.dtmc_steps() as f64);
        rec.span("serve.encode", || {
            encode_sweep(model, &result, &served, &session.stats())
        });
        Ok(Replayed {
            rows: result.values,
            chain: None,
        })
    }
}

fn chain_of(a: &Option<Aggregation>) -> Result<&Ctmc, String> {
    a.as_ref()
        .map(|a| &a.ctmc)
        .ok_or_else(|| "configuration was not aggregated".to_owned())
}

/// Microseconds since `t0`, as the server reports its timings.
fn micros(t0: Instant) -> f64 {
    t0.elapsed().as_micros() as f64
}

/// How a request was served, which the server reports beside its answer:
/// what it built, and how long building and evaluating took.
struct Served {
    trace: EvalTrace,
    build_us: f64,
    evaluate_us: f64,
}

/// A success response with the fields the server renders: its envelope,
/// then `fields`, then the session's counters and the request's timings.
fn encode(fields: Vec<(&'static str, Json)>, served: &Served, stats: &SessionStats) -> String {
    let mut all = vec![
        ("ok", Json::Bool(true)),
        ("schema_version", Json::Num(f64::from(PROTOCOL_VERSION))),
    ];
    all.extend(fields);
    all.push(("session", session_stats_json(stats)));
    all.push((
        "timings",
        Json::obj([
            ("build_us", Json::Num(served.build_us)),
            ("evaluate_us", Json::Num(served.evaluate_us)),
        ]),
    ));
    Json::obj(all).to_string()
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

fn cold(trace: &EvalTrace) -> Json {
    Json::Bool(trace.built > 0 || trace.waited > 0)
}

/// A query response as the server renders it.
fn encode_query(model: &str, values: &[f64], served: &Served, stats: &SessionStats) -> String {
    let trace = &served.trace;
    let fields = vec![
        ("model", Json::str(model)),
        ("values", numbers(values)),
        ("cold", cold(trace)),
        (
            "trace",
            Json::obj([
                ("built", Json::Num(f64::from(trace.built))),
                ("waited", Json::Num(f64::from(trace.waited))),
            ]),
        ),
    ];
    encode(fields, served, stats)
}

/// A sweep response as the server renders it.
fn encode_sweep(
    model: &str,
    result: &SweepResult,
    served: &Served,
    stats: &SessionStats,
) -> String {
    let rows = |rows: &[Vec<f64>]| Json::Arr(rows.iter().map(|r| numbers(r)).collect());
    let sensitivities = result
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
        .collect();
    let fields = vec![
        ("model", Json::str(model)),
        (
            "params",
            Json::Arr(result.names.iter().map(Json::str).collect()),
        ),
        ("points", rows(&result.points)),
        ("values", rows(&result.values)),
        ("sensitivities", Json::Arr(sensitivities)),
        ("cold", cold(&served.trace)),
    ];
    encode(fields, served, stats)
}
