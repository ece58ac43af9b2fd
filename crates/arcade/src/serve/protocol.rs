//! The `arcaded` wire protocol: newline-delimited JSON requests.
//!
//! One request is one JSON object on one line; the server answers with
//! exactly one JSON object on one line. Connections are persistent — a
//! client may send any number of requests back to back.
//!
//! # Requests
//!
//! ```text
//! {"cmd":"query","model":"dds","measures":["unavailability"],"times":[10,20]}
//! {"cmd":"sweep","model":"dds_parametric","measures":["mttf"],
//!  "params":[{"name":"disk_rate","values":[1e-4,2e-4]}]}
//! {"cmd":"stats"}
//! {"cmd":"list"}
//! {"cmd":"load","name":"mine","source":"<model in Arcade textual syntax>"}
//! {"cmd":"ping"}
//! {"cmd":"shutdown"}
//! ```
//!
//! `"cmd"` defaults to `"query"` when omitted and a `"model"` field is
//! present. A query names a model from the registry (a built-in family
//! like `dds` / `rcs_scaled(2)` or a previously `load`-ed model) and a
//! measure batch. Measures are either plain strings — time-dependent
//! kinds are then **crossed with the request's `"times"` grid** — or
//! objects `{"kind":"reliability","t":100}` carrying their own time
//! point:
//!
//! | kind                          | timed | evaluates                                  |
//! |-------------------------------|-------|--------------------------------------------|
//! | `steady_state_availability`   | no    | [`Measure::SteadyStateAvailability`]       |
//! | `steady_state_unavailability` | no    | [`Measure::SteadyStateUnavailability`]     |
//! | `mttf`                        | no    | [`Measure::Mttf`]                          |
//! | `availability`                | yes   | [`Measure::PointAvailability`]             |
//! | `unavailability`              | yes   | [`Measure::PointUnavailability`]           |
//! | `reliability`                 | yes   | [`Measure::Reliability`]                   |
//! | `unreliability`               | yes   | [`Measure::Unreliability`]                 |
//! | `unreliability_with_repair`   | yes   | [`Measure::UnreliabilityWithRepair`]       |
//! | `interval_availability`       | yes   | [`Measure::IntervalAvailability`]          |
//!
//! (The CSL `BoundedUntil` measure needs a formula encoding and is not
//! exposed over the wire.)
//!
//! # Deadlines and compute budgets
//!
//! A `query` or `sweep` may carry two optional containment fields:
//!
//! * `"timeout_ms"` — a wall-clock deadline for the whole evaluation
//!   (build + solve). An exceeded deadline frees the worker and answers
//!   with the structured error code `deadline`.
//! * `"max_states"` — a ceiling on intermediate model size during
//!   aggregation for this request; exceeding it answers `budget`.
//!
//! Both ride a cooperative [`ioimc::budget::Budget`] threaded through the
//! aggregation and solver loops — the abort is prompt (checks sit at
//! round/segment boundaries) but not preemptive, and a half-built
//! aggregation is **not** cached, so a later request with a larger budget
//! starts fresh.
//!
//! # Sweeps
//!
//! A `sweep` request evaluates the same measure batch at every point of a
//! parameter grid over a **parametric** model (one whose definition
//! declares rate parameters, e.g. the built-ins `dds_parametric` /
//! `dds_scaled_parametric(n)` / `rcs_scaled_parametric(k)`). The model is
//! aggregated once and its windowed transient operators are built once;
//! every point refills their rates (or re-rates the cached quotient CTMC
//! where a solve needs the chain) and solves (see
//! [`crate::query::Session::sweep`]). The grid comes in one of
//! two forms:
//!
//! * **cartesian** — `"params"` is an array of
//!   `{"name":"...","values":[...]}` objects; the points are the
//!   cartesian product (last axis fastest), and finite-difference
//!   sensitivities are reported;
//! * **explicit** — `"params"` is an array of name strings and
//!   `"points"` an array of value rows (one value per name each); no
//!   sensitivities.
//!
//! The response carries `"params"` (names), `"points"`, `"values"` (one
//! row of measure values per point, in measure-expansion order) and
//! `"sensitivities"` (`[point][measure][param]`, `null` where no
//! neighbor structure exists).
//!
//! # Responses
//!
//! Success: `{"ok":true,...}` with command-specific payload; a query
//! answers `{"ok":true,"model":...,"values":[...],"cold":bool,
//! "session":{...SessionStats...},"timings":{"build_us":...,"evaluate_us":...}}`
//! with `values` in measure-expansion order (object measures in place,
//! string measures expanded across the sorted request grid in the order
//! given). Failure: `{"ok":false,"error":{"code":...,"message":...}}`
//! where `code` is one of `bad_json`, `bad_request`, `unknown_model`,
//! `model_error`, `oversized`, `shutting_down`, or one of the fault
//! containment codes: `deadline` (wall-clock deadline exceeded), `budget`
//! (state/transition ceiling exceeded or evaluation cancelled), and
//! `internal_panic` (a panic was caught and contained; the request may be
//! retried — see [`super::client::Client::expect_ok_retry`]).

use std::fmt;

use super::json::Json;
use crate::query::{Measure, ParamGrid};

/// A structured protocol error: a machine-readable code plus a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable machine-readable error class.
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl ProtoError {
    /// A `bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            code: "bad_request",
            message: message.into(),
        }
    }

    /// An error with an explicit code.
    pub fn with_code(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// The error as a response line payload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ok", Json::Bool(false)),
            (
                "error",
                Json::obj([
                    ("code", Json::str(self.code)),
                    ("message", Json::str(self.message.clone())),
                ]),
            ),
        ])
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Per-request containment limits carried by `query`/`sweep` requests
/// (see the module docs, *Deadlines and compute budgets*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits {
    /// Wall-clock deadline for the whole evaluation, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Ceiling on intermediate model size during aggregation.
    pub max_states: Option<u64>,
}

impl Limits {
    /// Whether any limit is set (i.e. a per-request budget is needed).
    pub fn is_some(&self) -> bool {
        self.timeout_ms.is_some() || self.max_states.is_some()
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate a measure batch against a named model.
    Query {
        /// Registry name of the model.
        model: String,
        /// The expanded measure batch (strings already crossed with the
        /// request grid).
        measures: Vec<Measure>,
        /// Per-request containment limits (deadline, state ceiling).
        limits: Limits,
    },
    /// Evaluate a measure batch at every point of a parameter grid over
    /// a parametric model.
    Sweep {
        /// Registry name of the model (must declare rate parameters).
        model: String,
        /// The expanded measure batch, as in a query.
        measures: Vec<Measure>,
        /// The parameter grid to sweep.
        grid: ParamGrid,
        /// Per-request containment limits (deadline, state ceiling).
        limits: Limits,
    },
    /// Server + per-model counters.
    Stats,
    /// Names the registry can currently serve.
    List,
    /// Parse `source` (Arcade textual syntax) and register it as `name`.
    Load {
        /// Registry name for the model.
        name: String,
        /// Model text.
        source: String,
    },
    /// Liveness check.
    Ping,
    /// Ask the daemon to shut down gracefully.
    Shutdown,
}

impl Request {
    /// Parses one request line (already JSON-decoded).
    ///
    /// # Errors
    ///
    /// [`ProtoError`] with code `bad_request` on any malformed request.
    pub fn from_json(v: &Json) -> Result<Request, ProtoError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(ProtoError::bad_request("request must be a JSON object"));
        }
        let cmd = match v.get("cmd") {
            None if v.get("model").is_some() => "query",
            None => {
                return Err(ProtoError::bad_request(
                    "missing `cmd` (and no `model` to default to a query)",
                ))
            }
            Some(c) => c
                .as_str()
                .ok_or_else(|| ProtoError::bad_request("`cmd` must be a string"))?,
        };
        match cmd {
            "query" => {
                let model = v
                    .get("model")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad_request("query needs a string `model`"))?;
                let measures = expand_measures(v)?;
                let limits = parse_limits(v)?;
                Ok(Request::Query {
                    model: model.to_owned(),
                    measures,
                    limits,
                })
            }
            "sweep" => {
                let model = v
                    .get("model")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad_request("sweep needs a string `model`"))?;
                let measures = expand_measures(v)?;
                let grid = parse_grid(v)?;
                let limits = parse_limits(v)?;
                Ok(Request::Sweep {
                    model: model.to_owned(),
                    measures,
                    grid,
                    limits,
                })
            }
            "stats" => Ok(Request::Stats),
            "list" => Ok(Request::List),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "load" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad_request("load needs a string `name`"))?;
                let source = v
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad_request("load needs a string `source`"))?;
                if name.is_empty() {
                    return Err(ProtoError::bad_request("load `name` must be non-empty"));
                }
                Ok(Request::Load {
                    name: name.to_owned(),
                    source: source.to_owned(),
                })
            }
            other => Err(ProtoError::bad_request(format!(
                "unknown command `{other}`"
            ))),
        }
    }
}

/// Parses the optional `"timeout_ms"` / `"max_states"` containment
/// fields of a `query`/`sweep` object.
///
/// # Errors
///
/// [`ProtoError`] (`bad_request`) when a field is present but not a
/// positive integer.
pub fn parse_limits(v: &Json) -> Result<Limits, ProtoError> {
    let positive_int = |field: &str| -> Result<Option<u64>, ProtoError> {
        match v.get(field) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => x
                .as_f64()
                .filter(|x| x.is_finite() && *x >= 1.0 && x.fract() == 0.0)
                .map(|x| Some(x as u64))
                .ok_or_else(|| {
                    ProtoError::bad_request(format!("`{field}` must be a positive integer"))
                }),
        }
    };
    Ok(Limits {
        timeout_ms: positive_int("timeout_ms")?,
        max_states: positive_int("max_states")?,
    })
}

/// Expands the `"measures"` array of a query object against its
/// `"times"` grid into concrete [`Measure`]s, in wire order. Exposed so
/// clients (the smoke client, the load generator) can reproduce the exact
/// batch the server evaluates and cross-check values bitwise.
///
/// # Errors
///
/// [`ProtoError`] (`bad_request`) on an empty/missing batch, an unknown
/// kind, a timed kind without times, or a non-finite/negative time.
pub fn expand_measures(v: &Json) -> Result<Vec<Measure>, ProtoError> {
    let specs = v
        .get("measures")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::bad_request("query needs a `measures` array"))?;
    if specs.is_empty() {
        return Err(ProtoError::bad_request("`measures` must be non-empty"));
    }
    let times: Vec<f64> = match v.get("times") {
        None => Vec::new(),
        Some(ts) => {
            let arr = ts
                .as_arr()
                .ok_or_else(|| ProtoError::bad_request("`times` must be an array"))?;
            arr.iter()
                .map(|t| {
                    t.as_f64()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| {
                            ProtoError::bad_request(
                                "`times` entries must be non-negative finite numbers",
                            )
                        })
                })
                .collect::<Result<_, _>>()?
        }
    };
    let mut out = Vec::new();
    for spec in specs {
        match spec {
            Json::Str(kind) => {
                if let Some(m) = timeless_measure(kind) {
                    out.push(m);
                } else if is_timed_kind(kind) {
                    if times.is_empty() {
                        return Err(ProtoError::bad_request(format!(
                            "measure `{kind}` needs a non-empty `times` grid"
                        )));
                    }
                    for &t in &times {
                        out.push(timed_measure(kind, t).expect("kind checked above"));
                    }
                } else {
                    return Err(ProtoError::bad_request(format!(
                        "unknown measure kind `{kind}`"
                    )));
                }
            }
            Json::Obj(_) => {
                let kind = spec
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ProtoError::bad_request("measure object needs `kind`"))?;
                if let Some(m) = timeless_measure(kind) {
                    out.push(m);
                } else if is_timed_kind(kind) {
                    let t = spec
                        .get("t")
                        .and_then(Json::as_f64)
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| {
                            ProtoError::bad_request(format!(
                                "measure `{kind}` needs a non-negative finite `t`"
                            ))
                        })?;
                    out.push(timed_measure(kind, t).expect("kind checked above"));
                } else {
                    return Err(ProtoError::bad_request(format!(
                        "unknown measure kind `{kind}`"
                    )));
                }
            }
            _ => {
                return Err(ProtoError::bad_request(
                    "measures must be strings or objects",
                ))
            }
        }
    }
    Ok(out)
}

/// Parses the parameter grid of a `sweep` request: `"params"` as an array
/// of `{"name","values"}` objects (cartesian axes) or of name strings
/// paired with a `"points"` array of value rows (explicit list).
///
/// # Errors
///
/// [`ProtoError`] (`bad_request`) on a missing/empty/mixed `params`
/// array, a missing `points` array for the string form, or any value
/// that is not positive and finite.
pub fn parse_grid(v: &Json) -> Result<ParamGrid, ProtoError> {
    let params = v
        .get("params")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::bad_request("sweep needs a `params` array"))?;
    if params.is_empty() {
        return Err(ProtoError::bad_request("`params` must be non-empty"));
    }
    let value_of = |x: &Json| {
        x.as_f64()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| {
                ProtoError::bad_request("parameter values must be positive finite numbers")
            })
    };
    if params.iter().all(|p| matches!(p, Json::Obj(_))) {
        let mut axes: Vec<(String, Vec<f64>)> = Vec::with_capacity(params.len());
        for p in params {
            let name = p
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::bad_request("params entry needs a string `name`"))?;
            let values = p
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::bad_request("params entry needs a `values` array"))?;
            if values.is_empty() {
                return Err(ProtoError::bad_request(format!(
                    "parameter `{name}`: `values` must be non-empty"
                )));
            }
            let values = values.iter().map(value_of).collect::<Result<Vec<_>, _>>()?;
            axes.push((name.to_owned(), values));
        }
        return Ok(ParamGrid::cartesian(axes));
    }
    if params.iter().all(|p| matches!(p, Json::Str(_))) {
        let names: Vec<String> = params
            .iter()
            .filter_map(Json::as_str)
            .map(str::to_owned)
            .collect();
        let rows = v.get("points").and_then(Json::as_arr).ok_or_else(|| {
            ProtoError::bad_request("string `params` need a `points` array of value rows")
        })?;
        if rows.is_empty() {
            return Err(ProtoError::bad_request("`points` must be non-empty"));
        }
        let mut points = Vec::with_capacity(rows.len());
        for row in rows {
            let row = row
                .as_arr()
                .ok_or_else(|| ProtoError::bad_request("each point must be an array of values"))?;
            if row.len() != names.len() {
                return Err(ProtoError::bad_request(format!(
                    "each point needs {} values (one per parameter), got {}",
                    names.len(),
                    row.len()
                )));
            }
            points.push(row.iter().map(value_of).collect::<Result<Vec<_>, _>>()?);
        }
        return Ok(ParamGrid::points_list(names, points));
    }
    Err(ProtoError::bad_request(
        "`params` must be all objects (cartesian axes) or all strings (with `points`)",
    ))
}

fn timeless_measure(kind: &str) -> Option<Measure> {
    match kind {
        "steady_state_availability" => Some(Measure::SteadyStateAvailability),
        "steady_state_unavailability" => Some(Measure::SteadyStateUnavailability),
        "mttf" => Some(Measure::Mttf),
        _ => None,
    }
}

fn is_timed_kind(kind: &str) -> bool {
    matches!(
        kind,
        "availability"
            | "unavailability"
            | "reliability"
            | "unreliability"
            | "unreliability_with_repair"
            | "interval_availability"
    )
}

fn timed_measure(kind: &str, t: f64) -> Option<Measure> {
    match kind {
        "availability" => Some(Measure::PointAvailability(t)),
        "unavailability" => Some(Measure::PointUnavailability(t)),
        "reliability" => Some(Measure::Reliability(t)),
        "unreliability" => Some(Measure::Unreliability(t)),
        "unreliability_with_repair" => Some(Measure::UnreliabilityWithRepair(t)),
        "interval_availability" => Some(Measure::IntervalAvailability(t)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Request, ProtoError> {
        Request::from_json(&Json::parse(line).expect("test input is valid JSON"))
    }

    #[test]
    fn query_expands_strings_over_grid() {
        let r = parse(
            r#"{"model":"dds","measures":["mttf","unavailability","reliability"],"times":[10,20]}"#,
        )
        .unwrap();
        let Request::Query {
            model,
            measures,
            limits,
        } = r
        else {
            panic!("not a query")
        };
        assert_eq!(limits, Limits::default());
        assert_eq!(model, "dds");
        assert_eq!(
            measures,
            vec![
                Measure::Mttf,
                Measure::PointUnavailability(10.0),
                Measure::PointUnavailability(20.0),
                Measure::Reliability(10.0),
                Measure::Reliability(20.0),
            ]
        );
    }

    #[test]
    fn object_measures_carry_their_own_time() {
        let r = parse(
            r#"{"cmd":"query","model":"m","measures":[{"kind":"reliability","t":5},"steady_state_availability"]}"#,
        )
        .unwrap();
        let Request::Query { measures, .. } = r else {
            panic!()
        };
        assert_eq!(
            measures,
            vec![Measure::Reliability(5.0), Measure::SteadyStateAvailability]
        );
    }

    #[test]
    fn rejects_bad_queries() {
        for (line, needle) in [
            (r#"{"cmd":"query"}"#, "model"),
            (r#"{"model":"m"}"#, "measures"),
            (r#"{"model":"m","measures":[]}"#, "non-empty"),
            (r#"{"model":"m","measures":["nope"]}"#, "unknown measure"),
            (
                r#"{"model":"m","measures":["reliability"]}"#,
                "needs a non-empty `times`",
            ),
            (
                r#"{"model":"m","measures":["reliability"],"times":[-1]}"#,
                "non-negative",
            ),
            (
                r#"{"model":"m","measures":[{"kind":"reliability"}]}"#,
                "`t`",
            ),
            (r#"{"model":"m","measures":[42]}"#, "strings or objects"),
            (r#"{"cmd":"load","name":"x"}"#, "source"),
            (r#"{"cmd":"load","name":"","source":"s"}"#, "non-empty"),
            (r#"{"cmd":"frobnicate"}"#, "unknown command"),
            (r#"{}"#, "missing `cmd`"),
            (r#"[1,2]"#, "object"),
        ] {
            let e = parse(line).unwrap_err();
            assert_eq!(e.code, "bad_request", "{line}");
            assert!(e.message.contains(needle), "{line}: {}", e.message);
        }
    }

    #[test]
    fn sweep_parses_cartesian_and_explicit_grids() {
        let r = parse(
            r#"{"cmd":"sweep","model":"dds_parametric","measures":["mttf"],
                "params":[{"name":"disk_rate","values":[1e-4,2e-4]},
                          {"name":"repair_rate","values":[0.5]}]}"#,
        )
        .unwrap();
        let Request::Sweep {
            model,
            measures,
            grid,
            ..
        } = r
        else {
            panic!("not a sweep")
        };
        assert_eq!(model, "dds_parametric");
        assert_eq!(measures, vec![Measure::Mttf]);
        assert_eq!(grid.names(), ["disk_rate", "repair_rate"]);
        assert_eq!(
            grid.points(),
            vec![vec![1e-4, 0.5], vec![2e-4, 0.5]],
            "cartesian product, last axis fastest"
        );

        let r = parse(
            r#"{"cmd":"sweep","model":"m","measures":["mttf"],
                "params":["a","b"],"points":[[0.1,0.2],[0.3,0.4]]}"#,
        )
        .unwrap();
        let Request::Sweep { grid, .. } = r else {
            panic!("not a sweep")
        };
        assert_eq!(grid.names(), ["a", "b"]);
        assert_eq!(grid.points(), vec![vec![0.1, 0.2], vec![0.3, 0.4]]);
    }

    #[test]
    fn sweep_rejects_bad_grids() {
        for (line, needle) in [
            (
                r#"{"cmd":"sweep","measures":["mttf"],"params":[]}"#,
                "model",
            ),
            (
                r#"{"cmd":"sweep","model":"m","measures":["mttf"]}"#,
                "`params` array",
            ),
            (
                r#"{"cmd":"sweep","model":"m","measures":["mttf"],"params":[]}"#,
                "non-empty",
            ),
            (
                r#"{"cmd":"sweep","model":"m","measures":["mttf"],"params":[{"name":"a","values":[]}]}"#,
                "non-empty",
            ),
            (
                r#"{"cmd":"sweep","model":"m","measures":["mttf"],"params":[{"name":"a","values":[-1]}]}"#,
                "positive",
            ),
            (
                r#"{"cmd":"sweep","model":"m","measures":["mttf"],"params":["a"]}"#,
                "`points`",
            ),
            (
                r#"{"cmd":"sweep","model":"m","measures":["mttf"],"params":["a","b"],"points":[[0.1]]}"#,
                "one per parameter",
            ),
            (
                r#"{"cmd":"sweep","model":"m","measures":["mttf"],"params":["a",{"name":"b","values":[1]}]}"#,
                "all objects",
            ),
        ] {
            let e = parse(line).unwrap_err();
            assert_eq!(e.code, "bad_request", "{line}");
            assert!(e.message.contains(needle), "{line}: {}", e.message);
        }
    }

    #[test]
    fn limits_parse_and_validate() {
        let r =
            parse(r#"{"model":"dds","measures":["mttf"],"timeout_ms":500,"max_states":100000}"#)
                .unwrap();
        let Request::Query { limits, .. } = r else {
            panic!("not a query")
        };
        assert_eq!(
            limits,
            Limits {
                timeout_ms: Some(500),
                max_states: Some(100_000),
            }
        );
        assert!(limits.is_some());
        assert!(!Limits::default().is_some());

        // Sweeps carry them too.
        let r = parse(
            r#"{"cmd":"sweep","model":"m","measures":["mttf"],
                "params":["a"],"points":[[0.1]],"timeout_ms":9}"#,
        )
        .unwrap();
        let Request::Sweep { limits, .. } = r else {
            panic!("not a sweep")
        };
        assert_eq!(limits.timeout_ms, Some(9));

        for bad in [
            r#"{"model":"dds","measures":["mttf"],"timeout_ms":0}"#,
            r#"{"model":"dds","measures":["mttf"],"timeout_ms":-5}"#,
            r#"{"model":"dds","measures":["mttf"],"timeout_ms":1.5}"#,
            r#"{"model":"dds","measures":["mttf"],"max_states":"many"}"#,
        ] {
            let e = parse(bad).unwrap_err();
            assert_eq!(e.code, "bad_request", "{bad}");
            assert!(e.message.contains("positive integer"), "{bad}");
        }
    }

    #[test]
    fn simple_commands_parse() {
        assert_eq!(parse(r#"{"cmd":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse(r#"{"cmd":"list"}"#).unwrap(), Request::List);
        assert_eq!(parse(r#"{"cmd":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse(r#"{"cmd":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn error_json_shape() {
        let e = ProtoError::with_code("unknown_model", "no model `x`");
        let j = e.to_json();
        assert_eq!(j.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            j.get("error").unwrap().get("code").and_then(Json::as_str),
            Some("unknown_model")
        );
    }
}
