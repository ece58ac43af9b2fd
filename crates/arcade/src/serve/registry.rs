//! The model registry: named models → warm, shared [`Session`]s.
//!
//! Two layers of caching back the `arcaded` server:
//!
//! 1. **Registry keys** — each model name owns one panic-safe
//!    [`RetryCell`]. Concurrent requests for a name that is not cached yet
//!    race to the same cell; exactly one creates the session, the rest
//!    block until it exists. A builder that **panics** (a bug, or an
//!    injected `serve.build` chaos fault) does not wedge the cell: every
//!    waiter is answered with a structured `internal_panic` error and the
//!    cell is cleared, so the next request rebuilds from scratch.
//!    Deterministic failures (resolution, validation) *are* cached —
//!    retrying cannot change them. The entry map itself is behind a
//!    [`RwLock`] taken only long enough to clone the per-key `Arc` —
//!    never across a build.
//! 2. **Session artifacts** — the expensive work (compositional
//!    aggregation, steady vectors, Poisson weights) is deduplicated
//!    *inside* the shared [`Session`] with the same panic-safe cells,
//!    so N clients firing the same cold query trigger exactly one
//!    aggregation and N−1 waiters ([`crate::query::EvalTrace`] reports
//!    which side of that race a call was on).
//!
//! Names resolve to `load`-ed models first, then to the built-in case
//! families: `dds`, `dds_scaled(n)`, `rcs`, `rcs_scaled(k)`,
//! `rcs_stiff(k)` and `rcs_scaled_kofn(n,k)`. Built-in sizes are capped —
//! state spaces grow combinatorially, and an unbounded `rcs_scaled(9)`
//! request must not be able to take the daemon down.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use super::protocol::ProtoError;
use crate::ast::SystemDef;
use crate::cases;
use crate::chaos;
use crate::engine::EngineOptions;
use crate::parser::parse_system;
use crate::query::Session;
use crate::sync::{panic_message, CellError, RetryCell};

/// Largest accepted `dds_scaled`/`rcs_stiff` family size.
const MAX_LINEAR_SIZE: usize = 16;
/// Largest accepted `rcs_scaled`/`rcs_scaled_kofn` line count (the state
/// space is already ~84k states at 2 lines and grows by orders of
/// magnitude per extra line).
const MAX_RCS_LINES: usize = 3;

/// One registry entry: the panic-safe dedup cell plus an attempt counter.
/// An attempt number above zero means an earlier in-flight build died
/// (panicked) and this build is the registry healing itself.
#[derive(Debug, Default)]
struct SessionSlot {
    cell: RetryCell<Result<Arc<Session>, ProtoError>, ProtoError>,
    attempts: AtomicU64,
}

type SessionCell = Arc<SessionSlot>;

/// The shared model registry. One per server; cheap to share via `Arc`.
#[derive(Debug)]
pub struct Registry {
    opts: EngineOptions,
    /// Models registered over the wire (`"cmd":"load"`).
    loaded: RwLock<HashMap<String, Arc<SystemDef>>>,
    /// Session cache, one once-cell per model name.
    sessions: RwLock<HashMap<String, SessionCell>>,
}

impl Registry {
    /// Creates an empty registry whose sessions run with `opts`.
    pub fn new(opts: EngineOptions) -> Self {
        Self {
            opts,
            loaded: RwLock::new(HashMap::new()),
            sessions: RwLock::new(HashMap::new()),
        }
    }

    /// Registers (or replaces) a model parsed from Arcade textual syntax
    /// and drops any cached session for that name.
    ///
    /// # Errors
    ///
    /// `model_error` when the source fails to parse or validate.
    pub fn load(&self, name: &str, source: &str) -> Result<(), ProtoError> {
        let def = parse_system(source)
            .map_err(|e| ProtoError::with_code("model_error", e.to_string()))?;
        crate::model::validate(&def)
            .map_err(|e| ProtoError::with_code("model_error", e.to_string()))?;
        self.loaded
            .write()
            .expect("loaded map not poisoned")
            .insert(name.to_owned(), Arc::new(def));
        self.sessions
            .write()
            .expect("session map not poisoned")
            .remove(name);
        Ok(())
    }

    /// The names this registry can currently serve: every loaded model
    /// plus the built-in family stems (sorted, loaded models first).
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .loaded
            .read()
            .expect("loaded map not poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        for builtin in [
            "dds",
            "dds_parametric",
            "dds_scaled(n)",
            "dds_scaled_parametric(n)",
            "rcs",
            "rcs_scaled(k)",
            "rcs_scaled_kofn(n,k)",
            "rcs_scaled_parametric(k)",
            "rcs_stiff(k)",
        ] {
            names.push(builtin.to_owned());
        }
        names
    }

    /// The warm session for `name`, creating (and caching) it on first
    /// use. Concurrent cold requests block on one shared cell; a cached
    /// resolution error is returned to every later request for the name
    /// (resolution is deterministic, retrying cannot help) — except for
    /// unknown names, which are **not** cached so a later `load` can
    /// supply them. A build that **panics** answers its own request and
    /// every blocked waiter with `internal_panic` and leaves the cell
    /// empty, so the next request rebuilds.
    ///
    /// # Errors
    ///
    /// `unknown_model` for names nothing resolves; `bad_request` for
    /// out-of-range built-in sizes; `model_error` when session creation
    /// fails validation; `internal_panic` when the build (ours or the one
    /// we waited on) panicked.
    pub fn session(&self, name: &str) -> Result<Arc<Session>, ProtoError> {
        self.session_traced(name).0
    }

    /// Like [`Registry::session`], additionally reporting whether this
    /// call re-ran a build after an earlier in-flight attempt died — the
    /// server's `retries` counter keys off this.
    pub fn session_traced(&self, name: &str) -> (Result<Arc<Session>, ProtoError>, bool) {
        let slot = {
            let map = self.sessions.read().expect("session map not poisoned");
            map.get(name).cloned()
        };
        let slot = match slot {
            Some(s) => s,
            None => {
                // Unknown names fail *before* inserting a cell, so they
                // are never negatively cached against a future `load`.
                if let Err(e) = self.resolve_def(name) {
                    return (Err(e), false);
                }
                let mut map = self.sessions.write().expect("session map not poisoned");
                map.entry(name.to_owned()).or_default().clone()
            }
        };
        let mut retried = false;
        let built = slot.cell.get_or_try_init(|| {
            retried = slot.attempts.fetch_add(1, Ordering::Relaxed) > 0;
            // The panic is caught *here* (not left to the RetryCell's own
            // unwinding path) so the builder's request gets the same typed
            // `internal_panic` error as its waiters instead of unwinding
            // through the worker.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                chaos::failpoint("serve.build");
                let def = self.resolve_def(name)?;
                let session = Session::new(&def)
                    .map_err(|e| ProtoError::with_code("model_error", e.to_string()))?
                    .with_options(self.opts.clone());
                Ok(Arc::new(session))
            })) {
                // Deterministic outcome (success or resolution/validation
                // error): cache it forever.
                Ok(result) => Ok(result),
                // Transient: typed error to everyone, cell stays empty.
                Err(payload) => Err(ProtoError::with_code(
                    "internal_panic",
                    panic_message(payload.as_ref()),
                )),
            }
        });
        let result = match built {
            Ok(cached) => cached,
            Err(CellError::Init(e)) => Err(e),
            Err(CellError::Interrupted) => Err(ProtoError::with_code(
                "internal_panic",
                "in-flight session build was interrupted; retry".to_owned(),
            )),
        };
        (result, retried)
    }

    /// Per-model session statistics for every session that exists, sorted
    /// by name (the `models` section of the stats endpoint).
    pub fn session_stats(&self) -> Vec<(String, crate::query::SessionStats)> {
        let map = self.sessions.read().expect("session map not poisoned");
        let mut out: Vec<(String, crate::query::SessionStats)> = map
            .iter()
            .filter_map(|(name, slot)| {
                let session = slot.cell.get()?.ok()?;
                Some((name.clone(), session.stats()))
            })
            .collect();
        drop(map);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Resolves a name to a model definition: loaded models shadow the
    /// built-in families.
    fn resolve_def(&self, name: &str) -> Result<Arc<SystemDef>, ProtoError> {
        if let Some(def) = self
            .loaded
            .read()
            .expect("loaded map not poisoned")
            .get(name)
        {
            return Ok(def.clone());
        }
        builtin_def(name)
    }
}

/// Resolves a built-in case-family name (`dds`, `rcs_scaled(2)`, …).
fn builtin_def(name: &str) -> Result<Arc<SystemDef>, ProtoError> {
    let unknown = || {
        ProtoError::with_code(
            "unknown_model",
            format!(
                "no model named `{name}` (built-ins: dds, dds_parametric, \
                 dds_scaled(n), dds_scaled_parametric(n), rcs, rcs_scaled(k), \
                 rcs_stiff(k), rcs_scaled_kofn(n,k), rcs_scaled_parametric(k))"
            ),
        )
    };
    match name {
        "dds" => return Ok(Arc::new(cases::dds())),
        "dds_parametric" => return Ok(Arc::new(cases::dds_parametric())),
        "rcs" => return Ok(Arc::new(cases::rcs())),
        _ => {}
    }
    let (stem, args) = parse_family(name).ok_or_else(unknown)?;
    let range_err = |what: &str, min: usize, max: usize| {
        ProtoError::bad_request(format!("{stem}: {what} must be in {min}..={max}"))
    };
    // The RCS constructors panic below two lines ("a single redundant
    // line is not an RCS"), so the wire-facing floor is 2.
    match (stem, args.as_slice()) {
        ("dds_scaled", &[n]) => {
            if !(1..=MAX_LINEAR_SIZE).contains(&n) {
                return Err(range_err("cluster count", 1, MAX_LINEAR_SIZE));
            }
            Ok(Arc::new(cases::dds_scaled(n)))
        }
        ("dds_scaled_parametric", &[n]) => {
            if !(1..=MAX_LINEAR_SIZE).contains(&n) {
                return Err(range_err("cluster count", 1, MAX_LINEAR_SIZE));
            }
            Ok(Arc::new(cases::dds_scaled_parametric(n)))
        }
        ("rcs_scaled", &[k]) => {
            if !(2..=MAX_RCS_LINES).contains(&k) {
                return Err(range_err("line count", 2, MAX_RCS_LINES));
            }
            Ok(Arc::new(cases::rcs_scaled(k)))
        }
        ("rcs_scaled_parametric", &[k]) => {
            if !(2..=MAX_RCS_LINES).contains(&k) {
                return Err(range_err("line count", 2, MAX_RCS_LINES));
            }
            Ok(Arc::new(cases::rcs_scaled_parametric(k)))
        }
        ("rcs_stiff", &[k]) => {
            if !(2..=MAX_LINEAR_SIZE).contains(&k) {
                return Err(range_err("line count", 2, MAX_LINEAR_SIZE));
            }
            Ok(Arc::new(cases::rcs_stiff(k)))
        }
        ("rcs_scaled_kofn", &[n, k]) => {
            if !(2..=MAX_RCS_LINES).contains(&n) {
                return Err(range_err("line count", 2, MAX_RCS_LINES));
            }
            if !(1..=n).contains(&k) {
                return Err(ProtoError::bad_request(format!(
                    "rcs_scaled_kofn: k must be in 1..={n}"
                )));
            }
            Ok(Arc::new(cases::rcs_scaled_kofn(n, k)))
        }
        _ => Err(unknown()),
    }
}

/// Splits `stem(a)` / `stem(a,b)` into the stem and its integer args.
fn parse_family(name: &str) -> Option<(&str, Vec<usize>)> {
    let open = name.find('(')?;
    let inner = name.get(open + 1..)?.strip_suffix(')')?;
    let args: Option<Vec<usize>> = inner
        .split(',')
        .map(|a| a.trim().parse::<usize>().ok())
        .collect();
    Some((&name[..open], args?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Measure;

    fn registry() -> Registry {
        Registry::new(EngineOptions::new())
    }

    #[test]
    fn builtin_names_resolve() {
        // Cold builds pass the `serve.build` failpoint, which the
        // panicking-build tests arm process-wide.
        let _g = chaos::test_lock();
        let r = registry();
        for name in [
            "dds",
            "rcs",
            "dds_scaled(2)",
            "rcs_stiff(2)",
            "rcs_scaled_kofn(2, 1)",
        ] {
            assert!(r.session(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn sessions_are_cached_per_name() {
        let _g = chaos::test_lock();
        let r = registry();
        let a = r.session("dds_scaled(2)").unwrap();
        let b = r.session("dds_scaled(2)").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
    }

    #[test]
    fn unknown_and_oversized_names_error() {
        let r = registry();
        assert_eq!(r.session("nope").unwrap_err().code, "unknown_model");
        assert_eq!(
            r.session("dds_scaled(x)").unwrap_err().code,
            "unknown_model"
        );
        assert_eq!(
            r.session("dds_scaled(999)").unwrap_err().code,
            "bad_request"
        );
        assert_eq!(r.session("rcs_scaled(9)").unwrap_err().code, "bad_request");
        assert_eq!(r.session("rcs_scaled(1)").unwrap_err().code, "bad_request");
        assert_eq!(r.session("rcs_stiff(1)").unwrap_err().code, "bad_request");
        assert_eq!(
            r.session("rcs_scaled_kofn(2,3)").unwrap_err().code,
            "bad_request"
        );
    }

    #[test]
    fn load_registers_and_shadows() {
        let _g = chaos::test_lock();
        let r = registry();
        let source = crate::printer::to_arcade_text(&cases::dds());
        r.load("mine", &source).unwrap();
        assert!(r.session("mine").is_ok());
        // Unknown names are not negatively cached: load after a miss works.
        assert_eq!(r.session("later").unwrap_err().code, "unknown_model");
        r.load("later", &source).unwrap();
        assert!(r.session("later").is_ok());
        // A load invalidates the cached session for the name.
        let before = r.session("mine").unwrap();
        r.load("mine", &source).unwrap();
        let after = r.session("mine").unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        // Bad source is a model_error.
        assert_eq!(r.load("bad", "not arcade").unwrap_err().code, "model_error");
    }

    #[test]
    fn panicking_build_answers_typed_and_heals() {
        // Regression: a panic inside the session builder used to leave
        // waiters racing to silently re-run the build with no record of
        // the failure. Now the first request gets `internal_panic` and the
        // second rebuilds successfully — and reports itself as a retry.
        let _g = chaos::test_lock();
        chaos::disarm_all();
        chaos::arm("serve.build", chaos::Action::Panic, Some(1));
        let r = registry();
        let (first, retried) = r.session_traced("dds");
        assert_eq!(first.unwrap_err().code, "internal_panic");
        assert!(!retried, "first attempt is not a retry");
        let (second, retried) = r.session_traced("dds");
        assert!(second.is_ok(), "cell must heal after a panicked build");
        assert!(retried, "the healing build counts as a retry");
        // Warm now: no further builds, no retry flag.
        let (third, retried) = r.session_traced("dds");
        assert!(third.is_ok() && !retried);
        chaos::disarm_all();
    }

    #[test]
    fn concurrent_waiters_on_a_panicked_build_all_unblock() {
        let _g = chaos::test_lock();
        chaos::disarm_all();
        chaos::arm("serve.build", chaos::Action::Panic, Some(1));
        let r = Arc::new(registry());
        let outcomes: Vec<Result<Arc<Session>, ProtoError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let r = Arc::clone(&r);
                    s.spawn(move || r.session("dds_scaled(2)"))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        chaos::disarm_all();
        // Exactly one build hit the armed panic; its builder and any
        // waiters that blocked on it got `internal_panic`, everyone else
        // raced past the cleared cell and rebuilt successfully. Nobody
        // hangs, and at least the panicked builder saw the typed error.
        let failed = outcomes
            .iter()
            .filter(|o| o.as_ref().is_err_and(|e| e.code == "internal_panic"))
            .count();
        let succeeded = outcomes.iter().filter(|o| o.is_ok()).count();
        assert_eq!(failed + succeeded, 6);
        assert!(failed >= 1, "the panicked build must surface somewhere");
        // The registry stays usable afterwards.
        assert!(r.session("dds_scaled(2)").is_ok());
    }

    #[test]
    fn concurrent_cold_lookups_share_one_session() {
        let _g = chaos::test_lock();
        let r = Arc::new(registry());
        let sessions: Vec<Arc<Session>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let r = Arc::clone(&r);
                    s.spawn(move || r.session("dds_scaled(2)").unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &sessions[1..] {
            assert!(Arc::ptr_eq(&sessions[0], other));
        }
        // And concurrent evaluations on the shared session dedupe the
        // aggregation: exactly one build in total.
        let measures = [Measure::SteadyStateUnavailability];
        std::thread::scope(|s| {
            for _ in 0..4 {
                let session = Arc::clone(&sessions[0]);
                let measures = &measures;
                s.spawn(move || session.evaluate(measures).unwrap());
            }
        });
        assert_eq!(sessions[0].stats().aggregations_built, 1);
        let stats = r.session_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].0, "dds_scaled(2)");
    }
}
