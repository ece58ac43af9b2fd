//! Fault-injection failpoints for exercising the server's containment.
//!
//! A *failpoint* is a named hook compiled into a hot boundary of the
//! resident analysis stack. When the registry is disarmed — the default —
//! hitting one costs a single relaxed atomic load and nothing else; armed,
//! it performs the configured fault:
//!
//! | action       | effect at the failpoint                                  |
//! |--------------|----------------------------------------------------------|
//! | `panic`      | panics (`"chaos: injected panic at <point>"`)            |
//! | `delay(ms)`  | sleeps `ms` in short slices, honouring any ambient       |
//! |              | [`ioimc::budget`] deadline (the sleep aborts early by    |
//! |              | panicking with [`BudgetExceeded`], exactly like a slow   |
//! |              | solver would)                                            |
//! | `torn`       | returns [`Fired::Torn`]; the caller emulates a torn      |
//! |              | write (partial output, dropped connection)               |
//!
//! [`BudgetExceeded`]: ioimc::budget::BudgetExceeded
//!
//! Compiled-in failpoints ([`POINTS`]):
//!
//! * `serve.build` — inside the server registry's session builder,
//! * `session.agg` — inside [`crate::query::Session`]'s aggregation build,
//! * `session.solve` — before a session's numerical solve,
//! * `session.shard` — once at the start of every transient solve in
//!   `ctmc::transient`, as its kernel (exact, windowed or dense) builds
//!   its operator (reached through the [`ioimc::failpoint`] hook, since
//!   `ctmc` sits below this crate in the dependency graph; the name
//!   predates the removal of the solver shards and is kept for existing
//!   chaos specs),
//! * `session.sweep_point` — at the per-point fan-out boundary of
//!   [`crate::query::Session::sweep`],
//! * `serve.respond` — before a response line is written to the socket.
//!
//! Arm the registry programmatically ([`arm`]) from tests and benches, via
//! the `ARCADE_CHAOS` environment variable, or with `arcaded --chaos`.
//! The spec syntax is a comma-separated list of
//! `point=action[*count]` clauses:
//!
//! ```text
//! ARCADE_CHAOS='serve.build=panic*1,session.solve=delay(200)'
//! ```
//!
//! `*count` limits the fault to the first `count` hits, after which the
//! failpoint disarms itself; without it the fault fires on every hit.
//! [`arm_spec`] validates the **whole** spec before arming anything: a
//! malformed clause or an unknown failpoint name is a structured
//! [`ChaosSpecError`] and leaves the registry untouched — a typo can
//! never silently arm nothing (or half of a spec).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Every failpoint compiled into the stack. [`arm_spec`] rejects names
/// outside this list — an armed point nothing ever hits is
/// indistinguishable from chaos silently off, which is exactly the bug
/// class spec validation exists to catch.
pub const POINTS: &[&str] = &[
    "serve.build",
    "session.agg",
    "session.solve",
    "session.shard",
    "session.sweep_point",
    "serve.respond",
];

/// A structured chaos-spec parse error: which clause failed and why.
/// Rejecting beats ignoring — a daemon or bench started with a malformed
/// `ARCADE_CHAOS`/`--chaos` spec would otherwise run *without* the faults
/// the operator asked for and report misleading results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpecError {
    /// The offending clause, verbatim (`None` when the whole spec is
    /// empty).
    pub clause: Option<String>,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ChaosSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.clause {
            Some(c) => write!(f, "chaos clause `{c}`: {}", self.reason),
            None => write!(f, "chaos spec: {}", self.reason),
        }
    }
}

impl std::error::Error for ChaosSpecError {}

impl ChaosSpecError {
    fn new(clause: impl Into<String>, reason: impl Into<String>) -> Self {
        Self {
            clause: Some(clause.into()),
            reason: reason.into(),
        }
    }
}

/// What an armed failpoint does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic at the failpoint.
    Panic,
    /// Sleep this many milliseconds (sliced, ambient-deadline-aware).
    Delay(u64),
    /// Signal the caller to tear its write ([`Fired::Torn`]).
    Torn,
}

/// What [`failpoint`] asks the caller to do. `Panic` and `Delay` are
/// executed inside [`failpoint`] itself; only faults that need caller
/// cooperation surface here.
/// Callers at points armed only with `panic`/`delay` faults may ignore
/// the return value; `torn` needs caller cooperation, so the one point
/// that supports it (`serve.respond`) matches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fired {
    /// No fault (registry disarmed, or this point not armed).
    None,
    /// Emulate a torn write: emit partial output and drop the connection.
    Torn,
}

struct Plan {
    action: Action,
    /// Remaining hits; `None` = unlimited.
    remaining: Option<u32>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<HashMap<String, Plan>>> = Mutex::new(None);

/// Whether any failpoint is armed. One relaxed load — this is the entire
/// cost of a failpoint on the production path.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The bridge installed into [`ioimc::failpoint`]: lower crates (`ctmc`'s
/// transient kernels) call their ambient hook, which lands here and
/// runs the same registry lookup every in-crate failpoint runs. `Torn` is
/// meaningless below the wire layer and is ignored.
fn ioimc_hook(point: &str) {
    let _ = failpoint(point);
}

/// Arms `point` with `action`, firing at most `count` times
/// (`None` = every hit). Replaces any previous plan for the point.
///
/// This programmatic entry point accepts any point name (tests fault
/// their own ad-hoc points); only the spec parser ([`arm_spec`])
/// validates names against [`POINTS`].
pub fn arm(point: &str, action: Action, count: Option<u32>) {
    let mut reg = REGISTRY.lock().unwrap();
    reg.get_or_insert_with(HashMap::new).insert(
        point.to_string(),
        Plan {
            action,
            remaining: count,
        },
    );
    ENABLED.store(true, Ordering::Relaxed);
    // Failpoints compiled into crates below this one reach the registry
    // through the ambient hook; keep its armed flag in lockstep.
    ioimc::failpoint::install(ioimc_hook);
    ioimc::failpoint::set_armed(true);
}

/// Disarms every failpoint, restoring the zero-cost path.
pub fn disarm_all() {
    let mut reg = REGISTRY.lock().unwrap();
    *reg = None;
    ENABLED.store(false, Ordering::Relaxed);
    ioimc::failpoint::set_armed(false);
}

/// Parses one `point=action[*count]` clause (already trimmed, non-empty).
fn parse_clause(clause: &str) -> Result<(String, Action, Option<u32>), ChaosSpecError> {
    let (point, rhs) = clause
        .split_once('=')
        .ok_or_else(|| ChaosSpecError::new(clause, "missing `=` (want point=action[*count])"))?;
    let point = point.trim();
    if !POINTS.contains(&point) {
        return Err(ChaosSpecError::new(
            clause,
            format!(
                "unknown failpoint `{point}` (compiled-in points: {})",
                POINTS.join(", ")
            ),
        ));
    }
    let (action_str, count) = match rhs.split_once('*') {
        Some((a, n)) => {
            let n: u32 = n
                .trim()
                .parse()
                .map_err(|_| ChaosSpecError::new(clause, format!("bad count `{}`", n.trim())))?;
            (a.trim(), Some(n))
        }
        None => (rhs.trim(), None),
    };
    let action = if action_str == "panic" {
        Action::Panic
    } else if action_str == "torn" {
        Action::Torn
    } else if let Some(ms) = action_str
        .strip_prefix("delay(")
        .and_then(|r| r.strip_suffix(')'))
    {
        Action::Delay(
            ms.trim()
                .parse()
                .map_err(|_| ChaosSpecError::new(clause, format!("bad delay `{}`", ms.trim())))?,
        )
    } else {
        return Err(ChaosSpecError::new(
            clause,
            format!("unknown action `{action_str}` (want panic, delay(ms) or torn)"),
        ));
    };
    Ok((point.to_string(), action, count))
}

/// Parses and arms a `point=action[*count],...` spec. See the module docs
/// for the grammar. The **entire** spec is validated first — on any
/// error nothing is armed, so a typo can never half-arm a fault plan.
///
/// # Errors
///
/// A structured [`ChaosSpecError`] naming the clause and the reason: an
/// empty spec, a malformed clause, an unknown action, or a failpoint name
/// outside [`POINTS`].
pub fn arm_spec(spec: &str) -> Result<(), ChaosSpecError> {
    let clauses: Vec<&str> = spec
        .split(',')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .collect();
    if clauses.is_empty() {
        return Err(ChaosSpecError {
            clause: None,
            reason: "empty spec arms nothing — remove it or name a failpoint".to_string(),
        });
    }
    let plans: Vec<(String, Action, Option<u32>)> = clauses
        .into_iter()
        .map(parse_clause)
        .collect::<Result<_, _>>()?;
    for (point, action, count) in plans {
        arm(&point, action, count);
    }
    Ok(())
}

/// Arms failpoints from the `ARCADE_CHAOS` environment variable, if set.
/// Called once by the server binary. Returns whether anything was armed.
///
/// # Errors
///
/// A malformed spec is a startup error: the daemon refuses to run rather
/// than silently running *without* the faults the operator asked for
/// (misleading chaos results are worse than no daemon).
pub fn init_from_env() -> Result<bool, ChaosSpecError> {
    match std::env::var("ARCADE_CHAOS") {
        Ok(spec) => {
            arm_spec(&spec)?;
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

/// Serializes tests (and smoke binaries' phases) that arm the
/// process-global registry, so concurrently running `#[test]`s cannot see
/// each other's faults. Recovers from a poisoned lock — a panicking chaos
/// test is the expected case.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The failpoint hook. Disarmed: one atomic load, returns [`Fired::None`].
/// Armed for `point`: performs the fault (see module docs) — `panic`
/// unwinds from here, `delay` sleeps here, `torn` is returned for the
/// caller to act on.
#[inline]
pub fn failpoint(point: &str) -> Fired {
    if !enabled() {
        return Fired::None;
    }
    failpoint_armed(point)
}

#[cold]
fn failpoint_armed(point: &str) -> Fired {
    let action = {
        let mut reg = REGISTRY.lock().unwrap();
        let Some(map) = reg.as_mut() else {
            return Fired::None;
        };
        let Some(plan) = map.get_mut(point) else {
            return Fired::None;
        };
        match &mut plan.remaining {
            Some(0) => return Fired::None,
            Some(n) => *n -= 1,
            None => {}
        }
        plan.action
    };
    match action {
        Action::Panic => panic!("chaos: injected panic at {point}"),
        Action::Delay(ms) => {
            sliced_sleep(ms);
            Fired::None
        }
        Action::Torn => Fired::Torn,
    }
}

/// Sleeps `ms` milliseconds in ≤10 ms slices, polling the ambient compute
/// budget between slices — an injected delay behaves exactly like a slow
/// solver loop, so a request deadline still aborts it promptly.
fn sliced_sleep(ms: u64) {
    let mut left = ms;
    while left > 0 {
        ioimc::budget::checkpoint();
        let slice = left.min(10);
        std::thread::sleep(Duration::from_millis(slice));
        left -= slice;
    }
    ioimc::budget::checkpoint();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so these tests serialize themselves
    // behind the shared lock and always disarm on exit.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn disarmed_is_inert() {
        let _g = locked();
        disarm_all();
        assert!(!enabled());
        assert_eq!(failpoint("serve.build"), Fired::None);
    }

    #[test]
    fn count_limits_fires() {
        let _g = locked();
        disarm_all();
        arm("p", Action::Torn, Some(2));
        assert_eq!(failpoint("p"), Fired::Torn);
        assert_eq!(failpoint("p"), Fired::Torn);
        assert_eq!(failpoint("p"), Fired::None);
        disarm_all();
    }

    #[test]
    fn panic_action_panics_with_point_name() {
        let _g = locked();
        disarm_all();
        arm("session.agg", Action::Panic, Some(1));
        let r = std::panic::catch_unwind(|| failpoint("session.agg"));
        disarm_all();
        let payload = r.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("session.agg"), "payload: {msg}");
        // The count was consumed by the panicking hit.
        assert_eq!(failpoint("session.agg"), Fired::None);
    }

    #[test]
    fn spec_round_trip() {
        let _g = locked();
        disarm_all();
        arm_spec("serve.build=panic*1, session.solve=delay(5), serve.respond=torn").unwrap();
        assert!(enabled());
        assert_eq!(failpoint("session.solve"), Fired::None); // slept 5ms
        assert_eq!(failpoint("serve.respond"), Fired::Torn);
        disarm_all();

        assert!(arm_spec("nonsense").is_err());
        assert!(arm_spec("serve.build=explode").is_err());
        assert!(arm_spec("serve.build=delay(x)").is_err());
        assert!(arm_spec("serve.build=panic*x").is_err());
        assert!(!enabled());
    }

    #[test]
    fn empty_spec_is_a_structured_error() {
        let _g = locked();
        disarm_all();
        for spec in ["", "   ", ",", " , ,"] {
            let e = arm_spec(spec).expect_err("empty spec must be rejected");
            assert!(e.clause.is_none(), "spec {spec:?}: {e}");
            assert!(e.reason.contains("empty"), "spec {spec:?}: {e}");
        }
        assert!(!enabled(), "a rejected spec must arm nothing");
    }

    #[test]
    fn unknown_failpoint_names_are_rejected() {
        let _g = locked();
        disarm_all();
        let e = arm_spec("serve.bulid=panic").expect_err("typo'd point must be rejected");
        assert_eq!(e.clause.as_deref(), Some("serve.bulid=panic"));
        assert!(e.reason.contains("unknown failpoint"), "{e}");
        assert!(
            e.reason.contains("serve.build"),
            "error must list valid points: {e}"
        );
        assert!(!enabled(), "a typo'd spec must arm nothing");
    }

    #[test]
    fn garbage_specs_are_rejected_without_half_arming() {
        let _g = locked();
        disarm_all();
        // The first clause is valid; the second is garbage. Nothing may
        // be armed — partial arming is the silent failure mode the
        // two-phase parse exists to prevent.
        let e = arm_spec("serve.build=panic, =;!garbage").expect_err("garbage must be rejected");
        assert!(e.clause.is_some(), "{e}");
        assert!(!enabled(), "a rejected spec must not half-arm");
        assert_eq!(failpoint("serve.build"), Fired::None);

        for spec in ["===", "serve.build", "serve.build=", "serve.build=panic*"] {
            assert!(arm_spec(spec).is_err(), "spec {spec:?} must be rejected");
        }
        assert!(!enabled());
    }

    #[test]
    fn new_points_are_armable_and_display_is_structured() {
        let _g = locked();
        disarm_all();
        arm_spec("session.shard=panic*1, session.sweep_point=delay(1)").unwrap();
        assert!(enabled());
        assert!(
            ioimc::failpoint::armed(),
            "ambient hook flag must arm in lockstep"
        );
        disarm_all();
        assert!(
            !ioimc::failpoint::armed(),
            "ambient hook flag must disarm too"
        );
        let e = arm_spec("session.shard=boom").unwrap_err();
        assert!(e.to_string().contains("session.shard=boom"), "{e}");
    }

    #[test]
    fn delay_honours_ambient_deadline() {
        let _g = locked();
        disarm_all();
        arm("slow", Action::Delay(60_000), None);
        let budget = std::sync::Arc::new(
            ioimc::budget::Budget::unlimited().with_deadline(Duration::from_millis(30)),
        );
        let t0 = std::time::Instant::now();
        let r =
            std::panic::catch_unwind(|| ioimc::budget::scope(Some(budget), || failpoint("slow")));
        disarm_all();
        assert!(r.is_err(), "deadline should abort the injected delay");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "delay must abort near the deadline, not run to completion"
        );
    }
}
