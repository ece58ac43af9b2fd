//! Cooperative compute budgets and cancellation.
//!
//! The workspace is dependency-free, so this module provides the one
//! fault-containment primitive the whole stack shares: a [`Budget`]
//! bundling an optional wall-clock **deadline**, an optional **model-size
//! ceiling** (states/transitions of any intermediate automaton), and a
//! **cancellation flag**. Budgets are *cooperative*: long-running kernels
//! poll [`Budget::check`] (or the ambient [`checkpoint`]) at safe
//! boundaries — composition BFS chunks, refinement rounds, uniformization
//! segments and sweeps, Gauss–Seidel sweeps, the pivots of the GTH
//! elimination (steady states and mean times to absorption share these
//! solvers) — and abort with a structured
//! [`BudgetExceeded`] instead of wedging their thread.
//!
//! # Ambient propagation
//!
//! Threading an explicit parameter through every solver entry point would
//! churn dozens of stable signatures, so the budget travels as an ambient
//! thread-local installed with [`scope`]. Kernels read it with [`current`]
//! / [`checkpoint`]. The thread-local does **not** cross thread spawns:
//! fork/join fan-outs that must stay budgeted re-install the scope inside
//! their worker closures (the query layer's configuration and sweep
//! fan-outs do).
//!
//! # Abort discipline
//!
//! Result-returning layers (composition, the aggregation engine) surface
//! the abort as an error value. Deep solver loops whose signatures return
//! plain vectors abort by panicking with a [`BudgetExceeded`] payload
//! (`std::panic::panic_any`); the evaluation boundary catches the unwind
//! and re-classifies it. Because scoped-thread joins may replace a panic
//! payload with a generic message, every trip is *also* recorded on the
//! budget itself ([`Budget::tripped`]) — classification never depends on
//! the payload surviving the unwind.
//!
//! Checks are cheap: a relaxed atomic load for cancellation, one
//! `Instant::now()` for the deadline, two integer compares for the size
//! ceiling. Kernels gate the deadline poll to once per O(thousands) of
//! inner-loop iterations.

use std::cell::RefCell;
use std::fmt;
use std::panic::panic_any;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which limit a computation ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// An intermediate model exceeded the state ceiling.
    States,
    /// An intermediate model exceeded the transition ceiling.
    Transitions,
    /// The budget was cancelled explicitly.
    Cancelled,
}

impl BudgetKind {
    /// Stable lowercase name (`"deadline"`, `"states"`, `"transitions"`,
    /// `"cancelled"`) — the serve layer keys wire error codes off this.
    pub fn name(self) -> &'static str {
        match self {
            Self::Deadline => "deadline",
            Self::States => "states",
            Self::Transitions => "transitions",
            Self::Cancelled => "cancelled",
        }
    }
}

/// A structured budget violation: which limit, what the limit was, and
/// what was observed. For [`BudgetKind::Deadline`] both values are
/// milliseconds; for the size kinds they are counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BudgetExceeded {
    /// The limit that tripped.
    pub kind: BudgetKind,
    /// The configured limit (ms or count; 0 for [`BudgetKind::Cancelled`]).
    pub limit: u64,
    /// The observed value when the trip was detected.
    pub actual: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            BudgetKind::Deadline => write!(
                f,
                "deadline exceeded: {} ms elapsed of a {} ms budget",
                self.actual, self.limit
            ),
            BudgetKind::States => write!(
                f,
                "model too large: {} states exceeds the {}-state ceiling",
                self.actual, self.limit
            ),
            BudgetKind::Transitions => write!(
                f,
                "model too large: {} transitions exceeds the {}-transition ceiling",
                self.actual, self.limit
            ),
            BudgetKind::Cancelled => write!(f, "evaluation cancelled"),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// Packed `tripped` states (first trip wins, recorded with a CAS).
const TRIP_NONE: u8 = 0;

fn kind_to_u8(k: BudgetKind) -> u8 {
    match k {
        BudgetKind::Deadline => 1,
        BudgetKind::States => 2,
        BudgetKind::Transitions => 3,
        BudgetKind::Cancelled => 4,
    }
}

fn kind_from_u8(v: u8) -> Option<BudgetKind> {
    match v {
        1 => Some(BudgetKind::Deadline),
        2 => Some(BudgetKind::States),
        3 => Some(BudgetKind::Transitions),
        4 => Some(BudgetKind::Cancelled),
        _ => None,
    }
}

/// A cooperative compute budget (deadline + model-size ceiling +
/// cancellation flag). See the module docs for the polling contract.
///
/// Budgets can be **chained**: a child created with
/// [`Budget::with_parent`] also honors (and reports trips to) its parent,
/// so a per-call size ceiling can be layered under a per-request deadline
/// without merging the two objects.
#[derive(Debug, Default)]
pub struct Budget {
    /// Absolute deadline, if any.
    deadline: Option<Instant>,
    /// The instant the deadline was armed (for error messages).
    armed: Option<Instant>,
    /// Original deadline duration in ms (for error messages).
    deadline_ms: u64,
    /// Intermediate-model state ceiling; `0` = unlimited.
    max_states: u64,
    /// Intermediate-model transition ceiling; `0` = unlimited.
    max_transitions: u64,
    cancelled: AtomicBool,
    tripped: AtomicU8,
    parent: Option<Arc<Budget>>,
}

impl Budget {
    /// A budget with no limits (every check passes).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Returns a copy with a wall-clock deadline `d` from now.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        let now = Instant::now();
        self.armed = Some(now);
        self.deadline = Some(now + d);
        self.deadline_ms = d.as_millis().min(u128::from(u64::MAX)) as u64;
        self
    }

    /// Returns a copy with an intermediate-model state ceiling (`0`
    /// disables the ceiling).
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Returns a copy with an intermediate-model transition ceiling (`0`
    /// disables the ceiling).
    pub fn with_max_transitions(mut self, max_transitions: u64) -> Self {
        self.max_transitions = max_transitions;
        self
    }

    /// Returns a copy chained under `parent`: checks consult the parent
    /// too, and trips are recorded on both.
    pub fn with_parent(mut self, parent: Arc<Budget>) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Whether any limit is armed (directly or via a parent). Kernels may
    /// skip polling entirely when this is `false`.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
            || self.max_states > 0
            || self.max_transitions > 0
            || self.cancelled.load(Ordering::Relaxed)
            || self.parent.as_ref().is_some_and(|p| p.is_limited())
    }

    /// Flags the budget as cancelled; the next check fails.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Checks cancellation and the deadline. On failure the trip is
    /// recorded (first trip wins) and returned.
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(self.trip(BudgetExceeded {
                kind: BudgetKind::Cancelled,
                limit: 0,
                actual: 0,
            }));
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now >= deadline {
                let elapsed = self
                    .armed
                    .map_or(0, |a| now.duration_since(a).as_millis() as u64);
                return Err(self.trip(BudgetExceeded {
                    kind: BudgetKind::Deadline,
                    limit: self.deadline_ms,
                    actual: elapsed,
                }));
            }
        }
        if let Some(p) = &self.parent {
            p.check()?;
        }
        Ok(())
    }

    /// [`Budget::check`] plus the intermediate-model size ceiling.
    pub fn check_size(&self, states: u64, transitions: u64) -> Result<(), BudgetExceeded> {
        if self.max_states > 0 && states > self.max_states {
            return Err(self.trip(BudgetExceeded {
                kind: BudgetKind::States,
                limit: self.max_states,
                actual: states,
            }));
        }
        if self.max_transitions > 0 && transitions > self.max_transitions {
            return Err(self.trip(BudgetExceeded {
                kind: BudgetKind::Transitions,
                limit: self.max_transitions,
                actual: transitions,
            }));
        }
        if let Some(p) = &self.parent {
            p.check_size(states, transitions)?;
        }
        self.check()
    }

    /// Records `e` as this budget's trip (first trip wins, propagated to
    /// the parent chain) and returns `e` for the caller to report.
    fn trip(&self, e: BudgetExceeded) -> BudgetExceeded {
        let _ = self.tripped.compare_exchange(
            TRIP_NONE,
            kind_to_u8(e.kind),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        if let Some(p) = &self.parent {
            p.trip(e);
        }
        e
    }

    /// The first recorded budget violation, if any. Only the kind is
    /// preserved exactly; limit/actual are reconstructed best-effort (the
    /// serve layer reports the kind and a human message, both stable).
    pub fn tripped(&self) -> Option<BudgetExceeded> {
        let kind = kind_from_u8(self.tripped.load(Ordering::Relaxed))?;
        let (limit, actual) = match kind {
            BudgetKind::Deadline => (
                self.deadline_ms,
                self.armed.map_or(0, |a| a.elapsed().as_millis() as u64),
            ),
            BudgetKind::States => (self.max_states, 0),
            BudgetKind::Transitions => (self.max_transitions, 0),
            BudgetKind::Cancelled => (0, 0),
        };
        Some(BudgetExceeded {
            kind,
            limit,
            actual,
        })
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Arc<Budget>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard restoring the previous ambient budget, panic-safe.
struct ScopeGuard {
    pushed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.pushed {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// Runs `f` with `budget` installed as the ambient budget of this thread
/// (restored on exit, including unwinds). `None` is a no-op wrapper, so
/// fan-out sites can uniformly write
/// `scope(current(), || ...)` inside worker closures.
pub fn scope<R>(budget: Option<Arc<Budget>>, f: impl FnOnce() -> R) -> R {
    let guard = match budget {
        Some(b) => {
            CURRENT.with(|c| c.borrow_mut().push(b));
            ScopeGuard { pushed: true }
        }
        None => ScopeGuard { pushed: false },
    };
    let out = f();
    drop(guard);
    out
}

/// The ambient budget of this thread, if one is installed.
pub fn current() -> Option<Arc<Budget>> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// Polls the ambient budget's cancellation/deadline; **panics** with a
/// [`BudgetExceeded`] payload on violation (after recording the trip on
/// the budget). No-op without an ambient budget. Only call from loops
/// whose unwind path cannot strand barrier-synced workers.
pub fn checkpoint() {
    if let Some(b) = current() {
        if let Err(e) = b.check() {
            panic_any(e);
        }
    }
}

/// Checks the given intermediate-model size against the ambient budget
/// (plus cancellation/deadline), returning the violation as a value.
pub fn check_model_size(states: u64, transitions: u64) -> Result<(), BudgetExceeded> {
    match current() {
        Some(b) => b.check_size(states, transitions),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert!(b.check().is_ok());
        assert!(b.check_size(u64::MAX, u64::MAX).is_ok());
        assert_eq!(b.tripped(), None);
    }

    #[test]
    fn cancellation_trips_and_is_recorded() {
        let b = Budget::unlimited();
        b.cancel();
        let e = b.check().unwrap_err();
        assert_eq!(e.kind, BudgetKind::Cancelled);
        assert_eq!(b.tripped().unwrap().kind, BudgetKind::Cancelled);
    }

    #[test]
    fn expired_deadline_trips() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let e = b.check().unwrap_err();
        assert_eq!(e.kind, BudgetKind::Deadline);
        assert!(e.actual >= 1, "elapsed ms recorded: {e}");
    }

    #[test]
    fn size_ceiling_trips_on_the_right_axis() {
        let b = Budget::unlimited()
            .with_max_states(10)
            .with_max_transitions(100);
        assert!(b.check_size(10, 100).is_ok());
        assert_eq!(b.check_size(11, 0).unwrap_err().kind, BudgetKind::States);
        let e = b.check_size(5, 101).unwrap_err();
        assert_eq!(e.kind, BudgetKind::Transitions);
        assert_eq!((e.limit, e.actual), (100, 101));
        // First trip wins.
        assert_eq!(b.tripped().unwrap().kind, BudgetKind::States);
    }

    #[test]
    fn child_trip_propagates_to_parent() {
        let parent = Arc::new(Budget::unlimited());
        let child = Budget::unlimited()
            .with_max_states(1)
            .with_parent(parent.clone());
        assert!(child.check_size(2, 0).is_err());
        assert_eq!(parent.tripped().unwrap().kind, BudgetKind::States);
    }

    #[test]
    fn parent_deadline_is_honored_by_child() {
        let parent = Arc::new(Budget::unlimited().with_deadline(Duration::ZERO));
        let child = Budget::unlimited().with_parent(parent);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(child.check().unwrap_err().kind, BudgetKind::Deadline);
    }

    #[test]
    fn scope_installs_and_restores() {
        assert!(current().is_none());
        let b = Arc::new(Budget::unlimited().with_max_states(7));
        scope(Some(b.clone()), || {
            let cur = current().expect("scope installs");
            assert!(Arc::ptr_eq(&cur, &b));
            // Nested scopes shadow and restore.
            let inner = Arc::new(Budget::unlimited());
            scope(Some(inner.clone()), || {
                assert!(Arc::ptr_eq(&current().unwrap(), &inner));
            });
            assert!(Arc::ptr_eq(&current().unwrap(), &b));
        });
        assert!(current().is_none());
    }

    #[test]
    fn scope_restores_across_unwinds() {
        let b = Arc::new(Budget::unlimited());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(Some(b.clone()), || panic!("boom"))
        }));
        assert!(r.is_err());
        assert!(current().is_none(), "guard popped on unwind");
    }

    #[test]
    fn checkpoint_panics_with_typed_payload() {
        let b = Arc::new(Budget::unlimited());
        b.cancel();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scope(Some(b.clone()), checkpoint)
        }));
        let payload = r.unwrap_err();
        let e = payload
            .downcast_ref::<BudgetExceeded>()
            .expect("typed payload");
        assert_eq!(e.kind, BudgetKind::Cancelled);
        assert_eq!(b.tripped().unwrap().kind, BudgetKind::Cancelled);
    }

    #[test]
    fn ambient_model_size_check() {
        assert!(check_model_size(u64::MAX, u64::MAX).is_ok(), "no budget");
        let b = Arc::new(Budget::unlimited().with_max_states(3));
        scope(Some(b), || {
            assert!(check_model_size(3, 0).is_ok());
            assert_eq!(check_model_size(4, 0).unwrap_err().kind, BudgetKind::States);
        });
    }
}
