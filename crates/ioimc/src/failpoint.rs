//! Ambient failpoint hook for crates below the chaos registry.
//!
//! The fault-injection registry (`arcade::chaos`) lives above this crate
//! in the dependency graph, but some of the boundaries worth faulting —
//! the solver-shard boundary in `ctmc::transient`, fan-out points inside
//! the aggregation pipeline — live *below* it. This module closes the
//! loop the same way [`crate::budget`] does for cooperative cancellation:
//! lower crates call [`hit`] at their boundaries, and the registry
//! installs a process-wide hook ([`install`]) plus an armed flag
//! ([`set_armed`]) when faults are requested.
//!
//! Disarmed — the production default — a [`hit`] costs **one relaxed
//! atomic load** and returns immediately; the hook function is not even
//! read. Armed, the hook decides what (if anything) happens at the named
//! point; it may panic (the registry's `panic` action unwinds from inside
//! the hook) or sleep, exactly like a budget checkpoint tripping.
//!
//! The hook is installed at most once per process ([`std::sync::OnceLock`])
//! and is intentionally a plain `fn` pointer: no state is captured, the
//! registry keeps its own state behind the pointer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The hook signature: called with the failpoint name on every armed hit.
pub type Hook = fn(&str);

static ARMED: AtomicBool = AtomicBool::new(false);
static HOOK: OnceLock<Hook> = OnceLock::new();

/// Installs the process-wide failpoint hook. The first call wins; later
/// calls (e.g. re-arming the same registry) are no-ops, which is the
/// desired idempotence — the registry behind the pointer re-reads its own
/// state on every hit.
pub fn install(hook: Hook) {
    let _ = HOOK.set(hook);
}

/// Arms or disarms the fast-path flag. While disarmed, [`hit`] is one
/// relaxed atomic load; the installed hook stays in place for the next
/// arming.
pub fn set_armed(armed: bool) {
    ARMED.store(armed, Ordering::Relaxed);
}

/// Whether hits currently reach the installed hook.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The failpoint checkpoint: call at a boundary worth faulting. Disarmed
/// (or with no hook installed) this is one relaxed load and nothing else;
/// armed, the installed hook runs and may panic or sleep in place.
#[inline]
pub fn hit(point: &str) {
    if ARMED.load(Ordering::Relaxed) {
        if let Some(hook) = HOOK.get() {
            hook(point);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hits_are_inert_even_with_a_hook() {
        // Note: the hook registry is process-global, so this test only
        // asserts behavior that holds regardless of installation order
        // with other tests in this binary.
        set_armed(false);
        hit("any.point"); // must not panic or block
        assert!(!armed());
    }
}
