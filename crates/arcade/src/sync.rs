//! Panic-safe in-flight deduplication: [`RetryCell`].
//!
//! A [`std::sync::OnceLock`] deduplicates concurrent cold builds, but its
//! contract is wrong for a resident server in two ways:
//!
//! * **After a panicking initializer** the lock is empty again and the
//!   *next* caller silently re-runs the build. Waiters that were blocked
//!   on the dying build re-run it themselves — so one poisoned request can
//!   fan out into N duplicate rebuilds with no record that anything went
//!   wrong, and the caller that panicked never told its waiters why they
//!   stalled.
//! * **A failed build cannot be retried selectively.** Storing
//!   `Result<T, E>` in the cell makes *every* error permanent, including
//!   transient ones (a tripped compute budget) that a later request with a
//!   larger budget could satisfy.
//!
//! `RetryCell` keeps the dedup property (one build in flight, waiters
//! block) and fixes both: a panicking builder *clears* the cell, wakes all
//! waiters with [`CellError::Interrupted`] (a typed error, not a silent
//! retry), and lets the next request rebuild; a builder that returns
//! `Err(e)` hands the error to the current waiters without caching it.
//! Callers that want permanent error caching simply store a `Result` as
//! the success value.

use std::sync::{Condvar, Mutex};

/// Why [`RetryCell::get_or_try_init`] did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError<E> {
    /// The builder (ours or the one we waited on) returned this error.
    /// Not cached: a later call runs the builder again.
    Init(E),
    /// The build we were waiting on panicked. The cell was cleared, so a
    /// retry will start a fresh build. The panic itself propagates on the
    /// *builder's* thread; waiters get this marker instead.
    Interrupted,
}

#[derive(Debug)]
enum State<T> {
    Empty,
    Building,
    Ready(T),
}

#[derive(Debug)]
struct Inner<T, E> {
    state: State<T>,
    /// Bumped every time a build finishes (success, failure or panic).
    /// Waiters snapshot it before blocking to tell "the build I waited on
    /// ended" apart from "a new build started".
    epoch: u64,
    /// The typed error of the build that ended at `.0 == epoch`, kept one
    /// epoch so waiters that wake late still learn why their build failed.
    fail: Option<(u64, E)>,
}

/// A dedup cell whose builder may fail or panic without wedging anyone.
///
/// Semantics (all observable through [`RetryCell::get_or_try_init`]):
///
/// * first caller on an empty cell runs the builder; concurrent callers
///   block,
/// * `Ok(v)` is cached forever; every later call returns a clone,
/// * `Err(e)` is delivered to the running builder and every blocked
///   waiter ([`CellError::Init`]) and **not** cached,
/// * a panic clears the cell, wakes every waiter with
///   [`CellError::Interrupted`], and resumes unwinding on the builder's
///   own thread.
#[derive(Debug)]
pub struct RetryCell<T, E> {
    inner: Mutex<Inner<T, E>>,
    cv: Condvar,
}

impl<T, E> Default for RetryCell<T, E> {
    fn default() -> Self {
        Self {
            inner: Mutex::new(Inner {
                state: State::Empty,
                epoch: 0,
                fail: None,
            }),
            cv: Condvar::new(),
        }
    }
}

impl<T: Clone, E> RetryCell<T, E> {
    /// Creates an empty cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached value, if a build has completed successfully. Never
    /// blocks.
    pub fn get(&self) -> Option<T> {
        match &self.inner.lock().unwrap().state {
            State::Ready(v) => Some(v.clone()),
            _ => None,
        }
    }
}

impl<T: Clone, E: Clone> RetryCell<T, E> {
    /// Returns the cached value, or runs `f` to build it — with
    /// concurrent callers blocking on the one in-flight build. See the
    /// type-level docs for the failure semantics.
    ///
    /// The closure runs **without** the cell lock held, so it may take as
    /// long as it likes and may itself use other cells (not this one).
    ///
    /// # Errors
    ///
    /// [`CellError::Init`] if the builder (ours or the awaited one)
    /// returned an error; [`CellError::Interrupted`] if the awaited build
    /// panicked.
    pub fn get_or_try_init<F>(&self, f: F) -> Result<T, CellError<E>>
    where
        F: FnOnce() -> Result<T, E>,
    {
        let mut guard = self.inner.lock().unwrap();
        loop {
            match &guard.state {
                State::Ready(v) => return Ok(v.clone()),
                State::Empty => {
                    guard.state = State::Building;
                    drop(guard);
                    // Run the builder unlocked; catch panics so we can
                    // clear the cell and wake waiters before re-raising.
                    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                    let mut guard = self.inner.lock().unwrap();
                    guard.epoch += 1;
                    let out = match built {
                        Ok(Ok(v)) => {
                            guard.state = State::Ready(v.clone());
                            guard.fail = None;
                            Ok(v)
                        }
                        Ok(Err(e)) => {
                            guard.state = State::Empty;
                            guard.fail = Some((guard.epoch, e.clone()));
                            Err(CellError::Init(e))
                        }
                        Err(payload) => {
                            guard.state = State::Empty;
                            guard.fail = None;
                            drop(guard);
                            self.cv.notify_all();
                            std::panic::resume_unwind(payload);
                        }
                    };
                    drop(guard);
                    self.cv.notify_all();
                    return out;
                }
                State::Building => {
                    let waited_epoch = guard.epoch;
                    guard = self
                        .cv
                        .wait_while(guard, |g| {
                            matches!(g.state, State::Building) && g.epoch == waited_epoch
                        })
                        .unwrap();
                    if let State::Ready(v) = &guard.state {
                        return Ok(v.clone());
                    }
                    if guard.epoch > waited_epoch {
                        // The build we waited on ended without a value.
                        return match &guard.fail {
                            Some((ep, e)) if *ep == guard.epoch => Err(CellError::Init(e.clone())),
                            _ => Err(CellError::Interrupted),
                        };
                    }
                    // Spurious wake-up: loop and re-examine.
                }
            }
        }
    }
}

/// Best-effort text of a caught panic payload (the `&str`/`String` the
/// `panic!` macro produces; a fixed marker for exotic payloads).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn caches_success() {
        let cell: RetryCell<u32, String> = RetryCell::new();
        let runs = AtomicU32::new(0);
        let build = || {
            runs.fetch_add(1, Ordering::SeqCst);
            Ok(7)
        };
        assert_eq!(cell.get_or_try_init(build), Ok(7));
        assert_eq!(cell.get_or_try_init(|| Ok(8)), Ok(7));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(cell.get(), Some(7));
    }

    #[test]
    fn error_is_not_cached() {
        let cell: RetryCell<u32, String> = RetryCell::new();
        let r = cell.get_or_try_init(|| Err("nope".to_string()));
        assert_eq!(r, Err(CellError::Init("nope".to_string())));
        assert_eq!(cell.get(), None);
        assert_eq!(cell.get_or_try_init(|| Ok(3)), Ok(3));
    }

    #[test]
    fn panic_clears_and_next_call_retries() {
        let cell: Arc<RetryCell<u32, String>> = Arc::new(RetryCell::new());
        let c = cell.clone();
        let died = std::thread::spawn(move || {
            let _ = c.get_or_try_init(|| -> Result<u32, String> { panic!("chaos") });
        })
        .join();
        assert!(died.is_err(), "builder panic must propagate on its thread");
        assert_eq!(cell.get(), None);
        assert_eq!(cell.get_or_try_init(|| Ok(42)), Ok(42));
    }

    #[test]
    fn waiters_learn_about_a_panicked_build() {
        let cell: Arc<RetryCell<u32, String>> = Arc::new(RetryCell::new());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let (c, g) = (cell.clone(), gate.clone());
        let builder = std::thread::spawn(move || {
            let _ = c.get_or_try_init(|| -> Result<u32, String> {
                g.wait(); // waiter is about to block on us
                std::thread::sleep(Duration::from_millis(50));
                panic!("chaos")
            });
        });
        gate.wait();
        // Give the waiter-side a beat to actually enter Building wait.
        let r = cell.get_or_try_init(|| Ok(9));
        // Either we blocked on the doomed build (Interrupted) or we raced
        // past its cleanup and rebuilt (Ok(9)); both leave the cell usable.
        match r {
            Err(CellError::Interrupted) => {
                assert_eq!(cell.get_or_try_init(|| Ok(9)), Ok(9));
            }
            Ok(9) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(builder.join().is_err());
        assert_eq!(cell.get(), Some(9));
    }

    #[test]
    fn waiters_receive_the_builders_error() {
        let cell: Arc<RetryCell<u32, String>> = Arc::new(RetryCell::new());
        let gate = Arc::new(std::sync::Barrier::new(2));
        let (c, g) = (cell.clone(), gate.clone());
        let builder = std::thread::spawn(move || {
            c.get_or_try_init(|| {
                g.wait();
                std::thread::sleep(Duration::from_millis(50));
                Err("bad model".to_string())
            })
        });
        gate.wait();
        let r = cell.get_or_try_init(|| Ok(1));
        match r {
            Err(CellError::Init(e)) => assert_eq!(e, "bad model"),
            Ok(1) => {} // raced past the failed build and rebuilt
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(
            builder.join().unwrap(),
            Err(CellError::Init("bad model".to_string()))
        );
    }

    #[test]
    fn n_concurrent_cold_calls_build_once() {
        let cell: Arc<RetryCell<u32, String>> = Arc::new(RetryCell::new());
        let runs = Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (c, r) = (cell.clone(), runs.clone());
                s.spawn(move || {
                    let v = c.get_or_try_init(|| {
                        r.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        Ok(5)
                    });
                    assert_eq!(v, Ok(5));
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }
}
