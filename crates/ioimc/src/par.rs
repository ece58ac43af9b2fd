//! Minimal scoped-thread fork/join helpers.
//!
//! The workspace is deliberately dependency-free, so instead of rayon this
//! module provides the one primitive the pipeline needs: run a function
//! over a slice on a bounded pool of `std::thread::scope` workers and
//! collect the results **in input order**. Work is handed out through an
//! atomic cursor, so long items do not starve the other workers.
//!
//! Everything the aggregation stack parallelizes with this — sibling plan
//! groups, independent modules, independent model configurations,
//! per-state bisimulation signatures — computes each item with exactly
//! the same code the sequential path runs, so results (and therefore all
//! measures) are bitwise identical regardless of the thread count; only
//! the wall clock changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a user-facing thread-count knob: `0` means one worker per
/// available core; any other request is **clamped to the core count** —
/// the fan-outs this module feeds are compute-bound, so workers beyond
/// the cores only add spawn and contention cost. Results never depend on
/// the worker count, so the clamp is a pure scheduling change.
pub fn effective_threads(threads: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads == 0 {
        cores
    } else {
        threads.min(cores)
    }
}

/// Splits a thread budget across `jobs` concurrent workers: each worker
/// gets an equal share (at least 1) for its own nested parallelism, so a
/// dominant job still uses multiple cores without the fan-out
/// oversubscribing the machine.
pub fn split_budget(threads: usize, jobs: usize) -> usize {
    (threads / jobs.max(1)).max(1)
}

/// Applies `f` to every item of `items` on at most `threads` scoped worker
/// threads and returns the results in input order.
///
/// With `threads <= 1` (or fewer than two items) everything runs inline on
/// the caller's thread — the sequential reference path.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn par_map<T: Sync, U: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> U + Sync,
) -> Vec<U> {
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i, &items[i]);
                *slots[i].lock().expect("no poisoned result slot") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no poisoned result slot")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches() {
        let items: Vec<u64> = (0..17).collect();
        let seq = par_map(1, &items, |_, &x| x * x);
        let par = par_map(8, &items, |_, &x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn effective_threads_resolves_auto_and_clamps() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(effective_threads(0), cores);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(3), 3.min(cores));
        // Oversubscription requests collapse to the core count.
        assert_eq!(effective_threads(cores + 100), cores);
    }
}
