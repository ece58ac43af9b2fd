//! Truncated Poisson weights for uniformization.
//!
//! A lightweight version of the Fox–Glynn algorithm: weights are computed
//! outward from the mode by the multiplicative recurrence, truncated once
//! they fall below a relative threshold, and normalized. This avoids both
//! overflow (weights are scaled relative to the mode) and underflow of the
//! naive `e^{-λ} λ^k / k!` evaluation for large `λ`.
//!
//! [`PoissonCache`] memoizes weight vectors per `λ = Λ·Δt`: a uniform
//! time grid steps by the same `Δt` between consecutive points, and a
//! batched [`crate::transient`] query evaluates several measures over the
//! same grid, so the same `λ` recurs many times within one analysis.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A truncated, normalized Poisson weight vector (see [`poisson_weights`]):
/// `weights[i]` approximates `Poisson(λ)[left + i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonWeights {
    /// Index of the first retained weight.
    pub left: usize,
    /// The retained weights (sum 1).
    pub weights: Vec<f64>,
}

impl PoissonWeights {
    /// The number of DTMC powers a uniformization sweep consuming these
    /// weights visits: the truncation's right edge `left + len` (powers
    /// below `left` are stepped through without accumulating).
    pub fn total_steps(&self) -> usize {
        self.left + self.weights.len()
    }
}

/// A thread-safe memo of [`poisson_weights`] results keyed by the exact
/// bit pattern of `λ`. Shared across the sweeps of a batched transient
/// query (and, through `arcade`'s `Session`, across whole measure
/// batches) so identical uniformization parameters are expanded once.
/// The adaptive transient engine keys by its per-segment `Λ_seg·Δt`:
/// once a grid's support (and hence `Λ_seg`) stabilizes, every later
/// uniform segment — and every Λ-escalation retry that lands on a
/// previously tried rate — hits the memo.
///
/// The memo is **bounded**: it holds at most `capacity` weight vectors
/// (default [`PoissonCache::DEFAULT_CAPACITY`]). A weight vector for a
/// large `λ` spans `O(√λ)` doubles, and a parametric sweep touches one
/// distinct `Λ·Δt` per (point, grid-Δt) pair — unbounded, the memo
/// would grow linearly with the sweep. When full, the entry inserted
/// longest ago is evicted (FIFO; every `λ` of a uniform grid recurs
/// many times right after insertion, so insertion age tracks usefulness
/// closely while keeping eviction O(1) and allocation-free).
#[derive(Debug)]
pub struct PoissonCache {
    entries: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The entries map plus the FIFO insertion order of its keys.
#[derive(Debug, Clone, Default)]
struct CacheState {
    map: HashMap<u64, Arc<PoissonWeights>>,
    order: VecDeque<u64>,
}

impl Default for PoissonCache {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl Clone for PoissonCache {
    /// Clones the cached entries (cheap `Arc` bumps); the counters
    /// restart at the cloned values.
    fn clone(&self) -> Self {
        Self {
            entries: Mutex::new(self.entries.lock().expect("cache lock").clone()),
            capacity: self.capacity,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            evictions: AtomicU64::new(self.evictions.load(Ordering::Relaxed)),
        }
    }
}

impl PoissonCache {
    /// Default entry bound: generous enough that single-model analyses
    /// (a handful of distinct `Λ·Δt` values per grid) never evict, while
    /// capping a many-point parametric sweep at a few megabytes of
    /// resident weight vectors.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` weight vectors
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(CacheState::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The weights for `lambda`, computed on first use and memoized.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative, not finite, or above `2^53` (see
    /// [`poisson_weights`]).
    pub fn get(&self, lambda: f64) -> Arc<PoissonWeights> {
        let key = lambda.to_bits();
        let mut entries = self.entries.lock().expect("cache lock");
        if let Some(w) = entries.map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return w.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (left, weights) = poisson_weights(lambda);
        let w = Arc::new(PoissonWeights { left, weights });
        while entries.map.len() >= self.capacity {
            let oldest = entries.order.pop_front().expect("order tracks map");
            entries.map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        entries.map.insert(key, w.clone());
        entries.order.push_back(key);
        w
    }

    /// The maximum number of resident weight vectors.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of currently resident weight vectors.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").map.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the memo since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run [`poisson_weights`].
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to keep the memo within its capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// The largest parameter [`poisson_weights`] accepts: `2^53`, up to which
/// every integer is an exact float.
pub(crate) const MAX_LAMBDA: f64 = 9_007_199_254_740_992.0;

/// Truncated, normalized Poisson probabilities for parameter `lambda`.
///
/// Returns `(left, weights)` such that `weights[i]` approximates
/// `Poisson(lambda)[left + i]` and the weights sum to 1. Both tails are
/// truncated where the weights drop below `1e-18` *relative to the modal
/// weight* (`REL_CUTOFF`); since the weights decay super-geometrically
/// past that point, the discarded tail mass is far below `1e-15` of the
/// total — comfortably under double-precision noise for uniformization.
///
/// # Panics
///
/// Panics if `lambda` is negative, not finite, or above `2^53`. Past
/// `2^53` the mode is no longer an exact integer, and near `2^64` it
/// saturates `usize` and the upward scan never ends; a window that wide
/// (about `18·√λ` weights) would not fit in memory anyway.
pub fn poisson_weights(lambda: f64) -> (usize, Vec<f64>) {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be non-negative and finite, got {lambda}"
    );
    assert!(
        lambda <= MAX_LAMBDA,
        "lambda must be at most 2^53, got {lambda:e}"
    );
    if lambda == 0.0 {
        return (0, vec![1.0]);
    }
    const REL_CUTOFF: f64 = 1e-18;
    let mode = lambda.floor() as usize;

    // Unnormalized weights relative to the mode (weight 1 there).
    // Downward: w[k-1] = w[k] * k / lambda.
    let mut below: Vec<f64> = Vec::new();
    {
        let mut w = 1.0;
        let mut k = mode;
        while k > 0 {
            w *= k as f64 / lambda;
            if w < REL_CUTOFF {
                break;
            }
            below.push(w);
            k -= 1;
        }
    }
    // Upward: w[k+1] = w[k] * lambda / (k+1).
    let mut above: Vec<f64> = Vec::new();
    {
        let mut w = 1.0;
        let mut k = mode;
        loop {
            w *= lambda / (k + 1) as f64;
            if w < REL_CUTOFF {
                break;
            }
            above.push(w);
            k += 1;
        }
    }

    let left = mode - below.len();
    let mut weights: Vec<f64> = below.into_iter().rev().collect();
    weights.push(1.0);
    weights.extend(above);
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    (left, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_poisson(lambda: f64, k: usize) -> f64 {
        // Stable for the small parameters used in tests.
        let mut p = (-lambda).exp();
        for i in 1..=k {
            p *= lambda / i as f64;
        }
        p
    }

    #[test]
    fn zero_lambda_is_point_mass() {
        assert_eq!(poisson_weights(0.0), (0, vec![1.0]));
    }

    #[test]
    fn weights_sum_to_one() {
        for &l in &[0.1, 1.0, 7.3, 100.0, 5000.0] {
            let (_, w) = poisson_weights(l);
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "lambda={l}: sum={sum}");
        }
    }

    #[test]
    fn matches_exact_small_lambda() {
        let lambda = 3.5;
        let (left, w) = poisson_weights(lambda);
        for (i, &wi) in w.iter().enumerate() {
            let exact = exact_poisson(lambda, left + i);
            assert!(
                (wi - exact).abs() < 1e-12,
                "k={}: {wi} vs {exact}",
                left + i
            );
        }
    }

    #[test]
    fn large_lambda_mean_is_right() {
        let lambda = 2500.0;
        let (left, w) = poisson_weights(lambda);
        let mean: f64 = w
            .iter()
            .enumerate()
            .map(|(i, &wi)| (left + i) as f64 * wi)
            .sum();
        assert!((mean - lambda).abs() < 1e-6 * lambda);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_panics() {
        let _ = poisson_weights(-1.0);
    }

    /// A finite but astronomically large parameter (a horizon of `1e308`
    /// on a slow chain) is refused at once instead of scanning an
    /// unbounded window.
    #[test]
    #[should_panic(expected = "at most 2^53")]
    fn huge_lambda_panics() {
        let _ = poisson_weights(1e307);
    }

    #[test]
    fn total_steps_is_the_truncation_right_edge() {
        let (left, weights) = poisson_weights(2500.0);
        let pw = PoissonWeights { left, weights };
        assert!(pw.left > 0, "large λ truncates the left tail");
        assert_eq!(pw.total_steps(), pw.left + pw.weights.len());
        assert_eq!(
            PoissonWeights {
                left: 0,
                weights: vec![1.0]
            }
            .total_steps(),
            1
        );
    }

    #[test]
    fn cache_memoizes_per_lambda_bits() {
        let cache = PoissonCache::new();
        let a = cache.get(7.25);
        let b = cache.get(7.25);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the memo");
        let (left, weights) = poisson_weights(7.25);
        assert_eq!(a.left, left);
        assert_eq!(a.weights, weights);
        let c = cache.get(7.26);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), PoissonCache::DEFAULT_CAPACITY);
    }

    #[test]
    fn bounded_cache_evicts_oldest_first() {
        let cache = PoissonCache::with_capacity(2);
        let a = cache.get(1.0);
        let _ = cache.get(2.0);
        let _ = cache.get(3.0); // evicts λ=1.0
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // λ=2.0 survived (still a hit), λ=1.0 must recompute.
        let hits_before = cache.hits();
        let _ = cache.get(2.0);
        assert_eq!(cache.hits(), hits_before + 1);
        let a2 = cache.get(1.0); // miss: evicts λ=3.0
        assert!(!Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_stays_bounded_under_many_distinct_lambdas() {
        let cache = PoissonCache::with_capacity(16);
        for k in 1..=500 {
            let _ = cache.get(k as f64 * 0.125);
            assert!(cache.len() <= 16);
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.evictions(), 500 - 16);
        assert_eq!(cache.misses(), 500);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = PoissonCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        let _ = cache.get(1.0);
        let _ = cache.get(2.0);
        assert_eq!(cache.len(), 1);
    }
}
