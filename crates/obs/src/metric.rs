//! The three metric kinds: monotonic counters, last-value gauges, and
//! log-bucketed histograms. All handles are cheap clones of shared atomic
//! cells, so one metric can be updated from any number of threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`.
pub const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`. One relaxed atomic add; a no-op while the
    /// [`crate::set_enabled`] kill switch is off.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding the last `f64` written.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the current value.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 before the first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A log-bucketed histogram over `u64` values (durations in nanoseconds,
/// byte volumes, depths). Power-of-two buckets keep recording branch-free
/// (`leading_zeros`) and make two histograms mergeable by bucket-wise
/// addition — no configuration to agree on.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCells>);

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of recorded values (wrapping add; practical values never wrap).
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`; `u64::MAX` for the
/// last bucket).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one observation. Two relaxed atomic adds; a no-op while the
    /// kill switch is off.
    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.0.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }

    /// Point-in-time copy of the cells. The snapshot's `count` is derived
    /// from the bucket copies, so buckets and count are always mutually
    /// consistent even under concurrent recording.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// An immutable, mergeable copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 ≤ q ≤ 1`).
    /// Resolution is one power of two — good enough to tell 1 µs from
    /// 1 ms, which is what stage timing needs.
    pub(crate) fn approx_quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Merge another snapshot into this one (bucket-wise addition — no
    /// observation is ever lost or double-bucketed).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Index of the highest non-empty bucket, if any.
    pub(crate) fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_holds_last_value() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.set(-7.25);
        assert_eq!(g.get(), -7.25);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // 0 is its own bucket; then [1,1], [2,3], [4,7], [8,15], ...
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for k in 1..64 {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(bucket_index(lo), k, "lower edge of bucket {k}");
            assert_eq!(bucket_index(hi), k, "upper edge of bucket {k}");
            assert_eq!(bucket_upper_bound(k), hi);
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        assert_eq!(bucket_upper_bound(0), 0);
    }

    #[test]
    fn histogram_records_into_correct_buckets() {
        let h = Histogram::default();
        for v in [0, 1, 1, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1005);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[bucket_index(1000)], 1);
        assert_eq!(s.max_bucket(), Some(bucket_index(1000)));
        assert!((s.mean() - 201.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_resolve_to_bucket_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(10); // bucket [8,15]
        }
        h.record(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.approx_quantile(0.5), 15);
        assert_eq!(s.approx_quantile(1.0), (1u64 << 21) - 1);
        assert_eq!(HistogramSnapshot::default().approx_quantile(0.5), 0);
    }

    #[test]
    fn merge_preserves_every_observation() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in [1, 5, 100] {
            a.record(v);
        }
        for v in [0, 5, 1 << 40] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 6);
        assert_eq!(m.sum, 1 + 5 + 100 + 5 + (1u64 << 40));
        let mut empty = HistogramSnapshot::default();
        empty.merge(&a.snapshot());
        assert_eq!(empty.count(), 3);
    }

    #[test]
    fn concurrent_counter_increments_all_land() {
        let c = Counter::default();
        let h = Histogram::default();
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.snapshot().count(), 80_000);
    }
}
