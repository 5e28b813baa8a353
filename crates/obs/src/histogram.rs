//! Fixed-bucket log-scale latency histogram.
//!
//! Layout (HdrHistogram-style, 3 significant bits of precision): values
//! below 8 get exact unit buckets; above that, each octave `[2^k, 2^(k+1))`
//! is split into 8 sub-buckets, so any recorded value lands in a bucket
//! whose width is at most 1/8 of the value. That bounds the relative
//! error of [`LatencyHistogram::percentile`] by the bucket width — the
//! reported value is the bucket's inclusive upper bound, never more than
//! 12.5 % above the true sample.
//!
//! 62 octaves × 8 sub-buckets + the 8 unit buckets = 496 buckets, which
//! covers the entire `u64` range in nanoseconds (from 1 ns to ~584 years)
//! in 496 × 8 bytes = ~4 KiB of atomics. Recording is a single relaxed
//! `fetch_add`, safe from any thread without locks.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: 8 unit buckets + 61 octaves × 8 sub-buckets.
/// Octave index for the top bit 63 is `(63 - 3 + 1) = 61`, so the
/// highest bucket index is `61 * 8 + 7 = 495`.
pub const BUCKETS: usize = 496;

/// Returns the bucket index for a value. Exact below 8; log-scale with
/// 8 sub-buckets per octave above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // >= 3
        let exp = msb - 3;
        ((exp + 1) * 8 + ((v >> exp) - 8)) as usize
    }
}

/// Inclusive upper bound of bucket `idx` (the value `percentile` reports).
#[inline]
pub fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < 8 {
        idx as u64
    } else {
        let octave = (idx / 8) as u32; // >= 1
        let sub = (idx % 8) as u128;
        // First value of the *next* sub-bucket, minus one. Computed in
        // u128: for the very top bucket the next boundary is 2^64.
        let next = (8 + sub + 1) << (octave - 1);
        u64::try_from(next - 1).unwrap_or(u64::MAX)
    }
}

/// A concurrent fixed-bucket histogram of `u64` samples (nanoseconds by
/// convention, but unit-agnostic).
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; never panics for any `u64`.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds another histogram's counts into this one.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// The `p`-quantile (`p` in `[0, 1]`) as the inclusive upper bound of
    /// the bucket holding the nearest-rank sample. `None` when empty.
    /// The reported value exceeds the true sample by at most one bucket
    /// width (≤ 12.5 % relative error).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_upper_bound(idx));
            }
        }
        // Only reachable if counts raced; report the top bucket.
        Some(bucket_upper_bound(BUCKETS - 1))
    }

    /// An owned point-in-time copy of the counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// An owned, plain-data copy of a histogram at one instant. Supports the
/// same queries as the live histogram plus interval arithmetic (`delta`).
#[derive(Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Counts accumulated between `self` (earlier) and `later`, per
    /// bucket. Saturating, so a reset histogram yields zeros rather than
    /// wrapping.
    pub fn delta(&self, later: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, (a, b)) in buckets
            .iter_mut()
            .zip(self.buckets.iter().zip(later.buckets.iter()))
        {
            *out = b.saturating_sub(*a);
        }
        HistogramSnapshot {
            buckets,
            count: later.count.saturating_sub(self.count),
            sum: later.sum.saturating_sub(self.sum),
        }
    }

    /// Same nearest-rank upper-bound percentile as the live histogram.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(idx));
            }
        }
        Some(bucket_upper_bound(BUCKETS - 1))
    }

    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut values: Vec<u64> = (0..64)
            .flat_map(|shift| [0u64, 1, 3].map(|off| (1u64 << shift).saturating_add(off)))
            .collect();
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(idx >= prev, "index not monotone at v={v}");
            prev = idx;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn upper_bound_contains_value() {
        for shift in 0..64 {
            for off in [0u64, 1, 7, 100] {
                let v = (1u64 << shift).saturating_add(off);
                let ub = bucket_upper_bound(bucket_index(v));
                assert!(ub >= v, "v={v} ub={ub}");
            }
        }
    }

    #[test]
    fn percentile_error_bounded_by_bucket_width() {
        // Acceptance check: the reported percentile exceeds the true
        // sample by at most the bucket width, i.e. ≤ 1/8 of the value.
        let h = LatencyHistogram::new();
        let samples: Vec<u64> = (0..10_000u64).map(|i| i * i + 17).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let reported = h.percentile(p).unwrap();
            let rank = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
            let truth = sorted[rank];
            assert!(reported >= truth, "p={p}: {reported} < {truth}");
            let width = (truth / 8).max(1);
            assert!(
                reported <= truth + width,
                "p={p}: reported {reported} exceeds {truth} by more than a bucket width {width}"
            );
        }
    }

    #[test]
    fn merge_adds_counts() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(100);
        b.record(100);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 100 + 100 + 1_000_000);
        assert_eq!(a.snapshot().buckets[bucket_index(100)], 2);
    }

    #[test]
    fn snapshot_delta() {
        let h = LatencyHistogram::new();
        h.record(50);
        let before = h.snapshot();
        h.record(50);
        h.record(5_000);
        let after = h.snapshot();
        let d = before.delta(&after);
        assert_eq!(d.count, 2);
        assert_eq!(d.buckets[bucket_index(50)], 1);
        assert_eq!(d.buckets[bucket_index(5_000)], 1);
        // Reversed order saturates instead of wrapping.
        assert_eq!(after.delta(&before).count, 0);
    }

    #[test]
    fn empty_percentile_is_none() {
        assert_eq!(LatencyHistogram::new().percentile(0.5), None);
        assert_eq!(HistogramSnapshot::default().percentile(0.5), None);
    }
}
