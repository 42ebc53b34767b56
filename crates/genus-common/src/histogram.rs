//! A fixed-bucket, lock-free latency histogram.
//!
//! The serve metrics surface records request latencies in it. Buckets
//! are powers of two over microseconds — bucket `i` covers
//! `[2^i, 2^(i+1))` µs (bucket 0 also absorbs 0) — which spans 1 µs to over an hour in 32 buckets with ≤ 2×
//! relative error, plenty for tail-latency reporting. Recording is one
//! atomic increment; quantiles walk the 32 counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets. Bucket 31 is open-ended.
pub const BUCKETS: usize = 32;

/// A concurrent latency histogram with power-of-two microsecond buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

/// An owned, immutable snapshot of a [`Histogram`], safe to read while
/// the original keeps recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts.
    pub counts: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (µs).
    pub sum_us: u64,
    /// Largest recorded value (µs).
    pub max_us: u64,
}

/// The bucket a microsecond value lands in.
#[must_use]
pub fn bucket_of(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        (63 - us.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound (µs) of bucket `i`, used as the reported
/// quantile value: conservative (never under-reports a latency).
#[must_use]
pub fn bucket_upper_us(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one latency sample in microseconds.
    pub fn record_us(&self, us: u64) {
        self.counts[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Takes an owned snapshot of the counters.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (i, c) in self.counts.iter().enumerate() {
            counts[i] = c.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

impl HistogramSnapshot {
    /// The value (µs) at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q·count)`-th sample, except the last
    /// occupied bucket reports the true recorded maximum. Returns 0 on an
    /// empty histogram.
    #[must_use]
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
        #[allow(clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // If every remaining sample is in this bucket, the exact
                // max is a tighter (and truthful) bound than 2^(i+1)-1.
                return if seen == self.count {
                    self.max_us.min(bucket_upper_us(i))
                } else {
                    bucket_upper_us(i)
                };
            }
        }
        self.max_us
    }

    /// Mean latency in microseconds (0 when empty).
    #[must_use]
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    /// Renders the snapshot as a JSON object:
    /// `{"count":…,"mean_us":…,"p50_us":…,"p90_us":…,"p99_us":…,"max_us":…}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            self.count,
            self.mean_us(),
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.99),
            self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        for us in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        // p50 lands in the [8,16) bucket.
        assert_eq!(s.quantile_us(0.50), 15);
        // p99 must reach the one big sample; the last occupied bucket
        // reports the exact max.
        assert_eq!(s.quantile_us(0.99), 5000);
        assert_eq!(s.max_us, 5000);
        assert_eq!(s.mean_us(), (9 * 10 + 5000) / 10);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.quantile_us(0.5), 0);
        assert_eq!(s.mean_us(), 0);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_us(t * 1000 + i);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 4000);
        assert_eq!(h.snapshot().counts.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn json_shape() {
        let h = Histogram::new();
        h.record_us(100);
        let j = h.snapshot().to_json();
        let v = crate::json::parse(&j).unwrap();
        assert_eq!(
            v.get("count").and_then(crate::json::Json::as_num),
            Some(1.0)
        );
        assert!(v.get("p99_us").is_some());
    }
}
