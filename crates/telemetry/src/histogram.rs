//! Log-scale latency histograms with lossless merge.
//!
//! Duration telemetry spans six orders of magnitude (sub-µs dispatches to
//! multi-ms recovery stalls), so linear bins either blur the tail or
//! explode in count. `LogHistogram` uses exponentially spaced bins
//! (power-of-two boundaries with configurable sub-bins per octave, in the
//! HDR-histogram tradition) and supports merging — the per-rank histograms
//! of a parallel run aggregate into a global one without revisiting events,
//! which is how production telemetry systems keep collection overhead
//! constant per event.

/// Exponentially binned histogram of nanosecond durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sub-bins per power of two (resolution; 1 = pure octaves).
    sub_bins: u32,
    /// counts[i] covers values in bucket i (see [`Self::bucket_of`]).
    counts: Vec<u64>,
    total: u64,
    /// Exact min/max seen (the histogram itself is lossy).
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Histogram with `sub_bins` linear sub-divisions per octave (1–64).
    pub fn new(sub_bins: u32) -> LogHistogram {
        assert!((1..=64).contains(&sub_bins));
        LogHistogram {
            sub_bins,
            // 64 octaves cover the whole u64 range.
            counts: vec![0; (64 * sub_bins) as usize + 1],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value.
    fn bucket_of(&self, value: u64) -> usize {
        if value == 0 {
            return 0;
        }
        let octave = 63 - value.leading_zeros(); // floor(log2(value))
        let base = 1u64 << octave;
        // Position within the octave, scaled to sub_bins slots.
        let frac = ((value - base) as u128 * self.sub_bins as u128 / base as u128) as u32;
        (1 + octave * self.sub_bins + frac.min(self.sub_bins - 1)) as usize
    }

    /// Lower bound of a bucket (inverse of [`Self::bucket_of`], approximate).
    fn bucket_lo(&self, bucket: usize) -> u64 {
        if bucket == 0 {
            return 0;
        }
        let b = (bucket - 1) as u32;
        let octave = b / self.sub_bins;
        let frac = b % self.sub_bins;
        let base = 1u64 << octave;
        base + (base as u128 * frac as u128 / self.sub_bins as u128) as u64
    }

    /// Record one duration.
    pub fn record(&mut self, value: u64) {
        let b = self.bucket_of(value);
        self.counts[b] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact minimum / maximum recorded (0 / 0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (bucket lower bound; relative error bounded
    /// by the octave subdivision, ~`1/sub_bins`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return self.bucket_lo(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram (must share `sub_bins`).
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.sub_bins, other.sub_bins, "resolution mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forget every recorded value, keeping the allocation and resolution —
    /// for registries reused across runs.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Non-empty buckets as `(lower_bound_ns, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (self.bucket_lo(b), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = LogHistogram::new(8);
        for v in [0u64, 1, 100, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn quantiles_bounded_by_resolution() {
        let mut h = LogHistogram::new(16);
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = (q * 10_000.0) as u64;
            let approx = h.quantile(q);
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.15, "q={q}: approx {approx} vs exact {exact}");
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn spike_visible_in_tail_quantile() {
        let mut h = LogHistogram::new(8);
        for _ in 0..999 {
            h.record(1_000);
        }
        h.record(5_000_000);
        assert!(h.quantile(0.5) < 2_000);
        assert!(h.quantile(0.9999) >= 4_000_000);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new(8);
        let mut b = LogHistogram::new(8);
        let mut combined = LogHistogram::new(8);
        for v in [5u64, 50, 500, 5_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [7u64, 70, 700_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    #[should_panic(expected = "resolution mismatch")]
    fn merge_rejects_mixed_resolution() {
        let mut a = LogHistogram::new(8);
        a.merge(&LogHistogram::new(16));
    }

    #[test]
    fn bucket_roundtrip_monotone() {
        let h = LogHistogram::new(8);
        let mut prev = 0usize;
        for v in [1u64, 2, 3, 7, 8, 9, 1000, 1_000_000, u64::MAX / 2] {
            let b = h.bucket_of(v);
            assert!(b >= prev, "bucket not monotone at {v}");
            assert!(h.bucket_lo(b) <= v);
            prev = b;
        }
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LogHistogram::new(4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn reset_restores_the_empty_state() {
        let mut h = LogHistogram::new(8);
        for v in [5u64, 50, 500_000] {
            h.record(v);
        }
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.9), 0);
        assert!(h.nonzero_buckets().is_empty());
        // Still usable after the wipe.
        h.record(42);
        assert_eq!((h.count(), h.min(), h.max()), (1, 42, 42));
    }
}
