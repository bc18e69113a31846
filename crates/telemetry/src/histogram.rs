//! Log-bucketed histogram for non-negative integer observations.
//!
//! HDR-style layout: values are grouped into power-of-two magnitude ranges,
//! each split into `2^precision_bits` linear sub-buckets, giving a bounded
//! *relative* quantile error of `2^-precision_bits` while using O(64 ·
//! 2^precision_bits) space regardless of the value range. Used for latency
//! and delay distributions where tails span many orders of magnitude.

use serde::{Deserialize, Serialize};

/// A log-bucketed histogram over `u64` observations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogHistogram {
    precision_bits: u32,
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl LogHistogram {
    /// Create a histogram with the given sub-bucket precision (1..=12 bits;
    /// quantile relative error ≤ `2^-bits`). 7 bits (≤ 0.8 % error) is a good
    /// default.
    pub fn new(precision_bits: u32) -> LogHistogram {
        let bits = precision_bits.clamp(1, 12);
        // One magnitude range per possible leading-bit position plus the
        // initial linear range.
        let buckets = (64 - bits as usize + 1) * (1usize << bits);
        LogHistogram {
            precision_bits: bits,
            counts: vec![0; buckets],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Default precision (7 bits, ≤ 0.8 % relative quantile error).
    pub fn with_default_precision() -> LogHistogram {
        LogHistogram::new(7)
    }

    fn index_of(&self, v: u64) -> usize {
        let bits = self.precision_bits;
        let sub = 1u64 << bits;
        if v < sub {
            return v as usize;
        }
        // Magnitude = position of the leading bit beyond the linear range.
        let mag = 63 - v.leading_zeros() as u64; // >= bits
        let shift = mag - bits as u64;
        let sub_idx = (v >> shift) & (sub - 1);
        ((mag - bits as u64 + 1) * sub + sub_idx) as usize
    }

    /// Lower edge of the bucket with the given index (inverse of
    /// `index_of` up to bucket granularity).
    fn bucket_low(&self, idx: usize) -> u64 {
        let bits = self.precision_bits as u64;
        let sub = 1u64 << bits;
        let idx = idx as u64;
        if idx < sub {
            return idx;
        }
        let range = idx / sub; // >= 1
        let sub_idx = idx % sub;
        let shift = range - 1;
        (sub + sub_idx) << shift
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v` at once: the state `n` calls of
    /// [`LogHistogram::record`] leave. `n = 0` records nothing.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(v).min(self.counts.len() - 1);
        self.counts[idx] += n;
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact minimum (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate q-quantile (0..=1), with relative error bounded by the
    /// precision. Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                // Clamp to the exact observed range for tight tails.
                return Some(self.bucket_low(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram (must have identical precision).
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.precision_bits, other.precision_bits,
            "cannot merge histograms of different precision"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Reset all counts.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.min = u64::MAX;
        self.max = 0;
        self.sum = 0;
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::with_default_precision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_n_leaves_what_n_records_leave() {
        for (v, n) in [
            (0u64, 1u64),
            (5, 3),
            (127, 2),
            (1_000, 7),
            (u64::MAX, 4),
            (9, 0),
        ] {
            let (mut once, mut each) = (LogHistogram::new(7), LogHistogram::new(7));
            once.record(42);
            each.record(42);
            once.record_n(v, n);
            for _ in 0..n {
                each.record(v);
            }
            assert_eq!(once.counts, each.counts, "v {v}, n {n}");
            assert_eq!(
                (once.total, once.min, once.max, once.sum),
                (each.total, each.min, each.max, each.sum),
                "v {v}, n {n}"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new(7);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(99));
        // All values fit in the linear range (< 128): quantiles are exact.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(49));
        assert_eq!(h.quantile(1.0), Some(99));
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = LogHistogram::new(7);
        // Log-uniform sample across 6 orders of magnitude.
        let mut v = 1u64;
        let mut all = Vec::new();
        while v < 1_000_000 {
            for k in 0..10 {
                let x = v + k * v / 10;
                h.record(x);
                all.push(x);
            }
            v *= 2;
        }
        all.sort();
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            let exact = all[((q * (all.len() - 1) as f64) as usize).min(all.len() - 1)];
            let approx = h.quantile(q).unwrap();
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.02, "q={q}: approx={approx} exact={exact} rel={rel}");
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LogHistogram::default();
        for v in [2u64, 4, 9] {
            h.record(v);
        }
        assert!((h.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LogHistogram::new(7);
        let mut b = LogHistogram::new(7);
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(500));
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mixed_precision() {
        let mut a = LogHistogram::new(7);
        let b = LogHistogram::new(8);
        a.merge(&b);
    }

    #[test]
    fn clear_resets() {
        let mut h = LogHistogram::default();
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = LogHistogram::new(7);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.5).is_some());
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
    }
}
