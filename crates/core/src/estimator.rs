//! Online estimation of the tuple-delay distribution.
//!
//! [`DelayEstimator`] maintains a sliding sample of the most recent `W`
//! delays in a sorted multiset, supporting O(log n) insertion/eviction and
//! quantile queries by cumulative walk. The estimator is the open-loop half
//! of AQ-K-slack: for a completeness target `q`, the smallest slack that
//! meets it in expectation is the `q`-quantile of the delay distribution,
//! `K̂ = F⁻¹(q)` — because a tuple is reflected in its window's first result
//! iff its delay is at most the slack in force when it arrived.

use quill_engine::prelude::TimeDelta;
use quill_metrics::LogHistogram;
use std::collections::{BTreeMap, VecDeque};

/// Which delay-distribution estimator AQ-K-slack uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Exact quantiles over a sliding sample of the most recent delays
    /// (O(W) memory, O(log W) updates) — the default.
    SlidingWindow,
    /// Approximate quantiles from a log-bucketed histogram with periodic
    /// exponential decay (O(1) memory regardless of tail length; quantile
    /// relative error bounded by the precision). The space-frugal
    /// alternative the R-F8 ablation compares.
    DecayingHistogram {
        /// Sub-bucket precision bits (quantile error ≤ `2^-bits`).
        precision_bits: u32,
        /// Halve all counts every this many observations (the effective
        /// memory horizon is ~`2 × decay_every`).
        decay_every: u64,
    },
}

/// A delay estimator of either kind, behind one interface.
#[derive(Debug, Clone)]
pub enum DistEstimator {
    /// Exact sliding-window estimator.
    Exact(DelayEstimator),
    /// Decaying-histogram estimator.
    Histogram(HistogramEstimator),
}

impl DistEstimator {
    /// Build from a kind descriptor (`capacity` sizes the sliding window).
    pub fn new(kind: EstimatorKind, capacity: usize) -> DistEstimator {
        match kind {
            EstimatorKind::SlidingWindow => DistEstimator::Exact(DelayEstimator::new(capacity)),
            EstimatorKind::DecayingHistogram {
                precision_bits,
                decay_every,
            } => DistEstimator::Histogram(HistogramEstimator::new(precision_bits, decay_every)),
        }
    }

    /// Observe one delay.
    pub fn observe(&mut self, d: TimeDelta) {
        match self {
            DistEstimator::Exact(e) => e.observe(d),
            DistEstimator::Histogram(h) => h.observe(d),
        }
    }

    /// The `q`-quantile of the estimated distribution.
    pub fn quantile(&self, q: f64) -> Option<TimeDelta> {
        match self {
            DistEstimator::Exact(e) => e.quantile(q),
            DistEstimator::Histogram(h) => h.quantile(q),
        }
    }

    /// Several quantiles at once, in the order asked: one cumulative walk of
    /// the sliding estimator instead of one per quantile.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [Option<TimeDelta>; N] {
        match self {
            DistEstimator::Exact(e) => e.quantiles(qs),
            DistEstimator::Histogram(h) => qs.map(|q| h.quantile(q)),
        }
    }

    /// Largest delay ever observed.
    pub fn max_ever(&self) -> TimeDelta {
        match self {
            DistEstimator::Exact(e) => e.max_ever(),
            DistEstimator::Histogram(h) => h.max_ever(),
        }
    }

    /// Estimated fraction of delays `<= d` (the open-loop completeness a
    /// slack of `d` would buy).
    pub fn cdf(&self, d: TimeDelta) -> f64 {
        match self {
            DistEstimator::Exact(e) => e.cdf(d),
            DistEstimator::Histogram(h) => h.cdf(d),
        }
    }
}

/// O(1)-memory delay estimator: a log-bucketed histogram whose counts are
/// halved every `decay_every` observations, so old regimes fade with an
/// exponential horizon instead of a hard window edge.
#[derive(Debug, Clone)]
pub struct HistogramEstimator {
    hist: LogHistogram,
    decay_every: u64,
    since_decay: u64,
    max_ever: u64,
}

impl HistogramEstimator {
    /// Build with the given precision and decay interval (clamped ≥ 1).
    pub fn new(precision_bits: u32, decay_every: u64) -> HistogramEstimator {
        HistogramEstimator {
            hist: LogHistogram::new(precision_bits),
            decay_every: decay_every.max(1),
            since_decay: 0,
            max_ever: 0,
        }
    }

    /// Observe one delay.
    pub fn observe(&mut self, d: TimeDelta) {
        self.hist.record(d.raw());
        self.max_ever = self.max_ever.max(d.raw());
        self.since_decay += 1;
        if self.since_decay >= self.decay_every {
            self.hist.halve();
            self.since_decay = 0;
        }
    }

    /// Approximate `q`-quantile.
    pub fn quantile(&self, q: f64) -> Option<TimeDelta> {
        self.hist.quantile(q).map(TimeDelta)
    }

    /// Largest delay ever observed.
    pub fn max_ever(&self) -> TimeDelta {
        TimeDelta(self.max_ever)
    }

    /// Current (decayed) observation mass.
    pub fn mass(&self) -> u64 {
        self.hist.count()
    }

    /// Fraction of (decayed) observations `<= d`.
    pub fn cdf(&self, d: TimeDelta) -> f64 {
        self.hist.cdf(d.raw())
    }
}

/// Sliding-window delay distribution estimator.
#[derive(Debug, Clone)]
pub struct DelayEstimator {
    capacity: usize,
    window: VecDeque<u64>,
    sorted: BTreeMap<u64, usize>,
    total_seen: u64,
    /// Largest delay ever observed (not just within the window).
    max_ever: u64,
}

impl DelayEstimator {
    /// Estimator over the most recent `capacity` delays (>= 1).
    pub fn new(capacity: usize) -> DelayEstimator {
        DelayEstimator {
            capacity: capacity.max(1),
            window: VecDeque::with_capacity(capacity.max(1)),
            sorted: BTreeMap::new(),
            total_seen: 0,
            max_ever: 0,
        }
    }

    /// Observe one delay.
    pub fn observe(&mut self, d: TimeDelta) {
        let d = d.raw();
        self.total_seen += 1;
        self.max_ever = self.max_ever.max(d);
        if self.window.len() == self.capacity {
            let old = self
                .window
                .pop_front()
                .expect("window non-empty at capacity");
            match self.sorted.get_mut(&old) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    self.sorted.remove(&old);
                }
            }
        }
        self.window.push_back(d);
        *self.sorted.entry(d).or_insert(0) += 1;
    }

    /// Number of delays currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no delays were observed yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Total delays observed over the estimator's lifetime.
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Largest delay ever observed.
    pub fn max_ever(&self) -> TimeDelta {
        TimeDelta(self.max_ever)
    }

    /// Largest delay inside the current window.
    pub fn max_in_window(&self) -> Option<TimeDelta> {
        self.sorted.keys().next_back().map(|&d| TimeDelta(d))
    }

    /// The empirical `q`-quantile of the windowed delay distribution: the
    /// smallest delay `d` such that at least `⌈q·n⌉` samples are `<= d`.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<TimeDelta> {
        self.quantiles([q])[0]
    }

    /// [`DelayEstimator::quantile`] of every `qs[i]`, in the order asked,
    /// from one cumulative walk of the sorted sample: the walk stops at the
    /// largest quantile asked for instead of starting over for each.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [Option<TimeDelta>; N] {
        let mut out = [None; N];
        let n = self.window.len();
        if n == 0 {
            return out;
        }
        let targets = qs.map(|q| ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n));
        let mut order: [usize; N] = std::array::from_fn(|i| i);
        order.sort_unstable_by_key(|&i| targets[i]);
        let mut pending = order.iter().peekable();
        let mut acc = 0usize;
        for (&d, &c) in &self.sorted {
            acc += c;
            while let Some(&i) = pending.next_if(|&&i| acc >= targets[i]) {
                out[i] = Some(TimeDelta(d));
            }
            if pending.peek().is_none() {
                break;
            }
        }
        out
    }

    /// Empirical CDF: fraction of windowed delays `<= d`.
    pub fn cdf(&self, d: TimeDelta) -> f64 {
        let n = self.window.len();
        if n == 0 {
            return 1.0;
        }
        let d = d.raw();
        let cnt: usize = self.sorted.range(..=d).map(|(_, &c)| c).sum();
        cnt as f64 / n as f64
    }

    /// Mean of the windowed delays (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().map(|&d| d as f64).sum::<f64>() / self.window.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(delays: &[u64], cap: usize) -> DelayEstimator {
        let mut e = DelayEstimator::new(cap);
        for &d in delays {
            e.observe(TimeDelta(d));
        }
        e
    }

    #[test]
    fn quantile_of_small_sample() {
        let e = est(&[10, 20, 30, 40, 50], 100);
        assert_eq!(e.quantile(0.0), Some(TimeDelta(10)));
        assert_eq!(e.quantile(0.2), Some(TimeDelta(10)));
        assert_eq!(e.quantile(0.5), Some(TimeDelta(30)));
        assert_eq!(e.quantile(0.9), Some(TimeDelta(50)));
        assert_eq!(e.quantile(1.0), Some(TimeDelta(50)));
    }

    #[test]
    fn quantiles_answer_like_one_walk_each_in_the_order_asked() {
        let mut e = DelayEstimator::new(256);
        for i in 0..1_000u64 {
            e.observe(TimeDelta(i * 7919 % 113 + (i % 5) * (i % 3)));
        }
        let qs = [0.97, 0.5, 0.0, 0.95, 1.0, 0.99, 0.5, 1.7, -0.2, 0.013];
        assert_eq!(e.quantiles(qs), qs.map(|q| e.quantile(q)));
        assert_eq!(e.quantiles::<0>([]), []);
        assert_eq!(DelayEstimator::new(8).quantiles([0.5, 0.9]), [None, None]);
        for kind in [
            EstimatorKind::SlidingWindow,
            EstimatorKind::DecayingHistogram {
                precision_bits: 5,
                decay_every: 300,
            },
        ] {
            let mut d = DistEstimator::new(kind, 64);
            (0..500u64).for_each(|i| d.observe(TimeDelta(i * 31 % 97)));
            assert_eq!(d.quantiles(qs), qs.map(|q| d.quantile(q)), "{kind:?}");
        }
    }

    #[test]
    fn quantile_respects_duplicates() {
        let e = est(&[5, 5, 5, 5, 100], 100);
        assert_eq!(e.quantile(0.8), Some(TimeDelta(5)));
        assert_eq!(e.quantile(0.81), Some(TimeDelta(100)));
    }

    #[test]
    fn window_evicts_oldest() {
        let mut e = DelayEstimator::new(3);
        for d in [1, 2, 3, 100, 100, 100] {
            e.observe(TimeDelta(d));
        }
        assert_eq!(e.len(), 3);
        // Window is now [100, 100, 100].
        assert_eq!(e.quantile(0.01), Some(TimeDelta(100)));
        assert_eq!(e.max_ever(), TimeDelta(100));
        assert_eq!(e.total_seen(), 6);
    }

    #[test]
    fn eviction_keeps_multiset_consistent() {
        let mut e = DelayEstimator::new(4);
        for d in [7, 7, 7, 7, 7, 7, 9] {
            e.observe(TimeDelta(d));
        }
        // Window: [7, 7, 7, 9].
        assert_eq!(e.cdf(TimeDelta(7)), 0.75);
        assert_eq!(e.cdf(TimeDelta(9)), 1.0);
        assert_eq!(e.cdf(TimeDelta(6)), 0.0);
    }

    #[test]
    fn cdf_and_quantile_are_inverse_ish() {
        let delays: Vec<u64> = (0..1000).map(|i| (i * 7919) % 4096).collect();
        let e = est(&delays, 2000);
        for &q in &[0.5, 0.9, 0.95, 0.99] {
            let k = e.quantile(q).unwrap();
            assert!(e.cdf(k) >= q, "cdf(F^-1(q)) >= q violated at {q}");
            // One sample less must undershoot.
            if k.raw() > 0 {
                assert!(e.cdf(TimeDelta(k.raw() - 1)) < q + 1e-9);
            }
        }
    }

    #[test]
    fn empty_estimator() {
        let e = DelayEstimator::new(10);
        assert!(e.is_empty());
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.cdf(TimeDelta(5)), 1.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max_in_window(), None);
    }

    #[test]
    fn mean_tracks_window_only() {
        let mut e = DelayEstimator::new(2);
        e.observe(TimeDelta(1000));
        e.observe(TimeDelta(10));
        e.observe(TimeDelta(20));
        assert_eq!(e.mean(), 15.0);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let mut e = DelayEstimator::new(0);
        e.observe(TimeDelta(5));
        e.observe(TimeDelta(9));
        assert_eq!(e.len(), 1);
        assert_eq!(e.quantile(0.5), Some(TimeDelta(9)));
    }
}

#[cfg(test)]
mod hist_tests {
    use super::*;

    #[test]
    fn histogram_estimator_tracks_quantiles_of_stationary_stream() {
        // Decay interval beyond the test length: isolates bucket precision
        // (recency weighting is covered by the forgetting test below).
        let mut h = HistogramEstimator::new(7, 1_000_000);
        let mut e = DelayEstimator::new(100_000);
        for i in 0..10_000u64 {
            let d = TimeDelta((i * 7919) % 5_000);
            h.observe(d);
            e.observe(d);
        }
        for &q in &[0.5, 0.9, 0.99] {
            let approx = h.quantile(q).unwrap().as_f64();
            let exact = e.quantile(q).unwrap().as_f64();
            let rel = (approx - exact).abs() / exact.max(1.0);
            assert!(rel < 0.05, "q={q}: approx {approx} vs exact {exact}");
        }
    }

    #[test]
    fn histogram_estimator_forgets_old_regime() {
        let mut h = HistogramEstimator::new(7, 100);
        for _ in 0..500 {
            h.observe(TimeDelta(10_000)); // stressed regime
        }
        for _ in 0..2_000 {
            h.observe(TimeDelta(10)); // calm regime, 20 decay periods later
        }
        assert!(
            h.quantile(0.99).unwrap() <= TimeDelta(20),
            "old regime not forgotten: p99 = {:?}",
            h.quantile(0.99)
        );
        // max_ever is a lifetime statistic, unaffected by decay.
        assert_eq!(h.max_ever(), TimeDelta(10_000));
    }

    #[test]
    fn dist_estimator_dispatch() {
        let mut exact = DistEstimator::new(EstimatorKind::SlidingWindow, 16);
        let mut hist = DistEstimator::new(
            EstimatorKind::DecayingHistogram {
                precision_bits: 7,
                decay_every: 64,
            },
            16,
        );
        for d in [5u64, 10, 20, 40] {
            exact.observe(TimeDelta(d));
            hist.observe(TimeDelta(d));
        }
        assert_eq!(exact.quantile(1.0), Some(TimeDelta(40)));
        assert_eq!(hist.quantile(1.0), Some(TimeDelta(40)));
        assert_eq!(exact.max_ever(), TimeDelta(40));
        assert_eq!(hist.max_ever(), TimeDelta(40));
    }
}
