//! Online estimation of the tuple-delay distribution.
//!
//! [`DelayEstimator`] maintains a sliding sample of the most recent `W`
//! delays in a sorted multiset, supporting O(log n) insertion/eviction and
//! quantile queries by cumulative walk. The estimator is the open-loop half
//! of AQ-K-slack: for a completeness target `q`, it answers the smallest
//! slack that meets it in expectation.
//!
//! A tuple of delay `D` (stream clock minus timestamp at arrival) is not
//! late when its timestamp passes the watermark `clock − K`, but when the
//! *first window* it belongs to has closed: it still reaches every result it
//! belongs to iff `D < K + (e₁ − ts)`, where `e₁` is that window's end. For
//! slide `S`, `e₁ − ts` is uniform on `(0, S]`, so the fraction of tuples
//! that make their results at slack `K` is
//! `C_S(K) = 1 − E[min(S, (D − K)⁺)] / S`, and
//! [`DelayEstimator::window_slack`] answers `K* = min{K : C_S(K) ≥ q}`.
//! With no window (`S = 0`) this is the `q`-quantile `F⁻¹(q)`, the model
//! that sizes a tuple by its own timestamp.

use quill_engine::prelude::TimeDelta;
use std::collections::{BTreeMap, VecDeque};

/// `G(k) = Σ c·min(s, (d − k)⁺)` over `(d, c)` pairs given in descending `d`
/// order: the tuples' total overrun past their first window, in units of
/// time. `C_S(k) = 1 − G(k) / (n·s)`.
fn overrun(desc: impl Iterator<Item = (u64, u64)>, k: u64, s: u64) -> u128 {
    desc.take_while(|&(d, _)| d > k)
        .map(|(d, c)| u128::from(c) * u128::from((d - k).min(s)))
        .sum()
}

/// `min{k : G(k) ≤ (1 − q)·n·s}` for `s > 0`, over the `(d, c)` pairs of an
/// `n`-delay sample in descending `d` order, in one walk down from the
/// largest delay. `G` is piecewise linear between the breakpoints `d` (where
/// a delay's term starts to grow as `k` falls) and `d − s` (where it stops,
/// at `s`), so the walk carries `G` and its slope from one breakpoint to the
/// next and solves the segment in which `G` crosses the budget.
fn min_window_slack<I>(desc: I, n: u64, q: f64, s: u64) -> u64
where
    I: Iterator<Item = (u64, u64)> + Clone,
{
    let budget = (1.0 - q.clamp(0.0, 1.0)) * n as f64 * s as f64;
    let fits = |g: u128| g as f64 <= budget;
    let mut grows = desc.clone().peekable();
    // Delays below `s` never saturate at a non-negative slack.
    let mut saturates = desc
        .map_while(|(d, c)| Some((d.checked_sub(s)?, c)))
        .peekable();
    let Some(&(mut x, _)) = grows.peek() else {
        return 0;
    };
    // G(x) and the number of delays whose term grows below x.
    let (mut g, mut slope) = (0u128, 0u128);
    loop {
        while let Some((_, c)) = grows.next_if(|&(d, _)| d == x) {
            slope += u128::from(c);
        }
        while let Some((_, c)) = saturates.next_if(|&(p, _)| p == x) {
            slope -= u128::from(c);
        }
        let next = grows.peek().map(|p| p.0).max(saturates.peek().map(|p| p.0));
        let next = next.unwrap_or(0);
        // On (next, x], G(k) = g + slope·(x − k).
        let at = move |m: u64| g + slope * u128::from(m);
        if !fits(at(x - next)) {
            // `at(0) = g` fits, so the largest fitting step m is in
            // [0, x − next); the float division may land one off it.
            let mut m = ((budget - g as f64) / slope as f64) as u64;
            m = m.min(x - next - 1);
            while m > 0 && !fits(at(m)) {
                m -= 1;
            }
            while m + 1 < x - next && fits(at(m + 1)) {
                m += 1;
            }
            return x - m;
        }
        if next == x {
            return x;
        }
        g = at(x - next);
        x = next;
    }
}

/// Sliding-window delay distribution estimator.
#[derive(Debug, Clone)]
pub struct DelayEstimator {
    capacity: usize,
    window: VecDeque<u64>,
    sorted: BTreeMap<u64, usize>,
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
            max_ever: 0,
        }
    }

    /// Observe one delay.
    pub fn observe(&mut self, d: TimeDelta) {
        let d = d.raw();
        self.max_ever = self.max_ever.max(d);
        let evicted = if self.window.len() == self.capacity {
            self.window.pop_front()
        } else {
            None
        };
        if let Some(old) = evicted {
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

    /// Largest delay ever observed.
    pub fn max_ever(&self) -> TimeDelta {
        TimeDelta(self.max_ever)
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

    /// The windowed delays as `(delay, count)`, largest first.
    fn descending(&self) -> impl Iterator<Item = (u64, u64)> + Clone + '_ {
        self.sorted.iter().rev().map(|(&d, &c)| (d, c as u64))
    }

    /// The smallest slack `K` at which at least a fraction `q` of tuples
    /// reach their first window of slide `s` before it closes:
    /// `min{K : C_S(K) ≥ q}`, in one descending walk of the sample. `s = 0`
    /// (no window) is [`DelayEstimator::quantile`]. Never above the quantile:
    /// every tuple but one at the very end of its window has headroom past
    /// its timestamp. `None` when empty.
    pub fn window_slack(&self, q: f64, s: TimeDelta) -> Option<TimeDelta> {
        if s == TimeDelta::ZERO || self.is_empty() {
            return self.quantile(q);
        }
        let n = self.window.len() as u64;
        Some(TimeDelta(min_window_slack(
            self.descending(),
            n,
            q,
            s.raw(),
        )))
    }

    /// `C_S(k)`: the expected fraction of tuples that reach their first
    /// window of slide `s` at slack `k`; [`DelayEstimator::cdf`] at `s = 0`.
    /// 1.0 when empty.
    pub fn window_completeness(&self, k: TimeDelta, s: TimeDelta) -> f64 {
        if s == TimeDelta::ZERO || self.is_empty() {
            return self.cdf(k);
        }
        let g = overrun(self.descending(), k.raw(), s.raw());
        1.0 - g as f64 / (self.window.len() as f64 * s.as_f64())
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
        let mut d = DelayEstimator::new(64);
        (0..500u64).for_each(|i| d.observe(TimeDelta(i * 31 % 97)));
        assert_eq!(d.quantiles(qs), qs.map(|q| d.quantile(q)));
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
    fn window_slack_solves_the_crossing_segment() {
        let e = est(&[0, 100, 200, 300], 100);
        let s = TimeDelta(1_000);
        // G(K) = 600 − 3K on [0, 100]; the budget is (1 − 0.9)·4·1000 = 400.
        assert_eq!(e.window_slack(0.9, s), Some(TimeDelta(67)));
        assert_eq!(e.quantile(0.9), Some(TimeDelta(300)));
        assert_eq!(e.window_slack(0.9, TimeDelta::ZERO), e.quantile(0.9));
        // A tuple at the very end of its window has no headroom, so q = 1
        // still needs the largest delay; G(0) = 600 fits a budget of 1000.
        assert_eq!(e.window_slack(1.0, s), Some(TimeDelta(300)));
        assert_eq!(e.window_slack(0.75, s), Some(TimeDelta::ZERO));
        let c = e.window_completeness(TimeDelta(67), s);
        assert!((c - (1.0 - 399.0 / 4_000.0)).abs() < 1e-12, "{c}");
        assert_eq!(e.window_completeness(TimeDelta(67), TimeDelta::ZERO), 0.25);
        assert_eq!(DelayEstimator::new(4).window_slack(0.9, s), None);
    }

    #[test]
    fn empty_estimator() {
        let e = DelayEstimator::new(10);
        assert!(e.is_empty());
        assert_eq!(e.quantile(0.5), None);
        assert_eq!(e.cdf(TimeDelta(5)), 1.0);
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
