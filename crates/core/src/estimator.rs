//! Online estimation of the tuple-delay distribution.
//!
//! [`DelayEstimator`] keeps a sliding sample of the most recent `W` delays:
//! once in arrival order, for eviction, and once as counts indexed by delay
//! value. A delay below `DENSE` (2¹³) is counted in two Fenwick trees over the
//! delay value, one of counts and one of count × delay, interleaved in one
//! array of `DENSE` slots (128 KiB). A larger delay is rare on any stream a
//! slack can serve and is counted in an ordered overflow map, so the state
//! stays bounded by the sample whatever a far-future timestamp does.
//!
//! Costs, with `D = DENSE`: [`DelayEstimator::observe`] is two point
//! updates (the new delay and the evicted one), O(log D) each;
//! [`DelayEstimator::quantile`] is one Fenwick descent per quantile and
//! [`DelayEstimator::cdf`] one prefix sum; [`DelayEstimator::window_slack`]
//! is a binary search over `K ∈ [F⁻¹(q) − S, F⁻¹(q)]` of an exact integer
//! `G(K)` made of two prefix sums, O(log D · log S). A prefix sum at or past
//! the smallest overflow delay walks the overflow entries above the point
//! asked, and a descent into the overflow map walks it from its largest
//! delay; neither happens on a stream whose delays stay below `D`.
//!
//! The estimator is the open-loop half of AQ-K-slack: for a completeness
//! target `q`, it answers the smallest slack that meets it in expectation.
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
use std::ops::Bound::{Excluded, Unbounded};

/// Delays below this are counted in the Fenwick trees, larger ones in the
/// overflow map. A power of two, so a descent starts at the root slot.
const DENSE: usize = 1 << 13;

/// Sliding-window delay distribution estimator.
#[derive(Debug, Clone)]
pub struct DelayEstimator {
    capacity: usize,
    window: VecDeque<u64>,
    /// The two Fenwick trees over delays `0..DENSE`, 1-based and
    /// interleaved: `dense[i - 1]` holds `[count, count × delay]` of the
    /// delays `i - lowbit(i) .. i`, so `dense[DENSE - 1]` holds the totals.
    dense: Vec<[u64; 2]>,
    /// Count of each sampled delay `>= DENSE`.
    overflow: BTreeMap<u64, u64>,
    /// Sum of the sampled delays `>= DENSE`.
    overflow_sum: u128,
    /// Largest delay ever observed (not just within the window).
    max_ever: u64,
}

impl DelayEstimator {
    /// Estimator over the most recent `capacity` delays (>= 1).
    pub fn new(capacity: usize) -> DelayEstimator {
        DelayEstimator {
            capacity: capacity.max(1),
            window: VecDeque::with_capacity(capacity.max(1)),
            dense: vec![[0; 2]; DENSE],
            overflow: BTreeMap::new(),
            overflow_sum: 0,
            max_ever: 0,
        }
    }

    /// Observe one delay.
    pub fn observe(&mut self, d: TimeDelta) {
        let d = d.raw();
        self.max_ever = self.max_ever.max(d);
        if self.window.len() == self.capacity {
            if let Some(old) = self.window.pop_front() {
                self.tally(old, false);
            }
        }
        self.window.push_back(d);
        self.tally(d, true);
    }

    /// Count `d` into the sample (`add`) or out of it.
    fn tally(&mut self, d: u64, add: bool) {
        if d < DENSE as u64 {
            // Counts and sums stay exact, so taking one out is adding its
            // two's complement.
            let (count, sum) = if add {
                (1, d)
            } else {
                (1u64.wrapping_neg(), d.wrapping_neg())
            };
            let mut i = d as usize + 1;
            while let Some(slot) = self.dense.get_mut(i - 1) {
                slot[0] = slot[0].wrapping_add(count);
                slot[1] = slot[1].wrapping_add(sum);
                i += i & i.wrapping_neg();
            }
        } else if add {
            *self.overflow.entry(d).or_insert(0) += 1;
            self.overflow_sum += u128::from(d);
        } else if let Some(c) = self.overflow.get_mut(&d) {
            *c -= 1;
            if *c == 0 {
                self.overflow.remove(&d);
            }
            self.overflow_sum -= u128::from(d);
        }
    }

    /// Count and sum of the sampled delays below `DENSE`.
    fn dense_totals(&self) -> [u64; 2] {
        self.dense[DENSE - 1]
    }

    /// Count and sum of the sampled delays above `x`.
    fn above(&self, x: u64) -> (u64, u128) {
        let [dense_count, dense_sum] = self.dense_totals();
        let overflow_count = self.window.len() as u64 - dense_count;
        if self
            .overflow
            .first_key_value()
            .is_some_and(|(&min, _)| x >= min)
        {
            return self
                .overflow
                .range((Excluded(x), Unbounded))
                .fold((0, 0), |(n, sum), (&d, &c)| {
                    (n + c, sum + u128::from(d) * u128::from(c))
                });
        }
        if x >= DENSE as u64 - 1 {
            return (overflow_count, self.overflow_sum);
        }
        let (mut count, mut sum) = (dense_count, dense_sum);
        let mut i = x as usize + 1;
        while i > 0 {
            let [c, s] = self.dense[i - 1];
            count -= c;
            sum -= s;
            i &= i - 1;
        }
        (count + overflow_count, u128::from(sum) + self.overflow_sum)
    }

    /// The `r`-th smallest sampled delay, 1-based; `None` outside `1..=n`.
    fn select(&self, r: u64) -> Option<u64> {
        let n = self.window.len() as u64;
        if r == 0 || r > n {
            return None;
        }
        let [dense_count, _] = self.dense_totals();
        if r > dense_count {
            // Down from the largest overflow delay, counting what remains.
            let mut upto = n;
            return self.overflow.iter().rev().find_map(|(&d, &c)| {
                upto -= c;
                (upto < r).then_some(d)
            });
        }
        // Descend to the largest `pos` with fewer than `r` delays below it:
        // delay `pos` is the `r`-th.
        let (mut pos, mut rest, mut step) = (0, r, DENSE);
        while step > 0 {
            if let Some(&[c, _]) = self.dense.get(pos + step - 1) {
                if c < rest {
                    pos += step;
                    rest -= c;
                }
            }
            step /= 2;
        }
        Some(pos as u64)
    }

    /// `G(k) = Σ min(s, (d − k)⁺)` over the sampled delays `d`: the tuples'
    /// total overrun past their first window, in units of time, with
    /// `C_S(k) = 1 − G(k) / (n·s)`. Delays in `(k, k + s]` overrun by
    /// `d − k`, larger ones by `s`.
    fn overrun(&self, k: u64, s: u64) -> u128 {
        let (past_k, past_k_sum) = self.above(k);
        let (past_ks, past_ks_sum) = self.above(k.saturating_add(s));
        (past_k_sum - past_ks_sum) - u128::from(k) * u128::from(past_k - past_ks)
            + u128::from(s) * u128::from(past_ks)
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
    /// one Fenwick descent each.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [Option<TimeDelta>; N] {
        let n = self.window.len();
        qs.map(|q| {
            let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
            self.select(rank as u64).map(TimeDelta)
        })
    }

    /// Empirical CDF: fraction of windowed delays `<= d`.
    pub fn cdf(&self, d: TimeDelta) -> f64 {
        let n = self.window.len();
        if n == 0 {
            return 1.0;
        }
        let cnt = n as u64 - self.above(d.raw()).0;
        cnt as f64 / n as f64
    }

    /// The smallest slack `K` at which at least a fraction `q` of tuples
    /// reach their first window of slide `s` before it closes:
    /// `min{K : C_S(K) ≥ q}`, tested as `G(K) as f64 <= (1 − q)·n·s`. `G`
    /// falls as `K` grows and is exact in integers, so a binary search over
    /// `K` finds the smallest `K` that fits; the largest sampled delay
    /// (where `G = 0`) always does. `s = 0` (no window) is
    /// [`DelayEstimator::quantile`]. Not above the quantile but for float
    /// rounding of the budget: every tuple but one at the very end of its
    /// window has headroom past its timestamp. `None` when empty.
    pub fn window_slack(&self, q: f64, s: TimeDelta) -> Option<TimeDelta> {
        if s == TimeDelta::ZERO || self.is_empty() {
            return self.quantile(q);
        }
        let (n, s) = (self.window.len() as u64, s.raw());
        let budget = (1.0 - q.clamp(0.0, 1.0)) * n as f64 * s as f64;
        let fits = |k: u64| self.overrun(k, s) as f64 <= budget;
        // For q > 0, K* lies in [F⁻¹(q) − s, F⁻¹(q)]: at F⁻¹(q) at most
        // n − ⌈q·n⌉ delays overrun, by at most s each; below F⁻¹(q) − s
        // more than that overrun by s. Both ends are checked, and a failed
        // check widens the search to the whole sample: the budget's float
        // rounding can put F⁻¹(q) itself outside it (q·n integral), and at
        // q = 0 every K fits.
        let quantile = self.quantile(q)?.raw();
        let mut hi = if fits(quantile) {
            quantile
        } else {
            self.select(n)?
        };
        let mut lo = match quantile.checked_sub(s) {
            Some(b) if b > 0 && !fits(b - 1) => b,
            _ => 0,
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fits(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(TimeDelta(hi))
    }

    /// `C_S(k)`: the expected fraction of tuples that reach their first
    /// window of slide `s` at slack `k`; [`DelayEstimator::cdf`] at `s = 0`.
    /// 1.0 when empty.
    pub fn window_completeness(&self, k: TimeDelta, s: TimeDelta) -> f64 {
        if s == TimeDelta::ZERO || self.is_empty() {
            return self.cdf(k);
        }
        let g = self.overrun(k.raw(), s.raw());
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
    fn window_slack_checks_its_bracket_where_the_float_budget_rounds_down() {
        // q·n = 9 is integral and (1 − 0.9)·10·1024 rounds to just below
        // 1024 = G(F⁻¹(0.9)), so the quantile itself misses the budget and
        // the search must run past it.
        let e = est(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 10_000], 10);
        let s = 1_024;
        let budget = (1.0 - 0.9) * 10.0 * s as f64;
        assert_eq!(e.quantile(0.9), Some(TimeDelta::ZERO));
        let k = e.window_slack(0.9, TimeDelta(s)).unwrap().raw();
        assert_eq!(k, 8_977);
        assert!(e.overrun(k, s) as f64 <= budget);
        assert!(e.overrun(k - 1, s) as f64 > budget);
    }

    #[test]
    fn delays_past_the_dense_bound_leave_no_state_once_evicted() {
        let mut e = DelayEstimator::new(8);
        for d in [u64::MAX / 2, 1 << 40, DENSE as u64, DENSE as u64 - 1, 3, 3] {
            e.observe(TimeDelta(d));
        }
        assert_eq!(e.overflow.len(), 3);
        assert_eq!(e.quantile(0.5), Some(TimeDelta(DENSE as u64 - 1)));
        assert_eq!(e.quantile(0.51), Some(TimeDelta(DENSE as u64)));
        assert_eq!(e.cdf(TimeDelta(1 << 40)), 5.0 / 6.0);
        for d in 0..8 {
            e.observe(TimeDelta(d));
        }
        assert!(e.overflow.is_empty());
        assert_eq!(e.overflow_sum, 0);
        assert_eq!(e.dense_totals(), [8, 28]);
        assert_eq!(e.max_ever(), TimeDelta(u64::MAX / 2));
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
