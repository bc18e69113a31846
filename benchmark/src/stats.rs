//! Order statistics with the two honesty rules the benchmark reports under:
//! a percentile is only named when at least ten samples lie beyond it, and a
//! difference is only printed when it clears its noise floor.

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Sort a sample in place (NaN-free inputs; NaN sorts last).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// Nearest-rank percentile of a sorted sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentile `p`, lowered until at least [`BEYOND`] samples lie beyond
/// it. Returns `(value, percentile actually reported)`. With too few samples
/// to leave ten beyond the median, the median is reported.
pub fn percentile_with_beyond(sorted: &[f64], p: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let median_rank = n.div_ceil(2);
    let highest = n.saturating_sub(BEYOND).max(median_rank);
    let rank = rank.min(highest);
    (sorted[rank - 1], rank as f64 / n as f64)
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let m = median(v);
    let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A median with the spread of the repeats it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub median: f64,
    pub mad: f64,
}

impl Measured {
    pub fn of(samples: &[f64]) -> Measured {
        Measured {
            median: median(samples),
            mad: mad(samples),
        }
    }
}

/// `a − b`, or `None` (printed as `unresolved`) when the difference is
/// smaller than its noise floor of twice the larger MAD.
pub fn resolved_diff(a: Measured, b: Measured) -> Option<f64> {
    let diff = a.median - b.median;
    let floor = 2.0 * a.mad.max(b.mad);
    (diff.abs() > floor).then_some(diff)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: rank 990 leaves exactly ten beyond, so p99 stands.
        assert_eq!(percentile_with_beyond(&v, 0.99), (990.0, 0.99));
        // 999.9th permille would leave none beyond: lowered to rank 990.
        assert_eq!(percentile_with_beyond(&v, 0.9999).0, 990.0);
        // 200 samples: p99 is rank 198 with two beyond → lowered to rank 190.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, p) = percentile_with_beyond(&v, 0.99);
        assert_eq!(value, 190.0);
        assert!((p - 0.95).abs() < 1e-12);
        // 12 samples cannot leave ten beyond anything above the median.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile_with_beyond(&v, 0.99), (6.0, 0.5));
        assert_eq!(percentile_with_beyond(&[], 0.99), (0.0, 0.0));
    }

    #[test]
    fn plain_percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn differences_inside_the_noise_floor_are_unresolved() {
        let a = Measured::of(&[100.0, 104.0, 96.0, 101.0, 99.0]); // median 100, MAD 1
        let b = Measured::of(&[98.5, 99.0, 98.0, 98.6, 98.4]); // median 98.5, MAD 0.1
        assert_eq!(a.mad, 1.0);
        // |1.5| < 2 × 1.0 → unresolved, never a percentage.
        assert_eq!(resolved_diff(a, b), None);
        let c = Measured::of(&[90.0, 90.2, 89.8, 90.1, 89.9]);
        assert_eq!(resolved_diff(a, c), Some(10.0));
        // Negative overheads resolve too when they clear the floor.
        assert_eq!(resolved_diff(c, a), Some(-10.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
