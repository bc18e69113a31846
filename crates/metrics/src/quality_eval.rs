//! Result-quality scoring against the ground-truth oracle.
//!
//! The *oracle* ([`oracle_results`], from [`crate::oracle`]) computes the
//! exact window results a query would produce if the stream arrived
//! perfectly in order (equivalently: with an infinite disorder buffer).
//! Quality of an actual run is scored per window against the oracle:
//!
//! * **completeness** — fraction of the window's true tuples that the
//!   emitted (first, non-revised) result reflected;
//! * **relative error** — per aggregate, `|produced − true| / max(|true|, ε)`.
//!
//! Windows the run never emitted (e.g. every tuple arrived too late) score
//! completeness 0. Results flagged as revisions (a nonzero
//! `WindowResult::revision`, which the window operator never emits) are not
//! scored: the quality-latency trade-off studied here concerns the *initial*
//! result.

pub use crate::oracle::oracle_results;
use quill_engine::operator::WindowResult;
use quill_engine::value::{Key, Value};
use quill_engine::window::Window;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Division guard for relative error against near-zero true values.
pub const REL_ERROR_EPSILON: f64 = 1e-9;

/// Per-window quality score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowQuality {
    /// The scored window.
    pub window: Window,
    /// Stringified key (for reporting).
    pub key: String,
    /// Tuples the run's result folded (`produced.count`); 0 if the window
    /// was never emitted.
    pub count: u64,
    /// `produced.count / true.count`, clamped to `[0, 1]`; 0 if the window
    /// was never emitted.
    pub completeness: f64,
    /// Relative error per aggregate; `None` where either side is
    /// non-numeric. All `1.0` (total error) for missing windows.
    pub rel_errors: Vec<Option<f64>>,
    /// Whether the run emitted this window at all.
    pub emitted: bool,
}

/// Aggregate quality report over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Number of true (oracle) windows.
    pub windows_total: u64,
    /// True windows the run never emitted.
    pub windows_missing: u64,
    /// Mean per-window completeness (missing windows count as 0).
    pub mean_completeness: f64,
    /// Minimum per-window completeness.
    pub min_completeness: f64,
    /// Mean relative error per aggregate (over windows where defined).
    pub mean_rel_error: Vec<f64>,
    /// Max relative error per aggregate.
    pub max_rel_error: Vec<f64>,
    /// Per-window scores, in oracle order (kept for time-series plots).
    pub per_window: Vec<WindowQuality>,
}

impl QualityReport {
    /// Fraction of windows whose completeness fell below `target`.
    pub fn violation_rate(&self, target: f64) -> f64 {
        if self.per_window.is_empty() {
            return 0.0;
        }
        let viol = self
            .per_window
            .iter()
            .filter(|w| w.completeness < target)
            .count();
        viol as f64 / self.per_window.len() as f64
    }

    /// Fraction of windows whose relative error for aggregate `idx`
    /// exceeded `target` (windows with undefined error are skipped).
    pub fn error_violation_rate(&self, idx: usize, target: f64) -> f64 {
        let defined: Vec<f64> = self
            .per_window
            .iter()
            .filter_map(|w| w.rel_errors.get(idx).copied().flatten())
            .collect();
        if defined.is_empty() {
            return 0.0;
        }
        defined.iter().filter(|&&e| e > target).count() as f64 / defined.len() as f64
    }
}

/// Relative error between a produced and a true aggregate value.
/// `None` when either side is non-numeric (including `Null`).
pub fn relative_error(produced: &Value, truth: &Value) -> Option<f64> {
    let (p, t) = (produced.as_f64()?, truth.as_f64()?);
    Some((p - t).abs() / t.abs().max(REL_ERROR_EPSILON))
}

/// Score a run's produced results against the oracle's.
///
/// `produced` may contain revisions; only first emissions (revision 0) are
/// scored. Produced windows absent from the oracle (possible only if the run
/// synthesized spurious windows) are ignored — the engine cannot produce
/// them because it only opens windows on real events.
pub fn score(produced: &[WindowResult], oracle: &[WindowResult]) -> QualityReport {
    let mut produced_map: HashMap<(Key, u64, u64), &WindowResult> = HashMap::new();
    for r in produced {
        if r.revision == 0 {
            produced_map.insert(
                (Key(r.key.clone()), r.window.start.raw(), r.window.end.raw()),
                r,
            );
        }
    }
    let n_aggs = oracle.first().map_or(0, |r| r.aggregates.len());
    let mut per_window = Vec::with_capacity(oracle.len());
    let mut missing = 0u64;
    let mut err_sum = vec![0.0f64; n_aggs];
    let mut err_cnt = vec![0u64; n_aggs];
    let mut err_max = vec![0.0f64; n_aggs];
    let mut compl_sum = 0.0;
    let mut compl_min = f64::INFINITY;

    for truth in oracle {
        let keyed = (
            Key(truth.key.clone()),
            truth.window.start.raw(),
            truth.window.end.raw(),
        );
        let found = produced_map.get(&keyed);
        let count = found.map_or(0, |p| p.count);
        let (completeness, rel_errors, emitted) = match found {
            Some(p) => {
                let completeness = if truth.count == 0 {
                    1.0
                } else {
                    (p.count as f64 / truth.count as f64).min(1.0)
                };
                let rel: Vec<Option<f64>> = truth
                    .aggregates
                    .iter()
                    .enumerate()
                    .map(|(i, t)| p.aggregates.get(i).and_then(|pv| relative_error(pv, t)))
                    .collect();
                (completeness, rel, true)
            }
            None => {
                missing += 1;
                (0.0, vec![Some(1.0); n_aggs], false)
            }
        };
        compl_sum += completeness;
        compl_min = compl_min.min(completeness);
        for (i, e) in rel_errors.iter().enumerate() {
            if let Some(e) = e {
                err_sum[i] += e;
                err_cnt[i] += 1;
                err_max[i] = err_max[i].max(*e);
            }
        }
        per_window.push(WindowQuality {
            window: truth.window,
            key: truth.key.to_string(),
            count,
            completeness,
            rel_errors,
            emitted,
        });
    }

    let total = oracle.len() as u64;
    QualityReport {
        windows_total: total,
        windows_missing: missing,
        mean_completeness: if total == 0 {
            1.0
        } else {
            compl_sum / total as f64
        },
        min_completeness: if total == 0 { 1.0 } else { compl_min },
        mean_rel_error: err_sum
            .iter()
            .zip(&err_cnt)
            .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect(),
        max_rel_error: err_max,
        per_window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::aggregate::{AggregateKind, AggregateSpec};
    use quill_engine::event::Event;
    use quill_engine::value::Row;
    use quill_engine::window::WindowSpec;

    fn ev(ts: u64, seq: u64, v: f64) -> Event {
        Event::new(ts, seq, Row::new([Value::Float(v)]))
    }

    fn sum_spec() -> Vec<AggregateSpec> {
        vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")]
    }

    #[test]
    fn oracle_computes_exact_windows() {
        let events = vec![ev(1, 0, 1.0), ev(5, 1, 2.0), ev(12, 2, 4.0)];
        let oracle = oracle_results(&events, WindowSpec::tumbling(10u64), &sum_spec(), None);
        assert_eq!(oracle.len(), 2);
        assert_eq!(oracle[0].aggregates[0], Value::Float(3.0));
        assert_eq!(oracle[0].count, 2);
        assert_eq!(oracle[1].aggregates[0], Value::Float(4.0));
    }

    #[test]
    fn oracle_is_arrival_order_independent() {
        let a = vec![ev(1, 0, 1.0), ev(5, 1, 2.0)];
        let b = vec![ev(5, 0, 2.0), ev(1, 1, 1.0)];
        let spec = WindowSpec::sliding(10u64, 5u64);
        let ra = oracle_results(&a, spec, &sum_spec(), None);
        let rb = oracle_results(&b, spec, &sum_spec(), None);
        // Counts/aggregates identical regardless of arrival order.
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.window, y.window);
            assert_eq!(x.count, y.count);
            assert_eq!(x.aggregates, y.aggregates);
        }
    }

    #[test]
    fn perfect_run_scores_one() {
        let events = vec![ev(1, 0, 1.0), ev(5, 1, 2.0)];
        let oracle = oracle_results(&events, WindowSpec::tumbling(10u64), &sum_spec(), None);
        let report = score(&oracle, &oracle);
        assert_eq!(report.windows_missing, 0);
        assert_eq!(report.mean_completeness, 1.0);
        assert_eq!(report.mean_rel_error, vec![0.0]);
        assert_eq!(report.violation_rate(0.99), 0.0);
    }

    #[test]
    fn missing_window_scores_zero() {
        let events = vec![ev(1, 0, 1.0), ev(15, 1, 2.0)];
        let oracle = oracle_results(&events, WindowSpec::tumbling(10u64), &sum_spec(), None);
        let produced = vec![oracle[0].clone()];
        let report = score(&produced, &oracle);
        assert_eq!(report.windows_total, 2);
        assert_eq!(report.windows_missing, 1);
        assert!((report.mean_completeness - 0.5).abs() < 1e-12);
        assert_eq!(report.min_completeness, 0.0);
        assert_eq!(report.violation_rate(0.9), 0.5);
        assert!(!report.per_window[1].emitted);
    }

    #[test]
    fn partial_window_scores_fractional_completeness_and_error() {
        let events = vec![ev(1, 0, 1.0), ev(2, 1, 2.0), ev(3, 2, 3.0), ev(4, 3, 4.0)];
        let oracle = oracle_results(&events, WindowSpec::tumbling(10u64), &sum_spec(), None);
        // A run that missed the last tuple: count 3, sum 6 (true sum 10).
        let mut partial = oracle[0].clone();
        partial.count = 3;
        partial.aggregates = vec![Value::Float(6.0)];
        let report = score(&[partial], &oracle);
        assert!((report.mean_completeness - 0.75).abs() < 1e-12);
        assert!((report.mean_rel_error[0] - 0.4).abs() < 1e-12);
        assert!((report.max_rel_error[0] - 0.4).abs() < 1e-12);
        assert_eq!(report.error_violation_rate(0, 0.3), 1.0);
        assert_eq!(report.error_violation_rate(0, 0.5), 0.0);
    }

    #[test]
    fn revisions_are_not_scored() {
        let events = vec![ev(1, 0, 1.0)];
        let oracle = oracle_results(&events, WindowSpec::tumbling(10u64), &sum_spec(), None);
        let mut rev = oracle[0].clone();
        rev.revision = 1;
        // Only a revision, no first emission → window counts as missing.
        let report = score(&[rev], &oracle);
        assert_eq!(report.windows_missing, 1);
    }

    #[test]
    fn keyed_oracle_separates_groups() {
        let mk = |ts: u64, seq: u64, k: i64, v: f64| {
            Event::new(ts, seq, Row::new([Value::Int(k), Value::Float(v)]))
        };
        let events = vec![mk(1, 0, 1, 1.0), mk(2, 1, 2, 10.0), mk(3, 2, 1, 2.0)];
        let aggs = vec![AggregateSpec::new(AggregateKind::Sum, 1, "sum")];
        let oracle = oracle_results(&events, WindowSpec::tumbling(10u64), &aggs, Some(0));
        assert_eq!(oracle.len(), 2);
        let sums: Vec<f64> = oracle
            .iter()
            .map(|r| r.aggregates[0].as_f64().unwrap())
            .collect();
        assert!(sums.contains(&3.0) && sums.contains(&10.0));
    }

    #[test]
    fn relative_error_handles_zero_truth() {
        let e = relative_error(&Value::Float(0.001), &Value::Float(0.0)).unwrap();
        assert!(e > 1.0); // guarded by epsilon, large but finite
        assert!(relative_error(&Value::Null, &Value::Float(1.0)).is_none());
        assert_eq!(
            relative_error(&Value::Float(5.0), &Value::Float(5.0)),
            Some(0.0)
        );
    }

    #[test]
    fn empty_oracle_is_vacuously_perfect() {
        let report = score(&[], &[]);
        assert_eq!(report.mean_completeness, 1.0);
        assert_eq!(report.violation_rate(0.99), 0.0);
    }
}
