//! Quality targets and their translation to buffering requirements.
//!
//! The user states *what result quality they need*; the system derives *how
//! much disorder tolerance that requires*:
//!
//! * [`QualityTarget::Completeness`] — "each window's first result must
//!   reflect at least fraction `q` of its tuples." Directly a delay-CDF
//!   requirement: buffer with slack `K ≥ F⁻¹(q)`.
//! * [`QualityTarget::MaxRelError`] — "the aggregate's relative error must
//!   not exceed `ε`." Translated to an *effective completeness* via an
//!   online error-sensitivity model: for mean-like aggregates, losing a
//!   random fraction `m` of tuples perturbs the result by roughly
//!   `s·m·cv/√(n·m)`-ish in expectation; we use the conservative first-order
//!   bound `rel_error ≤ sensitivity · m`, with the sensitivity estimated
//!   from the payload's observed coefficient of variation. This is the
//!   mechanism that lets error-tolerant queries run at *lower latency* than
//!   an equivalent completeness target (experiment R-F9).

use quill_metrics::StreamingStats;
use serde::{Deserialize, Serialize};

/// The user-facing quality specification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QualityTarget {
    /// Minimum fraction of each window's tuples that must be reflected in
    /// its first emitted result (`0 < q <= 1`).
    Completeness {
        /// The completeness level.
        q: f64,
    },
    /// Maximum tolerated relative error of the aggregate computed over the
    /// numeric field at `field` (`epsilon > 0`).
    MaxRelError {
        /// Error bound (e.g. 0.01 for 1 %).
        epsilon: f64,
        /// Row index of the aggregated numeric field (used to estimate
        /// error sensitivity online).
        field: usize,
    },
}

impl QualityTarget {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            QualityTarget::Completeness { q } => {
                if !(q > 0.0 && q <= 1.0) {
                    return Err(format!("completeness q={q} outside (0, 1]"));
                }
            }
            QualityTarget::MaxRelError { epsilon, .. } => {
                if !(epsilon > 0.0 && epsilon.is_finite()) {
                    return Err(format!("epsilon={epsilon} must be positive and finite"));
                }
            }
        }
        Ok(())
    }

    /// The completeness level this target requires, given the current
    /// sensitivity estimate (ignored for direct completeness targets).
    pub fn required_completeness(&self, sensitivity: &SensitivityModel) -> f64 {
        match *self {
            QualityTarget::Completeness { q } => q.clamp(0.0, 1.0),
            QualityTarget::MaxRelError { epsilon, .. } => {
                // rel_error ≈ sensitivity · missing_fraction
                //   → missing_fraction allowed = epsilon / sensitivity.
                let s = sensitivity.factor();
                let allowed_missing = if s <= 0.0 { 1.0 } else { epsilon / s };
                (1.0 - allowed_missing).clamp(0.0, 1.0)
            }
        }
    }
}

/// Online estimate of how strongly missing tuples perturb the aggregate:
/// the payload's coefficient of variation (σ/|μ|), floored at 1 to keep the
/// translation conservative for near-constant payloads.
#[derive(Debug, Clone)]
pub struct SensitivityModel {
    stats: StreamingStats,
}

impl SensitivityModel {
    /// An empty model: even a constant payload is treated as if missing
    /// ε of the tuples could produce error ε (count-style aggregates lose
    /// exactly the missing fraction).
    pub fn new() -> SensitivityModel {
        SensitivityModel {
            stats: StreamingStats::new(),
        }
    }

    /// Observe one payload value.
    pub fn observe(&mut self, v: f64) {
        if v.is_finite() {
            self.stats.push(v);
        }
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// The sensitivity factor: `max(cv, 1.0)` — missing a fraction `m` of
    /// tuples is assumed to move sum/count-like aggregates by up to `m`
    /// itself (factor 1) and high-dispersion aggregates by `cv·m`.
    pub fn factor(&self) -> f64 {
        if self.stats.count() < 2 {
            return 1.0;
        }
        let mean = self.stats.mean().abs();
        let cv = if mean < 1e-12 {
            f64::INFINITY
        } else {
            self.stats.stddev() / mean
        };
        cv.max(1.0)
    }
}

impl Default for SensitivityModel {
    fn default() -> Self {
        SensitivityModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(QualityTarget::Completeness { q: 0.95 }.validate().is_ok());
        assert!(QualityTarget::Completeness { q: 0.0 }.validate().is_err());
        assert!(QualityTarget::Completeness { q: 1.2 }.validate().is_err());
        assert!(QualityTarget::MaxRelError {
            epsilon: 0.01,
            field: 0
        }
        .validate()
        .is_ok());
        assert!(QualityTarget::MaxRelError {
            epsilon: 0.0,
            field: 0
        }
        .validate()
        .is_err());
        assert!(QualityTarget::MaxRelError {
            epsilon: f64::NAN,
            field: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn completeness_target_is_identity() {
        let t = QualityTarget::Completeness { q: 0.97 };
        assert_eq!(t.required_completeness(&SensitivityModel::new()), 0.97);
    }

    #[test]
    fn error_target_relaxes_with_low_dispersion() {
        // Near-constant payload: sensitivity floors at 1.0, so ε=0.05 allows
        // 5 % missing tuples.
        let mut s = SensitivityModel::new();
        for _ in 0..100 {
            s.observe(10.0);
        }
        let t = QualityTarget::MaxRelError {
            epsilon: 0.05,
            field: 0,
        };
        let req = t.required_completeness(&s);
        assert!((req - 0.95).abs() < 1e-9, "req={req}");
    }

    #[test]
    fn error_target_tightens_with_high_dispersion() {
        let mut s = SensitivityModel::new();
        // Alternate 0 / 20: mean 10, stddev 10 → cv = 1; add spread.
        for i in 0..1000 {
            s.observe(if i % 10 == 0 { 500.0 } else { 1.0 });
        }
        assert!(s.factor() > 2.0, "factor={}", s.factor());
        let t = QualityTarget::MaxRelError {
            epsilon: 0.05,
            field: 0,
        };
        let relaxed = QualityTarget::MaxRelError {
            epsilon: 0.05,
            field: 0,
        }
        .required_completeness(&SensitivityModel::new());
        let tightened = t.required_completeness(&s);
        assert!(tightened > relaxed, "{tightened} <= {relaxed}");
    }

    #[test]
    fn error_target_never_exceeds_full_completeness() {
        let mut s = SensitivityModel::new();
        for i in 0..100 {
            s.observe(i as f64 * 1000.0);
        }
        let t = QualityTarget::MaxRelError {
            epsilon: 1e-9,
            field: 0,
        };
        assert!(t.required_completeness(&s) <= 1.0);
    }

    #[test]
    fn sensitivity_before_data_defaults_to_one() {
        let s = SensitivityModel::new();
        assert_eq!(s.factor(), 1.0);
    }

    #[test]
    fn sensitivity_ignores_non_finite() {
        let mut s = SensitivityModel::new();
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        assert_eq!(s.count(), 0);
    }
}
