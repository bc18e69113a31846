//! Result-latency measurement in event-time units.
//!
//! In the out-of-order literature, the *result latency* of a window is the
//! distance between the window's end and the stream clock (max event
//! timestamp seen) at the moment its result was emitted: it is exactly how
//! long the disorder-control buffer delayed the result beyond the earliest
//! possible emission point. Measuring in event time makes runs reproducible
//! and testbed-independent; wall-clock cost is measured separately, by the
//! `f7` experiment and the quill-e2e benchmark's per-layer metrics.

use crate::stats::{StreamingStats, Summary};
use crate::LogHistogram;
use quill_engine::prelude::{TimeDelta, Timestamp};
use serde::{Deserialize, Serialize};

/// Records per-result latencies and summarizes them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyRecorder {
    hist: LogHistogram,
    stats: StreamingStats,
    samples: Vec<u64>,
    keep_samples: bool,
}

impl LatencyRecorder {
    /// Recorder that keeps only the histogram + moments (O(1) memory).
    pub fn new() -> LatencyRecorder {
        LatencyRecorder {
            hist: LogHistogram::with_default_precision(),
            stats: StreamingStats::new(),
            samples: Vec::new(),
            keep_samples: false,
        }
    }

    /// Recorder that additionally retains every raw sample (exact
    /// percentiles; used by the experiment harness).
    pub fn with_samples() -> LatencyRecorder {
        let mut r = LatencyRecorder::new();
        r.keep_samples = true;
        r
    }

    /// Record a latency observation.
    pub fn record(&mut self, latency: TimeDelta) {
        self.hist.record(latency.raw());
        self.stats.push(latency.as_f64());
        if self.keep_samples {
            self.samples.push(latency.raw());
        }
    }

    /// Record the latency of a result for window ending at `window_end`,
    /// emitted when the stream clock stood at `clock`.
    pub fn record_emission(&mut self, window_end: Timestamp, clock: Timestamp) {
        self.record(clock.delta_since(window_end));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean latency in time units.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Approximate quantile from the histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.hist.quantile(q)
    }

    /// Largest observed latency.
    pub fn max(&self) -> Option<u64> {
        self.hist.max()
    }

    /// Full summary. Uses exact raw samples when retained, otherwise the
    /// histogram approximation.
    pub fn summary(&self) -> Summary {
        if self.keep_samples {
            let sample: Vec<f64> = self.samples.iter().map(|&v| v as f64).collect();
            Summary::of(&sample)
        } else {
            Summary {
                count: self.stats.count(),
                mean: self.stats.mean(),
                stddev: self.stats.stddev(),
                min: self.hist.min().unwrap_or(0) as f64,
                p50: self.hist.quantile(0.50).unwrap_or(0) as f64,
                p90: self.hist.quantile(0.90).unwrap_or(0) as f64,
                p99: self.hist.quantile(0.99).unwrap_or(0) as f64,
                max: self.hist.max().unwrap_or(0) as f64,
            }
        }
    }
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_emission_latency() {
        let mut r = LatencyRecorder::new();
        r.record_emission(Timestamp(100), Timestamp(130));
        r.record_emission(Timestamp(200), Timestamp(210));
        assert_eq!(r.count(), 2);
        assert!((r.mean() - 20.0).abs() < 1e-12);
        assert_eq!(r.max(), Some(30));
    }

    #[test]
    fn emission_before_window_end_is_zero_latency() {
        let mut r = LatencyRecorder::new();
        r.record_emission(Timestamp(100), Timestamp(90));
        assert_eq!(r.max(), Some(0));
    }

    #[test]
    fn summary_with_samples_is_exact() {
        let mut r = LatencyRecorder::with_samples();
        for v in [10u64, 20, 30, 40] {
            r.record(TimeDelta(v));
        }
        let s = r.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 40.0);
        assert!((s.p50 - 25.0).abs() < 1e-9);
    }

    #[test]
    fn summary_without_samples_uses_histogram() {
        let mut r = LatencyRecorder::new();
        for v in 0..1000u64 {
            r.record(TimeDelta(v));
        }
        let s = r.summary();
        assert_eq!(s.count, 1000);
        // Histogram p50 is within precision of the true median ~500.
        assert!((s.p50 - 500.0).abs() / 500.0 < 0.02, "p50={}", s.p50);
    }

    #[test]
    fn empty_recorder() {
        let r = LatencyRecorder::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.quantile(0.5), None);
        assert_eq!(r.summary().count, 0);
    }
}
