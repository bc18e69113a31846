//! # quill-metrics
//!
//! Measurement and reporting for quality-driven out-of-order query
//! execution:
//!
//! * [`stats`] — streaming moments, batch summaries, percentiles, ECDF;
//! * [`LogHistogram`] — HDR-style log-bucketed histogram for latency/delay
//!   distributions with bounded relative quantile error (re-exported from
//!   `quill-telemetry`, where it also backs registry histograms);
//! * [`latency`] — per-result latency recording in event-time units;
//! * [`timeseries`] — `(time, value)` series for adaptivity plots;
//! * [`oracle`] — the one reference implementation: every window's exact
//!   in-order result recomputed from first principles, sharing no code with
//!   the engine's aggregates;
//! * [`quality_eval`] — per-window quality scoring against the oracle
//!   (completeness, relative aggregate error, violation rates);
//! * [`report`] — markdown/CSV table rendering used by the experiment
//!   harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod latency;
pub mod oracle;
pub mod quality_eval;
pub mod report;
pub mod stats;
pub mod timeseries;

pub use latency::LatencyRecorder;
pub use quality_eval::{oracle_results, relative_error, score, QualityReport, WindowQuality};
pub use quill_telemetry::LogHistogram;
pub use report::{fmt_f64, Table};
pub use stats::{ecdf_sorted, percentile_sorted, StreamingStats, Summary};
pub use timeseries::TimeSeries;
