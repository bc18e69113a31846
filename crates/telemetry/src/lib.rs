//! # quill-telemetry
//!
//! Runtime observability for the quill stack: a cheap, shared metrics
//! registry with named instrument handles, point-in-time and delta
//! snapshots, and text exporters (Prometheus exposition format and
//! JSON-lines).
//!
//! ## Design
//!
//! * **One registry, many handles.** A [`Registry`] is a cheaply clonable
//!   handle to a shared instrument table. Components ask it for named
//!   instruments once at wiring time ([`Registry::counter`],
//!   [`Registry::gauge`], [`Registry::histogram`]) and then update them
//!   lock-free on the hot path (atomic add/store; histograms take a short
//!   mutex only when enabled).
//! * **Zero-cost when disabled.** [`Registry::disabled`] yields the same
//!   handle types backed by nothing: every update is a branch on a `None`
//!   that the optimiser folds away. Code is instrumented unconditionally
//!   and pays only when someone is watching (the quill-e2e benchmark's
//!   `telemetry.on_cost_ns_per_event` layer measures what watching costs).
//! * **Snapshots are plain data.** [`Registry::snapshot`] materialises the
//!   current instrument values into sorted maps; [`Snapshot::delta_since`]
//!   turns two cumulative snapshots into a per-interval view. The
//!   [`reporter::TelemetryReporter`] emits a snapshot every N events.
//! * **Naming scheme.** Dotted, lowercase paths by subsystem:
//!   `quill.buffer.*` (slack buffer), `quill.controller.*` (AQ-K-slack
//!   control loop), `quill.estimator.*` (delay distribution),
//!   `quill.span.<stage>` (per-stage latency attribution from the [`span`]
//!   record stream, whose [`trace`] views explain quality violations),
//!   `quill.run.*` (whole-run accounting), `quill.window.*` (window state),
//!   `quill.session.*` (resident session), `quill.serve.*` (the daemon) and
//!   `quill.executor.queue_depth` (the daemon's ingest queue). Exporters
//!   sanitise names for their target format.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod histogram;
pub mod json;
pub mod reporter;
pub mod span;
pub mod trace;

pub use histogram::LogHistogram;
pub use reporter::TelemetryReporter;
pub use span::{KChangeReason, Span, SpanRecorder, Stage};

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter handle. Cloning shares the counter.
///
/// Handles from a disabled registry are no-ops: `inc`/`add` compile to a
/// branch on a `None`.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached no-op counter (what a disabled registry hands out).
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle storing an `f64`. Cloning shares the
/// gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A detached no-op gauge.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Set from an integer value.
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Add `delta` (negative to subtract) in one atomic update, so that
    /// concurrent adders never lose one another's change.
    #[inline]
    pub fn add(&self, delta: f64) {
        if let Some(g) = &self.0 {
            let _ = g.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
        }
    }

    /// Current value (0.0 for a no-op handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// A log-bucketed histogram handle (see [`LogHistogram`]). Cloning shares
/// the histogram. Recording takes a short mutex — only when enabled.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<Mutex<LogHistogram>>>);

impl Histogram {
    /// A detached no-op histogram.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of `v` under one lock.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if let Some(h) = &self.0 {
            // Named by type, so the lint's call graph does not take this
            // for every `record_n` method in the workspace.
            LogHistogram::record_n(&mut h.lock(), v, n);
        }
    }

    /// Summarise the current contents (empty summary for a no-op handle).
    pub fn summary(&self) -> HistogramSummary {
        self.0.as_ref().map_or_else(HistogramSummary::default, |h| {
            HistogramSummary::of(&h.lock())
        })
    }
}

/// Point-in-time summary of a histogram's distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Exact minimum (0 when empty).
    pub min: u64,
    /// Exact maximum (0 when empty).
    pub max: u64,
    /// Exact mean (0 when empty).
    pub mean: f64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// Summarise a histogram.
    pub fn of(h: &LogHistogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            mean: h.mean(),
            p50: h.quantile(0.5).unwrap_or(0),
            p90: h.quantile(0.9).unwrap_or(0),
            p99: h.quantile(0.99).unwrap_or(0),
        }
    }
}

/// The shared instrument table behind an enabled registry.
#[derive(Debug)]
struct Inner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<LogHistogram>>>>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }
}

/// A shared metrics registry. Clone it freely — clones observe the same
/// instruments. [`Registry::disabled`] (also [`Registry::default`]) is the
/// zero-cost variant whose handles do nothing.
#[derive(Debug, Clone, Default)]
pub struct Registry(Option<Arc<Inner>>);

impl Registry {
    /// An enabled registry with an empty instrument table.
    pub fn new() -> Registry {
        Registry(Some(Arc::new(Inner::default())))
    }

    /// A disabled registry: same API, no-op handles, no allocations.
    pub fn disabled() -> Registry {
        Registry(None)
    }

    /// Whether instruments from this registry actually record.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Get or create the named counter. Repeated calls with one name share
    /// one underlying counter, across registry clones.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.0 {
            None => Counter(None),
            Some(inner) => {
                let mut t = inner.counters.lock();
                Counter(Some(Arc::clone(t.entry(name.to_string()).or_default())))
            }
        }
    }

    /// Get or create the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.0 {
            None => Gauge(None),
            Some(inner) => {
                let mut t = inner.gauges.lock();
                Gauge(Some(Arc::clone(t.entry(name.to_string()).or_default())))
            }
        }
    }

    /// Get or create the named histogram (default precision).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.0 {
            None => Histogram(None),
            Some(inner) => {
                let mut t = inner.histograms.lock();
                Histogram(Some(Arc::clone(t.entry(name.to_string()).or_insert_with(
                    || Arc::new(Mutex::new(LogHistogram::default())),
                ))))
            }
        }
    }

    /// Materialise every instrument's current value. Disabled registries
    /// yield an empty snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(inner) = &self.0 {
            for (name, c) in inner.counters.lock().iter() {
                snap.counters
                    .insert(name.clone(), c.load(Ordering::Relaxed));
            }
            for (name, g) in inner.gauges.lock().iter() {
                snap.gauges
                    .insert(name.clone(), f64::from_bits(g.load(Ordering::Relaxed)));
            }
            for (name, h) in inner.histograms.lock().iter() {
                snap.histograms
                    .insert(name.clone(), HistogramSummary::of(&h.lock()));
            }
        }
        snap
    }
}

/// A point-in-time (or, via [`Snapshot::delta_since`], per-interval) view
/// of every instrument in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Snapshot sequence number within a reporter's run (0 = first).
    pub seq: u64,
    /// Events observed by the reporter when this snapshot was taken.
    pub at_events: u64,
    /// Microseconds since the reporter started.
    pub wall_micros: u128,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Convenience: the named counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convenience: the named gauge's value, `None` when absent.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The per-interval view between `prev` (earlier) and `self` (later):
    /// counters and histogram counts are subtracted (saturating, so a
    /// restarted registry never underflows); gauges and histogram quantiles
    /// keep their current (point-in-time) values.
    pub fn delta_since(&self, prev: &Snapshot) -> Snapshot {
        let mut out = self.clone();
        for (name, v) in out.counters.iter_mut() {
            *v = v.saturating_sub(prev.counter(name));
        }
        for (name, h) in out.histograms.iter_mut() {
            if let Some(p) = prev.histograms.get(name) {
                h.count = h.count.saturating_sub(p.count);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = Registry::new();
        let a = reg.counter("quill.test.hits");
        let b = reg.counter("quill.test.hits");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().counter("quill.test.hits"), 5);
    }

    #[test]
    fn clones_share_the_instrument_table() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.counter("quill.x").add(7);
        assert_eq!(reg.snapshot().counter("quill.x"), 7);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("quill.x");
        let g = reg.gauge("quill.y");
        let h = reg.histogram("quill.z");
        c.add(10);
        g.set(3.5);
        h.record(42);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.summary().count, 0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn gauges_store_last_value() {
        let reg = Registry::new();
        let g = reg.gauge("quill.k");
        g.set(10.0);
        g.set_u64(250);
        assert_eq!(reg.snapshot().gauge("quill.k"), Some(250.0));
    }

    #[test]
    fn histogram_summary_has_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("quill.lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = reg.snapshot().histograms["quill.lat"];
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!(s.p50 >= 45 && s.p50 <= 55, "p50={}", s.p50);
        assert!(s.p99 >= 95, "p99={}", s.p99);
    }

    #[test]
    fn delta_subtracts_counters_keeps_gauges() {
        let reg = Registry::new();
        let c = reg.counter("quill.n");
        let g = reg.gauge("quill.k");
        let h = reg.histogram("quill.lat");
        c.add(10);
        g.set(1.0);
        h.record(5);
        let first = reg.snapshot();
        c.add(7);
        g.set(2.0);
        h.record(6);
        h.record(7);
        let second = reg.snapshot();
        let d = second.delta_since(&first);
        assert_eq!(d.counter("quill.n"), 7);
        assert_eq!(d.gauge("quill.k"), Some(2.0));
        assert_eq!(d.histograms["quill.lat"].count, 2);
    }
}
