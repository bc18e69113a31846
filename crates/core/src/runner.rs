//! End-to-end query runner: strategy + windowed query + measurement.
//!
//! [`execute`] drives one continuous query over one arrival-ordered event
//! sequence under a chosen [`DisorderControl`] strategy, and measures
//! everything the experiments report: per-result latency (event-time),
//! result quality vs. the in-order oracle, K and buffer-occupancy time
//! series, wall-clock processing time, and (when an enabled
//! [`quill_telemetry::Registry`] is supplied via [`ExecOptions`]) periodic
//! telemetry snapshots. [`execute_shared`] does the same for several
//! queries sharing one strategy. [`ExecOptions`] selects sequential
//! execution — the loop a [`crate::session::Session`] runs, which is also
//! the surface for resident, push-mode execution with runtime query
//! registration — or the keyed-parallel executor.

use crate::plan::{analyze_plan, refuse_denied, DelayProfile, Diagnostic};
use crate::session::{push_event, release, MultiQueryCore, QueryConfig};
use crate::strategy::DisorderControl;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::error::{EngineError, Result};
use quill_engine::event::{ClockTracker, Event, StreamElement};
use quill_engine::operator::{LatePolicy, WindowAggregateOp, WindowOpStats, WindowResult};
use quill_engine::parallel::{run_keyed_parallel, ParallelConfig};
use quill_engine::time::{TimeDelta, Timestamp};
use quill_engine::window::WindowSpec;
use quill_metrics::quality_eval::{oracle_results, score, QualityReport};
use quill_metrics::{LatencyRecorder, Summary, TimeSeries};
use quill_telemetry::trace::{PostMortem, ProvenanceBuilder, ProvenanceRecord};
use quill_telemetry::{Histogram, Registry, Snapshot, SpanRecorder, Stage, TelemetryReporter};

/// The continuous query to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Window shape.
    pub window: WindowSpec,
    /// Aggregates to compute per window.
    pub aggregates: Vec<AggregateSpec>,
    /// Optional grouping key field.
    pub key_field: Option<usize>,
}

impl QuerySpec {
    /// Start building a query fluently: window, then aggregates, then an
    /// optional key field; everything is validated at
    /// [`QuerySpecBuilder::build`].
    ///
    /// ```
    /// use quill_core::prelude::*;
    ///
    /// let query = QuerySpec::builder()
    ///     .window(WindowSpec::tumbling(1000u64))
    ///     .aggregate(AggregateKind::Mean, 1, "mean_price")
    ///     .key_field(0)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(query.key_field, Some(0));
    /// ```
    pub fn builder() -> QuerySpecBuilder {
        QuerySpecBuilder {
            window: None,
            aggregates: Vec::new(),
            key_field: None,
        }
    }

    /// Convenience constructor.
    pub fn new(
        window: WindowSpec,
        aggregates: Vec<AggregateSpec>,
        key_field: Option<usize>,
    ) -> QuerySpec {
        QuerySpec {
            window,
            aggregates,
            key_field,
        }
    }

    /// Build a query by *field name* against a schema: each `(kind, field
    /// name)` pair becomes an aggregate over the resolved index (output
    /// column named `<kind>_<field>`), and `key` optionally names the
    /// grouping field.
    ///
    /// ```
    /// use quill_core::runner::QuerySpec;
    /// use quill_engine::prelude::*;
    ///
    /// let schema = Schema::new([
    ///     ("symbol", FieldType::Int),
    ///     ("price", FieldType::Float),
    /// ]).unwrap();
    /// let q = QuerySpec::by_name(
    ///     &schema,
    ///     WindowSpec::tumbling(1000u64),
    ///     &[(AggregateKind::Mean, "price")],
    ///     Some("symbol"),
    /// ).unwrap();
    /// assert_eq!(q.aggregates[0].field, 1);
    /// assert_eq!(q.key_field, Some(0));
    /// ```
    ///
    /// # Errors
    /// [`quill_engine::error::EngineError::UnknownField`] for unresolved
    /// names; invalid window/aggregate parameters propagate.
    pub fn by_name(
        schema: &quill_engine::value::Schema,
        window: WindowSpec,
        aggregates: &[(quill_engine::aggregate::AggregateKind, &str)],
        key: Option<&str>,
    ) -> Result<QuerySpec> {
        window.validate()?;
        let aggs = aggregates
            .iter()
            .map(|&(kind, name)| {
                let field = schema.index_of(name)?;
                let spec = AggregateSpec::new(kind, field, format!("{kind}_{name}"));
                spec.validate()?;
                Ok(spec)
            })
            .collect::<Result<Vec<_>>>()?;
        let key_field = key.map(|k| schema.index_of(k)).transpose()?;
        Ok(QuerySpec {
            window,
            aggregates: aggs,
            key_field,
        })
    }

    /// A fresh window operator for this query, dropping late events.
    pub(crate) fn window_op(&self) -> Result<WindowAggregateOp> {
        let aggregates = self.aggregates.clone();
        WindowAggregateOp::new(self.window, aggregates, self.key_field, LatePolicy::Drop)
    }
}

/// Fluent, validated construction of a [`QuerySpec`] — see
/// [`QuerySpec::builder`].
#[derive(Debug, Clone)]
pub struct QuerySpecBuilder {
    window: Option<WindowSpec>,
    aggregates: Vec<AggregateSpec>,
    key_field: Option<usize>,
}

impl QuerySpecBuilder {
    /// Set the window shape (required).
    pub fn window(mut self, window: WindowSpec) -> QuerySpecBuilder {
        self.window = Some(window);
        self
    }

    /// Append one aggregate over `field`, naming its output column.
    pub fn aggregate(
        mut self,
        kind: AggregateKind,
        field: usize,
        name: impl Into<String>,
    ) -> QuerySpecBuilder {
        self.aggregates.push(AggregateSpec::new(kind, field, name));
        self
    }

    /// Group results by the given row index.
    pub fn key_field(mut self, field: usize) -> QuerySpecBuilder {
        self.key_field = Some(field);
        self
    }

    /// Validate and build the query.
    ///
    /// # Errors
    /// [`EngineError::InvalidPipeline`] when the window is missing or no
    /// aggregate was added; invalid window/aggregate parameters propagate.
    pub fn build(self) -> Result<QuerySpec> {
        let window = self
            .window
            .ok_or_else(|| EngineError::InvalidPipeline("query window is required".into()))?;
        window.validate()?;
        if self.aggregates.is_empty() {
            return Err(EngineError::InvalidPipeline(
                "at least one aggregate is required".into(),
            ));
        }
        for a in &self.aggregates {
            a.validate()?;
        }
        Ok(QuerySpec {
            window,
            aggregates: self.aggregates,
            key_field: self.key_field,
        })
    }
}

/// How the runner executes a query and what it observes while doing so.
/// `Default` is sequential, telemetry disabled.
///
/// # Toggle reference
///
/// Options compose; none of them silently overrides another. Combinations
/// that interact are checked by the static plan analyzer
/// ([`crate::plan::analyze_plan`]) before execution — conflicting or
/// ineffective pairings surface as `plan.options.*` diagnostics instead of
/// being resolved by builder-call ordering.
///
/// | toggle | effect | inert without | plan rule when misused |
/// |---|---|---|---|
/// | [`with_telemetry`](ExecOptions::with_telemetry) | instruments record into the registry | — | — |
/// | [`with_snapshot_every`](ExecOptions::with_snapshot_every) | periodic registry snapshots | enabled telemetry | `plan.options.snapshot-without-telemetry` (warn) |
/// | [`with_spans`](ExecOptions::with_spans) | one record stream (logical clock): stage spans, K changes, late arrivals and drops; per-stage latency attribution; provenance records | — | — |
/// | [`with_required_completeness`](ExecOptions::with_required_completeness) | flags windows below the target; builds post-mortems | enabled spans (for post-mortems) | `plan.options.completeness-without-spans` (warn); `plan.options.completeness-range` (deny) outside (0, 1] |
/// | [`with_delay_profile`](ExecOptions::with_delay_profile) | enables quality-feasibility checks | a quality target somewhere (options or strategy) | `plan.options.delay-profile-unused` (advice) |
/// | [`parallel`](ExecOptions::parallel) | keyed-parallel executor | — | `plan.parallel.*` rules |
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// `Some(config)` stages the strategy's output and fans the windowing
    /// work out on the keyed-parallel executor, one thread per shard, each
    /// inserting its own keys' events on arrival and finalizing their
    /// windows: element-identical output to the sequential run. `None`
    /// runs sequentially, in the loop a [`crate::session::Session`] runs,
    /// nothing staged.
    pub parallel: Option<ParallelConfig>,
    /// Telemetry registry instruments record into.
    /// [`Registry::disabled`] (the default) makes every instrument a no-op.
    pub telemetry: Registry,
    /// Take a telemetry snapshot every this many input events (0 = only the
    /// final end-of-run snapshot). Ignored when telemetry is disabled.
    pub snapshot_every_events: u64,
    /// The record stream every stage records into, on the logical
    /// (event-time) clock: buffer residency per watermark advance, late
    /// arrivals, K changes with their reason, window finalizations and late
    /// drops, and result delivery.
    /// [`SpanRecorder::disabled`] (the default) makes every hook a branch.
    /// With an enabled recorder, [`RunOutput::provenance`] carries one
    /// record per scored window and [`RunOutput::post_mortems`] the causal
    /// slice of every window that violated
    /// [`ExecOptions::required_completeness`]. Drain with
    /// [`SpanRecorder::take`] for timeline export, or call
    /// [`SpanRecorder::instrument`] first so per-stage duration histograms
    /// (`quill.span.<stage>`) land in `telemetry`.
    pub spans: SpanRecorder,
    /// Per-window completeness target used to flag violations in the
    /// provenance layer. `None` (the default) means no window is considered
    /// violated. Only consulted when `spans` is enabled.
    pub required_completeness: Option<f64>,
    /// Statically declared transport-delay regime, enabling the plan
    /// analyzer's quality-feasibility checks ([`crate::plan::analyze_plan`]).
    /// `None` (the default) keeps those checks silent.
    pub delay_profile: Option<DelayProfile>,
}

impl ExecOptions {
    /// Sequential execution, telemetry disabled (same as `Default`).
    pub fn sequential() -> ExecOptions {
        ExecOptions::default()
    }

    /// Parallel execution with the given executor configuration: the
    /// strategy's output is staged whole, then windowed across the shards
    /// (see the `parallel` field).
    pub fn parallel(config: ParallelConfig) -> ExecOptions {
        ExecOptions {
            parallel: Some(config),
            ..ExecOptions::default()
        }
    }

    /// Record telemetry into `registry` (cloned; clones share instruments).
    pub fn with_telemetry(mut self, registry: &Registry) -> ExecOptions {
        self.telemetry = registry.clone();
        self
    }

    /// Snapshot every `n` input events in addition to the final snapshot.
    pub fn with_snapshot_every(mut self, n: u64) -> ExecOptions {
        self.snapshot_every_events = n;
        self
    }

    /// Record the run's record stream into `spans` (cloned; clones share
    /// the ring). See [`ExecOptions::spans`].
    pub fn with_spans(mut self, spans: &SpanRecorder) -> ExecOptions {
        self.spans = spans.clone();
        self
    }

    /// Flag windows whose completeness falls below `q` as violations in the
    /// provenance layer (builds their post-mortems when recording spans).
    pub fn with_required_completeness(mut self, q: f64) -> ExecOptions {
        self.required_completeness = Some(q);
        self
    }

    /// Declare the expected transport-delay regime so the plan analyzer can
    /// check quality-target feasibility before execution. A deny-level
    /// finding (e.g. completeness 1.0 under [`DelayProfile::Unbounded`])
    /// makes [`execute`] refuse the plan.
    pub fn with_delay_profile(mut self, profile: DelayProfile) -> ExecOptions {
        self.delay_profile = Some(profile);
        self
    }
}

/// How often (in events) to sample K and buffer occupancy into time series.
const SERIES_SAMPLE_EVERY: u64 = 32;

/// Everything measured over one run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Strategy name.
    pub strategy: String,
    /// All first-emission and revision results, in emission order.
    pub results: Vec<WindowResult>,
    /// Per-result latency summary (event-time units; exact percentiles).
    pub latency: Summary,
    /// Result quality vs. the in-order oracle.
    pub quality: QualityReport,
    /// K over event time.
    pub k_series: TimeSeries,
    /// Buffer occupancy over event time.
    pub buffer_series: TimeSeries,
    /// Mean K over the run (time-series mean).
    pub mean_k: f64,
    /// Buffer counters.
    pub buffer: crate::buffer::BufferStats,
    /// Window-operator counters.
    pub window_stats: WindowOpStats,
    /// Wall-clock processing time of the whole run, in microseconds
    /// (generation and oracle scoring excluded).
    pub wall_micros: u128,
    /// Events processed.
    pub events: u64,
    /// Telemetry snapshots collected during the run (empty when telemetry is
    /// disabled). The final snapshot is taken after all windowing work, so
    /// its counters cover the whole run.
    pub snapshots: Vec<Snapshot>,
    /// Per-window provenance records, in quality-report order (empty unless
    /// [`ExecOptions::spans`] is enabled).
    pub provenance: Vec<ProvenanceRecord>,
    /// Post-mortems for every window that violated
    /// [`ExecOptions::required_completeness`] (empty unless recording spans
    /// with a target set).
    pub post_mortems: Vec<PostMortem>,
    /// Advisory and warn-level plan diagnostics from the pre-execution
    /// static analysis ([`crate::plan::analyze_plan`]); deny-level findings
    /// never appear here because they abort [`execute`] instead.
    pub plan: Vec<Diagnostic>,
}

impl RunOutput {
    /// Throughput in events per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.wall_micros == 0 {
            0.0
        } else {
            self.events as f64 / (self.wall_micros as f64 / 1e6)
        }
    }
}

/// Per-query measurement of a shared run.
#[derive(Debug, Clone)]
pub struct SharedQueryOutput {
    /// Index into the input query slice.
    pub query_index: usize,
    /// Emitted results in order.
    pub results: Vec<WindowResult>,
    /// Per-result latency summary.
    pub latency: Summary,
    /// Quality vs. this query's own oracle.
    pub quality: QualityReport,
}

/// Outcome of a shared multi-query run.
#[derive(Debug, Clone)]
pub struct SharedRunOutput {
    /// Strategy name.
    pub strategy: String,
    /// One entry per input query.
    pub per_query: Vec<SharedQueryOutput>,
    /// Wall-clock time for the whole shared run, microseconds.
    pub wall_micros: u128,
    /// Telemetry snapshots collected during the run (empty when telemetry is
    /// disabled).
    pub snapshots: Vec<Snapshot>,
    /// Advisory and warn-level plan diagnostics across all queries
    /// (deduplicated); deny-level findings abort [`execute_shared`] instead.
    pub plan: Vec<Diagnostic>,
}

/// The batch loop: per event, [`push_event`] (the step a
/// [`crate::session::Session`] runs per push), the `quill.run.events` and
/// reporter ticks and the K / buffer samples; then the strategy's final
/// elements at the final clock. The reporter comes back unfinished.
fn drive(
    events: &[Event],
    strategy: &mut dyn DisorderControl,
    opts: &ExecOptions,
    mut sink: impl FnMut(StreamElement, Timestamp),
) -> (TimeSeries, TimeSeries, TelemetryReporter) {
    strategy.instrument(&opts.telemetry);
    strategy.attach_spans(&opts.spans);
    let run_events = opts.telemetry.counter("quill.run.events");
    let mut reporter = TelemetryReporter::new(&opts.telemetry, opts.snapshot_every_events);
    let (mut k_series, mut buffer_series) = (TimeSeries::new("k"), TimeSeries::new("buffered"));
    let (mut clock, mut staged) = (ClockTracker::new(), Vec::new());
    for (i, e) in events.iter().enumerate() {
        push_event(strategy, &mut clock, &mut staged, e.clone(), &mut sink);
        run_events.inc();
        reporter.observe_events(1);
        if (i as u64).is_multiple_of(SERIES_SAMPLE_EVERY) {
            let now = clock.clock().unwrap_or(Timestamp::MIN);
            // The oracle's "infinite" K is left out, for plottability.
            let k = strategy.current_k();
            if k != TimeDelta::MAX {
                k_series.push(now, k.as_f64());
            }
            let b = strategy.buffer_stats();
            buffer_series.push(now, b.inserted as f64 - b.released as f64);
        }
    }
    strategy.finish(&mut staged);
    release(&clock, &mut staged, sink);
    (k_series, buffer_series, reporter)
}

/// One query's windowed output, before scoring.
struct Windowed {
    results: Vec<WindowResult>,
    /// Exact percentiles: every sample is kept.
    latency: LatencyRecorder,
    /// Summed over shards in parallel.
    stats: WindowOpStats,
}

impl Windowed {
    fn new() -> Windowed {
        Windowed {
            results: Vec::new(),
            latency: LatencyRecorder::with_samples(),
            stats: WindowOpStats::default(),
        }
    }

    /// Take one result emitted at clock `now`; its latency is `now` minus
    /// the window end.
    fn deliver(&mut self, r: WindowResult, now: Timestamp, hist: &Histogram) {
        let lat = now.delta_since(r.window.end);
        hist.record(lat.raw());
        self.latency.record(lat);
        self.results.push(r);
    }
}

/// What [`run_batch`] measured: a shared run's output, plus what only
/// [`execute`] reports.
struct BatchRun {
    shared: SharedRunOutput,
    /// Window-operator counters per query, in order.
    window_stats: Vec<WindowOpStats>,
    k_series: TimeSeries,
    buffer_series: TimeSeries,
}

/// The one batch run behind [`execute`] and [`execute_shared`]: validate
/// and vet every query, then run [`drive`] once. Sequentially its sink is a
/// session's multi-query core, drained the moment a result is emitted; in
/// parallel it stages the strategy's output for the keyed executor.
fn run_batch(
    events: &[Event],
    strategy: &mut dyn DisorderControl,
    queries: &[QuerySpec],
    opts: &ExecOptions,
) -> Result<BatchRun> {
    // Validate up front: an invalid query is refused before the strategy
    // sees an event.
    for q in queries {
        q.window_op()?;
    }
    // Static plan analysis per query: any deny-level finding refuses the run
    // before the buffer sees an event; the rest ride along, deduplicated.
    let mut plan: Vec<Diagnostic> = Vec::new();
    for q in queries {
        for d in refuse_denied(analyze_plan(q, &strategy.kind(), opts))? {
            if !plan.contains(&d) {
                plan.push(d);
            }
        }
    }
    // Registered before the loop, so every periodic snapshot carries it.
    let latency_hist = opts.telemetry.histogram("quill.run.latency");

    strategy.set_min_slide(queries.iter().map(|q| q.window.slide()).min());
    let start = std::time::Instant::now();
    let mut windowed: Vec<Windowed> = queries.iter().map(|_| Windowed::new()).collect();
    let (k_series, buffer_series, mut reporter) = match opts.parallel {
        None => {
            let mut core = MultiQueryCore::new(&opts.telemetry);
            core.attach_spans(&opts.spans);
            core.observe_operators(&opts.spans);
            // Unbounded queues: a `Flush` may emit any number at once.
            let config = QueryConfig::default().with_result_capacity(usize::MAX);
            // Ids count from 0, so each query's `Deliver` spans carry its
            // index.
            let handles = (queries.iter())
                .map(|q| core.register(q, &config, Vec::new()))
                .collect::<Result<Vec<_>>>()?;
            let drove = drive(events, strategy, opts, |el, now| {
                if core.process_element(&el, now) > 0 {
                    core.sync_stats();
                    for (handle, w) in handles.iter().zip(&mut windowed) {
                        for r in handle.poll() {
                            w.deliver(r, now, &latency_hist);
                        }
                    }
                }
            });
            core.close_all();
            for (handle, w) in handles.iter().zip(&mut windowed) {
                w.stats = handle.stats().window;
            }
            drove
        }
        Some(config) => {
            // Every element in emission order, the clock at each watermark,
            // and the final clock (the last element's).
            let (mut elements, mut wm_clock, mut last) = (Vec::new(), Vec::new(), Timestamp::MIN);
            let drove = drive(events, strategy, opts, |el, now| {
                if let StreamElement::Watermark(w) = el {
                    wm_clock.push((w, now));
                }
                last = now;
                elements.push(el);
            });
            // A window is emitted at the clock of the first watermark that
            // reached its end, or flushed at the final clock.
            let emitted_at = |end: Timestamp| {
                let at = wm_clock.partition_point(|&(w, _)| w < end);
                wm_clock.get(at).map_or(last, |&(_, c)| c)
            };
            let results_count = opts.telemetry.counter("quill.run.results");
            for (i, (q, w)) in queries.iter().zip(&mut windowed).enumerate() {
                let (results, stats) = window_parallel(&elements, q, config, opts)?;
                results_count.add(results.len() as u64);
                w.stats = stats;
                for r in results {
                    let now = emitted_at(r.window.end);
                    if opts.spans.is_enabled() {
                        let end = r.window.end.raw();
                        let at = now.raw().max(end);
                        opts.spans
                            .record_for_query(Stage::Deliver, end, at, 0, i as u64);
                    }
                    w.deliver(r, now, &latency_hist);
                }
            }
            drove
        }
    };
    let wall_micros = start.elapsed().as_micros();

    let late_dropped = opts.telemetry.counter("quill.run.late_dropped");
    let (per_query, window_stats) = (queries.iter().zip(windowed).enumerate())
        .map(|(query_index, (q, w))| {
            late_dropped.add(w.stats.late_dropped);
            let oracle = oracle_results(events, q.window, &q.aggregates, q.key_field);
            let out = SharedQueryOutput {
                query_index,
                latency: w.latency.summary(),
                quality: score(&w.results, &oracle),
                results: w.results,
            };
            (out, w.stats)
        })
        .unzip();
    // Force the end-of-run snapshot so it covers the instruments recorded
    // after the last event, even when the last periodic tick coincided
    // with it.
    if opts.telemetry.is_enabled() {
        reporter.force();
    }
    Ok(BatchRun {
        shared: SharedRunOutput {
            strategy: strategy.name(),
            per_query,
            wall_micros,
            snapshots: reporter.finish(),
            plan,
        },
        window_stats,
        k_series,
        buffer_series,
    })
}

/// Window one query's staged stream on the keyed-parallel executor, one
/// operator per shard; the counters are summed over the shards. Unkeyed
/// queries route on the (out-of-range ⇒ Null) key, so every event lands on
/// one shard.
fn window_parallel(
    elements: &[StreamElement],
    query: &QuerySpec,
    config: ParallelConfig,
    opts: &ExecOptions,
) -> Result<(Vec<WindowResult>, WindowOpStats)> {
    let (results, ops) = run_keyed_parallel(
        elements,
        query.key_field.unwrap_or(usize::MAX),
        config,
        |shard| {
            let mut op = query.window_op()?;
            op.attach_spans(&opts.spans, shard as u32);
            Ok(op)
        },
    )?;
    let mut total = WindowOpStats::default();
    for s in ops.iter().map(WindowAggregateOp::stats) {
        total.accepted += s.accepted;
        total.late_dropped += s.late_dropped;
        total.revisions += s.revisions;
        total.windows_emitted += s.windows_emitted;
        total.agg_inserts += s.agg_inserts;
    }
    Ok((results, total))
}

/// Execute `query` over `events` (already in arrival order) under
/// `strategy`, per `opts`: sequentially or on the keyed-parallel
/// executor, optionally recording telemetry. Quality is scored against the
/// exact in-order oracle.
///
/// Sequentially, the run is the loop a [`crate::session::Session`] runs:
/// per event, the strategy, then every element it releases through the
/// session's window fan-out core, so a result is emitted — and its latency,
/// the clock minus the window end, measured — the moment the watermark that
/// closes its window is released. In parallel, the strategy's output is
/// staged with the clock at each watermark and windowed across
/// [`ParallelConfig::shards`] shards; latency is then read off the clock of
/// the first watermark that reached each window's end, which is the same
/// clock. Unkeyed queries (`key_field == None`) still run in parallel
/// mode — every event routes to one shard — but only keyed queries benefit
/// from parallelism.
///
/// With an enabled [`Registry`] in `opts`, the run additionally records
/// `quill.run.events` / `quill.run.results` / `quill.run.late_dropped`
/// counters and a `quill.run.latency` histogram on top of whatever the
/// strategy ([`DisorderControl::instrument`]) records, and [`RunOutput::snapshots`] carries the periodic and final
/// registry snapshots.
///
/// # Errors
/// Propagates invalid window/aggregate specifications and executor failures.
pub fn execute(
    events: &[Event],
    strategy: &mut dyn DisorderControl,
    query: &QuerySpec,
    opts: &ExecOptions,
) -> Result<RunOutput> {
    let run = run_batch(events, strategy, std::slice::from_ref(query), opts)?;
    let (out, window_stats) = (run.shared.per_query.into_iter())
        .zip(run.window_stats)
        .next()
        .ok_or_else(|| EngineError::ExecutorFailure("batch run lost its query".into()))?;
    // Join the record stream with the per-window quality outcomes: one
    // provenance record per scored window, and the causal slice for every
    // window that missed its completeness target.
    let (provenance, post_mortems) = if opts.spans.is_enabled() {
        let builder = ProvenanceBuilder::new(opts.spans.spans());
        let provenance: Vec<ProvenanceRecord> = (out.quality.per_window.iter())
            .map(|w| {
                builder.record_for(
                    w.window.start.raw(),
                    w.window.end.raw(),
                    &w.key,
                    w.count,
                    w.completeness,
                    opts.required_completeness,
                )
            })
            .collect();
        let violated = provenance.iter().filter(|r| r.violated);
        let post_mortems = violated.map(|r| builder.post_mortem(r)).collect();
        (provenance, post_mortems)
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(RunOutput {
        strategy: run.shared.strategy,
        latency: out.latency,
        quality: out.quality,
        mean_k: run.k_series.mean(),
        k_series: run.k_series,
        buffer_series: run.buffer_series,
        buffer: strategy.buffer_stats(),
        window_stats,
        wall_micros: run.shared.wall_micros,
        events: events.len() as u64,
        results: out.results,
        snapshots: run.shared.snapshots,
        provenance,
        post_mortems,
        plan: run.shared.plan,
    })
}

/// Run several queries over one stream sharing a single disorder-control
/// strategy (one buffer, one watermark sequence), per `opts`.
///
/// In practice many continuous queries subscribe to the same stream; the
/// slack buffer is paid once and its watermarks fan out. Sequentially, that
/// is one window operator per distinct query shape, its results delivered to
/// every query of that shape, exactly as in a [`crate::session::Session`];
/// with `opts.parallel` set, the queries take turns, each windowing the one
/// staged stream, which is never copied, on its own shard threads. One slack
/// serves every subscriber: it follows the strategy's own quality target,
/// sized for the smallest slide among the queries
/// ([`DisorderControl::set_min_slide`]), and a query's completeness target
/// only flags its windows that fall below it. A caller who wants the
/// strictest subscriber's target to bind builds the strategy for the
/// largest of the targets, and looser queries then enjoy surplus quality.
///
/// An enabled telemetry registry observes the shared buffer once rather
/// than once per query. Every window operator records into
/// [`ExecOptions::spans`], and each result's [`Stage::Deliver`] span is
/// tagged with its query's index.
///
/// # Errors
/// Propagates invalid query specifications and executor failures.
pub fn execute_shared(
    events: &[Event],
    strategy: &mut dyn DisorderControl,
    queries: &[QuerySpec],
    opts: &ExecOptions,
) -> Result<SharedRunOutput> {
    Ok(run_batch(events, strategy, queries, opts)?.shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aq::AqKSlack;
    use crate::strategy::{DropAll, FixedKSlack, MpKSlack, OracleBuffer};
    use quill_engine::aggregate::AggregateKind;
    use quill_engine::prelude::{Row, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn disordered_events(n: u64, max_delay: u64, seed: u64) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let ts = i * 10;
                (ts + rng.gen_range(0..=max_delay), ts)
            })
            .collect();
        arrivals.sort();
        arrivals
            .into_iter()
            .enumerate()
            .map(|(seq, (_, ts))| Event::new(ts, seq as u64, Row::new([Value::Float(ts as f64)])))
            .collect()
    }

    fn sum_query() -> QuerySpec {
        QuerySpec::new(
            WindowSpec::tumbling(100u64),
            vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
            None,
        )
    }

    fn exec_seq(
        events: &[Event],
        strategy: &mut dyn DisorderControl,
        query: &QuerySpec,
    ) -> Result<RunOutput> {
        execute(events, strategy, query, &ExecOptions::sequential())
    }

    #[test]
    fn oracle_strategy_achieves_perfect_quality() {
        let events = disordered_events(2000, 300, 1);
        let mut s = OracleBuffer::new();
        let out = exec_seq(&events, &mut s, &sum_query()).unwrap();
        assert_eq!(out.quality.windows_missing, 0);
        assert_eq!(out.quality.mean_completeness, 1.0);
        assert_eq!(out.quality.mean_rel_error, vec![0.0]);
    }

    #[test]
    fn drop_all_has_zero_latency_and_poor_quality() {
        let events = disordered_events(2000, 300, 2);
        let mut s = DropAll::new();
        let out = exec_seq(&events, &mut s, &sum_query()).unwrap();
        // Near-zero latency modulo clock overshoot: with K=0 the watermark
        // is the clock itself, which can jump past a window end by up to the
        // delay bound when an early-timestamped event is still in flight.
        assert!(out.latency.mean < 50.0, "mean latency {}", out.latency.mean);
        assert!(out.quality.mean_completeness < 0.95);
    }

    #[test]
    fn large_fixed_k_recovers_quality_at_latency_cost() {
        let events = disordered_events(2000, 300, 3);
        let mut lo = FixedKSlack::new(10u64);
        let mut hi = FixedKSlack::new(400u64);
        let out_lo = exec_seq(&events, &mut lo, &sum_query()).unwrap();
        let out_hi = exec_seq(&events, &mut hi, &sum_query()).unwrap();
        assert!(out_hi.quality.mean_completeness > out_lo.quality.mean_completeness);
        assert!(out_hi.latency.mean > out_lo.latency.mean);
        // Delay bound 300 < K=400: zero loss.
        assert_eq!(out_hi.quality.mean_completeness, 1.0);
    }

    #[test]
    fn mp_matches_max_delay_latency() {
        let events = disordered_events(3000, 200, 4);
        let mut s = MpKSlack::new();
        let out = exec_seq(&events, &mut s, &sum_query()).unwrap();
        // MP converges to K ≈ max delay ≈ 200.
        assert!(out.k_series.points().last().unwrap().1 >= 150.0);
        assert!(out.quality.mean_completeness > 0.99);
    }

    #[test]
    fn aq_beats_mp_on_latency_at_similar_quality() {
        let events = disordered_events(20_000, 500, 5);
        let q = 0.95;
        let mut aq = AqKSlack::for_completeness(q);
        let mut mp = MpKSlack::new();
        let out_aq = exec_seq(&events, &mut aq, &sum_query()).unwrap();
        let out_mp = exec_seq(&events, &mut mp, &sum_query()).unwrap();
        assert!(
            out_aq.quality.mean_completeness >= q - 0.03,
            "AQ quality {} below target {q}",
            out_aq.quality.mean_completeness
        );
        assert!(
            out_aq.latency.mean < out_mp.latency.mean,
            "AQ latency {} not below MP {}",
            out_aq.latency.mean,
            out_mp.latency.mean
        );
    }

    #[test]
    fn run_output_accounting_is_consistent() {
        let events = disordered_events(1000, 100, 6);
        let mut s = FixedKSlack::new(50u64);
        let out = exec_seq(&events, &mut s, &sum_query()).unwrap();
        assert_eq!(out.events, 1000);
        let b = out.buffer;
        assert_eq!(b.released + b.late_passed, 1000);
        let w = out.window_stats;
        assert_eq!(w.accepted + w.late_dropped, 1000);
        assert!(out.throughput() > 0.0);
        assert!(out.k_series.is_sorted());
    }

    #[test]
    fn keyed_query_runs() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut arrivals: Vec<(u64, u64, i64)> = (0..2000u64)
            .map(|i| (i * 5 + rng.gen_range(0..100), i * 5, (i % 4) as i64))
            .collect();
        arrivals.sort();
        let events: Vec<Event> = arrivals
            .into_iter()
            .enumerate()
            .map(|(seq, (_, ts, k))| {
                Event::new(ts, seq as u64, Row::new([Value::Int(k), Value::Float(1.0)]))
            })
            .collect();
        let query = QuerySpec::new(
            WindowSpec::sliding(200u64, 100u64),
            vec![AggregateSpec::new(AggregateKind::Count, 1, "n")],
            Some(0),
        );
        let mut s = FixedKSlack::new(120u64);
        let out = exec_seq(&events, &mut s, &query).unwrap();
        assert!(out.quality.windows_total > 10);
        assert!(out.quality.mean_completeness > 0.9);
    }

    fn keyed_events(n: u64, seed: u64) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals: Vec<(u64, u64, i64)> = (0..n)
            .map(|i| (i * 5 + rng.gen_range(0..150), i * 5, (i % 6) as i64))
            .collect();
        arrivals.sort();
        arrivals
            .into_iter()
            .enumerate()
            .map(|(seq, (_, ts, k))| {
                Event::new(
                    ts,
                    seq as u64,
                    Row::new([Value::Int(k), Value::Float((ts % 37) as f64)]),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let events = keyed_events(3000, 9);
        let query = QuerySpec::new(
            WindowSpec::sliding(200u64, 100u64),
            vec![
                AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
                AggregateSpec::new(AggregateKind::Count, 1, "n"),
            ],
            Some(0),
        );
        let mut s_seq = FixedKSlack::new(160u64);
        let mut s_par = FixedKSlack::new(160u64);
        let seq = exec_seq(&events, &mut s_seq, &query).unwrap();
        let par = execute(
            &events,
            &mut s_par,
            &query,
            &ExecOptions::parallel(ParallelConfig::new(4)),
        )
        .unwrap();

        let sorted = |mut v: Vec<WindowResult>| {
            v.sort_by_key(|r| {
                (
                    r.window.end,
                    r.window.start,
                    quill_engine::value::Key(r.key.clone()),
                )
            });
            v
        };
        assert_eq!(sorted(seq.results.clone()), sorted(par.results.clone()));
        assert_eq!(seq.quality.mean_completeness, par.quality.mean_completeness);
        assert_eq!(seq.window_stats.accepted, par.window_stats.accepted);
        assert_eq!(seq.window_stats.late_dropped, par.window_stats.late_dropped);
        assert_eq!(
            seq.window_stats.windows_emitted,
            par.window_stats.windows_emitted
        );
        // Latency is reconstructed from recorded watermark clocks; the same
        // windows close at the same clocks, so the summaries agree.
        assert!(
            (seq.latency.mean - par.latency.mean).abs() < 1e-6,
            "latency {} vs {}",
            seq.latency.mean,
            par.latency.mean
        );
        assert!(par.throughput() > 0.0);
    }

    #[test]
    fn parallel_runner_handles_unkeyed_queries() {
        let events = disordered_events(1000, 100, 10);
        let mut s = FixedKSlack::new(150u64);
        let out = execute(
            &events,
            &mut s,
            &sum_query(),
            &ExecOptions::parallel(ParallelConfig::new(4)),
        )
        .unwrap();
        assert_eq!(out.quality.mean_completeness, 1.0);
        assert_eq!(out.window_stats.accepted, 1000);
    }

    #[test]
    fn invalid_query_is_rejected() {
        let events = disordered_events(10, 10, 8);
        let bad = QuerySpec::new(WindowSpec::tumbling(0u64), vec![], None);
        let mut s = DropAll::new();
        assert!(exec_seq(&events, &mut s, &bad).is_err());
    }

    #[test]
    fn builder_builds_validated_queries() {
        let q = QuerySpec::builder()
            .window(WindowSpec::sliding(200u64, 100u64))
            .aggregate(AggregateKind::Sum, 1, "sum")
            .aggregate(AggregateKind::Count, 1, "n")
            .key_field(0)
            .build()
            .unwrap();
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.key_field, Some(0));

        // Missing window and missing aggregates are both rejected.
        assert!(QuerySpec::builder()
            .aggregate(AggregateKind::Sum, 0, "sum")
            .build()
            .is_err());
        assert!(QuerySpec::builder()
            .window(WindowSpec::tumbling(100u64))
            .build()
            .is_err());
        // Invalid window parameters propagate.
        assert!(QuerySpec::builder()
            .window(WindowSpec::tumbling(0u64))
            .aggregate(AggregateKind::Sum, 0, "sum")
            .build()
            .is_err());
    }

    #[test]
    fn telemetry_snapshots_cover_the_whole_run() {
        let events = disordered_events(2000, 300, 11);
        let telemetry = quill_telemetry::Registry::new();
        let mut s = FixedKSlack::new(350u64);
        let out = execute(
            &events,
            &mut s,
            &sum_query(),
            &ExecOptions::sequential()
                .with_telemetry(&telemetry)
                .with_snapshot_every(500),
        )
        .unwrap();
        // Periodic snapshots at 500/1000/1500/2000 events, plus the final
        // one the run forces after the strategy's last elements are windowed.
        assert_eq!(out.snapshots.len(), 5);
        // Windows close while the stream runs, so results count mid-run.
        let first = out.snapshots[0].counter("quill.run.results");
        assert!(first > 0 && first < out.results.len() as u64, "got {first}");
        let last = out.snapshots.last().unwrap();
        assert_eq!(last.counter("quill.run.events"), 2000);
        assert_eq!(last.counter("quill.run.results"), out.results.len() as u64);
        assert_eq!(
            last.counter("quill.buffer.inserted") + last.counter("quill.buffer.late_passed"),
            2000
        );
        assert_eq!(
            last.counter("quill.run.late_dropped"),
            out.window_stats.late_dropped
        );
    }

    #[test]
    fn disabled_telemetry_produces_no_snapshots() {
        let events = disordered_events(500, 100, 12);
        let mut s = FixedKSlack::new(150u64);
        let out = execute(
            &events,
            &mut s,
            &sum_query(),
            &ExecOptions::sequential().with_snapshot_every(100),
        )
        .unwrap();
        assert!(out.snapshots.is_empty());
    }

    #[test]
    fn traced_run_yields_provenance_and_post_mortems() {
        let mk = |ts: u64, seq: u64| Event::new(ts, seq, Row::new([Value::Float(1.0)]));
        let mut events: Vec<Event> = (0..20u64).map(|i| mk(i * 10, i)).collect();
        // One straggler for window [0,100), arriving after the clock passed
        // 190 — with K=0 it is late at the buffer and dropped at the window.
        events.push(mk(5, 20));
        let spans = SpanRecorder::with_default_capacity();
        let mut s = DropAll::new();
        let out = execute(
            &events,
            &mut s,
            &sum_query(),
            &ExecOptions::sequential()
                .with_spans(&spans)
                .with_required_completeness(1.0),
        )
        .unwrap();
        assert_eq!(out.provenance.len(), out.quality.per_window.len());
        assert!(out.provenance.iter().all(|r| r.finalize_seq.is_some()));
        let violated: Vec<&ProvenanceRecord> =
            out.provenance.iter().filter(|r| r.violated).collect();
        assert_eq!(violated.len(), 1);
        let v = violated[0];
        assert_eq!((v.start, v.end), (0, 100));
        assert_eq!(v.late_arrivals, 1);
        assert_eq!(v.dropped, 1);
        assert!(v.achieved_completeness < 1.0);
        assert_eq!(out.post_mortems.len(), 1);
        let pm = &out.post_mortems[0];
        assert_eq!((pm.record.start, pm.record.end), (0, 100));
        // The drop at ts 5 counts for [0, 100).
        assert!(pm
            .slice
            .iter()
            .any(|t| t.stage == Stage::LateDrop && (0..100).contains(&t.begin)));
        assert!(pm.slice.iter().any(|t| t.stage == Stage::WindowFinalize));
    }

    #[test]
    fn disabled_trace_produces_no_provenance() {
        // No span recorder, no provenance: the target alone builds nothing.
        let events = disordered_events(500, 100, 14);
        let mut s = FixedKSlack::new(20u64);
        let out = execute(
            &events,
            &mut s,
            &sum_query(),
            &ExecOptions::sequential().with_required_completeness(1.0),
        )
        .unwrap();
        assert!(out.provenance.is_empty());
        assert!(out.post_mortems.is_empty());
    }

    #[test]
    fn parallel_traced_run_assembles_provenance_across_shards() {
        let events = keyed_events(3000, 15);
        let query = QuerySpec::new(
            WindowSpec::tumbling(100u64),
            vec![AggregateSpec::new(AggregateKind::Sum, 1, "sum")],
            Some(0),
        );
        let spans = SpanRecorder::with_default_capacity();
        let mut s = FixedKSlack::new(30u64); // well under the 150 delay bound
        let out = execute(
            &events,
            &mut s,
            &query,
            &ExecOptions::parallel(ParallelConfig::new(4))
                .with_spans(&spans)
                .with_required_completeness(0.99),
        )
        .unwrap();
        assert_eq!(out.provenance.len(), out.quality.per_window.len());
        assert!(
            out.provenance.iter().any(|r| r.violated),
            "K=30 under delay bound 150 must lose events somewhere"
        );
        assert_eq!(
            out.post_mortems.len(),
            out.provenance.iter().filter(|r| r.violated).count()
        );
        // Per-window dropped counts come from shard-tagged LateDrop records.
        let dropped: u64 = out.provenance.iter().map(|r| r.dropped).sum();
        assert!(dropped > 0);
        // Contributions are the results' own counts.
        let contributed: u64 = out.provenance.iter().map(|r| r.contributing).sum();
        assert_eq!(
            contributed,
            out.results.iter().map(|r| r.count).sum::<u64>()
        );
    }

    #[test]
    fn spanned_run_covers_pipeline_stages_and_reconciles_latency() {
        let events = keyed_events(3000, 16);
        let query = QuerySpec::new(
            WindowSpec::tumbling(100u64),
            vec![AggregateSpec::new(AggregateKind::Sum, 1, "sum")],
            Some(0),
        );
        // Sequentially the core records each Deliver span as it emits the
        // result; in parallel they are derived from the staged clocks.
        for opts in [
            ExecOptions::sequential(),
            ExecOptions::parallel(ParallelConfig::new(4)),
        ] {
            let mode = format!("{:?}", opts.parallel);
            let spans = SpanRecorder::with_default_capacity();
            let telemetry = Registry::new();
            spans.instrument(&telemetry);
            let mut s = FixedKSlack::new(160u64);
            let opts = opts.with_telemetry(&telemetry).with_spans(&spans);
            let out = execute(&events, &mut s, &query, &opts).unwrap();
            let recorded = spans.spans();
            // The full in-process pipeline: buffer residency, window
            // finalization, delivery.
            for stage in [
                Stage::BufferResidency,
                Stage::WindowFinalize,
                Stage::Deliver,
            ] {
                assert!(
                    recorded.iter().any(|sp| sp.stage == stage),
                    "{mode}: missing {stage} spans"
                );
            }
            // One Deliver span per result, and their durations are exactly
            // the per-result latencies the summary was built from.
            let deliver: Vec<u64> = recorded
                .iter()
                .filter(|sp| sp.stage == Stage::Deliver)
                .map(|sp| sp.duration())
                .collect();
            assert_eq!(deliver.len(), out.results.len(), "{mode}");
            let mean = deliver.iter().sum::<u64>() as f64 / deliver.len() as f64;
            assert!(
                (mean - out.latency.mean).abs() < 1e-9,
                "{mode}: span-derived mean {mean} vs summary {}",
                out.latency.mean
            );
            // Attribution histograms landed in the registry.
            let snap = telemetry.snapshot();
            let h = snap
                .histograms
                .get("quill.span.deliver")
                .expect("deliver histogram");
            assert_eq!(h.count, out.results.len() as u64, "{mode}");
            assert!((h.mean - out.latency.mean).abs() < 1e-9, "{mode}");
        }
    }

    #[test]
    fn disabled_spans_leave_run_output_unchanged() {
        let events = keyed_events(1500, 17);
        let query = QuerySpec::new(
            WindowSpec::tumbling(100u64),
            vec![AggregateSpec::new(AggregateKind::Sum, 1, "sum")],
            Some(0),
        );
        let mut s1 = FixedKSlack::new(160u64);
        let mut s2 = FixedKSlack::new(160u64);
        let opts = ExecOptions::parallel(ParallelConfig::new(2));
        let plain = execute(&events, &mut s1, &query, &opts).unwrap();
        let spans = SpanRecorder::with_default_capacity();
        let spanned = execute(&events, &mut s2, &query, &opts.with_spans(&spans)).unwrap();
        assert_eq!(plain.results, spanned.results);
        assert_eq!(
            plain.quality.mean_completeness,
            spanned.quality.mean_completeness
        );
        assert!(!spans.is_empty());
    }

    fn events(n: u64, seed: u64) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals: Vec<(u64, u64)> = (0..n)
            .map(|i| (i * 10 + rng.gen_range(0..200), i * 10))
            .collect();
        arrivals.sort();
        arrivals
            .into_iter()
            .enumerate()
            .map(|(s, (_, ts))| Event::new(ts, s as u64, Row::new([Value::Float(1.0)])))
            .collect()
    }

    fn queries() -> Vec<QuerySpec> {
        vec![
            QuerySpec::new(
                WindowSpec::tumbling(500u64),
                vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
                None,
            ),
            QuerySpec::new(
                WindowSpec::sliding(1_000u64, 200u64),
                vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
                None,
            ),
        ]
    }

    #[test]
    fn shared_run_matches_individual_runs() {
        let evs = events(3_000, 1);
        let qs = queries();
        let mut shared_strategy = FixedKSlack::new(150u64);
        let shared =
            execute_shared(&evs, &mut shared_strategy, &qs, &ExecOptions::sequential()).unwrap();
        for (i, q) in qs.iter().enumerate() {
            let mut solo_strategy = FixedKSlack::new(150u64);
            let solo = execute(&evs, &mut solo_strategy, q, &ExecOptions::sequential()).unwrap();
            assert_eq!(shared.per_query[i].results, solo.results, "query {i}");
            assert_eq!(
                shared.per_query[i].quality.mean_completeness,
                solo.quality.mean_completeness
            );
            assert!(
                (shared.per_query[i].latency.mean - solo.latency.mean).abs() < 1e-6,
                "query {i} latency {} vs {}",
                shared.per_query[i].latency.mean,
                solo.latency.mean
            );
        }
    }

    #[test]
    fn shared_parallel_matches_shared_sequential() {
        let evs = events(2_000, 5);
        let qs = queries();
        let mut s_seq = FixedKSlack::new(150u64);
        let mut s_par = FixedKSlack::new(150u64);
        let seq = execute_shared(&evs, &mut s_seq, &qs, &ExecOptions::sequential()).unwrap();
        let par = execute_shared(
            &evs,
            &mut s_par,
            &qs,
            &ExecOptions::parallel(ParallelConfig::new(2)),
        )
        .unwrap();
        for i in 0..qs.len() {
            assert_eq!(
                seq.per_query[i].quality.mean_completeness,
                par.per_query[i].quality.mean_completeness
            );
            assert_eq!(
                seq.per_query[i].results.len(),
                par.per_query[i].results.len()
            );
        }
    }

    #[test]
    fn traced_shared_run_records_every_operator_in_both_modes() {
        // An in-order stream, then one straggler far behind the clock: with
        // K = 0 it passes the buffer late and each query's operator drops it.
        let row = || Row::new([Value::Float(1.0)]);
        let mut evs: Vec<Event> = (0..200u64).map(|i| Event::new(i * 10, i, row())).collect();
        evs.push(Event::new(5u64, 200, row()));
        let qs = queries();
        for opts in [
            ExecOptions::sequential(),
            ExecOptions::parallel(ParallelConfig::new(4)),
        ] {
            let mode = format!("{:?}", opts.parallel);
            let spans = SpanRecorder::with_default_capacity();
            let shared =
                execute_shared(&evs, &mut DropAll::new(), &qs, &opts.with_spans(&spans)).unwrap();
            let recorded = spans.spans();
            // The two queries' windows differ in length, which tells their
            // finalizations (window end minus start) apart: one per emitted
            // result of each query.
            for (q, out) in qs.iter().zip(&shared.per_query) {
                let finalized = recorded
                    .iter()
                    .filter(|s| {
                        s.stage == Stage::WindowFinalize
                            && s.begin - s.detail[0] == q.window.length().raw()
                    })
                    .count();
                assert!(!out.results.is_empty());
                assert_eq!(finalized, out.results.len(), "{mode}");
            }
            let dropped: Vec<u64> = recorded
                .iter()
                .filter(|s| s.stage == Stage::LateDrop)
                .map(|s| s.detail[0])
                .collect();
            assert_eq!(dropped, vec![200, 200], "{mode}");
        }
    }

    #[test]
    fn the_smallest_slide_of_the_query_slice_reaches_the_strategy() {
        /// Fixed K that records every smallest slide it is handed.
        struct Recorder(FixedKSlack, Vec<Option<TimeDelta>>);
        impl DisorderControl for Recorder {
            fn name(&self) -> String {
                "recorder".into()
            }
            fn set_min_slide(&mut self, slide: Option<TimeDelta>) {
                self.1.push(slide);
            }
            fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
                self.0.on_event(e, out);
            }
            fn finish(&mut self, out: &mut Vec<StreamElement>) {
                self.0.finish(out);
            }
            fn current_k(&self) -> TimeDelta {
                self.0.current_k()
            }
            fn buffer_stats(&self) -> crate::buffer::BufferStats {
                self.0.buffer_stats()
            }
        }
        let count = || vec![AggregateSpec::new(AggregateKind::Count, 0, "n")];
        let qs = [
            QuerySpec::new(WindowSpec::sliding(1_000u64, 250u64), count(), None),
            QuerySpec::new(WindowSpec::tumbling(1_000u64), count(), None),
        ];
        let evs = events(500, 7);
        for opts in [
            ExecOptions::sequential(),
            ExecOptions::parallel(ParallelConfig::new(2)),
        ] {
            let mut s = Recorder(FixedKSlack::new(50u64), Vec::new());
            execute_shared(&evs, &mut s, &qs, &opts).unwrap();
            assert_eq!(s.1, vec![Some(TimeDelta(250))]);
        }
        let mut s = Recorder(FixedKSlack::new(50u64), Vec::new());
        execute_shared(&evs, &mut s, &[], &ExecOptions::sequential()).unwrap();
        assert_eq!(s.1, vec![None]);
    }

    #[test]
    fn one_buffer_serves_all_subscribers_at_the_strictest_target() {
        let evs = events(20_000, 2);
        let qs = queries();
        let q = f64::max(0.9, 0.99);
        let mut strategy = AqKSlack::for_completeness(q);
        let shared = execute_shared(&evs, &mut strategy, &qs, &ExecOptions::sequential()).unwrap();
        for out in &shared.per_query {
            assert!(
                out.quality.mean_completeness >= 0.9,
                "query {} under-served: {}",
                out.query_index,
                out.quality.mean_completeness
            );
        }
        assert!(shared.wall_micros > 0);
        assert!(shared.strategy.contains("0.99"));
    }

    #[test]
    fn shared_telemetry_counts_the_buffer_once() {
        let evs = events(1_000, 6);
        let qs = queries();
        let telemetry = quill_telemetry::Registry::new();
        let mut strategy = FixedKSlack::new(150u64);
        let shared = execute_shared(
            &evs,
            &mut strategy,
            &qs,
            &ExecOptions::sequential().with_telemetry(&telemetry),
        )
        .unwrap();
        let last = shared.snapshots.last().expect("final snapshot");
        assert_eq!(last.counter("quill.run.events"), 1_000);
        assert_eq!(
            last.counter("quill.buffer.inserted") + last.counter("quill.buffer.late_passed"),
            1_000
        );
        let total_results: usize = shared.per_query.iter().map(|q| q.results.len()).sum();
        assert_eq!(last.counter("quill.run.results"), total_results as u64);
    }

    #[test]
    fn empty_query_set_is_fine() {
        let evs = events(100, 3);
        let mut s = FixedKSlack::new(10u64);
        let shared = execute_shared(&evs, &mut s, &[], &ExecOptions::sequential()).unwrap();
        assert!(shared.per_query.is_empty());
    }

    #[test]
    fn invalid_query_in_set_is_rejected() {
        let evs = events(10, 4);
        let mut s = FixedKSlack::new(10u64);
        let bad = vec![QuerySpec::new(WindowSpec::tumbling(0u64), vec![], None)];
        assert!(execute_shared(&evs, &mut s, &bad, &ExecOptions::sequential()).is_err());
    }
}
