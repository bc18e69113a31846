//! End-to-end query runner: strategy + windowed query + measurement.
//!
//! [`execute`] drives one continuous query over one arrival-ordered event
//! sequence under a chosen [`DisorderControl`] strategy, and measures
//! everything the experiments report: per-result latency (event-time),
//! result quality vs. the in-order oracle, K and buffer-occupancy time
//! series, wall-clock processing time, and (when an enabled
//! [`quill_telemetry::Registry`] is supplied via [`ExecOptions`]) periodic
//! telemetry snapshots. [`ExecOptions`] selects sequential execution — on
//! the fan-out core a [`crate::session::Session`] runs, which is also the
//! surface for resident, push-mode execution with runtime query
//! registration — or the batched keyed-parallel executor.

use crate::plan::{analyze_plan, DelayProfile, Diagnostic, Severity};
use crate::session::MultiQueryCore;
use crate::shared::{SharedQueryOutput, SharedRunOutput};
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
use quill_telemetry::{Registry, ReporterConfig, Snapshot, SpanRecorder, Stage, TelemetryReporter};

/// The continuous query to execute.
#[derive(Debug, Clone)]
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
/// | [`with_expected_keys`](ExecOptions::with_expected_keys) | shard-saturation check | parallel execution | `plan.options.expected-keys-without-parallel` (warn); `plan.options.expected-keys-zero` (deny) for 0 |
/// | [`parallel`](ExecOptions::parallel) | keyed-parallel executor | — | `plan.parallel.*` rules |
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// `Some(config)` fans the windowing work out on the batched
    /// keyed-parallel executor, each shard inserting its own keys' events on
    /// arrival and finalizing their windows: element-identical output to the
    /// sequential run. `None` runs sequentially.
    pub parallel: Option<ParallelConfig>,
    /// Telemetry registry instruments record into.
    /// [`Registry::disabled`] (the default) makes every instrument a no-op.
    pub telemetry: Registry,
    /// Take a telemetry snapshot every this many input events (0 = only the
    /// final end-of-run snapshot). Ignored when telemetry is disabled.
    pub snapshot_every_events: u64,
    /// The record stream every stage records into, on the logical
    /// (event-time) clock: buffer residency per watermark advance, late
    /// arrivals, K changes with their reason, routing and send stalls,
    /// window finalizations and late drops, the merge, and result delivery.
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
    /// Approximate number of distinct keys expected on the stream; lets the
    /// plan analyzer flag shard counts that can never be saturated.
    pub expected_key_cardinality: Option<u64>,
}

impl ExecOptions {
    /// Sequential execution, telemetry disabled (same as `Default`).
    pub fn sequential() -> ExecOptions {
        ExecOptions::default()
    }

    /// Parallel execution with the given executor configuration.
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

    /// Hint the approximate number of distinct keys on the stream (plan
    /// analyzer only; execution is unaffected).
    pub fn with_expected_keys(mut self, keys: u64) -> ExecOptions {
        self.expected_key_cardinality = Some(keys);
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

/// Strategy output staged for windowing — every event in arrival order,
/// interleaved with the watermarks the strategy emitted — plus everything
/// measured while draining the strategy.
pub struct StagedStream {
    /// Forwarded events and watermarks, in emission order.
    pub elements: Vec<StreamElement>,
    /// `(watermark, clock at emission)` pairs, in emission order.
    pub wm_clock: Vec<(Timestamp, Timestamp)>,
    /// Clock after the last arrival.
    pub final_clock: Timestamp,
    /// K over event time.
    pub k_series: TimeSeries,
    /// Buffer occupancy over event time.
    pub buffer_series: TimeSeries,
    /// Carried out so the caller can `finish()` *after* the windowing work —
    /// the final snapshot then covers executor and result instruments too.
    pub reporter: TelemetryReporter,
}

impl StagedStream {
    /// Clock at which a window ending at `end` was emitted: the clock of the
    /// first released watermark that passed the end; Flush-emitted windows
    /// use the final clock.
    pub fn emission_clock(&self, end: Timestamp) -> Timestamp {
        let at = self.wm_clock.partition_point(|(w, _)| w.raw() < end.raw());
        self.wm_clock.get(at).map_or(self.final_clock, |&(_, c)| c)
    }
}

/// Drain `strategy` over `events`, recording watermark release clocks, the
/// K / buffer-occupancy series, and telemetry ticks. Shared by [`execute`]
/// and [`crate::shared::execute_shared`]: the strategy is inherently
/// sequential (it decides watermarks from arrival order), so its output is
/// staged once and the windowing work — sequential, parallel, or multi-query
/// — runs over the staged stream.
pub fn stage_strategy(
    events: &[Event],
    strategy: &mut dyn DisorderControl,
    opts: &ExecOptions,
) -> StagedStream {
    strategy.instrument(&opts.telemetry);
    strategy.attach_spans(&opts.spans);
    let run_events = opts.telemetry.counter("quill.run.events");
    let mut reporter = TelemetryReporter::new(
        &opts.telemetry,
        ReporterConfig::every_events(opts.snapshot_every_events),
    );

    let mut k_series = TimeSeries::new("k");
    let mut buffer_series = TimeSeries::new("buffered");
    let mut clock = ClockTracker::new();
    let mut elements: Vec<StreamElement> = Vec::with_capacity(events.len() + 1);
    let mut wm_clock: Vec<(Timestamp, Timestamp)> = Vec::new();
    let mut staged: Vec<StreamElement> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        clock.observe(e.ts);
        // quill-lint: allow(no-panic, reason = "observe() on the line above guarantees the clock is set")
        let now = clock.clock().expect("observed at least one event");
        staged.clear();
        strategy.on_event(e.clone(), &mut staged);
        for el in staged.drain(..) {
            if let StreamElement::Watermark(w) = &el {
                wm_clock.push((*w, now));
            }
            elements.push(el);
        }
        run_events.inc();
        reporter.observe_events(1);
        if (i as u64).is_multiple_of(SERIES_SAMPLE_EVERY) {
            let k = strategy.current_k();
            // Cap the oracle's "infinite" K for plottability.
            let k_plot = if k == TimeDelta::MAX {
                f64::NAN
            } else {
                k.as_f64()
            };
            if k_plot.is_finite() {
                k_series.push(now, k_plot);
            }
            buffer_series.push(
                now,
                strategy.buffer_stats().inserted as f64 - strategy.buffer_stats().released as f64,
            );
        }
    }
    staged.clear();
    strategy.finish(&mut staged);
    let final_clock = clock.clock().unwrap_or_default();
    for el in staged.drain(..) {
        if let StreamElement::Watermark(w) = &el {
            wm_clock.push((*w, final_clock));
        }
        elements.push(el);
    }

    StagedStream {
        elements,
        wm_clock,
        final_clock,
        k_series,
        buffer_series,
        reporter,
    }
}

/// Sum window-operator counters across the shards' operators.
fn sum_window_stats(ops: &[WindowAggregateOp]) -> WindowOpStats {
    let mut total = WindowOpStats::default();
    for op in ops {
        let s = op.stats();
        total.accepted += s.accepted;
        total.late_dropped += s.late_dropped;
        total.revisions += s.revisions;
        total.windows_emitted += s.windows_emitted;
        total.agg_inserts += s.agg_inserts;
    }
    total
}

/// What [`run_batch`] measured: a shared run's output, plus what only
/// [`execute`] reports.
pub(crate) struct BatchRun {
    pub(crate) shared: SharedRunOutput,
    /// Window-operator counters per query (summed over shards), in order.
    pub(crate) window_stats: Vec<WindowOpStats>,
    pub(crate) k_series: TimeSeries,
    pub(crate) buffer_series: TimeSeries,
}

/// The one batch driver behind [`execute`] and
/// [`crate::shared::execute_shared`]: validate and vet every query, stage
/// the strategy once, window the staged stream — on the multi-query core a
/// [`crate::session::Session`] runs, or per query on the keyed-parallel
/// executor — then derive latency, `quill.run.*` counters and quality the
/// same way for both.
pub(crate) fn run_batch(
    events: &[Event],
    strategy: &mut dyn DisorderControl,
    queries: &[QuerySpec],
    opts: &ExecOptions,
) -> Result<BatchRun> {
    // Validate up front: an invalid query is refused before the strategy
    // sees an event.
    for q in queries {
        WindowAggregateOp::new(
            q.window,
            q.aggregates.clone(),
            q.key_field,
            LatePolicy::Drop,
        )?;
    }
    // Static plan analysis per query: any deny-level finding refuses the run
    // before the buffer sees an event; the rest ride along, deduplicated.
    let mut plan: Vec<Diagnostic> = Vec::new();
    for q in queries {
        for d in vet_plan(q, strategy, opts)? {
            if !plan.contains(&d) {
                plan.push(d);
            }
        }
    }
    // Registered before staging, so every periodic snapshot carries them.
    let results_count = opts.telemetry.counter("quill.run.results");
    let latency_hist = opts.telemetry.histogram("quill.run.latency");

    strategy.set_min_slide(queries.iter().map(|q| q.window.slide()).min());
    let start = std::time::Instant::now();
    let mut staged = stage_strategy(events, strategy, opts);
    let mut elements = std::mem::take(&mut staged.elements);
    let windowed: Vec<(Vec<WindowResult>, WindowOpStats)> = match opts.parallel {
        None => {
            // Latency and the `quill.run.*` counts are derived below, as for
            // parallel runs, so the core gets no registry and its own latency
            // stamps go unused.
            let mut core = MultiQueryCore::new(&Registry::disabled());
            core.observe_operators(&opts.spans);
            for q in queries {
                core.register(q, opts.required_completeness, usize::MAX, None)?;
            }
            for el in elements {
                core.process_element(&el, Timestamp::MIN);
            }
            core.into_results()
        }
        Some(config) => {
            let last = queries.len().saturating_sub(1);
            let mut windowed = Vec::with_capacity(queries.len());
            for (qi, q) in queries.iter().enumerate() {
                let input = if qi == last {
                    std::mem::take(&mut elements)
                } else {
                    elements.clone()
                };
                windowed.push(window_parallel(input, q, config, opts)?);
            }
            windowed
        }
    };
    let wall_micros = start.elapsed().as_micros();

    let late_dropped = opts.telemetry.counter("quill.run.late_dropped");
    let (per_query, window_stats) = queries
        .iter()
        .zip(windowed)
        .enumerate()
        .map(|(query_index, (q, (results, stats)))| {
            let mut latency = LatencyRecorder::with_samples();
            for r in &results {
                let emitted_at = staged.emission_clock(r.window.end);
                let lat = emitted_at.delta_since(r.window.end);
                latency_hist.record(lat.raw());
                latency.record(lat);
                if opts.spans.is_enabled() {
                    // Delivery: complete at the window's end, handed to the
                    // caller at the clock of the watermark that closed it —
                    // the latency the paper trades against quality.
                    opts.spans.record_for_query(
                        Stage::Deliver,
                        r.window.end.raw(),
                        emitted_at.raw().max(r.window.end.raw()),
                        0,
                        query_index as u64,
                    );
                }
            }
            results_count.add(results.len() as u64);
            late_dropped.add(stats.late_dropped);
            let oracle = oracle_results(events, q.window, &q.aggregates, q.key_field);
            let out = SharedQueryOutput {
                query_index,
                latency: latency.summary(),
                quality: score(&results, &oracle),
                results,
            };
            (out, stats)
        })
        .unzip();
    // Force the end-of-run snapshot so it covers the executor and result
    // instruments recorded after staging, even when the last periodic tick
    // coincided with the final event.
    if opts.telemetry.is_enabled() {
        staged.reporter.force();
    }
    Ok(BatchRun {
        shared: SharedRunOutput {
            strategy: strategy.name(),
            per_query,
            wall_micros,
            snapshots: staged.reporter.finish(),
            plan,
        },
        window_stats,
        k_series: staged.k_series,
        buffer_series: staged.buffer_series,
    })
}

/// Window one query's staged stream on the keyed-parallel executor, one
/// operator per shard. Unkeyed queries route on the (out-of-range ⇒ Null)
/// key, so every event lands on one shard.
fn window_parallel(
    elements: Vec<StreamElement>,
    query: &QuerySpec,
    config: ParallelConfig,
    opts: &ExecOptions,
) -> Result<(Vec<WindowResult>, WindowOpStats)> {
    let (results, ops) = run_keyed_parallel(
        elements,
        query.key_field.unwrap_or(usize::MAX),
        config,
        &opts.telemetry,
        &opts.spans,
        |shard| {
            let mut op = WindowAggregateOp::new(
                query.window,
                query.aggregates.clone(),
                query.key_field,
                LatePolicy::Drop,
            )?;
            op.attach_spans(&opts.spans, shard as u32);
            Ok(op)
        },
    )?;
    Ok((results, sum_window_stats(&ops)))
}

/// Execute `query` over `events` (already in arrival order) under
/// `strategy`, per `opts`: sequentially or on the batched keyed-parallel
/// executor, optionally recording telemetry. Quality is scored against the
/// exact in-order oracle.
///
/// The strategy's output is staged first — recording the clock at each
/// watermark — then the windowing work runs over the staged stream:
/// on the multi-query core a [`crate::session::Session`] runs (sequential)
/// or fanned out across [`ParallelConfig::shards`] shards (parallel).
/// Per-result latency is reconstructed from the recorded watermark clocks:
/// a window result is emitted at the first watermark that passes its end,
/// which is exactly when interleaved execution would have emitted it.
/// Unkeyed queries (`key_field == None`) still run in parallel mode — every
/// event routes to one shard — but only keyed queries benefit from
/// parallelism.
///
/// With an enabled [`Registry`] in `opts`, the run additionally records
/// `quill.run.events` / `quill.run.results` / `quill.run.late_dropped`
/// counters and a `quill.run.latency` histogram on top of whatever the
/// strategy ([`DisorderControl::instrument`]) and the parallel executor
/// record, and [`RunOutput::snapshots`] carries the periodic and final
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

/// Run the static plan analysis for one query. Deny-level findings become
/// [`EngineError::PlanRejected`]; the rest are returned for the output.
pub(crate) fn vet_plan(
    query: &QuerySpec,
    strategy: &dyn DisorderControl,
    opts: &ExecOptions,
) -> Result<Vec<Diagnostic>> {
    let diags = analyze_plan(query, &strategy.kind(), opts);
    if let Some(deny) = diags.iter().find(|d| d.severity == Severity::Deny) {
        return Err(EngineError::PlanRejected(format!(
            "[{}] {} (help: {})",
            deny.rule, deny.message, deny.help
        )));
    }
    Ok(diags)
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
            &ExecOptions::parallel(ParallelConfig::new(4).with_batch_size(7)),
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
        // Periodic snapshots at 500/1000/1500/2000 events plus nothing extra
        // at finish (2000 coincides with the last tick).
        assert!(out.snapshots.len() >= 4, "got {}", out.snapshots.len());
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
        let spans = SpanRecorder::with_default_capacity();
        let telemetry = Registry::new();
        spans.instrument(&telemetry);
        let mut s = FixedKSlack::new(160u64);
        let out = execute(
            &events,
            &mut s,
            &query,
            &ExecOptions::parallel(ParallelConfig::new(4))
                .with_telemetry(&telemetry)
                .with_spans(&spans),
        )
        .unwrap();
        let recorded = spans.spans();
        // Shard-local finalization exercises the full in-process pipeline:
        // buffer residency, routing, window finalization, merge, delivery.
        for stage in [
            Stage::BufferResidency,
            Stage::Route,
            Stage::WindowFinalize,
            Stage::Merge,
            Stage::Deliver,
        ] {
            assert!(
                recorded.iter().any(|sp| sp.stage == stage),
                "missing {stage} spans"
            );
        }
        // One Deliver span per result, and their durations are exactly the
        // per-result latencies the summary was built from.
        let deliver: Vec<u64> = recorded
            .iter()
            .filter(|sp| sp.stage == Stage::Deliver)
            .map(|sp| sp.duration())
            .collect();
        assert_eq!(deliver.len(), out.results.len());
        let mean = deliver.iter().sum::<u64>() as f64 / deliver.len() as f64;
        assert!(
            (mean - out.latency.mean).abs() < 1e-9,
            "span-derived mean {mean} vs summary {}",
            out.latency.mean
        );
        // Attribution histograms landed in the registry.
        let snap = telemetry.snapshot();
        let h = snap
            .histograms
            .get("quill.span.deliver")
            .expect("deliver histogram");
        assert_eq!(h.count, out.results.len() as u64);
        assert!((h.mean - out.latency.mean).abs() < 1e-9);
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
}
