//! Keyed data-parallel execution.
//!
//! Keyed window aggregation partitions cleanly by grouping key: each shard
//! owns a disjoint key subset, receives every watermark (broadcast), and
//! runs an independent operator instance on its own thread. Results are
//! merged deterministically, so the parallel run is observationally
//! identical (as a set, and in (window, key) order) to the single-threaded
//! one — asserted by tests, a proptest and the `quill-sim` matrix.
//! [`run_keyed_parallel`] is the one entry point.
//!
//! The executor is batched and allocation-lean:
//!
//! * **Batched routing** — events travel to shards as `Vec<StreamElement>`
//!   chunks over bounded channels ([`ParallelConfig::batch_size`] per chunk)
//!   instead of one channel send per event. Watermarks are appended to
//!   *every* shard's pending batch, and a watermark that lands directly
//!   behind another one *coalesces* (replaces it in place) — see the
//!   internal `ShardRouter` for why that is exact. `Flush` still forces
//!   every pending batch out.
//! * **Shard routing** — [`shard_of`] hashes the key `Value` in place with a
//!   seeded [`FxHasher`]: no `Key` clone, no per-event `DefaultHasher`
//!   construction, stable across runs/threads/platforms.
//! * **Result channel** — workers ship finished result-run segments back
//!   over one shared unbounded channel as they are produced instead of
//!   holding their whole output until join; segments concatenate per shard
//!   in FIFO order, so each shard's run is preserved exactly.
//! * **Inline scheduler** — with [`ParallelConfig::deterministic`] set, or
//!   with `shards == 1`, no thread or channel exists: the caller thread runs
//!   each flushed batch through its shard's operator at once, behind the
//!   same router and in front of the same merge.
//! * **Ordered merge** — each shard's [`WindowAggregateOp`] already emits in
//!   `(window.end, window.start, key)` order, so the global order is
//!   recovered by a batch-at-a-time galloping merge of the per-shard runs:
//!   pick the run whose head is smallest (ties broken by shard index),
//!   binary-search how far it may run before the next run's head, and copy
//!   that whole prefix at once — O(total) moves with O(log) comparisons per
//!   *chunk* rather than a heap operation per *element*. If a shard's run
//!   is not sorted — e.g. a revising operator interleaves revision rows —
//!   the merge falls back to one stable sort over order keys that are
//!   computed *once per element* (no per-comparison `String` allocation).
//!
//! Shard-local window finalization is built on these primitives by
//! `quill-core`'s runner: the disorder-control strategy forwards every event
//! on arrival, each shard's operator inserts its own keys' events into its
//! window state in that order, and the merge combines finalized window
//! results — nothing re-orders events.
//!
//! [`WindowAggregateOp`]: crate::operator::WindowAggregateOp

use crate::error::{EngineError, Result};
use crate::event::StreamElement;
use crate::hash::FxHasher;
use crate::operator::{Operator, WindowResult};
use crate::value::{hash_value, Key, Value};
use crossbeam::channel;
use quill_telemetry::span::MERGE_SHARD;
use quill_telemetry::{Counter, Gauge, Registry, SpanRecorder, Stage};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for [`run_keyed_parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker shards (threads). Must be > 0.
    pub shards: usize,
    /// Events per routed batch. `1` degenerates to per-event sends; larger
    /// batches amortise channel synchronisation. Must be > 0.
    pub batch_size: usize,
    /// Bounded channel capacity, in *batches*, per shard. Bounds memory to
    /// roughly `shards × channel_capacity × batch_size` in-flight events.
    /// Must be > 0.
    pub channel_capacity: usize,
    /// Run the shards inline on the caller thread, in shard order, instead
    /// of spawning worker threads. Routing, batching and the output merge
    /// are byte-for-byte the code the threaded path runs, so the output is
    /// identical — this is the deterministic shard-scheduler seam the
    /// `quill-sim` differential harness sweeps to prove the merged output is
    /// independent of worker scheduling (and to run thousands of small cases
    /// without thread-spawn overhead). A single shard always runs inline:
    /// one worker thread would only add a channel hop.
    pub deterministic: bool,
}

impl ParallelConfig {
    /// Config with the given shard count and default batching parameters.
    pub fn new(shards: usize) -> ParallelConfig {
        ParallelConfig {
            shards,
            ..ParallelConfig::default()
        }
    }

    /// Set the routed batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> ParallelConfig {
        self.batch_size = batch_size;
        self
    }

    /// Set the per-shard channel capacity (in batches).
    pub fn with_channel_capacity(mut self, capacity: usize) -> ParallelConfig {
        self.channel_capacity = capacity;
        self
    }

    /// Toggle deterministic inline execution (no worker threads; shards run
    /// on the caller thread in shard order). Output is identical to the
    /// threaded path by construction.
    pub fn with_deterministic(mut self, deterministic: bool) -> ParallelConfig {
        self.deterministic = deterministic;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(EngineError::InvalidPipeline("shards must be > 0".into()));
        }
        if self.batch_size == 0 {
            return Err(EngineError::InvalidPipeline(
                "batch_size must be > 0".into(),
            ));
        }
        if self.channel_capacity == 0 {
            return Err(EngineError::InvalidPipeline(
                "channel_capacity must be > 0".into(),
            ));
        }
        Ok(())
    }
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig {
            shards: 4,
            batch_size: 256,
            channel_capacity: 64,
            deterministic: false,
        }
    }
}

/// Stable shard assignment for a key: hashes the borrowed `Value` with a
/// seeded [`FxHasher`] — no clone, no hasher key-schedule per call, and
/// coherent with [`Key`] equality (`Int(3)` and `Float(3.0)` land on the
/// same shard).
pub fn shard_of(key: &Value, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = FxHasher::new();
    hash_value(key, &mut h);
    (h.finish() % shards as u64) as usize
}

/// Per-shard executor telemetry: routed-event/batch counters, a derived
/// queue-depth gauge (batches sent minus batches the worker finished — the
/// stub channel has no `len()`), and a shared done-counter the worker
/// bumps. All `None`-backed no-ops when the registry is disabled.
struct ShardMetrics {
    shard: u32,
    events: Counter,
    batches: Counter,
    /// Window results this shard finalized (`quill.shard.<i>.finalized_windows`);
    /// cloned into the worker thread, bumped once per output event.
    finalized: Counter,
    queue_depth: Gauge,
    /// Batches the worker thread has fully processed (shared with it).
    done: Option<Arc<AtomicU64>>,
    /// Batches the router has sent to this shard.
    sent: u64,
}

impl ShardMetrics {
    /// `observe` enables the done-counter handshake with the worker (needed
    /// by either telemetry or spans; without it `depth()` is always 0).
    fn new(telemetry: &Registry, shard: usize, observe: bool) -> ShardMetrics {
        ShardMetrics {
            shard: shard as u32,
            events: telemetry.counter(&format!("quill.shard.{shard}.events")),
            batches: telemetry.counter(&format!("quill.shard.{shard}.batches")),
            finalized: telemetry.counter(&format!("quill.shard.{shard}.finalized_windows")),
            queue_depth: telemetry.gauge(&format!("quill.shard.{shard}.queue_depth")),
            done: observe.then(|| Arc::new(AtomicU64::new(0))),
            sent: 0,
        }
    }

    /// In-flight batches right now (0 when observation is disabled).
    fn depth(&self) -> u64 {
        self.done
            .as_ref()
            .map_or(0, |d| self.sent.saturating_sub(d.load(Ordering::Relaxed)))
    }
}

/// Sum of per-shard in-flight batch depths (the explicit cross-shard
/// aggregate behind `quill.executor.queue_depth`).
fn depth_sum(metrics: &[ShardMetrics]) -> u64 {
    metrics.iter().map(ShardMetrics::depth).sum()
}

/// Per-shard pending batches with watermark coalescing — the one routing
/// policy both the threaded and the deterministic inline executors use, so
/// each shard consumes the identical batch sequence under either scheduler.
///
/// Events go to their key's shard; watermarks are broadcast but do *not*
/// force a flush, and a watermark `W2` landing directly behind another
/// watermark `W1` in a shard's pending batch replaces it in place. That is
/// exact because no stage holds events back: each event reaches its shard's
/// operator in the batch that routes it, so with no event between `W1` and
/// `W2` the operator inserts nothing between them, and watermark handling
/// without interleaved inserts is idempotent and monotone — finalizing at
/// `W1` then `W2` queries the same windows in the same order as finalizing
/// at `W2`. An event routed between two watermarks pins the earlier one (it
/// is no longer trailing), so every shard event is still preceded by exactly
/// the watermarks that preceded it globally, and each key's window state
/// sees the same inserts and range queries under any shard count. `Flush`
/// is broadcast and flushes every pending batch immediately, ending the
/// stream.
struct ShardRouter {
    bufs: Vec<Vec<StreamElement>>,
    batch_size: usize,
}

impl ShardRouter {
    fn new(shards: usize, batch_size: usize) -> ShardRouter {
        ShardRouter {
            bufs: (0..shards)
                .map(|_| Vec::with_capacity(batch_size))
                .collect(),
            batch_size,
        }
    }

    /// Append an event to its shard's pending batch; `true` means the batch
    /// reached `batch_size` and must be flushed now.
    fn push_event(&mut self, shard: usize, el: StreamElement) -> bool {
        let buf = &mut self.bufs[shard];
        buf.push(el);
        buf.len() >= self.batch_size
    }

    /// Broadcast punctuation to every shard's pending batch, a watermark
    /// replacing a trailing one; `true` means every batch must be flushed
    /// now (`Flush` — the stream is over).
    fn push_punctuation(&mut self, el: &StreamElement) -> bool {
        for buf in &mut self.bufs {
            if matches!(
                (el, buf.last()),
                (StreamElement::Watermark(w), Some(StreamElement::Watermark(prev))) if prev <= w
            ) {
                buf.pop();
            }
            // quill-lint: allow(hot-path-alloc, reason = "punctuation broadcast: one copy per shard; watermarks are sparse relative to events and Flush comes once")
            buf.push(el.clone());
        }
        el.is_flush()
    }
}

/// Run a keyed operator data-parallel over `config.shards` shards, routing
/// events in batches, and return the merged output together with the
/// per-shard operator instances (for stats aggregation).
///
/// * `elements` — the (already disorder-controlled) input stream;
/// * `key_field` — the row index events are partitioned by;
/// * `config` — shard count, batching and scheduler;
/// * `telemetry`, `spans` — what the executor records into (see below);
///   pass [`Registry::disabled`] and [`SpanRecorder::disabled`] to record
///   nothing — every hook then folds to a branch on `None`;
/// * `make_op` — factory producing the operator of shard `i` (each must
///   behave identically on its key subset; the index lets an operator tag
///   its own records).
///
/// Events are routed by key hash; watermarks and flush are broadcast to all
/// shards as batch delimiters. Returns all output *events* (window results)
/// in deterministic `(window.end, window.start, key)` order, plus the
/// operators in shard order. The output does not depend on the scheduler:
/// worker threads, or the inline scheduler ([`ParallelConfig::deterministic`],
/// and always at one shard).
///
/// Recorded:
///
/// * telemetry — per shard `quill.shard.<i>.events` / `.batches` /
///   `.finalized_windows` counters and a `.queue_depth` gauge,
///   `quill.executor.send_stalls` (sends issued while the shard's channel
///   was at capacity, i.e. backpressure), the cross-shard
///   `quill.executor.queue_depth` and `quill.executor.result_queue_depth`
///   gauges, and `quill.merge.elements` / `.windows` / `.fallback_sorts` for
///   the output merge (the inline scheduler has no channels, so its stall
///   counter and depth gauges stay at zero);
/// * spans (logical clock) — [`Stage::Route`] per flushed shard batch over
///   the earliest to latest event timestamp in it, a [`Stage::SendStall`]
///   instant whenever a batch send finds the shard's channel at capacity
///   (at the batch's first event time, carrying the in-flight depth), and
///   one [`Stage::Merge`] on [`MERGE_SHARD`] over the merged window-end
///   range, carrying the element count and whether the fallback sort ran.
///   Downstream [`Stage::WindowFinalize`] / [`Stage::LateDrop`] records come
///   from the per-shard operators via their `attach_spans` hooks — pass the
///   same recorder to the factory.
///
/// # Errors
/// [`EngineError::ExecutorFailure`] if a worker panics or dies early;
/// [`EngineError::InvalidPipeline`] for a zero shard count, batch size or
/// channel capacity.
pub fn run_keyed_parallel<O>(
    elements: Vec<StreamElement>,
    key_field: usize,
    config: ParallelConfig,
    telemetry: &Registry,
    spans: &SpanRecorder,
    make_op: impl Fn(usize) -> O,
) -> Result<(Vec<StreamElement>, Vec<O>)>
where
    O: Operator + 'static,
{
    config.validate()?;
    if config.deterministic || config.shards == 1 {
        return run_inline(elements, key_field, config, telemetry, spans, make_op);
    }
    let shards = config.shards;
    let observe = telemetry.is_enabled() || spans.is_enabled();
    let mut metrics: Vec<ShardMetrics> = (0..shards)
        .map(|s| ShardMetrics::new(telemetry, s, observe))
        .collect();
    let send_stalls = telemetry.counter("quill.executor.send_stalls");
    let agg_depth = telemetry.gauge("quill.executor.queue_depth");
    let result_depth = telemetry.gauge("quill.executor.result_queue_depth");
    // Workers ship finished result-run segments back as they are produced.
    // Unbounded on purpose: a bounded result channel could deadlock against
    // the bounded input channels (router blocked sending input, worker
    // blocked sending results). Memory stays bounded by the output size,
    // which the caller materialises anyway.
    let (result_tx, result_rx) = channel::unbounded::<(usize, Vec<StreamElement>)>();
    let result_pending = observe.then(|| Arc::new(AtomicU64::new(0)));
    // Ship segments at a floor of 256 results so tiny input batch sizes
    // (stress configs) don't degenerate into per-result channel traffic.
    let result_batch = config.batch_size.max(256);
    let mut txs = Vec::with_capacity(shards);
    let mut handles = Vec::with_capacity(shards);
    for (s, m) in metrics.iter().enumerate() {
        let (tx, rx) = channel::bounded::<Vec<StreamElement>>(config.channel_capacity);
        let mut op = make_op(s);
        // quill-lint: allow(hot-path-alloc, reason = "executor startup: runs once per shard, not per event")
        let done = m.done.clone();
        // quill-lint: allow(hot-path-alloc, reason = "executor startup: runs once per shard, not per event")
        let finalized = m.finalized.clone();
        // quill-lint: allow(hot-path-alloc, reason = "executor startup: runs once per shard, not per event")
        let result_tx = result_tx.clone();
        // quill-lint: allow(hot-path-alloc, reason = "executor startup: runs once per shard, not per event")
        let pending = result_pending.clone();
        handles.push(std::thread::spawn(move || {
            // quill-lint: allow(hot-path-alloc, reason = "one output buffer per worker thread, allocated at spawn")
            let mut outs: Vec<StreamElement> = Vec::new();
            for batch in rx {
                for el in batch {
                    op.process(el, &mut |o| {
                        // Punctuation is re-derived after the merge; keep
                        // only data.
                        if matches!(o, StreamElement::Event(_)) {
                            finalized.inc();
                            outs.push(o);
                        }
                    });
                }
                if let Some(d) = &done {
                    d.fetch_add(1, Ordering::Relaxed);
                }
                if outs.len() >= result_batch {
                    if let Some(p) = &pending {
                        p.fetch_add(1, Ordering::Relaxed);
                    }
                    let _ = result_tx.send((s, std::mem::take(&mut outs)));
                }
            }
            if !outs.is_empty() {
                if let Some(p) = &pending {
                    p.fetch_add(1, Ordering::Relaxed);
                }
                let _ = result_tx.send((s, outs));
            }
            op
        }));
        txs.push(tx);
    }
    drop(result_tx);

    // Route. Events accumulate in per-shard buffers flushed at batch_size;
    // watermarks are broadcast (and coalesced) without forcing a flush;
    // Flush forces every pending batch out.
    let mut router = ShardRouter::new(shards, config.batch_size);
    for el in elements {
        match &el {
            StreamElement::Event(e) => {
                let shard = shard_of(e.row.get(key_field), shards);
                metrics[shard].events.inc();
                if router.push_event(shard, el) {
                    flush_batch(
                        &txs[shard],
                        &mut router.bufs[shard],
                        &config,
                        &mut metrics[shard],
                        &send_stalls,
                        spans,
                    )?;
                    if telemetry.is_enabled() {
                        agg_depth.set_u64(depth_sum(&metrics));
                    }
                }
            }
            _ => {
                if router.push_punctuation(&el) {
                    for ((tx, buf), m) in txs.iter().zip(&mut router.bufs).zip(&mut metrics) {
                        flush_batch(tx, buf, &config, m, &send_stalls, spans)?;
                    }
                    if telemetry.is_enabled() {
                        agg_depth.set_u64(depth_sum(&metrics));
                    }
                }
            }
        }
    }
    for ((tx, buf), m) in txs.iter().zip(&mut router.bufs).zip(&mut metrics) {
        flush_batch(tx, buf, &config, m, &send_stalls, spans)?;
    }
    drop(txs);

    // Drain result segments until every worker hangs up, concatenating each
    // shard's segments in FIFO order (crossbeam preserves per-sender order,
    // so this reconstructs each shard's run exactly).
    let mut shard_outs: Vec<Vec<StreamElement>> = (0..shards).map(|_| Vec::new()).collect();
    for (s, mut segment) in result_rx {
        if let Some(p) = &result_pending {
            let left = p.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
            if telemetry.is_enabled() {
                result_depth.set_u64(left);
            }
        }
        shard_outs[s].append(&mut segment);
    }
    let mut ops = Vec::with_capacity(shards);
    for (h, m) in handles.into_iter().zip(&metrics) {
        let op = h
            .join()
            .map_err(|_| EngineError::ExecutorFailure("shard thread panicked".into()))?;
        m.queue_depth.set_u64(0);
        ops.push(op);
    }
    agg_depth.set_u64(0);
    result_depth.set_u64(0);
    Ok((merge_shard_outputs(shard_outs, telemetry, spans), ops))
}

/// The inline scheduler of [`run_keyed_parallel`]: the same routing (key
/// hash, batch accumulation, punctuation broadcast as batch delimiter) and
/// the same output merge, but every shard's operator runs on the caller
/// thread — a flushed batch is processed immediately, shards in shard
/// order. Each operator therefore consumes exactly the batch sequence the
/// threaded path would deliver it, which makes the merged output equal by
/// construction and the whole run independent of thread scheduling. At one
/// shard this is the whole executor: no thread, no channel.
///
/// Telemetry: per-shard `.events` / `.batches` / `.finalized_windows`
/// counters and the merge instruments record as in the threaded path;
/// `quill.executor.send_stalls` and the queue-depth gauges stay at zero.
fn run_inline<O>(
    elements: Vec<StreamElement>,
    key_field: usize,
    config: ParallelConfig,
    telemetry: &Registry,
    spans: &SpanRecorder,
    make_op: impl Fn(usize) -> O,
) -> Result<(Vec<StreamElement>, Vec<O>)>
where
    O: Operator + 'static,
{
    let shards = config.shards;
    let metrics: Vec<ShardMetrics> = (0..shards)
        .map(|s| ShardMetrics::new(telemetry, s, false))
        .collect();
    let mut ops: Vec<O> = (0..shards).map(&make_op).collect();
    let mut outs: Vec<Vec<StreamElement>> = (0..shards).map(|_| Vec::new()).collect();
    let mut router = ShardRouter::new(shards, config.batch_size);
    let drain = |shard: usize,
                 buf: &mut Vec<StreamElement>,
                 ops: &mut Vec<O>,
                 outs: &mut Vec<Vec<StreamElement>>| {
        if buf.is_empty() {
            return;
        }
        metrics[shard].batches.inc();
        if spans.is_enabled() {
            record_route_span(spans, buf, shard as u32);
        }
        let out = &mut outs[shard];
        for el in buf.drain(..) {
            ops[shard].process(el, &mut |o| {
                // Same rule as the worker threads: punctuation is re-derived
                // after the merge; keep only data.
                if matches!(o, StreamElement::Event(_)) {
                    metrics[shard].finalized.inc();
                    out.push(o);
                }
            });
        }
    };
    for el in elements {
        match &el {
            StreamElement::Event(e) => {
                let shard = shard_of(e.row.get(key_field), shards);
                metrics[shard].events.inc();
                if router.push_event(shard, el) {
                    let mut buf = std::mem::take(&mut router.bufs[shard]);
                    drain(shard, &mut buf, &mut ops, &mut outs);
                    router.bufs[shard] = buf;
                }
            }
            _ => {
                if router.push_punctuation(&el) {
                    for (shard, slot) in router.bufs.iter_mut().enumerate() {
                        let mut buf = std::mem::take(slot);
                        drain(shard, &mut buf, &mut ops, &mut outs);
                        *slot = buf;
                    }
                }
            }
        }
    }
    for (shard, slot) in router.bufs.iter_mut().enumerate() {
        let mut buf = std::mem::take(slot);
        drain(shard, &mut buf, &mut ops, &mut outs);
    }
    Ok((merge_shard_outputs(outs, telemetry, spans), ops))
}

/// Record one [`Stage::Route`] span for a flushed shard batch: `begin` is
/// the earliest and `end` the latest event timestamp in the batch (the
/// event-time extent routed in one channel send). Batches holding only
/// punctuation record nothing — there is no event-time extent to attribute.
fn record_route_span(spans: &SpanRecorder, batch: &[StreamElement], shard: u32) {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for el in batch {
        if let Some(e) = el.as_event() {
            lo = lo.min(e.ts.raw());
            hi = hi.max(e.ts.raw());
        }
    }
    if lo != u64::MAX {
        spans.record(Stage::Route, lo, hi, shard);
    }
}

fn flush_batch(
    tx: &channel::Sender<Vec<StreamElement>>,
    buf: &mut Vec<StreamElement>,
    config: &ParallelConfig,
    metrics: &mut ShardMetrics,
    send_stalls: &Counter,
    spans: &SpanRecorder,
) -> Result<()> {
    if buf.is_empty() {
        return Ok(());
    }
    if spans.is_enabled() {
        record_route_span(spans, buf, metrics.shard);
    }
    if metrics.done.is_some() {
        // Backpressure: the bounded send below will block until the worker
        // drains a batch.
        let depth = metrics.depth();
        if depth >= config.channel_capacity as u64 {
            send_stalls.inc();
            if spans.is_enabled() {
                let at = buf
                    .iter()
                    .find_map(|el| el.as_event())
                    .map_or(0, |e| e.ts.raw());
                spans.record_detail(Stage::SendStall, at, at, metrics.shard, [depth, 0]);
            }
        }
        metrics.batches.inc();
    }
    let batch = std::mem::replace(buf, Vec::with_capacity(config.batch_size));
    tx.send(batch)
        .map_err(|_| EngineError::ExecutorFailure("shard died".into()))?;
    if metrics.done.is_some() {
        metrics.sent += 1;
        metrics.queue_depth.set_u64(metrics.depth());
    }
    Ok(())
}

/// Global output order: window end, window start, key. Computed once per
/// element — comparisons are allocation-free (`Key` compares the `Value` in
/// place; no `String` per comparison).
type MergeKey = (u64, u64, Key);

fn merge_key(el: &StreamElement) -> MergeKey {
    match el {
        StreamElement::Event(e) => {
            // Read the window-result metadata columns directly (same layout
            // checks as [`WindowResult::from_row`]) instead of materialising
            // a full `WindowResult`, which would clone the aggregates vec
            // for every merged element.
            let meta = if e.row.len() >= WindowResult::META_COLS {
                match (
                    e.row.get(1).as_i64(),
                    e.row.get(2).as_i64(),
                    e.row.get(3).as_i64(),
                    e.row.get(4).as_i64(),
                ) {
                    (Some(start), Some(end), Some(_), Some(_)) => Some((end as u64, start as u64)),
                    _ => None,
                }
            } else {
                None
            };
            match meta {
                Some((end, start)) => (end, start, Key(e.row.get(0).clone())),
                None => (e.ts.raw(), e.seq, Key(Value::Null)),
            }
        }
        _ => (u64::MAX, u64::MAX, Key(Value::Null)),
    }
}

/// Merge per-shard output runs into one deterministically ordered stream.
///
/// Fast path: every run is already sorted by [`MergeKey`] (non-strictly —
/// revisions of the same window compare equal), so the global order is
/// recovered by a batch-at-a-time *galloping* merge: repeatedly pick the run
/// whose head is smallest under `(key, shard)`, binary-search how far that
/// run may gallop before the smallest other head would sort first, and move
/// the whole prefix into the output at once. Ties reproduce the classic
/// heap merge exactly — equal keys emit in shard-index order — but a run
/// with no contention (the common case when shards own disjoint keys and
/// windows cluster) is copied in O(1) comparisons per chunk instead of one
/// heap rebalance per element. Fallback: one stable sort over the cached
/// keys, preserving within-shard emission order.
///
/// Telemetry: `quill.merge.elements` counts merged elements,
/// `quill.merge.windows` counts distinct merge keys among them (window
/// revisions collapse onto their window), `quill.merge.fallback_sorts`
/// counts sort-path activations.
fn merge_shard_outputs(
    shard_outs: Vec<Vec<StreamElement>>,
    telemetry: &Registry,
    spans: &SpanRecorder,
) -> Vec<StreamElement> {
    let total: usize = shard_outs.iter().map(Vec::len).sum();
    telemetry.counter("quill.merge.elements").add(total as u64);
    let keyed: Vec<Vec<(MergeKey, StreamElement)>> = shard_outs
        .into_iter()
        .map(|outs| outs.into_iter().map(|el| (merge_key(&el), el)).collect())
        .collect();
    let sorted = keyed
        .iter()
        .all(|run| run.windows(2).all(|w| w[0].0 <= w[1].0));
    if spans.is_enabled() && total > 0 {
        // One Merge span on the pseudo-shard spanning the merged window-end
        // range (the event-time extent the merge interleaves).
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for run in &keyed {
            for (k, _) in run {
                if k.0 != u64::MAX {
                    lo = lo.min(k.0);
                    hi = hi.max(k.0);
                }
            }
        }
        if lo != u64::MAX {
            let detail = [total as u64, u64::from(!sorted)];
            spans.record_detail(Stage::Merge, lo, hi, MERGE_SHARD, detail);
        }
    }
    let count_windows = telemetry.is_enabled();
    let mut windows = 0u64;
    let mut prev_key: Option<MergeKey> = None;
    let mut out = Vec::with_capacity(total);
    if sorted {
        // Split keys (kept addressable for binary search) from payloads
        // (consumed front to back without cloning).
        let mut key_runs: Vec<Vec<MergeKey>> = Vec::with_capacity(keyed.len());
        let mut el_runs: Vec<std::vec::IntoIter<StreamElement>> = Vec::with_capacity(keyed.len());
        for run in keyed {
            let (keys, els): (Vec<MergeKey>, Vec<StreamElement>) = run.into_iter().unzip();
            key_runs.push(keys);
            el_runs.push(els.into_iter());
        }
        let mut idxs = vec![0usize; key_runs.len()];
        loop {
            // The run whose head sorts first under (key, shard) — the same
            // total order the heap merge used.
            let mut best: Option<(usize, &MergeKey)> = None;
            let mut bound: Option<(usize, &MergeKey)> = None;
            for (s, keys) in key_runs.iter().enumerate() {
                if idxs[s] < keys.len() {
                    let k = &keys[idxs[s]];
                    match best {
                        None => best = Some((s, k)),
                        Some((bs, bk)) if (k, s) < (bk, bs) => {
                            bound = best;
                            best = Some((s, k));
                        }
                        _ => match bound {
                            None => bound = Some((s, k)),
                            Some((os, ok)) if (k, s) < (ok, os) => bound = Some((s, k)),
                            _ => {}
                        },
                    }
                }
            }
            let Some((s, _)) = best else { break };
            let start = idxs[s];
            let keys = &key_runs[s];
            let take = match bound {
                // Sole remaining run: gallop to its end.
                None => keys.len() - start,
                Some((bs, bk)) => {
                    // Emit while (key, s) < (bk, bs): for s < bs that is
                    // key <= bk (equal keys break toward the lower shard),
                    // otherwise strictly key < bk.
                    if s < bs {
                        keys[start..].partition_point(|k| k <= bk)
                    } else {
                        keys[start..].partition_point(|k| k < bk)
                    }
                }
            };
            debug_assert!(take >= 1, "the minimal head must always be emittable");
            if count_windows {
                for k in &keys[start..start + take] {
                    if prev_key.as_ref() != Some(k) {
                        windows += 1;
                        // quill-lint: allow(hot-path-alloc, reason = "cloned only on key change — once per window, not per element")
                        prev_key = Some(k.clone());
                    }
                }
            }
            out.extend(el_runs[s].by_ref().take(take));
            idxs[s] = start + take;
        }
    } else {
        telemetry.counter("quill.merge.fallback_sorts").inc();
        let mut flat: Vec<(MergeKey, usize, StreamElement)> = keyed
            .into_iter()
            .enumerate()
            .flat_map(|(shard, run)| run.into_iter().map(move |(k, el)| (k, shard, el)))
            .collect();
        flat.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        if count_windows {
            for (k, _, _) in &flat {
                if prev_key.as_ref() != Some(k) {
                    windows += 1;
                    // quill-lint: allow(hot-path-alloc, reason = "cloned only on key change — once per window, not per element")
                    prev_key = Some(k.clone());
                }
            }
        }
        out.extend(flat.into_iter().map(|(_, _, el)| el));
    }
    if count_windows {
        telemetry.counter("quill.merge.windows").add(windows);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateKind, AggregateSpec};
    use crate::event::Event;
    use crate::operator::{LatePolicy, WindowAggregateOp};
    use crate::time::Timestamp;
    use crate::value::Row;
    use crate::window::WindowSpec;
    use quill_telemetry::Span;

    fn window_op() -> WindowAggregateOp {
        WindowAggregateOp::new(
            WindowSpec::tumbling(100u64),
            vec![
                AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
                AggregateSpec::new(AggregateKind::Count, 1, "n"),
            ],
            Some(0),
            LatePolicy::Drop,
        )
        .expect("valid op")
    }

    /// The executor with nothing recorded.
    fn run<O: Operator + 'static>(
        elements: Vec<StreamElement>,
        config: ParallelConfig,
        make_op: impl Fn() -> O,
    ) -> Result<(Vec<StreamElement>, Vec<O>)> {
        run_keyed_parallel(
            elements,
            0,
            config,
            &Registry::disabled(),
            &SpanRecorder::disabled(),
            |_| make_op(),
        )
    }

    fn input(n: u64, keys: i64) -> Vec<StreamElement> {
        let mut v: Vec<StreamElement> = (0..n)
            .map(|i| {
                StreamElement::Event(Event::new(
                    i * 3,
                    i,
                    Row::new([Value::Int((i as i64) % keys), Value::Float(1.0)]),
                ))
            })
            .collect();
        v.push(StreamElement::Flush);
        v
    }

    fn results_of(out: &[StreamElement]) -> Vec<WindowResult> {
        out.iter()
            .filter_map(|e| e.as_event())
            .filter_map(|e| WindowResult::from_row(&e.row))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_as_ordered_results() {
        let elements = input(3_000, 17);
        // Sequential reference.
        let mut seq_op = window_op();
        let mut seq_out = Vec::new();
        for el in elements.clone() {
            seq_op.process(el, &mut |o| {
                if matches!(o, StreamElement::Event(_)) {
                    seq_out.push(o);
                }
            });
        }
        let mut seq_results = results_of(&seq_out);
        seq_results.sort_by_key(|r| (r.window.end, r.window.start, Key(r.key.clone())));

        for shards in [1usize, 2, 4, 8] {
            let (par_out, _) = run(elements.clone(), ParallelConfig::new(shards), window_op)
                .expect("parallel run");
            let par_results = results_of(&par_out);
            assert_eq!(par_results, seq_results, "shards={shards}");
        }
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let elements = input(2_000, 13);
        let reference = run(
            elements.clone(),
            ParallelConfig::new(4).with_batch_size(1),
            window_op,
        )
        .expect("batch=1 run")
        .0;
        for batch in [7usize, 256, 1024, 100_000] {
            let out = run(
                elements.clone(),
                ParallelConfig::new(4)
                    .with_batch_size(batch)
                    .with_channel_capacity(2),
                window_op,
            )
            .expect("batched run")
            .0;
            assert_eq!(out, reference, "batch_size={batch}");
        }
    }

    #[test]
    fn deterministic_inline_matches_threaded() {
        let elements = input(2_000, 13);
        for shards in [1usize, 3, 4, 8] {
            let cfg = ParallelConfig::new(shards).with_batch_size(32);
            let threaded = run(elements.clone(), cfg, window_op)
                .expect("threaded run")
                .0;
            let inline = run(elements.clone(), cfg.with_deterministic(true), window_op)
                .expect("inline run")
                .0;
            assert_eq!(inline, threaded, "shards={shards}");
        }
    }

    /// The executor recording into `reg` only.
    fn run_instrumented(
        elements: Vec<StreamElement>,
        config: ParallelConfig,
        reg: &Registry,
    ) -> (Vec<StreamElement>, Vec<WindowAggregateOp>) {
        run_keyed_parallel(elements, 0, config, reg, &SpanRecorder::disabled(), |_| {
            window_op()
        })
        .expect("run")
    }

    #[test]
    fn inline_mode_counts_shard_events() {
        let reg = Registry::new();
        let n = 1_000u64;
        let cfg = ParallelConfig::new(4).with_deterministic(true);
        let (out, ops) = run_instrumented(input(n, 8), cfg, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_family_sum("quill.shard.", ".events"), n);
        assert_eq!(snap.counter("quill.merge.elements"), out.len() as u64);
        let accepted: u64 = ops.iter().map(|op| op.stats().accepted).sum();
        assert_eq!(accepted, n);
    }

    #[test]
    fn returned_ops_carry_shard_stats() {
        let n = 1_000u64;
        let (_, ops) = run(input(n, 8), ParallelConfig::new(4), window_op).expect("parallel run");
        assert_eq!(ops.len(), 4);
        let accepted: u64 = ops.iter().map(|op| op.stats().accepted).sum();
        assert_eq!(accepted, n, "every event lands on exactly one shard");
    }

    #[test]
    fn shard_assignment_is_stable_and_within_bounds() {
        for k in 0..100i64 {
            let v = Value::Int(k);
            let s = shard_of(&v, 7);
            assert!(s < 7);
            assert_eq!(s, shard_of(&v, 7), "unstable shard for {k}");
        }
        // Int/Float key coherence (same hash for 3 and 3.0).
        assert_eq!(shard_of(&Value::Int(3), 5), shard_of(&Value::Float(3.0), 5));
        // Strings route without cloning the Arc payload and stay stable.
        let s = Value::str("alpha");
        assert_eq!(shard_of(&s, 9), shard_of(&Value::str("alpha"), 9));
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(matches!(
            run(vec![], ParallelConfig::new(0), window_op),
            Err(EngineError::InvalidPipeline(_))
        ));
    }

    #[test]
    fn degenerate_config_rejected() {
        for cfg in [
            ParallelConfig::new(4).with_batch_size(0),
            ParallelConfig::new(4).with_channel_capacity(0),
            ParallelConfig::new(0),
        ] {
            assert!(matches!(
                run(vec![], cfg, window_op),
                Err(EngineError::InvalidPipeline(_))
            ));
        }
    }

    #[test]
    fn watermarks_are_broadcast_so_all_shards_emit() {
        // Without Flush broadcast, shards would hold their windows forever.
        let elements = input(500, 8);
        let (out, _) = run(elements, ParallelConfig::new(4), window_op).expect("parallel run");
        let results = results_of(&out);
        let keys: std::collections::HashSet<String> =
            results.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(keys.len(), 8, "all key groups must produce results");
        let total: u64 = results.iter().map(|r| r.count).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn instrumented_run_records_shard_and_merge_metrics() {
        let reg = Registry::new();
        let n = 1_000u64;
        let cfg = ParallelConfig::new(4)
            .with_batch_size(64)
            .with_channel_capacity(2);
        let (out, _ops) = run_instrumented(input(n, 8), cfg, &reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_family_sum("quill.shard.", ".events"),
            n,
            "every event routed to exactly one shard"
        );
        assert!(snap.counter_family_sum("quill.shard.", ".batches") >= 4);
        assert_eq!(snap.counter("quill.merge.elements"), out.len() as u64);
        assert_eq!(snap.counter("quill.merge.fallback_sorts"), 0);
        // Workers drained everything before join, so depth gauges end at 0.
        for s in 0..4 {
            assert_eq!(
                snap.gauge(&format!("quill.shard.{s}.queue_depth")),
                Some(0.0)
            );
        }
        // The explicit cross-shard aggregate is present and agrees with the
        // (drained) per-shard gauges.
        assert_eq!(snap.gauge("quill.executor.queue_depth"), Some(0.0));
        assert_eq!(snap.gauge_family_sum("quill.shard.", ".queue_depth"), 0.0);
        // Result-channel segments were all drained before the merge.
        assert_eq!(snap.gauge("quill.executor.result_queue_depth"), Some(0.0));
        // Every merged element was finalized by exactly one shard, and the
        // window counter matches the distinct merge keys in the output.
        assert_eq!(
            snap.counter_family_sum("quill.shard.", ".finalized_windows"),
            out.len() as u64
        );
        let mut keys: Vec<MergeKey> = out.iter().map(merge_key).collect();
        keys.dedup();
        assert_eq!(snap.counter("quill.merge.windows"), keys.len() as u64);
    }

    #[test]
    fn single_shard_bypass_matches_multi_shard_output() {
        // A single shard bypasses threads and channels (threaded scheduler
        // requested, the inline one runs) — even at batch_size 1, the
        // pathological case for channel traffic — yet it emits the exact
        // result sequence the multi-shard merge produces, with the same
        // merge telemetry so dashboards don't go dark at shards=1.
        let elements = input(2_000, 13);
        let (multi, _) = run(
            elements.clone(),
            ParallelConfig::new(4).with_batch_size(64),
            window_op,
        )
        .expect("4-shard run");

        let reg = Registry::new();
        let (out, ops) =
            run_instrumented(elements, ParallelConfig::new(1).with_batch_size(1), &reg);
        // Result `seq` numbers are per-operator, so compare the parsed window
        // results in merged order: same windows, same aggregates, same order.
        assert_eq!(
            results_of(&out),
            results_of(&multi),
            "one shard must match the multi-shard merge, in order"
        );
        assert_eq!(ops.len(), 1);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("quill.shard.0.events"), 2_000);
        // One batch per event at batch_size 1, plus the one Flush closes.
        assert_eq!(snap.counter("quill.shard.0.batches"), 2_001);
        assert_eq!(
            snap.counter("quill.shard.0.finalized_windows"),
            out.len() as u64
        );
        // The one-run merge still records its instruments.
        assert_eq!(snap.counter("quill.merge.elements"), out.len() as u64);
        assert_eq!(snap.counter("quill.merge.fallback_sorts"), 0);
        assert!(snap.counter("quill.merge.windows") > 0);
        // No channels exist on this path, so nothing can stall.
        assert_eq!(snap.counter("quill.executor.send_stalls"), 0);
    }

    #[test]
    fn shard_gauges_are_labeled_per_shard_not_last_write_wins() {
        // Regression: each shard owns its own `quill.shard.<i>.queue_depth`
        // gauge; writes must not collide on a single shared name, and the
        // family sum must see every shard.
        let reg = Registry::new();
        let m0 = ShardMetrics::new(&reg, 0, true);
        let m1 = ShardMetrics::new(&reg, 1, true);
        m0.queue_depth.set_u64(3);
        m1.queue_depth.set_u64(5);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("quill.shard.0.queue_depth"), Some(3.0));
        assert_eq!(snap.gauge("quill.shard.1.queue_depth"), Some(5.0));
        assert_eq!(snap.gauge_family_sum("quill.shard.", ".queue_depth"), 8.0);
    }

    #[test]
    fn observed_run_records_trace_events_without_telemetry() {
        let spans = SpanRecorder::new(8192);
        let n = 1_000u64;
        let cfg = ParallelConfig::new(4)
            .with_batch_size(16)
            .with_channel_capacity(1);
        let (out, _ops) = run_keyed_parallel(
            input(n, 8),
            0,
            cfg,
            &Registry::disabled(),
            &spans,
            |shard| {
                let mut op = window_op();
                op.attach_spans(&spans, shard as u32);
                op
            },
        )
        .expect("observed run");
        let recorded = spans.spans();
        // One finalize per result, and every event lands in exactly one of
        // those windows.
        let fins: Vec<&Span> = recorded
            .iter()
            .filter(|s| s.stage == Stage::WindowFinalize)
            .collect();
        assert_eq!(fins.len(), out.len());
        assert_eq!(results_of(&out).iter().map(|r| r.count).sum::<u64>(), n);
        // Finalizations are tagged with real shard ids, not a single shard.
        let fin_shards: std::collections::HashSet<u32> = fins.iter().map(|s| s.shard).collect();
        assert!(fin_shards.len() > 1, "8 keys over 4 shards span shards");
        // A stall names the batches in flight on a one-batch channel.
        assert!(recorded
            .iter()
            .filter(|s| s.stage == Stage::SendStall)
            .all(|s| s.begin == s.end && s.detail[0] >= 1 && s.shard < 4));
        // The merge reports once, on the pseudo-shard, fast path.
        let merges: Vec<(u32, [u64; 2])> = recorded
            .iter()
            .filter(|s| s.stage == Stage::Merge)
            .map(|s| (s.shard, s.detail))
            .collect();
        assert_eq!(merges, vec![(MERGE_SHARD, [out.len() as u64, 0])]);
        // Sequence numbers interleave deterministically (strictly monotone).
        assert!(recorded.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn traced_run_records_route_and_merge_spans() {
        let spans = SpanRecorder::new(8192);
        let n = 1_000u64;
        let cfg = ParallelConfig::new(4)
            .with_batch_size(16)
            .with_channel_capacity(2);
        let (out, _ops) = run_keyed_parallel(
            input(n, 8),
            0,
            cfg,
            &Registry::disabled(),
            &spans,
            |_shard| window_op(),
        )
        .expect("traced run");
        let recorded = spans.spans();
        // Route spans: one per flushed batch, shard-tagged, with a sane
        // event-time extent (begin <= end, within the input's ts range).
        let routes: Vec<_> = recorded
            .iter()
            .filter(|s| s.stage == Stage::Route)
            .collect();
        assert!(routes.len() >= 4, "at least one batch per shard");
        for r in routes {
            assert!(r.begin <= r.end);
            assert!(r.end < n * 3);
            assert!(r.shard < 4);
        }
        // Exactly one Merge span, on the pseudo-shard, spanning the merged
        // window-end range.
        let merges: Vec<_> = recorded
            .iter()
            .filter(|s| s.stage == Stage::Merge)
            .collect();
        assert_eq!(merges.len(), 1);
        assert_eq!(merges[0].shard, MERGE_SHARD);
        let ends: Vec<u64> = results_of(&out)
            .iter()
            .map(|r| r.window.end.raw())
            .collect();
        assert_eq!(merges[0].begin, *ends.iter().min().expect("results"));
        assert_eq!(merges[0].end, *ends.iter().max().expect("results"));
        // Deterministic inline scheduling records the same span *set* shape.
        let det_spans = SpanRecorder::new(8192);
        run_keyed_parallel(
            input(n, 8),
            0,
            cfg.with_deterministic(true),
            &Registry::disabled(),
            &det_spans,
            |_shard| window_op(),
        )
        .expect("inline traced run");
        assert_eq!(
            det_spans
                .spans()
                .iter()
                .filter(|s| s.stage == Stage::Merge)
                .count(),
            1
        );
    }

    #[test]
    fn disabled_spans_keep_observed_semantics() {
        // A disabled recorder is how a caller opts out of spans: the output
        // must be identical to the spanned run.
        let elements = input(500, 5);
        let cfg = ParallelConfig::new(3).with_batch_size(32);
        let (observed, _) = run(elements.clone(), cfg, window_op).expect("observed");
        let spans = SpanRecorder::new(1024);
        let (traced, _) =
            run_keyed_parallel(elements, 0, cfg, &Registry::disabled(), &spans, |_| {
                window_op()
            })
            .expect("traced");
        assert_eq!(results_of(&traced), results_of(&observed));
        assert!(!spans.is_empty(), "enabled recorder captured spans");
    }

    #[test]
    fn merge_fallback_handles_unsorted_shard_runs() {
        // An operator that emits events with descending timestamps breaks
        // the sortedness invariant; the fallback must still produce a
        // deterministic global order.
        struct Backwards(u64);
        impl Operator for Backwards {
            fn name(&self) -> &str {
                "backwards"
            }
            fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(StreamElement)) {
                if let StreamElement::Event(mut e) = el {
                    self.0 += 1;
                    e.ts = Timestamp(1_000_000 - self.0);
                    out(StreamElement::Event(e));
                }
            }
        }
        let elements = input(100, 5);
        let (out, _) =
            run(elements, ParallelConfig::new(3), || Backwards(0)).expect("parallel run");
        assert_eq!(out.len(), 100);
        let ts: Vec<u64> = out
            .iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.ts.raw())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "fallback sorts output");
    }

    #[test]
    fn trailing_watermarks_coalesce_until_an_event_pins_them() {
        let ev = |ts: u64, seq: u64| {
            StreamElement::Event(Event::new(ts, seq, Row::new([Value::Int(0)])))
        };
        let wm = |t: u64| StreamElement::Watermark(Timestamp(t));
        let mut router = ShardRouter::new(2, 1024);
        // The event at 50 sits in the operator before W40 arrives, so no
        // stage releases it at W60: W40, W60 and W70 collapse to W70.
        assert!(!router.push_event(0, ev(50, 0)));
        for t in [40, 60, 70] {
            assert!(!router.push_punctuation(&wm(t)));
        }
        assert_eq!(router.bufs[0], vec![ev(50, 0), wm(70)]);
        assert_eq!(router.bufs[1], vec![wm(70)]);
        // An event between two watermarks pins the one before it, on its
        // own shard only.
        assert!(!router.push_event(0, ev(10, 1)));
        for t in [80, 90] {
            assert!(!router.push_punctuation(&wm(t)));
        }
        assert_eq!(router.bufs[0], vec![ev(50, 0), wm(70), ev(10, 1), wm(90)]);
        assert_eq!(router.bufs[1], vec![wm(90)]);
        // Flush never replaces a watermark, and asks for every batch.
        assert!(router.push_punctuation(&StreamElement::Flush));
        assert_eq!(router.bufs[1], vec![wm(90), StreamElement::Flush]);
    }
}
