//! Keyed data-parallel execution.
//!
//! Keyed window aggregation partitions cleanly by grouping key: each shard
//! owns a disjoint key subset, receives every watermark (broadcast), and
//! runs an independent operator instance. Results are merged
//! deterministically, so the parallel run is observationally identical (as a
//! set, and in (window, key) order) to the single-threaded one — asserted by
//! tests, a proptest and the `quill-sim` matrix. [`run_keyed_parallel`] is
//! the one entry point.
//!
//! * **Batched routing** — events travel to shards as `Vec<StreamElement>`
//!   chunks ([`ParallelConfig::batch_size`] per chunk) instead of one hand-off
//!   per event. Watermarks are appended to *every* shard's pending batch, and
//!   a watermark that lands directly behind another one *coalesces*
//!   (replaces it in place) — see the internal `ShardRouter` for why that is
//!   exact. `Flush` forces every pending batch out.
//! * **Shard routing** — [`shard_of`] hashes the key `Value` in place with a
//!   seeded [`FxHasher`]: no `Key` clone, no per-event `DefaultHasher`
//!   construction, stable across runs/threads/platforms.
//! * **One lane per shard** — the shard count alone picks where a flushed
//!   batch goes: at one shard, straight into the operator on the caller
//!   thread; otherwise to a worker thread that owns the shard's operator,
//!   behind a bounded channel of 64 batches. Either way the
//!   operator sees the same batch sequence, and each worker hands back its
//!   operator and its whole result run when it is joined.
//! * **Ordered merge** — each shard's [`WindowAggregateOp`] emits in
//!   `(window.end, window.start, key)` order; the runs, concatenated in shard
//!   order, go through one stable sort on that key, computed once per
//!   element. Equal keys therefore come out in shard order, then emission
//!   order, and the std sort takes each already-sorted run as one run.
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
use std::thread::JoinHandle;

/// Capacity, in batches, of each worker's input channel. Bounds in-flight
/// memory to roughly `shards × CHANNEL_CAPACITY × batch_size` events.
const CHANNEL_CAPACITY: usize = 64;

/// Tuning knobs for [`run_keyed_parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of shards. One shard runs on the caller thread; more run one
    /// worker thread each. Must be > 0.
    pub shards: usize,
    /// Events per routed batch. `1` degenerates to per-event hand-offs;
    /// larger batches amortise channel synchronisation. Must be > 0.
    pub batch_size: usize,
}

impl ParallelConfig {
    /// Config with the given shard count and the default batch size.
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

    fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(EngineError::InvalidPipeline("shards must be > 0".into()));
        }
        if self.batch_size == 0 {
            return Err(EngineError::InvalidPipeline(
                "batch_size must be > 0".into(),
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

/// Per-shard executor telemetry: routed-event/batch/finalized counters and
/// the queue-depth gauge. All `None`-backed no-ops when the registry is
/// disabled.
struct ShardMetrics {
    shard: u32,
    events: Counter,
    batches: Counter,
    /// Window results this shard finalized (`quill.shard.<i>.finalized_windows`).
    finalized: Counter,
    queue_depth: Gauge,
}

impl ShardMetrics {
    fn new(telemetry: &Registry, shard: usize) -> ShardMetrics {
        ShardMetrics {
            shard: shard as u32,
            events: telemetry.counter(&format!("quill.shard.{shard}.events")),
            batches: telemetry.counter(&format!("quill.shard.{shard}.batches")),
            finalized: telemetry.counter(&format!("quill.shard.{shard}.finalized_windows")),
            queue_depth: telemetry.gauge(&format!("quill.shard.{shard}.queue_depth")),
        }
    }
}

/// Per-shard pending batches with watermark coalescing — the routing policy
/// every shard count runs.
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

/// Where one shard's flushed batches go.
enum Lane<O> {
    /// The only shard: its operator runs each batch on the caller thread.
    Inline { op: O, outs: Vec<StreamElement> },
    /// A worker thread owning the shard's operator, fed over a bounded
    /// channel; joining it returns the operator and its result run.
    Worker {
        tx: channel::Sender<Vec<StreamElement>>,
        handle: JoinHandle<(O, Vec<StreamElement>)>,
        /// Batches the worker has fully processed, shared with it; `None`
        /// when nothing observes the queue depth.
        done: Option<Arc<AtomicU64>>,
        /// Batches sent to the worker.
        sent: u64,
    },
}

impl<O: Operator + 'static> Lane<O> {
    /// Spawn a worker thread that runs `op` over every batch it receives.
    fn worker(mut op: O, finalized: Counter, observe: bool) -> Lane<O> {
        let (tx, rx) = channel::bounded::<Vec<StreamElement>>(CHANNEL_CAPACITY);
        let done = observe.then(|| Arc::new(AtomicU64::new(0)));
        let processed = done.clone();
        let handle = std::thread::spawn(move || {
            let mut outs = Vec::new();
            for batch in rx {
                process_batch(&mut op, batch, &mut outs, &finalized);
                if let Some(d) = &processed {
                    d.fetch_add(1, Ordering::Relaxed);
                }
            }
            (op, outs)
        });
        Lane::Worker {
            tx,
            handle,
            done,
            sent: 0,
        }
    }

    /// Batches in flight right now (always 0 inline or unobserved).
    fn depth(&self) -> u64 {
        match self {
            Lane::Worker {
                done: Some(d),
                sent,
                ..
            } => sent.saturating_sub(d.load(Ordering::Relaxed)),
            _ => 0,
        }
    }

    /// Hand `buf`, the shard's pending batch, to this lane, leaving it
    /// empty. A worker lane first checks for backpressure: a send that finds
    /// the channel full counts a `send_stalls` and records a
    /// [`Stage::SendStall`].
    fn hand_off(
        &mut self,
        buf: &mut Vec<StreamElement>,
        batch_size: usize,
        m: &ShardMetrics,
        send_stalls: &Counter,
        spans: &SpanRecorder,
    ) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        if spans.is_enabled() {
            record_route_span(spans, buf, m.shard);
        }
        m.batches.inc();
        let depth = self.depth();
        match self {
            Lane::Inline { op, outs } => process_batch(op, buf.drain(..), outs, &m.finalized),
            Lane::Worker { tx, sent, .. } => {
                if depth >= CHANNEL_CAPACITY as u64 {
                    send_stalls.inc();
                    if spans.is_enabled() {
                        let at = buf
                            .iter()
                            .find_map(|el| el.as_event())
                            .map_or(0, |e| e.ts.raw());
                        spans.record_detail(Stage::SendStall, at, at, m.shard, [depth, 0]);
                    }
                }
                let batch = std::mem::replace(buf, Vec::with_capacity(batch_size));
                tx.send(batch)
                    .map_err(|_| EngineError::ExecutorFailure("shard died".into()))?;
                *sent += 1;
                m.queue_depth.set_u64(depth + 1);
            }
        }
        Ok(())
    }

    /// The shard's operator and result run, once its input has ended.
    fn into_output(self) -> Result<(O, Vec<StreamElement>)> {
        match self {
            Lane::Inline { op, outs } => Ok((op, outs)),
            Lane::Worker { tx, handle, .. } => {
                drop(tx);
                handle
                    .join()
                    .map_err(|_| EngineError::ExecutorFailure("shard thread panicked".into()))
            }
        }
    }
}

/// Run one batch through a shard's operator, keeping only its data output
/// (punctuation is re-derived after the merge).
fn process_batch<O: Operator>(
    op: &mut O,
    batch: impl IntoIterator<Item = StreamElement>,
    outs: &mut Vec<StreamElement>,
    finalized: &Counter,
) {
    for el in batch {
        op.process(el, &mut |o| {
            if matches!(o, StreamElement::Event(_)) {
                finalized.inc();
                outs.push(o);
            }
        });
    }
}

/// Run a keyed operator data-parallel over `config.shards` shards, routing
/// events in batches, and return the merged output together with the
/// per-shard operator instances (for stats aggregation).
///
/// * `elements` — the (already disorder-controlled) input stream;
/// * `key_field` — the row index events are partitioned by;
/// * `config` — shard count and batch size;
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
/// operators in shard order. One shard runs on the caller thread, more on
/// one worker thread each; the output is the same.
///
/// Recorded:
///
/// * telemetry — per shard `quill.shard.<i>.events` / `.batches` /
///   `.finalized_windows` counters and a `.queue_depth` gauge,
///   `quill.executor.send_stalls` (sends issued while the shard's channel
///   was at capacity, i.e. backpressure), the cross-shard
///   `quill.executor.queue_depth` gauge, and `quill.merge.elements` /
///   `.windows` for the output merge (one shard has no channel, so its stall
///   counter and depth gauges stay at zero);
/// * spans (logical clock) — [`Stage::Route`] per flushed shard batch over
///   the earliest to latest event timestamp in it, a [`Stage::SendStall`]
///   instant whenever a batch send finds the shard's channel at capacity
///   (at the batch's first event time, carrying the in-flight depth), and
///   one [`Stage::Merge`] on [`MERGE_SHARD`] over the merged window-end
///   range, carrying the element count. Downstream
///   [`Stage::WindowFinalize`] / [`Stage::LateDrop`] records come from the
///   per-shard operators via their `attach_spans` hooks — pass the same
///   recorder to the factory.
///
/// # Errors
/// [`EngineError::ExecutorFailure`] if a worker panics or dies early;
/// [`EngineError::InvalidPipeline`] for a zero shard count or batch size.
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
    let shards = config.shards;
    let metrics: Vec<ShardMetrics> = (0..shards)
        .map(|s| ShardMetrics::new(telemetry, s))
        .collect();
    let send_stalls = telemetry.counter("quill.executor.send_stalls");
    let queue_depth = telemetry.gauge("quill.executor.queue_depth");
    let mut lanes: Vec<Lane<O>> = if shards == 1 {
        vec![Lane::Inline {
            op: make_op(0),
            outs: Vec::new(),
        }]
    } else {
        let observe = telemetry.is_enabled() || spans.is_enabled();
        metrics
            .iter()
            .enumerate()
            .map(|(s, m)| Lane::worker(make_op(s), m.finalized.clone(), observe))
            .collect()
    };
    let flush =
        |lanes: &mut [Lane<O>], bufs: &mut [Vec<StreamElement>], shard: usize| -> Result<()> {
            lanes[shard].hand_off(
                &mut bufs[shard],
                config.batch_size,
                &metrics[shard],
                &send_stalls,
                spans,
            )?;
            if telemetry.is_enabled() {
                queue_depth.set_u64(lanes.iter().map(Lane::depth).sum());
            }
            Ok(())
        };

    let mut router = ShardRouter::new(shards, config.batch_size);
    for el in elements {
        match &el {
            StreamElement::Event(e) => {
                let shard = shard_of(e.row.get(key_field), shards);
                metrics[shard].events.inc();
                if router.push_event(shard, el) {
                    flush(&mut lanes, &mut router.bufs, shard)?;
                }
            }
            _ => {
                if router.push_punctuation(&el) {
                    for shard in 0..shards {
                        flush(&mut lanes, &mut router.bufs, shard)?;
                    }
                }
            }
        }
    }
    for shard in 0..shards {
        flush(&mut lanes, &mut router.bufs, shard)?;
    }

    let mut ops = Vec::with_capacity(shards);
    let mut runs = Vec::with_capacity(shards);
    for (lane, m) in lanes.into_iter().zip(&metrics) {
        let (op, outs) = lane.into_output()?;
        m.queue_depth.set_u64(0);
        ops.push(op);
        runs.push(outs);
    }
    queue_depth.set_u64(0);
    Ok((merge_shard_outputs(runs, telemetry, spans), ops))
}

/// Record one [`Stage::Route`] span for a flushed shard batch: `begin` is
/// the earliest and `end` the latest event timestamp in the batch (the
/// event-time extent routed in one hand-off). Batches holding only
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

/// Merge per-shard output runs into one deterministically ordered stream:
/// the runs, concatenated in shard order, sorted stably by [`MergeKey`].
/// Equal keys come out in shard order, then in emission order (a revising
/// operator's rows for one window keep theirs), and an unsorted run comes
/// out sorted. Each shard's run is normally sorted already, and the std
/// stable sort merges such runs rather than re-sorting them.
///
/// Telemetry: `quill.merge.elements` counts merged elements,
/// `quill.merge.windows` counts distinct merge keys among them (window
/// revisions collapse onto their window).
fn merge_shard_outputs(
    shard_outs: Vec<Vec<StreamElement>>,
    telemetry: &Registry,
    spans: &SpanRecorder,
) -> Vec<StreamElement> {
    let mut keyed: Vec<(MergeKey, StreamElement)> = shard_outs
        .into_iter()
        .flatten()
        .map(|el| (merge_key(&el), el))
        .collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let total = keyed.len() as u64;
    telemetry.counter("quill.merge.elements").add(total);
    if telemetry.is_enabled() {
        let windows = keyed.chunk_by(|a, b| a.0 == b.0).count();
        telemetry.counter("quill.merge.windows").add(windows as u64);
    }
    if spans.is_enabled() {
        // One Merge span on the pseudo-shard spanning the merged window-end
        // range (the event-time extent the merge interleaves).
        let mut ends = keyed
            .iter()
            .map(|(k, _)| k.0)
            .filter(|&end| end != u64::MAX);
        if let Some(lo) = ends.next() {
            let hi = ends.next_back().unwrap_or(lo);
            spans.record_detail(Stage::Merge, lo, hi, MERGE_SHARD, [total, 0]);
        }
    }
    keyed.into_iter().map(|(_, el)| el).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateKind, AggregateSpec};
    use crate::event::Event;
    use crate::operator::{LatePolicy, WindowAggregateOp};
    use crate::time::Timestamp;
    use crate::value::Row;
    use crate::window::{Window, WindowSpec};
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
                ParallelConfig::new(4).with_batch_size(batch),
                window_op,
            )
            .expect("batched run")
            .0;
            assert_eq!(out, reference, "batch_size={batch}");
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
        let cfg = ParallelConfig::new(4).with_batch_size(64);
        let (out, _ops) = run_instrumented(input(n, 8), cfg, &reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_family_sum("quill.shard.", ".events"),
            n,
            "every event routed to exactly one shard"
        );
        assert!(snap.counter_family_sum("quill.shard.", ".batches") >= 4);
        assert_eq!(snap.counter("quill.merge.elements"), out.len() as u64);
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
        // A single shard runs on the caller thread, with no channel — even at
        // batch_size 1, the pathological case for channel traffic — yet it
        // emits the exact result sequence the multi-shard merge produces,
        // with the same merge telemetry so dashboards don't go dark at
        // shards=1.
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
        assert!(snap.counter("quill.merge.windows") > 0);
        // No channel exists on this path, so nothing can stall.
        assert_eq!(snap.counter("quill.executor.send_stalls"), 0);
    }

    #[test]
    fn shard_gauges_are_labeled_per_shard_not_last_write_wins() {
        // Regression: each shard owns its own `quill.shard.<i>.queue_depth`
        // gauge; writes must not collide on a single shared name, and the
        // family sum must see every shard.
        let reg = Registry::new();
        let m0 = ShardMetrics::new(&reg, 0);
        let m1 = ShardMetrics::new(&reg, 1);
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
        let cfg = ParallelConfig::new(4).with_batch_size(16);
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
        // A stall names the batches in flight on a full channel.
        assert!(recorded
            .iter()
            .filter(|s| s.stage == Stage::SendStall)
            .all(|s| s.begin == s.end && s.detail[0] >= 1 && s.shard < 4));
        // The merge reports once, on the pseudo-shard, with its element count.
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
        let n = 1_000u64;
        for shards in [4usize, 1] {
            let spans = SpanRecorder::new(8192);
            let cfg = ParallelConfig::new(shards).with_batch_size(16);
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
            assert!(routes.len() >= shards, "at least one batch per shard");
            for r in routes {
                assert!(r.begin <= r.end);
                assert!(r.end < n * 3);
                assert!((r.shard as usize) < shards);
            }
            // Exactly one Merge span, on the pseudo-shard, spanning the
            // merged window-end range.
            let merges: Vec<_> = recorded
                .iter()
                .filter(|s| s.stage == Stage::Merge)
                .collect();
            assert_eq!(merges.len(), 1, "shards={shards}");
            assert_eq!(merges[0].shard, MERGE_SHARD);
            let ends: Vec<u64> = results_of(&out)
                .iter()
                .map(|r| r.window.end.raw())
                .collect();
            assert_eq!(merges[0].begin, *ends.iter().min().expect("results"));
            assert_eq!(merges[0].end, *ends.iter().max().expect("results"));
        }
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
    fn merge_sorts_unsorted_shard_runs() {
        // An operator that emits events with descending timestamps breaks
        // the per-shard sortedness; the merge must still produce one
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
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "merge sorts output");
    }

    #[test]
    fn merge_orders_by_key_then_shard_then_emission() {
        // A window result row for window [start, end) of `key`, tagged by its
        // count so the merged order can be read back.
        let row = |start: u64, end: u64, key: i64, tag: u64| {
            let r = WindowResult {
                key: Value::Int(key),
                window: Window::new(Timestamp(start), Timestamp(end)),
                count: tag,
                revision: 0,
                aggregates: Vec::new(),
            };
            StreamElement::Event(Event::new(end, tag, r.to_row()))
        };
        let tags = |out: Vec<StreamElement>| -> Vec<u64> {
            results_of(&out).iter().map(|r| r.count).collect()
        };
        let merge =
            |runs| merge_shard_outputs(runs, &Registry::disabled(), &SpanRecorder::disabled());
        // Sorted runs. Window [0, 10) of key 1 is on both shards: shard 0's
        // row first. Shard 0 emits [10, 20) of key 2 twice (a revision):
        // emission order, not tag order. Shard 1's equal row comes after
        // both, though it was emitted first on its shard.
        let shard0 = vec![row(0, 10, 1, 9), row(10, 20, 2, 2), row(10, 20, 2, 1)];
        let shard1 = vec![row(0, 10, 1, 3), row(10, 20, 2, 50)];
        assert_eq!(
            tags(merge(vec![shard0.clone(), shard1.clone()])),
            vec![9, 3, 2, 1, 50]
        );
        // An unsorted run comes out sorted, and the ties above keep their
        // order.
        let shard2 = vec![row(20, 30, 0, 200), row(0, 5, 0, 100)];
        assert_eq!(
            tags(merge(vec![shard0, shard1, shard2])),
            vec![100, 9, 3, 2, 1, 50, 200]
        );
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
