//! Keyed data-parallel execution.
//!
//! Keyed window aggregation partitions cleanly by grouping key: each shard
//! owns a disjoint key subset, reads every watermark, and runs its own
//! operator. The input is fully staged before it is windowed, so there is
//! no exchange: [`run_keyed_parallel`] runs one scoped thread per shard over
//! the shared slice, each skipping the other shards' events (routed by
//! [`shard_of`]), and merges the per-shard result runs deterministically.
//! Nothing re-orders events, so the output is the sequential operator's
//! results in `(window.end, window.start, key)` order — asserted by tests,
//! a proptest and the `quill-sim` matrix.

use crate::error::{EngineError, Result};
use crate::event::StreamElement;
use crate::hash::FxHasher;
use crate::operator::{WindowAggregateOp, WindowResult};
use crate::time::Timestamp;
use crate::value::{hash_value, Value};
use std::hash::Hasher;

/// The shape of a [`run_keyed_parallel`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of shards, one scoped thread each. Must be > 0.
    pub shards: usize,
}

impl ParallelConfig {
    /// Config with the given shard count.
    pub fn new(shards: usize) -> ParallelConfig {
        ParallelConfig { shards }
    }

    /// Refuse a zero shard count.
    ///
    /// # Errors
    /// [`EngineError::InvalidPipeline`] when `shards` is 0.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(EngineError::InvalidPipeline("shards must be > 0".into()));
        }
        Ok(())
    }
}

/// Stable shard assignment for a key: hashes the borrowed `Value` with a
/// seeded [`FxHasher`], no clone, coherent with [`Key`](crate::value::Key)
/// equality (`Int(3)` and `Float(3.0)` land on the same shard).
pub fn shard_of(key: &Value, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = FxHasher::new();
    hash_value(key, &mut h);
    (h.finish() % shards as u64) as usize
}

/// Hand `feed` shard `shard`'s part of `elements`, in order: the events
/// whose key (at `key_field`) is the shard's, every `Flush`, and the
/// watermarks, each held until the shard's next own event, the `Flush` or
/// the end of input. A run of watermarks with none of the shard's events
/// between them therefore reaches `feed` as one: the largest.
///
/// That is exact: with no own event between watermarks `W1 <= W2` the
/// operator inserts nothing between them, and finalizing at `W1` then `W2`
/// queries the same windows in the same order as finalizing at `W2` (a
/// watermark at or below the operator's is a no-op). Every shard event is
/// still preceded by the largest watermark that preceded it globally, so
/// each key's window state sees the same inserts and range queries under
/// any shard count.
fn shard_input(
    elements: &[StreamElement],
    key_field: usize,
    shard: usize,
    shards: usize,
    mut feed: impl FnMut(&StreamElement),
) {
    let mut held: Option<Timestamp> = None;
    for el in elements {
        match el {
            StreamElement::Watermark(w) => {
                held = held.max(Some(*w));
                continue;
            }
            StreamElement::Event(e) if shard_of(e.row.get(key_field), shards) != shard => continue,
            _ => {}
        }
        if let Some(w) = held.take() {
            feed(&StreamElement::Watermark(w));
        }
        feed(el);
    }
    if let Some(w) = held {
        feed(&StreamElement::Watermark(w));
    }
}

/// Run a keyed window query over `config.shards` shards, partitioning the
/// (already disorder-controlled) `elements` by the key at `key_field`, one
/// scoped thread per shard. `make_op(i)` builds shard `i`'s operator on the
/// caller thread before any shard runs; the index lets the operator tag its
/// own `attach_spans` records (the executor itself records nothing).
/// Returns every result in `(window.end, window.start, key)` order, and the
/// operators in shard order.
///
/// # Errors
/// The factory's first error; [`EngineError::ExecutorFailure`] if a shard
/// thread panics; [`EngineError::InvalidPipeline`] for a zero shard count.
pub fn run_keyed_parallel(
    elements: &[StreamElement],
    key_field: usize,
    config: ParallelConfig,
    make_op: impl Fn(usize) -> Result<WindowAggregateOp>,
) -> Result<(Vec<WindowResult>, Vec<WindowAggregateOp>)> {
    config.validate()?;
    let shards = config.shards;
    let ops = (0..shards).map(make_op).collect::<Result<Vec<_>>>()?;
    let outputs = std::thread::scope(|scope| {
        let threads: Vec<_> = (ops.into_iter().enumerate())
            .map(|(shard, mut op)| {
                scope.spawn(move || {
                    let mut results = Vec::new();
                    shard_input(elements, key_field, shard, shards, |el| {
                        op.process_ref(el, &mut |r| results.push(r));
                    });
                    (op, results)
                })
            })
            .collect();
        (threads.into_iter())
            .map(|t| {
                t.join()
                    .map_err(|_| EngineError::ExecutorFailure("shard thread panicked".into()))
            })
            .collect::<Result<Vec<_>>>()
    })?;
    let (ops, runs): (Vec<_>, Vec<_>) = outputs.into_iter().unzip();
    Ok((merge_shard_outputs(runs), ops))
}

/// The merge's order: window end, window start, then key in
/// [`Key`](crate::value::Key) order, all compared in place.
fn merge_order(a: &WindowResult, b: &WindowResult) -> std::cmp::Ordering {
    (a.window.end, a.window.start)
        .cmp(&(b.window.end, b.window.start))
        .then_with(|| a.key.total_cmp(&b.key))
}

/// Merge per-shard result runs: concatenated in shard order, stable-sorted
/// by [`merge_order`]. Ties, which the executor never produces (a key lives
/// on one shard and each window is emitted once), come out in shard order,
/// then run order. Each run is normally sorted already, and the std sort
/// merges sorted runs rather than re-sorting them.
fn merge_shard_outputs(runs: Vec<Vec<WindowResult>>) -> Vec<WindowResult> {
    let mut merged: Vec<WindowResult> = runs.into_iter().flatten().collect();
    merged.sort_by(merge_order);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateKind, AggregateSpec};
    use crate::event::Event;
    use crate::operator::{LatePolicy, WindowAggregateOp};
    use crate::value::{Key, Row};
    use crate::window::{Window, WindowSpec};
    use quill_telemetry::{Span, SpanRecorder, Stage};

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

    /// The executor keyed on field 0, every shard running `make_op()`.
    fn run(
        elements: &[StreamElement],
        config: ParallelConfig,
        make_op: impl Fn() -> WindowAggregateOp,
    ) -> Result<(Vec<WindowResult>, Vec<WindowAggregateOp>)> {
        run_keyed_parallel(elements, 0, config, |_| Ok(make_op()))
    }

    /// `op` run over `elements` on the caller thread, its results in
    /// emission order.
    fn sequential(mut op: WindowAggregateOp, elements: &[StreamElement]) -> Vec<WindowResult> {
        let mut results = Vec::new();
        for el in elements {
            op.process_ref(el, &mut |r| results.push(r));
        }
        results
    }

    /// The order the merge promises: `(end, start, key)`, ties in emission
    /// order.
    fn sort_for_merge(results: &mut [WindowResult]) {
        results.sort_by_key(|r| (r.window.end, r.window.start, Key(r.key.clone())));
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

    #[test]
    fn parallel_matches_sequential_as_ordered_results() {
        let elements = input(3_000, 17);
        let mut seq_results = sequential(window_op(), &elements);
        sort_for_merge(&mut seq_results);
        for shards in [1usize, 2, 4, 8] {
            let (par_results, _) =
                run(&elements, ParallelConfig::new(shards), window_op).expect("parallel run");
            assert_eq!(par_results, seq_results, "shards={shards}");
        }
    }

    #[test]
    fn straggling_sliding_medians_come_out_in_merge_order() {
        // Sliding windows and a median, with stragglers at three depths: 25
        // behind (into open windows), 45 behind (into their last window
        // only, or dropped) and 120 behind (dropped). Every shard count gives
        // the sequential results stable-sorted by (end, start, key).
        let straggling = || {
            WindowAggregateOp::new(
                WindowSpec::sliding(40u64, 20u64),
                vec![
                    AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
                    AggregateSpec::new(AggregateKind::Median, 1, "med"),
                ],
                Some(0),
                LatePolicy::Drop,
            )
            .expect("valid op")
        };
        let mut elements = Vec::new();
        for i in 0..1_200u64 {
            let ts = match i % 9 {
                2 => i.saturating_sub(25),
                5 => i.saturating_sub(45),
                7 => i.saturating_sub(120),
                _ => i,
            };
            let row = Row::new([Value::Int((i % 5) as i64), Value::Float((i % 11) as f64)]);
            elements.push(StreamElement::Event(Event::new(ts, i, row)));
            if i % 6 == 0 {
                elements.push(StreamElement::Watermark(Timestamp(i.saturating_sub(10))));
            }
        }
        elements.push(StreamElement::Flush);
        let mut want = sequential(straggling(), &elements);
        sort_for_merge(&mut want);
        for shards in [1usize, 2, 4] {
            let (got, ops) =
                run(&elements, ParallelConfig::new(shards), straggling).expect("parallel run");
            assert_eq!(got, want, "shards={shards}");
            let dropped: u64 = ops.iter().map(|op| op.stats().late_dropped).sum();
            assert!(
                dropped > 0,
                "stragglers behind every open window are dropped"
            );
        }
    }

    #[test]
    fn returned_ops_carry_shard_stats() {
        let n = 1_000u64;
        let (_, ops) = run(&input(n, 8), ParallelConfig::new(4), window_op).expect("parallel run");
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
            run(&[], ParallelConfig::new(0), window_op),
            Err(EngineError::InvalidPipeline(_))
        ));
    }

    #[test]
    fn degenerate_config_rejected() {
        // A zero shard count is refused before any operator is built.
        let built = std::cell::Cell::new(0);
        let out = run_keyed_parallel(&input(10, 2), 0, ParallelConfig::new(0), |_| {
            built.set(built.get() + 1);
            Ok(window_op())
        });
        assert!(matches!(out, Err(EngineError::InvalidPipeline(_))));
        assert_eq!(built.get(), 0);
    }

    #[test]
    fn watermarks_are_broadcast_so_all_shards_emit() {
        // Every shard must see the Flush, or it would hold its windows
        // forever.
        let (results, _) =
            run(&input(500, 8), ParallelConfig::new(4), window_op).expect("parallel run");
        let keys: std::collections::HashSet<String> =
            results.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(keys.len(), 8, "all key groups must produce results");
        let total: u64 = results.iter().map(|r| r.count).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn single_shard_bypass_matches_multi_shard_output() {
        // One shard runs the same path as many: it emits the exact result
        // sequence the multi-shard merge produces.
        let elements = input(2_000, 13);
        let (multi, _) = run(&elements, ParallelConfig::new(4), window_op).expect("4-shard run");
        let (out, ops) = run(&elements, ParallelConfig::new(1), window_op).expect("1-shard run");
        assert_eq!(
            out, multi,
            "one shard must match the multi-shard merge, in order"
        );
        assert_eq!(ops.len(), 1);
    }

    /// The executor with every shard's operator recording into `spans`,
    /// tagged with its shard.
    fn run_spanned(
        elements: &[StreamElement],
        config: ParallelConfig,
        spans: &SpanRecorder,
    ) -> Vec<WindowResult> {
        run_keyed_parallel(elements, 0, config, |shard| {
            let mut op = window_op();
            op.attach_spans(spans, shard as u32);
            Ok(op)
        })
        .expect("spanned run")
        .0
    }

    #[test]
    fn observed_run_records_trace_events_without_telemetry() {
        let spans = SpanRecorder::new(8192);
        let n = 1_000u64;
        let out = run_spanned(&input(n, 8), ParallelConfig::new(4), &spans);
        let recorded = spans.spans();
        // One finalize per result, and every event lands in exactly one of
        // those windows.
        let fins: Vec<&Span> = recorded
            .iter()
            .filter(|s| s.stage == Stage::WindowFinalize)
            .collect();
        assert_eq!(fins.len(), out.len());
        assert_eq!(out.iter().map(|r| r.count).sum::<u64>(), n);
        // Finalizations are tagged with real shard ids, not a single shard.
        let fin_shards: std::collections::HashSet<u32> = fins.iter().map(|s| s.shard).collect();
        assert!(fin_shards.len() > 1, "8 keys over 4 shards span shards");
        // Sequence numbers interleave deterministically (strictly monotone).
        assert!(recorded.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disabled_spans_keep_observed_semantics() {
        // Recording spans must not change the output.
        let elements = input(500, 5);
        let cfg = ParallelConfig::new(3);
        let (observed, _) = run(&elements, cfg, window_op).expect("observed");
        let spans = SpanRecorder::new(1024);
        assert_eq!(run_spanned(&elements, cfg, &spans), observed);
        assert!(!spans.is_empty(), "enabled recorder captured spans");
    }

    #[test]
    fn merge_orders_by_key_then_shard_then_emission() {
        // A result for window [start, end) of `key`, tagged by its count so
        // the merged order can be read back.
        let row = |start: u64, end: u64, key: i64, tag: u64| WindowResult {
            key: Value::Int(key),
            window: Window::new(Timestamp(start), Timestamp(end)),
            count: tag,
            revision: 0,
            aggregates: Vec::new(),
        };
        let tags = |out: Vec<WindowResult>| -> Vec<u64> { out.iter().map(|r| r.count).collect() };
        // Sorted runs. Window [0, 10) of key 1 is on both shards: shard 0's
        // result first. Shard 0 holds two results for [10, 20) of key 2: run
        // order, not tag order. Shard 1's equal result comes after
        // both, though it was emitted first on its shard.
        let shard0 = vec![row(0, 10, 1, 9), row(10, 20, 2, 2), row(10, 20, 2, 1)];
        let shard1 = vec![row(0, 10, 1, 3), row(10, 20, 2, 50)];
        assert_eq!(
            tags(merge_shard_outputs(vec![shard0.clone(), shard1.clone()])),
            vec![9, 3, 2, 1, 50]
        );
        // An unsorted run comes out sorted, and the ties above keep their
        // order.
        let shard2 = vec![row(20, 30, 0, 200), row(0, 5, 0, 100)];
        assert_eq!(
            tags(merge_shard_outputs(vec![shard0, shard1, shard2])),
            vec![100, 9, 3, 2, 1, 50, 200]
        );
    }

    #[test]
    fn trailing_watermarks_coalesce_until_an_event_pins_them() {
        let key0 = (0..)
            .map(Value::Int)
            .find(|k| shard_of(k, 2) == 0)
            .expect("a key on shard 0");
        let ev =
            |ts: u64, seq: u64| StreamElement::Event(Event::new(ts, seq, Row::new([key0.clone()])));
        let wm = |t: u64| StreamElement::Watermark(Timestamp(t));
        let fed = |elements: &[StreamElement], shard: usize| {
            let mut out = Vec::new();
            shard_input(elements, 0, shard, 2, |el| out.push(el.clone()));
            out
        };
        let elements = [
            ev(50, 0),
            wm(40),
            wm(60),
            wm(70),
            ev(10, 1),
            wm(80),
            wm(90),
            StreamElement::Flush,
        ];
        // The event at 50 sits in the operator before W40 arrives, so no
        // stage releases it at W60: W40, W60 and W70 collapse to W70, which
        // the event at 10 pins; W80 and W90 collapse ahead of the Flush.
        assert_eq!(
            fed(&elements, 0),
            vec![ev(50, 0), wm(70), ev(10, 1), wm(90), StreamElement::Flush]
        );
        // A shard with no event of its own sees one watermark, then Flush.
        assert_eq!(fed(&elements, 1), vec![wm(90), StreamElement::Flush]);
        // A lower watermark never replaces a held higher one, and the end of
        // input applies what is held.
        assert_eq!(fed(&[wm(30), wm(20)], 1), vec![wm(30)]);
    }
}
