//! Regression: equal-timestamp tie-breaking in the k-way parallel merge.
//!
//! Streams whose timestamps cluster onto a coarse quantum produce many
//! `(window end, window start)` merge-key ties — across keys on different
//! shards, and within one key on one shard. The merged result sequence must
//! be byte-identical across 1/2/4/8 shards (one scoped thread each);
//! anything less means the merge order (and therefore downstream consumers)
//! depends on scheduling.

mod common;

use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::operator::{LatePolicy, WindowAggregateOp, WindowResult};
use quill_engine::parallel::{run_keyed_parallel, ParallelConfig};
use quill_engine::prelude::*;
use quill_engine::value::Key;

/// Tie-heavy keyed stream: every timestamp is a multiple of 10, each `(ts,
/// key)` pair occurs several times with distinct values, and periodic
/// watermarks make some events late.
fn tie_stream() -> Vec<StreamElement> {
    let mut out = Vec::new();
    let mut seq = 0u64;
    let mut max_ts = 0u64;
    for step in 0..120u64 {
        // Quantized timestamps with a deterministic back-jitter: plenty of
        // duplicates, some behind the watermark.
        let ts = ((step * 7) % 300) / 10 * 10;
        max_ts = max_ts.max(ts);
        for dup in 0..3u64 {
            let key = (step + dup) % 8;
            out.push(StreamElement::Event(Event::new(
                ts,
                seq,
                Row::new([
                    Value::Int(key as i64),
                    Value::Float((step * 31 + dup * 17) as f64 % 97.0),
                    Value::Float((dup * 13) as f64 - (step % 5) as f64),
                ]),
            )));
            seq += 1;
        }
        if step % 9 == 8 {
            out.push(StreamElement::Watermark(Timestamp(
                max_ts.saturating_sub(40),
            )));
        }
    }
    out.push(StreamElement::Flush);
    out
}

fn window() -> WindowSpec {
    WindowSpec::sliding(60u64, 20u64)
}

fn aggs() -> Vec<AggregateSpec> {
    vec![
        AggregateSpec::new(AggregateKind::First, 1, "first"),
        AggregateSpec::new(AggregateKind::Last, 1, "last"),
        AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
        AggregateSpec::new(AggregateKind::ArgMax(2), 1, "am"),
    ]
}

fn make_op() -> WindowAggregateOp {
    WindowAggregateOp::new(window(), aggs(), Some(0), LatePolicy::Drop).expect("valid spec")
}

/// Full result sequence (order matters — this is what the merge emits).
fn results_of(cfg: ParallelConfig) -> Vec<WindowResult> {
    let (out, _) =
        run_keyed_parallel(&tie_stream(), 0, cfg, |_| Ok(make_op())).expect("parallel run");
    out
}

#[test]
fn merge_order_is_identical_across_shard_counts() {
    let reference = results_of(ParallelConfig::new(1));
    assert!(!reference.is_empty(), "test stream produced no windows");
    for shards in [2usize, 4, 8] {
        let got = results_of(ParallelConfig::new(shards));
        assert_eq!(
            got, reference,
            "merged sequence diverged at shards={shards}"
        );
    }
}

#[test]
fn merge_order_is_sorted_by_window_then_key() {
    let results = results_of(ParallelConfig::new(4));
    let keys: Vec<(Timestamp, Timestamp, Key)> = results
        .iter()
        .map(|r| (r.window.end, r.window.start, Key(r.key.clone())))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "merge emitted windows out of (end, start, key) order"
    );
}

#[test]
fn equal_timestamp_ties_finalize_as_the_reference_does() {
    // The operator combines equal-timestamp events in `(ts, seq)` order; the
    // naive reference folds each window's contributors in that order one by
    // one. First/Last/ArgMax on tied timestamps — and the merged result
    // sequence — must match it at every shard count, though each operator
    // takes the unordered stream as it arrives. The stream's Sum values are
    // integer-valued floats, so even the float column is bit-exact.
    let reference = common::reference(window(), &aggs(), Some(0), &tie_stream());
    assert!(!reference.is_empty(), "test stream produced no windows");
    for shards in [1usize, 2, 4, 8] {
        let cfg = ParallelConfig::new(shards);
        assert_eq!(results_of(cfg), reference, "diverged at shards={shards}");
    }
}

#[test]
fn same_key_equal_timestamp_folds_are_shard_invariant() {
    // All duplicates of one key land on one shard; their fold order (and so
    // First/Last on tied timestamps) must not depend on the shard count.
    let reference = results_of(ParallelConfig::new(1));
    let eight = results_of(ParallelConfig::new(8));
    for (a, b) in reference.iter().zip(&eight) {
        assert_eq!(
            a.aggregates, b.aggregates,
            "window {:?} key {:?}",
            a.window, a.key
        );
    }
}
