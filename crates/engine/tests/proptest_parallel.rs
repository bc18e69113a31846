//! Property test: the keyed-parallel executor is observationally identical
//! to the sequential operator for *every* `AggregateKind`, under
//! out-of-order input with late events, across shard counts.

use proptest::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::operator::{LatePolicy, WindowAggregateOp, WindowResult};
use quill_engine::parallel::{run_keyed_parallel, ParallelConfig};
use quill_engine::prelude::*;
use quill_engine::value::Key;

/// Every aggregate kind, including the order-sensitive and non-combinable
/// ones. `ArgMin`/`ArgMax` rank by row field 2.
fn all_kinds() -> Vec<AggregateSpec> {
    [
        AggregateKind::Count,
        AggregateKind::Sum,
        AggregateKind::Mean,
        AggregateKind::Min,
        AggregateKind::Max,
        AggregateKind::StdDev,
        AggregateKind::Variance,
        AggregateKind::Median,
        AggregateKind::Quantile(0.9),
        AggregateKind::DistinctCount,
        AggregateKind::First,
        AggregateKind::Last,
        AggregateKind::ArgMin(2),
        AggregateKind::ArgMax(2),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| AggregateSpec::new(kind, 1, format!("a{i}")))
    .collect()
}

/// Only combinable kinds: every shard answers its windows from the per-key
/// pane partials alone.
fn combinable_kinds() -> Vec<AggregateSpec> {
    [
        AggregateKind::Sum,
        AggregateKind::Mean,
        AggregateKind::Variance,
        AggregateKind::Max,
        AggregateKind::Last,
        AggregateKind::ArgMin(2),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, kind)| AggregateSpec::new(kind, 1, format!("a{i}")))
    .collect()
}

/// Out-of-order keyed stream: events carry `[Int key, Float value, Float
/// by]`; watermarks trail the max seen timestamp by `slack`, which makes
/// jittered-back events genuinely late.
fn stream(
    rows: &[(u64, i64, f64, f64)], // (ts, key, value, by)
    wm_every: usize,
    slack: u64,
) -> Vec<StreamElement> {
    let mut out = Vec::with_capacity(rows.len() + rows.len() / wm_every.max(1) + 1);
    let mut max_ts = 0u64;
    let mut wm = 0u64;
    for (i, &(ts, key, value, by)) in rows.iter().enumerate() {
        max_ts = max_ts.max(ts);
        out.push(StreamElement::Event(Event::new(
            ts,
            i as u64,
            Row::new([Value::Int(key), Value::Float(value), Value::Float(by)]),
        )));
        if (i + 1) % wm_every.max(1) == 0 {
            wm = wm.max(max_ts.saturating_sub(slack));
            out.push(StreamElement::Watermark(Timestamp(wm)));
        }
    }
    out.push(StreamElement::Flush);
    out
}

fn sequential_reference(
    elements: &[StreamElement],
    make_op: &dyn Fn() -> WindowAggregateOp,
) -> Vec<WindowResult> {
    let mut op = make_op();
    let mut results = Vec::new();
    for el in elements {
        op.process_ref(el, &mut |r| results.push(r));
    }
    results.sort_by_key(|r| (r.window.end, r.window.start, Key(r.key.clone())));
    results
}

fn check_identical(
    elements: Vec<StreamElement>,
    make_op: impl Fn() -> WindowAggregateOp + Copy,
) -> std::result::Result<(), TestCaseError> {
    let reference = sequential_reference(&elements, &make_op);
    for shards in [1usize, 2, 4, 8] {
        let (out, _) =
            run_keyed_parallel(&elements, 0, ParallelConfig::new(shards), |_| Ok(make_op()))
                .expect("parallel run");
        prop_assert_eq!(&out, &reference, "shards={}", shards);
    }
    Ok(())
}

fn rows_strategy(n: usize) -> impl Strategy<Value = Vec<(u64, i64, f64, f64)>> {
    // Mostly-increasing timestamps with jitter that can pull an event far
    // behind the watermark (late under slack below).
    prop::collection::vec((0u64..120, 0i64..5, -100.0f64..100.0, -10.0f64..10.0), 1..n).prop_map(
        |raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (jitter, key, value, by))| {
                    let base = (i as u64) * 9;
                    (base.saturating_sub(jitter), key, value, by)
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_executor_identical_for_all_aggregate_kinds(
        rows in rows_strategy(120),
        wm_every in 1usize..20,
        slack in 0u64..80,
    ) {
        let elements = stream(&rows, wm_every, slack);
        for spec in [WindowSpec::tumbling(100u64), WindowSpec::sliding(150u64, 50u64)] {
            check_identical(elements.clone(), move || {
                WindowAggregateOp::new(spec, all_kinds(), Some(0), LatePolicy::Drop)
                    .expect("valid op")
            })?;
        }
    }

    #[test]
    fn batched_executor_identical_on_shared_pane_path(
        rows in rows_strategy(150),
        wm_every in 1usize..16,
        slack in 0u64..60,
    ) {
        let spec = WindowSpec::sliding(150u64, 50u64);
        let make = move || {
            WindowAggregateOp::new(spec, combinable_kinds(), Some(0), LatePolicy::Drop)
                .expect("valid op")
        };
        // Every kind combinable: each event is folded once into its key's
        // pane, whose partials all windows covering it share, and no
        // per-window state is kept.
        check_identical(stream(&rows, wm_every, slack), make)?;
    }
}
