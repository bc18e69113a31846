//! Property-based tests of engine invariants: window assignment, aggregate
//! order-independence, the operator's fold vs. the naive oracle's, windowed
//! aggregation vs. a brute-force model, and every order statistic against
//! the naive oracle's fold of its window.

use proptest::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::operator::{LatePolicy, WindowAggregateOp};
use quill_engine::prelude::*;
use quill_engine::value::Key;
use quill_metrics::oracle::naive_aggregate;
use std::collections::BTreeSet;

/// The values the order-statistic property draws from: both NaN signs,
/// both zeros, both infinities, `i64::MAX` (which no `f64` holds exactly), a
/// negative int, a float past 2^53, null, a string, and small numbers that
/// tie often, as ints and as floats.
fn order_stat_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-f64::NAN)),
        Just(Value::Float(0.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(-7)),
        Just(Value::Float(1e16)),
        Just(Value::Null),
        Just(Value::str("s")),
        (-4i64..4).prop_map(|v| Value::Float(v as f64 / 2.0)),
        (-4i64..4).prop_map(Value::Int),
    ]
}

/// Floats by bit pattern (NaN matches itself, `-0.0` does not match `0.0`),
/// everything else by `==`.
fn bit_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// `PROPTEST_CASES` if set, else `pinned`: the vendored proptest ignores the
/// variable, so a property soaks only if it reads it itself.
fn cases(pinned: u32) -> ProptestConfig {
    let soak = std::env::var("PROPTEST_CASES").ok();
    ProptestConfig::with_cases(soak.and_then(|n| n.parse().ok()).unwrap_or(pinned))
}

/// `spec` over field 0 as the window operator folds it over one tumbling
/// window holding every `(ts, value)`, fed in the given arrival order; `None`
/// when there is no event (no window is emitted).
fn engine_fold(spec: &AggregateSpec, arrivals: &[(Timestamp, Value)]) -> Option<Value> {
    let window = WindowSpec::tumbling(10_000u64);
    let mut op = WindowAggregateOp::new(window, vec![spec.clone()], None, LatePolicy::Drop)
        .expect("valid op");
    for (seq, (ts, v)) in (0u64..).zip(arrivals) {
        let el = StreamElement::Event(Event::new(*ts, seq, Row::new([v.clone()])));
        op.process_ref(&el, &mut |_| {});
    }
    let mut out = Vec::new();
    op.process_ref(&StreamElement::Flush, &mut |r| out.push(r));
    assert!(out.len() <= 1, "one window at most");
    out.pop().map(|mut r| r.aggregates.remove(0))
}

fn window_specs() -> impl Strategy<Value = WindowSpec> {
    prop_oneof![
        (1u64..500).prop_map(WindowSpec::tumbling),
        (1u64..500)
            .prop_flat_map(|len| (Just(len), 1u64..=len))
            .prop_map(|(len, slide)| WindowSpec::sliding(len, slide)),
    ]
}

proptest! {
    #[test]
    fn every_assigned_window_contains_the_timestamp(
        spec in window_specs(),
        ts in 0u64..1_000_000,
    ) {
        let ts = Timestamp(ts);
        let windows = spec.assign(ts);
        prop_assert!(!windows.is_empty());
        for w in &windows {
            prop_assert!(w.contains(ts), "{w} does not contain {ts}");
            prop_assert_eq!(w.length(), spec.length());
            prop_assert_eq!(w.start.raw() % spec.slide().raw(), 0);
        }
        // Distinct and sorted by start.
        for pair in windows.windows(2) {
            prop_assert!(pair[0].start < pair[1].start);
        }
        // Away from the origin, the count is the number of aligned starts in
        // (ts - length, ts], which is floor(len/slide) or ceil(len/slide)
        // depending on alignment.
        let len = spec.length().raw();
        let slide = spec.slide().raw();
        let ceil = len.div_ceil(slide);
        let floor = (len / slide).max(1);
        if ts.raw() >= len {
            prop_assert!(
                (floor..=ceil).contains(&(windows.len() as u64)),
                "{} windows outside [{floor}, {ceil}]",
                windows.len()
            );
        } else {
            prop_assert!(windows.len() as u64 <= ceil);
        }
    }

    #[test]
    fn no_window_outside_assignment_contains_the_timestamp(
        spec in window_specs(),
        ts in 0u64..100_000,
    ) {
        // Completeness of assign(): any aligned window containing ts is in
        // the returned set.
        let ts = Timestamp(ts);
        let assigned = spec.assign(ts);
        let slide = spec.slide().raw();
        let len = spec.length().raw();
        let mut start = ts.raw().saturating_sub(len) / slide * slide;
        while start <= ts.raw() {
            let w = Window::new(Timestamp(start), Timestamp(start + len));
            if w.contains(ts) {
                prop_assert!(assigned.contains(&w), "missing window {w} for {ts}");
            }
            start += slide;
        }
    }

    #[test]
    fn order_independent_aggregates_ignore_permutation(
        values in prop::collection::vec((0u64..10_000, -1000.0f64..1000.0), 1..60),
        rotation in 0usize..59,
    ) {
        // Rotate the arrival order as a cheap permutation; the operator's
        // results must not change for permutation-invariant aggregates.
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum,
            AggregateKind::Mean,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::StdDev,
            AggregateKind::Median,
            AggregateKind::Quantile(0.75),
            AggregateKind::DistinctCount,
        ] {
            let spec = AggregateSpec::new(kind, 0, "a");
            let tv: Vec<(Timestamp, Value)> = values
                .iter()
                .map(|&(t, v)| (Timestamp(t), Value::Float(v)))
                .collect();
            let mut rotated = tv.clone();
            rotated.rotate_left(rotation % tv.len());
            let a = engine_fold(&spec, &tv);
            let b = engine_fold(&spec, &rotated);
            match (a, b) {
                (Some(Value::Float(x)), Some(Value::Float(y))) => {
                    prop_assert!((x - y).abs() < 1e-6, "{kind}: {x} != {y}")
                }
                (x, y) => prop_assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn incremental_aggregation_matches_reference(
        values in prop::collection::vec((0u64..10_000, -1000.0f64..1000.0), 0..60),
    ) {
        // The operator's incremental fold of events in arrival order against
        // the naive oracle's fold of the same events in `(ts, seq)` order.
        let events: Vec<Event> = (0u64..)
            .zip(&values)
            .map(|(seq, &(t, v))| Event::new(t, seq, Row::new([Value::Float(v)])))
            .collect();
        let mut members: Vec<&Event> = events.iter().collect();
        members.sort_by_key(|e| (e.ts, e.seq));
        let tv: Vec<(Timestamp, Value)> = events
            .iter()
            .map(|e| (e.ts, e.row.get(0).clone()))
            .collect();
        for kind in [AggregateKind::Sum, AggregateKind::StdDev, AggregateKind::Median] {
            let spec = AggregateSpec::new(kind, 0, "a");
            let want = naive_aggregate(&spec, &members);
            match (engine_fold(&spec, &tv), want) {
                // No event, no window: the oracle's fold of nothing is null.
                (None, want) => prop_assert_eq!(want, Value::Null),
                (Some(Value::Float(x)), Value::Float(y)) => {
                    prop_assert!((x - y).abs() < 1e-6, "{kind}: {x} != {y}")
                }
                (Some(x), y) => prop_assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn windowed_aggregation_matches_brute_force_on_ordered_input(
        mut tss in prop::collection::vec(0u64..5_000, 1..200),
        len in 1u64..300,
    ) {
        tss.sort_unstable();
        let spec = WindowSpec::tumbling(len);
        let aggs = vec![AggregateSpec::new(AggregateKind::Count, 0, "n")];
        let mut op = WindowAggregateOp::new(spec, aggs.clone(), None, LatePolicy::Drop)
            .expect("valid op");
        let mut results = Vec::new();
        for (seq, &ts) in tss.iter().enumerate() {
            op.process_ref(
                &StreamElement::Event(Event::new(ts, seq as u64, Row::new([Value::Int(1)]))),
                &mut |r| results.push(r),
            );
        }
        op.process_ref(&StreamElement::Flush, &mut |r| results.push(r));
        // Brute force: count per aligned window.
        let mut expected: std::collections::BTreeMap<u64, u64> = Default::default();
        for &ts in &tss {
            *expected.entry(ts / len * len).or_default() += 1;
        }
        prop_assert_eq!(results.len(), expected.len());
        for r in &results {
            prop_assert_eq!(
                r.count,
                expected[&r.window.start.raw()],
                "window {}", r.window
            );
        }
    }

    #[test]
    fn value_total_order_is_antisymmetric_and_transitive(
        vals in prop::collection::vec(
            prop_oneof![
                Just(Value::Null),
                any::<bool>().prop_map(Value::Bool),
                any::<i32>().prop_map(|i| Value::Int(i as i64)),
                (-1e12f64..1e12).prop_map(Value::Float),
                "[a-z]{0,6}".prop_map(Value::str),
            ],
            3..10,
        ),
    ) {
        use std::cmp::Ordering;
        for a in &vals {
            prop_assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals {
                prop_assert_eq!(a.total_cmp(b), b.total_cmp(a).reverse());
                for c in &vals {
                    if a.total_cmp(b) != Ordering::Greater
                        && b.total_cmp(c) != Ordering::Greater
                    {
                        prop_assert_ne!(a.total_cmp(c), Ordering::Greater);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(cases(48))]
    #[test]
    fn order_statistics_equal_the_fold_of_their_window_bit_for_bit(
        arrivals in prop::collection::vec(
            (0u64..4, 0u8..20, 0u64..1_000, 0i64..3, order_stat_value()),
            10..160,
        ),
        (slide, ratio, misalign) in (1u64..6, 1u64..=40, 0u64..6),
        (lag, wm_every) in (0u64..80, 1usize..6),
    ) {
        // Keyed sliding windows, up to 40 per event; most events on the
        // clock, some up to half a window behind it, some up to three
        // windows behind; a watermark trailing the clock by `lag`.
        let len = slide * ratio + misalign % slide;
        let window = WindowSpec::sliding(len, slide);
        let specs = vec![
            AggregateSpec::new(AggregateKind::Median, 1, "median"),
            AggregateSpec::new(AggregateKind::Quantile(0.0), 1, "p0"),
            AggregateSpec::new(AggregateKind::Quantile(0.1), 1, "p10"),
            AggregateSpec::new(AggregateKind::Quantile(0.9), 1, "p90"),
            AggregateSpec::new(AggregateKind::Quantile(1.0), 1, "p100"),
            AggregateSpec::new(AggregateKind::DistinctCount, 1, "distinct"),
        ];
        let mut input = Vec::new();
        let mut clock = 0u64;
        for (i, (step, kind, depth, key, value)) in arrivals.into_iter().enumerate() {
            clock += step;
            let behind = match kind {
                0..=13 => 0,
                14..=17 => depth % (len / 2 + 1),
                _ => depth % (3 * len + 1),
            };
            let row = Row::new([Value::Int(key), value]);
            input.push(StreamElement::Event(Event::new(clock.saturating_sub(behind), i as u64, row)));
            if i % wm_every == 0 {
                input.push(StreamElement::Watermark(Timestamp(clock.saturating_sub(lag))));
            }
        }
        input.push(StreamElement::Flush);
        // An event joins window `w` iff `w` ends past the watermark it
        // arrives under; every result is the fold of the members its window
        // has when it is emitted, and final: revision 0, and the only result
        // for its (key, window).
        let mut op = WindowAggregateOp::new(window, specs.clone(), Some(0), LatePolicy::Drop)
            .expect("valid op");
        let (mut wm, mut arrived, mut emitted) = (Timestamp::MIN, Vec::new(), BTreeSet::new());
        for el in &input {
            match el {
                StreamElement::Event(e) => arrived.push((e, wm)),
                StreamElement::Watermark(w) => wm = wm.max(*w),
                StreamElement::Flush => {}
            }
            let mut rows = Vec::new();
            op.process_ref(el, &mut |r| rows.push(r));
            for r in rows {
                prop_assert_eq!(r.revision, 0, "{} key {:?}", r.window, r.key);
                prop_assert!(
                    emitted.insert((r.window, Key(r.key.clone()))),
                    "{} key {:?} emitted twice", r.window, r.key
                );
                let mut members: Vec<&Event> = arrived
                    .iter()
                    .filter(|(e, at)| *e.row.get(0) == r.key && r.window.contains(e.ts) && r.window.end > *at)
                    .map(|(e, _)| *e)
                    .collect();
                members.sort_by_key(|e| (e.ts, e.seq));
                prop_assert_eq!(r.count, members.len() as u64, "{} key {:?}", r.window, r.key);
                for (spec, got) in specs.iter().zip(&r.aggregates) {
                    let want = naive_aggregate(spec, &members);
                    prop_assert!(
                        bit_equal(got, &want),
                        "{} in {} key {:?}: {:?}, fold {:?}",
                        spec.name, r.window, r.key, got, want
                    );
                }
            }
        }
        prop_assert!(!emitted.is_empty());
    }
}
