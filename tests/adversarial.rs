//! Adversarial inputs and failure injection: extreme timestamps, degenerate
//! payloads, pathological arrival orders. Nothing here should panic, lose
//! events silently, or break the accounting invariants.

use quill_core::prelude::*;

fn sum_query(window: u64) -> QuerySpec {
    QuerySpec::new(
        WindowSpec::tumbling(window),
        vec![
            AggregateSpec::new(AggregateKind::Sum, 0, "sum"),
            AggregateSpec::new(AggregateKind::Median, 0, "median"),
        ],
        None,
    )
}

fn all_strategies() -> Vec<Box<dyn DisorderControl>> {
    let roster = ["dropall", "fixed:100", "mp", "aq:0.95", "oracle"];
    roster
        .map(|s| StrategySpec::parse(s).expect("parses").build())
        .into()
}

#[test]
fn empty_stream_is_fine_everywhere() {
    for mut s in all_strategies() {
        let out = execute(&[], s.as_mut(), &sum_query(100), &ExecOptions::sequential())
            .expect("valid query");
        assert_eq!(out.events, 0);
        assert_eq!(out.quality.windows_total, 0);
        assert_eq!(out.quality.mean_completeness, 1.0);
    }
}

#[test]
fn single_event_stream() {
    let events = vec![Event::new(5u64, 0, Row::new([Value::Float(1.5)]))];
    for mut s in all_strategies() {
        let out = execute(
            &events,
            s.as_mut(),
            &sum_query(100),
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        assert_eq!(out.quality.windows_total, 1, "{}", out.strategy);
        assert_eq!(out.quality.mean_completeness, 1.0, "{}", out.strategy);
    }
}

#[test]
fn exactly_reversed_arrival_order() {
    // Worst-case disorder: newest first. Only the oracle can be complete;
    // everything else must survive with exact event accounting.
    let n = 2_000u64;
    let events: Vec<Event> = (0..n)
        .map(|i| Event::new((n - 1 - i) * 10, i, Row::new([Value::Float(1.0)])))
        .collect();
    for mut s in all_strategies() {
        let out = execute(
            &events,
            s.as_mut(),
            &sum_query(500),
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        let b = out.buffer;
        assert_eq!(b.released + b.late_passed, n, "{}", out.strategy);
        if out.strategy == "oracle" {
            assert_eq!(out.quality.mean_completeness, 1.0);
        }
    }
    // MP on reversed order: first event sets the clock; every subsequent
    // event has a growing delay, so K ratchets to ~the full span.
    let mut mp = MpKSlack::new();
    let _ = execute(
        &events,
        &mut mp,
        &sum_query(500),
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    assert!(mp.current_k() >= TimeDelta((n - 2) * 10));
}

#[test]
fn all_identical_timestamps() {
    let events: Vec<Event> = (0..1_000)
        .map(|i| Event::new(42u64, i, Row::new([Value::Float(1.0)])))
        .collect();
    for mut s in all_strategies() {
        let out = execute(
            &events,
            s.as_mut(),
            &sum_query(100),
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        assert_eq!(out.quality.windows_total, 1, "{}", out.strategy);
        assert_eq!(
            out.quality.mean_completeness, 1.0,
            "{}: identical timestamps are never late",
            out.strategy
        );
    }
}

#[test]
fn all_null_payloads() {
    let events: Vec<Event> = (0..500)
        .map(|i| Event::new(i * 10, i, Row::new([Value::Null])))
        .collect();
    let mut s = FixedKSlack::new(50u64);
    let out = execute(
        &events,
        &mut s,
        &sum_query(1_000),
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    assert!(out.quality.windows_total > 0);
    for r in &out.results {
        assert_eq!(r.aggregates[0], Value::Null, "sum of nulls is null");
        assert_eq!(r.aggregates[1], Value::Null, "median of nulls is null");
        assert!(r.count > 0, "null payloads still count as tuples");
    }
}

#[test]
fn rows_with_missing_fields_do_not_panic() {
    // Aggregates referencing out-of-range fields read Null.
    let events: Vec<Event> = (0..100)
        .map(|i| Event::new(i * 5, i, Row::empty()))
        .collect();
    let query = QuerySpec::new(
        WindowSpec::tumbling(100u64),
        vec![AggregateSpec::new(AggregateKind::Mean, 7, "mean")],
        Some(3),
    );
    let mut s = AqKSlack::for_completeness(0.9);
    let out = execute(&events, &mut s, &query, &ExecOptions::sequential()).expect("valid query");
    assert!(out.quality.windows_total > 0);
}

#[test]
fn extreme_timestamps_near_u64_max() {
    let base = u64::MAX - 10_000;
    let events: Vec<Event> = (0..100u64)
        .map(|i| Event::new(base + i * 7, i, Row::new([Value::Float(1.0)])))
        .collect();
    let mut s = FixedKSlack::new(50u64);
    let out = execute(
        &events,
        &mut s,
        &sum_query(1_000),
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    let b = out.buffer;
    assert_eq!(b.released + b.late_passed, 100);
}

#[test]
fn timestamp_zero_events() {
    let events: Vec<Event> = (0..50u64)
        .map(|i| Event::new(0u64, i, Row::new([Value::Float(1.0)])))
        .chain((50..100u64).map(|i| Event::new(i * 3, i, Row::new([Value::Float(1.0)]))))
        .collect();
    for mut s in all_strategies() {
        let out = execute(
            &events,
            s.as_mut(),
            &sum_query(30),
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        let b = out.buffer;
        assert_eq!(b.released + b.late_passed, 100, "{}", out.strategy);
    }
}

#[test]
fn huge_k_bounds_do_not_overflow() {
    let mut cfg = AqConfig::completeness(0.99);
    cfg.k_max = TimeDelta(u64::MAX / 2);
    cfg.k_min = TimeDelta(u64::MAX / 4);
    let mut s = AqKSlack::new(cfg);
    let events: Vec<Event> = (0..500u64)
        .map(|i| Event::new(i * 10, i, Row::new([Value::Float(1.0)])))
        .collect();
    let out =
        execute(&events, &mut s, &sum_query(100), &ExecOptions::sequential()).expect("valid query");
    // With K >= u64::MAX/4 nothing is ever released before flush.
    assert_eq!(out.buffer.late_passed, 0);
    assert_eq!(out.quality.mean_completeness, 1.0);
}

#[test]
fn mixed_type_payloads_in_numeric_aggregates() {
    // Strings and bools in the aggregated field are skipped, not crashed on.
    let events: Vec<Event> = (0..300u64)
        .map(|i| {
            let v = match i % 4 {
                0 => Value::Float(1.0),
                1 => Value::str("noise"),
                2 => Value::Bool(true),
                _ => Value::Int(2),
            };
            Event::new(i * 10, i, Row::new([v]))
        })
        .collect();
    let mut s = OracleBuffer::new();
    let out =
        execute(&events, &mut s, &sum_query(400), &ExecOptions::sequential()).expect("valid query");
    for r in &out.results {
        // Each 40-event window: 10 floats (1.0) + 10 ints (2) = 30.
        if r.count == 40 {
            assert_eq!(r.aggregates[0], Value::Float(30.0));
        }
    }
}

#[test]
fn punctuated_buffer_with_unknown_source_field_degrades_gracefully() {
    // Source field out of range → every event maps to the Null source; the
    // strategy behaves like a single-source punctuation buffer.
    let events: Vec<Event> = (0..200u64)
        .map(|i| Event::new(i * 5, i, Row::new([Value::Float(1.0)])))
        .collect();
    let mut s = PunctuatedBuffer::new(9, 1);
    let out =
        execute(&events, &mut s, &sum_query(100), &ExecOptions::sequential()).expect("valid query");
    assert_eq!(out.buffer.released + out.buffer.late_passed, 200);
}
