//! The one reference implementation: exact window results from first
//! principles.
//!
//! Recomputes every window's exact result the naive way: fully sort the
//! stream by `(ts, seq)`, assign each event to its windows with plain
//! arithmetic, and evaluate each aggregate with the textbook formula
//! (two-pass variance, sorted-vector quantiles, linear scans for extremes).
//! Nothing here shares code with the engine's incremental aggregates or its
//! window operator — that independence is the point: a bug in the engine's
//! fold/merge/rank machinery cannot also hide in the oracle.
//!
//! [`oracle_results`] is the truth every run is scored against
//! ([`crate::quality_eval::score`]) and the `quill-sim` matrix checks
//! against; [`naive_aggregate`] is the per-window fold the engine's
//! integration tests hold the window operator to.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::prelude::{Event, Key, Timestamp, Value, Window, WindowResult, WindowSpec};

/// Exact per-window results for `events` (in any order) under
/// `window`/`aggs`/`key_field`: one [`WindowResult`] (revision 0) per
/// `(window, key)` group that holds an event, sorted by `(end, start, key)`
/// — the engine's emission order.
pub fn oracle_results(
    events: &[Event],
    window: WindowSpec,
    aggs: &[AggregateSpec],
    key_field: Option<usize>,
) -> Vec<WindowResult> {
    let (length, slide) = match window {
        WindowSpec::Tumbling { length } => (length.raw(), length.raw()),
        WindowSpec::Sliding { length, slide } => (length.raw(), slide.raw()),
    };
    assert!(length > 0 && slide > 0 && slide <= length, "invalid window");

    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| (e.ts.raw(), e.seq));

    // Group events by (end, start, key); each group's vec stays in (ts, seq)
    // order because we iterate the sorted stream.
    let mut groups: BTreeMap<(u64, u64, Key), Vec<&Event>> = BTreeMap::new();
    for e in &sorted {
        let key = key_field.map_or(Value::Null, |f| e.row.get(f).clone());
        let ts = e.ts.raw();
        let mut start = (ts / slide) * slide;
        loop {
            groups
                .entry((start + length, start, Key(key.clone())))
                .or_default()
                .push(e);
            if start < slide {
                break;
            }
            start -= slide;
            if ts >= start + length {
                break;
            }
        }
    }

    groups
        .into_iter()
        .map(|((end, start, key), evs)| WindowResult {
            key: key.0,
            window: Window::new(Timestamp(start), Timestamp(end)),
            count: evs.len() as u64,
            revision: 0,
            aggregates: aggs.iter().map(|a| naive_aggregate(a, &evs)).collect(),
        })
        .collect()
}

/// Non-null f64 readings of `field` across the group, in (ts, seq) order.
fn numbers(evs: &[&Event], field: usize) -> Vec<f64> {
    evs.iter()
        .filter_map(|e| e.row.get(field).as_f64())
        .collect()
}

/// The exact value of `spec` over one group's events, which must be in
/// `(ts, seq)` order: `First`/`Last` take the first/last non-null value in
/// that order, and ties of `Min`/`Max`/`ArgMin`/`ArgMax` keep the earlier
/// event — the engine's tie rules, which order equal timestamps by `seq`.
pub fn naive_aggregate(spec: &AggregateSpec, evs: &[&Event]) -> Value {
    let field = spec.field;
    match spec.kind {
        AggregateKind::Count => {
            Value::Int(evs.iter().filter(|e| !e.row.get(field).is_null()).count() as i64)
        }
        AggregateKind::Sum => {
            let xs = numbers(evs, field);
            if xs.is_empty() {
                Value::Null
            } else {
                Value::Float(xs.iter().sum())
            }
        }
        AggregateKind::Mean => {
            let xs = numbers(evs, field);
            if xs.is_empty() {
                Value::Null
            } else {
                Value::Float(xs.iter().sum::<f64>() / xs.len() as f64)
            }
        }
        AggregateKind::Min => extreme(evs, field, Ordering::Less),
        AggregateKind::Max => extreme(evs, field, Ordering::Greater),
        AggregateKind::Variance => variance(evs, field).map_or(Value::Null, Value::Float),
        AggregateKind::StdDev => {
            variance(evs, field).map_or(Value::Null, |v| Value::Float(v.sqrt()))
        }
        AggregateKind::Median => quantile(evs, field, 0.5),
        AggregateKind::Quantile(p) => quantile(evs, field, p),
        AggregateKind::DistinctCount => {
            let distinct: BTreeSet<Key> = evs
                .iter()
                .map(|e| e.row.get(field))
                .filter(|v| !v.is_null())
                .map(|v| Key(v.clone()))
                .collect();
            Value::Int(distinct.len() as i64)
        }
        AggregateKind::First => evs
            .iter()
            .map(|e| e.row.get(field))
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        AggregateKind::Last => evs
            .iter()
            .rev()
            .map(|e| e.row.get(field))
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        AggregateKind::ArgMin(by) => arg_extreme(evs, field, by, Ordering::Less),
        AggregateKind::ArgMax(by) => arg_extreme(evs, field, by, Ordering::Greater),
    }
}

/// Strictly-better extreme under `Value::total_cmp`; ties keep the earlier
/// (ts, seq) occurrence, whose value is equal anyway.
fn extreme(evs: &[&Event], field: usize, better: Ordering) -> Value {
    let mut best: Option<&Value> = None;
    for e in evs {
        let v = e.row.get(field);
        if v.is_null() {
            continue;
        }
        match best {
            Some(b) if v.total_cmp(b) != better => {}
            _ => best = Some(v),
        }
    }
    best.cloned().unwrap_or(Value::Null)
}

/// Two-pass population variance — deliberately not Welford, so a bug in the
/// engine's single-pass update cannot cancel out here.
fn variance(evs: &[&Event], field: usize) -> Option<f64> {
    let xs = numbers(evs, field);
    if xs.is_empty() {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let m2 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>();
    Some((m2 / xs.len() as f64).max(0.0))
}

/// Linear-interpolated quantile over the fully sorted readings, mirroring
/// the engine's rank arithmetic on an independently built vector.
fn quantile(evs: &[&Event], field: usize, p: f64) -> Value {
    let mut xs = numbers(evs, field);
    if xs.is_empty() {
        return Value::Null;
    }
    xs.sort_by(f64::total_cmp);
    if xs.len() == 1 {
        return Value::Float(xs[0]);
    }
    let rank = p.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Value::Float(xs[lo] + (xs[hi] - xs[lo]) * frac)
}

/// `ArgMin`/`ArgMax`: strictly-better `by`-value wins; an exactly-equal
/// `by`-value wins only with a strictly earlier event time — the engine's
/// tiebreak, reproduced on the sorted stream.
fn arg_extreme(evs: &[&Event], field: usize, by: usize, better: Ordering) -> Value {
    let mut best: Option<(&Value, u64, &Value)> = None; // (by value, ts, reported value)
    for e in evs {
        let bv = e.row.get(by);
        if bv.is_null() {
            continue;
        }
        let replace = match &best {
            None => true,
            Some((cur, cur_ts, _)) => match bv.total_cmp(cur) {
                o if o == better => true,
                Ordering::Equal => e.ts.raw() < *cur_ts,
                _ => false,
            },
        };
        if replace {
            best = Some((bv, e.ts.raw(), e.row.get(field)));
        }
    }
    best.map_or(Value::Null, |(_, _, v)| v.clone())
}

/// Approximate value equality for comparing engine output against the
/// oracle: exact for ints/strings/bools/nulls, relative tolerance `1e-6`
/// for floats (the engine's single-pass folds and the oracle's two-pass
/// formulas take different round-off paths).
pub fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => floats_close(*x, *y),
        (Value::Float(x), Value::Int(y)) | (Value::Int(y), Value::Float(x)) => {
            floats_close(*x, *y as f64)
        }
        _ => a == b,
    }
}

fn floats_close(x: f64, y: f64) -> bool {
    if x == y || (x.is_nan() && y.is_nan()) {
        return true;
    }
    (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::prelude::Row;

    fn ev(ts: u64, seq: u64, vals: Vec<Value>) -> Event {
        Event::new(ts, seq, Row::new(vals))
    }

    /// `kind` over field 0 of one event per value, at timestamps 0, 1, 2, ….
    fn run(kind: AggregateKind, vals: &[Value]) -> Value {
        let events: Vec<Event> = (0u64..)
            .zip(vals)
            .map(|(i, v)| ev(i, i, vec![v.clone()]))
            .collect();
        let evs: Vec<&Event> = events.iter().collect();
        naive_aggregate(&AggregateSpec::new(kind, 0, "out"), &evs)
    }

    /// `kind` over one tumbling window holding `events`, given in arrival
    /// order.
    fn one_window(kind: AggregateKind, events: &[Event]) -> Value {
        let aggs = [AggregateSpec::new(kind, 0, "out")];
        let out = oracle_results(events, WindowSpec::tumbling(100u64), &aggs, None);
        assert_eq!(out.len(), 1);
        out[0].aggregates[0].clone()
    }

    fn floats(vs: &[f64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Float(v)).collect()
    }

    #[test]
    fn tumbling_groups_and_counts() {
        let events = vec![
            ev(5, 0, vec![Value::Float(1.0)]),
            ev(15, 1, vec![Value::Float(2.0)]),
            ev(7, 2, vec![Value::Float(3.0)]),
        ];
        let aggs = vec![AggregateSpec::new(AggregateKind::Sum, 0, "s")];
        let out = oracle_results(&events, WindowSpec::tumbling(10u64), &aggs, None);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].count, 2);
        assert_eq!(out[0].aggregates[0], Value::Float(4.0));
        assert_eq!(out[1].aggregates[0], Value::Float(2.0));
    }

    #[test]
    fn sliding_assignment_matches_engine_window_math() {
        // length 30, slide 10: ts=25 belongs to starts 0, 10, 20.
        let events = vec![ev(25, 0, vec![Value::Float(1.0)])];
        let aggs = vec![AggregateSpec::new(AggregateKind::Count, 0, "n")];
        let out = oracle_results(&events, WindowSpec::sliding(30u64, 10u64), &aggs, None);
        let starts: Vec<u64> = out.iter().map(|w| w.window.start.raw()).collect();
        assert_eq!(starts, vec![0, 10, 20]);
    }

    #[test]
    fn misaligned_sliding_never_underflows() {
        let events = vec![ev(3, 0, vec![Value::Float(1.0)])];
        let aggs = vec![AggregateSpec::new(AggregateKind::Count, 0, "n")];
        let out = oracle_results(&events, WindowSpec::sliding(25u64, 10u64), &aggs, None);
        let starts: Vec<u64> = out.iter().map(|w| w.window.start.raw()).collect();
        assert_eq!(starts, vec![0]);
    }

    #[test]
    fn keyed_grouping_splits_by_key_value() {
        let events = vec![
            ev(1, 0, vec![Value::Int(1), Value::Float(10.0)]),
            ev(2, 1, vec![Value::Int(2), Value::Float(20.0)]),
            ev(3, 2, vec![Value::Int(1), Value::Float(30.0)]),
        ];
        let aggs = vec![AggregateSpec::new(AggregateKind::Sum, 1, "s")];
        let out = oracle_results(&events, WindowSpec::tumbling(10u64), &aggs, Some(0));
        assert_eq!(out.len(), 2);
        let k1 = out.iter().find(|w| w.key == Value::Int(1)).unwrap();
        assert_eq!(k1.aggregates[0], Value::Float(40.0));
    }

    #[test]
    fn count_skips_nulls() {
        let vals = [Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggregateKind::Count, &vals), Value::Int(2));
    }

    #[test]
    fn sum_and_mean() {
        let vals = floats(&[1.0, 2.0, 3.0]);
        assert_eq!(run(AggregateKind::Sum, &vals), Value::Float(6.0));
        assert_eq!(run(AggregateKind::Mean, &vals), Value::Float(2.0));
        assert_eq!(run(AggregateKind::Sum, &[Value::Null]), Value::Null);
    }

    #[test]
    fn sum_mixes_int_and_float() {
        let vals = [Value::Int(1), Value::Float(2.5)];
        assert_eq!(run(AggregateKind::Sum, &vals), Value::Float(3.5));
    }

    #[test]
    fn min_max_over_total_order() {
        let vals = floats(&[3.0, 1.0, 2.0]);
        assert_eq!(run(AggregateKind::Min, &vals), Value::Float(1.0));
        assert_eq!(run(AggregateKind::Max, &vals), Value::Float(3.0));
        let mixed = [Value::Int(2), Value::Float(2.5)];
        assert_eq!(run(AggregateKind::Max, &mixed), Value::Float(2.5));
    }

    #[test]
    fn variance_and_stddev_population() {
        // Var([2,4,4,4,5,5,7,9]) = 4, stddev = 2 (classic example).
        let vs = floats(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(run(AggregateKind::Variance, &vs), Value::Float(4.0));
        assert_eq!(run(AggregateKind::StdDev, &vs), Value::Float(2.0));
    }

    #[test]
    fn median_odd_and_even() {
        let odd = floats(&[5.0, 1.0, 3.0]);
        assert_eq!(run(AggregateKind::Median, &odd), Value::Float(3.0));
        let even = floats(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(run(AggregateKind::Median, &even), Value::Float(2.5));
    }

    #[test]
    fn quantiles_interpolate() {
        let vs = floats(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(run(AggregateKind::Quantile(0.0), &vs), Value::Float(10.0));
        assert_eq!(run(AggregateKind::Quantile(1.0), &vs), Value::Float(40.0));
        assert_eq!(run(AggregateKind::Quantile(0.5), &vs), Value::Float(25.0));
        // rank 0.9 · 3 = 2.7: 30 + (40 − 30) · 0.7.
        let Value::Float(p90) = run(AggregateKind::Quantile(0.9), &vs) else {
            panic!("expected a float");
        };
        assert!((p90 - 37.0).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn distinct_count() {
        let vals = [Value::Int(1), Value::Int(1), Value::Int(2), Value::Null];
        assert_eq!(run(AggregateKind::DistinctCount, &vals), Value::Int(2));
        // Int 1 and Float 1.0 coincide under the key order.
        let same = [Value::Int(1), Value::Float(1.0)];
        assert_eq!(run(AggregateKind::DistinctCount, &same), Value::Int(1));
    }

    #[test]
    fn first_last_by_timestamp_not_arrival() {
        // Arrival order: ts=5 then ts=2 — first by event time is ts=2.
        let events = [
            ev(5, 0, vec![Value::Int(50)]),
            ev(2, 1, vec![Value::Int(20)]),
        ];
        assert_eq!(one_window(AggregateKind::First, &events), Value::Int(20));
        assert_eq!(one_window(AggregateKind::Last, &events), Value::Int(50));
    }

    #[test]
    fn first_last_ties_follow_seq_not_arrival() {
        // Equal timestamps: the lower `seq` is first whatever the arrival
        // order — the `(ts, seq)` order the engine's tree keeps.
        let events = [
            ev(5, 1, vec![Value::Int(51)]),
            ev(5, 0, vec![Value::Int(50)]),
        ];
        assert_eq!(one_window(AggregateKind::First, &events), Value::Int(50));
        assert_eq!(one_window(AggregateKind::Last, &events), Value::Int(51));
    }

    #[test]
    fn empty_window_results() {
        assert_eq!(run(AggregateKind::Count, &[]), Value::Int(0));
        assert_eq!(run(AggregateKind::Sum, &[]), Value::Null);
        assert_eq!(run(AggregateKind::Median, &[]), Value::Null);
        assert_eq!(run(AggregateKind::Min, &[]), Value::Null);
        assert_eq!(run(AggregateKind::DistinctCount, &[]), Value::Int(0));
        assert_eq!(run(AggregateKind::ArgMax(0), &[]), Value::Null);
    }

    /// One event per `(ts, report, by)`, report in field 0 and by in field 1.
    fn arg_events(rows: &[(u64, f64, Value)]) -> Vec<Event> {
        (0u64..)
            .zip(rows)
            .map(|(seq, (ts, report, by))| ev(*ts, seq, vec![Value::Float(*report), by.clone()]))
            .collect()
    }

    #[test]
    fn argmax_reports_companion_field() {
        // Report field 0 at the max (min) of field 1.
        let events = arg_events(&[
            (1, 10.0, Value::Float(5.0)),
            (2, 20.0, Value::Float(50.0)), // peak of `by`
            (3, 30.0, Value::Float(7.0)),
        ]);
        assert_eq!(
            one_window(AggregateKind::ArgMax(1), &events),
            Value::Float(20.0)
        );
        assert_eq!(
            one_window(AggregateKind::ArgMin(1), &events),
            Value::Float(10.0)
        );
    }

    #[test]
    fn arg_ties_resolve_to_earliest_event_time() {
        let events = arg_events(&[
            (5, 1.0, Value::Float(9.0)),
            (2, 2.0, Value::Float(9.0)), // same `by`, earlier ts → wins
        ]);
        assert_eq!(
            one_window(AggregateKind::ArgMax(1), &events),
            Value::Float(2.0)
        );
    }

    #[test]
    fn arg_skips_null_by_values() {
        let events = arg_events(&[(1, 1.0, Value::Null)]);
        assert_eq!(one_window(AggregateKind::ArgMax(1), &events), Value::Null);
    }

    #[test]
    fn argmax_reports_value_of_extreme_row() {
        let events = vec![
            ev(1, 0, vec![Value::Float(10.0), Value::Float(1.0)]),
            ev(2, 1, vec![Value::Float(20.0), Value::Float(5.0)]),
            ev(3, 2, vec![Value::Float(30.0), Value::Float(3.0)]),
        ];
        let aggs = vec![AggregateSpec::new(AggregateKind::ArgMax(1), 0, "am")];
        let out = oracle_results(&events, WindowSpec::tumbling(10u64), &aggs, None);
        assert_eq!(out[0].aggregates[0], Value::Float(20.0));
    }

    #[test]
    fn values_close_tolerates_round_off_only() {
        assert!(values_close(&Value::Float(1.0), &Value::Float(1.0 + 1e-9)));
        assert!(values_close(&Value::Int(3), &Value::Float(3.0)));
        assert!(values_close(
            &Value::Float(f64::NAN),
            &Value::Float(f64::NAN)
        ));
        assert!(!values_close(&Value::Float(1.0), &Value::Float(1.001)));
    }
}
