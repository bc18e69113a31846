//! Naive full-sort reference oracle.
//!
//! Recomputes every window's exact result from first principles: fully sort
//! the stream by `(ts, seq)`, assign each event to its windows with plain
//! arithmetic, and evaluate each aggregate with the textbook formula
//! (two-pass variance, sorted-vector quantiles, linear scans for extremes).
//! Nothing here shares code with the engine's incremental aggregates or its
//! window operator — that independence is the point: a bug in the engine's
//! fold/merge/pane machinery cannot also hide in the oracle.

use std::collections::{BTreeMap, BTreeSet};

use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::prelude::{Event, Key, Value, WindowSpec};

/// Ground truth for one `(window, key)` group.
#[derive(Debug, Clone)]
pub struct NaiveWindow {
    /// Window start (inclusive).
    pub start: u64,
    /// Window end (exclusive).
    pub end: u64,
    /// Grouping key (`Null` for global aggregation).
    pub key: Value,
    /// Number of events in the group.
    pub count: u64,
    /// One exact output per [`AggregateSpec`], in spec order.
    pub aggregates: Vec<Value>,
    /// True when the group contains two events with equal timestamps. The
    /// engine breaks `First`/`Last` ties by insertion order, which under
    /// late passes is arrival order rather than `(ts, seq)` order, so those
    /// two aggregates are only deterministic for tie-free groups.
    pub has_ts_ties: bool,
}

/// Exact per-window results for `events` under `window`/`aggs`/`key_field`,
/// sorted by `(end, start, key)`.
pub fn naive_oracle(
    events: &[Event],
    window: WindowSpec,
    aggs: &[AggregateSpec],
    key_field: Option<usize>,
) -> Vec<NaiveWindow> {
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
        .map(|((end, start, key), evs)| {
            let has_ts_ties = evs.windows(2).any(|p| p[0].ts == p[1].ts);
            let aggregates = aggs.iter().map(|a| compute(a, &evs)).collect();
            NaiveWindow {
                start,
                end,
                key: key.0,
                count: evs.len() as u64,
                aggregates,
                has_ts_ties,
            }
        })
        .collect()
}

/// Non-null f64 readings of `field` across the group, in (ts, seq) order.
fn numbers(evs: &[&Event], field: usize) -> Vec<f64> {
    evs.iter()
        .filter_map(|e| e.row.get(field).as_f64())
        .collect()
}

fn compute(spec: &AggregateSpec, evs: &[&Event]) -> Value {
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
        AggregateKind::Min => extreme(evs, field, std::cmp::Ordering::Less),
        AggregateKind::Max => extreme(evs, field, std::cmp::Ordering::Greater),
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
        AggregateKind::First => {
            // Earliest event time; (ts, seq) iteration order makes the first
            // non-null hit the engine's earliest-insertion tiebreak only when
            // the group is tie-free (see `NaiveWindow::has_ts_ties`).
            evs.iter()
                .map(|e| e.row.get(field))
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null)
        }
        AggregateKind::Last => evs
            .iter()
            .rev()
            .map(|e| e.row.get(field))
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null),
        AggregateKind::ArgMin(by) => arg_extreme(evs, field, by, std::cmp::Ordering::Less),
        AggregateKind::ArgMax(by) => arg_extreme(evs, field, by, std::cmp::Ordering::Greater),
    }
}

/// Strictly-better extreme under `Value::total_cmp`; ties keep the earlier
/// (ts, seq) occurrence, whose value is equal anyway.
fn extreme(evs: &[&Event], field: usize, better: std::cmp::Ordering) -> Value {
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
fn arg_extreme(evs: &[&Event], field: usize, by: usize, better: std::cmp::Ordering) -> Value {
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
                std::cmp::Ordering::Equal => e.ts.raw() < *cur_ts,
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

    #[test]
    fn tumbling_groups_and_counts() {
        let events = vec![
            ev(5, 0, vec![Value::Float(1.0)]),
            ev(15, 1, vec![Value::Float(2.0)]),
            ev(7, 2, vec![Value::Float(3.0)]),
        ];
        let aggs = vec![AggregateSpec::new(AggregateKind::Sum, 0, "s")];
        let out = naive_oracle(&events, WindowSpec::tumbling(10u64), &aggs, None);
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
        let out = naive_oracle(&events, WindowSpec::sliding(30u64, 10u64), &aggs, None);
        let starts: Vec<u64> = out.iter().map(|w| w.start).collect();
        assert_eq!(starts, vec![0, 10, 20]);
    }

    #[test]
    fn misaligned_sliding_never_underflows() {
        let events = vec![ev(3, 0, vec![Value::Float(1.0)])];
        let aggs = vec![AggregateSpec::new(AggregateKind::Count, 0, "n")];
        let out = naive_oracle(&events, WindowSpec::sliding(25u64, 10u64), &aggs, None);
        let starts: Vec<u64> = out.iter().map(|w| w.start).collect();
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
        let out = naive_oracle(&events, WindowSpec::tumbling(10u64), &aggs, Some(0));
        assert_eq!(out.len(), 2);
        let k1 = out.iter().find(|w| w.key == Value::Int(1)).unwrap();
        assert_eq!(k1.aggregates[0], Value::Float(40.0));
    }

    #[test]
    fn ties_are_flagged() {
        let events = vec![
            ev(5, 0, vec![Value::Float(1.0)]),
            ev(5, 1, vec![Value::Float(2.0)]),
        ];
        let aggs = vec![AggregateSpec::new(AggregateKind::First, 0, "f")];
        let out = naive_oracle(&events, WindowSpec::tumbling(10u64), &aggs, None);
        assert!(out[0].has_ts_ties);
    }

    #[test]
    fn argmax_reports_value_of_extreme_row() {
        let events = vec![
            ev(1, 0, vec![Value::Float(10.0), Value::Float(1.0)]),
            ev(2, 1, vec![Value::Float(20.0), Value::Float(5.0)]),
            ev(3, 2, vec![Value::Float(30.0), Value::Float(3.0)]),
        ];
        let aggs = vec![AggregateSpec::new(AggregateKind::ArgMax(1), 0, "am")];
        let out = naive_oracle(&events, WindowSpec::tumbling(10u64), &aggs, None);
        assert_eq!(out[0].aggregates[0], Value::Float(20.0));
    }
}
