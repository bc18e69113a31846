//! Aggregate functions over window contents.
//!
//! An [`AggregateSpec`] names an aggregate and the field it reads. The
//! window operator folds the combinable kinds through mergeable partials
//! (`PaneAgg`, one per pane of a key's window state) and answers
//! Median/Quantile and
//! DistinctCount from the window's values at emission
//! (`quantile_of_ranks` is the one quantile formula). The engine has no
//! second, reference implementation: the exact answer every result is held
//! to — by the tests and by the quality score — is the naive oracle in
//! `quill_metrics::oracle`, which shares no code with this module.
//!
//! Nulls and non-numeric values are skipped by numeric aggregates (SQL
//! semantics); `count` counts all non-null values.

use crate::error::{EngineError, Result};
use crate::time::Timestamp;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The aggregate function to apply to one field within each window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AggregateKind {
    /// Number of non-null values.
    Count,
    /// Sum of numeric values.
    Sum,
    /// Arithmetic mean of numeric values.
    Mean,
    /// Minimum (total order over values).
    Min,
    /// Maximum (total order over values).
    Max,
    /// Population standard deviation of numeric values.
    StdDev,
    /// Population variance of numeric values.
    Variance,
    /// Exact median of numeric values (midpoint for even counts).
    Median,
    /// Exact p-quantile of numeric values, `0.0 <= p <= 1.0`, nearest-rank
    /// with linear interpolation.
    Quantile(f64),
    /// Number of distinct non-null values.
    DistinctCount,
    /// Value with the smallest event-time timestamp (ties: the lowest
    /// `seq`).
    First,
    /// Value with the largest event-time timestamp (ties: the highest
    /// `seq`).
    Last,
    /// Value of this spec's field at the row where the *other* field
    /// (the payload of this variant) is minimal. Ties: first in event time.
    ArgMin(usize),
    /// Value of this spec's field at the row where the other field is
    /// maximal. Ties: first in event time.
    ArgMax(usize),
}

impl AggregateKind {
    /// Whether partial states of this aggregate can be merged into a window
    /// result (`AggregateSpec::build_pane` returns `Some`), in O(1) space.
    /// Exact order statistics and distinct counts are not decomposable
    /// without retaining value sets, so the window operator keeps their
    /// field's raw value per event and finalizes them from the window's
    /// values at emission.
    pub fn combinable(&self) -> bool {
        matches!(
            self,
            AggregateKind::Count
                | AggregateKind::Sum
                | AggregateKind::Mean
                | AggregateKind::Min
                | AggregateKind::Max
                | AggregateKind::StdDev
                | AggregateKind::Variance
                | AggregateKind::First
                | AggregateKind::Last
                | AggregateKind::ArgMin(_)
                | AggregateKind::ArgMax(_)
        )
    }
}

impl fmt::Display for AggregateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggregateKind::Count => write!(f, "count"),
            AggregateKind::Sum => write!(f, "sum"),
            AggregateKind::Mean => write!(f, "mean"),
            AggregateKind::Min => write!(f, "min"),
            AggregateKind::Max => write!(f, "max"),
            AggregateKind::StdDev => write!(f, "stddev"),
            AggregateKind::Variance => write!(f, "variance"),
            AggregateKind::Median => write!(f, "median"),
            AggregateKind::Quantile(p) => write!(f, "q{p}"),
            AggregateKind::DistinctCount => write!(f, "distinct"),
            AggregateKind::First => write!(f, "first"),
            AggregateKind::Last => write!(f, "last"),
            AggregateKind::ArgMin(by) => write!(f, "argmin(by={by})"),
            AggregateKind::ArgMax(by) => write!(f, "argmax(by={by})"),
        }
    }
}

/// Reads every kind back from its [`Display`](fmt::Display) form. Parameters
/// are not range-checked here: `q1.5` parses, and
/// [`AggregateSpec::validate`] refuses it.
impl std::str::FromStr for AggregateKind {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<AggregateKind> {
        use AggregateKind::*;
        let by = |name: &str| {
            let field = s.strip_prefix(name)?.strip_prefix("(by=")?;
            field.strip_suffix(')')?.parse::<usize>().ok()
        };
        let plain = [
            Count,
            Sum,
            Mean,
            Min,
            Max,
            StdDev,
            Variance,
            Median,
            DistinctCount,
            First,
            Last,
        ];
        let named = plain.into_iter().find(|kind| kind.to_string() == s);
        let quantile = s.strip_prefix('q').and_then(|p| p.parse().ok());
        match (named, quantile, by("argmin"), by("argmax")) {
            (Some(kind), ..) => Ok(kind),
            (_, Some(p), ..) => Ok(Quantile(p)),
            (.., Some(f), _) => Ok(ArgMin(f)),
            (.., Some(f)) => Ok(ArgMax(f)),
            _ => Err(EngineError::InvalidSpec(format!(
                "unknown aggregate `{s}` (count, sum, mean, min, max, stddev, variance, \
                 median, distinct, first, last, q<p>, argmin(by=<f>), argmax(by=<f>))"
            ))),
        }
    }
}

/// An aggregate bound to the row field it reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSpec {
    /// Which function.
    pub kind: AggregateKind,
    /// Index of the input field in the row.
    pub field: usize,
    /// Name of this aggregate's output, as the query writes it.
    pub name: String,
}

impl AggregateSpec {
    /// Construct a spec.
    pub fn new(kind: AggregateKind, field: usize, name: impl Into<String>) -> AggregateSpec {
        AggregateSpec {
            kind,
            field,
            name: name.into(),
        }
    }

    /// Validate parameters (quantile range).
    pub fn validate(&self) -> Result<()> {
        if let AggregateKind::Quantile(p) = self.kind {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(EngineError::InvalidAggregate(format!(
                    "quantile p={p} outside [0,1]"
                )));
            }
        }
        Ok(())
    }

    /// Instantiate mergeable partial state, or `None` for kinds whose
    /// partials cannot be combined (order statistics, distinct counts; the
    /// window operator finalizes those with `quantile_of_ranks` over a
    /// per-key rank index and a distinct set over the window's values). The
    /// window operator keeps one per pane, never per event; see [`PaneAgg`].
    pub(crate) fn build_pane(&self) -> Option<PaneAgg> {
        Some(match self.kind {
            AggregateKind::Count => PaneAgg::Count(CountAgg::default()),
            AggregateKind::Sum => PaneAgg::Sum(SumAgg::default()),
            AggregateKind::Mean => PaneAgg::Mean(MeanAgg::default()),
            AggregateKind::Min => PaneAgg::Extreme(ExtremeAgg::new(false)),
            AggregateKind::Max => PaneAgg::Extreme(ExtremeAgg::new(true)),
            AggregateKind::StdDev => PaneAgg::Moments(MomentsAgg::new(true)),
            AggregateKind::Variance => PaneAgg::Moments(MomentsAgg::new(false)),
            AggregateKind::First => PaneAgg::Edge(EdgeAgg::new(false)),
            AggregateKind::Last => PaneAgg::Edge(EdgeAgg::new(true)),
            AggregateKind::ArgMin(_) => PaneAgg::Arg(ArgAgg::new(false)),
            AggregateKind::ArgMax(_) => PaneAgg::Arg(ArgAgg::new(true)),
            AggregateKind::Median | AggregateKind::Quantile(_) | AggregateKind::DistinctCount => {
                return None
            }
        })
    }

    /// The second row field the partial reads: the `by` field of
    /// ArgMin/ArgMax, and `field` again for every other kind.
    pub(crate) fn by_field(&self) -> usize {
        match self.kind {
            AggregateKind::ArgMin(by) | AggregateKind::ArgMax(by) => by,
            _ => self.field,
        }
    }
}

/// Mergeable partial aggregate state over a *pane*: the events of one key
/// whose timestamps fall into one cell of the window grid, as few as one.
///
/// The window operator folds each event once, into the partials of its pane
/// (`absorb`, in arrival order), and a window result merges the partials of
/// its panes in pane order instead of re-folding raw events into every
/// overlapping window. Each variant wraps one aggregate's state, with an
/// `insert` folding one event and a `merge` combining two disjoint partials;
/// merges always fold the *later* pane into the *earlier* one. Every tie
/// rule (Min/Max representatives, First/Last, ArgMin/ArgMax) compares event
/// times and falls back to fold order only on equal timestamps, where
/// arrival order is `seq` order: results follow `(ts, seq)` order.
#[derive(Debug, Clone)]
pub(crate) enum PaneAgg {
    Count(CountAgg),
    Sum(SumAgg),
    Mean(MeanAgg),
    Extreme(ExtremeAgg),
    Moments(MomentsAgg),
    Edge(EdgeAgg),
    Arg(ArgAgg),
}

impl PaneAgg {
    /// Fold one event into the partial: `v` is the value of the spec's field
    /// and `by` that of [`AggregateSpec::by_field`].
    pub(crate) fn insert(&mut self, ts: Timestamp, v: &Value, by: &Value) {
        match self {
            PaneAgg::Count(a) => a.insert(v),
            PaneAgg::Sum(a) => a.insert(v),
            PaneAgg::Mean(a) => a.insert(v),
            PaneAgg::Extreme(a) => a.insert(ts, v),
            PaneAgg::Moments(a) => a.insert(v),
            PaneAgg::Edge(a) => a.insert(ts, v),
            PaneAgg::Arg(a) => a.insert(ts, v, by),
        }
    }

    /// Merge the one-event partial of a *later* event: `identity` (a fresh
    /// partial of this spec) takes the event on the stack and is merged in.
    /// Not an `insert` — Welford's update and the moments merge round
    /// differently, and a pane's partial must not depend on which of the two
    /// built it.
    pub(crate) fn absorb(&mut self, identity: &PaneAgg, ts: Timestamp, v: &Value, by: &Value) {
        let mut one = identity.clone();
        one.insert(ts, v, by);
        self.merge(&one);
    }

    /// Merge a *later* pane's partial into this one. Both sides must come
    /// from the same [`AggregateSpec`] (enforced by construction; mismatched
    /// variants are a logic error).
    pub(crate) fn merge(&mut self, later: &PaneAgg) {
        match (self, later) {
            (PaneAgg::Count(a), PaneAgg::Count(b)) => a.merge(b),
            (PaneAgg::Sum(a), PaneAgg::Sum(b)) => a.merge(b),
            (PaneAgg::Mean(a), PaneAgg::Mean(b)) => a.merge(b),
            (PaneAgg::Extreme(a), PaneAgg::Extreme(b)) => a.merge(b),
            (PaneAgg::Moments(a), PaneAgg::Moments(b)) => a.merge(b),
            (PaneAgg::Edge(a), PaneAgg::Edge(b)) => a.merge(b),
            (PaneAgg::Arg(a), PaneAgg::Arg(b)) => a.merge(b),
            _ => debug_assert!(false, "merging mismatched pane aggregates"),
        }
    }

    /// Produce the current result; `Null` when no qualifying value arrived
    /// (`Int(0)` for Count).
    pub(crate) fn finalize(&self) -> Value {
        match self {
            PaneAgg::Count(a) => a.finalize(),
            PaneAgg::Sum(a) => a.finalize(),
            PaneAgg::Mean(a) => a.finalize(),
            PaneAgg::Extreme(a) => a.finalize(),
            PaneAgg::Moments(a) => a.finalize(),
            PaneAgg::Edge(a) => a.finalize(),
            PaneAgg::Arg(a) => a.finalize(),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct CountAgg {
    n: u64,
}

impl CountAgg {
    fn insert(&mut self, v: &Value) {
        if !v.is_null() {
            self.n += 1;
        }
    }

    fn merge(&mut self, o: &CountAgg) {
        self.n += o.n;
    }

    fn finalize(&self) -> Value {
        Value::Int(self.n as i64)
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct SumAgg {
    sum: f64,
    n: u64,
}

impl SumAgg {
    fn insert(&mut self, v: &Value) {
        if let Some(x) = v.as_f64() {
            self.sum += x;
            self.n += 1;
        }
    }

    fn merge(&mut self, o: &SumAgg) {
        self.sum += o.sum;
        self.n += o.n;
    }

    fn finalize(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Float(self.sum)
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct MeanAgg {
    sum: f64,
    n: u64,
}

impl MeanAgg {
    fn insert(&mut self, v: &Value) {
        if let Some(x) = v.as_f64() {
            self.sum += x;
            self.n += 1;
        }
    }

    fn merge(&mut self, o: &MeanAgg) {
        self.sum += o.sum;
        self.n += o.n;
    }

    fn finalize(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Float(self.sum / self.n as f64)
        }
    }
}

/// Min/Max over the total value order.
#[derive(Debug, Clone)]
pub(crate) struct ExtremeAgg {
    max: bool,
    best: Option<(Timestamp, Value)>,
}

impl ExtremeAgg {
    fn new(max: bool) -> Self {
        ExtremeAgg { max, best: None }
    }

    /// Whether `v` at `ts` replaces the current extremum: a strictly better
    /// value wins; a `total_cmp`-equal one (`Int(3)` and `Float(3.0)`) only
    /// with a strictly earlier event time, so the representative is the
    /// earliest in `(ts, seq)` order whatever order the events were folded
    /// in (a pane folds in arrival order, and arrival order is `seq` order).
    fn beats(&self, ts: Timestamp, v: &Value) -> bool {
        match &self.best {
            None => true,
            Some((best_ts, best)) => {
                use std::cmp::Ordering::*;
                match v.total_cmp(best) {
                    Greater => self.max,
                    Less => !self.max,
                    Equal => ts < *best_ts,
                }
            }
        }
    }

    fn insert(&mut self, ts: Timestamp, v: &Value) {
        if !v.is_null() && self.beats(ts, v) {
            self.best = Some((ts, v.clone()));
        }
    }

    /// Merge a later partial with the same extremum/tie rule as `insert`.
    fn merge(&mut self, o: &ExtremeAgg) {
        if let Some((ots, ov)) = &o.best {
            if self.beats(*ots, ov) {
                self.best = Some((*ots, ov.clone()));
            }
        }
    }

    fn finalize(&self) -> Value {
        self.best
            .as_ref()
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null)
    }
}

/// Welford-style running moments for variance / standard deviation
/// (population). Numerically stable under long windows.
#[derive(Debug, Clone)]
pub(crate) struct MomentsAgg {
    stddev: bool,
    n: u64,
    mean: f64,
    m2: f64,
}

impl MomentsAgg {
    fn new(stddev: bool) -> Self {
        MomentsAgg {
            stddev,
            n: 0,
            mean: 0.0,
            m2: 0.0,
        }
    }

    fn insert(&mut self, v: &Value) {
        if let Some(x) = v.as_f64() {
            self.n += 1;
            let d = x - self.mean;
            self.mean += d / self.n as f64;
            self.m2 += d * (x - self.mean);
        }
    }

    /// Chan et al.'s parallel-moments combine: exact counts, and mean/M2
    /// merged without revisiting raw values.
    fn merge(&mut self, o: &MomentsAgg) {
        if o.n == 0 {
            return;
        }
        if self.n == 0 {
            self.n = o.n;
            self.mean = o.mean;
            self.m2 = o.m2;
            return;
        }
        let na = self.n as f64;
        let nb = o.n as f64;
        let n = na + nb;
        let delta = o.mean - self.mean;
        self.m2 += o.m2 + delta * delta * na * nb / n;
        self.mean += delta * nb / n;
        self.n += o.n;
    }

    fn finalize(&self) -> Value {
        if self.n == 0 {
            return Value::Null;
        }
        let var = (self.m2 / self.n as f64).max(0.0);
        Value::Float(if self.stddev { var.sqrt() } else { var })
    }
}

/// The one Median/Quantile formula, over `n` values whose rank-`r` order
/// statistic `at(r)` returns; `at` is asked for non-decreasing ranks, the
/// lower then the upper.
pub(crate) fn quantile_of_ranks(n: usize, p: f64, mut at: impl FnMut(usize) -> f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(at(0));
    }
    let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let (lo, hi) = (at(lo), at(hi.min(n - 1)));
    Some(lo + (hi - lo) * frac)
}

/// First/Last by event timestamp. On equal timestamps the event folded first
/// came first — within a pane events are folded in arrival (`seq`) order,
/// and panes are merged in time order — so First keeps the earliest and
/// Last takes the latest.
#[derive(Debug, Clone)]
pub(crate) struct EdgeAgg {
    last: bool,
    best: Option<(Timestamp, Value)>,
}

impl EdgeAgg {
    fn new(last: bool) -> Self {
        EdgeAgg { last, best: None }
    }

    /// Whether a value at `ts` replaces the current edge.
    fn takes(&self, ts: Timestamp) -> bool {
        match &self.best {
            None => true,
            Some((bt, _)) => {
                if self.last {
                    ts >= *bt
                } else {
                    ts < *bt
                }
            }
        }
    }

    fn insert(&mut self, ts: Timestamp, v: &Value) {
        if !v.is_null() && self.takes(ts) {
            self.best = Some((ts, v.clone()));
        }
    }

    /// Merge a later pane's partial: on equal timestamps the earlier pane
    /// holds the earlier event, exactly as the insert rule would.
    fn merge(&mut self, o: &EdgeAgg) {
        if let Some((ots, ov)) = &o.best {
            if self.takes(*ots) {
                self.best = Some((*ots, ov.clone()));
            }
        }
    }

    fn finalize(&self) -> Value {
        self.best
            .as_ref()
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null)
    }
}

/// ArgMin/ArgMax: report one field's value at the extremum of another.
#[derive(Debug, Clone)]
pub(crate) struct ArgAgg {
    max: bool,
    best: Option<(Value, Timestamp, Value)>,
}

impl ArgAgg {
    fn new(max: bool) -> ArgAgg {
        ArgAgg { max, best: None }
    }

    /// Whether `by` at `ts` replaces the current extremum: a strictly better
    /// `by` wins; an equal `by` resolves to the earliest event time.
    fn beats(&self, by: &Value, ts: Timestamp) -> bool {
        match &self.best {
            None => true,
            Some((best_by, best_ts, _)) => {
                use std::cmp::Ordering::*;
                match by.total_cmp(best_by) {
                    Greater => self.max,
                    Less => !self.max,
                    Equal => ts < *best_ts,
                }
            }
        }
    }

    /// Fold one event given the value of its `by` field.
    fn insert(&mut self, ts: Timestamp, v: &Value, by: &Value) {
        if !by.is_null() && self.beats(by, ts) {
            self.best = Some((by.clone(), ts, v.clone()));
        }
    }

    /// Merge a later pane's partial with the same extremum/tie rule as
    /// `insert`.
    fn merge(&mut self, o: &ArgAgg) {
        if let Some((oby, ots, ov)) = &o.best {
            if self.beats(oby, *ots) {
                self.best = Some((oby.clone(), *ots, ov.clone()));
            }
        }
    }

    fn finalize(&self) -> Value {
        self.best
            .as_ref()
            .map(|(_, _, v)| v.clone())
            .unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, StreamElement};
    use crate::operator::{LatePolicy, WindowAggregateOp};
    use crate::value::Row;
    use crate::window::WindowSpec;

    /// `kind` (over field 0; arg kinds name their `by` field) as the window
    /// operator folds it over one tumbling window holding `rows`, given as
    /// `(ts, row)` in arrival order.
    pub(super) fn one_window(kind: AggregateKind, rows: &[(u64, Row)]) -> Value {
        let spec = AggregateSpec::new(kind, 0, "out");
        let window = WindowSpec::tumbling(1_000u64);
        let mut op =
            WindowAggregateOp::new(window, vec![spec], None, LatePolicy::Drop).expect("valid op");
        for (seq, (ts, row)) in (0u64..).zip(rows) {
            let el = StreamElement::Event(Event::new(*ts, seq, row.clone()));
            op.process_ref(&el, &mut |_| {});
        }
        let mut out = Vec::new();
        op.process_ref(&StreamElement::Flush, &mut |r| out.push(r));
        assert_eq!(out.len(), 1, "one window");
        out.remove(0).aggregates.remove(0)
    }

    /// `kind` over one value per timestamp 0, 1, 2, ….
    fn run(kind: AggregateKind, vals: &[Value]) -> Value {
        let rows: Vec<(u64, Row)> = (0u64..)
            .zip(vals)
            .map(|(t, v)| (t, Row::new([v.clone()])))
            .collect();
        one_window(kind, &rows)
    }

    fn floats(vs: &[f64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Float(v)).collect()
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
    fn equal_extrema_keep_the_earliest_event_time_whatever_the_arrival_order() {
        // `Int(3)` and `Float(3.0)` are equal in the total order; the
        // representative is the one at the earlier timestamp, also when it
        // arrives last into the same pane.
        let rows = [
            (5, Row::new([Value::Int(3)])),
            (9, Row::new([Value::Float(7.0)])),
            (2, Row::new([Value::Float(3.0)])),
        ];
        assert_eq!(one_window(AggregateKind::Min, &rows), Value::Float(3.0));
        let rows = [
            (5, Row::new([Value::Float(9.0)])),
            (2, Row::new([Value::Int(9)])),
            (2, Row::new([Value::Float(9.0)])),
        ];
        assert_eq!(one_window(AggregateKind::Max, &rows), Value::Int(9));
    }

    #[test]
    fn variance_and_stddev_population() {
        // Var([2,4,4,4,5,5,7,9]) = 4, stddev = 2 (classic example).
        let vs = floats(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        match run(AggregateKind::Variance, &vs) {
            Value::Float(v) => assert!((v - 4.0).abs() < 1e-9),
            other => panic!("expected float, got {other:?}"),
        }
        match run(AggregateKind::StdDev, &vs) {
            Value::Float(v) => assert!((v - 2.0).abs() < 1e-9),
            other => panic!("expected float, got {other:?}"),
        }
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
        match run(AggregateKind::Quantile(0.5), &vs) {
            Value::Float(v) => assert!((v - 25.0).abs() < 1e-9),
            other => panic!("expected float, got {other:?}"),
        }
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
        let rows = [
            (5u64, Row::new([Value::Int(50)])),
            (2, Row::new([Value::Int(20)])),
        ];
        assert_eq!(one_window(AggregateKind::First, &rows), Value::Int(20));
        assert_eq!(one_window(AggregateKind::Last, &rows), Value::Int(50));
    }

    #[test]
    fn incremental_matches_reference_for_order_independence() {
        // Scrambled and timestamp-ordered arrival fold to the same
        // population standard deviation, the closed-form one.
        let vals = [(7u64, 3.0), (1, 9.0), (4, 2.0), (2, 7.5)];
        let scrambled: Vec<(u64, Row)> = vals
            .iter()
            .map(|&(t, v)| (t, Row::new([Value::Float(v)])))
            .collect();
        let mut ordered = scrambled.clone();
        ordered.sort_by_key(|(t, _)| *t);
        let mean = vals.iter().map(|(_, v)| v).sum::<f64>() / 4.0;
        let var = vals.iter().map(|(_, v)| (v - mean).powi(2)).sum::<f64>() / 4.0;
        let a = one_window(AggregateKind::StdDev, &scrambled);
        let b = one_window(AggregateKind::StdDev, &ordered);
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => {
                assert!((x - y).abs() < 1e-9);
                assert!((x - var.sqrt()).abs() < 1e-9);
            }
            other => panic!("expected floats, got {other:?}"),
        }
    }

    #[test]
    fn empty_window_results() {
        // A window with no qualifying value (its one value is null), and for
        // the combinable kinds a partial that folded nothing.
        for (kind, want) in [
            (AggregateKind::Count, Value::Int(0)),
            (AggregateKind::Sum, Value::Null),
            (AggregateKind::Median, Value::Null),
            (AggregateKind::Min, Value::Null),
            (AggregateKind::DistinctCount, Value::Int(0)),
        ] {
            assert_eq!(run(kind, &[Value::Null]), want, "{kind}");
            if let Some(pane) = AggregateSpec::new(kind, 0, "out").build_pane() {
                assert_eq!(pane.finalize(), want, "{kind}");
            }
        }
    }

    #[test]
    fn quantile_validation() {
        assert!(AggregateSpec::new(AggregateKind::Quantile(1.5), 0, "q")
            .validate()
            .is_err());
        assert!(
            AggregateSpec::new(AggregateKind::Quantile(f64::NAN), 0, "q")
                .validate()
                .is_err()
        );
        assert!(AggregateSpec::new(AggregateKind::Quantile(0.99), 0, "q")
            .validate()
            .is_ok());
    }
}

#[cfg(test)]
mod pane_tests {
    use super::tests::one_window;
    use super::*;
    use crate::value::Row;

    /// Split `(ts, row)` data into panes of width `slide`, fold each event
    /// into its home pane's partial, merge partials in ascending pane order,
    /// and compare with inserting the same data (in ts order) into one
    /// partial.
    fn merged_vs_sequential(
        spec: &AggregateSpec,
        data: &[(u64, Row)],
        slide: u64,
    ) -> (Value, Value) {
        let fresh = || spec.build_pane().expect("combinable kind");
        let mut panes: std::collections::BTreeMap<u64, PaneAgg> = Default::default();
        for (t, row) in data {
            let pane = panes.entry(t / slide * slide).or_insert_with(fresh);
            pane.insert(Timestamp(*t), row.get(spec.field), row.get(spec.by_field()));
        }
        let mut merged: Option<PaneAgg> = None;
        for (_, p) in panes {
            match &mut merged {
                None => merged = Some(p),
                Some(m) => m.merge(&p),
            }
        }
        let merged = merged.unwrap_or_else(fresh).finalize();

        let mut seq = fresh();
        let mut ordered: Vec<&(u64, Row)> = data.iter().collect();
        ordered.sort_by_key(|(t, _)| *t);
        for (t, row) in ordered {
            seq.insert(Timestamp(*t), row.get(spec.field), row.get(spec.by_field()));
        }
        (merged, seq.finalize())
    }

    #[test]
    fn pane_merge_matches_sequential_for_every_combinable_kind() {
        let data: Vec<(u64, Row)> = [
            (1u64, 3.0, 7.0),
            (4, -2.5, 1.0),
            (7, 8.0, 4.0),
            (12, 0.5, 9.0),
            (15, 8.0, 9.0),
            (18, -2.5, 2.0),
            (22, 1.0, 0.5),
        ]
        .iter()
        .map(|&(t, v, by)| (t, Row::new([Value::Float(v), Value::Float(by)])))
        .collect();
        for kind in [
            AggregateKind::Count,
            AggregateKind::Sum,
            AggregateKind::Mean,
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::StdDev,
            AggregateKind::Variance,
            AggregateKind::First,
            AggregateKind::Last,
            AggregateKind::ArgMin(1),
            AggregateKind::ArgMax(1),
        ] {
            let spec = AggregateSpec::new(kind, 0, "a");
            let (merged, sequential) = merged_vs_sequential(&spec, &data, 10);
            match (merged, sequential) {
                (Value::Float(x), Value::Float(y)) => {
                    assert!((x - y).abs() < 1e-9, "{kind}: merged {x} != sequential {y}")
                }
                (x, y) => assert_eq!(x, y, "{kind}"),
            }
        }
    }

    #[test]
    fn moments_merge_handles_empty_sides() {
        let mut a = MomentsAgg::new(false);
        let mut b = MomentsAgg::new(false);
        for x in [1.0, 2.0, 3.0] {
            b.insert(&Value::Float(x));
        }
        a.merge(&b); // empty ⊕ populated copies
        let mut c = MomentsAgg::new(false);
        a.merge(&c); // populated ⊕ empty is a no-op
        c.merge(&MomentsAgg::new(false)); // empty ⊕ empty stays empty
        match a.finalize() {
            Value::Float(v) => assert!((v - 2.0 / 3.0).abs() < 1e-12),
            other => panic!("expected float, got {other:?}"),
        }
        assert_eq!(c.finalize(), Value::Null);
    }

    #[test]
    fn non_combinable_kinds_have_no_pane_state() {
        let kinds = [
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
            AggregateKind::ArgMin(1),
            AggregateKind::ArgMax(1),
        ];
        for kind in kinds {
            let pane = AggregateSpec::new(kind, 0, "a").build_pane();
            assert_eq!(kind.combinable(), pane.is_some(), "{kind}");
        }
        let combinable = kinds.iter().filter(|k| k.combinable()).count();
        assert_eq!(combinable, 11, "all but Median, Quantile and DistinctCount");
    }

    #[test]
    fn quantile_state_stays_sorted_under_disordered_inserts() {
        // Values arrive out of value order and out of timestamp order; the
        // order-statistic state answers every rank k of the seven with the
        // k-th smallest (quantile k/6 lands exactly on rank k).
        let vals = [5.0, -1.0, 3.0, 3.0, 100.0, 0.0, 3.0];
        let rows: Vec<(u64, Row)> = [9u64, 3, 7, 1, 4, 8, 2]
            .into_iter()
            .zip(vals)
            .map(|(t, v)| (t, Row::new([Value::Float(v)])))
            .collect();
        let mut sorted = vals;
        sorted.sort_by(f64::total_cmp);
        for (k, want) in sorted.iter().enumerate() {
            let got = one_window(AggregateKind::Quantile(k as f64 / 6.0), &rows);
            assert_eq!(got, Value::Float(*want), "rank {k}");
        }
        assert_eq!(one_window(AggregateKind::Median, &rows), Value::Float(3.0));
    }
}

#[cfg(test)]
mod arg_tests {
    use super::tests::one_window;
    use super::*;
    use crate::value::Row;

    fn row(report: f64, by: Value) -> Row {
        Row::new([Value::Float(report), by])
    }

    #[test]
    fn argmax_reports_companion_field() {
        // Report field 0 at the max (min) of field 1.
        let rows = [
            (1u64, row(10.0, Value::Float(5.0))),
            (2, row(20.0, Value::Float(50.0))), // peak of `by`
            (3, row(30.0, Value::Float(7.0))),
        ];
        let at_peak = one_window(AggregateKind::ArgMax(1), &rows);
        assert_eq!(at_peak, Value::Float(20.0));
        let at_trough = one_window(AggregateKind::ArgMin(1), &rows);
        assert_eq!(at_trough, Value::Float(10.0));
    }

    #[test]
    fn arg_ties_resolve_to_earliest_event_time() {
        let rows = [
            (5u64, row(1.0, Value::Float(9.0))),
            (2, row(2.0, Value::Float(9.0))), // same `by`, earlier ts → wins
        ];
        let at_peak = one_window(AggregateKind::ArgMax(1), &rows);
        assert_eq!(at_peak, Value::Float(2.0));
    }

    #[test]
    fn arg_skips_null_by_values_and_handles_empty() {
        let rows = [(1u64, row(1.0, Value::Null))];
        assert_eq!(one_window(AggregateKind::ArgMax(1), &rows), Value::Null);
        let spec = AggregateSpec::new(AggregateKind::ArgMax(1), 0, "a");
        let empty = spec.build_pane().expect("combinable kind");
        assert_eq!(empty.finalize(), Value::Null);
    }

    #[test]
    fn arg_aggregate_through_window_operator() {
        use crate::event::{Event, StreamElement};
        use crate::operator::{LatePolicy, WindowAggregateOp};
        use crate::window::WindowSpec;
        let mut op = WindowAggregateOp::new(
            WindowSpec::tumbling(10u64),
            // Price (field 0) at the volume (field 1) peak.
            vec![AggregateSpec::new(
                AggregateKind::ArgMax(1),
                0,
                "price_at_peak",
            )],
            None,
            LatePolicy::Drop,
        )
        .expect("valid op");
        let mut results = Vec::new();
        for (ts, price, volume) in [(1u64, 10.0, 1.0), (2, 99.0, 100.0), (3, 11.0, 2.0)] {
            let row = Row::new([Value::Float(price), Value::Float(volume)]);
            op.process_ref(&StreamElement::Event(Event::new(ts, ts, row)), &mut |_| {});
        }
        op.process_ref(&StreamElement::Flush, &mut |r| results.push(r));
        assert_eq!(results[0].aggregates[0], Value::Float(99.0));
    }

    #[test]
    fn arg_displays_by_field() {
        assert!(format!("{}", AggregateKind::ArgMin(3)).contains('3'));
    }
}
