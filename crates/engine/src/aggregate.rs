//! Aggregate functions over window contents.
//!
//! An [`AggregateSpec`] names an aggregate and the field it reads;
//! [`AggregateSpec::build`] instantiates per-window incremental state (an
//! [`Aggregator`]). Every aggregate also has a *reference implementation*
//! ([`AggregateSpec::compute`]) that recomputes the result from the raw
//! window contents; the incremental and reference paths are checked against
//! each other by property tests, and the reference path is what the in-order
//! oracle uses to score result quality.
//!
//! Nulls and non-numeric values are skipped by numeric aggregates (SQL
//! semantics); `count` counts all non-null values.

use crate::error::{EngineError, Result};
use crate::time::Timestamp;
use crate::value::{Key, Row, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
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
    /// Value with the smallest event-time timestamp (arrival ties broken by
    /// insertion order).
    First,
    /// Value with the largest event-time timestamp.
    Last,
    /// Value of this spec's field at the row where the *other* field
    /// (the payload of this variant) is minimal. Ties: first in event time.
    ArgMin(usize),
    /// Value of this spec's field at the row where the other field is
    /// maximal. Ties: first in event time.
    ArgMax(usize),
}

impl AggregateKind {
    /// Whether the incremental state size is O(1) (vs. O(window) for
    /// order-statistic and distinct aggregates).
    pub fn constant_space(&self) -> bool {
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

    /// Whether partial states of this aggregate can be merged into a window
    /// result (`AggregateSpec::build_pane` returns `Some`). Exact order
    /// statistics and distinct counts are not decomposable without retaining
    /// value sets, so the window operator keeps their field's raw value per
    /// event and finalizes them from the window's values at emission.
    pub fn combinable(&self) -> bool {
        self.constant_space()
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

/// An aggregate bound to the row field it reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateSpec {
    /// Which function.
    pub kind: AggregateKind,
    /// Index of the input field in the row.
    pub field: usize,
    /// Output column name in result rows.
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

    /// Instantiate fresh incremental state. The reference implementations
    /// ([`AggregateSpec::compute`], [`AggregateSpec::compute_rows`]) fold
    /// through it; the window operator folds through mergeable partials
    /// instead.
    pub fn build(&self) -> Box<dyn Aggregator> {
        match self.kind {
            AggregateKind::Count => Box::new(CountAgg::default()),
            AggregateKind::Sum => Box::new(SumAgg::default()),
            AggregateKind::Mean => Box::new(MeanAgg::default()),
            AggregateKind::Min => Box::new(ExtremeAgg::new(false)),
            AggregateKind::Max => Box::new(ExtremeAgg::new(true)),
            AggregateKind::StdDev => Box::new(MomentsAgg::new(true)),
            AggregateKind::Variance => Box::new(MomentsAgg::new(false)),
            AggregateKind::Median => Box::new(QuantileAgg::new(0.5)),
            AggregateKind::Quantile(p) => Box::new(QuantileAgg::new(p)),
            AggregateKind::DistinctCount => Box::new(DistinctAgg::default()),
            AggregateKind::First => Box::new(EdgeAgg::new(false)),
            AggregateKind::Last => Box::new(EdgeAgg::new(true)),
            // Arg aggregates receive the full row via `insert_row` (see
            // `Aggregator::insert_row`); plain `insert` sees only the
            // reported field and cannot resolve the `by` field, so the
            // reference path feeds arg aggregates through `insert_row`.
            AggregateKind::ArgMin(by) => Box::new(ArgAgg::new(false, by)),
            AggregateKind::ArgMax(by) => Box::new(ArgAgg::new(true, by)),
        }
    }

    /// Instantiate mergeable partial state, or `None` for kinds whose
    /// partials cannot be combined (order statistics, distinct counts; the
    /// window operator finalizes those with `quantile_of_ranks` over a
    /// per-key rank index and a distinct set over the window's values). The
    /// window operator keeps
    /// one per tree node, never per event; see [`PaneAgg`].
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
            AggregateKind::ArgMin(by) => PaneAgg::Arg(ArgAgg::new(false, by)),
            AggregateKind::ArgMax(by) => PaneAgg::Arg(ArgAgg::new(true, by)),
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

    /// Reference implementation: compute the aggregate from the raw window
    /// contents in one pass. `values` is `(event timestamp, field value)` in
    /// any order. Arg-aggregates need the full rows — use
    /// [`AggregateSpec::compute_rows`] for them (this method returns `Null`
    /// for arg kinds since the `by` field is unavailable).
    pub fn compute(&self, values: &[(Timestamp, Value)]) -> Value {
        let mut agg = self.build();
        // The reference path must be insertion-order independent for every
        // aggregate except First/Last, which are defined by timestamp; feed
        // in timestamp order so ties resolve identically to sorted input.
        let mut sorted: Vec<&(Timestamp, Value)> = values.iter().collect();
        sorted.sort_by_key(|(ts, _)| *ts);
        for (ts, v) in sorted {
            agg.insert(*ts, v);
        }
        agg.finalize()
    }

    /// Full-row reference implementation: like [`AggregateSpec::compute`]
    /// but with access to whole rows, supporting arg-aggregates. Used by the
    /// in-order oracle.
    pub fn compute_rows(&self, rows: &[(Timestamp, &Row)]) -> Value {
        let mut agg = self.build();
        let mut sorted: Vec<&(Timestamp, &Row)> = rows.iter().collect();
        sorted.sort_by_key(|(ts, _)| *ts);
        for (ts, row) in sorted {
            agg.insert_row(*ts, row.get(self.field), row);
        }
        agg.finalize()
    }
}

/// Incremental per-window aggregate state.
pub trait Aggregator: Send {
    /// Fold one value (with its event timestamp) into the state.
    fn insert(&mut self, ts: Timestamp, v: &Value);
    /// Produce the current result. `Null` when no qualifying values arrived.
    fn finalize(&self) -> Value;
    /// Number of values folded in (for completeness accounting).
    fn count(&self) -> u64;
    /// Fold one value with access to its full row. Only arg-aggregates need
    /// the row; the default delegates to [`Aggregator::insert`].
    /// [`AggregateSpec::compute_rows`] calls this method so arg-aggregates
    /// work transparently.
    fn insert_row(&mut self, ts: Timestamp, v: &Value, _row: &Row) {
        self.insert(ts, v);
    }
}

/// Mergeable partial aggregate state over a *pane*: a run of events
/// contiguous in `(ts, seq)` order, as small as one event.
///
/// The window operator stores each event once, as an entry of the key's
/// finger B-tree ([`crate::fiba`]), and partials only in the tree's node
/// caches: a window result merges the partials cached per subtree instead of
/// re-folding raw events into every overlapping window. Each variant wraps
/// the corresponding incremental aggregator and adds a `merge` operation
/// combining two disjoint partials; merges always fold the *later* pane into
/// the *earlier* one, so tie-breaking matches event-time order.
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
    /// Fold one event into the partial (same contract as
    /// [`Aggregator::insert_row`]): `v` is the value of the spec's field and
    /// `by` that of [`AggregateSpec::by_field`].
    pub(crate) fn insert(&mut self, ts: Timestamp, v: &Value, by: &Value) {
        match self {
            PaneAgg::Count(a) => a.insert(ts, v),
            PaneAgg::Sum(a) => a.insert(ts, v),
            PaneAgg::Mean(a) => a.insert(ts, v),
            PaneAgg::Extreme(a) => a.insert(ts, v),
            PaneAgg::Moments(a) => a.insert(ts, v),
            PaneAgg::Edge(a) => a.insert(ts, v),
            PaneAgg::Arg(a) => a.insert_by(ts, v, by),
        }
    }

    /// Merge the one-event partial of a *later* event: `identity` (a fresh
    /// partial of this spec) takes the event on the stack and is merged in.
    /// Not an `insert` — Welford's update and the moments merge round
    /// differently, and a cache must not depend on which of the two built it.
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

    /// Produce the current result (same contract as
    /// [`Aggregator::finalize`]).
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
    seen: u64,
}

impl CountAgg {
    fn merge(&mut self, o: &CountAgg) {
        self.n += o.n;
        self.seen += o.seen;
    }
}

impl Aggregator for CountAgg {
    fn insert(&mut self, _ts: Timestamp, v: &Value) {
        self.seen += 1;
        if !v.is_null() {
            self.n += 1;
        }
    }
    fn finalize(&self) -> Value {
        Value::Int(self.n as i64)
    }
    fn count(&self) -> u64 {
        self.seen
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct SumAgg {
    sum: f64,
    n: u64,
    seen: u64,
}

impl SumAgg {
    fn merge(&mut self, o: &SumAgg) {
        self.sum += o.sum;
        self.n += o.n;
        self.seen += o.seen;
    }
}

impl Aggregator for SumAgg {
    fn insert(&mut self, _ts: Timestamp, v: &Value) {
        self.seen += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
            self.n += 1;
        }
    }
    fn finalize(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Float(self.sum)
        }
    }
    fn count(&self) -> u64 {
        self.seen
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct MeanAgg {
    sum: f64,
    n: u64,
    seen: u64,
}

impl MeanAgg {
    fn merge(&mut self, o: &MeanAgg) {
        self.sum += o.sum;
        self.n += o.n;
        self.seen += o.seen;
    }
}

impl Aggregator for MeanAgg {
    fn insert(&mut self, _ts: Timestamp, v: &Value) {
        self.seen += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
            self.n += 1;
        }
    }
    fn finalize(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Float(self.sum / self.n as f64)
        }
    }
    fn count(&self) -> u64 {
        self.seen
    }
}

/// Min/Max over the total value order.
#[derive(Debug, Clone)]
pub(crate) struct ExtremeAgg {
    max: bool,
    best: Option<Value>,
    seen: u64,
}

impl ExtremeAgg {
    fn new(max: bool) -> Self {
        ExtremeAgg {
            max,
            best: None,
            seen: 0,
        }
    }

    /// Merge a later partial: its extremum replaces ours only when strictly
    /// better, so `total_cmp`-equal values keep the earlier pane's
    /// representative (deterministic in event-time order).
    fn merge(&mut self, o: &ExtremeAgg) {
        self.seen += o.seen;
        if let Some(ov) = &o.best {
            let better = match &self.best {
                None => true,
                Some(b) => {
                    let ord = ov.total_cmp(b);
                    if self.max {
                        ord == std::cmp::Ordering::Greater
                    } else {
                        ord == std::cmp::Ordering::Less
                    }
                }
            };
            if better {
                self.best = Some(ov.clone());
            }
        }
    }
}

impl Aggregator for ExtremeAgg {
    fn insert(&mut self, _ts: Timestamp, v: &Value) {
        self.seen += 1;
        if v.is_null() {
            return;
        }
        let better = match &self.best {
            None => true,
            Some(b) => {
                let ord = v.total_cmp(b);
                if self.max {
                    ord == std::cmp::Ordering::Greater
                } else {
                    ord == std::cmp::Ordering::Less
                }
            }
        };
        if better {
            self.best = Some(v.clone());
        }
    }
    fn finalize(&self) -> Value {
        self.best.clone().unwrap_or(Value::Null)
    }
    fn count(&self) -> u64 {
        self.seen
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
    seen: u64,
}

impl MomentsAgg {
    fn new(stddev: bool) -> Self {
        MomentsAgg {
            stddev,
            n: 0,
            mean: 0.0,
            m2: 0.0,
            seen: 0,
        }
    }

    /// Chan et al.'s parallel-moments combine: exact counts, and mean/M2
    /// merged without revisiting raw values.
    fn merge(&mut self, o: &MomentsAgg) {
        self.seen += o.seen;
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
}

impl Aggregator for MomentsAgg {
    fn insert(&mut self, _ts: Timestamp, v: &Value) {
        self.seen += 1;
        if let Some(x) = v.as_f64() {
            self.n += 1;
            let d = x - self.mean;
            self.mean += d / self.n as f64;
            self.m2 += d * (x - self.mean);
        }
    }
    fn finalize(&self) -> Value {
        if self.n == 0 {
            return Value::Null;
        }
        let var = (self.m2 / self.n as f64).max(0.0);
        Value::Float(if self.stddev { var.sqrt() } else { var })
    }
    fn count(&self) -> u64 {
        self.seen
    }
}

/// Exact quantile over incrementally maintained *sorted* state: each ingest
/// binary-searches the insertion point (`O(log n)` compare + `O(n)` shift of
/// plain `f64`s — a fast `memmove`), so finalize is O(1) instead of the old
/// clone-and-sort (`O(n)` allocation + `O(n log n)` compares per emission,
/// which dominated Median/Quantile windows that finalize more often than
/// they grow).
struct QuantileAgg {
    p: f64,
    /// Values in ascending `total_cmp` order at all times.
    sorted: Vec<f64>,
    seen: u64,
}

impl QuantileAgg {
    fn new(p: f64) -> Self {
        QuantileAgg {
            p: p.clamp(0.0, 1.0),
            sorted: Vec::new(),
            seen: 0,
        }
    }
}

/// p-quantile of a slice sorted by `f64::total_cmp`, with linear
/// interpolation between ranks: the finalizer of `QuantileAgg`.
pub(crate) fn quantile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    quantile_of_ranks(sorted.len(), p, |rank| sorted[rank])
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

impl Aggregator for QuantileAgg {
    fn insert(&mut self, _ts: Timestamp, v: &Value) {
        self.seen += 1;
        if let Some(x) = v.as_f64() {
            // Insert after any total_cmp-equal values: equal f64s are
            // bit-identical, so this yields exactly the array a stable
            // sort of the raw buffer would.
            let at = self
                .sorted
                .partition_point(|y| y.total_cmp(&x) != std::cmp::Ordering::Greater);
            self.sorted.insert(at, x);
        }
    }
    fn finalize(&self) -> Value {
        match quantile_sorted(&self.sorted, self.p) {
            Some(q) => Value::Float(q),
            None => Value::Null,
        }
    }
    fn count(&self) -> u64 {
        self.seen
    }
}

#[derive(Default)]
struct DistinctAgg {
    set: BTreeSet<Key>,
    seen: u64,
}

impl Aggregator for DistinctAgg {
    fn insert(&mut self, _ts: Timestamp, v: &Value) {
        self.seen += 1;
        if !v.is_null() {
            self.set.insert(Key(v.clone()));
        }
    }
    fn finalize(&self) -> Value {
        Value::Int(self.set.len() as i64)
    }
    fn count(&self) -> u64 {
        self.seen
    }
}

/// First/Last by event timestamp. For equal timestamps, the earliest (resp.
/// latest) *insertion* wins, matching the reference implementation which
/// feeds values in (ts, insertion) order.
#[derive(Debug, Clone)]
pub(crate) struct EdgeAgg {
    last: bool,
    best: Option<(Timestamp, Value)>,
    seen: u64,
}

impl EdgeAgg {
    fn new(last: bool) -> Self {
        EdgeAgg {
            last,
            best: None,
            seen: 0,
        }
    }

    /// Merge a later pane's partial. Panes are merged in `(ts, seq)` order,
    /// so on equal timestamps the earlier pane holds the earlier arrival and
    /// keeps the tie, exactly as the insert-order rule would.
    fn merge(&mut self, o: &EdgeAgg) {
        self.seen += o.seen;
        if let Some((ots, ov)) = &o.best {
            let take = match &self.best {
                None => true,
                Some((bt, _)) => {
                    if self.last {
                        *ots >= *bt
                    } else {
                        *ots < *bt
                    }
                }
            };
            if take {
                self.best = Some((*ots, ov.clone()));
            }
        }
    }
}

impl Aggregator for EdgeAgg {
    fn insert(&mut self, ts: Timestamp, v: &Value) {
        self.seen += 1;
        if v.is_null() {
            return;
        }
        let take = match &self.best {
            None => true,
            Some((bt, _)) => {
                if self.last {
                    ts >= *bt
                } else {
                    ts < *bt
                }
            }
        };
        if take {
            self.best = Some((ts, v.clone()));
        }
    }
    fn finalize(&self) -> Value {
        self.best
            .as_ref()
            .map(|(_, v)| v.clone())
            .unwrap_or(Value::Null)
    }
    fn count(&self) -> u64 {
        self.seen
    }
}

/// ArgMin/ArgMax: report one field's value at the extremum of another.
#[derive(Debug, Clone)]
pub(crate) struct ArgAgg {
    max: bool,
    by: usize,
    best: Option<(Value, Timestamp, Value)>,
    seen: u64,
}

impl ArgAgg {
    fn new(max: bool, by: usize) -> ArgAgg {
        ArgAgg {
            max,
            by,
            best: None,
            seen: 0,
        }
    }

    /// Merge a later pane's partial with the same extremum/tie rule as
    /// `insert_row`: strictly better `by` wins; equal `by` resolves to the
    /// earliest event time.
    fn merge(&mut self, o: &ArgAgg) {
        self.seen += o.seen;
        if let Some((oby, ots, ov)) = &o.best {
            let better = match &self.best {
                None => true,
                Some((best_by, best_ts, _)) => {
                    use std::cmp::Ordering::*;
                    match oby.total_cmp(best_by) {
                        Greater => self.max,
                        Less => !self.max,
                        Equal => *ots < *best_ts,
                    }
                }
            };
            if better {
                self.best = Some((oby.clone(), *ots, ov.clone()));
            }
        }
    }

    /// Fold one event given the value of its `by` field.
    fn insert_by(&mut self, ts: Timestamp, v: &Value, by_val: &Value) {
        self.seen += 1;
        if by_val.is_null() {
            return;
        }
        let better = match &self.best {
            None => true,
            Some((best_by, best_ts, _)) => {
                use std::cmp::Ordering::*;
                match by_val.total_cmp(best_by) {
                    Greater => self.max,
                    Less => !self.max,
                    // Ties: earliest event time wins.
                    Equal => ts < *best_ts,
                }
            }
        };
        if better {
            self.best = Some((by_val.clone(), ts, v.clone()));
        }
    }
}

impl Aggregator for ArgAgg {
    fn insert(&mut self, _ts: Timestamp, _v: &Value) {
        // Row-less insertion cannot see the `by` field; count only. The
        // full-row reference path always uses `insert_row`.
        self.seen += 1;
    }
    fn insert_row(&mut self, ts: Timestamp, v: &Value, row: &Row) {
        self.insert_by(ts, v, row.get(self.by));
    }
    fn finalize(&self) -> Value {
        self.best
            .as_ref()
            .map(|(_, _, v)| v.clone())
            .unwrap_or(Value::Null)
    }
    fn count(&self) -> u64 {
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: AggregateKind, vals: &[Value]) -> Value {
        let spec = AggregateSpec::new(kind, 0, "out");
        let tv: Vec<(Timestamp, Value)> = vals
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (Timestamp(i as u64), v))
            .collect();
        spec.compute(&tv)
    }

    fn floats(vs: &[f64]) -> Vec<Value> {
        vs.iter().map(|&v| Value::Float(v)).collect()
    }

    #[test]
    fn count_skips_nulls() {
        assert_eq!(
            run(
                AggregateKind::Count,
                &[Value::Int(1), Value::Null, Value::Int(2)]
            ),
            Value::Int(2)
        );
    }

    #[test]
    fn sum_and_mean() {
        assert_eq!(
            run(AggregateKind::Sum, &floats(&[1.0, 2.0, 3.0])),
            Value::Float(6.0)
        );
        assert_eq!(
            run(AggregateKind::Mean, &floats(&[1.0, 2.0, 3.0])),
            Value::Float(2.0)
        );
        assert_eq!(run(AggregateKind::Sum, &[Value::Null]), Value::Null);
    }

    #[test]
    fn sum_mixes_int_and_float() {
        assert_eq!(
            run(AggregateKind::Sum, &[Value::Int(1), Value::Float(2.5)]),
            Value::Float(3.5)
        );
    }

    #[test]
    fn min_max_over_total_order() {
        assert_eq!(
            run(AggregateKind::Min, &floats(&[3.0, 1.0, 2.0])),
            Value::Float(1.0)
        );
        assert_eq!(
            run(AggregateKind::Max, &floats(&[3.0, 1.0, 2.0])),
            Value::Float(3.0)
        );
        assert_eq!(
            run(AggregateKind::Max, &[Value::Int(2), Value::Float(2.5)]),
            Value::Float(2.5)
        );
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
        assert_eq!(
            run(AggregateKind::Median, &floats(&[5.0, 1.0, 3.0])),
            Value::Float(3.0)
        );
        assert_eq!(
            run(AggregateKind::Median, &floats(&[4.0, 1.0, 3.0, 2.0])),
            Value::Float(2.5)
        );
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

    #[test]
    fn distinct_count() {
        assert_eq!(
            run(
                AggregateKind::DistinctCount,
                &[Value::Int(1), Value::Int(1), Value::Int(2), Value::Null]
            ),
            Value::Int(2)
        );
        // Int 1 and Float 1.0 coincide under the key order.
        assert_eq!(
            run(
                AggregateKind::DistinctCount,
                &[Value::Int(1), Value::Float(1.0)]
            ),
            Value::Int(1)
        );
    }

    #[test]
    fn first_last_by_timestamp_not_arrival() {
        let spec = AggregateSpec::new(AggregateKind::First, 0, "f");
        // Arrival order: ts=5 then ts=2 — first by event time is ts=2.
        let vals = vec![
            (Timestamp(5), Value::Int(50)),
            (Timestamp(2), Value::Int(20)),
        ];
        assert_eq!(spec.compute(&vals), Value::Int(20));
        let spec = AggregateSpec::new(AggregateKind::Last, 0, "l");
        assert_eq!(spec.compute(&vals), Value::Int(50));
    }

    #[test]
    fn incremental_matches_reference_for_order_independence() {
        // Insert in scrambled order through the incremental path and compare
        // with the sorted reference.
        let spec = AggregateSpec::new(AggregateKind::StdDev, 0, "s");
        let vals: Vec<(Timestamp, Value)> = [(7u64, 3.0), (1, 9.0), (4, 2.0), (2, 7.5)]
            .iter()
            .map(|&(t, v)| (Timestamp(t), Value::Float(v)))
            .collect();
        let mut agg = spec.build();
        for (t, v) in &vals {
            agg.insert(*t, v);
        }
        let (a, b) = (agg.finalize(), spec.compute(&vals));
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => assert!((x - y).abs() < 1e-9),
            other => panic!("expected floats, got {other:?}"),
        }
    }

    #[test]
    fn empty_window_results() {
        assert_eq!(run(AggregateKind::Count, &[]), Value::Int(0));
        assert_eq!(run(AggregateKind::Sum, &[]), Value::Null);
        assert_eq!(run(AggregateKind::Median, &[]), Value::Null);
        assert_eq!(run(AggregateKind::Min, &[]), Value::Null);
        assert_eq!(run(AggregateKind::DistinctCount, &[]), Value::Int(0));
    }

    #[test]
    fn constant_space_classification() {
        assert!(AggregateKind::Sum.constant_space());
        assert!(!AggregateKind::Median.constant_space());
        assert!(!AggregateKind::DistinctCount.constant_space());
    }
}

#[cfg(test)]
mod pane_tests {
    use super::*;

    /// Split `(ts, row)` data into panes of width `slide`, fold each event
    /// into its home pane's partial, merge partials in ascending pane order,
    /// and compare with feeding the same data sequentially (in ts order)
    /// into the plain incremental aggregator.
    fn merged_vs_sequential(
        spec: &AggregateSpec,
        data: &[(u64, Row)],
        slide: u64,
    ) -> (Value, Value) {
        let mut panes: std::collections::BTreeMap<u64, PaneAgg> = Default::default();
        for (t, row) in data {
            let pane = panes
                .entry(t / slide * slide)
                .or_insert_with(|| spec.build_pane().expect("combinable kind"));
            pane.insert(Timestamp(*t), row.get(spec.field), row.get(spec.by_field()));
        }
        let mut merged: Option<PaneAgg> = None;
        for (_, p) in panes {
            match &mut merged {
                None => merged = Some(p),
                Some(m) => m.merge(&p),
            }
        }
        let merged = merged
            .unwrap_or_else(|| spec.build_pane().expect("combinable kind"))
            .finalize();

        let mut seq = spec.build();
        let mut ordered: Vec<&(u64, Row)> = data.iter().collect();
        ordered.sort_by_key(|(t, _)| *t);
        for (t, row) in ordered {
            seq.insert_row(Timestamp(*t), row.get(spec.field), row);
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
            b.insert(Timestamp(0), &Value::Float(x));
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
        for kind in [
            AggregateKind::Median,
            AggregateKind::Quantile(0.9),
            AggregateKind::DistinctCount,
        ] {
            assert!(!kind.combinable());
            assert!(AggregateSpec::new(kind, 0, "a").build_pane().is_none());
        }
        assert!(AggregateKind::Sum.combinable());
    }

    #[test]
    fn quantile_state_stays_sorted_under_disordered_inserts() {
        let mut agg = QuantileAgg::new(0.5);
        for x in [5.0, -1.0, 3.0, 3.0, 100.0, 0.0, 3.0] {
            agg.insert(Timestamp(0), &Value::Float(x));
        }
        assert!(agg.sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(agg.finalize(), Value::Float(3.0));
    }
}

#[cfg(test)]
mod arg_tests {
    use super::*;

    fn row(report: f64, by: f64) -> Row {
        Row::new([Value::Float(report), Value::Float(by)])
    }

    #[test]
    fn argmax_reports_companion_field() {
        // Report field 0 at the max of field 1.
        let spec = AggregateSpec::new(AggregateKind::ArgMax(1), 0, "at_peak");
        let rows = [
            (Timestamp(1), row(10.0, 5.0)),
            (Timestamp(2), row(20.0, 50.0)), // peak of `by`
            (Timestamp(3), row(30.0, 7.0)),
        ];
        let refs: Vec<(Timestamp, &Row)> = rows.iter().map(|(t, r)| (*t, r)).collect();
        assert_eq!(spec.compute_rows(&refs), Value::Float(20.0));
        let spec_min = AggregateSpec::new(AggregateKind::ArgMin(1), 0, "at_trough");
        assert_eq!(spec_min.compute_rows(&refs), Value::Float(10.0));
    }

    #[test]
    fn arg_ties_resolve_to_earliest_event_time() {
        let spec = AggregateSpec::new(AggregateKind::ArgMax(1), 0, "a");
        let rows = [
            (Timestamp(5), row(1.0, 9.0)),
            (Timestamp(2), row(2.0, 9.0)), // same `by`, earlier ts → wins
        ];
        let refs: Vec<(Timestamp, &Row)> = rows.iter().map(|(t, r)| (*t, r)).collect();
        assert_eq!(spec.compute_rows(&refs), Value::Float(2.0));
    }

    #[test]
    fn arg_skips_null_by_values_and_handles_empty() {
        let spec = AggregateSpec::new(AggregateKind::ArgMax(1), 0, "a");
        let rows = [(Timestamp(1), Row::new([Value::Float(1.0), Value::Null]))];
        let refs: Vec<(Timestamp, &Row)> = rows.iter().map(|(t, r)| (*t, r)).collect();
        assert_eq!(spec.compute_rows(&refs), Value::Null);
        assert_eq!(spec.compute_rows(&[]), Value::Null);
    }

    #[test]
    fn arg_aggregate_through_window_operator() {
        use crate::event::{Event, StreamElement};
        use crate::operator::{LatePolicy, Operator, WindowAggregateOp, WindowResult};
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
            op.process(
                StreamElement::Event(Event::new(ts, ts, row(price, volume))),
                &mut |_| {},
            );
        }
        op.process(StreamElement::Flush, &mut |o| {
            if let StreamElement::Event(e) = o {
                results.extend(WindowResult::from_row(&e.row));
            }
        });
        assert_eq!(results[0].aggregates[0], Value::Float(99.0));
    }

    #[test]
    fn arg_is_constant_space_and_displays_by_field() {
        assert!(AggregateKind::ArgMax(1).constant_space());
        assert!(format!("{}", AggregateKind::ArgMin(3)).contains('3'));
    }
}
