//! Keyed windowed aggregation with event-time semantics.
//!
//! [`WindowAggregateOp`] folds each event once into the state of its grouping
//! key and emits one [`WindowResult`] per (key, window) when the watermark
//! passes the window's end. Each window is emitted once, final: an event
//! arriving *after* every window it lies in was finalized is counted and
//! dropped ([`WindowOpStats::late_dropped`]).
//!
//! This operator is the consumer side of the quality/latency trade-off: the
//! disorder-control strategies in `quill-core` decide how long to hold
//! events (and therefore where watermarks sit); this operator turns those
//! watermarks into results whose completeness the metrics crate scores.
//!
//! ## Window state
//!
//! There is one state layout, the pane state (DESIGN.md §17). Every window
//! is tumbling or sliding on a fixed grid, so every window is a whole number
//! of *panes* of width `gcd(length, slide)`, and all timestamps in one pane
//! belong to the same windows. Per key, the operator holds a pane-ordered run
//! of its *non-empty* panes — memory follows the held events, never the time
//! span. A pane holds its event count, one partial per combinable spec
//! (absorbed in arrival order), the value images of every Median/Quantile
//! field and the distinct values of every DistinctCount field. An event is
//! folded *once*, into its pane, whatever the window shape and the aggregate
//! kinds ([`WindowOpStats::agg_inserts`] counts it): an in-order arrival
//! lands in the key's last pane, a straggler costs one binary search over
//! the key's live panes. Window finalize combines the window's pane partials
//! in pane order. Median and Quantile are answered from a per-key rank index
//! of the numeric values the panes hold, less those of the panes outside the
//! window; DistinctCount reads the window's panes. The slide pops whole
//! panes no later window can cover, and takes their values out of the rank
//! index.
//!
//! Which window to emit next is tracked per *key*, not per (window, event):
//! the emission queue holds each key's earliest unemitted non-empty window.
//! An event moves its key's entry only when it opens an earlier window than
//! that, and emitting a window finds its successor from the first pane the
//! key still holds — windows nothing fell into are never visited.

use crate::aggregate::{quantile_of_ranks, AggregateKind, AggregateSpec, PaneAgg};
use crate::error::{EngineError, Result};
use crate::event::{Event, StreamElement};
use crate::operator::rank_index::{float, image, RankIndex};
use crate::operator::Operator;
use crate::time::Timestamp;
use crate::value::{Key, KeyView, Row, Value};
use crate::window::{Window, WindowSpec};
use quill_telemetry::span::key_tag;
use quill_telemetry::{SpanRecorder, Stage};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;

/// The window-state layout. The pane state (module docs) is the only one:
/// this one-variant enum and the no-op
/// [`WindowAggregateOp::with_window_state`] that takes it survive only
/// because the `quill-e2e` benchmark (`benchmark/src/layers.rs`) names them,
/// and a change may not edit the benchmark it is judged by. DESIGN.md §17
/// records the measured decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowState {
    /// Per-key panes of width `gcd(length, slide)`.
    #[default]
    Panes,
}

/// What to do with an event whose windows have all been finalized. Dropping
/// it is the only policy (module docs): this one-variant enum and the
/// argument of [`WindowAggregateOp::new`] that takes it survive only because
/// the `quill-e2e` benchmark (`benchmark/src/layers.rs`) names them, and a
/// change may not edit the benchmark it is judged by. They go with ROADMAP
/// item 1(a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatePolicy {
    /// Count the event in [`WindowOpStats::late_dropped`] and discard it.
    Drop,
}

/// Counters the operator maintains; read them after a run to account for
/// every input event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowOpStats {
    /// Events folded into at least one open window.
    pub accepted: u64,
    /// Events that arrived after their last window was finalized and were
    /// dropped.
    pub late_dropped: u64,
    /// Window results emitted.
    pub windows_emitted: u64,
    /// Aggregate-state folds performed: one pane fold per accepted event,
    /// whatever the window shape and the aggregate kinds — always equal to
    /// `accepted`.
    pub agg_inserts: u64,
}

/// One result of [`WindowAggregateOp`]: a (key, window) answer, emitted once,
/// when the watermark passes the window's end.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Grouping key (`Null` for global aggregation).
    pub key: Value,
    /// The window.
    pub window: Window,
    /// Number of events folded into this result.
    pub count: u64,
    /// Always 0: the operator emits each window once. Kept because the
    /// `quill-e2e` benchmark builds results as struct literals; it goes with
    /// ROADMAP item 1(a). `quality_eval::score` still skips nonzero ones from
    /// other producers.
    pub revision: u64,
    /// One output per [`AggregateSpec`], in spec order.
    pub aggregates: Vec<Value>,
}

/// Where one [`AggregateSpec`]'s output comes from at emission.
#[derive(Clone, Copy)]
enum Slot {
    /// Combinable: partial `.0` of the window's combined pane partials.
    Partial(usize),
    /// Median/Quantile: written by the spec's [`RankField`], which knows its
    /// quantile and position.
    Quantile,
    /// DistinctCount: the distinct non-null values of row field
    /// `distinct[.0]`.
    Distinct(usize),
}

/// One row field read by Median/Quantile specs. Every key holds one
/// `RankIndex` per such field, of the numeric values (non-numeric ones are
/// skipped) of exactly the events its panes hold.
struct RankField {
    /// The row field.
    col: usize,
    /// The Median/Quantile specs on the field as `(quantile, spec position)`.
    ps: Vec<(f64, usize)>,
    /// The images of the numeric values the panes outside the window being
    /// answered hold, sorted; reused across emissions.
    nums: Vec<u64>,
}

/// A window as `(end, start)` — the order windows are emitted in.
type WindowId = (Timestamp, Timestamp);

/// The window grid: `[start, start + length)` for every multiple `start` of
/// `slide` (`1 <= slide <= length`), cut into panes of width
/// `gcd(length, slide)` — every window start and unsaturated end is a pane
/// boundary.
#[derive(Clone, Copy)]
struct Grid {
    length: u64,
    slide: u64,
    pane: u64,
}

impl Grid {
    fn new(length: u64, slide: u64) -> Grid {
        let (mut a, mut b) = (length, slide);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        Grid {
            length,
            slide,
            pane: a,
        }
    }

    /// The window starting at `start`.
    fn window(self, start: u64) -> WindowId {
        let end = start.saturating_add(self.length);
        (Timestamp(end), Timestamp(start))
    }

    /// Start of the last window containing `t`.
    fn home(self, t: u64) -> u64 {
        t / self.slide * self.slide
    }

    /// Start of the first window containing `t` (windows do not start before
    /// the stream origin).
    fn first_start(self, t: u64) -> u64 {
        let home = self.home(t);
        let back = (self.length - 1 - (t - home)) / self.slide;
        home - back.min(home / self.slide) * self.slide
    }

    /// Start of the first window ending at or after `min_end`.
    fn first_ending_from(self, min_end: u64) -> u64 {
        min_end.saturating_sub(self.length).div_ceil(self.slide) * self.slide
    }

    /// The number of the pane holding `t`. `u64::MAX` lies in no window —
    /// every window end at or past it saturates to it — so it gets a pane of
    /// its own past the one its width would put it in.
    fn pane_of(self, t: u64) -> u64 {
        if t == u64::MAX {
            (u64::MAX / self.pane).saturating_add(1)
        } else {
            t / self.pane
        }
    }

    /// The smallest timestamp of pane `p` (`u64::MAX` for the pane of its
    /// own [`Grid::pane_of`] gives it).
    fn pane_start(self, p: u64) -> u64 {
        p.saturating_mul(self.pane)
    }
}

/// The events of one key that fell into one pane, folded.
struct Pane {
    /// Events in the pane.
    count: u64,
    /// One partial per [`Slot::Partial`], the pane's events folded in
    /// arrival order: the first inserted into a fresh partial, each later
    /// one absorbed (`combine ∘ seed`).
    partials: Box<[PaneAgg]>,
    /// Per [`RankField`], the images of the field's numeric values.
    images: Box<[Vec<u64>]>,
    /// Per DistinctCount spec, the distinct non-null values of its field in
    /// [`Key`] order.
    distinct: Box<[Vec<Value>]>,
}

impl Pane {
    /// Heap bytes: the three boxed slices and every vector at capacity.
    fn state_bytes(&self) -> usize {
        let images: usize = self.images.iter().map(Vec::capacity).sum();
        let distinct: usize = self.distinct.iter().map(Vec::capacity).sum();
        self.partials.len() * size_of::<PaneAgg>()
            + self.images.len() * size_of::<Vec<u64>>()
            + images * size_of::<u64>()
            + self.distinct.len() * size_of::<Vec<Value>>()
            + distinct * size_of::<Value>()
    }

    /// Add `v` to a distinct-value run unless a `Key`-equal value is there:
    /// the value is cloned once per pane it is new to, not per event.
    fn note_distinct(run: &mut Vec<Value>, v: &Value) {
        if let Err(at) = run.binary_search_by(|x| x.total_cmp(v)) {
            run.insert(at, v.clone());
        }
    }
}

/// Window state for one grouping key.
struct KeyState {
    /// The key's non-empty panes as `(pane number, pane)`, in pane order.
    panes: VecDeque<(u64, Pane)>,
    /// One per [`RankField`]: the numeric values of that field over exactly
    /// the events `panes` hold.
    ranks: Vec<RankIndex>,
    /// The key's earliest unemitted window holding an event — its entry in
    /// [`PaneState::pending`].
    next: Option<WindowId>,
}

impl KeyState {
    fn new(rank_fields: usize) -> Self {
        KeyState {
            panes: VecDeque::new(),
            ranks: (0..rank_fields).map(|_| RankIndex::default()).collect(),
            next: None,
        }
    }

    /// Events the key's panes hold.
    fn held(&self) -> u64 {
        self.panes.iter().map(|(_, pane)| pane.count).sum()
    }

    /// Position of the first pane numbered `p` or later.
    fn pane_from(&self, p: u64) -> usize {
        self.panes.partition_point(|&(n, _)| n < p)
    }

    /// Positions of the panes of window `[s, e)`: those starting in it.
    fn window_panes(&self, grid: Grid, (s, e): (u64, u64)) -> Range<usize> {
        let lo = self.pane_from(s / grid.pane);
        let hi = self.panes.partition_point(|&(n, _)| grid.pane_start(n) < e);
        lo..hi
    }

    /// Fold one event at `t` into pane `p` — the last pane for an in-order
    /// arrival, else found by one binary search and opened empty if the key
    /// holds none — and its values into the key's rank indexes.
    fn fold(&mut self, layout: &Layout, p: u64, t: u64, row: &Row) {
        let at = match self.panes.back() {
            Some(&(last, _)) if last == p => self.panes.len() - 1,
            _ => self
                .panes
                .binary_search_by_key(&p, |&(n, _)| n)
                .unwrap_or_else(|at| {
                    self.panes.insert(at, (p, layout.empty_pane()));
                    at
                }),
        };
        let pane = &mut self.panes[at].1;
        let ts = Timestamp(t);
        let parts = pane.partials.iter_mut().zip(&layout.cols);
        if pane.count == 0 {
            for (a, &(v, by)) in parts {
                a.insert(ts, row.get(v), row.get(by));
            }
        } else {
            for ((a, &(v, by)), fresh) in parts.zip(layout.template.iter()) {
                a.absorb(fresh, ts, row.get(v), row.get(by));
            }
        }
        pane.count += 1;
        let ranked = layout.rank_fields.iter().zip(&mut self.ranks);
        for ((f, index), images) in ranked.zip(pane.images.iter_mut()) {
            if let Some(x) = row.get(f.col).as_f64() {
                index.insert(image(x));
                images.push(image(x));
            }
        }
        for (&col, run) in layout.distinct.iter().zip(pane.distinct.iter_mut()) {
            let v = row.get(col);
            if !v.is_null() {
                Pane::note_distinct(run, v);
            }
        }
    }

    /// Queue one event at `t`, just folded, whose accepting windows start at
    /// `first..=home(t)` — none emitted yet, as every accepting window ends
    /// past the watermark. Returns `(old, new)` when the key's pending window
    /// moves down to `new`, the first of them, because it precedes the
    /// pending one.
    fn admit(&mut self, t: u64, first: u64, grid: Grid) -> Option<(Option<WindowId>, WindowId)> {
        let new = grid.window(first);
        // `new.0 <= t`: the end saturated at `u64::MAX` and the event sits
        // on it, inside no window.
        if new.0.raw() <= t || self.next.is_some_and(|next| next <= new) {
            return None;
        }
        Some((self.next.replace(new), new))
    }

    /// The earliest window starting at or after `from` (a window start, so a
    /// pane boundary, unless it saturated at `u64::MAX`) that holds an event:
    /// the first window of the first pane starting there or later — all of a
    /// pane's timestamps share their windows.
    fn successor(&self, from: u64, grid: Grid) -> Option<WindowId> {
        let &(p, _) = self.panes.get(self.pane_from(from.div_ceil(grid.pane)))?;
        let t0 = grid.pane_start(p);
        let w = grid.window(from.max(grid.first_start(t0)));
        // `w.0 <= t0`: an event on a saturated end, as in `admit`.
        (w.0.raw() > t0).then_some(w)
    }
}

/// What the specs read and where their outputs come from: fixed per
/// operator.
struct Layout {
    /// Fresh partials, one per [`Slot::Partial`] in slot order: what a new
    /// pane's partials start from.
    template: Box<[PaneAgg]>,
    /// Per partial, the row fields of its spec's field and `by` field.
    cols: Vec<(usize, usize)>,
    /// Per spec, where its output comes from.
    slots: Vec<Slot>,
    /// The row fields Median/Quantile specs read.
    rank_fields: Vec<RankField>,
    /// The row field of each DistinctCount spec.
    distinct: Vec<usize>,
}

impl Layout {
    /// A pane holding no event yet.
    fn empty_pane(&self) -> Pane {
        Pane {
            count: 0,
            partials: self.template.clone(),
            images: self.rank_fields.iter().map(|_| Vec::new()).collect(),
            distinct: self.distinct.iter().map(|_| Vec::new()).collect(),
        }
    }
}

/// The operator's window state (see the module docs).
struct PaneState {
    grid: Grid,
    layout: Layout,
    keys: BTreeMap<Key, KeyState>,
    /// Events in all the panes of `keys`.
    held: u64,
    /// Every key's `next` window as `(end, start, key)`, drained in emission
    /// order as the watermark advances.
    pending: BTreeSet<(Timestamp, Timestamp, Key)>,
    /// Inserts into `pending` and removals other than the drain's pops (of
    /// which there is at most one per insert).
    #[cfg(test)]
    pending_ops: u64,
}

impl PaneState {
    /// Move `key`'s entry in `pending` from `old` to `new`.
    fn requeue(&mut self, key: Key, old: Option<WindowId>, new: WindowId) {
        #[cfg(test)]
        {
            self.pending_ops += 1 + u64::from(old.is_some());
        }
        let key = match old {
            Some((end, start)) => {
                let entry = (end, start, key);
                self.pending.remove(&entry);
                entry.2
            }
            None => key,
        };
        self.pending.insert((new.0, new.1, key));
    }

    /// `key`'s pending window starting at `start` was just popped and
    /// emitted: queue the key's next window and pop every pane before that
    /// one's start (later windows start after it), whose values leave the
    /// key's rank indexes with it. A key with no next window is dropped
    /// whole, its indexes with it.
    fn advance(&mut self, key: Key, start: u64) {
        let Some(ks) = self.keys.get_mut(&key) else {
            return;
        };
        ks.next = ks.successor(start.saturating_add(self.grid.slide), self.grid);
        let Some(next) = ks.next else {
            self.held -= ks.held();
            self.keys.remove(&key);
            return;
        };
        let cut = next.1.raw() / self.grid.pane;
        while let Some((_, pane)) = ks.panes.pop_front_if(|(p, _)| *p < cut) {
            self.held -= pane.count;
            for (index, images) in ks.ranks.iter_mut().zip(pane.images.iter()) {
                for &x in images {
                    index.remove(x);
                }
            }
        }
        self.requeue(key, None, next);
    }

    /// Event count and one output per spec, in spec order, for `key`'s
    /// window `[s, e)`: combinable kinds from the window's pane partials
    /// combined in pane order, Median/Quantile from the key's rank indexes,
    /// DistinctCount from the union of the window's panes' distinct values.
    ///
    /// A rank index holds the numeric values of every event the panes hold,
    /// so the window's values are the index less those of the panes outside
    /// `[s, e)` — at an emission, only what arrived past `e`. Each rank
    /// `quantile_of_ranks` reads is selected from the difference in the
    /// `total_cmp` order, so the output is that of the window's values
    /// sorted, bit for bit.
    fn answer(&mut self, key: &Key, (s, e): (u64, u64)) -> (u64, Vec<Value>) {
        // Defensive: a queued window always has its key, but answer with an
        // empty result rather than lose the window.
        let layout = &mut self.layout;
        let Some(ks) = self.keys.get(key) else {
            let out = layout.slots.iter().map(|slot| match *slot {
                Slot::Partial(j) => layout.template[j].finalize(),
                Slot::Quantile => Value::Null,
                Slot::Distinct(_) => Value::Int(0),
            });
            return (0, out.collect());
        };
        let inside = ks.window_panes(self.grid, (s, e));
        let window = || ks.panes.range(inside.clone()).map(|(_, pane)| pane);
        let count = window().map(|pane| pane.count).sum();
        let mut panes = window();
        let mut combined = panes
            .next()
            .map_or_else(|| layout.template.clone(), |pane| pane.partials.clone());
        for pane in panes {
            for (a, b) in combined.iter_mut().zip(pane.partials.iter()) {
                a.merge(b);
            }
        }
        let mut distinct: Vec<BTreeSet<&dyn KeyView>> =
            layout.distinct.iter().map(|_| BTreeSet::new()).collect();
        if !distinct.is_empty() {
            for pane in window() {
                for (seen, run) in distinct.iter_mut().zip(pane.distinct.iter()) {
                    seen.extend(run.iter().map(|v| v as &dyn KeyView));
                }
            }
        }
        let finalize = |slot: &Slot| match *slot {
            Slot::Partial(j) => combined[j].finalize(),
            Slot::Quantile => Value::Null,
            Slot::Distinct(j) => Value::Int(distinct[j].len() as i64),
        };
        let mut out: Vec<Value> = layout.slots.iter().map(finalize).collect();
        if layout.rank_fields.is_empty() {
            return (count, out);
        }
        let fields = &mut layout.rank_fields;
        fields.iter_mut().for_each(|f| f.nums.clear());
        let outside = ks
            .panes
            .range(..inside.start)
            .chain(ks.panes.range(inside.end..));
        for (_, pane) in outside {
            for (f, images) in fields.iter_mut().zip(pane.images.iter()) {
                f.nums.extend_from_slice(images);
            }
        }
        for (f, index) in fields.iter_mut().zip(&ks.ranks) {
            f.nums.sort_unstable();
            let n = index.len().saturating_sub(f.nums.len());
            let at = |rank: usize| index.select_without(rank, &f.nums).map_or(f64::NAN, float);
            for &(p, spec) in &f.ps {
                if let Some(q) = quantile_of_ranks(n, p, at) {
                    out[spec] = Value::Float(q);
                }
            }
        }
        (count, out)
    }
}

/// Pop the first `(end, start, key)` of `set` if its window end satisfies
/// `pred`.
fn pop_first_if(
    set: &mut BTreeSet<(Timestamp, Timestamp, Key)>,
    pred: impl Fn(Timestamp) -> bool,
) -> Option<(Timestamp, Timestamp, Key)> {
    if pred(set.first()?.0) {
        set.pop_first()
    } else {
        None
    }
}

/// Keyed sliding/tumbling window aggregation operator.
pub struct WindowAggregateOp {
    key_field: Option<usize>,
    state: PaneState,
    watermark: Timestamp,
    stats: WindowOpStats,
    spans: SpanRecorder,
    shard: u32,
}

impl WindowAggregateOp {
    /// Build the operator.
    ///
    /// * `spec` — window shape (validated).
    /// * `aggs` — aggregate functions (validated); at least one required.
    /// * `key_field` — optional row index to group by; `None` aggregates
    ///   globally.
    /// * `_late_policy` — [`LatePolicy::Drop`], the only policy.
    ///
    /// # Errors
    /// Propagates invalid window or aggregate parameters.
    pub fn new(
        spec: WindowSpec,
        aggs: Vec<AggregateSpec>,
        key_field: Option<usize>,
        _late_policy: LatePolicy,
    ) -> Result<Self> {
        spec.validate()?;
        for a in &aggs {
            a.validate()?;
        }
        if aggs.is_empty() {
            return Err(EngineError::InvalidAggregate(
                "window aggregation requires at least one aggregate".into(),
            ));
        }
        let mut template = Vec::new();
        let mut cols = Vec::new();
        let mut rank_fields: Vec<RankField> = Vec::new();
        let mut distinct = Vec::new();
        let mut slots = Vec::with_capacity(aggs.len());
        for a in &aggs {
            let col = a.field;
            if let Some(pane) = a.build_pane() {
                slots.push(Slot::Partial(template.len()));
                template.push(pane);
                cols.push((col, a.by_field()));
                continue;
            }
            let p = match a.kind {
                AggregateKind::Median => 0.5,
                AggregateKind::Quantile(p) => p,
                AggregateKind::DistinctCount => {
                    slots.push(Slot::Distinct(distinct.len()));
                    distinct.push(col);
                    continue;
                }
                kind => {
                    return Err(EngineError::InvalidAggregate(format!(
                        "{kind} has neither a combinable partial nor an order-statistic finalizer"
                    )))
                }
            };
            let j = rank_fields.iter().position(|f| f.col == col);
            let j = j.unwrap_or_else(|| {
                rank_fields.push(RankField {
                    col,
                    ps: Vec::new(),
                    nums: Vec::new(),
                });
                rank_fields.len() - 1
            });
            rank_fields[j].ps.push((p, slots.len()));
            slots.push(Slot::Quantile);
        }
        let state = PaneState {
            grid: Grid::new(spec.length().raw(), spec.slide().raw()),
            layout: Layout {
                template: template.into(),
                cols,
                slots,
                rank_fields,
                distinct,
            },
            keys: BTreeMap::new(),
            held: 0,
            pending: BTreeSet::new(),
            #[cfg(test)]
            pending_ops: 0,
        };
        Ok(WindowAggregateOp {
            key_field,
            state,
            watermark: Timestamp::MIN,
            stats: WindowOpStats::default(),
            spans: SpanRecorder::disabled(),
            shard: 0,
        })
    }

    /// Attach a span recorder, tagging records with `shard` (0 for
    /// sequential execution). Each window finalization records a
    /// [`Stage::WindowFinalize`] span from the window's end to the watermark
    /// that closed it — the event-time lag between a window becoming
    /// complete and the operator proving it complete — carrying the window
    /// start and the key's [`key_tag`]; each dropped late event records a
    /// [`Stage::LateDrop`] instant at its timestamp carrying its input seq.
    /// Disabled recorders cost one branch per hook.
    pub fn attach_spans(&mut self, spans: &SpanRecorder, shard: u32) {
        self.spans = spans.clone();
        self.shard = shard;
    }

    /// Does nothing: the pane state is the only window state. Kept for
    /// exactly one caller, the `quill-e2e` benchmark
    /// (`benchmark/src/layers.rs`, the `window.fold_ns_per_event` layer),
    /// which passes its freshly built operator through here with
    /// `WindowState::default()` and may not be edited by the changes it
    /// judges. Nothing inside the workspace calls this.
    pub fn with_window_state(self, _: WindowState) -> Self {
        self
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> WindowOpStats {
        self.stats
    }

    /// Events currently held in window state: the events of every key's
    /// panes. What K, the window length and one slide hold back; the
    /// `quill.window.entries` gauge sums it over a session's operators.
    pub fn held_events(&self) -> u64 {
        self.state.held
    }

    /// Bytes the window state has allocated: per key, its pane run at
    /// capacity, every pane's heap blocks (partials, value images, distinct
    /// values) and the rank indexes. Walks every pane — a diagnostic, not a
    /// gauge.
    pub fn state_bytes(&self) -> usize {
        let key_bytes = |ks: &KeyState| {
            let panes: usize = ks.panes.iter().map(|(_, pane)| pane.state_bytes()).sum();
            let ranks: usize = ks.ranks.iter().map(RankIndex::state_bytes).sum();
            ks.panes.capacity() * size_of::<(u64, Pane)>()
                + panes
                + ks.ranks.capacity() * size_of::<RankIndex>()
                + ranks
        };
        self.state.keys.values().map(key_bytes).sum()
    }

    /// Keys with an unemitted window holding an event (each counted once,
    /// however many of its windows are open).
    pub fn open_windows(&self) -> usize {
        self.state.pending.len()
    }

    /// Ingest: one fold into the event's pane of its key (and its values
    /// into the key's rank indexes) and — only when the event opens a window
    /// earlier than the key's pending one — a move of the key's entry in the
    /// emission queue.
    fn fold_event(&mut self, e: &Event) {
        let wm = self.watermark.raw();
        let fs = &mut self.state;
        let grid = fs.grid;
        let t = e.ts.raw();
        let home = grid.window(grid.home(t));
        // A window takes events while it ends past the watermark. The last
        // window containing `t` is its home window; if that one no longer
        // takes the event, none does.
        let Some(min_end) = wm.checked_add(1).filter(|&min_end| home.0.raw() >= min_end) else {
            self.stats.late_dropped += 1;
            self.spans
                .record_detail(Stage::LateDrop, t, t, self.shard, [e.seq, 0]);
            return;
        };
        fs.held += 1;
        self.stats.agg_inserts += 1;
        self.stats.accepted += 1;
        // The windows taking the event start at `first..=home`.
        let first = grid.first_start(t).max(grid.first_ending_from(min_end));
        let key = self.key_field.map_or(&Value::Null, |i| e.row.get(i));
        // The key is looked up by reference and cloned on first sight and
        // when its pending window moves.
        let ks = match fs.keys.get_mut(key as &dyn KeyView) {
            Some(ks) => ks,
            None => {
                let fresh = KeyState::new(fs.layout.rank_fields.len());
                fs.keys.entry(Key(key.clone())).or_insert(fresh)
            }
        };
        ks.fold(&fs.layout, grid.pane_of(t), t, &e.row);
        if let Some((old, new)) = ks.admit(t, first, grid) {
            fs.requeue(Key(key.clone()), old, new);
        }
    }

    fn advance_watermark(&mut self, wm: Timestamp, out: &mut dyn FnMut(WindowResult)) {
        if wm <= self.watermark {
            // Watermarks never regress; equal watermarks are idempotent.
            return;
        }
        self.watermark = wm;
        // Emit every pending window up to the watermark. Each key's windows
        // come up in order and the queue merges the keys, so emission is in
        // `(end, start, key)` order.
        while let Some((end, start, key)) = pop_first_if(&mut self.state.pending, |end| end <= wm) {
            self.emit_window((end, start), &key, out);
            self.state.advance(key, start.raw());
        }
    }

    /// Answer window `[start, end)` of `key` from its panes and emit the
    /// result, as the watermark closes the window.
    fn emit_window(
        &mut self,
        (end, start): WindowId,
        key: &Key,
        out: &mut dyn FnMut(WindowResult),
    ) {
        let (s, e) = (start.raw(), end.raw());
        let (count, aggregates) = self.state.answer(key, (s, e));
        self.stats.windows_emitted += 1;
        if self.spans.is_enabled() {
            // Window complete at `end`, proven complete at the watermark
            // that drained it (Flush sets it to MAX, which carries no event
            // time: zero lag).
            let closed = if self.watermark == Timestamp::MAX {
                e
            } else {
                self.watermark.raw()
            };
            self.spans.record_detail(
                Stage::WindowFinalize,
                e,
                closed,
                self.shard,
                [s, key_tag(&key.0)],
            );
        }
        out(WindowResult {
            key: key.0.clone(),
            window: Window::new(start, end),
            count,
            revision: 0,
            aggregates,
        });
    }

    /// Process one element, handing each result it emits to `out`. The
    /// element is borrowed: the operator copies what it keeps out of the row,
    /// so one element can be fanned out to many operators without a copy per
    /// operator. `Flush` is the watermark `Timestamp::MAX`.
    pub fn process_ref(&mut self, el: &StreamElement, out: &mut dyn FnMut(WindowResult)) {
        match el {
            StreamElement::Event(e) => self.fold_event(e),
            StreamElement::Watermark(wm) => self.advance_watermark(*wm, out),
            StreamElement::Flush => self.advance_watermark(Timestamp::MAX, out),
        }
    }
}

impl Operator for WindowAggregateOp {
    fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(WindowResult)) {
        self.process_ref(&el, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;
    use crate::value::Row;
    use quill_telemetry::Span;

    fn op(spec: WindowSpec) -> WindowAggregateOp {
        WindowAggregateOp::new(
            spec,
            vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
            None,
            LatePolicy::Drop,
        )
        .unwrap()
    }

    fn ev(ts: u64, seq: u64, v: f64) -> StreamElement {
        StreamElement::Event(Event::new(ts, seq, Row::new([Value::Float(v)])))
    }

    fn run(op: &mut WindowAggregateOp, input: Vec<StreamElement>) -> Vec<WindowResult> {
        let mut results = Vec::new();
        for el in &input {
            op.process_ref(el, &mut |r| results.push(r));
        }
        results
    }

    #[test]
    fn tumbling_sum_emits_on_watermark() {
        let mut w = op(WindowSpec::tumbling(10u64));
        let results = run(
            &mut w,
            vec![
                ev(1, 1, 1.0),
                ev(5, 2, 2.0),
                ev(12, 3, 4.0),
                StreamElement::Watermark(Timestamp(10)),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].window, Window::new(Timestamp(0), Timestamp(10)));
        assert_eq!(results[0].aggregates[0], Value::Float(3.0));
        assert_eq!(results[0].count, 2);
        assert_eq!(results[1].aggregates[0], Value::Float(4.0));
        assert_eq!(w.stats().windows_emitted, 2);
    }

    #[test]
    fn out_of_order_event_before_watermark_is_included() {
        let mut w = op(WindowSpec::tumbling(10u64));
        let results = run(
            &mut w,
            vec![ev(8, 1, 1.0), ev(2, 2, 2.0), StreamElement::Flush],
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].aggregates[0], Value::Float(3.0));
        assert_eq!(w.stats().late_dropped, 0);
    }

    #[test]
    fn late_event_is_dropped_and_counted_under_drop_policy() {
        let mut w = op(WindowSpec::tumbling(10u64));
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(10)),
                ev(3, 2, 99.0), // window [0,10) already emitted
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].aggregates[0], Value::Float(1.0));
        assert_eq!(w.stats().late_dropped, 1);
        assert_eq!(w.stats().accepted, 1);
    }

    #[test]
    fn keyed_aggregation_separates_groups() {
        let mut w = WindowAggregateOp::new(
            WindowSpec::tumbling(10u64),
            vec![AggregateSpec::new(AggregateKind::Sum, 1, "sum")],
            Some(0),
            LatePolicy::Drop,
        )
        .unwrap();
        let mk = |ts: u64, seq: u64, k: &str, v: f64| {
            StreamElement::Event(Event::new(
                ts,
                seq,
                Row::new([Value::str(k), Value::Float(v)]),
            ))
        };
        let results = run(
            &mut w,
            vec![
                mk(1, 1, "a", 1.0),
                mk(2, 2, "b", 10.0),
                mk(3, 3, "a", 2.0),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 2);
        let mut sums: Vec<(String, f64)> = results
            .iter()
            .map(|r| {
                (
                    r.key.as_str().unwrap().to_string(),
                    r.aggregates[0].as_f64().unwrap(),
                )
            })
            .collect();
        sums.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(sums, vec![("a".into(), 3.0), ("b".into(), 10.0)]);
    }

    #[test]
    fn sliding_windows_count_events_in_each_instance() {
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(10u64, 5u64),
            vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
            None,
            LatePolicy::Drop,
        )
        .unwrap();
        let results = run(&mut w, vec![ev(7, 1, 1.0), StreamElement::Flush]);
        // ts=7 belongs to [0,10) and [5,15).
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].window, Window::new(Timestamp(0), Timestamp(10)));
        assert_eq!(results[1].window, Window::new(Timestamp(5), Timestamp(15)));
        for r in &results {
            assert_eq!(r.aggregates[0], Value::Int(1));
        }
    }

    #[test]
    fn emission_order_is_by_window_end() {
        let mut w = op(WindowSpec::sliding(10u64, 5u64));
        let results = run(
            &mut w,
            vec![
                ev(3, 1, 1.0),
                ev(13, 2, 2.0),
                ev(23, 3, 4.0),
                StreamElement::Flush,
            ],
        );
        let ends: Vec<u64> = results.iter().map(|r| r.window.end.raw()).collect();
        let mut sorted = ends.clone();
        sorted.sort();
        assert_eq!(ends, sorted);
    }

    #[test]
    fn a_watermark_never_regresses() {
        // A lower watermark is ignored, so the event at 7 behind it is late
        // for the closed [0,10) instead of re-opening it; an equal one is
        // idempotent.
        let mut w = op(WindowSpec::tumbling(10u64));
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(10)),
                StreamElement::Watermark(Timestamp(5)),
                ev(7, 2, 2.0),
                ev(15, 3, 4.0),
                StreamElement::Watermark(Timestamp(10)),
                StreamElement::Watermark(Timestamp(20)),
            ],
        );
        let got: Vec<(u64, u64, Value)> = results
            .iter()
            .map(|r| (r.window.end.raw(), r.count, r.aggregates[0].clone()))
            .collect();
        assert_eq!(
            got,
            vec![(10, 1, Value::Float(1.0)), (20, 1, Value::Float(4.0))]
        );
        assert_eq!(w.stats().late_dropped, 1);
    }

    #[test]
    fn rejects_empty_aggregate_list() {
        assert!(WindowAggregateOp::new(
            WindowSpec::tumbling(10u64),
            vec![],
            None,
            LatePolicy::Drop
        )
        .is_err());
    }

    #[test]
    fn sliding_sum_variance_share_pane_state() {
        // Sliding Sum/Variance must not recompute from raw window contents on
        // emit, nor fold an event into each of its length/slide = 5 windows:
        // exactly one fold of the event's pane partials per event, shared by
        // every window that covers it.
        let specs = vec![
            AggregateSpec::new(AggregateKind::Sum, 0, "s"),
            AggregateSpec::new(AggregateKind::Variance, 0, "v"),
        ];
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(100u64, 20u64),
            specs.clone(),
            None,
            LatePolicy::Drop,
        )
        .unwrap();
        let n = 500u64;
        let value = |i: u64| (i % 13) as f64;
        let input: Vec<StreamElement> = (0..n)
            .map(|i| ev(i * 3, i, value(i)))
            .chain([StreamElement::Flush])
            .collect();
        let results = run(&mut w, input);
        assert_eq!(
            w.stats().agg_inserts,
            n,
            "each event must be folded exactly once"
        );
        assert_eq!(w.stats().accepted, n);
        assert_eq!(w.open_windows(), 0);
        // Every window equals its contents' sum exactly (integer-valued
        // floats) and their two-pass variance within the DESIGN.md §17.4
        // combine-nesting tolerance.
        assert_eq!(results.len(), 75); // starts 0, 20, …, 1480 cover ts ≤ 1497
        for r in &results {
            let members: Vec<f64> = (0..n)
                .filter(|i| r.window.contains(Timestamp(i * 3)))
                .map(value)
                .collect();
            let len = members.len() as f64;
            let sum: f64 = members.iter().sum();
            let mean = sum / len;
            assert_eq!(r.count, members.len() as u64);
            assert_eq!(r.aggregates[0], Value::Float(sum));
            let (got, want) = (
                r.aggregates[1].as_f64().unwrap(),
                members.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / len,
            );
            assert!(
                (got - want).abs() <= 1e-9 * got.abs().max(want.abs()),
                "variance diverged in {:?}: {got} vs {want}",
                r.window
            );
        }
    }

    /// Keyed stream with 15 % stragglers up to 3 000 behind, a watermark
    /// trailing the clock by 100 every 50 units.
    fn straggler_stream(events: u64, keys: u64) -> Vec<StreamElement> {
        let mut input = Vec::new();
        for i in 0..events {
            let clock = i * 2;
            let ts = match i % 20 {
                3 | 11 | 17 => clock.saturating_sub(1_000 + (i * 7) % 2_000),
                _ => clock,
            };
            let row = Row::new([Value::Int((i % keys) as i64), Value::Float((i % 97) as f64)]);
            input.push(StreamElement::Event(Event::new(ts, i, row)));
            if clock % 50 == 0 {
                input.push(StreamElement::Watermark(Timestamp(
                    clock.saturating_sub(100),
                )));
            }
        }
        input.push(StreamElement::Flush);
        input
    }

    #[test]
    fn order_statistics_fold_once_whatever_the_overlap() {
        // Forty overlapping windows per event, two order statistics: still
        // one pane fold per accepted event, and no per-window state.
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(10_000u64, 250u64),
            vec![
                AggregateSpec::new(AggregateKind::Median, 1, "med"),
                AggregateSpec::new(AggregateKind::Quantile(0.9), 1, "p90"),
            ],
            Some(0),
            LatePolicy::Drop,
        )
        .unwrap();
        let results = run(&mut w, straggler_stream(20_000, 4));
        let stats = w.stats();
        assert_eq!(stats.agg_inserts, stats.accepted);
        assert_eq!(stats.accepted + stats.late_dropped, 20_000);
        assert!(stats.accepted > 19_000 && !results.is_empty());
        assert_eq!(w.open_windows(), 0);
        assert!(w.state.keys.is_empty());
    }

    #[test]
    fn pending_queue_moves_per_key_and_slide_not_per_event() {
        // 20 000 events × 40 windows each used to mean 800 000 insertions
        // into the emission queue. Now a key enters it once and each of its
        // emitted windows re-inserts it at most once; only a straggler
        // opening an earlier window than the queued one moves an entry.
        let keys = 4;
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(10_000u64, 250u64),
            vec![AggregateSpec::new(AggregateKind::Sum, 1, "sum")],
            Some(0),
            LatePolicy::Drop,
        )
        .unwrap();
        let results = run(&mut w, straggler_stream(20_000, keys));
        let emitted = w.stats().windows_emitted;
        assert_eq!(results.len() as u64, emitted);
        // Window starts 0, 250, …, 39 750: 160 per key.
        assert_eq!(emitted, keys * 160);
        let ops = w.state.pending_ops;
        assert!(
            ops <= emitted + 2 * keys,
            "{ops} queue insertions for {emitted} windows of {keys} keys"
        );
    }

    /// State bytes per held event of `sliding:1000:250` over `aggs`, keyed by
    /// field 1, after 50 000 in-order events over 4 keys, 12 a time unit,
    /// K = 100: the panes hold a window, K and a slide of them. A flush must
    /// leave nothing allocated.
    fn bytes_per_held_event(aggs: Vec<AggregateSpec>) -> f64 {
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(1_000u64, 250u64),
            aggs,
            Some(1),
            LatePolicy::Drop,
        )
        .unwrap();
        for i in 0..50_000u64 {
            let ts = i / 12;
            let row = Row::new([Value::Float((i % 97) as f64), Value::Int((i % 4) as i64)]);
            w.process_ref(&StreamElement::Event(Event::new(ts, i, row)), &mut |_| {});
            if i % 600 == 0 {
                w.process_ref(
                    &StreamElement::Watermark(Timestamp(ts.saturating_sub(100))),
                    &mut |_| {},
                );
            }
        }
        assert_eq!(w.stats().accepted, 50_000);
        let held = w.held_events();
        let in_panes: u64 = w.state.keys.values().map(KeyState::held).sum();
        assert_eq!(held, in_panes, "the counter tracks folds and evictions");
        assert!(
            (9_000..=16_000).contains(&held),
            "between a window less a slide and a window plus K: {held}"
        );
        let per_event = w.state_bytes() as f64 / held as f64;
        w.process_ref(&StreamElement::Flush, &mut |_| {});
        assert_eq!((w.held_events(), w.state_bytes()), (0, 0));
        per_event
    }

    #[test]
    fn a_held_event_costs_its_entry_not_a_heap_block() {
        // mean:0,max:0 — combinable only, so a held event costs nothing of
        // its own: its key's pane of 250 time units (750 events here) holds
        // one partial per spec, and a key holds about four panes. Measured
        // 0.37 B; the finger B-tree the panes replaced held 67 B per event.
        let per_event = bytes_per_held_event(vec![
            AggregateSpec::new(AggregateKind::Mean, 0, "mean"),
            AggregateSpec::new(AggregateKind::Max, 0, "max"),
        ]);
        assert!(per_event <= 1.0, "{per_event:.2} B per held event");
    }

    #[test]
    fn a_held_order_statistic_event_adds_one_rank_index_slot() {
        // median:0,q0.9:0 — one rank field, so a held event is its 8 B value
        // image twice: in its pane's image run (a vector grown by doubling)
        // and in its key's rank index, whose 64-slot chunks run half to
        // wholly full. Measured 26 B; the tree held 77 B.
        let per_event = bytes_per_held_event(vec![
            AggregateSpec::new(AggregateKind::Median, 0, "med"),
            AggregateSpec::new(AggregateKind::Quantile(0.9), 0, "p90"),
        ]);
        assert!(per_event <= 32.0, "{per_event:.1} B per held event");
    }

    #[test]
    fn sparse_and_far_future_events_hold_state_per_event_not_per_time_unit() {
        // `sliding:1000:333` has panes of width gcd(1000, 333) = 1. A key
        // that receives one event every ten windows, and one event 10^12
        // past the rest, hold one pane per event: neither the gaps nor the
        // span allocate anything.
        let aggs = vec![
            AggregateSpec::new(AggregateKind::Sum, 0, "sum"),
            AggregateSpec::new(AggregateKind::Median, 0, "med"),
            AggregateSpec::new(AggregateKind::DistinctCount, 0, "n"),
        ];
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(1_000u64, 333u64),
            aggs,
            None,
            LatePolicy::Drop,
        )
        .unwrap();
        assert_eq!(w.state.grid.pane, 1);
        let mut max_per_event = 0.0f64;
        for i in 0..200u64 {
            let ts = i * 10_000 + 7;
            w.process_ref(&ev(ts, i, i as f64), &mut |_| {});
            // Closes every window of the event before, none of this one's.
            w.process_ref(&StreamElement::Watermark(Timestamp(ts - 1)), &mut |_| {});
            let held = w.held_events();
            assert_eq!(held, 1, "after event {i}");
            max_per_event = max_per_event.max(w.state_bytes() as f64 / held as f64);
        }
        w.process_ref(&ev(1_000_000_000_000, 200, 1.0), &mut |_| {});
        let held = w.held_events();
        let per_event = w.state_bytes() as f64 / held as f64;
        let panes: usize = w.state.keys.values().map(|ks| ks.panes.len()).sum();
        assert_eq!(panes as u64, held, "one pane per held event");
        // A pane's Sum partial, image run and distinct run, the key's pane
        // slots and its rank index, whose one 64-slot chunk (512 B) is most
        // of it. Measured 716 B (two events) and at most 1 192 B (one).
        assert!(
            per_event <= 1_200.0 && max_per_event <= 1_200.0,
            "{per_event:.0} / {max_per_event:.0} B per held event"
        );
        let mut results = Vec::new();
        w.process_ref(&StreamElement::Flush, &mut |r| results.push(r));
        assert_eq!(w.state_bytes(), 0);
        // Three windows of the far-future event, each holding it alone.
        let last: Vec<(u64, u64)> = results
            .iter()
            .rev()
            .take(3)
            .map(|r| (r.window.start.raw(), r.count))
            .collect();
        assert_eq!(
            last,
            vec![
                (999_999_999_999 / 333 * 333, 1),
                (999_999_999_999 / 333 * 333 - 333, 1),
                (999_999_999_999 / 333 * 333 - 666, 1),
            ]
        );
    }

    #[test]
    fn timestamps_at_the_top_of_the_time_range_fill_the_windows_they_lie_in() {
        // Window ends past `u64::MAX` saturate to it, so the last windows
        // are shorter and an event at `u64::MAX` lies in none. Pane widths
        // 2 (which does not divide `u64::MAX`), 3 (which does) and 1.
        let top = u64::MAX;
        let stamps = [top - 12, top - 7, top - 3, top - 2, top - 1, top, top];
        for spec in [
            WindowSpec::sliding(10u64, 4u64),
            WindowSpec::sliding(9u64, 6u64),
            WindowSpec::sliding(5u64, 1u64),
        ] {
            let mut w = WindowAggregateOp::new(
                spec,
                vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
                None,
                LatePolicy::Drop,
            )
            .unwrap();
            let input = (0u64..)
                .zip(stamps)
                .map(|(seq, ts)| ev(ts, seq, 1.0))
                .chain([StreamElement::Flush])
                .collect();
            let got: Vec<(u64, u64)> = run(&mut w, input)
                .iter()
                .map(|r| (r.window.start.raw(), r.count))
                .collect();
            let (length, slide) = (spec.length().raw(), spec.slide().raw());
            let first = (top - 12 - length) / slide * slide;
            let mut want: Vec<(u64, u64, u64)> =
                std::iter::successors(Some(first), |s| s.checked_add(slide))
                    .filter_map(|s| {
                        let e = s.saturating_add(length);
                        let n = stamps.iter().filter(|&&t| s <= t && t < e).count() as u64;
                        (n > 0).then_some((e, s, n))
                    })
                    .collect();
            want.sort_unstable();
            let want: Vec<(u64, u64)> = want.into_iter().map(|(_, s, n)| (s, n)).collect();
            assert_eq!(got, want, "{spec}");
            assert_eq!(w.stats().accepted, stamps.len() as u64, "{spec}");
            assert_eq!((w.held_events(), w.open_windows()), (0, 0), "{spec}");
        }
    }

    /// Every key's rank indexes against the numeric values its panes hold.
    fn assert_indexes_follow_panes(w: &WindowAggregateOp, after: usize) {
        let fs = &w.state;
        for (key, ks) in &fs.keys {
            assert!(ks.panes.iter().all(|(_, pane)| pane.count > 0));
            assert!(ks
                .panes
                .iter()
                .zip(ks.panes.iter().skip(1))
                .all(|(a, b)| a.0 < b.0));
            assert_eq!(ks.ranks.len(), fs.layout.rank_fields.len());
            for (j, (f, index)) in fs.layout.rank_fields.iter().zip(&ks.ranks).enumerate() {
                let mut held: Vec<u64> = ks
                    .panes
                    .iter()
                    .flat_map(|(_, pane)| pane.images[j].iter().copied())
                    .collect();
                held.sort_unstable();
                assert!(
                    index.iter().eq(held.iter().copied()),
                    "key {key:?}, field {}, after element {after}",
                    f.col
                );
            }
        }
    }

    #[test]
    fn the_rank_index_follows_the_panes() {
        // Appends; stragglers 15 behind (into open windows), 35 behind (into
        // their last one or two windows, the earlier ones closed) and 90
        // behind (dropped); slide evictions; a key that stops at element 300 and is dropped whole;
        // Flush. After every element each key's index holds exactly the
        // numeric values its panes hold.
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(40u64, 10u64),
            vec![
                AggregateSpec::new(AggregateKind::Median, 1, "med"),
                AggregateSpec::new(AggregateKind::Quantile(0.9), 1, "p90"),
                AggregateSpec::new(AggregateKind::Quantile(0.2), 2, "p20"),
                AggregateSpec::new(AggregateKind::Sum, 2, "sum"),
            ],
            Some(0),
            LatePolicy::Drop,
        )
        .unwrap();
        let mut input = Vec::new();
        for i in 0..600u64 {
            let ts = match i % 10 {
                3 => i.saturating_sub(15),
                6 => i.saturating_sub(35),
                8 => i.saturating_sub(90),
                _ => i,
            };
            let key = if i < 300 { i % 3 } else { i % 2 };
            let v = match i % 7 {
                0 => Value::Null,
                1 => Value::str("x"),
                2 => Value::Float(f64::NAN),
                _ => Value::Int((i % 13) as i64),
            };
            let row = Row::new([Value::Int(key as i64), v, Value::Float((i % 5) as f64)]);
            input.push(StreamElement::Event(Event::new(ts, i, row)));
            if i % 4 == 0 {
                input.push(StreamElement::Watermark(Timestamp(i.saturating_sub(5))));
            }
        }
        let stopped = Key(Value::Int(2));
        let mut seen_stopped = false;
        for (n, el) in input.into_iter().enumerate() {
            w.process_ref(&el, &mut |_| {});
            assert_indexes_follow_panes(&w, n);
            seen_stopped |= w.state.keys.contains_key(&stopped);
        }
        assert!(seen_stopped && !w.state.keys.contains_key(&stopped));
        let stats = w.stats();
        assert!(stats.late_dropped > 0, "{stats:?}");
        assert!(w.state.keys.values().any(|ks| ks.ranks[0].len() > 0));
        w.process_ref(&StreamElement::Flush, &mut |_| {});
        assert!(w
            .state
            .keys
            .values()
            .all(|ks| ks.ranks.iter().all(|r| r.len() == 0)));
        assert!(w.state.keys.is_empty());
    }

    #[test]
    fn absorb_is_combine_of_seed_bit_for_bit_for_every_combinable_kind() {
        // A pane partial built by absorbing events one by one must equal one
        // built by combining their one-event partials, state for state:
        // otherwise a result would depend on how the events happen to fall
        // into panes.
        let values = [
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(f64::INFINITY),
            Value::Float(0.1),
            Value::Null,
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::NAN),
            Value::Int(i64::MAX),
            Value::Float(-2.5e-310),
            Value::str("x"),
            Value::Float(1.0e16),
            Value::Int(-7),
            Value::Float(-f64::NAN),
        ];
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
            let w = WindowAggregateOp::new(
                WindowSpec::tumbling(10u64),
                vec![spec],
                None,
                LatePolicy::Drop,
            )
            .unwrap();
            let fresh = &w.state.layout.template[0];
            let seed = |ts: u64, v: &Value, by: &Value| {
                let mut one = fresh.clone();
                one.insert(Timestamp(ts), v, by);
                one
            };
            // Every rotation of the value list as the fold order, the `by`
            // field (ArgMin/ArgMax) running the other way, timestamps tied
            // in pairs.
            for shift in 0..values.len() {
                let event = |i: usize| {
                    let v = values[(i + shift) % values.len()].clone();
                    let by = values[(2 * values.len() - i - shift) % values.len()].clone();
                    (i as u64 / 2, v, by)
                };
                let (ts, v, by) = event(0);
                let mut absorbed = seed(ts, &v, &by);
                let mut combined = absorbed.clone();
                for i in 1..values.len() {
                    let (ts, v, by) = event(i);
                    absorbed.absorb(fresh, Timestamp(ts), &v, &by);
                    combined.merge(&seed(ts, &v, &by));
                    assert_eq!(
                        format!("{absorbed:?}"),
                        format!("{combined:?}"),
                        "{kind} after {i} events from rotation {shift}"
                    );
                    let (a, c) = (absorbed.finalize(), combined.finalize());
                    let same_bits = match (&a, &c) {
                        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                        _ => a == c,
                    };
                    assert!(same_bits, "{kind}: {a:?} vs {c:?}");
                }
            }
        }
    }

    #[test]
    fn trace_records_finalize_and_late_drops() {
        let rec = SpanRecorder::new(64);
        let mut w = op(WindowSpec::tumbling(10u64));
        w.attach_spans(&rec, 3);
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(10)),
                ev(3, 2, 99.0), // window [0,10) already finalized
                StreamElement::Flush,
            ],
        );
        let recorded = rec.spans();
        let fins: Vec<&Span> = recorded
            .iter()
            .filter(|s| s.stage == Stage::WindowFinalize)
            .collect();
        assert_eq!(fins.len(), 1);
        assert_eq!(fins[0].shard, 3);
        // Window [0, 10) of key null, finalized with its one tuple.
        assert_eq!((fins[0].detail[0], fins[0].begin), (0, 10));
        assert_eq!(fins[0].detail[1], key_tag("null"));
        let counts: Vec<(u64, u64, u64)> = results
            .iter()
            .map(|r| (r.window.start.raw(), r.window.end.raw(), r.count))
            .collect();
        assert_eq!(counts, vec![(0, 10, 1)]);
        // The drop names input seq 2 at ts 3, which counts for [0, 10).
        let drops: Vec<(u64, u64)> = recorded
            .iter()
            .filter(|s| s.stage == Stage::LateDrop)
            .map(|s| (s.detail[0], s.begin))
            .collect();
        assert_eq!(drops, vec![(2, 3)]);
    }

    #[test]
    fn spans_record_window_finalize_lag_on_both_paths() {
        // Watermark path: window [0,10) closes at wm=25 → span [10, 25].
        // Flush path: window [30,40) is forced closed and records zero lag.
        let spans = SpanRecorder::new(64);
        let mut w = op(WindowSpec::tumbling(10u64));
        w.attach_spans(&spans, 5);
        let _ = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(25)),
                ev(35, 2, 2.0),
                StreamElement::Flush,
            ],
        );
        let rec = spans.spans();
        assert!(rec
            .iter()
            .all(|s| s.stage == Stage::WindowFinalize && s.shard == 5));
        let pairs: Vec<(u64, u64)> = rec.iter().map(|s| (s.begin, s.end)).collect();
        assert_eq!(pairs, vec![(10, 25), (40, 40)]);
    }

    #[test]
    fn flush_emits_everything() {
        let mut w = op(WindowSpec::tumbling(10u64));
        let results = run(
            &mut w,
            vec![ev(5, 1, 1.0), ev(105, 2, 2.0), StreamElement::Flush],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(w.open_windows(), 0);
    }

    #[test]
    fn sliding_windows_trace_finalize_late_drops_and_spans() {
        // Sliding windows, one late event: the finalize and late-drop
        // records carry the right payloads and the finalize lags.
        let spans = SpanRecorder::new(64);
        let mut w = op(WindowSpec::sliding(20u64, 10u64));
        w.attach_spans(&spans, 0);
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                ev(15, 2, 2.0),
                StreamElement::Watermark(Timestamp(40)),
                ev(3, 3, 9.0), // only window [0,20), finalized at wm=40
                StreamElement::Flush,
            ],
        );
        let recorded = spans.spans();
        let fins: Vec<&Span> = recorded
            .iter()
            .filter(|s| s.stage == Stage::WindowFinalize)
            .collect();
        let bounds: Vec<(u64, u64)> = fins.iter().map(|s| (s.detail[0], s.begin)).collect();
        assert_eq!(bounds, vec![(0, 20), (10, 30)]);
        let counts: Vec<u64> = results.iter().map(|r| r.count).collect();
        assert_eq!(counts, vec![2, 1]);
        let drops: Vec<(u64, u64)> = recorded
            .iter()
            .filter(|s| s.stage == Stage::LateDrop)
            .map(|s| (s.detail[0], s.begin))
            .collect();
        assert_eq!(drops, vec![(3, 3)]);
        let pairs: Vec<(u64, u64)> = fins.iter().map(|s| (s.begin, s.end)).collect();
        assert_eq!(pairs, vec![(20, 40), (30, 40)]);
    }
}
