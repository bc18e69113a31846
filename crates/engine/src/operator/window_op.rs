//! Keyed windowed aggregation with event-time semantics.
//!
//! [`WindowAggregateOp`] folds each event once into the state of its grouping
//! key and emits one [`WindowResult`] per (key, window) when the watermark
//! passes the window's end. Events arriving *after* their window was already
//! finalized are handled according to [`LatePolicy`]: counted and dropped, or
//! emitted as revised ("update") results.
//!
//! This operator is the consumer side of the quality/latency trade-off: the
//! disorder-control strategies in `quill-core` decide how long to hold
//! events (and therefore where watermarks sit); this operator turns those
//! watermarks into results whose completeness the metrics crate scores.
//!
//! ## Window state
//!
//! There is one state layout, FiBA ([`crate::fiba`]; DESIGN.md §17). Per key,
//! one finger B-tree over `(ts, seq)` keys holds one *entry* per event: the
//! values of the distinct row fields the specs read (each spec's field, the
//! `by` field of ArgMin/ArgMax), copied out of the row into the leaf's arrays
//! — 16 + 24 × fields bytes, no heap block per event, the same layout for all
//! fourteen kinds. Partials of the combinable kinds live only in the tree's
//! node caches, built by folding entries (`EntryFold`). An event is stored
//! *once*, whatever the window shape and the aggregate kinds
//! ([`WindowOpStats::agg_inserts`] counts it) — an in-order arrival is an
//! append at the tree's right finger. Window finalize is a range query over
//! cached subtree combines. Median and Quantile are answered from a per-key
//! rank index of the numeric values the tree holds, less the few entries
//! the tree holds outside the window; DistinctCount visits the window's
//! entries in place. The slide bulk-evicts everything no later window can
//! cover, and takes the evicted entries out of the rank index.
//!
//! Which window to emit next is tracked per *key*, not per (window, event):
//! the emission queue holds each key's earliest unemitted non-empty window.
//! An event moves its key's entry only when it opens an earlier window than
//! that, and emitting a window finds its successor from the first event the
//! tree still holds — windows nothing fell into are never visited.
//!
//! Under [`LatePolicy::Revise`] an emitted window stays in its key's
//! `emitted` map until the watermark passes `end + allowed_lateness`: a late
//! event re-runs its query and emits the next revision, and eviction cuts at
//! the start of the oldest window still tracked.

use crate::aggregate::{quantile_of_ranks, AggregateKind, AggregateSpec, PaneAgg};
use crate::error::{EngineError, Result};
use crate::event::{Event, StreamElement};
use crate::fiba::{FibaFold, FibaKey, FibaTree, WindowState};
use crate::operator::rank_index::{float, image, RankIndex};
use crate::operator::Operator;
use crate::time::Timestamp;
use crate::value::{Key, KeyView, Value};
use crate::window::{Window, WindowSpec};
use quill_telemetry::span::key_tag;
use quill_telemetry::{SpanRecorder, Stage};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// What to do with an event whose window has already been finalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatePolicy {
    /// Count the event in [`WindowOpStats::late_dropped`] and discard it.
    Drop,
    /// Re-open the window, fold the event in, and emit a *revision*
    /// (flagged by [`WindowResult::revision`]). State for revised windows is
    /// retained until `allowed_lateness` past the window end, then
    /// discarded.
    Revise {
        /// How long past the window end (in time units) revisions are
        /// accepted before state is dropped for good.
        allowed_lateness: u64,
    },
}

impl LatePolicy {
    /// The smallest window end that still takes events at watermark `wm`
    /// (`None`: no window does). An open window always takes events, a closed
    /// one only under `Revise` and only until its allowed lateness runs out.
    /// Non-decreasing in `wm`, so a window that stopped taking events never
    /// takes one again (watermarks never regress).
    fn open_from(self, wm: u64) -> Option<u64> {
        match self {
            LatePolicy::Drop => wm.checked_add(1),
            LatePolicy::Revise { allowed_lateness } => Some(wm.saturating_sub(allowed_lateness)),
        }
    }

    /// Whether a window ending at `end` still takes events at watermark `wm`.
    fn accepts(self, end: u64, wm: u64) -> bool {
        self.open_from(wm).is_some_and(|min_end| end >= min_end)
    }
}

/// Counters the operator maintains; read them after a run to account for
/// every input event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowOpStats {
    /// Events folded into at least one open window.
    pub accepted: u64,
    /// Events that arrived after their last window was finalized and were
    /// dropped (under [`LatePolicy::Drop`], or past allowed lateness).
    pub late_dropped: u64,
    /// Revision results emitted (under [`LatePolicy::Revise`]).
    pub revisions: u64,
    /// Window results emitted (first emissions, not revisions).
    pub windows_emitted: u64,
    /// Aggregate-state folds performed: one time-tree insert per accepted
    /// event, whatever the window shape and the aggregate kinds — always
    /// equal to `accepted`.
    pub agg_inserts: u64,
}

/// One result of [`WindowAggregateOp`]: a (key, window) answer, first
/// emitted when the watermark passes the window's end and, under
/// [`LatePolicy::Revise`], again as a revision for every late event that
/// reaches it.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Grouping key (`Null` for global aggregation).
    pub key: Value,
    /// The window.
    pub window: Window,
    /// Number of events folded into this result.
    pub count: u64,
    /// 0 for a first emission, `n` for the n-th revision.
    pub revision: u64,
    /// One output per [`AggregateSpec`], in spec order.
    pub aggregates: Vec<Value>,
}

/// How the time trees fold. An entry is the event's `(ts, seq)` key and its
/// value of every entry column; a node cache is one partial per combinable
/// spec. Folding in `(ts, seq)` key order is a fold in timestamp order with
/// arrival order breaking ties (`seq` is the arrival position), whatever
/// order the entries were inserted in, which is what the Edge/Arg tie rules
/// are defined over.
struct EntryFold {
    /// Fresh partials, one per [`Slot::Pane`] in slot order: the identity
    /// every one-entry partial starts from.
    template: Box<[PaneAgg]>,
    /// Per partial, the entry columns of its spec's field and `by` field.
    cols: Vec<(usize, usize)>,
}

impl FibaFold for EntryFold {
    type Val = Value;
    type Agg = Box<[PaneAgg]>;

    fn seed(&self, (ts, _): FibaKey, vals: &[Value]) -> Box<[PaneAgg]> {
        let mut one = self.template.clone();
        for (a, &(v, by)) in one.iter_mut().zip(&self.cols) {
            a.insert(Timestamp(ts), &vals[v], &vals[by]);
        }
        one
    }

    fn combine(&self, acc: &mut Box<[PaneAgg]>, later: &Box<[PaneAgg]>) {
        for (a, b) in acc.iter_mut().zip(later.iter()) {
            a.merge(b);
        }
    }

    /// `combine ∘ seed` partial by partial, each one-entry partial on the
    /// stack instead of in a boxed slice.
    fn absorb(&self, acc: &mut Box<[PaneAgg]>, (ts, _): FibaKey, vals: &[Value]) {
        for ((a, fresh), &(v, by)) in acc.iter_mut().zip(&self.template).zip(&self.cols) {
            a.absorb(fresh, Timestamp(ts), &vals[v], &vals[by]);
        }
    }
}

/// Where one [`AggregateSpec`]'s output comes from at emission.
#[derive(Clone, Copy)]
enum Slot {
    /// Combinable: partial `.0` of the window's range aggregate.
    Pane(usize),
    /// Median/Quantile: written by the spec's [`RankField`], which knows its
    /// quantile and position.
    Quantile,
    /// DistinctCount: the distinct non-null values of entry column
    /// `distinct[.0]`.
    Distinct(usize),
}

/// One entry column read by Median/Quantile specs. Every key holds one
/// `RankIndex` per such column, of the numeric values (non-numeric ones are
/// skipped) of exactly the entries its tree holds.
struct RankField {
    /// The field's entry column.
    col: usize,
    /// The Median/Quantile specs on the field as `(quantile, spec position)`.
    ps: Vec<(f64, usize)>,
    /// The images of the numeric values the tree holds outside the window
    /// being answered, sorted; reused across emissions.
    nums: Vec<u64>,
}

/// A window as `(end, start)` — the order windows are emitted in.
type WindowId = (Timestamp, Timestamp);

/// The window grid: `[start, start + length)` for every multiple `start` of
/// `slide` (`1 <= slide <= length`).
#[derive(Clone, Copy)]
struct Grid {
    length: u64,
    slide: u64,
}

impl Grid {
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
}

/// Window state for one grouping key.
struct FibaKeyState {
    /// Finger B-tree over `(ts, seq)` holding one entry per accepted event;
    /// window finalize is a query over `[start, end)`.
    time: FibaTree<EntryFold>,
    /// One per [`RankField`]: the numeric values of that column over exactly
    /// the entries `time` holds.
    ranks: Vec<RankIndex>,
    /// The key's earliest unemitted window holding an event — its entry in
    /// [`FibaState::pending`].
    next: Option<WindowId>,
    /// `Revise` only: emission count of every emitted window still inside
    /// its allowed lateness. Stays empty under `Drop`.
    emitted: BTreeMap<WindowId, u64>,
}

impl FibaKeyState {
    fn new(width: usize, rank_fields: usize) -> Self {
        FibaKeyState {
            time: FibaTree::new(width),
            ranks: (0..rank_fields).map(|_| RankIndex::default()).collect(),
            next: None,
            emitted: BTreeMap::new(),
        }
    }

    /// Queue one event, just inserted at `at`, whose accepting windows start
    /// at `first..=home(t)`.
    /// Returns `(old, new)` when the key's pending window moves down to
    /// `new`: the first of those windows not emitted yet, if it precedes the
    /// pending one.
    fn admit(
        &mut self,
        at: FibaKey,
        first: u64,
        grid: Grid,
    ) -> Option<(Option<WindowId>, WindowId)> {
        let (mut start, home) = (first, grid.home(at.0));
        for (&(_, emitted), _) in self.emitted.range(grid.window(first)..=grid.window(home)) {
            if emitted.raw() == start {
                if start == home {
                    return None; // every window it reaches is a revision
                }
                start += grid.slide;
            }
        }
        let new = grid.window(start);
        // `new.0 <= at.0`: the end saturated at `u64::MAX` and the event sits
        // on it, inside no window.
        if new.0.raw() <= at.0 || self.next.is_some_and(|next| next <= new) {
            return None;
        }
        Some((self.next.replace(new), new))
    }

    /// The earliest unemitted window starting at or after `from` that holds
    /// an event: the first window of the first such event, unless it was
    /// emitted already (`Revise`), in which case the search resumes past it.
    fn successor(&self, mut from: u64, grid: Grid) -> Option<WindowId> {
        loop {
            let (t0, _) = self.time.first_key_from((from, 0))?;
            let w = grid.window(from.max(grid.first_start(t0)));
            if w.0.raw() <= t0 {
                return None; // an event on a saturated end, as in `admit`
            }
            if !self.emitted.contains_key(&w) {
                return Some(w);
            }
            from = w.1.raw().saturating_add(grid.slide);
        }
    }
}

/// The operator's window state (see the module docs).
struct FibaState {
    grid: Grid,
    /// The entry layout: the row index of every entry column — the distinct
    /// fields the specs read.
    fields: Vec<usize>,
    /// The next entry, copied out of its event's row (reused).
    entry: Vec<Value>,
    fold: EntryFold,
    /// Per spec, where its output comes from.
    slots: Vec<Slot>,
    /// The entry columns Median/Quantile specs read.
    rank_fields: Vec<RankField>,
    /// The entry columns DistinctCount specs read.
    distinct: Vec<usize>,
    keys: BTreeMap<Key, FibaKeyState>,
    /// Entries in all the trees of `keys`.
    held: u64,
    /// Every key's `next` window as `(end, start, key)`, drained in emission
    /// order as the watermark advances.
    pending: BTreeSet<(Timestamp, Timestamp, Key)>,
    /// `Revise` only: emitted windows still inside their allowed lateness,
    /// in the order they expire.
    retained: BTreeSet<(Timestamp, Timestamp, Key)>,
    /// Inserts into `pending` and removals other than the drain's pops (of
    /// which there is at most one per insert).
    #[cfg(test)]
    pending_ops: u64,
}

impl FibaState {
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

    /// `key`'s pending window `w` was just popped and emitted: keep it
    /// revisable while `retain`, queue the key's next window and let go of
    /// what no tracked window covers.
    fn advance(&mut self, key: Key, w: WindowId, retain: bool) {
        let Some(ks) = self.keys.get_mut(&key) else {
            return;
        };
        if retain {
            ks.emitted.insert(w, 1);
            self.retained.insert((w.0, w.1, key.clone()));
        }
        ks.next = ks.successor(w.1.raw().saturating_add(self.grid.slide), self.grid);
        let next = ks.next;
        self.settle(&key);
        if let Some(next) = next {
            self.requeue(key, None, next);
        }
    }

    /// Bulk-evict what no tracked window of `key` — its `next` and its
    /// `emitted` ones — can ask for again: everything before the oldest one's
    /// start (later unemitted windows start after `next`), whose values
    /// leave the key's rank indexes first. A key with no tracked window is
    /// dropped whole, its indexes with it.
    fn settle(&mut self, key: &Key) {
        let Some(ks) = self.keys.get_mut(key) else {
            return;
        };
        let tracked = ks.next.iter().chain(ks.emitted.keys().next());
        let Some(start) = tracked.map(|w| w.1.raw()).min() else {
            self.held -= self.keys.remove(key).map_or(0, |ks| ks.time.len());
            return;
        };
        if start > 0 && !ks.ranks.is_empty() {
            let (fields, ranks) = (&self.rank_fields, &mut ks.ranks);
            ks.time
                .for_each_range((0, 0), (start - 1, u64::MAX), &mut |_, vals| {
                    for (f, index) in fields.iter().zip(ranks.iter_mut()) {
                        if let Some(x) = vals[f.col].as_f64() {
                            index.remove(image(x));
                        }
                    }
                });
        }
        self.held -= ks.time.evict_before((start, 0));
    }

    /// Entry count and one output per spec, in spec order, for `key`'s
    /// window `[s, e)`: combinable kinds from the range aggregate,
    /// Median/Quantile from the key's rank indexes, DistinctCount from one
    /// in-order visit of the window that reads its columns in place
    /// (the non-null values, distinct in [`Key`] order).
    ///
    /// A rank index holds the numeric values of every entry the tree holds,
    /// so the window's values are the index less those of the entries
    /// outside `[s, e)` — under `Drop`, at a first emission, only what
    /// arrived past `e`. Two range visits collect them, and each rank
    /// `quantile_of_ranks` reads is selected from the difference in the
    /// `total_cmp` order, so the output is that of the window's values
    /// sorted, bit for bit.
    fn answer(&mut self, key: &Key, (s, e): (u64, u64)) -> (u64, Vec<Value>) {
        // A window ends at `start + length >= 1`, so `e - 1` cannot underflow.
        let (lo, hi) = ((s, 0), (e - 1, u64::MAX));
        // Defensive: a queued window always has its key, but answer with an
        // empty result rather than lose the window.
        let mut ks = self.keys.get_mut(key);
        let (combined, count) = ks
            .as_mut()
            .map_or((None, 0), |ks| ks.time.range_agg(&self.fold, lo, hi));
        let ks = ks.map(|ks| &*ks);
        let cols = &self.distinct;
        let mut distinct: Vec<BTreeSet<&dyn KeyView>> =
            cols.iter().map(|_| BTreeSet::new()).collect();
        if let Some(ks) = ks.filter(|_| !cols.is_empty()) {
            ks.time.for_each_range(lo, hi, &mut |_, vals| {
                for (&col, seen) in cols.iter().zip(&mut distinct) {
                    let v = &vals[col];
                    if !v.is_null() {
                        seen.insert(v);
                    }
                }
            });
        }
        let partials = combined.as_ref().unwrap_or(&self.fold.template);
        let finalize = |slot: &Slot| match *slot {
            Slot::Pane(j) => partials[j].finalize(),
            Slot::Quantile => Value::Null,
            Slot::Distinct(j) => Value::Int(distinct[j].len() as i64),
        };
        let mut out: Vec<Value> = self.slots.iter().map(finalize).collect();
        let Some(ks) = ks.filter(|_| !self.rank_fields.is_empty()) else {
            return (count, out);
        };
        let fields = &mut self.rank_fields;
        fields.iter_mut().for_each(|f| f.nums.clear());
        let mut outside = |_: FibaKey, vals: &[Value]| {
            for f in fields.iter_mut() {
                f.nums.extend(vals[f.col].as_f64().map(image));
            }
        };
        if s > 0 {
            ks.time
                .for_each_range((0, 0), (s - 1, u64::MAX), &mut outside);
        }
        ks.time
            .for_each_range((e, 0), (u64::MAX, u64::MAX), &mut outside);
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
    late_policy: LatePolicy,
    fiba: FibaState,
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
    ///
    /// # Errors
    /// Propagates invalid window or aggregate parameters.
    pub fn new(
        spec: WindowSpec,
        aggs: Vec<AggregateSpec>,
        key_field: Option<usize>,
        late_policy: LatePolicy,
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
        // The entry layout: one column per distinct field the specs read.
        // Node caches: a partial per combinable spec.
        let mut fields: Vec<usize> = Vec::new();
        let mut column = |field: usize| {
            let known = fields.iter().position(|f| *f == field);
            known.unwrap_or_else(|| {
                fields.push(field);
                fields.len() - 1
            })
        };
        let mut template = Vec::new();
        let mut cols = Vec::new();
        let mut rank_fields: Vec<RankField> = Vec::new();
        let mut distinct = Vec::new();
        let mut slots = Vec::with_capacity(aggs.len());
        for a in &aggs {
            let col = column(a.field);
            if let Some(pane) = a.build_pane() {
                slots.push(Slot::Pane(template.len()));
                template.push(pane);
                cols.push((col, column(a.by_field())));
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
        let fiba = FibaState {
            grid: Grid {
                length: spec.length().raw(),
                slide: spec.slide().raw(),
            },
            entry: Vec::with_capacity(fields.len()),
            fields,
            fold: EntryFold {
                template: template.into(),
                cols,
            },
            slots,
            rank_fields,
            distinct,
            keys: BTreeMap::new(),
            held: 0,
            pending: BTreeSet::new(),
            retained: BTreeSet::new(),
            #[cfg(test)]
            pending_ops: 0,
        };
        Ok(WindowAggregateOp {
            key_field,
            late_policy,
            fiba,
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

    /// Does nothing: FiBA is the only window state. Kept for exactly one
    /// caller, the `quill-e2e` benchmark (`benchmark/src/layers.rs`, the
    /// `window.fold_ns_per_event` layer), which passes its freshly built
    /// operator through here with `WindowState::default()` and may not be
    /// edited by the changes it judges. Nothing inside the workspace calls
    /// this.
    pub fn with_window_state(self, _: WindowState) -> Self {
        self
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> WindowOpStats {
        self.stats
    }

    /// Events currently held in window state: the entries of every key's
    /// time tree. What K, the window length and one slide hold back; the
    /// `quill.window.entries` gauge sums it over a session's operators.
    pub fn held_events(&self) -> u64 {
        self.fiba.held
    }

    /// Bytes the window state has allocated: per key, the time tree (node
    /// arenas, leaf key/value arrays and child arrays at capacity, the boxed
    /// partials of the node caches) and the rank indexes. Walks every node —
    /// a diagnostic, not a gauge.
    pub fn state_bytes(&self) -> usize {
        let cache = self.fiba.fold.template.len() * size_of::<PaneAgg>();
        let key_bytes = |ks: &FibaKeyState| {
            let ranks: usize = ks.ranks.iter().map(RankIndex::state_bytes).sum();
            ks.time.state_bytes(cache) + ks.ranks.capacity() * size_of::<RankIndex>() + ranks
        };
        self.fiba.keys.values().map(key_bytes).sum()
    }

    /// Keys with an unemitted window holding an event (each counted once,
    /// however many of its windows are open), plus — under `Revise` — emitted
    /// windows still inside their allowed lateness.
    pub fn open_windows(&self) -> usize {
        self.fiba.pending.len() + self.fiba.retained.len()
    }

    /// Ingest: one `(ts, seq)` insert into the key's time tree of the values
    /// the specs read, copied out of the row, and — only when the event opens
    /// a window earlier than the key's pending one — a move of the key's
    /// entry in the emission queue. Under `Revise`,
    /// every already-emitted window the event reaches is re-queried and
    /// emitted again as its next revision.
    fn fold_event(&mut self, e: &Event, out: &mut dyn FnMut(WindowResult)) {
        let wm = self.watermark.raw();
        let fs = &mut self.fiba;
        let grid = fs.grid;
        let t = e.ts.raw();
        let home = grid.window(grid.home(t));
        // The last window containing `t` is its home window; if that one no
        // longer takes the event, none does.
        let Some(min_end) = self
            .late_policy
            .open_from(wm)
            .filter(|min_end| home.0.raw() >= *min_end)
        else {
            self.stats.late_dropped += 1;
            self.spans
                .record_detail(Stage::LateDrop, t, t, self.shard, [e.seq, 0]);
            return;
        };
        fs.entry.clear();
        fs.entry
            .extend(fs.fields.iter().map(|&f| e.row.get(f).clone()));
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
                let fresh = FibaKeyState::new(fs.fields.len(), fs.rank_fields.len());
                fs.keys.entry(Key(key.clone())).or_insert(fresh)
            }
        };
        ks.time.insert((t, e.seq), &fs.entry);
        for (f, index) in fs.rank_fields.iter().zip(&mut ks.ranks) {
            if let Some(x) = fs.entry[f.col].as_f64() {
                index.insert(image(x));
            }
        }
        let moved = ks.admit((t, e.seq), first, grid);
        if let Some((old, new)) = moved {
            fs.requeue(Key(key.clone()), old, new);
        }
        // `Revise`: the emitted windows among those are re-answered at once
        // (nothing is retained under `Drop`, and an empty range collects
        // without allocating).
        if fs.retained.is_empty() {
            return;
        }
        let reached = grid.window(first)..=home;
        let revised: Vec<(WindowId, u64)> = fs
            .keys
            .get_mut(key as &dyn KeyView)
            .into_iter()
            .flat_map(|ks| ks.emitted.range_mut(reached.clone()))
            .map(|(w, emissions)| {
                *emissions += 1;
                (*w, *emissions - 1)
            })
            .collect();
        if !revised.is_empty() {
            let key = Key(key.clone());
            for (w, revision) in revised {
                self.emit_window(w, &key, revision, out);
            }
        }
    }

    fn advance_watermark(&mut self, wm: Timestamp, out: &mut dyn FnMut(WindowResult)) {
        if wm <= self.watermark {
            // Watermarks never regress; equal watermarks are idempotent.
            return;
        }
        self.watermark = wm;
        let policy = self.late_policy;
        // Emit every pending window up to the watermark. Each key's windows
        // come up in order and the queue merges the keys, so emission is in
        // `(end, start, key)` order.
        while let Some((end, start, key)) = pop_first_if(&mut self.fiba.pending, |end| end <= wm) {
            self.emit_window((end, start), &key, 0, out);
            let retain = policy.accepts(end.raw(), wm.raw());
            self.fiba.advance(key, (end, start), retain);
        }
        // `Revise`: forget emitted windows whose allowed lateness just ran
        // out (the set is empty under `Drop`).
        let fs = &mut self.fiba;
        let expired = |end: Timestamp| !policy.accepts(end.raw(), wm.raw());
        while let Some((end, start, key)) = pop_first_if(&mut fs.retained, expired) {
            if let Some(ks) = fs.keys.get_mut(&key) {
                ks.emitted.remove(&(end, start));
            }
            fs.settle(&key);
        }
    }

    /// Answer window `[start, end)` of `key` from its time tree and emit the
    /// result: the first emission (`revision` 0) when the watermark closes the
    /// window, revision *n* when a late event reaches it afterwards.
    fn emit_window(
        &mut self,
        (end, start): WindowId,
        key: &Key,
        revision: u64,
        out: &mut dyn FnMut(WindowResult),
    ) {
        let (s, e) = (start.raw(), end.raw());
        let (count, aggregates) = self.fiba.answer(key, (s, e));
        if revision > 0 {
            self.stats.revisions += 1;
        } else {
            self.stats.windows_emitted += 1;
            if self.spans.is_enabled() {
                // Window complete at `end`, proven complete at the watermark
                // that drained it (Flush sets it to MAX, which carries no
                // event time: zero lag).
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
        }
        out(WindowResult {
            key: key.0.clone(),
            window: Window::new(start, end),
            count,
            revision,
            aggregates,
        });
    }

    /// Process one element, handing each result it emits to `out`. The
    /// element is borrowed: the operator copies what it keeps out of the row,
    /// so one element can be fanned out to many operators without a copy per
    /// operator. `Flush` is the watermark `Timestamp::MAX`.
    pub fn process_ref(&mut self, el: &StreamElement, out: &mut dyn FnMut(WindowResult)) {
        match el {
            StreamElement::Event(e) => self.fold_event(e, out),
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

    fn op(spec: WindowSpec, policy: LatePolicy) -> WindowAggregateOp {
        WindowAggregateOp::new(
            spec,
            vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
            None,
            policy,
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
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
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
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
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
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
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
    fn late_event_produces_revision_under_revise_policy() {
        let mut w = op(
            WindowSpec::tumbling(10u64),
            LatePolicy::Revise {
                allowed_lateness: 100,
            },
        );
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(10)),
                ev(3, 2, 2.0),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].revision, 0);
        assert_eq!(results[0].aggregates[0], Value::Float(1.0));
        assert_eq!(results[1].revision, 1);
        assert_eq!(results[1].aggregates[0], Value::Float(3.0));
        assert_eq!(w.stats().revisions, 1);
    }

    #[test]
    fn revise_policy_drops_past_allowed_lateness() {
        let mut w = op(
            WindowSpec::tumbling(10u64),
            LatePolicy::Revise {
                allowed_lateness: 5,
            },
        );
        let results = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(20)), // wm > end+5 → state GC'd
                ev(3, 2, 2.0),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 1);
        assert_eq!(w.stats().late_dropped, 1);
        assert_eq!(w.open_windows(), 0);
    }

    #[test]
    fn revise_with_bounded_lateness_holds_no_state_past_the_horizon() {
        // Sliding windows, an order-statistic aggregate, two keys: a window
        // is revisable until the watermark passes `end + 15`, an event past
        // that is dropped, and once every horizon has passed nothing is left.
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(20u64, 10u64),
            vec![
                AggregateSpec::new(AggregateKind::Sum, 1, "sum"),
                AggregateSpec::new(AggregateKind::Median, 1, "med"),
            ],
            Some(0),
            LatePolicy::Revise {
                allowed_lateness: 15,
            },
        )
        .unwrap();
        let mk = |ts: u64, seq: u64, k: &str, v: f64| {
            StreamElement::Event(Event::new(
                ts,
                seq,
                Row::new([Value::str(k), Value::Float(v)]),
            ))
        };
        let row = |r: &WindowResult| {
            (
                r.key.as_str().unwrap().to_string(),
                r.window.start.raw(),
                r.revision,
                r.count,
                r.aggregates[0].as_f64().unwrap(),
                r.aggregates[1].as_f64().unwrap(),
            )
        };
        let first = run(
            &mut w,
            vec![
                mk(5, 1, "a", 1.0),  // [0,20)
                mk(12, 2, "a", 2.0), // [0,20) and [10,30)
                mk(14, 3, "b", 7.0), // [0,20) and [10,30)
                StreamElement::Watermark(Timestamp(30)),
                mk(8, 4, "a", 3.0), // late into emitted [0,20): revision 1
            ],
        );
        assert_eq!(
            first.iter().map(row).collect::<Vec<_>>(),
            vec![
                ("a".into(), 0, 0, 2, 3.0, 1.5),
                ("b".into(), 0, 0, 1, 7.0, 7.0),
                ("a".into(), 10, 0, 1, 2.0, 2.0),
                ("b".into(), 10, 0, 1, 7.0, 7.0),
                ("a".into(), 0, 1, 3, 6.0, 2.0),
            ]
        );
        assert_eq!(w.open_windows(), 4, "all four windows are still revisable");
        let second = run(
            &mut w,
            vec![
                StreamElement::Watermark(Timestamp(36)), // [0,20) expires: 20 + 15 < 36
                mk(9, 5, "a", 9.0),                      // only in [0,20): dropped
                mk(15, 6, "a", 4.0), // [0,20) is gone, [10,30) takes it: revision 1
            ],
        );
        // The revision sees exactly the events of [10,30) — 12 and 15 — so
        // the expiry evicted 5 and 8 and nothing else.
        assert_eq!(
            second.iter().map(row).collect::<Vec<_>>(),
            vec![("a".into(), 10, 1, 2, 6.0, 3.0)]
        );
        assert_eq!(w.stats().late_dropped, 1);
        assert_eq!(w.open_windows(), 2);
        assert_eq!(w.fiba.keys.len(), 2);
        let last = run(
            &mut w,
            vec![
                StreamElement::Watermark(Timestamp(46)), // [10,30) expires: 30 + 15 < 46
                StreamElement::Flush,
            ],
        );
        assert!(last.is_empty());
        assert_eq!(w.open_windows(), 0);
        assert!(w.fiba.keys.is_empty(), "bounded lateness, bounded memory");
        assert_eq!((w.stats().windows_emitted, w.stats().revisions), (4, 2));
        assert_eq!(w.stats().accepted, 5);
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
        let mut w = op(WindowSpec::sliding(10u64, 5u64), LatePolicy::Drop);
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
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
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
        // one tree insert per accepted event, and no per-window state.
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
        assert!(w.fiba.keys.is_empty());
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
        let ops = w.fiba.pending_ops;
        assert!(
            ops <= emitted + 2 * keys,
            "{ops} queue insertions for {emitted} windows of {keys} keys"
        );
    }

    /// State bytes per held event of `sliding:1000:250` over `aggs`, keyed by
    /// field 1, after 50 000 in-order events over 4 keys, 12 a time unit,
    /// K = 100: the trees hold a window, K and a slide of them. A flush must
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
        let in_trees: u64 = w.fiba.keys.values().map(|ks| ks.time.len()).sum();
        assert_eq!(held, in_trees, "the counter tracks inserts and evictions");
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
        // mean:0,max:0 — one entry column (both specs read field 0), so an
        // entry is 16 + 24 bytes in its leaf's arrays.
        let per_event = bytes_per_held_event(vec![
            AggregateSpec::new(AggregateKind::Mean, 0, "mean"),
            AggregateSpec::new(AggregateKind::Max, 0, "max"),
        ]);
        // The budget DESIGN.md §17.2 states: 40 B of entry in leaves that
        // in-order arrival leaves full, plus node headers, caches, the
        // arena's spare capacity and — the largest share, ≈ 15 B here, just
        // after a slide — the freed leaves that keep their arrays for the
        // next splits. Measured 67 B; the parent's layout was ≈ 300 B.
        assert!(per_event <= 80.0, "{per_event:.1} B per held event");
    }

    #[test]
    fn a_held_order_statistic_event_adds_one_rank_index_slot() {
        // median:0,q0.9:0 — the same 40 B entry and no cached partial, plus
        // the event's 8 B value image in its key's rank index, whose 64-slot
        // chunks run half to wholly full. Measured 77 B.
        let per_event = bytes_per_held_event(vec![
            AggregateSpec::new(AggregateKind::Median, 0, "med"),
            AggregateSpec::new(AggregateKind::Quantile(0.9), 0, "p90"),
        ]);
        assert!(per_event <= 90.0, "{per_event:.1} B per held event");
    }

    /// Every key's rank indexes against the numeric values its tree holds.
    fn assert_indexes_follow_trees(w: &WindowAggregateOp, after: usize) {
        let fs = &w.fiba;
        for (key, ks) in &fs.keys {
            assert_eq!(ks.ranks.len(), fs.rank_fields.len());
            for (f, index) in fs.rank_fields.iter().zip(&ks.ranks) {
                let mut held = Vec::new();
                ks.time
                    .for_each(&mut |_, vals| held.extend(vals[f.col].as_f64().map(image)));
                held.sort_unstable();
                assert!(
                    index.iter().eq(held.iter().copied()),
                    "key {key:?}, column {}, after element {after}",
                    f.col
                );
            }
        }
    }

    #[test]
    fn the_rank_index_follows_the_tree() {
        // Appends; stragglers 15 behind (into open windows), 50 behind (a
        // revision of an emitted window) and 90 behind (past the lateness:
        // dropped); slide evictions and `Revise` expiry; a key that stops at
        // element 300 and is dropped whole; Flush. After every element each
        // key's index holds exactly the numeric values its tree holds.
        let mut w = WindowAggregateOp::new(
            WindowSpec::sliding(40u64, 10u64),
            vec![
                AggregateSpec::new(AggregateKind::Median, 1, "med"),
                AggregateSpec::new(AggregateKind::Quantile(0.9), 1, "p90"),
                AggregateSpec::new(AggregateKind::Quantile(0.2), 2, "p20"),
                AggregateSpec::new(AggregateKind::Sum, 2, "sum"),
            ],
            Some(0),
            LatePolicy::Revise {
                allowed_lateness: 25,
            },
        )
        .unwrap();
        let mut input = Vec::new();
        for i in 0..600u64 {
            let ts = match i % 10 {
                3 => i.saturating_sub(15),
                6 => i.saturating_sub(50),
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
            assert_indexes_follow_trees(&w, n);
            seen_stopped |= w.fiba.keys.contains_key(&stopped);
        }
        assert!(seen_stopped && !w.fiba.keys.contains_key(&stopped));
        let stats = w.stats();
        assert!(stats.revisions > 0 && stats.late_dropped > 0, "{stats:?}");
        assert!(w.fiba.keys.values().any(|ks| ks.ranks[0].len() > 0));
        w.process_ref(&StreamElement::Flush, &mut |_| {});
        assert!(w
            .fiba
            .keys
            .values()
            .all(|ks| ks.ranks.iter().all(|r| r.len() == 0)));
        assert!(w.fiba.keys.is_empty());
    }

    #[test]
    fn absorb_is_combine_of_seed_bit_for_bit_for_every_combinable_kind() {
        // A partial built by absorbing entries one by one (a leaf's re-fold,
        // a range query's boundary leaves) must equal one built by combining
        // their one-entry partials, state for state: otherwise a result
        // would depend on where the tree's node boundaries happen to fall.
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
            let fold = &w.fiba.fold;
            let width = w.fiba.fields.len();
            // Every rotation of the value list as the fold order, the `by`
            // column (ArgMin/ArgMax) running the other way, timestamps tied
            // in pairs.
            for shift in 0..values.len() {
                let entry = |i: usize| {
                    let v = values[(i + shift) % values.len()].clone();
                    let by = values[(2 * values.len() - i - shift) % values.len()].clone();
                    ((i as u64 / 2, i as u64), [v, by])
                };
                let (key, vals) = entry(0);
                let mut absorbed = fold.seed(key, &vals[..width]);
                let mut combined = absorbed.clone();
                for i in 1..values.len() {
                    let (key, vals) = entry(i);
                    fold.absorb(&mut absorbed, key, &vals[..width]);
                    fold.combine(&mut combined, &fold.seed(key, &vals[..width]));
                    assert_eq!(
                        format!("{absorbed:?}"),
                        format!("{combined:?}"),
                        "{kind} after {i} entries from rotation {shift}"
                    );
                    let (a, c) = (absorbed[0].finalize(), combined[0].finalize());
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
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
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
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
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
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        let results = run(
            &mut w,
            vec![ev(5, 1, 1.0), ev(105, 2, 2.0), StreamElement::Flush],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(w.open_windows(), 0);
    }

    #[test]
    fn fiba_path_traces_finalize_late_drops_and_spans() {
        // Sliding windows, one late event: the finalize and late-drop
        // records carry the right payloads and the finalize lags.
        let spans = SpanRecorder::new(64);
        let mut w = op(WindowSpec::sliding(20u64, 10u64), LatePolicy::Drop);
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
