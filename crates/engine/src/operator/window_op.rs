//! Keyed windowed aggregation with event-time semantics.
//!
//! [`WindowAggregateOp`] routes each event into every window instance its
//! timestamp belongs to (optionally per grouping key), folds it into the
//! incremental aggregate state, and emits one result row per (key, window)
//! when the watermark passes the window's end. Events arriving *after* their
//! window was already finalized are handled according to [`LatePolicy`]:
//! counted and dropped, or emitted as revised ("update") results.
//!
//! This operator is the consumer side of the quality/latency trade-off: the
//! disorder-control strategies in `quill-core` decide how long to hold
//! events (and therefore where watermarks sit); this operator turns those
//! watermarks into results whose completeness the metrics crate scores.
//!
//! ## Window state
//!
//! There is one state layout, FiBA ([`crate::fiba`]; DESIGN.md §17 records
//! the measurements that retired the per-window and shared-pane layouts).
//! Per key, one finger B-tree over `(ts, seq)` keys holds a combinable
//! partial per event, so an event is folded *once* whatever the window
//! shape ([`WindowOpStats::agg_inserts`] counts it); window finalize is a
//! range query over cached subtree combines, and the slide bulk-evicts
//! everything no later window can cover. Aggregates whose partials cannot be
//! combined (Median/Quantile/DistinctCount) keep a value-indexed tree or a
//! set per open window; subtree counts answer rank queries in `O(log n)`.
//!
//! Under [`LatePolicy::Revise`] an emitted window stays in its key's window
//! map, with its emission count, until the watermark passes `end +
//! allowed_lateness`: a late event re-runs the range query and emits the
//! next revision, and eviction cuts at the start of the oldest window still
//! tracked instead of one slide past the emitted one.

use crate::aggregate::{AggregateKind, AggregateSpec, PaneAgg};
use crate::error::Result;
use crate::event::{Event, StreamElement};
use crate::fiba::{f64_to_ordered, ordered_to_f64, FibaItem, FibaTree, WindowState};
use crate::operator::Operator;
use crate::time::Timestamp;
use crate::value::{Key, Row, Value};
use crate::window::{Window, WindowSpec};
use quill_telemetry::trace::{FlightRecorder, TraceKind};
use quill_telemetry::{SpanRecorder, Stage};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// What to do with an event whose window has already been finalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LatePolicy {
    /// Count the event in [`WindowOpStats::late_dropped`] and discard it.
    Drop,
    /// Re-open the window, fold the event in, and emit a *revision* row
    /// (flagged via the `revision` column of [`WindowResult`]). State for
    /// revised windows is retained until `allowed_lateness` past the window
    /// end, then discarded.
    Revise {
        /// How long past the window end (in time units) revisions are
        /// accepted before state is dropped for good.
        allowed_lateness: u64,
    },
}

impl LatePolicy {
    /// Whether a window ending at `end` still takes events at watermark `wm`:
    /// an open window always does, a closed one only under `Revise` and only
    /// until its allowed lateness runs out. Monotone in `end`, and once false
    /// for a window it stays false (watermarks never regress).
    fn accepts(self, end: u64, wm: u64) -> bool {
        match self {
            LatePolicy::Drop => end > wm,
            LatePolicy::Revise { allowed_lateness } => end.saturating_add(allowed_lateness) >= wm,
        }
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
    /// event, plus one per window instance receiving order-statistic values
    /// (Median/Quantile/DistinctCount). The ratio to `accepted` is `1` when
    /// every aggregate is combinable and `≈ 1 + length/slide` otherwise.
    pub agg_inserts: u64,
}

/// Parsed view of a result row emitted by [`WindowAggregateOp`].
///
/// Result row layout: `[key, start, end, count, revision, agg...]`.
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

impl WindowResult {
    /// Number of leading metadata columns before the aggregate outputs.
    pub const META_COLS: usize = 5;

    /// Serialize to the operator's row layout.
    pub fn to_row(&self) -> Row {
        let mut vals = Vec::with_capacity(Self::META_COLS + self.aggregates.len());
        vals.push(self.key.clone());
        vals.push(Value::Int(self.window.start.raw() as i64));
        vals.push(Value::Int(self.window.end.raw() as i64));
        vals.push(Value::Int(self.count as i64));
        vals.push(Value::Int(self.revision as i64));
        vals.extend(self.aggregates.iter().cloned());
        vals.into_iter().collect()
    }

    /// Parse from the operator's row layout. Returns `None` if the row is
    /// too short to be a window result.
    pub fn from_row(row: &Row) -> Option<WindowResult> {
        if row.len() < Self::META_COLS {
            return None;
        }
        // Window bounds are stored as i64 bit-casts of the u64 timestamps
        // (`to_row` uses `as i64`); `as u64` restores them losslessly even
        // for values beyond i64::MAX.
        let start = row.get(1).as_i64()? as u64;
        let end = row.get(2).as_i64()? as u64;
        Some(WindowResult {
            key: row.get(0).clone(),
            window: Window::new(Timestamp(start), Timestamp(end)),
            count: row.get(3).as_i64()?.max(0) as u64,
            revision: row.get(4).as_i64()?.max(0) as u64,
            aggregates: row.values()[Self::META_COLS..].to_vec(),
        })
    }
}

/// One event's combinable partials, stored as the item of the per-key time
/// tree. Combining in `(ts, seq)` key order is a fold in timestamp order with
/// arrival order breaking ties (the shard stages deliver equal-timestamp
/// events in `seq` order), which is what the Edge/Arg tie rules are defined
/// over.
#[derive(Clone)]
struct EventSlice(Vec<PaneAgg>);

impl FibaItem for EventSlice {
    fn combine(&mut self, later: &Self) {
        for (a, b) in self.0.iter_mut().zip(&later.0) {
            a.merge(b);
        }
    }
}

/// Per-window state for aggregates whose partials cannot be combined.
enum OrderStat {
    /// Value-indexed finger B-tree: keys are `(total-order f64 bits, uniq)`,
    /// so subtree counts answer `select(k)` in O(log n) and an out-of-order
    /// value insert costs O(log n), not a sorted `Vec`'s O(n) shift.
    /// Non-numeric values are skipped, like `QuantileAgg`.
    Rank { p: f64, tree: FibaTree<()> },
    /// Distinct non-null keys; identical semantics to `DistinctAgg`.
    Distinct(BTreeSet<Key>),
}

/// What a key remembers about one window besides the events in its time tree.
struct TrackedWindow {
    /// One [`OrderStat`] per non-combinable spec, in spec order; empty when
    /// every spec is combinable.
    order: Vec<OrderStat>,
    /// How many times the window has been emitted (0 = still pending). Only
    /// `Revise` keeps a window past its first emission.
    emissions: u64,
}

/// Window state for one grouping key.
struct FibaKeyState {
    /// Finger B-tree over `(ts, seq)` holding one [`EventSlice`] per
    /// accepted event; window finalize is `range_agg` over `[start, end)`.
    time: FibaTree<EventSlice>,
    /// Per `(end, start)` window that needs more than the time tree: every
    /// window with order-statistic specs until it is emitted, and under
    /// `Revise` every window until its allowed lateness runs out. Stays empty
    /// under `Drop` when every spec is combinable.
    windows: BTreeMap<(Timestamp, Timestamp), TrackedWindow>,
    /// Disambiguator for equal value bits in [`OrderStat::Rank`] trees.
    uniq: u64,
}

/// The operator's window state (see the module docs).
struct FibaState {
    length: u64,
    slide: u64,
    /// Fresh combinable partials, one per combinable spec (tree item shape).
    template: Vec<PaneAgg>,
    /// Per spec: `Some(index into template)` for combinable kinds, `None`
    /// for order-statistic/distinct kinds (served from [`OrderStat`]s).
    slots: Vec<Option<usize>>,
    keys: BTreeMap<Key, FibaKeyState>,
    /// Registered-but-unemitted `(end, start, key)` windows, drained in
    /// emission order as the watermark advances.
    pending: BTreeSet<(Timestamp, Timestamp, Key)>,
    /// `Revise` only: emitted windows still inside their allowed lateness,
    /// in the order they expire.
    retained: BTreeSet<(Timestamp, Timestamp, Key)>,
}

impl FibaState {
    /// `Revise`: a window of `key` just left the key's window map. The map
    /// now holds exactly the key's open or revisable windows, so events
    /// before the oldest one's start fall in no window that can be asked for
    /// again — bulk-evict them, and drop the key with its last window.
    fn evict_untracked(&mut self, key: &Key) {
        let Some(ks) = self.keys.get_mut(key) else {
            return;
        };
        match ks.windows.first_key_value() {
            Some((&(_, start), _)) => {
                ks.time.evict_before((start.raw(), 0));
            }
            None => {
                self.keys.remove(key);
            }
        }
    }
}

/// Fresh [`OrderStat`] states for every non-combinable spec, in spec order.
fn build_order_stats(aggs: &[AggregateSpec]) -> Vec<OrderStat> {
    aggs.iter()
        .filter_map(|a| match a.kind {
            AggregateKind::Median => Some(OrderStat::Rank {
                p: 0.5,
                tree: FibaTree::new(),
            }),
            AggregateKind::Quantile(p) => Some(OrderStat::Rank {
                p: p.clamp(0.0, 1.0),
                tree: FibaTree::new(),
            }),
            AggregateKind::DistinctCount => Some(OrderStat::Distinct(BTreeSet::new())),
            _ => None,
        })
        .collect()
}

/// Finalize a rank tree exactly as `aggregate::quantile_sorted` would
/// finalize the equivalent sorted slice: same clamp, same index arithmetic,
/// same interpolation expression — bit-identical output by construction.
fn rank_quantile(tree: &FibaTree<()>, p: f64) -> Value {
    let n = tree.len();
    if n == 0 {
        return Value::Null;
    }
    let value_at = |k: u64| -> f64 {
        match tree.select(k) {
            Some((bits, _)) => ordered_to_f64(bits),
            None => f64::NAN, // unreachable: k < n by construction
        }
    };
    if n == 1 {
        return Value::Float(value_at(0));
    }
    let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = rank.floor() as u64;
    let hi = (rank.ceil() as u64).min(n - 1);
    let frac = rank - lo as f64;
    let (x_lo, x_hi) = (value_at(lo), value_at(hi));
    Value::Float(x_lo + (x_hi - x_lo) * frac)
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

/// One output per spec, in spec order: combinable kinds from the range
/// query's combined partials, the rest from the window's [`OrderStat`]s.
fn finalize_window(
    aggs: &[AggregateSpec],
    slots: &[Option<usize>],
    template: &[PaneAgg],
    combined: Option<&EventSlice>,
    order: &[OrderStat],
) -> Vec<Value> {
    let mut aggregates = Vec::with_capacity(aggs.len());
    let mut oi = 0;
    for (spec, slot) in aggs.iter().zip(slots) {
        match slot {
            Some(j) => aggregates.push(match combined {
                Some(slice) => slice.0[*j].finalize(),
                // Defensive: a registered window always covers ≥ 1
                // accepted event, but emit an empty result rather than
                // lose the window.
                None => template[*j].finalize(),
            }),
            None => {
                let v = match order.get(oi) {
                    Some(OrderStat::Rank { p, tree }) => rank_quantile(tree, *p),
                    Some(OrderStat::Distinct(set)) => Value::Int(set.len() as i64),
                    // Defensive, as above: match each kind's empty-state
                    // finalize.
                    None => match spec.kind {
                        AggregateKind::DistinctCount => Value::Int(0),
                        _ => Value::Null,
                    },
                };
                aggregates.push(v);
                oi += 1;
            }
        }
    }
    aggregates
}

/// Keyed sliding/tumbling window aggregation operator.
pub struct WindowAggregateOp {
    name: String,
    spec: WindowSpec,
    aggs: Vec<AggregateSpec>,
    key_field: Option<usize>,
    late_policy: LatePolicy,
    fiba: FibaState,
    watermark: Timestamp,
    out_seq: u64,
    stats: WindowOpStats,
    trace: FlightRecorder,
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
            return Err(crate::error::EngineError::InvalidAggregate(
                "window aggregation requires at least one aggregate".into(),
            ));
        }
        // Combinable kinds get a slot in the per-event tree item; the rest
        // are served from per-window `OrderStat`s.
        let mut template = Vec::new();
        let mut slots = Vec::with_capacity(aggs.len());
        for a in &aggs {
            match a.build_pane() {
                Some(p) => {
                    slots.push(Some(template.len()));
                    template.push(p);
                }
                None => slots.push(None),
            }
        }
        let fiba = FibaState {
            length: spec.length().raw(),
            slide: spec.slide().raw(),
            template,
            slots,
            keys: BTreeMap::new(),
            pending: BTreeSet::new(),
            retained: BTreeSet::new(),
        };
        Ok(WindowAggregateOp {
            name: format!("window-agg({spec})"),
            spec,
            aggs,
            key_field,
            late_policy,
            fiba,
            watermark: Timestamp::MIN,
            out_seq: 0,
            stats: WindowOpStats::default(),
            trace: FlightRecorder::disabled(),
            spans: SpanRecorder::disabled(),
            shard: 0,
        })
    }

    /// Attach a flight recorder; subsequent window finalizations and late
    /// drops are recorded as [`TraceKind::WindowFinalize`] /
    /// [`TraceKind::LateDrop`] events tagged with `shard` (0 for sequential
    /// execution). Disabled recorders cost one branch per hook.
    pub fn attach_trace(&mut self, trace: &FlightRecorder, shard: u32) {
        self.trace = trace.clone();
        self.shard = shard;
    }

    /// Attach a span recorder; each window finalization records a
    /// [`Stage::WindowFinalize`] span from the window's end to the watermark
    /// that closed it — the event-time lag between a window becoming
    /// complete and the operator proving it complete. Disabled recorders
    /// cost one branch per finalization.
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

    /// Number of (key, window) states currently held: registered windows not
    /// yet emitted, plus — under `Revise` — emitted windows still inside
    /// their allowed lateness.
    pub fn open_windows(&self) -> usize {
        self.fiba.pending.len() + self.fiba.retained.len()
    }

    fn key_of(&self, row: &Row) -> Key {
        match self.key_field {
            Some(i) => Key(row.get(i).clone()),
            None => Key(Value::Null),
        }
    }

    /// Ingest: one `(ts, seq)` insert into the key's time tree carrying the
    /// event's combinable partials, plus — per window that still accepts the
    /// event — registering it as pending and folding order-statistic values
    /// into its rank trees / distinct sets. Under `Revise`, a window that was
    /// already emitted is re-queried and emitted again as the next revision.
    fn fold_event(&mut self, e: &Event, out: &mut dyn FnMut(StreamElement)) {
        let key = self.key_of(&e.row);
        let wm = self.watermark.raw();
        let policy = self.late_policy;
        let fs = &mut self.fiba;
        let t = e.ts.raw();
        let home = t / fs.slide * fs.slide;
        // The last window containing `t` ends at `home + length`; if that
        // one no longer accepts the event, none does.
        if !policy.accepts(home.saturating_add(fs.length), wm) {
            self.stats.late_dropped += 1;
            if self.trace.is_enabled() {
                let missed: Vec<(u64, u64)> = self
                    .spec
                    .assign(e.ts)
                    .into_iter()
                    .map(|w| (w.start.raw(), w.end.raw()))
                    .collect();
                self.trace.record(
                    e.ts.raw(),
                    self.shard,
                    TraceKind::LateDrop {
                        event_seq: e.seq,
                        windows: missed,
                    },
                );
            }
            return;
        }
        // Build the event's slice of combinable partials and insert it once,
        // keyed `(ts, seq)`: an in-order arrival lands at the right finger in
        // O(1) amortized, a straggler in O(log n) — never an O(n) shift.
        let mut partials = fs.template.clone();
        for (slot, spec) in fs.slots.iter().zip(&self.aggs) {
            if let Some(j) = *slot {
                partials[j].insert_row(e.ts, e.row.get(spec.field), &e.row);
            }
        }
        let ks = fs.keys.entry(key.clone()).or_insert_with(|| FibaKeyState {
            time: FibaTree::new(),
            windows: BTreeMap::new(),
            uniq: 0,
        });
        ks.time.insert((t, e.seq), EventSlice(partials));
        self.stats.agg_inserts += 1;
        self.stats.accepted += 1;
        let has_order = fs.slots.iter().any(|s| s.is_none());
        let revise = policy != LatePolicy::Drop;
        // Already-emitted windows this event reaches (`Revise` only; never
        // allocates under `Drop`).
        let mut revised: Vec<Window> = Vec::new();
        for w in self.spec.assign(e.ts) {
            if !policy.accepts(w.end.raw(), wm) {
                continue; // closed for good: already emitted, stays final
            }
            let tracked = (has_order || revise).then(|| {
                ks.windows
                    .entry((w.end, w.start))
                    .or_insert_with(|| TrackedWindow {
                        order: build_order_stats(&self.aggs),
                        emissions: 0,
                    })
            });
            match &tracked {
                Some(tw) if tw.emissions > 0 => revised.push(w),
                _ => {
                    // quill-lint: allow(hot-path-alloc, reason = "BTreeSet registration needs an owned key per assigned window; a key is one small Value")
                    fs.pending.insert((w.end, w.start, key.clone()));
                }
            }
            let Some(tw) = tracked.filter(|_| has_order) else {
                continue;
            };
            self.stats.agg_inserts += 1;
            let mut oi = 0;
            for (slot, spec) in fs.slots.iter().zip(&self.aggs) {
                if slot.is_some() {
                    continue;
                }
                match tw.order.get_mut(oi) {
                    Some(OrderStat::Rank { tree, .. }) => {
                        if let Some(x) = e.row.get(spec.field).as_f64() {
                            let u = ks.uniq;
                            ks.uniq += 1;
                            // `uniq` grows in insertion order, so equal value
                            // bits keep insert-after-equals order — exactly
                            // the array QuantileAgg's sorted insert produces.
                            tree.insert((f64_to_ordered(x), u), ());
                        }
                    }
                    Some(OrderStat::Distinct(set)) => {
                        let v = e.row.get(spec.field);
                        if !v.is_null() {
                            // quill-lint: allow(hot-path-alloc, reason = "distinct-count semantics require an owned copy of each new value")
                            set.insert(Key(v.clone()));
                        }
                    }
                    None => {}
                }
                oi += 1;
            }
        }
        for w in revised {
            self.emit_window(w.end, w.start, &key, out);
        }
    }

    fn advance_watermark(&mut self, wm: Timestamp, out: &mut dyn FnMut(StreamElement)) {
        if wm <= self.watermark {
            // Watermarks never regress; equal watermarks are idempotent.
            return;
        }
        self.watermark = wm;
        // Emit every pending window up to the watermark; the set is already
        // in emission order.
        while let Some((end, start, key)) = pop_first_if(&mut self.fiba.pending, |end| end <= wm) {
            self.emit_window(end, start, &key, out);
        }
        // `Revise`: forget emitted windows whose allowed lateness just ran
        // out (the set is empty under `Drop`).
        let (policy, fs) = (self.late_policy, &mut self.fiba);
        let expired = |end: Timestamp| !policy.accepts(end.raw(), wm.raw());
        while let Some((end, start, key)) = pop_first_if(&mut fs.retained, expired) {
            if let Some(ks) = fs.keys.get_mut(&key) {
                ks.windows.remove(&(end, start));
            }
            fs.evict_untracked(&key);
        }
        out(StreamElement::Watermark(wm));
    }

    /// Answer window `[start, end)` of `key` with a range query and emit the
    /// row: the first emission when the watermark closes the window, revision
    /// *n* when a late event reaches it afterwards. A window that can still
    /// take events (`Revise`, inside its allowed lateness) stays tracked;
    /// otherwise it is forgotten and whatever no later window of the key can
    /// cover is bulk-evicted.
    fn emit_window(
        &mut self,
        end: Timestamp,
        start: Timestamp,
        key: &Key,
        out: &mut dyn FnMut(StreamElement),
    ) {
        let policy = self.late_policy;
        let retain = policy.accepts(end.raw(), self.watermark.raw());
        let fs = &mut self.fiba;
        let (s, e) = (start.raw(), end.raw());
        let mut count = 0u64;
        let mut revision = 0u64;
        let aggregates = match fs.keys.get_mut(key) {
            Some(ks) => {
                // Registered windows have `end ≥ 1` (start ≥ 0, length ≥ 1),
                // so the inclusive upper bound `(end − 1, MAX)` cannot
                // underflow.
                let (combined, n) = ks.time.range_agg((s, 0), (e - 1, u64::MAX));
                count = n;
                let mut forgotten;
                let tracked = if retain {
                    ks.windows.get_mut(&(end, start))
                } else {
                    forgotten = ks.windows.remove(&(end, start));
                    forgotten.as_mut()
                };
                let order: &[OrderStat] = match tracked {
                    Some(tw) => {
                        revision = tw.emissions;
                        tw.emissions += 1;
                        &tw.order
                    }
                    None => &[],
                };
                let aggregates = finalize_window(
                    &self.aggs,
                    &fs.slots,
                    &fs.template,
                    combined.as_ref(),
                    order,
                );
                match policy {
                    LatePolicy::Drop => {
                        // Bulk eviction: entries before the next possible
                        // window start of this key (`start + slide`) can
                        // never be covered again. Pending windows of this key
                        // all end after `end`, hence start at or after
                        // `start + slide` on the slide grid.
                        ks.time.evict_before((s.saturating_add(fs.slide), 0));
                        if ks.time.is_empty() && ks.windows.is_empty() {
                            fs.keys.remove(key);
                        }
                    }
                    LatePolicy::Revise { .. } if retain => {
                        if revision == 0 {
                            fs.retained.insert((end, start, key.clone()));
                        }
                    }
                    LatePolicy::Revise { .. } => fs.evict_untracked(key),
                }
                aggregates
            }
            // Defensive: a registered window always has its key, but emit an
            // empty result rather than lose the window.
            None => finalize_window(&self.aggs, &fs.slots, &fs.template, None, &[]),
        };
        self.out_seq += 1;
        if revision > 0 {
            self.stats.revisions += 1;
        } else {
            self.stats.windows_emitted += 1;
            if self.trace.is_enabled() {
                self.trace.record(
                    e,
                    self.shard,
                    TraceKind::WindowFinalize {
                        start: s,
                        end: e,
                        key: key.0.to_string(),
                        count,
                    },
                );
            }
            if self.spans.is_enabled() {
                // Window complete at `end`, proven complete at the watermark
                // that drained it (Flush sets it to MAX, which carries no
                // event time: zero lag).
                let closed = if self.watermark == Timestamp::MAX {
                    e
                } else {
                    self.watermark.raw()
                };
                self.spans
                    .record(Stage::WindowFinalize, e, closed, self.shard);
            }
        }
        let row = WindowResult {
            key: key.0.clone(),
            window: Window::new(start, end),
            count,
            revision,
            aggregates,
        }
        .to_row();
        out(StreamElement::Event(Event::new(end, self.out_seq, row)));
    }
}

impl Operator for WindowAggregateOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(StreamElement)) {
        match el {
            StreamElement::Event(e) => self.fold_event(&e, out),
            StreamElement::Watermark(wm) => self.advance_watermark(wm, out),
            StreamElement::Flush => {
                self.advance_watermark(Timestamp::MAX, out);
                out(StreamElement::Flush);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;

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
        let mut outs = Vec::new();
        for el in input {
            op.process(el, &mut |o| outs.push(o));
        }
        outs.iter()
            .filter_map(|o| o.as_event())
            .filter_map(|e| WindowResult::from_row(&e.row))
            .collect()
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
    fn watermarks_are_forwarded_and_never_regress() {
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        let mut outs = Vec::new();
        w.process(StreamElement::Watermark(Timestamp(10)), &mut |o| {
            outs.push(o)
        });
        w.process(StreamElement::Watermark(Timestamp(5)), &mut |o| {
            outs.push(o)
        });
        w.process(StreamElement::Watermark(Timestamp(20)), &mut |o| {
            outs.push(o)
        });
        let wms: Vec<Timestamp> = outs.iter().filter_map(|o| o.implied_watermark()).collect();
        assert_eq!(wms, vec![Timestamp(10), Timestamp(20)]);
    }

    #[test]
    fn result_row_roundtrip() {
        let r = WindowResult {
            key: Value::str("k"),
            window: Window::new(Timestamp(0), Timestamp(10)),
            count: 3,
            revision: 1,
            aggregates: vec![Value::Float(1.5), Value::Int(2)],
        };
        assert_eq!(WindowResult::from_row(&r.to_row()), Some(r));
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
        // Every window equals a sequential fold of its contents: Sum exactly
        // (integer-valued floats), Variance within the DESIGN.md §17.4
        // combine-nesting tolerance.
        assert_eq!(results.len(), 75); // starts 0, 20, …, 1480 cover ts ≤ 1497
        for r in &results {
            let members: Vec<(Timestamp, Value)> = (0..n)
                .filter(|i| r.window.contains(Timestamp(i * 3)))
                .map(|i| (Timestamp(i * 3), Value::Float(value(i))))
                .collect();
            assert_eq!(r.count, members.len() as u64);
            assert_eq!(r.aggregates[0], specs[0].compute(&members));
            let (got, want) = (
                r.aggregates[1].as_f64().unwrap(),
                specs[1].compute(&members).as_f64().unwrap(),
            );
            assert!(
                (got - want).abs() <= 1e-9 * got.abs().max(want.abs()),
                "variance diverged in {:?}: {got} vs {want}",
                r.window
            );
        }
    }

    #[test]
    fn trace_records_finalize_and_late_drops() {
        let rec = FlightRecorder::new(64);
        let mut w = op(WindowSpec::tumbling(10u64), LatePolicy::Drop);
        w.attach_trace(&rec, 3);
        let _ = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                StreamElement::Watermark(Timestamp(10)),
                ev(3, 2, 99.0), // window [0,10) already finalized
                StreamElement::Flush,
            ],
        );
        let evs = rec.events();
        let fins: Vec<&quill_telemetry::trace::TraceEvent> = evs
            .iter()
            .filter(|t| matches!(t.kind, TraceKind::WindowFinalize { .. }))
            .collect();
        assert_eq!(fins.len(), 1);
        assert_eq!(fins[0].shard, 3);
        match &fins[0].kind {
            TraceKind::WindowFinalize {
                start,
                end,
                key,
                count,
            } => {
                assert_eq!((*start, *end, key.as_str(), *count), (0, 10, "null", 1));
            }
            _ => unreachable!(),
        }
        let drops: Vec<(u64, Vec<(u64, u64)>)> = evs
            .iter()
            .filter_map(|t| match &t.kind {
                TraceKind::LateDrop { event_seq, windows } => Some((*event_seq, windows.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(2, vec![(0, 10)])]);
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
        // Sliding windows, one late event: finalize and late-drop trace
        // events and the finalize spans carry the right payloads.
        let rec = FlightRecorder::new(256);
        let spans = SpanRecorder::new(64);
        let mut w = op(WindowSpec::sliding(20u64, 10u64), LatePolicy::Drop);
        w.attach_trace(&rec, 0);
        w.attach_spans(&spans, 0);
        let _ = run(
            &mut w,
            vec![
                ev(5, 1, 1.0),
                ev(15, 2, 2.0),
                StreamElement::Watermark(Timestamp(40)),
                ev(3, 3, 9.0), // only window [0,20), finalized at wm=40
                StreamElement::Flush,
            ],
        );
        let evs = rec.events();
        let fins: Vec<(u64, u64, u64)> = evs
            .iter()
            .filter_map(|t| match &t.kind {
                TraceKind::WindowFinalize {
                    start, end, count, ..
                } => Some((*start, *end, *count)),
                _ => None,
            })
            .collect();
        assert_eq!(fins, vec![(0, 20, 2), (10, 30, 1)]);
        let drops: Vec<(u64, Vec<(u64, u64)>)> = evs
            .iter()
            .filter_map(|t| match &t.kind {
                TraceKind::LateDrop { event_seq, windows } => Some((*event_seq, windows.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(drops, vec![(3, vec![(0, 20)])]);
        let pairs: Vec<(u64, u64)> = spans.spans().iter().map(|s| (s.begin, s.end)).collect();
        assert_eq!(pairs, vec![(20, 40), (30, 40)]);
    }
}
