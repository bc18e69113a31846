//! Runtime-registrable multi-query sessions: the push-mode execution
//! surface.
//!
//! [`crate::runner::execute`] and [`crate::runner::execute_shared`] are
//! batch-style: they consume a finished event vector. A [`Session`] is the
//! resident counterpart — one shared [`DisorderControl`] core (one buffer,
//! one watermark sequence) with queries registered and deregistered **at
//! runtime**, each observing the strategy's output through a window
//! operator and a bounded result subscription ([`QueryHandle`]) of its own.
//!
//! The quality target sizes the shared buffer; it never changes what a
//! window operator computes. So queries of equal *shape* — window, key field
//! and the `(kind, field)` of each aggregate — registered between the same
//! two pushes run on **one** operator ([`Session::operators`]): the event is
//! folded once, and each result is built once and delivered once, onto the
//! operator's shared result log, which every subscriber reads through a
//! cursor of its own. One lock, one latency record and one push per result,
//! whatever the number of subscribers; [`QueryHandle::poll`] takes what its
//! subscriber has not read yet. Output names, completeness target, result
//! bound and SLO stay per subscriber, and nothing a subscriber can observe
//! (results, order, latency stamps, [`QueryStats`]) differs from running
//! alone.
//!
//! The session is the execution heart of the `quill-serve` daemon: the
//! server is a network shell that feeds [`Session::push`] /
//! [`Session::heartbeat`] and drains [`QueryHandle::poll`]. A sequential
//! `execute` / `execute_shared` runs the same loop: per event, the strategy,
//! then every element it releases through the same fan-out core
//! (`MultiQueryCore`) at the clock as of that event (`push_event`). So batch
//! and resident execution share one code path and produce element-identical
//! results, latencies and `Deliver` spans for the same events.
//!
//! ```
//! use quill_core::prelude::*;
//!
//! let mut session = Session::new(Box::new(FixedKSlack::new(20u64)));
//! let query = QuerySpec::builder()
//!     .window(WindowSpec::tumbling(10u64))
//!     .aggregate(AggregateKind::Sum, 0, "sum")
//!     .build()
//!     .unwrap();
//! let handle = session.register(&query).unwrap();
//! for (seq, ts) in [(0u64, 5u64), (1, 3), (2, 25), (3, 17), (4, 40)] {
//!     session.push(Event::new(ts, seq, Row::new([Value::Float(1.0)])));
//! }
//! session.finish();
//! assert!(!handle.poll().is_empty());
//! ```

use crate::runner::{check_completeness, QuerySpec};
use crate::strategy::DisorderControl;
use parking_lot::Mutex;
use quill_engine::aggregate::AggregateSpec;
use quill_engine::error::{EngineError, Result};
use quill_engine::event::{ClockTracker, Event, StreamElement};
use quill_engine::operator::{WindowAggregateOp, WindowOpStats, WindowResult};
use quill_engine::time::{TimeDelta, Timestamp};
use quill_engine::value::Key;
use quill_metrics::LatencyRecorder;
use quill_telemetry::{Counter, Gauge, Registry, SpanRecorder, Stage};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Default bound on a query's pending-result queue; see
/// [`QueryConfig::result_capacity`].
pub const DEFAULT_RESULT_CAPACITY: usize = 16_384;

/// Identifier of a query registered in a [`Session`], unique within it for
/// the session's lifetime (never reused after deregistration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// The raw numeric id (stable across [`QueryId::from_raw`]).
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Rebuild an id from its raw number (e.g. parsed out of a URL path).
    pub fn from_raw(id: u64) -> QueryId {
        QueryId(id)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-query registration options.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryConfig {
    /// Completeness target this subscriber requires, reported via
    /// [`Session::query_info`] so that windows below it can be flagged; a
    /// value outside (0, 1] is refused at registration. It does not size the
    /// shared buffer: `K` follows the strategy's own target at the smallest
    /// registered slide ([`DisorderControl::set_min_slide`]).
    pub required_completeness: Option<f64>,
    /// Bound on the results pending between the session and
    /// [`QueryHandle::poll`]. When full, the **oldest** pending result is
    /// dropped and counted in [`QueryStats::overflow_dropped`] — a slow
    /// consumer loses history, never blocks the stream. The result log an
    /// operator shares holds at most the largest bound among its
    /// registered subscribers.
    pub result_capacity: usize,
    /// Result-latency objective in event-time units: a result whose
    /// end-to-end latency (emission clock minus window end) exceeds this
    /// bound counts one [`QueryStats::slo_breaches`]. `None` disables the
    /// accounting.
    pub latency_slo: Option<u64>,
}

impl Default for QueryConfig {
    fn default() -> QueryConfig {
        QueryConfig {
            required_completeness: None,
            result_capacity: DEFAULT_RESULT_CAPACITY,
            latency_slo: None,
        }
    }
}

impl QueryConfig {
    /// Require the given completeness of this query's windows.
    pub fn with_required_completeness(mut self, q: f64) -> QueryConfig {
        self.required_completeness = Some(q);
        self
    }

    /// Override the pending-result queue bound (`usize::MAX` = unbounded).
    pub fn with_result_capacity(mut self, capacity: usize) -> QueryConfig {
        self.result_capacity = capacity.max(1);
        self
    }

    /// Count results later than `slo` (event-time units) as SLO breaches.
    pub fn with_latency_slo(mut self, slo: u64) -> QueryConfig {
        self.latency_slo = Some(slo);
        self
    }
}

/// Snapshot of one query's counters, readable at any time from any thread
/// via [`QueryHandle::stats`].
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Window results emitted to this subscription so far.
    pub emitted: u64,
    /// Results evicted past the result bound before a poll (slow consumer).
    pub overflow_dropped: u64,
    /// Results currently pending, awaiting [`QueryHandle::poll`].
    pub pending: usize,
    /// Window-operator counters (accepted / late-dropped / emitted).
    pub window: WindowOpStats,
    /// Mean result latency so far (event-time units).
    pub mean_latency: f64,
    /// Results whose latency exceeded [`QueryConfig::latency_slo`] (always
    /// zero when no objective was set).
    pub slo_breaches: u64,
    /// Whether the query was deregistered or the session finished.
    pub closed: bool,
}

/// One subscriber's place in its operator's [`Feed`]: everything the
/// delivery path keeps per query. Every subscriber joined its operator
/// before the operator processed an element (the join rule, see
/// [`MultiQueryCore::register`]), so all of them read one result sequence
/// from its first result on.
struct Subscriber {
    /// Sequence number of the first result this subscriber has not polled.
    cursor: u64,
    /// How many unpolled results it keeps (the newest ones).
    capacity: usize,
    /// Results lost to the capacity bound, counted up to the last poll.
    overflow_dropped: u64,
    latency_slo: Option<u64>,
    slo_breaches: u64,
    closed: bool,
    /// Set by [`Feed::detach`] at deregistration: from then on the
    /// subscriber reads this instead of the feed, and no longer holds any
    /// result in the log.
    frozen: Option<Box<Frozen>>,
}

impl Subscriber {
    /// The first result it can still poll once `head` results were
    /// emitted: its cursor, or the oldest of the newest `capacity` results
    /// if it fell further behind.
    fn first_kept(&self, head: u64) -> u64 {
        self.cursor.max(head.saturating_sub(self.capacity as u64))
    }
}

/// What a deregistered subscriber keeps: its unpolled results and the
/// counters and latency history as they stood when it left.
struct Frozen {
    results: Vec<Arc<WindowResult>>,
    emitted: u64,
    window: WindowOpStats,
    latency: LatencyRecorder,
}

/// The result stream of one window operator, shared by the operator's
/// subscribers and their [`QueryHandle`]s behind one lock: one log of the
/// results, one latency record per result, and a cursor per subscriber.
/// Delivering a result is one lock, one latency record and one push,
/// whatever the number of subscribers.
struct Feed {
    /// The results some attached subscriber may still poll, oldest first:
    /// `log[0]` is result number `base`.
    log: VecDeque<Arc<WindowResult>>,
    base: u64,
    /// Results emitted so far: the sequence number of the next one.
    head: u64,
    /// The largest capacity among attached subscribers, refreshed when one
    /// joins or leaves: a result that many places behind `head` is lost to
    /// every one of them.
    max_capacity: usize,
    /// The latency of every result, which every attached subscriber shares.
    latency: LatencyRecorder,
    /// The operator's counters as of the last `sync_stats`.
    window: WindowOpStats,
    /// Indexed by [`QueryHandle`]'s `slot`; never shrinks.
    subs: Vec<Subscriber>,
}

impl Feed {
    fn new() -> Feed {
        Feed {
            log: VecDeque::new(),
            base: 0,
            head: 0,
            max_capacity: 0,
            latency: LatencyRecorder::new(),
            window: WindowOpStats::default(),
            subs: Vec::new(),
        }
    }

    /// The subscribers that still read the log.
    fn attached(&self) -> impl Iterator<Item = &Subscriber> {
        self.subs.iter().filter(|s| s.frozen.is_none())
    }

    /// Add a subscriber reading from the next result on; returns its slot.
    fn attach(&mut self, config: &QueryConfig) -> usize {
        let capacity = config.result_capacity.max(1);
        self.max_capacity = self.max_capacity.max(capacity);
        self.subs.push(Subscriber {
            cursor: self.head,
            capacity,
            overflow_dropped: 0,
            latency_slo: config.latency_slo,
            slo_breaches: 0,
            closed: false,
            frozen: None,
        });
        self.subs.len() - 1
    }

    /// Hand one result, `lat` late, to every attached subscriber.
    fn deliver(&mut self, r: Arc<WindowResult>, lat: TimeDelta) {
        self.latency.record(lat);
        for s in self.subs.iter_mut().filter(|s| s.frozen.is_none()) {
            if s.latency_slo.is_some_and(|slo| lat.raw() > slo) {
                s.slo_breaches += 1;
            }
        }
        self.head += 1;
        self.log.push_back(r);
        if self.log.len() > self.max_capacity {
            self.log.pop_front();
            self.base += 1;
        }
    }

    /// The first result some attached subscriber can still poll: the log
    /// may drop everything before it.
    fn floor(&self) -> u64 {
        let kept = self.attached().map(|s| s.first_kept(self.head)).min();
        kept.unwrap_or(self.head).max(self.base)
    }

    /// Take every result `slot` has not polled, in emission order, counting
    /// those it lost to its capacity. The results no other attached
    /// subscriber still needs leave the log, so the caller holds their last
    /// copy; the others are shared.
    fn take(&mut self, slot: usize) -> Vec<Arc<WindowResult>> {
        let head = self.head;
        let Some(s) = self.subs.get_mut(slot) else {
            return Vec::new();
        };
        if let Some(f) = &mut s.frozen {
            return std::mem::take(&mut f.results);
        }
        let from = s.first_kept(head);
        s.overflow_dropped += from - s.cursor;
        s.cursor = head;
        // Everything below the floor leaves the log: what this subscriber
        // takes of it moves out, the rest of its range is shared.
        let (skip, passed) = (from - self.base, self.floor() - self.base);
        self.base += passed;
        let drained = self.log.drain(..passed as usize).skip(skip as usize);
        let mut out: Vec<Arc<WindowResult>> = drained.collect();
        let rest = (from.max(self.base) - self.base) as usize;
        out.extend(self.log.range(rest..).cloned());
        out
    }

    /// Deregister `slot`: take its unpolled results out of the log (which
    /// trims what only it still needed), and freeze its counters and
    /// latency history at `window` and this moment.
    fn detach(&mut self, slot: usize, window: WindowOpStats) -> Option<QueryStats> {
        let results = self.take(slot);
        let frozen = Frozen {
            results,
            emitted: self.head,
            window,
            latency: self.latency.clone(),
        };
        let s = self.subs.get_mut(slot)?;
        s.closed = true;
        s.frozen = Some(Box::new(frozen));
        self.max_capacity = self.attached().map(|s| s.capacity).max().unwrap_or(0);
        self.stats(slot)
    }

    fn stats(&self, slot: usize) -> Option<QueryStats> {
        let s = self.subs.get(slot)?;
        Some(match &s.frozen {
            Some(f) => QueryStats {
                emitted: f.emitted,
                overflow_dropped: s.overflow_dropped,
                pending: f.results.len(),
                window: f.window,
                mean_latency: f.latency.mean(),
                slo_breaches: s.slo_breaches,
                closed: s.closed,
            },
            None => {
                let from = s.first_kept(self.head);
                QueryStats {
                    emitted: self.head,
                    overflow_dropped: s.overflow_dropped + (from - s.cursor),
                    pending: (self.head - from) as usize,
                    window: self.window,
                    mean_latency: self.latency.mean(),
                    slo_breaches: s.slo_breaches,
                    closed: s.closed,
                }
            }
        })
    }

    /// The latency history `slot` sees: the feed's, or its own frozen copy.
    fn latency(&self, slot: usize) -> Option<&LatencyRecorder> {
        let s = self.subs.get(slot)?;
        Some(s.frozen.as_ref().map_or(&self.latency, |f| &f.latency))
    }
}

/// Consumer-side handle to one registered query: poll results, read stats.
/// Clones share the subscription; the handle stays valid (and pollable for
/// residual results) after deregistration or session finish.
#[derive(Clone)]
pub struct QueryHandle {
    id: QueryId,
    /// The subscriber's index in the feed's records.
    slot: usize,
    feed: Arc<Mutex<Feed>>,
}

impl QueryHandle {
    /// The id this query was registered under.
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Drain every pending result, in emission order: at most the newest
    /// [`QueryConfig::result_capacity`] results emitted since the last poll
    /// (older ones count in [`QueryStats::overflow_dropped`]). The results
    /// are read off the operator's shared log under its lock; after the lock
    /// is released each is unwrapped (no other subscriber of the operator
    /// has yet to poll it, so this was its last copy) or copied (one has).
    pub fn poll(&self) -> Vec<WindowResult> {
        let taken = self.feed.lock().take(self.slot);
        taken.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    /// Current counters (exact: the session refreshes them whenever the
    /// query's operator processes staged elements).
    pub fn stats(&self) -> QueryStats {
        self.feed.lock().stats(self.slot).unwrap_or_default()
    }

    /// Approximate result-latency quantile so far.
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        self.feed.lock().latency(self.slot)?.quantile(q)
    }

    /// `true` once the query was deregistered or the session finished.
    pub fn is_closed(&self) -> bool {
        self.feed
            .lock()
            .subs
            .get(self.slot)
            .is_none_or(|s| s.closed)
    }
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryHandle").field("id", &self.id).finish()
    }
}

/// Static description of one registered query, for listings (`/queries`).
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// Registration id.
    pub id: QueryId,
    /// The query.
    pub spec: QuerySpec,
    /// The options it was registered with.
    pub config: QueryConfig,
    /// Current counters.
    pub stats: QueryStats,
}

/// One subscriber as registered: its id, what listings read, its record.
struct Member {
    id: QueryId,
    spec: QuerySpec,
    config: QueryConfig,
    /// Its record in the group's feed.
    slot: usize,
}

/// One window operator and the queries of its shape (`members[0].spec`;
/// never empty) that subscribe to its result stream.
struct Group {
    op: WindowAggregateOp,
    /// No element processed yet, so a query of this shape may still join: it
    /// would have fed its own operator exactly what this one will see.
    fresh: bool,
    members: Vec<Member>,
    /// The operator's results, as every member's handle reads them.
    feed: Arc<Mutex<Feed>>,
}

/// Whether two queries compute the same thing: window, key and the
/// `(kind, field)` list. Output names are not part of a [`WindowResult`].
fn same_shape(a: &QuerySpec, b: &QuerySpec) -> bool {
    let fold = |s: &AggregateSpec| (s.kind, s.field);
    a.window == b.window
        && a.key_field == b.key_field
        && a.aggregates
            .iter()
            .map(fold)
            .eq(b.aggregates.iter().map(fold))
}

/// The multi-query fan-out core: one window operator per distinct query
/// shape observing one strategy's output, each delivering its results to
/// every subscriber of that shape. [`Session`] wraps it for resident use,
/// and the sequential batch run behind [`crate::runner::execute`] and
/// [`crate::runner::execute_shared`] feeds it the same way, through
/// [`push_event`].
pub(crate) struct MultiQueryCore {
    groups: Vec<Group>,
    next_id: u64,
    /// Results delivered: one per emission per subscriber.
    results_count: Counter,
    /// First-emission windows, one per emission per *operator*
    /// (`quill.session.windows`). `quill.run.results` over this is the
    /// sharing factor.
    windows_count: Counter,
    /// Events held in window state, summed over the operators
    /// (`quill.window.entries`); refreshed by `sync_stats`.
    entries_gauge: Gauge,
    results_total: u64,
    spans: SpanRecorder,
    /// What the operators built by `register` record into; disabled unless
    /// a batch run attached the caller's (`observe_operators`).
    op_spans: SpanRecorder,
}

impl MultiQueryCore {
    pub(crate) fn new(telemetry: &Registry) -> MultiQueryCore {
        MultiQueryCore {
            groups: Vec::new(),
            next_id: 0,
            results_count: telemetry.counter("quill.run.results"),
            windows_count: telemetry.counter("quill.session.windows"),
            entries_gauge: telemetry.gauge("quill.window.entries"),
            results_total: 0,
            spans: SpanRecorder::disabled(),
            op_spans: SpanRecorder::disabled(),
        }
    }

    /// Re-bind counters to a different registry (builder-time only).
    fn instrument(&mut self, telemetry: &Registry) {
        self.results_count = telemetry.counter("quill.run.results");
        self.windows_count = telemetry.counter("quill.session.windows");
        self.entries_gauge = telemetry.gauge("quill.window.entries");
    }

    /// Record query-tagged [`Stage::Deliver`] spans into `spans`
    /// (builder-time only).
    pub(crate) fn attach_spans(&mut self, spans: &SpanRecorder) {
        self.spans = spans.clone();
    }

    /// Make every operator registered from now on record its
    /// `WindowFinalize` and `LateDrop` records into `spans`, as the batch
    /// entry points promise for
    /// [`ExecOptions::spans`](crate::runner::ExecOptions::spans). A
    /// [`Session`] never calls this, so what it records does not change.
    pub(crate) fn observe_operators(&mut self, spans: &SpanRecorder) {
        self.op_spans = spans.clone();
    }

    /// Add one query; validation errors propagate before any state changes.
    /// It subscribes to the operator of an equal-shape group that has seen
    /// no element yet, and otherwise gets an operator of its own: joining
    /// one that is already running would hand a late subscriber windows
    /// holding events pushed before it arrived. Every event reaches the
    /// operators in the push that carries it, so a new query sees exactly
    /// the events pushed after it registers.
    pub(crate) fn register(
        &mut self,
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> Result<QueryHandle> {
        let joinable = |g: &Group| g.fresh && same_shape(&g.members[0].spec, spec);
        let at = match self.groups.iter().position(joinable) {
            Some(at) => at,
            None => {
                let mut op = spec.window_op()?;
                op.attach_spans(&self.op_spans, 0);
                self.groups.push(Group {
                    op,
                    fresh: true,
                    members: Vec::new(),
                    feed: Arc::new(Mutex::new(Feed::new())),
                });
                self.groups.len() - 1
            }
        };
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let group = &mut self.groups[at];
        let slot = group.feed.lock().attach(config);
        group.members.push(Member {
            id,
            spec: spec.clone(),
            config: config.clone(),
            slot,
        });
        Ok(QueryHandle {
            id,
            slot,
            feed: Arc::clone(&group.feed),
        })
    }

    /// Remove one subscriber and detach it from its operator's feed, its
    /// counters frozen at the operator's of this moment; returns its final
    /// stats. The operator goes with its last subscriber.
    fn remove(&mut self, id: QueryId) -> Option<QueryStats> {
        let (g, m) = self.groups.iter().enumerate().find_map(|(g, group)| {
            let m = group.members.iter().position(|m| m.id == id)?;
            Some((g, m))
        })?;
        let group = &mut self.groups[g];
        let member = group.members.remove(m);
        let stats = group.feed.lock().detach(member.slot, group.op.stats());
        if group.members.is_empty() {
            self.groups.remove(g);
        }
        stats
    }

    /// Every subscriber with its group, group by group.
    fn members(&self) -> impl Iterator<Item = (&Member, &Group)> {
        self.groups
            .iter()
            .flat_map(|g| g.members.iter().map(move |m| (m, g)))
    }

    /// Registered queries.
    pub(crate) fn len(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    /// Smallest window slide among the registered queries.
    fn min_slide(&self) -> Option<TimeDelta> {
        self.groups
            .iter()
            .map(|g| g.members[0].spec.window.slide())
            .min()
    }

    /// Fan one staged element out to every operator and each operator's
    /// results to its subscribers. `now` is the clock results emitted by this
    /// element are stamped with (the latency of a result is
    /// `now - window.end`). Every operator reads the same borrowed element.
    ///
    /// A result is delivered the moment its window is emitted, not when the
    /// operator returns: closing a window also evicts its events, and a
    /// consumer polling meanwhile should not wait for that. Delivery is one
    /// push onto the operator's feed under one lock, and the `Deliver` spans
    /// of its subscribers one batch under one ring lock. Returns how many
    /// results were delivered (one per emission per subscriber).
    pub(crate) fn process_element(&mut self, el: &StreamElement, now: Timestamp) -> u64 {
        let before = self.results_total;
        let MultiQueryCore {
            groups,
            results_count,
            windows_count,
            results_total,
            spans,
            ..
        } = self;
        for Group {
            op,
            fresh,
            members,
            feed,
        } in groups.iter_mut()
        {
            *fresh = false;
            op.process_ref(el, &mut |r| {
                windows_count.inc();
                results_count.add(members.len() as u64);
                *results_total += members.len() as u64;
                let (end, lat) = (r.window.end.raw(), now.delta_since(r.window.end));
                let ids = members.iter().map(|m| m.id.0);
                spans.record_for_queries(Stage::Deliver, end, now.raw().max(end), 0, ids);
                let r = Arc::new(r);
                feed.lock().deliver(r, lat);
            });
        }
        self.results_total - before
    }

    /// Refresh every operator's counter mirror and the held-entries gauge:
    /// one lock per operator.
    pub(crate) fn sync_stats(&mut self) {
        for g in &self.groups {
            g.feed.lock().window = g.op.stats();
        }
        let held = self.groups.iter().map(|g| g.op.held_events());
        self.entries_gauge.set(held.sum::<u64>() as f64);
    }

    /// End of stream: refresh every operator's counters and close every
    /// subscription.
    pub(crate) fn close_all(&mut self) {
        self.sync_stats();
        for g in &self.groups {
            g.feed.lock().subs.iter_mut().for_each(|s| s.closed = true);
        }
    }
}

/// The per-event step of every loop — [`Session::push_batch`] and the
/// batch runner behind [`crate::runner::execute`]: advance the clock, hand
/// `e` to the strategy, and route each element it releases to `sink`,
/// stamped with the clock as of `e`. Returns whether anything was released.
pub(crate) fn push_event(
    strategy: &mut dyn DisorderControl,
    clock: &mut ClockTracker,
    staged: &mut Vec<StreamElement>,
    e: Event,
    sink: impl FnMut(StreamElement, Timestamp),
) -> bool {
    clock.observe(e.ts);
    strategy.on_event(e, staged);
    release(clock, staged, sink)
}

/// Hand every element in `staged` to `sink`, in order and stamped with the
/// current clock, leaving it empty. Returns whether there were any.
pub(crate) fn release(
    clock: &ClockTracker,
    staged: &mut Vec<StreamElement>,
    mut sink: impl FnMut(StreamElement, Timestamp),
) -> bool {
    let now = clock.clock().unwrap_or(Timestamp::MIN);
    let released = !staged.is_empty();
    for el in staged.drain(..) {
        sink(el, now);
    }
    released
}

/// Counters for the whole session, snapshot-able at any time.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Events pushed.
    pub events: u64,
    /// Heartbeats applied.
    pub heartbeats: u64,
    /// Queries currently registered.
    pub queries: usize,
    /// Results delivered over the session's lifetime, one per emission per
    /// subscriber (deregistered queries included).
    pub results: u64,
    /// The slack currently in force.
    pub current_k: TimeDelta,
    /// Events pushed whose timestamp the watermark has not passed yet (they
    /// already sit in window state; the buffer holds only their count).
    pub buffered: u64,
    /// The stream clock (max event timestamp observed).
    pub clock: Option<Timestamp>,
    /// Whether [`Session::finish`] ran.
    pub finished: bool,
}

/// A resident multi-query execution session over one shared disorder-control
/// strategy. See the [module docs](self) for the model and an example.
///
/// Mid-stream registration is first-class: a query registered after events
/// flowed observes exactly the events pushed from then on, since every push
/// reaches the operators at once — its first windows may be partial, exactly
/// as a newly subscribed consumer expects. Results, ordering and latency
/// stamping for queries registered before the first event are
/// element-identical to the batch paths (proved in the `session_api`
/// integration tests).
pub struct Session {
    strategy: Box<dyn DisorderControl>,
    core: MultiQueryCore,
    clock: ClockTracker,
    staged: Vec<StreamElement>,
    run_events: Counter,
    queries_gauge: Gauge,
    operators_gauge: Gauge,
    events: u64,
    heartbeats: u64,
    finished: bool,
}

impl Session {
    /// Build a session around a disorder-control strategy (telemetry
    /// disabled).
    pub fn new(strategy: Box<dyn DisorderControl>) -> Session {
        let telemetry = Registry::disabled();
        Session {
            core: MultiQueryCore::new(&telemetry),
            run_events: telemetry.counter("quill.run.events"),
            queries_gauge: telemetry.gauge("quill.session.queries"),
            operators_gauge: telemetry.gauge("quill.session.operators"),
            strategy,
            clock: ClockTracker::new(),
            staged: Vec::new(),
            events: 0,
            heartbeats: 0,
            finished: false,
        }
    }

    /// Record telemetry into `registry`: the strategy's `quill.buffer.*`
    /// instruments, `quill.run.events` / `quill.run.results` /
    /// `quill.session.windows` counters and the `quill.session.queries` /
    /// `quill.session.operators` / `quill.window.entries` gauges (the last:
    /// events held in window state over all operators, refreshed once per
    /// pushed batch). `quill.run.results` counts results *delivered* (one
    /// per subscriber), `quill.session.windows` emissions per *operator*:
    /// with every query on one shape their ratio is the number of queries
    /// each fold served.
    /// Builder-style; attach before the first event.
    pub fn with_telemetry(mut self, registry: &Registry) -> Session {
        self.strategy.instrument(registry);
        self.core.instrument(registry);
        self.run_events = registry.counter("quill.run.events");
        self.queries_gauge = registry.gauge("quill.session.queries");
        self.operators_gauge = registry.gauge("quill.session.operators");
        self
    }

    /// Record the session's record stream into `spans`, on the logical
    /// event-time clock: from the strategy's slack buffer one
    /// [`Stage::BufferResidency`] per watermark advance (oldest released
    /// timestamp → watermark), one [`Stage::LateArrival`] per late pass and
    /// one [`Stage::KChange`] per K decision (the initial K included), and a
    /// query-tagged [`Stage::Deliver`] span per emitted result (window end →
    /// emission clock). Builder-style; attach before the first event.
    pub fn with_spans(mut self, spans: &SpanRecorder) -> Session {
        self.strategy.attach_spans(spans);
        self.core.attach_spans(spans);
        self
    }

    /// Register a query with default [`QueryConfig`].
    ///
    /// # Errors
    /// As [`Session::register_with`].
    pub fn register(&mut self, spec: &QuerySpec) -> Result<QueryHandle> {
        self.register_with(spec, QueryConfig::default())
    }

    /// Register a query with explicit per-query options.
    ///
    /// # Errors
    /// Propagates invalid window/aggregate specifications, refuses a
    /// [`QueryConfig::required_completeness`] outside (0, 1] with
    /// [`EngineError::InvalidSpec`], and refuses registration on a finished
    /// session.
    pub fn register_with(&mut self, spec: &QuerySpec, cfg: QueryConfig) -> Result<QueryHandle> {
        if self.finished {
            return Err(EngineError::InvalidPipeline(
                "cannot register on a finished session".into(),
            ));
        }
        check_completeness(cfg.required_completeness)?;
        let handle = self.core.register(spec, &cfg)?;
        self.registrations_changed();
        Ok(handle)
    }

    /// Remove a query. Its handles stay pollable for already-emitted
    /// results; the returned stats are final.
    ///
    /// # Errors
    /// [`EngineError::InvalidPipeline`] for an unknown id.
    pub fn deregister(&mut self, id: QueryId) -> Result<QueryStats> {
        let stats = self.core.remove(id).ok_or_else(|| {
            EngineError::InvalidPipeline(format!("unknown query id {id} in session"))
        })?;
        self.registrations_changed();
        Ok(stats)
    }

    /// After a register or deregister: refresh the gauges and tell the
    /// strategy the smallest slide now registered.
    fn registrations_changed(&mut self) {
        self.queries_gauge.set_u64(self.core.len() as u64);
        self.operators_gauge.set_u64(self.operators() as u64);
        self.strategy.set_min_slide(self.core.min_slide());
    }

    /// Push one arriving event; any unlocked results land on the
    /// subscriptions of registered queries. No-op after
    /// [`Session::finish`].
    pub fn push(&mut self, e: Event) {
        self.push_batch(std::iter::once(e));
    }

    /// Push a run of arriving events, in order. Results, their order and
    /// their latency stamps are those of one [`Session::push`] per event —
    /// each event's results carry the clock as of that event — but the
    /// per-query counter mirrors ([`QueryStats::window`]) are refreshed once,
    /// after the last event, instead of once per event per query. No-op
    /// after [`Session::finish`].
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = Event>) {
        if self.finished {
            return;
        }
        let (mut pushed, mut routed) = (0u64, false);
        for e in events {
            pushed += 1;
            routed |= push_event(
                self.strategy.as_mut(),
                &mut self.clock,
                &mut self.staged,
                e,
                |el, now| {
                    self.core.process_element(&el, now);
                },
            );
        }
        self.run_events.add(pushed);
        self.events += pushed;
        if routed {
            self.core.sync_stats();
        }
    }

    /// Apply a per-source heartbeat (a promise that no future event from
    /// `source` has a timestamp below `ts`): progress-driven strategies like
    /// [`crate::punctuated::PunctuatedBuffer`] advance their watermark,
    /// which may close windows; delay-driven strategies ignore it. No-op
    /// after [`Session::finish`].
    pub fn heartbeat(&mut self, source: &Key, ts: Timestamp) {
        if self.finished {
            return;
        }
        self.heartbeats += 1;
        self.strategy.on_heartbeat(source, ts, &mut self.staged);
        if self.route() {
            self.core.sync_stats();
        }
    }

    /// End of stream: finalize every open window (the strategy's `Flush`
    /// acts as the final watermark), and close all subscriptions.
    /// Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.strategy.finish(&mut self.staged);
        self.route();
        self.core.close_all();
    }

    /// Fan the staged elements out, stamped with the current clock. Returns
    /// whether there were any: the caller owes the subscriptions a
    /// `sync_stats` then.
    fn route(&mut self) -> bool {
        release(&self.clock, &mut self.staged, |el, now| {
            self.core.process_element(&el, now);
        })
    }

    /// Whether [`Session::finish`] ran.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Session-wide counters.
    pub fn stats(&self) -> SessionStats {
        let b = self.strategy.buffer_stats();
        SessionStats {
            events: self.events,
            heartbeats: self.heartbeats,
            queries: self.core.len(),
            results: self.core.results_total,
            current_k: self.strategy.current_k(),
            buffered: b.inserted.saturating_sub(b.released),
            clock: self.clock.clock(),
            finished: self.finished,
        }
    }

    /// The slack currently in force.
    pub fn current_k(&self) -> TimeDelta {
        self.strategy.current_k()
    }

    /// Strategy name.
    pub fn strategy_name(&self) -> String {
        self.strategy.name()
    }

    /// Ids of all currently registered queries, in registration order.
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self.core.members().map(|(m, _)| m.id).collect();
        ids.sort();
        ids
    }

    /// Window operators currently running: queries of equal shape (window,
    /// key field, aggregate kinds and fields) registered between the same two
    /// pushes share one, so this is at most the number of queries.
    pub fn operators(&self) -> usize {
        self.core.groups.len()
    }

    /// Describe one registered query (spec, target, live counters).
    pub fn query_info(&self, id: QueryId) -> Option<QueryInfo> {
        let (m, g) = self.core.members().find(|(m, _)| m.id == id)?;
        let mut stats = g.feed.lock().stats(m.slot)?;
        stats.window = g.op.stats();
        Some(QueryInfo {
            id: m.id,
            spec: m.spec.clone(),
            config: m.config.clone(),
            stats,
        })
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("strategy", &self.strategy.name())
            .field("queries", &self.core.len())
            .field("events", &self.events)
            .field("finished", &self.finished)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, ExecOptions};
    use crate::strategy::FixedKSlack;
    use quill_engine::aggregate::{AggregateKind, AggregateSpec};
    use quill_engine::prelude::{Row, Value, WindowSpec};

    fn query() -> QuerySpec {
        QuerySpec::new(
            WindowSpec::tumbling(100u64),
            vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
            None,
        )
    }

    fn events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| {
                let ts = if i % 5 == 3 {
                    (i * 10).saturating_sub(35)
                } else {
                    i * 10
                };
                Event::new(ts, i, Row::new([Value::Float(1.0)]))
            })
            .collect()
    }

    #[test]
    fn session_matches_batch_runner_results() {
        let evs = events(500);
        let mut session = Session::new(Box::new(FixedKSlack::new(50u64)));
        let handle = session.register(&query()).unwrap();
        for e in &evs {
            session.push(e.clone());
        }
        session.finish();
        let live = handle.poll();

        let mut batch_strategy = FixedKSlack::new(50u64);
        let batch = execute(
            &evs,
            &mut batch_strategy,
            &query(),
            &ExecOptions::sequential(),
        )
        .unwrap();
        assert_eq!(live, batch.results);
        assert_eq!(handle.stats().emitted as usize, batch.results.len());
    }

    #[test]
    fn register_and_deregister_at_runtime() {
        let evs = events(400);
        let mut session = Session::new(Box::new(FixedKSlack::new(50u64)));
        let first = session.register(&query()).unwrap();
        for e in &evs[..200] {
            session.push(e.clone());
        }
        // Register mid-stream: observes only the tail of the stream.
        let second = session.register(&query()).unwrap();
        assert_ne!(first.id(), second.id());
        for e in &evs[200..] {
            session.push(e.clone());
        }
        let final_stats = session.deregister(first.id()).unwrap();
        assert!(final_stats.closed);
        assert!(first.is_closed());
        assert!(session.deregister(first.id()).is_err(), "double deregister");
        session.finish();
        assert!(second.stats().emitted < final_stats.emitted + second.stats().emitted);
        assert!(!first.poll().is_empty(), "residual results stay pollable");
        assert!(!second.poll().is_empty());
        assert!(
            second.stats().window.accepted < final_stats.window.accepted,
            "the late subscriber saw fewer events"
        );
    }

    #[test]
    fn finished_session_refuses_work() {
        let mut session = Session::new(Box::new(FixedKSlack::new(10u64)));
        let handle = session.register(&query()).unwrap();
        session.push(Event::new(5u64, 0, Row::new([Value::Float(1.0)])));
        session.finish();
        assert!(session.finished());
        assert!(handle.is_closed());
        session.finish(); // idempotent
        session.push(Event::new(999u64, 1, Row::new([Value::Float(1.0)])));
        assert_eq!(session.stats().events, 1);
        assert!(session.register(&query()).is_err());
    }

    #[test]
    fn invalid_query_and_denied_plan_are_refused() {
        let mut session = Session::new(Box::new(FixedKSlack::new(10u64)));
        let bad = QuerySpec::new(WindowSpec::tumbling(0u64), vec![], None);
        assert!(session.register(&bad).is_err());
        // Completeness outside (0, 1] is an invalid spec.
        let cfg = QueryConfig::default().with_required_completeness(1.5);
        assert!(matches!(
            session.register_with(&query(), cfg),
            Err(EngineError::InvalidSpec(_))
        ));
        // The session still works after refusals.
        assert!(session.register(&query()).is_ok());
    }

    #[test]
    fn bounded_subscription_drops_oldest_on_overflow() {
        let mut session = Session::new(Box::new(FixedKSlack::new(0u64)));
        let cfg = QueryConfig::default().with_result_capacity(2);
        let handle = session.register_with(&query(), cfg).unwrap();
        for i in 0..10u64 {
            session.push(Event::new(i * 100, i, Row::new([Value::Float(1.0)])));
        }
        session.finish();
        let stats = handle.stats();
        assert!(stats.overflow_dropped > 0);
        let kept = handle.poll();
        assert_eq!(kept.len(), 2);
        assert_eq!(stats.emitted, kept.len() as u64 + stats.overflow_dropped);
        // The *newest* results survive.
        assert_eq!(kept.last().unwrap().window.end, Timestamp(1000));
    }

    #[test]
    fn the_log_keeps_the_largest_live_capacity_and_a_closed_handle_its_own() {
        let mut session = Session::new(Box::new(FixedKSlack::new(0u64)));
        let cfg = |c| QueryConfig::default().with_result_capacity(c);
        let small = session.register_with(&query(), cfg(2)).unwrap();
        let large = session.register_with(&query(), cfg(5)).unwrap();
        let logged = || small.feed.lock().log.len();
        // Event `i` closes window `i - 1`: nobody polls, and the log keeps
        // the five results the larger bound can still hand out.
        let push = |session: &mut Session, from: u64, to: u64| {
            for i in from..to {
                session.push(Event::new(i * 100, i, Row::new([Value::Float(1.0)])));
            }
        };
        for i in 0..20u64 {
            push(&mut session, i, i + 1);
            assert_eq!(logged(), (i as usize).min(5));
        }
        // Deregistered, the larger one copies its five out and the log
        // keeps what the smaller one can still poll.
        let gone = session.deregister(large.id()).unwrap();
        assert_eq!(
            (gone.emitted, gone.pending, gone.overflow_dropped),
            (19, 5, 14)
        );
        assert_eq!(logged(), 2);
        // A closed handle that is never polled pins nothing.
        push(&mut session, 20, 40);
        assert_eq!(logged(), 2);
        let frozen = large.stats();
        assert_eq!(
            (frozen.emitted, frozen.pending, frozen.closed),
            (19, 5, true)
        );
        let kept: Vec<u64> = large.poll().iter().map(|r| r.window.end.raw()).collect();
        assert_eq!(kept, vec![1500, 1600, 1700, 1800, 1900]);
        assert!(large.poll().is_empty());
        assert_eq!(small.poll().len(), 2);
        assert_eq!(logged(), 0);
        let s = small.stats();
        assert_eq!((s.emitted, s.overflow_dropped, s.pending), (39, 37, 0));
    }

    #[test]
    fn heartbeats_advance_punctuated_watermarks() {
        use crate::punctuated::PunctuatedBuffer;
        let mut session = Session::new(Box::new(PunctuatedBuffer::new(0, 2)));
        let handle = session.register(&query()).unwrap();
        // Two sources; source 2 is silent, so nothing can be released...
        session.push(Event::new(
            150u64,
            0,
            Row::new([Value::Int(1), Value::Float(1.0)]),
        ));
        session.push(Event::new(
            250u64,
            1,
            Row::new([Value::Int(1), Value::Float(1.0)]),
        ));
        assert!(handle.poll().is_empty());
        // ...until its heartbeat vouches for its progress.
        session.heartbeat(&Key(Value::Int(2)), Timestamp(240));
        let results = handle.poll();
        assert_eq!(results.len(), 1, "window [100,200) released by heartbeat");
        assert_eq!(session.stats().heartbeats, 1);
    }

    #[test]
    fn telemetry_reflects_session_progress() {
        let registry = Registry::new();
        let mut session = Session::new(Box::new(FixedKSlack::new(50u64))).with_telemetry(&registry);
        let handle = session.register(&query()).unwrap();
        for e in events(300) {
            session.push(e);
        }
        session.finish();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("quill.run.events"), 300);
        assert_eq!(snap.counter("quill.run.results"), handle.stats().emitted);
        assert!(snap.counter("quill.session.windows") > 0);
        assert_eq!(snap.gauge("quill.session.queries"), Some(1.0));
        assert_eq!(
            snap.counter("quill.buffer.inserted") + snap.counter("quill.buffer.late_passed"),
            300
        );
    }

    #[test]
    fn many_queries_share_one_buffer() {
        let mut session = Session::new(Box::new(FixedKSlack::new(50u64)));
        let handles: Vec<QueryHandle> = (0..32)
            .map(|_| session.register(&query()).unwrap())
            .collect();
        for e in events(200) {
            session.push(e);
        }
        session.finish();
        let first = handles[0].poll();
        assert!(!first.is_empty());
        for h in &handles[1..] {
            assert_eq!(h.poll(), first, "identical queries see identical results");
        }
        // The buffer was paid once: 200 events inserted, not 200 × 32.
        let s = session.stats();
        assert_eq!(s.events, 200);
        assert_eq!(s.results, 32 * first.len() as u64);
    }

    #[test]
    fn latency_slo_breaches_are_counted_per_query() {
        let mut session = Session::new(Box::new(FixedKSlack::new(50u64)));
        // K = 50 means a window closes ~50 event-time units after its end:
        // every watermark-closed window breaches an SLO of 10 and none
        // breach an SLO of 10_000.
        let tight = session
            .register_with(&query(), QueryConfig::default().with_latency_slo(10))
            .unwrap();
        let loose = session
            .register_with(&query(), QueryConfig::default().with_latency_slo(10_000))
            .unwrap();
        for i in 0..50u64 {
            session.push(Event::new(i * 10, i, Row::new([Value::Float(1.0)])));
        }
        session.finish();
        let t = tight.stats();
        assert!(t.slo_breaches > 0, "tight SLO must burn");
        assert!(t.slo_breaches <= t.emitted);
        assert_eq!(loose.stats().slo_breaches, 0, "loose SLO never burns");
        // No SLO configured → the counter stays untouched.
        let mut plain = Session::new(Box::new(FixedKSlack::new(50u64)));
        let h = plain.register(&query()).unwrap();
        for i in 0..50u64 {
            plain.push(Event::new(i * 10, i, Row::new([Value::Float(1.0)])));
        }
        plain.finish();
        assert_eq!(h.stats().slo_breaches, 0);
    }

    #[test]
    fn session_spans_reconcile_with_latency_accounting() {
        let spans = SpanRecorder::with_default_capacity();
        let mut session = Session::new(Box::new(FixedKSlack::new(50u64))).with_spans(&spans);
        let handle = session.register(&query()).unwrap();
        let other = session.register(&query()).unwrap();
        for e in events(300) {
            session.push(e);
        }
        session.finish();
        let stats = handle.stats();
        let all = spans.spans();
        assert!(
            all.iter().any(|s| s.stage == Stage::BufferResidency),
            "buffer residency is traced through the strategy"
        );
        // One record per subscriber per result, in registration order, with
        // the same extent.
        let both: Vec<_> = all.iter().filter(|s| s.stage == Stage::Deliver).collect();
        assert_eq!(both.len() as u64, 2 * stats.emitted);
        for pair in both.chunks(2) {
            assert_eq!([pair[0].query, pair[1].query], [0, 1]);
            assert_eq!((pair[0].begin, pair[0].end), (pair[1].begin, pair[1].end));
        }
        let deliver: Vec<_> = both.into_iter().step_by(2).collect();
        assert!(
            deliver.iter().all(|s| s.query == handle.id().raw()),
            "deliver spans are tagged with the registered query id"
        );
        assert_eq!(other.stats().mean_latency, stats.mean_latency);
        // Span-derived end-to-end latency reconciles exactly with the
        // session's own accounting: both measure emission clock − window
        // end, saturating at zero.
        let sum: u64 = deliver.iter().map(|s| s.duration()).sum();
        let mean = sum as f64 / deliver.len() as f64;
        assert!(
            (mean - stats.mean_latency).abs() < 1e-9,
            "span mean {mean} != recorded mean {}",
            stats.mean_latency
        );
    }

    #[test]
    fn query_info_lists_registered_queries() {
        let mut session = Session::new(Box::new(FixedKSlack::new(50u64)));
        let cfg = QueryConfig::default().with_required_completeness(0.9);
        let h = session.register_with(&query(), cfg).unwrap();
        assert_eq!(session.query_ids(), vec![h.id()]);
        let info = session.query_info(h.id()).unwrap();
        assert_eq!(info.config.required_completeness, Some(0.9));
        assert_eq!(info.spec.aggregates.len(), 1);
        assert!(session.query_info(QueryId::from_raw(999)).is_none());
    }
}
