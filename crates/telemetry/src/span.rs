//! The record stream: pipeline spans, quality incidents and latency
//! attribution in one ring.
//!
//! The [`crate::Registry`] counts things; this module records *what
//! happened, when, and how long it took*. A [`Span`] is one fixed-width
//! record: begin and end stamps on one clock, the [`Stage`] it belongs to,
//! the shard that produced it, an optional owning query, and two detail
//! words plus a [`KChangeReason`] byte whose meaning the stage fixes (see
//! [`Stage`]). Stages with an extent time a pipeline segment (buffer
//! residency, window finalization lag, delivery latency); instant stages
//! (`k_change`, `late_drop`) have `begin == end` and mark a
//! decision or incident. Records accumulate in a bounded ring
//! ([`SpanRecorder`]): clones share it, sequence numbers are assigned under
//! the ring lock (ring order *is* seq order, across shard threads too), and
//! a [`SpanRecorder::disabled`] recorder makes every hook a branch on a
//! `None` the optimiser folds away — instrumentation stays in place
//! unconditionally and costs nothing when nobody is watching (the quill-e2e
//! benchmark's `bench.trace_overhead_pct` layer measures what an enabled
//! recorder costs).
//!
//! Everything else is a view over a drained `Vec<Span>`: per-stage
//! attribution ([`attribute`]) and per-window provenance and post-mortems
//! ([`crate::trace`]).
//!
//! ## One clock
//!
//! Every record is stamped with *logical* time: event-time units of the
//! stream itself (an event's timestamp, the watermark that released it).
//! The pipeline code that records (strategies, buffers, the session, the
//! window operators) must not read wall clocks — the `no-wall-clock` lint
//! enforces it — so one ring never mixes incomparable units, in a batch run
//! or behind `quill-serve`'s `GET /trace` alike.
//!
//! ## Attribution
//!
//! [`SpanRecorder::instrument`] attaches one `quill.span.<stage>` registry
//! histogram per stage with an extent; every timed record also records its
//! duration there, *before* ring eviction, so the per-stage latency
//! attribution on `/metrics` covers the whole run even when the ring has
//! wrapped. [`attribute`] computes the same per-stage totals from a drained
//! ring.
//!
//! ## Export
//!
//! Records serialize to one format, JSON-lines ([`Span::to_json_line`] /
//! [`Span::parse_json_line`], exact round-trip, the detail words under
//! their stage's names): [`write_spans_jsonl`] writes it for batch runs and
//! `GET /trace` serves it from the daemon, and `quill-inspect` reads both.

use crate::json::Fields;
use crate::{Histogram, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Default ring capacity for an enabled span recorder.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// `query` value of a record that belongs to no particular query.
pub const NO_QUERY: u64 = u64::MAX;

/// What a record covers. Each variant is one segment of the path an event
/// takes from the wire to a delivered window result, or one incident on
/// the quality path. The stage fixes what the two detail words hold
/// ([`Stage::detail_names`]; 0 where a word is unnamed):
///
/// | stage | begin → end | detail 0 | detail 1 |
/// |---|---|---|---|
/// | `BufferResidency` | oldest released ts → watermark (stream clock at the flush) | events released | watermark emitted (`u64::MAX` at the flush) |
/// | `WindowFinalize` | window end → watermark that closed it | window start | [`key_tag`] of the key |
/// | `LateArrival` | event ts → the watermark it arrived behind | input seq | — |
/// | `KChange` | decision time (instant) | K before | K after (plus the [`KChangeReason`]) |
/// | `LateDrop` | event ts (instant) | input seq | — |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// One watermark advance of the disorder-control slack buffer: from the
    /// oldest event it released to the watermark — the longest
    /// buffer-induced event-time latency in that release, which is what the
    /// paper trades against quality. An advance that released nothing has
    /// zero extent and is not timed.
    BufferResidency,
    /// A window's finalization lag: from the window end to the watermark
    /// that closed it.
    WindowFinalize,
    /// Result delivery: from the window end to the clock at which the
    /// result reached the consumer (run output, session queue poll).
    Deliver,
    /// An event arrived behind the emitted watermark and passed the buffer
    /// late: from its timestamp to that watermark (its lateness).
    LateArrival,
    /// A strategy changed the slack bound K (instant).
    KChange,
    /// The window operator dropped a late event (instant). A drop at `ts`
    /// counts for window `[s, e)` iff `s <= ts < e`.
    LateDrop,
}

impl Stage {
    /// Every stage, in serialization order.
    pub const ALL: [Stage; 6] = [
        Stage::BufferResidency,
        Stage::WindowFinalize,
        Stage::Deliver,
        Stage::LateArrival,
        Stage::KChange,
        Stage::LateDrop,
    ];

    /// Stable serialization token (also the `quill.span.<stage>` histogram
    /// suffix).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::BufferResidency => "buffer_residency",
            Stage::WindowFinalize => "window_finalize",
            Stage::Deliver => "deliver",
            Stage::LateArrival => "late_arrival",
            Stage::KChange => "k_change",
            Stage::LateDrop => "late_drop",
        }
    }

    /// Parse a serialization token.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// Whether records of this stage mark a moment rather than time an
    /// extent. Instants feed no `quill.span.*` histogram.
    pub fn is_instant(self) -> bool {
        matches!(self, Stage::KChange | Stage::LateDrop)
    }

    /// Serialization names of the two detail words (`None`: the stage
    /// leaves that word 0). See the table on [`Stage`].
    pub fn detail_names(self) -> [Option<&'static str>; 2] {
        match self {
            Stage::BufferResidency => [Some("released"), Some("watermark")],
            Stage::WindowFinalize => [Some("start"), Some("key_tag")],
            Stage::LateArrival | Stage::LateDrop => [Some("input_seq"), None],
            Stage::KChange => [Some("old_k"), Some("new_k")],
            _ => [None, None],
        }
    }

    /// Dense index into per-stage tables.
    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a disorder-control strategy changed K.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KChangeReason {
    /// The K a strategy starts with (recorded once when spans attach).
    Initial,
    /// AQ warm-up: K follows the maximum observed delay while the delay
    /// sample fills.
    Warmup,
    /// A regular AQ adaptation step moved K to the estimator quantile.
    Adapt,
    /// The AQ shrink rate-limiter held K above the model's candidate.
    ShrinkLimited,
    /// The candidate was clamped at `k_min`/`k_max`.
    BoundClamped,
    /// MP-style ratchet: a new maximum delay raised K.
    Ratchet,
}

impl KChangeReason {
    /// Stable serialization token.
    pub fn as_str(self) -> &'static str {
        match self {
            KChangeReason::Initial => "initial",
            KChangeReason::Warmup => "warmup",
            KChangeReason::Adapt => "adapt",
            KChangeReason::ShrinkLimited => "shrink_limited",
            KChangeReason::BoundClamped => "bound_clamped",
            KChangeReason::Ratchet => "ratchet",
        }
    }

    /// Parse a serialization token.
    pub fn parse(s: &str) -> Option<KChangeReason> {
        Some(match s {
            "initial" => KChangeReason::Initial,
            "warmup" => KChangeReason::Warmup,
            "adapt" => KChangeReason::Adapt,
            "shrink_limited" => KChangeReason::ShrinkLimited,
            "bound_clamped" => KChangeReason::BoundClamped,
            "ratchet" => KChangeReason::Ratchet,
            _ => return None,
        })
    }
}

impl std::fmt::Display for KChangeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A 64-bit tag for a grouping key's display form (FNV-1a over its
/// bytes), so a `WindowFinalize` record names its key without owning a
/// string. [`crate::trace::ProvenanceBuilder`] tags the stringified keys of
/// quality reports the same way.
pub fn key_tag(key: impl std::fmt::Display) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(h, "{key}");
    h.0
}

/// One record of the stream: a stage interval (or instant) with two
/// stage-defined detail words. `begin <= end` is not enforced — durations
/// saturate at 0 instead, so a clock oddity can never panic the hot path.
/// Holds no heap-owning field, so the ring is a flat array of 56-byte
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Monotone sequence number, assigned under the ring lock.
    pub seq: u64,
    /// The stage covered.
    pub stage: Stage,
    /// Interval start, in event-time units.
    pub begin: u64,
    /// Interval end, in event-time units (`begin` for instants).
    pub end: u64,
    /// Shard that produced the record (0 for pre-fan-out components).
    pub shard: u32,
    /// Owning query id, [`NO_QUERY`] when not query-scoped.
    pub query: u64,
    /// The two detail words the stage defines ([`Stage::detail_names`]).
    pub detail: [u64; 2],
    /// Why K changed, on [`Stage::KChange`] records (`None` elsewhere).
    pub reason: Option<KChangeReason>,
}

impl Span {
    /// The interval length (0 when `end < begin`).
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }

    /// Whether the record times work that latency attribution counts:
    /// instants never do, nor a buffer advance that released nothing.
    pub fn is_timed(&self) -> bool {
        let idle_advance = self.stage == Stage::BufferResidency && self.detail[0] == 0;
        !(self.stage.is_instant() || idle_advance)
    }

    /// Render as one JSON object on a single line. `query` is omitted for
    /// [`NO_QUERY`] records, the detail words appear under their stage's
    /// names, and `reason` only on K changes.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(112);
        let _ = write!(
            out,
            "{{\"seq\":{},\"stage\":\"{}\",\"begin\":{},\"end\":{},\"shard\":{}",
            self.seq,
            self.stage.as_str(),
            self.begin,
            self.end,
            self.shard
        );
        if self.query != NO_QUERY {
            let _ = write!(out, ",\"query\":{}", self.query);
        }
        for (name, value) in self.stage.detail_names().iter().zip(self.detail) {
            if let Some(name) = name {
                let _ = write!(out, ",\"{name}\":{value}");
            }
        }
        if let Some(reason) = self.reason {
            let _ = write!(out, ",\"reason\":\"{reason}\"");
        }
        out.push('}');
        out
    }

    /// Parse one line produced by [`Span::to_json_line`].
    ///
    /// # Errors
    /// A message naming the malformed or missing field.
    pub fn parse_json_line(line: &str) -> Result<Span, String> {
        Span::from_fields(&Fields::parse(line)?)
    }

    pub(crate) fn from_fields(fields: &Fields) -> Result<Span, String> {
        let stage_tok = fields.str("stage")?;
        let stage =
            Stage::parse(stage_tok).ok_or_else(|| format!("unknown span stage {stage_tok:?}"))?;
        let mut detail = [0; 2];
        for (word, name) in detail.iter_mut().zip(stage.detail_names()) {
            if let Some(name) = name {
                *word = fields.u64(name)?;
            }
        }
        let reason = match fields.opt_str("reason") {
            None => None,
            Some(s) => Some(
                KChangeReason::parse(s).ok_or_else(|| format!("unknown k-change reason {s:?}"))?,
            ),
        };
        Ok(Span {
            seq: fields.u64("seq")?,
            stage,
            begin: fields.u64("begin")?,
            end: fields.u64("end")?,
            shard: u32::try_from(fields.u64("shard")?).map_err(|_| "shard is not a u32")?,
            query: fields.opt_u64("query")?.unwrap_or(NO_QUERY),
            detail,
            reason,
        })
    }
}

/// The bounded ring behind an enabled recorder, and the attribution
/// histograms its timed records feed: one lock covers a whole record.
#[derive(Debug)]
struct SpanRing {
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Span>,
    /// Per-stage attribution histograms (no-ops until
    /// [`SpanRecorder::instrument`], and always for instants), indexed by
    /// [`Stage::index`].
    stage_hists: [Histogram; Stage::ALL.len()],
}

impl SpanRing {
    /// Stamp `span` with the next sequence number and append it, evicting
    /// the oldest record beyond `capacity`. The caller holds the ring lock,
    /// so ring order equals seq order even across threads; a timed record's
    /// duration is folded into its stage's attribution histogram before any
    /// eviction.
    fn push(&mut self, capacity: usize, span: Span) {
        if span.is_timed() {
            self.stage_hists[span.stage.index()].record(span.duration());
        }
        self.append(capacity, span);
    }

    /// [`SpanRing::push`] without the attribution histogram.
    fn append(&mut self, capacity: usize, mut span: Span) {
        span.seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() >= capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(span);
    }
}

#[derive(Debug)]
struct SpanInner {
    capacity: usize,
    ring: Mutex<SpanRing>,
}

/// A lock-cheap, bounded recorder of [`Span`]s. Clone it freely — clones
/// share the ring. [`SpanRecorder::disabled`] (also `Default`) is the
/// zero-cost variant: every `record*` call is a branch on `None`.
///
/// When the ring is full the oldest record is overwritten and
/// [`SpanRecorder::dropped`] counts it; attribution histograms are updated
/// before eviction, so `/metrics` latency attribution covers the whole run
/// regardless of ring capacity.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder(Option<Arc<SpanInner>>);

impl SpanRecorder {
    /// An enabled recorder holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder(Some(Arc::new(SpanInner {
            capacity: capacity.max(1),
            ring: Mutex::new(SpanRing {
                next_seq: 0,
                dropped: 0,
                buf: VecDeque::new(),
                stage_hists: std::array::from_fn(|_| Histogram::noop()),
            }),
        })))
    }

    /// An enabled recorder with [`DEFAULT_SPAN_CAPACITY`].
    pub fn with_default_capacity() -> SpanRecorder {
        SpanRecorder::new(DEFAULT_SPAN_CAPACITY)
    }

    /// A disabled recorder: same API, every call a no-op.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder(None)
    }

    /// Whether `record*` calls actually record.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Attach per-stage `quill.span.<stage>` histograms from `registry` for
    /// every stage with an extent; subsequent timed records add their
    /// durations there (latency attribution on `/metrics`). A disabled
    /// registry detaches them again.
    pub fn instrument(&self, registry: &Registry) {
        if let Some(inner) = &self.0 {
            let mut ring = inner.ring.lock();
            for stage in Stage::ALL.into_iter().filter(|s| !s.is_instant()) {
                ring.stage_hists[stage.index()] =
                    registry.histogram(&format!("quill.span.{stage}"));
            }
        }
    }

    /// Record a span owned by no query.
    #[inline]
    pub fn record(&self, stage: Stage, begin: u64, end: u64, shard: u32) {
        self.record_detail(stage, begin, end, shard, [0; 2]);
    }

    /// Record a span owned by `query`.
    #[inline]
    pub fn record_for_query(&self, stage: Stage, begin: u64, end: u64, shard: u32, query: u64) {
        self.record_for_queries(stage, begin, end, shard, [query]);
    }

    /// Record one span per id in `queries`, each owned by its query and all
    /// with the same stage and extent, under one ring lock: the records are
    /// those of one [`SpanRecorder::record_for_query`] per id, in order.
    pub fn record_for_queries(
        &self,
        stage: Stage,
        begin: u64,
        end: u64,
        shard: u32,
        queries: impl IntoIterator<Item = u64>,
    ) {
        if let Some(inner) = &self.0 {
            let span = Span {
                seq: 0,
                stage,
                begin,
                end,
                shard,
                query: NO_QUERY,
                detail: [0; 2],
                reason: None,
            };
            let mut ring = inner.ring.lock();
            let mut n = 0;
            for query in queries {
                n += 1;
                ring.append(inner.capacity, Span { query, ..span });
            }
            // The records share one extent: its duration is recorded once,
            // weighted by their number, under one histogram lock.
            if span.is_timed() {
                ring.stage_hists[stage.index()].record_n(span.duration(), n);
            }
        }
    }

    /// Record a record owned by no query with its two detail words (their
    /// meaning is the stage's; see [`Stage`]).
    #[inline]
    pub fn record_detail(&self, stage: Stage, begin: u64, end: u64, shard: u32, detail: [u64; 2]) {
        if self.is_enabled() {
            self.push(Span {
                seq: 0,
                stage,
                begin,
                end,
                shard,
                query: NO_QUERY,
                detail,
                reason: None,
            });
        }
    }

    /// Record a [`Stage::KChange`] instant at event time `at` on shard 0.
    #[inline]
    pub fn record_k_change(&self, at: u64, old_k: u64, new_k: u64, reason: KChangeReason) {
        if self.is_enabled() {
            self.push(Span {
                seq: 0,
                stage: Stage::KChange,
                begin: at,
                end: at,
                shard: 0,
                query: NO_QUERY,
                detail: [old_k, new_k],
                reason: Some(reason),
            });
        }
    }

    /// Append `span` under the one ring lock.
    fn push(&self, span: Span) {
        if let Some(inner) = &self.0 {
            inner.ring.lock().push(inner.capacity, span);
        }
    }

    /// Records currently held, oldest first (seq order). Empty when
    /// disabled.
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.ring.lock().buf.iter().copied().collect()
        })
    }

    /// Drain the ring: every held record, oldest first, leaving it empty.
    pub fn take(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.ring.lock().buf.drain(..).collect())
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| inner.ring.lock().dropped)
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.ring.lock().buf.len())
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.0.as_ref().map_or(0, |inner| inner.capacity)
    }
}

/// Per-stage latency attribution computed from a drained ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageAttribution {
    /// The stage.
    pub stage: Stage,
    /// Timed records for it.
    pub count: u64,
    /// Sum of their durations.
    pub total: u64,
    /// Largest single duration.
    pub max: u64,
}

/// Fold the timed records of `spans` ([`Span::is_timed`], exactly what the
/// `quill.span.*` histograms see) into one [`StageAttribution`] per stage
/// present, in [`Stage::ALL`] order. Stages with no timed record are
/// omitted.
pub fn attribute(spans: &[Span]) -> Vec<StageAttribution> {
    let mut table: Vec<StageAttribution> = Stage::ALL
        .into_iter()
        .map(|stage| StageAttribution {
            stage,
            count: 0,
            total: 0,
            max: 0,
        })
        .collect();
    for s in spans.iter().filter(|s| s.is_timed()) {
        let slot = &mut table[s.stage.index()];
        slot.count += 1;
        slot.total += s.duration();
        slot.max = slot.max.max(s.duration());
    }
    table.retain(|a| a.count > 0);
    table
}

/// Write records as JSON-lines via temp-file + atomic rename.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_spans_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    crate::reporter::write_lines_atomic(path, spans.iter().map(Span::to_json_line))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> SpanRecorder {
        let rec = SpanRecorder::new(128);
        rec.record_detail(Stage::BufferResidency, 10, 60, 0, [3, 60]);
        rec.record_detail(Stage::WindowFinalize, 100, 160, 1, [0, key_tag("a\"b")]);
        rec.record_for_query(Stage::Deliver, 100, 175, 0, 3);
        rec.record(Stage::WindowFinalize, 100, 200, 3);
        rec.record_detail(Stage::LateArrival, 42, 190, 0, [9, 0]);
        rec.record_k_change(95, 0, u64::MAX, KChangeReason::Ratchet);
        rec.record_detail(Stage::LateDrop, 42, 42, 2, [9, 0]);
        rec
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(Stage::Deliver, 0, 5, 0);
        rec.record_for_query(Stage::Deliver, 0, 5, 0, 1);
        rec.record_k_change(1, 0, 5, KChangeReason::Adapt);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.capacity(), 0);
    }

    /// Every record costs a full ring 56 bytes of resident memory: six
    /// words, the shard, the stage and the reason byte. `quill-serve`'s
    /// ring is full within seconds on a disordered stream, against a
    /// daemon peak RSS of 5–10 MB that the benchmark bounds at 10 %: a
    /// wider record would show up there.
    #[test]
    fn a_record_fits_in_56_bytes() {
        assert!(std::mem::size_of::<Span>() <= 56);
    }

    #[test]
    fn records_carry_seq_order_and_stage_details() {
        let spans = sample_recorder().spans();
        assert_eq!(spans.len(), 7);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(spans[1].detail, [0, key_tag("a\"b")]);
        assert_eq!(spans[2].query, 3);
        assert_eq!(spans[3].shard, 3);
        let k = spans[5];
        assert_eq!((k.stage, k.begin, k.end), (Stage::KChange, 95, 95));
        assert_eq!(k.detail, [0, u64::MAX]);
        assert_eq!(k.reason, Some(KChangeReason::Ratchet));
        assert!(spans
            .iter()
            .all(|s| s.stage == Stage::KChange || s.reason.is_none()));
    }

    #[test]
    fn key_tags_follow_the_display_form() {
        assert_eq!(key_tag("null"), key_tag(format_args!("{}", "null")));
        assert_ne!(key_tag("7"), key_tag("8"));
        assert_eq!(key_tag(7), key_tag("7"));
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let rec = SpanRecorder::new(2);
        for i in 0..5u64 {
            rec.record(Stage::Deliver, i, i + 1, 0);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let spans = rec.spans();
        assert_eq!(spans[0].begin, 3, "oldest spans evicted first");
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![3, 4], "the ring keeps the newest records");
    }

    #[test]
    fn seq_order_is_global_across_threads() {
        let rec = SpanRecorder::new(4096);
        let handles: Vec<_> = (0..4u32)
            .map(|shard| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        rec.record_detail(Stage::LateDrop, i, i, shard, [i, 0]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 400);
        assert!(
            spans.windows(2).all(|w| w[0].seq < w[1].seq),
            "ring order must equal seq order"
        );
    }

    #[test]
    fn take_drains_the_ring() {
        let rec = sample_recorder();
        assert_eq!(rec.take().len(), 7);
        assert!(rec.is_empty());
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = SpanRecorder::new(16);
        let clone = rec.clone();
        clone.record(Stage::Deliver, 0, 5, 1);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.spans()[0].shard, 1);
    }

    #[test]
    fn instrument_attributes_durations_per_stage() {
        let reg = Registry::new();
        let rec = SpanRecorder::new(2); // smaller than the span count
        rec.instrument(&reg);
        for i in 0..10u64 {
            rec.record_detail(Stage::BufferResidency, 0, 7, 0, [1, 7]);
            rec.record_detail(Stage::BufferResidency, 7, 7, 0, [0, 7]); // released nothing
            rec.record(Stage::Deliver, 0, i, 0);
            rec.record_detail(Stage::LateArrival, 0, 4, 0, [i, 0]);
            rec.record_k_change(i, 0, 1, KChangeReason::Adapt);
        }
        let snap = reg.snapshot();
        let buf = snap.histograms["quill.span.buffer_residency"];
        assert_eq!(buf.count, 10, "histograms must survive ring eviction");
        assert_eq!(buf.mean, 7.0);
        assert_eq!(snap.histograms["quill.span.deliver"].count, 10);
        assert_eq!(snap.histograms["quill.span.late_arrival"].count, 10);
        for instant in ["k_change", "late_drop"] {
            assert!(
                !snap
                    .histograms
                    .contains_key(&format!("quill.span.{instant}")),
                "instants feed no histogram"
            );
        }
    }

    #[test]
    fn a_batch_records_what_one_call_per_query_records() {
        // 64 holds every record; 5 wraps the ring inside each batch.
        for capacity in [64, 5] {
            let (batched, single) = (SpanRecorder::new(capacity), SpanRecorder::new(capacity));
            let (reg_batched, reg_single) = (Registry::new(), Registry::new());
            batched.instrument(&reg_batched);
            single.instrument(&reg_single);
            let ids = [3u64, 0, 7, 9, 1];
            for round in 0..4u64 {
                for rec in [&batched, &single] {
                    rec.record_detail(Stage::BufferResidency, round, 7 + round, 0, [1, 7]);
                }
                let (begin, end) = (10 * round, 10 * round + round * round);
                batched.record_for_queries(Stage::Deliver, begin, end, 1, ids);
                for id in ids {
                    single.record_for_query(Stage::Deliver, begin, end, 1, id);
                }
            }
            batched.record_for_queries(Stage::Deliver, 0, 9, 0, []);
            assert_eq!(batched.spans(), single.spans(), "capacity {capacity}");
            assert_eq!(batched.dropped(), single.dropped());
            assert_eq!(batched.len(), capacity.min(24));
            let (b, s) = (reg_batched.snapshot(), reg_single.snapshot());
            assert_eq!(b.histograms, s.histograms);
            assert_eq!(b.histograms["quill.span.deliver"].count, 20);
        }
        let disabled = SpanRecorder::disabled();
        disabled.record_for_queries(Stage::Deliver, 0, 5, 0, [1, 2]);
        assert!(disabled.is_empty());
    }

    #[test]
    fn json_lines_round_trip_exactly() {
        for span in sample_recorder().spans() {
            let line = span.to_json_line();
            let back = Span::parse_json_line(&line).expect("parse own line");
            assert_eq!(back, span, "line: {line}");
        }
        let k = sample_recorder().spans()[5].to_json_line();
        assert!(
            k.contains("\"old_k\":0,\"new_k\":18446744073709551615,\"reason\":\"ratchet\""),
            "{k}"
        );
    }

    #[test]
    fn json_line_omits_query_for_unowned_spans() {
        let rec = SpanRecorder::new(4);
        rec.record(Stage::Deliver, 0, 5, 0);
        let line = rec.spans()[0].to_json_line();
        assert!(!line.contains("query"), "{line}");
        assert_eq!(Span::parse_json_line(&line).unwrap().query, NO_QUERY);
    }

    #[test]
    fn parse_rejects_malformed_span_lines() {
        assert!(Span::parse_json_line("{}").is_err());
        assert!(Span::parse_json_line(
            "{\"seq\":0,\"stage\":\"nope\",\"begin\":0,\"end\":1,\"shard\":0}"
        )
        .is_err());
        // A stage's named detail words are required.
        assert!(Span::parse_json_line(
            "{\"seq\":0,\"stage\":\"late_drop\",\"begin\":0,\"end\":0,\"shard\":0}"
        )
        .is_err());
        assert!(Span::parse_json_line(
            "{\"seq\":0,\"stage\":\"k_change\",\"begin\":0,\"end\":0,\"shard\":0,\
             \"old_k\":0,\"new_k\":1,\"reason\":\"nope\"}"
        )
        .is_err());
        assert!(Span::parse_json_line("not json").is_err());
    }

    #[test]
    fn stage_tokens_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.as_str()), Some(stage));
            assert_eq!(Stage::ALL[stage.index()], stage);
        }
        assert_eq!(Stage::parse("bogus"), None);
    }

    #[test]
    fn attribution_folds_durations_per_stage() {
        let rec = sample_recorder();
        let attr = attribute(&rec.spans());
        let get = |stage: Stage| attr.iter().find(|a| a.stage == stage).unwrap();
        assert_eq!(get(Stage::BufferResidency).total, 50);
        assert_eq!(get(Stage::Deliver).count, 1);
        assert_eq!(get(Stage::WindowFinalize).max, 100);
        assert_eq!(get(Stage::LateArrival).total, 148);
        assert!(attr.iter().all(|a| a.count > 0 && !a.stage.is_instant()));
    }

    #[test]
    fn spans_jsonl_writes_and_parses_back() {
        let dir = std::env::temp_dir().join(format!("quill-span-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        let rec = sample_recorder();
        write_spans_jsonl(&path, &rec.spans()).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let parsed: Vec<Span> = text
            .lines()
            .map(|l| Span::parse_json_line(l).expect("parse line"))
            .collect();
        assert_eq!(parsed, rec.spans());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
