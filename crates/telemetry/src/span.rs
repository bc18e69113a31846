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
//! attribution ([`attribute`]), the Chrome trace export, and per-window
//! provenance and post-mortems ([`crate::trace`]).
//!
//! ## Clock domains
//!
//! Deterministic pipeline code (strategies, buffers, the session, the
//! parallel executor) must not read wall clocks — the `no-wall-clock` lint
//! enforces it — so those records are stamped with *logical* time:
//! event-time units of the stream itself (an event's timestamp, the
//! watermark that released it). The serve layer, which legitimately deals
//! in real time, records a second, separate ring in wall microseconds. A
//! recorder is pinned to one [`ClockDomain`] at construction and every
//! record in a ring shares it, so exports can label the time axis honestly
//! instead of mixing incomparable units.
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
//! Records serialize to JSON-lines ([`Span::to_json_line`] /
//! [`Span::parse_json_line`], exact round-trip, the detail words under
//! their stage's names) and to the Chrome trace event format
//! ([`to_chrome_trace`]) that Perfetto and `chrome://tracing` load
//! directly; [`parse_chrome_trace`] parses that JSON back structurally so
//! exports can be validated without an external viewer.

use crate::json::{json_string, obj_get, Fields, JsonParser, Jv};
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
    /// Wire bytes to parsed events on one ingest connection (serve layer,
    /// wall time).
    IngestDecode,
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
    /// One ingest connection's lifetime (serve layer, wall time).
    Connection,
    /// One query's registered lifetime (serve layer, wall time).
    Query,
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
    pub const ALL: [Stage; 9] = [
        Stage::IngestDecode,
        Stage::BufferResidency,
        Stage::WindowFinalize,
        Stage::Deliver,
        Stage::Connection,
        Stage::Query,
        Stage::LateArrival,
        Stage::KChange,
        Stage::LateDrop,
    ];

    /// Stable serialization token (also the `quill.span.<stage>` histogram
    /// suffix and the Chrome trace event name).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::IngestDecode => "ingest_decode",
            Stage::BufferResidency => "buffer_residency",
            Stage::WindowFinalize => "window_finalize",
            Stage::Deliver => "deliver",
            Stage::Connection => "connection",
            Stage::Query => "query",
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

/// Which clock a recorder's begin/end stamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockDomain {
    /// Event-time units of the stream itself (deterministic code).
    #[default]
    Logical,
    /// Microseconds of real time since the recorder's owner started
    /// (serve layer).
    WallMicros,
}

impl ClockDomain {
    /// Stable serialization token.
    pub fn as_str(self) -> &'static str {
        match self {
            ClockDomain::Logical => "logical",
            ClockDomain::WallMicros => "wall_micros",
        }
    }

    /// Parse a serialization token.
    pub fn parse(s: &str) -> Option<ClockDomain> {
        match s {
            "logical" => Some(ClockDomain::Logical),
            "wall_micros" => Some(ClockDomain::WallMicros),
            _ => None,
        }
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
    /// Interval start, in the recorder's clock domain.
    pub begin: u64,
    /// Interval end, in the recorder's clock domain (`begin` for instants).
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

/// The bounded ring behind an enabled recorder.
#[derive(Debug, Default)]
struct SpanRing {
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Span>,
}

#[derive(Debug)]
struct SpanInner {
    capacity: usize,
    domain: ClockDomain,
    ring: Mutex<SpanRing>,
    /// Per-stage attribution histograms (no-ops until
    /// [`SpanRecorder::instrument`], and always for instants), indexed by
    /// [`Stage::index`].
    stage_hists: Mutex<Vec<Histogram>>,
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
    /// An enabled logical-clock recorder holding at most `capacity` records
    /// (min 1).
    pub fn new(capacity: usize) -> SpanRecorder {
        SpanRecorder::with_domain(capacity, ClockDomain::Logical)
    }

    /// An enabled recorder in the given clock domain.
    pub fn with_domain(capacity: usize, domain: ClockDomain) -> SpanRecorder {
        SpanRecorder(Some(Arc::new(SpanInner {
            capacity: capacity.max(1),
            domain,
            ring: Mutex::new(SpanRing::default()),
            stage_hists: Mutex::new(vec![Histogram::noop(); Stage::ALL.len()]),
        })))
    }

    /// An enabled wall-microsecond recorder (serve layer).
    pub fn wall(capacity: usize) -> SpanRecorder {
        SpanRecorder::with_domain(capacity, ClockDomain::WallMicros)
    }

    /// An enabled logical-clock recorder with [`DEFAULT_SPAN_CAPACITY`].
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

    /// The recorder's clock domain ([`ClockDomain::Logical`] when
    /// disabled).
    pub fn domain(&self) -> ClockDomain {
        self.0
            .as_ref()
            .map_or(ClockDomain::Logical, |inner| inner.domain)
    }

    /// Attach per-stage `quill.span.<stage>` histograms from `registry` for
    /// every stage with an extent; subsequent timed records add their
    /// durations there (latency attribution on `/metrics`). A disabled
    /// registry detaches them again.
    pub fn instrument(&self, registry: &Registry) {
        if let Some(inner) = &self.0 {
            let mut hists = inner.stage_hists.lock();
            for stage in Stage::ALL.into_iter().filter(|s| !s.is_instant()) {
                hists[stage.index()] = registry.histogram(&format!("quill.span.{stage}"));
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
        if self.is_enabled() {
            self.push(Span {
                seq: 0,
                stage,
                begin,
                end,
                shard,
                query,
                detail: [0; 2],
                reason: None,
            });
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

    /// Stamp `span` with the next sequence number and append it. The
    /// sequence number is assigned under the ring lock, so ring order
    /// equals seq order even across threads; a timed record's duration is
    /// folded into its stage's attribution histogram before any eviction.
    fn push(&self, mut span: Span) {
        let Some(inner) = &self.0 else {
            return;
        };
        if span.is_timed() {
            let hist = inner.stage_hists.lock()[span.stage.index()].clone();
            hist.record(span.duration());
        }
        let mut ring = inner.ring.lock();
        span.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() >= inner.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(span);
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

// ---------------------------------------------------------------------------
// Chrome trace event format (Perfetto / chrome://tracing).

/// Render labelled record groups as one Chrome trace JSON object. Each part
/// becomes its own process (pid = position + 1) named by its label and
/// clock domain via `process_name` metadata events, so mixed-domain
/// exports (serve wall spans next to session logical spans) stay visually
/// separated instead of sharing an axis dishonestly. Record `ts`/`dur` map
/// to the trace's microsecond fields unscaled (instants get `dur` 0);
/// shards become thread ids, and the named detail words ride in `args`.
pub fn to_chrome_trace_parts(parts: &[(&str, ClockDomain, Vec<Span>)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (i, (label, domain, spans)) in parts.iter().enumerate() {
        let pid = i as u64 + 1;
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":{}}}}}",
            json_string(&format!("{label} ({})", domain.as_str()))
        );
        for s in spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"quill\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"seq\":{}",
                s.stage.as_str(),
                s.begin,
                s.duration(),
                s.shard,
                s.seq
            );
            if s.query != NO_QUERY {
                let _ = write!(out, ",\"query\":{}", s.query);
            }
            for (name, value) in s.stage.detail_names().iter().zip(s.detail) {
                if let Some(name) = name {
                    let _ = write!(out, ",\"{name}\":{value}");
                }
            }
            if let Some(reason) = s.reason {
                let _ = write!(out, ",\"reason\":\"{reason}\"");
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}");
    out
}

/// Render one record group as a Chrome trace JSON object (see
/// [`to_chrome_trace_parts`]).
pub fn to_chrome_trace(spans: &[Span], domain: ClockDomain) -> String {
    to_chrome_trace_parts(&[("quill pipeline", domain, spans.to_vec())])
}

/// One event parsed back out of a Chrome trace export. Only the fields the
/// structural round-trip cares about are kept.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name (the stage token for `"X"` events).
    pub name: String,
    /// Phase: `"X"` for complete spans, `"M"` for metadata.
    pub ph: String,
    /// Start, microsecond field (absent on metadata events).
    pub ts: Option<u64>,
    /// Duration, microsecond field (absent on metadata events).
    pub dur: Option<u64>,
    /// Process id.
    pub pid: Option<u64>,
    /// Thread id.
    pub tid: Option<u64>,
}

/// A structurally parsed Chrome trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeTrace {
    /// The `displayTimeUnit` hint, when present.
    pub display_time_unit: Option<String>,
    /// Every event in the `traceEvents` array.
    pub events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// The complete (`"X"`) events — the actual spans on the timeline.
    pub fn complete_events(&self) -> impl Iterator<Item = &ChromeEvent> {
        self.events.iter().filter(|e| e.ph == "X")
    }
}

/// Parse a Chrome trace JSON object (the object form with a `traceEvents`
/// array, as produced by [`to_chrome_trace`] and accepted by Perfetto).
/// The parser is a small but complete JSON reader, so hand-edited or
/// third-party traces of the same shape parse too.
///
/// # Errors
/// A message locating the structural problem.
pub fn parse_chrome_trace(text: &str) -> Result<ChromeTrace, String> {
    let value = JsonParser::parse(text)?;
    let Jv::Obj(fields) = &value else {
        return Err("top level is not a JSON object".into());
    };
    let display_time_unit = match obj_get(fields, "displayTimeUnit") {
        Some(Jv::Str(s)) => Some(s.clone()),
        Some(_) => return Err("displayTimeUnit is not a string".into()),
        None => None,
    };
    let Some(Jv::Arr(raw_events)) = obj_get(fields, "traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    let mut events = Vec::with_capacity(raw_events.len());
    for (i, ev) in raw_events.iter().enumerate() {
        let Jv::Obj(f) = ev else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let name = match obj_get(f, "name") {
            Some(Jv::Str(s)) => s.clone(),
            _ => return Err(format!("traceEvents[{i}] has no string name")),
        };
        let ph = match obj_get(f, "ph") {
            Some(Jv::Str(s)) => s.clone(),
            _ => return Err(format!("traceEvents[{i}] has no string ph")),
        };
        let num = |key: &str| -> Result<Option<u64>, String> {
            match obj_get(f, key) {
                None => Ok(None),
                Some(Jv::Num(raw)) => raw
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|_| format!("traceEvents[{i}].{key} is not a u64: {raw:?}")),
                Some(_) => Err(format!("traceEvents[{i}].{key} is not a number")),
            }
        };
        events.push(ChromeEvent {
            name,
            ph,
            ts: num("ts")?,
            dur: num("dur")?,
            pid: num("pid")?,
            tid: num("tid")?,
        });
    }
    Ok(ChromeTrace {
        display_time_unit,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> SpanRecorder {
        let rec = SpanRecorder::new(128);
        rec.record_detail(Stage::BufferResidency, 10, 60, 0, [3, 60]);
        rec.record_detail(Stage::WindowFinalize, 100, 160, 1, [0, key_tag("a\"b")]);
        rec.record_for_query(Stage::Deliver, 100, 175, 0, 3);
        rec.record(Stage::IngestDecode, 100, 200, 3);
        rec.record_detail(Stage::LateArrival, 42, 190, 0, [9, 0]);
        rec.record_k_change(95, 0, u64::MAX, KChangeReason::Ratchet);
        rec.record_detail(Stage::LateDrop, 42, 42, 2, [9, 0]);
        rec
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(Stage::IngestDecode, 0, 5, 0);
        rec.record_for_query(Stage::Deliver, 0, 5, 0, 1);
        rec.record_k_change(1, 0, 5, KChangeReason::Adapt);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.capacity(), 0);
        assert_eq!(rec.domain(), ClockDomain::Logical);
    }

    /// Every record costs a full ring 56 bytes of resident memory: six
    /// words, the shard, the stage and the reason byte. `quill-serve`'s
    /// rings are full within seconds on a disordered stream, against a
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
            rec.record(Stage::IngestDecode, i, i + 1, 0);
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
        clone.record(Stage::IngestDecode, 0, 5, 1);
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
        rec.record(Stage::IngestDecode, 0, 5, 0);
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
        for domain in [ClockDomain::Logical, ClockDomain::WallMicros] {
            assert_eq!(ClockDomain::parse(domain.as_str()), Some(domain));
        }
    }

    #[test]
    fn attribution_folds_durations_per_stage() {
        let rec = sample_recorder();
        let attr = attribute(&rec.spans());
        let get = |stage: Stage| attr.iter().find(|a| a.stage == stage).unwrap();
        assert_eq!(get(Stage::BufferResidency).total, 50);
        assert_eq!(get(Stage::Deliver).count, 1);
        assert_eq!(get(Stage::IngestDecode).max, 100);
        assert_eq!(get(Stage::LateArrival).total, 148);
        assert!(attr.iter().all(|a| a.count > 0 && !a.stage.is_instant()));
    }

    #[test]
    fn chrome_trace_round_trips_structurally() {
        let rec = sample_recorder();
        let spans = rec.spans();
        let text = to_chrome_trace(&spans, ClockDomain::Logical);
        let trace = parse_chrome_trace(&text).expect("parse own export");
        assert_eq!(trace.display_time_unit.as_deref(), Some("ms"));
        let complete: Vec<&ChromeEvent> = trace.complete_events().collect();
        assert_eq!(complete.len(), spans.len());
        for (ev, span) in complete.iter().zip(&spans) {
            assert_eq!(ev.name, span.stage.as_str());
            assert_eq!(ev.ts, Some(span.begin));
            assert_eq!(ev.dur, Some(span.duration()));
            assert_eq!(ev.tid, Some(span.shard as u64));
        }
        // One metadata event names the process with its clock domain.
        let meta: Vec<&ChromeEvent> = trace.events.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(meta.len(), 1);
        assert_eq!(meta[0].name, "process_name");
        assert!(text.contains("\"reason\":\"ratchet\""));
    }

    #[test]
    fn chrome_trace_parts_separate_pids_per_domain() {
        let wall = SpanRecorder::wall(16);
        wall.record(Stage::Connection, 0, 1000, 0);
        let logical = SpanRecorder::new(16);
        logical.record(Stage::Deliver, 10, 20, 0);
        let text = to_chrome_trace_parts(&[
            ("serve", ClockDomain::WallMicros, wall.spans()),
            ("session", ClockDomain::Logical, logical.spans()),
        ]);
        let trace = parse_chrome_trace(&text).expect("parse own export");
        let pids: Vec<Option<u64>> = trace.complete_events().map(|e| e.pid).collect();
        assert_eq!(pids, vec![Some(1), Some(2)]);
        assert_eq!(trace.events.iter().filter(|e| e.ph == "M").count(), 2);
    }

    #[test]
    fn chrome_parser_rejects_structural_damage() {
        assert!(parse_chrome_trace("[]").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[]} trailing").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[]}").is_ok());
    }

    #[test]
    fn chrome_parser_handles_foreign_traces() {
        // Hand-written trace with whitespace, nesting and unknown fields.
        let text = r#"{
            "displayTimeUnit": "ms",
            "otherData": {"version": "x"},
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 7,
                 "args": {"deep": {"er": [1, 2, null, true]}}}
            ]
        }"#;
        let trace = parse_chrome_trace(text).expect("parse foreign trace");
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].tid, Some(7));
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
