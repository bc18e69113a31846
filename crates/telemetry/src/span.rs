//! Pipeline span tracing with end-to-end latency attribution.
//!
//! The [`crate::Registry`] counts things and the
//! [`crate::trace::FlightRecorder`] records that incidents happened; this
//! module records *how long pipeline stages took and how they nest*. A
//! [`Span`] is one closed interval of a clock — begin and end stamps, the
//! [`Stage`] it covers, the shard that produced it, an optional owning
//! query, and an optional parent span for causal nesting. Spans accumulate
//! in a bounded ring ([`SpanRecorder`]) exactly like the flight recorder:
//! clones share the ring, sequence numbers are assigned under the ring
//! lock (ring order *is* seq order), and a
//! [`SpanRecorder::disabled`] recorder makes every hook a branch on a
//! `None` the optimiser folds away — instrumentation stays in place
//! unconditionally and costs nothing when nobody is watching (the quill-e2e
//! benchmark's `bench.trace_overhead_pct` layer measures what an enabled
//! recorder costs).
//!
//! ## Clock domains
//!
//! Deterministic pipeline code (strategies, buffers, the session, the
//! parallel executor) must not read wall clocks — the `no-wall-clock` lint
//! enforces it — so those spans are stamped with *logical* time: event-time
//! units of the stream itself (an event's timestamp, the watermark that
//! released it). The serve layer, which legitimately deals in real time,
//! records a second, separate ring in wall microseconds. A recorder is
//! pinned to one [`ClockDomain`] at construction and every span in a ring
//! shares it, so exports can label the time axis honestly instead of
//! mixing incomparable units.
//!
//! ## Attribution
//!
//! [`SpanRecorder::instrument`] attaches one `quill.span.<stage>` registry
//! histogram per stage; every recorded span also records its duration
//! there, *before* ring eviction, so the per-stage latency attribution on
//! `/metrics` covers the whole run even when the ring has wrapped.
//! [`attribute`] computes the same per-stage totals from a drained ring.
//!
//! ## Export
//!
//! Spans serialize to JSON-lines ([`Span::to_json_line`] /
//! [`Span::parse_json_line`], exact round-trip) and to the Chrome trace
//! event format ([`to_chrome_trace`]) that Perfetto and `chrome://tracing`
//! load directly; [`parse_chrome_trace`] parses that JSON back
//! structurally so exports can be validated without an external viewer.

use crate::trace::Fields;
use crate::{Histogram, Registry};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default ring capacity for an enabled span recorder.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// `query` value of a span that belongs to no particular query.
pub const NO_QUERY: u64 = u64::MAX;

/// `parent` value of a root span (span ids start at 1).
pub const NO_PARENT: u64 = 0;

/// The pipeline stage a span covers. Each variant is one segment of the
/// path an event takes from the wire to a delivered window result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Wire bytes to parsed events on one ingest connection (serve layer,
    /// wall time).
    IngestDecode,
    /// Handing events to the next component: the serve ingest queue
    /// (wall time, measures backpressure blocking) or the parallel
    /// executor's keyed router (logical time).
    Route,
    /// One release of the disorder-control slack buffer: from the oldest
    /// released event's timestamp to the watermark that released it — the
    /// longest buffer-induced event-time latency in that release, which is
    /// what the paper trades against quality.
    BufferResidency,
    /// A window's finalization lag: from the window end to the watermark
    /// that closed it.
    WindowFinalize,
    /// The cross-shard result merge.
    Merge,
    /// Result delivery: from the window end to the clock at which the
    /// result reached the consumer (run output, session queue poll).
    Deliver,
    /// One ingest connection's lifetime (serve layer, wall time).
    Connection,
    /// One query's registered lifetime (serve layer, wall time).
    Query,
}

impl Stage {
    /// Every stage, in serialization order.
    pub const ALL: [Stage; 8] = [
        Stage::IngestDecode,
        Stage::Route,
        Stage::BufferResidency,
        Stage::WindowFinalize,
        Stage::Merge,
        Stage::Deliver,
        Stage::Connection,
        Stage::Query,
    ];

    /// Stable serialization token (also the `quill.span.<stage>` histogram
    /// suffix and the Chrome trace event name).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::IngestDecode => "ingest_decode",
            Stage::Route => "route",
            Stage::BufferResidency => "buffer_residency",
            Stage::WindowFinalize => "window_finalize",
            Stage::Merge => "merge",
            Stage::Deliver => "deliver",
            Stage::Connection => "connection",
            Stage::Query => "query",
        }
    }

    /// Parse a serialization token.
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|st| st.as_str() == s)
    }

    /// Dense index into per-stage tables.
    fn index(self) -> usize {
        match self {
            Stage::IngestDecode => 0,
            Stage::Route => 1,
            Stage::BufferResidency => 2,
            Stage::WindowFinalize => 3,
            Stage::Merge => 4,
            Stage::Deliver => 5,
            Stage::Connection => 6,
            Stage::Query => 7,
        }
    }
}

impl std::fmt::Display for Stage {
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

/// One closed stage interval. `begin <= end` is not enforced — durations
/// saturate at 0 instead, so a clock oddity can never panic the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Monotone sequence number, assigned under the ring lock.
    pub seq: u64,
    /// Span id, unique within a recorder (ids start at 1).
    pub id: u64,
    /// Parent span id, [`NO_PARENT`] for roots.
    pub parent: u64,
    /// The pipeline stage covered.
    pub stage: Stage,
    /// Interval start, in the recorder's clock domain.
    pub begin: u64,
    /// Interval end, in the recorder's clock domain.
    pub end: u64,
    /// Shard that produced the span (0 for pre-fan-out components,
    /// [`crate::trace::MERGE_SHARD`] for the merge).
    pub shard: u32,
    /// Owning query id, [`NO_QUERY`] when not query-scoped.
    pub query: u64,
}

impl Span {
    /// The interval length (0 when `end < begin`).
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.begin)
    }

    /// Render as one JSON object on a single line. `query` is omitted for
    /// [`NO_QUERY`] spans.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"id\":{},\"parent\":{},\"stage\":\"{}\",\"begin\":{},\"end\":{},\"shard\":{}",
            self.seq,
            self.id,
            self.parent,
            self.stage.as_str(),
            self.begin,
            self.end,
            self.shard
        );
        if self.query != NO_QUERY {
            let _ = write!(out, ",\"query\":{}", self.query);
        }
        out.push('}');
        out
    }

    /// Parse one line produced by [`Span::to_json_line`].
    ///
    /// # Errors
    /// A message naming the malformed or missing field.
    pub fn parse_json_line(line: &str) -> Result<Span, String> {
        let fields = Fields::parse(line)?;
        let stage_tok = fields.str("stage")?;
        let stage =
            Stage::parse(&stage_tok).ok_or_else(|| format!("unknown span stage {stage_tok:?}"))?;
        Ok(Span {
            seq: fields.u64("seq")?,
            id: fields.u64("id")?,
            parent: fields.u64("parent")?,
            stage,
            begin: fields.u64("begin")?,
            end: fields.u64("end")?,
            shard: fields.u64("shard")? as u32,
            query: fields.opt_u64("query")?.unwrap_or(NO_QUERY),
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
    /// Ids are allocated outside the ring lock, so concurrent begin/record
    /// pairs never serialize on the ring just to name themselves.
    next_id: AtomicU64,
    /// Per-stage attribution histograms (no-ops until
    /// [`SpanRecorder::instrument`]), indexed by [`Stage::index`].
    stage_hists: Mutex<Vec<Histogram>>,
}

/// A lock-cheap, bounded recorder of pipeline [`Span`]s. Clone it freely —
/// clones share the ring. [`SpanRecorder::disabled`] (also `Default`) is
/// the zero-cost variant: every `record_*` call is a branch on `None`.
///
/// When the ring is full the oldest span is overwritten and
/// [`SpanRecorder::dropped`] counts it; attribution histograms are updated
/// before eviction, so `/metrics` latency attribution covers the whole run
/// regardless of ring capacity.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder(Option<Arc<SpanInner>>);

impl SpanRecorder {
    /// An enabled logical-clock recorder holding at most `capacity` spans
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
            next_id: AtomicU64::new(1),
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

    /// Whether `record_*` calls actually record.
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

    /// Attach per-stage `quill.span.<stage>` histograms from `registry`;
    /// subsequent spans record their durations there (latency attribution
    /// on `/metrics`). A disabled registry detaches them again.
    pub fn instrument(&self, registry: &Registry) {
        if let Some(inner) = &self.0 {
            let mut hists = inner.stage_hists.lock();
            for stage in Stage::ALL {
                hists[stage.index()] = registry.histogram(&format!("quill.span.{stage}"));
            }
        }
    }

    /// Record a root span owned by no query. Returns the span id (0 when
    /// disabled), usable as a `parent` for children.
    #[inline]
    pub fn record(&self, stage: Stage, begin: u64, end: u64, shard: u32) -> u64 {
        self.record_child(NO_PARENT, stage, begin, end, shard, NO_QUERY)
    }

    /// Record a root span owned by `query`.
    #[inline]
    pub fn record_for_query(
        &self,
        stage: Stage,
        begin: u64,
        end: u64,
        shard: u32,
        query: u64,
    ) -> u64 {
        self.record_child(NO_PARENT, stage, begin, end, shard, query)
    }

    /// Record a span below `parent` ([`NO_PARENT`] for a root). The
    /// sequence number is assigned under the ring lock, so ring order
    /// equals seq order even across threads; the duration is folded into
    /// the stage's attribution histogram before any ring eviction.
    pub fn record_child(
        &self,
        parent: u64,
        stage: Stage,
        begin: u64,
        end: u64,
        shard: u32,
        query: u64,
    ) -> u64 {
        let Some(inner) = &self.0 else {
            return 0;
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let hist = inner.stage_hists.lock()[stage.index()].clone();
        hist.record(end.saturating_sub(begin));
        let mut ring = inner.ring.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.buf.len() >= inner.capacity {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(Span {
            seq,
            id,
            parent,
            stage,
            begin,
            end,
            shard,
            query,
        });
        id
    }

    /// Spans currently held, oldest first (seq order). Empty when
    /// disabled.
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.ring.lock().buf.iter().cloned().collect()
        })
    }

    /// Drain the ring: every held span, oldest first, leaving it empty.
    pub fn take(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.ring.lock().buf.drain(..).collect())
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| inner.ring.lock().dropped)
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.ring.lock().buf.len())
    }

    /// Whether no spans are held.
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
    /// Spans recorded for it.
    pub count: u64,
    /// Sum of their durations.
    pub total: u64,
    /// Largest single duration.
    pub max: u64,
}

/// Fold `spans` into one [`StageAttribution`] per stage present, in
/// [`Stage::ALL`] order. Stages with no spans are omitted.
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
    for s in spans {
        let slot = &mut table[s.stage.index()];
        slot.count += 1;
        slot.total += s.duration();
        slot.max = slot.max.max(s.duration());
    }
    table.retain(|a| a.count > 0);
    table
}

/// Write spans as JSON-lines via temp-file + atomic rename.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_spans_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    crate::reporter::write_lines_atomic(path, spans.iter().map(Span::to_json_line))
}

// ---------------------------------------------------------------------------
// Chrome trace event format (Perfetto / chrome://tracing).

/// Render labelled span groups as one Chrome trace JSON object. Each part
/// becomes its own process (pid = position + 1) named by its label and
/// clock domain via `process_name` metadata events, so mixed-domain
/// exports (serve wall spans next to session logical spans) stay visually
/// separated instead of sharing an axis dishonestly. Span `ts`/`dur` map
/// to the trace's microsecond fields unscaled; shards become thread ids.
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
            crate::trace::json_string(&format!("{label} ({})", domain.as_str()))
        );
        for s in spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"quill\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"seq\":{}",
                s.stage.as_str(),
                s.begin,
                s.duration(),
                s.shard,
                s.id,
                s.parent,
                s.seq
            );
            if s.query != NO_QUERY {
                let _ = write!(out, ",\"query\":{}", s.query);
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}");
    out
}

/// Render one span group as a Chrome trace JSON object (see
/// [`to_chrome_trace_parts`]).
pub fn to_chrome_trace(spans: &[Span], domain: ClockDomain) -> String {
    to_chrome_trace_parts(&[("quill pipeline", domain, spans.to_vec())])
}

/// One event parsed back out of a Chrome trace export. Only the fields the
/// structural round-trip cares about are retained.
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

fn obj_get<'a>(fields: &'a [(String, Jv)], key: &str) -> Option<&'a Jv> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A parsed JSON value; numbers keep their raw text so u64::MAX survives.
#[derive(Debug, Clone, PartialEq)]
enum Jv {
    Obj(Vec<(String, Jv)>),
    Arr(Vec<Jv>),
    Str(String),
    Num(String),
    Bool(bool),
    Null,
}

/// A minimal recursive-descent JSON parser: full value grammar (objects,
/// arrays, strings with escapes, numbers, booleans, null), no extensions.
/// The flat parser in `trace.rs` stays intentionally smaller; Chrome
/// traces nest (`args` objects inside array elements), so they need the
/// real thing.
struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(text: &'a str) -> Result<Jv, String> {
        let mut p = JsonParser {
            b: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!(
                "expected {:?} at byte {}, got {got:?}",
                c as char, self.i
            )),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal {lit:?} at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Jv, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Jv::Str(self.string()?)),
            Some(b't') => {
                self.literal("true")?;
                Ok(Jv::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Jv::Bool(false))
            }
            Some(b'n') => {
                self.literal("null")?;
                Ok(Jv::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Jv, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Jv::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Jv::Obj(fields)),
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Jv, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Jv::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Jv::Arr(items)),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        if self.i + 4 > self.b.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                            .map_err(|_| "non-utf8 \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        self.i += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(first) => {
                    let len = match first {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.i - 1 + len).min(self.b.len());
                    let chunk = std::str::from_utf8(&self.b[self.i - 1..end])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Jv, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        if self.i == start {
            return Err("expected a number".into());
        }
        Ok(Jv::Num(
            std::str::from_utf8(&self.b[start..self.i])
                .map_err(|_| "non-utf8 number".to_string())?
                .to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MERGE_SHARD;

    fn sample_recorder() -> SpanRecorder {
        let rec = SpanRecorder::new(128);
        let root = rec.record(Stage::BufferResidency, 10, 60, 0);
        rec.record_child(root, Stage::WindowFinalize, 100, 160, 1, NO_QUERY);
        rec.record_for_query(Stage::Deliver, 100, 175, 0, 3);
        rec.record(Stage::Merge, 100, 200, MERGE_SHARD);
        rec
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        assert_eq!(rec.record(Stage::Route, 0, 5, 0), 0);
        assert_eq!(
            rec.record_child(7, Stage::Deliver, 0, 5, 0, 1),
            0,
            "disabled recorders hand out id 0"
        );
        assert!(rec.spans().is_empty());
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.capacity(), 0);
        assert_eq!(rec.domain(), ClockDomain::Logical);
    }

    #[test]
    fn spans_carry_parent_links_and_seq_order() {
        let rec = sample_recorder();
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[2].query, 3);
        assert_eq!(spans[3].shard, MERGE_SHARD);
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let rec = SpanRecorder::new(2);
        for i in 0..5u64 {
            rec.record(Stage::Route, i, i + 1, 0);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 3);
        let spans = rec.spans();
        assert_eq!(spans[0].begin, 3, "oldest spans evicted first");
    }

    #[test]
    fn take_drains_the_ring() {
        let rec = sample_recorder();
        assert_eq!(rec.take().len(), 4);
        assert!(rec.is_empty());
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = SpanRecorder::new(16);
        let clone = rec.clone();
        clone.record(Stage::Route, 0, 5, 0);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn instrument_attributes_durations_per_stage() {
        let reg = Registry::new();
        let rec = SpanRecorder::new(2); // smaller than the span count
        rec.instrument(&reg);
        for i in 0..10u64 {
            rec.record(Stage::BufferResidency, 0, 7, 0);
            rec.record(Stage::Deliver, 0, i, 0);
        }
        let snap = reg.snapshot();
        let buf = snap.histograms["quill.span.buffer_residency"];
        assert_eq!(buf.count, 10, "histograms must survive ring eviction");
        assert_eq!(buf.mean, 7.0);
        assert_eq!(snap.histograms["quill.span.deliver"].count, 10);
    }

    #[test]
    fn json_lines_round_trip_exactly() {
        let rec = sample_recorder();
        for span in rec.spans() {
            let line = span.to_json_line();
            let back = Span::parse_json_line(&line).expect("parse own line");
            assert_eq!(back, span, "line: {line}");
        }
    }

    #[test]
    fn json_line_omits_query_for_unowned_spans() {
        let rec = SpanRecorder::new(4);
        rec.record(Stage::Route, 0, 5, 0);
        let line = rec.spans()[0].to_json_line();
        assert!(!line.contains("query"), "{line}");
        assert_eq!(Span::parse_json_line(&line).unwrap().query, NO_QUERY);
    }

    #[test]
    fn parse_rejects_malformed_span_lines() {
        assert!(Span::parse_json_line("{}").is_err());
        assert!(Span::parse_json_line(
            "{\"seq\":0,\"id\":1,\"parent\":0,\"stage\":\"nope\",\"begin\":0,\"end\":1,\"shard\":0}"
        )
        .is_err());
        assert!(Span::parse_json_line("not json").is_err());
    }

    #[test]
    fn stage_tokens_round_trip() {
        for stage in Stage::ALL {
            assert_eq!(Stage::parse(stage.as_str()), Some(stage));
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
        assert_eq!(get(Stage::Merge).max, 100);
        assert!(attr.iter().all(|a| a.count > 0));
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
