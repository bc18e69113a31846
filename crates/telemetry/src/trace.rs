//! Flight-recorder tracing and per-window provenance.
//!
//! Numeric telemetry (the [`crate::Registry`]) tells an operator *that*
//! completeness dipped or the controller moved K; this module explains
//! *why*. Components record structured [`TraceEvent`]s into a bounded,
//! lock-cheap ring buffer ([`FlightRecorder`]): late arrivals with their
//! lateness and the windows they missed, buffer releases, controller
//! K-changes with the decision reason, window finalizations, shard
//! send-stalls and merge progress. Every event carries a monotone sequence
//! number (assigned under the ring lock, so ring order *is* seq order),
//! the event-time it refers to, and the shard that produced it — parallel
//! runs therefore interleave deterministically on replay.
//!
//! On top of the raw ring, [`ProvenanceBuilder`] assembles one
//! [`ProvenanceRecord`] per window (contributing/late/dropped tuple counts,
//! lateness quantiles, the K in force and the decision that set it) and —
//! for windows that miss their quality target — a [`PostMortem`]: the
//! causal slice of the ring covering that window's lifetime, serializable
//! to JSON-lines and rendered by the `quill-inspect` tool.
//!
//! Like the registry, a [`FlightRecorder::disabled`] recorder is a `None`
//! behind the same API: every `record` call is a branch the optimiser
//! folds away, so instrumentation can stay in place unconditionally.
//!
//! Serialization is hand-rolled JSON-lines (this workspace carries no JSON
//! dependency): [`TraceEvent::to_json_line`] /
//! [`TraceEvent::parse_json_line`] round-trip exactly, property of the
//! tests below.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// Shard id used for events produced outside any shard (the result merge,
/// the router).
pub const MERGE_SHARD: u32 = u32::MAX;

/// Default ring capacity for an enabled recorder.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Why a disorder-control strategy changed K.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KChangeReason {
    /// The K a strategy starts with (recorded once at trace attach).
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

/// What happened. Each variant is one observable decision or incident on
/// the quality path.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// An event arrived behind the emitted watermark: the buffer can no
    /// longer reorder it and forwards it as a late pass. `at` is the
    /// event's timestamp.
    LateArrival {
        /// How far behind the watermark the event arrived.
        lateness: u64,
        /// The watermark it arrived behind.
        watermark: u64,
    },
    /// The slack buffer released held events and advanced its watermark.
    /// `at` is the new watermark.
    BufferEmit {
        /// Events released by this advance.
        released: u64,
        /// The watermark emitted (`u64::MAX` at end of stream).
        watermark: u64,
    },
    /// A strategy changed the slack bound. `at` is the stream clock (event
    /// time) at the decision.
    KChange {
        /// K before the change.
        old_k: u64,
        /// K after the change.
        new_k: u64,
        /// What triggered it.
        reason: KChangeReason,
    },
    /// A window's first result was emitted. `at` is the window end.
    WindowFinalize {
        /// Window start.
        start: u64,
        /// Window end.
        end: u64,
        /// Stringified grouping key (matches quality reports).
        key: String,
        /// Tuples folded into the emitted result.
        count: u64,
    },
    /// The window operator discarded a late event for at least one
    /// already-finalized window. `at` is the event's timestamp.
    LateDrop {
        /// Arrival sequence number of the dropped event.
        event_seq: u64,
        /// `(start, end)` of every finalized window the event missed.
        windows: Vec<(u64, u64)>,
    },
    /// The parallel router hit a shard channel at capacity (backpressure).
    /// `at` is the timestamp of the first event in the stalled batch.
    SendStall {
        /// In-flight batches at the stall.
        depth: u64,
    },
    /// The result merge ran. `at` is 0; the shard is [`MERGE_SHARD`].
    MergeProgress {
        /// Elements merged.
        elements: u64,
        /// Whether the stable-sort fallback was taken.
        fallback: bool,
    },
}

impl TraceKind {
    /// Stable serialization token for the variant.
    pub fn label(&self) -> &'static str {
        match self {
            TraceKind::LateArrival { .. } => "late_arrival",
            TraceKind::BufferEmit { .. } => "buffer_emit",
            TraceKind::KChange { .. } => "k_change",
            TraceKind::WindowFinalize { .. } => "window_finalize",
            TraceKind::LateDrop { .. } => "late_drop",
            TraceKind::SendStall { .. } => "send_stall",
            TraceKind::MergeProgress { .. } => "merge_progress",
        }
    }
}

/// One recorded incident: a monotone sequence number (ring order), the
/// event-time it refers to, the shard that recorded it, and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone sequence number, assigned under the ring lock.
    pub seq: u64,
    /// Event-time the incident refers to (variant-specific; see
    /// [`TraceKind`]).
    pub at: u64,
    /// Shard that recorded the event (0 for pre-fan-out components,
    /// [`MERGE_SHARD`] for the merge).
    pub shard: u32,
    /// The payload.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Render as one JSON object on a single line.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"at\":{},\"shard\":{},\"kind\":\"{}\"",
            self.seq,
            self.at,
            self.shard,
            self.kind.label()
        );
        match &self.kind {
            TraceKind::LateArrival {
                lateness,
                watermark,
            } => {
                let _ = write!(out, ",\"lateness\":{lateness},\"watermark\":{watermark}");
            }
            TraceKind::BufferEmit {
                released,
                watermark,
            } => {
                let _ = write!(out, ",\"released\":{released},\"watermark\":{watermark}");
            }
            TraceKind::KChange {
                old_k,
                new_k,
                reason,
            } => {
                let _ = write!(
                    out,
                    ",\"old_k\":{old_k},\"new_k\":{new_k},\"reason\":\"{}\"",
                    reason.as_str()
                );
            }
            TraceKind::WindowFinalize {
                start,
                end,
                key,
                count,
            } => {
                let _ = write!(
                    out,
                    ",\"start\":{start},\"end\":{end},\"key\":{},\"count\":{count}",
                    json_string(key)
                );
            }
            TraceKind::LateDrop { event_seq, windows } => {
                let _ = write!(out, ",\"event_seq\":{event_seq},\"windows\":[");
                for (i, (s, e)) in windows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "[{s},{e}]");
                }
                out.push(']');
            }
            TraceKind::SendStall { depth } => {
                let _ = write!(out, ",\"depth\":{depth}");
            }
            TraceKind::MergeProgress { elements, fallback } => {
                let _ = write!(out, ",\"elements\":{elements},\"fallback\":{fallback}");
            }
        }
        out.push('}');
        out
    }

    /// Parse one line produced by [`TraceEvent::to_json_line`].
    ///
    /// # Errors
    /// A message naming the malformed or missing field.
    pub fn parse_json_line(line: &str) -> Result<TraceEvent, String> {
        let fields = Fields::parse(line)?;
        trace_event_from_fields(&fields)
    }
}

fn trace_event_from_fields(fields: &Fields) -> Result<TraceEvent, String> {
    let kind_label = fields.str("kind")?;
    let kind = match kind_label.as_str() {
        "late_arrival" => TraceKind::LateArrival {
            lateness: fields.u64("lateness")?,
            watermark: fields.u64("watermark")?,
        },
        "buffer_emit" => TraceKind::BufferEmit {
            released: fields.u64("released")?,
            watermark: fields.u64("watermark")?,
        },
        "k_change" => TraceKind::KChange {
            old_k: fields.u64("old_k")?,
            new_k: fields.u64("new_k")?,
            reason: KChangeReason::parse(&fields.str("reason")?)
                .ok_or_else(|| format!("unknown k-change reason {:?}", fields.str("reason")))?,
        },
        "window_finalize" => TraceKind::WindowFinalize {
            start: fields.u64("start")?,
            end: fields.u64("end")?,
            key: fields.str("key")?,
            count: fields.u64("count")?,
        },
        "late_drop" => TraceKind::LateDrop {
            event_seq: fields.u64("event_seq")?,
            windows: fields.pairs("windows")?,
        },
        "send_stall" => TraceKind::SendStall {
            depth: fields.u64("depth")?,
        },
        "merge_progress" => TraceKind::MergeProgress {
            elements: fields.u64("elements")?,
            fallback: fields.bool("fallback")?,
        },
        other => return Err(format!("unknown trace kind {other:?}")),
    };
    Ok(TraceEvent {
        seq: fields.u64("seq")?,
        at: fields.u64("at")?,
        shard: fields.u64("shard")? as u32,
        kind,
    })
}

/// The bounded ring behind an enabled recorder.
#[derive(Debug, Default)]
struct Ring {
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<TraceEvent>,
}

#[derive(Debug)]
struct RecorderInner {
    capacity: usize,
    ring: Mutex<Ring>,
}

/// A lock-cheap, bounded flight recorder of [`TraceEvent`]s. Clone it
/// freely — clones share the ring. [`FlightRecorder::disabled`] (also
/// `Default`) is the zero-cost variant: `record` is a branch on `None`.
///
/// When the ring is full the oldest event is overwritten and
/// [`FlightRecorder::dropped`] counts it, so memory stays bounded on
/// arbitrarily long runs while the most recent history — what a
/// post-mortem needs — is retained.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder(Option<Arc<RecorderInner>>);

impl FlightRecorder {
    /// An enabled recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder(Some(Arc::new(RecorderInner {
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::default()),
        })))
    }

    /// An enabled recorder with [`DEFAULT_TRACE_CAPACITY`].
    pub fn with_default_capacity() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_TRACE_CAPACITY)
    }

    /// A disabled recorder: same API, every call a no-op.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder(None)
    }

    /// Whether [`FlightRecorder::record`] actually records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one event. The sequence number is assigned under the ring
    /// lock, so ring order equals seq order even across threads.
    #[inline]
    pub fn record(&self, at: u64, shard: u32, kind: TraceKind) {
        if let Some(inner) = &self.0 {
            let mut ring = inner.ring.lock();
            let seq = ring.next_seq;
            ring.next_seq += 1;
            if ring.buf.len() >= inner.capacity {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
            ring.buf.push_back(TraceEvent {
                seq,
                at,
                shard,
                kind,
            });
        }
    }

    /// Events currently held, oldest first (seq order). Empty when
    /// disabled.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.ring.lock().buf.iter().cloned().collect()
        })
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |inner| inner.ring.lock().dropped)
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |inner| inner.ring.lock().buf.len())
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.0.as_ref().map_or(0, |inner| inner.capacity)
    }
}

/// Everything known about how one window's result came to be.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Window start.
    pub start: u64,
    /// Window end.
    pub end: u64,
    /// Stringified grouping key.
    pub key: String,
    /// Tuples folded into the emitted result (0 if never emitted).
    pub contributing: u64,
    /// Late passes whose event-time fell inside the window.
    pub late_arrivals: u64,
    /// Late tuples the operator dropped *for this window*.
    pub dropped: u64,
    /// Median lateness of this window's late arrivals (0 when none).
    pub lateness_p50: u64,
    /// Maximum lateness of this window's late arrivals (0 when none).
    pub lateness_max: u64,
    /// The K in force when the window finalized (last K-change before the
    /// finalize), if any K decision was recorded.
    pub k_at_finalize: Option<u64>,
    /// Sequence number of that K decision.
    pub k_decision_seq: Option<u64>,
    /// What triggered that K decision.
    pub k_decision_reason: Option<KChangeReason>,
    /// Completeness the run achieved for this window.
    pub achieved_completeness: f64,
    /// The completeness the run was asked for, when a target was set.
    pub required_completeness: Option<f64>,
    /// Whether the window missed its target.
    pub violated: bool,
    /// Sequence number of the finalize event (`None` if the window was
    /// never emitted).
    pub finalize_seq: Option<u64>,
}

impl ProvenanceRecord {
    /// Render as one JSON object on a single line (kind `provenance`).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{{\"kind\":\"provenance\",\"start\":{},\"end\":{},\"key\":{},\
             \"contributing\":{},\"late_arrivals\":{},\"dropped\":{},\
             \"lateness_p50\":{},\"lateness_max\":{},\"achieved\":{},\"violated\":{}",
            self.start,
            self.end,
            json_string(&self.key),
            self.contributing,
            self.late_arrivals,
            self.dropped,
            self.lateness_p50,
            self.lateness_max,
            fmt_json_f64(self.achieved_completeness),
            self.violated
        );
        if let Some(r) = self.required_completeness {
            let _ = write!(out, ",\"required\":{}", fmt_json_f64(r));
        }
        if let Some(k) = self.k_at_finalize {
            let _ = write!(out, ",\"k_at_finalize\":{k}");
        }
        if let Some(s) = self.k_decision_seq {
            let _ = write!(out, ",\"k_seq\":{s}");
        }
        if let Some(r) = self.k_decision_reason {
            let _ = write!(out, ",\"k_reason\":\"{}\"", r.as_str());
        }
        if let Some(s) = self.finalize_seq {
            let _ = write!(out, ",\"finalize_seq\":{s}");
        }
        out.push('}');
        out
    }

    /// Parse one line produced by [`ProvenanceRecord::to_json_line`].
    ///
    /// # Errors
    /// A message naming the malformed or missing field.
    pub fn parse_json_line(line: &str) -> Result<ProvenanceRecord, String> {
        let fields = Fields::parse(line)?;
        provenance_from_fields(&fields)
    }
}

fn provenance_from_fields(fields: &Fields) -> Result<ProvenanceRecord, String> {
    if fields.str("kind")? != "provenance" {
        return Err("not a provenance record".into());
    }
    let k_decision_reason = match fields.opt_str("k_reason") {
        None => None,
        Some(s) => {
            Some(KChangeReason::parse(&s).ok_or_else(|| format!("unknown k-change reason {s:?}"))?)
        }
    };
    Ok(ProvenanceRecord {
        start: fields.u64("start")?,
        end: fields.u64("end")?,
        key: fields.str("key")?,
        contributing: fields.u64("contributing")?,
        late_arrivals: fields.u64("late_arrivals")?,
        dropped: fields.u64("dropped")?,
        lateness_p50: fields.u64("lateness_p50")?,
        lateness_max: fields.u64("lateness_max")?,
        k_at_finalize: fields.opt_u64("k_at_finalize")?,
        k_decision_seq: fields.opt_u64("k_seq")?,
        k_decision_reason,
        achieved_completeness: fields.f64("achieved")?,
        required_completeness: fields.opt_f64("required")?,
        violated: fields.bool("violated")?,
        finalize_seq: fields.opt_u64("finalize_seq")?,
    })
}

/// A violated window's provenance plus the causal slice of the ring that
/// explains it: the late arrivals and drops belonging to the window and
/// the controller moves during its lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// The window's provenance.
    pub record: ProvenanceRecord,
    /// The causal trace slice, in seq order.
    pub slice: Vec<TraceEvent>,
}

impl PostMortem {
    /// One provenance header line followed by the slice's event lines.
    pub fn to_jsonl_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(1 + self.slice.len());
        lines.push(self.record.to_json_line());
        lines.extend(self.slice.iter().map(TraceEvent::to_json_line));
        lines
    }
}

/// Flatten post-mortems into a JSONL artifact body (header line + slice
/// lines per violation).
pub fn post_mortems_to_lines(pms: &[PostMortem]) -> Vec<String> {
    pms.iter().flat_map(PostMortem::to_jsonl_lines).collect()
}

/// One parsed line of a trace/post-mortem JSONL file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    /// A raw flight-recorder event.
    Event(TraceEvent),
    /// A provenance header.
    Provenance(ProvenanceRecord),
}

/// Parse one JSONL line into either a trace event or a provenance header.
///
/// # Errors
/// A message naming the malformed or missing field.
pub fn parse_trace_line(line: &str) -> Result<TraceLine, String> {
    let fields = Fields::parse(line)?;
    if fields.str("kind")? == "provenance" {
        Ok(TraceLine::Provenance(provenance_from_fields(&fields)?))
    } else {
        Ok(TraceLine::Event(trace_event_from_fields(&fields)?))
    }
}

/// Parse a post-mortem JSONL body back into [`PostMortem`]s: each
/// provenance header starts a new post-mortem that owns the following
/// event lines. Blank lines are skipped.
///
/// # Errors
/// Malformed lines, or an event line before any header.
pub fn parse_post_mortems(text: &str) -> Result<Vec<PostMortem>, String> {
    let mut out: Vec<PostMortem> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_trace_line(line).map_err(|e| format!("line {}: {e}", i + 1))? {
            TraceLine::Provenance(record) => out.push(PostMortem {
                record,
                slice: Vec::new(),
            }),
            TraceLine::Event(ev) => match out.last_mut() {
                Some(pm) => pm.slice.push(ev),
                None => {
                    return Err(format!(
                        "line {}: trace event before provenance header",
                        i + 1
                    ))
                }
            },
        }
    }
    Ok(out)
}

/// Write trace events as JSON-lines via temp-file + atomic rename.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_trace_jsonl(path: &Path, events: &[TraceEvent]) -> std::io::Result<()> {
    crate::reporter::write_lines_atomic(path, events.iter().map(TraceEvent::to_json_line))
}

/// Write post-mortems as JSON-lines via temp-file + atomic rename.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_post_mortems_jsonl(path: &Path, pms: &[PostMortem]) -> std::io::Result<()> {
    crate::reporter::write_lines_atomic(path, post_mortems_to_lines(pms).into_iter())
}

/// Joins a drained ring with per-window quality outcomes into
/// [`ProvenanceRecord`]s and [`PostMortem`]s.
pub struct ProvenanceBuilder {
    events: Vec<TraceEvent>,
}

impl ProvenanceBuilder {
    /// Build over a drained ring (events are sorted by seq).
    pub fn new(mut events: Vec<TraceEvent>) -> ProvenanceBuilder {
        events.sort_by_key(|e| e.seq);
        ProvenanceBuilder { events }
    }

    /// The events, in seq order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Assemble the provenance of window `[start, end)` for `key` given
    /// the quality the run achieved for it. `required` marks the record
    /// violated when achieved falls short of it.
    pub fn record_for(
        &self,
        start: u64,
        end: u64,
        key: &str,
        achieved: f64,
        required: Option<f64>,
    ) -> ProvenanceRecord {
        let mut finalize_seq = None;
        let mut contributing = 0;
        let mut lateness: Vec<u64> = Vec::new();
        let mut dropped = 0u64;
        for ev in &self.events {
            match &ev.kind {
                TraceKind::WindowFinalize {
                    start: s,
                    end: e,
                    key: k,
                    count,
                } if *s == start && *e == end && k == key && finalize_seq.is_none() => {
                    finalize_seq = Some(ev.seq);
                    contributing = *count;
                }
                TraceKind::LateArrival { lateness: l, .. } if ev.at >= start && ev.at < end => {
                    lateness.push(*l);
                }
                TraceKind::LateDrop { windows, .. } if windows.contains(&(start, end)) => {
                    dropped += 1;
                }
                _ => {}
            }
        }
        lateness.sort_unstable();
        // The K decision "in force" at the finalize is causal, not
        // positional: staged execution records every WindowFinalize after
        // the whole strategy pass, so cutting at the finalize's ring
        // position would always select the run's *final* K. The decision
        // that actually governed this window is the last K change before
        // the buffer's watermark first passed the window end — the emit
        // that made the finalize inevitable. Fall back to the finalize
        // position when no such emit is on record (evicted from the ring,
        // or a source that does not trace buffer emits).
        let k_cutoff = self
            .events
            .iter()
            .find(|ev| {
                matches!(&ev.kind, TraceKind::BufferEmit { watermark, .. } if *watermark >= end)
            })
            .map(|ev| ev.seq)
            .or(finalize_seq);
        let (mut k_at, mut k_seq, mut k_reason) = (None, None, None);
        for ev in &self.events {
            if let TraceKind::KChange { new_k, reason, .. } = &ev.kind {
                if k_cutoff.is_none_or(|f| ev.seq < f) {
                    k_at = Some(*new_k);
                    k_seq = Some(ev.seq);
                    k_reason = Some(*reason);
                }
            }
        }
        ProvenanceRecord {
            start,
            end,
            key: key.to_string(),
            contributing,
            late_arrivals: lateness.len() as u64,
            dropped,
            lateness_p50: lateness.get(lateness.len() / 2).copied().unwrap_or(0),
            lateness_max: lateness.last().copied().unwrap_or(0),
            k_at_finalize: k_at,
            k_decision_seq: k_seq,
            k_decision_reason: k_reason,
            achieved_completeness: achieved,
            required_completeness: required,
            violated: required.is_some_and(|r| achieved + 1e-12 < r),
            finalize_seq,
        }
    }

    /// Materialize the causal slice for a record: the window's late
    /// arrivals and drops, the K decisions during its lifetime (including
    /// the one in force at finalize), and the finalize event itself.
    pub fn post_mortem(&self, record: &ProvenanceRecord) -> PostMortem {
        let fin = record.finalize_seq;
        let slice = self
            .events
            .iter()
            .filter(|ev| match &ev.kind {
                TraceKind::LateArrival { .. } => ev.at >= record.start && ev.at < record.end,
                TraceKind::LateDrop { windows, .. } => {
                    windows.contains(&(record.start, record.end))
                }
                TraceKind::KChange { .. } => {
                    fin.is_none_or(|f| ev.seq <= f)
                        && (ev.at >= record.start || Some(ev.seq) == record.k_decision_seq)
                }
                TraceKind::WindowFinalize {
                    start, end, key, ..
                } => *start == record.start && *end == record.end && *key == record.key,
                _ => false,
            })
            .cloned()
            .collect();
        PostMortem {
            record: record.clone(),
            slice,
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal flat-JSON parsing for the exact subset the emitters above produce:
// one object per line, string/number/bool values, plus `[[u64,u64],...]`
// arrays. No JSON dependency exists in this workspace.

#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Str(String),
    /// Raw number text; converted to u64/f64 on access so u64::MAX
    /// round-trips without f64 precision loss.
    Num(String),
    Bool(bool),
    Pairs(Vec<(u64, u64)>),
}

pub(crate) struct Fields(Vec<(String, JsonVal)>);

impl Fields {
    pub(crate) fn parse(line: &str) -> Result<Fields, String> {
        let mut s = Scanner {
            b: line.as_bytes(),
            i: 0,
        };
        s.skip_ws();
        s.expect(b'{')?;
        let mut fields = Vec::new();
        s.skip_ws();
        if s.peek() == Some(b'}') {
            s.i += 1;
        } else {
            loop {
                s.skip_ws();
                let key = s.parse_string()?;
                s.skip_ws();
                s.expect(b':')?;
                s.skip_ws();
                let val = match s.peek() {
                    Some(b'"') => JsonVal::Str(s.parse_string()?),
                    Some(b'[') => JsonVal::Pairs(s.parse_pairs()?),
                    Some(b't') => {
                        s.expect_literal("true")?;
                        JsonVal::Bool(true)
                    }
                    Some(b'f') => {
                        s.expect_literal("false")?;
                        JsonVal::Bool(false)
                    }
                    _ => JsonVal::Num(s.parse_number_raw()?),
                };
                fields.push((key, val));
                s.skip_ws();
                match s.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        s.skip_ws();
        if s.i != s.b.len() {
            return Err("trailing characters after object".into());
        }
        Ok(Fields(fields))
    }

    fn get(&self, key: &str) -> Option<&JsonVal> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    pub(crate) fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(JsonVal::Num(raw)) => raw
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("field {key:?} is not a u64: {raw:?}")),
            Some(other) => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.opt_f64(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(JsonVal::Num(raw)) => raw
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("field {key:?} is not an f64: {raw:?}")),
            Some(other) => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }

    pub(crate) fn str(&self, key: &str) -> Result<String, String> {
        self.opt_str(key)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }

    fn opt_str(&self, key: &str) -> Option<String> {
        match self.get(key) {
            Some(JsonVal::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(JsonVal::Bool(b)) => Ok(*b),
            other => Err(format!("field {key:?} is not a bool: {other:?}")),
        }
    }

    fn pairs(&self, key: &str) -> Result<Vec<(u64, u64)>, String> {
        match self.get(key) {
            Some(JsonVal::Pairs(p)) => Ok(p.clone()),
            other => Err(format!("field {key:?} is not a pair array: {other:?}")),
        }
    }
}

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
}

impl Scanner<'_> {
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
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected {:?}, got {got:?}", c as char)),
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal {lit:?}"))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
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
                    // Multi-byte UTF-8: copy the full sequence through.
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

    fn parse_number_raw(&mut self) -> Result<String, String> {
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
        Ok(std::str::from_utf8(&self.b[start..self.i])
            .expect("ascii number")
            .to_string())
    }

    fn parse_pairs(&mut self) -> Result<Vec<(u64, u64)>, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            self.expect(b'[')?;
            let a: u64 = self
                .parse_number_raw()?
                .parse()
                .map_err(|_| "pair element is not a u64".to_string())?;
            self.expect(b',')?;
            let b: u64 = self
                .parse_number_raw()?
                .parse()
                .map_err(|_| "pair element is not a u64".to_string())?;
            self.expect(b']')?;
            out.push((a, b));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(out),
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }
}

/// JSON-escape and quote a string (local copy; the exporter's helper is
/// private to keep module boundaries clean). Shared with the span layer's
/// Chrome trace export.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_kinds() -> Vec<TraceKind> {
        vec![
            TraceKind::LateArrival {
                lateness: 42,
                watermark: 190,
            },
            TraceKind::BufferEmit {
                released: 7,
                watermark: u64::MAX,
            },
            TraceKind::KChange {
                old_k: 0,
                new_k: 185,
                reason: KChangeReason::Ratchet,
            },
            TraceKind::WindowFinalize {
                start: 100,
                end: 200,
                key: "a\"b\\c".into(),
                count: 10,
            },
            TraceKind::LateDrop {
                event_seq: 7,
                windows: vec![(0, 100), (50, 150)],
            },
            TraceKind::LateDrop {
                event_seq: 8,
                windows: vec![],
            },
            TraceKind::SendStall { depth: 64 },
            TraceKind::MergeProgress {
                elements: 1234,
                fallback: true,
            },
        ]
    }

    #[test]
    fn trace_event_jsonl_round_trips() {
        for (i, kind) in sample_kinds().into_iter().enumerate() {
            let ev = TraceEvent {
                seq: i as u64,
                at: 1000 + i as u64,
                shard: if i % 2 == 0 { 0 } else { MERGE_SHARD },
                kind,
            };
            let line = ev.to_json_line();
            assert!(!line.contains('\n'));
            let back = TraceEvent::parse_json_line(&line)
                .unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceEvent::parse_json_line("").is_err());
        assert!(TraceEvent::parse_json_line("{}").is_err());
        assert!(TraceEvent::parse_json_line("{\"seq\":1}").is_err());
        assert!(TraceEvent::parse_json_line(
            "{\"seq\":1,\"at\":2,\"shard\":0,\"kind\":\"no_such_kind\"}"
        )
        .is_err());
        assert!(TraceEvent::parse_json_line(
            "{\"seq\":1,\"at\":2,\"shard\":0,\"kind\":\"send_stall\",\"depth\":3} x"
        )
        .is_err());
    }

    #[test]
    fn recorder_assigns_monotone_seq_and_bounds_memory() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(i, 0, TraceKind::SendStall { depth: i });
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "ring keeps the newest events");
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(1, 0, TraceKind::SendStall { depth: 1 });
        assert!(rec.events().is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.capacity(), 0);
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = FlightRecorder::new(16);
        let clone = rec.clone();
        clone.record(5, 1, TraceKind::SendStall { depth: 2 });
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.events()[0].shard, 1);
    }

    #[test]
    fn seq_order_is_global_across_threads() {
        let rec = FlightRecorder::new(4096);
        let mut handles = Vec::new();
        for shard in 0..4u32 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    rec.record(i, shard, TraceKind::SendStall { depth: i });
                }
            }));
        }
        for h in handles {
            h.join().expect("recorder thread");
        }
        let events = rec.events();
        assert_eq!(events.len(), 400);
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "ring order must equal seq order"
        );
    }

    fn violation_ring() -> ProvenanceBuilder {
        // A window [100, 200) that finalized with 10 tuples under K=95 (set
        // by a ratchet), then missed one tuple at ts=150 (lateness 145).
        let rec = FlightRecorder::new(64);
        rec.record(
            0,
            0,
            TraceKind::KChange {
                old_k: 0,
                new_k: 0,
                reason: KChangeReason::Initial,
            },
        );
        rec.record(
            95,
            0,
            TraceKind::KChange {
                old_k: 0,
                new_k: 95,
                reason: KChangeReason::Ratchet,
            },
        );
        rec.record(
            200,
            0,
            TraceKind::WindowFinalize {
                start: 100,
                end: 200,
                key: "null".into(),
                count: 10,
            },
        );
        rec.record(
            150,
            0,
            TraceKind::LateArrival {
                lateness: 145,
                watermark: 295,
            },
        );
        rec.record(
            150,
            0,
            TraceKind::LateDrop {
                event_seq: 21,
                windows: vec![(100, 200)],
            },
        );
        // Noise from a different window.
        rec.record(
            250,
            0,
            TraceKind::LateArrival {
                lateness: 3,
                watermark: 295,
            },
        );
        ProvenanceBuilder::new(rec.events())
    }

    #[test]
    fn provenance_joins_ring_with_quality() {
        let b = violation_ring();
        let rec = b.record_for(100, 200, "null", 10.0 / 11.0, Some(0.95));
        assert_eq!(rec.contributing, 10);
        assert_eq!(rec.late_arrivals, 1);
        assert_eq!(rec.dropped, 1);
        assert_eq!(rec.lateness_max, 145);
        assert_eq!(rec.lateness_p50, 145);
        assert_eq!(rec.k_at_finalize, Some(95));
        assert_eq!(rec.k_decision_reason, Some(KChangeReason::Ratchet));
        assert!(rec.violated);
        assert!(rec.finalize_seq.is_some());

        // A met target is not a violation.
        let ok = b.record_for(100, 200, "null", 10.0 / 11.0, Some(0.9));
        assert!(!ok.violated);
        // No target → never violated.
        let untargeted = b.record_for(100, 200, "null", 0.5, None);
        assert!(!untargeted.violated);
    }

    #[test]
    fn post_mortem_slices_the_causal_events() {
        let b = violation_ring();
        let rec = b.record_for(100, 200, "null", 10.0 / 11.0, Some(0.95));
        let pm = b.post_mortem(&rec);
        // Slice: the in-force K decision (ratchet), the finalize, the late
        // arrival at ts=150, and its drop — but not the initial K=0 (not in
        // force at finalize) nor the ts=250 noise arrival.
        assert_eq!(pm.slice.len(), 4);
        assert!(pm
            .slice
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::LateArrival { .. } if e.at == 150)));
        assert!(pm.slice.iter().any(|e| matches!(
            &e.kind,
            TraceKind::KChange {
                reason: KChangeReason::Ratchet,
                ..
            }
        )));
        assert!(pm.slice.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn post_mortems_round_trip_through_jsonl() {
        let b = violation_ring();
        let rec = b.record_for(100, 200, "null", 10.0 / 11.0, Some(0.95));
        let pms = vec![b.post_mortem(&rec)];
        let lines = post_mortems_to_lines(&pms);
        let text = lines.join("\n");
        let back = parse_post_mortems(&text).expect("parse own output");
        assert_eq!(back, pms);
    }

    #[test]
    fn provenance_record_round_trips_optional_fields() {
        let full = ProvenanceRecord {
            start: 0,
            end: 100,
            key: "Int(3)".into(),
            contributing: 9,
            late_arrivals: 2,
            dropped: 1,
            lateness_p50: 10,
            lateness_max: 40,
            k_at_finalize: Some(95),
            k_decision_seq: Some(1),
            k_decision_reason: Some(KChangeReason::Adapt),
            achieved_completeness: 0.9,
            required_completeness: Some(0.97),
            violated: true,
            finalize_seq: Some(2),
        };
        let sparse = ProvenanceRecord {
            k_at_finalize: None,
            k_decision_seq: None,
            k_decision_reason: None,
            required_completeness: None,
            finalize_seq: None,
            violated: false,
            ..full.clone()
        };
        for rec in [full, sparse] {
            let line = rec.to_json_line();
            let back = ProvenanceRecord::parse_json_line(&line)
                .unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn unemitted_window_has_no_finalize_and_zero_contribution() {
        let rec = FlightRecorder::new(8);
        rec.record(
            5,
            0,
            TraceKind::LateDrop {
                event_seq: 1,
                windows: vec![(0, 100)],
            },
        );
        let b = ProvenanceBuilder::new(rec.events());
        let r = b.record_for(0, 100, "null", 0.0, Some(0.9));
        assert_eq!(r.finalize_seq, None);
        assert_eq!(r.contributing, 0);
        assert_eq!(r.dropped, 1);
        assert!(r.violated);
    }
}
