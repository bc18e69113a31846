//! Per-window provenance and violation post-mortems: views over a drained
//! span record stream.
//!
//! Numeric telemetry (the [`crate::Registry`]) tells an operator *that*
//! completeness dipped or the controller moved K; this module explains
//! *why*, by reading the records the pipeline left in a
//! [`crate::SpanRecorder`]: late arrivals with their lateness, buffer
//! advances, K changes with the decision reason, window finalizations and
//! late drops ([`crate::Stage`]).
//!
//! [`ProvenanceBuilder`] assembles one [`ProvenanceRecord`] per window
//! (contributing/late/dropped tuple counts, lateness quantiles, the K in
//! force and the decision that set it) and — for windows that miss their
//! quality target — a [`PostMortem`]: the causal slice of the stream
//! covering that window's lifetime, serializable to JSON-lines (a
//! provenance header followed by the slice's span lines) and rendered by
//! the `quill-inspect` tool.

use crate::json::{json_string, Fields};
use crate::span::{key_tag, KChangeReason, Span, Stage};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

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
    /// Sequence number of the finalize record (`None` if the window was
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
            let _ = write!(out, ",\"k_reason\":\"{r}\"");
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
        if fields.opt_str("kind") != Some("provenance") {
            return Err("not a provenance record".into());
        }
        provenance_from_fields(&fields)
    }
}

fn provenance_from_fields(fields: &Fields) -> Result<ProvenanceRecord, String> {
    let k_decision_reason = match fields.opt_str("k_reason") {
        None => None,
        Some(s) => {
            Some(KChangeReason::parse(s).ok_or_else(|| format!("unknown k-change reason {s:?}"))?)
        }
    };
    Ok(ProvenanceRecord {
        start: fields.u64("start")?,
        end: fields.u64("end")?,
        key: fields.str("key")?.to_string(),
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

/// A violated window's provenance plus the causal slice of the record
/// stream that explains it: the late arrivals and drops belonging to the
/// window, the controller moves during its lifetime and its finalize.
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// The window's provenance.
    pub record: ProvenanceRecord,
    /// The causal slice, in seq order.
    pub slice: Vec<Span>,
}

impl PostMortem {
    /// One provenance header line followed by the slice's span lines.
    pub fn to_jsonl_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(1 + self.slice.len());
        lines.push(self.record.to_json_line());
        lines.extend(self.slice.iter().map(Span::to_json_line));
        lines
    }
}

/// Flatten post-mortems into a JSONL artifact body (header line + slice
/// lines per violation).
pub fn post_mortems_to_lines(pms: &[PostMortem]) -> Vec<String> {
    pms.iter().flat_map(PostMortem::to_jsonl_lines).collect()
}

/// Parse a post-mortem JSONL body back into [`PostMortem`]s: each
/// provenance header starts a new post-mortem that owns the following span
/// lines. Blank lines are skipped.
///
/// # Errors
/// Malformed lines (`line N: …`), or a span line before any header.
pub fn parse_post_mortems(text: &str) -> Result<Vec<PostMortem>, String> {
    let mut out: Vec<PostMortem> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("line {}: {e}", i + 1);
        let fields = Fields::parse(line).map_err(at)?;
        if fields.opt_str("kind") == Some("provenance") {
            out.push(PostMortem {
                record: provenance_from_fields(&fields).map_err(at)?,
                slice: Vec::new(),
            });
            continue;
        }
        let span = Span::from_fields(&fields).map_err(at)?;
        match out.last_mut() {
            Some(pm) => pm.slice.push(span),
            None => return Err(at("span record before provenance header".into())),
        }
    }
    Ok(out)
}

/// Write post-mortems as JSON-lines via temp-file + atomic rename.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_post_mortems_jsonl(path: &Path, pms: &[PostMortem]) -> std::io::Result<()> {
    crate::reporter::write_lines_atomic(path, post_mortems_to_lines(pms).into_iter())
}

/// Joins a drained record stream with per-window quality outcomes into
/// [`ProvenanceRecord`]s and [`PostMortem`]s. The stream is indexed once,
/// so each window's record costs a few binary searches, not a scan.
pub struct ProvenanceBuilder {
    /// Late arrivals and late drops, by event timestamp (then seq).
    late: Vec<Span>,
    /// K changes, in seq order.
    k_changes: Vec<Span>,
    /// First finalize per `(window end, window start, key tag)`.
    finalizes: HashMap<(u64, u64, u64), Span>,
    /// Per buffer advance in seq order: the highest watermark emitted so
    /// far and the advance's seq — monotone, so searchable.
    advances: Vec<(u64, u64)>,
}

impl ProvenanceBuilder {
    /// Index a drained stream (records need not be in seq order).
    pub fn new(mut spans: Vec<Span>) -> ProvenanceBuilder {
        spans.sort_by_key(|s| s.seq);
        let mut b = ProvenanceBuilder {
            late: Vec::new(),
            k_changes: Vec::new(),
            finalizes: HashMap::new(),
            advances: Vec::new(),
        };
        let mut high = 0;
        for s in spans {
            match s.stage {
                Stage::LateArrival | Stage::LateDrop => b.late.push(s),
                Stage::KChange => b.k_changes.push(s),
                Stage::WindowFinalize => {
                    b.finalizes
                        .entry((s.begin, s.detail[0], s.detail[1]))
                        .or_insert(s);
                }
                Stage::BufferResidency => {
                    high = high.max(s.detail[1]);
                    b.advances.push((high, s.seq));
                }
                _ => {}
            }
        }
        b.late.sort_by_key(|s| (s.begin, s.seq));
        b
    }

    /// Late arrivals and drops whose event time falls in `[start, end)`.
    fn late_in(&self, start: u64, end: u64) -> &[Span] {
        let lo = self.late.partition_point(|s| s.begin < start);
        let hi = self.late.partition_point(|s| s.begin < end);
        &self.late[lo..hi]
    }

    /// Assemble the provenance of window `[start, end)` for `key` given
    /// what the run's result folded (`contributing`) and the quality it
    /// achieved. `required` marks the record violated when achieved falls
    /// short of it.
    pub fn record_for(
        &self,
        start: u64,
        end: u64,
        key: &str,
        contributing: u64,
        achieved: f64,
        required: Option<f64>,
    ) -> ProvenanceRecord {
        let finalize_seq = self
            .finalizes
            .get(&(end, start, key_tag(key)))
            .map(|s| s.seq);
        let late = self.late_in(start, end);
        let mut lateness: Vec<u64> = late
            .iter()
            .filter(|s| s.stage == Stage::LateArrival)
            .map(Span::duration)
            .collect();
        let dropped = late.iter().filter(|s| s.stage == Stage::LateDrop).count() as u64;
        lateness.sort_unstable();
        let k_cutoff = self.k_cutoff(end, finalize_seq);
        let in_force = self
            .k_changes
            .partition_point(|s| k_cutoff.is_none_or(|c| s.seq < c));
        let decision = in_force.checked_sub(1).map(|i| self.k_changes[i]);
        ProvenanceRecord {
            start,
            end,
            key: key.to_string(),
            contributing,
            late_arrivals: lateness.len() as u64,
            dropped,
            lateness_p50: lateness.get(lateness.len() / 2).copied().unwrap_or(0),
            lateness_max: lateness.last().copied().unwrap_or(0),
            k_at_finalize: decision.map(|s| s.detail[1]),
            k_decision_seq: decision.map(|s| s.seq),
            k_decision_reason: decision.and_then(|s| s.reason),
            achieved_completeness: achieved,
            required_completeness: required,
            violated: required.is_some_and(|r| achieved + 1e-12 < r),
            finalize_seq,
        }
    }

    /// Where the K decisions that governed window `[.., end)` stop: at the
    /// first buffer advance whose watermark reached `end`, else (no such
    /// advance on record) at the finalize. Causal, not positional: a staged
    /// run (the keyed-parallel leg) records every WindowFinalize after the
    /// whole strategy pass, where the finalize's position means the final K.
    fn k_cutoff(&self, end: u64, finalize_seq: Option<u64>) -> Option<u64> {
        let reached = self.advances.partition_point(|&(wm, _)| wm < end);
        let advance = self.advances.get(reached).map(|&(_, seq)| seq);
        advance.or(finalize_seq)
    }

    /// Materialize the causal slice for a record: the window's late
    /// arrivals and drops, the K decisions during its lifetime up to the
    /// advance that closed it (including the one in force then), and the
    /// finalize record itself.
    pub fn post_mortem(&self, record: &ProvenanceRecord) -> PostMortem {
        let cutoff = self.k_cutoff(record.end, record.finalize_seq);
        let mut slice = self.late_in(record.start, record.end).to_vec();
        slice.extend(self.k_changes.iter().filter(|s| {
            cutoff.is_none_or(|c| s.seq < c)
                && (s.begin >= record.start || Some(s.seq) == record.k_decision_seq)
        }));
        let tag = key_tag(&record.key);
        slice.extend(self.finalizes.get(&(record.end, record.start, tag)));
        slice.sort_by_key(|s| s.seq);
        PostMortem {
            record: record.clone(),
            slice,
        }
    }
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
    use crate::SpanRecorder;

    fn violation_stream() -> ProvenanceBuilder {
        // A window [100, 200) that finalized with 10 tuples under K=95 (set
        // by a ratchet), then missed one tuple at ts=150 (lateness 145).
        let rec = SpanRecorder::new(64);
        rec.record_k_change(0, 0, 0, KChangeReason::Initial);
        rec.record_k_change(95, 0, 95, KChangeReason::Ratchet);
        rec.record_detail(Stage::BufferResidency, 100, 200, 0, [10, 200]);
        rec.record_detail(Stage::WindowFinalize, 200, 200, 0, [100, key_tag("null")]);
        rec.record_detail(Stage::LateArrival, 150, 295, 0, [21, 0]);
        rec.record_detail(Stage::LateDrop, 150, 150, 0, [21, 0]);
        // Noise from a different window, and a later K change.
        rec.record_detail(Stage::LateArrival, 250, 295, 0, [22, 0]);
        rec.record_k_change(150, 95, 145, KChangeReason::Ratchet);
        ProvenanceBuilder::new(rec.spans())
    }

    /// One record of every kind the quality path leaves in the ring.
    fn record_every_trace_kind(rec: &SpanRecorder) {
        rec.record_detail(Stage::LateArrival, 148, 190, 0, [3, 0]);
        rec.record_detail(Stage::BufferResidency, 120, 200, u32::MAX, [7, u64::MAX]);
        rec.record_k_change(150, 0, 185, KChangeReason::Ratchet);
        rec.record_detail(
            Stage::WindowFinalize,
            200,
            210,
            u32::MAX,
            [100, key_tag("a\"b\\c")],
        );
        rec.record_detail(Stage::LateDrop, 148, 148, 0, [7, 0]);
    }

    #[test]
    fn trace_event_jsonl_round_trips() {
        let rec = SpanRecorder::new(16);
        record_every_trace_kind(&rec);
        let spans = rec.spans();
        assert_eq!(spans.len(), 5);
        for span in spans {
            let line = span.to_json_line();
            assert!(!line.contains('\n'));
            let back =
                Span::parse_json_line(&line).unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
            assert_eq!(back, span);
        }
    }

    #[test]
    fn recorder_assigns_monotone_seq_and_bounds_memory() {
        let rec = SpanRecorder::new(4);
        for i in 0..10u64 {
            rec.record_detail(Stage::LateDrop, i, i, 0, [i, 0]);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let seqs: Vec<u64> = spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "ring keeps the newest records");
        let inputs: Vec<u64> = spans.iter().map(|s| s.detail[0]).collect();
        assert_eq!(inputs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = SpanRecorder::disabled();
        assert!(!rec.is_enabled());
        record_every_trace_kind(&rec);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.capacity(), 0);
        // An empty stream explains nothing about any window.
        let r = ProvenanceBuilder::new(rec.spans()).record_for(100, 200, "a\"b\\c", 0, 1.0, None);
        assert_eq!((r.late_arrivals, r.dropped), (0, 0));
        assert_eq!((r.finalize_seq, r.k_at_finalize), (None, None));
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = SpanRecorder::new(16);
        let clone = rec.clone();
        clone.record_detail(Stage::LateArrival, 150, 170, 1, [2, 0]);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.spans()[0].shard, 1);
        let r = ProvenanceBuilder::new(rec.spans()).record_for(100, 200, "null", 0, 0.0, None);
        assert_eq!((r.late_arrivals, r.lateness_max), (1, 20));
    }

    #[test]
    fn provenance_joins_ring_with_quality() {
        let b = violation_stream();
        let rec = b.record_for(100, 200, "null", 10, 10.0 / 11.0, Some(0.95));
        assert_eq!(rec.contributing, 10);
        assert_eq!(rec.late_arrivals, 1);
        assert_eq!(rec.dropped, 1);
        assert_eq!(rec.lateness_max, 145);
        assert_eq!(rec.lateness_p50, 145);
        assert_eq!(rec.k_at_finalize, Some(95));
        assert_eq!(rec.k_decision_reason, Some(KChangeReason::Ratchet));
        assert_eq!(rec.k_decision_seq, Some(1));
        assert!(rec.violated);
        assert_eq!(rec.finalize_seq, Some(3));

        // A met target is not a violation.
        let ok = b.record_for(100, 200, "null", 10, 10.0 / 11.0, Some(0.9));
        assert!(!ok.violated);
        // No target → never violated.
        let untargeted = b.record_for(100, 200, "null", 10, 0.5, None);
        assert!(!untargeted.violated);
        // Another key's window has no finalize on record.
        assert_eq!(b.record_for(100, 200, "7", 0, 0.0, None).finalize_seq, None);
    }

    #[test]
    fn post_mortem_slices_the_causal_events() {
        let b = violation_stream();
        let rec = b.record_for(100, 200, "null", 10, 10.0 / 11.0, Some(0.95));
        let pm = b.post_mortem(&rec);
        // Slice: the in-force K decision (ratchet), the finalize, the late
        // arrival at ts=150, and its drop — but not the initial K=0 (not in
        // force at finalize), the later K change, the buffer advance, nor
        // the ts=250 noise arrival.
        let stages: Vec<Stage> = pm.slice.iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::KChange,
                Stage::WindowFinalize,
                Stage::LateArrival,
                Stage::LateDrop
            ]
        );
        assert_eq!(pm.slice[0].reason, Some(KChangeReason::Ratchet));
        assert_eq!(pm.slice[2].begin, 150);
        assert!(pm.slice.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn post_mortems_round_trip_through_jsonl() {
        let b = violation_stream();
        let rec = b.record_for(100, 200, "null", 10, 10.0 / 11.0, Some(0.95));
        let pms = vec![b.post_mortem(&rec)];
        let lines = post_mortems_to_lines(&pms);
        let text = lines.join("\n");
        let back = parse_post_mortems(&text).expect("parse own output");
        assert_eq!(back, pms);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(ProvenanceRecord::parse_json_line("").is_err());
        assert!(ProvenanceRecord::parse_json_line("{}").is_err());
        assert!(ProvenanceRecord::parse_json_line("{\"kind\":\"provenance\"}").is_err());
        let span =
            "{\"seq\":1,\"stage\":\"late_drop\",\"begin\":2,\"end\":2,\"shard\":0,\"input_seq\":3}";
        assert!(ProvenanceRecord::parse_json_line(span).is_err());
        let err = parse_post_mortems(span).unwrap_err();
        assert_eq!(err, "line 1: span record before provenance header");
        let b = violation_stream();
        let header = b
            .record_for(100, 200, "null", 10, 0.9, Some(0.95))
            .to_json_line();
        let err = parse_post_mortems(&format!("{header}\n{span} x")).unwrap_err();
        assert!(err.starts_with("line 2: trailing characters"), "{err}");
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
        let rec = SpanRecorder::new(8);
        rec.record_detail(Stage::LateDrop, 5, 5, 0, [1, 0]);
        let b = ProvenanceBuilder::new(rec.spans());
        let r = b.record_for(0, 100, "null", 0, 0.0, Some(0.9));
        assert_eq!(r.finalize_seq, None);
        assert_eq!(r.contributing, 0);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.k_at_finalize, None);
        assert!(r.violated);
    }
}
