//! Human-readable rendering of span record streams and violation
//! post-mortems — the library behind the `quill-inspect` binary.
//!
//! Two input shapes are accepted (both JSON-lines, one dialect for records):
//!
//! * a **span file** — [`Span`] lines as written by `write_spans_jsonl`
//!   (e.g. the `f4_trace` artifact) or served by `quill-serve`'s
//!   `GET /trace`;
//! * a **post-mortem file** — [`ProvenanceRecord`] headers, each followed
//!   by its causal slice of span lines, as written by
//!   `write_post_mortems_jsonl` (e.g. the `f5_postmortems` artifact).
//!
//! [`render_report`] sniffs the shape from the first line and renders a
//! report with a summary, the controller decision log, the top-K latest
//! tuples, and (for post-mortem files) one annotated timeline per violated
//! window. [`render_timeline`] is the latency-attribution view over span
//! lines.

use quill_telemetry::span::{attribute, Span, NO_QUERY};
use quill_telemetry::trace::{parse_post_mortems, PostMortem, ProvenanceRecord};
use quill_telemetry::Stage;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Parse span JSON-lines, skipping blank lines; errors name the line.
fn parse_span_lines(text: &str) -> Result<Vec<Span>, String> {
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            spans.push(Span::parse_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
    }
    Ok(spans)
}

/// Render a span or post-mortem JSONL document as a human-readable report.
/// `top_k` bounds the "latest tuples" leaderboard.
///
/// # Errors
/// Returns a message naming the first malformed line (`line N: …`).
pub fn render_report(text: &str, top_k: usize) -> Result<String, String> {
    let Some(first) = text.lines().find(|l| !l.trim().is_empty()) else {
        return Ok("(empty trace)\n".into());
    };
    if first.contains("\"kind\":\"provenance\"") {
        let pms = parse_post_mortems(text)?;
        return Ok(render_post_mortems(&pms, top_k));
    }
    Ok(render_span_report(&parse_span_lines(text)?, top_k))
}

/// Report over a span file: summary, controller log, late leaders.
fn render_span_report(spans: &[Span], top_k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Span records ==");
    render_summary(&mut out, spans);
    render_controller_log(&mut out, spans);
    render_late_leaders(&mut out, spans, top_k);
    out
}

/// Report over post-mortems: global sections over the union of slices, then
/// one timeline per violation.
fn render_post_mortems(pms: &[PostMortem], top_k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Quality-violation post-mortem ==");
    let _ = writeln!(out, "violations: {}", pms.len());
    // Union of causal slices, deduplicated by sequence number so shared
    // controller decisions are reported once.
    let mut by_seq: BTreeMap<u64, Span> = BTreeMap::new();
    for pm in pms {
        for s in &pm.slice {
            by_seq.insert(s.seq, *s);
        }
    }
    let union: Vec<Span> = by_seq.into_values().collect();
    render_summary(&mut out, &union);
    render_controller_log(&mut out, &union);
    render_late_leaders(&mut out, &union, top_k);
    for pm in pms {
        render_violation_timeline(&mut out, pm);
    }
    out
}

/// Render a span timeline report from span JSON-lines
/// (`write_spans_jsonl`, `GET /trace`).
///
/// # Errors
/// Returns a message naming the first malformed line.
pub fn render_timeline(text: &str) -> Result<String, String> {
    let spans = parse_span_lines(text)?;
    if spans.is_empty() {
        return Ok("(no spans)\n".into());
    }
    Ok(render_span_timeline(&spans))
}

/// Attribution report over raw spans: per-stage totals, per-query delivery
/// latency, and the longest individual spans.
fn render_span_timeline(spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Pipeline span timeline ==");
    let lo = spans.iter().map(|s| s.begin).min().unwrap_or(0);
    let hi = spans.iter().map(|s| s.end).max().unwrap_or(0);
    let _ = writeln!(out, "spans: {}  clock extent: [{lo}, {hi}]", spans.len());

    let _ = writeln!(out, "\n-- Stage attribution --");
    for a in attribute(spans) {
        let mean = a.total as f64 / a.count as f64;
        let _ = writeln!(
            out,
            "{:<16} count={:<8} total={:<12} mean={mean:<10.1} max={}",
            a.stage.as_str(),
            a.count,
            a.total,
            a.max
        );
    }

    let mut per_query: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans {
        if s.stage == Stage::Deliver && s.query != NO_QUERY {
            let e = per_query.entry(s.query).or_default();
            e.0 += 1;
            e.1 += s.duration();
        }
    }
    if !per_query.is_empty() {
        let _ = writeln!(out, "\n-- Delivery latency by query --");
        for (q, (n, total)) in &per_query {
            let _ = writeln!(
                out,
                "query {q}: {n} results, mean latency {:.1}",
                *total as f64 / *n as f64
            );
        }
    }

    let _ = writeln!(out, "\n-- Longest spans --");
    let mut longest: Vec<&Span> = spans.iter().collect();
    longest.sort_by_key(|s| (std::cmp::Reverse(s.duration()), s.seq));
    for s in longest.into_iter().take(5) {
        let _ = writeln!(
            out,
            "{:<16} [{}, {}] dur={} shard={} seq={}",
            s.stage.as_str(),
            s.begin,
            s.end,
            s.duration(),
            s.shard,
            s.seq
        );
    }
    out
}

/// The message for a malformed input file: `path:N: <what>` (the `line N:`
/// a parse error starts with becomes the location) followed by the
/// offending record when the error names one.
pub fn describe_malformed(path: &str, text: &str, err: &str) -> String {
    let located = err.strip_prefix("line ").and_then(|rest| {
        let (n, what) = rest.split_once(": ")?;
        let n: usize = n.parse().ok()?;
        Some((n, what, text.lines().nth(n.checked_sub(1)?)?))
    });
    match located {
        Some((n, what, record)) => format!("{path}:{n}: {what}\n  offending record: {record}"),
        None => format!("{path}: {err}"),
    }
}

fn render_summary(out: &mut String, spans: &[Span]) {
    let _ = writeln!(out, "\n-- Summary --");
    if spans.is_empty() {
        let _ = writeln!(out, "no records");
        return;
    }
    let mut stages: BTreeMap<Stage, u64> = BTreeMap::new();
    let mut shards: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        *stages.entry(s.stage).or_default() += 1;
        *shards.entry(s.shard).or_default() += 1;
    }
    let _ = writeln!(
        out,
        "records: {}  (seq {}..={})",
        spans.len(),
        spans.first().map_or(0, |s| s.seq),
        spans.last().map_or(0, |s| s.seq),
    );
    for (stage, n) in &stages {
        let _ = writeln!(out, "  {:<16} {n}", stage.as_str());
    }
    let shard_list: Vec<String> = shards.iter().map(|(s, n)| format!("{s}:{n}")).collect();
    let _ = writeln!(out, "shards (id:records): {}", shard_list.join(" "));
}

fn render_controller_log(out: &mut String, spans: &[Span]) {
    let _ = writeln!(out, "\n-- Controller decision log --");
    let mut any = false;
    for s in spans.iter().filter(|s| s.stage == Stage::KChange) {
        any = true;
        let _ = writeln!(
            out,
            "seq={:<6} t={:<10} shard={:<3} {}",
            s.seq,
            s.begin,
            s.shard,
            describe_k_change(s),
        );
    }
    if !any {
        let _ = writeln!(out, "(no K changes recorded)");
    }
}

fn render_late_leaders(out: &mut String, spans: &[Span], top_k: usize) {
    let _ = writeln!(out, "\n-- Top {top_k} latest tuples --");
    let mut lates: Vec<&Span> = spans
        .iter()
        .filter(|s| s.stage == Stage::LateArrival)
        .collect();
    if lates.is_empty() {
        let _ = writeln!(out, "(no late arrivals recorded)");
        return;
    }
    // Worst first; ties broken by arrival order for determinism.
    lates.sort_by_key(|s| (std::cmp::Reverse(s.duration()), s.seq));
    for s in lates.into_iter().take(top_k) {
        let _ = writeln!(
            out,
            "t={:<10} lateness={:<8} behind watermark {} (input #{}, seq={}, shard={})",
            s.begin,
            s.duration(),
            s.end,
            s.detail[0],
            s.seq,
            s.shard,
        );
    }
}

fn render_violation_timeline(out: &mut String, pm: &PostMortem) {
    let r = &pm.record;
    let _ = writeln!(
        out,
        "\n-- Violation: window [{}, {}) key={} --",
        r.start, r.end, r.key
    );
    let _ = writeln!(
        out,
        "completeness: achieved {:.4}{}",
        r.achieved_completeness,
        r.required_completeness
            .map_or(String::new(), |q| format!(" (required {q:.4})")),
    );
    let _ = writeln!(
        out,
        "tuples: {} contributed, {} arrived late, {} dropped (lateness p50={} max={})",
        r.contributing, r.late_arrivals, r.dropped, r.lateness_p50, r.lateness_max
    );
    match (r.k_at_finalize, r.k_decision_reason) {
        (Some(k), Some(reason)) => {
            let _ = writeln!(
                out,
                "K in force: {} (set by `{reason}` decision seq={})",
                fmt_k(k),
                r.k_decision_seq.unwrap_or(0),
            );
        }
        _ => {
            let _ = writeln!(out, "K in force: unknown (no K decision recorded)");
        }
    }
    let _ = writeln!(out, "timeline:");
    for s in &pm.slice {
        let _ = writeln!(out, "  {}", describe_record(s, r));
    }
}

fn describe_k_change(s: &Span) -> String {
    let reason = s.reason.map_or("?", |r| r.as_str());
    format!(
        "K {} -> {}  ({reason})",
        fmt_k(s.detail[0]),
        fmt_k(s.detail[1])
    )
}

/// One-line story for a record of a post-mortem slice (late arrivals,
/// drops, K changes, the finalize), annotated against the violated window.
fn describe_record(s: &Span, r: &ProvenanceRecord) -> String {
    let head = format!("seq={:<6} t={:<10}", s.seq, s.begin);
    let shard = s.shard;
    match s.stage {
        Stage::LateArrival => format!(
            "{head} late arrival: input #{} {} behind watermark {} (shard {shard})",
            s.detail[0],
            s.duration(),
            s.end
        ),
        Stage::KChange => format!("{head} {}", describe_k_change(s)),
        Stage::WindowFinalize => {
            let (start, end) = (s.detail[0], s.begin);
            let marker = if (start, end) == (r.start, r.end) {
                " <- this window"
            } else {
                ""
            };
            format!(
                "{head} window [{start}, {end}) finalized at watermark {}{marker}",
                s.end
            )
        }
        Stage::LateDrop => {
            let marker = if (r.start..r.end).contains(&s.begin) {
                " <- lost from this window"
            } else {
                ""
            };
            format!("{head} input #{} dropped late{marker}", s.detail[0])
        }
        stage => format!("{head} {stage} [{}, {}] (shard {shard})", s.begin, s.end),
    }
}

/// `u64::MAX` is the oracle's "buffer everything" sentinel.
fn fmt_k(k: u64) -> String {
    if k == u64::MAX {
        "inf".into()
    } else {
        k.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_telemetry::span::key_tag;
    use quill_telemetry::trace::{post_mortems_to_lines, ProvenanceBuilder};
    use quill_telemetry::{KChangeReason, SpanRecorder};

    /// A small deterministic stream with one violated window [100, 200).
    fn violation_trace() -> SpanRecorder {
        let rec = SpanRecorder::new(128);
        rec.record_k_change(0, 0, 0, KChangeReason::Initial);
        rec.record_k_change(95, 0, 95, KChangeReason::Ratchet);
        rec.record_detail(Stage::LateArrival, 150, 295, 0, [21, 0]);
        rec.record_detail(Stage::LateDrop, 150, 150, 0, [21, 0]);
        rec.record_detail(Stage::WindowFinalize, 200, 200, 0, [100, key_tag("null")]);
        rec
    }

    fn jsonl(rec: &SpanRecorder) -> String {
        rec.spans()
            .iter()
            .map(|s| s.to_json_line() + "\n")
            .collect()
    }

    fn postmortem_text() -> String {
        let builder = ProvenanceBuilder::new(violation_trace().spans());
        let rec = builder.record_for(100, 200, "null", 10, 10.0 / 11.0, Some(0.97));
        assert!(rec.violated);
        let pm = builder.post_mortem(&rec);
        let mut text = post_mortems_to_lines(&[pm]).join("\n");
        text.push('\n');
        text
    }

    #[test]
    fn renders_post_mortem_with_timeline_and_decision_log() {
        let report = render_report(&postmortem_text(), 5).expect("renders");
        assert!(report.contains("Quality-violation post-mortem"));
        assert!(report.contains("violations: 1"));
        assert!(report.contains("window [100, 200) key=null"));
        assert!(report.contains("required 0.97"));
        assert!(report.contains("K 0 -> 95  (ratchet)"));
        assert!(report.contains("lateness=145"));
        assert!(report.contains("<- lost from this window"));
        assert!(report.contains("<- this window"));
        assert!(report.contains("10 contributed"));
    }

    #[test]
    fn renders_flat_trace_with_summary() {
        let report = render_report(&jsonl(&violation_trace()), 3).expect("renders");
        assert!(report.contains("Span records"), "{report}");
        assert!(report.contains("k_change"));
        assert!(report.contains("late_arrival"));
        assert!(report.contains("Top 3 latest tuples"));
        assert!(report.contains("K 0 -> 95"));
        assert!(report.contains("lateness=145"));
    }

    #[test]
    fn empty_input_and_malformed_lines_are_handled() {
        assert_eq!(render_report("", 5).unwrap(), "(empty trace)\n");
        assert_eq!(render_report("\n  \n", 5).unwrap(), "(empty trace)\n");
        let err = render_report("{\"bogus\":true}", 5).unwrap_err();
        assert!(!err.is_empty());
        // A valid first line followed by garbage names the offending line.
        let mut text = violation_trace().spans()[0].to_json_line();
        text.push_str("\nnot json\n");
        let err = render_report(&text, 5).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // What `quill-inspect` prints: the location once, the byte as a
        // character, and the end of the line by name.
        let garbage = "garbage\n";
        let err = render_report(garbage, 5).unwrap_err();
        assert_eq!(
            describe_malformed("garbage.jsonl", garbage, &err),
            "garbage.jsonl:1: expected '{', got 'g'\n  offending record: garbage"
        );
        let cut = "{\"seq\":1\n";
        let err = render_report(cut, 5).unwrap_err();
        assert_eq!(
            describe_malformed("cut.jsonl", cut, &err),
            "cut.jsonl:1: expected ',' or '}', got end of line\n  offending record: {\"seq\":1"
        );
    }

    #[test]
    fn timeline_renders_span_jsonl() {
        let rec = SpanRecorder::new(64);
        rec.record_detail(Stage::BufferResidency, 0, 100, 0, [4, 100]);
        rec.record(Stage::WindowFinalize, 10, 90, 1);
        rec.record_for_query(Stage::Deliver, 100, 150, 0, 7);
        let report = render_timeline(&jsonl(&rec)).expect("renders span jsonl");
        assert!(report.contains("Pipeline span timeline"), "{report}");
        assert!(report.contains("buffer_residency"), "{report}");
        assert!(report.contains("query 7: 1 results"), "{report}");
        assert!(report.contains("Longest spans"), "{report}");

        assert_eq!(render_timeline("\n\n").unwrap(), "(no spans)\n");
    }

    #[test]
    fn checked_in_trace_fixture_stays_small_and_valid() {
        // The fixture is checked in as code: a small 2-shard run's records,
        // one of every stage the timeline attributes or lists.
        let rec = SpanRecorder::new(64);
        for shard in 0..2 {
            rec.record_detail(Stage::BufferResidency, 0, 50, shard, [3, 50]);
            rec.record_detail(Stage::WindowFinalize, 100, 160, shard, [0, key_tag(shard)]);
            rec.record_detail(Stage::LateDrop, 40, 40, shard, [7, 0]);
            rec.record_for_query(Stage::Deliver, 100, 170, shard, 1);
        }
        let text = jsonl(&rec);
        assert!(text.len() < 1024, "{} bytes", text.len());
        let timeline = render_timeline(&text).expect("renders");
        assert!(timeline.contains("spans: 8"), "{timeline}");
        for stage in ["buffer_residency", "window_finalize", "deliver"] {
            assert!(timeline.contains(stage), "{timeline}");
        }
        // Instants time nothing; the report's summary counts every stage.
        let report = render_report(&text, 3).expect("renders");
        for stage in [
            "buffer_residency",
            "window_finalize",
            "late_drop",
            "deliver",
        ] {
            assert!(report.contains(&format!("  {stage:<16} 2")), "{report}");
        }
    }

    #[test]
    fn timeline_errors_name_the_offending_line() {
        let rec = SpanRecorder::new(8);
        rec.record(Stage::Deliver, 0, 10, 0);
        let mut text = rec.spans()[0].to_json_line();
        text.push_str("\n{\"not\":\"a span\"}\n");
        let err = render_timeline(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let message = describe_malformed("spans.jsonl", &text, &err);
        assert!(message.starts_with("spans.jsonl:2: missing"), "{message}");
        assert!(
            message.ends_with("offending record: {\"not\":\"a span\"}"),
            "{message}"
        );
        assert_eq!(
            describe_malformed("x", "one line", "no location info"),
            "x: no location info"
        );
    }

    #[test]
    fn infinite_k_renders_as_inf() {
        let rec = SpanRecorder::new(8);
        rec.record_k_change(0, 0, u64::MAX, KChangeReason::Initial);
        let report = render_report(&jsonl(&rec), 1).expect("renders");
        assert!(report.contains("K 0 -> inf"));
    }
}
