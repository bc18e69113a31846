//! Human-readable rendering of flight-recorder traces, violation
//! post-mortems and static plan diagnostics — the library behind the
//! `quill-inspect` binary.
//!
//! Three input shapes are accepted (all JSON-lines):
//!
//! * a **flat trace** — [`TraceEvent`] lines as written by
//!   `write_trace_jsonl` (e.g. the `f4_trace` artifact);
//! * a **post-mortem file** — alternating [`ProvenanceRecord`] headers and
//!   their causal slices, as written by `write_post_mortems_jsonl` (e.g.
//!   the `f5_postmortems` artifact);
//! * a **plan-diagnostics file** — [`PlanDiagnostic`] lines as written by
//!   `Diagnostic::to_jsonl_line` (the pre-execution static analysis).
//!
//! [`render_report`] sniffs the shape from the first line and renders a
//! report with a summary, the controller decision log, the top-K latest
//! tuples, and (for post-mortem files) one annotated timeline per violated
//! window.

use quill_core::plan::{parse_plan_jsonl, Diagnostic as PlanDiagnostic, Severity};
use quill_telemetry::span::{self, attribute, Span, NO_QUERY};
use quill_telemetry::trace::{
    parse_post_mortems, parse_trace_line, PostMortem, ProvenanceRecord, TraceEvent, TraceKind,
    TraceLine, MERGE_SHARD,
};
use quill_telemetry::Stage;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Render a trace or post-mortem JSONL document as a human-readable report.
/// `top_k` bounds the "latest tuples" leaderboard.
///
/// # Errors
/// Returns a message naming the first malformed line.
pub fn render_report(text: &str, top_k: usize) -> Result<String, String> {
    let first = text.lines().find(|l| !l.trim().is_empty());
    let Some(first) = first else {
        return Ok("(empty trace)\n".into());
    };
    if first.contains("\"rule\":") {
        let diags = parse_plan_jsonl(text)?;
        return Ok(render_plan_diagnostics(&diags));
    }
    let first_no = 1 + text.lines().position(|l| !l.trim().is_empty()).unwrap_or(0);
    match parse_trace_line(first).map_err(|e| format!("line {first_no}: {e}"))? {
        TraceLine::Provenance(_) => {
            let pms = parse_post_mortems(text)?;
            Ok(render_post_mortems(&pms, top_k))
        }
        TraceLine::Event(_) => {
            let mut events = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match parse_trace_line(line).map_err(|e| format!("line {}: {e}", i + 1))? {
                    TraceLine::Event(ev) => events.push(ev),
                    TraceLine::Provenance(_) => {
                        return Err(format!(
                            "line {}: provenance record inside a flat trace",
                            i + 1
                        ))
                    }
                }
            }
            Ok(render_flat_trace(&events, top_k))
        }
    }
}

/// Report over a flat event trace: summary, controller log, late leaders.
fn render_flat_trace(events: &[TraceEvent], top_k: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Flight-recorder trace ==");
    render_summary(&mut out, events);
    render_controller_log(&mut out, events);
    render_late_leaders(&mut out, events, top_k);
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
    let mut by_seq: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
    for pm in pms {
        for ev in &pm.slice {
            by_seq.insert(ev.seq, ev);
        }
    }
    let union: Vec<TraceEvent> = by_seq.into_values().cloned().collect();
    render_summary(&mut out, &union);
    render_controller_log(&mut out, &union);
    render_late_leaders(&mut out, &union, top_k);
    for pm in pms {
        render_violation_timeline(&mut out, pm);
    }
    out
}

/// Report over static plan diagnostics, grouped by severity (deny first) —
/// also usable directly on `RunOutput::plan` / `SharedRunOutput::plan`.
pub fn render_plan_diagnostics(diags: &[PlanDiagnostic]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Plan diagnostics ==");
    if diags.is_empty() {
        let _ = writeln!(out, "plan is clean: no findings");
        return out;
    }
    let count = |s: Severity| diags.iter().filter(|d| d.severity == s).count();
    let _ = writeln!(
        out,
        "findings: {} ({} deny, {} warn, {} advice)",
        diags.len(),
        count(Severity::Deny),
        count(Severity::Warn),
        count(Severity::Advice),
    );
    for severity in [Severity::Deny, Severity::Warn, Severity::Advice] {
        let group: Vec<&PlanDiagnostic> = diags.iter().filter(|d| d.severity == severity).collect();
        if group.is_empty() {
            continue;
        }
        let _ = writeln!(out, "\n-- {severity} --");
        for d in group {
            let _ = writeln!(out, "[{}] {}", d.rule, d.message);
            let _ = writeln!(out, "    help: {}", d.help);
        }
    }
    out
}

/// Render a span timeline report from either shape the span layer
/// exports: span JSON-lines (`write_spans_jsonl`) or a Chrome-trace JSON
/// object (`GET /trace`, `to_chrome_trace`). The shape is sniffed from the
/// first non-empty line.
///
/// # Errors
/// Returns a message naming the first malformed line.
pub fn render_timeline(text: &str) -> Result<String, String> {
    let Some(first) = text.lines().find(|l| !l.trim().is_empty()) else {
        return Ok("(no spans)\n".into());
    };
    if first.contains("\"traceEvents\"") || text.trim_start().starts_with("{\"displayTimeUnit\"") {
        return render_chrome_timeline(text);
    }
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        spans.push(Span::parse_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(render_span_timeline(&spans))
}

/// Validate a Chrome-trace JSON document structurally (the `--check` mode
/// behind the serve smoke test): it must parse, and every complete event
/// must carry the timeline fields Perfetto needs.
///
/// # Errors
/// A message locating the structural problem.
pub fn check_chrome_trace(text: &str) -> Result<String, String> {
    let trace = span::parse_chrome_trace(text)?;
    let mut pids = std::collections::BTreeSet::new();
    let mut complete = 0usize;
    for (i, ev) in trace.events.iter().enumerate() {
        if ev.ph != "X" {
            continue;
        }
        complete += 1;
        for (field, present) in [("ts", ev.ts.is_some()), ("dur", ev.dur.is_some())] {
            if !present {
                return Err(format!("traceEvents[{i}] ({}) lacks `{field}`", ev.name));
            }
        }
        pids.insert(ev.pid.unwrap_or(0));
    }
    Ok(format!(
        "trace ok: {} events ({complete} spans) across {} process lane(s)\n",
        trace.events.len(),
        pids.len()
    ))
}

/// Attribution report over raw spans: per-stage totals, per-query delivery
/// latency, and the longest individual spans.
fn render_span_timeline(spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Pipeline span timeline ==");
    if spans.is_empty() {
        let _ = writeln!(out, "(no spans)");
        return out;
    }
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
            shard_name(s.shard),
            s.seq
        );
    }
    out
}

/// Attribution report over an exported Chrome trace: per-process,
/// per-stage lane totals.
fn render_chrome_timeline(text: &str) -> Result<String, String> {
    let trace = span::parse_chrome_trace(text)?;
    let mut out = String::new();
    let _ = writeln!(out, "== Chrome-trace timeline ==");
    let complete: Vec<_> = trace.complete_events().collect();
    let _ = writeln!(
        out,
        "events: {} ({} spans)",
        trace.events.len(),
        complete.len()
    );
    // (pid, stage) -> (count, total dur, max dur)
    let mut lanes: BTreeMap<(u64, &str), (u64, u64, u64)> = BTreeMap::new();
    for ev in &complete {
        let slot = lanes
            .entry((ev.pid.unwrap_or(0), ev.name.as_str()))
            .or_default();
        slot.0 += 1;
        let dur = ev.dur.unwrap_or(0);
        slot.1 += dur;
        slot.2 = slot.2.max(dur);
    }
    let mut last_pid = None;
    for ((pid, stage), (n, total, max)) in &lanes {
        if last_pid != Some(*pid) {
            let _ = writeln!(out, "\n-- process {pid} --");
            last_pid = Some(*pid);
        }
        let _ = writeln!(
            out,
            "{stage:<16} count={n:<8} total={total:<12} mean={:<10.1} max={max}",
            *total as f64 / (*n).max(1) as f64
        );
    }
    Ok(out)
}

/// Resolve the `line N` reference in a parse-error message to the
/// offending record, so CLI callers can echo it (file, line *and* record).
pub fn locate_error<'a>(text: &'a str, err: &str) -> Option<(usize, &'a str)> {
    let at = err.find("line ")?;
    let rest = &err[at + "line ".len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let n: usize = digits.parse().ok()?;
    Some((n, text.lines().nth(n.checked_sub(1)?)?))
}

fn render_summary(out: &mut String, events: &[TraceEvent]) {
    let _ = writeln!(out, "\n-- Summary --");
    if events.is_empty() {
        let _ = writeln!(out, "no trace events");
        return;
    }
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut shards: BTreeMap<u32, u64> = BTreeMap::new();
    for ev in events {
        *kinds.entry(ev.kind.label()).or_default() += 1;
        *shards.entry(ev.shard).or_default() += 1;
    }
    let _ = writeln!(
        out,
        "events: {}  (seq {}..={})",
        events.len(),
        events.first().map_or(0, |e| e.seq),
        events.last().map_or(0, |e| e.seq),
    );
    for (kind, n) in &kinds {
        let _ = writeln!(out, "  {kind:<16} {n}");
    }
    let shard_list: Vec<String> = shards
        .iter()
        .map(|(s, n)| {
            if *s == MERGE_SHARD {
                format!("merge:{n}")
            } else {
                format!("{s}:{n}")
            }
        })
        .collect();
    let _ = writeln!(out, "shards (id:events): {}", shard_list.join(" "));
}

fn render_controller_log(out: &mut String, events: &[TraceEvent]) {
    let _ = writeln!(out, "\n-- Controller decision log --");
    let mut any = false;
    for ev in events {
        if let TraceKind::KChange {
            old_k,
            new_k,
            reason,
        } = &ev.kind
        {
            any = true;
            let _ = writeln!(
                out,
                "seq={:<6} t={:<10} shard={:<3} K {} -> {}  ({reason})",
                ev.seq,
                ev.at,
                shard_name(ev.shard),
                fmt_k(*old_k),
                fmt_k(*new_k),
            );
        }
    }
    if !any {
        let _ = writeln!(out, "(no K changes recorded)");
    }
}

fn render_late_leaders(out: &mut String, events: &[TraceEvent], top_k: usize) {
    let _ = writeln!(out, "\n-- Top {top_k} latest tuples --");
    let mut lates: Vec<(&TraceEvent, u64, u64)> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            TraceKind::LateArrival {
                lateness,
                watermark,
            } => Some((ev, lateness, watermark)),
            _ => None,
        })
        .collect();
    if lates.is_empty() {
        let _ = writeln!(out, "(no late arrivals recorded)");
        return;
    }
    // Worst first; ties broken by arrival order for determinism.
    lates.sort_by_key(|&(ev, lateness, _)| (std::cmp::Reverse(lateness), ev.seq));
    for (ev, lateness, watermark) in lates.into_iter().take(top_k) {
        let _ = writeln!(
            out,
            "t={:<10} lateness={:<8} behind watermark {} (seq={}, shard={})",
            ev.at,
            lateness,
            watermark,
            ev.seq,
            shard_name(ev.shard),
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
    for ev in &pm.slice {
        let _ = writeln!(out, "  {}", describe_event(ev, r));
    }
}

/// One-line story for a trace event, annotated against the violated window.
fn describe_event(ev: &TraceEvent, r: &ProvenanceRecord) -> String {
    let head = format!("seq={:<6} t={:<10}", ev.seq, ev.at);
    match &ev.kind {
        TraceKind::LateArrival {
            lateness,
            watermark,
        } => format!(
            "{head} late arrival: {lateness} behind watermark {watermark} (shard {})",
            shard_name(ev.shard)
        ),
        TraceKind::BufferEmit {
            released,
            watermark,
        } => format!("{head} buffer released {released} events, watermark -> {watermark}"),
        TraceKind::KChange {
            old_k,
            new_k,
            reason,
        } => format!("{head} K {} -> {} ({reason})", fmt_k(*old_k), fmt_k(*new_k)),
        TraceKind::WindowFinalize {
            start, end, count, ..
        } => {
            let marker = if *start == r.start && *end == r.end {
                " <- this window"
            } else {
                ""
            };
            format!("{head} window [{start}, {end}) finalized with {count} tuples{marker}")
        }
        TraceKind::LateDrop { event_seq, windows } => {
            let hit = windows.contains(&(r.start, r.end));
            let marker = if hit { " <- lost from this window" } else { "" };
            format!(
                "{head} event #{event_seq} dropped, missed {} window(s){marker}",
                windows.len()
            )
        }
        TraceKind::SendStall { depth } => format!(
            "{head} shard {} channel full ({depth} batches in flight)",
            shard_name(ev.shard)
        ),
        TraceKind::MergeProgress { elements, fallback } => format!(
            "{head} merged {elements} elements{}",
            if *fallback { " (fallback sort)" } else { "" }
        ),
    }
}

fn shard_name(shard: u32) -> String {
    if shard == MERGE_SHARD {
        "merge".into()
    } else {
        shard.to_string()
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
    use quill_telemetry::trace::{
        post_mortems_to_lines, FlightRecorder, KChangeReason, ProvenanceBuilder,
    };

    /// A small deterministic ring with one violated window [100, 200).
    fn violation_trace() -> FlightRecorder {
        let rec = FlightRecorder::new(128);
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
        rec
    }

    fn postmortem_text() -> String {
        let builder = ProvenanceBuilder::new(violation_trace().events());
        let rec = builder.record_for(100, 200, "null", 10.0 / 11.0, Some(0.97));
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
    }

    #[test]
    fn renders_flat_trace_with_summary() {
        let lines: Vec<String> = violation_trace()
            .events()
            .iter()
            .map(|e| e.to_json_line())
            .collect();
        let report = render_report(&lines.join("\n"), 3).expect("renders");
        assert!(report.contains("Flight-recorder trace"));
        assert!(report.contains("k_change"));
        assert!(report.contains("late_arrival"));
        assert!(report.contains("Top 3 latest tuples"));
        assert!(report.contains("K 0 -> 95"));
    }

    #[test]
    fn empty_input_and_malformed_lines_are_handled() {
        assert_eq!(render_report("", 5).unwrap(), "(empty trace)\n");
        assert_eq!(render_report("\n  \n", 5).unwrap(), "(empty trace)\n");
        let err = render_report("{\"bogus\":true}", 5).unwrap_err();
        assert!(!err.is_empty());
        // A valid first line followed by garbage names the offending line.
        let mut text = violation_trace().events()[0].to_json_line();
        text.push_str("\nnot json\n");
        let err = render_report(&text, 5).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn renders_plan_diagnostics_grouped_by_severity() {
        use quill_core::plan::{analyze_plan, DelayProfile, StrategyKind};
        use quill_core::prelude::{
            AggregateKind, AggregateSpec, ExecOptions, QuerySpec, WindowSpec,
        };
        let query = QuerySpec::new(
            WindowSpec::sliding(100u64, 30u64),
            vec![AggregateSpec::new(AggregateKind::Median, 0, "m")],
            None,
        );
        let opts = ExecOptions::sequential()
            .with_delay_profile(DelayProfile::Unbounded)
            .with_required_completeness(1.0);
        let diags = analyze_plan(&query, &StrategyKind::DropAll, &opts);
        let text: String = diags.iter().map(|d| d.to_jsonl_line() + "\n").collect();
        let report = render_report(&text, 5).expect("renders");
        assert!(report.contains("Plan diagnostics"));
        assert!(report.contains("-- deny --"));
        assert!(report.contains("plan.quality.infeasible"));
        assert!(report.contains("-- warn --"));
        assert!(report.contains("help:"));
        assert!(render_plan_diagnostics(&[]).contains("plan is clean"));
    }

    #[test]
    fn timeline_renders_span_jsonl_and_chrome_traces() {
        use quill_telemetry::{ClockDomain, SpanRecorder};
        let rec = SpanRecorder::new(64);
        rec.record(Stage::Route, 0, 100, 0);
        rec.record(Stage::WindowFinalize, 10, 90, 1);
        rec.record_for_query(Stage::Deliver, 100, 150, 0, 7);
        let spans = rec.spans();
        let jsonl: String = spans.iter().map(|s| s.to_json_line() + "\n").collect();
        let report = render_timeline(&jsonl).expect("renders span jsonl");
        assert!(report.contains("Pipeline span timeline"), "{report}");
        assert!(report.contains("route"), "{report}");
        assert!(report.contains("query 7: 1 results"), "{report}");
        assert!(report.contains("Longest spans"), "{report}");

        let chrome = span::to_chrome_trace(&spans, ClockDomain::Logical);
        let report = render_timeline(&chrome).expect("renders chrome trace");
        assert!(report.contains("Chrome-trace timeline"), "{report}");
        assert!(report.contains("deliver"), "{report}");
        let summary = check_chrome_trace(&chrome).expect("valid");
        assert!(summary.contains("3 spans"), "{summary}");

        assert_eq!(render_timeline("\n\n").unwrap(), "(no spans)\n");
    }

    #[test]
    fn checked_in_trace_fixture_stays_small_and_valid() {
        // What CI's `quill-inspect timeline --check` step reads: a real
        // keyed-parallel run's Chrome trace, cut to under a hundred spans.
        let fixture = include_str!("../fixtures/pipeline_trace.json");
        let summary = check_chrome_trace(fixture).expect("valid Chrome trace");
        assert!(summary.contains("(82 spans)"), "{summary}");
        let report = render_timeline(fixture).expect("renders");
        for stage in ["route", "window_finalize", "merge"] {
            assert!(report.contains(stage), "{report}");
        }
    }

    #[test]
    fn timeline_errors_name_the_offending_line() {
        let rec = quill_telemetry::SpanRecorder::new(8);
        rec.record(Stage::Route, 0, 10, 0);
        let mut text = rec.spans()[0].to_json_line();
        text.push_str("\n{\"not\":\"a span\"}\n");
        let err = render_timeline(&text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let (line, record) = locate_error(&text, &err).expect("locates");
        assert_eq!(line, 2);
        assert!(record.contains("not"), "{record}");
        assert!(check_chrome_trace("[1,2").is_err());
        assert!(locate_error("one line", "no location info").is_none());
    }

    #[test]
    fn infinite_k_renders_as_inf() {
        let rec = FlightRecorder::new(8);
        rec.record(
            0,
            0,
            TraceKind::KChange {
                old_k: 0,
                new_k: u64::MAX,
                reason: KChangeReason::Initial,
            },
        );
        let lines: Vec<String> = rec.events().iter().map(|e| e.to_json_line()).collect();
        let report = render_report(&lines.join("\n"), 1).expect("renders");
        assert!(report.contains("K 0 -> inf"));
    }
}
