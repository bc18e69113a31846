//! Snapshot exporters: Prometheus text exposition format and JSON-lines.
//!
//! Both are hand-rolled text renderers — snapshots are plain sorted maps,
//! so the output is deterministic and diff-friendly. A small Prometheus
//! line parser ([`parse_prometheus`]) is included so tests (and tools) can
//! round-trip exports without an external scraper.

use crate::json::json_string;
use crate::{HistogramSummary, Snapshot};
use std::fmt::Write as _;

/// Sanitise a dotted instrument name into a Prometheus metric name:
/// `quill.run.late_dropped` → `quill_run_late_dropped`. Prometheus names match
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`; anything else becomes `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format (version
/// 0.0.4). Counters become `counter`, gauges `gauge`, and histograms
/// `summary` metrics with `quantile` labels plus `_sum`/`_count` series.
/// Every metric carries `# HELP` and `# TYPE` metadata lines;
/// [`parse_prometheus`] skips comment lines, so exports keep round-tripping.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# HELP {n} {}", help_text(name));
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# HELP {n} {}", help_text(name));
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", fmt_prom_f64(*v));
    }
    for (name, h) in &snap.histograms {
        let n = prometheus_name(name);
        let _ = writeln!(out, "# HELP {n} {}", help_text(name));
        let _ = writeln!(out, "# TYPE {n} summary");
        for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
            let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {v}");
        }
        let _ = writeln!(out, "{n}_sum {}", fmt_prom_f64(h.mean * h.count as f64));
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out
}

/// One-line `# HELP` description for a dotted instrument name, derived
/// from the registry's naming scheme (see the crate docs). Unknown
/// prefixes fall back to a generic description rather than omitting the
/// metadata.
pub fn help_text(name: &str) -> &'static str {
    if let Some(rest) = name.strip_prefix("quill.span.") {
        // Per-stage latency attribution histograms from the span layer.
        return match rest {
            "buffer_residency" => {
                "Span durations: oldest released event's residency in the disorder-control buffer, per release"
            }
            "window_finalize" => "Span durations: window end to the watermark that closed it",
            "deliver" => "Span durations: window end to result delivery",
            "late_arrival" => "Span durations: late arrivals' lateness behind the watermark",
            _ => "Span durations for a pipeline stage",
        };
    }
    for (prefix, help) in [
        ("quill.buffer.", "Disorder-control slack buffer"),
        ("quill.controller.", "AQ-K-slack control loop"),
        ("quill.estimator.", "Delay distribution estimator"),
        ("quill.run.", "Whole-run accounting"),
        ("quill.session.", "Resident session"),
        ("quill.serve.", "quill-serve daemon"),
        (
            "quill.executor.queue_depth",
            "quill-serve ingest queue: frames handed to the session core and not yet taken",
        ),
    ] {
        if name.starts_with(prefix) {
            return help;
        }
    }
    "quill instrument"
}

/// Format an f64 for the Prometheus text format. Unlike JSON, Prometheus
/// has spellings for the non-finite values: `NaN`, `+Inf` and `-Inf`.
pub fn fmt_prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escape a label value for the Prometheus text format: backslash, double
/// quote and newline must be escaped inside the quotes.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One sample parsed back out of a Prometheus text export.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Sanitised metric name (e.g. `quill_run_events`).
    pub name: String,
    /// Label pairs in source order (e.g. `[("quantile", "0.5")]`).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse the subset of the Prometheus text format that [`to_prometheus`]
/// emits (and that real exporters commonly produce): comment lines are
/// skipped, samples are `name[{k="v",..}] value`. Label values are fully
/// quote-aware — `}`, `,` and `=` inside quotes are data, and the escapes
/// `\\`, `\"` and `\n` are decoded. Values may be `NaN`, `+Inf` or
/// `-Inf`. Timestamps are not supported. Returns an error naming the
/// first malformed line.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
        let (name, labels, rest) = parse_sample_head(line).map_err(&err)?;
        let value_str = rest.trim();
        if value_str.is_empty() {
            return Err(err("missing value"));
        }
        // Rust's f64 parser accepts the Prometheus spellings NaN/+Inf/-Inf
        // (case-insensitively, "inf" and "infinity" alike).
        let value: f64 = value_str.parse().map_err(|_| err("unparseable value"))?;
        if name.is_empty() {
            return Err(err("empty metric name"));
        }
        out.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(out)
}

/// Split a sample line into (name, labels, remainder-after-head). Scans
/// character by character so quoted label values may contain `}`, `,`,
/// `=` and escaped quotes.
#[allow(clippy::type_complexity)]
fn parse_sample_head(line: &str) -> Result<(String, Vec<(String, String)>, &str), &'static str> {
    let brace = line.find('{');
    let space = line.find(char::is_whitespace);
    let (name_end, has_labels) = match (brace, space) {
        (Some(b), Some(s)) if b < s => (b, true),
        (Some(b), None) => (b, true),
        (_, Some(s)) => (s, false),
        (None, None) => return Err("missing value"),
    };
    let name = line[..name_end].to_string();
    if !has_labels {
        return Ok((name, Vec::new(), &line[name_end..]));
    }
    let bytes = line.as_bytes();
    let mut i = name_end + 1;
    let mut labels = Vec::new();
    loop {
        while bytes.get(i).is_some_and(|c| *c == b' ' || *c == b',') {
            i += 1;
        }
        match bytes.get(i) {
            None => return Err("unclosed label set"),
            Some(b'}') => return Ok((name, labels, &line[i + 1..])),
            _ => {}
        }
        let key_start = i;
        while bytes.get(i).is_some_and(|c| *c != b'=') {
            i += 1;
        }
        if bytes.get(i).is_none() {
            return Err("malformed label");
        }
        let key = line[key_start..i].trim().to_string();
        i += 1; // consume '='
        if bytes.get(i) != Some(&b'"') {
            return Err("unquoted label value");
        }
        i += 1;
        let mut value = String::new();
        loop {
            match bytes.get(i) {
                None => return Err("unterminated label value"),
                Some(b'"') => {
                    i += 1;
                    break;
                }
                Some(b'\\') => {
                    match bytes.get(i + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad escape in label value"),
                    }
                    i += 2;
                }
                Some(_) => {
                    // Advance one full UTF-8 character.
                    let ch_len = line[i..].chars().next().map_or(1, char::len_utf8);
                    value.push_str(&line[i..i + ch_len]);
                    i += ch_len;
                }
            }
        }
        labels.push((key, value));
    }
}

/// Render a snapshot as one JSON object on a single line (JSON-lines
/// record), suitable for appending to files under `results/`.
pub fn to_json_line(snap: &Snapshot) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"seq\":{},\"at_events\":{},\"wall_micros\":{}",
        snap.seq, snap.at_events, snap.wall_micros
    );
    out.push_str(",\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", json_string(name));
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(name), fmt_f64(*v));
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(name), summary_json(h));
    }
    out.push_str("}}");
    out
}

fn summary_json(h: &HistogramSummary) -> String {
    format!(
        "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count,
        h.min,
        h.max,
        fmt_f64(h.mean),
        h.p50,
        h.p90,
        h.p99
    )
}

/// Format an f64 so the output is valid JSON / Prometheus: finite values
/// keep full precision, non-finite ones become 0 (JSON has no NaN/Inf).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.counter("quill.run.events").add(40);
        reg.counter("quill.run.results").add(60);
        reg.gauge("quill.controller.k").set(250.5);
        reg.gauge("quill.executor.queue_depth").set(3.0);
        let h = reg.histogram("quill.run.latency");
        for v in 1..=100u64 {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn prometheus_name_sanitizes() {
        assert_eq!(
            prometheus_name("quill.run.late_dropped"),
            "quill_run_late_dropped"
        );
        assert_eq!(prometheus_name("0weird"), "_0weird");
    }

    #[test]
    fn prometheus_export_round_trips() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        let samples = parse_prometheus(&text).expect("parse own export");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.labels.is_empty())
                .map(|s| s.value)
        };
        assert_eq!(get("quill_run_events"), Some(40.0));
        assert_eq!(get("quill_run_results"), Some(60.0));
        assert_eq!(get("quill_controller_k"), Some(250.5));
        assert_eq!(get("quill_run_latency_count"), Some(100.0));
        let p50 = samples
            .iter()
            .find(|s| {
                s.name == "quill_run_latency"
                    && s.labels == vec![("quantile".to_string(), "0.5".to_string())]
            })
            .expect("quantile sample");
        assert!(p50.value >= 45.0 && p50.value <= 55.0);
    }

    #[test]
    fn prometheus_export_carries_help_and_type_metadata() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        // Every metric family gets both metadata lines, HELP before TYPE.
        for name in [
            "quill_run_events",
            "quill_controller_k",
            "quill_run_latency",
        ] {
            let help = text.find(&format!("# HELP {name} "));
            let typ = text.find(&format!("# TYPE {name} "));
            assert!(help.is_some(), "missing HELP for {name}:\n{text}");
            assert!(typ.is_some(), "missing TYPE for {name}:\n{text}");
            assert!(help < typ, "HELP must precede TYPE for {name}");
        }
        // The one `quill.executor.*` gauge is the daemon's ingest queue, not
        // an executor's.
        assert!(
            text.contains("# HELP quill_executor_queue_depth quill-serve ingest queue:"),
            "{text}"
        );
        // Histograms keep their _sum/_count series alongside the metadata.
        assert!(text.contains("quill_run_latency_sum "), "{text}");
        assert!(text.contains("quill_run_latency_count 100"), "{text}");
        // The metadata must not break the round-trip parser (regression:
        // parse_prometheus skips comment lines).
        let samples = parse_prometheus(&text).expect("parse export with metadata");
        assert!(samples.iter().all(|s| !s.name.starts_with('#')));
        assert_eq!(
            samples.len(),
            parse_prometheus(&to_prometheus(&snap)).unwrap().len()
        );
    }

    #[test]
    fn help_text_matches_naming_scheme() {
        assert!(help_text("quill.span.buffer_residency").contains("residency"));
        assert!(help_text("quill.span.unknown_stage").contains("pipeline stage"));
        assert!(help_text("quill.buffer.inserted").contains("buffer"));
        assert_eq!(help_text("something.else"), "quill instrument");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_prometheus("just_a_name").is_err());
        assert!(parse_prometheus("name{quantile=0.5} 1").is_err());
        assert!(parse_prometheus("name notanumber").is_err());
        assert!(parse_prometheus("name{k=\"v\" 1").is_err());
        assert!(parse_prometheus("name{k=\"v\\x\"} 1").is_err());
        assert!(parse_prometheus("# a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn non_finite_gauges_round_trip_through_prometheus() {
        let reg = Registry::new();
        reg.gauge("quill.test.nan").set(f64::NAN);
        reg.gauge("quill.test.pinf").set(f64::INFINITY);
        reg.gauge("quill.test.ninf").set(f64::NEG_INFINITY);
        let text = to_prometheus(&reg.snapshot());
        assert!(text.contains("quill_test_nan NaN"), "{text}");
        assert!(text.contains("quill_test_pinf +Inf"), "{text}");
        assert!(text.contains("quill_test_ninf -Inf"), "{text}");
        let samples = parse_prometheus(&text).expect("parse own export");
        let get = |name: &str| samples.iter().find(|s| s.name == name).unwrap().value;
        assert!(get("quill_test_nan").is_nan());
        assert_eq!(get("quill_test_pinf"), f64::INFINITY);
        assert_eq!(get("quill_test_ninf"), f64::NEG_INFINITY);
    }

    #[test]
    fn labels_with_escapes_and_braces_round_trip() {
        let tricky = "a\"b\\c}d,e=f\ng";
        let line = format!(
            "quill_test{{path=\"{}\",plain=\"ok\"}} 4.5",
            escape_label_value(tricky)
        );
        let samples = parse_prometheus(&line).expect("parse escaped labels");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "quill_test");
        assert_eq!(samples[0].value, 4.5);
        assert_eq!(
            samples[0].labels,
            vec![
                ("path".to_string(), tricky.to_string()),
                ("plain".to_string(), "ok".to_string()),
            ]
        );
    }

    #[test]
    fn escape_label_value_escapes_the_specials_only() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_label_value("plain{},="), "plain{},=");
    }

    #[test]
    fn json_export_maps_non_finite_to_zero() {
        let reg = Registry::new();
        reg.gauge("quill.test.nan").set(f64::NAN);
        let line = to_json_line(&reg.snapshot());
        assert!(line.contains("\"quill.test.nan\":0"), "{line}");
        assert!(!line.contains("NaN"), "JSON must stay valid: {line}");
    }

    #[test]
    fn json_line_is_single_line_and_balanced() {
        let snap = sample_snapshot();
        let line = to_json_line(&snap);
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        assert_eq!(opens, closes);
        assert!(line.contains("\"quill.run.events\":40"));
        assert!(line.contains("\"quill.controller.k\":250.5"));
        assert!(line.contains("\"count\":100"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
