//! # quill-lint
//!
//! Project-specific static analysis for the quill workspace. The invariants
//! quill's quality guarantees rest on — watermark monotonicity, deterministic
//! replay of the MP/AQ control loop, zero-cost-when-disabled telemetry, and
//! no-panic hot paths — are not checked by rustc or clippy; this crate
//! machine-enforces them on every commit (see DESIGN.md §11 for the rule
//! catalog).
//!
//! The analysis is **dependency-free**: a hand-rolled Rust tokenizer
//! ([`tokenizer`]) feeds two layers. The first is the path-scoped token
//! rules ([`rules`]). The second is a lightweight syntactic layer
//! ([`syntax`] parses items/functions/loops; [`callgraph`] builds an
//! approximate workspace call graph) feeding the concurrency passes
//! ([`passes`]). Renderers cover text, JSON-lines, and SARIF 2.1.0. The
//! workspace is offline/vendored, so `syn`-based or dylint-style tooling is
//! deliberately out of scope.
//!
//! ## Rules
//!
//! | id | rule | scope |
//! |----|------|-------|
//! | L1 | `no-panic` — no `unwrap()`/`expect()`/`panic!`-family macros | hot-path modules |
//! | L2 | `no-wall-clock` — no `Instant::now`/`SystemTime::now` | deterministic control-loop modules |
//! | L3 | `guarded-telemetry` — trace/metric emission only via enabled-guarded handles | whole workspace |
//! | L4 | `crate-hygiene` — crate roots carry `#![forbid(unsafe_code)]`, crate docs, `missing_docs` | crate roots |
//! | L5 | `no-nondeterminism` — no ambient-entropy RNG construction | simulation crate |
//! | L6 | `lock-discipline` — no blocking op while a lock guard is live (call-graph aware) | whole workspace |
//! | L7 | `lock-order` — one consistent acquisition order per lock pair | whole workspace |
//! | L8 | `wall-clock-taint` — L2 propagated through the call graph, cross-crate | deterministic modules |
//! | L9 | `hot-path-alloc` — no per-event allocation in data-path loops | operator/, parallel, buffer, session, serve server + wire |
//!
//! Deliberate exceptions are annotated in the source:
//!
//! ```text
//! // quill-lint: allow(no-panic, reason = "heap non-empty: checked by caller")
//! ```
//!
//! The annotation suppresses findings of the named rule on its own line and
//! on the next line that carries code; an annotation without a `reason` is
//! itself a deny-level `allow-syntax` finding.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod passes;
pub mod rules;
pub mod syntax;
pub mod tokenizer;

use std::fmt;

/// How severe a finding is. Only [`Severity::Deny`] findings fail the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: a better configuration exists.
    Advice,
    /// Suspicious but not provably wrong.
    Warn,
    /// Violates a project invariant; the lint gate exits non-zero.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Advice => write!(f, "advice"),
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// One structured finding: which rule fired, where, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`no-panic`, `no-wall-clock`, `guarded-telemetry`,
    /// `crate-hygiene`, `allow-syntax`).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding (0 for whole-file findings).
    pub line: usize,
    /// Severity level.
    pub severity: Severity,
    /// What is wrong.
    pub message: String,
    /// How to fix or deliberately allow it.
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}\n    help: {}",
            self.path, self.line, self.severity, self.rule, self.message, self.help
        )
    }
}

/// Render findings as a human-readable report, one finding per paragraph.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let denies = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();
    out.push_str(&format!(
        "{} finding(s), {} deny-level\n",
        diags.len(),
        denies
    ));
    out
}

/// Escape a string for inclusion in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as JSON lines (one object per finding), the format
/// uploaded as `results/lint_report.jsonl` by CI.
pub fn to_jsonl(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"severity\":\"{}\",\"message\":\"{}\",\"help\":\"{}\"}}\n",
            json_escape(&d.rule),
            json_escape(&d.path),
            d.line,
            d.severity,
            json_escape(&d.message),
            json_escape(&d.help),
        ));
    }
    out
}

/// Render findings as a SARIF 2.1.0 document (the format GitHub code
/// scanning ingests for PR annotations), written as
/// `results/lint_report.sarif` by CI.
///
/// Severity maps to SARIF levels: deny → `error`, warn → `warning`,
/// advice → `note`. The `help` text rides along in each result's
/// `message.text` after the finding message.
pub fn to_sarif(diags: &[Diagnostic]) -> String {
    // One reportingDescriptor per distinct rule, in first-seen order.
    let mut rule_ids: Vec<&str> = Vec::new();
    for d in diags {
        if !rule_ids.contains(&d.rule.as_str()) {
            rule_ids.push(&d.rule);
        }
    }
    let rules_json: Vec<String> = rule_ids
        .iter()
        .map(|id| format!("{{\"id\":\"{}\"}}", json_escape(id)))
        .collect();
    let results_json: Vec<String> = diags
        .iter()
        .map(|d| {
            let level = match d.severity {
                Severity::Deny => "error",
                Severity::Warn => "warning",
                Severity::Advice => "note",
            };
            // SARIF regions are 1-based; clamp whole-file findings to line 1.
            let line = d.line.max(1);
            format!(
                "{{\"ruleId\":\"{}\",\"level\":\"{}\",\"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
                 \"region\":{{\"startLine\":{}}}}}}}]}}",
                json_escape(&d.rule),
                level,
                json_escape(&format!("{} (help: {})", d.message, d.help)),
                json_escape(&d.path),
                line,
            )
        })
        .collect();
    format!(
        "{{\"version\":\"2.1.0\",\
         \"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"runs\":[{{\"tool\":{{\"driver\":{{\"name\":\"quill-lint\",\
         \"informationUri\":\"https://example.invalid/quill\",\
         \"rules\":[{}]}}}},\"results\":[{}]}}]}}\n",
        rules_json.join(","),
        results_json.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "no-panic".into(),
            path: "crates/engine/src/parallel.rs".into(),
            line: 42,
            severity: Severity::Deny,
            message: "`unwrap()` in hot-path module".into(),
            help: "return a typed error".into(),
        }
    }

    #[test]
    fn text_render_names_rule_and_location() {
        let s = render_text(&[diag()]);
        assert!(s.contains("crates/engine/src/parallel.rs:42"));
        assert!(s.contains("[no-panic]"));
        assert!(s.contains("1 deny-level"));
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_escapes() {
        let mut d = diag();
        d.message = "quote \" backslash \\ newline \n".into();
        let s = to_jsonl(&[d]);
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("\\\""));
        assert!(s.contains("\\\\"));
        assert!(s.contains("\\n"));
    }

    #[test]
    fn sarif_names_tool_rule_and_location() {
        let s = to_sarif(&[diag()]);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"quill-lint\""));
        assert!(s.contains("\"ruleId\":\"no-panic\""));
        assert!(s.contains("\"level\":\"error\""));
        assert!(s.contains("\"uri\":\"crates/engine/src/parallel.rs\""));
        assert!(s.contains("\"startLine\":42"));
    }

    #[test]
    fn sarif_clamps_whole_file_findings_to_line_one() {
        let mut d = diag();
        d.line = 0;
        d.severity = Severity::Warn;
        let s = to_sarif(&[d]);
        assert!(s.contains("\"startLine\":1"));
        assert!(s.contains("\"level\":\"warning\""));
    }

    #[test]
    fn severity_orders_deny_highest() {
        assert!(Severity::Deny > Severity::Warn);
        assert!(Severity::Warn > Severity::Advice);
    }
}
