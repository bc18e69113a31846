//! Golden fixture tests: one known-bad snippet per lint rule proving the
//! rule fires, the allow-annotation suppression paths, and a regression
//! test that the live workspace is lint-clean.

#![forbid(unsafe_code)]

use quill_lint::rules::{
    lint_source, lint_sources, lint_workspace, RULE_ALLOW_SYNTAX, RULE_CRATE_HYGIENE,
    RULE_GUARDED_TELEMETRY, RULE_HOT_PATH_ALLOC, RULE_LOCK_DISCIPLINE, RULE_LOCK_ORDER,
    RULE_NO_NONDETERMINISM, RULE_NO_PANIC, RULE_NO_WALL_CLOCK, RULE_WALL_CLOCK_TAINT,
};
use quill_lint::{Diagnostic, Severity};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rules(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

#[test]
fn l1_no_panic_fires_on_hot_path_panics() {
    let diags = lint_source("crates/core/src/buffer.rs", &fixture("no_panic_bad.rs"));
    let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == RULE_NO_PANIC).collect();
    // unwrap, expect, panic!, unreachable!, todo! — the cfg(test) unwrap is exempt.
    assert_eq!(hits.len(), 5, "{diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Deny));
    let lines: Vec<usize> = hits.iter().map(|d| d.line).collect();
    assert!(lines.iter().all(|&l| l < 17), "test-module hit: {diags:?}");
}

#[test]
fn l1_no_panic_is_scope_limited() {
    // The same panicking source outside the hot-path scope is not linted.
    let diags = lint_source("crates/metrics/src/summary.rs", &fixture("no_panic_bad.rs"));
    assert!(!rules(&diags).contains(&RULE_NO_PANIC), "{diags:?}");
}

#[test]
fn l1_allow_annotation_suppresses() {
    let diags = lint_source("crates/core/src/buffer.rs", &fixture("no_panic_allowed.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l2_no_wall_clock_fires_in_deterministic_modules() {
    let diags = lint_source(
        "crates/core/src/estimator.rs",
        &fixture("wall_clock_bad.rs"),
    );
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RULE_NO_WALL_CLOCK)
        .collect();
    assert_eq!(hits.len(), 2, "{diags:?}"); // Instant::now + SystemTime::now
    assert!(hits.iter().all(|d| d.severity == Severity::Deny));
    // runner.rs measures wall time on purpose and is outside L2 scope.
    let diags = lint_source("crates/core/src/runner.rs", &fixture("wall_clock_bad.rs"));
    assert!(!rules(&diags).contains(&RULE_NO_WALL_CLOCK), "{diags:?}");
}

#[test]
fn l3_guarded_telemetry_fires_outside_telemetry_crate() {
    let diags = lint_source(
        "crates/engine/src/operator/window_op.rs",
        &fixture("telemetry_bad.rs"),
    );
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RULE_GUARDED_TELEMETRY)
        .collect();
    assert_eq!(hits.len(), 2, "{diags:?}"); // Span literal + Counter(Some
                                            // The same constructions inside the telemetry crate are the one legal site.
    let diags = lint_source("crates/telemetry/src/span.rs", &fixture("telemetry_bad.rs"));
    assert!(
        !rules(&diags).contains(&RULE_GUARDED_TELEMETRY),
        "{diags:?}"
    );
}

#[test]
fn l4_crate_hygiene_fires_on_bare_crate_root() {
    let diags = lint_source("crates/example/src/lib.rs", &fixture("hygiene_bad.rs"));
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RULE_CRATE_HYGIENE)
        .collect();
    // forbid(unsafe_code), crate docs, missing_docs lint — all absent.
    assert_eq!(hits.len(), 3, "{diags:?}");
    // A non-root file in the same crate carries no hygiene obligations.
    let diags = lint_source("crates/example/src/util.rs", &fixture("hygiene_bad.rs"));
    assert!(!rules(&diags).contains(&RULE_CRATE_HYGIENE), "{diags:?}");
}

#[test]
fn l5_no_nondeterminism_fires_throughout_the_sim_crate() {
    let diags = lint_source("crates/sim/src/spec.rs", &fixture("nondeterminism_bad.rs"));
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RULE_NO_NONDETERMINISM)
        .collect();
    // OsRng import, thread_rng, from_entropy, and the cfg(test) thread_rng:
    // unlike L1/L2, test items are NOT exempt in the sim crate.
    assert_eq!(hits.len(), 4, "{diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Deny));
    assert!(
        hits.iter().any(|d| d.line > 15),
        "cfg(test) construction not caught: {diags:?}"
    );
    // Sim test files are in scope too, not just src/.
    let diags = lint_source(
        "crates/sim/tests/differential.rs",
        &fixture("nondeterminism_bad.rs"),
    );
    assert!(rules(&diags).contains(&RULE_NO_NONDETERMINISM), "{diags:?}");
}

#[test]
fn l5_no_nondeterminism_is_scope_limited_to_sim() {
    // The generator crate owns delay models and legitimately constructs RNGs
    // from caller-provided state; the rule must stay silent there.
    let diags = lint_source("crates/gen/src/delay.rs", &fixture("nondeterminism_bad.rs"));
    assert!(
        !rules(&diags).contains(&RULE_NO_NONDETERMINISM),
        "{diags:?}"
    );
}

#[test]
fn allow_syntax_rejects_malformed_and_unknown_annotations() {
    let diags = lint_source(
        "crates/core/src/strategy.rs",
        &fixture("allow_syntax_bad.rs"),
    );
    let syntax_hits = diags.iter().filter(|d| d.rule == RULE_ALLOW_SYNTAX).count();
    assert_eq!(syntax_hits, 2, "{diags:?}"); // missing reason + unknown rule
                                             // Broken annotations suppress nothing: the unwraps still fire.
    let panic_hits = diags.iter().filter(|d| d.rule == RULE_NO_PANIC).count();
    assert_eq!(panic_hits, 2, "{diags:?}");
}

#[test]
fn clean_fixture_yields_no_findings() {
    let diags = lint_source("crates/core/src/runner.rs", &fixture("clean.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l6_lock_discipline_fires_on_blocking_under_guard() {
    let diags = lint_source(
        "crates/serve/src/server.rs",
        &fixture("lock_discipline_bad.rs"),
    );
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RULE_LOCK_DISCIPLINE)
        .collect();
    // The direct send in `enqueue` plus the call in `drain` that reaches
    // `forward`'s send.
    assert_eq!(hits.len(), 2, "{diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Deny));
    assert!(
        hits.iter()
            .any(|d| d.message.contains("`guard` guard on `serve::state`")),
        "{diags:?}"
    );
    assert!(
        hits.iter()
            .any(|d| d.message.contains("may block") && d.message.contains("forward")),
        "transitive finding missing its witness: {diags:?}"
    );
}

#[test]
fn l6_lock_discipline_allows_suppress_both_shapes() {
    let diags = lint_source(
        "crates/serve/src/server.rs",
        &fixture("lock_discipline_allowed.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l7_lock_order_fires_on_conflicting_order_and_reacquisition() {
    let diags = lint_source("crates/serve/src/server.rs", &fixture("lock_order_bad.rs"));
    let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == RULE_LOCK_ORDER).collect();
    // One conflict per unordered pair (reported once, both paths cited),
    // plus the direct re-acquisition in `reenter`.
    assert_eq!(hits.len(), 2, "{diags:?}");
    let conflict = hits
        .iter()
        .find(|d| d.message.contains("inconsistent lock order"))
        .unwrap_or_else(|| panic!("{diags:?}"));
    assert!(
        conflict.message.contains("forward") && conflict.message.contains("backward"),
        "conflict must cite both call paths: {}",
        conflict.message
    );
    assert!(
        hits.iter().any(|d| d.message.contains("not re-entrant")),
        "{diags:?}"
    );
}

#[test]
fn l7_lock_order_allow_on_one_edge_dissolves_the_cycle() {
    let diags = lint_source(
        "crates/serve/src/server.rs",
        &fixture("lock_order_allowed.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn l8_wall_clock_taint_crosses_crates() {
    // The helper lives in telemetry (outside deterministic scope — L2 is
    // silent there); the deterministic core calls it. Only the multi-file
    // entry point can see the cross-crate edge.
    let files = vec![
        (
            "crates/telemetry/src/clock.rs".to_string(),
            fixture("taint_clock_source.rs"),
        ),
        (
            "crates/core/src/strategy.rs".to_string(),
            fixture("taint_sink_bad.rs"),
        ),
    ];
    let diags = lint_sources(&files);
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RULE_WALL_CLOCK_TAINT)
        .collect();
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].path, "crates/core/src/strategy.rs");
    assert!(
        hits[0].message.contains("wall_elapsed_micros"),
        "witness chain must name the tainted callee: {}",
        hits[0].message
    );
    // The helper's own file is outside deterministic scope: no findings there.
    assert!(
        diags
            .iter()
            .all(|d| d.path != "crates/telemetry/src/clock.rs"),
        "{diags:?}"
    );
}

#[test]
fn l8_wall_clock_taint_call_site_allow_suppresses() {
    let files = vec![
        (
            "crates/telemetry/src/clock.rs".to_string(),
            fixture("taint_clock_source.rs"),
        ),
        (
            "crates/core/src/strategy.rs".to_string(),
            fixture("taint_sink_allowed.rs"),
        ),
    ];
    let diags = lint_sources(&files);
    assert!(!rules(&diags).contains(&RULE_WALL_CLOCK_TAINT), "{diags:?}");
}

#[test]
fn l9_hot_path_alloc_fires_in_loops_and_exempts_constructors() {
    let diags = lint_source(
        "crates/engine/src/operator/fold.rs",
        &fixture("hot_alloc_bad.rs"),
    );
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
        .collect();
    // format! + .clone() in fold_batch, Vec::new in rescale; the vec! in
    // `from_parts` is constructor-exempt.
    assert_eq!(hits.len(), 3, "{diags:?}");
    assert!(hits.iter().all(|d| d.severity == Severity::Deny));
    assert!(
        hits.iter().all(|d| !d.message.contains("from_parts")),
        "constructor exemption violated: {diags:?}"
    );
}

#[test]
fn l9_hot_path_alloc_covers_the_window_state() {
    // The window operator's pane state is in the data-path scope: the
    // per-event clone in `fold` fires, while the per-pane allocation in
    // `open_pane` is suppressed by a reasoned allow.
    let source = fixture("hot_alloc_window_state.rs");
    let diags = lint_source("crates/engine/src/operator/window_op.rs", &source);
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
        .collect();
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert!(
        hits[0].message.contains("`.clone()`") && hits[0].message.contains("fold"),
        "{diags:?}"
    );
    // The same source outside the data-path scope is not linted.
    let diags = lint_source("crates/metrics/src/summary.rs", &source);
    assert!(!rules(&diags).contains(&RULE_HOT_PATH_ALLOC), "{diags:?}");
}

#[test]
fn l9_hot_path_alloc_covers_the_serve_data_path() {
    // The serve shell joined the data-path scope: the per-frame
    // `drain(..).collect()` of the old reader fires once per wire mode,
    // the in-place cursor walk with one trailing `drain` does not.
    for path in ["crates/serve/src/server.rs", "crates/serve/src/wire.rs"] {
        let diags = lint_source(path, &fixture("hot_alloc_serve.rs"));
        let hits: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
            .collect();
        assert_eq!(hits.len(), 2, "{diags:?}");
        for (hit, func) in hits.iter().zip(["drain_text", "drain_binary"]) {
            assert!(
                hit.message.contains("`.collect()`") && hit.message.contains(func),
                "{diags:?}"
            );
        }
    }
    let diags = lint_source("crates/serve/src/http.rs", &fixture("hot_alloc_serve.rs"));
    assert!(!rules(&diags).contains(&RULE_HOT_PATH_ALLOC), "{diags:?}");
}

#[test]
fn l9_hot_path_alloc_covers_the_aq_per_tuple_path() {
    // AQ and its delay sample run once per tuple: the fixture's loops fire
    // there as in the window operator.
    for path in ["crates/core/src/aq.rs", "crates/core/src/estimator.rs"] {
        let diags = lint_source(path, &fixture("hot_alloc_bad.rs"));
        let hits = diags
            .iter()
            .filter(|d| d.rule == RULE_HOT_PATH_ALLOC)
            .count();
        assert_eq!(hits, 3, "{path}: {diags:?}");
    }
}

#[test]
fn l9_hot_path_alloc_is_scope_limited() {
    // The same loops outside the data-path modules are not linted.
    let diags = lint_source(
        "crates/metrics/src/summary.rs",
        &fixture("hot_alloc_bad.rs"),
    );
    assert!(!rules(&diags).contains(&RULE_HOT_PATH_ALLOC), "{diags:?}");
}

#[test]
fn l9_hot_path_alloc_allow_suppresses() {
    let diags = lint_source(
        "crates/engine/src/operator/fold.rs",
        &fixture("hot_alloc_allowed.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn jsonl_rendering_round_trips_fixture_findings() {
    let diags = lint_source("crates/core/src/buffer.rs", &fixture("no_panic_bad.rs"));
    let jsonl = quill_lint::to_jsonl(&diags);
    assert_eq!(jsonl.lines().count(), diags.len());
    for (line, d) in jsonl.lines().zip(&diags) {
        assert!(line.contains(&format!("\"rule\":\"{}\"", d.rule)), "{line}");
        assert!(line.contains(&format!("\"line\":{}", d.line)), "{line}");
    }
}

#[test]
fn sarif_rendering_round_trips_fixture_findings() {
    let diags = lint_source(
        "crates/serve/src/server.rs",
        &fixture("lock_discipline_bad.rs"),
    );
    assert!(!diags.is_empty());
    let sarif = quill_lint::to_sarif(&diags);
    // Envelope: version, schema, and the tool driver.
    assert!(sarif.contains("\"version\":\"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\":\"quill-lint\""), "{sarif}");
    // Every finding must survive as a result with its rule id, level,
    // location and line.
    for d in &diags {
        assert!(
            sarif.contains(&format!("\"ruleId\":\"{}\"", d.rule)),
            "{d:?}"
        );
        assert!(
            sarif.contains(&format!("\"uri\":\"{}\"", d.path)),
            "{d:?}\n{sarif}"
        );
        assert!(
            sarif.contains(&format!("\"startLine\":{}", d.line)),
            "{d:?}\n{sarif}"
        );
    }
    assert_eq!(
        sarif.matches("\"ruleId\"").count(),
        diags.len(),
        "one result per finding:\n{sarif}"
    );
    assert!(sarif.contains("\"level\":\"error\""), "{sarif}");
}

/// Regression: the live workspace must stay lint-clean. This is the same
/// check `scripts/check.sh` enforces via the CLI.
#[test]
fn live_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    assert!(root.join("Cargo.toml").exists(), "bad root {root:?}");
    let diags = lint_workspace(root).expect("walk workspace");
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        quill_lint::render_text(&diags)
    );
}
