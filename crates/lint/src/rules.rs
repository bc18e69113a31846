//! The lint rules and the workspace walker.
//!
//! Rules are *path-scoped*: each rule knows which workspace-relative files
//! it guards. [`lint_source`] lints one file given its workspace-relative
//! path (which is what makes the rules unit-testable against fixtures);
//! [`lint_workspace`] walks the live workspace and lints every `.rs` file of
//! every member crate.
//!
//! `#[cfg(test)]` items are exempt from every token rule except L5
//! (`no-nondeterminism`) — tests exercise panics and wall-clocks
//! deliberately, but the simulation crate's tests must stay replayable from
//! their seeds just like its library code. Deliberate production exceptions
//! carry `// quill-lint: allow(<rule>, reason = "...")` annotations (grammar
//! in DESIGN.md §11).

use crate::tokenizer::{lex, Allow, Token, TokenKind};
use crate::{Diagnostic, Severity};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

/// Rule id for L1.
pub const RULE_NO_PANIC: &str = "no-panic";
/// Rule id for L2.
pub const RULE_NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule id for L3.
pub const RULE_GUARDED_TELEMETRY: &str = "guarded-telemetry";
/// Rule id for L4.
pub const RULE_CRATE_HYGIENE: &str = "crate-hygiene";
/// Rule id for L5.
pub const RULE_NO_NONDETERMINISM: &str = "no-nondeterminism";
/// Rule id for malformed allow-annotations.
pub const RULE_ALLOW_SYNTAX: &str = "allow-syntax";
/// Rule id for L6: no blocking operation while a lock guard is live.
pub const RULE_LOCK_DISCIPLINE: &str = "lock-discipline";
/// Rule id for L7: workspace-consistent lock acquisition order.
pub const RULE_LOCK_ORDER: &str = "lock-order";
/// Rule id for L8: wall-clock reads propagated through the call graph.
pub const RULE_WALL_CLOCK_TAINT: &str = "wall-clock-taint";
/// Rule id for L9: no per-event allocation in data-path loops.
pub const RULE_HOT_PATH_ALLOC: &str = "hot-path-alloc";

/// Every rule id an annotation may name.
pub const ALL_RULES: &[&str] = &[
    RULE_NO_PANIC,
    RULE_NO_WALL_CLOCK,
    RULE_GUARDED_TELEMETRY,
    RULE_CRATE_HYGIENE,
    RULE_NO_NONDETERMINISM,
    RULE_LOCK_DISCIPLINE,
    RULE_LOCK_ORDER,
    RULE_WALL_CLOCK_TAINT,
    RULE_HOT_PATH_ALLOC,
];

/// Hot-path modules where a panic aborts live query execution (L1 scope).
const HOT_PATH_FILES: &[&str] = &[
    "crates/engine/src/parallel.rs",
    "crates/core/src/buffer.rs",
    "crates/core/src/strategy.rs",
    "crates/core/src/estimator.rs",
    "crates/core/src/controller.rs",
    "crates/core/src/runner.rs",
    "crates/core/src/session.rs",
];

/// Modules whose behaviour must be a pure function of the event sequence so
/// MP/AQ K-estimation replays deterministically (L2 scope).
const DETERMINISTIC_FILES: &[&str] = &[
    "crates/core/src/strategy.rs",
    "crates/core/src/aq.rs",
    "crates/core/src/estimator.rs",
    "crates/core/src/controller.rs",
    "crates/core/src/buffer.rs",
    "crates/core/src/punctuated.rs",
    "crates/core/src/quality.rs",
    "crates/core/src/session.rs",
];

/// Files allowed to construct trace events / spans / enabled instruments
/// directly (L3 exemptions): the recorders and registry themselves.
const TELEMETRY_CONSTRUCTION_FILES: &[&str] = &[
    "crates/telemetry/src/span.rs",
    "crates/telemetry/src/lib.rs",
];

fn is_hot_path(rel: &str) -> bool {
    rel.starts_with("crates/engine/src/operator/") || HOT_PATH_FILES.contains(&rel)
}

pub(crate) fn is_deterministic(rel: &str) -> bool {
    // The whole daemon crate is in scope: stream-time decisions (eviction,
    // drain, watermarks) must derive from ticks and event time, never the
    // wall clock. Deliberate operator-facing exceptions (e.g. /healthz
    // uptime) carry scoped allow annotations rather than a path exclusion.
    rel.starts_with("crates/engine/src/operator/")
        || rel.starts_with("crates/serve/src/")
        || DETERMINISTIC_FILES.contains(&rel)
}

/// Files outside `crates/sim` that the simulation replays through as its
/// ground truth (L5 scope): the naive oracle.
const SIMULATION_FILES: &[&str] = &["crates/metrics/src/oracle.rs"];

/// The simulation crate and its oracle (L5 scope): every file, tests
/// included — the whole crate's contract is byte-identical replay from a
/// case seed.
fn is_simulation(rel: &str) -> bool {
    rel.starts_with("crates/sim/") || SIMULATION_FILES.contains(&rel)
}

/// Whether `rel` is a workspace member crate root subject to L4.
fn crate_root_kind(rel: &str) -> Option<CrateRootKind> {
    if rel.starts_with("crates/") && rel.ends_with("/src/lib.rs") {
        return Some(CrateRootKind::Lib);
    }
    if rel == "examples/common.rs" || rel == "tests/common.rs" {
        return Some(CrateRootKind::Member);
    }
    None
}

#[derive(Clone, Copy, PartialEq)]
enum CrateRootKind {
    /// A library crate under `crates/`: full hygiene (docs lint required).
    Lib,
    /// The examples/tests member roots: unsafe-forbid + crate docs.
    Member,
}

/// Mark every token inside a `#[cfg(test)]` item (attribute included).
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let text = |i: usize| tokens.get(i).map(|t: &Token| t.text.as_str());
    let mut i = 0;
    while i < tokens.len() {
        let is_cfg_test = text(i) == Some("#")
            && text(i + 1) == Some("[")
            && text(i + 2) == Some("cfg")
            && text(i + 3) == Some("(")
            && text(i + 4) == Some("test")
            && text(i + 5) == Some(")")
            && text(i + 6) == Some("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes between the cfg and the item.
        let mut j = i + 7;
        while text(j) == Some("#") && text(j + 1) == Some("[") {
            let mut depth = 0usize;
            let mut k = j + 1;
            while k < tokens.len() {
                match tokens[k].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
        }
        // The item ends at the first `;` before any brace, or at the close
        // of its first brace block (covers `mod`, `fn`, `impl`, `use`).
        let mut end = tokens.len();
        let mut k = j;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                ";" => {
                    end = k + 1;
                    break;
                }
                "{" => {
                    let mut depth = 1usize;
                    let mut m = k + 1;
                    while m < tokens.len() && depth > 0 {
                        match tokens[m].text.as_str() {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    end = m;
                    break;
                }
                _ => k += 1,
            }
        }
        for slot in mask.iter_mut().take(end.min(tokens.len())).skip(i) {
            *slot = true;
        }
        i = end;
    }
    mask
}

/// Lines each allow-annotation suppresses: its own line plus the next line
/// carrying a token.
fn allow_lines(allows: &[Allow], tokens: &[Token]) -> HashMap<String, HashSet<usize>> {
    let mut map: HashMap<String, HashSet<usize>> = HashMap::new();
    for a in allows.iter().filter(|a| a.malformed.is_none()) {
        let entry = map.entry(a.rule.clone()).or_default();
        entry.insert(a.line);
        if let Some(next) = tokens.iter().map(|t| t.line).find(|&l| l > a.line) {
            entry.insert(next);
        }
    }
    map
}

struct FileLinter<'a> {
    rel: &'a str,
    tokens: &'a [Token],
    mask: Vec<bool>,
    allows: HashMap<String, HashSet<usize>>,
    diags: Vec<Diagnostic>,
}

impl<'a> FileLinter<'a> {
    fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.get(rule).is_some_and(|s| s.contains(&line))
    }

    fn push(&mut self, rule: &str, line: usize, message: String, help: String) {
        if self.allowed(rule, line) {
            return;
        }
        self.diags.push(Diagnostic {
            rule: rule.to_string(),
            path: self.rel.to_string(),
            line,
            severity: Severity::Deny,
            message,
            help,
        });
    }

    fn text(&self, i: usize) -> Option<&str> {
        self.tokens.get(i).map(|t| t.text.as_str())
    }

    /// L1: no `unwrap()` / `expect()` / panicking macros in hot paths.
    fn rule_no_panic(&mut self) {
        for i in 0..self.tokens.len() {
            if self.mask[i] || self.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let line = self.tokens[i].line;
            match self.tokens[i].text.as_str() {
                m @ ("unwrap" | "expect")
                    if i > 0 && self.text(i - 1) == Some(".") && self.text(i + 1) == Some("(") =>
                {
                    self.push(
                        RULE_NO_PANIC,
                        line,
                        format!("`.{m}()` in a hot-path module can abort live query execution"),
                        "return a typed `EngineError`, restructure so the invariant is by \
                         construction, or annotate `// quill-lint: allow(no-panic, reason = \
                         \"<invariant>\")`"
                            .into(),
                    );
                }
                m @ ("panic" | "unreachable" | "todo" | "unimplemented")
                    if self.text(i + 1) == Some("!") =>
                {
                    self.push(
                        RULE_NO_PANIC,
                        line,
                        format!("`{m}!` in a hot-path module can abort live query execution"),
                        "return a typed `EngineError` or annotate `// quill-lint: \
                         allow(no-panic, reason = \"<invariant>\")`"
                            .into(),
                    );
                }
                _ => {}
            }
        }
    }

    /// L2: no wall-clock reads in deterministic control-loop modules.
    fn rule_no_wall_clock(&mut self) {
        for i in 0..self.tokens.len() {
            if self.mask[i] || self.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let ty = self.tokens[i].text.as_str();
            if (ty == "Instant" || ty == "SystemTime")
                && self.text(i + 1) == Some(":")
                && self.text(i + 2) == Some(":")
                && self.text(i + 3) == Some("now")
            {
                let line = self.tokens[i].line;
                self.push(
                    RULE_NO_WALL_CLOCK,
                    line,
                    format!(
                        "`{ty}::now()` in a deterministic module breaks replayable K estimation"
                    ),
                    "derive timing from event timestamps (the stream clock); wall-clock \
                     measurement belongs in the runner/bench layer"
                        .into(),
                );
            }
        }
    }

    /// L5: no ambient-entropy RNG construction anywhere in the simulation
    /// crate. Every random choice must derive from the case seed so a
    /// reproducer replays byte-identically; `thread_rng`, `from_entropy` and
    /// `OsRng` all pull entropy from outside the seed. Unlike L1/L2 this rule
    /// does **not** exempt `#[cfg(test)]` items — sim tests are the product.
    fn rule_no_nondeterminism(&mut self) {
        for i in 0..self.tokens.len() {
            if self.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let name = self.tokens[i].text.as_str();
            if matches!(name, "thread_rng" | "from_entropy" | "OsRng") {
                let line = self.tokens[i].line;
                self.push(
                    RULE_NO_NONDETERMINISM,
                    line,
                    format!(
                        "`{name}` draws ambient entropy; simulation runs must replay \
                         byte-identically from their case seed"
                    ),
                    "construct RNGs from the case seed (`TestRng::new(seed)` or \
                     `StdRng::seed_from_u64(seed)`), deriving sub-seeds by mixing in a \
                     fixed constant"
                        .into(),
                );
            }
        }
    }

    /// L3: span records and enabled instruments are only constructed inside
    /// the telemetry crate; everything else goes through guarded handles.
    fn rule_guarded_telemetry(&mut self) {
        if TELEMETRY_CONSTRUCTION_FILES.contains(&self.rel) {
            return;
        }
        for i in 0..self.tokens.len() {
            if self.mask[i] || self.tokens[i].kind != TokenKind::Ident {
                continue;
            }
            let line = self.tokens[i].line;
            let name = self.tokens[i].text.as_str();
            if name == "Span"
                && (self.text(i + 1) == Some("{")
                    || (self.text(i + 1) == Some(":")
                        && self.text(i + 2) == Some(":")
                        && self.text(i + 3) == Some("new")))
            {
                self.push(
                    RULE_GUARDED_TELEMETRY,
                    line,
                    "direct `Span` construction bypasses the enabled-guarded span recorder".into(),
                    "record through `SpanRecorder::record/record_for_query/record_detail/\
                     record_k_change` so disabled span recording stays zero-cost and \
                     seq-stamping stays consistent"
                        .into(),
                );
            }
            if matches!(name, "Counter" | "Gauge" | "Histogram" | "SpanRecorder")
                && self.text(i + 1) == Some("(")
                && self.text(i + 2) == Some("Some")
            {
                self.push(
                    RULE_GUARDED_TELEMETRY,
                    line,
                    format!("direct enabled `{name}` construction bypasses the enabled-guard"),
                    "obtain instruments via `Registry::counter/gauge/histogram` and recorders \
                     via `SpanRecorder::new/wall/disabled` so disabled telemetry stays \
                     zero-cost"
                        .into(),
                );
            }
        }
    }

    /// L4: crate roots carry the workspace hygiene attributes.
    fn rule_crate_hygiene(&mut self, source: &str) {
        let Some(kind) = crate_root_kind(self.rel) else {
            return;
        };
        if !source.contains("#![forbid(unsafe_code)]") {
            self.push(
                RULE_CRATE_HYGIENE,
                1,
                "crate root lacks `#![forbid(unsafe_code)]`".into(),
                "add `#![forbid(unsafe_code)]` to the crate root; the workspace is \
                 100% safe Rust"
                    .into(),
            );
        }
        if !source.lines().any(|l| l.trim_start().starts_with("//!")) {
            self.push(
                RULE_CRATE_HYGIENE,
                1,
                "crate root lacks `//!` crate-level documentation".into(),
                "document what the crate is for; rustdoc renders this as the crate front \
                 page"
                    .into(),
            );
        }
        if kind == CrateRootKind::Lib
            && !(source.contains("#![deny(missing_docs)]")
                || source.contains("#![warn(missing_docs)]"))
        {
            self.push(
                RULE_CRATE_HYGIENE,
                1,
                "library crate root lacks a `missing_docs` lint".into(),
                "add `#![deny(missing_docs)]` (the workspace standard) to the crate root".into(),
            );
        }
    }

    /// Malformed or unknown-rule annotations are findings themselves.
    fn rule_allow_syntax(&mut self, allows: &[Allow]) {
        for a in allows {
            if let Some(problem) = &a.malformed {
                self.diags.push(Diagnostic {
                    rule: RULE_ALLOW_SYNTAX.to_string(),
                    path: self.rel.to_string(),
                    line: a.line,
                    severity: Severity::Deny,
                    message: format!("malformed quill-lint annotation: {problem}"),
                    help: "grammar: `// quill-lint: allow(<rule>, reason = \"<non-empty>\")`"
                        .into(),
                });
            } else if !ALL_RULES.contains(&a.rule.as_str()) {
                self.diags.push(Diagnostic {
                    rule: RULE_ALLOW_SYNTAX.to_string(),
                    path: self.rel.to_string(),
                    line: a.line,
                    severity: Severity::Deny,
                    message: format!("annotation allows unknown rule `{}`", a.rule),
                    help: format!("known rules: {}", ALL_RULES.join(", ")),
                });
            }
        }
    }
}

/// Run the per-file token rules (L1–L5 plus allow-syntax) over one file.
fn lint_file_tokens(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    let mask = cfg_test_mask(&lexed.tokens);
    let allows = allow_lines(&lexed.allows, &lexed.tokens);
    let mut linter = FileLinter {
        rel: rel_path,
        tokens: &lexed.tokens,
        mask,
        allows,
        diags: Vec::new(),
    };
    linter.rule_allow_syntax(&lexed.allows);
    if is_hot_path(rel_path) {
        linter.rule_no_panic();
    }
    if is_deterministic(rel_path) {
        linter.rule_no_wall_clock();
    }
    if is_simulation(rel_path) {
        linter.rule_no_nondeterminism();
    }
    linter.rule_guarded_telemetry();
    linter.rule_crate_hygiene(source);
    linter.diags
}

/// Owning workspace member of a relative path: `crates/serve/...` → `serve`,
/// `examples/...` → `examples`, `tests/...` → `tests`.
fn krate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("").to_string(),
        Some(top) => top.to_string(),
        None => String::new(),
    }
}

/// Prepare one file for the call-graph passes: lex, mask `#[cfg(test)]`
/// items, resolve allow-annotation lines, and parse the item structure.
pub fn prepare_source(rel_path: &str, source: &str) -> crate::callgraph::SourceFile {
    let lexed = lex(source);
    let mask = cfg_test_mask(&lexed.tokens);
    let allow_lines = allow_lines(&lexed.allows, &lexed.tokens);
    let syntax = crate::syntax::parse_fns(&lexed.tokens);
    crate::callgraph::SourceFile {
        rel: rel_path.to_string(),
        krate: krate_of(rel_path),
        tokens: lexed.tokens,
        mask,
        allow_lines,
        syntax,
    }
}

/// Drop diagnostics identical to an earlier one (same path, line, rule and
/// message) — a pass can reach the same site through several call-edge
/// candidates and must report it once. Distinct findings that happen to
/// share a line (e.g. the three crate-hygiene obligations on a crate root)
/// differ in message and all survive.
pub(crate) fn dedup_diags(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut seen: HashSet<(String, usize, String, String)> = HashSet::new();
    diags
        .into_iter()
        .filter(|d| seen.insert((d.path.clone(), d.line, d.rule.clone(), d.message.clone())))
        .collect()
}

/// Lint a set of files together: per-file token rules plus the call-graph
/// passes (lock-discipline, lock-order, wall-clock-taint, hot-path-alloc),
/// deduplicated and in path/line order. Each entry is
/// `(workspace-relative path, source)`.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (rel, source) in files {
        diags.extend(lint_file_tokens(rel, source));
    }
    let prepared: Vec<crate::callgraph::SourceFile> = files
        .iter()
        .map(|(rel, source)| prepare_source(rel, source))
        .collect();
    let ws = crate::passes::Workspace::new(prepared);
    diags.extend(crate::passes::run_passes(&ws));
    let mut diags = dedup_diags(diags);
    diags.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    diags
}

/// Lint one file's source given its workspace-relative path (forward-slash
/// separated). This is the unit the fixture tests drive directly; the
/// call-graph passes run too, confined to this one file.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    lint_sources(&[(rel_path.to_string(), source.to_string())])
}

/// Collect every workspace `.rs` file to lint, as
/// `(workspace-relative path, absolute path)` pairs in deterministic order.
/// Vendored stand-in dependencies, build output and the lint fixtures
/// (known-bad by design) are excluded.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    fn visit(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
        if !dir.is_dir() {
            return Ok(());
        }
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if path.is_dir() {
                if rel == "crates/lint/tests/fixtures" {
                    continue;
                }
                visit(&path, root, out)?;
            } else if rel.ends_with(".rs") {
                out.push((rel, path));
            }
        }
        Ok(())
    }

    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let member = entry?.path();
            if !member.is_dir() {
                continue;
            }
            for sub in ["src", "tests", "benches"] {
                visit(&member.join(sub), root, &mut out)?;
            }
        }
    }
    for member in ["examples", "tests"] {
        let dir = root.join(member);
        if dir.is_dir() {
            for entry in std::fs::read_dir(&dir)? {
                let path = entry?.path();
                if path.extension().is_some_and(|e| e == "rs") {
                    let rel = path
                        .strip_prefix(root)
                        .unwrap_or(&path)
                        .to_string_lossy()
                        .replace('\\', "/");
                    out.push((rel, path));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every workspace member file under `root`, returning all findings in
/// path/line order. All files are analysed together so the call-graph
/// passes see cross-crate edges.
///
/// # Errors
/// Propagates I/O errors from walking or reading source files.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for (rel, abs) in workspace_files(root)? {
        files.push((rel, std::fs::read_to_string(&abs)?));
    }
    Ok(lint_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_scope_covers_the_issue_list() {
        assert!(is_hot_path("crates/engine/src/operator/window_op.rs"));
        assert!(is_hot_path("crates/engine/src/parallel.rs"));
        assert!(is_hot_path("crates/core/src/runner.rs"));
        assert!(is_hot_path("crates/core/src/session.rs"));
        assert!(is_hot_path("crates/core/src/estimator.rs"));
        assert!(is_hot_path("crates/core/src/controller.rs"));
        assert!(!is_hot_path("crates/core/src/aq.rs"));
        assert!(!is_hot_path("crates/engine/src/value.rs"));
        assert!(!is_hot_path("crates/gen/src/delay.rs"));
    }

    #[test]
    fn deterministic_scope_covers_the_session_and_daemon() {
        assert!(is_deterministic("crates/core/src/session.rs"));
        assert!(is_deterministic("crates/serve/src/server.rs"));
        assert!(is_deterministic("crates/serve/src/http.rs"));
        assert!(is_deterministic("crates/serve/src/bin/quill_serve.rs"));
        assert!(!is_deterministic("crates/bench/src/bin/serve_soak.rs"));
    }

    #[test]
    fn simulation_scope_covers_the_oracle() {
        assert!(is_simulation("crates/sim/src/harness.rs"));
        assert!(is_simulation("crates/metrics/src/oracle.rs"));
        assert!(!is_simulation("crates/metrics/src/quality_eval.rs"));
    }

    #[test]
    fn every_scoped_path_exists_in_the_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in HOT_PATH_FILES
            .iter()
            .chain(DETERMINISTIC_FILES)
            .chain(TELEMETRY_CONSTRUCTION_FILES)
            .chain(SIMULATION_FILES)
        {
            assert!(root.join(rel).is_file(), "stale scope path {rel}");
        }
    }

    #[test]
    fn wall_clock_in_serve_needs_a_scoped_allow() {
        let bare = "fn f() -> std::time::Instant { std::time::Instant::now() }\n";
        let diags = lint_source("crates/serve/src/http.rs", bare);
        assert!(
            diags.iter().any(|d| d.rule == RULE_NO_WALL_CLOCK),
            "{diags:?}"
        );
        let allowed = "// quill-lint: allow(no-wall-clock, reason = \"uptime display\")\n\
                       fn f() -> std::time::Instant { std::time::Instant::now() }\n";
        assert!(lint_source("crates/serve/src/http.rs", allowed).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = r#"
            fn hot() { let x: Option<u32> = None; }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let x: Option<u32> = None; x.unwrap(); }
            }
        "#;
        let diags = lint_source("crates/core/src/runner.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cfg_test_fn_is_exempt() {
        let src = "#[cfg(test)]\nfn helper() { None::<u32>.unwrap(); }\n";
        assert!(lint_source("crates/core/src/runner.rs", src).is_empty());
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let src =
            "fn f() {\n    // quill-lint: allow(no-panic, reason = \"validated above\")\n    \
                   None::<u32>.unwrap();\n}\n";
        assert!(lint_source("crates/core/src/runner.rs", src).is_empty());
    }

    #[test]
    fn trailing_allow_suppresses() {
        let src = "fn f() {\n    None::<u32>.unwrap(); // quill-lint: allow(no-panic, reason = \
                   \"validated\")\n}\n";
        assert!(lint_source("crates/core/src/runner.rs", src).is_empty());
    }

    #[test]
    fn allow_for_a_different_rule_does_not_suppress() {
        let src = "fn f() {\n    // quill-lint: allow(no-wall-clock, reason = \"x\")\n    \
                   None::<u32>.unwrap();\n}\n";
        let diags = lint_source("crates/core/src/runner.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_NO_PANIC);
    }

    #[test]
    fn unknown_rule_annotation_is_a_finding() {
        let src = "// quill-lint: allow(no-such-rule, reason = \"x\")\n";
        let diags = lint_source("crates/core/src/aq.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_ALLOW_SYNTAX);
    }

    #[test]
    fn span_construction_outside_telemetry_is_flagged() {
        for src in [
            "fn f() { let s = Span { seq: 0, stage, begin: 0, end: 1, shard: 0, query: 0, \
             detail: [0; 2], reason: None }; }",
            "fn f() { let s = Span::new(); }",
            "fn f() { let r = SpanRecorder(Some(inner)); }",
        ] {
            let diags = lint_source("crates/core/src/buffer.rs", src);
            assert!(
                diags.iter().any(|d| d.rule == RULE_GUARDED_TELEMETRY),
                "expected guarded-telemetry finding for {src:?}: {diags:?}"
            );
        }
    }

    #[test]
    fn span_recorder_api_use_is_clean_everywhere() {
        let src = "fn f(rec: &SpanRecorder) {\n    let rec2 = SpanRecorder::new(64);\n    \
                   rec.record(Stage::Route, 0, 5, 0);\n    let d = SpanRecorder::disabled();\n}\n";
        assert!(lint_source("crates/core/src/buffer.rs", src).is_empty());
    }

    #[test]
    fn span_construction_inside_telemetry_span_module_is_exempt() {
        let src = "fn f() { let r = SpanRecorder(Some(inner)); }";
        assert!(lint_source("crates/telemetry/src/span.rs", src).is_empty());
    }

    #[test]
    fn out_of_scope_files_do_not_fire_l1_l2() {
        let src = "fn f() { None::<u32>.unwrap(); let t = Instant::now(); }";
        assert!(lint_source("crates/gen/src/delay.rs", src).is_empty());
    }

    #[test]
    fn nondeterminism_fires_even_inside_cfg_test() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let _r = rand::thread_rng(); }\n}\n";
        let diags = lint_source("crates/sim/src/spec.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_NO_NONDETERMINISM);
    }

    #[test]
    fn nondeterminism_allow_annotation_suppresses() {
        let src = "fn f() {\n    // quill-lint: allow(no-nondeterminism, reason = \"doc \
                   example\")\n    let _r = rand::thread_rng();\n}\n";
        assert!(lint_source("crates/sim/src/spec.rs", src).is_empty());
    }

    #[test]
    fn seeded_rng_construction_is_clean_in_sim() {
        let src = "fn f(seed: u64) { let _r = StdRng::seed_from_u64(seed); }";
        assert!(lint_source("crates/sim/src/harness.rs", src).is_empty());
    }

    #[test]
    fn dedup_drops_identical_diagnostics_keeping_first() {
        let mk = |rule: &str, line: usize, msg: &str| Diagnostic {
            rule: rule.into(),
            path: "crates/serve/src/server.rs".into(),
            line,
            severity: Severity::Deny,
            message: msg.into(),
            help: String::new(),
        };
        let out = dedup_diags(vec![
            mk(RULE_LOCK_DISCIPLINE, 10, "blocking send under guard"),
            mk(RULE_LOCK_DISCIPLINE, 10, "blocking send under guard"),
            mk(RULE_LOCK_ORDER, 10, "different rule survives"),
            mk(RULE_LOCK_DISCIPLINE, 11, "different line survives"),
            mk(RULE_LOCK_DISCIPLINE, 10, "different message survives"),
        ]);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].message, "blocking send under guard");
    }
}
