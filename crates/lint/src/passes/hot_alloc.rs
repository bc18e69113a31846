//! `hot-path-alloc`: no per-event allocation inside the loops of the
//! data-path modules.
//!
//! Scope: the per-event loops of `crates/engine/src/operator/*` (the window
//! operator and its pane state), `crates/engine/src/parallel.rs`,
//! `crates/core/src/buffer.rs`, `crates/core/src/session.rs`, and the serve
//! data path: the reader and core loops of `crates/serve/src/server.rs` and
//! the frame decoder of `crates/serve/src/wire.rs`. Flagged constructs:
//! `Vec::new`, `Box::new`, `vec!`, `format!`, `.clone()`, and a
//! `.drain(..)` chain ending in `.collect()` (a buffer range copied out
//! into a fresh allocation) — each of these inside a `for`/`while`/`loop`
//! body allocates (or deep-copies) once per event, which at the paper's
//! stream rates dominates the operator cost model.
//!
//! Constructor-shaped functions (`new`, `with_*`, `from_*`, `default`) are
//! exempt: their loops run once per session, not per event. Everything else
//! needs either a restructure (hoist the buffer, use `std::mem::take`,
//! clone outside the loop) or a line-level
//! `allow(hot-path-alloc, reason = "...")` stating why the allocation is
//! per-batch rather than per-event, or otherwise unavoidable.

use super::Workspace;
use crate::rules::RULE_HOT_PATH_ALLOC;
use crate::syntax::loop_bodies;
use crate::tokenizer::{Token, TokenKind};
use crate::{Diagnostic, Severity};

/// The `hot-path-alloc` pass.
pub struct HotPathAlloc;

/// Files whose loops are per-event by contract.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/engine/src/operator/")
        || rel == "crates/engine/src/parallel.rs"
        || rel == "crates/core/src/buffer.rs"
        || rel == "crates/core/src/session.rs"
        || rel == "crates/serve/src/server.rs"
        || rel == "crates/serve/src/wire.rs"
}

/// Constructor-shaped functions run per-session, not per-event.
fn is_constructor(name: &str) -> bool {
    name == "new" || name == "default" || name.starts_with("with_") || name.starts_with("from_")
}

/// Whether the method chain ending at token `collect` starts from a
/// `.drain(` earlier in the same statement.
fn drains_in_same_statement(toks: &[Token], collect: usize) -> bool {
    let start = toks[..collect]
        .iter()
        .rposition(|t| matches!(t.text.as_str(), ";" | "{" | "}"))
        .map_or(0, |p| p + 1);
    toks[start..collect]
        .windows(2)
        .any(|w| w[0].text == "." && w[1].text == "drain")
}

impl super::Pass for HotPathAlloc {
    fn name(&self) -> &'static str {
        RULE_HOT_PATH_ALLOC
    }

    fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let g = &ws.graph;
        let mut diags = Vec::new();
        for fn_id in 0..g.fns.len() {
            let file = g.file(fn_id);
            if !in_scope(&file.rel) {
                continue;
            }
            let def = g.def(fn_id);
            if is_constructor(&def.name) {
                continue;
            }
            let toks = &file.tokens;
            let text = |i: usize| toks.get(i).map(|t| t.text.as_str());
            for body in loop_bodies(toks, def.body.clone()) {
                for idx in body {
                    if file.mask[idx] || toks[idx].kind != TokenKind::Ident {
                        continue;
                    }
                    let what = match toks[idx].text.as_str() {
                        ty @ ("Vec" | "Box")
                            if text(idx + 1) == Some(":")
                                && text(idx + 2) == Some(":")
                                && text(idx + 3) == Some("new") =>
                        {
                            if ty == "Vec" {
                                "`Vec::new()`"
                            } else {
                                "`Box::new()`"
                            }
                        }
                        "vec" if text(idx + 1) == Some("!") => "`vec![..]`",
                        "format" if text(idx + 1) == Some("!") => "`format!`",
                        "clone"
                            if idx > 0
                                && text(idx - 1) == Some(".")
                                && text(idx + 1) == Some("(")
                                && text(idx + 2) == Some(")") =>
                        {
                            "`.clone()`"
                        }
                        "collect"
                            if idx > 0
                                && text(idx - 1) == Some(".")
                                && drains_in_same_statement(toks, idx) =>
                        {
                            "`.drain(..)` into `.collect()`"
                        }
                        _ => continue,
                    };
                    let line = toks[idx].line;
                    if file.allowed(RULE_HOT_PATH_ALLOC, line) {
                        continue;
                    }
                    diags.push(Diagnostic {
                        rule: RULE_HOT_PATH_ALLOC.into(),
                        path: file.rel.clone(),
                        line,
                        severity: Severity::Deny,
                        message: format!(
                            "{what} inside a per-event loop of `{}` allocates once per element",
                            g.name(fn_id)
                        ),
                        help: "hoist the allocation out of the loop (reuse a buffer, \
                               `std::mem::take`, or move ownership instead of cloning), or \
                               annotate `// quill-lint: allow(hot-path-alloc, reason = \
                               \"...\")` stating why it is not per-event"
                            .into(),
                    });
                }
            }
        }
        diags
    }
}
