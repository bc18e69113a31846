//! `lock-discipline`: no blocking operation while a `MutexGuard`/`RwLock`
//! guard is live — directly in the function, or through any call chain.
//!
//! The serve daemon's backpressure design makes this the stall that
//! matters: ingest reader threads, HTTP handlers and result pollers all
//! meet on the session lock, and readers block in socket reads between
//! pushes. A blocking call made *while holding* a lock the others need
//! stalls them all, and a send or join under it can close a deadlock cycle.
//! No tier-1 test provokes it; this pass refuses to let it compile in.
//!
//! Suppression: a line-level `allow(lock-discipline, ...)` on the blocking
//! call or the call site suppresses that finding; an allow on a function's
//! `fn` declaration line marks the whole function non-blocking for the
//! may-block propagation (use for functions whose blocking is by design and
//! never reached under a lock).

use super::common::guard_label;
use super::Workspace;
use crate::rules::RULE_LOCK_DISCIPLINE;
use crate::{Diagnostic, Severity};
use std::collections::HashSet;

/// The `lock-discipline` pass.
pub struct LockDiscipline;

impl super::Pass for LockDiscipline {
    fn name(&self) -> &'static str {
        RULE_LOCK_DISCIPLINE
    }

    fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let g = &ws.graph;
        let mut diags = Vec::new();

        // Functions whose declaration line carries an allow: excluded from
        // may-block propagation entirely.
        let blocked: HashSet<usize> = (0..g.fns.len())
            .filter(|&id| {
                let decl = g.def(id).decl_line;
                g.file(id).allowed(RULE_LOCK_DISCIPLINE, decl)
            })
            .collect();

        // Seeds: functions with a direct (unsuppressed) blocking operation.
        let seeds: HashSet<usize> = (0..g.fns.len())
            .filter(|&id| {
                ws.blocking[id]
                    .iter()
                    .any(|b| !g.file(id).allowed(RULE_LOCK_DISCIPLINE, b.line))
            })
            .collect();
        let may_block = g.reach_to(&seeds, &blocked);

        for fn_id in 0..g.fns.len() {
            if blocked.contains(&fn_id) {
                continue;
            }
            let file = g.file(fn_id);
            for acq in &ws.acquisitions[fn_id] {
                // Direct blocking operations inside the guard's live range.
                for b in &ws.blocking[fn_id] {
                    if !acq.live.contains(&b.idx) {
                        continue;
                    }
                    if file.allowed(RULE_LOCK_DISCIPLINE, b.line) {
                        continue;
                    }
                    diags.push(Diagnostic {
                        rule: RULE_LOCK_DISCIPLINE.into(),
                        path: file.rel.clone(),
                        line: b.line,
                        severity: Severity::Deny,
                        message: format!(
                            "{} while the {} (acquired {}:{}) is live",
                            b.what,
                            guard_label(acq),
                            file.rel,
                            acq.line
                        ),
                        help: "drop the guard before the blocking operation (narrow the \
                               binding scope or call `drop(guard)`), or annotate \
                               `// quill-lint: allow(lock-discipline, reason = \"...\")`"
                            .into(),
                    });
                }
                // Call sites inside the live range whose callee may block.
                let mut reported_lines: HashSet<usize> = HashSet::new();
                for site in &g.calls[fn_id] {
                    if !acq.live.contains(&site.idx) || !may_block.contains_key(&site.callee) {
                        continue;
                    }
                    if file.allowed(RULE_LOCK_DISCIPLINE, site.line)
                        || !reported_lines.insert(site.line)
                    {
                        continue;
                    }
                    diags.push(Diagnostic {
                        rule: RULE_LOCK_DISCIPLINE.into(),
                        path: file.rel.clone(),
                        line: site.line,
                        severity: Severity::Deny,
                        message: format!(
                            "call into {} may block ({}) while the {} (acquired {}:{}) is live",
                            g.describe(site.callee),
                            g.chain(&may_block, site.callee),
                            guard_label(acq),
                            file.rel,
                            acq.line
                        ),
                        help: "drop the guard before the call, or — if the callee's blocking \
                               is unreachable from here — annotate the call site with \
                               `// quill-lint: allow(lock-discipline, reason = \"...\")`"
                            .into(),
                    });
                }
            }
        }
        diags
    }
}
