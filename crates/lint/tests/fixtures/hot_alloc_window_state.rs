//! Fixture: the window operator's pane state is data-path code (L9 scope).
//! The per-event clone of each distinct value in `fold`'s per-field loop
//! must fire; the empty runs `open_pane` pushes are per pane (amortized over
//! the pane's events, not per event) and carry a reasoned allow.

pub fn fold(fields: &[usize], row: &[String], runs: &mut [Vec<String>]) {
    for (&f, run) in fields.iter().zip(runs.iter_mut()) {
        let v = row[f].clone();
        if !run.contains(&v) {
            run.push(v);
        }
    }
}

pub fn open_pane(fields: &[usize], panes: &mut Vec<Vec<Vec<String>>>) {
    let mut runs = Vec::with_capacity(fields.len());
    for _ in fields {
        // quill-lint: allow(hot-path-alloc, reason = "one run per field when a pane opens, amortized over its events")
        runs.push(Vec::new());
    }
    panes.push(runs);
}
