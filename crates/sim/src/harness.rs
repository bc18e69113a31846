//! The differential battery: everything that must hold for one [`SimCase`].
//!
//! [`check_case`] runs a case through the staging layer, the sequential
//! executor, and a sweep of keyed-parallel configurations, comparing each
//! against the naive full-sort oracle and against each other:
//!
//! 1. **Staging invariants** — the strategy forwards every event exactly
//!    once, watermarks are monotone, and its late accounting matches its own
//!    [`BufferStats`].
//! 2. **Oracle window agreement** — the run reports exactly the oracle's
//!    window set, and any window the engine saw in full (produced count ==
//!    oracle count) carries the oracle's exact aggregate values.
//! 3. **Quality agreement** — the reported per-window completeness, mean,
//!    and missing-window count re-derive exactly from oracle truth counts.
//! 4. **Session replay** — a [`Session`] fed the case's events delivers
//!    exactly the sequential run's results, window counters and latency:
//!    batch `execute` is the loop a `Session` runs.
//! 5. **Executor invariance** — sequential and keyed-parallel (1, 2, 4 and
//!    8 shards, one thread each) produce the identical result sequence,
//!    quality reports, and accounting.
//! 6. **Shape sharing** — in one `execute_shared` run, two subscribers of
//!    the case's query (one operator) and one of the same query at another
//!    window length each get exactly what they get from a solo `execute`.
//! 7. **Telemetry reconciliation** — the run's registry counters and the
//!    span records per stage match its own accounting.
//! 8. **Strategy-independent laws** (run once per suite, on the Oracle
//!    case): full buffering reproduces the oracle exactly, and execution is
//!    invariant under input permutation once K exceeds the disorder bound.
//!
//! On failure the case is greedily shrunk ([`shrink_case`]) and written as a
//! self-contained reproducer for the `quill-repro` binary.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

use quill_core::prelude::*;

use crate::spec::{sample_suite, SimCase};
use quill_metrics::oracle::{oracle_results, values_close};

/// One confirmed divergence between the engine and the oracle (or between
/// two executor configurations).
#[derive(Debug, Clone)]
pub struct Mismatch {
    /// Which invariant failed (e.g. `oracle-values`, `parallel-results`).
    pub check: String,
    /// Which execution configuration exposed it (e.g. `parallel-4x7`).
    pub exec: String,
    /// Human-readable specifics: window, key, expected vs. got.
    pub detail: String,
}

impl Mismatch {
    fn new(check: &str, exec: &str, detail: impl Into<String>) -> Mismatch {
        Mismatch {
            check: check.into(),
            exec: exec.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] under {}: {}", self.check, self.exec, self.detail)
    }
}

/// What a passing case cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// Full engine executions performed.
    pub executions: u64,
    /// Oracle `(window, key)` groups compared.
    pub windows_checked: u64,
}

impl CaseStats {
    /// Accumulate another case's counts.
    pub fn absorb(&mut self, other: CaseStats) {
        self.executions += other.executions;
        self.windows_checked += other.windows_checked;
    }
}

fn run(case: &SimCase, opts: &ExecOptions, exec: &str) -> Result<RunOutput, Mismatch> {
    let mut s = case.strategy.build();
    execute(&case.events, s.as_mut(), &case.query(), opts)
        .map_err(|e| Mismatch::new("execute-error", exec, e.to_string()))
}

/// Largest `max_ts_seen - ts` over the arrival order: the stream's actual
/// disorder bound.
fn max_disorder(events: &[Event]) -> u64 {
    let mut max_ts = 0u64;
    let mut d = 0u64;
    for e in events {
        let t = e.ts.raw();
        max_ts = max_ts.max(t);
        d = d.max(max_ts - t);
    }
    d
}

/// Staging-layer invariants, independent of any window operator.
fn check_staging(case: &SimCase) -> Result<(), Mismatch> {
    let mut s = case.strategy.build();
    let out = crate::support::drive(s.as_mut(), &case.events);
    let exec = "staging";

    let mut seqs: Vec<u64> = out
        .iter()
        .filter_map(|e| e.as_event())
        .map(|e| e.seq)
        .collect();
    seqs.sort_unstable();
    let n = case.events.len() as u64;
    if seqs != (0..n).collect::<Vec<u64>>() {
        return Err(Mismatch::new(
            "conservation",
            exec,
            format!(
                "expected every seq in 0..{n} exactly once, got {} events",
                seqs.len()
            ),
        ));
    }

    let mut wm = 0u64;
    let mut late = 0u64;
    for el in &out {
        match el {
            StreamElement::Watermark(t) => {
                if t.raw() < wm {
                    return Err(Mismatch::new(
                        "watermark-regression",
                        exec,
                        format!("watermark went {wm} -> {}", t.raw()),
                    ));
                }
                wm = t.raw();
            }
            StreamElement::Event(e) if e.ts.raw() < wm => late += 1,
            _ => {}
        }
    }
    let stats = s.buffer_stats();
    if stats.late_passed != late {
        return Err(Mismatch::new(
            "late-accounting",
            exec,
            format!(
                "strategy reports {} late passes, output stream shows {late}",
                stats.late_passed
            ),
        ));
    }
    if stats.released + stats.late_passed != n {
        return Err(Mismatch::new(
            "buffer-accounting",
            exec,
            format!(
                "released {} + late {} != {n}",
                stats.released, stats.late_passed
            ),
        ));
    }
    Ok(())
}

/// A result's `(end, start, key)` identity, the key rendered as text.
fn result_id(r: &WindowResult) -> (u64, u64, String) {
    (r.window.end.raw(), r.window.start.raw(), r.key.to_string())
}

/// Produced results vs. oracle truth. Every produced window must exist in
/// the oracle with `count <= truth`; any fully-seen window must carry the
/// oracle's exact values. With `expect_complete`, the run must additionally
/// have produced every oracle window in full.
fn check_against_oracle(
    results: &[WindowResult],
    naive: &[WindowResult],
    aggs: &[AggregateSpec],
    expect_complete: bool,
    exec: &str,
) -> Result<u64, Mismatch> {
    let truth: HashMap<(u64, u64, String), &WindowResult> =
        naive.iter().map(|w| (result_id(w), w)).collect();
    let mut seen = 0u64;
    let mut full = 0u64;
    let mut emitted: HashSet<(u64, u64, String)> = HashSet::new();
    for r in results {
        let id = result_id(r);
        // Every execution here runs LatePolicy::Drop, under which a (window,
        // key) pair is final on first emission: a second result for it — as
        // a revision or as revision 0 again — means the operator re-opened a
        // closed window (e.g. an off-by-one in the close comparison).
        if r.revision != 0 || !emitted.insert(id.clone()) {
            return Err(Mismatch::new(
                "duplicate-emission",
                exec,
                format!("window {id:?} emitted again (revision {})", r.revision),
            ));
        }
        let Some(nw) = truth.get(&id) else {
            return Err(Mismatch::new(
                "phantom-window",
                exec,
                format!("produced window {id:?} the oracle never saw"),
            ));
        };
        seen += 1;
        if r.count > nw.count {
            return Err(Mismatch::new(
                "overcount",
                exec,
                format!(
                    "window {id:?}: produced count {} > true count {}",
                    r.count, nw.count
                ),
            ));
        }
        if r.count < nw.count {
            if expect_complete {
                return Err(Mismatch::new(
                    "undercount",
                    exec,
                    format!(
                        "window {id:?}: produced count {} < true count {}",
                        r.count, nw.count
                    ),
                ));
            }
            continue; // lossy run; quality agreement covers the accounting
        }
        for (i, spec) in aggs.iter().enumerate() {
            let got = r.aggregates.get(i).cloned().unwrap_or(Value::Null);
            if !values_close(&got, &nw.aggregates[i]) {
                return Err(Mismatch::new(
                    "oracle-values",
                    exec,
                    format!(
                        "window {id:?} aggregate {} ({}): engine {got:?} != oracle {:?}",
                        i, spec.kind, nw.aggregates[i]
                    ),
                ));
            }
        }
        full += 1;
    }
    if expect_complete && (seen as usize != naive.len() || full as usize != naive.len()) {
        return Err(Mismatch::new(
            "missing-windows",
            exec,
            format!(
                "expected all {} oracle windows complete, saw {seen} ({full} complete)",
                naive.len()
            ),
        ));
    }
    Ok(seen)
}

/// The reported [`QualityReport`] must re-derive exactly from oracle truth
/// counts and the run's own produced counts.
fn check_quality_agreement(
    out: &RunOutput,
    naive: &[WindowResult],
    exec: &str,
) -> Result<(), Mismatch> {
    if out.quality.windows_total as usize != naive.len() {
        return Err(Mismatch::new(
            "oracle-window-count",
            exec,
            format!(
                "report says {} true windows, naive oracle says {}",
                out.quality.windows_total,
                naive.len()
            ),
        ));
    }
    if out.quality.per_window.len() != naive.len() {
        return Err(Mismatch::new(
            "quality-window-count",
            exec,
            format!(
                "report scores {} windows, oracle has {}",
                out.quality.per_window.len(),
                naive.len()
            ),
        ));
    }
    let mut produced: HashMap<(u64, u64, String), u64> = HashMap::new();
    for r in &out.results {
        if r.revision == 0 {
            produced.insert(result_id(r), r.count);
        }
    }
    let truth: HashMap<(u64, u64, String), u64> =
        naive.iter().map(|w| (result_id(w), w.count)).collect();
    let mut mean = 0.0;
    let mut missing = 0u64;
    for w in &out.quality.per_window {
        let id = (w.window.end.raw(), w.window.start.raw(), w.key.clone());
        let Some(&true_count) = truth.get(&id) else {
            return Err(Mismatch::new(
                "quality-unknown-window",
                exec,
                format!("report scores window {id:?} the oracle never saw"),
            ));
        };
        let expect = match produced.get(&id) {
            Some(&c) => (c as f64 / true_count.max(1) as f64).min(1.0),
            None => 0.0,
        };
        if (w.completeness - expect).abs() > 1e-9 {
            return Err(Mismatch::new(
                "completeness-disagreement",
                exec,
                format!(
                    "window {id:?}: reported completeness {} but truth count {true_count} and produced {:?} imply {expect}",
                    w.completeness,
                    produced.get(&id)
                ),
            ));
        }
        if !produced.contains_key(&id) {
            missing += 1;
        }
        mean += expect;
    }
    mean /= naive.len().max(1) as f64;
    if naive.is_empty() {
        mean = 1.0;
    }
    if (out.quality.mean_completeness - mean).abs() > 1e-9 {
        return Err(Mismatch::new(
            "mean-completeness-disagreement",
            exec,
            format!(
                "reported mean completeness {} vs oracle-derived {mean}",
                out.quality.mean_completeness
            ),
        ));
    }
    if out.quality.windows_missing != missing {
        return Err(Mismatch::new(
            "missing-count-disagreement",
            exec,
            format!(
                "reported {} missing windows, oracle-derived {missing}",
                out.quality.windows_missing
            ),
        ));
    }
    Ok(())
}

/// A [`Session`] over the case's strategy and query, fed every event, must
/// deliver the sequential run's results in order, with its window counters
/// and its mean latency (to 1e-9 relative: a running mean against the
/// batch's summary of its samples).
fn check_session_replay(case: &SimCase, seq: &RunOutput) -> Result<(), Mismatch> {
    let mut session = Session::new(case.strategy.build());
    let handle = (session.register(&case.query()))
        .map_err(|e| Mismatch::new("execute-error", "session", e.to_string()))?;
    session.push_batch(case.events.iter().cloned());
    session.finish();
    let stats = handle.stats();
    let (got, want) = (stats.mean_latency, seq.latency.mean);
    let counters = |w: &WindowOpStats| (w.accepted, w.late_dropped, w.windows_emitted);
    let what = if handle.poll() != seq.results {
        "results"
    } else if counters(&stats.window) != counters(&seq.window_stats) {
        "window counters"
    } else if (got - want).abs() > 1e-9 * got.abs().max(want.abs()) {
        "mean latency"
    } else {
        return Ok(());
    };
    let detail = format!("{what} differ from the sequential run's");
    Err(Mismatch::new("session-replay", "session", detail))
}

/// One parallel run must equal the sequential baseline in results (as a
/// sequence: under `Drop` the sequential operator emits in the merge's
/// `(end, start, key)` order), quality, accounting, and latency.
fn check_parallel_equivalence(
    case: &SimCase,
    seq: &RunOutput,
    shards: usize,
) -> Result<(), Mismatch> {
    let exec = format!("parallel-{shards}");
    let par = run(
        case,
        &ExecOptions::parallel(ParallelConfig::new(shards)),
        &exec,
    )?;
    if par.results != seq.results {
        let at = par
            .results
            .iter()
            .zip(&seq.results)
            .take_while(|(a, b)| a == b)
            .count();
        return Err(Mismatch::new(
            "parallel-results",
            &exec,
            format!(
                "result sequence differs from sequential at position {at} ({} vs {} results)",
                par.results.len(),
                seq.results.len()
            ),
        ));
    }
    if par.quality != seq.quality {
        return Err(Mismatch::new(
            "parallel-quality",
            &exec,
            "quality report differs from sequential".to_string(),
        ));
    }
    let acc = (
        par.window_stats.accepted,
        par.window_stats.late_dropped,
        par.buffer.released,
        par.buffer.late_passed,
    );
    let seq_acc = (
        seq.window_stats.accepted,
        seq.window_stats.late_dropped,
        seq.buffer.released,
        seq.buffer.late_passed,
    );
    if acc != seq_acc {
        return Err(Mismatch::new(
            "parallel-accounting",
            &exec,
            format!("accounting {acc:?} differs from sequential {seq_acc:?}"),
        ));
    }
    if (par.latency.mean - seq.latency.mean).abs() > 1e-6 {
        return Err(Mismatch::new(
            "parallel-latency",
            &exec,
            format!(
                "latency mean {} differs from sequential {}",
                par.latency.mean, seq.latency.mean
            ),
        ));
    }
    Ok(())
}

/// Shape sharing: `execute_shared(&[q, q, q'])`, where `q'` is the case's
/// query at another window length — two operators, three subscribers — must
/// hand every subscriber the results, quality and latency of its solo
/// `execute` (`seq` for `q`). Returns the executions it ran.
fn check_shared_subscribers(case: &SimCase, seq: &RunOutput) -> Result<u64, Mismatch> {
    let exec = "shared-3q";
    let query = case.query();
    let mut longer = query.clone();
    longer.window = match query.window {
        WindowSpec::Tumbling { length } => WindowSpec::tumbling(length.raw() * 2),
        WindowSpec::Sliding { length, slide } => {
            WindowSpec::sliding(length.raw() + slide.raw(), slide)
        }
    };
    let mut s = case.strategy.build();
    let shared = execute_shared(
        &case.events,
        s.as_mut(),
        &[query.clone(), query, longer.clone()],
        &ExecOptions::sequential(),
    )
    .map_err(|e| Mismatch::new("execute-error", exec, e.to_string()))?;
    let mut s = case.strategy.build();
    let longer_solo = execute(
        &case.events,
        s.as_mut(),
        &longer,
        &ExecOptions::sequential(),
    )
    .map_err(|e| Mismatch::new("execute-error", "sequential-longer", e.to_string()))?;
    for (i, solo) in [seq, seq, &longer_solo].into_iter().enumerate() {
        let sub = &shared.per_query[i];
        let what = if sub.results != solo.results {
            "results"
        } else if sub.quality != solo.quality {
            "quality report"
        } else if sub.latency.mean.to_bits() != solo.latency.mean.to_bits() {
            "latency mean"
        } else {
            continue;
        };
        return Err(Mismatch::new(
            "shared-subscriber",
            exec,
            format!("subscriber {i}: {what} differ from its solo run"),
        ));
    }
    Ok(2)
}

/// Registry counters and the span record stream (per stage) of a 2-shard
/// run must reconcile with the run's own accounting.
fn check_telemetry(case: &SimCase) -> Result<(), Mismatch> {
    let exec = "telemetry-2";
    let reg = Registry::new();
    // A ring that cannot wrap, so every record is still there to count.
    let spans = SpanRecorder::new(usize::MAX);
    let opts = ExecOptions::parallel(ParallelConfig::new(2))
        .with_telemetry(&reg)
        .with_spans(&spans);
    let out = run(case, &opts, exec)?;
    let snap = reg.snapshot();
    let recorded = spans.spans();
    let records = |stage: Stage| recorded.iter().filter(move |s| s.stage == stage);
    let n = case.events.len() as u64;
    let checks = [
        ("quill.run.events", snap.counter("quill.run.events"), n),
        (
            "quill.run.results",
            snap.counter("quill.run.results"),
            out.results.len() as u64,
        ),
        (
            "quill.run.late_dropped",
            snap.counter("quill.run.late_dropped"),
            out.window_stats.late_dropped,
        ),
        // The record stream reconciles per stage with the counters.
        ("spans dropped", spans.dropped(), 0),
        (
            "window_finalize records",
            records(Stage::WindowFinalize).count() as u64,
            out.window_stats.windows_emitted,
        ),
        (
            "late_drop records",
            records(Stage::LateDrop).count() as u64,
            out.window_stats.late_dropped,
        ),
        (
            "late_arrival records",
            records(Stage::LateArrival).count() as u64,
            out.buffer.late_passed,
        ),
        (
            "sum(buffer_residency released)",
            records(Stage::BufferResidency).map(|s| s.detail[0]).sum(),
            out.buffer.released,
        ),
    ];
    for (name, got, want) in checks {
        if got != want {
            return Err(Mismatch::new(
                "telemetry-reconciliation",
                exec,
                format!("{name} = {got}, expected {want}"),
            ));
        }
    }
    Ok(())
}

/// With K above the disorder bound, results must be exactly the oracle's and
/// must not depend on the arrival permutation.
fn check_permutation_invariance(case: &SimCase) -> Result<u64, Mismatch> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut shuffled = case.events.clone();
    let mut rng = StdRng::seed_from_u64(case.seed.wrapping_mul(0x9e37_79b9).wrapping_add(17));
    for i in (1..shuffled.len()).rev() {
        let j = rng.gen_range(0..=i);
        shuffled.swap(i, j);
    }
    quill_gen::reseq(&mut shuffled);

    let d = max_disorder(&case.events).max(max_disorder(&shuffled));
    let query = case.query();
    let mut execs = 0u64;
    let mut run_full = |events: &[Event], exec: &str| -> Result<RunOutput, Mismatch> {
        execs += 1;
        let mut s = FixedKSlack::new(d + 1);
        let out = execute(events, &mut s, &query, &ExecOptions::sequential())
            .map_err(|e| Mismatch::new("execute-error", exec, e.to_string()))?;
        if out.buffer.late_passed != 0 {
            return Err(Mismatch::new(
                "permutation-late",
                exec,
                format!(
                    "K={} exceeds the disorder bound {d} yet {} events passed late",
                    d + 1,
                    out.buffer.late_passed
                ),
            ));
        }
        Ok(out)
    };
    let a = run_full(&case.events, "permutation-original")?;
    let b = run_full(&shuffled, "permutation-shuffled")?;
    for (out, events, exec) in [
        (&a, &case.events, "permutation-original"),
        (&b, &shuffled, "permutation-shuffled"),
    ] {
        let naive = oracle_results(events, case.window, &case.aggregates, case.key_field);
        check_against_oracle(&out.results, &naive, &case.aggregates, true, exec)?;
    }
    let counts = |out: &RunOutput| -> Vec<(u64, u64, String, u64)> {
        let mut v: Vec<_> = out
            .results
            .iter()
            .map(|r| {
                (
                    r.window.end.raw(),
                    r.window.start.raw(),
                    r.key.to_string(),
                    r.count,
                )
            })
            .collect();
        v.sort();
        v
    };
    if counts(&a) != counts(&b) {
        return Err(Mismatch::new(
            "permutation-counts",
            "permutation",
            "per-window counts differ between the two arrival orders".to_string(),
        ));
    }
    Ok(execs)
}

/// Run the full battery for one case.
///
/// # Errors
/// Returns the first [`Mismatch`] found.
pub fn check_case(case: &SimCase) -> Result<CaseStats, Mismatch> {
    let mut stats = CaseStats::default();
    let naive = oracle_results(&case.events, case.window, &case.aggregates, case.key_field);
    let n = case.events.len() as u64;

    check_staging(case)?;

    let seq = run(case, &ExecOptions::sequential(), "sequential")?;
    stats.executions += 1;
    if seq.events != n {
        return Err(Mismatch::new(
            "event-count",
            "sequential",
            format!("run saw {} events, input has {n}", seq.events),
        ));
    }
    if seq.window_stats.accepted + seq.window_stats.late_dropped != n {
        return Err(Mismatch::new(
            "operator-accounting",
            "sequential",
            format!(
                "accepted {} + late_dropped {} != {n}",
                seq.window_stats.accepted, seq.window_stats.late_dropped
            ),
        ));
    }
    stats.windows_checked +=
        check_against_oracle(&seq.results, &naive, &case.aggregates, false, "sequential")?;
    check_quality_agreement(&seq, &naive, "sequential")?;

    check_session_replay(case, &seq)?;
    stats.executions += 1;

    // Parallel runs finalize windows shard-locally (each shard inserts its
    // own keys' events on arrival and finalizes their windows), one thread
    // per shard.
    for shards in [1usize, 2, 4, 8] {
        check_parallel_equivalence(case, &seq, shards)?;
        stats.executions += 1;
    }

    stats.executions += check_shared_subscribers(case, &seq)?;

    check_telemetry(case)?;
    stats.executions += 1;

    if case.strategy == StrategySpec::Oracle {
        // Full buffering must reproduce the oracle exactly...
        check_against_oracle(
            &seq.results,
            &naive,
            &case.aggregates,
            true,
            "oracle-buffer",
        )?;
        if seq.quality.mean_completeness < 1.0 - 1e-9 {
            return Err(Mismatch::new(
                "oracle-completeness",
                "oracle-buffer",
                format!("mean completeness {}", seq.quality.mean_completeness),
            ));
        }
        // ...and the strategy-independent permutation law is checked once
        // per suite, on this case.
        stats.executions += check_permutation_invariance(case)?;
    }
    Ok(stats)
}

/// Greedily shrink a failing case: drop event chunks (halving chunk sizes),
/// then drop aggregates, keeping every change that still fails. Bounded, so
/// pathological cases cannot stall the suite.
pub fn shrink_case(mut case: SimCase) -> SimCase {
    let mut budget = 200usize;
    let mut chunk = (case.events.len() / 2).max(1);
    while chunk >= 1 && budget > 0 {
        let mut i = 0;
        while i + chunk <= case.events.len() && case.events.len() > 1 && budget > 0 {
            budget -= 1;
            let mut candidate = case.clone();
            candidate.events.drain(i..i + chunk);
            quill_gen::reseq(&mut candidate.events);
            if check_case(&candidate).is_err() {
                case = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    while case.aggregates.len() > 1 && budget > 0 {
        let mut shrunk = None;
        for i in 0..case.aggregates.len() {
            budget = budget.saturating_sub(1);
            let mut candidate = case.clone();
            candidate.aggregates.remove(i);
            if check_case(&candidate).is_err() {
                shrunk = Some(candidate);
                break;
            }
        }
        match shrunk {
            Some(c) => case = c,
            None => break,
        }
    }
    case
}

/// Check every case of `seed`'s suite; on the first failure, shrink it,
/// write a reproducer under `failures_dir`, and return the path alongside
/// the (post-shrink) mismatch.
///
/// # Errors
/// Returns the reproducer path and the mismatch it captures.
pub fn run_seed(seed: u64, failures_dir: &Path) -> Result<CaseStats, (PathBuf, Mismatch)> {
    let mut total = CaseStats::default();
    for case in sample_suite(seed) {
        match check_case(&case) {
            Ok(s) => total.absorb(s),
            Err(first) => {
                let small = shrink_case(case);
                let mismatch = check_case(&small).err().unwrap_or(first);
                let path = crate::repro::write_reproducer(failures_dir, &small, &mismatch);
                return Err((path, mismatch));
            }
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::aggregate::{AggregateKind, AggregateSpec};

    fn tiny_case(strategy: StrategySpec) -> SimCase {
        SimCase {
            seed: 0,
            window: WindowSpec::tumbling(50u64),
            aggregates: vec![
                AggregateSpec::new(AggregateKind::Sum, 1, "s"),
                AggregateSpec::new(AggregateKind::Median, 1, "m"),
            ],
            key_field: Some(0),
            strategy,
            events: (0..60u64)
                .map(|i| {
                    let ts = i * 7 % 130;
                    Event::new(
                        ts,
                        i,
                        Row::new([
                            Value::Int((i % 3) as i64),
                            Value::Float(ts as f64),
                            Value::Float(-(ts as f64)),
                        ]),
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn hand_built_oracle_case_passes_the_battery() {
        let mut case = tiny_case(StrategySpec::Oracle);
        quill_gen::reseq(&mut case.events);
        let stats = check_case(&case).unwrap_or_else(|m| panic!("unexpected mismatch: {m}"));
        assert!(stats.executions >= 8);
        assert!(stats.windows_checked > 0);
    }

    #[test]
    fn hand_built_lossy_case_passes_the_battery() {
        let mut case = tiny_case(StrategySpec::Fixed(20));
        quill_gen::reseq(&mut case.events);
        check_case(&case).unwrap_or_else(|m| panic!("unexpected mismatch: {m}"));
    }

    #[test]
    fn catastrophic_cancellation_case_passes_the_battery() {
        // The one targeted regression for float combine nesting (DESIGN.md
        // §17.4): on a stream engineered for catastrophic cancellation
        // (1e16-magnitude values that mostly cancel) the window state's
        // tree-shaped Sum/Variance combine rounds differently from the
        // oracle's sequential fold, while Min/Median/First must stay
        // bit-exact. The battery must pass: the oracle comparison's
        // tolerance absorbs the nesting difference, and every executor leg
        // still has to reproduce the sequential run bit for bit.
        let vals = [1.0e16, 7.25, -1.0e16, 0.125, 3.5, -0.375, 1.0e12, -2.0];
        let mut case = SimCase {
            seed: 0,
            window: WindowSpec::sliding(40u64, 10u64),
            aggregates: vec![
                AggregateSpec::new(AggregateKind::Sum, 1, "s"),
                AggregateSpec::new(AggregateKind::Variance, 1, "v"),
                AggregateSpec::new(AggregateKind::Min, 1, "lo"),
                AggregateSpec::new(AggregateKind::Median, 1, "med"),
                AggregateSpec::new(AggregateKind::First, 1, "f"),
            ],
            key_field: Some(0),
            strategy: StrategySpec::Fixed(60),
            events: (0..240u64)
                .map(|i| {
                    let base = (i / 4) * 10;
                    let ts = if i % 5 == 2 {
                        base.saturating_sub(45)
                    } else {
                        base + i % 7
                    };
                    Event::new(
                        ts,
                        i,
                        Row::new([
                            Value::Int((i % 3) as i64),
                            Value::Float(vals[(i % 8) as usize] * (1.0 + (i % 9) as f64 * 1e-6)),
                            Value::Float((i % 10) as f64),
                        ]),
                    )
                })
                .collect(),
        };
        quill_gen::reseq(&mut case.events);
        check_case(&case).unwrap_or_else(|m| panic!("unexpected mismatch: {m}"));
    }

    #[test]
    fn corrupted_events_are_caught_and_shrunk() {
        // Duplicate seqs break the staging conservation law.
        let mut case = tiny_case(StrategySpec::Oracle);
        quill_gen::reseq(&mut case.events);
        let last = case.events.len() - 1;
        case.events[last].seq = 0;
        let err = check_case(&case).expect_err("corrupt case must fail");
        assert_eq!(err.check, "conservation");
        let small = shrink_case(case);
        assert!(check_case(&small).is_err());
        assert!(small.events.len() <= 60);
    }

    #[test]
    fn full_seed_run_is_clean() {
        let dir = std::env::temp_dir().join("quill-sim-selftest");
        let stats = run_seed(3, &dir)
            .unwrap_or_else(|(p, m)| panic!("seed 3 failed: {m} (reproducer at {})", p.display()));
        assert!(stats.executions > 0);
    }
}
