//! Telemetry-instrumented execution, end to end: an enabled registry on a
//! keyed parallel run must reconcile with the run's own accounting, and the
//! exporters must round-trip.

use quill_core::prelude::*;
use quill_telemetry::export::{parse_prometheus, to_json_line, to_prometheus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: u64 = 4_000;

fn keyed_events(n: u64, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals: Vec<(u64, u64, i64)> = (0..n)
        .map(|i| (i * 5 + rng.gen_range(0..150), i * 5, (i % 8) as i64))
        .collect();
    arrivals.sort();
    arrivals
        .into_iter()
        .enumerate()
        .map(|(seq, (_, ts, k))| {
            Event::new(
                ts,
                seq as u64,
                Row::new([Value::Int(k), Value::Float((ts % 41) as f64)]),
            )
        })
        .collect()
}

fn keyed_query() -> QuerySpec {
    QuerySpec::builder()
        .window(WindowSpec::sliding(200u64, 100u64))
        .aggregate(AggregateKind::Sum, 1, "sum")
        .aggregate(AggregateKind::Count, 1, "n")
        .key_field(0)
        .build()
        .expect("valid query spec")
}

/// Run the keyed query in parallel with `shards` shards and an enabled
/// registry; return the output and the final snapshot.
fn instrumented_parallel_run(shards: usize) -> (RunOutput, Snapshot) {
    let events = keyed_events(N, 42);
    let telemetry = Registry::new();
    let mut strategy = FixedKSlack::new(160u64);
    let out = execute(
        &events,
        &mut strategy,
        &keyed_query(),
        &ExecOptions::parallel(ParallelConfig::new(shards))
            .with_telemetry(&telemetry)
            .with_snapshot_every(1_000),
    )
    .expect("valid query");
    let last = out.snapshots.last().expect("final snapshot").clone();
    (out, last)
}

#[test]
fn shard_counters_reconcile_with_run_accounting() {
    for shards in [1usize, 4] {
        let (out, snap) = instrumented_parallel_run(shards);
        assert_eq!(out.events, N);
        assert_eq!(snap.counter("quill.run.events"), N);
        // Buffer accounting: everything inserted was released (watermark or
        // flush) or passed through late.
        assert_eq!(
            snap.counter("quill.buffer.released") + snap.counter("quill.buffer.late_passed"),
            N
        );
        assert_eq!(
            snap.counter("quill.buffer.late_passed"),
            out.buffer.late_passed
        );
        // Late drops recorded by telemetry match the window operator's and
        // the buffer's view of quality loss.
        assert_eq!(
            snap.counter("quill.run.late_dropped"),
            out.window_stats.late_dropped
        );
        assert_eq!(
            out.window_stats.accepted + out.window_stats.late_dropped,
            N,
            "window accounting must cover every event"
        );
        // Results: one counter bump per emitted window result.
        assert_eq!(
            snap.counter("quill.run.results"),
            out.results.len() as u64,
            "results at {shards} shards"
        );
    }
}

#[test]
fn periodic_snapshots_are_ordered_and_monotone() {
    let (_, _) = instrumented_parallel_run(4);
    let events = keyed_events(N, 43);
    let telemetry = Registry::new();
    let mut strategy = FixedKSlack::new(160u64);
    let out = execute(
        &events,
        &mut strategy,
        &keyed_query(),
        &ExecOptions::parallel(ParallelConfig::new(4))
            .with_telemetry(&telemetry)
            .with_snapshot_every(500),
    )
    .expect("valid query");
    assert!(out.snapshots.len() >= 8, "got {}", out.snapshots.len());
    for pair in out.snapshots.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
        assert!(pair[0].at_events <= pair[1].at_events);
        assert!(
            pair[0].counter("quill.buffer.inserted") <= pair[1].counter("quill.buffer.inserted"),
            "counters must be monotone across snapshots"
        );
    }
    // Delta between consecutive snapshots isolates the interval's work.
    let delta = out.snapshots[1].delta_since(&out.snapshots[0]);
    assert_eq!(
        delta.counter("quill.run.events"),
        out.snapshots[1].counter("quill.run.events") - out.snapshots[0].counter("quill.run.events")
    );
}

#[test]
fn prometheus_export_round_trips() {
    let (out, snap) = instrumented_parallel_run(4);
    let text = to_prometheus(&snap);
    let samples = parse_prometheus(&text).expect("exporter output must parse");
    assert!(!samples.is_empty());

    // Counters survive the trip exactly.
    let find = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .unwrap_or_else(|| panic!("sample {name} missing"))
            .value
    };
    assert_eq!(find("quill_run_events") as u64, N);
    assert_eq!(find("quill_run_results") as u64, out.results.len() as u64);
    // Histogram summaries appear with quantile labels.
    assert!(
        samples.iter().any(|s| s.name == "quill_run_latency"
            && s.labels.iter().any(|(k, v)| k == "quantile" && v == "0.9")),
        "latency summary must export a 0.9 quantile sample"
    );
    // JSON-lines export is one object per snapshot, non-empty.
    let line = to_json_line(&snap);
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(line.contains("\"quill.run.events\""));
    assert!(!line.contains('\n'));
}

#[test]
fn disabled_registry_run_is_observably_silent() {
    let events = keyed_events(1_000, 44);
    let mut strategy = FixedKSlack::new(160u64);
    let out = execute(
        &events,
        &mut strategy,
        &keyed_query(),
        &ExecOptions::parallel(ParallelConfig::new(4)).with_snapshot_every(100),
    )
    .expect("valid query");
    assert!(out.snapshots.is_empty());
    // The disabled registry itself reports nothing.
    let reg = Registry::disabled();
    assert!(!reg.is_enabled());
    let snap = reg.snapshot();
    assert_eq!(snap.counter("quill.run.events"), 0);
}
