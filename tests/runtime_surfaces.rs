//! Coverage for runtime surfaces the other integration suites touch only
//! incidentally: the keyed data-parallel executor composed with strategies,
//! report rendering of real experiment output, and latency-recorder
//! consistency between its exact and histogram paths.

use quill_core::prelude::*;
use quill_metrics::{LatencyRecorder, Table};

#[test]
fn keyed_parallel_composes_with_aq_strategy() {
    let stream = quill_gen::workload::soccer::generate(
        &quill_gen::workload::soccer::SoccerConfig::default(),
        8_000,
        6,
    );
    let mut strategy = AqKSlack::for_completeness(0.97);
    let mut elements = Vec::new();
    for e in &stream.events {
        strategy.on_event(e.clone(), &mut elements);
    }
    strategy.finish(&mut elements);

    let make_op = |_shard| {
        WindowAggregateOp::new(
            WindowSpec::tumbling(5_000u64),
            vec![AggregateSpec::new(
                AggregateKind::Mean,
                quill_gen::workload::soccer::SPEED_FIELD,
                "speed",
            )],
            Some(quill_gen::workload::soccer::PLAYER_FIELD),
            LatePolicy::Drop,
        )
    };
    let (results, _) = run_keyed_parallel(
        elements,
        quill_gen::workload::soccer::PLAYER_FIELD,
        ParallelConfig::new(3),
        &Registry::disabled(),
        &SpanRecorder::disabled(),
        make_op,
    )
    .expect("parallel run");
    // Every player represented; counts sum close to the accepted total.
    let players: std::collections::HashSet<String> =
        results.iter().map(|r| r.key.to_string()).collect();
    assert_eq!(players.len(), 16);
    let total: u64 = results.iter().map(|r| r.count).sum();
    assert!(total >= 7_500, "lost too many events: {total}");
}

#[test]
fn report_rendering_roundtrips_experiment_style_tables() {
    let mut t = Table::new("demo", ["workload", "latency", "quality %"]);
    t.push_row(["netmon", "474.5", "97.91"]);
    t.push_row(["with,comma", "1.0", "2.0"]);
    let md = t.to_markdown();
    assert!(md.contains("| netmon"));
    let csv = t.to_csv();
    assert!(csv.contains("\"with,comma\""));
    // CSV line count = header + rows.
    assert_eq!(csv.lines().count(), 3);
}

#[test]
fn latency_recorder_exact_and_histogram_paths_agree() {
    let mut exact = LatencyRecorder::with_samples();
    let mut hist = LatencyRecorder::new();
    let mut x = 1u64;
    for i in 0..5_000u64 {
        let v = (x % 10_000) + 1;
        exact.record(TimeDelta(v));
        hist.record(TimeDelta(v));
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    let a = exact.summary();
    let b = hist.summary();
    assert_eq!(a.count, b.count);
    assert!(
        (a.mean - b.mean).abs() < 1e-9,
        "means must be exact on both paths"
    );
    // Histogram percentiles within its precision bound of exact ones.
    for (pa, pb) in [(a.p50, b.p50), (a.p90, b.p90), (a.p99, b.p99)] {
        assert!(
            (pa - pb).abs() / pa.max(1.0) < 0.02,
            "percentile drift: exact {pa} vs histogram {pb}"
        );
    }
}

#[test]
fn session_latency_quantiles_are_queryable_midstream() {
    let stream = quill_gen::workload::synthetic::exponential(5_000, 10, 60.0, 8);
    let query = QuerySpec::new(
        WindowSpec::tumbling(500u64),
        vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
        None,
    );
    let mut session = Session::new(Box::new(AqKSlack::for_completeness(0.9)));
    let handle = session.register(&query).expect("valid");
    for e in &stream.events {
        session.push(e.clone());
    }
    let p50 = handle.latency_quantile(0.5);
    let p99 = handle.latency_quantile(0.99);
    assert!(p50.is_some() && p99.is_some());
    assert!(p99.unwrap() >= p50.unwrap());
    session.finish();
}
