//! End-to-end: generated workloads through `execute` — disorder control,
//! windowed aggregation and quality scoring, across all crates. Any input
//! preprocessing (filtering, rescaling) is done on the events before a run.

use quill_core::prelude::*;
use quill_gen::workload::standard_suite;
use quill_integration::{mean_query, rich_query, uniform_disordered};

#[test]
fn oracle_is_exact_on_every_standard_workload() {
    for w in standard_suite() {
        let stream = (w.generate)(5_000, 101);
        let query = quill_core::runner::QuerySpec::new(
            WindowSpec::tumbling(1_000u64),
            vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
            None,
        );
        let mut s = OracleBuffer::new();
        let out = execute(&stream.events, &mut s, &query, &ExecOptions::sequential())
            .expect("valid query");
        assert_eq!(out.quality.windows_missing, 0, "{}", w.name);
        assert_eq!(out.quality.mean_completeness, 1.0, "{}", w.name);
    }
}

#[test]
fn aq_meets_target_on_every_standard_workload() {
    // Tuple-level completeness within a small tolerance of the target on
    // every workload, including the bursty ones.
    for w in standard_suite() {
        let stream = (w.generate)(30_000, 202);
        let q = 0.95;
        let mut aq = AqKSlack::for_completeness(q);
        let out = execute(
            &stream.events,
            &mut aq,
            &mean_query(1_000),
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        assert!(
            out.quality.mean_completeness >= q - 0.05,
            "{}: completeness {} far below target {q}",
            w.name,
            out.quality.mean_completeness
        );
    }
}

#[test]
fn aq_latency_sits_between_drop_and_mp() {
    let events = uniform_disordered(20_000, 10, 400, 7);
    let query = mean_query(500);
    let mut drop = DropAll::new();
    let mut aq = AqKSlack::for_completeness(0.95);
    let mut mp = MpKSlack::new();
    let drop_out =
        execute(&events, &mut drop, &query, &ExecOptions::sequential()).expect("valid query");
    let aq_out =
        execute(&events, &mut aq, &query, &ExecOptions::sequential()).expect("valid query");
    let mp_out =
        execute(&events, &mut mp, &query, &ExecOptions::sequential()).expect("valid query");
    assert!(drop_out.latency.mean <= aq_out.latency.mean);
    assert!(aq_out.latency.mean <= mp_out.latency.mean);
    assert!(drop_out.quality.mean_completeness <= aq_out.quality.mean_completeness + 1e-9);
}

#[test]
fn rich_queries_run_under_all_strategies() {
    let events = uniform_disordered(5_000, 10, 200, 8);
    let query = rich_query(500);
    for spec in ["dropall", "fixed:100", "mp", "aq:0.9", "oracle"] {
        let mut s = StrategySpec::parse(spec).expect("parses").build();
        let out =
            execute(&events, s.as_mut(), &query, &ExecOptions::sequential()).expect("valid query");
        assert!(out.quality.windows_total > 0, "{}", out.strategy);
        // Every emitted aggregate row has all six outputs.
        for r in &out.results {
            assert_eq!(r.aggregates.len(), 6, "{}", out.strategy);
        }
    }
}

#[test]
fn full_pipeline_with_preprocessing_stages() {
    // Filter + halve the input, then run a max query over it under AQ.
    let events: Vec<Event> = uniform_disordered(10_000, 10, 300, 9)
        .into_iter()
        .filter(|e| e.row.f64(0).unwrap_or(0.0) >= 100.0)
        .map(|mut e| {
            e.row = Row::new([Value::Float(e.row.f64(0).unwrap_or(0.0) / 2.0)]);
            e
        })
        .collect();
    let query = QuerySpec::new(
        WindowSpec::tumbling(1_000u64),
        vec![AggregateSpec::new(AggregateKind::Max, 0, "max")],
        None,
    );
    let mut strategy = AqKSlack::for_completeness(0.95);
    let results = execute(&events, &mut strategy, &query, &ExecOptions::sequential())
        .expect("valid query")
        .results;
    assert!(!results.is_empty());
    // Max per window is (window_end - 10) / 2 for complete windows.
    for r in results.iter().take(5) {
        let expect = (r.window.end.raw() as f64 - 10.0) / 2.0;
        let got = r.aggregates[0].as_f64().expect("max is numeric");
        assert!(
            (got - expect).abs() < 200.0,
            "window {}: max {got} vs expected ~{expect}",
            r.window
        );
    }
}

#[test]
fn single_threaded_and_parallel_executors_agree_end_to_end() {
    // One strategy, staged once per run: the sequential core and every
    // shard insert events in arrival order, and a shard sees only its keys
    // and fewer watermarks. Float aggregates over sliding windows make any
    // difference in fold order visible.
    let stream = quill_gen::workload::synthetic::exponential(5_000, 10, 80.0, 33);
    let query = QuerySpec::new(
        WindowSpec::sliding(500u64, 100u64),
        vec![
            AggregateSpec::new(AggregateKind::Mean, 0, "mean"),
            AggregateSpec::new(AggregateKind::StdDev, 0, "sd"),
        ],
        None,
    );
    let run = |opts: ExecOptions| {
        let mut strategy = FixedKSlack::new(300u64);
        execute(&stream.events, &mut strategy, &query, &opts).expect("valid query")
    };
    let seq = run(ExecOptions::sequential());
    let par = run(ExecOptions::parallel(ParallelConfig::new(4)));
    assert!(!seq.results.is_empty());
    assert_eq!(seq.results, par.results);
    assert_eq!(seq.quality, par.quality);
}
