//! Provenance acceptance scenario: a seeded quality violation whose
//! post-mortem names the *actual* late tuples and the controller K decision
//! that was in force at the finalize — round-tripped through the JSONL
//! persistence layer and rendered by the `quill-inspect` report backend.
//!
//! The stream is constructed so every causal link is known in advance:
//!
//! * phase A delivers ts 0, 10, …, 190 in order (K stays 0, watermark 190);
//! * straggler L1 (ts=95 at clock 190) makes MP-K-slack ratchet K 0→95 and
//!   is dropped from already-final `[0, 100)`;
//! * phase B delivers ts 200, …, 390 in order, finalizing `[100, 200)`
//!   with 10 tuples while the ratcheted K=95 is in force;
//! * straggler L2 (ts=150 at clock 390, 145 behind the 295 watermark)
//!   ratchets K 95→240 and is dropped from already-final `[100, 200)`.
//!
//! `[100, 200)` therefore achieves 10/11 completeness against a 0.95
//! target, and its post-mortem must name L2's late arrival and the 0→95
//! ratchet (the last K decision *before* the finalize — not the 95→240
//! one it triggered afterwards), on the sequential run and on the staged
//! keyed-parallel one alike.

use quill_bench::inspect::render_report;
use quill_core::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::prelude::{Row, Value, WindowSpec};
use quill_telemetry::span::key_tag;

fn ev(ts: u64, seq: u64) -> Event {
    Event::new(ts, seq, Row::new([Value::Float(1.0)]))
}

fn seeded_stream() -> Vec<Event> {
    let mut events: Vec<Event> = (0..20u64).map(|i| ev(i * 10, i)).collect();
    events.push(ev(95, 20)); // L1: ratchets K 0→95, lost to [0, 100)
    events.extend((0..20u64).map(|i| ev(200 + i * 10, 21 + i)));
    events.push(ev(150, 41)); // L2: ratchets K 95→240, lost to [100, 200)
    events
}

fn sum_query() -> QuerySpec {
    QuerySpec::new(
        WindowSpec::tumbling(100u64),
        vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
        None,
    )
}

fn traced_run(opts: ExecOptions) -> RunOutput {
    let spans = SpanRecorder::with_default_capacity();
    let mut mp = MpKSlack::new();
    execute(
        &seeded_stream(),
        &mut mp,
        &sum_query(),
        &opts.with_spans(&spans).with_required_completeness(0.95),
    )
    .expect("valid query")
}

#[test]
fn post_mortem_names_the_late_tuples_and_the_preceding_k_decision() {
    for opts in [
        ExecOptions::sequential(),
        ExecOptions::parallel(ParallelConfig::new(2)),
    ] {
        check_post_mortem(traced_run(opts));
    }
}

fn check_post_mortem(out: RunOutput) {
    assert_eq!(out.provenance.len(), out.quality.per_window.len());

    // Both straggler-hit windows violate the 0.95 target; nothing else does.
    let violated: Vec<_> = out.provenance.iter().filter(|r| r.violated).collect();
    assert_eq!(
        violated
            .iter()
            .map(|r| (r.start, r.end))
            .collect::<Vec<_>>(),
        vec![(0, 100), (100, 200)]
    );
    assert_eq!(out.post_mortems.len(), 2);

    let pm = out
        .post_mortems
        .iter()
        .find(|p| (p.record.start, p.record.end) == (100, 200))
        .expect("post-mortem for [100, 200)");
    let rec = &pm.record;
    assert!(rec.violated);
    assert!((rec.achieved_completeness - 10.0 / 11.0).abs() < 1e-9);
    assert_eq!(rec.required_completeness, Some(0.95));
    assert_eq!(rec.contributing, 10);
    assert_eq!(rec.late_arrivals, 1);
    assert_eq!(rec.dropped, 1);
    assert_eq!(rec.lateness_max, 145); // L2 was 145 behind the 295 watermark

    // The K decision in force at the finalize is the 0→95 ratchet L1
    // triggered — strictly before the finalize in recorder order, and not
    // the 95→240 ratchet that L2 caused afterwards.
    assert_eq!(rec.k_at_finalize, Some(95));
    assert_eq!(rec.k_decision_reason, Some(KChangeReason::Ratchet));
    let finalize_seq = rec.finalize_seq.expect("finalized window");
    assert!(rec.k_decision_seq.expect("K decision on record") < finalize_seq);

    // The causal slice materializes the actual records: L2's late arrival
    // (ts 150, 145 behind the 295 watermark), the drop of input seq 41 at
    // ts 150 — inside, so lost from, this window — the 0→95 ratchet, and
    // the finalize of window [100, 200) itself.
    assert!(pm.slice.iter().any(
        |s| s.stage == Stage::LateArrival && (s.begin, s.end, s.duration()) == (150, 295, 145)
    ));
    assert!(pm
        .slice
        .iter()
        .any(|s| s.stage == Stage::LateDrop && s.detail[0] == 41 && (100..200).contains(&s.begin)));
    assert!(pm.slice.iter().any(|s| s.stage == Stage::KChange
        && s.detail == [0, 95]
        && s.reason == Some(KChangeReason::Ratchet)
        && s.seq < finalize_seq));
    assert!(pm.slice.iter().any(|s| s.stage == Stage::WindowFinalize
        && s.seq == finalize_seq
        && (s.detail[0], s.begin) == (100, 200)
        && s.detail[1] == key_tag("null")));
    // The 95→240 ratchet came after the window was final, so it is no part
    // of its causal slice — even where it was recorded before the finalize.
    assert!(!pm
        .slice
        .iter()
        .any(|s| s.stage == Stage::KChange && s.detail == [95, 240]));
}

#[test]
fn post_mortems_round_trip_through_jsonl_and_render() {
    let out = traced_run(ExecOptions::sequential());
    let dir = std::env::temp_dir().join("quill_it_postmortem");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("postmortems.jsonl");
    write_post_mortems_jsonl(&path, &out.post_mortems).expect("writes");
    let text = std::fs::read_to_string(&path).expect("reads back");
    let parsed = parse_post_mortems(&text).expect("parses");
    assert_eq!(parsed.len(), out.post_mortems.len());
    for (a, b) in parsed.iter().zip(&out.post_mortems) {
        assert_eq!(a.record, b.record);
        assert_eq!(a.slice, b.slice);
    }

    // The inspect backend renders the persisted file into the human report:
    // the violation header, the named window, the late tuple and the K
    // decision all appear.
    let report = render_report(&text, 10).expect("renders");
    assert!(report.contains("Quality-violation post-mortem"));
    assert!(report.contains("Violation: window [100, 200)"));
    assert!(report.contains("lateness=145"));
    assert!(report.contains("K in force: 95 (set by `ratchet` decision seq="));
    assert!(report.contains("<- lost from this window"));
    let _ = std::fs::remove_dir_all(&dir);
}
