//! Cross-strategy invariants on generated workloads: watermark soundness,
//! event accounting, and the quality/latency dominance relations the
//! strategies are designed around.

use quill_core::prelude::*;
use quill_gen::workload::standard_suite;
use quill_integration::{all_strategies, drive, mean_query, uniform_disordered};

#[test]
fn every_strategy_preserves_every_event_exactly_once() {
    for w in standard_suite() {
        let stream = (w.generate)(3_000, 77);
        for mut s in all_strategies() {
            let out = drive(s.as_mut(), &stream.events);
            let mut seqs: Vec<u64> = out
                .iter()
                .filter_map(|e| e.as_event())
                .map(|e| e.seq)
                .collect();
            seqs.sort_unstable();
            let expected: Vec<u64> = (0..stream.events.len() as u64).collect();
            assert_eq!(seqs, expected, "{} / {}", w.name, s.name());
        }
    }
}

#[test]
fn watermarks_are_monotone_and_late_events_are_flagged_consistently() {
    for w in standard_suite() {
        let stream = (w.generate)(3_000, 78);
        for mut s in all_strategies() {
            let out = drive(s.as_mut(), &stream.events);
            let mut wm = 0u64;
            let mut late = 0u64;
            for el in &out {
                match el {
                    StreamElement::Watermark(t) => {
                        assert!(t.raw() >= wm, "{}: watermark regressed", s.name());
                        wm = t.raw();
                    }
                    StreamElement::Event(e) => {
                        if e.ts.raw() < wm {
                            late += 1;
                        }
                    }
                    StreamElement::Flush => {}
                }
            }
            assert_eq!(
                late,
                s.buffer_stats().late_passed,
                "{} / {}: late accounting mismatch",
                w.name,
                s.name()
            );
        }
    }
}

#[test]
fn bounded_mp_trades_quality_for_bounded_latency() {
    let events = uniform_disordered(20_000, 10, 2_000, 81);
    let query = mean_query(1_000);
    let mut unbounded = MpKSlack::new();
    let mut bounded = MpKSlack::bounded(200u64);
    let u =
        execute(&events, &mut unbounded, &query, &ExecOptions::sequential()).expect("valid query");
    let b =
        execute(&events, &mut bounded, &query, &ExecOptions::sequential()).expect("valid query");
    assert!(b.latency.mean < u.latency.mean);
    assert!(b.quality.mean_completeness <= u.quality.mean_completeness);
    assert!(u.quality.mean_completeness > 0.999);
}

#[test]
fn fixed_k_completeness_matches_disorder_cdf_prediction() {
    // The open-loop model: a tuple is on time iff its *disorder delay*
    // (running-max timestamp at arrival minus its own) is at most K, so the
    // on-time fraction should match the empirical disorder-delay CDF at K.
    // (Note: the disorder delay is NOT the transport delay — in-order
    // arrivals have disorder delay 0 no matter how slow the transport.)
    let events = uniform_disordered(40_000, 10, 400, 82);
    let k = 200u64;
    let mut clock = 0u64;
    let mut within_k = 0u64;
    for e in &events {
        if clock.saturating_sub(e.ts.raw()) <= k {
            within_k += 1;
        }
        clock = clock.max(e.ts.raw());
    }
    let predicted = within_k as f64 / events.len() as f64;

    let query = mean_query(2_000);
    let mut s = FixedKSlack::new(k);
    let out = execute(&events, &mut s, &query, &ExecOptions::sequential()).expect("valid query");
    let on_time_fraction =
        1.0 - out.buffer.late_passed as f64 / (out.buffer.late_passed + out.buffer.released) as f64;
    assert!(
        (on_time_fraction - predicted).abs() < 0.08,
        "on-time fraction {on_time_fraction} vs CDF prediction {predicted}"
    );
    // Window completeness dominates the tuple-level on-time rate: an event
    // behind the buffer watermark can still land in a (long) window whose
    // end has not passed yet, so it is late for ordering purposes but not
    // for this window. This is also why AQ's on-time proxy is conservative.
    assert!(out.quality.mean_completeness >= on_time_fraction - 0.02);
}

#[test]
fn aq_violation_rate_decreases_with_target_headroom() {
    let stream = quill_gen::workload::synthetic::exponential(30_000, 10, 100.0, 83);
    let query = mean_query(1_000);
    let mut strict = AqKSlack::for_completeness(0.999);
    let strict_out = execute(
        &stream.events,
        &mut strict,
        &query,
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    let mut loose = AqKSlack::for_completeness(0.8);
    let loose_out = execute(
        &stream.events,
        &mut loose,
        &query,
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    // Violations measured against each run's own target.
    let strict_viol = strict_out.quality.violation_rate(0.999);
    let loose_viol = loose_out.quality.violation_rate(0.8);
    // The loose run should have comparable-or-fewer violations against its
    // own much-easier bar, at lower latency.
    assert!(loose_out.latency.mean < strict_out.latency.mean);
    assert!(loose_viol <= strict_viol + 0.2);
}
