//! Statistical guarantees: under stationary delay distributions, AQ-K-slack's
//! long-run achieved quality must sit at (or above, minus a small tolerance)
//! the user's target — across targets and delay families. These are the
//! load-bearing claims of the reconstruction (DESIGN.md §4 invariants).

use quill_core::prelude::*;
use quill_gen::source::GeneratedStream;
use quill_gen::workload::synthetic;
use quill_integration::{mean_query, tuple_completeness};

fn query() -> QuerySpec {
    mean_query(1_000)
}

fn check_target(stream: &GeneratedStream, q: f64, tolerance: f64, label: &str) {
    let mut aq = AqKSlack::for_completeness(q);
    let out = execute(
        &stream.events,
        &mut aq,
        &query(),
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    let achieved = tuple_completeness(&out);
    assert!(
        achieved >= q - tolerance,
        "{label} q={q}: achieved tuple completeness {achieved:.4} below target - {tolerance}"
    );
    // Window-level completeness should track tuple level closely.
    assert!(
        out.quality.mean_completeness >= q - tolerance - 0.02,
        "{label} q={q}: window completeness {:.4} too low",
        out.quality.mean_completeness
    );
}

#[test]
fn targets_hold_under_exponential_delays() {
    let stream = synthetic::exponential(50_000, 10, 100.0, 1001);
    for &q in &[0.85, 0.95, 0.99] {
        check_target(&stream, q, 0.03, "exp");
    }
}

#[test]
fn targets_hold_under_uniform_delays() {
    let stream = synthetic::uniform(50_000, 10, 0, 500, 1002);
    for &q in &[0.9, 0.99] {
        check_target(&stream, q, 0.03, "uniform");
    }
}

#[test]
fn targets_hold_under_heavy_tailed_delays() {
    // Pareto tails are the hard case: the quantile estimate is noisy. Allow
    // a slightly wider tolerance.
    let stream = synthetic::pareto(50_000, 10, 200.0, 3.0, 1003);
    for &q in &[0.9, 0.95] {
        check_target(&stream, q, 0.04, "pareto");
    }
}

#[test]
fn sliding_windows_meet_the_target_below_the_hindsight_quantile() {
    // A tuple makes its results while its first window is open, up to one
    // slide past its timestamp: AQ spends that headroom instead of K, and
    // must still meet q per window while waiting less than a fixed K at the
    // stream's own F⁻¹(q), chosen in hindsight.
    let stream = synthetic::exponential(50_000, 10, 100.0, 1008);
    let query = QuerySpec::new(
        WindowSpec::sliding(1_000u64, 250u64),
        vec![AggregateSpec::new(AggregateKind::Mean, 0, "mean")],
        None,
    );
    let q = 0.95;
    let mut clock = 0u64;
    let mut delays: Vec<u64> = stream
        .events
        .iter()
        .map(|e| {
            clock = clock.max(e.ts.raw());
            clock - e.ts.raw()
        })
        .collect();
    delays.sort_unstable();
    let f_inv = delays[(q * delays.len() as f64).ceil() as usize - 1];
    let run = |s: &mut dyn DisorderControl| {
        execute(&stream.events, s, &query, &ExecOptions::sequential()).expect("valid query")
    };
    let aq = run(&mut AqKSlack::for_completeness(q));
    let hindsight = run(&mut FixedKSlack::new(f_inv));
    assert!(
        aq.quality.mean_completeness >= q,
        "window completeness {:.4} below q={q}",
        aq.quality.mean_completeness
    );
    assert!(
        aq.latency.mean < hindsight.latency.mean,
        "AQ latency {} not below Fixed(F⁻¹({q}) = {f_inv}) latency {}",
        aq.latency.mean,
        hindsight.latency.mean
    );
}

#[test]
fn latency_scales_with_the_delay_quantile_not_the_max() {
    // Structural property: for q = 0.9 on exp(100), AQ's mean latency must
    // be within a small factor of F⁻¹(0.9) ≈ 230, and far below the max
    // delay (which grows with stream length).
    let stream = synthetic::exponential(50_000, 10, 100.0, 1004);
    let mut aq = AqKSlack::for_completeness(0.9);
    let out = execute(
        &stream.events,
        &mut aq,
        &query(),
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    let f_inv = 230.0;
    assert!(
        out.mean_k < f_inv * 2.5,
        "mean K {} should be near F⁻¹(0.9) ≈ {f_inv}",
        out.mean_k
    );
    assert!(
        (out.mean_k as f64) < stream.stats.max_delay.raw() as f64 / 2.0,
        "mean K {} should be far below max delay {}",
        out.mean_k,
        stream.stats.max_delay
    );
}

#[test]
fn error_targets_bound_the_achieved_aggregate_error() {
    let stream = synthetic::exponential(50_000, 10, 100.0, 1005);
    for &eps in &[0.02, 0.05] {
        let mut aq = AqKSlack::new(AqConfig::max_rel_error(eps, 0));
        let out = execute(
            &stream.events,
            &mut aq,
            &query(),
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        // Mean achieved relative error must respect the budget with modest
        // slack (the sensitivity model is conservative in expectation).
        assert!(
            out.quality.mean_rel_error[0] <= eps * 1.5,
            "eps={eps}: mean rel error {} blew the budget",
            out.quality.mean_rel_error[0]
        );
    }
}

#[test]
fn tighter_targets_cost_monotonically_more_latency() {
    let stream = synthetic::exponential(40_000, 10, 100.0, 1006);
    let mut last_latency = 0.0;
    for &q in &[0.8, 0.9, 0.99, 0.999] {
        let mut aq = AqKSlack::for_completeness(q);
        let out = execute(
            &stream.events,
            &mut aq,
            &query(),
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        assert!(
            out.latency.mean >= last_latency * 0.8,
            "latency not (weakly) increasing at q={q}: {} after {last_latency}",
            out.latency.mean
        );
        last_latency = out.latency.mean;
    }
}

#[test]
fn quality_recovers_after_a_burst_regime() {
    // Markov-burst delays: long-run achieved quality still near target.
    use quill_gen::delay::{Constant, MarkovBurst, Pareto};
    let mut delay = MarkovBurst::new(
        Box::new(Constant(10)),
        Box::new(Pareto {
            scale: 2_000.0,
            shape: 2.5,
        }),
        0.02,
        0.10,
    );
    let stream = synthetic::with_delay(60_000, 10, &mut delay, 1007);
    let mut aq = AqKSlack::for_completeness(0.9);
    let out = execute(
        &stream.events,
        &mut aq,
        &query(),
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    let achieved = tuple_completeness(&out);
    assert!(
        achieved >= 0.85,
        "bursty achieved {achieved} too far below 0.9"
    );
    // And it must not pay MP's price for it.
    let mut mp = MpKSlack::new();
    let mp_out = execute(
        &stream.events,
        &mut mp,
        &query(),
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    assert!(out.latency.mean < mp_out.latency.mean);
}
