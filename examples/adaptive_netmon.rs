//! Watching AQ-K-slack adapt to a network-delay regime change.
//!
//! A monitoring stream's transport delays suddenly quadruple mid-run
//! (congestion). The example plots (as terminal sparklines) how the
//! adaptive buffer bound K tracks the regime for AQ vs. MP, and what that
//! does to result latency.
//!
//! Run with: `cargo run --example adaptive_netmon`

use oos_examples::{print_run, section, sparkline};
use quill_core::prelude::*;
use quill_gen::workload::netmon::{self, NetmonConfig};

fn main() {
    let n = 60_000usize;
    let horizon = n as u64 * 5;
    let cfg = NetmonConfig::default().with_step_drift(horizon / 2);
    let stream = netmon::generate(&cfg, n, 19);
    section("monitoring feed (delay scale x4 at t=half)");
    println!(
        "  {} reports from {} hosts, disorder {:.1}%, max delay {}",
        stream.len(),
        cfg.hosts,
        stream.stats.disorder_ratio() * 100.0,
        stream.stats.max_delay
    );

    let query = QuerySpec::builder()
        .window(WindowSpec::tumbling(1_000u64))
        .aggregate(AggregateKind::Sum, netmon::BYTES_FIELD, "bytes")
        .key_field(netmon::HOST_FIELD)
        .build()
        .expect("valid query spec");

    // Watch the run live: periodic registry snapshots every 10k events.
    let telemetry = Registry::new();
    let opts = ExecOptions::sequential()
        .with_telemetry(&telemetry)
        .with_snapshot_every(10_000);
    let mut aq = AqKSlack::for_completeness(0.95);
    let aq_out = execute(&stream.events, &mut aq, &query, &opts).expect("valid query");
    let mut mp = MpKSlack::new();
    let mp_out =
        execute(&stream.events, &mut mp, &query, &ExecOptions::sequential()).expect("valid query");

    section("buffer bound K over time (left = calm, right = congested)");
    println!("  aq  {}", sparkline(&aq_out.k_series, 72));
    println!("  mp  {}", sparkline(&mp_out.k_series, 72));
    println!("      (mp ratchets to the worst burst and stays; aq tracks the regime)");

    section("what it costs");
    print_run(&aq_out);
    print_run(&mp_out);

    section("per-window completeness over time (aq)");
    let mut q_series = quill_metrics::TimeSeries::new("aq_quality");
    for w in &aq_out.quality.per_window {
        q_series.push(w.window.end, w.completeness);
    }
    println!("  aq  {}", sparkline(&q_series, 72));
    println!(
        "  violation rate vs q=0.95: {:.2}%",
        aq_out.quality.violation_rate(0.95) * 100.0
    );

    section("telemetry: controller K gauge across snapshots (aq)");
    for snap in &aq_out.snapshots {
        println!(
            "  at {:>6} events: K {:>7.1}, adaptations {:>3}, buffer depth {:>5}, est p95 {:>7.1}",
            snap.at_events,
            snap.gauge("quill.controller.k").unwrap_or(0.0),
            snap.counter("quill.controller.adaptations"),
            snap.gauge("quill.buffer.depth").unwrap_or(0.0),
            snap.gauge("quill.estimator.p95").unwrap_or(0.0),
        );
    }

    // Re-run with a bounded span recorder and the quality target attached:
    // every violated window yields a post-mortem — its provenance record
    // plus the causal slice of the record stream (late arrivals, drops, the
    // K decision in force at the finalize). Persist them with
    // `write_post_mortems_jsonl` and render the file with
    // `cargo run --bin quill-inspect -- <file>`.
    section("span records: explaining the worst violated window (aq)");
    let spans = SpanRecorder::with_default_capacity();
    let mut aq_traced = AqKSlack::for_completeness(0.95);
    let traced = execute(
        &stream.events,
        &mut aq_traced,
        &query,
        &ExecOptions::sequential()
            .with_spans(&spans)
            .with_required_completeness(0.95),
    )
    .expect("valid query");
    println!(
        "  {} windows scored, {} missed the 0.95 target, {} records on the ring",
        traced.provenance.len(),
        traced.post_mortems.len(),
        spans.len()
    );
    if let Some(pm) = traced.post_mortems.iter().min_by(|a, b| {
        a.record
            .achieved_completeness
            .total_cmp(&b.record.achieved_completeness)
    }) {
        let r = &pm.record;
        println!(
            "  worst: window [{}, {}) key={} achieved {:.1}% — {} contributed, {} late, {} dropped (max lateness {})",
            r.start,
            r.end,
            r.key,
            r.achieved_completeness * 100.0,
            r.contributing,
            r.late_arrivals,
            r.dropped,
            r.lateness_max
        );
        if let (Some(k), Some(seq)) = (r.k_at_finalize, r.k_decision_seq) {
            println!(
                "  K in force at finalize: {k} (decision seq {seq}); causal slice holds {} records",
                pm.slice.len()
            );
        }
    }
}
