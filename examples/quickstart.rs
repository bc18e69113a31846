//! Quickstart: the 60-second tour of quill.
//!
//! Generates a small out-of-order stream, runs the same windowed query
//! under four disorder-control strategies, and prints the quality/latency
//! trade-off each one lands on.
//!
//! Run with: `cargo run --example quickstart`

use oos_examples::{print_run, section};
use quill_core::prelude::*;

fn main() {
    // 1. A synthetic stream: one event every 10 time units, transport
    //    delays exponential with mean 100 → heavy disorder.
    let stream = quill_gen::workload::synthetic::exponential(20_000, 10, 100.0, 7);
    section("workload");
    println!(
        "  {} events, disorder ratio {:.1}%, mean delay {:.1}, max delay {}",
        stream.len(),
        stream.stats.disorder_ratio() * 100.0,
        stream.stats.mean_delay(),
        stream.stats.max_delay
    );

    // 2. The continuous query: mean of the value field over tumbling
    //    500-unit windows.
    let query = QuerySpec::builder()
        .window(WindowSpec::tumbling(500u64))
        .aggregate(AggregateKind::Mean, 0, "mean")
        .build()
        .expect("valid query spec");

    // 3. Same query, four strategies.
    section("strategy comparison (target completeness for AQ: 95%)");
    let opts = ExecOptions::sequential();
    for spec in ["dropall", "fixed:300", "mp"] {
        let mut s = StrategySpec::parse(spec).expect("valid strategy").build();
        print_run(&execute(&stream.events, s.as_mut(), &query, &opts).expect("valid query"));
    }
    let mut aq = AqKSlack::for_completeness(0.95);
    let aq_out = execute(&stream.events, &mut aq, &query, &opts).expect("valid query");
    print_run(&aq_out);

    // 4. What AQ actually did: the adaptive K.
    section("AQ adaptation");
    println!(
        "  adaptations: {}, final K: {}, mean K: {:.1}",
        aq.aq_stats().adaptations,
        aq.current_k(),
        aq_out.mean_k
    );
    println!(
        "  sample result windows: {:?}",
        aq_out
            .results
            .iter()
            .take(3)
            .map(|r| format!("{} -> {}", r.window, r.aggregates[0]))
            .collect::<Vec<_>>()
    );
}
