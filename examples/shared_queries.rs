//! Multiple continuous queries sharing one quality-driven buffer, plus the
//! online push API and keyed data-parallel execution.
//!
//! Three dashboards subscribe to the same monitoring stream with different
//! needs: a billing query (very strict), an alerting query (moderate) and a
//! trend query (loose). One AQ buffer sized for the strictest target serves
//! all three; the example also shows the same query running through the
//! online push interface and sharded across threads.
//!
//! Run with: `cargo run --example shared_queries`

use oos_examples::section;
use quill_core::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_gen::workload::netmon::{self, NetmonConfig};

fn main() {
    let stream = netmon::generate(&NetmonConfig::default(), 40_000, 23);
    section("stream");
    println!(
        "  {} reports, disorder {:.1}%, max delay {}",
        stream.len(),
        stream.stats.disorder_ratio() * 100.0,
        stream.stats.max_delay
    );

    // Three subscribers with different quality needs.
    let billing = QuerySpec::new(
        WindowSpec::tumbling(10_000u64),
        vec![AggregateSpec::new(
            AggregateKind::Sum,
            netmon::BYTES_FIELD,
            "bytes",
        )],
        Some(netmon::HOST_FIELD),
    );
    let alerting = QuerySpec::new(
        WindowSpec::sliding(2_000u64, 500u64),
        vec![AggregateSpec::new(
            AggregateKind::Max,
            netmon::BYTES_FIELD,
            "peak",
        )],
        None,
    );
    let trend = QuerySpec::new(
        WindowSpec::tumbling(5_000u64),
        vec![AggregateSpec::new(
            AggregateKind::Mean,
            netmon::BYTES_FIELD,
            "mean",
        )],
        None,
    );
    let targets = [0.999, 0.95, 0.9];
    let strictest = targets.into_iter().fold(f64::MIN, f64::max);

    section(&format!("shared buffer at strictest target q={strictest}"));
    let mut strategy = AqKSlack::for_completeness(strictest);
    let shared = execute_shared(
        &stream.events,
        &mut strategy,
        &[billing.clone(), alerting, trend],
        &ExecOptions::sequential(),
    )
    .expect("valid queries");
    for (out, (name, target)) in
        shared
            .per_query
            .iter()
            .zip([("billing", 0.999), ("alerting", 0.95), ("trend", 0.9)])
    {
        println!(
            "  {:<9} target {:>5}: completeness {:>7.3}%  mean latency {:>8.1}  windows {}",
            name,
            target,
            out.quality.mean_completeness * 100.0,
            out.latency.mean,
            out.quality.windows_total
        );
    }
    println!(
        "  (one buffer, one watermark sequence, wall time {:.1} ms)",
        shared.wall_micros as f64 / 1000.0
    );

    section("the same billing query, session (push) API");
    let mut session = Session::new(Box::new(AqKSlack::for_completeness(0.999)));
    let handle = session.register(&billing).expect("valid query");
    let mut emitted = 0usize;
    for (i, e) in stream.events.iter().enumerate() {
        session.push(e.clone());
        emitted += handle.poll().len();
        if i == stream.events.len() / 2 {
            let stats = session.stats();
            println!(
                "  midway: clock {}, K {}, buffered {}, {} results so far",
                stats.clock.map(|t| t.raw()).unwrap_or(0),
                stats.current_k,
                stats.buffered,
                emitted
            );
        }
    }
    session.finish();
    emitted += handle.poll().len();
    println!(
        "  finished: {} results, mean latency {:.1}",
        emitted,
        handle.stats().mean_latency
    );

    section("keyed data-parallel execution (4 shards)");
    // One slack buffer, then each host's events are windowed on the shard
    // that owns the host.
    let per_host = QuerySpec::new(
        WindowSpec::tumbling(1_000u64),
        vec![AggregateSpec::new(
            AggregateKind::Sum,
            netmon::BYTES_FIELD,
            "bytes",
        )],
        Some(netmon::HOST_FIELD),
    );
    let mut buffer = AqKSlack::for_completeness(0.99);
    let out = execute(
        &stream.events,
        &mut buffer,
        &per_host,
        &ExecOptions::parallel(ParallelConfig::new(4)),
    )
    .expect("valid query");
    println!(
        "  {} window results across 4 shards in {:.1} ms",
        out.results.len(),
        out.wall_micros as f64 / 1000.0
    );
}
