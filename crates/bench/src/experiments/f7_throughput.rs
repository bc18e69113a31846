//! R-F7 — processing overhead: wall-clock throughput per strategy.
//!
//! Event-time latency (R-F3) is testbed-independent; this experiment checks
//! that the disorder-control layer itself is cheap: tuples/second through
//! the full strategy + windowed-aggregation stack, per strategy, on one
//! workload. (Per-layer costs — `buffer.stage_*`, `window.*`, `runner.*`,
//! `parallel.*` — are the quill-e2e benchmark's, in `benchmark/`.) Expected
//! shape: all strategies within a small factor of each other — buffering and
//! adaptation logic are not the bottleneck relative to aggregation.

use crate::harness::{delay_quantile, delays_of, fmt_f64, standard_query, Artifact, ExperimentCtx};
use quill_core::prelude::{execute, ExecOptions, StrategySpec};
use quill_metrics::Table;

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) -> Vec<Artifact> {
    let stream = quill_gen::workload::synthetic::exponential(ctx.events, 10, 100.0, ctx.seed);
    let query = standard_query("synthetic-exp");
    let delays = delays_of(&stream.events);

    let specs = [
        ("drop", StrategySpec::DropAll),
        (
            "fixed(p95)",
            StrategySpec::Fixed(delay_quantile(&delays, 0.95)),
        ),
        ("mp", StrategySpec::Mp(None)),
        ("aq(0.95)", StrategySpec::Aq(0.95)),
        ("oracle", StrategySpec::Oracle),
    ];
    let mut table = Table::new(
        "R-F7: wall-clock throughput through strategy + window aggregation",
        ["strategy", "events", "wall ms", "kevents/s", "results"],
    );
    for (label, spec) in specs {
        let mut s = spec.build();
        let out = execute(
            &stream.events,
            s.as_mut(),
            &query,
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        table.push_row([
            label.to_string(),
            out.events.to_string(),
            fmt_f64(out.wall_micros as f64 / 1000.0),
            fmt_f64(out.throughput() / 1000.0),
            out.results.len().to_string(),
        ]);
    }
    vec![Artifact::Table {
        id: "f7_throughput".into(),
        table,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_process_the_full_stream() {
        let ctx = ExperimentCtx::quick();
        let arts = run(&ctx);
        let table = match &arts[0] {
            Artifact::Table { table, .. } => table,
            _ => panic!("expected table"),
        };
        assert_eq!(table.rows.len(), 5);
        for r in &table.rows {
            assert_eq!(r[1], ctx.events.to_string());
            let tput: f64 = r[3].parse().expect("throughput parses");
            assert!(tput > 0.0, "{}: zero throughput", r[0]);
        }
    }
}
