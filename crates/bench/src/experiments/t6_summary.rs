//! R-T6 — the grand summary: strategy × workload.
//!
//! Mean/p99 latency, mean buffer occupancy, achieved completeness and
//! violation rate against a 0.95 target, for every strategy on every
//! workload. The expected shape: AQ sits on the quality target with the
//! smallest latency among compliant strategies; Drop is fast but broken;
//! MP is compliant but pays max-delay latency; Oracle is exact but its
//! "latency" is the whole stream.

use crate::harness::{
    delay_quantile, delays_of, fmt_f64, source_info, standard_benches, Artifact, ExperimentCtx,
};
use quill_core::prelude::{execute, ExecOptions, StrategySpec};
use quill_metrics::Table;

/// The completeness level used for violation accounting.
pub const TARGET: f64 = 0.95;

/// Strategies compared on a stream with these `delays` (Fixed-lo = offline
/// median delay, Fixed-hi = offline p99 delay).
pub fn strategies(delays: &[u64]) -> Vec<(&'static str, StrategySpec)> {
    vec![
        ("drop", StrategySpec::DropAll),
        ("fixed-lo", StrategySpec::Fixed(delay_quantile(delays, 0.5))),
        (
            "fixed-hi",
            StrategySpec::Fixed(delay_quantile(delays, 0.99)),
        ),
        ("mp", StrategySpec::Mp(None)),
        ("aq", StrategySpec::Aq(TARGET)),
    ]
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) -> Vec<Artifact> {
    let mut table = Table::new(
        format!("R-T6: strategy x workload summary (violation target q={TARGET})"),
        [
            "workload", "strategy", "mean lat", "p99 lat", "mean buf", "compl %", "viol %",
            "late ev",
        ],
    );
    for b in standard_benches(ctx) {
        let delays = delays_of(&b.stream.events);
        let mut all = strategies(&delays);
        // Workloads with natural sources also get the punctuation baseline
        // (with a modest per-source slack to compensate intra-source
        // disorder — the median overall delay).
        if let Some((source_field, expected_sources)) = source_info(b.name) {
            let slack = delay_quantile(&delays, 0.5);
            all.push((
                "punct",
                StrategySpec::Punctuated {
                    source_field,
                    expected_sources,
                    slack,
                },
            ));
        }
        for (label, spec) in all {
            let mut s = spec.build();
            let out = execute(
                &b.stream.events,
                s.as_mut(),
                &b.query,
                &ExecOptions::sequential(),
            )
            .expect("valid query");
            table.push_row([
                b.name.to_string(),
                label.to_string(),
                fmt_f64(out.latency.mean),
                fmt_f64(out.latency.p99),
                fmt_f64(out.buffer.mean_buffered()),
                fmt_f64(out.quality.mean_completeness * 100.0),
                fmt_f64(out.quality.violation_rate(TARGET) * 100.0),
                out.buffer.late_passed.to_string(),
            ]);
        }
    }
    vec![Artifact::Table {
        id: "t6_summary".into(),
        table,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_on_synthetic_exp() {
        let ctx = ExperimentCtx::quick();
        let arts = run(&ctx);
        let table = match &arts[0] {
            Artifact::Table { table, .. } => table,
            _ => panic!("expected table"),
        };
        let col = |r: &Vec<String>, i: usize| r[i].parse::<f64>().expect("numeric cell");
        let get = |strategy: &str| {
            table
                .rows
                .iter()
                .find(|r| r[0] == "synthetic-exp" && r[1] == strategy)
                .expect("row present")
        };
        // Drop: fastest, worst quality.
        assert!(col(get("drop"), 2) < col(get("mp"), 2));
        assert!(col(get("drop"), 5) < col(get("aq"), 5));
        // AQ: compliant-ish and cheaper than MP.
        assert!(col(get("aq"), 5) >= TARGET * 100.0 - 6.0);
        assert!(col(get("aq"), 2) < col(get("mp"), 2));
        // fixed-hi buys more quality than fixed-lo at more latency.
        assert!(col(get("fixed-hi"), 5) >= col(get("fixed-lo"), 5));
        assert!(col(get("fixed-hi"), 2) >= col(get("fixed-lo"), 2));
    }
}
