//! R-F3 — the headline: result latency vs. quality target, AQ vs. baselines.
//!
//! For each workload and each completeness target `q`, AQ-K-slack should
//! (a) achieve ≈ `q`, (b) at mean latency close to the offline-calibrated
//! fixed-K baseline `Fixed(K*_S(q))` — the smallest constant slack at which a
//! fraction `q` of the whole stream's tuples reach their first window of the
//! query's slide `S`, which needs hindsight AQ doesn't have — and (c) far
//! below MP-K-slack, whose latency tracks the *maximum* delay. The AQ-vs-MP
//! gap grows with tail weight.

use crate::harness::{
    delays_of, fmt_f64, hindsight_window_slack, standard_benches, Artifact, ExperimentCtx,
};
use quill_core::prelude::*;
use quill_metrics::Table;

/// Quality targets swept.
pub const TARGETS: &[f64] = &[0.90, 0.95, 0.99, 0.999];

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) -> Vec<Artifact> {
    let mut table = Table::new(
        "R-F3: mean latency vs. completeness target (AQ vs. calibrated-fixed vs. MP)",
        [
            "workload",
            "target q",
            "aq latency",
            "aq compl %",
            "fixed* latency",
            "fixed* compl %",
            "mp latency",
            "mp compl %",
        ],
    );
    for b in standard_benches(ctx) {
        let delays = delays_of(&b.stream.events);
        // MP is target-independent: run once per workload.
        let mp_out = execute(
            &b.stream.events,
            &mut MpKSlack::new(),
            &b.query,
            &ExecOptions::sequential(),
        )
        .expect("valid query");
        for &q in TARGETS {
            let aq_out = execute(
                &b.stream.events,
                &mut AqKSlack::for_completeness(q),
                &b.query,
                &ExecOptions::sequential(),
            )
            .expect("valid query");
            let k = hindsight_window_slack(&delays, q, b.query.window.slide());
            let fx_out = execute(
                &b.stream.events,
                &mut FixedKSlack::new(k),
                &b.query,
                &ExecOptions::sequential(),
            )
            .expect("valid query");
            table.push_row([
                b.name.to_string(),
                fmt_f64(q),
                fmt_f64(aq_out.latency.mean),
                fmt_f64(aq_out.quality.mean_completeness * 100.0),
                fmt_f64(fx_out.latency.mean),
                fmt_f64(fx_out.quality.mean_completeness * 100.0),
                fmt_f64(mp_out.latency.mean),
                fmt_f64(mp_out.quality.mean_completeness * 100.0),
            ]);
        }
    }
    vec![Artifact::Table {
        id: "f3_latency_vs_quality".into(),
        table,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aq_tracks_targets_below_mp_latency() {
        let ctx = ExperimentCtx::quick();
        let arts = run(&ctx);
        let table = match &arts[0] {
            Artifact::Table { table, .. } => table,
            _ => panic!("expected table"),
        };
        let col = |r: &Vec<String>, i: usize| r[i].parse::<f64>().expect("numeric cell");
        // On the synthetic workloads (steady-state, large sample), AQ must
        // reach within a few points of its target and beat MP's latency for
        // moderate targets.
        for r in table.rows.iter().filter(|r| r[0].starts_with("synthetic")) {
            let q = col(r, 1);
            let (aq_lat, aq_q) = (col(r, 2), col(r, 3));
            let mp_lat = col(r, 6);
            assert!(
                aq_q >= q * 100.0 - 6.0,
                "{}: AQ compl {aq_q} far below target {q}",
                r[0]
            );
            if q <= 0.95 {
                assert!(
                    aq_lat < mp_lat,
                    "{} q={q}: AQ latency {aq_lat} not below MP {mp_lat}",
                    r[0]
                );
            }
        }
        // Latency grows with the target for AQ (within a workload).
        let synth: Vec<_> = table
            .rows
            .iter()
            .filter(|r| r[0] == "synthetic-exp")
            .collect();
        assert!(col(synth.last().expect("rows"), 2) > col(synth[0], 2));
    }
}
