//! R-F5 — achieved quality over time vs. the target.
//!
//! Netmon with a mid-run delay step, target completeness 0.97. Per-window
//! completeness is plotted over event time for AQ and for a fixed-K baseline
//! calibrated on the *calm* prefix: the fixed baseline collapses after the
//! regime change while AQ recovers, and the violation-rate table quantifies
//! it.

use crate::harness::{delay_quantile, delays_of, fmt_f64, standard_query, Artifact, ExperimentCtx};
use quill_core::prelude::*;
use quill_gen::workload::netmon::{self, NetmonConfig};
use quill_metrics::{Table, TimeSeries};

/// The completeness target.
pub const TARGET: f64 = 0.97;

/// Post-mortems persisted per run (the earliest violations tell the story;
/// the rest repeat it).
const MAX_POSTMORTEMS: usize = 5;

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) -> Vec<Artifact> {
    let horizon = (ctx.events as u64) * 5;
    let step_at = horizon / 2;
    let cfg = NetmonConfig::default().with_step_drift(step_at);
    let stream = netmon::generate(&cfg, ctx.events, ctx.seed);
    let query = standard_query("netmon");

    // Calibrate the fixed baseline on the calm prefix only (what an operator
    // tuning on historical data would do).
    let calm_delays: Vec<u64> = {
        let prefix: Vec<_> = stream
            .events
            .iter()
            .filter(|e| e.ts.raw() < step_at)
            .cloned()
            .collect();
        delays_of(&prefix)
    };
    let k_fixed = delay_quantile(&calm_delays, TARGET);

    let mut aq = AqKSlack::for_completeness(TARGET);
    let aq_out =
        execute(&stream.events, &mut aq, &query, &ExecOptions::sequential()).expect("valid query");
    // The fixed baseline records its span stream, into a ring that cannot
    // wrap, and carries the quality target: after the delay step its
    // calm-calibrated K misses the target, and every violated window gets a
    // post-mortem — the causal slice of the stream (late arrivals, the
    // drops, the K decision in force, the finalize). The first few are
    // persisted as `results/f5_postmortems.jsonl` for `quill-inspect`.
    let fx_spans = SpanRecorder::new(usize::MAX);
    let mut fx = FixedKSlack::new(k_fixed);
    let fx_out = execute(
        &stream.events,
        &mut fx,
        &query,
        &ExecOptions::sequential()
            .with_spans(&fx_spans)
            .with_required_completeness(TARGET),
    )
    .expect("valid query");
    let postmortem_lines = post_mortems_to_lines(
        &fx_out.post_mortems[..fx_out.post_mortems.len().min(MAX_POSTMORTEMS)],
    );

    let series_of = |name: &str, out: &RunOutput| {
        let mut s = TimeSeries::new(name);
        for w in &out.quality.per_window {
            s.push(w.window.end, w.completeness);
        }
        // per_window is in oracle (window-end) order already.
        s.downsample(500)
    };

    let mut table = Table::new(
        format!("R-F5: target q={TARGET}, violation rates before/after the delay step"),
        [
            "strategy",
            "viol % (calm)",
            "viol % (stressed)",
            "overall compl %",
        ],
    );
    for (name, out) in [("aq", &aq_out), (&format!("fixed(K={k_fixed})"), &fx_out)] {
        let (mut v_calm, mut n_calm, mut v_stress, mut n_stress) = (0u64, 0u64, 0u64, 0u64);
        for w in &out.quality.per_window {
            let violated = w.completeness < TARGET;
            if w.window.end.raw() < step_at {
                n_calm += 1;
                v_calm += violated as u64;
            } else {
                n_stress += 1;
                v_stress += violated as u64;
            }
        }
        table.push_row([
            name.to_string(),
            fmt_f64(100.0 * v_calm as f64 / n_calm.max(1) as f64),
            fmt_f64(100.0 * v_stress as f64 / n_stress.max(1) as f64),
            fmt_f64(out.quality.mean_completeness * 100.0),
        ]);
    }

    vec![
        Artifact::Table {
            id: "f5_compliance_summary".into(),
            table,
        },
        Artifact::Series {
            id: "f5_compliance_series".into(),
            title: format!("R-F5: per-window completeness over time (target {TARGET})"),
            series: vec![
                series_of("aq_completeness", &aq_out),
                series_of("fixed_completeness", &fx_out),
            ],
        },
        Artifact::Jsonl {
            id: "f5_postmortems".into(),
            title: format!(
                "R-F5: post-mortems of the fixed baseline's first {MAX_POSTMORTEMS} \
                 target violations (render with quill-inspect)"
            ),
            lines: postmortem_lines,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aq_violates_less_than_fixed_after_the_step() {
        let ctx = ExperimentCtx::quick();
        let arts = run(&ctx);
        let table = match &arts[0] {
            Artifact::Table { table, .. } => table,
            _ => panic!("expected table"),
        };
        let col = |r: &Vec<String>, i: usize| r[i].parse::<f64>().expect("numeric cell");
        let aq = &table.rows[0];
        let fx = &table.rows[1];
        assert!(
            col(aq, 2) <= col(fx, 2) + 1e-9,
            "AQ stressed violations {} should not exceed fixed {}",
            col(aq, 2),
            col(fx, 2)
        );
        // Fixed calibrated on calm data degrades in the stressed half.
        assert!(
            col(fx, 2) >= col(fx, 1),
            "fixed should degrade after the step"
        );
        // The degraded baseline yields post-mortems, and they render.
        let pm_lines = match arts.last().expect("artifacts") {
            Artifact::Jsonl { id, lines, .. } => {
                assert_eq!(id, "f5_postmortems");
                lines
            }
            _ => panic!("expected post-mortem jsonl artifact"),
        };
        assert!(!pm_lines.is_empty(), "fixed baseline violated no windows?");
        let pms = parse_post_mortems(&pm_lines.join("\n")).expect("parses");
        assert!(!pms.is_empty() && pms.len() <= MAX_POSTMORTEMS);
        for pm in &pms {
            assert!(pm.record.violated);
            assert!(pm.record.achieved_completeness < TARGET);
        }
        let report =
            crate::inspect::render_report(&pm_lines.join("\n"), 10).expect("report renders");
        assert!(report.contains("Quality-violation post-mortem"));
        assert!(report.contains("Violation: window ["));
    }
}
