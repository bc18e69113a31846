//! R-F8 — ablations of AQ-K-slack's design choices.
//!
//! On the non-stationary netmon workload (delay step mid-run), target
//! q = 0.97:
//!
//! * **feedback loop off** (open-loop quantile only) → more violations
//!   around the regime change;
//! * **delay-sample size W** — tiny samples make K noisy (more violations
//!   or more latency), huge samples adapt sluggishly.
//!
//! The adaptation interval and the shrink limiter are fixed constants of
//! AQ (DESIGN §4); EXPERIMENTS R-F8 keeps their last measured rows.

use crate::harness::{fmt_f64, standard_query, Artifact, ExperimentCtx};
use quill_core::prelude::*;
use quill_gen::workload::netmon::{self, NetmonConfig};
use quill_metrics::Table;

/// The completeness target.
pub const TARGET: f64 = 0.97;

fn variant(name: &str, cfg: AqConfig) -> (String, AqConfig) {
    (name.to_string(), cfg)
}

/// The ablation grid.
pub fn variants() -> Vec<(String, AqConfig)> {
    let base = AqConfig::completeness(TARGET);
    let mut out = vec![variant("base (W=4096, every 64, PI on)", base.clone())];
    let mut v = base.clone();
    v.open_loop = true;
    out.push(variant("open-loop (no PI)", v));
    for w in [64usize, 512, 16384] {
        let mut v = base.clone();
        v.sample_capacity = w;
        out.push(variant(&format!("W={w}"), v));
    }
    out
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) -> Vec<Artifact> {
    let horizon = (ctx.events as u64) * 5;
    let cfg = NetmonConfig::default().with_step_drift(horizon / 2);
    let stream = netmon::generate(&cfg, ctx.events, ctx.seed);
    let query = standard_query("netmon");

    let mut table = Table::new(
        format!("R-F8: AQ ablations on netmon + delay step (target q={TARGET})"),
        [
            "variant",
            "compl %",
            "viol %",
            "mean lat",
            "mean K",
            "adaptations",
        ],
    );
    for (name, aq_cfg) in variants() {
        let mut s = AqKSlack::new(aq_cfg);
        let out = execute(&stream.events, &mut s, &query, &ExecOptions::sequential())
            .expect("valid query");
        table.push_row([
            name,
            fmt_f64(out.quality.mean_completeness * 100.0),
            fmt_f64(out.quality.violation_rate(TARGET) * 100.0),
            fmt_f64(out.latency.mean),
            fmt_f64(out.mean_k),
            s.aq_stats().adaptations.to_string(),
        ]);
    }
    vec![Artifact::Table {
        id: "f8_ablations".into(),
        table,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_runs_and_base_is_compliant() {
        let ctx = ExperimentCtx::quick();
        let arts = run(&ctx);
        let table = match &arts[0] {
            Artifact::Table { table, .. } => table,
            _ => panic!("expected table"),
        };
        assert_eq!(table.rows.len(), variants().len());
        let col = |r: &Vec<String>, i: usize| r[i].parse::<f64>().expect("numeric cell");
        let base = &table.rows[0];
        assert!(
            col(base, 1) >= TARGET * 100.0 - 6.0,
            "base compl {}",
            base[1]
        );
    }
}
