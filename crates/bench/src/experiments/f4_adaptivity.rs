//! R-F4 — adaptivity: K(t) under a delay regime change.
//!
//! A netmon stream whose delay scale steps up 4× mid-run. MP-K-slack ratchets
//! up at the first big burst and never comes back down; AQ-K-slack tracks
//! the regime up *and back down* when the stress passes (here the step is
//! permanent, so "down" shows on the sine variant; the table reports mean K
//! in the before/after halves for both strategies).

use crate::harness::{fmt_f64, standard_query, Artifact, ExperimentCtx};
use quill_core::prelude::*;
use quill_gen::workload::netmon::{self, NetmonConfig};
use quill_metrics::{Table, TimeSeries};

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) -> Vec<Artifact> {
    let horizon = (ctx.events as u64) * 5; // event-time span at period 5
    let step_at = horizon / 2;
    let cfg = NetmonConfig::default().with_step_drift(step_at);
    let stream = netmon::generate(&cfg, ctx.events, ctx.seed);
    let query = standard_query("netmon");

    // The AQ run records live telemetry: controller gauges and estimator
    // quantiles snapshotted 8 times across the run, persisted below as a
    // JSON-lines artifact. It also records its span stream into a ring
    // that cannot wrap, and `results/f4_trace.jsonl` keeps the controller's
    // story from it — every K decision with its trigger reason and every
    // late arrival with its lateness — renderable with `quill-inspect`.
    let telemetry = Registry::new();
    let spans = SpanRecorder::new(usize::MAX);
    let aq_opts = ExecOptions::sequential()
        .with_telemetry(&telemetry)
        .with_snapshot_every((ctx.events as u64 / 8).max(1))
        .with_spans(&spans);
    let mut aq = AqKSlack::for_completeness(0.95);
    let aq_out = execute(&stream.events, &mut aq, &query, &aq_opts).expect("valid query");
    let trace_lines: Vec<String> = spans
        .spans()
        .iter()
        .filter(|s| matches!(s.stage, Stage::KChange | Stage::LateArrival))
        .map(Span::to_json_line)
        .collect();
    let mut mp = MpKSlack::new();
    let mp_out =
        execute(&stream.events, &mut mp, &query, &ExecOptions::sequential()).expect("valid query");
    let snapshot_lines: Vec<String> = aq_out
        .snapshots
        .iter()
        .map(quill_telemetry::export::to_json_line)
        .collect();

    let mut aq_series = aq_out.k_series.downsample(400);
    aq_series.name = "aq_k".into();
    let mut mp_series = mp_out.k_series.downsample(400);
    mp_series.name = "mp_k".into();

    let half_mean = |s: &TimeSeries, lo: u64, hi: u64| {
        let pts: Vec<f64> = s
            .points()
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|&(_, v)| v)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    };

    let mut table = Table::new(
        "R-F4: mean K before/after a 4x delay-scale step at t=half",
        [
            "strategy",
            "mean K (calm half)",
            "mean K (stressed half)",
            "compl %",
            "mean latency",
        ],
    );
    for (name, series, out) in [
        ("aq(0.95)", &aq_out.k_series, &aq_out),
        ("mp", &mp_out.k_series, &mp_out),
    ] {
        table.push_row([
            name.to_string(),
            fmt_f64(half_mean(series, 0, step_at)),
            fmt_f64(half_mean(series, step_at, u64::MAX)),
            fmt_f64(out.quality.mean_completeness * 100.0),
            fmt_f64(out.latency.mean),
        ]);
    }

    // Second scenario: oscillating delay scale (sine drift) — shows K
    // riding *down* again after each stress peak, which MP cannot do.
    let sine_cfg = NetmonConfig {
        drift: Some(quill_gen::DriftShape::Sine {
            amplitude: 2.0,
            period: horizon / 4,
        }),
        ..NetmonConfig::default()
    };
    let sine_stream = netmon::generate(&sine_cfg, ctx.events, ctx.seed.wrapping_add(1));
    let mut aq2 = AqKSlack::for_completeness(0.95);
    let aq2_out = execute(
        &sine_stream.events,
        &mut aq2,
        &query,
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    let mut mp2 = MpKSlack::new();
    let mp2_out = execute(
        &sine_stream.events,
        &mut mp2,
        &query,
        &ExecOptions::sequential(),
    )
    .expect("valid query");
    let mut aq2_series = aq2_out.k_series.downsample(400);
    aq2_series.name = "aq_k_sine".into();
    let mut mp2_series = mp2_out.k_series.downsample(400);
    mp2_series.name = "mp_k_sine".into();

    // Recovery metric: how far K falls back from its running peak. MP never
    // recovers (ratio 1.0); AQ should recover substantially.
    let recovery = |s: &TimeSeries| {
        let mut peak = f64::MIN;
        let mut min_after_peak_frac = 1.0f64;
        for &(_, v) in s.points() {
            peak = peak.max(v);
            if peak > 0.0 {
                min_after_peak_frac = min_after_peak_frac.min(v / peak);
            }
        }
        min_after_peak_frac
    };
    let mut sine_table = Table::new(
        "R-F4b: K recovery under oscillating delays (min K / running peak K)",
        [
            "strategy",
            "recovery ratio (lower = recovers more)",
            "compl %",
            "mean latency",
        ],
    );
    for (name, series, out) in [
        ("aq(0.95)", &aq2_out.k_series, &aq2_out),
        ("mp", &mp2_out.k_series, &mp2_out),
    ] {
        sine_table.push_row([
            name.to_string(),
            fmt_f64(recovery(series)),
            fmt_f64(out.quality.mean_completeness * 100.0),
            fmt_f64(out.latency.mean),
        ]);
    }

    vec![
        Artifact::Table {
            id: "f4_adaptivity_summary".into(),
            table,
        },
        Artifact::Series {
            id: "f4_adaptivity_series".into(),
            title: "R-F4: K(t) under a delay regime step (aq vs mp)".into(),
            series: vec![aq_series, mp_series],
        },
        Artifact::Table {
            id: "f4b_recovery".into(),
            table: sine_table,
        },
        Artifact::Series {
            id: "f4b_recovery_series".into(),
            title: "R-F4b: K(t) under oscillating delays (aq recovers, mp ratchets)".into(),
            series: vec![aq2_series, mp2_series],
        },
        Artifact::Jsonl {
            id: "f4_trace".into(),
            title: "R-F4: AQ span records (render with quill-inspect)".into(),
            lines: trace_lines,
        },
        Artifact::Jsonl {
            id: "f4_telemetry_snapshots".into(),
            title: "R-F4: AQ controller/estimator telemetry snapshots".into(),
            lines: snapshot_lines,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aq_adapts_upward_and_stays_below_mp_in_calm_half() {
        let ctx = ExperimentCtx::quick();
        let arts = run(&ctx);
        let table = match &arts[0] {
            Artifact::Table { table, .. } => table,
            _ => panic!("expected table"),
        };
        let col = |r: &Vec<String>, i: usize| r[i].parse::<f64>().expect("numeric cell");
        let aq = &table.rows[0];
        let mp = &table.rows[1];
        // AQ raises K after the step.
        assert!(col(aq, 2) > col(aq, 1), "AQ did not adapt upward: {aq:?}");
        // In the calm half AQ holds a (much) smaller K than MP's max-ratchet.
        assert!(
            col(aq, 1) < col(mp, 1) * 1.05 + 1.0,
            "aq {} vs mp {}",
            col(aq, 1),
            col(mp, 1)
        );
        // Both series artifacts exist.
        assert!(matches!(arts[1], Artifact::Series { .. }));
        // Recovery table: AQ's recovery ratio strictly below MP's (MP never
        // shrinks → ratio ~1).
        let rec = match &arts[2] {
            Artifact::Table { table, .. } => table,
            _ => panic!("expected recovery table"),
        };
        let aq_rec: f64 = rec.rows[0][1].parse().expect("numeric");
        let mp_rec: f64 = rec.rows[1][1].parse().expect("numeric");
        assert!(
            aq_rec < mp_rec,
            "AQ recovery {aq_rec} not better than MP {mp_rec}"
        );
        assert!(mp_rec > 0.99, "MP should never recover, got {mp_rec}");
        // Telemetry snapshots rode along with the AQ run.
        let lines = match arts.last().expect("artifacts") {
            Artifact::Jsonl { lines, .. } => lines,
            _ => panic!("expected jsonl artifact"),
        };
        assert!(!lines.is_empty(), "no telemetry snapshots recorded");
        assert!(lines.last().unwrap().contains("quill.controller.k"));
        // The span records rode along too: every line parses and the
        // controller's adaptive K decisions are on record.
        let trace_lines = arts
            .iter()
            .find_map(|a| match a {
                Artifact::Jsonl { id, lines, .. } if id == "f4_trace" => Some(lines),
                _ => None,
            })
            .expect("f4_trace artifact");
        assert!(!trace_lines.is_empty());
        for l in trace_lines {
            Span::parse_json_line(l).expect("well-formed span line");
        }
        assert!(
            trace_lines.iter().any(|l| l.contains("\"k_change\"")),
            "no controller decisions in trace"
        );
        let report = crate::inspect::render_report(&trace_lines.join("\n"), 5).expect("renders");
        assert!(report.contains("Controller decision log"));
    }
}
