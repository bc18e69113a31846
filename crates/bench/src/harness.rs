//! Shared experiment plumbing: context, artifacts, standard queries and
//! delay calibration. Sweeps name their strategies with
//! [`quill_core::dsl::StrategySpec`].

use quill_core::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::event::Event;
use quill_engine::prelude::{Row, Value, WindowSpec};
use quill_gen::source::GeneratedStream;
use quill_gen::workload::{netmon, soccer, stock};
use quill_metrics::{Table, TimeSeries};
use std::path::PathBuf;

/// Experiment-wide knobs.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Events per generated workload.
    pub events: usize,
    /// Master seed (workloads derive their own sub-seeds from it).
    pub seed: u64,
    /// Directory CSV artifacts are written to.
    pub out_dir: PathBuf,
}

impl ExperimentCtx {
    /// Full-scale defaults (used by the `experiments` binary).
    pub fn full() -> ExperimentCtx {
        ExperimentCtx {
            events: 60_000,
            seed: 42,
            out_dir: PathBuf::from("results"),
        }
    }

    /// Reduced scale for smoke tests and CI.
    pub fn quick() -> ExperimentCtx {
        ExperimentCtx {
            events: 6_000,
            seed: 42,
            out_dir: std::env::temp_dir().join("quill-results"),
        }
    }
}

/// One output of an experiment: a rendered table or a set of time series.
pub enum Artifact {
    /// A table printed as markdown and saved as `<id>.csv`.
    Table {
        /// File stem.
        id: String,
        /// The table.
        table: Table,
    },
    /// Aligned time series saved as `<id>.csv`.
    Series {
        /// File stem.
        id: String,
        /// Caption printed above the series summary.
        title: String,
        /// The series (aligned on time when saved).
        series: Vec<TimeSeries>,
    },
    /// Raw JSON-lines records saved as `<id>.jsonl` (e.g. telemetry
    /// snapshots).
    Jsonl {
        /// File stem.
        id: String,
        /// Caption printed above the summary.
        title: String,
        /// One JSON object per line.
        lines: Vec<String>,
    },
}

impl Artifact {
    /// Persist to `ctx.out_dir` and render a human-readable form.
    pub fn save_and_render(&self, ctx: &ExperimentCtx) -> std::io::Result<String> {
        std::fs::create_dir_all(&ctx.out_dir)?;
        match self {
            Artifact::Table { id, table } => {
                table.write_csv(ctx.out_dir.join(format!("{id}.csv")))?;
                Ok(table.to_markdown())
            }
            Artifact::Series { id, title, series } => {
                let refs: Vec<&TimeSeries> = series.iter().collect();
                let csv = TimeSeries::to_csv(&refs);
                std::fs::write(ctx.out_dir.join(format!("{id}.csv")), csv)?;
                let mut out = format!("### {title}\n");
                for s in series {
                    out.push_str(&format!(
                        "  series `{}`: {} points, mean {:.2}\n",
                        s.name,
                        s.len(),
                        s.mean()
                    ));
                }
                Ok(out)
            }
            Artifact::Jsonl { id, title, lines } => {
                let mut body = lines.join("\n");
                body.push('\n');
                std::fs::write(ctx.out_dir.join(format!("{id}.jsonl")), body)?;
                Ok(format!(
                    "### {title}\n  {} records -> {id}.jsonl\n",
                    lines.len()
                ))
            }
        }
    }
}

/// A workload instance paired with its standard continuous query.
pub struct Bench {
    /// Workload name.
    pub name: &'static str,
    /// The generated stream.
    pub stream: GeneratedStream,
    /// The standard query for this workload.
    pub query: QuerySpec,
}

/// The source-id field and source count of a workload, when it has natural
/// sources (used by the punctuation baseline).
pub fn source_info(name: &str) -> Option<(usize, usize)> {
    match name {
        "soccer" => Some((0, soccer::SoccerConfig::default().players)),
        "stock" => Some((stock::SYMBOL_FIELD, stock::StockConfig::default().symbols)),
        "netmon" => Some((netmon::HOST_FIELD, netmon::NetmonConfig::default().hosts)),
        _ => None,
    }
}

/// The standard query each workload is evaluated under (DESIGN.md §5).
pub fn standard_query(name: &str) -> QuerySpec {
    match name {
        "soccer" => QuerySpec::new(
            WindowSpec::sliding(5_000u64, 1_000u64),
            vec![AggregateSpec::new(
                AggregateKind::Mean,
                soccer::SPEED_FIELD,
                "mean_speed",
            )],
            Some(soccer::PLAYER_FIELD),
        ),
        "stock" => QuerySpec::new(
            WindowSpec::tumbling(2_000u64),
            vec![AggregateSpec::new(
                AggregateKind::Mean,
                stock::PRICE_FIELD,
                "mean_price",
            )],
            Some(stock::SYMBOL_FIELD),
        ),
        "netmon" => QuerySpec::new(
            WindowSpec::tumbling(1_000u64),
            vec![AggregateSpec::new(
                AggregateKind::Sum,
                netmon::BYTES_FIELD,
                "bytes",
            )],
            Some(netmon::HOST_FIELD),
        ),
        // Synthetic variants share one global-mean query.
        _ => QuerySpec::new(
            WindowSpec::tumbling(500u64),
            vec![AggregateSpec::new(AggregateKind::Mean, 0, "mean")],
            None,
        ),
    }
}

/// Generate the standard workload suite, each paired with its query.
pub fn standard_benches(ctx: &ExperimentCtx) -> Vec<Bench> {
    quill_gen::workload::standard_suite()
        .into_iter()
        .map(|w| Bench {
            name: w.name,
            stream: (w.generate)(ctx.events, ctx.seed),
            query: standard_query(w.name),
        })
        .collect()
}

/// Per-event delays of a stream in arrival order (delay = running-max
/// timestamp at arrival minus own timestamp).
pub fn delays_of(events: &[Event]) -> Vec<u64> {
    let mut clock = 0u64;
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        out.push(clock.saturating_sub(e.ts.raw()));
        clock = clock.max(e.ts.raw());
    }
    out
}

/// Exact q-quantile of a delay sample (sorted copy).
pub fn delay_quantile(delays: &[u64], q: f64) -> u64 {
    if delays.is_empty() {
        return 0;
    }
    let mut sorted = delays.to_vec();
    sorted.sort_unstable();
    let idx =
        ((q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// The hindsight `K*_S(q)`: the smallest constant slack at which a fraction
/// `q` of a stream's tuples reach their first window of slide `slide` —
/// [`DelayEstimator::window_slack`] over every delay of the stream.
pub fn hindsight_window_slack(delays: &[u64], q: f64, slide: TimeDelta) -> u64 {
    let mut est = DelayEstimator::new(delays.len());
    for &d in delays {
        est.observe(TimeDelta(d));
    }
    est.window_slack(q, slide).map_or(0, |k| k.raw())
}

/// Augment stock events with a `notional = price × volume` column appended
/// at the end of each row (used by VWAP-style error-target experiments).
pub fn with_notional(events: &[Event]) -> Vec<Event> {
    events
        .iter()
        .cloned()
        .map(|mut e| {
            let p = e.row.f64(stock::PRICE_FIELD).unwrap_or(0.0);
            let v = e.row.f64(stock::VOLUME_FIELD).unwrap_or(0.0);
            e.row = std::mem::take(&mut e.row).with(Value::Float(p * v));
            e
        })
        .collect()
}

/// Format helper re-export for experiment modules.
pub use quill_metrics::fmt_f64;

/// Construct a one-field event quickly (micro-bench helper).
pub fn quick_event(ts: u64, seq: u64, v: f64) -> Event {
    Event::new(ts, seq, Row::new([Value::Float(v)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_of_matches_clock_tracker() {
        let evs = vec![
            quick_event(10, 0, 0.0),
            quick_event(5, 1, 0.0),
            quick_event(20, 2, 0.0),
        ];
        assert_eq!(delays_of(&evs), vec![0, 5, 0]);
    }

    #[test]
    fn delay_quantile_endpoints() {
        let d = vec![5, 1, 9, 3];
        assert_eq!(delay_quantile(&d, 0.0), 1);
        assert_eq!(delay_quantile(&d, 1.0), 9);
        assert_eq!(delay_quantile(&[], 0.5), 0);
    }

    #[test]
    fn standard_queries_are_valid() {
        for name in ["soccer", "stock", "netmon", "synthetic-exp"] {
            let q = standard_query(name);
            q.window.validate().expect("valid window");
            for a in &q.aggregates {
                a.validate().expect("valid aggregate");
            }
        }
    }

    #[test]
    fn hindsight_window_slack_is_the_quantile_without_a_slide() {
        let d = vec![0, 100, 200, 300];
        assert_eq!(hindsight_window_slack(&d, 0.9, TimeDelta::ZERO), 300);
        // G(K) = 600 − 3K on [0, 100] against a budget of 0.1·4·1000.
        assert_eq!(hindsight_window_slack(&d, 0.9, TimeDelta(1_000)), 67);
        assert_eq!(hindsight_window_slack(&[], 0.9, TimeDelta(1_000)), 0);
    }

    #[test]
    fn notional_column_is_appended() {
        let s = quill_gen::workload::stock::generate(
            &quill_gen::workload::stock::StockConfig::default(),
            10,
            1,
        );
        let aug = with_notional(&s.events);
        for (orig, new) in s.events.iter().zip(&aug) {
            assert_eq!(new.row.len(), orig.row.len() + 1);
            let p = orig.row.f64(stock::PRICE_FIELD).unwrap();
            let v = orig.row.f64(stock::VOLUME_FIELD).unwrap();
            assert!((new.row.f64(3).unwrap() - p * v).abs() < 1e-9);
        }
    }
}
