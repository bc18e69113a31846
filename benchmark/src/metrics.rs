//! The metric tables — names, units, directions and bounds exactly as
//! `BENCHMARK.json` declares them (a unit test keeps the two in step) — and
//! the record one run produces.

use crate::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the daemon sees. Reported by the untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_events_per_s", "1/s", Higher, 0.25),
    e2e("result_wall_p50_ms", "ms", Lower, 0.16),
    e2e("quality_met_ratio", "ratio", Higher, 0.10),
    e2e("completeness_mean", "ratio", Higher, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single layers, by module. Reported by the traced run.
pub const PER_LAYER: [MetricDef; 50] = [
    // serve::wire
    layer("wire.decode_text_ns_per_event", "ns", Lower),
    layer("wire.decode_qbin_ns_per_event", "ns", Lower),
    layer("wire.bytes_per_event", "B", Lower),
    // serve::client
    layer("client.send_ns_per_frame", "ns", Lower),
    // serve::server
    layer("server.shell_ns_per_event", "ns", Lower),
    layer("server.saturate_ns_per_event", "ns", Lower),
    layer("server.queue_depth_p50", "count", Lower),
    layer("server.queue_depth_max", "count", Lower),
    layer("server.ingest_lag_events_p99", "count", Lower),
    layer("server.result_wall_p50_ms", "ms", Lower),
    layer("server.result_wall_p99_ms", "ms", Lower),
    layer("server.deliver_p50_ms", "ms", Lower),
    layer("server.deliver_p99_ms", "ms", Lower),
    // serve::http
    layer("http.poll_rtt_p50_ms", "ms", Lower),
    layer("http.poll_rtt_p99_ms", "ms", Lower),
    layer("http.results_per_poll", "count", Higher),
    layer("http.register_ms_per_query", "ms", Lower),
    // core::buffer + core::strategy
    layer("buffer.stage_ns_per_event", "ns", Lower),
    layer("buffer.peak_buffered", "count", Lower),
    layer("buffer.late_passed_ratio", "ratio", Lower),
    // core::aq (+ estimator, controller)
    layer("aq.k_mean", "ms", Lower),
    layer("aq.k_p99", "ms", Lower),
    layer("aq.k_changes", "count", Lower),
    layer("aq.event_latency_p50", "ms", Lower),
    layer("aq.event_latency_p99", "ms", Lower),
    layer("aq.k_wait_p50_ms", "ms", Lower),
    layer("aq.k_wait_p99_ms", "ms", Lower),
    // core::session
    layer("session.push_ns_per_event", "ns", Lower),
    layer("session.push_stream_ns_per_event", "ns", Lower),
    layer("session.fanout_ns_per_query_event", "ns", Lower),
    layer("session.results_per_event", "count", Lower),
    layer("session.overflow_dropped", "count", Lower),
    // engine::operator::window_op + engine::fiba + engine::aggregate
    layer("window.fold_ns_per_event", "ns", Lower),
    layer("window.emit_ns_per_result", "ns", Lower),
    layer("window.late_dropped", "count", Lower),
    layer("window.open_windows_max", "count", Lower),
    // core::runner + engine::parallel
    layer("runner.execute_seq_ns_per_event", "ns", Lower),
    layer("parallel.execute_1shard_ns_per_event", "ns", Lower),
    layer("parallel.execute_cores_ns_per_event", "ns", Lower),
    layer("parallel.per_core_efficiency", "ratio", Higher),
    layer("host.cpus", "count", Higher),
    layer("host.reference_ms", "ms", Lower),
    // telemetry
    layer("telemetry.on_cost_ns_per_event", "ns", Lower),
    // the benchmark itself: validity, not performance
    layer("bench.prepare_s", "s", Lower),
    layer("bench.gen_late_p99_ms", "ms", Lower),
    layer("bench.sender_busy_ratio", "ratio", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.layer_sum_ratio", "ratio", Lower),
    layer("bench.result_wall_samples", "count", Higher),
    layer("bench.spans_recorded", "count", Higher),
];

pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Shown beside the value in the printed table (`unresolved`, the
    /// percentile actually reported, ...). Not part of the contract line.
    pub note: String,
}

/// Collects a run's metrics in table order, refusing names the tables do
/// not declare.
#[derive(Debug, Default)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_noted(name, value, String::new());
    }

    pub fn put_noted(&mut self, name: &str, value: f64, note: String) {
        let def = def_of(name).unwrap_or_else(|| panic!("undeclared metric `{name}`"));
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: def.unit.to_string(),
            note,
        });
    }

    /// The metrics in the order of `table`; panics if one is missing, so a
    /// run can never silently omit a declared metric.
    pub fn in_order(mut self, table: &[MetricDef]) -> Vec<Metric> {
        table
            .iter()
            .map(|d| {
                let at = self
                    .0
                    .iter()
                    .position(|m| m.name == d.name)
                    .unwrap_or_else(|| panic!("metric `{}` was not measured", d.name));
                self.0.swap_remove(at)
            })
            .collect()
    }
}

/// One run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a of the encoded byte stream, hex.
    pub digest: String,
    pub metrics: Vec<Metric>,
}

impl Record {
    fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json::num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// One line of a result file (`--out`), read back by `--compare`.
    pub fn file_line(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"digest\": \"{}\", \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            json::num(self.seconds),
            self.trace,
            self.digest,
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    pub fn parse(line: &str) -> Result<Record, String> {
        let j = Json::parse(line)?;
        let field = |k: &str| j.get(k).ok_or_else(|| format!("record lacks `{k}`"));
        let metrics = match field("metrics")? {
            Json::Obj(m) => m
                .iter()
                .map(|(name, v)| {
                    Ok(Metric {
                        name: name.clone(),
                        value: v
                            .get("value")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("metric `{name}` lacks a value"))?,
                        unit: v
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        note: String::new(),
                    })
                })
                .collect::<Result<Vec<Metric>, String>>()?,
            _ => return Err("`metrics` is not an object".into()),
        };
        Ok(Record {
            workload: field("workload")?
                .as_str()
                .ok_or("bad workload")?
                .to_string(),
            seed: field("seed")?.as_u64().ok_or("bad seed")?,
            seconds: field("seconds")?.as_f64().ok_or("bad seconds")?,
            trace: field("trace")?.as_bool().ok_or("bad trace")?,
            digest: field("digest")?.as_str().ok_or("bad digest")?.to_string(),
            correct: field("correct")?.as_bool().ok_or("bad correct")?,
            attempted: field("attempted")?.as_u64().ok_or("bad attempted")?,
            failed: field("failed")?.as_u64().ok_or("bad failed")?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The printed table: every metric by name with its unit.
    pub fn print_table(&self) {
        println!(
            "## {} (seed {}, {}, digest {})",
            self.workload,
            self.seed,
            if self.trace {
                "traced run: per-layer"
            } else {
                "untraced run: end to end"
            },
            self.digest
        );
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            println!(
                "  {:<40} {:>16} {}{}",
                m.name,
                format_value(m.value),
                m.unit,
                note
            );
        }
        println!(
            "  operations: {} attempted, {} failed — {}",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is written by hand to the driver's contract; the
    /// tables here are what the binary emits. They must agree.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.get(section).unwrap().as_arr().unwrap();
            assert_eq!(declared.len(), table.len(), "{section}");
            for (d, t) in declared.iter().zip(table) {
                assert_eq!(d.get("name").unwrap().as_str(), Some(t.name));
                assert_eq!(d.get("unit").unwrap().as_str(), Some(t.unit), "{}", t.name);
                let better = match t.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                assert_eq!(
                    d.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    t.name
                );
                assert_eq!(d.get("bound").and_then(Json::as_f64), t.bound, "{}", t.name);
            }
        }
        let declared = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(declared.len(), WORKLOADS.len());
        for (d, w) in declared.iter().zip(&WORKLOADS) {
            assert_eq!(d.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(d.get("why").unwrap().as_str(), Some(w.why));
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn records_round_trip_through_their_file_line() {
        let mut set = MetricSet::default();
        set.put("setup_s", 0.123456789);
        set.put_noted("result_wall_p50_ms", 61.5, "1504 samples".into());
        let r = Record {
            workload: "wire_inorder_1q".into(),
            seed: 7,
            seconds: 20.0,
            trace: false,
            correct: true,
            attempted: 1000,
            failed: 0,
            digest: "00ff".into(),
            metrics: set.0,
        };
        let mut back = Record::parse(&r.file_line()).unwrap();
        // Notes are for the printed table only.
        back.metrics[0].note.clear();
        let mut want = r.clone();
        want.metrics.iter_mut().for_each(|m| m.note.clear());
        want.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back, want);
        let line = Json::parse(&r.contract_line()).unwrap();
        let Json::Obj(keys) = &line else { panic!() };
        assert_eq!(
            keys.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_metrics_are_refused() {
        MetricSet::default().put("made.up", 1.0);
    }
}
