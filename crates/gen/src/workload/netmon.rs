//! Simulated network-monitoring counter stream.
//!
//! Substitution for a production monitoring feed (DESIGN.md §3): a fixed
//! fleet of hosts report byte/packet counters at a constant rate; transport
//! shares the monitored network, so delays are Markov-modulated (calm vs.
//! congestion bursts) and optionally *drift* upward over the run. This is
//! the adversarial non-stationary regime used by the adaptivity experiments
//! (R-F4, R-F5, R-F8).
//!
//! Schema: `host:int, bytes:float, packets:int`.

use crate::arrival::ConstantRate;
use crate::delay::{DelayModel, Drift, DriftShape, Exponential, MarkovBurst, Pareto};
use crate::payload::{RandomWalk, ValueGen};
use crate::source::{build_stream, GeneratedStream};
use quill_engine::prelude::{FieldType, Row, Schema, Timestamp, Value};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Parameters of the monitoring feed.
#[derive(Debug, Clone)]
pub struct NetmonConfig {
    /// Number of reporting hosts.
    pub hosts: usize,
    /// Gap between consecutive reports (across all hosts).
    pub report_period: u64,
    /// Mean delay in the calm regime.
    pub calm_delay_mean: f64,
    /// Pareto scale of congestion-burst delays (shape 2.2).
    pub burst_scale: f64,
    /// Per-event probability of entering a burst.
    pub p_enter_burst: f64,
    /// Per-event probability of leaving a burst.
    pub p_exit_burst: f64,
    /// Optional drift of the whole delay scale over event time.
    pub drift: Option<DriftShape>,
}

impl Default for NetmonConfig {
    fn default() -> Self {
        NetmonConfig {
            hosts: 20,
            report_period: 5,
            calm_delay_mean: 25.0,
            burst_scale: 600.0,
            p_enter_burst: 0.01,
            p_exit_burst: 0.05,
            drift: None,
        }
    }
}

impl NetmonConfig {
    /// A step change in delay scale at the given time (R-F8 ablation).
    pub fn with_step_drift(mut self, at: u64) -> Self {
        self.drift = Some(DriftShape::Step {
            before: 1.0,
            after: 4.0,
            at,
        });
        self
    }
}

/// Schema of the monitoring stream.
pub fn schema() -> Schema {
    Schema::new([
        ("host", FieldType::Int),
        ("bytes", FieldType::Float),
        ("packets", FieldType::Int),
    ])
    .expect("static schema is valid")
}

/// Row index of the host id (grouping key).
pub const HOST_FIELD: usize = 0;
/// Row index of the byte counter.
pub const BYTES_FIELD: usize = 1;

/// Generate `n` counter reports.
pub fn generate(cfg: &NetmonConfig, n: usize, seed: u64) -> GeneratedStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let hosts = cfg.hosts.max(1);
    let mut rates: Vec<RandomWalk> = (0..hosts)
        .map(|h| RandomWalk::new(1e6 * (1.0 + h as f64 / 4.0), 2e4).clamped(0.0, 1e9))
        .collect();
    let base: Box<dyn DelayModel> = Box::new(MarkovBurst::new(
        Box::new(Exponential {
            mean: cfg.calm_delay_mean,
        }),
        Box::new(Pareto {
            scale: cfg.burst_scale,
            shape: 2.2,
        }),
        cfg.p_enter_burst,
        cfg.p_exit_burst,
    ));
    let mut delay: Box<dyn DelayModel> = match cfg.drift {
        Some(shape) => Box::new(Drift { base, shape }),
        None => base,
    };
    build_stream(
        schema(),
        n,
        Timestamp(0),
        &mut ConstantRate {
            period: cfg.report_period,
        },
        delay.as_mut(),
        &mut rng,
        |rng, _, i| {
            let host = i % hosts;
            let bytes = rates[host].next_value(rng);
            let packets: i64 = rng.gen_range(10..10_000);
            Row::new([Value::Int(host as i64), bytes, Value::Int(packets)])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_valid_reports() {
        let s = generate(&NetmonConfig::default(), 2000, 1);
        assert_eq!(s.len(), 2000);
        for e in &s.events {
            s.schema.validate(&e.row).expect("schema-valid row");
            assert!(e.row.f64(BYTES_FIELD).unwrap() >= 0.0);
        }
    }

    #[test]
    fn hosts_round_robin() {
        let cfg = NetmonConfig::default();
        let s = generate(&cfg, 2000, 2);
        let mut counts = vec![0u64; cfg.hosts];
        for e in &s.events {
            counts[e.row.get(HOST_FIELD).as_i64().unwrap() as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "round-robin imbalance: {min}..{max}");
    }

    #[test]
    fn drift_increases_late_run_delays() {
        // Compare measured lateness of the first vs. last third under a
        // strong linear drift. Lateness (clock − ts) understates raw delay
        // and the Pareto bursts add heavy-tailed noise, so the drift is made
        // steeper than the R-F4 default (1→3) to keep the signal clear of
        // the noise floor.
        let n = 30_000;
        let horizon = (n as u64) * 5; // event-time span
        let cfg = NetmonConfig {
            drift: Some(DriftShape::Linear {
                from: 1.0,
                to: 6.0,
                horizon,
            }),
            ..NetmonConfig::default()
        };
        let s = generate(&cfg, n, 3);
        // Re-derive delays by replaying the arrival order.
        let mut clock = 0u64;
        let (mut early, mut late) = (0u128, 0u128);
        let (mut n_early, mut n_late) = (0u64, 0u64);
        let cutoff_lo = horizon / 3;
        let cutoff_hi = 2 * horizon / 3;
        for e in &s.events {
            let d = clock.saturating_sub(e.ts.raw());
            clock = clock.max(e.ts.raw());
            if e.ts.raw() < cutoff_lo {
                early += d as u128;
                n_early += 1;
            } else if e.ts.raw() > cutoff_hi {
                late += d as u128;
                n_late += 1;
            }
        }
        let early_mean = early as f64 / n_early.max(1) as f64;
        let late_mean = late as f64 / n_late.max(1) as f64;
        assert!(
            late_mean > early_mean * 1.5,
            "drift not visible: early={early_mean} late={late_mean}"
        );
    }

    #[test]
    fn bursty_stream_has_heavy_tail() {
        let s = generate(&NetmonConfig::default(), 20_000, 4);
        assert!(s.stats.max_delay.raw() as f64 > 10.0 * s.stats.mean_delay());
    }
}
