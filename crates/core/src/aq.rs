//! AQ-K-slack: adaptive, quality-driven slack control (the paper's
//! contribution, reconstructed — see DESIGN.md §4).
//!
//! The user supplies a [`QualityTarget`]; the strategy continuously chooses
//! the smallest slack `K` expected to meet it:
//!
//! 1. **Delay estimation.** Every arriving event's delay (stream clock minus
//!    its timestamp) feeds a sliding-window [`crate::estimator::DelayEstimator`].
//! 2. **Open-loop model.** The window operator takes a tuple until the
//!    *first* window containing it closes, not until the watermark passes
//!    its timestamp. So a tuple of delay `D` reaches every result it belongs
//!    to iff `D < K + (e₁ − ts)`, with `e₁ − ts` uniform on `(0, S]` for the
//!    smallest registered slide `S` ([`DisorderControl::set_min_slide`]).
//!    For required completeness `q` the minimal slack is
//!    `K̂ = min{K : C_S(K) ≥ q}`, `C_S(K) = 1 − E[min(S, (D − K)⁺)] / S`
//!    ([`crate::estimator::DelayEstimator::window_slack`]); with no window
//!    registered (`S = 0`) that is the quantile `F⁻¹(q)`. Error targets are
//!    first translated to an effective completeness via the online
//!    [`SensitivityModel`].
//! 3. **Closed loop.** A PI controller on the *measured* completeness error
//!    (target − fraction of recent events that arrived before their first
//!    window closed) adjusts the completeness setpoint by a margin,
//!    absorbing estimation error and non-stationarity.
//! 4. **Asymmetric smoothing.** K rises immediately (bursts must not cause
//!    violations) but shrinks by at most a fixed fraction per adaptation
//!    step (hysteresis against transient calm).
//!
//! The buffer's watermark monotonicity makes all K changes sound: shrinking
//! K releases events earlier; growing K only delays future releases.

use crate::buffer::{BufferStats, SlackBuffer};
use crate::controller::PiController;
use crate::estimator::DelayEstimator;
use crate::quality::{QualityTarget, SensitivityModel};
use crate::strategy::DisorderControl;
use quill_engine::prelude::{Event, StreamElement, TimeDelta};
use quill_telemetry::{Counter, Gauge, KChangeReason, Registry, SpanRecorder};
use std::collections::VecDeque;

/// Events between adaptation steps. R-F8 measured the neighbours before
/// they were retired (netmon + delay step, q = 0.97): every 8 events moved
/// completeness by −0.08 points for 8× the steps; every 1 024 cost +1.25
/// points of violations.
const ADAPT_EVERY: u64 = 64;
/// Events before the first adaptation. Until then K is the maximum observed
/// delay (MP-K-slack behaviour) while the sample fills. Set with the
/// reconstruction and never swept.
const WARMUP: u64 = 256;
/// On-time indicators (arrived before the first window containing the tuple
/// closed) over which the feedback loop measures achieved completeness.
/// Set with the reconstruction and never swept.
const QUALITY_WINDOW: usize = 1024;
/// PI proportional gain on the completeness error (completeness units).
/// Set with the reconstruction and never swept.
const KP: f64 = 0.4;
/// PI integral gain. Set with the reconstruction and never swept.
const KI: f64 = 0.08;
/// Most the controller may *lower* the completeness setpoint (trading
/// quality headroom for latency), the mirror of [`MARGIN_MAX`].
const MARGIN_MIN: f64 = -0.01;
/// Most the controller may *raise* the completeness setpoint. From DESIGN
/// §4's sweep on the benchmark's aq_disorder_1q and fanout_100q streams:
/// near q = 1, `C_S` is flat, so K* runs to the sample maximum; +0.05 let
/// bursts push the setpoint there and K spike (mean 1 240 vs 124 at +0.01)
/// for no quality gained, while below +0.01 fanout's met ratio sinks
/// towards its bound.
const MARGIN_MAX: f64 = 0.01;
/// Most K may shrink per adaptation step, as a fraction of the K in force;
/// growth is never limited. Neutral on R-F8's netmon, but lifting it
/// (1.0) lowered fanout_100q's `quality_met_ratio` on each of seeds 1–3
/// (EXPERIMENTS R-F8).
const MAX_SHRINK: f64 = 0.3;

/// What a caller of AQ-K-slack chooses: the quality target, the delay-sample
/// size, hard bounds on K and the open-loop ablation. The control loop's
/// tuning is fixed (the constants above, DESIGN §4).
#[derive(Debug, Clone)]
pub struct AqConfig {
    /// The quality target to meet.
    pub target: QualityTarget,
    /// Sliding delay-sample size `W` of the [`DelayEstimator`] (R-F8
    /// ablation: smaller = noisier K).
    pub sample_capacity: usize,
    /// Hard lower bound on K.
    pub k_min: TimeDelta,
    /// Hard upper bound on K (bounds worst-case latency and memory).
    pub k_max: TimeDelta,
    /// Disable the feedback controller (open-loop ablation, R-F8).
    pub open_loop: bool,
}

impl AqConfig {
    /// Default configuration for a completeness target.
    pub fn completeness(q: f64) -> AqConfig {
        AqConfig::with_target(QualityTarget::Completeness { q })
    }

    /// Default configuration for a relative-error target on `field`.
    pub fn max_rel_error(epsilon: f64, field: usize) -> AqConfig {
        AqConfig::with_target(QualityTarget::MaxRelError { epsilon, field })
    }

    /// Defaults around an arbitrary target.
    pub fn with_target(target: QualityTarget) -> AqConfig {
        AqConfig {
            target,
            sample_capacity: 4096,
            k_min: TimeDelta::ZERO,
            k_max: TimeDelta(u64::MAX / 4),
            open_loop: false,
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        self.target.validate()?;
        if self.sample_capacity == 0 {
            return Err("sample_capacity must be > 0".into());
        }
        if self.k_min > self.k_max {
            return Err("k bounds inverted".into());
        }
        Ok(())
    }
}

/// Introspection counters for experiments and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AqStats {
    /// Adaptation steps performed.
    pub adaptations: u64,
    /// Steps where the smoothing limited a shrink.
    pub shrinks_limited: u64,
    /// Steps clamped at `k_min` or `k_max`.
    pub bound_hits: u64,
    /// Last measured completeness fed to the controller.
    pub measured_completeness: f64,
    /// Last effective completeness setpoint (target + margin).
    pub effective_quantile: f64,
}

/// Control-loop telemetry under `quill.controller.*` / `quill.estimator.*`,
/// updated once per adaptation step. Default handles are no-ops.
#[derive(Debug, Default)]
struct AqTelemetry {
    enabled: bool,
    k: Gauge,
    measured_completeness: Gauge,
    adaptations: Counter,
    est_p95: Gauge,
}

/// The adaptive quality-driven K-slack strategy.
pub struct AqKSlack {
    cfg: AqConfig,
    buf: SlackBuffer,
    estimator: DelayEstimator,
    controller: PiController,
    sensitivity: SensitivityModel,
    /// Smallest slide among the windows fed (zero: none registered).
    slide: TimeDelta,
    /// Sliding on-time indicators (true = made its first window).
    ontime: VecDeque<bool>,
    ontime_count: usize,
    events_seen: u64,
    stats: AqStats,
    telemetry: AqTelemetry,
}

impl AqKSlack {
    /// Build from a configuration.
    ///
    /// # Panics
    /// Panics on invalid configuration; use [`AqConfig::validate`] first for
    /// fallible construction.
    pub fn new(cfg: AqConfig) -> AqKSlack {
        if let Err(e) = cfg.validate() {
            panic!("invalid AqConfig: {e}");
        }
        AqKSlack {
            estimator: DelayEstimator::new(cfg.sample_capacity),
            controller: PiController::new(KP, KI, MARGIN_MIN, MARGIN_MAX),
            sensitivity: SensitivityModel::new(),
            slide: TimeDelta::ZERO,
            ontime: VecDeque::with_capacity(QUALITY_WINDOW),
            ontime_count: 0,
            buf: SlackBuffer::new(0u64),
            events_seen: 0,
            stats: AqStats {
                measured_completeness: 1.0,
                ..AqStats::default()
            },
            telemetry: AqTelemetry::default(),
            cfg,
        }
    }

    /// Convenience: completeness-targeted strategy with defaults.
    pub fn for_completeness(q: f64) -> AqKSlack {
        AqKSlack::new(AqConfig::completeness(q))
    }

    /// Introspection counters.
    pub fn aq_stats(&self) -> AqStats {
        self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &AqConfig {
        &self.cfg
    }

    /// The completeness the *open-loop model* predicts for the slack
    /// currently in force: `C_S(K)` at the slide in force (the delay CDF at
    /// K when no window is registered). Useful for dashboards ("what is this
    /// buffer buying me right now?") and for checking model calibration
    /// against measured quality.
    pub fn predicted_completeness(&self) -> f64 {
        self.estimator.window_completeness(self.buf.k(), self.slide)
    }

    fn record_ontime(&mut self, ontime: bool) {
        if self.ontime.len() == QUALITY_WINDOW {
            if let Some(old) = self.ontime.pop_front() {
                if old {
                    self.ontime_count -= 1;
                }
            }
        }
        self.ontime.push_back(ontime);
        if ontime {
            self.ontime_count += 1;
        }
    }

    fn measured_completeness(&self) -> f64 {
        if self.ontime.is_empty() {
            1.0
        } else {
            self.ontime_count as f64 / self.ontime.len() as f64
        }
    }

    fn adapt(&mut self) {
        let q_req = self.cfg.target.required_completeness(&self.sensitivity);
        let measured = self.measured_completeness();
        let margin = if self.cfg.open_loop {
            0.0
        } else {
            self.controller.update(q_req - measured)
        };
        let q_eff = (q_req + margin).clamp(0.0, 1.0);
        let candidate = self
            .estimator
            .window_slack(q_eff, self.slide)
            .unwrap_or(TimeDelta::ZERO);
        let current = self.buf.k();
        // Grow immediately; shrink at most MAX_SHRINK per step.
        let mut reason = KChangeReason::Adapt;
        let mut next = if candidate >= current {
            candidate
        } else {
            let floor = TimeDelta::from_f64(current.as_f64() * (1.0 - MAX_SHRINK));
            if candidate < floor {
                self.stats.shrinks_limited += 1;
                reason = KChangeReason::ShrinkLimited;
                floor
            } else {
                candidate
            }
        };
        if next < self.cfg.k_min || next > self.cfg.k_max {
            self.stats.bound_hits += 1;
            reason = KChangeReason::BoundClamped;
            next = next.max(self.cfg.k_min).min(self.cfg.k_max);
        }
        let clock = self.buf.clock();
        self.buf.change_k(next, reason, clock);
        self.stats.adaptations += 1;
        self.stats.measured_completeness = measured;
        self.stats.effective_quantile = q_eff;
        if self.telemetry.enabled {
            let p95 = self.estimator.quantile(0.95).unwrap_or(TimeDelta::ZERO);
            let t = &self.telemetry;
            t.adaptations.inc();
            t.k.set(next.as_f64());
            t.measured_completeness.set(measured);
            t.est_p95.set(p95.as_f64());
        }
    }
}

impl DisorderControl for AqKSlack {
    fn instrument(&mut self, telemetry: &Registry) {
        self.buf.instrument(telemetry);
        self.telemetry = AqTelemetry {
            enabled: telemetry.is_enabled(),
            k: telemetry.gauge("quill.controller.k"),
            measured_completeness: telemetry.gauge("quill.controller.measured_completeness"),
            adaptations: telemetry.counter("quill.controller.adaptations"),
            est_p95: telemetry.gauge("quill.estimator.p95"),
        };
    }

    fn attach_spans(&mut self, spans: &SpanRecorder) {
        self.buf.attach_spans(spans);
    }

    fn name(&self) -> String {
        match self.cfg.target {
            QualityTarget::Completeness { q } => format!("aq(q={q})"),
            QualityTarget::MaxRelError { epsilon, .. } => format!("aq(eps={epsilon})"),
        }
    }

    fn set_min_slide(&mut self, slide: Option<TimeDelta>) {
        self.slide = slide.unwrap_or(TimeDelta::ZERO);
    }

    fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
        self.events_seen += 1;
        // Delay against the clock before this event advances it.
        let delay = self.buf.clock().delta_since(e.ts);
        self.estimator.observe(delay);
        if let QualityTarget::MaxRelError { field, .. } = self.cfg.target {
            if let Some(v) = e.row.f64(field) {
                self.sensitivity.observe(v);
            }
        }
        // On time = the first window containing the event, taken to end at
        // the next multiple of the slide past its timestamp, is still open
        // (ends after the watermark). With no window: the timestamp itself
        // is not behind the watermark.
        let s = self.slide.raw();
        let last_open = if s == 0 {
            e.ts.raw()
        } else {
            (e.ts.raw() - e.ts.raw() % s).saturating_add(s - 1)
        };
        self.record_ontime(last_open >= self.buf.watermark().raw());

        if self.events_seen <= WARMUP {
            // Warm-up: MP behaviour (K = max observed delay) while the
            // sample fills.
            let k = self
                .estimator
                .max_ever()
                .min(self.cfg.k_max)
                .max(self.cfg.k_min);
            let clock = self.buf.clock();
            self.buf.change_k(k, KChangeReason::Warmup, clock);
        } else if self.events_seen.is_multiple_of(ADAPT_EVERY) {
            self.adapt();
        }
        self.buf.insert(e, out);
    }

    fn finish(&mut self, out: &mut Vec<StreamElement>) {
        self.buf.finish(out);
    }

    fn current_k(&self) -> TimeDelta {
        self.buf.k()
    }

    fn buffer_stats(&self) -> BufferStats {
        self.buf.stats()
    }

    fn kind(&self) -> crate::plan::StrategyKind {
        // The default k_max (u64::MAX / 4) is a numeric guard, not a user
        // bound — report it as unbounded so the plan analyzer doesn't
        // reason about a cap nobody chose.
        crate::plan::StrategyKind::Aq {
            target: self.cfg.target,
            k_max: (self.cfg.k_max.raw() < u64::MAX / 4).then(|| self.cfg.k_max.raw()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::prelude::{Row, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Feed a synthetic stream with exponential-ish delays and return the
    /// strategy for inspection.
    fn feed_stream(s: AqKSlack, n: u64, mean_delay: f64, seed: u64) -> AqKSlack {
        feed_stream_with(s, n, mean_delay, seed, |_| {})
    }

    /// [`feed_stream`], handing `on_k` the K in force after every event.
    fn feed_stream_with(
        mut s: AqKSlack,
        n: u64,
        mean_delay: f64,
        seed: u64,
        mut on_k: impl FnMut(TimeDelta),
    ) -> AqKSlack {
        let mut rng = StdRng::seed_from_u64(seed);
        // Source timestamps every 10 units; arrival = ts + delay; feed in
        // arrival order.
        let mut arrivals: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let ts = i * 10;
                let u: f64 = rng.gen::<f64>();
                let d = (-mean_delay * (1.0 - u).max(f64::MIN_POSITIVE).ln()) as u64;
                (ts + d, ts)
            })
            .collect();
        arrivals.sort();
        let mut out = Vec::new();
        for (seq, &(_, ts)) in arrivals.iter().enumerate() {
            s.on_event(
                Event::new(ts, seq as u64, Row::new([Value::Float(1.0)])),
                &mut out,
            );
            out.clear();
            on_k(s.current_k());
        }
        s
    }

    #[test]
    fn with_no_window_k_is_the_quantile_sequence_of_before() {
        // FNV-1a over the K in force after every event. The four cases with
        // no window were recorded on the commit before the slide-aware model
        // (K = F⁻¹(q_eff), on time = `ts >= watermark`); the cases with a
        // registered slide or an error target on the commit before the
        // control loop's tuning became constants.
        let q = AqConfig::completeness;
        let eps = |e| AqConfig::max_rel_error(e, 0);
        let pinned = [
            (q(0.95), None, (20_000, 100.0, 1), 8372065279358624658),
            (q(0.9), None, (20_000, 100.0, 3), 2075029297649131834),
            (q(0.999), None, (15_000, 100.0, 2), 7220470730690694737),
            (q(0.95), None, (30_000, 80.0, 4), 6766608110894345922),
            (q(0.95), Some(250), (20_000, 100.0, 1), 16471464097934644433),
            (q(0.9), Some(1_000), (20_000, 100.0, 3), 6054693688209611237),
            (eps(0.1), None, (15_000, 100.0, 7), 17116856573004049801),
            (
                eps(0.05),
                Some(250),
                (15_000, 100.0, 5),
                3705385071819573542,
            ),
        ];
        for (cfg, slide, (n, mean, seed), want) in pinned {
            let mut s = AqKSlack::new(cfg);
            let name = s.name();
            s.set_min_slide(Some(TimeDelta(250)));
            s.set_min_slide(slide.map(TimeDelta));
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            feed_stream_with(s, n, mean, seed, |k| {
                for b in k.raw().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            });
            assert_eq!(h, want, "{name} slide={slide:?} seed={seed}");
        }
    }

    #[test]
    fn a_registered_slide_buys_headroom_and_lowers_k() {
        let plain = feed_stream(AqKSlack::for_completeness(0.95), 20_000, 100.0, 12);
        let mut s = AqKSlack::for_completeness(0.95);
        s.set_min_slide(Some(TimeDelta(1_000)));
        let slid = feed_stream(s, 20_000, 100.0, 12);
        assert!(
            slid.current_k().as_f64() < plain.current_k().as_f64() * 0.7,
            "K with slide {} vs without {}",
            slid.current_k().raw(),
            plain.current_k().raw()
        );
        // The first-window on-time rate still tracks the target.
        let measured = slid.aq_stats().measured_completeness;
        assert!(measured >= 0.93, "measured {measured}");
    }

    #[test]
    fn config_validation() {
        assert!(AqConfig::completeness(0.95).validate().is_ok());
        let mut bad = AqConfig::completeness(0.95);
        bad.sample_capacity = 0;
        assert!(bad.validate().is_err());
        let mut bad = AqConfig::completeness(0.95);
        bad.k_min = TimeDelta(10);
        bad.k_max = TimeDelta(5);
        assert!(bad.validate().is_err());
        assert!(AqConfig::completeness(0.0).validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid AqConfig")]
    fn new_panics_on_invalid() {
        let mut bad = AqConfig::completeness(0.9);
        bad.k_min = TimeDelta(10);
        bad.k_max = TimeDelta(5);
        let _ = AqKSlack::new(bad);
    }

    #[test]
    fn k_converges_near_target_quantile() {
        // Exponential(mean 100) delays: F⁻¹(0.95) = -100·ln(0.05) ≈ 300.
        let s = feed_stream(AqKSlack::for_completeness(0.95), 20_000, 100.0, 1);
        let k = s.current_k().as_f64();
        assert!(
            (200.0..600.0).contains(&k),
            "K={k}, expected near 300 for q=0.95 exp(100)"
        );
        assert!(s.aq_stats().adaptations > 100);
    }

    #[test]
    fn higher_target_needs_larger_k() {
        let lo = feed_stream(AqKSlack::for_completeness(0.90), 15_000, 100.0, 2);
        let hi = feed_stream(AqKSlack::for_completeness(0.999), 15_000, 100.0, 2);
        assert!(
            hi.current_k() > lo.current_k(),
            "q=0.999 K={} should exceed q=0.90 K={}",
            hi.current_k().raw(),
            lo.current_k().raw()
        );
    }

    #[test]
    fn k_is_far_below_max_delay_for_moderate_targets() {
        // The whole point vs. MP-K-slack: q=0.9 needs ~the 90th percentile,
        // not the maximum.
        let s = feed_stream(AqKSlack::for_completeness(0.9), 20_000, 100.0, 3);
        let k = s.current_k().as_f64();
        let max_ever = s.estimator.max_ever().as_f64();
        assert!(k < max_ever / 2.0, "K={k} vs max delay {max_ever}");
    }

    #[test]
    fn measured_completeness_tracks_target() {
        let s = feed_stream(AqKSlack::for_completeness(0.95), 30_000, 80.0, 4);
        let achieved = s.aq_stats().measured_completeness;
        assert!(
            achieved >= 0.93,
            "achieved completeness {achieved} « target 0.95"
        );
    }

    #[test]
    fn warmup_uses_max_delay() {
        let mut s = AqKSlack::for_completeness(0.5);
        let mut out = Vec::new();
        s.on_event(
            Event::new(1000u64, 0, Row::new([Value::Float(0.0)])),
            &mut out,
        );
        s.on_event(
            Event::new(400u64, 1, Row::new([Value::Float(0.0)])),
            &mut out,
        );
        // In order through the rest of the warm-up: K stays the max delay
        // (600), not the median (0).
        for i in 2..WARMUP {
            s.on_event(
                Event::new(1000 + i, i, Row::new([Value::Float(0.0)])),
                &mut out,
            );
        }
        assert_eq!(s.current_k(), TimeDelta(600));
        assert_eq!(s.aq_stats().adaptations, 0);
    }

    #[test]
    fn shrink_is_rate_limited() {
        let mut s = AqKSlack::for_completeness(0.9);
        let mut out = Vec::new();
        // One huge delay during the warm-up pushes K up...
        s.on_event(
            Event::new(10_000u64, 0, Row::new([Value::Float(0.0)])),
            &mut out,
        );
        s.on_event(Event::new(0u64, 1, Row::new([Value::Float(0.0)])), &mut out);
        assert_eq!(s.current_k(), TimeDelta(10_000));
        // ...then orderly traffic shrinks it slowly: each adaptation step
        // keeps K at least (1 − MAX_SHRINK) of the K before it.
        let mut prev = s.current_k().as_f64();
        for i in 2..WARMUP + 10 * ADAPT_EVERY {
            s.on_event(
                Event::new(10_000 + i * 10, i, Row::new([Value::Float(0.0)])),
                &mut out,
            );
            let now = s.current_k().as_f64();
            assert!(
                now >= (prev * (1.0 - MAX_SHRINK)).floor(),
                "shrank too fast at event {i}: {prev} -> {now}"
            );
            prev = now;
        }
        assert!(s.aq_stats().shrinks_limited > 0);
        assert!(prev < 10_000.0, "K never shrank");
    }

    #[test]
    fn k_respects_bounds() {
        let mut cfg = AqConfig::completeness(0.99);
        cfg.k_min = TimeDelta(5);
        cfg.k_max = TimeDelta(50);
        let s = feed_stream_with(AqKSlack::new(cfg), 5_000, 200.0, 5, |k| {
            assert!(k >= TimeDelta(5) && k <= TimeDelta(50), "K={k}");
        });
        assert!(s.aq_stats().bound_hits > 0);
    }

    #[test]
    fn open_loop_skips_controller() {
        let mut cfg = AqConfig::completeness(0.95);
        cfg.open_loop = true;
        let s = feed_stream(AqKSlack::new(cfg), 10_000, 100.0, 6);
        // Effective quantile stays exactly at the target.
        assert!((s.aq_stats().effective_quantile - 0.95).abs() < 1e-12);
    }

    #[test]
    fn error_target_yields_smaller_k_than_equivalent_completeness() {
        // With a near-constant payload, eps=0.1 → required completeness 0.9;
        // a 0.999 completeness target must buffer much longer.
        let strict = feed_stream(AqKSlack::for_completeness(0.999), 15_000, 100.0, 7);
        let lax = feed_stream(
            AqKSlack::new(AqConfig::max_rel_error(0.1, 0)),
            15_000,
            100.0,
            7,
        );
        assert!(
            lax.current_k() < strict.current_k(),
            "error-target K={} should be below strict completeness K={}",
            lax.current_k().raw(),
            strict.current_k().raw()
        );
    }

    #[test]
    fn instrumented_aq_reports_control_loop() {
        let reg = Registry::new();
        let mut s = AqKSlack::for_completeness(0.95);
        s.instrument(&reg);
        let s = feed_stream(s, 10_000, 100.0, 42);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("quill.controller.adaptations"),
            s.aq_stats().adaptations
        );
        assert_eq!(
            snap.gauge("quill.controller.k"),
            Some(s.current_k().as_f64())
        );
        assert_eq!(
            snap.gauge("quill.controller.measured_completeness"),
            Some(s.aq_stats().measured_completeness)
        );
        assert!(snap.gauge("quill.estimator.p95").unwrap() > 0.0);
        // The buffer was wired through the same call.
        assert!(snap.counter("quill.buffer.inserted") > 0);
    }

    #[test]
    fn trace_records_k_decisions_with_reasons() {
        use quill_telemetry::Stage;
        let spans = SpanRecorder::new(1 << 16);
        let mut s = AqKSlack::for_completeness(0.9);
        s.attach_spans(&spans);
        let s = feed_stream(s, 5_000, 100.0, 11);
        assert_eq!(spans.dropped(), 0);
        let changes: Vec<_> = spans
            .spans()
            .into_iter()
            .filter(|sp| sp.stage == Stage::KChange)
            .collect();
        let reasons: Vec<KChangeReason> = changes.iter().filter_map(|sp| sp.reason).collect();
        assert_eq!(reasons.len(), changes.len());
        assert_eq!(reasons.first(), Some(&KChangeReason::Initial));
        assert!(reasons.contains(&KChangeReason::Warmup), "{reasons:?}");
        assert!(
            reasons
                .iter()
                .any(|r| matches!(r, KChangeReason::Adapt | KChangeReason::ShrinkLimited)),
            "{reasons:?}"
        );
        // Every recorded change actually changed K (except the initial).
        for sp in &changes {
            if sp.reason != Some(KChangeReason::Initial) {
                assert_ne!(sp.detail[0], sp.detail[1]);
            }
        }
        assert!(s.aq_stats().adaptations > 0);
    }

    #[test]
    fn name_mentions_target() {
        assert!(AqKSlack::for_completeness(0.95).name().contains("0.95"));
        assert!(AqKSlack::new(AqConfig::max_rel_error(0.01, 0))
            .name()
            .contains("0.01"));
    }

    #[test]
    fn releases_remain_ordered_under_adaptation() {
        let mut s = AqKSlack::for_completeness(0.9);
        let mut rng = StdRng::seed_from_u64(8);
        let mut arrivals: Vec<(u64, u64)> = (0..2000u64)
            .map(|i| {
                let ts = i * 7;
                let d: u64 = rng.gen_range(0..200);
                (ts + d, ts)
            })
            .collect();
        arrivals.sort();
        let mut out = Vec::new();
        for (seq, &(_, ts)) in arrivals.iter().enumerate() {
            s.on_event(Event::new(ts, seq as u64, Row::empty()), &mut out);
        }
        s.finish(&mut out);
        // All non-late releases must be in (ts, seq) order between
        // consecutive watermarks; globally, watermarks must be monotone and
        // every event released after watermark w must have ts >= w... unless
        // counted as a late pass.
        let mut wm = 0u64;
        let mut late_seen = 0u64;
        for el in &out {
            match el {
                StreamElement::Watermark(w) => {
                    assert!(w.raw() >= wm);
                    wm = w.raw();
                }
                StreamElement::Event(e) => {
                    if e.ts.raw() < wm {
                        late_seen += 1;
                    }
                }
                StreamElement::Flush => {}
            }
        }
        assert_eq!(late_seen, s.buffer_stats().late_passed);
    }
}

#[cfg(test)]
mod prediction_tests {
    use super::*;
    use quill_engine::prelude::{Event, Row, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn feed_uniform(slide: Option<TimeDelta>) -> AqKSlack {
        let mut s = AqKSlack::for_completeness(0.9);
        s.set_min_slide(slide);
        let mut rng = StdRng::seed_from_u64(99);
        let mut arrivals: Vec<(u64, u64)> = (0..20_000u64)
            .map(|i| {
                let ts = i * 10;
                (ts + rng.gen_range(0..500), ts)
            })
            .collect();
        arrivals.sort();
        let mut out = Vec::new();
        for (seq, &(_, ts)) in arrivals.iter().enumerate() {
            s.on_event(
                Event::new(ts, seq as u64, Row::new([Value::Float(1.0)])),
                &mut out,
            );
            out.clear();
        }
        s
    }

    #[test]
    fn predicted_completeness_is_calibrated_in_steady_state() {
        let s = feed_uniform(None);
        let predicted = s.predicted_completeness();
        let measured = s.aq_stats().measured_completeness;
        assert!(
            (predicted - measured).abs() < 0.08,
            "open-loop prediction {predicted} vs measured {measured}"
        );
        assert!(predicted >= 0.85, "prediction {predicted} far below target");

        // With a slide registered the prediction is C_S(K), and what it
        // predicts is the first-window on-time rate the loop measures.
        let s = feed_uniform(Some(TimeDelta(250)));
        let predicted = s.predicted_completeness();
        let measured = s.aq_stats().measured_completeness;
        assert!(
            (predicted - measured).abs() < 0.03,
            "C_S prediction {predicted} vs measured {measured}"
        );
        let cdf = s
            .estimator
            .window_completeness(s.current_k(), TimeDelta::ZERO);
        assert!(
            predicted > cdf + 0.05,
            "C_S {predicted} should exceed the tuple CDF at K {cdf}"
        );
    }
}
