//! The disorder-control strategy interface and baseline strategies.
//!
//! A [`DisorderControl`] sits between the arriving (out-of-order) stream and
//! the query pipeline: it forwards every event as it arrives and punctuates
//! the stream with watermarks, deciding how long event time stays open
//! before a window over it is final. The strategies differ **only** in how
//! they choose the slack bound `K` over time:
//!
//! | strategy | K | guarantees | cost |
//! |---|---|---|---|
//! | [`DropAll`] | 0 | none | zero latency |
//! | [`FixedKSlack`] | constant, user-chosen | whatever the chosen K buys | constant latency, blind to the workload |
//! | [`MpKSlack`] | max delay seen so far | converges to zero loss on bounded delays | latency ratchets up to the worst burst, never down |
//! | [`crate::aq::AqKSlack`] | quality-driven, adaptive | meets the user's quality target | minimal latency for the target (the paper's contribution) |
//! | [`OracleBuffer`] | ∞ | exact results | unbounded latency (offline reference) |

use crate::buffer::{BufferStats, SlackBuffer};
use crate::plan::StrategyKind;
use quill_engine::prelude::{Event, StreamElement, TimeDelta};
use quill_telemetry::{KChangeReason, Registry, SpanRecorder};

/// A pluggable disorder-control strategy.
pub trait DisorderControl: Send {
    /// Strategy name for reports.
    fn name(&self) -> String;

    /// Attach runtime telemetry instruments. Buffer-backed strategies wire
    /// their [`SlackBuffer`] to `quill.buffer.*`; adaptive strategies add
    /// `quill.controller.*` / `quill.estimator.*`. Default: no telemetry.
    fn instrument(&mut self, _telemetry: &Registry) {}

    /// Attach a span recorder. Buffer-backed strategies wire their
    /// [`SlackBuffer`] ([`SlackBuffer::attach_spans`]: the initial K, one
    /// residency span per watermark advance, one late-arrival span per late
    /// pass), and adaptive strategies record each K decision with its
    /// trigger reason through [`SlackBuffer::change_k`]. Default: no spans.
    fn attach_spans(&mut self, _spans: &SpanRecorder) {}

    /// Tell the strategy the smallest slide among the windows its stream
    /// feeds (`None`: no window registered). A tuple then reaches its
    /// results as long as the first window it belongs to is open, which is
    /// up to one slide past its timestamp, and a quality-driven strategy can
    /// size `K` for that. [`crate::session::Session`] calls this after every
    /// registration change, the batch entry points once before staging.
    /// Default: ignored.
    fn set_min_slide(&mut self, _slide: Option<TimeDelta>) {}

    /// Feed one arriving event: it is appended to `out` at once, followed by
    /// any watermark its arrival lets through.
    fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>);

    /// Apply an out-of-band per-source heartbeat: a promise that no future
    /// event from `source` carries a timestamp below `ts` (Srivastava &
    /// Widom-style punctuation). Progress-driven strategies
    /// ([`crate::punctuated::PunctuatedBuffer`]) advance their combined
    /// watermark and append it to `out`; delay-driven strategies ignore
    /// heartbeats (the default no-op), because their K is a function of
    /// observed arrival delays, not source progress.
    fn on_heartbeat(
        &mut self,
        _source: &quill_engine::value::Key,
        _ts: quill_engine::time::Timestamp,
        _out: &mut Vec<StreamElement>,
    ) {
    }

    /// End of stream: release everything and emit `Flush`.
    fn finish(&mut self, out: &mut Vec<StreamElement>);

    /// The slack currently in force.
    fn current_k(&self) -> TimeDelta;

    /// Buffer occupancy / lateness counters.
    fn buffer_stats(&self) -> BufferStats;

    /// The statically known behaviour class of this strategy, consumed by
    /// the pre-execution plan analyzer ([`crate::plan::analyze_plan`]).
    /// Default: [`StrategyKind::Custom`] (the analyzer assumes nothing).
    fn kind(&self) -> StrategyKind {
        StrategyKind::Custom
    }
}

/// K = 0: release every event instantly; any disorder reaches the query as
/// late events. The zero-latency / lowest-quality endpoint.
pub struct DropAll {
    buf: SlackBuffer,
}

impl DropAll {
    /// Build the strategy.
    pub fn new() -> DropAll {
        DropAll {
            buf: SlackBuffer::new(0u64),
        }
    }
}

impl Default for DropAll {
    fn default() -> Self {
        DropAll::new()
    }
}

impl DisorderControl for DropAll {
    fn instrument(&mut self, telemetry: &Registry) {
        self.buf.instrument(telemetry);
    }
    fn attach_spans(&mut self, spans: &SpanRecorder) {
        self.buf.attach_spans(spans);
    }
    fn name(&self) -> String {
        "drop".into()
    }
    fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
        self.buf.insert(e, out);
    }
    fn finish(&mut self, out: &mut Vec<StreamElement>) {
        self.buf.finish(out);
    }
    fn current_k(&self) -> TimeDelta {
        TimeDelta::ZERO
    }
    fn buffer_stats(&self) -> BufferStats {
        self.buf.stats()
    }
    fn kind(&self) -> StrategyKind {
        StrategyKind::DropAll
    }
}

/// Classic fixed K-slack (Babcock et al.): a constant, user-chosen slack.
pub struct FixedKSlack {
    k: TimeDelta,
    buf: SlackBuffer,
}

impl FixedKSlack {
    /// Build with the given constant slack.
    pub fn new(k: impl Into<TimeDelta>) -> FixedKSlack {
        let k = k.into();
        FixedKSlack {
            k,
            buf: SlackBuffer::new(k),
        }
    }
}

impl DisorderControl for FixedKSlack {
    fn instrument(&mut self, telemetry: &Registry) {
        self.buf.instrument(telemetry);
    }
    fn attach_spans(&mut self, spans: &SpanRecorder) {
        self.buf.attach_spans(spans);
    }
    fn name(&self) -> String {
        format!("fixed(K={})", self.k.raw())
    }
    fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
        self.buf.insert(e, out);
    }
    fn finish(&mut self, out: &mut Vec<StreamElement>) {
        self.buf.finish(out);
    }
    fn current_k(&self) -> TimeDelta {
        self.k
    }
    fn buffer_stats(&self) -> BufferStats {
        self.buf.stats()
    }
    fn kind(&self) -> StrategyKind {
        StrategyKind::FixedK(self.k.raw())
    }
}

/// MP-K-slack (Mutschler & Philippsen): the conservative adaptive baseline.
/// `K` ratchets up to the maximum delay observed so far (optionally capped),
/// guaranteeing eventual zero loss for bounded delays — at the price of
/// latency that tracks the *worst* burst ever seen and never recovers.
pub struct MpKSlack {
    buf: SlackBuffer,
    max_delay: TimeDelta,
    cap: TimeDelta,
}

impl MpKSlack {
    /// Uncapped MP-K-slack.
    pub fn new() -> MpKSlack {
        MpKSlack {
            buf: SlackBuffer::new(0u64),
            max_delay: TimeDelta::ZERO,
            cap: TimeDelta::MAX,
        }
    }

    /// MP-K-slack with an upper bound on K (the "bounded" variant used when
    /// memory or latency must stay finite under unbounded tails).
    pub fn bounded(cap: impl Into<TimeDelta>) -> MpKSlack {
        MpKSlack {
            buf: SlackBuffer::new(0u64),
            max_delay: TimeDelta::ZERO,
            cap: cap.into(),
        }
    }
}

impl Default for MpKSlack {
    fn default() -> Self {
        MpKSlack::new()
    }
}

impl DisorderControl for MpKSlack {
    fn instrument(&mut self, telemetry: &Registry) {
        self.buf.instrument(telemetry);
    }
    fn attach_spans(&mut self, spans: &SpanRecorder) {
        self.buf.attach_spans(spans);
    }
    fn name(&self) -> String {
        if self.cap == TimeDelta::MAX {
            "mp".into()
        } else {
            format!("mp(cap={})", self.cap.raw())
        }
    }
    fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
        // Delay measured against the clock *before* this event advances it.
        let delay = self.buf.clock().delta_since(e.ts);
        if delay > self.max_delay {
            self.max_delay = delay.min(self.cap);
            self.buf
                .change_k(self.max_delay, KChangeReason::Ratchet, e.ts);
        }
        self.buf.insert(e, out);
    }
    fn finish(&mut self, out: &mut Vec<StreamElement>) {
        self.buf.finish(out);
    }
    fn current_k(&self) -> TimeDelta {
        self.max_delay
    }
    fn buffer_stats(&self) -> BufferStats {
        self.buf.stats()
    }
    fn kind(&self) -> StrategyKind {
        StrategyKind::Mp {
            cap: (self.cap != TimeDelta::MAX).then(|| self.cap.raw()),
        }
    }
}

/// Infinite slack: no watermark until end of stream, so no event is ever
/// late and every window sees all of its tuples. The quality oracle /
/// offline reference.
pub struct OracleBuffer {
    buf: SlackBuffer,
}

impl OracleBuffer {
    /// Build the strategy.
    pub fn new() -> OracleBuffer {
        OracleBuffer {
            buf: SlackBuffer::new(TimeDelta::MAX),
        }
    }
}

impl Default for OracleBuffer {
    fn default() -> Self {
        OracleBuffer::new()
    }
}

impl DisorderControl for OracleBuffer {
    fn instrument(&mut self, telemetry: &Registry) {
        self.buf.instrument(telemetry);
    }
    fn attach_spans(&mut self, spans: &SpanRecorder) {
        self.buf.attach_spans(spans);
    }
    fn name(&self) -> String {
        "oracle".into()
    }
    fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
        self.buf.insert(e, out);
    }
    fn finish(&mut self, out: &mut Vec<StreamElement>) {
        self.buf.finish(out);
    }
    fn current_k(&self) -> TimeDelta {
        TimeDelta::MAX
    }
    fn buffer_stats(&self) -> BufferStats {
        self.buf.stats()
    }
    fn kind(&self) -> StrategyKind {
        StrategyKind::Oracle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::prelude::{Row, Timestamp, Value};

    fn ev(ts: u64, seq: u64) -> Event {
        Event::new(ts, seq, Row::new([Value::Int(ts as i64)]))
    }

    fn run(s: &mut dyn DisorderControl, arrivals: Vec<Event>) -> Vec<StreamElement> {
        let mut out = Vec::new();
        for e in arrivals {
            s.on_event(e, &mut out);
        }
        s.finish(&mut out);
        out
    }

    fn event_ts(out: &[StreamElement]) -> Vec<u64> {
        out.iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.ts.raw())
            .collect()
    }

    #[test]
    fn drop_all_forwards_immediately_in_arrival_order() {
        let mut s = DropAll::new();
        let out = run(&mut s, vec![ev(10, 0), ev(5, 1), ev(20, 2)]);
        assert_eq!(event_ts(&out), vec![10, 5, 20]);
        assert_eq!(s.buffer_stats().late_passed, 1);
        assert_eq!(s.current_k(), TimeDelta::ZERO);
    }

    #[test]
    fn fixed_k_reorders_up_to_k() {
        let mut s = FixedKSlack::new(10u64);
        let out = run(&mut s, vec![ev(10, 0), ev(5, 1), ev(20, 2), ev(3, 3)]);
        // ts=5 fits in K=10, so it precedes the first watermark (20 − 10);
        // ts=3 arrives after it (delay 17 > 10) → late pass.
        assert_eq!(
            out,
            vec![
                StreamElement::Event(ev(10, 0)),
                StreamElement::Event(ev(5, 1)),
                StreamElement::Event(ev(20, 2)),
                StreamElement::Watermark(Timestamp(10)),
                StreamElement::Event(ev(3, 3)),
                StreamElement::Flush,
            ]
        );
        assert_eq!(s.buffer_stats().late_passed, 1);
        assert!(s.name().contains("10"));
    }

    #[test]
    fn mp_ratchets_k_to_max_delay() {
        let mut s = MpKSlack::new();
        let mut out = Vec::new();
        s.on_event(ev(100, 0), &mut out);
        assert_eq!(s.current_k(), TimeDelta::ZERO);
        s.on_event(ev(40, 1), &mut out); // delay 60
        assert_eq!(s.current_k(), TimeDelta(60));
        s.on_event(ev(90, 2), &mut out); // delay 10 < 60 → unchanged
        assert_eq!(s.current_k(), TimeDelta(60));
        s.on_event(ev(300, 3), &mut out);
        s.on_event(ev(50, 4), &mut out); // delay 250
        assert_eq!(s.current_k(), TimeDelta(250));
    }

    #[test]
    fn mp_never_shrinks() {
        let mut s = MpKSlack::new();
        let mut out = Vec::new();
        s.on_event(ev(1000, 0), &mut out);
        s.on_event(ev(1, 1), &mut out); // delay 999
        for i in 0..100 {
            s.on_event(ev(1001 + i, 2 + i), &mut out); // all in order
        }
        assert_eq!(s.current_k(), TimeDelta(999));
    }

    #[test]
    fn mp_bounded_caps_k() {
        let mut s = MpKSlack::bounded(50u64);
        let mut out = Vec::new();
        s.on_event(ev(1000, 0), &mut out);
        s.on_event(ev(1, 1), &mut out);
        assert_eq!(s.current_k(), TimeDelta(50));
        assert!(s.name().contains("cap=50"));
    }

    #[test]
    fn oracle_emits_exact_sorted_sequence() {
        let mut s = OracleBuffer::new();
        let out = run(&mut s, vec![ev(10, 0), ev(5, 1), ev(20, 2), ev(1, 3)]);
        // No watermark before Flush: every event is on time, so each window
        // folds its exact tuple set, whatever the arrival order.
        assert_eq!(event_ts(&out), vec![10, 5, 20, 1]);
        assert!(!out.iter().any(|e| matches!(e, StreamElement::Watermark(_))));
        assert!(out.last().is_some_and(StreamElement::is_flush));
        assert_eq!(s.buffer_stats().late_passed, 0);
        assert_eq!(s.buffer_stats().released, 4);
    }

    #[test]
    fn mp_ratchet_is_traced_with_reason() {
        let spans = SpanRecorder::new(64);
        let mut s = MpKSlack::new();
        s.attach_spans(&spans);
        let mut out = Vec::new();
        s.on_event(ev(100, 0), &mut out);
        s.on_event(ev(40, 1), &mut out); // delay 60 → ratchet
        s.on_event(ev(90, 2), &mut out); // delay 10 → no change
        let changes: Vec<_> = spans
            .spans()
            .into_iter()
            .filter(|sp| sp.stage == quill_telemetry::Stage::KChange)
            .map(|sp| (sp.detail[0], sp.detail[1], sp.reason, sp.begin))
            .collect();
        assert_eq!(
            changes,
            vec![
                (0, 0, Some(KChangeReason::Initial), 0),
                (0, 60, Some(KChangeReason::Ratchet), 40),
            ]
        );
    }

    #[test]
    fn watermark_follows_k_for_fixed() {
        let mut s = FixedKSlack::new(5u64);
        let mut out = Vec::new();
        s.on_event(ev(100, 0), &mut out);
        let wm = out.iter().rev().find_map(|e| match e {
            StreamElement::Watermark(w) => Some(*w),
            _ => None,
        });
        assert_eq!(wm, Some(Timestamp(95)));
    }
}
