//! Per-source punctuation baseline (Srivastava & Widom-style heartbeats).
//!
//! When the stream multiplexes several FIFO sources, each source's latest
//! timestamp is an implicit heartbeat: no *future* event from that source
//! can be older. The combined low-watermark `min over sources of (latest
//! ts)` then bounds every future event — **if** sources really are
//! internally ordered. With per-event transport delays (our workloads),
//! each source is itself slightly disordered, so punctuation alone
//! under-buffers; the strategy takes an optional per-source slack to
//! compensate. It is the classic alternative to K-slack and a useful
//! comparison point: no delay estimation at all, but it needs source
//! cooperation and degrades when any single source stalls.

use crate::buffer::{BufferStats, SlackBuffer};
use crate::strategy::DisorderControl;
use quill_engine::prelude::{Event, Key, StreamElement, TimeDelta, Timestamp};
use std::collections::HashMap;

/// Disorder control driven by per-source progress instead of delay
/// statistics.
pub struct PunctuatedBuffer {
    source_field: usize,
    /// Extra slack subtracted from the combined watermark (compensates for
    /// intra-source disorder).
    source_slack: TimeDelta,
    /// Hold back until this many distinct sources have been seen (else one
    /// early source would define the watermark alone).
    expected_sources: usize,
    per_source: HashMap<Key, Timestamp>,
    buf: SlackBuffer,
    clock: Timestamp,
    saw_event: bool,
}

impl PunctuatedBuffer {
    /// Build with the row index carrying the source id.
    pub fn new(source_field: usize, expected_sources: usize) -> PunctuatedBuffer {
        PunctuatedBuffer {
            source_field,
            source_slack: TimeDelta::ZERO,
            expected_sources: expected_sources.max(1),
            per_source: HashMap::new(),
            buf: SlackBuffer::new(TimeDelta::MAX),
            clock: Timestamp::MIN,
            saw_event: false,
        }
    }

    /// Add per-source slack (for sources that are themselves disordered).
    pub fn with_source_slack(mut self, slack: impl Into<TimeDelta>) -> PunctuatedBuffer {
        self.source_slack = slack.into();
        self
    }

    /// Distinct sources observed so far.
    pub fn sources_seen(&self) -> usize {
        self.per_source.len()
    }

    fn combined_watermark(&self) -> Timestamp {
        if self.per_source.len() < self.expected_sources {
            return Timestamp::MIN;
        }
        self.per_source
            .values()
            .copied()
            .min()
            .unwrap_or(Timestamp::MIN)
            .saturating_sub(self.source_slack)
    }
}

impl DisorderControl for PunctuatedBuffer {
    fn instrument(&mut self, telemetry: &quill_telemetry::Registry) {
        self.buf.instrument(telemetry);
    }

    fn attach_spans(&mut self, spans: &quill_telemetry::SpanRecorder) {
        self.buf.attach_spans(spans);
    }

    fn name(&self) -> String {
        if self.source_slack == TimeDelta::ZERO {
            "punct".into()
        } else {
            format!("punct(slack={})", self.source_slack.raw())
        }
    }

    fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
        let source = Key(e.row.get(self.source_field).clone());
        let entry = self.per_source.entry(source).or_insert(e.ts);
        *entry = (*entry).max(e.ts);
        self.clock = if self.saw_event {
            self.clock.max(e.ts)
        } else {
            e.ts
        };
        self.saw_event = true;
        // Express the desired watermark as an equivalent K for the slack
        // buffer: releasing up to `wm` is releasing up to `clock - K` with
        // K = clock - wm. Watermark monotonicity is enforced by the buffer.
        let wm = self.combined_watermark();
        let k = self.clock.delta_since(wm);
        self.buf.set_k(k);
        self.buf.insert(e, out);
    }

    fn on_heartbeat(&mut self, source: &Key, ts: Timestamp, out: &mut Vec<StreamElement>) {
        let entry = self.per_source.entry(source.clone()).or_insert(ts);
        *entry = (*entry).max(ts);
        // The clock (max *event* timestamp) does not advance: a heartbeat
        // carries progress, not data. The combined watermark may advance,
        // which shrinks K and can release buffered events. When a heartbeat
        // runs ahead of the clock, `delta_since` saturates at zero and the
        // buffer conservatively releases up to the clock only.
        let wm = self.combined_watermark();
        let k = self.clock.delta_since(wm);
        self.buf.set_k(k);
        self.buf.drain_ready(out);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::prelude::{Row, Value};

    fn ev(ts: u64, seq: u64, source: i64) -> Event {
        Event::new(
            ts,
            seq,
            Row::new([Value::Int(source), Value::Float(ts as f64)]),
        )
    }

    fn watermarks(out: &[StreamElement]) -> Vec<u64> {
        out.iter()
            .filter_map(|e| match e {
                StreamElement::Watermark(w) => Some(w.raw()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn holds_until_all_sources_report() {
        let mut s = PunctuatedBuffer::new(0, 2);
        let mut out = Vec::new();
        s.on_event(ev(100, 0, 1), &mut out);
        s.on_event(ev(200, 1, 1), &mut out);
        // Only source 1 seen: no watermark, both events held.
        assert!(watermarks(&out).is_empty());
        assert_eq!(s.buffer_stats().released, 0);
        assert_eq!(s.sources_seen(), 1);
        s.on_event(ev(150, 2, 2), &mut out);
        // Now wm = min(200, 150) = 150 → releases ts <= 150.
        assert_eq!(watermarks(&out), vec![150]);
        assert_eq!(s.buffer_stats().released, 2);
    }

    #[test]
    fn watermark_follows_slowest_source() {
        let mut s = PunctuatedBuffer::new(0, 2);
        let mut out = Vec::new();
        s.on_event(ev(10, 0, 1), &mut out);
        s.on_event(ev(10, 1, 2), &mut out);
        s.on_event(ev(1000, 2, 1), &mut out); // source 1 races ahead
        out.clear();
        s.on_event(ev(20, 3, 2), &mut out);
        // wm = min(1000, 20) = 20: ts=20 released, ts=1000 held.
        assert_eq!(watermarks(&out), vec![20]);
        assert_eq!(s.buffer_stats().released, 3);
    }

    #[test]
    fn fifo_sources_are_lossless() {
        // Perfectly FIFO interleaved sources: punctuation is exact.
        let mut s = PunctuatedBuffer::new(0, 2);
        let mut out = Vec::new();
        let mut seq = 0;
        for t in 0..100u64 {
            for src in [1i64, 2] {
                s.on_event(ev(t * 10 + src as u64, seq, src), &mut out);
                seq += 1;
            }
        }
        s.finish(&mut out);
        assert_eq!(s.buffer_stats().late_passed, 0);
        assert_eq!(s.buffer_stats().released, 200);
    }

    #[test]
    fn intra_source_disorder_causes_late_passes_without_slack() {
        let mut s = PunctuatedBuffer::new(0, 1);
        let mut out = Vec::new();
        s.on_event(ev(100, 0, 1), &mut out); // wm jumps to 100
        s.on_event(ev(50, 1, 1), &mut out); // behind own source's watermark
        assert_eq!(s.buffer_stats().late_passed, 1);
    }

    #[test]
    fn heartbeats_release_without_data() {
        let mut s = PunctuatedBuffer::new(0, 2);
        let mut out = Vec::new();
        s.on_event(ev(100, 0, 1), &mut out);
        s.on_event(ev(200, 1, 1), &mut out);
        assert!(watermarks(&out).is_empty(), "source 2 unseen");
        // A heartbeat from source 2 vouches for its progress: wm = min(200,
        // 150) = 150 without any event from it, releasing ts <= 150.
        s.on_heartbeat(&Key(Value::Int(2)), Timestamp(150), &mut out);
        assert_eq!(watermarks(&out), vec![150]);
        assert_eq!(s.buffer_stats().released, 1);
        assert_eq!(s.sources_seen(), 2);
        // A heartbeat ahead of the clock saturates at the clock.
        s.on_heartbeat(&Key(Value::Int(2)), Timestamp(10_000), &mut out);
        s.on_heartbeat(&Key(Value::Int(1)), Timestamp(10_000), &mut out);
        assert_eq!(watermarks(&out), vec![150, 200]);
        assert_eq!(s.buffer_stats().released, 2);
    }

    #[test]
    fn source_slack_compensates_intra_source_disorder() {
        let mut s = PunctuatedBuffer::new(0, 1).with_source_slack(60u64);
        let mut out = Vec::new();
        s.on_event(ev(100, 0, 1), &mut out); // wm = 100 - 60 = 40
        s.on_event(ev(50, 1, 1), &mut out); // 50 >= 40 → buffered fine
        assert_eq!(s.buffer_stats().late_passed, 0);
        assert!(s.name().contains("60"));
    }
}
