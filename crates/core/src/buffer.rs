//! The K-slack buffer.
//!
//! [`SlackBuffer`] is the mechanism every disorder-control strategy shares.
//! It forwards every arriving event at once, in arrival order, and decides
//! only *when* event time is final: an event counts as held until the
//! *stream clock* (max event timestamp seen) exceeds its timestamp by at
//! least `K`, and each advance of that bound is emitted as a watermark. The
//! window operator downstream inserts events into its tree in any order, so
//! the buffer never sorts. The strategies differ only in how they set `K`
//! over time.
//!
//! ## Invariants (property-tested)
//!
//! * Output events are the input in arrival order, each ahead of any
//!   watermark its own insert emits.
//! * The emitted watermark sequence is strictly increasing and never exceeds
//!   `clock − K_at_emission`, so every watermark `w` is sound: each event
//!   with `ts < w` that is not a late pass was forwarded before it.
//! * Changing `K` never regresses the watermark: shrinking `K` releases
//!   more events immediately; growing `K` merely pauses future releases.
//! * Events arriving behind the already-emitted watermark are *late
//!   passes*: forwarded like any other, but never counted as held, and the
//!   window operator accounts for them.

use quill_engine::prelude::{Event, StreamElement, TimeDelta, Timestamp};
use quill_telemetry::{Counter, Gauge, KChangeReason, Registry, SpanRecorder, Stage};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Counters describing a buffer's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Events that entered the buffer.
    pub inserted: u64,
    /// Held events the watermark has since passed (or `finish` released).
    pub released: u64,
    /// Events forwarded late (arrived behind the emitted watermark).
    pub late_passed: u64,
    /// High-water mark of buffered event count.
    pub max_buffered: usize,
    /// Sum over arrivals of the buffer size after insertion (for mean size).
    pub size_integral: u128,
}

impl BufferStats {
    /// Mean buffer size observed at arrival instants.
    pub fn mean_buffered(&self) -> f64 {
        if self.inserted == 0 {
            0.0
        } else {
            self.size_integral as f64 / self.inserted as f64
        }
    }
}

/// Telemetry handles for one buffer under the `quill.buffer.*` namespace.
/// Default-constructed handles are no-ops, so an un-instrumented buffer
/// pays one branch per update.
#[derive(Debug, Default)]
struct BufferTelemetry {
    inserted: Counter,
    released: Counter,
    late_passed: Counter,
    depth: Gauge,
}

/// A watermark generator with a dynamically adjustable slack bound.
#[derive(Debug)]
pub struct SlackBuffer {
    k: TimeDelta,
    clock: Timestamp,
    saw_event: bool,
    /// Exclusive lower bound on timestamps still on time: every event with
    /// `ts < watermark` that arrives from now on is a late pass.
    watermark: Timestamp,
    /// Timestamps of the forwarded events the watermark has not passed yet,
    /// a min-heap: what the buffer counts as held.
    pending: BinaryHeap<Reverse<Timestamp>>,
    stats: BufferStats,
    telemetry: BufferTelemetry,
    spans: SpanRecorder,
}

impl SlackBuffer {
    /// A buffer with the given initial slack.
    pub fn new(k: impl Into<TimeDelta>) -> SlackBuffer {
        SlackBuffer {
            k: k.into(),
            clock: Timestamp::MIN,
            saw_event: false,
            watermark: Timestamp::MIN,
            pending: BinaryHeap::new(),
            stats: BufferStats::default(),
            telemetry: BufferTelemetry::default(),
            spans: SpanRecorder::disabled(),
        }
    }

    /// Attach `quill.buffer.*` instruments from `telemetry`: `inserted` /
    /// `released` / `late_passed` counters and a `depth` gauge (events held
    /// right now). With a disabled registry this is free.
    pub fn instrument(&mut self, telemetry: &Registry) {
        self.telemetry = BufferTelemetry {
            inserted: telemetry.counter("quill.buffer.inserted"),
            released: telemetry.counter("quill.buffer.released"),
            late_passed: telemetry.counter("quill.buffer.late_passed"),
            depth: telemetry.gauge("quill.buffer.depth"),
        };
    }

    /// Attach a span recorder (cloned; clones share the ring) and record
    /// the K in force now as an [`KChangeReason::Initial`]
    /// [`Stage::KChange`], so every stream names the slack from the start.
    /// From then on every watermark advance records one
    /// [`Stage::BufferResidency`] span from the oldest event it released to
    /// the watermark — the longest event-time wait the buffer imposed in
    /// that release — carrying the released count and the watermark (an
    /// advance that released nothing has zero extent; the flush ends at the
    /// stream clock and emits watermark `u64::MAX`). Every late pass records
    /// a [`Stage::LateArrival`] span from its timestamp to the watermark it
    /// arrived behind, and [`SlackBuffer::change_k`] a [`Stage::KChange`].
    /// A disabled recorder costs one branch per hook.
    pub fn attach_spans(&mut self, spans: &SpanRecorder) {
        self.spans = spans.clone();
        let k = self.k.raw();
        self.spans.record_k_change(0, k, k, KChangeReason::Initial);
    }

    /// Current slack bound.
    pub fn k(&self) -> TimeDelta {
        self.k
    }

    /// Stream clock (max event timestamp observed; MIN before any event).
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// Watermark emitted so far.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Number of events currently held: forwarded, but not yet passed by
    /// the watermark.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Change the slack bound. Takes effect immediately: shrinking may
    /// release events (returned via the next [`SlackBuffer::insert`] or an
    /// explicit [`SlackBuffer::drain_ready`] call); the watermark never
    /// regresses.
    pub fn set_k(&mut self, k: impl Into<TimeDelta>) {
        self.k = k.into();
    }

    /// [`SlackBuffer::set_k`] as a controller decision: when K moves,
    /// record a [`Stage::KChange`] at event time `at` naming `reason`.
    pub fn change_k(&mut self, k: impl Into<TimeDelta>, reason: KChangeReason, at: Timestamp) {
        let k = k.into();
        if k != self.k {
            self.spans
                .record_k_change(at.raw(), self.k.raw(), k.raw(), reason);
        }
        self.k = k;
    }

    /// Insert one arriving event: forward it to `out` at once, then append
    /// the watermark its arrival lets through, if any. An event behind the
    /// emitted watermark is a late pass and is not counted as held.
    pub fn insert(&mut self, e: Event, out: &mut Vec<StreamElement>) {
        self.clock = if self.saw_event {
            self.clock.max(e.ts)
        } else {
            e.ts
        };
        self.saw_event = true;
        if e.ts < self.watermark {
            self.stats.late_passed += 1;
            self.telemetry.late_passed.inc();
            let (ts, wm) = (e.ts.raw(), self.watermark.raw());
            self.spans
                .record_detail(Stage::LateArrival, ts, wm, 0, [e.seq, 0]);
            out.push(StreamElement::Event(e));
            // A late event cannot advance the clock (`ts < watermark <=
            // clock`), but a K that shrank since the last insert can
            // release held events.
            self.drain_ready(out);
            return;
        }
        self.stats.inserted += 1;
        self.telemetry.inserted.inc();
        self.pending.push(Reverse(e.ts));
        out.push(StreamElement::Event(e));
        self.stats.max_buffered = self.stats.max_buffered.max(self.len());
        self.stats.size_integral += self.len() as u128;
        self.drain_ready(out);
        self.telemetry.depth.set_u64(self.len() as u64);
    }

    /// Release every held event that the current clock and slack allow,
    /// advancing the watermark. Appends the new watermark to `out` and
    /// refreshes the `depth` gauge.
    pub fn drain_ready(&mut self, out: &mut Vec<StreamElement>) {
        if !self.saw_event {
            return;
        }
        // Everything with ts <= clock - K is final: any future event with a
        // smaller timestamp would have delay > K.
        let safe = self.clock.saturating_sub(self.k);
        if safe <= self.watermark {
            return;
        }
        // Release events with ts <= safe (inclusive: an event at the
        // boundary timestamp is still on time, since late means ts < safe).
        self.release(safe, safe, safe.raw());
        self.watermark = safe;
        self.telemetry.depth.set_u64(self.len() as u64);
        out.push(StreamElement::Watermark(safe));
    }

    /// The watermark advance to `watermark`: stop holding every event with
    /// `ts <= upto`, add the release to the counters, and record one
    /// residency span from the oldest released timestamp (or `end` when
    /// nothing was released) to `end`.
    fn release(&mut self, upto: Timestamp, end: Timestamp, watermark: u64) {
        let held = self.len();
        let mut begin = end;
        while let Some(&Reverse(ts)) = self.pending.peek().filter(|r| r.0 <= upto) {
            begin = begin.min(ts);
            self.pending.pop();
        }
        let released = (held - self.len()) as u64;
        if released > 0 {
            self.stats.released += released;
            self.telemetry.released.add(released);
        }
        let detail = [released, watermark];
        self.spans
            .record_detail(Stage::BufferResidency, begin.raw(), end.raw(), 0, detail);
    }

    /// End of stream: release everything and emit `Flush`.
    pub fn finish(&mut self, out: &mut Vec<StreamElement>) {
        // Flush carries no event time: residency ends at the stream clock
        // (the latest timestamp the buffer saw).
        self.release(Timestamp::MAX, self.clock, u64::MAX);
        self.watermark = Timestamp::MAX;
        self.telemetry.depth.set_u64(0);
        out.push(StreamElement::Flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::prelude::{Row, Value};
    use quill_telemetry::Span;

    fn ev(ts: u64, seq: u64) -> Event {
        Event::new(ts, seq, Row::new([Value::Int(ts as i64)]))
    }

    fn feed(buf: &mut SlackBuffer, events: Vec<Event>) -> Vec<StreamElement> {
        let mut out = Vec::new();
        for e in events {
            buf.insert(e, &mut out);
        }
        buf.finish(&mut out);
        out
    }

    fn forwarded_ts(out: &[StreamElement]) -> Vec<u64> {
        out.iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.ts.raw())
            .collect()
    }

    #[test]
    fn zero_slack_passes_through() {
        let mut b = SlackBuffer::new(0u64);
        let out = feed(&mut b, vec![ev(1, 0), ev(2, 1), ev(3, 2)]);
        assert_eq!(forwarded_ts(&out), vec![1, 2, 3]);
        assert_eq!(b.stats().late_passed, 0);
    }

    #[test]
    fn event_later_than_k_is_late_passed() {
        let mut b = SlackBuffer::new(5u64);
        // Clock reaches 20 → watermark 15; then ts=8 arrives (delay 12 > 5).
        let mut out = Vec::new();
        b.insert(ev(20, 0), &mut out);
        assert_eq!(b.watermark(), Timestamp(15));
        out.clear();
        b.insert(ev(8, 1), &mut out);
        assert_eq!(b.stats().late_passed, 1);
        // The late event is forwarded immediately, unbuffered.
        assert_eq!(out[0].as_event().unwrap().ts, Timestamp(8));
    }

    #[test]
    fn watermarks_strictly_monotone_and_sound() {
        let mut b = SlackBuffer::new(7u64);
        let arrivals = vec![ev(10, 0), ev(3, 1), ev(25, 2), ev(19, 3), ev(40, 4)];
        let out = feed(&mut b, arrivals);
        let mut last_wm = None;
        let mut max_released = 0u64;
        for el in &out {
            match el {
                StreamElement::Event(e) => max_released = max_released.max(e.ts.raw()),
                StreamElement::Watermark(w) => {
                    if let Some(l) = last_wm {
                        assert!(*w > l, "watermark regressed");
                    }
                    last_wm = Some(*w);
                }
                StreamElement::Flush => {}
            }
        }
    }

    #[test]
    fn shrinking_k_releases_immediately() {
        let mut b = SlackBuffer::new(100u64);
        let mut out = Vec::new();
        b.insert(ev(10, 0), &mut out);
        b.insert(ev(50, 1), &mut out);
        // Both forwarded on arrival, both still held: no watermark yet.
        assert_eq!(forwarded_ts(&out), vec![10, 50]);
        assert_eq!(b.len(), 2);
        b.set_k(10u64);
        b.drain_ready(&mut out);
        // clock=50, K=10 → watermark 40 → ts=10 released.
        assert_eq!(out.last(), Some(&StreamElement::Watermark(Timestamp(40))));
        assert_eq!(b.len(), 1);
        assert_eq!(b.stats().released, 1);
    }

    #[test]
    fn growing_k_does_not_regress_watermark() {
        let mut b = SlackBuffer::new(0u64);
        let mut out = Vec::new();
        b.insert(ev(100, 0), &mut out);
        assert_eq!(b.watermark(), Timestamp(100));
        b.set_k(50u64);
        out.clear();
        b.insert(ev(120, 1), &mut out);
        // clock=120, K=50 → safe=70 < watermark 100 → no regression, and the
        // event stays buffered.
        assert_eq!(b.watermark(), Timestamp(100));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn all_events_are_accounted_for() {
        let mut b = SlackBuffer::new(8u64);
        let n = 500u64;
        let arrivals: Vec<Event> = (0..n)
            .map(|i| ev((i * 13 + (i % 7) * 31) % 1000, i))
            .collect();
        let out = feed(&mut b, arrivals);
        let events: Vec<&Event> = out.iter().filter_map(|e| e.as_event()).collect();
        assert_eq!(events.len() as u64, n);
        let s = b.stats();
        assert_eq!(s.released + s.late_passed, n);
    }

    #[test]
    fn mean_buffered_tracks_occupancy() {
        let mut b = SlackBuffer::new(1000u64);
        let mut out = Vec::new();
        for i in 0..10 {
            b.insert(ev(i, i), &mut out);
        }
        assert!(b.stats().mean_buffered() > 4.0);
        assert_eq!(b.stats().max_buffered, 10);
    }

    #[test]
    fn instrumented_buffer_mirrors_stats() {
        let reg = Registry::new();
        let mut b = SlackBuffer::new(5u64);
        b.instrument(&reg);
        let mut out = Vec::new();
        b.insert(ev(20, 0), &mut out); // watermark 15
        b.insert(ev(8, 1), &mut out); // late pass
        b.insert(ev(30, 2), &mut out);
        b.finish(&mut out);
        let snap = reg.snapshot();
        let s = b.stats();
        assert_eq!(snap.counter("quill.buffer.inserted"), s.inserted);
        assert_eq!(snap.counter("quill.buffer.released"), s.released);
        assert_eq!(snap.counter("quill.buffer.late_passed"), s.late_passed);
        assert_eq!(snap.gauge("quill.buffer.depth"), Some(0.0));
    }

    #[test]
    fn every_release_refreshes_the_depth_gauge() {
        let reg = Registry::new();
        let mut b = SlackBuffer::new(100u64);
        b.instrument(&reg);
        let mut out = Vec::new();
        for (seq, ts) in [200, 150, 180].into_iter().enumerate() {
            b.insert(ev(ts, seq as u64), &mut out); // watermark 100
        }
        assert_eq!(reg.snapshot().gauge("quill.buffer.depth"), Some(3.0));
        // AQ shrinks K just before the insert; the late event releases the
        // held events the shrink lets through.
        b.change_k(10u64, KChangeReason::Adapt, b.clock());
        b.insert(ev(50, 3), &mut out);
        assert_eq!(b.stats().late_passed, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(reg.snapshot().gauge("quill.buffer.depth"), Some(1.0));
        // A heartbeat drains without an insert (the punctuated strategy).
        b.set_k(0u64);
        b.drain_ready(&mut out);
        assert_eq!(b.len(), 0);
        assert_eq!(reg.snapshot().gauge("quill.buffer.depth"), Some(0.0));
    }

    #[test]
    fn trace_records_late_arrivals_and_emits() {
        let spans = SpanRecorder::new(64);
        let mut b = SlackBuffer::new(5u64);
        b.attach_spans(&spans);
        let mut out = Vec::new();
        b.insert(ev(20, 0), &mut out); // watermark 15 → one advance
        b.insert(ev(8, 1), &mut out); // lateness 7 behind watermark 15
        b.finish(&mut out);
        let recorded = spans.spans();
        let k = recorded[0];
        assert_eq!(
            (k.stage, k.detail, k.reason),
            (Stage::KChange, [5, 5], Some(KChangeReason::Initial))
        );
        assert!(recorded.iter().any(|s| s.stage == Stage::LateArrival
            && (s.begin, s.end, s.duration(), s.detail[0]) == (8, 15, 7, 1)));
        // One residency record per watermark advance, carrying the
        // watermark: 15, then the flush's u64::MAX.
        let advances: Vec<u64> = recorded
            .iter()
            .filter(|s| s.stage == Stage::BufferResidency)
            .map(|s| s.detail[1])
            .collect();
        assert_eq!(advances, vec![15, u64::MAX]);
    }

    #[test]
    fn spans_attribute_buffer_residency_per_release() {
        let arrivals = [
            ev(12, 0), // watermark 7: an advance that releases nothing
            ev(10, 1),
            ev(11, 2),
            ev(20, 3), // watermark 15 releases 10, 11, 12: one span from 10
            ev(8, 4),  // late pass: no residency span
            ev(18, 5),
            ev(21, 6), // watermark 16 releases nothing
        ];
        let spans = SpanRecorder::new(64);
        let mut b = SlackBuffer::new(5u64);
        b.attach_spans(&spans);
        // The flush releases 18, 20, 21: one span ending at clock 21.
        let forwarded = forwarded_ts(&feed(&mut b, arrivals.to_vec()));
        assert_eq!(b.stats().released, 6);
        // Every event was forwarded on arrival; the spans time the holds.
        assert_eq!(forwarded, vec![12, 10, 11, 20, 8, 18, 21]);
        let rec: Vec<Span> = spans
            .spans()
            .into_iter()
            .filter(|s| s.stage == Stage::BufferResidency)
            .collect();
        let timed: Vec<(u64, u64, u64)> = rec
            .iter()
            .filter(|s| s.is_timed())
            .map(|s| (s.begin, s.end, s.detail[0]))
            .collect();
        assert_eq!(timed, vec![(10, 15, 3), (18, 21, 3)]);
        // The advances that released nothing are on record with zero extent.
        let empty: Vec<(u64, u64)> = rec
            .iter()
            .filter(|s| !s.is_timed())
            .map(|s| (s.begin, s.end))
            .collect();
        assert_eq!(empty, vec![(7, 7), (16, 16)]);
    }

    #[test]
    fn an_event_precedes_the_watermark_its_arrival_emits() {
        let mut b = SlackBuffer::new(0u64);
        let mut out = Vec::new();
        b.insert(ev(10, 0), &mut out);
        // With K=0 the arrival instantly advances the watermark to its own
        // timestamp; the event must still precede that watermark so the
        // window operator takes it as on time.
        assert_eq!(out[0].as_event().map(|e| e.seq), Some(0));
        assert_eq!(out[1], StreamElement::Watermark(Timestamp(10)));
        assert_eq!(b.stats().released, 1);
    }

    #[test]
    fn empty_finish_is_just_flush() {
        let mut b = SlackBuffer::new(10u64);
        let mut out = Vec::new();
        b.finish(&mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_flush());
    }
}
