//! The K-slack ordering buffer.
//!
//! [`SlackBuffer`] is the mechanism every disorder-control strategy shares:
//! arriving events are held until the *stream clock* (max event timestamp
//! seen) exceeds their timestamp by at least `K`, then released in timestamp
//! order followed by a watermark. The strategies differ only in how they set
//! `K` over time.
//!
//! ## Invariants (property-tested)
//!
//! * Released events are non-decreasing in `(ts, seq)`.
//! * The emitted watermark sequence is strictly increasing and never exceeds
//!   `clock − K_at_emission` ... i.e. every released watermark `w` is sound:
//!   all buffered events with `ts < w` were released before it.
//! * Changing `K` never regresses the watermark: shrinking `K` releases
//!   more events immediately; growing `K` merely pauses future releases.
//! * Events arriving behind the already-emitted watermark cannot be
//!   re-ordered anymore; they are handed back as *late passes* (forwarded
//!   downstream out of order, where the window operator accounts for them).

use quill_engine::event::Staged;
use quill_engine::prelude::{Event, StreamElement, TimeDelta, Timestamp};
use quill_telemetry::trace::{FlightRecorder, TraceKind};
use quill_telemetry::{Counter, Gauge, Registry, SpanRecorder, Stage};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Counters describing a buffer's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Events that entered the buffer.
    pub inserted: u64,
    /// Events released in order.
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
    watermark_lag: Gauge,
}

/// A timestamp-ordering buffer with a dynamically adjustable slack bound.
#[derive(Debug)]
pub struct SlackBuffer {
    k: TimeDelta,
    /// Held events, a `(ts, seq)` min-heap.
    buf: BinaryHeap<Reverse<Staged>>,
    clock: Timestamp,
    saw_event: bool,
    /// Exclusive upper bound of everything released so far: next release
    /// must have `ts >= watermark`.
    watermark: Timestamp,
    /// Control-only staging: events are forwarded immediately in arrival
    /// order (unordered) while the clock / watermark / K machinery, stats,
    /// telemetry, and trace behave exactly as in full mode. `pending` then
    /// holds only the timestamps of what a full buffer would hold.
    control_only: bool,
    pending: BinaryHeap<Reverse<Timestamp>>,
    stats: BufferStats,
    telemetry: BufferTelemetry,
    trace: FlightRecorder,
    spans: SpanRecorder,
}

impl SlackBuffer {
    /// A buffer with the given initial slack.
    pub fn new(k: impl Into<TimeDelta>) -> SlackBuffer {
        SlackBuffer {
            k: k.into(),
            buf: BinaryHeap::new(),
            clock: Timestamp::MIN,
            saw_event: false,
            watermark: Timestamp::MIN,
            control_only: false,
            pending: BinaryHeap::new(),
            stats: BufferStats::default(),
            telemetry: BufferTelemetry::default(),
            trace: FlightRecorder::disabled(),
            spans: SpanRecorder::disabled(),
        }
    }

    /// Attach `quill.buffer.*` instruments from `telemetry`: `inserted` /
    /// `released` / `late_passed` counters, a `depth` gauge (events held
    /// right now), and a `watermark_lag` gauge (stream clock minus emitted
    /// watermark — the reordering latency currently in force). With a
    /// disabled registry this is free.
    pub fn instrument(&mut self, telemetry: &Registry) {
        self.telemetry = BufferTelemetry {
            inserted: telemetry.counter("quill.buffer.inserted"),
            released: telemetry.counter("quill.buffer.released"),
            late_passed: telemetry.counter("quill.buffer.late_passed"),
            depth: telemetry.gauge("quill.buffer.depth"),
            watermark_lag: telemetry.gauge("quill.buffer.watermark_lag"),
        };
    }

    /// Attach a flight recorder (cloned; clones share the ring). The buffer
    /// records a [`TraceKind::LateArrival`] for every event forwarded behind
    /// the watermark and a [`TraceKind::BufferEmit`] for every watermark
    /// advance. A disabled recorder costs one branch per hook.
    pub fn attach_trace(&mut self, trace: &FlightRecorder) {
        self.trace = trace.clone();
    }

    /// Attach a span recorder (cloned; clones share the ring). Every
    /// watermark advance that releases at least one event records one
    /// [`Stage::BufferResidency`] span from the oldest released event's
    /// timestamp to that watermark — the longest event-time wait the
    /// disorder-control buffer imposed in that release. Late passes record
    /// nothing (they were never held), and the flush release ends at the
    /// stream clock (the flush carries no event time of its own). A disabled
    /// recorder costs one branch per release.
    pub fn attach_spans(&mut self, spans: &SpanRecorder) {
        self.spans = spans.clone();
    }

    /// Switch to *control-only* staging: from now on every inserted event is
    /// forwarded immediately in arrival order (no reordering) and the buffer
    /// keeps only per-timestamp counts. The stream clock, watermark sequence,
    /// late-arrival classification, K handling, [`BufferStats`],
    /// `quill.buffer.*` telemetry, and trace records are all identical to
    /// full mode — only the payloads stop being held and sorted. A
    /// downstream per-shard stage (holding just its own keys) re-applies the
    /// ordering using the emitted watermarks. Call before the first insert.
    pub fn set_control_only(&mut self) {
        debug_assert!(
            !self.saw_event,
            "control-only mode must be enabled before any event"
        );
        self.control_only = true;
    }

    /// Whether the buffer is in control-only (pass-through) staging mode.
    pub fn is_control_only(&self) -> bool {
        self.control_only
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

    /// Number of events currently held (in control-only mode: the number a
    /// full buffer would hold).
    pub fn len(&self) -> usize {
        // One of the two is empty: the mode picks which one holds.
        self.buf.len() + self.pending.len()
    }

    /// Whether the buffer holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Insert one arriving event, appending any releases (in order) plus a
    /// trailing watermark to `out`. An event behind the emitted watermark is
    /// forwarded immediately as a late pass (out of order, no watermark).
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
            if self.trace.is_enabled() {
                self.trace.record(
                    e.ts.raw(),
                    0,
                    TraceKind::LateArrival {
                        lateness: self.watermark.delta_since(e.ts).raw(),
                        watermark: self.watermark.raw(),
                    },
                );
            }
            out.push(StreamElement::Event(e));
            // The clock may still have advanced; later events could now be
            // releasable.
            self.drain_ready(out);
            return;
        }
        self.stats.inserted += 1;
        self.telemetry.inserted.inc();
        if self.control_only {
            // Forward the payload right away (arrival order), but account
            // for it as buffered until the watermark passes its timestamp —
            // the event must precede any watermark this arrival triggers.
            self.pending.push(Reverse(e.ts));
            out.push(StreamElement::Event(e));
        } else {
            self.buf.push(Reverse(Staged(e)));
        }
        self.stats.max_buffered = self.stats.max_buffered.max(self.len());
        self.stats.size_integral += self.len() as u128;
        self.drain_ready(out);
        self.telemetry.depth.set_u64(self.len() as u64);
    }

    /// Release every buffered event that the current clock and slack allow,
    /// advancing the watermark. Appends releases + watermark to `out`.
    pub fn drain_ready(&mut self, out: &mut Vec<StreamElement>) {
        if !self.saw_event {
            return;
        }
        // Everything with ts <= clock - K is safe to release: any future
        // event with a smaller timestamp would have delay > K.
        let safe = self.clock.saturating_sub(self.k);
        if safe <= self.watermark {
            return;
        }
        // Release events with ts <= safe (inclusive: a future event with the
        // same timestamp has a larger seq and still sorts after, so emitting
        // the boundary timestamp preserves order).
        let released = self.release(safe, safe, out);
        if self.trace.is_enabled() {
            self.trace.record(
                safe.raw(),
                0,
                TraceKind::BufferEmit {
                    released,
                    watermark: safe.raw(),
                },
            );
        }
        self.watermark = safe;
        self.telemetry
            .watermark_lag
            .set_u64(self.clock.delta_since(safe).raw());
        out.push(StreamElement::Watermark(safe));
    }

    /// Pop every held event with `ts <= upto` in `(ts, seq)` order, onto
    /// `out` in full mode and only from the accounting in control-only
    /// mode. A release of at least one event adds to the counters once and
    /// records one residency span, from the oldest released timestamp to
    /// `end`. Returns how many were released.
    fn release(&mut self, upto: Timestamp, end: Timestamp, out: &mut Vec<StreamElement>) -> u64 {
        let held = self.len();
        let oldest = match (self.buf.peek(), self.pending.peek()) {
            (Some(Reverse(Staged(e))), _) => e.ts,
            (None, Some(&Reverse(ts))) => ts,
            (None, None) => return 0,
        };
        if self.control_only {
            while self.pending.peek().is_some_and(|&Reverse(ts)| ts <= upto) {
                self.pending.pop();
            }
        } else {
            while let Some(e) = Staged::pop_through(&mut self.buf, upto) {
                out.push(StreamElement::Event(e));
            }
        }
        let released = (held - self.len()) as u64;
        if released > 0 {
            self.stats.released += released;
            self.telemetry.released.add(released);
            self.spans
                .record(Stage::BufferResidency, oldest.raw(), end.raw(), 0);
        }
        released
    }

    /// End of stream: release everything in order and emit `Flush`.
    pub fn finish(&mut self, out: &mut Vec<StreamElement>) {
        // Flush carries no event time: residency ends at the stream clock
        // (the latest timestamp the buffer saw).
        let released = self.release(Timestamp::MAX, self.clock, out);
        if self.trace.is_enabled() {
            self.trace.record(
                self.clock.raw(),
                0,
                TraceKind::BufferEmit {
                    released,
                    watermark: u64::MAX,
                },
            );
        }
        self.watermark = Timestamp::MAX;
        self.telemetry.depth.set_u64(0);
        self.telemetry.watermark_lag.set_u64(0);
        out.push(StreamElement::Flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_engine::operator::{Operator, ShardStage};
    use quill_engine::prelude::{Row, Value};

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

    fn released_ts(out: &[StreamElement]) -> Vec<u64> {
        out.iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.ts.raw())
            .collect()
    }

    #[test]
    fn zero_slack_passes_through() {
        let mut b = SlackBuffer::new(0u64);
        let out = feed(&mut b, vec![ev(1, 0), ev(2, 1), ev(3, 2)]);
        assert_eq!(released_ts(&out), vec![1, 2, 3]);
        assert_eq!(b.stats().late_passed, 0);
    }

    #[test]
    fn slack_reorders_within_k() {
        let mut b = SlackBuffer::new(10u64);
        // Arrival: 10, 5, 20, 12 — with K=10, everything reorders cleanly.
        let out = feed(&mut b, vec![ev(10, 0), ev(5, 1), ev(20, 2), ev(12, 3)]);
        assert_eq!(released_ts(&out), vec![5, 10, 12, 20]);
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
    fn releases_are_in_timestamp_order_until_flush() {
        let mut b = SlackBuffer::new(15u64);
        let arrivals = vec![
            ev(10, 0),
            ev(2, 1),
            ev(30, 2),
            ev(22, 3),
            ev(50, 4),
            ev(45, 5),
        ];
        let out = feed(&mut b, arrivals);
        let ts = released_ts(&out);
        let mut sorted = ts.clone();
        sorted.sort();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn shrinking_k_releases_immediately() {
        let mut b = SlackBuffer::new(100u64);
        let mut out = Vec::new();
        b.insert(ev(10, 0), &mut out);
        b.insert(ev(50, 1), &mut out);
        assert_eq!(released_ts(&out), Vec::<u64>::new());
        assert_eq!(b.len(), 2);
        b.set_k(10u64);
        b.drain_ready(&mut out);
        // clock=50, K=10 → watermark 40 → ts=10 released.
        assert_eq!(released_ts(&out), vec![10]);
        assert_eq!(b.watermark(), Timestamp(40));
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
    fn finish_flushes_everything_in_order() {
        let mut b = SlackBuffer::new(1_000_000u64);
        let out = feed(&mut b, vec![ev(5, 0), ev(1, 1), ev(3, 2)]);
        assert_eq!(released_ts(&out), vec![1, 3, 5]);
        assert!(out.last().unwrap().is_flush());
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
    fn trace_records_late_arrivals_and_emits() {
        let trace = FlightRecorder::new(64);
        let mut b = SlackBuffer::new(5u64);
        b.attach_trace(&trace);
        let mut out = Vec::new();
        b.insert(ev(20, 0), &mut out); // watermark 15 → one BufferEmit
        b.insert(ev(8, 1), &mut out); // lateness 7 behind watermark 15
        b.finish(&mut out);
        let events = trace.events();
        assert!(events.iter().any(|t| matches!(
            t.kind,
            TraceKind::LateArrival {
                lateness: 7,
                watermark: 15
            }
        ) && t.at == 8));
        assert!(events
            .iter()
            .any(|t| matches!(t.kind, TraceKind::BufferEmit { watermark: 15, .. })));
        assert!(events.iter().any(|t| matches!(
            t.kind,
            TraceKind::BufferEmit {
                watermark: u64::MAX,
                ..
            }
        )));
    }

    /// Arrival pattern with reordering, a boundary duplicate, and a late
    /// pass — used to compare full vs control-only accounting.
    fn disorderly_arrivals() -> Vec<Event> {
        vec![
            ev(10, 0),
            ev(5, 1),
            ev(20, 2),
            ev(12, 3),
            ev(8, 4), // behind watermark once K=5 and clock=20
            ev(20, 5),
            ev(35, 6),
        ]
    }

    #[test]
    fn control_only_forwards_in_arrival_order_with_identical_watermarks() {
        let mut full = SlackBuffer::new(5u64);
        let mut hollow = SlackBuffer::new(5u64);
        hollow.set_control_only();
        let full_out = feed(&mut full, disorderly_arrivals());
        let hollow_out = feed(&mut hollow, disorderly_arrivals());
        // Hollow mode forwards every event exactly once, in arrival order.
        let seqs: Vec<u64> = hollow_out
            .iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5, 6]);
        // The control stream (watermarks + flush) is element-identical.
        let wm = |out: &[StreamElement]| -> Vec<StreamElement> {
            out.iter()
                .filter(|e| !matches!(e, StreamElement::Event(_)))
                .cloned()
                .collect()
        };
        assert_eq!(wm(&hollow_out), wm(&full_out));
        // Stats, clock, and watermark agree exactly with full mode.
        assert_eq!(hollow.stats(), full.stats());
        assert_eq!(hollow.clock(), full.clock());
        assert_eq!(hollow.watermark(), full.watermark());
        assert!(
            hollow.stats().late_passed > 0,
            "fixture must exercise late passes"
        );
    }

    #[test]
    fn control_only_emits_event_before_the_watermark_it_triggers() {
        let mut b = SlackBuffer::new(0u64);
        b.set_control_only();
        let mut out = Vec::new();
        b.insert(ev(10, 0), &mut out);
        // With K=0 the arrival instantly advances the watermark to its own
        // timestamp; the payload must still precede that watermark so a
        // downstream stage can classify it as on time.
        assert_eq!(out[0].as_event().unwrap().seq, 0);
        assert_eq!(out[1], StreamElement::Watermark(Timestamp(10)));
    }

    #[test]
    fn control_only_mirrors_instrumented_counters() {
        let reg = Registry::new();
        let mut b = SlackBuffer::new(5u64);
        b.set_control_only();
        b.instrument(&reg);
        let mut out = Vec::new();
        for e in disorderly_arrivals() {
            b.insert(e, &mut out);
        }
        b.finish(&mut out);
        let snap = reg.snapshot();
        let s = b.stats();
        assert_eq!(snap.counter("quill.buffer.inserted"), s.inserted);
        assert_eq!(snap.counter("quill.buffer.released"), s.released);
        assert_eq!(snap.counter("quill.buffer.late_passed"), s.late_passed);
        assert_eq!(snap.gauge("quill.buffer.depth"), Some(0.0));
        assert_eq!(s.released + s.late_passed, 7);
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
        let residency = |control_only: bool| {
            let spans = SpanRecorder::new(64);
            let mut b = SlackBuffer::new(5u64);
            if control_only {
                b.set_control_only();
            }
            b.attach_spans(&spans);
            // The flush releases 18, 20, 21: one span ending at clock 21.
            let released = released_ts(&feed(&mut b, arrivals.to_vec()));
            assert_eq!(b.stats().released, 6);
            let rec = spans.spans();
            assert!(rec.iter().all(|s| s.stage == Stage::BufferResidency));
            let pairs: Vec<(u64, u64)> = rec.iter().map(|s| (s.begin, s.end)).collect();
            (pairs, released)
        };
        let (pairs, released) = residency(false);
        assert_eq!(released, vec![10, 11, 12, 8, 18, 20, 21]);
        assert_eq!(pairs, vec![(10, 15), (18, 21)]);
        // Control-only mode records the identical spans, even though the
        // payloads were forwarded at arrival.
        assert_eq!(residency(true).0, pairs);
    }

    /// Records every element a wrapped operator is fed.
    struct RecordOp(Vec<StreamElement>);

    impl Operator for RecordOp {
        fn name(&self) -> &str {
            "record"
        }
        fn process(&mut self, el: StreamElement, _out: &mut dyn FnMut(StreamElement)) {
            self.0.push(el);
        }
    }

    fn through_stage(stream: &[StreamElement]) -> Vec<StreamElement> {
        let mut stage = ShardStage::new(RecordOp(Vec::new()));
        for el in stream {
            stage.process(el.clone(), &mut |_| {});
        }
        stage.into_inner().0
    }

    #[test]
    fn shard_stage_is_the_identity_over_a_fully_staged_stream() {
        // What licenses wrapping every shard's operator in a ShardStage even
        // when the strategy keeps full staging: the stage's late rule is the
        // buffer's (`ts < watermark`) and it releases in the same `(ts, seq)`
        // order, so on an already-staged stream it changes nothing.
        let arrivals = vec![
            ev(10, 0),
            ev(5, 1), // ts == the current watermark 5: held, not late
            ev(20, 2),
            ev(15, 3), // equal-ts run at the watermark 15, released in seq order
            ev(15, 4),
            ev(12, 5), // late pass behind 15
            ev(15, 6),
            ev(21, 7),
            ev(30, 8),
            ev(30, 9),
            ev(3, 10), // late pass behind 25
        ];
        let mut full = SlackBuffer::new(5u64);
        let staged = feed(&mut full, arrivals.clone());
        assert_eq!(
            full.stats().late_passed,
            2,
            "fixture must exercise late passes"
        );
        assert!(staged.last().is_some_and(StreamElement::is_flush));
        assert_eq!(through_stage(&staged), staged);

        // And what the stage is for: a control-only buffer's unordered
        // stream comes out of it as the fully staged one.
        let mut hollow = SlackBuffer::new(5u64);
        hollow.set_control_only();
        assert_eq!(through_stage(&feed(&mut hollow, arrivals)), staged);
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
