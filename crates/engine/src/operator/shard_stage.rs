//! Shard-local staging: re-applies timestamp order for one shard's keys.
//!
//! Under shard-local window finalization the disorder-control strategy runs
//! in *control-only* mode: it forwards events unordered (arrival order) and
//! interleaves the exact watermark sequence full staging would emit. After
//! keyed routing, each shard wraps its window operator in a [`ShardStage`]
//! that holds the shard's events and releases them in `(ts, seq)` order when
//! a watermark passes them — reconstructing, per shard, precisely the
//! subsequence a single global ordering buffer would have delivered:
//!
//! * an event behind the stage's watermark is a *late pass* (the controller
//!   already classified it late) and is forwarded immediately, unordered;
//! * `Watermark(w)` first drains every held event with `ts <= w` in order,
//!   then forwards the watermark itself;
//! * `Flush` drains everything, then forwards.
//!
//! Because the routed stream delivers, before every shard event, exactly the
//! watermarks that preceded it globally, the inner operator observes the
//! same input it would under global staging restricted to this shard's keys
//! — which makes shard-local finalization element-identical to the
//! sequential path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::{Staged, StreamElement};
use crate::operator::Operator;
use crate::time::Timestamp;
use quill_telemetry::{SpanRecorder, Stage};

/// Per-shard ordering stage wrapped around an inner operator.
pub struct ShardStage<O> {
    name: String,
    inner: O,
    buf: BinaryHeap<Reverse<Staged>>,
    watermark: Timestamp,
    spans: SpanRecorder,
    shard: u32,
}

impl<O: Operator> ShardStage<O> {
    /// Wrap `inner` with a fresh (empty, watermark = MIN) staging buffer.
    pub fn new(inner: O) -> ShardStage<O> {
        ShardStage {
            name: format!("shard-stage({})", inner.name()),
            inner,
            buf: BinaryHeap::new(),
            watermark: Timestamp::MIN,
            spans: SpanRecorder::disabled(),
            shard: 0,
        }
    }

    /// Attach a span recorder: each draining watermark that releases at
    /// least one staged event records a [`Stage::ShardStage`] span from the
    /// first released event's timestamp to the releasing watermark — the
    /// event-time extent this shard re-ordered in one drain.
    pub fn attach_spans(&mut self, spans: &SpanRecorder, shard: u32) {
        self.spans = spans.clone();
        self.shard = shard;
    }

    /// The wrapped operator.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// The wrapped operator, mutably.
    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }

    /// Unwrap, discarding the (normally empty after `Flush`) staging state.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Events currently held awaiting a watermark.
    pub fn staged_len(&self) -> usize {
        self.buf.len()
    }

    /// Release every held event with `ts <= wm`, in `(ts, seq)` order, into
    /// the inner operator. A watermark that releases nothing costs one peek.
    fn drain_to(&mut self, wm: Timestamp, out: &mut dyn FnMut(StreamElement)) {
        let mut first: Option<u64> = None;
        let mut last = 0u64;
        while let Some(e) = Staged::pop_through(&mut self.buf, wm) {
            if self.spans.is_enabled() {
                first.get_or_insert(e.ts.raw());
                last = e.ts.raw();
            }
            self.inner.process(StreamElement::Event(e), out);
        }
        if let Some(begin) = first {
            // One span per releasing drain: begin = first released event's
            // timestamp, end = the releasing watermark (for Flush, which
            // carries no timestamp, the last released event's own ts).
            let end = if wm == Timestamp::MAX { last } else { wm.raw() };
            self.spans.record(Stage::ShardStage, begin, end, self.shard);
        }
    }
}

impl<O: Operator> Operator for ShardStage<O> {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(StreamElement)) {
        match el {
            StreamElement::Event(e) => {
                if e.ts < self.watermark {
                    // Late pass: the controller already emitted a watermark
                    // past this timestamp, so order cannot be restored —
                    // forward immediately, exactly as global staging does.
                    self.inner.process(StreamElement::Event(e), out);
                } else {
                    self.buf.push(Reverse(Staged(e)));
                }
            }
            StreamElement::Watermark(w) => {
                self.drain_to(w, out);
                self.watermark = self.watermark.max(w);
                self.inner.process(StreamElement::Watermark(w), out);
            }
            StreamElement::Flush => {
                self.drain_to(Timestamp::MAX, out);
                self.watermark = Timestamp::MAX;
                self.inner.process(StreamElement::Flush, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::value::{Row, Value};

    /// Records every element the inner operator sees.
    struct RecordOp {
        seen: Vec<StreamElement>,
    }

    impl Operator for RecordOp {
        fn name(&self) -> &str {
            "record"
        }
        fn process(&mut self, el: StreamElement, _out: &mut dyn FnMut(StreamElement)) {
            self.seen.push(el);
        }
    }

    fn ev(ts: u64, seq: u64) -> StreamElement {
        StreamElement::Event(Event::new(ts, seq, Row::new([Value::Int(ts as i64)])))
    }

    fn drive(input: Vec<StreamElement>) -> Vec<StreamElement> {
        let mut stage = ShardStage::new(RecordOp { seen: Vec::new() });
        let mut sink = |_| {};
        for el in input {
            stage.process(el, &mut sink);
        }
        stage.into_inner().seen
    }

    #[test]
    fn releases_in_timestamp_seq_order_at_watermarks() {
        let seen = drive(vec![
            ev(30, 0),
            ev(10, 1),
            ev(20, 2),
            StreamElement::Watermark(Timestamp(20)),
            ev(40, 3),
            StreamElement::Flush,
        ]);
        let order: Vec<u64> = seen
            .iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.ts.raw())
            .collect();
        assert_eq!(order, vec![10, 20, 30, 40]);
        // Watermark arrives after the events it released; Flush is last.
        assert_eq!(seen[2], StreamElement::Watermark(Timestamp(20)));
        assert!(seen.last().unwrap().is_flush());
    }

    #[test]
    fn boundary_timestamp_is_released_inclusively() {
        let seen = drive(vec![
            ev(20, 0),
            ev(20, 1),
            StreamElement::Watermark(Timestamp(20)),
            StreamElement::Flush,
        ]);
        let seqs: Vec<u64> = seen
            .iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.seq)
            .collect();
        assert_eq!(
            seqs,
            vec![0, 1],
            "ts == watermark must be released, in seq order"
        );
    }

    #[test]
    fn late_pass_is_forwarded_immediately_unordered() {
        let seen = drive(vec![
            ev(30, 0),
            StreamElement::Watermark(Timestamp(25)),
            ev(10, 1), // behind watermark 25: late pass
            ev(28, 2), // not late: staged until the next watermark
            StreamElement::Flush,
        ]);
        let seqs: Vec<u64> = seen
            .iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.seq)
            .collect();
        // Late seq=1 jumps ahead; the staged events drain at flush in
        // (ts, seq) order: 28 before 30.
        assert_eq!(seqs, vec![1, 2, 0]);
    }

    #[test]
    fn releasing_drains_record_shard_stage_spans() {
        let spans = SpanRecorder::new(64);
        let mut stage = ShardStage::new(RecordOp { seen: Vec::new() });
        stage.attach_spans(&spans, 3);
        let mut sink = |_| {};
        stage.process(ev(30, 0), &mut sink);
        stage.process(ev(10, 1), &mut sink);
        // Releases ts 10: span [10, 20] on shard 3.
        stage.process(StreamElement::Watermark(Timestamp(20)), &mut sink);
        // Releases nothing: no span.
        stage.process(StreamElement::Watermark(Timestamp(25)), &mut sink);
        // Flush releases ts 30; end falls back to the released ts.
        stage.process(StreamElement::Flush, &mut sink);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 2);
        assert!(recorded
            .iter()
            .all(|s| s.stage == Stage::ShardStage && s.shard == 3));
        assert_eq!((recorded[0].begin, recorded[0].end), (10, 20));
        assert_eq!((recorded[1].begin, recorded[1].end), (30, 30));
    }

    #[test]
    fn watermarks_never_regress_the_stage() {
        let seen = drive(vec![
            ev(30, 0),
            StreamElement::Watermark(Timestamp(25)),
            StreamElement::Watermark(Timestamp(10)), // stale: must not re-admit
            ev(12, 1),                               // still late vs 25
            StreamElement::Flush,
        ]);
        let seqs: Vec<u64> = seen
            .iter()
            .filter_map(|e| e.as_event())
            .map(|e| e.seq)
            .collect();
        assert_eq!(seqs, vec![1, 0]);
    }
}
