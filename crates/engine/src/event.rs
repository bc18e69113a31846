//! Stream elements: timestamped events, watermarks, and end-of-stream.
//!
//! A quill stream is a sequence of [`StreamElement`]s in *arrival order*.
//! Events carry event-time [`Timestamp`]s that may disagree with arrival
//! order — that disagreement is the disorder this project is about.
//! [`StreamElement::Watermark`]`(t)` is a promise by the producer that no
//! later event will carry a timestamp `< t`; window operators use it to
//! decide when a window's result is complete enough to emit.

use crate::time::{TimeDelta, Timestamp};
use crate::value::Row;
use serde::{Deserialize, Serialize};

/// A single data tuple with its event-time timestamp and arrival sequence
/// number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event-time timestamp assigned at the source.
    pub ts: Timestamp,
    /// Arrival sequence number: position in arrival order, assigned by the
    /// source. Strictly increasing within a stream; used to break timestamp
    /// ties deterministically and to measure disorder.
    pub seq: u64,
    /// The payload tuple.
    pub row: Row,
}

impl Event {
    /// Construct an event.
    pub fn new(ts: impl Into<Timestamp>, seq: u64, row: Row) -> Event {
        Event {
            ts: ts.into(),
            seq,
            row,
        }
    }

    /// Timestamp-major, sequence-minor ordering key. Two events never compare
    /// equal under this key within one stream because `seq` is unique.
    #[inline]
    pub fn order_key(&self) -> (Timestamp, u64) {
        (self.ts, self.seq)
    }
}

/// One element of a stream in arrival order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamElement {
    /// A data tuple.
    Event(Event),
    /// Promise: no future event will have `ts` strictly less than this.
    Watermark(Timestamp),
    /// End of stream: flush all state; equivalent to `Watermark(MAX)`
    /// followed by shutdown.
    Flush,
}

impl StreamElement {
    /// The contained event, if any.
    pub fn as_event(&self) -> Option<&Event> {
        match self {
            StreamElement::Event(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this is the end-of-stream marker.
    pub fn is_flush(&self) -> bool {
        matches!(self, StreamElement::Flush)
    }
}

impl From<Event> for StreamElement {
    fn from(e: Event) -> Self {
        StreamElement::Event(e)
    }
}

/// Statistics about the disorder of an event sequence, computed over arrival
/// order. These are the standard characterization measures reported in
/// out-of-order stream processing evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DisorderStats {
    /// Total number of events observed.
    pub events: u64,
    /// Events whose timestamp was smaller than an earlier-arrived event's
    /// timestamp (i.e. they arrived "late" w.r.t. the running maximum).
    pub out_of_order: u64,
    /// Sum of delays (running-max timestamp minus event timestamp) over all
    /// events, in time units. Delay of an in-order event is 0.
    pub total_delay: u128,
    /// Maximum observed delay.
    pub max_delay: TimeDelta,
}

impl DisorderStats {
    /// Fraction of events that arrived out of order.
    pub fn disorder_ratio(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.out_of_order as f64 / self.events as f64
        }
    }

    /// Mean delay in time units.
    pub fn mean_delay(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.total_delay as f64 / self.events as f64
        }
    }
}

/// Online tracker of the high-watermark ("stream clock") and disorder
/// statistics of an arriving event sequence.
///
/// The *stream clock* is the maximum event timestamp seen so far. The
/// *delay* of an event is `clock_at_arrival − ts`, the standard K-slack
/// notion of lateness measured in event time.
#[derive(Debug, Clone, Default)]
pub struct ClockTracker {
    clock: Option<Timestamp>,
    stats: DisorderStats,
}

impl ClockTracker {
    /// A fresh tracker with no events observed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observe an event's timestamp in arrival order. Returns the event's
    /// delay relative to the stream clock *before* the update (0 for events
    /// that advance or equal the clock).
    pub fn observe(&mut self, ts: Timestamp) -> TimeDelta {
        let delay = match self.clock {
            Some(c) if ts < c => c.delta_since(ts),
            _ => TimeDelta::ZERO,
        };
        self.clock = Some(self.clock.map_or(ts, |c| c.max(ts)));
        self.stats.events += 1;
        if delay > TimeDelta::ZERO {
            self.stats.out_of_order += 1;
        }
        self.stats.total_delay += delay.raw() as u128;
        self.stats.max_delay = self.stats.max_delay.max(delay);
        delay
    }

    /// The stream clock: maximum timestamp observed, if any event arrived.
    pub fn clock(&self) -> Option<Timestamp> {
        self.clock
    }

    /// Disorder statistics accumulated so far.
    pub fn stats(&self) -> DisorderStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn ev(ts: u64, seq: u64) -> Event {
        Event::new(ts, seq, Row::new([Value::Int(ts as i64)]))
    }

    #[test]
    fn clock_tracker_measures_delay_against_running_max() {
        let mut t = ClockTracker::new();
        assert_eq!(t.observe(Timestamp(10)), TimeDelta(0));
        assert_eq!(t.observe(Timestamp(5)), TimeDelta(5));
        assert_eq!(t.observe(Timestamp(20)), TimeDelta(0));
        assert_eq!(t.observe(Timestamp(12)), TimeDelta(8));
        assert_eq!(t.clock(), Some(Timestamp(20)));
        let s = t.stats();
        assert_eq!(s.events, 4);
        assert_eq!(s.out_of_order, 2);
        assert_eq!(s.max_delay, TimeDelta(8));
        assert_eq!(s.total_delay, 13);
        assert!((s.disorder_ratio() - 0.5).abs() < 1e-12);
        assert!((s.mean_delay() - 13.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn clock_never_regresses() {
        let mut t = ClockTracker::new();
        t.observe(Timestamp(100));
        t.observe(Timestamp(1));
        assert_eq!(t.clock(), Some(Timestamp(100)));
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DisorderStats::default();
        assert_eq!(s.disorder_ratio(), 0.0);
        assert_eq!(s.mean_delay(), 0.0);
    }

    #[test]
    fn element_event_accessors() {
        let el: StreamElement = ev(1, 1).into();
        assert_eq!(el.as_event().map(|e| e.ts), Some(Timestamp(1)));
        assert!(StreamElement::Flush.as_event().is_none());
        assert!(StreamElement::Flush.is_flush());
    }
}
