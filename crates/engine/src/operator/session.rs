//! Session windows: activity bursts separated by gaps.
//!
//! A session groups events (per key) whose timestamps are within `gap` of
//! each other; a session closes once the watermark passes its end plus the
//! gap (no event could extend it anymore). Unlike tumbling/sliding windows,
//! session extents depend on the *data*, so out-of-order events can *merge*
//! previously separate sessions — the operator handles this by keeping the
//! raw per-session contents and recomputing aggregates at emission (exactly
//! once, when the session is sealed), which keeps merging trivially correct
//! at O(session) memory.

use crate::aggregate::AggregateSpec;
use crate::error::{EngineError, Result};
use crate::event::{Event, StreamElement};
use crate::operator::window_op::WindowResult;
use crate::operator::Operator;
use crate::time::{TimeDelta, Timestamp};
use crate::value::{Key, Value};
use crate::window::Window;
use std::collections::BTreeMap;

/// Counters for the session operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionOpStats {
    /// Events folded into sessions.
    pub accepted: u64,
    /// Events dropped because their session range was already sealed.
    pub late_dropped: u64,
    /// Session merges triggered by out-of-order events.
    pub merges: u64,
    /// Sessions emitted.
    pub sessions_emitted: u64,
}

/// One open session's raw contents.
struct Session {
    start: Timestamp,
    /// Inclusive max event timestamp (session extent = [start, end_incl]).
    end_incl: Timestamp,
    /// Raw (ts, per-aggregate field values) in arrival order — kept so
    /// merges stay exact.
    contents: Vec<(Timestamp, Vec<Value>)>,
}

impl Session {
    fn new(ts: Timestamp, values: Vec<Value>) -> Session {
        Session {
            start: ts,
            end_incl: ts,
            contents: vec![(ts, values)],
        }
    }
}

/// Keyed session-window aggregation.
pub struct SessionWindowOp {
    name: String,
    gap: TimeDelta,
    aggs: Vec<AggregateSpec>,
    key_field: Option<usize>,
    /// Open sessions per key, ordered by start.
    state: BTreeMap<Key, Vec<Session>>,
    watermark: Timestamp,
    out_seq: u64,
    stats: SessionOpStats,
}

impl SessionWindowOp {
    /// Build the operator; `gap` must be positive.
    pub fn new(
        gap: impl Into<TimeDelta>,
        aggs: Vec<AggregateSpec>,
        key_field: Option<usize>,
    ) -> Result<SessionWindowOp> {
        let gap = gap.into();
        if gap == TimeDelta::ZERO {
            return Err(EngineError::InvalidWindow("session gap must be > 0".into()));
        }
        if aggs.is_empty() {
            return Err(EngineError::InvalidAggregate(
                "session aggregation requires at least one aggregate".into(),
            ));
        }
        for a in &aggs {
            a.validate()?;
            if matches!(
                a.kind,
                crate::aggregate::AggregateKind::ArgMin(_)
                    | crate::aggregate::AggregateKind::ArgMax(_)
            ) {
                return Err(EngineError::InvalidAggregate(
                    "session windows do not support arg-aggregates (state keeps                      only the aggregated field, not full rows)"
                        .into(),
                ));
            }
        }
        Ok(SessionWindowOp {
            name: format!("session-agg(gap={gap})"),
            gap,
            aggs,
            key_field,
            state: BTreeMap::new(),
            watermark: Timestamp::MIN,
            out_seq: 0,
            stats: SessionOpStats::default(),
        })
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SessionOpStats {
        self.stats
    }

    /// Number of open sessions across keys.
    pub fn open_sessions(&self) -> usize {
        self.state.values().map(|v| v.len()).sum()
    }

    fn key_of(&self, e: &Event) -> Key {
        match self.key_field {
            Some(i) => Key(e.row.get(i).clone()),
            None => Key(Value::Null),
        }
    }

    fn fold_event(&mut self, e: &Event) {
        // A session containing ts would have closed once the watermark
        // passed ts + gap; events older than that are late. (An event with
        // `wm - gap < ts < wm` — possible only as an upstream late pass —
        // is accepted but may start a fresh session where ground truth
        // would have extended an already-sealed one: sealing is
        // zero-allowed-lateness, matching the Drop policy of the window
        // operator.)
        if e.ts + self.gap <= self.watermark {
            self.stats.late_dropped += 1;
            return;
        }
        let key = self.key_of(e);
        let values: Vec<Value> = self
            .aggs
            .iter()
            .map(|a| e.row.get(a.field).clone())
            .collect();
        let sessions = self.state.entry(key).or_default();
        // Find all sessions this event touches (within gap on either side).
        let lo = e.ts.saturating_sub(self.gap);
        let hi = e.ts + self.gap;
        let mut touching: Vec<usize> = sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.start <= hi && lo <= s.end_incl)
            .map(|(i, _)| i)
            .collect();
        match touching.len() {
            0 => {
                let pos = sessions
                    .iter()
                    .position(|s| s.start > e.ts)
                    .unwrap_or(sessions.len());
                sessions.insert(pos, Session::new(e.ts, values));
            }
            1 => {
                let s = &mut sessions[touching[0]];
                s.start = s.start.min(e.ts);
                s.end_incl = s.end_incl.max(e.ts);
                s.contents.push((e.ts, values));
            }
            _ => {
                // Out-of-order bridge event: merge all touched sessions.
                self.stats.merges += (touching.len() - 1) as u64;
                touching.sort_unstable();
                let mut merged = Session::new(e.ts, values);
                // Remove from the back to keep indices valid.
                for &i in touching.iter().rev() {
                    let s = sessions.remove(i);
                    merged.start = merged.start.min(s.start);
                    merged.end_incl = merged.end_incl.max(s.end_incl);
                    merged.contents.extend(s.contents);
                }
                let pos = sessions
                    .iter()
                    .position(|s| s.start > merged.start)
                    .unwrap_or(sessions.len());
                sessions.insert(pos, merged);
            }
        }
        self.stats.accepted += 1;
    }

    fn emit_closed(&mut self, wm: Timestamp, out: &mut dyn FnMut(StreamElement)) {
        // A session is sealed when no future event (ts >= wm) can be within
        // gap of its end: end_incl + gap < wm... use <= wm for half-open
        // watermark semantics (future ts >= wm; needs ts <= end+gap to
        // extend, so sealed iff end_incl + gap < wm).
        let mut emissions: Vec<(Timestamp, u64, WindowResult)> = Vec::new();
        for (key, sessions) in &mut self.state {
            let mut i = 0;
            while i < sessions.len() {
                if sessions[i].end_incl + self.gap < wm {
                    let s = sessions.remove(i);
                    let aggregates: Vec<Value> = self
                        .aggs
                        .iter()
                        .enumerate()
                        .map(|(ai, spec)| {
                            let vals: Vec<(Timestamp, Value)> = s
                                .contents
                                .iter()
                                // quill-lint: allow(hot-path-alloc, reason = "session-window finalize: copies happen once per closed window, not per event")
                                .map(|(t, vs)| (*t, vs[ai].clone()))
                                .collect();
                            spec.compute(&vals)
                        })
                        .collect();
                    let window =
                        Window::new(s.start, Timestamp(s.end_incl.raw().saturating_add(1)));
                    emissions.push((
                        window.end,
                        s.contents.len() as u64,
                        WindowResult {
                            // quill-lint: allow(hot-path-alloc, reason = "one key copy per emitted session window")
                            key: key.0.clone(),
                            window,
                            count: s.contents.len() as u64,
                            revision: 0,
                            aggregates,
                        },
                    ));
                } else {
                    i += 1;
                }
            }
        }
        self.state.retain(|_, v| !v.is_empty());
        // Deterministic emission order: by session end, then key order is
        // already stable from the map walk; sort to be explicit.
        emissions.sort_by(|a, b| {
            (a.2.window.end, a.2.window.start)
                .cmp(&(b.2.window.end, b.2.window.start))
                .then_with(|| Key(a.2.key.clone()).cmp(&Key(b.2.key.clone())))
        });
        for (ts, _, r) in emissions {
            self.stats.sessions_emitted += 1;
            self.out_seq += 1;
            out(StreamElement::Event(Event::new(
                ts,
                self.out_seq,
                r.to_row(),
            )));
        }
    }
}

impl Operator for SessionWindowOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(StreamElement)) {
        match el {
            StreamElement::Event(e) => self.fold_event(&e),
            StreamElement::Watermark(wm) => {
                if wm > self.watermark {
                    self.watermark = wm;
                    self.emit_closed(wm, out);
                    out(StreamElement::Watermark(wm));
                }
            }
            StreamElement::Flush => {
                self.watermark = Timestamp::MAX;
                self.emit_closed(Timestamp::MAX, out);
                out(StreamElement::Flush);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateKind;
    use crate::value::Row;

    fn op(gap: u64) -> SessionWindowOp {
        SessionWindowOp::new(
            gap,
            vec![
                AggregateSpec::new(AggregateKind::Count, 0, "n"),
                AggregateSpec::new(AggregateKind::Sum, 0, "sum"),
            ],
            None,
        )
        .unwrap()
    }

    fn ev(ts: u64, seq: u64, v: f64) -> StreamElement {
        StreamElement::Event(Event::new(ts, seq, Row::new([Value::Float(v)])))
    }

    fn run(op: &mut SessionWindowOp, input: Vec<StreamElement>) -> Vec<WindowResult> {
        let mut results = Vec::new();
        for el in input {
            op.process(el, &mut |o| {
                if let StreamElement::Event(e) = o {
                    if let Some(r) = WindowResult::from_row(&e.row) {
                        results.push(r);
                    }
                }
            });
        }
        results
    }

    #[test]
    fn splits_on_gaps() {
        let mut s = op(10);
        let results = run(
            &mut s,
            vec![
                ev(0, 0, 1.0),
                ev(5, 1, 2.0),
                ev(30, 2, 4.0), // 25 > gap → new session
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].window, Window::new(Timestamp(0), Timestamp(6)));
        assert_eq!(results[0].count, 2);
        assert_eq!(results[0].aggregates[1], Value::Float(3.0));
        assert_eq!(results[1].window, Window::new(Timestamp(30), Timestamp(31)));
    }

    #[test]
    fn out_of_order_event_merges_sessions() {
        let mut s = op(10);
        // Two sessions 0..=5 and 20..=25, then a late bridge at 12 connects
        // them (12 within gap of both).
        let results = run(
            &mut s,
            vec![
                ev(0, 0, 1.0),
                ev(5, 1, 1.0),
                ev(20, 2, 1.0),
                ev(25, 3, 1.0),
                ev(12, 4, 1.0),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 1, "sessions should have merged: {results:?}");
        assert_eq!(results[0].window, Window::new(Timestamp(0), Timestamp(26)));
        assert_eq!(results[0].count, 5);
        assert_eq!(s.stats().merges, 1);
    }

    #[test]
    fn sessions_close_only_past_gap_watermark() {
        let mut s = op(10);
        let mut results = run(
            &mut s,
            vec![
                ev(0, 0, 1.0),
                StreamElement::Watermark(Timestamp(10)).clone(),
            ],
        );
        assert!(results.is_empty(), "session may still be extended at wm=10");
        results = run(&mut s, vec![StreamElement::Watermark(Timestamp(11))]);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn late_event_past_sealed_session_is_dropped() {
        let mut s = op(10);
        let results = run(
            &mut s,
            vec![
                ev(0, 0, 1.0),
                StreamElement::Watermark(Timestamp(50)),
                ev(3, 1, 9.0), // 3 + 10 <= 50 → late
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].count, 1);
        assert_eq!(s.stats().late_dropped, 1);
    }

    #[test]
    fn keyed_sessions_are_independent() {
        let mut s = SessionWindowOp::new(
            10u64,
            vec![AggregateSpec::new(AggregateKind::Count, 1, "n")],
            Some(0),
        )
        .unwrap();
        let mk = |ts: u64, seq: u64, k: i64| {
            StreamElement::Event(Event::new(
                ts,
                seq,
                Row::new([Value::Int(k), Value::Float(1.0)]),
            ))
        };
        let mut results = Vec::new();
        for el in [mk(0, 0, 1), mk(5, 1, 2), mk(8, 2, 1), StreamElement::Flush] {
            s.process(el, &mut |o| {
                if let StreamElement::Event(e) = o {
                    if let Some(r) = WindowResult::from_row(&e.row) {
                        results.push(r);
                    }
                }
            });
        }
        assert_eq!(results.len(), 2);
        let counts: Vec<u64> = results.iter().map(|r| r.count).collect();
        assert!(counts.contains(&2) && counts.contains(&1));
    }

    #[test]
    fn rejects_zero_gap_and_empty_aggs() {
        assert!(SessionWindowOp::new(
            0u64,
            vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
            None
        )
        .is_err());
        assert!(SessionWindowOp::new(10u64, vec![], None).is_err());
    }

    #[test]
    fn open_sessions_bookkeeping() {
        let mut s = op(10);
        let _ = run(&mut s, vec![ev(0, 0, 1.0), ev(100, 1, 1.0)]);
        assert_eq!(s.open_sessions(), 2);
        let _ = run(&mut s, vec![StreamElement::Flush]);
        assert_eq!(s.open_sessions(), 0);
    }
}
