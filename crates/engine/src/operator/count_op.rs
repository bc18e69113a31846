//! Count-based tumbling windows.
//!
//! Emits one result per `n` consecutive events (per key) in *release order*
//! — count windows are defined over the ordered stream a disorder-control
//! strategy produces, which is what makes them meaningful under disorder:
//! the buffer upstream decides which order is "the" order. The reported
//! window extent is `[first_ts, last_ts + 1)` of the batch.

use crate::aggregate::{AggregateSpec, Aggregator};
use crate::error::{EngineError, Result};
use crate::event::{Event, StreamElement};
use crate::operator::window_op::WindowResult;
use crate::operator::Operator;
use crate::time::Timestamp;
use crate::value::{Key, Value};
use crate::window::Window;
use std::collections::HashMap;

/// Per-key open batch: each event is folded into `aggs` eagerly, in release
/// order.
struct Batch {
    aggs: Vec<Box<dyn Aggregator>>,
    first_ts: Timestamp,
    last_ts: Timestamp,
    count: u64,
}

/// Tumbling count windows (global or keyed).
pub struct CountWindowOp {
    name: String,
    n: u64,
    aggs: Vec<AggregateSpec>,
    key_field: Option<usize>,
    state: HashMap<Key, Batch>,
    out_seq: u64,
    emitted: u64,
}

impl CountWindowOp {
    /// Build the operator; `n` must be positive.
    pub fn new(
        n: u64,
        aggs: Vec<AggregateSpec>,
        key_field: Option<usize>,
    ) -> Result<CountWindowOp> {
        if n == 0 {
            return Err(EngineError::InvalidWindow(
                "count window size must be > 0".into(),
            ));
        }
        if aggs.is_empty() {
            return Err(EngineError::InvalidAggregate(
                "count windows require at least one aggregate".into(),
            ));
        }
        for a in &aggs {
            a.validate()?;
        }
        Ok(CountWindowOp {
            name: format!("count-window({n})"),
            n,
            aggs,
            key_field,
            state: HashMap::new(),
            out_seq: 0,
            emitted: 0,
        })
    }

    /// Windows emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    fn key_of(&self, e: &Event) -> Key {
        match self.key_field {
            Some(i) => Key(e.row.get(i).clone()),
            None => Key(Value::Null),
        }
    }

    fn emit(&mut self, key: &Key, batch: Batch, out: &mut dyn FnMut(StreamElement)) {
        let window = Window::new(
            batch.first_ts,
            Timestamp(batch.last_ts.raw().saturating_add(1)),
        );
        let aggregates: Vec<Value> = batch.aggs.iter().map(|a| a.finalize()).collect();
        let r = WindowResult {
            key: key.0.clone(),
            window,
            count: batch.count,
            revision: 0,
            aggregates,
        };
        self.out_seq += 1;
        self.emitted += 1;
        out(StreamElement::Event(Event::new(
            window.end,
            self.out_seq,
            r.to_row(),
        )));
    }
}

impl Operator for CountWindowOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(StreamElement)) {
        match el {
            StreamElement::Event(e) => {
                let key = self.key_of(&e);
                let specs = &self.aggs;
                let batch = self.state.entry(key.clone()).or_insert_with(|| Batch {
                    aggs: specs.iter().map(|a| a.build()).collect(),
                    first_ts: e.ts,
                    last_ts: e.ts,
                    count: 0,
                });
                if batch.count == 0 {
                    batch.first_ts = e.ts;
                    batch.last_ts = e.ts;
                }
                for (agg, spec) in batch.aggs.iter_mut().zip(specs) {
                    agg.insert_row(e.ts, e.row.get(spec.field), &e.row);
                }
                batch.first_ts = batch.first_ts.min(e.ts);
                batch.last_ts = batch.last_ts.max(e.ts);
                batch.count += 1;
                if batch.count >= self.n {
                    // quill-lint: allow(no-panic, reason = "the entry was inserted or updated for this key a few lines above")
                    let full = self.state.remove(&key).expect("batch present");
                    self.emit(&key, full, out);
                }
            }
            StreamElement::Watermark(wm) => out(StreamElement::Watermark(wm)),
            StreamElement::Flush => {
                // Emit remaining partial batches deterministically (by key).
                let mut keys: Vec<Key> = self.state.keys().cloned().collect();
                keys.sort();
                for key in keys {
                    if let Some(batch) = self.state.remove(&key) {
                        if batch.count > 0 {
                            self.emit(&key, batch, out);
                        }
                    }
                }
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

    fn ev(ts: u64, seq: u64, v: f64) -> StreamElement {
        StreamElement::Event(Event::new(ts, seq, Row::new([Value::Float(v)])))
    }

    fn run(op: &mut CountWindowOp, input: Vec<StreamElement>) -> Vec<WindowResult> {
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
    fn emits_every_n_events() {
        let mut op = CountWindowOp::new(
            3,
            vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
            None,
        )
        .unwrap();
        let results = run(
            &mut op,
            vec![
                ev(1, 0, 1.0),
                ev(2, 1, 2.0),
                ev(3, 2, 3.0),
                ev(4, 3, 4.0),
                StreamElement::Flush,
            ],
        );
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].count, 3);
        assert_eq!(results[0].aggregates[0], Value::Float(6.0));
        assert_eq!(results[0].window, Window::new(Timestamp(1), Timestamp(4)));
        // Partial remainder at flush.
        assert_eq!(results[1].count, 1);
        assert_eq!(results[1].aggregates[0], Value::Float(4.0));
    }

    #[test]
    fn keyed_batches_fill_independently() {
        let mut op = CountWindowOp::new(
            2,
            vec![AggregateSpec::new(AggregateKind::Count, 1, "n")],
            Some(0),
        )
        .unwrap();
        let mk = |ts: u64, seq: u64, k: i64| {
            StreamElement::Event(Event::new(
                ts,
                seq,
                Row::new([Value::Int(k), Value::Float(0.0)]),
            ))
        };
        let results = run(
            &mut op,
            vec![mk(1, 0, 1), mk(2, 1, 2), mk(3, 2, 1), StreamElement::Flush],
        );
        // Key 1 fills a window of 2; key 2 flushes a partial of 1.
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].key, Value::Int(1));
        assert_eq!(results[0].count, 2);
        assert_eq!(results[1].key, Value::Int(2));
        assert_eq!(results[1].count, 1);
    }

    #[test]
    fn window_extent_covers_batch_timestamps() {
        let mut op = CountWindowOp::new(
            2,
            vec![AggregateSpec::new(AggregateKind::Max, 0, "max")],
            None,
        )
        .unwrap();
        // Out-of-order pair: extent is [min, max+1).
        let results = run(&mut op, vec![ev(10, 0, 1.0), ev(4, 1, 2.0)]);
        assert_eq!(results[0].window, Window::new(Timestamp(4), Timestamp(11)));
    }

    #[test]
    fn watermarks_pass_through() {
        let mut op = CountWindowOp::new(
            5,
            vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
            None,
        )
        .unwrap();
        let mut outs = Vec::new();
        op.process(StreamElement::Watermark(Timestamp(7)), &mut |o| {
            outs.push(o)
        });
        assert_eq!(outs, vec![StreamElement::Watermark(Timestamp(7))]);
    }

    #[test]
    fn rejects_degenerate_config() {
        assert!(CountWindowOp::new(
            0,
            vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
            None
        )
        .is_err());
        assert!(CountWindowOp::new(3, vec![], None).is_err());
    }
}
