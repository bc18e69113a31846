//! The naive reference the operator-level tests compare
//! [`WindowAggregateOp`](quill_engine::operator::WindowAggregateOp) against:
//! the watermark filter is here, the per-window fold is
//! [`quill_metrics::oracle::naive_aggregate`], the same fold that scores
//! every run.

use quill_engine::aggregate::AggregateSpec;
use quill_engine::operator::WindowResult;
use quill_engine::prelude::*;
use quill_engine::value::Key;
use quill_metrics::oracle::naive_aggregate;
use std::collections::BTreeMap;

/// What the window operator must emit for `input` under `LatePolicy::Drop`,
/// computed the slow way: track the watermark over the input; an event
/// contributes to window `w` iff `w.end` is still ahead of the watermark when
/// it arrives; fold each `(key, window)`'s contributors in `(ts, seq)` order
/// with the oracle's `naive_aggregate`; emit in `(end, start, key)` order. An
/// input without watermarks yields the full-information answer.
pub fn reference(
    window: WindowSpec,
    aggs: &[AggregateSpec],
    key_field: Option<usize>,
    input: &[StreamElement],
) -> Vec<WindowResult> {
    let mut wm = Timestamp::MIN;
    let mut members: BTreeMap<(Timestamp, Timestamp, Key), Vec<&Event>> = BTreeMap::new();
    for el in input {
        match el {
            StreamElement::Watermark(w) => wm = wm.max(*w),
            StreamElement::Event(e) => {
                let key = Key(key_field.map_or(Value::Null, |i| e.row.get(i).clone()));
                for w in window.assign(e.ts).into_iter().filter(|w| w.end > wm) {
                    let id = (w.end, w.start, key.clone());
                    members.entry(id).or_default().push(e);
                }
            }
            StreamElement::Flush => {}
        }
    }
    let fold = |((end, start, key), mut events): ((Timestamp, Timestamp, Key), Vec<&Event>)| {
        events.sort_by_key(|e| (e.ts, e.seq));
        WindowResult {
            key: key.0,
            window: Window::new(start, end),
            count: events.len() as u64,
            revision: 0,
            aggregates: aggs.iter().map(|a| naive_aggregate(a, &events)).collect(),
        }
    };
    members.into_iter().map(fold).collect()
}
