//! # quill-engine
//!
//! A small, from-scratch, push-based stream-processing engine with
//! event-time semantics — the substrate on which quill's quality-driven
//! out-of-order query execution (crate `quill-core`) runs.
//!
//! ## Model
//!
//! * Streams are sequences of [`event::StreamElement`]s in **arrival
//!   order**; events carry event-time [`time::Timestamp`]s that may disagree
//!   with arrival order (disorder).
//! * [`event::StreamElement::Watermark`]`(t)` promises that no later event
//!   has `ts < t`; window operators emit results when the watermark passes a
//!   window's end.
//! * Queries are [`pipeline::Pipeline`]s of [`operator::Operator`]s:
//!   map/filter/project, keyed sliding/tumbling [window
//!   aggregation](operator::WindowAggregateOp), [interval
//!   joins](operator::IntervalJoin) and stream [merging](operator::merge_by_arrival).
//!
//! ## Quick example
//!
//! ```
//! use quill_engine::prelude::*;
//!
//! // Tumbling 10-unit windows, sum of field 0.
//! let agg = WindowAggregateOp::new(
//!     WindowSpec::tumbling(10u64),
//!     vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
//!     None,
//!     LatePolicy::Drop,
//! ).unwrap();
//! let mut pipeline = Pipeline::new().window_aggregate(agg);
//!
//! let input = vec![
//!     StreamElement::Event(Event::new(1, 0, Row::new([Value::Float(2.0)]))),
//!     StreamElement::Event(Event::new(5, 1, Row::new([Value::Float(3.0)]))),
//!     StreamElement::Flush,
//! ];
//! let out = pipeline.run_collect(input);
//! let results: Vec<WindowResult> = out.iter()
//!     .filter_map(|e| e.as_event())
//!     .filter_map(|e| WindowResult::from_row(&e.row))
//!     .collect();
//! assert_eq!(results[0].aggregates[0], Value::Float(5.0));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod error;
pub mod event;
pub mod fiba;
pub mod hash;
pub mod operator;
pub mod parallel;
pub mod pipeline;
pub mod time;
pub mod value;
pub mod window;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::aggregate::{AggregateKind, AggregateSpec, Aggregator};
    pub use crate::error::{EngineError, Result};
    pub use crate::event::{ClockTracker, DisorderStats, Event, StreamElement};
    pub use crate::fiba::{FibaStats, FibaTree, WindowState};
    pub use crate::hash::FxHasher;
    pub use crate::operator::{
        merge_by_arrival, CountWindowOp, FilterOp, IntervalJoin, LatePolicy, MapOp, Operator,
        ProjectOp, SessionOpStats, SessionWindowOp, WindowAggregateOp, WindowOpStats, WindowResult,
    };
    pub use crate::parallel::{run_keyed_parallel, shard_of, ParallelConfig};
    pub use crate::pipeline::Pipeline;
    pub use crate::time::{TimeDelta, Timestamp};
    pub use crate::value::{hash_value, Field, FieldType, Key, Row, Schema, Value};
    pub use crate::window::{Window, WindowSpec};
}
