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
//! * A query is one keyed sliding/tumbling [window
//!   aggregation](operator::WindowAggregateOp), an [`operator::Operator`]
//!   driven one element at a time; [`parallel::run_keyed_parallel`] runs
//!   one per key shard.
//!
//! ## Quick example
//!
//! ```
//! use quill_engine::prelude::*;
//!
//! // Tumbling 10-unit windows, sum of field 0.
//! let mut agg = WindowAggregateOp::new(
//!     WindowSpec::tumbling(10u64),
//!     vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
//!     None,
//!     LatePolicy::Drop,
//! ).unwrap();
//!
//! let input = vec![
//!     StreamElement::Event(Event::new(1, 0, Row::new([Value::Float(2.0)]))),
//!     StreamElement::Event(Event::new(5, 1, Row::new([Value::Float(3.0)]))),
//!     StreamElement::Flush,
//! ];
//! let mut results = Vec::new();
//! for el in input {
//!     agg.process(el, &mut |out| {
//!         if let Some(r) = out.as_event().and_then(|e| WindowResult::from_row(&e.row)) {
//!             results.push(r);
//!         }
//!     });
//! }
//! assert_eq!(results.len(), 1);
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
        LatePolicy, Operator, WindowAggregateOp, WindowOpStats, WindowResult,
    };
    pub use crate::parallel::{run_keyed_parallel, shard_of, ParallelConfig};
    pub use crate::time::{TimeDelta, Timestamp};
    pub use crate::value::{hash_value, Field, FieldType, Key, Row, Schema, Value};
    pub use crate::window::{Window, WindowSpec};
}
