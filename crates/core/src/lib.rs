//! # quill-core
//!
//! Quality-driven disorder control for continuous queries over out-of-order
//! data streams — a from-scratch reconstruction of the system behind
//! *"Quality-Driven Continuous Query Execution over Out-of-Order Data
//! Streams"* (SIGMOD 2015); see DESIGN.md for the reconstruction notes.
//!
//! The user states a result-quality target (window completeness or maximum
//! relative aggregate error); the [`aq::AqKSlack`] strategy continuously
//! sizes the input slack buffer so the target is met with minimal result
//! latency, adapting to non-stationary delays. Baselines
//! ([`strategy::DropAll`], [`strategy::FixedKSlack`], [`strategy::MpKSlack`],
//! [`strategy::OracleBuffer`]) share the same [`buffer::SlackBuffer`]
//! mechanism and differ only in their K policy.
//!
//! Execution goes through one facade: [`runner::execute`] (and
//! [`runner::execute_shared`] for multi-query runs), with
//! [`runner::ExecOptions`] selecting sequential vs. keyed-parallel execution
//! and optionally attaching a [`quill_telemetry::Registry`] for runtime
//! observability. The sequential batch run is the loop a
//! [`session::Session`] runs over pushed events.
//!
//! ## Quick example
//!
//! ```
//! use quill_core::prelude::*;
//!
//! // An out-of-order toy stream.
//! let events = vec![
//!     Event::new(10u64, 0, Row::new([Value::Float(1.0)])),
//!     Event::new(5u64, 1, Row::new([Value::Float(2.0)])),
//!     Event::new(25u64, 2, Row::new([Value::Float(3.0)])),
//! ];
//! let query = QuerySpec::builder()
//!     .window(WindowSpec::tumbling(10u64))
//!     .aggregate(AggregateKind::Sum, 0, "sum")
//!     .build()
//!     .unwrap();
//! let mut strategy = AqKSlack::for_completeness(0.95);
//! let out = execute(&events, &mut strategy, &query, &ExecOptions::sequential()).unwrap();
//! assert_eq!(out.quality.windows_total, 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aq;
pub mod buffer;
pub mod controller;
pub mod dsl;
pub mod estimator;
pub mod punctuated;
pub mod quality;
pub mod runner;
pub mod session;
pub mod strategy;

/// Convenient glob-import surface: the execution facade, query building,
/// every strategy, telemetry, and the engine's own prelude (events, rows,
/// windows, aggregates).
pub mod prelude {
    pub use crate::aq::{AqConfig, AqKSlack, AqStats};
    pub use crate::buffer::{BufferStats, SlackBuffer};
    pub use crate::controller::PiController;
    pub use crate::dsl::StrategySpec;
    pub use crate::estimator::DelayEstimator;
    pub use crate::punctuated::PunctuatedBuffer;
    pub use crate::quality::{QualityTarget, SensitivityModel};
    pub use crate::runner::{
        execute, execute_shared, ExecOptions, QuerySpec, QuerySpecBuilder, RunOutput,
        SharedQueryOutput, SharedRunOutput,
    };
    pub use crate::session::{
        QueryConfig, QueryHandle, QueryId, QueryInfo, QueryStats, Session, SessionStats,
    };
    pub use crate::strategy::{DisorderControl, DropAll, FixedKSlack, MpKSlack, OracleBuffer};
    pub use quill_engine::parallel::ParallelConfig;
    pub use quill_engine::prelude::*;
    pub use quill_telemetry::span::write_spans_jsonl;
    pub use quill_telemetry::trace::{
        parse_post_mortems, post_mortems_to_lines, write_post_mortems_jsonl, PostMortem,
        ProvenanceBuilder, ProvenanceRecord,
    };
    pub use quill_telemetry::{
        KChangeReason, Registry, Snapshot, Span, SpanRecorder, Stage, TelemetryReporter,
    };
}
