//! Push-based operators.
//!
//! An [`Operator`] consumes one [`StreamElement`] at a time in arrival order
//! and pushes zero or more output elements. Operators must preserve the
//! watermark contract: after forwarding `Watermark(t)` they must never emit
//! an event with `ts < t`.

mod rank_index;
pub mod window_op;

use crate::event::StreamElement;

pub use window_op::{LatePolicy, WindowAggregateOp, WindowOpStats, WindowResult};

/// A push-based stream operator.
pub trait Operator: Send {
    /// Human-readable operator name (used in diagnostics).
    fn name(&self) -> &str;

    /// Process one element, pushing outputs through `out` (possibly none,
    /// possibly many). `Flush` must be forwarded after any final outputs.
    fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(StreamElement));
}
