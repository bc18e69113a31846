//! The window operator.
//!
//! [`WindowAggregateOp`] consumes one [`StreamElement`] at a time in arrival
//! order and hands over each [`WindowResult`] as it emits it. Watermarks and
//! `Flush` are consumed, not forwarded: the operator keeps its own watermark,
//! which never regresses (a lower or equal one is ignored), and emits a
//! window's first result only once that watermark passes the window's end.

mod rank_index;
pub mod window_op;

use crate::event::StreamElement;

pub use window_op::{LatePolicy, WindowAggregateOp, WindowOpStats, WindowResult, WindowState};

/// [`WindowAggregateOp::process_ref`] on an owned element. Kept for exactly
/// one caller, the `quill-e2e` benchmark (`benchmark/src/layers.rs`, the
/// `window.*` layers), which imports this trait and may not be edited by the
/// changes it judges. Nothing inside the workspace names it.
pub trait Operator: Send {
    /// Process one element, handing each result it emits to `out`
    /// (possibly none, possibly many).
    fn process(&mut self, el: StreamElement, out: &mut dyn FnMut(WindowResult));
}
