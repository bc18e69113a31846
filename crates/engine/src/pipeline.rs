//! Pipeline assembly and execution.
//!
//! A [`Pipeline`] is a linear chain of operators, run by a single-threaded
//! push executor (deterministic, so experiment runs are reproducible).
//! Parallelism in quill is by key, not by stage: see
//! [`crate::parallel::run_keyed_parallel`].

use crate::event::StreamElement;
use crate::operator::{FilterOp, MapOp, Operator, ProjectOp, WindowAggregateOp};
use crate::value::Row;

/// A linear chain of push-based operators.
#[derive(Default)]
pub struct Pipeline {
    ops: Vec<Box<dyn Operator>>,
}

impl Pipeline {
    /// An empty pipeline (identity).
    pub fn new() -> Pipeline {
        Pipeline { ops: Vec::new() }
    }

    /// Append any operator.
    pub fn then(mut self, op: Box<dyn Operator>) -> Pipeline {
        self.ops.push(op);
        self
    }

    /// Append a map stage.
    pub fn map(
        self,
        name: impl Into<String>,
        f: impl FnMut(Row) -> Row + Send + 'static,
    ) -> Pipeline {
        self.then(Box::new(MapOp::new(name, f)))
    }

    /// Append a filter stage.
    pub fn filter(
        self,
        name: impl Into<String>,
        pred: impl FnMut(&Row) -> bool + Send + 'static,
    ) -> Pipeline {
        self.then(Box::new(FilterOp::new(name, pred)))
    }

    /// Append a projection stage.
    pub fn project(self, indices: impl Into<Vec<usize>>) -> Pipeline {
        self.then(Box::new(ProjectOp::new(indices)))
    }

    /// Append a window aggregation stage.
    pub fn window_aggregate(self, op: WindowAggregateOp) -> Pipeline {
        self.then(Box::new(op))
    }

    /// Operator names, source to sink.
    pub fn describe(&self) -> Vec<&str> {
        self.ops.iter().map(|o| o.name()).collect()
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Run single-threaded over an element source, invoking `sink` for each
    /// output element in order. Deterministic.
    pub fn run_into(
        &mut self,
        source: impl IntoIterator<Item = StreamElement>,
        sink: &mut dyn FnMut(StreamElement),
    ) {
        // Depth-first push through the operator chain without intermediate
        // buffering: each operator's outputs are recursively offered to the
        // next. Implemented iteratively with an explicit per-stage queue to
        // avoid borrowing conflicts.
        fn push_from(
            ops: &mut [Box<dyn Operator>],
            el: StreamElement,
            sink: &mut dyn FnMut(StreamElement),
        ) {
            match ops.split_first_mut() {
                None => sink(el),
                Some((head, rest)) => {
                    let mut staged = Vec::new();
                    head.process(el, &mut |o| staged.push(o));
                    for o in staged {
                        push_from(rest, o, sink);
                    }
                }
            }
        }
        for el in source {
            push_from(&mut self.ops, el, sink);
        }
    }

    /// Run single-threaded and collect all outputs.
    pub fn run_collect(
        &mut self,
        source: impl IntoIterator<Item = StreamElement>,
    ) -> Vec<StreamElement> {
        let mut out = Vec::new();
        self.run_into(source, &mut |el| out.push(el));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggregateKind, AggregateSpec};
    use crate::event::Event;
    use crate::operator::{LatePolicy, WindowResult};
    use crate::value::Value;
    use crate::window::WindowSpec;

    fn source(n: u64) -> Vec<StreamElement> {
        let mut v: Vec<StreamElement> = (0..n)
            .map(|i| StreamElement::Event(Event::new(i, i, Row::new([Value::Float(i as f64)]))))
            .collect();
        v.push(StreamElement::Flush);
        v
    }

    fn test_pipeline() -> Pipeline {
        Pipeline::new()
            .filter("even", |r: &Row| (r.f64(0).unwrap_or(0.0) as i64) % 2 == 0)
            .map("x10", |r: Row| {
                Row::new([Value::Float(r.f64(0).unwrap_or(0.0) * 10.0)])
            })
            .window_aggregate(
                WindowAggregateOp::new(
                    WindowSpec::tumbling(10u64),
                    vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
                    None,
                    LatePolicy::Drop,
                )
                .unwrap(),
            )
    }

    #[test]
    fn single_threaded_chain_works() {
        let mut p = test_pipeline();
        assert_eq!(p.len(), 3);
        let out = p.run_collect(source(20));
        let results: Vec<WindowResult> = out
            .iter()
            .filter_map(|e| e.as_event())
            .filter_map(|e| WindowResult::from_row(&e.row))
            .collect();
        // Windows [0,10): evens 0..8 → (0+2+4+6+8)*10 = 200; [10,20): (10+12+14+16+18)*10 = 700.
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].aggregates[0], Value::Float(200.0));
        assert_eq!(results[1].aggregates[0], Value::Float(700.0));
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut p = Pipeline::new();
        assert!(p.is_empty());
        let input = source(3);
        assert_eq!(p.run_collect(input.clone()), input);
    }

    #[test]
    fn describe_lists_stage_names() {
        let p = test_pipeline();
        let names = p.describe();
        assert_eq!(names[0], "even");
        assert_eq!(names[1], "x10");
        assert!(names[2].starts_with("window-agg"));
    }

    #[test]
    fn flush_reaches_sink_through_all_stages() {
        let mut p = test_pipeline();
        let out = p.run_collect(vec![StreamElement::Flush]);
        assert!(out.iter().any(|e| e.is_flush()));
    }
}
