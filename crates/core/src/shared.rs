//! Shared execution of multiple continuous queries over one buffered stream.
//!
//! In practice many continuous queries subscribe to the same stream; the
//! slack buffer is paid once and its watermarks fan out to one window
//! operator per distinct query shape (sequentially, on the core a
//! [`crate::session::Session`] runs). One slack serves every subscriber: it
//! follows the strategy's own quality target, sized for the smallest slide
//! among the queries ([`DisorderControl::set_min_slide`]), and a query's
//! per-query completeness target only flags its windows that fall below
//! it. A caller who wants the strictest subscriber's target to bind builds
//! the strategy for the largest of the targets, and looser queries then
//! enjoy surplus quality. This mirrors the multi-query sharing angle of the
//! original system demo. [`execute_shared`] is
//! [`crate::runner::execute`]'s batch driver over a query slice.

use crate::plan::Diagnostic;
use crate::runner::{run_batch, ExecOptions, QuerySpec};
use crate::strategy::DisorderControl;
use quill_engine::error::Result;
use quill_engine::event::Event;
use quill_engine::operator::WindowResult;
use quill_metrics::quality_eval::QualityReport;
use quill_metrics::Summary;
use quill_telemetry::Snapshot;

/// Per-query measurement of a shared run.
#[derive(Debug, Clone)]
pub struct SharedQueryOutput {
    /// Index into the input query slice.
    pub query_index: usize,
    /// Emitted results in order.
    pub results: Vec<WindowResult>,
    /// Per-result latency summary.
    pub latency: Summary,
    /// Quality vs. this query's own oracle.
    pub quality: QualityReport,
}

/// Outcome of a shared multi-query run.
#[derive(Debug, Clone)]
pub struct SharedRunOutput {
    /// Strategy name.
    pub strategy: String,
    /// One entry per input query.
    pub per_query: Vec<SharedQueryOutput>,
    /// Wall-clock time for the whole shared run, microseconds.
    pub wall_micros: u128,
    /// Telemetry snapshots collected during the run (empty when telemetry is
    /// disabled).
    pub snapshots: Vec<Snapshot>,
    /// Advisory and warn-level plan diagnostics across all queries
    /// (deduplicated); deny-level findings abort [`execute_shared`] instead.
    pub plan: Vec<Diagnostic>,
}

/// Run several queries over one stream sharing a single disorder-control
/// strategy (one buffer, one watermark sequence), per `opts`: windowing runs
/// sequentially — one operator per distinct query shape, its results
/// delivered to every query of that shape — or per query on the
/// keyed-parallel executor, and an enabled telemetry registry observes the
/// shared buffer once rather than once per query. Every window operator
/// records into [`ExecOptions::spans`], and each
/// result's [`Stage::Deliver`](quill_telemetry::Stage::Deliver) span is
/// tagged with its query's index.
///
/// With `opts.parallel` set, the queries take turns: each windows the one
/// staged stream, which is never copied, on its own shard threads.
///
/// # Errors
/// Propagates invalid query specifications and executor failures.
pub fn execute_shared(
    events: &[Event],
    strategy: &mut dyn DisorderControl,
    queries: &[QuerySpec],
    opts: &ExecOptions,
) -> Result<SharedRunOutput> {
    Ok(run_batch(events, strategy, queries, opts)?.shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aq::AqKSlack;
    use crate::runner::execute;
    use crate::strategy::{DropAll, FixedKSlack};
    use quill_engine::aggregate::{AggregateKind, AggregateSpec};
    use quill_engine::parallel::ParallelConfig;
    use quill_engine::prelude::{Row, StreamElement, TimeDelta, Value, WindowSpec};
    use quill_telemetry::{SpanRecorder, Stage};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn events(n: u64, seed: u64) -> Vec<Event> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals: Vec<(u64, u64)> = (0..n)
            .map(|i| (i * 10 + rng.gen_range(0..200), i * 10))
            .collect();
        arrivals.sort();
        arrivals
            .into_iter()
            .enumerate()
            .map(|(s, (_, ts))| Event::new(ts, s as u64, Row::new([Value::Float(1.0)])))
            .collect()
    }

    fn queries() -> Vec<QuerySpec> {
        vec![
            QuerySpec::new(
                WindowSpec::tumbling(500u64),
                vec![AggregateSpec::new(AggregateKind::Sum, 0, "sum")],
                None,
            ),
            QuerySpec::new(
                WindowSpec::sliding(1_000u64, 200u64),
                vec![AggregateSpec::new(AggregateKind::Count, 0, "n")],
                None,
            ),
        ]
    }

    #[test]
    fn shared_run_matches_individual_runs() {
        let evs = events(3_000, 1);
        let qs = queries();
        let mut shared_strategy = FixedKSlack::new(150u64);
        let shared =
            execute_shared(&evs, &mut shared_strategy, &qs, &ExecOptions::sequential()).unwrap();
        for (i, q) in qs.iter().enumerate() {
            let mut solo_strategy = FixedKSlack::new(150u64);
            let solo = execute(&evs, &mut solo_strategy, q, &ExecOptions::sequential()).unwrap();
            assert_eq!(shared.per_query[i].results, solo.results, "query {i}");
            assert_eq!(
                shared.per_query[i].quality.mean_completeness,
                solo.quality.mean_completeness
            );
            assert!(
                (shared.per_query[i].latency.mean - solo.latency.mean).abs() < 1e-6,
                "query {i} latency {} vs {}",
                shared.per_query[i].latency.mean,
                solo.latency.mean
            );
        }
    }

    #[test]
    fn shared_parallel_matches_shared_sequential() {
        let evs = events(2_000, 5);
        let qs = queries();
        let mut s_seq = FixedKSlack::new(150u64);
        let mut s_par = FixedKSlack::new(150u64);
        let seq = execute_shared(&evs, &mut s_seq, &qs, &ExecOptions::sequential()).unwrap();
        let par = execute_shared(
            &evs,
            &mut s_par,
            &qs,
            &ExecOptions::parallel(ParallelConfig::new(2)),
        )
        .unwrap();
        for i in 0..qs.len() {
            assert_eq!(
                seq.per_query[i].quality.mean_completeness,
                par.per_query[i].quality.mean_completeness
            );
            assert_eq!(
                seq.per_query[i].results.len(),
                par.per_query[i].results.len()
            );
        }
    }

    #[test]
    fn traced_shared_run_records_every_operator_in_both_modes() {
        // An in-order stream, then one straggler far behind the clock: with
        // K = 0 it passes the buffer late and each query's operator drops it.
        let row = || Row::new([Value::Float(1.0)]);
        let mut evs: Vec<Event> = (0..200u64).map(|i| Event::new(i * 10, i, row())).collect();
        evs.push(Event::new(5u64, 200, row()));
        let qs = queries();
        for opts in [
            ExecOptions::sequential(),
            ExecOptions::parallel(ParallelConfig::new(4)),
        ] {
            let mode = format!("{:?}", opts.parallel);
            let spans = SpanRecorder::with_default_capacity();
            let shared =
                execute_shared(&evs, &mut DropAll::new(), &qs, &opts.with_spans(&spans)).unwrap();
            let recorded = spans.spans();
            // The two queries' windows differ in length, which tells their
            // finalizations (window end minus start) apart: one per emitted
            // result of each query.
            for (q, out) in qs.iter().zip(&shared.per_query) {
                let finalized = recorded
                    .iter()
                    .filter(|s| {
                        s.stage == Stage::WindowFinalize
                            && s.begin - s.detail[0] == q.window.length().raw()
                    })
                    .count();
                assert!(!out.results.is_empty());
                assert_eq!(finalized, out.results.len(), "{mode}");
            }
            let dropped: Vec<u64> = recorded
                .iter()
                .filter(|s| s.stage == Stage::LateDrop)
                .map(|s| s.detail[0])
                .collect();
            assert_eq!(dropped, vec![200, 200], "{mode}");
        }
    }

    #[test]
    fn the_smallest_slide_of_the_query_slice_reaches_the_strategy() {
        /// Fixed K that records every smallest slide it is handed.
        struct Recorder(FixedKSlack, Vec<Option<TimeDelta>>);
        impl DisorderControl for Recorder {
            fn name(&self) -> String {
                "recorder".into()
            }
            fn set_min_slide(&mut self, slide: Option<TimeDelta>) {
                self.1.push(slide);
            }
            fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
                self.0.on_event(e, out);
            }
            fn finish(&mut self, out: &mut Vec<StreamElement>) {
                self.0.finish(out);
            }
            fn current_k(&self) -> TimeDelta {
                self.0.current_k()
            }
            fn buffer_stats(&self) -> crate::buffer::BufferStats {
                self.0.buffer_stats()
            }
        }
        let count = || vec![AggregateSpec::new(AggregateKind::Count, 0, "n")];
        let qs = [
            QuerySpec::new(WindowSpec::sliding(1_000u64, 250u64), count(), None),
            QuerySpec::new(WindowSpec::tumbling(1_000u64), count(), None),
        ];
        let evs = events(500, 7);
        for opts in [
            ExecOptions::sequential(),
            ExecOptions::parallel(ParallelConfig::new(2)),
        ] {
            let mut s = Recorder(FixedKSlack::new(50u64), Vec::new());
            execute_shared(&evs, &mut s, &qs, &opts).unwrap();
            assert_eq!(s.1, vec![Some(TimeDelta(250))]);
        }
        let mut s = Recorder(FixedKSlack::new(50u64), Vec::new());
        execute_shared(&evs, &mut s, &[], &ExecOptions::sequential()).unwrap();
        assert_eq!(s.1, vec![None]);
    }

    #[test]
    fn one_buffer_serves_all_subscribers_at_the_strictest_target() {
        let evs = events(20_000, 2);
        let qs = queries();
        let q = f64::max(0.9, 0.99);
        let mut strategy = AqKSlack::for_completeness(q);
        let shared = execute_shared(&evs, &mut strategy, &qs, &ExecOptions::sequential()).unwrap();
        for out in &shared.per_query {
            assert!(
                out.quality.mean_completeness >= 0.9,
                "query {} under-served: {}",
                out.query_index,
                out.quality.mean_completeness
            );
        }
        assert!(shared.wall_micros > 0);
        assert!(shared.strategy.contains("0.99"));
    }

    #[test]
    fn shared_telemetry_counts_the_buffer_once() {
        let evs = events(1_000, 6);
        let qs = queries();
        let telemetry = quill_telemetry::Registry::new();
        let mut strategy = FixedKSlack::new(150u64);
        let shared = execute_shared(
            &evs,
            &mut strategy,
            &qs,
            &ExecOptions::sequential().with_telemetry(&telemetry),
        )
        .unwrap();
        let last = shared.snapshots.last().expect("final snapshot");
        assert_eq!(last.counter("quill.run.events"), 1_000);
        assert_eq!(
            last.counter("quill.buffer.inserted") + last.counter("quill.buffer.late_passed"),
            1_000
        );
        let total_results: usize = shared.per_query.iter().map(|q| q.results.len()).sum();
        assert_eq!(last.counter("quill.run.results"), total_results as u64);
    }

    #[test]
    fn empty_query_set_is_fine() {
        let evs = events(100, 3);
        let mut s = FixedKSlack::new(10u64);
        let shared = execute_shared(&evs, &mut s, &[], &ExecOptions::sequential()).unwrap();
        assert!(shared.per_query.is_empty());
    }

    #[test]
    fn invalid_query_in_set_is_rejected() {
        let evs = events(10, 4);
        let mut s = FixedKSlack::new(10u64);
        let bad = vec![QuerySpec::new(WindowSpec::tumbling(0u64), vec![], None)];
        assert!(execute_shared(&evs, &mut s, &bad, &ExecOptions::sequential()).is_err());
    }
}
