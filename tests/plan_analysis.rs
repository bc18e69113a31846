//! Static plan analysis acceptance: infeasible plans are rejected *before*
//! any event is processed, and feasible plans carry their non-fatal findings
//! on the run output.

#![forbid(unsafe_code)]

use quill_core::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_integration::{mean_query, uniform_disordered};

/// A completeness-1.0 demand under a declared unbounded delay tail is
/// refused up front: the error names the rule, and the strategy's buffer
/// never sees a single event.
#[test]
fn infeasible_completeness_is_rejected_before_any_event() {
    let events = uniform_disordered(5_000, 10, 200, 7);
    let query = mean_query(100);
    let mut strategy = FixedKSlack::new(1_000_000u64);
    let opts = ExecOptions::sequential()
        .with_delay_profile(DelayProfile::Unbounded)
        .with_required_completeness(1.0);

    let err = execute(&events, &mut strategy, &query, &opts).unwrap_err();
    match &err {
        EngineError::PlanRejected(msg) => {
            assert!(msg.contains("plan.quality.infeasible"), "{msg}");
            assert!(msg.contains("help:"), "{msg}");
        }
        other => panic!("expected PlanRejected, got {other:?}"),
    }
    let stats = strategy.buffer_stats();
    assert_eq!(stats.inserted, 0, "events reached the buffer: {stats:?}");
}

/// A fixed K below a declared bounded delay cannot deliver completeness 1.0;
/// raising K to the bound makes the same plan acceptable.
#[test]
fn fixed_k_below_delay_bound_is_rejected_and_sufficient_k_accepted() {
    let events = uniform_disordered(2_000, 10, 200, 11);
    let query = mean_query(100);
    let opts = ExecOptions::sequential()
        .with_delay_profile(DelayProfile::Bounded { max_delay: 200 })
        .with_required_completeness(1.0);

    let mut low = FixedKSlack::new(50u64);
    let err = execute(&events, &mut low, &query, &opts).unwrap_err();
    assert!(matches!(err, EngineError::PlanRejected(_)), "{err:?}");
    assert_eq!(low.buffer_stats().inserted, 0);

    let mut enough = FixedKSlack::new(200u64);
    let out = execute(&events, &mut enough, &query, &opts).unwrap();
    assert_eq!(out.events, 2_000);
    // K ≥ the delay bound really does deliver the demanded completeness.
    assert!(
        out.quality.mean_completeness >= 1.0 - 1e-9,
        "completeness {}",
        out.quality.mean_completeness
    );
    // The accepted plan still reports its non-fatal findings (completeness
    // target configured without a span recorder).
    assert!(out
        .plan
        .iter()
        .any(|d| d.rule == "plan.options.completeness-without-spans"));
    assert!(out.plan.iter().all(|d| d.severity < PlanSeverity::Deny));
}

/// The AQ strategy's own quality target participates in feasibility: an
/// exact-completeness target with a K cap below the delay bound is refused
/// with no options-level target set at all.
#[test]
fn aq_k_max_below_bound_with_exact_target_is_rejected() {
    let events = uniform_disordered(1_000, 10, 300, 3);
    let query = mean_query(100);
    let mut cfg = AqConfig::with_target(QualityTarget::Completeness { q: 1.0 });
    cfg.k_max = TimeDelta(100);
    let mut strategy = AqKSlack::new(cfg);
    let opts =
        ExecOptions::sequential().with_delay_profile(DelayProfile::Bounded { max_delay: 300 });

    let err = execute(&events, &mut strategy, &query, &opts).unwrap_err();
    assert!(matches!(err, EngineError::PlanRejected(_)), "{err:?}");
    assert_eq!(strategy.buffer_stats().inserted, 0);
}

/// Without a declared delay profile the analyzer assumes nothing about
/// delays: the same aggressive target runs (the provenance layer will flag
/// violations instead). This keeps feasibility checking strictly opt-in.
#[test]
fn feasibility_checks_are_opt_in() {
    let events = uniform_disordered(1_000, 10, 100, 5);
    let query = mean_query(100);
    let mut strategy = DropAll::new();
    let opts = ExecOptions::sequential().with_required_completeness(1.0);
    let out = execute(&events, &mut strategy, &query, &opts).unwrap();
    assert_eq!(out.events, 1_000);
}

/// Shared multi-query runs vet every subscriber: one infeasible query
/// refuses the whole shared run before the shared buffer sees an event.
#[test]
fn shared_run_rejects_when_any_query_is_infeasible() {
    let events = uniform_disordered(1_000, 10, 100, 9);
    let queries = vec![mean_query(100), mean_query(500)];
    let mut strategy = DropAll::new();
    let opts = ExecOptions::sequential()
        .with_delay_profile(DelayProfile::Unbounded)
        .with_required_completeness(1.0);
    let err = execute_shared(&events, &mut strategy, &queries, &opts).unwrap_err();
    assert!(matches!(err, EngineError::PlanRejected(_)), "{err:?}");
    assert_eq!(strategy.buffer_stats().inserted, 0);

    // The same shared run without the exact-completeness demand is accepted
    // and carries deduplicated non-fatal findings.
    let opts =
        ExecOptions::parallel(ParallelConfig::new(4)).with_delay_profile(DelayProfile::Unbounded);
    let out = execute_shared(&events, &mut strategy, &queries, &opts).unwrap();
    let unkeyed = out
        .plan
        .iter()
        .filter(|d| d.rule == "plan.parallel.unkeyed")
        .count();
    assert_eq!(
        unkeyed, 1,
        "shared findings not deduplicated: {:?}",
        out.plan
    );
}

/// Every non-fatal analyzer finding: one case per warn/advice rule, each
/// asserting both the finding code on the run output and that execution
/// proceeded (the full stream was processed despite the finding).
mod warn_and_advice_paths {
    use super::*;

    fn run_with(
        query: &QuerySpec,
        strategy: &mut dyn DisorderControl,
        opts: &ExecOptions,
    ) -> RunOutput {
        let events = uniform_disordered(500, 10, 100, 21);
        let out = execute(&events, strategy, query, opts).expect("plan must not be denied");
        assert_eq!(out.events, 500, "execution did not process the full stream");
        out
    }

    fn assert_finding(out: &RunOutput, rule: &str, severity: PlanSeverity) {
        let found = out.plan.iter().find(|d| d.rule == rule);
        let Some(d) = found else {
            panic!("expected finding {rule}, got {:?}", out.plan);
        };
        assert_eq!(d.severity, severity, "{d:?}");
        assert!(!d.help.is_empty(), "{d:?}");
    }

    #[test]
    fn misaligned_sliding_window_raises_no_finding() {
        // The one negative case: a slide that does not divide the length
        // used to be warned about; the window state folds a combinable event
        // once whatever the alignment, so there is nothing to say.
        let query = QuerySpec::new(
            WindowSpec::sliding(100u64, 30u64),
            vec![AggregateSpec::new(AggregateKind::Mean, 0, "mean")],
            None,
        );
        let out = run_with(
            &query,
            &mut MpKSlack::bounded(500u64),
            &ExecOptions::sequential(),
        );
        assert!(out.plan.is_empty(), "{:?}", out.plan);
    }

    #[test]
    fn high_fanout_sliding_window_advises() {
        let query = QuerySpec::new(
            WindowSpec::sliding(6_400u64, 100u64),
            vec![AggregateSpec::new(AggregateKind::Mean, 0, "mean")],
            None,
        );
        let out = run_with(
            &query,
            &mut MpKSlack::bounded(500u64),
            &ExecOptions::sequential(),
        );
        assert_finding(&out, "plan.window.fanout", PlanSeverity::Advice);
    }

    #[test]
    fn non_combinable_aggregate_on_sliding_window_warns() {
        let query = QuerySpec::new(
            WindowSpec::sliding(100u64, 50u64),
            vec![AggregateSpec::new(AggregateKind::Median, 0, "median")],
            None,
        );
        let out = run_with(
            &query,
            &mut MpKSlack::bounded(500u64),
            &ExecOptions::sequential(),
        );
        assert_finding(&out, "plan.aggregate.fold-path", PlanSeverity::Warn);
    }

    #[test]
    fn zero_slack_with_sub_one_target_warns_at_risk() {
        let opts = ExecOptions::sequential()
            .with_delay_profile(DelayProfile::Bounded { max_delay: 100 })
            .with_required_completeness(0.9)
            .with_spans(&SpanRecorder::new(64));
        let out = run_with(&mean_query(100), &mut DropAll::new(), &opts);
        assert_finding(&out, "plan.quality.at-risk", PlanSeverity::Warn);
    }

    #[test]
    fn uncapped_mp_under_unbounded_delays_warns() {
        let opts = ExecOptions::sequential().with_delay_profile(DelayProfile::Unbounded);
        let out = run_with(&mean_query(100), &mut MpKSlack::new(), &opts);
        assert_finding(&out, "plan.strategy.unbounded-k", PlanSeverity::Warn);
    }

    #[test]
    fn oracle_buffer_advises_offline_only() {
        let out = run_with(
            &mean_query(100),
            &mut OracleBuffer::new(),
            &ExecOptions::sequential(),
        );
        assert_finding(&out, "plan.strategy.oracle-offline", PlanSeverity::Advice);
    }

    #[test]
    fn unkeyed_parallel_run_warns() {
        let out = run_with(
            &mean_query(100),
            &mut MpKSlack::bounded(500u64),
            &ExecOptions::parallel(ParallelConfig::new(4)),
        );
        assert_finding(&out, "plan.parallel.unkeyed", PlanSeverity::Warn);
    }

    #[test]
    fn completeness_target_without_trace_warns() {
        let opts = ExecOptions::sequential().with_required_completeness(0.9);
        let out = run_with(&mean_query(100), &mut MpKSlack::bounded(500u64), &opts);
        assert_finding(
            &out,
            "plan.options.completeness-without-spans",
            PlanSeverity::Warn,
        );
    }

    #[test]
    fn snapshots_without_telemetry_warn() {
        let opts = ExecOptions::sequential().with_snapshot_every(64);
        let out = run_with(&mean_query(100), &mut MpKSlack::bounded(500u64), &opts);
        assert_finding(
            &out,
            "plan.options.snapshot-without-telemetry",
            PlanSeverity::Warn,
        );
    }

    #[test]
    fn delay_profile_without_any_quality_target_advises() {
        let opts =
            ExecOptions::sequential().with_delay_profile(DelayProfile::Bounded { max_delay: 100 });
        let out = run_with(&mean_query(100), &mut FixedKSlack::new(500u64), &opts);
        assert_finding(
            &out,
            "plan.options.delay-profile-unused",
            PlanSeverity::Advice,
        );
    }
}
