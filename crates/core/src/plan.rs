//! Static query-plan analysis: catch infeasible or wasteful configurations
//! *before* the first event is processed.
//!
//! [`analyze_plan`] inspects the query shape ([`QuerySpec`]), the statically
//! known strategy behaviour ([`StrategyKind`]) and the execution options
//! ([`ExecOptions`]) and returns structured [`Diagnostic`]s:
//!
//! * **Deny** — the plan cannot deliver what was asked (e.g. a completeness
//!   target of 1.0 under an unbounded delay distribution, or a fixed slack
//!   below a declared delay bound). [`crate::runner::execute`] refuses such
//!   plans with [`quill_engine::error::EngineError::PlanRejected`] before
//!   any event is buffered.
//! * **Warn** — the plan runs but wastes resources or silently cannot do
//!   what the options suggest (snapshots without telemetry, shards on an
//!   unkeyed query, order statistics over heavily overlapping windows).
//! * **Advice** — a better configuration exists.
//!
//! Delay knowledge is opt-in: the analyzer only reasons about feasibility
//! when the caller declares a [`DelayProfile`] via
//! [`ExecOptions::with_delay_profile`]. Without it, quality-feasibility
//! checks stay silent (the delay distribution is a runtime observation).

use crate::quality::QualityTarget;
use crate::runner::{ExecOptions, QuerySpec};
use quill_engine::error::{EngineError, Result};
use quill_engine::window::WindowSpec;
use std::fmt;

/// How severe a plan finding is. Only [`Severity::Deny`] aborts execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A better configuration exists.
    Advice,
    /// The plan runs but part of the configuration is ineffective or costly.
    Warn,
    /// The plan cannot meet its stated requirements; execution is refused.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Advice => write!(f, "advice"),
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// One plan finding: which check fired, how severe, what and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Check identifier, dotted (`plan.quality.infeasible`, ...).
    pub rule: String,
    /// Severity level.
    pub severity: Severity,
    /// What is wrong with the plan.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

impl Diagnostic {
    fn new(
        rule: &str,
        severity: Severity,
        message: impl Into<String>,
        help: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            severity,
            message: message.into(),
            help: help.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} (help: {})",
            self.severity, self.rule, self.message, self.help
        )
    }
}

/// Statically known behaviour of a disorder-control strategy, as reported by
/// [`crate::strategy::DisorderControl::kind`]. This is what the plan
/// analyzer can reason about without running the strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// K = 0: zero latency, no reordering.
    DropAll,
    /// Constant user-chosen slack.
    FixedK(u64),
    /// Max-delay ratchet, optionally capped (`None` = unbounded K growth).
    Mp {
        /// Upper bound on K, if any.
        cap: Option<u64>,
    },
    /// Quality-driven adaptive slack.
    Aq {
        /// The quality target the controller steers towards.
        target: QualityTarget,
        /// Hard upper bound on K (`None` = effectively unbounded).
        k_max: Option<u64>,
    },
    /// Infinite buffer: exact results at end of stream.
    Oracle,
    /// A strategy the analyzer knows nothing about (external impls).
    Custom,
}

impl StrategyKind {
    /// The completeness level the strategy itself commits to, if any.
    fn target_completeness(&self) -> Option<f64> {
        match self {
            StrategyKind::Aq {
                target: QualityTarget::Completeness { q },
                ..
            } => Some(*q),
            _ => None,
        }
    }
}

/// A static declaration of the transport-delay regime the stream is expected
/// to exhibit, enabling feasibility checks before execution. See
/// `quill_gen::delay` for the generative models these summarize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayProfile {
    /// Delays never exceed `max_delay` event-time units.
    Bounded {
        /// The hard delay bound.
        max_delay: u64,
    },
    /// Delays are heavy-tailed / unbounded (e.g. Pareto transport delay):
    /// no finite K achieves completeness 1.0.
    Unbounded,
}

/// Statically analyze one query plan. Returns findings in severity order
/// (deny first); an empty vector means the plan is clean.
pub fn analyze_plan(
    query: &QuerySpec,
    strategy: &StrategyKind,
    opts: &ExecOptions,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_window(query, &mut diags);
    check_fold_path(query, &mut diags);
    check_quality_feasibility(strategy, opts, &mut diags);
    check_strategy(strategy, opts, &mut diags);
    check_parallel(query, opts, &mut diags);
    check_options(opts, &mut diags);
    diags.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.rule.cmp(&b.rule)));
    diags
}

/// Refuse a plan with a deny-level finding as
/// [`EngineError::PlanRejected`]; otherwise hand the findings back.
pub(crate) fn refuse_denied(diags: Vec<Diagnostic>) -> Result<Vec<Diagnostic>> {
    match diags.iter().find(|d| d.severity == Severity::Deny) {
        Some(deny) => Err(EngineError::PlanRejected(format!(
            "[{}] {} (help: {})",
            deny.rule, deny.message, deny.help
        ))),
        None => Ok(diags),
    }
}

/// Window/slide arithmetic: per-event fan-out. (Whether the slide divides
/// the length is irrelevant: the window state folds an event once either way.)
fn check_window(query: &QuerySpec, diags: &mut Vec<Diagnostic>) {
    if let WindowSpec::Sliding { length, slide } = query.window {
        let (length, slide) = (length.raw(), slide.raw());
        if slide > 0 && length / slide >= 32 {
            diags.push(Diagnostic::new(
                "plan.window.fanout",
                Severity::Advice,
                format!(
                    "each event belongs to up to {} overlapping windows (length {length} / slide \
                     {slide})",
                    length.div_ceil(slide)
                ),
                "every event is folded once whatever the overlap (one pane fold); the overlap \
                 is paid at emission — that many results cover each event, and DistinctCount \
                 re-reads the window's panes for each (Median/Quantile select from a per-key \
                 rank index instead) — consider a coarser slide",
            ));
        }
    }
}

/// Aggregate combinability vs. what the window state does per emission.
fn check_fold_path(query: &QuerySpec, diags: &mut Vec<Diagnostic>) {
    if let WindowSpec::Sliding { length, slide } = query.window {
        if slide < length {
            let non_combinable: Vec<String> = query
                .aggregates
                .iter()
                .filter(|a| !a.kind.combinable())
                .map(|a| a.kind.to_string())
                .collect();
            if !non_combinable.is_empty() {
                diags.push(Diagnostic::new(
                    "plan.aggregate.fold-path",
                    Severity::Warn,
                    format!(
                        "non-combinable aggregate(s) [{}] over sliding windows are answered \
                         without a cached partial at each of the ~{} emissions that cover an \
                         event: Median/Quantile select from a per-key rank index after visiting \
                         the held entries outside the window, DistinctCount visits the whole \
                         window",
                        non_combinable.join(", "),
                        length.raw().div_ceil(slide.raw().max(1))
                    ),
                    "exact order statistics / distinct counts cannot be combined from \
                     per-event partials the way sum/mean/min/max are (one range query per \
                     window); accept the cost, use a coarser slide, or use combinable aggregates",
                ));
            }
        }
    }
}

/// The completeness level the run is being asked to achieve, combining the
/// provenance threshold with the strategy's own target (strictest wins).
fn required_completeness(strategy: &StrategyKind, opts: &ExecOptions) -> Option<f64> {
    match (opts.required_completeness, strategy.target_completeness()) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    }
}

/// Quality-target feasibility against the declared delay profile.
fn check_quality_feasibility(
    strategy: &StrategyKind,
    opts: &ExecOptions,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(profile) = opts.delay_profile else {
        return;
    };
    let req = required_completeness(strategy, opts);
    // An uncapped MP ratchet under unbounded delays still consumes the
    // profile (see `check_strategy`), so the hint is not dead there.
    let feeds_strategy_check =
        matches!(strategy, StrategyKind::Mp { cap: None }) && profile == DelayProfile::Unbounded;
    if req.is_none() && !matches!(strategy, StrategyKind::Aq { .. }) && !feeds_strategy_check {
        diags.push(Diagnostic::new(
            "plan.options.delay-profile-unused",
            Severity::Advice,
            "a delay profile is declared but no quality target exists anywhere (neither \
             ExecOptions::with_required_completeness nor a quality-driven strategy): the \
             feasibility checks have nothing to check",
            "set a completeness target, use AqKSlack, or drop with_delay_profile",
        ));
        return;
    }
    let wants_exact = req.is_some_and(|q| q >= 1.0);

    if wants_exact && profile == DelayProfile::Unbounded && *strategy != StrategyKind::Oracle {
        diags.push(Diagnostic::new(
            "plan.quality.infeasible",
            Severity::Deny,
            "completeness target 1.0 is unreachable under an unbounded delay distribution: \
             no finite slack K covers an unbounded tail",
            "lower the completeness target below 1.0, declare a bounded delay profile, or \
             use the offline OracleBuffer reference",
        ));
        return;
    }
    if let DelayProfile::Bounded { max_delay } = profile {
        let insufficient_k = match *strategy {
            StrategyKind::DropAll => Some(0),
            StrategyKind::FixedK(k) if k < max_delay => Some(k),
            StrategyKind::Mp { cap: Some(cap) } if cap < max_delay => Some(cap),
            StrategyKind::Aq {
                k_max: Some(k_max), ..
            } if k_max < max_delay => Some(k_max),
            _ => None,
        };
        if wants_exact {
            if let Some(k) = insufficient_k {
                diags.push(Diagnostic::new(
                    "plan.quality.infeasible",
                    Severity::Deny,
                    format!(
                        "completeness target 1.0 requires slack K >= the delay bound \
                         {max_delay}, but the strategy can reach at most K = {k}"
                    ),
                    "raise the slack (or its cap) to at least the delay bound, or lower \
                     the completeness target",
                ));
            }
        } else if let (Some(q), Some(k)) = (req, insufficient_k) {
            // A sub-1.0 target may still be met (depends on the delay CDF);
            // flag only the degenerate zero-slack case.
            if k == 0 && q > 0.0 {
                diags.push(Diagnostic::new(
                    "plan.quality.at-risk",
                    Severity::Warn,
                    format!(
                        "completeness target {q} with zero slack: every out-of-order \
                         arrival within the delay bound {max_delay} is lost"
                    ),
                    "use FixedKSlack/MpKSlack/AqKSlack to buy completeness with latency",
                ));
            }
        }
    }
}

/// Strategy-level sanity independent of the query.
fn check_strategy(strategy: &StrategyKind, opts: &ExecOptions, diags: &mut Vec<Diagnostic>) {
    if matches!(strategy, StrategyKind::Mp { cap: None })
        && opts.delay_profile == Some(DelayProfile::Unbounded)
    {
        diags.push(Diagnostic::new(
            "plan.strategy.unbounded-k",
            Severity::Warn,
            "uncapped MP-K-slack under an unbounded delay distribution: K ratchets to the \
             worst delay ever seen and never recovers, so latency and memory grow without \
             bound",
            "use MpKSlack::bounded(cap) or a quality-driven AqKSlack target",
        ));
    }
    if *strategy == StrategyKind::Oracle {
        diags.push(Diagnostic::new(
            "plan.strategy.oracle-offline",
            Severity::Advice,
            "OracleBuffer releases nothing until end of stream: exact results, unbounded \
             latency",
            "the oracle is the offline quality reference, not an online configuration",
        ));
    }
}

/// Parallel-executor configuration vs. the query's key structure.
fn check_parallel(query: &QuerySpec, opts: &ExecOptions, diags: &mut Vec<Diagnostic>) {
    let Some(config) = opts.parallel else {
        return;
    };
    if config.shards == 0 {
        diags.push(Diagnostic::new(
            "plan.parallel.config",
            Severity::Deny,
            "degenerate parallel configuration: shards=0 (must be > 0)",
            "use ParallelConfig::new(shards) with at least one shard",
        ));
        return;
    }
    if config.shards > 1 && query.key_field.is_none() {
        diags.push(Diagnostic::new(
            "plan.parallel.unkeyed",
            Severity::Warn,
            format!(
                "{} shards configured but the query has no key field: every event routes \
                 to one shard and the others idle",
                config.shards
            ),
            "set QuerySpec::key_field to shard by key, or run sequentially",
        ));
    }
}

/// Conflicting or ineffective `ExecOptions` combinations.
fn check_options(opts: &ExecOptions, diags: &mut Vec<Diagnostic>) {
    if let Some(q) = opts.required_completeness {
        if !(q > 0.0 && q <= 1.0) || q.is_nan() {
            diags.push(Diagnostic::new(
                "plan.options.completeness-range",
                Severity::Deny,
                format!("required_completeness {q} outside (0, 1]"),
                "pass a fraction in (0, 1], e.g. with_required_completeness(0.95)",
            ));
        } else if !opts.spans.is_enabled() {
            diags.push(Diagnostic::new(
                "plan.options.completeness-without-spans",
                Severity::Warn,
                "required_completeness is set but span recording is disabled: violations \
                 are only flagged in the provenance layer, which reads the span records",
                "attach a recorder via ExecOptions::with_spans(&recorder) or drop the target",
            ));
        }
    }
    if opts.snapshot_every_events > 0 && !opts.telemetry.is_enabled() {
        diags.push(Diagnostic::new(
            "plan.options.snapshot-without-telemetry",
            Severity::Warn,
            "periodic snapshots requested but telemetry is disabled: no snapshots will \
             be taken",
            "attach a registry via ExecOptions::with_telemetry(&registry) or drop \
             with_snapshot_every",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::QuerySpec;
    use quill_engine::aggregate::{AggregateKind, AggregateSpec};
    use quill_engine::parallel::ParallelConfig;
    use quill_engine::window::WindowSpec;

    fn query(window: WindowSpec, kind: AggregateKind, key: Option<usize>) -> QuerySpec {
        QuerySpec::new(window, vec![AggregateSpec::new(kind, 0, "a")], key)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn clean_plan_has_no_findings() {
        // A slide that does not divide the length is as clean as one that
        // does: a combinable event is folded once either way.
        for window in [
            WindowSpec::tumbling(100u64),
            WindowSpec::sliding(100u64, 25u64),
            WindowSpec::sliding(100u64, 30u64),
        ] {
            let q = query(window, AggregateKind::Sum, None);
            let diags = analyze_plan(&q, &StrategyKind::FixedK(50), &ExecOptions::sequential());
            assert!(diags.is_empty(), "{window}: {diags:?}");
        }
    }

    #[test]
    fn non_combinable_sliding_warns_about_fold_path() {
        let q = query(
            WindowSpec::sliding(100u64, 10u64),
            AggregateKind::Median,
            None,
        );
        let diags = analyze_plan(&q, &StrategyKind::FixedK(50), &ExecOptions::sequential());
        assert!(rules(&diags).contains(&"plan.aggregate.fold-path"));
    }

    #[test]
    fn exact_completeness_under_unbounded_delay_is_denied() {
        let q = query(WindowSpec::tumbling(100u64), AggregateKind::Sum, None);
        let opts = ExecOptions::sequential()
            .with_delay_profile(DelayProfile::Unbounded)
            .with_required_completeness(1.0);
        let diags = analyze_plan(&q, &StrategyKind::FixedK(1_000_000), &opts);
        assert_eq!(diags[0].rule, "plan.quality.infeasible");
        assert_eq!(diags[0].severity, Severity::Deny);
        // The oracle is exempt (exact results at end of stream).
        let diags = analyze_plan(&q, &StrategyKind::Oracle, &opts);
        assert!(!rules(&diags).contains(&"plan.quality.infeasible"));
    }

    #[test]
    fn fixed_k_below_declared_bound_is_denied_for_exact_targets() {
        let q = query(WindowSpec::tumbling(100u64), AggregateKind::Sum, None);
        let opts = ExecOptions::sequential()
            .with_delay_profile(DelayProfile::Bounded { max_delay: 500 })
            .with_required_completeness(1.0);
        let diags = analyze_plan(&q, &StrategyKind::FixedK(100), &opts);
        assert_eq!(diags[0].rule, "plan.quality.infeasible");
        // K at the bound is feasible.
        let diags = analyze_plan(&q, &StrategyKind::FixedK(500), &opts);
        assert!(!rules(&diags).contains(&"plan.quality.infeasible"));
    }

    #[test]
    fn aq_exact_target_with_low_k_max_is_denied() {
        let q = query(WindowSpec::tumbling(100u64), AggregateKind::Sum, None);
        let strategy = StrategyKind::Aq {
            target: QualityTarget::Completeness { q: 1.0 },
            k_max: Some(100),
        };
        let opts =
            ExecOptions::sequential().with_delay_profile(DelayProfile::Bounded { max_delay: 500 });
        let diags = analyze_plan(&q, &strategy, &opts);
        assert_eq!(diags[0].rule, "plan.quality.infeasible");
    }

    #[test]
    fn feasibility_is_silent_without_a_delay_profile() {
        let q = query(WindowSpec::tumbling(100u64), AggregateKind::Sum, None);
        let opts = ExecOptions::sequential().with_required_completeness(1.0);
        let diags = analyze_plan(&q, &StrategyKind::DropAll, &opts);
        assert!(!rules(&diags).contains(&"plan.quality.infeasible"));
    }

    #[test]
    fn unkeyed_parallel_warns() {
        let q = query(WindowSpec::tumbling(100u64), AggregateKind::Sum, None);
        let opts = ExecOptions::parallel(ParallelConfig::new(4));
        let diags = analyze_plan(&q, &StrategyKind::FixedK(50), &opts);
        assert!(rules(&diags).contains(&"plan.parallel.unkeyed"));
    }

    #[test]
    fn conflicting_options_warn_or_deny() {
        let q = query(WindowSpec::tumbling(100u64), AggregateKind::Sum, None);
        let opts = ExecOptions::sequential().with_snapshot_every(100);
        let diags = analyze_plan(&q, &StrategyKind::FixedK(50), &opts);
        assert!(rules(&diags).contains(&"plan.options.snapshot-without-telemetry"));

        let opts = ExecOptions::sequential().with_required_completeness(1.5);
        let diags = analyze_plan(&q, &StrategyKind::FixedK(50), &opts);
        assert_eq!(diags[0].rule, "plan.options.completeness-range");
        assert_eq!(diags[0].severity, Severity::Deny);
    }

    #[test]
    fn dead_delay_profile_advises() {
        let q = query(WindowSpec::tumbling(100u64), AggregateKind::Sum, None);
        let opts =
            ExecOptions::sequential().with_delay_profile(DelayProfile::Bounded { max_delay: 100 });
        let diags = analyze_plan(&q, &StrategyKind::FixedK(500), &opts);
        assert!(rules(&diags).contains(&"plan.options.delay-profile-unused"));
        // A quality-driven strategy consumes the profile: no advice.
        let aq = StrategyKind::Aq {
            target: QualityTarget::Completeness { q: 0.9 },
            k_max: None,
        };
        let diags = analyze_plan(&q, &aq, &opts);
        assert!(!rules(&diags).contains(&"plan.options.delay-profile-unused"));
        // So does the uncapped-MP unbounded-delay check.
        let opts = ExecOptions::sequential().with_delay_profile(DelayProfile::Unbounded);
        let diags = analyze_plan(&q, &StrategyKind::Mp { cap: None }, &opts);
        assert!(!rules(&diags).contains(&"plan.options.delay-profile-unused"));
        assert!(rules(&diags).contains(&"plan.strategy.unbounded-k"));
    }

    #[test]
    fn deny_sorts_first() {
        let q = query(WindowSpec::sliding(100u64, 30u64), AggregateKind::Sum, None);
        let opts = ExecOptions::sequential()
            .with_delay_profile(DelayProfile::Unbounded)
            .with_required_completeness(1.0);
        let diags = analyze_plan(&q, &StrategyKind::DropAll, &opts);
        assert!(diags.len() >= 2);
        assert_eq!(diags[0].severity, Severity::Deny);
    }
}
