//! Shared test-support helpers: stream builders, query builders, and the
//! canonical strategy roster used by both the simulation harness and the
//! workspace integration tests (which re-export this module instead of
//! keeping per-file copies).

use quill_core::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A controlled disordered stream: events every `period`, uniform delays in
/// `[0, max_delay]`, payload = f64(ts).
pub fn uniform_disordered(n: u64, period: u64, max_delay: u64, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals: Vec<(u64, u64)> = (0..n)
        .map(|i| {
            let ts = i * period;
            (ts + rng.gen_range(0..=max_delay), ts)
        })
        .collect();
    arrivals.sort();
    arrivals
        .into_iter()
        .enumerate()
        .map(|(seq, (_, ts))| Event::new(ts, seq as u64, Row::new([Value::Float(ts as f64)])))
        .collect()
}

/// The standard test query: global mean over tumbling windows.
pub fn mean_query(window: u64) -> QuerySpec {
    QuerySpec::new(
        WindowSpec::tumbling(window),
        vec![AggregateSpec::new(AggregateKind::Mean, 0, "mean")],
        None,
    )
}

/// Multi-aggregate query exercising constant-space and order-statistic
/// aggregates together.
pub fn rich_query(window: u64) -> QuerySpec {
    QuerySpec::new(
        WindowSpec::sliding(window, window / 2),
        vec![
            AggregateSpec::new(AggregateKind::Count, 0, "n"),
            AggregateSpec::new(AggregateKind::Sum, 0, "sum"),
            AggregateSpec::new(AggregateKind::Median, 0, "median"),
            AggregateSpec::new(AggregateKind::Quantile(0.9), 0, "p90"),
            AggregateSpec::new(AggregateKind::Min, 0, "min"),
            AggregateSpec::new(AggregateKind::Max, 0, "max"),
        ],
        None,
    )
}

/// One representative of every strategy family, with both a tight and a
/// loose parameterization where the family has a knob.
pub fn all_strategies() -> Vec<Box<dyn DisorderControl>> {
    let roster = "dropall fixed:50 fixed:2000 mp mp:500 aq:0.9 aqe:0.05:0 oracle";
    let build = |s| StrategySpec::parse(s).map(|spec| spec.build());
    roster
        .split(' ')
        .map(build)
        .collect::<Result<_>>()
        .expect("roster parses")
}

/// Drive a strategy over events, collecting its raw element output.
pub fn drive(s: &mut dyn DisorderControl, events: &[Event]) -> Vec<StreamElement> {
    let mut out = Vec::new();
    for e in events {
        s.on_event(e.clone(), &mut out);
    }
    s.finish(&mut out);
    out
}

/// Fraction of tuples the window operator of a finished run took rather
/// than dropped as too late. Under tumbling windows, where a tuple's first
/// window is its only one, that is the fraction of tuples that made their
/// results — the quantity AQ's completeness target is stated over. A tuple
/// the buffer passed late still counts if its window was open.
pub fn tuple_completeness(out: &RunOutput) -> f64 {
    1.0 - out.window_stats.late_dropped as f64 / out.events.max(1) as f64
}
