//! Seeded random simulation-case generation.
//!
//! A [`SimCase`] bundles everything one differential check needs: the query
//! shape (window, aggregates, keying), the disorder-control strategy, and the
//! exact event vector — already perturbed by the adversarial mutators from
//! `quill_gen::mutate`. Cases are sampled through the vendored `proptest`
//! strategies from a single [`proptest::TestRng`], so a seed fully determines
//! the case and a failing seed replays bit-for-bit.

use proptest::{prop_oneof, BoxedStrategy, Just, Strategy, TestRng};
use quill_core::dsl::StrategySpec;
use quill_core::prelude::QuerySpec;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::prelude::{Event, FieldType, Row, Schema, Timestamp, Value, WindowSpec};
use quill_gen::arrival::ConstantRate;
use quill_gen::delay::{Constant, DelayModel, Exponential, Pareto, UniformDelay};
use quill_gen::mutate::{self, Mutator};
use quill_gen::source;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One self-contained differential test case.
#[derive(Debug, Clone)]
pub struct SimCase {
    /// Seed of the suite this case came from (0 for hand-built cases).
    pub seed: u64,
    /// Window shape.
    pub window: WindowSpec,
    /// Aggregates, all over field 1 (`ArgMin`/`ArgMax` rank by field 2).
    pub aggregates: Vec<AggregateSpec>,
    /// Grouping field, if keyed.
    pub key_field: Option<usize>,
    /// Disorder-control strategy under test.
    pub strategy: StrategySpec,
    /// The exact (already mutated) event vector.
    pub events: Vec<Event>,
}

impl SimCase {
    /// The query this case executes.
    pub fn query(&self) -> QuerySpec {
        QuerySpec::new(self.window, self.aggregates.clone(), self.key_field)
    }
}

/// Strategy over all 14 aggregate kinds (quantiles and arg-extremes
/// parameterized).
pub fn arb_aggregate() -> BoxedStrategy<AggregateKind> {
    prop_oneof![
        Just(AggregateKind::Count),
        Just(AggregateKind::Sum),
        Just(AggregateKind::Mean),
        Just(AggregateKind::Min),
        Just(AggregateKind::Max),
        Just(AggregateKind::StdDev),
        Just(AggregateKind::Variance),
        Just(AggregateKind::Median),
        (1u32..100u32).prop_map(|p| AggregateKind::Quantile(f64::from(p) / 100.0)),
        Just(AggregateKind::DistinctCount),
        Just(AggregateKind::First),
        Just(AggregateKind::Last),
        Just(AggregateKind::ArgMin(2)),
        Just(AggregateKind::ArgMax(2)),
    ]
    .boxed()
}

/// Strategy over window shapes: tumbling, aligned sliding, and sliding with
/// a slide that does not divide the length (misaligned).
pub fn arb_window() -> BoxedStrategy<WindowSpec> {
    prop_oneof![
        (2u64..=40u64).prop_map(|w| WindowSpec::tumbling(w * 10)),
        (1u64..=8u64, 2u64..=6u64).prop_map(|(s, m)| WindowSpec::sliding(s * 10 * m, s * 10)),
        (7u64..=40u64, 1u64..=3u64, 1u64..=6u64)
            .prop_map(|(slide, m, off)| WindowSpec::sliding(slide * m + off.min(slide - 1), slide)),
    ]
    .boxed()
}

/// How the generated stream's transport delay behaves before mutation.
#[derive(Debug, Clone, Copy)]
enum DelayChoice {
    InOrder,
    Uniform(u64),
    Exponential(u64),
    Pareto(u64),
}

impl DelayChoice {
    fn model(self) -> Box<dyn DelayModel> {
        match self {
            DelayChoice::InOrder => Box::new(Constant(0)),
            DelayChoice::Uniform(hi) => Box::new(UniformDelay { lo: 0, hi }),
            DelayChoice::Exponential(mean) => Box::new(Exponential { mean: mean as f64 }),
            DelayChoice::Pareto(scale) => Box::new(Pareto {
                scale: scale as f64,
                shape: 1.5,
            }),
        }
    }
}

const MUTATOR_COUNT: u32 = 8;

/// The adversarial mutators selected by `mask` (one bit each), with fixed
/// moderate parameters; `keys` bounds the hot key for `KeySkew` and
/// `window_len` sets the `DeepStraggler` depth to at least half a window.
fn mutators_for(mask: u16, keys: i64, window_len: u64) -> Vec<Box<dyn Mutator>> {
    let mut out: Vec<Box<dyn Mutator>> = Vec::new();
    if mask & 1 != 0 {
        out.push(Box::new(mutate::Duplicate { fraction: 0.05 }));
    }
    if mask & 2 != 0 {
        out.push(Box::new(mutate::Straggler { fraction: 0.03 }));
    }
    if mask & 4 != 0 {
        out.push(Box::new(mutate::ClockSurge));
    }
    if mask & 8 != 0 {
        out.push(Box::new(mutate::Dropout { fraction: 0.05 }));
    }
    if mask & 16 != 0 {
        out.push(Box::new(mutate::Burst {
            bursts: 3,
            max_len: 12,
        }));
    }
    if mask & 32 != 0 {
        out.push(Box::new(mutate::KeySkew {
            field: 0,
            hot_key: keys - 1,
            fraction: 0.4,
        }));
    }
    if mask & 64 != 0 {
        out.push(Box::new(mutate::TieCluster { quantum: 10 }));
    }
    if mask & 128 != 0 {
        out.push(Box::new(mutate::DeepStraggler {
            depth: (window_len / 2).max(1),
            fraction: 0.05,
        }));
    }
    out
}

/// Build the shared event vector for a suite: a seeded generated stream with
/// `[Int(source/key), Float(v), Float(w)]` rows, then the selected mutators.
fn build_events(
    n: usize,
    period: u64,
    keys: i64,
    delay: DelayChoice,
    mutator_mask: u16,
    window_len: u64,
    stream_seed: u64,
) -> Vec<Event> {
    let schema = Schema::new([
        ("source", FieldType::Int),
        ("v", FieldType::Float),
        ("w", FieldType::Float),
    ])
    .expect("static schema");
    let mut rng = StdRng::seed_from_u64(stream_seed);
    let mut arrival = ConstantRate { period };
    let mut delay_model = delay.model();
    let mut stream = source::build_stream(
        schema,
        n,
        Timestamp(0),
        &mut arrival,
        delay_model.as_mut(),
        &mut rng,
        |r, _ts, _i| {
            use rand::Rng;
            Row::new([
                Value::Int(r.gen_range(0..keys.max(1))),
                Value::Float(r.gen_range(0.0..100.0)),
                Value::Float(r.gen_range(-50.0..50.0)),
            ])
        },
    );
    let muts = mutators_for(mutator_mask, keys.max(1), window_len);
    mutate::apply_all(&mut stream.events, &muts, &mut rng);
    stream.events
}

/// Sample one suite for `seed`: a shared query shape and mutated stream,
/// expanded into one [`SimCase`] per strategy family so every seed exercises
/// every strategy kind over identical input.
pub fn sample_suite(seed: u64) -> Vec<SimCase> {
    let mut rng = TestRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);

    let keys = (1i64..=6i64).sample(&mut rng);
    let key_field = if (0u8..=2u8).sample(&mut rng) > 0 {
        Some(0)
    } else {
        None
    };
    let window = arb_window().sample(&mut rng);
    let agg = arb_aggregate();
    let n_aggs = (1usize..=4usize).sample(&mut rng);
    let aggregates: Vec<AggregateSpec> = (0..n_aggs)
        .map(|i| AggregateSpec::new(agg.sample(&mut rng), 1, format!("a{i}")))
        .collect();

    let n = (120usize..=360usize).sample(&mut rng);
    let period = *[1u64, 5, 10]
        .get((0usize..=2usize).sample(&mut rng))
        .expect("period index in range");
    let delay = match (0u8..=3u8).sample(&mut rng) {
        0 => DelayChoice::InOrder,
        1 => DelayChoice::Uniform((1u64..=40u64).sample(&mut rng) * period.max(1)),
        2 => DelayChoice::Exponential((1u64..=15u64).sample(&mut rng) * period.max(1)),
        _ => DelayChoice::Pareto((1u64..=8u64).sample(&mut rng) * period.max(1)),
    };
    let mutator_mask = (0u16..(1u16 << MUTATOR_COUNT)).sample(&mut rng);
    let stream_seed = rng.next_u64();
    let events = build_events(
        n,
        period,
        keys,
        delay,
        mutator_mask,
        window.length().raw(),
        stream_seed,
    );

    let strategies = vec![
        StrategySpec::DropAll,
        StrategySpec::Fixed((0u64..=600u64).sample(&mut rng)),
        StrategySpec::Mp(None),
        StrategySpec::Mp(Some((10u64..=400u64).sample(&mut rng))),
        StrategySpec::Aq((80u32..=99u32).sample(&mut rng) as f64 / 100.0),
        StrategySpec::AqError {
            epsilon: (1u32..=10u32).sample(&mut rng) as f64 / 100.0,
            field: 0,
        },
        StrategySpec::Oracle,
        StrategySpec::Punctuated {
            source_field: 0,
            expected_sources: keys.max(1) as usize,
            slack: (0u64..=200u64).sample(&mut rng),
        },
    ];

    strategies
        .into_iter()
        .map(|strategy| SimCase {
            seed,
            window,
            aggregates: aggregates.clone(),
            key_field,
            strategy,
            events: events.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quill_core::dsl::{parse_query, query_to_dsl};
    use quill_core::prelude::QueryConfig;

    fn arb_config() -> impl Strategy<Value = QueryConfig> {
        // Any non-negative finite target, drawn by bit pattern.
        let finite = (0..=f64::MAX.to_bits()).prop_map(|bits| Some(f64::from_bits(bits)));
        let completeness = prop_oneof![Just(None), finite];
        let slo = prop_oneof![Just(None), any::<u64>().prop_map(Some)];
        (completeness, 1..=usize::MAX, slo).prop_map(|(completeness, capacity, slo)| QueryConfig {
            required_completeness: completeness,
            result_capacity: capacity,
            latency_slo: slo,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sampled_queries_read_back_from_the_dsl(
            window in arb_window(),
            kinds in prop::collection::vec((arb_aggregate(), any::<usize>()), 1..5),
            key_field in prop_oneof![Just(None), any::<usize>().prop_map(Some)],
            config in arb_config(),
        ) {
            let aggregates = kinds
                .into_iter()
                .enumerate()
                .map(|(i, (kind, field))| AggregateSpec::new(kind, field, format!("a{i}")))
                .collect();
            let query = QuerySpec::new(window, aggregates, key_field);
            let text = query_to_dsl(&query, &config);
            prop_assert_eq!(parse_query(&text), Ok((query, config)), "{}", text);
        }
    }

    #[test]
    fn suites_are_seed_deterministic() {
        let a = sample_suite(42);
        let b = sample_suite(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.strategy, y.strategy);
            assert_eq!(x.events.len(), y.events.len());
            assert_eq!(x.window, y.window);
            for (e, f) in x.events.iter().zip(&y.events) {
                assert_eq!((e.ts, e.seq), (f.ts, f.seq));
                assert_eq!(e.row.values(), f.row.values());
            }
        }
    }

    #[test]
    fn every_strategy_family_appears_once_per_suite() {
        let suite = sample_suite(7);
        assert_eq!(suite.len(), 8);
        let heads = [
            "dropall", "fixed:", "mp", "mp:", "aq:", "aqe:", "oracle", "punct:",
        ];
        for (case, head) in suite.iter().zip(heads) {
            assert!(
                case.strategy.to_string().starts_with(head),
                "{}",
                case.strategy
            );
        }
        assert_eq!(suite[2].strategy, StrategySpec::Mp(None));
    }

    #[test]
    fn strategy_specs_round_trip_through_encode() {
        // What a reproducer's `strategy:` line holds reads back unchanged.
        for seed in 0..16 {
            for case in sample_suite(seed) {
                let text = case.strategy.to_string();
                assert_eq!(StrategySpec::parse(&text), Ok(case.strategy), "{text}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = sample_suite(1);
        let b = sample_suite(2);
        let differs = a[0].events.len() != b[0].events.len()
            || a[0].window != b[0].window
            || a[0]
                .events
                .iter()
                .zip(&b[0].events)
                .any(|(x, y)| x.ts != y.ts);
        assert!(differs);
    }
}
