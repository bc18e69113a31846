//! Live player-speed monitoring over bursty multiplexed sensors.
//!
//! Simulates a DEBS'13-style setup: 16 player sensors with bursty radio
//! delays feed one receiver; the query keeps a per-player mean speed over
//! sliding 5-second windows. Compares what each disorder-control strategy
//! delivers to the dashboard.
//!
//! Run with: `cargo run --example soccer_monitor`

use oos_examples::{print_run, section};
use quill_core::prelude::*;
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::prelude::{Value, WindowSpec};
use quill_gen::workload::soccer::{self, SoccerConfig};

fn main() {
    let cfg = SoccerConfig::default();
    let stream = soccer::generate(&cfg, 50_000, 3);
    section("sensor feed");
    println!(
        "  {} readings from {} players, disorder {:.1}%, mean delay {:.1}, max delay {}",
        stream.len(),
        cfg.players,
        stream.stats.disorder_ratio() * 100.0,
        stream.stats.mean_delay(),
        stream.stats.max_delay
    );

    let query = QuerySpec::new(
        WindowSpec::sliding(5_000u64, 1_000u64),
        vec![
            AggregateSpec::new(AggregateKind::Mean, soccer::SPEED_FIELD, "mean_speed"),
            AggregateSpec::new(AggregateKind::Max, soccer::SPEED_FIELD, "max_speed"),
        ],
        Some(soccer::PLAYER_FIELD),
    );

    section("strategies (dashboard wants 97% complete windows)");
    let opts = ExecOptions::sequential();
    for spec in [StrategySpec::DropAll, StrategySpec::Mp(None)] {
        let mut s = spec.build();
        print_run(&execute(&stream.events, s.as_mut(), &query, &opts).expect("valid query"));
    }
    let mut aq = AqKSlack::for_completeness(0.97);
    let out = execute(&stream.events, &mut aq, &query, &opts).expect("valid query");
    print_run(&out);

    section("player 0, first complete windows (AQ results)");
    let mut shown = 0;
    for r in &out.results {
        if r.key == Value::Int(0) && shown < 5 {
            println!(
                "  {}: mean {:.2} m/s, max {:.2} m/s over {} samples",
                r.window,
                r.aggregates[0].as_f64().unwrap_or(0.0),
                r.aggregates[1].as_f64().unwrap_or(0.0),
                r.count
            );
            shown += 1;
        }
    }

    section("why not just MP?");
    println!(
        "  MP pays for the worst radio burst forever; AQ hovers at the 97th\n  \
         delay percentile. AQ mean K: {:.0}, max delay seen: {} — the gap is\n  \
         the latency AQ gives back to the dashboard.",
        out.mean_k, stream.stats.max_delay
    );
}
