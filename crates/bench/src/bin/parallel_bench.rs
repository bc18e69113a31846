//! Machine-readable throughput benchmark for the batched keyed-parallel
//! executor.
//!
//! ```text
//! parallel-bench [--events N] [--keys K] [--repeat R] [--out FILE] [--quick]
//! ```
//!
//! Measures events/sec on the keyed Median+Quantile workload (the ISSUE's
//! acceptance workload: sliding(200, 40), order statistics per key) for:
//!
//! * the **seed single-event path** — a faithful reproduction of the seed's
//!   `run_keyed_parallel`: one channel send per event, per-event
//!   `DefaultHasher` + key clone for routing, results funnelled one at a
//!   time through an unbounded channel, and a global `sort_by` that
//!   re-parses the row and allocates a `String` key on *every comparison*;
//! * an in-process sequential reference (one operator, one `process` call
//!   per element) for context;
//! * the batched parallel executor across shards {1, 2, 4, 8} × batch sizes
//!   {1, 256, 1024} — `shards=1` exercises the single-shard bypass (no
//!   channels or threads), including the former `shards=1, batch=1`
//!   pathology; and
//! * an end-to-end `execute()` pair on a disordered stream: shard-local
//!   window finalization (the default) against the older global staging.
//!
//! Every timed section reports **min / median / max events/sec across
//! `--repeat` runs** (input cloning happens outside the timed region), and
//! the JSON records `host.cpus_online` so scaling numbers are interpreted
//! against the parallelism actually available: on a single-core host all
//! shard counts compete for one CPU and wall-clock speedup from sharding is
//! not expected.
//!
//! Writes `results/BENCH_parallel.json` so the perf trajectory is
//! machine-readable PR-over-PR, and prints a human summary.

use quill_core::prelude::{
    execute, AggregateKind as CoreAggregateKind, Event as CoreEvent, ExecOptions, FixedKSlack,
    QuerySpec, Row as CoreRow, Value as CoreValue, WindowSpec as CoreWindowSpec,
};
use quill_engine::aggregate::{AggregateKind, AggregateSpec};
use quill_engine::operator::{LatePolicy, Operator, WindowAggregateOp, WindowResult};
use quill_engine::parallel::{run_keyed_parallel_with, ParallelConfig};
use quill_engine::prelude::{Event, Row, StreamElement, Value, WindowSpec};
use std::path::PathBuf;
use std::time::Instant;

fn make_op() -> WindowAggregateOp {
    WindowAggregateOp::new(
        WindowSpec::sliding(200u64, 40u64),
        vec![
            AggregateSpec::new(AggregateKind::Median, 1, "med"),
            AggregateSpec::new(AggregateKind::Quantile(0.9), 1, "q90"),
        ],
        Some(0),
        LatePolicy::Drop,
    )
    .expect("valid op")
}

fn keyed_stream(n: u64, keys: i64) -> Vec<StreamElement> {
    let mut v: Vec<StreamElement> = (0..n)
        .map(|i| {
            StreamElement::Event(Event::new(
                i,
                i,
                Row::new([Value::Int((i as i64) % keys), Value::Float((i % 97) as f64)]),
            ))
        })
        .collect();
    v.push(StreamElement::Flush);
    v
}

/// Disordered keyed events for the end-to-end `execute()` comparison:
/// deterministic arrival jitter over a `ts = 5i` spine, sorted by arrival.
fn disordered_events(n: u64, keys: i64) -> Vec<CoreEvent> {
    let mut arrivals: Vec<(u64, u64, i64)> = (0..n)
        .map(|i| {
            (
                i * 5 + (i.wrapping_mul(7919)) % 150,
                i * 5,
                (i as i64) % keys,
            )
        })
        .collect();
    arrivals.sort_unstable();
    arrivals
        .into_iter()
        .enumerate()
        .map(|(seq, (_, ts, k))| {
            CoreEvent::new(
                ts,
                seq as u64,
                CoreRow::new([CoreValue::Int(k), CoreValue::Float((ts % 97) as f64)]),
            )
        })
        .collect()
}

/// The seed's keyed-parallel executor, reproduced verbatim as the
/// acceptance baseline: per-event sends, per-event `DefaultHasher` over a
/// cloned key, an unbounded per-result funnel, and a global sort whose
/// order key (including a `String` render of the key) is recomputed on
/// every comparison.
fn seed_single_event_parallel(
    elements: Vec<StreamElement>,
    key_field: usize,
    shards: usize,
    make_op: impl Fn() -> WindowAggregateOp,
) -> Vec<StreamElement> {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn seed_shard_of(key: &Value, shards: usize) -> usize {
        let mut h = DefaultHasher::new();
        quill_engine::value::Key(key.clone()).hash(&mut h);
        (h.finish() % shards.max(1) as u64) as usize
    }
    fn order_key(el: &StreamElement) -> (u64, u64, String) {
        match el {
            StreamElement::Event(e) => {
                if let Some(r) = WindowResult::from_row(&e.row) {
                    (r.window.end.raw(), r.window.start.raw(), r.key.to_string())
                } else {
                    (e.ts.raw(), e.seq, String::new())
                }
            }
            _ => (u64::MAX, u64::MAX, String::new()),
        }
    }

    let (out_tx, out_rx) = crossbeam::channel::unbounded::<(usize, StreamElement)>();
    let mut txs = Vec::with_capacity(shards);
    let mut handles = Vec::with_capacity(shards);
    for shard in 0..shards {
        let (tx, rx) = crossbeam::channel::bounded::<StreamElement>(1024);
        let mut op = make_op();
        let out_tx = out_tx.clone();
        handles.push(std::thread::spawn(move || {
            for el in rx {
                op.process(el, &mut |o| {
                    if matches!(o, StreamElement::Event(_)) {
                        let _ = out_tx.send((shard, o));
                    }
                });
            }
        }));
        txs.push(tx);
    }
    drop(out_tx);
    for el in elements {
        match &el {
            StreamElement::Event(e) => {
                let shard = seed_shard_of(e.row.get(key_field), shards);
                txs[shard].send(el).expect("shard alive");
            }
            _ => {
                for tx in &txs {
                    tx.send(el.clone()).expect("shard alive");
                }
            }
        }
    }
    drop(txs);
    let mut out: Vec<(usize, StreamElement)> = out_rx.into_iter().collect();
    for h in handles {
        h.join().expect("shard thread");
    }
    out.sort_by(|(sa, a), (sb, b)| order_key(a).cmp(&order_key(b)).then(sa.cmp(sb)));
    out.into_iter().map(|(_, el)| el).collect()
}

/// Wall seconds across `repeat` runs. `prep` runs *outside* the timed
/// region (input clones and other setup must not pollute the measurement);
/// `run` consumes its output and is what gets timed.
struct TimeStats {
    min: f64,
    median: f64,
    max: f64,
}

fn time_stats<T>(
    repeat: usize,
    mut prep: impl FnMut() -> T,
    mut run: impl FnMut(T) -> usize,
) -> TimeStats {
    let mut secs = Vec::with_capacity(repeat.max(1));
    let mut sink = 0usize;
    for _ in 0..repeat.max(1) {
        let prepared = prep();
        let t = Instant::now();
        sink = sink.wrapping_add(run(prepared));
        secs.push(t.elapsed().as_secs_f64());
    }
    assert!(sink != usize::MAX, "keep the result observable");
    secs.sort_by(f64::total_cmp);
    TimeStats {
        min: secs[0],
        median: secs[secs.len() / 2],
        max: secs[secs.len() - 1],
    }
}

/// Events/sec summary of a [`TimeStats`]: fastest run gives the max rate.
struct EpsStats {
    min: f64,
    median: f64,
    max: f64,
}

fn eps_stats(events: u64, t: &TimeStats) -> EpsStats {
    let n = events as f64;
    EpsStats {
        min: n / t.max,
        median: n / t.median,
        max: n / t.min,
    }
}

struct Args {
    events: u64,
    keys: i64,
    repeat: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        events: 200_000,
        keys: 64,
        repeat: 3,
        out: PathBuf::from("results/BENCH_parallel.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--events" => {
                args.events = value("--events")?
                    .parse()
                    .map_err(|e| format!("bad --events: {e}"))?
            }
            "--keys" => {
                args.keys = value("--keys")?
                    .parse()
                    .map_err(|e| format!("bad --keys: {e}"))?
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--quick" => {
                args.events = 20_000;
                args.repeat = 1;
            }
            "--help" | "-h" => {
                println!(
                    "usage: parallel-bench [--events N] [--keys K] [--repeat R] [--out FILE] [--quick]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let cpus_online = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: {cpus_online} cpu(s) online{}",
        if cpus_online == 1 {
            " — shard counts compete for one core; no wall-clock scaling expected"
        } else {
            ""
        }
    );
    let input = keyed_stream(args.events, args.keys);
    let eps = |t: &TimeStats| eps_stats(args.events, t);

    // Acceptance baseline: the seed's single-event keyed-parallel executor
    // at 4 shards.
    let seed = eps(&time_stats(
        args.repeat,
        || input.clone(),
        |inp| seed_single_event_parallel(inp, 0, 4, make_op).len(),
    ));
    println!(
        "seed single-event path (4 shards): {:>12.0} events/s (min {:.0}, max {:.0})",
        seed.median, seed.min, seed.max
    );

    // In-process sequential reference, for context.
    let seq = eps(&time_stats(
        args.repeat,
        || input.clone(),
        |inp| {
            let mut op = make_op();
            let mut c = 0usize;
            for el in inp {
                op.process(el, &mut |_| c += 1);
            }
            c
        },
    ));
    println!(
        "sequential in-process reference:   {:>12.0} events/s (min {:.0}, max {:.0})",
        seq.median, seq.min, seq.max
    );

    let mut rows = Vec::new();
    let mut best_4shard = 0.0f64;
    let mut best_1shard = 0.0f64;
    let mut best_8shard = 0.0f64;
    for shards in [1usize, 2, 4, 8] {
        for batch in [1usize, 256, 1024] {
            let e = eps(&time_stats(
                args.repeat,
                || input.clone(),
                |inp| {
                    run_keyed_parallel_with(
                        inp,
                        0,
                        ParallelConfig::new(shards).with_batch_size(batch),
                        make_op,
                    )
                    .expect("parallel run")
                    .0
                    .len()
                },
            ));
            match shards {
                1 => best_1shard = best_1shard.max(e.median),
                4 => best_4shard = best_4shard.max(e.median),
                8 => best_8shard = best_8shard.max(e.median),
                _ => {}
            }
            println!(
                "shards={shards} batch={batch:>4}: {:>12.0} events/s (min {:.0}, max {:.0}, {:>5.2}x vs seed)",
                e.median,
                e.min,
                e.max,
                e.median / seed.median
            );
            rows.push(format!(
                "    {{\"shards\": {shards}, \"batch_size\": {batch}, \"events_per_sec\": {:.1}, \"events_per_sec_min\": {:.1}, \"events_per_sec_max\": {:.1}, \"speedup_vs_seed\": {:.3}}}",
                e.median,
                e.min,
                e.max,
                e.median / seed.median
            ));
        }
    }
    let speedup_4 = best_4shard / seed.median;
    let speedup_8v1 = best_8shard / best_1shard;
    println!("best 4-shard speedup over seed single-event path: {speedup_4:.2}x");
    println!("best 8-shard over best 1-shard: {speedup_8v1:.2}x (on {cpus_online} cpu(s))");

    // End-to-end execute() on a disordered stream: shard-local window
    // finalization (default — control-only strategy + per-shard staging)
    // against the older global staging (one SlackBuffer re-orders everything
    // before routing). Same strategy, query and event set.
    let disordered = disordered_events(args.events, args.keys);
    let staged_query = QuerySpec::builder()
        .window(CoreWindowSpec::sliding(200u64, 40u64))
        .aggregate(CoreAggregateKind::Median, 1, "med")
        .aggregate(CoreAggregateKind::Quantile(0.9), 1, "q90")
        .key_field(0)
        .build()
        .expect("valid query spec");
    let staging_cfg = ParallelConfig::new(8).with_batch_size(256);
    let run_staged = |global: bool| {
        eps(&time_stats(
            args.repeat,
            || (),
            |()| {
                let mut strategy = FixedKSlack::new(160u64);
                execute(
                    &disordered,
                    &mut strategy,
                    &staged_query,
                    &ExecOptions::parallel(staging_cfg).with_global_staging(global),
                )
                .expect("valid query")
                .results
                .len()
            },
        ))
    };
    let shard_local = run_staged(false);
    let global_staging = run_staged(true);
    let staging_speedup = shard_local.median / global_staging.median;
    println!(
        "execute() shard-local staging (8x256): {:>12.0} events/s (min {:.0}, max {:.0})",
        shard_local.median, shard_local.min, shard_local.max
    );
    println!(
        "execute() global staging      (8x256): {:>12.0} events/s ({staging_speedup:.2}x from shard-local)",
        global_staging.median
    );

    let json = format!(
        "{{\n  \"bench\": \"keyed_parallel_batched\",\n  \"host\": {{\"cpus_online\": {cpus_online}}},\n  \"workload\": {{\"events\": {}, \"keys\": {}, \"window\": \"sliding(200,40)\", \"aggregates\": [\"median\", \"q0.9\"], \"repeat\": {}}},\n  \"seed_single_event_4shard\": {{\"events_per_sec\": {:.1}}},\n  \"sequential_inprocess\": {{\"events_per_sec\": {:.1}, \"events_per_sec_min\": {:.1}, \"events_per_sec_max\": {:.1}}},\n  \"parallel\": [\n{}\n  ],\n  \"speedup_4shard_vs_seed\": {speedup_4:.3},\n  \"speedup_8shard_vs_1shard\": {speedup_8v1:.3},\n  \"staging\": {{\"shard_local_events_per_sec\": {:.1}, \"global_events_per_sec\": {:.1}, \"shard_local_speedup\": {staging_speedup:.3}}}\n}}\n",
        args.events,
        args.keys,
        args.repeat,
        seed.median,
        seq.median,
        seq.min,
        seq.max,
        rows.join(",\n"),
        shard_local.median,
        global_staging.median,
    );
    if let Some(dir) = args.out.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error creating {}: {e}", dir.display());
            return std::process::ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("error writing {}: {e}", args.out.display());
        return std::process::ExitCode::FAILURE;
    }
    println!("wrote {}", args.out.display());
    std::process::ExitCode::SUCCESS
}
