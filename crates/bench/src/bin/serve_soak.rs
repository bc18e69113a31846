//! Multi-tenant soak of the `quill-serve` daemon: boot a server
//! in-process, register 1000+ concurrent queries against the one shared
//! session, stream disordered fixtures from several TCP sources (with
//! periodic mid-stream reconnects) for a fixed duration, and verify:
//!
//! * the frames decoded but not yet pushed stay bounded (backpressure, not
//!   growth),
//! * no reconnect-induced event loss (pushed == sent),
//! * every query keeps emitting.
//!
//! Writes `results/SOAK_serve.json`. `--quick` shrinks the run for CI.

use quill_engine::prelude::Timestamp;
use quill_serve::client::{fixture, IngestClient};
use quill_serve::config::RetryPolicy;
use quill_serve::wire::Frame;
use quill_serve::{ServeConfig, Server, StrategySpec};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    queries: usize,
    sources: usize,
    duration: Duration,
    out: std::path::PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        queries: 1_000,
        sources: 4,
        duration: Duration::from_secs(30),
        out: std::path::PathBuf::from("results/SOAK_serve.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("flag needs a value");
        match flag.as_str() {
            "--quick" => {
                args.queries = 100;
                args.duration = Duration::from_secs(3);
            }
            "--queries" => args.queries = value().parse().expect("--queries"),
            "--sources" => args.sources = value().parse().expect("--sources"),
            "--seconds" => args.duration = Duration::from_secs(value().parse().expect("--seconds")),
            "--out" => args.out = value().into(),
            other => panic!("unknown flag `{other}`"),
        }
    }
    args
}

/// Resident set size from /proc/self/status, in kilobytes (0 if absent).
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn main() {
    let args = parse_args();
    let config = ServeConfig {
        strategy: StrategySpec::Aq(0.95),
        ..ServeConfig::default()
    };
    let mut handle = Server::start(config).expect("server boots");

    // A spread of tenants: four window/aggregate shapes, rotating quality
    // targets, all sharing the one disorder-control core.
    let shapes = [
        "tumbling:1000;sum:0:total;key=1",
        "tumbling:500;count:0:n,max:0:peak",
        "sliding:2000:500;mean:0:mean",
        "tumbling:2000;min:0:lo,max:0:hi;key=1",
    ];
    let targets = [0.9, 0.95, 0.99];
    let mut ids = Vec::with_capacity(args.queries);
    for i in 0..args.queries {
        let dsl = format!(
            "{};completeness={};capacity=64",
            shapes[i % shapes.len()],
            targets[i % targets.len()]
        );
        ids.push(handle.register(&dsl).expect("query registers"));
    }
    eprintln!(
        "soak: {} queries on {}, ingest {}",
        ids.len(),
        handle.stats().queries,
        handle.ingest_addr()
    );

    // Sources stream fixture frames in a loop until told to stop, each
    // reconnecting periodically; sends are counted so loss is detectable.
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));
    // Published by the sampling loop below; senders throttle when they get
    // too far ahead of the session, bounding the drain backlog that would
    // otherwise accumulate in OS socket buffers.
    let drained = Arc::new(AtomicU64::new(0));
    const MAX_AHEAD: u64 = 100_000;
    let addr = handle.ingest_addr().to_string();
    let mut senders = Vec::new();
    for s in 0..args.sources {
        let stop = Arc::clone(&stop);
        let sent = Arc::clone(&sent);
        let drained = Arc::clone(&drained);
        let addr = addr.clone();
        senders.push(std::thread::spawn(move || {
            let frames = fixture(5_000, 1_000 + s as u64, 400, 0);
            // Fixture timestamps cover [0, 50_000); shift each pass forward
            // so the soak's event time keeps advancing.
            const SPAN: u64 = 50_000;
            let mut client = IngestClient::connect_with(&addr, s % 2 == 1, RetryPolicy::default())
                .expect("source connects");
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                while sent
                    .load(Ordering::Relaxed)
                    .saturating_sub(drained.load(Ordering::Relaxed))
                    > MAX_AHEAD
                    && !stop.load(Ordering::Relaxed)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Reconnect every pass over the fixture: a soak-long churn
                // of connections with no element allowed to go missing.
                if i > 0 && i.is_multiple_of(frames.len()) {
                    client.reconnect().expect("mid-stream reconnect");
                }
                let pass = (i / frames.len()) as u64;
                let f = match &frames[i % frames.len()] {
                    Frame::Data { ts, values } => Frame::Data {
                        ts: Timestamp(ts.raw() + pass * SPAN),
                        values: values.clone(),
                    },
                    Frame::Heartbeat { ts, source } => Frame::Heartbeat {
                        ts: Timestamp(ts.raw() + pass * SPAN),
                        source: source.clone(),
                    },
                };
                match client.send(&f) {
                    Ok(()) => {
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        client.reconnect().expect("recovery reconnect");
                        client.send(&f).expect("resend after reconnect");
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                }
                i += 1;
            }
            let _ = client.finish();
        }));
    }

    // Sample queue depth + RSS once a second for the soak duration.
    let started = Instant::now();
    let mut depth_samples: Vec<f64> = Vec::new();
    let mut conn_samples: Vec<f64> = Vec::new();
    let mut rss_samples: Vec<u64> = Vec::new();
    while started.elapsed() < args.duration {
        std::thread::sleep(Duration::from_millis(250).min(args.duration / 6));
        let snap = handle.registry().snapshot();
        depth_samples.push(snap.gauge("quill.executor.queue_depth").unwrap_or(0.0));
        conn_samples.push(snap.gauge("quill.serve.connections").unwrap_or(0.0));
        rss_samples.push(vm_rss_kb());
        drained.store(handle.stats().events, Ordering::Relaxed);
    }
    stop.store(true, Ordering::Relaxed);
    for t in senders {
        t.join().expect("source thread");
    }
    let total_sent = sent.load(Ordering::Relaxed);

    // Drain: everything sent must reach the session, then finish. The
    // deadline is progress-based — a genuinely wedged drain trips it, a
    // slow one (socket buffers ahead of a 1000-query core) does not.
    let mut last_seen = handle.stats().events;
    let mut stalled_for = Duration::ZERO;
    while handle.stats().events < total_sent {
        std::thread::sleep(Duration::from_millis(100));
        let now_events = handle.stats().events;
        if now_events == last_seen {
            stalled_for += Duration::from_millis(100);
            assert!(
                stalled_for < Duration::from_secs(15),
                "drain stalled: {now_events} of {total_sent} events"
            );
        } else {
            stalled_for = Duration::ZERO;
            last_seen = now_events;
        }
    }
    handle.finish();
    let stats = handle.stats();
    assert_eq!(stats.events, total_sent, "reconnect-induced loss");
    assert!(stats.finished, "session finished");

    let max_depth = depth_samples.iter().copied().fold(0.0f64, f64::max);
    let max_conns = conn_samples.iter().copied().fold(0.0f64, f64::max);
    // The gauge counts the frames each reader has decoded and not yet
    // pushed: at most one batch per connection. Reconnect churn keeps
    // several lingering readers alive per source, so the bound is peak
    // concurrent connections × batch cap (plus sampling slack of one more
    // batch per source).
    let batch_cap = quill_serve::server::MAX_BATCH as f64;
    assert!(
        max_depth <= (max_conns + args.sources as f64) * batch_cap,
        "queue depth {max_depth} not bounded by connections {max_conns} x batch cap {batch_cap}"
    );
    let emitting = ids
        .iter()
        .filter(|id| {
            let polled = handle.poll(**id).map(|r| r.len()).unwrap_or(0);
            polled > 0
        })
        .count();
    assert!(
        emitting == ids.len(),
        "only {emitting} of {} queries emitted results",
        ids.len()
    );

    let final_stats = handle.shutdown();
    let max_rss = rss_samples.iter().copied().max().unwrap_or(0);
    let json = format!(
        "{{\n  \"queries\": {},\n  \"sources\": {},\n  \"seconds\": {},\n  \"events\": {},\n  \
         \"results\": {},\n  \"max_queue_depth\": {},\n  \
         \"max_connections\": {},\n  \"max_rss_kb\": {},\n  \"emitting_queries\": {}\n}}\n",
        ids.len(),
        args.sources,
        args.duration.as_secs(),
        final_stats.events,
        final_stats.results,
        max_depth,
        max_conns,
        max_rss,
        emitting
    );
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("results dir");
    }
    let mut f = std::fs::File::create(&args.out).expect("results file");
    f.write_all(json.as_bytes()).expect("write results");
    println!(
        "soak ok: {} events, {} results, max depth {max_depth}, max rss {max_rss} kB -> {}",
        final_stats.events,
        final_stats.results,
        args.out.display()
    );
}
