//! End-to-end daemon tests: boot `quill-serve` in-process on ephemeral
//! ports, stream a disordered fixture over real TCP (including a
//! mid-stream reconnect), and prove the served results are
//! element-identical to the batch `execute` path.

use quill_core::prelude::{
    execute, AggregateKind, AggregateSpec, ExecOptions, FixedKSlack, QueryConfig, QuerySpec,
    Session, WindowSpec,
};
use quill_engine::prelude::{Event, Key, Row, WindowResult};
use quill_serve::client::{fixture, IngestClient};
use quill_serve::config::{parse_query, RetryPolicy};
use quill_serve::server::MAX_BATCH;
use quill_serve::wire::{self, Frame};
use quill_serve::{ServeConfig, Server, ServerHandle, StrategySpec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const Q_SUM: &str = "tumbling:1000;sum:0:total;key=1;completeness=0.9";
const Q_COUNT: &str = "tumbling:250;count:0:n,max:0:peak;completeness=0.99";

/// Convert fixture data frames to the batch-side event vector: the daemon
/// assigns arrival sequence numbers in frame order, so a single ordered
/// connection reproduces `seq = index`.
fn frames_to_events(frames: &[Frame]) -> Vec<Event> {
    frames
        .iter()
        .enumerate()
        .map(|(i, f)| match f {
            Frame::Data { ts, values } => Event::new(*ts, i as u64, Row::new(values.clone())),
            Frame::Heartbeat { .. } => unreachable!("fixture built without heartbeats"),
        })
        .collect()
}

/// Wait until the session has pushed `n` events (bounded spin).
fn wait_events(handle: &ServerHandle, n: u64) {
    for _ in 0..2000 {
        if handle.stats().events >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "server never observed {n} events (got {})",
        handle.stats().events
    );
}

fn start_server() -> ServerHandle {
    let config = ServeConfig {
        strategy: StrategySpec::Fixed(500),
        ..ServeConfig::default()
    };
    Server::start(config).expect("server boots on ephemeral ports")
}

#[test]
fn tcp_ingest_with_reconnect_matches_batch_execute() {
    let frames = fixture(2_000, 42, 300, 0);
    let events = frames_to_events(&frames);

    let mut handle = start_server();
    let sum_id = handle.register(Q_SUM).expect("sum query registers");
    let count_id = handle.register(Q_COUNT).expect("count query registers");

    // Stream over real TCP with a mid-stream reconnect. Waiting for the
    // first half to be fully pushed before reconnecting keeps the global
    // arrival order identical to the frame order.
    let half = frames.len() / 2;
    let mut client = IngestClient::connect(handle.ingest_addr().to_string()).expect("connects");
    for f in &frames[..half] {
        client.send(f).expect("send");
    }
    wait_events(&handle, half as u64);
    client.reconnect().expect("mid-stream reconnect");
    for f in &frames[half..] {
        client.send(f).expect("send after reconnect");
    }
    client.finish().expect("clean close");

    wait_events(&handle, frames.len() as u64);
    handle.finish(); // graceful drain: flush every open window.

    let stats = handle.stats();
    assert_eq!(
        stats.events,
        frames.len() as u64,
        "no reconnect-induced loss"
    );
    assert!(stats.finished, "drain finished the session");

    // Batch reference runs, one per query, same strategy parameters.
    for (id, dsl) in [(sum_id, Q_SUM), (count_id, Q_COUNT)] {
        let (spec, _) = parse_query(dsl).unwrap();
        let batch = execute(
            &events,
            &mut FixedKSlack::new(500u64),
            &spec,
            &ExecOptions::default(),
        )
        .expect("batch run");
        let served = handle.poll(id).expect("poll served results");
        assert_eq!(
            served.len(),
            batch.results.len(),
            "result cardinality for `{dsl}`"
        );
        for (s, b) in served.iter().zip(batch.results.iter()) {
            assert_eq!(s, b, "served result diverges from batch for `{dsl}`");
        }
    }
    handle.shutdown();
}

#[test]
fn binary_and_text_wire_modes_are_equivalent() {
    let frames = fixture(600, 7, 200, 0);
    let mut outcomes = Vec::new();
    for binary in [false, true] {
        let mut handle = start_server();
        let id = handle.register(Q_COUNT).expect("register");
        let mut client = IngestClient::connect_with(
            handle.ingest_addr().to_string(),
            binary,
            RetryPolicy::default(),
        )
        .expect("connect");
        for f in &frames {
            client.send(f).expect("send");
        }
        client.finish().expect("close");
        wait_events(&handle, frames.len() as u64);
        handle.finish();
        outcomes.push(handle.poll(id).expect("poll"));
        handle.shutdown();
    }
    assert_eq!(outcomes[0], outcomes[1], "text and binary modes diverge");
    assert!(!outcomes[0].is_empty(), "fixture produced results");
}

#[test]
fn heartbeats_drive_punctuated_sessions_over_tcp() {
    // Two sources, punctuation-driven watermarks: results only advance when
    // heartbeats arrive, exercising `on_heartbeat` over the wire.
    let config = ServeConfig {
        strategy: StrategySpec::Punctuated {
            source_field: 1,
            expected_sources: 2,
            slack: 0,
        },
        ..ServeConfig::default()
    };
    let mut handle = Server::start(config).expect("boot");
    let id = handle.register("tumbling:100;count:0:n").expect("register");

    let frames = fixture(400, 13, 50, 40); // heartbeats every 40 events
    let total = frames.len() as u64;
    let data = frames
        .iter()
        .filter(|f| matches!(f, Frame::Data { .. }))
        .count() as u64;
    let mut client = IngestClient::connect(handle.ingest_addr().to_string()).expect("connect");
    for f in &frames {
        client.send(f).expect("send");
    }
    client.finish().expect("close");

    for _ in 0..2000 {
        let s = handle.stats();
        if s.events + s.heartbeats >= total {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mid = handle.stats();
    assert_eq!(mid.events, data, "every data frame reached the session");
    assert_eq!(mid.heartbeats, total - data, "every heartbeat applied");

    handle.finish();
    let results = handle.poll(id).expect("poll");
    assert!(!results.is_empty(), "punctuated session emitted windows");
    handle.shutdown();
}

/// Minimal HTTP client for the control surface.
fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("http connect");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: quill\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    (head.to_string(), payload.to_string())
}

#[test]
fn http_surface_registers_queries_and_exposes_metrics() {
    let handle = start_server();
    let http = handle.http_addr();

    let id = post_query(http, Q_SUM);

    let (_, list) = http_request(http, "GET", "/queries", "");
    assert!(list.contains("tumbling:1000"), "{list}");
    assert!(list.contains("\"required_completeness\":0.9"), "{list}");

    // Ingest a burst, then drain via the HTTP finish endpoint.
    let frames = fixture(500, 5, 100, 0);
    let mut client = IngestClient::connect(handle.ingest_addr().to_string()).expect("connect");
    for f in &frames {
        client.send(f).expect("send");
    }
    client.finish().expect("close");
    wait_events(&handle, frames.len() as u64);
    let (head, _) = http_request(http, "POST", "/finish", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    for _ in 0..2000 {
        if handle.stats().finished {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        handle.stats().finished,
        "finish endpoint drained the session"
    );

    let (_, results) = http_request(http, "GET", &format!("/queries/{id}/results"), "");
    assert!(results.starts_with('['), "{results}");
    assert!(results.contains("\"aggregates\""), "{results}");

    let (_, metrics) = http_request(http, "GET", "/metrics", "");
    let windows = metrics
        .lines()
        .find(|l| l.starts_with("quill_session_windows "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("quill_session_windows exported");
    assert!(windows > 0.0, "windows were emitted: {windows}");
    assert!(
        metrics.contains("quill_executor_queue_depth"),
        "ingest queue depth gauge exported"
    );

    let (_, stats) = http_request(http, "GET", "/stats", "");
    assert!(stats.contains("\"finished\":true"), "{stats}");

    let (head, _) = http_request(http, "DELETE", &format!("/queries/{id}"), "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let (head, _) = http_request(http, "DELETE", &format!("/queries/{id}"), "");
    assert!(
        head.starts_with("HTTP/1.1 400"),
        "double delete refused: {head}"
    );

    let (head, _) = http_request(http, "GET", "/nope", "");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    let (head, _) = http_request(http, "POST", "/shutdown", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    handle.shutdown();
}

/// `POST /queries` with `dsl`, which must register; returns the new id.
fn post_query(http: std::net::SocketAddr, dsl: &str) -> u64 {
    let (head, body) = http_request(http, "POST", "/queries", dsl);
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "`{dsl}` refused: {head} {body}"
    );
    let id = body
        .strip_prefix("{\"id\":")
        .and_then(|b| b.strip_suffix('}'));
    id.and_then(|id| id.parse().ok()).expect("id parses")
}

/// The DSL text a `/queries/{id}` listing shows for `id`.
fn listed_query(http: std::net::SocketAddr, id: u64) -> String {
    let (_, info) = http_request(http, "GET", &format!("/queries/{id}"), "");
    let text = info
        .split("\"query\":\"")
        .nth(1)
        .and_then(|s| s.split('"').next());
    text.unwrap_or_else(|| panic!("no query in {info}"))
        .to_string()
}

#[test]
fn a_listed_query_re_registers_as_the_same_query() {
    let handle = start_server();
    let http = handle.http_addr();
    let argmax = QuerySpec::new(
        WindowSpec::tumbling(100u64),
        vec![AggregateSpec::new(AggregateKind::ArgMax(1), 0, "s")],
        None,
    );
    let posted = parse_query("tumbling:100;sum:0:s;capacity=10;slo=500").expect("parses");
    let registered = [
        (
            handle
                .register_spec(&posted.0, posted.1.clone())
                .expect("registers"),
            posted,
        ),
        (
            handle
                .register_spec(&argmax, QueryConfig::default())
                .expect("registers"),
            (argmax, QueryConfig::default()),
        ),
    ];
    for (id, query) in registered {
        let listed = listed_query(http, id.raw());
        assert_eq!(parse_query(&listed).as_ref(), Ok(&query), "{listed}");
        let again = post_query(http, &listed);
        assert_eq!(listed_query(http, again), listed);
    }
    handle.shutdown();
}

/// Ask for a graceful drain and wait until the session has finished.
fn finish_and_wait(handle: &ServerHandle) {
    let (_, _) = http_request(handle.http_addr(), "POST", "/finish", "");
    for _ in 0..2000 {
        if handle.stats().finished {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("session never finished");
}

/// `GET /trace`: status line checked, body parsed one span per line.
fn fetch_trace(http: std::net::SocketAddr) -> (String, Vec<quill_telemetry::Span>) {
    let (head, body) = http_request(http, "GET", "/trace", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/x-ndjson"), "{head}");
    let spans = body
        .lines()
        .map(|l| quill_telemetry::Span::parse_json_line(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    (body, spans)
}

#[test]
fn trace_endpoint_serves_span_lines() {
    let handle = start_server();
    let http = handle.http_addr();

    // A query with a deliberately unmeetable latency SLO: every delivered
    // result burns it (K = 500 means results trail window ends by ~500).
    let id = post_query(http, "tumbling:1000;sum:0:total;slo=1");

    let frames = fixture(800, 11, 200, 0);
    let mut client = IngestClient::connect(handle.ingest_addr().to_string()).expect("connect");
    for f in &frames {
        client.send(f).expect("send");
    }
    client.finish().expect("close");
    wait_events(&handle, frames.len() as u64);
    finish_and_wait(&handle);

    // Every line is one span record, in ring (= seq) order, from the
    // session's one ring.
    let (_, spans) = fetch_trace(http);
    assert!(
        spans.windows(2).all(|w| w[0].seq < w[1].seq),
        "seq must strictly increase"
    );
    let stages: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.stage.as_str()).collect();
    for stage in ["buffer_residency", "deliver", "k_change"] {
        assert!(stages.contains(stage), "missing {stage} in {stages:?}");
    }

    // Per-stage latency histograms ride the ordinary metrics surface.
    let (_, metrics) = http_request(http, "GET", "/metrics", "");
    for series in ["quill_span_deliver_count", "quill_span_deliver_sum"] {
        assert!(metrics.contains(series), "missing {series}");
    }

    // The SLO burn counter is visible per query.
    let (_, info) = http_request(http, "GET", &format!("/queries/{id}"), "");
    let breaches = info
        .split("\"slo_breaches\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse::<u64>().ok())
        .expect("slo_breaches exported: {info}");
    assert!(breaches > 0, "unmeetable SLO burns: {info}");

    handle.shutdown();
}

#[test]
fn a_live_trace_feeds_the_full_report() {
    let config = ServeConfig {
        strategy: StrategySpec::Aq(0.95),
        ..ServeConfig::default()
    };
    let handle = Server::start(config).expect("server boots");
    let http = handle.http_addr();
    post_query(http, "tumbling:1000;sum:0:total");
    let frames = fixture(3_000, 5, 400, 0);
    let mut client = IngestClient::connect(handle.ingest_addr().to_string()).expect("connect");
    for f in &frames {
        client.send(f).expect("send");
    }
    client.finish().expect("close");
    wait_events(&handle, frames.len() as u64);
    finish_and_wait(&handle);

    // What `curl /trace > trace.jsonl; quill-inspect trace.jsonl` prints.
    let (body, _) = fetch_trace(http);
    let report = quill_bench::inspect::render_report(&body, 5).expect("the live ring renders");
    let decisions = report
        .lines()
        .filter(|l| l.contains("K ") && l.contains(" -> ") && l.ends_with(')'))
        .count();
    assert!(decisions > 0, "no controller decision line:\n{report}");
    assert!(
        report.lines().any(|l| l.contains("lateness=")),
        "no late-arrival leader:\n{report}"
    );
    handle.shutdown();
}

#[test]
fn zero_span_capacity_disables_trace_collection() {
    let config = ServeConfig {
        strategy: StrategySpec::Fixed(500),
        span_capacity: 0,
        ..ServeConfig::default()
    };
    let handle = Server::start(config).expect("server boots");
    let http = handle.http_addr();
    let (_, _) = http_request(http, "POST", "/queries", Q_SUM);
    let frames = fixture(100, 3, 100, 0);
    let mut client = IngestClient::connect(handle.ingest_addr().to_string()).expect("connect");
    for f in &frames {
        client.send(f).expect("send");
    }
    client.finish().expect("close");
    wait_events(&handle, frames.len() as u64);
    let (body, _) = fetch_trace(http);
    assert_eq!(body, "", "a disabled recorder records nothing");
    handle.shutdown();
}

#[test]
fn malformed_queries_and_frames_are_refused_cleanly() {
    let handle = start_server();
    let (head, body) = http_request(
        handle.http_addr(),
        "POST",
        "/queries",
        "tumbling:abc;sum:0:s",
    );
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("error"), "{body}");

    // A garbage ingest line closes that connection but leaves the server up.
    let mut bad = TcpStream::connect(handle.ingest_addr()).expect("connect");
    bad.write_all(b"not-a-timestamp 1 2\n")
        .expect("send garbage");
    drop(bad);
    std::thread::sleep(Duration::from_millis(100));
    let (head, _) = http_request(handle.http_addr(), "GET", "/healthz", "");
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "server survives bad input"
    );
    handle.shutdown();
}

/// `frames` as one wire stream, text or QBIN.
fn encode(frames: &[Frame], binary: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    if binary {
        bytes.extend_from_slice(wire::BINARY_MAGIC);
    }
    for f in frames {
        if binary {
            bytes.extend_from_slice(&wire::encode_frame(f));
        } else {
            bytes.extend_from_slice(wire::to_line(f).as_bytes());
            bytes.push(b'\n');
        }
    }
    bytes
}

/// Write `bytes` to a new ingest connection in writes of `split` bytes and
/// hang up.
fn send_split(handle: &ServerHandle, bytes: &[u8], split: usize) {
    let mut stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for chunk in bytes.chunks(split) {
        stream.write_all(chunk).expect("write");
    }
}

/// The `quill.executor.queue_depth` gauge: frames decoded, not yet pushed.
fn depth(handle: &ServerHandle) -> f64 {
    handle
        .registry()
        .snapshot()
        .gauge("quill.executor.queue_depth")
        .unwrap_or(0.0)
}

/// Wait until the session has taken `frames` data and heartbeat frames,
/// checking on the way that the depth gauge never exceeds one batch per
/// connection (an underflow would wrap to ~1.8e19); then it must read 0.
fn wait_frames_within_depth(handle: &ServerHandle, frames: u64, connections: usize) {
    for _ in 0..8000 {
        let d = depth(handle);
        assert!(
            d <= (connections * MAX_BATCH) as f64,
            "queue depth {d} over {connections} batches of {MAX_BATCH}"
        );
        let s = handle.stats();
        if s.events + s.heartbeats >= frames {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = handle.stats();
    assert_eq!(s.events + s.heartbeats, frames, "every frame pushed");
    assert_eq!(depth(handle), 0.0, "queue depth gauge after the drain");
}

#[test]
fn fast_source_is_backpressured_not_dropped() {
    // Two sources write whole streams as fast as the socket takes them
    // while HTTP requests contend for the session lock, with 20 queries
    // making each push slow. A reader waiting for the lock stops reading,
    // so the sources stall in `write` instead of the daemon buffering or
    // shedding: each connection holds at most one decoded batch, and every
    // event arrives.
    let config = ServeConfig {
        strategy: StrategySpec::Fixed(100),
        ..ServeConfig::default()
    };
    let mut handle = Server::start(config).expect("boot");
    let mut ids = Vec::new();
    for i in 0..20 {
        let dsl = format!("tumbling:{};count:0:n,sum:0:s;key=1", 100 + 10 * i);
        ids.push(handle.register(&dsl).expect("register"));
    }
    let streams = [
        encode(&fixture(10_000, 99, 200, 0), false),
        encode(&fixture(10_000, 98, 200, 0), true),
    ];
    std::thread::scope(|scope| {
        for bytes in &streams {
            let handle = &handle;
            scope.spawn(move || send_split(handle, bytes, bytes.len()));
        }
        scope.spawn(|| {
            for _ in 0..10_000 {
                if handle.stats().events >= 20_000 {
                    break;
                }
                let (head, _) = http_request(handle.http_addr(), "GET", "/stats", "");
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            }
        });
        wait_frames_within_depth(&handle, 20_000, 2);
    });
    handle.finish();
    assert_eq!(handle.stats().events, 20_000, "nothing shed");
    for id in ids {
        assert!(!handle.poll(id).expect("poll").is_empty());
    }
    handle.shutdown();
}

/// The reference the daemon must match element for element: one in-process
/// session fed `frames` by a per-event push loop.
fn session_push_loop(
    strategy: &StrategySpec,
    dsl: &str,
    frames: &[Frame],
) -> (Vec<WindowResult>, u64, u64) {
    let (spec, cfg) = parse_query(dsl).expect("query parses");
    let mut session = Session::new(strategy.build());
    let handle = session.register_with(&spec, cfg).expect("registers");
    let mut seq = 0;
    for f in frames {
        match f {
            Frame::Data { ts, values } => {
                session.push(Event::new(*ts, seq, Row::new(values.clone())));
                seq += 1;
            }
            Frame::Heartbeat { ts, source } => session.heartbeat(&Key(source.clone()), *ts),
        }
    }
    session.finish();
    let stats = session.stats();
    (handle.poll(), stats.events, stats.heartbeats)
}

/// Serve `frames`, written to the socket in writes of `split` bytes, and
/// return what [`session_push_loop`] returns. The depth gauge must stay
/// within one batch and end at 0.
fn served(
    strategy: &StrategySpec,
    split: usize,
    dsl: &str,
    frames: &[Frame],
    binary: bool,
) -> (Vec<WindowResult>, u64, u64) {
    let config = ServeConfig {
        strategy: strategy.clone(),
        ..ServeConfig::default()
    };
    let mut handle = Server::start(config).expect("boot");
    let id = handle.register(dsl).expect("register");
    send_split(&handle, &encode(frames, binary), split);
    wait_frames_within_depth(&handle, frames.len() as u64, 1);
    handle.finish();
    let stats = handle.stats();
    let results = handle.poll(id).expect("poll");
    handle.shutdown();
    (results, stats.events, stats.heartbeats)
}

#[test]
fn served_results_match_a_session_push_loop_at_every_write_split() {
    let fixed = StrategySpec::Fixed(100);
    let punctuated = StrategySpec::Punctuated {
        source_field: 1,
        expected_sources: 2,
        slack: 0,
    };
    // Under `punctuated` a heartbeat moves the watermark. The fixture's
    // promises are conservative; moved up by the maximum delay they are
    // broken by the stragglers behind them, so a data frame is on time or
    // dropped by whether it is pushed before or after the heartbeat beside
    // it: the order inside a batch shows in the counts.
    let broken_promises = |seed| -> Vec<Frame> {
        let mut frames = fixture(2_000, seed, 50, 7);
        for f in &mut frames {
            if let Frame::Heartbeat { ts, .. } = f {
                ts.0 += 50;
            }
        }
        frames
    };
    let cases = [
        (&fixed, Q_COUNT, fixture(3_000, 21, 300, 0), false),
        (&fixed, Q_SUM, fixture(3_000, 22, 300, 0), true),
        (
            &punctuated,
            "tumbling:100;count:0:n",
            broken_promises(13),
            false,
        ),
        (
            &punctuated,
            "tumbling:100;count:0:n",
            broken_promises(14),
            true,
        ),
    ];
    for (strategy, dsl, frames, binary) in &cases {
        let expected = session_push_loop(strategy, dsl, frames);
        assert!(!expected.0.is_empty(), "fixture produced results");
        assert_eq!(expected.1 + expected.2, frames.len() as u64);
        // One byte, a length that cuts every frame somewhere, and the whole
        // stream in one write.
        for split in [1, 7, usize::MAX] {
            let got = served(strategy, split, dsl, frames, *binary);
            assert_eq!(
                got, expected,
                "`{dsl}` under {strategy:?}, binary {binary}, writes of {split} bytes"
            );
        }
    }
}

#[test]
fn two_connections_with_disjoint_keys_match_one_connection() {
    // K is larger than the streams' span, so nothing is released before
    // the drain and no event is late: how the two connections' reads
    // interleave on the session lock cannot change any window.
    let strategy = StrategySpec::Fixed(1_000_000);
    let dsl = "tumbling:250;count:0:n,sum:0:s,max:0:peak;key=1";
    let keyed = |seed, offset: i64| -> Vec<Frame> {
        let mut frames = fixture(3_000, seed, 300, 0);
        for f in &mut frames {
            if let Frame::Data { values, .. } = f {
                values[1] = quill_engine::prelude::Value::Int(values[1].as_i64().unwrap() + offset);
            }
        }
        frames
    };
    let (a, b) = (keyed(31, 0), keyed(32, 2));
    let by_key_and_window = |results: &mut Vec<WindowResult>| {
        results.sort_by(|x, y| x.key.total_cmp(&y.key).then(x.window.cmp(&y.window)));
    };
    let both: Vec<Frame> = a.iter().chain(&b).cloned().collect();
    let (mut expected, events, _) = session_push_loop(&strategy, dsl, &both);
    assert_eq!(events, 6_000);
    by_key_and_window(&mut expected);

    let mut handle = Server::start(ServeConfig {
        strategy,
        ..ServeConfig::default()
    })
    .expect("boot");
    let id = handle.register(dsl).expect("register");
    let (a, b) = (encode(&a, false), encode(&b, true));
    std::thread::scope(|scope| {
        scope.spawn(|| send_split(&handle, &a, 7));
        scope.spawn(|| send_split(&handle, &b, 7));
        wait_frames_within_depth(&handle, 6_000, 2);
    });
    handle.finish();
    assert_eq!(
        handle.stats().events,
        6_000,
        "events counts both connections"
    );
    let mut got = handle.poll(id).expect("poll");
    by_key_and_window(&mut got);
    assert_eq!(got, expected);
    handle.shutdown();
}

#[test]
fn a_short_unterminated_text_line_is_not_lost_at_eof() {
    // Three bytes never decide text against QBIN; at EOF they are text.
    let mut handle = start_server();
    let mut stream = TcpStream::connect(handle.ingest_addr()).expect("connect");
    stream.write_all(b"7 1").expect("write");
    drop(stream);
    wait_events(&handle, 1);
    handle.finish();
    assert_eq!(handle.stats().events, 1);
    handle.shutdown();
}

#[test]
fn drain_and_shutdown_return_promptly_with_no_client_connected() {
    // Both accept loops block; only the wake-up connection ends them.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let handle = start_server();
        let (head, _) = http_request(handle.http_addr(), "POST", "/finish", "");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        for _ in 0..2000 {
            if handle.stats().finished {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            handle.stats().finished,
            "POST /finish drained an idle server"
        );
        let idle = start_server();
        idle.shutdown();
        handle.shutdown();
        done_tx.send(()).expect("report");
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("finish and shutdown complete without a client to wake the accept loops");
    worker.join().expect("worker");
}
