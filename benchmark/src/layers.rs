//! Isolated layer passes of the traced run: the same decoded stream driven
//! through each layer's public API from outside, one span per 1 024-event
//! batch, five repeats after one warm-up, median and MAD reported.
//!
//! Nothing here reaches inside a layer: every number is the time of a call
//! into a `pub` function of the crate the layer lives in.

use crate::replay::{session_for, strategy_of};
use crate::stats::Measured;
use crate::trace::{Spans, LANE_LAYERS};
use crate::workloads::{frame_of, Input, Workload};
use quill_core::prelude::{execute, ExecOptions, ParallelConfig};
use quill_engine::prelude::{
    Event, LatePolicy, Operator, StreamElement, WindowAggregateOp, WindowState,
};
use quill_serve::config::{parse_query, RetryPolicy};
use quill_serve::wire::{self, Frame};
use quill_serve::IngestClient;
use std::hint::black_box;
use std::io::Read;
use std::net::TcpListener;
use std::ops::Range;
use std::time::Instant;

pub const BATCH: usize = 1024;
pub const REPEATS: usize = 5;

/// Per-layer numbers of one workload's isolated passes.
pub struct Layers {
    pub decode_text: Measured,
    pub decode_qbin: Measured,
    pub client_send: Measured,
    pub stage: Measured,
    pub peak_buffered: usize,
    pub late_passed_ratio: f64,
    pub push_served: Measured,
    pub push_bare: Measured,
    /// Fold time per (query, event).
    pub fold: Measured,
    /// Emit time per emitted result.
    pub emit: Measured,
    /// Fold plus emit time of all queries, per event.
    pub window_total: Measured,
    pub open_windows_max: usize,
    pub results_per_event: f64,
    pub exec_seq: Measured,
    pub exec_one_shard: Measured,
    pub exec_all_cores: Measured,
    pub cpus: usize,
}

struct Passes<'a> {
    spans: &'a mut Spans,
    origin: Instant,
}

impl Passes<'_> {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Time `batch` over `0..n` in [`BATCH`]-sized steps, [`REPEATS`] times
    /// after a warm-up, each repeat on fresh state from `setup`. Returns
    /// nanoseconds per item.
    fn run<S>(
        &mut self,
        name: &'static str,
        n: usize,
        mut setup: impl FnMut() -> S,
        mut batch: impl FnMut(&mut S, Range<usize>),
        mut teardown: impl FnMut(S),
    ) -> Measured {
        let mut per_item = Vec::with_capacity(REPEATS);
        for rep in 0..=REPEATS {
            let mut state = setup();
            let pass_start = self.now();
            let mut busy = 0.0;
            for (b, from) in (0..n).step_by(BATCH).enumerate() {
                let range = from..(from + BATCH).min(n);
                let t0 = self.now();
                batch(&mut state, range);
                let t1 = self.now();
                busy += t1 - t0;
                if rep > 0 {
                    self.spans.record(
                        name,
                        LANE_LAYERS,
                        t0,
                        t1,
                        format!("\"pass\":\"{name}#{rep}\",\"batch\":{b}"),
                    );
                }
            }
            let pass_end = self.now();
            teardown(state);
            if rep > 0 {
                self.spans.record(
                    "pass",
                    LANE_LAYERS,
                    pass_start,
                    pass_end,
                    format!("\"id\":\"{name}#{rep}\""),
                );
                per_item.push(busy * 1e9 / n.max(1) as f64);
            }
        }
        Measured::of(&per_item)
    }
}

/// Cost of one `Instant::now()`, nanoseconds; subtracted from per-element
/// timings in the window pass.
fn clock_read_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t0.elapsed().as_secs_f64() * 1e9 / f64::from(N)
}

/// Run every isolated pass over the first `w.layer_events` events.
// Feeds are cloned up front (`to_vec`) so that no clone is timed.
#[allow(clippy::unnecessary_to_owned)]
pub fn run(w: &Workload, input: &Input, spans: &mut Spans, origin: Instant) -> Layers {
    let n = w.layer_events.min(input.len());
    let events: &[Event] = &input.events[..n];
    let frames: Vec<Frame> = events.iter().map(frame_of).collect();
    let mut p = Passes { spans, origin };

    // serve::wire — both wire modes, whatever the workload itself speaks.
    let lines: Vec<String> = frames.iter().map(wire::to_line).collect();
    let decode_text = p.run(
        "wire.decode_text",
        n,
        || (),
        |(), r| {
            for line in &lines[r] {
                black_box(wire::parse_line(black_box(line)).expect("own line parses"));
            }
        },
        drop,
    );
    let payloads: Vec<Vec<u8>> = frames.iter().map(wire::encode_payload).collect();
    let decode_qbin = p.run(
        "wire.decode_qbin",
        n,
        || (),
        |(), r| {
            for payload in &payloads[r] {
                black_box(wire::decode_payload(black_box(payload)).expect("own frame decodes"));
            }
        },
        drop,
    );

    // serve::client — the shipped client writing to a sink socket.
    let client_send = p.run(
        "client.send",
        n,
        || {
            let listener = TcpListener::bind("127.0.0.1:0").expect("sink binds");
            let addr = listener.local_addr().expect("sink address").to_string();
            let sink = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().expect("sink accepts");
                let mut buf = [0u8; 64 * 1024];
                while conn.read(&mut buf).is_ok_and(|n| n > 0) {}
            });
            let client = IngestClient::connect_with(addr, w.binary, RetryPolicy::default())
                .expect("client connects to sink");
            (client, sink)
        },
        |(client, _), r| {
            for frame in &frames[r] {
                client.send(frame).expect("sink accepts frame");
            }
        },
        |(client, sink)| {
            client.finish().expect("client flushes");
            sink.join().expect("sink thread");
        },
    );

    // core::buffer + core::strategy — the disorder-control stage alone.
    let strategy = strategy_of(w);
    let mut staged: Vec<StreamElement> = Vec::new();
    let mut buffer_stats = None;
    let stage = p.run(
        "buffer.stage",
        n,
        || {
            let out: Vec<StreamElement> = Vec::with_capacity(2 * n + 16);
            (strategy.build(), events.to_vec().into_iter(), out)
        },
        |(control, feed, out), r| {
            for e in feed.by_ref().take(r.len()) {
                control.on_event(e, out);
            }
        },
        |(control, _, out)| {
            buffer_stats = Some(control.buffer_stats());
            staged = out;
        },
    );
    let buffer_stats = buffer_stats.expect("stage pass ran");

    // core::session — push with every query registered, telemetry as the
    // daemon wires it, and the same with telemetry disabled.
    let mut results_total = 0u64;
    let mut push = |p: &mut Passes, name: &'static str, served: bool| {
        p.run(
            name,
            n,
            || {
                let (session, handles) = session_for(w, served);
                (session, handles, events.to_vec().into_iter())
            },
            |(session, _, feed), r| {
                for e in feed.by_ref().take(r.len()) {
                    session.push(e);
                }
            },
            |(session, _, _)| results_total = session.stats().results,
        )
    };
    let push_served = push(&mut p, "session.push", true);
    let push_bare = push(&mut p, "session.push_untelemetered", false);

    // engine::operator::window_op (+ fiba, aggregate) — every query's
    // operator over the staged stream, timed per element by kind.
    let specs: Vec<_> = w
        .query_dsls()
        .iter()
        .map(|dsl| parse_query(dsl).expect("workload DSL parses").0)
        .collect();
    let clock_ns = clock_read_ns();
    let (mut fold, mut emit, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let mut open_windows_max = 0usize;
    for rep in 0..=REPEATS {
        let pass_start = p.now();
        let (mut fold_ns, mut emit_ns) = (0.0f64, 0.0f64);
        let (mut folded, mut emitted) = (0u64, 0u64);
        for (q, spec) in specs.iter().enumerate() {
            let mut op = WindowAggregateOp::new(
                spec.window,
                spec.aggregates.clone(),
                spec.key_field,
                LatePolicy::Drop,
            )
            .expect("workload query builds")
            // `new` alone selects the legacy state; sessions and `execute`
            // select the default backend, as here.
            .with_window_state(WindowState::default());
            let elements = staged.clone();
            let mut batch_start = p.now();
            let mut prev = Instant::now();
            for (i, el) in elements.into_iter().enumerate() {
                let is_event = matches!(el, StreamElement::Event(_));
                let mut out = 0u64;
                op.process(el, &mut |_| out += 1);
                let t = Instant::now();
                let ns = ((t - prev).as_secs_f64() * 1e9 - clock_ns).max(0.0);
                prev = t;
                if is_event {
                    fold_ns += ns;
                    folded += 1;
                } else {
                    emit_ns += ns;
                    emitted += out;
                    if q == 0 {
                        open_windows_max = open_windows_max.max(op.open_windows());
                    }
                }
                if (i + 1) % BATCH == 0 && rep > 0 && q == 0 {
                    let now = p.now();
                    p.spans.record(
                        "window.process",
                        LANE_LAYERS,
                        batch_start,
                        now,
                        format!("\"pass\":\"window.process#{rep}\",\"batch\":{}", i / BATCH),
                    );
                    batch_start = now;
                }
            }
        }
        if rep > 0 {
            let now = p.now();
            p.spans.record(
                "pass",
                LANE_LAYERS,
                pass_start,
                now,
                format!("\"id\":\"window.process#{rep}\""),
            );
            fold.push(fold_ns / folded.max(1) as f64);
            emit.push(emit_ns / emitted.max(1) as f64);
            total.push((fold_ns + emit_ns) / n.max(1) as f64);
        }
    }

    // core::runner + engine::parallel — the batch baseline of the same job
    // (probe query only). `wall_micros` is the library's own clock around
    // staging and windowing; timing the call from outside would add the
    // oracle scoring `execute` also performs.
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let exec = |p: &mut Passes, name: &'static str, opts: ExecOptions| {
        let mut per_event = Vec::with_capacity(REPEATS);
        for rep in 0..=REPEATS {
            let mut control = strategy.build();
            let t0 = p.now();
            let out = execute(events, control.as_mut(), &specs[0], &opts).expect("batch run");
            if rep > 0 {
                let t1 = p.now();
                p.spans.record(
                    name,
                    LANE_LAYERS,
                    t0,
                    t1,
                    format!("\"pass\":\"{name}#{rep}\""),
                );
                per_event.push(out.wall_micros as f64 * 1e3 / n.max(1) as f64);
            }
        }
        Measured::of(&per_event)
    };
    let exec_seq = exec(&mut p, "runner.execute_seq", ExecOptions::sequential());
    let exec_one_shard = exec(
        &mut p,
        "parallel.execute_1shard",
        ExecOptions::parallel(ParallelConfig::new(1)),
    );
    let exec_all_cores = exec(
        &mut p,
        "parallel.execute_cores",
        ExecOptions::parallel(ParallelConfig::new(cpus)),
    );

    Layers {
        decode_text,
        decode_qbin,
        client_send,
        stage,
        peak_buffered: buffer_stats.max_buffered,
        late_passed_ratio: buffer_stats.late_passed as f64 / n.max(1) as f64,
        push_served,
        push_bare,
        fold: Measured::of(&fold),
        emit: Measured::of(&emit),
        window_total: Measured::of(&total),
        open_windows_max,
        results_per_event: results_total as f64 / n.max(1) as f64,
        exec_seq,
        exec_one_shard,
        exec_all_cores,
        cpus,
    }
}
