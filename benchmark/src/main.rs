//! quill-e2e: the repository's one benchmark. See `README.md` beside
//! `Cargo.toml` for what is measured and why; `run.sh` builds and runs this.
//!
//! ```text
//! quill-e2e --server-bin PATH --out-dir DIR
//!     [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
//! quill-e2e --compare A.jsonl B.jsonl
//! ```
//!
//! With `--workload` it performs one run and prints the driver's result line
//! last; without, it runs every workload (untraced, and traced too under
//! `--trace`) and prints every metric by name with its unit.

mod affinity;
mod compare;
mod json;
mod layers;
mod legs;
mod metrics;
mod replay;
mod server;
mod stats;
mod trace;
mod workloads;

use affinity::Placement;
use metrics::{MetricSet, Record, END_TO_END, PER_LAYER};
use replay::{Schedule, AT_FLUSH};
use server::ServerProc;
use stats::Measured;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::Workload;

/// Seconds one run measures when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Share of `--seconds` the untraced paced leg takes; the rest is split
/// over [`SATURATE_REPEATS`] saturate repeats.
const PACED_SHARE: f64 = 0.6;
/// The traced run sends the paced leg twice (untraced, then traced, for the
/// tracing overhead), each this share of `--seconds`.
const TRACED_PACED_SHARE: f64 = 0.35;
const SATURATE_REPEATS: usize = 5;
const QUICK_PACED_S: f64 = 3.0;
/// Input digests of seed 1 at the default `--seconds`, per workload and run
/// kind; regenerate with `run.sh --digests` after a deliberate change to the
/// generator.
const PINNED_DIGESTS: &str = include_str!("../digests.json");
/// Best [`legs::reference_work_s`] of a run on the calibration host at its
/// usual speed (median over 40 runs).
/// `ingest_events_per_s` is reported at this host speed: the best repeat as
/// timed, divided by how fast the host ran its best reference work around
/// the legs. Interference only ever slows a repeat or the reference, so the
/// best of each is the one least disturbed.
const REFERENCE_NOMINAL_S: f64 = 0.165;
const SETUP_BOOTS_MIN: usize = 3;
const SETUP_BOOTS_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 1.2;

struct Args {
    server_bin: PathBuf,
    out_dir: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    digests: bool,
    /// Read once, before anything is pinned.
    placement: Placement,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "quill-e2e: {problem}\n\
         usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]\n\
         \x20      run.sh --compare A.jsonl B.jsonl\n\
         \x20      run.sh --digests\n\
         workloads: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        server_bin: PathBuf::new(),
        out_dir: PathBuf::from("benchmark/out"),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
        compare: None,
        digests: false,
        placement: Placement::detect(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--server-bin" => args.server_bin = value().into(),
            "--out-dir" => args.out_dir = value().into(),
            "--workload" => args.workload = Some(value()),
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a whole number"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=60.0).contains(s))
                    .unwrap_or_else(|| usage("--seconds takes a number from 1 to 60"))
            }
            // `--trace 0`, `--trace 1`, or a bare `--trace`.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--quick" => args.quick = true,
            "--digests" => args.digests = true,
            "--out" => args.out = Some(value().into()),
            "--compare" => args.compare = Some((value(), value())),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    args
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

/// Median and 99th percentile of a sample. The percentile is lowered until
/// ten samples lie beyond it; the note says so when that happened.
fn p50_p99(values: &[f64]) -> (f64, f64, String) {
    let mut sorted = values.to_vec();
    stats::sort(&mut sorted);
    let (p99, at) = stats::percentile_with_beyond(&sorted, 0.99);
    let note = if (at - 0.99).abs() > 5e-4 {
        format!("p{:.1} of {} samples", at * 100.0, sorted.len())
    } else {
        format!("{} samples", sorted.len())
    };
    (stats::percentile(&sorted, 0.5), p99, note)
}

/// The noise of a leg's median: the sample cut into five consecutive parts,
/// the median of each, and their median and MAD.
fn median_of_parts(values: &[f64]) -> Measured {
    let size = values.len().div_ceil(5).max(1);
    let medians: Vec<f64> = values.chunks(size).map(stats::median).collect();
    Measured::of(&medians)
}

/// Operations across the legs of a run: every sent frame and every expected
/// result.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ops {
    fn frames(&mut self, leg: &str, sent: u64, counted: u64) {
        self.attempted += sent;
        if counted != sent {
            self.failed += sent.abs_diff(counted);
            self.notes.push(format!(
                "{leg}: sent {sent} frames, /stats counted {counted}"
            ));
        }
    }
}

/// One paced leg with its verdict.
struct Paced {
    out: legs::PacedOut,
    score: replay::ProbeScore,
}

impl Paced {
    fn result_wall_ms(&self) -> Vec<f64> {
        self.score
            .samples
            .iter()
            .map(|s| ms(s.result_wall_s()))
            .collect()
    }
}

/// One workload's prepared input and reference, and the servers run on it.
struct Run<'a> {
    w: &'a Workload,
    server_bin: &'a Path,
    placement: &'a Placement,
    input: workloads::Input,
    reference: replay::Replay,
    schedule: Schedule,
    queries: Vec<String>,
    prepare_s: f64,
    ops: Ops,
    register_ms: Vec<f64>,
}

impl<'a> Run<'a> {
    /// Generate, encode, replay: everything that happens before a server
    /// exists. Timed as `bench.prepare_s`, never as `setup_s`.
    fn prepare(w: &'a Workload, args: &'a Args, paced_s: f64) -> Run<'a> {
        let t0 = Instant::now();
        let n = (w.paced_rate as f64 * paced_s) as usize;
        let input = workloads::encode(&w.generate(args.seed, n), w.binary);
        let reference = replay::replay(w, &input);
        Run {
            w,
            server_bin: &args.server_bin,
            placement: &args.placement,
            input,
            reference,
            schedule: Schedule {
                rate: w.paced_rate as f64,
            },
            queries: w.query_dsls(),
            prepare_s: t0.elapsed().as_secs_f64(),
            ops: Ops::default(),
            register_ms: Vec::new(),
        }
    }

    /// Boot a server for one leg. Dropping it stops the child and waits for
    /// its exit, so the next boot never overlaps a dying server.
    fn boot(&mut self) -> Result<server::Boot, String> {
        let boot = ServerProc::boot(
            self.server_bin,
            self.w.strategy,
            &self.queries,
            self.placement,
        )?;
        self.register_ms.push(boot.register_ms_per_query);
        Ok(boot)
    }

    fn paced(&mut self, traced: bool) -> Result<Paced, String> {
        let server = self.boot()?.server;
        let out = legs::paced_leg(&server, &self.input, self.schedule, traced)?;
        self.ops
            .frames("paced leg", self.input.len() as u64, out.events_counted);
        let score = replay::score_probe(&self.reference, &out.delivered, self.schedule);
        self.ops.attempted += score.expected;
        self.ops.failed += score.failed;
        self.ops.notes.extend(score.notes.iter().cloned());
        // The tenants nobody polled during the leg: the tail each retained
        // must be the replay's tail, element for element.
        for (q, want) in self.reference.tails.iter().enumerate() {
            let got = server.poll_results(q + 1)?;
            let wrong = replay::sequence_mismatches(&got, want);
            self.ops.attempted += want.len() as u64;
            if wrong > 0 {
                self.ops.failed += wrong;
                self.ops.notes.push(format!(
                    "query {}: {wrong} tail results differ from the replay",
                    q + 1
                ));
            }
        }
        if out.results_counted != self.reference.results_total {
            self.ops.failed += 1;
            self.ops.notes.push(format!(
                "/stats counted {} results, the replay {}",
                out.results_counted, self.reference.results_total
            ));
        }
        Ok(Paced { out, score })
    }

    fn saturate(&mut self, count: usize) -> Result<legs::SaturateOut, String> {
        let server = self.boot()?.server;
        let out = legs::saturate_leg(&server, &self.input, count)?;
        self.ops
            .frames("saturate leg", out.sent, out.events_counted);
        Ok(out)
    }

    /// `setup_s`: boot and stop servers with nothing in between, at least
    /// [`SETUP_BOOTS_MIN`] times and until [`SETUP_BOOTS_MAX`] boots or
    /// [`SETUP_BUDGET_S`]. The legs' own boots are not in the sample: a boot
    /// that directly follows heavy allocation in this process (the reference
    /// work, scoring) takes 15–20 ms longer to bind its listeners, for
    /// reasons outside the daemon.
    fn setup_boots(&mut self) -> Result<Vec<f64>, String> {
        let t0 = Instant::now();
        let mut setup_s = Vec::new();
        while setup_s.len() < SETUP_BOOTS_MIN
            || (setup_s.len() < SETUP_BOOTS_MAX && t0.elapsed().as_secs_f64() < SETUP_BUDGET_S)
        {
            setup_s.push(self.boot()?.setup_s);
        }
        Ok(setup_s)
    }
}

/// The untraced run: the saturate repeats, then the paced leg; end-to-end
/// metrics only. Saturate goes first: a saturate leg that directly follows a
/// paced leg runs a quarter slower on this host (measured, cause unknown),
/// and the paced leg, at a quarter of capacity, does not care what ran
/// before it.
fn end_to_end(run: &mut Run, saturate_count: usize, repeats: usize) -> Result<MetricSet, String> {
    let mut saturates = Vec::new();
    // Timed on the daemon's core, between its runs.
    let placement = run.placement;
    let mut reference_s = vec![placement.on_server_cpu(legs::reference_work_s)];
    for _ in 0..repeats {
        saturates.push(run.saturate(saturate_count)?);
        reference_s.push(placement.on_server_cpu(legs::reference_work_s));
    }
    let host_speed =
        REFERENCE_NOMINAL_S / reference_s.iter().copied().fold(f64::INFINITY, f64::min);
    let paced = run.paced(false)?;
    let setup_s = run.setup_boots()?;
    let ingest: Vec<f64> = saturates
        .iter()
        .map(legs::SaturateOut::events_per_s)
        .collect();
    let rss: Vec<f64> = saturates.iter().map(|s| s.peak_rss_mb).collect();
    let wall = paced.result_wall_ms();
    let (p50, _, _) = p50_p99(&wall);
    // Validity of the leg itself: said aloud, not scored as an operation.
    let (_, late_p99, _) = p50_p99(&paced.out.late_ms);
    if late_p99 >= 5.0 {
        eprintln!("WARNING: the generator ran late (p99 {late_p99:.1} ms): latencies include it");
    }
    if wall.len() < 1000 && repeats == SATURATE_REPEATS {
        eprintln!("WARNING: only {} latency samples (1000 wanted)", wall.len());
    }
    let mut set = MetricSet::default();
    set.put_noted(
        "setup_s",
        stats::median(&setup_s),
        format!("median of {} boots", setup_s.len()),
    );
    let best = ingest.iter().copied().fold(0.0, f64::max);
    set.put_noted(
        "ingest_events_per_s",
        best / host_speed,
        format!(
            "best of {repeats} x {saturate_count} events, {best:.0} as timed ({}), host at best {host_speed:.2} of reference speed",
            ingest
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
    );
    set.put_noted("result_wall_p50_ms", p50, format!("{} samples", wall.len()));
    set.put_noted(
        "quality_met_ratio",
        paced.score.quality_met_ratio,
        format!("{} oracle windows", paced.score.oracle_windows),
    );
    set.put("completeness_mean", paced.score.completeness_mean);
    set.put("peak_rss_mb", stats::median(&rss));
    Ok(set)
}

/// The traced run: an untraced and a traced paced leg (their difference is
/// the tracing overhead), one saturate repeat, and the isolated layer
/// passes; per-layer metrics only, plus the Chrome trace.
fn per_layer(run: &mut Run, args: &Args) -> Result<MetricSet, String> {
    // The whole stream, so that it compares with the replay's push time.
    let saturate = run.saturate(run.input.len())?;
    let untraced = run.paced(false)?;
    let mut traced = run.paced(true)?;
    let mut spans = std::mem::take(&mut traced.out.spans);
    let leg_s = run.input.len() as f64 / run.schedule.rate;
    // The passes measure the library's own parallelism: all cores again.
    run.placement.unpin_harness();
    let mut layer_spans = trace::Spans::new(true);
    let layers = layers::run(run.w, &run.input, &mut layer_spans, Instant::now());
    // The passes ran their own clock: lay them after the leg.
    spans.absorb(layer_spans.shifted(leg_s + 1.0));

    let w = run.w;
    let n = run.input.len() as f64;
    let mut set = MetricSet::default();
    let resolved = |set: &mut MetricSet, name: &str, a: Measured, b: Measured, scale: f64| {
        let raw = (a.median - b.median) * scale;
        match stats::resolved_diff(a, b) {
            Some(_) => set.put(name, raw),
            None => set.put_noted(
                name,
                raw,
                format!(
                    "unresolved: below 2 x MAD = {:.3}",
                    2.0 * a.mad.max(b.mad) * scale
                ),
            ),
        }
    };

    // serve::wire, serve::client
    set.put("wire.decode_text_ns_per_event", layers.decode_text.median);
    set.put("wire.decode_qbin_ns_per_event", layers.decode_qbin.median);
    set.put("wire.bytes_per_event", run.input.bytes.len() as f64 / n);
    set.put("client.send_ns_per_frame", layers.client_send.median);

    // serve::server
    let decode = if w.binary {
        layers.decode_qbin
    } else {
        layers.decode_text
    };
    let saturate_ns = saturate.elapsed_s * 1e9 / saturate.events_counted.max(1) as f64;
    // The replay's whole-stream push time is the comparable one; the
    // isolated pass covers a prefix, before window state has filled.
    let push = run.reference.push_stream_ns;
    let shell = (saturate_ns - decode.median - push).max(0.0);
    let sum_ratio = (decode.median + push + shell) / saturate_ns;
    set.put("server.saturate_ns_per_event", saturate_ns);
    set.put_noted(
        "server.shell_ns_per_event",
        shell,
        format!(
            "decode {:.0} % + session.push {:.0} % + shell {:.0} % of saturate",
            decode.median / saturate_ns * 100.0,
            push / saturate_ns * 100.0,
            shell / saturate_ns * 100.0
        ),
    );
    set.put_noted(
        "bench.layer_sum_ratio",
        sum_ratio,
        if sum_ratio > 1.15 {
            "decode + session.push exceed wall time per event: the reader and core threads overlap them".into()
        } else if shell / saturate_ns > 0.5 {
            "the shell (queue, lock, syscalls) is the largest and only unattributed share".into()
        } else {
            String::new()
        },
    );
    let mut depth = traced.out.queue_depth.clone();
    stats::sort(&mut depth);
    set.put("server.queue_depth_p50", stats::percentile(&depth, 0.5));
    set.put(
        "server.queue_depth_max",
        depth.last().copied().unwrap_or(0.0),
    );
    let (_, lag_p99, lag_note) = p50_p99(&traced.out.ingest_lag);
    let half = traced.out.ingest_lag.len() / 2;
    set.put_noted(
        "server.ingest_lag_events_p99",
        lag_p99,
        format!(
            "{lag_note}; median {:.0} in the first half of the leg, {:.0} in the second",
            stats::median(&traced.out.ingest_lag[..half]),
            stats::median(&traced.out.ingest_lag[half..])
        ),
    );
    let deliver: Vec<f64> = traced
        .score
        .samples
        .iter()
        .map(|s| ms(s.deliver_s))
        .collect();
    let (p50, p99, note) = p50_p99(&deliver);
    set.put("server.deliver_p50_ms", p50);
    set.put_noted("server.deliver_p99_ms", p99, note);

    // serve::http
    let (p50, p99, note) = p50_p99(&traced.out.poll_rtt_ms);
    set.put("http.poll_rtt_p50_ms", p50);
    set.put_noted("http.poll_rtt_p99_ms", p99, note);
    set.put(
        "http.results_per_poll",
        traced.out.delivered.len() as f64 / traced.out.poll_rtt_ms.len().max(1) as f64,
    );
    set.put(
        "http.register_ms_per_query",
        stats::median(&run.register_ms),
    );

    // core::buffer + core::strategy
    set.put("buffer.stage_ns_per_event", layers.stage.median);
    set.put("buffer.peak_buffered", layers.peak_buffered as f64);
    set.put("buffer.late_passed_ratio", layers.late_passed_ratio);

    // core::aq — K and the paper's event-time latency, from the replay.
    let k: Vec<f64> = run.reference.k_after.iter().map(|&k| k as f64).collect();
    let mut k_sorted = k.clone();
    stats::sort(&mut k_sorted);
    set.put("aq.k_mean", stats::mean(&k));
    set.put("aq.k_p99", stats::percentile(&k_sorted, 0.99));
    set.put(
        "aq.k_changes",
        k.windows(2).filter(|p| p[0] != p[1]).count() as f64,
    );
    let event_latency: Vec<f64> = run
        .reference
        .probe
        .iter()
        .filter(|e| e.trigger != AT_FLUSH)
        .map(|e| {
            let clock = run.reference.clock_after[e.trigger as usize];
            clock.saturating_sub(e.result.window.end.raw()) as f64
        })
        .collect();
    let (p50, p99, note) = p50_p99(&event_latency);
    set.put("aq.event_latency_p50", p50);
    set.put_noted("aq.event_latency_p99", p99, note);
    let k_wait: Vec<f64> = traced
        .score
        .samples
        .iter()
        .map(|s| ms(s.k_wait_s))
        .collect();
    let (p50, p99, note) = p50_p99(&k_wait);
    set.put("aq.k_wait_p50_ms", p50);
    set.put_noted("aq.k_wait_p99_ms", p99, note);

    // core::session
    set.put_noted(
        "session.push_ns_per_event",
        layers.push_served.median,
        format!("first {} events", w.layer_events.min(run.input.len())),
    );
    set.put_noted(
        "session.push_stream_ns_per_event",
        push,
        format!("all {} events, one pass", run.input.len()),
    );
    resolved(
        &mut set,
        "session.fanout_ns_per_query_event",
        layers.push_served,
        Measured {
            median: layers.stage.median + layers.window_total.median,
            mad: layers.stage.mad.max(layers.window_total.mad),
        },
        1.0 / w.queries as f64,
    );
    set.put("session.results_per_event", layers.results_per_event);
    set.put(
        "session.overflow_dropped",
        run.reference.overflow_dropped as f64,
    );

    // engine::operator::window_op + engine::fiba + engine::aggregate
    set.put("window.fold_ns_per_event", layers.fold.median);
    set.put("window.emit_ns_per_result", layers.emit.median);
    set.put("window.late_dropped", run.reference.late_dropped as f64);
    set.put("window.open_windows_max", layers.open_windows_max as f64);

    // core::runner + engine::parallel
    set.put("runner.execute_seq_ns_per_event", layers.exec_seq.median);
    set.put(
        "parallel.execute_1shard_ns_per_event",
        layers.exec_one_shard.median,
    );
    set.put(
        "parallel.execute_cores_ns_per_event",
        layers.exec_all_cores.median,
    );
    set.put_noted(
        "parallel.per_core_efficiency",
        layers.exec_one_shard.median / layers.exec_all_cores.median / layers.cpus as f64,
        format!("1 shard vs {} shards on {} cores", layers.cpus, layers.cpus),
    );
    set.put("host.cpus", layers.cpus as f64);
    let reference_ms: Vec<f64> = (0..3).map(|_| ms(legs::reference_work_s())).collect();
    set.put_noted(
        "host.reference_ms",
        stats::median(&reference_ms),
        format!(
            "median of 3; the best of a run is {:.0} on the calibration host at its usual speed",
            ms(REFERENCE_NOMINAL_S)
        ),
    );

    // telemetry
    resolved(
        &mut set,
        "telemetry.on_cost_ns_per_event",
        layers.push_served,
        layers.push_bare,
        1.0,
    );

    // the benchmark itself
    set.put("bench.prepare_s", run.prepare_s);
    let (_, late_p99, note) = p50_p99(&traced.out.late_ms);
    set.put_noted("bench.gen_late_p99_ms", late_p99, note);
    set.put("bench.sender_busy_ratio", traced.out.sender_busy_ratio);
    let (wall_traced, wall_untraced) = (traced.result_wall_ms(), untraced.result_wall_ms());
    let base = stats::median(&wall_untraced);
    resolved(
        &mut set,
        "bench.trace_overhead_pct",
        median_of_parts(&wall_traced),
        median_of_parts(&wall_untraced),
        100.0 / base,
    );
    let (p50, p99, note) = p50_p99(&wall_traced);
    set.put("bench.result_wall_samples", wall_traced.len() as f64);
    set.put("server.result_wall_p50_ms", p50);
    set.put_noted("server.result_wall_p99_ms", p99, note);

    // One `window.result` record per result: closable → polled, with the
    // trigger instant that splits it into K wait and delivery.
    for s in &traced.score.samples {
        let e = &run.reference.probe[s.expected];
        let (t_closable, t_trigger) = (
            run.schedule.due_s(e.closable),
            run.schedule.due_s(e.trigger),
        );
        spans.record(
            "window.result",
            trace::LANE_RESULTS,
            t_closable,
            s.polled_s,
            format!(
                "\"key\":\"{}\",\"window_end\":{},\"t_closable\":{},\"t_trigger\":{},\"t_polled\":{}",
                replay::key_label(&e.result.key),
                e.result.window.end.raw(),
                json::num(t_closable),
                json::num(t_trigger),
                json::num(s.polled_s)
            ),
        );
    }
    set.put("bench.spans_recorded", spans.len() as f64);
    let path = args.out_dir.join(format!("trace_{}.json", w.name));
    spans
        .write_chrome(&path, &format!("quill-e2e {}", w.name))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok(set)
}

/// Length of the paced leg, which is also the length of the stream.
fn paced_seconds(seconds: f64, quick: bool, traced_run: bool) -> f64 {
    if quick {
        QUICK_PACED_S
    } else if traced_run {
        seconds * TRACED_PACED_SHARE
    } else {
        seconds * PACED_SHARE
    }
}

fn digest_key(traced_run: bool) -> &'static str {
    if traced_run {
        "traced"
    } else {
        "untraced"
    }
}

/// `--digests`: print `digests.json` for the current generator.
fn print_digests() {
    let rows: Vec<String> = workloads::WORKLOADS
        .iter()
        .map(|w| {
            let of = |traced_run: bool| {
                let paced_s = paced_seconds(DEFAULT_SECONDS, false, traced_run);
                let n = (w.paced_rate as f64 * paced_s) as usize;
                let digest = workloads::encode(&w.generate(1, n), w.binary).digest;
                format!("\"{}\": \"{digest:016x}\"", digest_key(traced_run))
            };
            format!("  \"{}\": {{{}, {}}}", w.name, of(false), of(true))
        })
        .collect();
    println!("{{\n{}\n}}", rows.join(",\n"));
}

fn run_workload(w: &Workload, args: &Args, traced_run: bool) -> Result<Record, String> {
    let paced_s = paced_seconds(args.seconds, args.quick, traced_run);
    // The daemon gets the first core, this process and its threads the rest.
    args.placement.pin_harness();
    let mut run = Run::prepare(w, args, paced_s);
    let digest = format!("{:016x}", run.input.digest);
    if args.seed == 1 && args.seconds == DEFAULT_SECONDS && !args.quick {
        let pinned = json::Json::parse(PINNED_DIGESTS)?;
        let want = pinned
            .get(w.name)
            .and_then(|d| d.get(digest_key(traced_run)))
            .and_then(json::Json::as_str);
        if want != Some(digest.as_str()) {
            run.ops.failed += 1;
            run.ops.notes.push(format!(
                "input digest {digest} differs from the pinned {want:?}: the generator changed"
            ));
        }
    }
    // The saturate legs send a fixed count (a prefix of the same stream),
    // however fast the code under test is.
    let saturate_s = args.seconds * (1.0 - PACED_SHARE) / SATURATE_REPEATS as f64;
    let saturate_count = ((w.saturate_rate as f64 * saturate_s) as usize).min(run.input.len());
    let metrics = if traced_run {
        per_layer(&mut run, args)?.in_order(&PER_LAYER)
    } else {
        let repeats = if args.quick { 1 } else { SATURATE_REPEATS };
        end_to_end(&mut run, saturate_count, repeats)?.in_order(&END_TO_END)
    };
    for note in run.ops.notes.iter().take(12) {
        eprintln!("FAILED OPERATION: {note}");
    }
    Ok(Record {
        workload: w.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: traced_run,
        correct: run.ops.failed == 0,
        attempted: run.ops.attempted,
        failed: run.ops.failed,
        digest,
        metrics,
    })
}

fn main() {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        let sets = compare::load(a).and_then(|a| Ok((a, compare::load(b)?)));
        match sets {
            Ok((a, b)) => std::process::exit(i32::from(!compare::compare(&a, &b))),
            Err(e) => {
                eprintln!("quill-e2e: {e}");
                std::process::exit(2);
            }
        }
    }
    if args.digests {
        print_digests();
        return;
    }
    if !args.server_bin.is_file() {
        usage("--server-bin must name the built quill-serve binary (run.sh passes it)");
    }
    if args.quick {
        println!("QUICK — not comparable");
    }

    // Driver mode: one workload, one run, the result line last.
    if let Some(name) = &args.workload {
        let w = workloads::by_name(name)
            .unwrap_or_else(|| usage(&format!("unknown workload `{name}`")));
        match run_workload(w, &args, args.trace) {
            Ok(record) => {
                record.print_table();
                append(&args, &record);
                println!("{}", record.contract_line());
                std::process::exit(i32::from(!record.correct));
            }
            Err(e) => {
                eprintln!("quill-e2e: {name}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Every workload, every metric.
    let mut clean = true;
    for w in &workloads::WORKLOADS {
        for traced_run in [false, true] {
            if traced_run && !args.trace {
                continue;
            }
            match run_workload(w, &args, traced_run) {
                Ok(record) => {
                    println!("# {}: {}", w.name, w.why);
                    record.print_table();
                    append(&args, &record);
                    clean &= record.correct;
                }
                Err(e) => {
                    eprintln!("quill-e2e: {}: {e}", w.name);
                    clean = false;
                }
            }
        }
    }
    if args.quick {
        println!("QUICK — not comparable");
    }
    std::process::exit(i32::from(!clean));
}

/// Append the record to the `--out` result file. A `--quick` run is not
/// comparable and never writes one.
fn append(args: &Args, record: &Record) {
    let Some(path) = args.out.as_ref().filter(|_| !args.quick) else {
        return;
    };
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", record.file_line()));
    if let Err(e) = written {
        eprintln!("quill-e2e: {}: {e}", path.display());
        std::process::exit(2);
    }
}
