//! The two measured legs, each on a freshly booted server.
//!
//! * **paced** — open loop: one sender thread writes pre-encoded frames on a
//!   fixed-rate schedule whatever the server does, one poller thread GETs
//!   the probe's results in a closed loop with a 2 ms think time. Latencies are taken from each
//!   frame's *due* time, so a generator stall counts against the results it
//!   delayed, and the generator's lateness is reported.
//! * **saturate** — closed loop on TCP backpressure: a fixed number of
//!   events is written as fast as the socket accepts; the clock stops when
//!   `/stats` has counted them all and `POST /finish` has drained.

use crate::replay::{Delivered, Schedule};
use crate::server::{self, ServerProc};
use crate::trace::{Spans, LANE_POLLER, LANE_SENDER};
use crate::workloads::Input;
use quill_serve::wire::BINARY_MAGIC;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The poller's think time between one reply and the next request. Without
/// it the loop spins a core of a two-core host on both sides of the socket
/// and races the daemon's accept loop (which sleeps 5 ms when it finds no
/// connection pending), making poll latency bimodal.
const POLL_THINK: Duration = Duration::from_millis(2);
/// How often the poller also samples `/metrics` and `/stats`.
const SAMPLE_EVERY: Duration = Duration::from_millis(250);
/// Sender wake-up period: frames due within one tick go out in one write.
const TICK: Duration = Duration::from_millis(1);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// One write of the paced sender: frames `from..to`, started `write_s` into
/// the leg.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    pub write_s: f64,
    pub frames: Range<usize>,
}

/// Open-loop due-time bookkeeping, separate from the socket so it can be
/// driven by an injected clock.
#[derive(Debug)]
pub struct Pacer {
    schedule: Schedule,
    n: usize,
    sent: usize,
    pub chunks: Vec<Chunk>,
}

impl Pacer {
    pub fn new(schedule: Schedule, n: usize) -> Pacer {
        Pacer {
            schedule,
            n,
            sent: 0,
            chunks: Vec::new(),
        }
    }

    pub fn done(&self) -> bool {
        self.sent == self.n
    }

    /// The frames that are due and unsent at `now_s`; the caller writes
    /// them. Nothing is ever skipped: after a stall, everything that fell
    /// due meanwhile goes out at once, late.
    pub fn take_due(&mut self, now_s: f64) -> Option<Range<usize>> {
        let due = self.schedule.frames_due(now_s, self.n);
        if due <= self.sent {
            return None;
        }
        let frames = self.sent..due;
        self.chunks.push(Chunk {
            write_s: now_s,
            frames: frames.clone(),
        });
        self.sent = due;
        Some(frames)
    }

    /// Seconds until the next unsent frame falls due.
    pub fn next_due_in(&self, now_s: f64) -> f64 {
        (self.schedule.due_s(self.sent as u32) - now_s).max(0.0)
    }

    /// Per frame, how long after its due time its write started, in
    /// milliseconds.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.chunks
            .iter()
            .flat_map(|c| {
                c.frames
                    .clone()
                    .map(|i| (c.write_s - self.schedule.due_s(i as u32)) * 1e3)
            })
            .collect()
    }
}

fn connect_ingest(addr: SocketAddr, binary: bool) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("ingest connect: {e}"))?;
    stream.set_nodelay(true).ok();
    if binary {
        stream
            .write_all(BINARY_MAGIC)
            .map_err(|e| format!("ingest preamble: {e}"))?;
    }
    Ok(stream)
}

struct SenderOut {
    pacer: Pacer,
    busy_s: f64,
    spans: Spans,
}

fn send_paced(
    mut stream: TcpStream,
    input: &Input,
    schedule: Schedule,
    origin: Instant,
    sent: &AtomicU64,
    traced: bool,
) -> Result<SenderOut, String> {
    let mut pacer = Pacer::new(schedule, input.len());
    let mut spans = Spans::new(traced);
    let mut busy_s = 0.0;
    while !pacer.done() {
        let now = origin.elapsed().as_secs_f64();
        if let Some(frames) = pacer.take_due(now) {
            let bytes = &input.bytes[input.offsets[frames.start]..input.offsets[frames.end]];
            stream
                .write_all(bytes)
                .map_err(|e| format!("paced write at frame {}: {e}", frames.start))?;
            let end = origin.elapsed().as_secs_f64();
            busy_s += end - now;
            sent.store(frames.end as u64, Ordering::Relaxed);
            if spans.enabled() {
                spans.record(
                    "client.write",
                    LANE_SENDER,
                    now,
                    end,
                    format!("\"frames\":{},\"bytes\":{}", frames.len(), bytes.len()),
                );
            }
        }
        let now = origin.elapsed().as_secs_f64();
        let wait = Duration::from_secs_f64(pacer.next_due_in(now)).max(TICK);
        if !pacer.done() {
            std::thread::sleep(wait);
        }
    }
    // Dropping the stream closes it: the daemon's reader sees EOF.
    Ok(SenderOut {
        pacer,
        busy_s,
        spans,
    })
}

#[derive(Default)]
struct PollerOut {
    delivered: Vec<Delivered>,
    rtt_ms: Vec<f64>,
    queue_depth: Vec<f64>,
    ingest_lag: Vec<f64>,
    spans: Spans,
    error: Option<String>,
}

fn poll_loop(
    http: SocketAddr,
    origin: Instant,
    stop: &AtomicBool,
    sent: &AtomicU64,
    traced: bool,
) -> PollerOut {
    let mut out = PollerOut {
        spans: Spans::new(traced),
        ..PollerOut::default()
    };
    let mut next_sample = SAMPLE_EVERY;
    let mut run = || -> Result<(), String> {
        while !stop.load(Ordering::Relaxed) {
            let t0 = origin.elapsed();
            let body = server::http(http, "GET", "/queries/0/results", "")?;
            let t1 = origin.elapsed().as_secs_f64();
            let results = server::parse_results(&body)?;
            out.rtt_ms.push((t1 - t0.as_secs_f64()) * 1e3);
            out.spans.record(
                "http.poll",
                LANE_POLLER,
                t0.as_secs_f64(),
                t1,
                format!("\"results\":{}", results.len()),
            );
            out.delivered
                .extend(results.into_iter().map(|result| Delivered {
                    result,
                    polled_s: t1,
                }));
            if t0 >= next_sample {
                next_sample = t0 + SAMPLE_EVERY;
                let sent_before = sent.load(Ordering::Relaxed);
                let stats = server::parse_stats(&server::http(http, "GET", "/stats", "")?)?;
                out.ingest_lag
                    .push(sent_before.saturating_sub(stats.events) as f64);
                let metrics = server::http(http, "GET", "/metrics", "")?;
                out.queue_depth.push(
                    server::prometheus_value(&metrics, "quill_executor_queue_depth")
                        .ok_or("/metrics lacks quill_executor_queue_depth")?,
                );
            }
            std::thread::sleep(POLL_THINK);
        }
        Ok(())
    };
    let outcome = run();
    out.error = outcome.err();
    out
}

/// What one paced leg observed.
pub struct PacedOut {
    /// Probe results in delivery order, the final flush included.
    pub delivered: Vec<Delivered>,
    /// Events `/stats` counted once the leg had drained.
    pub events_counted: u64,
    /// Results `/stats` counted across all queries.
    pub results_counted: u64,
    pub poll_rtt_ms: Vec<f64>,
    pub queue_depth: Vec<f64>,
    pub ingest_lag: Vec<f64>,
    /// Per-frame generator lateness, milliseconds.
    pub late_ms: Vec<f64>,
    /// Share of the leg the sender spent inside `write`.
    pub sender_busy_ratio: f64,
    pub spans: Spans,
}

/// Run the paced leg against `server`; the stream is `input` at
/// `schedule.rate` frames per second.
pub fn paced_leg(
    server: &ServerProc,
    input: &Input,
    schedule: Schedule,
    traced: bool,
) -> Result<PacedOut, String> {
    let stream = connect_ingest(server.ingest, input.binary)?;
    let stop = AtomicBool::new(false);
    let sent = AtomicU64::new(0);
    let n = input.len() as u64;
    let http = server.http;
    let origin = Instant::now();
    let (sender, drained, mut poller) = std::thread::scope(|s| {
        let sender = s.spawn(|| send_paced(stream, input, schedule, origin, &sent, traced));
        let poller = s.spawn(|| poll_loop(http, origin, &stop, &sent, traced));
        let sender = sender
            .join()
            .unwrap_or_else(|_| Err("sender thread panicked".into()));
        // The reader must have consumed every byte before the drain starts:
        // a finish request makes it stop at the next empty buffer.
        let drained = sender.as_ref().map_err(Clone::clone).and_then(|_| {
            server.wait_stats("all paced events counted", DRAIN_TIMEOUT, |st| {
                st.events >= n
            })?;
            server.post("/finish", "")?;
            server.wait_stats("session finished", DRAIN_TIMEOUT, |st| st.finished)
        });
        stop.store(true, Ordering::Relaxed);
        let poller = poller.join().unwrap_or_else(|_| PollerOut {
            error: Some("poller thread panicked".into()),
            ..PollerOut::default()
        });
        (sender, drained, poller)
    });
    let sender = sender?;
    let stats = drained?;
    if let Some(e) = poller.error {
        return Err(format!("poller: {e}"));
    }
    // Whatever the flush emitted after the poller's last round.
    let tail = server.poll_results(0)?;
    let polled_s = origin.elapsed().as_secs_f64();
    poller.delivered.extend(
        tail.into_iter()
            .map(|result| Delivered { result, polled_s }),
    );
    let leg_s = input.len() as f64 / schedule.rate;
    let mut spans = sender.spans;
    spans.absorb(poller.spans);
    Ok(PacedOut {
        delivered: poller.delivered,
        events_counted: stats.events,
        results_counted: stats.results,
        poll_rtt_ms: poller.rtt_ms,
        queue_depth: poller.queue_depth,
        ingest_lag: poller.ingest_lag,
        late_ms: sender.pacer.lateness_ms(),
        sender_busy_ratio: sender.busy_s / leg_s,
        spans,
    })
}

/// A fixed piece of CPU and memory work that uses none of the repository's
/// code: an ordered map of 300 000 separately allocated values, built from
/// and probed with pseudo-random keys (~25 MB, so it misses caches the way
/// window state does). Timed between the saturate legs, it tells a slow host
/// from slow code. Returns seconds.
pub fn reference_work_s() -> f64 {
    const KEYS: u64 = 300_000;
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = std::collections::BTreeMap::new();
    for i in 0..KEYS {
        map.insert(next() >> 20, vec![i as f64]);
    }
    let mut hits = 0u64;
    for _ in 0..KEYS {
        hits += u64::from(map.range(next() >> 20..).next().is_some());
    }
    std::hint::black_box((hits, map));
    t0.elapsed().as_secs_f64()
}

/// What one saturate repeat measured.
#[derive(Debug, Clone, Copy)]
pub struct SaturateOut {
    pub sent: u64,
    pub events_counted: u64,
    /// First byte written → all events counted and drain finished.
    pub elapsed_s: f64,
    pub peak_rss_mb: f64,
}

impl SaturateOut {
    pub fn events_per_s(&self) -> f64 {
        self.events_counted as f64 / self.elapsed_s
    }
}

/// Write the first `count` frames of `input` as fast as the socket accepts.
pub fn saturate_leg(
    server: &ServerProc,
    input: &Input,
    count: usize,
) -> Result<SaturateOut, String> {
    let count = count.min(input.len());
    let bytes = &input.bytes[..input.offsets[count]];
    let mut stream = connect_ingest(server.ingest, input.binary)?;
    let t0 = Instant::now();
    stream
        .write_all(bytes)
        .map_err(|e| format!("saturate write: {e}"))?;
    drop(stream);
    server.wait_stats("all saturate events counted", DRAIN_TIMEOUT, |st| {
        st.events >= count as u64
    })?;
    server.post("/finish", "")?;
    let stats = server.wait_stats("session finished", DRAIN_TIMEOUT, |st| st.finished)?;
    Ok(SaturateOut {
        sent: count as u64,
        events_counted: stats.events,
        elapsed_s: t0.elapsed().as_secs_f64(),
        peak_rss_mb: server.peak_rss_mb(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_time_bookkeeping_survives_an_injected_stall() {
        // 1 000 frames/s: frame i is due at i ms.
        let mut p = Pacer::new(Schedule { rate: 1000.0 }, 100);
        assert_eq!(p.take_due(0.0), Some(0..1));
        assert_eq!(p.take_due(0.0005), None, "frame 1 is not due yet");
        assert_eq!(p.take_due(0.0021), Some(1..3));
        // The sender stalls for 50 ms (a blocked write): everything that
        // fell due meanwhile goes out in one chunk, nothing is skipped.
        assert_eq!(p.take_due(0.0521), Some(3..53));
        assert_eq!(p.take_due(0.0530), Some(53..54));
        assert!((p.next_due_in(0.0530) - 0.001).abs() < 1e-9);
        assert_eq!(p.take_due(10.0), Some(54..100));
        assert!(p.done());
        assert_eq!(p.take_due(11.0), None);

        let late = p.lateness_ms();
        assert_eq!(late.len(), 100);
        assert!(late[0].abs() < 1e-9);
        // Frame 3 was due at 3 ms but written at 52.1 ms: its lateness is
        // measured from its due time, not from when the stall ended.
        assert!((late[3] - 49.1).abs() < 1e-6, "{}", late[3]);
        assert!((late[52] - 0.1).abs() < 1e-6, "{}", late[52]);
        assert!(late.iter().all(|&l| l >= -1e-9));
    }
}
