//! The four workloads: what each sends, to which queries, and why.
//!
//! Names are fixed — later issues cite them. Rates and counts are constants
//! calibrated once on the seed commit (see README.md, "Calibration") and
//! never tuned at run time. Event-time unit = 1 ms, so in the paced leg event
//! time runs at 1x wall time and K is a wall-clock wait.

use quill_engine::prelude::{Event, FieldType, Row, Schema, Timestamp, Value};
use quill_gen::mutate::{DeepStraggler, KeySkew};
use quill_gen::{
    apply_all, delay_and_shuffle, merge_sources, DelayModel, Exponential, MarkovBurst, Mutator,
    Pareto, UniformDelay,
};
use quill_serve::wire::{self, Frame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The shape of a workload's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stream {
    /// One source, uniform 0–20 delay: near in-order.
    NearInOrder,
    /// Four merged sources, exponential(60) delays under Markov-modulated
    /// heavy-tail bursts.
    BurstyMerged,
    /// One source, exponential(60) delays, a hot key, and 15 % of events
    /// rewritten 1 000–3 000 behind the clock.
    DeepStragglers,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `quill-serve --strategy` value.
    pub strategy: &'static str,
    /// QBIN frames (`true`) or text lines (`false`).
    pub binary: bool,
    pub keys: i64,
    /// DSL of the probe (query 0): the query whose results are polled,
    /// timed and scored.
    pub probe: &'static str,
    /// Registered queries, the probe included; the others are the tenants
    /// of [`FANOUT_SHAPES`].
    pub queries: usize,
    /// Paced-leg send rate, events per second: 22–42 % of what the seed
    /// commit sustains over the whole stream, so no backlog grows.
    pub paced_rate: u64,
    /// Sizes the saturate leg: each repeat sends `saturate_rate × budget`
    /// events (budget = 8 % of `--seconds`), however fast the code under
    /// test is; chosen so that a repeat takes 1–1.3 s on the seed commit.
    pub saturate_rate: u64,
    /// Events per isolated layer pass in the traced run.
    pub layer_events: usize,
    stream: Stream,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_inorder_1q",
        why: "text wire, fixed:50, one combinable tumbling query on a near in-order stream: per-event shell cost (parse, hand-off, lock, gauges) is nearly all the work; fold or AQ changes must show nothing here",
        strategy: "fixed:50",
        binary: false,
        keys: 16,
        // 100-unit windows, not 1 000: a 12 s paced leg must close
        // enough windows for 1 000 latency samples at distinct instants.
        probe: "tumbling:100;sum:0:total,count:0:n;key=1",
        queries: 1,
        paced_rate: 100_000,
        saturate_rate: 250_000,
        layer_events: 32_768,
        stream: Stream::NearInOrder,
    },
    Workload {
        name: "aq_disorder_1q",
        why: "QBIN, aq:0.95, one sliding query over 4 merged bursty sources: deep slack buffer, estimator and PI controller on every event; the only 1-query workload where K moves quality and latency",
        strategy: "aq:0.95",
        binary: true,
        keys: 64,
        probe: "sliding:1000:250;mean:0:m,max:0:hi;key=1;completeness=0.95",
        queries: 1,
        paced_rate: 50_000,
        saturate_rate: 150_000,
        layer_events: 32_768,
        stream: Stream::BurstyMerged,
    },
    Workload {
        name: "fanout_100q",
        why: "QBIN, aq:0.95, 100 registered queries: wire and buffer are paid once but session fan-out, fold and delivery x100, which is what a sharded Session must speed up; setup carries 100 HTTP registrations",
        strategy: "aq:0.95",
        binary: true,
        keys: 32,
        // The probe keeps the default result capacity: the final flush
        // emits more than 64 results at once and the probe must lose none.
        // The other 99 retain a 64-result tail.
        probe: "sliding:1000:250;mean:0:m;key=1",
        queries: 100,
        paced_rate: 1_200,
        saturate_rate: 3_000,
        layer_events: 2_048,
        stream: Stream::BurstyMerged,
    },
    Workload {
        name: "orderstat_straggler_1q",
        why: "QBIN, fixed:100, median/q0.9 over 10 s sliding windows, 15 % deep stragglers: out-of-order inserts into open windows and per-window rank trees, the opposite use of window state from aq_disorder_1q",
        strategy: "fixed:100",
        binary: true,
        keys: 32,
        probe: "sliding:10000:250;median:0:med,q0.9:0:p90;key=1",
        queries: 1,
        paced_rate: 4_000,
        saturate_rate: 10_500,
        layer_events: 2_048,
        stream: Stream::DeepStragglers,
    },
];

/// Event time of the first event. The stream starts mid-flight, as it does
/// for a query registered on a running daemon: sliding windows close from
/// the first slide on (the earliest ones partially filled, in the oracle
/// too), not only after one full window length.
pub const TS_ORIGIN: u64 = 100_000;

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The four tenant shapes of the serve soak, which `fanout_100q` rotates
/// through with rotating completeness targets.
const FANOUT_SHAPES: [&str; 4] = [
    "tumbling:1000;sum:0:total;key=1",
    "tumbling:500;count:0:n,max:0:peak",
    "sliding:2000:500;mean:0:mean",
    "tumbling:2000;min:0:lo,max:0:hi;key=1",
];
const FANOUT_TARGETS: [f64; 3] = [0.9, 0.95, 0.99];

impl Workload {
    /// Query DSL strings in registration order; index 0 is the probe.
    pub fn query_dsls(&self) -> Vec<String> {
        let tenants = (1..self.queries).map(|i| {
            format!(
                "{};completeness={};capacity=64",
                FANOUT_SHAPES[i % FANOUT_SHAPES.len()],
                FANOUT_TARGETS[i % FANOUT_TARGETS.len()]
            )
        });
        std::iter::once(self.probe.to_string())
            .chain(tenants)
            .collect()
    }

    /// Generate `n` events in arrival order from `seed`.
    pub fn generate(&self, seed: u64, n: usize) -> Vec<Event> {
        let schema =
            Schema::new([("v", FieldType::Float), ("k", FieldType::Int)]).expect("static schema");
        // A source emitting `rate` events per 1 000 time units.
        let source = |rng: &mut StdRng, n: usize, rate: u64| -> Vec<(Timestamp, Row)> {
            (0..n as u64)
                .map(|i| {
                    let z: f64 = rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>();
                    let v = ((100.0 + 20.0 * (z - 1.5)) * 100.0).round() / 100.0;
                    let k = rng.gen_range(0..self.keys);
                    let row = Row::new([Value::Float(v), Value::Int(k)]);
                    (Timestamp(i * 1000 / rate), row)
                })
                .collect()
        };
        let rng_for = |salt: u64| {
            StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt ^ fnv(self.name.as_bytes()),
            )
        };
        let mut events = match self.stream {
            Stream::NearInOrder => {
                let mut rng = rng_for(0);
                let events = source(&mut rng, n, self.paced_rate);
                let mut delay = UniformDelay { lo: 0, hi: 20 };
                delay_and_shuffle(schema, events, &mut delay, &mut rng, self.name).events
            }
            Stream::BurstyMerged => {
                const SOURCES: usize = 4;
                let per = n.div_ceil(SOURCES);
                let streams = (0..SOURCES)
                    .map(|s| {
                        let mut rng = rng_for(1 + s as u64);
                        let events = source(&mut rng, per, self.paced_rate / SOURCES as u64);
                        // Bursts are timed, not counted: one starts every
                        // ~400 time units per source and lasts ~40, whatever
                        // the rate, so a leg sees over a hundred of them and
                        // quality and K average out across seeds.
                        let per_unit = self.paced_rate as f64 / SOURCES as f64 / 1000.0;
                        let mut delay: Box<dyn DelayModel> = Box::new(MarkovBurst::new(
                            Box::new(Exponential { mean: 60.0 }),
                            Box::new(Pareto {
                                scale: 300.0,
                                shape: 2.5,
                            }),
                            1.0 / (400.0 * per_unit),
                            1.0 / (40.0 * per_unit),
                        ));
                        delay_and_shuffle(
                            schema.clone(),
                            events,
                            delay.as_mut(),
                            &mut rng,
                            self.name,
                        )
                    })
                    .collect();
                let mut events = merge_sources(schema, streams).events;
                events.truncate(n);
                events
            }
            Stream::DeepStragglers => {
                let mut rng = rng_for(0);
                let events = source(&mut rng, n, self.paced_rate);
                let mut delay = Exponential { mean: 60.0 };
                let mut events =
                    delay_and_shuffle(schema, events, &mut delay, &mut rng, self.name).events;
                // 15 % of events land 1 000–3 000 behind the clock: past
                // K = 100, forwarded out of order, still inside 10 000-unit
                // windows. Fractions are chosen so mean completeness stays
                // near 0.97, clear of the 0.95 scoring threshold (a workload
                // straddling it would score anywhere from 0 to 1 by seed).
                let mutators: Vec<Box<dyn Mutator>> = vec![
                    Box::new(KeySkew {
                        field: 1,
                        hot_key: 0,
                        fraction: 0.25,
                    }),
                    Box::new(DeepStraggler {
                        depth: 1000,
                        fraction: 0.12,
                    }),
                    Box::new(DeepStraggler {
                        depth: 2000,
                        fraction: 0.03,
                    }),
                ];
                apply_all(&mut events, &mutators, &mut rng);
                events
            }
        };
        for e in &mut events {
            e.ts = Timestamp(e.ts.raw() + TS_ORIGIN);
        }
        events
    }
}

/// FNV-1a, 64 bit.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A workload's input, encoded before any timed region. The server only
/// ever sees `bytes`; `events` is `bytes` decoded back through
/// `quill_serve::wire`, so the in-process replay and the oracle read exactly
/// what the daemon reads.
pub struct Input {
    pub binary: bool,
    pub bytes: Vec<u8>,
    /// Frame `i` occupies `bytes[offsets[i]..offsets[i + 1]]`.
    pub offsets: Vec<usize>,
    pub events: Vec<Event>,
    /// FNV-1a of `bytes`.
    pub digest: u64,
}

impl Input {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i]..self.offsets[i + 1]]
    }
}

pub fn frame_of(e: &Event) -> Frame {
    Frame::Data {
        ts: e.ts,
        values: e.row.values().to_vec(),
    }
}

/// Encode events with `wire::to_line` / `wire::encode_frame` and decode them
/// back.
pub fn encode(events: &[Event], binary: bool) -> Input {
    let mut bytes = Vec::with_capacity(events.len() * 32);
    let mut offsets = Vec::with_capacity(events.len() + 1);
    for e in events {
        offsets.push(bytes.len());
        let frame = frame_of(e);
        if binary {
            bytes.extend_from_slice(&wire::encode_frame(&frame));
        } else {
            bytes.extend_from_slice(wire::to_line(&frame).as_bytes());
            bytes.push(b'\n');
        }
    }
    offsets.push(bytes.len());
    let mut input = Input {
        binary,
        digest: fnv(&bytes),
        bytes,
        offsets,
        events: Vec::new(),
    };
    input.events = (0..events.len())
        .map(|i| {
            let raw = input.frame(i);
            let frame = if binary {
                wire::decode_payload(&raw[4..]).expect("own frame decodes")
            } else {
                let line = std::str::from_utf8(raw).expect("own line is utf-8");
                wire::parse_line(line)
                    .expect("own line parses")
                    .expect("own line is a frame")
            };
            match frame {
                Frame::Data { ts, values } => {
                    Event::new(ts, i as u64, wire::row_from_values(values))
                }
                Frame::Heartbeat { .. } => unreachable!("workloads send no heartbeats"),
            }
        })
        .collect();
    input
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_determines_the_bytes() {
        for w in &WORKLOADS {
            let a = encode(&w.generate(1, 4000), w.binary);
            let b = encode(&w.generate(1, 4000), w.binary);
            let c = encode(&w.generate(2, 4000), w.binary);
            assert_eq!(a.digest, b.digest, "{}", w.name);
            assert_ne!(a.digest, c.digest, "{}", w.name);
            assert_eq!(a.len(), 4000, "{}", w.name);
        }
    }

    #[test]
    fn decoded_events_equal_generated_events() {
        for w in &WORKLOADS {
            let generated = w.generate(7, 2000);
            let input = encode(&generated, w.binary);
            for (i, (g, d)) in generated.iter().zip(&input.events).enumerate() {
                assert_eq!(g.ts, d.ts, "{} event {i}", w.name);
                assert_eq!(g.row, d.row, "{} event {i}", w.name);
                assert_eq!(d.seq, i as u64);
            }
        }
    }

    #[test]
    fn fanout_registers_one_probe_and_99_tenants() {
        let w = by_name("fanout_100q").unwrap();
        let dsls = w.query_dsls();
        assert_eq!(dsls.len(), 100);
        assert!(!dsls[0].contains("capacity"));
        assert!(dsls[1..].iter().all(|d| d.ends_with("capacity=64")));
        for d in &dsls {
            quill_serve::config::parse_query(d).unwrap();
        }
    }

    #[test]
    fn straggler_stream_has_deep_stragglers() {
        let w = by_name("orderstat_straggler_1q").unwrap();
        let events = w.generate(3, 40_000);
        let mut clock = 0u64;
        let mut deep = 0usize;
        for e in &events {
            if clock.saturating_sub(e.ts.raw()) >= 1000 {
                deep += 1;
            }
            clock = clock.max(e.ts.raw());
        }
        let share = deep as f64 / events.len() as f64;
        assert!((0.10..0.18).contains(&share), "deep share {share}");
    }
}
