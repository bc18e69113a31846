//! The in-process reference: replay the encoded stream through a
//! `quill_core` `Session` configured like the daemon, attribute every probe
//! result to the frame that made it closable and the frame that triggered
//! it, and score what the daemon delivered against both the replay (element
//! for element) and the in-order oracle (quality).

use crate::workloads::{Input, Workload};
use quill_core::prelude::{QueryHandle, Session, WindowResult};
use quill_engine::prelude::{Event, Value};
use quill_metrics::quality_eval::oracle_results;
use quill_serve::config::parse_query;
use quill_serve::StrategySpec;
use quill_sim::oracle::values_close;
use quill_telemetry::span::DEFAULT_SPAN_CAPACITY;
use quill_telemetry::{Registry, SpanRecorder};
use std::collections::HashMap;
use std::time::Instant;

/// Frame index standing for "no frame": the window only closed at the final
/// flush, so it has no in-stream closable or trigger instant.
pub const AT_FLUSH: u32 = u32::MAX;

/// The open-loop send schedule: frame `i` is due `i / rate` seconds into
/// the leg, whatever the server does.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate: f64,
}

impl Schedule {
    pub fn due_s(&self, frame: u32) -> f64 {
        f64::from(frame) / self.rate
    }

    /// Number of frames due by `elapsed_s` (frame 0 is due at 0), capped
    /// at `n`.
    pub fn frames_due(&self, elapsed_s: f64, n: usize) -> usize {
        if elapsed_s < 0.0 {
            return 0;
        }
        (((elapsed_s * self.rate).floor() as usize).saturating_add(1)).min(n)
    }
}

/// For every frame, the running maximum timestamp up to and including it
/// (the stream clock after that arrival).
pub fn clock_after(events: &[Event]) -> Vec<u64> {
    let mut clock = 0u64;
    events
        .iter()
        .map(|e| {
            clock = clock.max(e.ts.raw());
            clock
        })
        .collect()
}

/// First frame with `ts >= window_end`: the instant a zero-disorder,
/// zero-cost system could emit the window. [`AT_FLUSH`] if no frame
/// qualifies.
pub fn closable_frame(clock_after: &[u64], window_end: u64) -> u32 {
    let at = clock_after.partition_point(|&c| c < window_end);
    if at == clock_after.len() {
        AT_FLUSH
    } else {
        at as u32
    }
}

/// One probe result as the reference produced it.
#[derive(Debug, Clone)]
pub struct Expected {
    pub result: WindowResult,
    /// Frame that made the window closable.
    pub closable: u32,
    /// Frame whose `Session::push` emitted the result.
    pub trigger: u32,
}

/// Everything the replay yields.
pub struct Replay {
    /// Probe results in emission order.
    pub probe: Vec<Expected>,
    /// What the probe query yields on the same events in order: the
    /// truth that quality is scored against.
    pub oracle: Vec<WindowResult>,
    /// K in force after each frame.
    pub k_after: Vec<u64>,
    /// Stream clock after each frame.
    pub clock_after: Vec<u64>,
    /// Retained result tail of every non-probe query after `finish`.
    pub tails: Vec<Vec<WindowResult>>,
    pub results_total: u64,
    pub overflow_dropped: u64,
    /// Events the probe's window operator dropped as too late.
    pub late_dropped: u64,
    /// Wall time of this replay's push loop per event: `Session::push` over
    /// the whole stream, telemetry as served, plus the loop's own
    /// bookkeeping (a K read and an empty poll, tens of nanoseconds).
    pub push_stream_ns: f64,
}

fn key_of(r: &WindowResult) -> (String, u64, u64) {
    (
        format!("{:?}", r.key),
        r.window.start.raw(),
        r.window.end.raw(),
    )
}

/// A session configured like the daemon's: the workload's strategy, every
/// query registered before the first event, and — when `telemetry` — a
/// metrics registry and a span ring wired the way `Server::start` wires them.
pub fn session_for(w: &Workload, telemetry: bool) -> (Session, Vec<QueryHandle>) {
    let mut session = Session::new(strategy_of(w).build());
    if telemetry {
        let registry = Registry::new();
        let spans = SpanRecorder::new(DEFAULT_SPAN_CAPACITY);
        spans.instrument(&registry);
        session = session.with_telemetry(&registry).with_spans(&spans);
    }
    let handles = w
        .query_dsls()
        .iter()
        .map(|dsl| {
            let (spec, cfg) = parse_query(dsl).expect("workload DSL parses");
            session
                .register_with(&spec, cfg)
                .expect("workload query registers")
        })
        .collect();
    (session, handles)
}

pub fn strategy_of(w: &Workload) -> StrategySpec {
    StrategySpec::parse(w.strategy).expect("workload strategy parses")
}

pub fn replay(w: &Workload, input: &Input) -> Replay {
    let (mut session, handles) = session_for(w, true);
    let clock_after = clock_after(&input.events);
    let mut probe = Vec::new();
    let mut k_after = Vec::with_capacity(input.len());
    let take = |probe: &mut Vec<Expected>, trigger: u32| {
        for result in handles[0].poll() {
            let closable = closable_frame(&clock_after, result.window.end.raw());
            probe.push(Expected {
                result,
                closable,
                trigger,
            });
        }
    };
    let feed = input.events.clone();
    let t0 = Instant::now();
    for (i, e) in feed.into_iter().enumerate() {
        session.push(e);
        k_after.push(session.current_k().raw());
        take(&mut probe, i as u32);
    }
    let push_stream_ns = t0.elapsed().as_secs_f64() * 1e9 / input.len().max(1) as f64;
    session.finish();
    take(&mut probe, AT_FLUSH);
    let stats = session.stats();
    let probe_stats = handles[0].stats();
    let tails = handles[1..].iter().map(QueryHandle::poll).collect();
    let (spec, _) = parse_query(&w.query_dsls()[0]).expect("probe DSL parses");
    let mut in_order = input.events.clone();
    in_order.sort_by_key(Event::order_key);
    let oracle = oracle_results(&in_order, spec.window, &spec.aggregates, spec.key_field);
    Replay {
        probe,
        oracle,
        k_after,
        clock_after,
        tails,
        results_total: stats.results,
        overflow_dropped: handles.iter().map(|h| h.stats().overflow_dropped).sum(),
        late_dropped: probe_stats.window.late_dropped,
        push_stream_ns,
    }
}

fn same_result(a: &WindowResult, b: &WindowResult) -> bool {
    a.key == b.key
        && a.window == b.window
        && a.count == b.count
        && a.revision == b.revision
        && a.aggregates.len() == b.aggregates.len()
        && a.aggregates
            .iter()
            .zip(&b.aggregates)
            .all(|(x, y)| values_close(x, y))
}

/// Element-for-element comparison of two result sequences; returns the
/// number of positions that differ (length difference included).
pub fn sequence_mismatches(got: &[WindowResult], want: &[WindowResult]) -> u64 {
    let common = got.len().min(want.len());
    let differing = got
        .iter()
        .zip(want)
        .filter(|(g, w)| !same_result(g, w))
        .count();
    (differing + got.len().max(want.len()) - common) as u64
}

/// A probe result as delivered over HTTP, with the time the poll that
/// carried it completed (seconds into the leg).
#[derive(Debug, Clone)]
pub struct Delivered {
    pub result: WindowResult,
    pub polled_s: f64,
}

/// One latency sample: `result_wall = k_wait + deliver`, exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WallSample {
    /// Index of the result in the replay's probe sequence.
    pub expected: usize,
    /// When the poll that carried the result completed.
    pub polled_s: f64,
    /// `t_trigger − t_closable`: the wait the disorder buffer imposed.
    pub k_wait_s: f64,
    /// `t_polled − t_trigger`: decode, queueing, fold and HTTP delivery.
    pub deliver_s: f64,
}

impl WallSample {
    pub fn result_wall_s(&self) -> f64 {
        self.k_wait_s + self.deliver_s
    }
}

/// The verdict on one paced leg's probe results.
#[derive(Debug, Default)]
pub struct ProbeScore {
    /// Expected probe windows (operations attempted).
    pub expected: u64,
    /// Never delivered, delivered twice at revision 0, unknown, over-counted
    /// against the oracle, different from the replay, or out of order.
    pub failed: u64,
    pub samples: Vec<WallSample>,
    pub quality_met_ratio: f64,
    pub completeness_mean: f64,
    pub oracle_windows: u64,
    pub notes: Vec<String>,
}

/// Score delivered probe results against the replay and the oracle.
pub fn score_probe(reference: &Replay, delivered: &[Delivered], schedule: Schedule) -> ProbeScore {
    let expected = &reference.probe;
    let mut score = ProbeScore {
        expected: expected.len() as u64,
        ..ProbeScore::default()
    };
    let note = |score: &mut ProbeScore, msg: String| {
        if score.notes.len() < 8 {
            score.notes.push(msg);
        }
    };
    let index: HashMap<(String, u64, u64), usize> = expected
        .iter()
        .enumerate()
        .map(|(i, e)| (key_of(&e.result), i))
        .collect();
    // Delivery slot per expected result: position in `delivered`.
    let mut slot: Vec<Option<usize>> = vec![None; expected.len()];
    for (pos, d) in delivered.iter().enumerate() {
        match index.get(&key_of(&d.result)) {
            None => {
                score.failed += 1;
                note(&mut score, format!("unexpected result {:?}", d.result));
            }
            Some(&i) if slot[i].is_some() => {
                score.failed += 1;
                note(&mut score, format!("delivered twice: {:?}", d.result));
            }
            Some(&i) => {
                slot[i] = Some(pos);
                if !same_result(&d.result, &expected[i].result) {
                    score.failed += 1;
                    note(
                        &mut score,
                        format!(
                            "differs from replay: got {:?}, want {:?}",
                            d.result, expected[i].result
                        ),
                    );
                }
            }
        }
    }
    let mut last_pos = None;
    for (i, e) in expected.iter().enumerate() {
        let Some(pos) = slot[i] else {
            score.failed += 1;
            note(&mut score, format!("never delivered: {:?}", e.result));
            continue;
        };
        if last_pos.is_some_and(|p| pos < p) {
            score.failed += 1;
            note(&mut score, format!("out of order: {:?}", e.result));
        }
        last_pos = Some(pos);
        if e.closable != AT_FLUSH && e.trigger != AT_FLUSH {
            let t_closable = schedule.due_s(e.closable);
            let t_trigger = schedule.due_s(e.trigger);
            score.samples.push(WallSample {
                expected: i,
                polled_s: delivered[pos].polled_s,
                k_wait_s: t_trigger - t_closable,
                deliver_s: delivered[pos].polled_s - t_trigger,
            });
        }
    }

    // Quality against the in-order oracle, on first emissions as delivered.
    let oracle = &reference.oracle;
    score.oracle_windows = oracle.len() as u64;
    let (mut met, mut sum) = (0u64, 0.0f64);
    for truth in oracle {
        let got = index
            .get(&key_of(truth))
            .and_then(|&i| slot[i])
            .map(|pos| &delivered[pos].result);
        let ratio = match got {
            None => 0.0,
            Some(r) if r.count > truth.count => {
                score.failed += 1;
                note(
                    &mut score,
                    format!("count {} exceeds oracle {}: {:?}", r.count, truth.count, r),
                );
                1.0
            }
            Some(r) => r.count as f64 / truth.count.max(1) as f64,
        };
        if ratio >= 0.95 {
            met += 1;
        }
        sum += ratio;
    }
    let n = oracle.len().max(1) as f64;
    score.quality_met_ratio = met as f64 / n;
    score.completeness_mean = sum / n;
    score
}

/// `Value` rendered for a trace argument.
pub fn key_label(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, encode};
    use quill_engine::prelude::{Row, Timestamp, Window};

    fn ev(ts: u64, seq: u64) -> Event {
        Event::new(
            Timestamp(ts),
            seq,
            Row::new([Value::Float(1.0), Value::Int(0)]),
        )
    }

    #[test]
    fn closable_and_trigger_attribution_on_a_disordered_schedule() {
        // Arrival order (frame → ts), tumbling:100 under fixed:50:
        //   0:10  1:95  2:105  3:60  4:120  5:149  6:151  7:260
        // Window [0,100) is closable at frame 2 (first ts >= 100) but K = 50
        // holds it until the clock reaches 150: frame 6 (ts 151) triggers it.
        // Frame 3 (ts 60) arrives after frame 2 yet is still counted.
        let w = by_name("wire_inorder_1q").unwrap();
        let ts = [10u64, 95, 105, 60, 120, 149, 151, 260];
        let events: Vec<Event> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| ev(t, i as u64))
            .collect();
        let input = encode(&events, false);
        assert_eq!(
            clock_after(&input.events),
            vec![10, 95, 105, 105, 120, 149, 151, 260]
        );
        let r = replay(w, &input);
        let first = &r.probe[0];
        assert_eq!(
            first.result.window,
            Window::new(Timestamp(0), Timestamp(100))
        );
        assert_eq!(first.result.count, 3);
        assert_eq!(first.closable, 2);
        assert_eq!(first.trigger, 6);
        // [100,200) is closable at frame 7 (ts 260) and triggered by the
        // same frame: zero K wait at the schedule's resolution.
        let second = &r.probe[1];
        assert_eq!(
            second.result.window,
            Window::new(Timestamp(100), Timestamp(200))
        );
        assert_eq!((second.closable, second.trigger), (7, 7));
        // [200,300) only closes at the final flush.
        let third = &r.probe[2];
        assert_eq!((third.closable, third.trigger), (AT_FLUSH, AT_FLUSH));

        // result_wall = k_wait + deliver per sample, from due times.
        let schedule = Schedule { rate: 10.0 };
        let delivered: Vec<Delivered> = r
            .probe
            .iter()
            .map(|e| Delivered {
                result: e.result.clone(),
                polled_s: 0.9,
            })
            .collect();
        let s = score_probe(&r, &delivered, schedule);
        assert_eq!(s.failed, 0, "{:?}", s.notes);
        assert_eq!(s.samples.len(), 2);
        assert!((s.samples[0].k_wait_s - 0.4).abs() < 1e-12);
        assert!((s.samples[0].deliver_s - 0.3).abs() < 1e-12);
        assert!((s.samples[0].result_wall_s() - 0.7).abs() < 1e-12);
        assert_eq!(s.samples[1].k_wait_s, 0.0);
        assert_eq!(s.oracle_windows, 3);
        assert_eq!(s.quality_met_ratio, 1.0);
        assert_eq!(s.completeness_mean, 1.0);
    }

    #[test]
    fn missing_duplicate_and_wrong_results_are_failed_operations() {
        let w = by_name("wire_inorder_1q").unwrap();
        let events: Vec<Event> = (0..400u64).map(|i| ev(i, i)).collect();
        let input = encode(&events, false);
        let r = replay(w, &input);
        assert!(r.probe.len() >= 4);
        let schedule = Schedule { rate: 1000.0 };
        let good: Vec<Delivered> = r
            .probe
            .iter()
            .map(|e| Delivered {
                result: e.result.clone(),
                polled_s: 1.0,
            })
            .collect();
        assert_eq!(score_probe(&r, &good, schedule).failed, 0);

        let mut missing = good.clone();
        missing.remove(1);
        let s = score_probe(&r, &missing, schedule);
        assert_eq!(s.failed, 1);
        assert!(s.completeness_mean < 1.0);

        let mut twice = good.clone();
        twice.push(good[0].clone());
        assert_eq!(score_probe(&r, &twice, schedule).failed, 1);

        let mut wrong = good.clone();
        wrong[2].result.aggregates[0] = Value::Float(-1.0);
        assert_eq!(score_probe(&r, &wrong, schedule).failed, 1);

        let mut inflated = good.clone();
        inflated[0].result.count += 1;
        // Differs from the replay and exceeds the oracle: two failures.
        assert_eq!(score_probe(&r, &inflated, schedule).failed, 2);

        let mut swapped = good;
        swapped.swap(0, 1);
        assert_eq!(score_probe(&r, &swapped, schedule).failed, 1);
    }

    #[test]
    fn schedule_counts_frames_due() {
        let s = Schedule { rate: 1000.0 };
        assert_eq!(s.frames_due(0.0, 10), 1);
        assert_eq!(s.frames_due(0.0049, 10), 5);
        assert_eq!(s.frames_due(1.0, 10), 10);
        assert_eq!(s.frames_due(-1.0, 10), 0);
        assert_eq!(s.due_s(500), 0.5);
    }

    #[test]
    fn sequence_comparison_counts_every_differing_position() {
        let a = WindowResult {
            key: Value::Int(1),
            window: Window::new(Timestamp(0), Timestamp(10)),
            count: 1,
            revision: 0,
            aggregates: vec![Value::Float(1.0)],
        };
        let mut b = a.clone();
        b.count = 2;
        assert_eq!(
            sequence_mismatches(&[a.clone(), a.clone()], &[a.clone(), a.clone()]),
            0
        );
        assert_eq!(
            sequence_mismatches(&[a.clone(), b.clone()], &[a.clone(), a.clone()]),
            1
        );
        assert_eq!(
            sequence_mismatches(std::slice::from_ref(&a), &[a.clone(), a.clone(), a.clone()]),
            2
        );
    }
}
