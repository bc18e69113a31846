//! The session API's equivalence contract, across crates: a resident
//! [`Session`] fed by `push` must produce element-identical results to the
//! batch paths (`execute`, `execute_shared`) for queries registered before
//! the first event, under every strategy family — and queries of equal shape
//! sharing one window operator must each observe exactly what they would
//! have observed alone.

use quill_core::prelude::*;
use quill_gen::workload::netmon::{self, NetmonConfig};

fn queries() -> Vec<QuerySpec> {
    vec![
        QuerySpec::new(
            WindowSpec::tumbling(1_000u64),
            vec![
                AggregateSpec::new(AggregateKind::Sum, netmon::BYTES_FIELD, "bytes"),
                AggregateSpec::new(AggregateKind::Count, netmon::BYTES_FIELD, "n"),
            ],
            Some(netmon::HOST_FIELD),
        ),
        QuerySpec::new(
            WindowSpec::sliding(2_000u64, 500u64),
            vec![AggregateSpec::new(
                AggregateKind::Mean,
                netmon::BYTES_FIELD,
                "mean",
            )],
            None,
        ),
    ]
}

fn strategies() -> Vec<StrategySpec> {
    vec![
        StrategySpec::Fixed(400),
        StrategySpec::Mp(None),
        StrategySpec::Aq(0.95),
    ]
}

/// Moved only by heartbeats, so it joins the tests that send them.
const PUNCTUATED: StrategySpec = StrategySpec::Punctuated {
    source_field: netmon::HOST_FIELD,
    expected_sources: 1,
    slack: 150,
};

#[test]
fn session_matches_batch_execute_per_strategy() {
    let stream = netmon::generate(&NetmonConfig::default(), 5_000, 11);
    for strategy in strategies() {
        for query in &queries() {
            let mut fresh = strategy.build();
            let batch = execute(
                &stream.events,
                fresh.as_mut(),
                query,
                &ExecOptions::default(),
            )
            .expect("batch run");

            let mut session = Session::new(strategy.build());
            let handle = session.register(query).expect("registers");
            for e in &stream.events {
                session.push(e.clone());
            }
            session.finish();
            let served = handle.poll();
            assert_eq!(
                served, batch.results,
                "session diverges from execute under {strategy}"
            );
        }
    }
}

/// Everything a consumer can observe of one query, in comparable form.
fn observed(handle: &QueryHandle) -> impl PartialEq + std::fmt::Debug {
    let s = handle.stats();
    let quantiles = [0.5, 0.99].map(|q| handle.latency_quantile(q));
    (
        (s.emitted, s.overflow_dropped, s.pending, s.window),
        (s.mean_latency.to_bits(), s.slo_breaches, s.closed),
        quantiles,
    )
}

#[test]
fn push_batch_is_element_identical_to_one_push_per_event() {
    // Two sessions over the same stream, one fed an event at a time and one
    // in runs of 1..=97 events. After every run: the same results in the
    // same order, the same latency stamps (they feed `mean_latency` and the
    // quantiles) and the same `QueryStats`. The punctuated strategy also
    // takes a heartbeat between runs, which releases buffered events, and
    // the stream is cut by `finish` two thirds in — the rest is a no-op on
    // both sides.
    let stream = netmon::generate(&NetmonConfig::default(), 6_000, 41);
    let cut = stream.events.len() * 2 / 3;
    for strategy in strategies().into_iter().chain([PUNCTUATED]) {
        let config = QueryConfig::default()
            .with_result_capacity(64)
            .with_latency_slo(450);
        let (mut single, mut batched) = (
            Session::new(strategy.build()),
            Session::new(strategy.build()),
        );
        let register = |session: &mut Session| -> Vec<QueryHandle> {
            let with = |q| session.register_with(q, config.clone()).expect("registers");
            queries().iter().map(with).collect()
        };
        let (singles, batches) = (register(&mut single), register(&mut batched));
        let (mut at, mut run, mut finished_at) = (0, 1, 0);
        while at < stream.events.len() {
            if at >= cut && !single.finished() {
                single.finish();
                batched.finish();
                finished_at = at as u64;
            }
            let events = &stream.events[at..(at + run).min(stream.events.len())];
            events.iter().for_each(|e| single.push(e.clone()));
            batched.push_batch(events.iter().cloned());
            let last = events.last().expect("non-empty run");
            let source = Key(last.row.get(netmon::HOST_FIELD).clone());
            single.heartbeat(&source, last.ts);
            batched.heartbeat(&source, last.ts);
            for (a, b) in singles.iter().zip(&batches) {
                assert_eq!(
                    observed(a),
                    observed(b),
                    "{strategy}: stats after event {at}"
                );
                // Poll every third run only, so queues also overflow.
                if run % 3 == 0 {
                    assert_eq!(a.poll(), b.poll(), "{strategy}: results after event {at}");
                }
            }
            at += events.len();
            run = run % 97 + 1;
        }
        assert!(single.finished() && batched.finished());
        let (a, b) = (single.stats(), batched.stats());
        assert_eq!((a.events, a.results), (b.events, b.results), "{strategy}");
        assert_eq!(
            a.events, finished_at,
            "{strategy}: pushes after finish are dropped"
        );
        for (a, b) in singles.iter().zip(&batches) {
            assert_eq!(a.poll(), b.poll(), "{strategy}: residual results");
            assert!(observed(a) == observed(b) && a.is_closed(), "{strategy}");
        }
    }
}

#[test]
fn session_matches_execute_shared_fanout() {
    let stream = netmon::generate(&NetmonConfig::default(), 5_000, 23);
    let queries = queries();
    let mut strategy = AqKSlack::for_completeness(0.9);
    let shared = execute_shared(
        &stream.events,
        &mut strategy,
        &queries,
        &ExecOptions::default(),
    )
    .expect("shared run");

    let mut session = Session::new(Box::new(AqKSlack::for_completeness(0.9)));
    let handles: Vec<QueryHandle> = queries
        .iter()
        .map(|q| session.register(q).expect("registers"))
        .collect();
    for e in &stream.events {
        session.push(e.clone());
    }
    session.finish();

    for (handle, per_query) in handles.iter().zip(shared.per_query.iter()) {
        assert_eq!(
            handle.poll(),
            per_query.results,
            "session fan-out diverges from execute_shared for query {}",
            per_query.query_index
        );
    }
}

#[test]
fn midstream_registration_sees_only_later_elements() {
    let stream = netmon::generate(&NetmonConfig::default(), 4_000, 37);
    let query = &queries()[0];
    let mut session = Session::new(Box::new(FixedKSlack::new(300u64)));
    let early = session.register(query).expect("registers");
    for e in &stream.events[..2_000] {
        session.push(e.clone());
    }
    let late = session.register(query).expect("registers mid-stream");
    for e in &stream.events[2_000..] {
        session.push(e.clone());
    }
    session.finish();

    // Every push reaches the operators at once, so the late subscriber
    // takes exactly the 2 000 events pushed after it registered — none the
    // slack was still holding back.
    let tail = late.stats().window;
    assert_eq!(tail.accepted + tail.late_dropped, 2_000);
    let early_results = early.poll();
    let late_results = late.poll();
    assert!(
        late_results.len() < early_results.len(),
        "late subscriber must miss already-pushed windows ({} vs {})",
        late_results.len(),
        early_results.len()
    );
    // Every window the late subscriber saw, the early one saw too (it may
    // differ in counts only for the window spanning the registration point).
    let early_windows: Vec<_> = early_results
        .iter()
        .map(|r| (r.window, r.key.clone()))
        .collect();
    for r in &late_results {
        assert!(
            early_windows.contains(&(r.window, r.key.clone())),
            "late subscriber invented window {:?}",
            r.window
        );
    }
}

#[test]
fn deregistration_detaches_without_disturbing_others() {
    let stream = netmon::generate(&NetmonConfig::default(), 3_000, 5);
    let qs = queries();
    let mut session = Session::new(Box::new(FixedKSlack::new(300u64)));
    let keeper = session.register(&qs[0]).expect("registers");
    let leaver = session.register(&qs[1]).expect("registers");
    for e in &stream.events[..1_500] {
        session.push(e.clone());
    }
    let stats = session.deregister(leaver.id()).expect("deregisters");
    assert!(stats.closed, "final stats are closed");
    assert!(leaver.is_closed(), "handle observes closure");
    assert!(
        session.deregister(leaver.id()).is_err(),
        "double deregister"
    );
    for e in &stream.events[1_500..] {
        session.push(e.clone());
    }
    session.finish();

    // The surviving query matches a solo batch run exactly.
    let batch = execute(
        &stream.events,
        &mut FixedKSlack::new(300u64),
        &qs[0],
        &ExecOptions::default(),
    )
    .expect("batch");
    assert_eq!(keeper.poll(), batch.results);
}

#[test]
fn bounded_subscriptions_drop_oldest_and_account_for_it() {
    let stream = netmon::generate(&NetmonConfig::default(), 5_000, 77);
    let query = &queries()[0];
    let mut session = Session::new(Box::new(FixedKSlack::new(300u64)));
    let handle = session
        .register_with(query, QueryConfig::default().with_result_capacity(4))
        .expect("registers");
    for e in &stream.events {
        session.push(e.clone());
    }
    session.finish();
    let stats = handle.stats();
    let pending = handle.poll();
    assert!(pending.len() <= 4, "capacity bounds the queue");
    assert!(stats.overflow_dropped > 0, "unpolled results were evicted");
    assert_eq!(
        stats.emitted,
        stats.overflow_dropped + pending.len() as u64,
        "every emitted result is either delivered or accounted as dropped"
    );
    // The survivors are exactly the *newest* results of an unbounded run.
    let reference = execute(
        &stream.events,
        &mut FixedKSlack::new(300u64),
        query,
        &ExecOptions::default(),
    )
    .expect("batch");
    let tail = &reference.results[reference.results.len() - pending.len()..];
    assert_eq!(pending, tail, "drop-oldest keeps the newest window results");
}

#[test]
fn concurrent_poll_overflow_and_latency_reconcile_with_spans() {
    use quill_telemetry::{SpanRecorder, Stage};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let stream = netmon::generate(&NetmonConfig::default(), 5_000, 99);
    let query = &queries()[0];
    let spans = SpanRecorder::new(1 << 20); // never evicts in this run
    let mut session = Session::new(Box::new(FixedKSlack::new(300u64))).with_spans(&spans);
    let handle = session
        .register_with(query, QueryConfig::default().with_result_capacity(8))
        .expect("registers");

    // A consumer polls concurrently with the producer: polled results and
    // overflow evictions race, but the accounting identity must hold.
    let done = Arc::new(AtomicBool::new(false));
    let consumer = {
        let handle = handle.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut polled = 0u64;
            while !done.load(Ordering::SeqCst) {
                polled += handle.poll().len() as u64;
                std::thread::yield_now();
            }
            polled + handle.poll().len() as u64
        })
    };
    for e in &stream.events {
        session.push(e.clone());
    }
    session.finish();
    done.store(true, Ordering::SeqCst);
    let polled = consumer.join().expect("consumer joins");

    let stats = handle.stats();
    assert!(stats.emitted > 0);
    assert_eq!(
        stats.emitted,
        polled + stats.overflow_dropped,
        "every result was either polled or accounted as evicted"
    );

    // Span-derived end-to-end latency is the same population the session's
    // recorder saw: counts match exactly, means reconcile, and the
    // recorder's approximate quantiles are bracketed by the exact span
    // distribution.
    let deliver: Vec<u64> = spans
        .spans()
        .iter()
        .filter(|s| s.stage == Stage::Deliver)
        .map(|s| s.duration())
        .collect();
    assert_eq!(deliver.len() as u64, stats.emitted);
    let exact_mean = deliver.iter().sum::<u64>() as f64 / deliver.len() as f64;
    assert!(
        (exact_mean - stats.mean_latency).abs() <= 1e-6 * exact_mean.max(1.0),
        "span mean {exact_mean} vs recorded {}",
        stats.mean_latency
    );
    let mut sorted = deliver.clone();
    sorted.sort_unstable();
    let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
    for q in [0.5, 0.9, 0.99] {
        let approx = handle.latency_quantile(q).expect("quantile available");
        assert!(
            approx >= min && approx as f64 <= max as f64 * 1.05 + 1.0,
            "q{q} = {approx} outside span-derived range [{min}, {max}]"
        );
    }
}

#[test]
fn session_telemetry_reports_merge_windows_and_query_gauge() {
    let stream = netmon::generate(&NetmonConfig::default(), 2_000, 3);
    let registry = Registry::new();
    let mut session = Session::new(Box::new(FixedKSlack::new(300u64))).with_telemetry(&registry);
    let q = &queries()[0];
    let a = session.register(q).expect("registers");
    let b = session.register(&queries()[1]).expect("registers");
    let c = session.register(&renamed(q, "again")).expect("registers");
    for e in &stream.events {
        session.push(e.clone());
    }
    // Held in window state: what the operators accepted and have not slid
    // past yet. Nothing after the flush.
    let held = registry.snapshot().gauge("quill.window.entries");
    let accepted = a.stats().window.accepted + b.stats().window.accepted;
    assert!(
        held.is_some_and(|n| n > 0.0 && n <= accepted as f64),
        "{held:?}"
    );
    session.finish();
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("quill.window.entries"), Some(0.0));
    assert_eq!(snap.counter("quill.run.events"), 2_000);
    assert_eq!(snap.gauge("quill.session.queries"), Some(3.0));
    assert_eq!(snap.gauge("quill.session.operators"), Some(2.0));
    // Windows are counted where they are folded, results where they are
    // delivered: `a` and `c` are one operator and two subscribers.
    let emitted = [&a, &b, &c].map(|h| h.stats().emitted);
    assert_eq!(emitted[0], emitted[2]);
    assert_eq!(
        snap.counter("quill.session.windows"),
        emitted[0] + emitted[1],
        "emissions per operator"
    );
    assert_eq!(
        snap.counter("quill.run.results"),
        emitted.iter().sum::<u64>(),
        "results per subscriber"
    );
    assert_eq!(session.stats().results, emitted.iter().sum::<u64>());
}

// ---- Sharing is invisible -------------------------------------------------
//
// Queries of equal shape registered between the same two pushes run on one
// window operator. Nothing a subscriber can observe may tell.

/// `query` with every output column renamed: the same shape.
fn renamed(query: &QuerySpec, tag: &str) -> QuerySpec {
    let mut q = query.clone();
    for a in &mut q.aggregates {
        a.name = format!("{}_{tag}", a.name);
    }
    q
}

/// One subscriber and when its consumer polls: after every `poll_every`-th
/// run of events, or only at the end of the stream for `0`.
struct Sub {
    spec: QuerySpec,
    cfg: QueryConfig,
    poll_every: usize,
}

/// Three shapes — combinable keyed, combinable global, order statistic — with
/// four subscribers each that differ in everything a group must not split on
/// or leak across: output names, target, queue bound, SLO, polling rhythm.
fn subscribers() -> Vec<Sub> {
    let mut shapes = queries();
    shapes.push(QuerySpec::new(
        WindowSpec::sliding(2_000u64, 500u64),
        vec![
            AggregateSpec::new(AggregateKind::Quantile(0.5), netmon::BYTES_FIELD, "p50"),
            AggregateSpec::new(AggregateKind::Max, netmon::BYTES_FIELD, "max"),
        ],
        Some(netmon::HOST_FIELD),
    ));
    let d = QueryConfig::default;
    let configs = [
        (d().with_result_capacity(1), 0),
        (d().with_result_capacity(64).with_latency_slo(450), 5),
        (d().with_required_completeness(0.9).with_latency_slo(100), 1),
        (d().with_required_completeness(0.99), 2),
    ];
    let mut subs = Vec::new();
    for (i, (cfg, poll_every)) in configs.into_iter().enumerate() {
        // Interleave the shapes so that a group's members are not adjacent.
        for shape in &shapes {
            subs.push(Sub {
                spec: renamed(shape, &i.to_string()),
                cfg: cfg.clone(),
                poll_every,
            });
        }
    }
    subs
}

/// What one subscriber saw: every result it polled, in order, its counters
/// before the final poll (so `pending` counts) and after, and how many
/// results its queue evicted.
type Seen = (Vec<WindowResult>, String, u64);

/// Run `events` through a session holding `subs`, in runs of 1..=61 events
/// with a heartbeat after each (it moves the punctuated strategy only).
fn drive(strategy: &StrategySpec, subs: &[&Sub], events: &[Event]) -> Vec<Seen> {
    let mut session = Session::new(strategy.build());
    let register = |s: &&Sub| session.register_with(&s.spec, s.cfg.clone());
    let handles: Result<Vec<QueryHandle>> = subs.iter().map(register).collect();
    let handles = handles.expect("registers");
    let mut polled: Vec<Vec<WindowResult>> = vec![Vec::new(); subs.len()];
    let (mut at, mut run) = (0, 1);
    while at < events.len() {
        let batch = &events[at..(at + run).min(events.len())];
        session.push_batch(batch.iter().cloned());
        let last = batch.last().expect("non-empty run");
        session.heartbeat(&Key(last.row.get(netmon::HOST_FIELD).clone()), last.ts);
        for ((sub, handle), polled) in subs.iter().zip(&handles).zip(&mut polled) {
            if sub.poll_every != 0 && run % sub.poll_every == 0 {
                polled.extend(handle.poll());
            }
        }
        at += batch.len();
        run = run % 61 + 1;
    }
    session.finish();
    let seen = |(handle, mut polled): (&QueryHandle, Vec<WindowResult>)| {
        let before = format!("{:?}", observed(handle));
        polled.extend(handle.poll());
        let dropped = handle.stats().overflow_dropped;
        (polled, format!("{before} {:?}", observed(handle)), dropped)
    };
    handles.iter().zip(polled).map(seen).collect()
}

#[test]
fn sharing_is_invisible_to_every_subscriber() {
    let stream = netmon::generate(&NetmonConfig::default(), 4_000, 53);
    let subs = subscribers();
    // "Alone" means alone on its operator under the same registered windows:
    // AQ sizes K for the smallest slide registered (500 here), so each solo
    // run also registers a query of a shape no subscriber has at that slide.
    let pacer = Sub {
        spec: QuerySpec::new(
            WindowSpec::tumbling(500u64),
            vec![AggregateSpec::new(
                AggregateKind::Min,
                netmon::BYTES_FIELD,
                "pace",
            )],
            None,
        ),
        cfg: QueryConfig::default(),
        poll_every: 0,
    };
    for strategy in strategies().into_iter().chain([PUNCTUATED]) {
        let all: Vec<&Sub> = subs.iter().collect();
        let together = drive(&strategy, &all, &stream.events);
        for (i, (sub, shared)) in subs.iter().zip(&together).enumerate() {
            let alone = drive(&strategy, &[sub, &pacer], &stream.events);
            assert!(
                !shared.0.is_empty(),
                "{strategy}: subscriber {i} saw results"
            );
            assert_eq!(
                shared.0, alone[0].0,
                "{strategy}: results of subscriber {i}"
            );
            assert_eq!(
                shared.1, alone[0].1,
                "{strategy}: counters of subscriber {i}"
            );
        }
        // The one-slot queue overflowed and the often-polled one did not —
        // on the same operator.
        assert!(together[0].2 > 0 && together[6].2 == 0, "{strategy}");
    }
    let mut session = Session::new(Box::new(FixedKSlack::new(400u64)));
    for sub in &subs {
        session.register_with(&sub.spec, sub.cfg.clone()).unwrap();
    }
    assert_eq!(session.stats().queries, 12);
    assert_eq!(session.operators(), 3, "one operator per distinct shape");
}

#[test]
fn only_equal_shapes_share_an_operator() {
    let agg = |kind, field| vec![AggregateSpec::new(kind, field, "out")];
    let bytes = netmon::BYTES_FIELD;
    let host = Some(netmon::HOST_FIELD);
    let base = QuerySpec::new(
        WindowSpec::tumbling(1_000u64),
        agg(AggregateKind::Quantile(0.5), bytes),
        host,
    );
    let with = |edit: fn(&mut QuerySpec)| {
        let mut q = base.clone();
        edit(&mut q);
        q
    };
    let different = [
        with(|q| q.aggregates[0].kind = AggregateKind::Quantile(0.9)),
        with(|q| q.aggregates[0].kind = AggregateKind::Median),
        with(|q| q.aggregates[0].field = netmon::HOST_FIELD),
        with(|q| q.key_field = None),
        with(|q| q.key_field = Some(netmon::BYTES_FIELD)),
        with(|q| q.window = WindowSpec::sliding(1_000u64, 1_000u64)),
        with(|q| q.window = WindowSpec::tumbling(2_000u64)),
        with(|q| {
            let again = q.aggregates[0].clone();
            q.aggregates.push(again)
        }),
    ];
    let mut session = Session::new(Box::new(FixedKSlack::new(400u64)));
    session.register(&base).unwrap();
    for (i, q) in different.iter().enumerate() {
        session.register(q).unwrap();
        assert_eq!(session.operators(), i + 2, "variant {i} must not share");
    }
    // Names, targets, queue bounds and SLOs do not make a shape.
    let cfg = QueryConfig::default()
        .with_required_completeness(0.9)
        .with_result_capacity(3)
        .with_latency_slo(7);
    session.register_with(&renamed(&base, "x"), cfg).unwrap();
    session.register(&renamed(&different[7], "y")).unwrap();
    assert_eq!(session.operators(), different.len() + 1);
    assert_eq!(session.stats().queries, different.len() + 3);
    // Ids stay in registration order whatever the grouping.
    let ids: Vec<u64> = session.query_ids().iter().map(QueryId::raw).collect();
    assert_eq!(ids, (0..11).collect::<Vec<u64>>());
}

#[test]
fn a_query_joins_only_an_operator_that_has_seen_nothing() {
    let stream = netmon::generate(&NetmonConfig::default(), 4_000, 37);
    let (head, tail) = stream.events.split_at(1_500);
    let query = &queries()[0];
    let mut session = Session::new(Box::new(FixedKSlack::new(300u64)));
    let early = session.register(query).expect("registers");
    session.push_batch(head.iter().cloned());
    // Two same-shape queries arrive between the same two pushes: they share
    // with each other, not with the operator that is 1 500 events in.
    let late = session
        .register(&renamed(query, "late"))
        .expect("registers");
    let later = session
        .register(&renamed(query, "later"))
        .expect("registers");
    assert_eq!(session.operators(), 2);
    session.push_batch(tail.iter().cloned());
    session.finish();

    // The late subscriber is exactly a query that was alone from that point.
    let mut solo = Session::new(Box::new(FixedKSlack::new(300u64)));
    solo.push_batch(head.iter().cloned());
    let alone = solo.register(query).expect("registers");
    solo.push_batch(tail.iter().cloned());
    solo.finish();
    assert_eq!(observed(&late), observed(&alone));
    assert_eq!(observed(&late), observed(&later));
    assert!(
        late.stats().window.accepted < early.stats().window.accepted,
        "the late subscriber saw fewer events"
    );
    let results = late.poll();
    assert_eq!(results, alone.poll());
    assert_eq!(results, later.poll());
    assert!(results.len() < early.poll().len());

    // A push reaches the operators even while no watermark has passed it:
    // with a silent source holding the watermark back, a query registered
    // after two pushes still gets an operator of its own and misses both.
    let mut held = Session::new(Box::new(PunctuatedBuffer::new(0, 2)));
    let first = held.register(query).expect("registers");
    for (seq, ts) in [(0u64, 150u64), (1, 250)] {
        let row = Row::new([Value::Int(1), Value::Int(7), Value::Float(1.0)]);
        held.push(Event::new(ts, seq, row));
    }
    assert_eq!(held.stats().buffered, 2, "no watermark has passed them");
    let second = held.register(&renamed(query, "second")).expect("registers");
    assert_eq!(held.operators(), 2);
    held.heartbeat(&Key(Value::Int(2)), Timestamp(1_240));
    held.finish();
    assert_eq!(first.stats().window.accepted, 2);
    assert_eq!(first.poll().len(), 1);
    assert_eq!(second.stats().window.accepted, 0);
    assert!(second.poll().is_empty());
}

#[test]
fn deregistering_a_member_freezes_it_and_leaves_the_others_alone() {
    let stream = netmon::generate(&NetmonConfig::default(), 3_000, 5);
    let (head, tail) = stream.events.split_at(1_500);
    let query = &queries()[1];
    let registry = Registry::new();
    let mut session = Session::new(Box::new(FixedKSlack::new(300u64))).with_telemetry(&registry);
    let keeper = session.register(query).expect("registers");
    let leaver = session.register(&renamed(query, "l")).expect("registers");
    let idle = session.register(&renamed(query, "i")).expect("registers");
    assert_eq!((session.operators(), session.stats().queries), (1, 3));
    session.push_batch(head.iter().cloned());

    // Polling one member drains that member only.
    let pending = idle.stats().pending;
    assert!(pending > 0);
    assert_eq!(leaver.poll().len(), pending);
    assert_eq!(idle.stats().pending, pending);
    assert_eq!(keeper.stats().pending, pending);

    let last = session.deregister(leaver.id()).expect("deregisters");
    assert!(last.closed && leaver.is_closed());
    assert_eq!(
        last.window,
        keeper.stats().window,
        "the operator's counters"
    );
    assert_eq!((session.operators(), session.stats().queries), (1, 2));
    assert!(session.query_info(leaver.id()).is_none());
    session.push_batch(tail.iter().cloned());
    let frozen = leaver.stats();
    assert_eq!(
        (frozen.emitted, frozen.window, frozen.pending),
        (last.emitted, last.window, 0),
        "a deregistered member receives and counts nothing further"
    );

    session.deregister(idle.id()).expect("deregisters");
    assert_eq!(session.operators(), 1, "the keeper still needs it");
    session.finish();
    let batch = execute(
        &stream.events,
        &mut FixedKSlack::new(300u64),
        query,
        &ExecOptions::default(),
    )
    .expect("batch");
    assert_eq!(keeper.poll(), batch.results, "the survivor missed nothing");
    assert!(idle.poll().len() < batch.results.len());

    // The operator goes with its last subscriber.
    session.deregister(keeper.id()).expect("deregisters");
    assert_eq!((session.operators(), session.stats().queries), (0, 0));
    assert_eq!(
        registry.snapshot().gauge("quill.session.operators"),
        Some(0.0)
    );
}

/// A fixed-K strategy that records every smallest slide it is handed.
struct SlideRecorder {
    inner: FixedKSlack,
    seen: std::sync::Arc<std::sync::Mutex<Vec<Option<TimeDelta>>>>,
}

impl DisorderControl for SlideRecorder {
    fn name(&self) -> String {
        "slide-recorder".into()
    }
    fn set_min_slide(&mut self, slide: Option<TimeDelta>) {
        self.seen.lock().unwrap().push(slide);
    }
    fn on_event(&mut self, e: Event, out: &mut Vec<StreamElement>) {
        self.inner.on_event(e, out);
    }
    fn finish(&mut self, out: &mut Vec<StreamElement>) {
        self.inner.finish(out);
    }
    fn current_k(&self) -> TimeDelta {
        self.inner.current_k()
    }
    fn buffer_stats(&self) -> BufferStats {
        self.inner.buffer_stats()
    }
}

#[test]
fn the_smallest_registered_slide_reaches_the_strategy() {
    let seen = std::sync::Arc::default();
    let mut session = Session::new(Box::new(SlideRecorder {
        inner: FixedKSlack::new(50u64),
        seen: std::sync::Arc::clone(&seen),
    }));
    let count = || vec![AggregateSpec::new(AggregateKind::Count, 0, "n")];
    let sliding = QuerySpec::new(WindowSpec::sliding(1_000u64, 250u64), count(), None);
    let tumbling = QuerySpec::new(WindowSpec::tumbling(1_000u64), count(), None);
    let last = || *seen.lock().unwrap().last().expect("called");
    let s = session.register(&sliding).expect("registers");
    let t = session.register(&tumbling).expect("registers");
    assert_eq!(last(), Some(TimeDelta(250)));
    session.deregister(s.id()).expect("deregisters");
    assert_eq!(last(), Some(TimeDelta(1_000)));
    session.deregister(t.id()).expect("deregisters");
    assert_eq!(last(), None);
    // Once per registration change, and a refused registration is none.
    assert!(session
        .register(&QuerySpec::new(WindowSpec::tumbling(0u64), count(), None))
        .is_err());
    assert_eq!(seen.lock().unwrap().len(), 4);
}

/// A completeness target outside (0, 1], `NaN` included, is refused as an
/// invalid spec at every entry point before the strategy sees anything: no
/// event reaches its buffer and it is not even told a slide. A refused
/// registration leaves the session as it was, so a valid query registers and
/// runs afterwards; a target of exactly 1.0 runs everywhere. Zero shards are
/// refused the same way, before any event.
#[test]
fn out_of_range_targets_and_zero_shards_are_refused_before_any_event() {
    let stream = netmon::generate(&NetmonConfig::default(), 2_000, 5);
    let query = &queries()[0];
    let recorder = |seen: &std::sync::Arc<_>| SlideRecorder {
        inner: FixedKSlack::new(100u64),
        seen: std::sync::Arc::clone(seen),
    };
    // One batch run, sole or shared: what it returned and what reached the
    // strategy's buffer.
    let batch = |opts: &ExecOptions, strategy: &mut SlideRecorder, shared: bool| {
        let ran = if shared {
            let queries = [query.clone(), query.clone()];
            execute_shared(&stream.events, strategy, &queries, opts).map(drop)
        } else {
            execute(&stream.events, strategy, query, opts).map(drop)
        };
        (ran, strategy.buffer_stats().inserted)
    };
    for q in [f64::NAN, 0.0, -0.1, 1.5, 1.0] {
        let valid = q == 1.0;
        for (entry, shared) in [("execute", false), ("execute_shared", true)] {
            let seen = std::sync::Arc::default();
            let opts = ExecOptions::sequential().with_required_completeness(q);
            let (ran, inserted) = batch(&opts, &mut recorder(&seen), shared);
            if valid {
                assert!(ran.is_ok(), "{entry}, q = {q}: {ran:?}");
                assert!(inserted > 0, "{entry}: no event reached the buffer");
            } else {
                assert!(
                    matches!(ran, Err(EngineError::InvalidSpec(_))),
                    "{entry}, q = {q}: {ran:?}"
                );
                assert_eq!(inserted, 0, "{entry}, q = {q}: events reached the buffer");
                assert!(seen.lock().unwrap().is_empty(), "{entry}, q = {q}");
            }
        }

        let seen = std::sync::Arc::default();
        let mut session = Session::new(Box::new(recorder(&seen)));
        let cfg = QueryConfig::default().with_required_completeness(q);
        let registered = session.register_with(query, cfg);
        if valid {
            assert!(registered.is_ok(), "register_with, q = {q}: {registered:?}");
            continue;
        }
        assert!(
            matches!(registered, Err(EngineError::InvalidSpec(_))),
            "register_with, q = {q}: {registered:?}"
        );
        assert!(seen.lock().unwrap().is_empty(), "register_with, q = {q}");
        assert_eq!(session.stats().queries, 0);
        let handle = session.register(query).expect("a valid query registers");
        session.push_batch(stream.events.iter().cloned());
        session.finish();
        assert!(!handle.poll().is_empty(), "q = {q}: the session stopped");
    }

    let seen = std::sync::Arc::default();
    for shared in [false, true] {
        let opts = ExecOptions::parallel(ParallelConfig::new(0));
        let (ran, inserted) = batch(&opts, &mut recorder(&seen), shared);
        assert!(
            matches!(ran, Err(EngineError::InvalidPipeline(_))),
            "zero shards: {ran:?}"
        );
        assert_eq!(inserted, 0, "zero shards: events reached the buffer");
    }
    assert!(seen.lock().unwrap().is_empty());
}
