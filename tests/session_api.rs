//! The session API's equivalence contract, across crates: a resident
//! [`Session`] fed by `push` must produce element-identical results to the
//! batch paths (`execute`, `execute_shared`) for queries registered before
//! the first event, under every strategy family.

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

fn strategy_builders() -> Vec<fn() -> Box<dyn DisorderControl>> {
    fn fixed() -> Box<dyn DisorderControl> {
        Box::new(FixedKSlack::new(400u64))
    }
    fn mp() -> Box<dyn DisorderControl> {
        Box::new(MpKSlack::new())
    }
    fn aq() -> Box<dyn DisorderControl> {
        Box::new(AqKSlack::for_completeness(0.95))
    }
    vec![fixed, mp, aq]
}

#[test]
fn session_matches_batch_execute_per_strategy() {
    let stream = netmon::generate(&NetmonConfig::default(), 5_000, 11);
    for build in strategy_builders() {
        let name = build().name();
        for query in &queries() {
            let mut fresh = build();
            let batch = execute(
                &stream.events,
                fresh.as_mut(),
                query,
                &ExecOptions::default(),
            )
            .expect("batch run");

            let mut session = Session::new(build());
            let handle = session.register(query).expect("registers");
            for e in &stream.events {
                session.push(e.clone());
            }
            session.finish();
            let served = handle.poll();
            assert_eq!(
                served, batch.results,
                "session diverges from execute under {name}"
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
    fn punctuated() -> Box<dyn DisorderControl> {
        Box::new(PunctuatedBuffer::new(netmon::HOST_FIELD, 1).with_source_slack(150u64))
    }
    let stream = netmon::generate(&NetmonConfig::default(), 6_000, 41);
    let cut = stream.events.len() * 2 / 3;
    for build in strategy_builders()
        .into_iter()
        .chain([punctuated as fn() -> _])
    {
        let name = build().name();
        let config = QueryConfig::default()
            .with_result_capacity(64)
            .with_latency_slo(450);
        let (mut single, mut batched) = (Session::new(build()), Session::new(build()));
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
                assert_eq!(observed(a), observed(b), "{name}: stats after event {at}");
                // Poll every third run only, so queues also overflow.
                if run % 3 == 0 {
                    assert_eq!(a.poll(), b.poll(), "{name}: results after event {at}");
                }
            }
            at += events.len();
            run = run % 97 + 1;
        }
        assert!(single.finished() && batched.finished());
        let (a, b) = (single.stats(), batched.stats());
        assert_eq!((a.events, a.results), (b.events, b.results), "{name}");
        assert_eq!(
            a.events, finished_at,
            "{name}: pushes after finish are dropped"
        );
        for (a, b) in singles.iter().zip(&batches) {
            assert_eq!(a.poll(), b.poll(), "{name}: residual results");
            assert!(observed(a) == observed(b) && a.is_closed(), "{name}");
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

    let early_results = early.poll();
    let late_results = late.poll();
    assert!(
        late_results.len() < early_results.len(),
        "late subscriber must miss already-staged windows ({} vs {})",
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
    let _a = session.register(q).expect("registers");
    let _b = session.register(&queries()[1]).expect("registers");
    for e in &stream.events {
        session.push(e.clone());
    }
    session.finish();
    let snap = registry.snapshot();
    assert!(snap.counter("quill.merge.windows") > 0, "windows merged");
    assert_eq!(snap.counter("quill.run.events"), 2_000);
    assert_eq!(snap.gauge("quill.session.queries"), Some(2.0));
}
