//! What a query costs to register beside one of its shape: a record in the
//! shared operator's result feed, not a result queue and a latency history
//! of its own. A counting global allocator sums the bytes each allocation
//! asks for (a `realloc` counts its new size). This file holds one test, so
//! nothing else allocates while it counts.

use quill_core::prelude::*;
use quill_metrics::LatencyRecorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counter is a statistic and guards nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes `f` allocates, and what it returns.
fn allocated<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.load(Relaxed);
    let out = f();
    (BYTES.load(Relaxed) - before, out)
}

#[test]
fn same_shape_subscribers_share_one_latency_history() {
    let (histogram, recorder) = allocated(LatencyRecorder::new);
    drop(recorder);
    assert!(
        histogram > 50 * 1024,
        "a latency recorder takes {histogram} B"
    );

    let mut session = Session::new(Box::new(FixedKSlack::new(20u64)));
    let query = QuerySpec::builder()
        .window(WindowSpec::tumbling(10u64))
        .aggregate(AggregateKind::Sum, 0, "sum")
        .build()
        .expect("valid query");
    let first = session.register(&query).expect("registers");
    let (bytes, rest) = allocated(|| {
        (1..25)
            .map(|_| session.register(&query).expect("registers"))
            .collect::<Vec<QueryHandle>>()
    });
    assert_eq!(session.operators(), 1);
    assert!(
        bytes < histogram,
        "24 same-shape registrations took {bytes} B, one latency recorder {histogram} B"
    );

    // Each still reads every result, with the latency history they share.
    for i in 0..100u64 {
        session.push(Event::new(i, i, Row::new([Value::Float(1.0)])));
    }
    session.finish();
    let expected = first.poll();
    assert_eq!(expected.len(), 10);
    for h in &rest {
        assert_eq!(h.poll(), expected);
        assert_eq!(h.latency_quantile(0.5), first.latency_quantile(0.5));
        assert_eq!(h.stats().emitted, 10);
    }
}
