//! What one emitted window result allocates on its way to the queries that
//! subscribe to it: the same heap blocks with one subscriber as with
//! twenty-five of the same shape, which share one operator and one result
//! log. A counting global allocator counts the heap blocks (a `realloc`
//! counts as one). This file holds one test, so nothing else allocates
//! while it counts.

use quill_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counter is a statistic and guards nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A socket-sized batch, as the daemon pushes them.
const BATCH: u64 = 125;

/// Per result of a tumbling Sum, once the buffers are warm: the partials
/// of the pane its window opened, its output values and the `Arc` its
/// subscribers share.
const BLOCKS_PER_RESULT: usize = 3;

/// `(blocks, results)` over 100 batches pushed after a warm-up, with
/// `subscribers` same-shape queries polled after every batch (the polls
/// are not counted: a poll's output vector is the consumer's).
fn emission_blocks(subscribers: usize) -> (usize, usize) {
    let mut session = Session::new(Box::new(FixedKSlack::new(20u64)));
    let query = QuerySpec::builder()
        .window(WindowSpec::tumbling(10u64))
        .aggregate(AggregateKind::Sum, 0, "sum")
        .build()
        .expect("valid query");
    let handles: Vec<QueryHandle> = (0..subscribers)
        .map(|_| session.register(&query).expect("registers"))
        .collect();
    assert_eq!(session.operators(), 1);
    let batch = |round: u64| -> Vec<Event> {
        (round * BATCH..(round + 1) * BATCH)
            .map(|i| Event::new(i, i, Row::new([Value::Float(1.0)])))
            .collect()
    };
    let (mut blocks, mut results) = (0, 0);
    for round in 0..120 {
        let events = batch(round);
        let delivered = session.stats().results;
        let before = BLOCKS.load(Relaxed);
        session.push_batch(events);
        let after = BLOCKS.load(Relaxed);
        let emitted = (session.stats().results - delivered) as usize / subscribers;
        if round >= 20 {
            blocks += after - before;
            results += emitted;
        }
        for h in &handles {
            assert_eq!(h.poll().len(), emitted);
        }
    }
    (blocks, results)
}

#[test]
fn a_result_allocates_the_same_blocks_whatever_the_subscriber_count() {
    for subscribers in [1, 25] {
        let (blocks, results) = emission_blocks(subscribers);
        assert!(results >= 1_000, "{results} results");
        assert_eq!(
            blocks,
            BLOCKS_PER_RESULT * results,
            "{subscribers} subscribers: {blocks} blocks for {results} results"
        );
    }
}
