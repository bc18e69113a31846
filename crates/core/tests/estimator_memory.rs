//! The delay estimator's memory under hostile delays: at most the dense
//! Fenwick slots and one B-tree leaf plus a pinned number of bytes per
//! sampled delay, whatever the delays are, and back to the dense slots and
//! the arrival-order ring once the hostile delays are evicted. A counting
//! global allocator measures the bytes live; this file holds one test, so
//! nothing else allocates while it measures.

use quill_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which meets the
// `GlobalAlloc` contract; the counter is a statistic and guards nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The dense Fenwick slots: 2¹³ delays × `[count, count × delay]` of `u64`.
const DENSE_BYTES: usize = (1 << 13) * 16;

/// Bytes per sampled delay: 8 in the arrival-order ring, plus its overflow
/// map entry when it is past the dense bound (a B-tree node is at least
/// about half full, so an entry costs at most about 45 bytes).
const PER_DELAY: usize = 64;

/// The overflow map's root leaf, allocated whole for its first entry and
/// kept when the map empties.
const ROOT_LEAF: usize = 256;

#[test]
fn hostile_delays_hold_memory_bounded_by_the_sample() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for capacity in [1, 64, 4096] {
        let base = LIVE.load(Relaxed);
        let mut est = DelayEstimator::new(capacity);
        let mut peak = 0;
        for i in 0..100_000u64 {
            let d = match i % 4 {
                0 => u64::MAX / 2,
                1 | 2 => next() % (1 << 40),
                _ => next() % 5_000,
            };
            est.observe(TimeDelta(d));
            peak = peak.max(LIVE.load(Relaxed) - base);
        }
        let bound = DENSE_BYTES + ROOT_LEAF + PER_DELAY * capacity;
        assert!(
            peak <= bound,
            "capacity {capacity}: {peak} B live, bound {bound}"
        );
        assert_eq!(est.max_ever(), TimeDelta(u64::MAX / 2));

        // A full window of small delays evicts every hostile one.
        for d in 0..capacity as u64 {
            est.observe(TimeDelta(d % 100));
        }
        let live = LIVE.load(Relaxed) - base;
        let bound = DENSE_BYTES + ROOT_LEAF + 8 * capacity;
        assert!(
            live <= bound,
            "capacity {capacity}: {live} B live after eviction, bound {bound}"
        );
        assert_eq!(
            est.quantile(1.0),
            Some(TimeDelta(99.min(capacity as u64 - 1)))
        );
        drop(est);
        assert_eq!(LIVE.load(Relaxed), base, "capacity {capacity}: leaked");
    }
}
