//! What one `Decoder::decode` call allocates into a reused batch: nothing,
//! once the batch has grown, whatever the number of numeric frames it
//! decodes, in either wire mode. A counting global allocator counts the heap
//! blocks each call asks for (a `realloc` counts as one). The daemon's
//! reader threads decode every read into one batch per connection and push
//! it under the session lock, so a block per read or per event would be
//! allocator work on the served path. This file holds one test, so nothing
//! else allocates while it counts.

use quill_engine::prelude::{Timestamp, Value};
use quill_serve::wire::{self, Decoder, Frame, Item};
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

const FRAMES: usize = 10_000;
const READ: usize = 4 * 1024;
/// The daemon's batch cap.
const LIMIT: usize = quill_serve::server::MAX_BATCH;

/// `FRAMES` data frames built by `values(i)`, encoded in one wire mode.
fn stream(binary: bool, values: impl Fn(usize) -> Vec<Value>) -> Vec<u8> {
    let mut bytes = Vec::new();
    if binary {
        bytes.extend_from_slice(wire::BINARY_MAGIC);
    }
    for i in 0..FRAMES {
        let frame = Frame::Data {
            ts: Timestamp(i as u64 * 3),
            values: values(i),
        };
        if binary {
            bytes.extend_from_slice(&wire::encode_frame(&frame));
        } else {
            bytes.extend_from_slice(wire::to_line(&frame).as_bytes());
            bytes.push(b'\n');
        }
    }
    bytes
}

/// Feed `bytes` in 4 KiB reads and decode after each into `batch`, emptied
/// after each call as the daemon's push empties it. Returns `(frames,
/// blocks)` for every `decode` call that returned frames.
fn decode_calls(bytes: &[u8], batch: &mut Vec<Item>) -> Vec<(usize, usize)> {
    let mut decoder = Decoder::new(1024);
    let mut calls = Vec::with_capacity(2 * bytes.len() / READ + 2);
    for read in bytes.chunks(READ) {
        decoder.extend(read);
        loop {
            let before = BLOCKS.load(Relaxed);
            let frames = decoder.decode(batch, LIMIT).expect("own frames decode");
            let blocks = BLOCKS.load(Relaxed) - before;
            batch.clear();
            if frames == 0 {
                break;
            }
            calls.push((frames, blocks));
        }
    }
    assert_eq!(calls.iter().map(|c| c.0).sum::<usize>(), FRAMES);
    calls
}

/// [`decode_calls`] over `bytes` twice with one batch: the first pass grows
/// the batch, the second is what the daemon's reader does from then on.
fn warm_decode_calls(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut batch = Vec::new();
    decode_calls(bytes, &mut batch);
    decode_calls(bytes, &mut batch)
}

/// The benchmark's event shape: a two-decimal reading and an integer key.
fn reading(i: usize) -> Vec<Value> {
    let v = 80.0 + (i * 7919 % 4000) as f64 / 100.0;
    vec![Value::Float(v), Value::Int((i % 64) as i64)]
}

#[test]
fn a_reused_batch_decodes_with_no_allocation_after_warm_up() {
    for binary in [false, true] {
        let mode = if binary { "QBIN" } else { "text" };

        // Numeric rows within the inline capacity: no block at all.
        for (frames, blocks) in warm_decode_calls(&stream(binary, reading)) {
            assert_eq!(
                blocks, 0,
                "{mode}: {blocks} blocks for a call decoding {frames} frames"
            );
        }

        // A row wider than the inline capacity allocates its spill, once.
        let wide = |i: usize| {
            let mut values = reading(i);
            values.extend([Value::Int(i as i64), Value::Float(0.5)]);
            values
        };
        for (frames, blocks) in warm_decode_calls(&stream(binary, wide)) {
            assert_eq!(blocks, frames, "{mode}: four-value rows");
        }

        // A string value still allocates its text: out of this scope.
        let named = |i: usize| vec![Value::str(format!("host-{}", i % 8)), Value::Int(1)];
        for (frames, blocks) in warm_decode_calls(&stream(binary, named)) {
            assert_eq!(blocks, frames, "{mode}: one string per row");
        }
    }
}
