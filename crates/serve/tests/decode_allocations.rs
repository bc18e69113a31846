//! What one `Decoder::decode` call allocates: its output, once, whatever
//! the number of numeric frames it decodes, in either wire mode. A counting
//! global allocator counts the heap blocks each call asks for (a `realloc`
//! counts as one). The daemon's core thread frees every block a reader
//! allocated, so a block per event is a cross-thread free per event. This
//! file holds one test, so nothing else allocates while it counts.

use quill_engine::prelude::{Timestamp, Value};
use quill_serve::wire::{self, Decoder, Frame};
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
/// The daemon's batch cap at its default queue capacity.
const LIMIT: usize = 512;

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

/// Feed `bytes` in 4 KiB reads and drain the decoder after each, as the
/// daemon's reader does. Returns `(frames, blocks)` for every `decode` call
/// that returned frames.
fn decode_calls(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut decoder = Decoder::new(1024);
    let mut calls = Vec::with_capacity(2 * bytes.len() / READ + 2);
    for read in bytes.chunks(READ) {
        decoder.extend(read);
        loop {
            let before = BLOCKS.load(Relaxed);
            let items = decoder.decode(LIMIT).expect("own frames decode");
            let frames = items.len();
            drop(items);
            if frames == 0 {
                break;
            }
            calls.push((frames, BLOCKS.load(Relaxed) - before));
        }
    }
    assert_eq!(calls.iter().map(|c| c.0).sum::<usize>(), FRAMES);
    calls
}

/// The benchmark's event shape: a two-decimal reading and an integer key.
fn reading(i: usize) -> Vec<Value> {
    let v = 80.0 + (i * 7919 % 4000) as f64 / 100.0;
    vec![Value::Float(v), Value::Int((i % 64) as i64)]
}

#[test]
fn a_decode_call_allocates_its_output_once_whatever_the_frame_count() {
    for binary in [false, true] {
        let mode = if binary { "QBIN" } else { "text" };

        // Numeric rows within the inline capacity: one block per call.
        let calls = decode_calls(&stream(binary, reading));
        for &(frames, blocks) in &calls {
            assert!(
                blocks <= 1,
                "{mode}: {blocks} blocks for a call decoding {frames} frames"
            );
        }

        // A row wider than the inline capacity allocates its spill, once.
        let wide = |i: usize| {
            let mut values = reading(i);
            values.extend([Value::Int(i as i64), Value::Float(0.5)]);
            values
        };
        for (frames, blocks) in decode_calls(&stream(binary, wide)) {
            assert_eq!(blocks, 1 + frames, "{mode}: four-value rows");
        }

        // A string value still allocates its text: out of this scope.
        let named = |i: usize| vec![Value::str(format!("host-{}", i % 8)), Value::Int(1)];
        for (frames, blocks) in decode_calls(&stream(binary, named)) {
            assert_eq!(blocks, 1 + frames, "{mode}: one string per row");
        }
    }
}
