//! Property tests of [`wire::Decoder`]: however a text or QBIN byte stream is
//! cut into socket reads, and whatever the batch limit, it decodes to the
//! frames that were encoded, in order, and a bad frame mid-stream is reported
//! after exactly the frames before it.

use proptest::prelude::*;
use quill_engine::prelude::{Timestamp, Value};
use quill_serve::wire::{self, Decoder, Frame};

const MAX_FRAME: usize = 256;

/// Values both wire modes spell and read back unchanged.
fn any_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Float),
        "[a-z]{1,6}".prop_map(|s| Value::str(format!("k{s}_"))),
    ]
}

fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u64>(), prop::collection::vec(any_value(), 1..5)).prop_map(|(ts, values)| {
            Frame::Data {
                ts: Timestamp(ts),
                values,
            }
        }),
        (any::<u64>(), any_value()).prop_map(|(ts, source)| Frame::Heartbeat {
            ts: Timestamp(ts),
            source,
        }),
    ]
}

/// Which malformed frame, if any, replaces the frame at an index.
#[derive(Debug, Clone, Copy)]
enum Bad {
    /// Unparseable content (bad timestamp / unknown payload tag).
    Garbage,
    /// Longer than `MAX_FRAME`.
    Oversized,
    /// Bytes that are not UTF-8 (text) / trailing bytes after the payload.
    Encoding,
}

fn any_bad() -> impl Strategy<Value = Bad> {
    prop_oneof![
        Just(Bad::Garbage),
        Just(Bad::Oversized),
        Just(Bad::Encoding)
    ]
}

/// Encode `frames`, with `bad` (if in range) taking the place of one frame.
/// Text streams get a comment or blank line before every third frame.
fn encode(frames: &[Frame], binary: bool, bad: Option<(usize, Bad)>) -> Vec<u8> {
    let mut out = Vec::new();
    if binary {
        out.extend_from_slice(wire::BINARY_MAGIC);
    }
    for (i, f) in frames.iter().enumerate() {
        let kind = bad.filter(|(at, _)| *at == i).map(|(_, kind)| kind);
        if binary {
            match kind {
                None => out.extend_from_slice(&wire::encode_frame(f)),
                Some(Bad::Garbage) => out.extend_from_slice(&[0, 0, 0, 1, 0x09]),
                Some(Bad::Oversized) => {
                    out.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
                }
                Some(Bad::Encoding) => {
                    let mut payload = wire::encode_payload(f);
                    payload.push(0xff);
                    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                    out.extend_from_slice(&payload);
                }
            }
        } else {
            if i % 3 == 1 {
                out.extend_from_slice(if i % 2 == 0 { b"\n" } else { b"# note\n" });
            }
            match kind {
                None => out.extend_from_slice(wire::to_line(f).as_bytes()),
                Some(Bad::Garbage) => out.extend_from_slice(b"oops 1 2"),
                Some(Bad::Oversized) => out.extend_from_slice(&[b'7'; MAX_FRAME + 1]),
                Some(Bad::Encoding) => out.extend_from_slice(&[b'1', b' ', 0xff, 0xfe]),
            }
            out.push(b'\n');
        }
    }
    out
}

/// Feed `bytes` in reads of the given sizes (cycled), decoding at most
/// `limit` frames per call as the server's reader does, then close. Returns
/// the frames and whether the stream ended in an error.
fn decode(bytes: &[u8], reads: &[usize], limit: usize) -> (Vec<Frame>, bool) {
    let mut decoder = Decoder::new(MAX_FRAME);
    let mut frames = Vec::new();
    let mut drain = |decoder: &mut Decoder| loop {
        match decoder.decode(limit) {
            Ok(batch) if batch.is_empty() => return true,
            Ok(batch) => {
                assert!(batch.len() <= limit, "batch over the limit");
                frames.extend(batch);
            }
            Err(_) => return false,
        }
    };
    let mut rest = bytes;
    let mut sizes = reads.iter().cycle();
    while !rest.is_empty() {
        let n = (*sizes.next().expect("at least one read size")).min(rest.len());
        decoder.extend(&rest[..n]);
        rest = &rest[n..];
        if !drain(&mut decoder) {
            return (frames, true);
        }
    }
    decoder.close();
    let ok = drain(&mut decoder);
    (frames, !ok)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_split_decodes_like_one_whole_buffer(
        frames in prop::collection::vec(any_frame(), 1..40),
        binary in any::<bool>(),
        bad_at in 0usize..80,
        bad_kind in any_bad(),
        reads in prop::collection::vec(1usize..48, 1..12),
        limit in 1usize..9,
        terminated in any::<bool>(),
    ) {
        // Half the cases carry a bad frame (an index past the end means none).
        let bad = Some((bad_at, bad_kind)).filter(|(at, _)| *at < frames.len());
        let mut bytes = encode(&frames, binary, bad);
        if !binary && !terminated {
            bytes.pop(); // the last line ends at EOF, not at a newline
        }
        let expected = &frames[..bad.map_or(frames.len(), |(at, _)| at)];

        let whole = decode(&bytes, &[bytes.len()], usize::MAX);
        prop_assert_eq!(&whole.0[..], expected, "whole-buffer frames");
        prop_assert_eq!(whole.1, bad.is_some(), "whole-buffer error");

        let split = decode(&bytes, &reads, limit);
        prop_assert_eq!(&split, &whole, "reads {:?}, limit {}", reads, limit);

        let bytewise = decode(&bytes, &[1], 1);
        prop_assert_eq!(&bytewise, &whole, "1-byte reads");
    }
}

#[test]
fn a_stream_shorter_than_the_magic_is_text_at_eof() {
    let mut decoder = Decoder::new(MAX_FRAME);
    decoder.extend(b"7 1");
    assert!(decoder.decode(8).expect("undecided").is_empty());
    assert!(decoder.has_partial());
    decoder.close();
    let frames = decoder.decode(8).expect("a text line");
    assert_eq!(
        frames,
        vec![Frame::Data {
            ts: Timestamp(7),
            values: vec![Value::Int(1)],
        }]
    );
    assert!(!decoder.has_partial());
}

#[test]
fn an_unterminated_line_is_refused_once_it_outgrows_the_frame_limit() {
    let mut decoder = Decoder::new(MAX_FRAME);
    decoder.extend(&[b'1'; MAX_FRAME]);
    assert!(decoder
        .decode(8)
        .expect("still within the limit")
        .is_empty());
    decoder.extend(b"1");
    assert!(
        decoder.decode(8).is_err(),
        "a line that can only be too long"
    );
}
