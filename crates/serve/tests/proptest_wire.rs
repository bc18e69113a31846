//! Property tests of [`wire::Decoder`]: however a text or QBIN byte stream is
//! cut into socket reads, and whatever the batch limit, it decodes to the
//! frames that were encoded, in order, and a bad frame mid-stream is reported
//! after exactly the frames before it. And of the two fast paths: a numeric
//! text line decodes exactly as the general token-by-token parse reads it,
//! and a QBIN payload exactly as the value-by-value read does, errors
//! included.

use proptest::prelude::*;
use quill_engine::prelude::{Row, Timestamp, Value};
use quill_serve::error::ServeResult;
use quill_serve::wire::{self, Decoder, Frame, Item};

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
    let mut batch = Vec::new();
    let mut drain = |decoder: &mut Decoder| loop {
        match decoder.decode(&mut batch, limit) {
            Ok(0) => return true,
            Ok(n) => {
                assert!(n <= limit, "batch over the limit");
                assert_eq!(n, batch.len(), "the count is what was appended");
                frames.extend(batch.drain(..).map(Frame::from));
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
    let mut items = Vec::new();
    decoder.extend(b"7 1");
    assert_eq!(decoder.decode(&mut items, 8).expect("undecided"), 0);
    assert!(decoder.has_partial());
    decoder.close();
    assert_eq!(decoder.decode(&mut items, 8).expect("a text line"), 1);
    assert_eq!(
        items,
        vec![Item::Data {
            ts: Timestamp(7),
            row: Row::new([Value::Int(1)]),
        }]
    );
    assert!(!decoder.has_partial());
}

#[test]
fn an_unterminated_line_is_refused_once_it_outgrows_the_frame_limit() {
    let mut decoder = Decoder::new(MAX_FRAME);
    let mut items = Vec::new();
    decoder.extend(&[b'1'; MAX_FRAME]);
    assert_eq!(
        decoder
            .decode(&mut items, 8)
            .expect("still within the limit"),
        0
    );
    decoder.extend(b"1");
    assert!(
        decoder.decode(&mut items, 8).is_err(),
        "a line that can only be too long"
    );
}

/// A parse result spelled so that `Int` and `Float` differ and floats compare
/// by their bits (`-0.0` is not `0.0`, and `NaN` is itself).
fn exact(parsed: &ServeResult<Option<Frame>>) -> String {
    fn value(v: &Value) -> String {
        match v {
            Value::Float(f) => format!("Float({:#018x})", f.to_bits()),
            other => format!("{other:?}"),
        }
    }
    match parsed {
        Ok(Some(Frame::Data { ts, values })) => {
            let values: Vec<String> = values.iter().map(value).collect();
            format!("data {} [{}]", ts.raw(), values.join(", "))
        }
        Ok(Some(Frame::Heartbeat { ts, source })) => format!("hb {} {}", ts.raw(), value(source)),
        Ok(None) => "none".into(),
        Err(e) => format!("error: {e}"),
    }
}

/// The general path's reading of `line`: tabs are ASCII whitespace to it,
/// as spaces are, but no line with a tab takes the fast path.
fn general(line: &str) -> String {
    exact(&wire::parse_line(&line.replace(' ', "\t"))).replace('\t', " ")
}

const LOOKALIKES: [&str; 9] = ["-", ".", "-.", "1-2", "1.2.3", "--1", "-0", "-0.0", "00"];

/// Tokens made of what the fast path reads: digits, `.` and `-`. Most are
/// integers or decimals; some only look numeric (`-`, `.`, `1-2`, `1.2.3`)
/// or carry more digits than the fast path takes.
fn numeric_token() -> impl Strategy<Value = String> {
    let digits = |n: std::ops::Range<usize>| prop::collection::vec(0u8..10, n);
    let spell = |d: Vec<u8>| d.iter().map(|d| char::from(b'0' + d)).collect::<String>();
    prop_oneof![
        any::<i64>().prop_map(|i| i.to_string()),
        (0usize..3, any::<u64>()).prop_map(|(zeros, m)| format!("{}{m}", "0".repeat(zeros))),
        (any::<bool>(), digits(0..12), digits(0..12)).prop_map(move |(neg, int, frac)| {
            format!(
                "{}{}.{}",
                if neg { "-" } else { "" },
                spell(int),
                spell(frac)
            )
        }),
        (any::<bool>(), digits(0..24), digits(0..24)).prop_map(move |(neg, int, frac)| {
            format!(
                "{}{}.{}",
                if neg { "-" } else { "" },
                spell(int),
                spell(frac)
            )
        }),
        (-1e12f64..1e12).prop_map(|f| f.to_string()),
        (0..LOOKALIKES.len()).prop_map(|i| LOOKALIKES[i].to_string()),
    ]
}

/// Lines of numeric tokens joined by one to three spaces, sometimes with
/// spaces around them; the first token is the timestamp.
fn numeric_line() -> impl Strategy<Value = String> {
    let sep = (1usize..4).prop_map(|n| " ".repeat(n));
    (
        prop_oneof![any::<u64>().prop_map(|t| t.to_string()), numeric_token()],
        prop::collection::vec((sep, numeric_token()), 0..6),
        0usize..3,
        0usize..3,
    )
        .prop_map(|(ts, rest, lead, trail)| {
            let mut line = " ".repeat(lead) + &ts;
            for (sep, tok) in rest {
                line += &sep;
                line += &tok;
            }
            line + &" ".repeat(trail)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn numeric_lines_parse_as_the_general_path_reads_them(line in numeric_line()) {
        let fast = exact(&wire::parse_line(&line));
        prop_assert_eq!(fast, general(&line), "line `{}`", line);
    }
}

#[test]
fn edge_tokens_parse_as_the_general_path_reads_them() {
    let float = Value::Float;
    let int = Value::Int;
    let table: Vec<(&str, Vec<Value>)> = vec![
        ("1 -0.0", vec![float(-0.0)]),
        ("1 -0", vec![int(0)]),
        ("1 0.0 -.5", vec![float(0.0), float(-0.5)]),
        ("1 .5", vec![float(0.5)]),
        ("1 5.", vec![float(5.0)]),
        ("1 +5", vec![int(5)]),
        ("1 007 -007.50", vec![int(7), float(-7.5)]),
        // 15, 16 (under and over 2^53) and 19 significant digits.
        ("1 123456789012.345", vec![float(123_456_789_012.345)]),
        ("1 1234567890.123456", vec![float(1_234_567_890.123_456)]),
        ("1 9999999999999.999", vec![float(9_999_999_999_999.999)]),
        (
            "1 1234567890.123456789",
            vec![float(1_234_567_890.123_456_7)],
        ),
        (
            "1 0.1234567890123456789",
            vec![float(0.123_456_789_012_345_68)],
        ),
        (
            "1 1234567890123456789",
            vec![int(1_234_567_890_123_456_789)],
        ),
        ("1 -9223372036854775808", vec![int(i64::MIN)]),
        (
            "1 9223372036854775808",
            vec![float(9_223_372_036_854_775_808.0)],
        ),
        ("1 0.0000000000000000000001", vec![float(1e-22)]),
        ("1 0.00000000000000000000001", vec![float(1e-23)]),
        ("1 1e5", vec![float(1e5)]),
        (
            "1 inf -inf",
            vec![float(f64::INFINITY), float(f64::NEG_INFINITY)],
        ),
        ("1 NaN", vec![float(f64::NAN)]),
        ("1\t2\t3.5", vec![int(2), float(3.5)]),
        ("1 2\r", vec![int(2)]),
        ("1  2  3", vec![int(2), int(3)]),
        ("  1 2  ", vec![int(2)]),
        ("1 2\u{a0}3", vec![Value::str("2\u{a0}3")]),
        ("\u{a0}1 2\u{a0}", vec![int(2)]),
        (
            "1 - . 1-2 1.2.3",
            ["-", ".", "1-2", "1.2.3"].map(Value::str).to_vec(),
        ),
    ];
    for (line, values) in table {
        let expected = exact(&Ok(Some(Frame::Data {
            ts: Timestamp(1),
            values,
        })));
        assert_eq!(exact(&wire::parse_line(line)), expected, "line `{line}`");
        assert_eq!(general(line), expected, "general path, line `{line}`");
    }
    for line in [
        "-1 2",
        "1.5 2",
        "18446744073709551616 2",
        "7",
        "7   ",
        "- 1",
    ] {
        let parsed = wire::parse_line(line);
        assert!(parsed.is_err(), "line `{line}`: {}", exact(&parsed));
        assert_eq!(exact(&parsed), general(line), "line `{line}`");
    }
}

/// One encoded QBIN value of any tag the wire defines — strings with valid
/// and invalid UTF-8 among them — or of a tag it does not. Numeric tags come
/// up most often, so that whole payloads take the fast path.
fn any_value_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0u8..12, any::<u64>(), "[a-z]{0,5}").prop_map(|(pick, word, text)| {
        let tagged = |tag: u8, body: &[u8]| [&[tag][..], body].concat();
        match pick {
            0 => vec![0x00],
            1..=3 => tagged(0x01, &word.to_be_bytes()),
            4..=6 => tagged(0x02, &word.to_be_bytes()),
            7 => {
                let len = (text.len() as u16).to_be_bytes();
                tagged(0x03, &[&len[..], text.as_bytes()].concat())
            }
            8 => vec![0x03, 0x00, 0x02, 0xff, 0xfe],
            9 | 10 => tagged(0x04, &[word as u8]),
            _ => vec![0x05 + (word % 0xfb) as u8],
        }
    })
}

/// A QBIN payload: mostly a data frame whose declared value count (0-4)
/// matches the values that follow; sometimes a count off by one, a
/// heartbeat or an unknown frame tag, a payload cut short, or trailing
/// bytes.
fn any_payload() -> impl Strategy<Value = Vec<u8>> {
    (
        (0u8..8, any::<u8>()),
        any::<u64>(),
        prop::collection::vec(any_value_bytes(), 0..5),
        0u8..10,
        (0u8..7, any::<usize>()),
        (0u8..7, prop::collection::vec(any::<u8>(), 1..3)),
    )
        .prop_map(
            |((tag, other), ts, values, skew, (cut, at), (trail, trailing))| {
                let tag = match tag {
                    0..=5 => 0x01,
                    6 => 0x02,
                    _ => other,
                };
                let mut payload = vec![tag];
                payload.extend(ts.to_be_bytes());
                if tag != 0x02 {
                    let n = match skew {
                        0 => values.len().saturating_sub(1),
                        1 => values.len() + 1,
                        _ => values.len(),
                    };
                    payload.extend((n as u16).to_be_bytes());
                }
                payload.extend(values.concat());
                if cut == 0 {
                    payload.truncate(at % (payload.len() + 1));
                }
                if trail == 0 {
                    payload.extend(trailing);
                }
                payload
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn qbin_payloads_decode_as_the_exact_path_reads_them(
        payloads in prop::collection::vec(any_payload(), 1..12),
    ) {
        let read = |p: &[u8], fast: bool| {
            let frame = if fast { wire::decode_payload(p) } else { wire::decode_payload_exact(p) };
            exact(&frame.map(Some))
        };
        for p in &payloads {
            prop_assert_eq!(read(p, true), read(p, false), "payload {:02x?}", p);
        }

        // Streamed, the decoder gives the exact path's frames up to the
        // first payload it refuses, then that payload's error.
        let mut expected = Vec::new();
        for p in &payloads {
            let frame = read(p, false);
            let refused = frame.starts_with("error");
            expected.push(frame);
            if refused {
                break;
            }
        }
        let mut bytes = wire::BINARY_MAGIC.to_vec();
        for p in &payloads {
            bytes.extend((p.len() as u32).to_be_bytes());
            bytes.extend(p);
        }
        let mut decoder = Decoder::new(MAX_FRAME);
        decoder.extend(&bytes);
        let mut batch = Vec::new();
        let mut got = Vec::new();
        loop {
            match decoder.decode(&mut batch, usize::MAX) {
                Ok(0) => break,
                Ok(_) => got.extend(batch.drain(..).map(|item| exact(&Ok(Some(Frame::from(item)))))),
                Err(e) => {
                    got.push(exact(&Err(e)));
                    break;
                }
            }
        }
        prop_assert_eq!(got, expected);
    }
}
