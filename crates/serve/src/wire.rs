//! The ingest wire protocol: newline-delimited text and length-prefixed
//! binary framing over one TCP port.
//!
//! A connection that opens with the 4-byte magic `QBIN` speaks the binary
//! protocol; anything else is parsed as text lines. Both carry the same two
//! frame kinds:
//!
//! * **Data**: an event-time timestamp plus a row of values.
//! * **Heartbeat**: a per-source progress promise (`no future event from
//!   this source is older than ts`), feeding progress-driven strategies
//!   like `PunctuatedBuffer`.
//!
//! # Text frames
//!
//! ```text
//! <ts> <v1> <v2> ...     # data: integers, floats, true/false, or strings
//! hb <ts> <source>       # heartbeat
//! ```
//!
//! # Binary frames
//!
//! Every frame is `u32 big-endian payload length` + payload. Payloads:
//!
//! ```text
//! 0x01 u64(ts) u16(n) value*n       # data
//! 0x02 u64(ts) value                # heartbeat (value = source key)
//! value = 0x00                      # null
//!       | 0x01 i64                  # int
//!       | 0x02 f64-bits             # float
//!       | 0x03 u16(len) utf8        # str
//!       | 0x04 u8                   # bool
//! ```
//!
//! All integers are big-endian. Arrival sequence numbers are assigned by
//! the server under the session lock, in the order reads push their frames
//! (a global arrival order across connections), so the wire never carries
//! them.
//!
//! [`Decoder`] turns the bytes of successive socket reads into [`Item`]s
//! without touching a socket: the server's reader threads drive it, and so
//! can a test. An item is a [`Frame`] whose data values already sit in the
//! event's [`Row`]; [`parse_line`] and [`decode_payload`] run the same
//! decoding and hand back a `Frame`. Both wire modes read a numeric data
//! frame on a fast path that builds its row in one pass, and leave every
//! other frame, and every error, to the exact path.

use crate::error::{ServeError, ServeResult};
use quill_engine::prelude::{Row, Timestamp, Value};
use std::io::Read;

/// The 4-byte preamble selecting the binary protocol for a connection.
pub const BINARY_MAGIC: &[u8; 4] = b"QBIN";

/// One parsed ingest frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A data event: timestamp plus payload values (sequence numbers are
    /// assigned server-side in arrival order).
    Data {
        /// Event-time timestamp.
        ts: Timestamp,
        /// Payload values in field order.
        values: Vec<Value>,
    },
    /// A per-source heartbeat.
    Heartbeat {
        /// Event-time low bound promised by the source.
        ts: Timestamp,
        /// The source's key value.
        source: Value,
    },
}

/// One decoded ingest frame as the session takes it: a data frame's values
/// are already its event's [`Row`], so a row of up to a few numeric values
/// costs no heap block of its own.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A data event: timestamp plus payload row.
    Data {
        /// Event-time timestamp.
        ts: Timestamp,
        /// Payload values in field order.
        row: Row,
    },
    /// A per-source heartbeat.
    Heartbeat {
        /// Event-time low bound promised by the source.
        ts: Timestamp,
        /// The source's key value.
        source: Value,
    },
}

impl From<Item> for Frame {
    fn from(item: Item) -> Frame {
        match item {
            Item::Data { ts, row } => Frame::Data {
                ts,
                values: row.into(),
            },
            Item::Heartbeat { ts, source } => Frame::Heartbeat { ts, source },
        }
    }
}

/// Parse one scalar token of the text protocol.
fn parse_value(tok: &str) -> Value {
    if let Ok(i) = tok.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = tok.parse::<f64>() {
        return Value::Float(f);
    }
    match tok {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        "null" => Value::Null,
        s => Value::str(s),
    }
}

/// Parse one text line into a frame. Empty lines and `#` comments yield
/// `None`.
///
/// # Errors
/// [`ServeError::Protocol`] naming the malformed token.
pub fn parse_line(line: &str) -> ServeResult<Option<Frame>> {
    Ok(line_item(line.as_bytes())?.map(Frame::from))
}

/// Decode one text line (without its `\n`): [`numeric_line`] when it
/// applies, the token-by-token parse otherwise.
fn line_item(line: &[u8]) -> ServeResult<Option<Item>> {
    if let Some(item) = numeric_line(line) {
        return Ok(Some(item));
    }
    let line =
        std::str::from_utf8(line).map_err(|_| ServeError::Protocol("non-utf8 text line".into()))?;
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut toks = line.split_ascii_whitespace();
    let head = toks.next().unwrap_or_default();
    if head == "hb" {
        let ts = toks
            .next()
            .and_then(|t| t.parse::<u64>().ok())
            .ok_or_else(|| {
                ServeError::Protocol(format!("heartbeat needs `hb <ts> <source>`: `{line}`"))
            })?;
        let source = toks
            .next()
            .map(parse_value)
            .ok_or_else(|| ServeError::Protocol(format!("heartbeat needs a source: `{line}`")))?;
        return Ok(Some(Item::Heartbeat {
            ts: Timestamp(ts),
            source,
        }));
    }
    let ts: u64 = head
        .parse()
        .map_err(|_| ServeError::Protocol(format!("bad timestamp `{head}` in `{line}`")))?;
    let row: Row = toks.map(parse_value).collect();
    if row.is_empty() {
        return Err(ServeError::Protocol(format!(
            "data line has no values: `{line}`"
        )));
    }
    Ok(Some(Item::Data {
        ts: Timestamp(ts),
        row,
    }))
}

/// The exact powers of ten an `f64` holds: 10²² is the last.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The one-pass parse of a data line made of ASCII digits, `.`, `-` and
/// spaces: a timestamp then integers and plain decimals, read byte by byte
/// straight into the row. `None` leaves the line to the general path in
/// [`line_item`], which then gives every answer and error; this path only
/// takes a line it reads exactly as that path would.
///
/// A decimal `m / 10^f` with `m ≤ 2⁵³` and `f ≤ 22` divides two exact
/// doubles, and IEEE division rounds that quotient correctly (Clinger's fast
/// case), so the value is bit for bit what `str::parse::<f64>` returns.
fn numeric_line(line: &[u8]) -> Option<Item> {
    let mut toks = line.split(|&b| b == b' ').filter(|t| !t.is_empty());
    let (false, ts, None) = number(toks.next()?)? else {
        return None;
    };
    let mut row = Row::empty();
    for tok in toks {
        row.push(match number(tok)? {
            (false, m, None) => Value::Int(i64::try_from(m).ok()?),
            (true, m, None) => Value::Int(0i64.checked_sub_unsigned(m)?),
            (neg, m, Some(frac)) => {
                if m > 1 << 53 {
                    return None;
                }
                let x = m as f64 / *POW10.get(frac)?;
                Value::Float(if neg { -x } else { x })
            }
        });
    }
    (!row.is_empty()).then_some(Item::Data {
        ts: Timestamp(ts),
        row,
    })
}

/// A token `-?digits` or `-?digits.digits` (either side of the point may be
/// empty, not both) as `(negative, digits as one integer, digits after the
/// point)`; `None` for anything else or more digits than a `u64` holds.
fn number(tok: &[u8]) -> Option<(bool, u64, Option<usize>)> {
    let (neg, digits) = match tok {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, tok),
    };
    let mut m: u64 = 0;
    let mut seen = false;
    let mut frac: Option<usize> = None;
    for &b in digits {
        match b {
            b'0'..=b'9' => {
                m = m.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
                seen = true;
                if let Some(f) = &mut frac {
                    *f += 1;
                }
            }
            b'.' if frac.is_none() => frac = Some(0),
            _ => return None,
        }
    }
    seen.then_some((neg, m, frac))
}

/// Render a frame as one text line (round-trips through [`parse_line`] for
/// values the text protocol can spell).
pub fn to_line(frame: &Frame) -> String {
    fn fmt_value(v: &Value) -> String {
        match v {
            Value::Null => "null".into(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                let s = f.to_string();
                // Keep floats distinguishable from ints on the wire.
                if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                    s
                } else {
                    format!("{s}.0")
                }
            }
            Value::Str(s) => s.to_string(),
            Value::Bool(b) => b.to_string(),
        }
    }
    match frame {
        Frame::Data { ts, values } => {
            let vals: Vec<String> = values.iter().map(fmt_value).collect();
            format!("{} {}", ts.raw(), vals.join(" "))
        }
        Frame::Heartbeat { ts, source } => {
            format!("hb {} {}", ts.raw(), fmt_value(source))
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0x00),
        Value::Int(i) => {
            out.push(0x01);
            out.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(f) => {
            out.push(0x02);
            out.extend_from_slice(&f.to_bits().to_be_bytes());
        }
        Value::Str(s) => {
            out.push(0x03);
            // A longer string is cut at the last char boundary that fits the
            // u16 length: a cut inside a character would not decode.
            let len = s.floor_char_boundary(u16::MAX as usize);
            out.extend_from_slice(&(len as u16).to_be_bytes());
            out.extend_from_slice(&s.as_bytes()[..len]);
        }
        Value::Bool(b) => {
            out.push(0x04);
            out.push(u8::from(*b));
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> ServeResult<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(ServeError::Protocol("truncated binary frame".into()));
        };
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> ServeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> ServeResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> ServeResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn value(&mut self) -> ServeResult<Value> {
        Ok(match self.u8()? {
            0x00 => Value::Null,
            0x01 => Value::Int(self.u64()? as i64),
            0x02 => Value::Float(f64::from_bits(self.u64()?)),
            0x03 => {
                let len = self.u16()? as usize;
                let bytes = self.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| ServeError::Protocol("non-utf8 string value".into()))?;
                Value::str(s)
            }
            0x04 => Value::Bool(self.u8()? != 0),
            tag => {
                return Err(ServeError::Protocol(format!(
                    "unknown value tag 0x{tag:02x}"
                )));
            }
        })
    }
}

/// Encode a frame's binary payload (without the length prefix).
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match frame {
        Frame::Data { ts, values } => {
            out.push(0x01);
            out.extend_from_slice(&ts.raw().to_be_bytes());
            let n = values.len().min(u16::MAX as usize) as u16;
            out.extend_from_slice(&n.to_be_bytes());
            for v in values.iter().take(n as usize) {
                put_value(&mut out, v);
            }
        }
        Frame::Heartbeat { ts, source } => {
            out.push(0x02);
            out.extend_from_slice(&ts.raw().to_be_bytes());
            put_value(&mut out, source);
        }
    }
    out
}

/// Encode a full binary frame: `u32` big-endian length + payload.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decode one binary payload (the bytes after the length prefix).
///
/// # Errors
/// [`ServeError::Protocol`] on truncation, unknown tags or trailing bytes.
pub fn decode_payload(payload: &[u8]) -> ServeResult<Frame> {
    payload_item(payload).map(Frame::from)
}

/// [`decode_payload`] without its fast path: every payload is read value by
/// value, as a string-carrying or malformed one always is. It gives the same
/// answer and the same error for every payload; it is public so that the two
/// paths can be checked against each other.
///
/// # Errors
/// As [`decode_payload`].
pub fn decode_payload_exact(payload: &[u8]) -> ServeResult<Frame> {
    exact_payload(payload).map(Frame::from)
}

/// Decode one binary payload: [`numeric_payload`] when it applies, the
/// value-by-value read otherwise.
fn payload_item(payload: &[u8]) -> ServeResult<Item> {
    numeric_payload(payload).map_or_else(|| exact_payload(payload), Ok)
}

/// The one-pass read of a data payload whose values are nulls, integers,
/// floats and booleans, straight into the row with no `Result` per value;
/// a two-value row (a reading and its key) is written in one store.
/// `None` leaves the payload to [`exact_payload`], which then gives every
/// answer and error; this path only takes a payload it reads exactly as
/// that path would.
fn numeric_payload(payload: &[u8]) -> Option<Item> {
    let [0x01, rest @ ..] = payload else {
        return None;
    };
    let (ts, rest) = rest.split_first_chunk::<8>()?;
    let (n, mut rest) = rest.split_first_chunk::<2>()?;
    let row = match u16::from_be_bytes(*n) {
        2 => {
            let (a, tail) = scalar(rest)?;
            let (b, tail) = scalar(tail)?;
            rest = tail;
            Row::pair(a, b)
        }
        n => {
            let mut row = Row::empty();
            for _ in 0..n {
                let (v, tail) = scalar(rest)?;
                row.push(v);
                rest = tail;
            }
            row
        }
    };
    rest.is_empty().then_some(Item::Data {
        ts: Timestamp(u64::from_be_bytes(*ts)),
        row,
    })
}

/// The fixed-width value at the head of `buf` and the bytes after it;
/// `None` for a string, an unknown tag or too few bytes.
fn scalar(buf: &[u8]) -> Option<(Value, &[u8])> {
    let (&tag, rest) = buf.split_first()?;
    match tag {
        0x00 => return Some((Value::Null, rest)),
        0x04 => {
            let (&b, rest) = rest.split_first()?;
            return Some((Value::Bool(b != 0), rest));
        }
        _ => {}
    }
    let (word, rest) = rest.split_first_chunk::<8>()?;
    let word = u64::from_be_bytes(*word);
    let v = match tag {
        0x01 => Value::Int(word as i64),
        0x02 => Value::Float(f64::from_bits(word)),
        _ => return None,
    };
    Some((v, rest))
}

/// [`decode_payload_exact`], the values read straight into the row.
fn exact_payload(payload: &[u8]) -> ServeResult<Item> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let item = match r.u8()? {
        0x01 => {
            let ts = Timestamp(r.u64()?);
            let n = r.u16()?;
            let mut row = Row::empty();
            for _ in 0..n {
                row.push(r.value()?);
            }
            Item::Data { ts, row }
        }
        0x02 => Item::Heartbeat {
            ts: Timestamp(r.u64()?),
            source: r.value()?,
        },
        tag => {
            return Err(ServeError::Protocol(format!(
                "unknown frame tag 0x{tag:02x}"
            )));
        }
    };
    if r.at != payload.len() {
        return Err(ServeError::Protocol(format!(
            "{} trailing bytes after frame",
            payload.len() - r.at
        )));
    }
    Ok(item)
}

/// Build an engine row from frame values.
pub fn row_from_values(values: Vec<Value>) -> Row {
    Row::new(values)
}

/// The most one [`Decoder::read_from`] takes from its source.
const READ_CHUNK: usize = 4 * 1024;

/// Incremental frame decoder for one ingest connection: bytes in, items
/// out, no socket.
///
/// [`Decoder::read_from`] reads a socket straight into the buffer
/// ([`Decoder::extend`] appends bytes from elsewhere); [`Decoder::decode`]
/// walks the buffered bytes with a cursor, decodes each complete frame where
/// it lies onto the end of a caller-owned `Vec` and removes everything
/// consumed with one `drain` per call. The wire mode is decided by the first
/// four bytes ([`BINARY_MAGIC`] or text). How the byte stream was cut into
/// reads never changes the items or where an error falls. A data frame's
/// values go straight into its [`Row`], which holds a few values in place,
/// so a caller that reuses its `Vec` decodes numeric events of up to that
/// many fields with no allocation once the `Vec` has grown. A wider row
/// allocates its spill, and a string value its text.
#[derive(Debug)]
pub struct Decoder {
    buf: Vec<u8>,
    /// `None` until four bytes (or the end of the stream) decide the mode.
    binary: Option<bool>,
    max_frame_len: usize,
}

impl Decoder {
    /// A decoder refusing binary payloads and text lines longer than
    /// `max_frame_len` bytes.
    pub fn new(max_frame_len: usize) -> Decoder {
        Decoder {
            buf: Vec::with_capacity(2 * READ_CHUNK),
            binary: None,
            max_frame_len,
        }
    }

    /// Append the bytes of one read.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Make one `read` of up to 4 KiB from `src` into the buffer, with no
    /// copy in between, and return its result (`Ok(0)` at the end of the
    /// stream).
    ///
    /// # Errors
    /// Whatever the read returns; the buffer keeps only what was read.
    pub fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let filled = self.buf.len();
        self.buf.resize(filled + READ_CHUNK, 0);
        let read = src.read(&mut self.buf[filled..]);
        self.buf.truncate(filled + read.as_ref().map_or(0, |&n| n));
        read
    }

    /// The stream ended: a connection too short to have shown the magic is
    /// text, and an unterminated last text line still counts. Call
    /// [`Decoder::decode`] afterwards to collect what that completes.
    pub fn close(&mut self) {
        let binary = *self.binary.get_or_insert(false);
        if !binary && !self.buf.is_empty() {
            self.buf.push(b'\n');
        }
    }

    /// Whether bytes of an incomplete frame are buffered.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Decode up to `limit` complete frames onto the end of `out`, in wire
    /// order, and return how many; 0 means the next frame needs more bytes.
    ///
    /// # Errors
    /// [`ServeError::Protocol`] when the next frame in the stream is
    /// malformed: an oversized payload or line, non-UTF-8 text, or whatever
    /// [`parse_line`] / [`decode_payload`] refuse. Every frame before it has
    /// been appended by then, by this call or an earlier one, and the error
    /// repeats on later calls.
    pub fn decode(&mut self, out: &mut Vec<Item>, limit: usize) -> ServeResult<usize> {
        let mut at = 0;
        if self.binary.is_none() && self.buf.len() >= BINARY_MAGIC.len() {
            let binary = self.buf.starts_with(BINARY_MAGIC);
            if binary {
                at = BINARY_MAGIC.len();
            }
            self.binary = Some(binary);
        }
        let Some(binary) = self.binary else {
            return Ok(0);
        };
        let start = out.len();
        let mut failed = None;
        while out.len() - start < limit {
            let rest = &self.buf[at..];
            let used = if binary {
                binary_frame(rest, self.max_frame_len, out)
            } else {
                text_frame(rest, self.max_frame_len, out)
            };
            match used {
                Ok(0) => break,
                Ok(used) => at += used,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.buf.drain(..at);
        match (failed, out.len() - start) {
            (Some(e), 0) => Err(e),
            // The frames before it go out first; the next call meets the
            // bad one again.
            (_, n) => Ok(n),
        }
    }
}

/// Decode the first line of `buf` onto `out` (a blank or comment line adds
/// nothing) and return the bytes it used, its newline included; 0 when no
/// complete line is buffered.
fn text_frame(buf: &[u8], max_len: usize, out: &mut Vec<Item>) -> ServeResult<usize> {
    let nl = buf.iter().position(|&b| b == b'\n');
    if nl.unwrap_or(buf.len()) > max_len {
        return Err(oversized("text line", max_len));
    }
    let Some(nl) = nl else {
        return Ok(0);
    };
    out.extend(line_item(&buf[..nl])?);
    Ok(nl + 1)
}

/// Decode the first binary frame of `buf` (length prefix + payload) onto
/// `out` and return the bytes it used; 0 when the frame is not complete yet.
fn binary_frame(buf: &[u8], max_len: usize, out: &mut Vec<Item>) -> ServeResult<usize> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(0);
    };
    let len = u32::from_be_bytes(*prefix) as usize;
    if len > max_len {
        return Err(oversized("binary frame", max_len));
    }
    let Some(payload) = buf[4..].get(..len) else {
        return Ok(0);
    };
    out.push(payload_item(payload)?);
    Ok(4 + len)
}

fn oversized(what: &str, max_len: usize) -> ServeError {
    ServeError::Protocol(format!("{what} exceeds the {max_len}-byte frame limit"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Data {
                ts: Timestamp(1234),
                values: vec![Value::Int(-5), Value::Float(2.5), Value::str("host-a")],
            },
            Frame::Data {
                ts: Timestamp(0),
                values: vec![Value::Null, Value::Bool(true)],
            },
            Frame::Heartbeat {
                ts: Timestamp(999),
                source: Value::Int(7),
            },
            Frame::Heartbeat {
                ts: Timestamp(1),
                source: Value::str("edge-3"),
            },
        ]
    }

    #[test]
    fn text_lines_round_trip() {
        for f in frames() {
            let line = to_line(&f);
            let parsed = parse_line(&line).unwrap().unwrap();
            assert_eq!(parsed, f, "line `{line}`");
        }
    }

    #[test]
    fn binary_frames_round_trip() {
        for f in frames() {
            let bytes = encode_frame(&f);
            let len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
            assert_eq!(len, bytes.len() - 4);
            assert_eq!(decode_payload(&bytes[4..]).unwrap(), f);
        }
    }

    #[test]
    fn an_overlong_string_is_cut_on_a_char_boundary_and_still_decodes() {
        // 80 000 bytes of two-byte characters: byte 65 535 falls inside one.
        let long = "é".repeat(40_000);
        let frame = Frame::Data {
            ts: Timestamp(1),
            values: vec![Value::str(long.as_str()), Value::Int(9)],
        };
        let bytes = encode_frame(&frame);
        let Frame::Data { values, .. } = decode_payload(&bytes[4..]).expect("decodes") else {
            panic!("a data frame");
        };
        assert_eq!(values[0], Value::str(&long[..65_534]));
        assert_eq!(values[1], Value::Int(9));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("   ").unwrap(), None);
        assert_eq!(parse_line("# a comment").unwrap(), None);
    }

    #[test]
    fn malformed_text_is_refused() {
        assert!(parse_line("abc 1 2").is_err(), "bad timestamp");
        assert!(parse_line("100").is_err(), "no values");
        assert!(parse_line("hb").is_err());
        assert!(parse_line("hb 100").is_err(), "no source");
    }

    #[test]
    fn malformed_binary_is_refused() {
        assert!(decode_payload(&[]).is_err(), "empty");
        assert!(decode_payload(&[0x09]).is_err(), "unknown tag");
        let mut ok = encode_payload(&frames()[0]);
        ok.push(0xff);
        assert!(decode_payload(&ok).is_err(), "trailing bytes");
        let short = &encode_payload(&frames()[0])[..5];
        assert!(decode_payload(short).is_err(), "truncated");
    }

    #[test]
    fn read_from_appends_one_read_and_keeps_only_what_was_read() {
        let bytes: Vec<u8> = (0..3000u64)
            .flat_map(|i| format!("{i} {i}.5\n").into_bytes())
            .collect();
        let mut src = &bytes[..];
        let mut decoder = Decoder::new(64);
        let mut items = Vec::new();
        loop {
            let n = decoder.read_from(&mut src).expect("a slice reads");
            assert!(n <= READ_CHUNK);
            if n == 0 {
                break;
            }
            decoder.decode(&mut items, usize::MAX).expect("own lines");
        }
        assert!(!decoder.has_partial());
        assert_eq!(items.len(), 3000);
        assert_eq!(
            items[2999],
            Item::Data {
                ts: Timestamp(2999),
                row: Row::new([Value::Float(2999.5)]),
            }
        );

        struct TimedOut;
        impl Read for TimedOut {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::TimedOut.into())
            }
        }
        decoder.extend(b"7 1");
        assert!(decoder.read_from(&mut TimedOut).is_err());
        decoder.close();
        let mut items = Vec::new();
        assert_eq!(decoder.decode(&mut items, 8).expect("a line"), 1);
        let frames: Vec<Frame> = items.into_iter().map(Frame::from).collect();
        assert_eq!(
            frames,
            vec![Frame::Data {
                ts: Timestamp(7),
                values: vec![Value::Int(1)],
            }]
        );
    }

    #[test]
    fn floats_stay_floats_on_the_text_wire() {
        let f = Frame::Data {
            ts: Timestamp(10),
            values: vec![Value::Float(3.0)],
        };
        let line = to_line(&f);
        assert_eq!(parse_line(&line).unwrap().unwrap(), f, "line `{line}`");
    }
}
