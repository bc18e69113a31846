//! Trace capture and replay.
//!
//! Generated streams can be persisted to a simple line-oriented text format
//! and replayed later, so experiments can be re-run bit-identically without
//! regenerating (and so users can import their own traces). The format is
//! hand-rolled (no serialization-format crate is in the approved dependency
//! set):
//!
//! ```text
//! quill-trace v1
//! schema: name:type,name:type,...
//! <seq>\t<ts>\t<v1>\t<v2>...
//! ```
//!
//! String values are escaped (`\t`, `\n`, `\r`, `\\`); `Null` is the bare token
//! `\N` (as in classic database dump formats).

use crate::source::GeneratedStream;
use quill_engine::prelude::{ClockTracker, Event, FieldType, Row, Schema, Timestamp, Value};
use std::fmt;
use std::path::Path;

/// Errors raised while encoding/decoding traces.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is not a valid v1 trace.
    Format(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Format(msg) => write!(f, "trace format error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

const MAGIC: &str = "quill-trace v1";
const NULL_TOKEN: &str = "\\N";

/// Escape backslash, tab, newline and carriage return so `s` fits in one
/// tab-separated field of a line ([`unescape`] reverses it).
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Reverse [`escape`]; an unknown escape is kept as written.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => NULL_TOKEN.to_string(),
        Value::Int(i) => i.to_string(),
        // `{:?}` prints floats with full roundtrip precision.
        Value::Float(f) => format!("{f:?}"),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => escape(s),
    }
}

fn decode_value(tok: &str, ty: FieldType) -> Result<Value, TraceError> {
    if tok == NULL_TOKEN {
        return Ok(Value::Null);
    }
    let parse_err = |what: &str| TraceError::Format(format!("bad {what}: `{tok}`"));
    Ok(match ty {
        FieldType::Int => Value::Int(tok.parse().map_err(|_| parse_err("int"))?),
        FieldType::Float => Value::Float(tok.parse().map_err(|_| parse_err("float"))?),
        FieldType::Bool => Value::Bool(tok.parse().map_err(|_| parse_err("bool"))?),
        FieldType::Str => Value::str(unescape(tok)),
    })
}

fn type_name(ty: FieldType) -> &'static str {
    match ty {
        FieldType::Int => "int",
        FieldType::Float => "float",
        FieldType::Str => "str",
        FieldType::Bool => "bool",
    }
}

fn parse_type(s: &str) -> Result<FieldType, TraceError> {
    Ok(match s {
        "int" => FieldType::Int,
        "float" => FieldType::Float,
        "str" => FieldType::Str,
        "bool" => FieldType::Bool,
        other => return Err(TraceError::Format(format!("unknown type `{other}`"))),
    })
}

/// Serialize a stream to the v1 text format.
pub fn encode(stream: &GeneratedStream) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str("schema: ");
    let fields: Vec<String> = stream
        .schema
        .fields()
        .iter()
        .map(|f| format!("{}:{}", escape(&f.name), type_name(f.ty)))
        .collect();
    out.push_str(&fields.join(","));
    out.push('\n');
    for e in &stream.events {
        out.push_str(&e.seq.to_string());
        out.push('\t');
        out.push_str(&e.ts.raw().to_string());
        for v in e.row.values() {
            out.push('\t');
            out.push_str(&encode_value(v));
        }
        out.push('\n');
    }
    out
}

/// Parse the v1 text format back into a stream (disorder statistics are
/// re-measured from the decoded arrival order).
pub fn decode(text: &str) -> Result<GeneratedStream, TraceError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(l) if l == MAGIC => {}
        other => return Err(TraceError::Format(format!("bad magic: {other:?}"))),
    }
    let schema_line = lines
        .next()
        .ok_or_else(|| TraceError::Format("missing schema line".into()))?;
    let spec = schema_line
        .strip_prefix("schema: ")
        .ok_or_else(|| TraceError::Format("missing `schema: ` prefix".into()))?;
    let mut fields = Vec::new();
    if !spec.is_empty() {
        for part in spec.split(',') {
            let (name, ty) = part
                .rsplit_once(':')
                .ok_or_else(|| TraceError::Format(format!("bad field spec `{part}`")))?;
            fields.push((unescape(name), parse_type(ty)?));
        }
    }
    let schema =
        Schema::new(fields).map_err(|e| TraceError::Format(format!("invalid schema: {e}")))?;
    let types: Vec<FieldType> = schema.fields().iter().map(|f| f.ty).collect();

    let mut tracker = ClockTracker::new();
    let mut events = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split('\t');
        let bad = |what: &str| TraceError::Format(format!("line {}: {what}", lineno + 3));
        let seq: u64 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad seq"))?;
        let ts: u64 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad ts"))?;
        let mut vals = Vec::with_capacity(types.len());
        for &ty in &types {
            let tok = toks.next().ok_or_else(|| bad("missing value"))?;
            vals.push(decode_value(tok, ty)?);
        }
        if toks.next().is_some() {
            return Err(bad("trailing values"));
        }
        tracker.observe(Timestamp(ts));
        events.push(Event::new(ts, seq, vals.into_iter().collect::<Row>()));
    }
    Ok(GeneratedStream {
        schema,
        events,
        stats: tracker.stats(),
        description: "replayed trace".into(),
    })
}

/// Write a stream to a trace file.
pub fn save(stream: &GeneratedStream, path: impl AsRef<Path>) -> Result<(), TraceError> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, encode(stream))?;
    Ok(())
}

/// Read a stream from a trace file.
pub fn load(path: impl AsRef<Path>) -> Result<GeneratedStream, TraceError> {
    decode(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{stock, synthetic};

    #[test]
    fn roundtrip_preserves_events_exactly() {
        let s = synthetic::exponential(500, 10, 50.0, 1);
        let decoded = decode(&encode(&s)).unwrap();
        assert_eq!(decoded.schema, s.schema);
        assert_eq!(decoded.events, s.events);
        assert_eq!(decoded.stats, s.stats);
    }

    #[test]
    fn roundtrip_with_strings_and_nulls() {
        use quill_engine::prelude::*;
        let schema = Schema::new([("name", FieldType::Str), ("x", FieldType::Float)]).unwrap();
        let events = vec![
            Event::new(1, 0, Row::new([Value::str("tab\there"), Value::Float(1.5)])),
            Event::new(2, 1, Row::new([Value::Null, Value::Null])),
            Event::new(
                3,
                2,
                Row::new([Value::str("line\nbreak\\slash"), Value::Float(-0.25)]),
            ),
        ];
        let s = GeneratedStream {
            schema,
            events,
            stats: Default::default(),
            description: String::new(),
        };
        let decoded = decode(&encode(&s)).unwrap();
        assert_eq!(decoded.events, s.events);
    }

    #[test]
    fn float_precision_survives() {
        let s = stock::generate(&stock::StockConfig::default(), 300, 2);
        let decoded = decode(&encode(&s)).unwrap();
        assert_eq!(decoded.events, s.events);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode("not a trace").is_err());
        assert!(decode("quill-trace v1\nnope").is_err());
        assert!(decode("quill-trace v1\nschema: a:int\nx\t1\t2").is_err());
        assert!(decode("quill-trace v1\nschema: a:wat\n").is_err());
        // Trailing values beyond the schema arity.
        assert!(decode("quill-trace v1\nschema: a:int\n0\t1\t2\t3").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("quill_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("t.trace");
        let s = synthetic::uniform(100, 10, 0, 30, 3);
        save(&s, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.events, s.events);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
