//! Self-contained failure reproducers.
//!
//! When the harness finds a mismatch it writes the (shrunk) case to a text
//! file under `results/failures/`, replayable by the `quill-repro` binary in
//! `quill-bench`. The format is line-oriented and hand-rolled, following the
//! same conventions as `quill_gen::trace` (no serialization-format crate is
//! in the approved dependency set). The query and the strategy are written
//! in the daemon's own text ([`quill_core::dsl`]), so a reproducer's plan can
//! be pasted into `quill-serve --strategy ... --query ...` as it stands:
//!
//! ```text
//! quill-repro v2
//! seed: 42
//! check: oracle-values
//! exec: sequential
//! detail: window (0, 100) aggregate 0 ...
//! query: sliding:100:30;sum:1:a0,q0.9:1:a1;key=0
//! strategy: fixed:50
//! events:
//! <seq>\t<ts>\t<value>\t<value>...
//! ```
//!
//! Values are type-tagged (`i:`, `f:`, `s:`, `b:`, or the bare `\N` null
//! token) so an event line is self-describing; strings escape tabs,
//! newlines and backslashes with the trace format's own escaper. Floats
//! print via `{:?}` for round-trip precision.

use std::path::{Path, PathBuf};

use quill_core::dsl::{parse_query, query_to_dsl, StrategySpec};
use quill_core::prelude::QueryConfig;
use quill_engine::prelude::{Event, Row, Value};
use quill_gen::trace::{escape, unescape};

use crate::harness::Mismatch;
use crate::spec::SimCase;

const MAGIC: &str = "quill-repro v2";
const NULL_TOKEN: &str = "\\N";

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => NULL_TOKEN.to_string(),
        Value::Int(i) => format!("i:{i}"),
        Value::Float(f) => format!("f:{f:?}"),
        Value::Bool(b) => format!("b:{b}"),
        Value::Str(s) => format!("s:{}", escape(s)),
    }
}

fn decode_value(tok: &str) -> Result<Value, String> {
    if tok == NULL_TOKEN {
        return Ok(Value::Null);
    }
    let (tag, body) = tok
        .split_once(':')
        .ok_or_else(|| format!("untagged value `{tok}`"))?;
    Ok(match tag {
        "i" => Value::Int(body.parse().map_err(|e| format!("bad int `{body}`: {e}"))?),
        "f" => Value::Float(
            body.parse()
                .map_err(|e| format!("bad float `{body}`: {e}"))?,
        ),
        "b" => Value::Bool(
            body.parse()
                .map_err(|e| format!("bad bool `{body}`: {e}"))?,
        ),
        "s" => Value::str(unescape(body)),
        other => return Err(format!("unknown value tag `{other}`")),
    })
}

/// Serialize a case (and the mismatch that condemned it) to the v2 text
/// reproducer format.
pub fn encode_case(case: &SimCase, mismatch: &Mismatch) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("seed: {}\n", case.seed));
    out.push_str(&format!("check: {}\n", mismatch.check));
    out.push_str(&format!("exec: {}\n", mismatch.exec));
    out.push_str(&format!("detail: {}\n", escape(&mismatch.detail)));
    let query = query_to_dsl(&case.query(), &QueryConfig::default());
    out.push_str(&format!("query: {query}\n"));
    out.push_str(&format!("strategy: {}\n", case.strategy));
    out.push_str("events:\n");
    for e in &case.events {
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

/// Parse the reproducer format back into a replayable case.
///
/// # Errors
/// Returns a description of the first malformed line.
pub fn decode_case(text: &str) -> Result<SimCase, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(l) if l == MAGIC => {}
        other => return Err(format!("bad magic: {other:?}")),
    }
    let mut header = |name: &str| -> Result<String, String> {
        let line = lines
            .next()
            .ok_or_else(|| format!("missing `{name}:` line"))?;
        line.strip_prefix(&format!("{name}: "))
            .map(str::to_string)
            .ok_or_else(|| format!("expected `{name}: `, got `{line}`"))
    };
    let seed: u64 = header("seed")?
        .parse()
        .map_err(|e| format!("bad seed: {e}"))?;
    let _check = header("check")?;
    let _exec = header("exec")?;
    let _detail = header("detail")?;
    let (query, _) = parse_query(&header("query")?).map_err(|e| e.to_string())?;
    let strategy = StrategySpec::parse(&header("strategy")?).map_err(|e| e.to_string())?;
    match lines.next() {
        Some("events:") => {}
        other => return Err(format!("expected `events:`, got {other:?}")),
    }
    let mut events = Vec::new();
    for (lineno, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split('\t');
        let bad = |what: String| format!("event line {}: {what}", lineno + 1);
        let seq: u64 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad seq".into()))?;
        let ts: u64 = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("bad ts".into()))?;
        let vals: Vec<Value> = toks
            .map(|t| decode_value(t).map_err(&bad))
            .collect::<Result<_, String>>()?;
        events.push(Event::new(ts, seq, Row::new(vals)));
    }
    if events.is_empty() {
        return Err("no events".into());
    }
    Ok(SimCase {
        seed,
        window: query.window,
        aggregates: query.aggregates,
        key_field: query.key_field,
        strategy,
        events,
    })
}

/// Write a reproducer under `dir`, creating it as needed. Returns the path.
///
/// File writes here back a failing test; an unwritable failures directory is
/// itself a configuration failure worth stopping for, hence the panics.
pub fn write_reproducer(dir: &Path, case: &SimCase, mismatch: &Mismatch) -> PathBuf {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("cannot create failures dir {}: {e}", dir.display()));
    let head = case.strategy.to_string();
    let head = head.split(':').next().unwrap_or("unknown");
    let path = dir.join(format!("case-{}-{head}.repro", case.seed));
    std::fs::write(&path, encode_case(case, mismatch))
        .unwrap_or_else(|e| panic!("cannot write reproducer {}: {e}", path.display()));
    path
}

/// Load a reproducer file.
///
/// # Errors
/// Returns a description of the I/O or format problem.
pub fn load_case(path: &Path) -> Result<SimCase, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    decode_case(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::sample_suite;

    fn dummy_mismatch() -> Mismatch {
        Mismatch {
            check: "oracle-values".into(),
            exec: "sequential".into(),
            detail: "window (0, 100) key 3:\tengine 1.0 != oracle 2.0".into(),
        }
    }

    #[test]
    fn cases_round_trip_through_the_text_format() {
        for case in sample_suite(11) {
            let text = encode_case(&case, &dummy_mismatch());
            let back = decode_case(&text).expect("decode");
            assert_eq!(back.seed, case.seed);
            assert_eq!(back.query(), case.query());
            assert_eq!(back.strategy, case.strategy);
            assert_eq!(back.events.len(), case.events.len());
            for (a, b) in case.events.iter().zip(&back.events) {
                assert_eq!((a.ts, a.seq), (b.ts, b.seq));
                assert_eq!(a.row.values(), b.row.values());
            }
        }
    }

    #[test]
    fn special_floats_and_strings_round_trip() {
        let vals = vec![
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(-0.0),
            Value::str("tab\tnewline\nback\\slash"),
            Value::Null,
            Value::Bool(true),
        ];
        for v in vals {
            let got = decode_value(&encode_value(&v)).expect("decode");
            match (&v, &got) {
                (Value::Float(a), Value::Float(b)) => {
                    assert!(a.to_bits() == b.to_bits(), "{a:?} vs {b:?}");
                }
                _ => assert_eq!(v, got),
            }
        }
    }

    #[test]
    fn truncated_files_are_rejected_with_context() {
        assert!(decode_case("quill-repro v2\nseed: 1\n").is_err());
        assert!(decode_case("not a repro").is_err());
    }

    #[test]
    fn write_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("quill-sim-repro-test");
        let case = sample_suite(5).remove(0);
        let path = write_reproducer(&dir, &case, &dummy_mismatch());
        let back = load_case(&path).expect("load");
        assert_eq!(back.events.len(), case.events.len());
        std::fs::remove_file(path).ok();
    }
}
