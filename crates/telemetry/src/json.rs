//! A minimal JSON reader for the telemetry exports, and the workspace's one
//! JSON string escaper ([`json_string`], also used by `quill-serve`).
//!
//! The workspace carries no JSON dependency. Every record the telemetry
//! layer reads back (span and provenance JSON-lines, from a file or from
//! `quill-serve`'s `GET /trace`) is one flat object on one line, so the
//! reader knows that one shape, `Fields`: string, number, boolean and
//! null values, no nesting (a nested value is refused with an error naming
//! its key). Numbers keep their raw text, so `u64::MAX` survives without an
//! f64 round trip.

use std::fmt::Write as _;

/// A parsed field value.
enum Jv {
    Str(String),
    /// Raw number text; converted on access.
    Num(String),
    Bool(bool),
    Null,
}

/// A cursor over one line.
struct LineReader<'a> {
    b: &'a [u8],
    i: usize,
}

impl LineReader<'_> {
    /// Describe the byte an error ran into.
    fn got(c: Option<u8>) -> String {
        match c {
            Some(c) => format!("{:?}", c as char),
            None => "end of line".to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!("expected {:?}, got {}", c as char, Self::got(got))),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected literal {lit:?} at byte {}", self.i))
        }
    }

    /// The value of field `key`: a scalar, never an object or array.
    fn value(&mut self, key: &str) -> Result<Jv, String> {
        match self.peek() {
            Some(b'{' | b'[') => Err(format!(
                "field {key:?} holds a nested value; a record is one flat object"
            )),
            Some(b'"') => Ok(Jv::Str(self.string()?)),
            Some(b't') => {
                self.literal("true")?;
                Ok(Jv::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(Jv::Bool(false))
            }
            Some(b'n') => {
                self.literal("null")?;
                Ok(Jv::Null)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {} at byte {}",
                Self::got(other),
                self.i
            )),
        }
    }

    /// One flat object, then nothing but whitespace to the end of line.
    fn object(&mut self) -> Result<Vec<(String, Jv)>, String> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value(&key)?;
                fields.push((key, val));
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    other => return Err(format!("expected ',' or '}}', got {}", Self::got(other))),
                }
            }
        }
        self.skip_ws();
        if self.i != self.b.len() {
            return Err(format!("trailing characters at byte {}", self.i));
        }
        Ok(fields)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        if self.i + 4 > self.b.len() {
                            return Err("truncated \\u escape".into());
                        }
                        let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                            .map_err(|_| "non-utf8 \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        self.i += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {}", Self::got(other))),
                },
                Some(c) if c < 0x80 => out.push(c as char),
                Some(first) => {
                    // Multi-byte UTF-8: copy the full sequence through.
                    let len = match first {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.i - 1 + len).min(self.b.len());
                    let chunk = std::str::from_utf8(&self.b[self.i - 1..end])
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Jv, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        if self.i == start {
            return Err("expected a number".into());
        }
        Ok(Jv::Num(
            std::str::from_utf8(&self.b[start..self.i])
                .map_err(|_| "non-utf8 number".to_string())?
                .to_string(),
        ))
    }
}

/// One JSON-lines record: a single flat object.
pub(crate) struct Fields(Vec<(String, Jv)>);

impl Fields {
    /// Parse one line holding one flat JSON object.
    pub(crate) fn parse(line: &str) -> Result<Fields, String> {
        LineReader {
            b: line.as_bytes(),
            i: 0,
        }
        .object()
        .map(Fields)
    }

    fn get(&self, key: &str) -> Option<&Jv> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub(crate) fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Jv::Num(raw)) => raw
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("field {key:?} is not a u64: {raw:?}")),
            Some(_) => Err(format!("field {key:?} is not a number")),
        }
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    pub(crate) fn opt_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Jv::Num(raw)) => raw
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("field {key:?} is not an f64: {raw:?}")),
            Some(_) => Err(format!("field {key:?} is not a number")),
        }
    }

    pub(crate) fn f64(&self, key: &str) -> Result<f64, String> {
        self.opt_f64(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    pub(crate) fn opt_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Jv::Str(s)) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn str(&self, key: &str) -> Result<&str, String> {
        self.opt_str(key)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }

    pub(crate) fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Jv::Bool(b)) => Ok(*b),
            _ => Err(format!("field {key:?} is not a bool")),
        }
    }
}

/// JSON-escape and quote a string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nested_value_is_refused_by_its_key() {
        let err = Fields::parse("{\"seq\":1,\"x\":[1]}")
            .err()
            .expect("refused");
        assert!(err.contains("\"x\""), "{err}");
        let err = Fields::parse("{\"args\":{\"a\":1}}")
            .err()
            .expect("refused");
        assert!(err.contains("\"args\""), "{err}");
    }
}
