//! Generator-side spans, kept in memory and written once as Chrome-trace
//! JSON (`chrome://tracing`, Perfetto) when the traced run ends.
//!
//! The benchmark records spans from its own files only, around its calls
//! into each layer; spans inside the daemon are the daemon's business
//! (`GET /trace`).

use crate::json;
use std::io::Write;
use std::path::Path;

/// Lanes of the exported trace (Chrome `tid`s).
pub const LANE_SENDER: u32 = 1;
pub const LANE_POLLER: u32 = 2;
pub const LANE_RESULTS: u32 = 3;
pub const LANE_LAYERS: u32 = 4;

/// One complete span. Times are microseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub lane: u32,
    pub start_us: f64,
    pub dur_us: f64,
    /// Pre-rendered JSON object members (`"k":v,...`), no braces.
    pub args: String,
}

/// Span sink for one thread; disabled sinks drop everything, so the untraced
/// run pays one branch per call site.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn record(
        &mut self,
        name: &'static str,
        lane: u32,
        start_s: f64,
        end_s: f64,
        args: String,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                lane,
                start_us: start_s * 1e6,
                dur_us: (end_s - start_s).max(0.0) * 1e6,
                args,
            });
        }
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Move every span `by_s` seconds later (to lay runs that each started
    /// their own clock end to end on one timeline).
    pub fn shifted(mut self, by_s: f64) -> Spans {
        for s in &mut self.spans {
            s.start_us += by_s * 1e6;
        }
        self
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write the spans as a Chrome trace (`traceEvents` with `ph: "X"`).
    pub fn write_chrome(&self, path: &Path, process: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
        )?;
        for (lane, name) in [
            (LANE_SENDER, "sender"),
            (LANE_POLLER, "poller"),
            (LANE_RESULTS, "window results"),
            (LANE_LAYERS, "layer passes"),
        ] {
            write!(
                out,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\"args\":{{\"name\":\"{name}\"}}}}"
            )?;
        }
        for s in &self.spans {
            write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
                s.lane,
                s.name,
                json::num(s.start_us),
                json::num(s.dur_us),
                s.args
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn chrome_trace_is_loadable_json() {
        let mut spans = Spans::new(true);
        spans.record(
            "client.write",
            LANE_SENDER,
            0.001,
            0.0015,
            "\"frames\":40".into(),
        );
        spans.record("window.result", LANE_RESULTS, 0.5, 0.52, String::new());
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        let path = dir.join("t.json");
        spans.write_chrome(&path, "quill-e2e test").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let complete: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let dur = complete[0].get("dur").unwrap().as_f64().unwrap();
        assert!((dur - 500.0).abs() < 1e-6, "{dur}");
        assert_eq!(
            complete[0]
                .get("args")
                .unwrap()
                .get("frames")
                .unwrap()
                .as_u64(),
            Some(40)
        );
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut spans = Spans::new(false);
        spans.record("x", LANE_SENDER, 0.0, 1.0, String::new());
        assert_eq!(spans.len(), 0);
    }
}
