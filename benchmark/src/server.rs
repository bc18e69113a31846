//! The system under test as a child process, and the HTTP client that talks
//! to it.
//!
//! `quill-serve` runs with its default `ServeConfig` (telemetry and span
//! rings on, as users get it); only the strategy is chosen per workload. The
//! child is always reaped, also when a check fails and the run unwinds:
//! `POST /shutdown`, then a kill if it does not exit.

use crate::affinity::Placement;
use crate::json::Json;
use quill_engine::prelude::{Timestamp, Value, Window, WindowResult};
use quill_telemetry::export::parse_prometheus;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const HTTP_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause before each control request of a boot. The daemon's accept loop
/// sleeps 5 ms whenever it finds no connection pending; a client that sends
/// its next request at once sometimes beats the loop to `accept` and
/// sometimes waits the whole sleep, by scheduling luck, which made a
/// one-query boot take 7 or 12 ms. A request sent 1 ms later always finds
/// the loop asleep: the pause overlaps the sleep, so the total is that of the
/// slower case, every time.
const CONTROL_THINK: Duration = Duration::from_millis(1);

/// One HTTP/1.1 request over a fresh connection (the daemon answers one
/// request per connection). Returns the body of a 200 response.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, HTTP_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(HTTP_TIMEOUT)).ok();
    stream.set_write_timeout(Some(HTTP_TIMEOUT)).ok();
    stream.set_nodelay(true).ok();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: quill\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut resp = Vec::with_capacity(4096);
    stream
        .read_to_end(&mut resp)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    let text = String::from_utf8(resp).map_err(|_| format!("{method} {path}: non-utf8 reply"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: malformed reply"))?;
    if !head.starts_with("HTTP/1.1 200") {
        let status = head.lines().next().unwrap_or_default();
        return Err(format!("{method} {path}: {status}: {body}"));
    }
    Ok(body.to_string())
}

/// The fields of `GET /stats` the harness reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    pub events: u64,
    pub results: u64,
    pub finished: bool,
}

pub fn parse_stats(body: &str) -> Result<Stats, String> {
    let j = Json::parse(body)?;
    let num = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/stats lacks `{k}`: {body}"))
    };
    Ok(Stats {
        events: num("events")?,
        results: num("results")?,
        finished: j
            .get("finished")
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("/stats lacks `finished`: {body}"))?,
    })
}

fn value_of(j: &Json) -> Result<Value, String> {
    Ok(match j {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Str(s) => Value::str(s.as_str()),
        Json::Num(n) => match n.parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Float(n.parse().map_err(|_| format!("bad number `{n}`"))?),
        },
        other => return Err(format!("not a scalar: {other:?}")),
    })
}

/// Parse a `GET /queries/{id}/results` body back into window results.
pub fn parse_results(body: &str) -> Result<Vec<WindowResult>, String> {
    let j = Json::parse(body)?;
    let items = j.as_arr().ok_or("results body is not an array")?;
    items
        .iter()
        .map(|r| {
            let num = |k: &str| {
                r.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("result lacks `{k}`"))
            };
            let aggregates = r
                .get("aggregates")
                .and_then(Json::as_arr)
                .ok_or("result lacks `aggregates`")?
                .iter()
                .map(value_of)
                .collect::<Result<Vec<Value>, String>>()?;
            Ok(WindowResult {
                key: value_of(r.get("key").ok_or("result lacks `key`")?)?,
                window: Window::new(Timestamp(num("start")?), Timestamp(num("end")?)),
                count: num("count")?,
                revision: num("revision")?,
                aggregates,
            })
        })
        .collect()
}

/// The value of an unlabelled sample in a Prometheus text exposition.
pub fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    parse_prometheus(text)
        .ok()?
        .into_iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

/// A running `quill-serve` child.
pub struct ServerProc {
    child: Child,
    // Held so the child's final `println!` has somewhere to go.
    _stdout: BufReader<ChildStdout>,
    pub ingest: SocketAddr,
    pub http: SocketAddr,
}

/// What booting one server cost.
pub struct Boot {
    pub server: ServerProc,
    /// spawn → listeners bound → all queries registered → `/healthz` ok.
    pub setup_s: f64,
    /// Mean HTTP registration time per query, milliseconds.
    pub register_ms_per_query: f64,
}

impl ServerProc {
    /// Spawn the daemon on ephemeral loopback ports, register `queries`
    /// through `POST /queries`, and wait for `/healthz`. The daemon and every
    /// thread it starts run on `placement`'s daemon core only.
    pub fn boot(
        bin: &Path,
        strategy: &str,
        queries: &[String],
        placement: &Placement,
    ) -> Result<Boot, String> {
        let t0 = Instant::now();
        let mut command = Command::new(bin);
        command
            .args(["--ingest", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .args(["--strategy", strategy])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = placement
            .on_server_cpu(|| command.spawn())
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addrs: [Option<SocketAddr>; 2] = [None, None];
        let mut line = String::new();
        while addrs.iter().any(Option::is_none) {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("quill-serve exited before binding its listeners".into());
                }
            }
            for (slot, prefix) in addrs.iter_mut().zip(["ingest=", "http="]) {
                if let Some(a) = line.trim().strip_prefix(prefix) {
                    *slot = a.parse().ok();
                }
            }
        }
        let server = ServerProc {
            child,
            _stdout: stdout,
            ingest: addrs[0].expect("loop exit"),
            http: addrs[1].expect("loop exit"),
        };
        let t_reg = Instant::now();
        for (i, dsl) in queries.iter().enumerate() {
            std::thread::sleep(CONTROL_THINK);
            let body = server.post("/queries", dsl)?;
            let id = Json::parse(&body)?.get("id").and_then(Json::as_u64);
            if id != Some(i as u64) {
                return Err(format!("query {i} registered as {id:?}: {body}"));
            }
        }
        let register_ms_per_query =
            t_reg.elapsed().as_secs_f64() * 1e3 / queries.len().max(1) as f64;
        std::thread::sleep(CONTROL_THINK);
        let health = server.get("/healthz")?;
        if !health.contains("\"status\":\"ok\"") {
            return Err(format!("/healthz: {health}"));
        }
        Ok(Boot {
            server,
            setup_s: t0.elapsed().as_secs_f64(),
            register_ms_per_query,
        })
    }

    pub fn get(&self, path: &str) -> Result<String, String> {
        http(self.http, "GET", path, "")
    }

    pub fn post(&self, path: &str, body: &str) -> Result<String, String> {
        http(self.http, "POST", path, body)
    }

    pub fn stats(&self) -> Result<Stats, String> {
        parse_stats(&self.get("/stats")?)
    }

    pub fn poll_results(&self, query: usize) -> Result<Vec<WindowResult>, String> {
        parse_results(&self.get(&format!("/queries/{query}/results"))?)
    }

    /// Poll `/stats` until `done` holds; an error after `timeout`.
    pub fn wait_stats(
        &self,
        what: &str,
        timeout: Duration,
        done: impl Fn(&Stats) -> bool,
    ) -> Result<Stats, String> {
        let t0 = Instant::now();
        loop {
            let s = self.stats()?;
            if done(&s) {
                return Ok(s);
            }
            if t0.elapsed() > timeout {
                return Err(format!("timed out waiting for {what}: {s:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set size of the child (`VmHWM`), in megabytes.
    pub fn peak_rss_mb(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

/// Stop the child, always: `POST /shutdown`, wait up to 5 s for the exit,
/// then kill.
impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.post("/shutdown", "");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(5) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quill_core::prelude::SessionStats;
    use quill_engine::prelude::TimeDelta;

    #[test]
    fn stats_scrape_reads_what_the_daemon_renders() {
        let body = quill_serve::json::session_stats(&SessionStats {
            events: 123_456,
            heartbeats: 0,
            queries: 100,
            results: 789,
            current_k: TimeDelta(250),
            buffered: 17,
            clock: Some(Timestamp(99)),
            finished: true,
        });
        assert_eq!(
            parse_stats(&body).unwrap(),
            Stats {
                events: 123_456,
                results: 789,
                finished: true
            }
        );
        assert!(parse_stats("{\"events\":1}").is_err());
    }

    #[test]
    fn results_scrape_round_trips_the_daemon_rendering() {
        let results = [
            WindowResult {
                key: Value::Int(7),
                window: Window::new(Timestamp(0), Timestamp(1000)),
                count: 42,
                revision: 0,
                aggregates: vec![Value::Float(0.1 + 0.2), Value::Float(3.0), Value::Null],
            },
            WindowResult {
                key: Value::str("host\"a"),
                window: Window::new(Timestamp(250), Timestamp(1250)),
                count: 1,
                revision: 0,
                aggregates: vec![Value::Int(-5)],
            },
        ];
        let items: Vec<String> = results
            .iter()
            .map(quill_serve::json::window_result)
            .collect();
        let parsed = parse_results(&quill_serve::json::array(&items)).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].key, Value::Int(7));
        assert_eq!(parsed[0].window, results[0].window);
        assert_eq!(parsed[0].count, 42);
        // Floats come back bit-exact; a whole float renders as `3` and reads
        // back as an integer, which `values_close` treats as equal.
        assert_eq!(parsed[0].aggregates[0], Value::Float(0.1 + 0.2));
        assert_eq!(parsed[0].aggregates[1], Value::Int(3));
        assert_eq!(parsed[0].aggregates[2], Value::Null);
        assert_eq!(parsed[1].key, Value::str("host\"a"));
        assert_eq!(parsed[1].aggregates[0], Value::Int(-5));
        assert_eq!(parse_results("[]").unwrap(), vec![]);
        assert!(parse_results("{\"error\":\"unknown query id 9\"}").is_err());
    }

    #[test]
    fn prometheus_scrape_finds_the_gauge() {
        let text = "# HELP quill_executor_queue_depth x\n# TYPE quill_executor_queue_depth gauge\n\
                    quill_executor_queue_depth 17\nquill_executor_queue_depth_other 3\n";
        assert_eq!(
            prometheus_value(text, "quill_executor_queue_depth"),
            Some(17.0)
        );
        assert_eq!(prometheus_value(text, "missing"), None);
    }
}
