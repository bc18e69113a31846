//! A deliberately small HTTP/1.1 control surface (the workspace vendors no
//! HTTP stack): request-per-connection, `Connection: close`, JSON bodies
//! rendered by [`crate::json`].
//!
//! | Endpoint                     | Meaning                                   |
//! |------------------------------|-------------------------------------------|
//! | `GET /healthz`               | liveness + strategy + uptime              |
//! | `GET /metrics`               | Prometheus text exposition                |
//! | `GET /trace`                 | pipeline spans as Chrome-trace JSON       |
//! |                              | (loadable in Perfetto / `chrome://tracing`)|
//! | `GET /stats`                 | session counters as JSON                  |
//! | `GET /queries`               | list registered queries                   |
//! | `POST /queries`              | register (body = query DSL), returns id   |
//! | `GET /queries/{id}`          | one query's info                          |
//! | `DELETE /queries/{id}`       | deregister, returns final stats           |
//! | `GET /queries/{id}/results`  | drain pending window results              |
//! | `POST /finish`               | graceful drain (ingest stops, session     |
//! |                              | finishes, HTTP stays up)                  |
//! | `POST /shutdown`             | drain then stop the whole server          |

use crate::json;
use crate::server::Shared;
use quill_core::prelude::QueryId;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Read one HTTP request (start line, headers, `Content-Length` body).
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Read until the header terminator.
    let header_end = loop {
        if let Some(p) = find_crlf2(&buf) {
            break p;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
        if buf.len() > 64 * 1024 {
            return None;
        }
    };
    let head = std::str::from_utf8(&buf[..header_end]).ok()?;
    let mut lines = head.split("\r\n");
    let start = lines.next()?;
    let mut parts = start.split_ascii_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let content_len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_len {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    body.truncate(content_len);
    let body = String::from_utf8_lossy(&body).into_owned();
    Some(Request { method, path, body })
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write one response and close.
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let msg = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(msg.as_bytes());
    let _ = stream.flush();
}

fn ok_json(stream: &mut TcpStream, body: &str) {
    respond(stream, "200 OK", "application/json", body);
}

fn bad_request(stream: &mut TcpStream, msg: &str) {
    respond(
        stream,
        "400 Bad Request",
        "application/json",
        &json::error(msg),
    );
}

fn not_found(stream: &mut TcpStream) {
    respond(
        stream,
        "404 Not Found",
        "application/json",
        &json::error("no such endpoint"),
    );
}

/// Serve HTTP until an exit is requested; the request wakes the blocking
/// `accept` with a connection of its own, which is dropped unread. Requests
/// are handled serially: the control surface is low-traffic by design, and
/// serial handling keeps the session lock uncontended.
pub(crate) fn serve(shared: &Arc<Shared>, listener: &TcpListener) {
    // The single wall-clock read in this crate: uptime reported by
    // /healthz. It never influences stream-time decisions.
    // quill-lint: allow(no-wall-clock, reason = "operator-facing uptime in /healthz only")
    let started = std::time::Instant::now();
    while !shared.exit_requested() {
        let Ok((mut stream, _)) = listener.accept() else {
            break;
        };
        if shared.exit_requested() {
            break;
        }
        if let Some(req) = read_request(&mut stream) {
            dispatch(shared, &mut stream, &req, started);
        }
    }
}

/// Route one request.
// quill-lint: allow(wall-clock-taint, reason = "HTTP shell: uptime reporting for /healthz; never reaches stream-time logic")
fn dispatch(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    req: &Request,
    started: std::time::Instant,
) {
    let path = req.path.trim_end_matches('/');
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let stats = shared.stats();
            let body = format!(
                "{{\"status\":\"ok\",\"strategy\":\"{}\",\"finished\":{},\"uptime_ms\":{}}}",
                json::escape(&shared.session.lock().strategy_name()),
                stats.finished,
                started.elapsed().as_millis()
            );
            ok_json(stream, &body);
        }
        ("GET", "/metrics") => {
            let text = quill_telemetry::export::to_prometheus(&shared.registry.snapshot());
            respond(stream, "200 OK", "text/plain; version=0.0.4", &text);
        }
        ("GET", "/trace") => {
            // Two process lanes: the network shell on wall micros, the
            // session core on the logical event-time clock.
            let body = quill_telemetry::span::to_chrome_trace_parts(&[
                (
                    "quill-serve",
                    shared.wall_spans.domain(),
                    shared.wall_spans.spans(),
                ),
                ("session", shared.spans.domain(), shared.spans.spans()),
            ]);
            ok_json(stream, &body);
        }
        ("GET", "/stats") => ok_json(stream, &json::session_stats(&shared.stats())),
        ("GET", "/queries") => {
            let items: Vec<String> = shared
                .list_queries()
                .iter()
                .map(|(info, dsl)| json::query_info(info, dsl))
                .collect();
            ok_json(stream, &json::array(&items));
        }
        ("POST", "/queries") => match shared.register_dsl(req.body.trim()) {
            Ok(id) => ok_json(stream, &format!("{{\"id\":{}}}", id.raw())),
            Err(e) => bad_request(stream, &e.to_string()),
        },
        ("POST", "/finish") => {
            shared.request_finish();
            ok_json(stream, "{\"status\":\"draining\"}");
        }
        ("POST", "/shutdown") => {
            shared.request_exit();
            ok_json(stream, "{\"status\":\"shutting-down\"}");
        }
        (method, path) if path.starts_with("/queries/") => {
            dispatch_query(shared, stream, method, &path["/queries/".len()..]);
        }
        _ => not_found(stream),
    }
}

/// Route `/queries/{id}[...]`.
fn dispatch_query(shared: &Arc<Shared>, stream: &mut TcpStream, method: &str, rest: &str) {
    let (id_part, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(raw) = id_part.parse::<u64>() else {
        bad_request(stream, &format!("bad query id `{id_part}`"));
        return;
    };
    let id = QueryId::from_raw(raw);
    match (method, tail) {
        ("GET", None) => {
            let found = shared
                .list_queries()
                .into_iter()
                .find(|(info, _)| info.id == id);
            match found {
                Some((info, dsl)) => ok_json(stream, &json::query_info(&info, &dsl)),
                None => bad_request(stream, &format!("unknown query id {raw}")),
            }
        }
        ("DELETE", None) => match shared.deregister(id) {
            Ok(stats) => ok_json(stream, &json::query_stats(&stats)),
            Err(e) => bad_request(stream, &e.to_string()),
        },
        ("GET", Some("results")) => match shared.poll(id) {
            Ok(results) => {
                let items: Vec<String> = results.iter().map(json::window_result).collect();
                ok_json(stream, &json::array(&items));
            }
            Err(e) => bad_request(stream, &e.to_string()),
        },
        _ => not_found(stream),
    }
}
