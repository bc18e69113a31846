//! A deliberately small HTTP/1.1 control surface (the workspace vendors no
//! HTTP stack): request-per-connection, `Connection: close`, JSON bodies
//! rendered by [`crate::json`].
//!
//! | Endpoint                     | Meaning                                   |
//! |------------------------------|-------------------------------------------|
//! | `GET /healthz`               | liveness + strategy + uptime              |
//! | `GET /metrics`               | Prometheus text exposition                |
//! | `GET /trace`                 | the span ring as JSON lines, one          |
//! |                              | `Span::to_json_line` per record           |
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
#[derive(Debug, PartialEq, Eq)]
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Most bytes buffered for a request's head, and again for its body: a
/// query in the DSL is a few hundred bytes.
const MAX_PART_BYTES: usize = 64 * 1024;

/// Why no [`Request`] came out of a connection.
#[derive(Debug, PartialEq, Eq)]
enum Refusal {
    /// The peer closed or stalled before a complete head: nobody to answer.
    Closed,
    /// Head or declared body over [`MAX_PART_BYTES`]; answered `413`.
    TooLarge(&'static str),
    /// Not a request this server reads; answered `400`.
    Malformed(&'static str),
}

/// Read one HTTP request (start line, headers, `Content-Length` body) from
/// any byte source. Never buffers more than [`MAX_PART_BYTES`] of head or of
/// body, whatever length the peer declares. A request without
/// `Content-Length` has an empty body.
fn read_request(stream: &mut impl Read) -> Result<Request, Refusal> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Read until the header terminator, looking only at bytes not yet ruled out.
    let mut seen = 0usize;
    let header_end = loop {
        let from = seen.saturating_sub(3);
        if let Some(p) = find_crlf2(&buf[from..]) {
            break from + p;
        }
        seen = buf.len();
        let room = MAX_PART_BYTES - buf.len();
        if room == 0 {
            return Err(Refusal::TooLarge("request head over 64 KiB"));
        }
        match stream.read(&mut chunk[..room.min(1024)]) {
            Ok(0) | Err(_) => return Err(Refusal::Closed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| Refusal::Malformed("request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let mut parts = lines.next().unwrap_or("").split_ascii_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(Refusal::Malformed("request line needs a method and a path"));
    };
    let declared = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"));
    let content_len = match declared {
        None => 0,
        Some((_, v)) => match v.trim().parse::<u64>() {
            Ok(n) if n <= MAX_PART_BYTES as u64 => n as usize,
            Ok(_) => return Err(Refusal::TooLarge("request body over 64 KiB")),
            Err(_) => return Err(Refusal::Malformed("Content-Length is not a number")),
        },
    };
    let (method, path) = (method.to_string(), path.to_string());
    let mut body = buf.split_off(header_end + 4);
    while body.len() < content_len {
        let want = (content_len - body.len()).min(1024);
        match stream.read(&mut chunk[..want]) {
            Ok(0) | Err(_) => return Err(Refusal::Malformed("body shorter than Content-Length")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(content_len);
    let body = String::from_utf8_lossy(&body).into_owned();
    Ok(Request { method, path, body })
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
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        match read_request(&mut stream) {
            Ok(req) => dispatch(shared, &mut stream, &req, started),
            Err(Refusal::Closed) => {}
            Err(Refusal::TooLarge(why)) => {
                respond(
                    &mut stream,
                    "413 Payload Too Large",
                    "application/json",
                    &json::error(why),
                );
            }
            Err(Refusal::Malformed(why)) => bad_request(&mut stream, why),
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
            let (strategy, finished) = {
                let session = shared.session.lock();
                (session.strategy_name(), session.finished())
            };
            let body = format!(
                "{{\"status\":\"ok\",\"strategy\":{},\"finished\":{finished},\"uptime_ms\":{}}}",
                quill_telemetry::json::json_string(&strategy),
                started.elapsed().as_millis()
            );
            ok_json(stream, &body);
        }
        ("GET", "/metrics") => {
            let text = quill_telemetry::export::to_prometheus(&shared.registry.snapshot());
            respond(stream, "200 OK", "text/plain; version=0.0.4", &text);
        }
        ("GET", "/trace") => {
            // The dialect `write_spans_jsonl` writes, oldest record first.
            let mut body = String::new();
            for span in shared.spans.spans() {
                body.push_str(&span.to_json_line());
                body.push('\n');
            }
            respond(stream, "200 OK", "application/x-ndjson", &body);
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
        ("GET", None) => match shared.query(id) {
            Some((info, dsl)) => ok_json(stream, &json::query_info(&info, &dsl)),
            None => bad_request(stream, &format!("unknown query id {raw}")),
        },
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A byte source that hands out `data` in pieces ending at `cuts`, then
    /// reports end of stream — a socket, as far as `read_request` can tell.
    /// `at` is how far the reader got.
    struct Pieces<'a> {
        data: &'a [u8],
        cuts: Vec<usize>,
        at: usize,
    }

    impl<'a> Pieces<'a> {
        fn new(data: &'a [u8], cuts: &[usize]) -> Pieces<'a> {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            Pieces { data, cuts, at: 0 }
        }
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let next = self.cuts.iter().copied().find(|&c| c > self.at);
            let end = next.unwrap_or(self.data.len()).min(self.at + buf.len());
            let n = end - self.at;
            buf[..n].copy_from_slice(&self.data[self.at..end]);
            self.at = end;
            Ok(n)
        }
    }

    fn parse(bytes: &[u8]) -> Result<Request, Refusal> {
        read_request(&mut Pieces::new(bytes, &[]))
    }

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.into(),
        }
    }

    #[test]
    fn well_formed_requests_parse() {
        assert_eq!(
            parse(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"),
            Ok(request("GET", "/stats", ""))
        );
        assert_eq!(
            parse(b"POST /queries HTTP/1.1\r\ncontent-LENGTH:  5 \r\n\r\nhello, and more"),
            Ok(request("POST", "/queries", "hello")),
            "header names ignore case, the body stops at its declared length"
        );
        assert_eq!(
            parse(b"POST /finish HTTP/1.1\r\n\r\nstray"),
            Ok(request("POST", "/finish", "")),
            "no Content-Length, no body"
        );
        assert_eq!(
            parse(b"POST /q HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe"),
            Ok(request("POST", "/q", "\u{fffd}\u{fffd}")),
            "a body that is not UTF-8 reaches the DSL parser as replacement characters"
        );
    }

    #[test]
    fn each_malformed_request_gets_its_typed_refusal() {
        let malformed = |bytes: &[u8]| match parse(bytes) {
            Err(Refusal::Malformed(why)) => why,
            other => panic!("expected a 400, got {other:?}"),
        };
        for bad in ["abc", "-1", "1e3", "", "99999999999999999999999"] {
            let req = format!("POST /queries HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert!(malformed(req.as_bytes()).contains("not a number"), "{bad}");
        }
        assert!(malformed(b"GET /\xff HTTP/1.1\r\n\r\n").contains("UTF-8"));
        assert!(malformed(b"GET\r\n\r\n").contains("request line"));
        assert!(malformed(b"\r\n\r\n").contains("request line"));
        assert!(
            malformed(b"POST /queries HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")
                .contains("shorter"),
        );
        // Nothing to answer: the peer left before finishing its head.
        assert_eq!(parse(b""), Err(Refusal::Closed));
        assert_eq!(parse(b"GET /stats HTTP/1.1\r\nHost"), Err(Refusal::Closed));
    }

    #[test]
    fn oversized_heads_and_bodies_are_refused_unread() {
        // A head that never ends: refused at the cap, not one byte later.
        let endless = vec![b'a'; 4 * MAX_PART_BYTES];
        let mut source = Pieces::new(&endless, &[]);
        assert!(matches!(
            read_request(&mut source),
            Err(Refusal::TooLarge(_))
        ));
        assert_eq!(source.at, MAX_PART_BYTES);
        // A head of exactly the cap is still a head.
        let mut head = b"GET / HTTP/1.1\r\nX: ".to_vec();
        head.resize(MAX_PART_BYTES - 4, b'x');
        head.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse(&head), Ok(request("GET", "/", "")));
        // A declared body over the cap is refused on the declaration alone...
        let mut huge = b"POST /queries HTTP/1.1\r\nContent-Length: 65537\r\n\r\n".to_vec();
        let head_len = huge.len();
        huge.resize(head_len + 65_537, b'q');
        let mut source = Pieces::new(&huge, &[head_len]);
        assert!(matches!(
            read_request(&mut source),
            Err(Refusal::TooLarge(_))
        ));
        assert_eq!(source.at, head_len, "no body byte was read");
        let req = format!("POST /q HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX);
        assert!(matches!(parse(req.as_bytes()), Err(Refusal::TooLarge(_))));
        // ...and one of exactly the cap is read in full and no further.
        let mut full = b"POST /queries HTTP/1.1\r\nContent-Length: 65536\r\n\r\n".to_vec();
        let head_len = full.len();
        full.resize(head_len + MAX_PART_BYTES + 100, b'q');
        let mut source = Pieces::new(&full, &[head_len]);
        let parsed = read_request(&mut source).expect("parses");
        assert_eq!(parsed.body.len(), MAX_PART_BYTES);
        assert_eq!(source.at, head_len + MAX_PART_BYTES);
    }

    /// Noise that now and then looks like HTTP: raw bytes between the tokens
    /// the parser branches on.
    fn http_like_noise() -> impl Strategy<Value = Vec<u8>> {
        let token = |t: &'static str| Just(t.as_bytes().to_vec());
        let piece = prop_oneof![
            prop::collection::vec(any::<u8>(), 0..6),
            token("\r\n"),
            token("\r\n\r\n"),
            token("POST /queries "),
            token("Content-Length:"),
            token(" 7"),
            token("70000"),
        ];
        prop::collection::vec(piece, 0..40).prop_map(|pieces| pieces.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_in_arbitrary_pieces_never_panic(
            bytes in http_like_noise(),
            cuts in prop::collection::vec(any::<usize>(), 0..8),
        ) {
            let whole = parse(&bytes);
            // The verdict is a function of the bytes, not of how they arrived.
            prop_assert_eq!(read_request(&mut Pieces::new(&bytes, &cuts)), whole);
        }

        #[test]
        fn request_shaped_bytes_parse_the_same_however_they_are_cut(
            method in "[A-Z]{1,7}",
            path in "/[a-z0-9/]{0,20}",
            headers in prop::collection::vec(("[A-Za-z-]{1,12}", "[ -~]{0,20}"), 0..4),
            body in prop::collection::vec(any::<u8>(), 0..300),
            // Declared length relative to the real one: short, exact, long.
            declared in prop_oneof![Just(-3i64), Just(0), Just(0), Just(4)],
            cuts in prop::collection::vec(any::<usize>(), 0..8),
        ) {
            let declared = (body.len() as i64 + declared).max(0) as usize;
            let mut bytes = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
            for (k, v) in headers.iter().filter(|(k, _)| !k.eq_ignore_ascii_case("content-length")) {
                bytes.extend_from_slice(format!("{k}: {v}\r\n").as_bytes());
            }
            bytes.extend_from_slice(format!("Content-Length: {declared}\r\n\r\n").as_bytes());
            bytes.extend_from_slice(&body);
            let whole = parse(&bytes);
            if declared <= body.len() {
                let text = String::from_utf8_lossy(&body[..declared]).into_owned();
                prop_assert_eq!(&whole, &Ok(request(&method, &path, &text)));
            } else {
                prop_assert!(matches!(whole, Err(Refusal::Malformed(_))));
            }
            prop_assert_eq!(read_request(&mut Pieces::new(&bytes, &cuts)), whole);
            let every_byte: Vec<usize> = (0..bytes.len()).collect();
            prop_assert_eq!(read_request(&mut Pieces::new(&bytes, &every_byte)), parse(&bytes));
        }
    }
}
