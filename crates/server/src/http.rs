//! A deliberately small HTTP/1.1 layer over `std::net` — request parsing,
//! the route table, and canned responses. One thread per connection, at
//! most [`MAX_CONNECTIONS`] at once, `Connection: close`; campaign replays
//! never run on connection threads, so a slow client cannot stall the
//! service, and every socket carries a read and a write timeout and every
//! request a deadline, so a stalled or trickling one cannot hold its
//! thread.
//!
//! The one exception to request/response/close is
//! `GET /campaigns/:id/events`: that connection switches to a
//! Server-Sent-Events stream over keep-alive and its thread tails the
//! campaign's [`EventLog`](crate::EventLog) until the terminal frame.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::campaign::ExplainError;
use crate::ServerState;

/// Upper bound on request size (headers + body); larger submissions are
/// refused with 413.
const MAX_REQUEST_BYTES: usize = 4 << 20;

/// How long a connection may stay silent before its request is complete;
/// after that it is answered `408 Request Timeout` and closed.
const READ_TIMEOUT: Duration = Duration::from_millis(if cfg!(test) { 300 } else { 10_000 });

/// How long a whole request may take to arrive, however steadily its bytes
/// trickle in; after that it is answered `408 Request Timeout` and closed.
const REQUEST_DEADLINE: Duration = Duration::from_millis(if cfg!(test) { 1_000 } else { 30_000 });

/// How long one write may block on a client that has stopped reading — an
/// SSE subscriber included — before the connection is dropped.
const WRITE_TIMEOUT: Duration = READ_TIMEOUT;

/// How many connections are served at once. Past it the accept loop answers
/// `503 Service Unavailable` itself and closes, so clients that hold their
/// connections (stalled ones until their deadline, SSE subscribers until
/// the campaign ends) cannot make the daemon spawn threads without bound.
const MAX_CONNECTIONS: usize = if cfg!(test) { 4 } else { 256 };

/// How long an idle SSE stream waits for news before emitting a
/// `: keep-alive` comment so proxies and clients see a live socket.
const SSE_KEEP_ALIVE: Duration = Duration::from_secs(10);

/// A parsed request.
struct Request {
    method: String,
    path: String,
    /// Header `(name, value)` pairs, names lowercased.
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    /// First value of `name` (lowercase), if present.
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the `Accept` header asks for the Prometheus text format
    /// rather than JSON. Prometheus scrapers send `text/plain` (with a
    /// `version=` parameter) or `application/openmetrics-text`.
    fn wants_prometheus_text(&self) -> bool {
        self.header("accept")
            .is_some_and(|accept| accept.contains("text/plain") || accept.contains("openmetrics"))
    }
}

/// Accept loop. Returns when the state's shutdown flag is raised (the
/// shutdown path makes one dummy connection to unblock `accept`).
pub(crate) fn serve(state: Arc<ServerState>, listener: TcpListener) {
    // Only this loop adds to the count, so a slot seen free stays free
    // until it is taken.
    let live = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if live.load(Ordering::Acquire) >= MAX_CONNECTIONS {
            let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
            let body = error_body("too many connections");
            respond(&mut stream, 503, "Service Unavailable", JSON, body);
            continue;
        }
        let slot = Slot::take(&live);
        let state = Arc::clone(&state);
        let _ = thread::Builder::new()
            .name("er-pi-http".to_owned())
            .spawn(move || {
                handle(&state, &mut stream);
                // The slot frees before the socket closes, so a client
                // that saw this response end can connect again at once.
                drop(slot);
            });
    }
}

/// One of the [`MAX_CONNECTIONS`] slots, held by a connection thread and
/// given back when dropped (a panicking handler included).
struct Slot(Arc<AtomicUsize>);

impl Slot {
    fn take(live: &Arc<AtomicUsize>) -> Self {
        live.fetch_add(1, Ordering::AcqRel);
        Slot(Arc::clone(live))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Serves one connection: parse, route, respond. The caller closes it.
fn handle(state: &ServerState, stream: &mut TcpStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let request = match read_request(stream) {
        Ok(Some(request)) => request,
        refused => {
            let (code, reason, message) = match refused {
                Ok(_) => (413, "Payload Too Large", "too large"),
                // A read that timed out is `WouldBlock` on Unix, `TimedOut`
                // elsewhere.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    (408, "Request Timeout", "request not received in time")
                }
                Err(_) => (400, "Bad Request", "malformed request"),
            };
            respond(stream, code, reason, JSON, error_body(message));
            return;
        }
    };
    // The SSE endpoint streams instead of responding once; everything
    // else goes through the route table.
    {
        let segments = path_segments(&request.path);
        if request.method == "GET"
            && segments.len() == 3
            && segments[0] == "campaigns"
            && segments[2] == "events"
        {
            stream_events(state, stream, segments[1]);
            return;
        }
    }
    let (code, reason, content_type, body) = route(state, &request);
    respond(stream, code, reason, content_type, body);
}

fn path_segments(path: &str) -> Vec<&str> {
    path.split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect()
}

const JSON: &str = "application/json";
/// The Prometheus text exposition format's content type.
const PROM_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Dispatches one request to its handler.
fn route(state: &ServerState, request: &Request) -> (u16, &'static str, &'static str, String) {
    let segments = path_segments(&request.path);
    let json = |code, reason, body| (code, reason, JSON, body);
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => json(200, "OK", r#"{"status":"ok"}"#.to_owned()),
        ("GET", ["metrics"]) if request.wants_prometheus_text() => {
            (200, "OK", PROM_TEXT, prometheus_body(state))
        }
        ("GET", ["metrics"]) => json(200, "OK", metrics_body(state)),
        ("POST", ["campaigns"]) => {
            let (code, reason, body) = submit(state, &request.body);
            json(code, reason, body)
        }
        ("GET", ["campaigns", id]) => match state.campaign(id) {
            Some(c) => json(200, "OK", c.status_json()),
            None => not_found(id),
        },
        ("GET", ["campaigns", id, "report"]) => match state.campaign(id) {
            Some(c) => match c.report_json() {
                Some(body) => json(200, "OK", body),
                None => json(
                    409,
                    "Conflict",
                    error_body(&format!("campaign is {}", c.phase().as_str())),
                ),
            },
            None => not_found(id),
        },
        ("GET", ["campaigns", id, "violations", n]) => match state.campaign(id) {
            Some(c) => match n.parse::<usize>() {
                Ok(n) => match c.violation_json(n) {
                    Ok(body) => json(200, "OK", body),
                    Err(ExplainError::NotDone) => json(
                        409,
                        "Conflict",
                        error_body(&format!("campaign is {}", c.phase().as_str())),
                    ),
                    Err(ExplainError::OutOfRange) => {
                        json(404, "Not Found", error_body(&format!("no violation {n}")))
                    }
                    Err(ExplainError::NoInterleaving) => json(
                        422,
                        "Unprocessable Entity",
                        error_body("cross-run violation has no interleaving to replay"),
                    ),
                },
                Err(_) => json(
                    400,
                    "Bad Request",
                    error_body("violation index not a number"),
                ),
            },
            None => not_found(id),
        },
        ("DELETE", ["campaigns", id]) => match state.cancel_campaign(id) {
            Some(phase) => json(
                202,
                "Accepted",
                format!(r#"{{"id":{},"state":"{}"}}"#, json_str(id), phase),
            ),
            None => not_found(id),
        },
        (_, ["healthz" | "metrics" | "campaigns", ..]) => {
            json(405, "Method Not Allowed", error_body("method not allowed"))
        }
        _ => json(404, "Not Found", error_body("no such route")),
    }
}

/// `GET /campaigns/:id/events`: switch the connection to a Server-Sent-
/// Events stream. The client immediately gets a `status` frame, then the
/// campaign's full event history, then live frames as the runner appends
/// them, then the terminal frame — at which point the stream ends.
fn stream_events(state: &ServerState, stream: &mut TcpStream, id: &str) {
    let Some(campaign) = state.campaign(id) else {
        let (code, reason, body) = (404, "Not Found", error_body(&format!("no campaign {id}")));
        respond(stream, code, reason, JSON, body);
        return;
    };
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: keep-alive\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    // The greeting frame guarantees at least one event even for a
    // campaign that is still queued (and, with the terminal frame, at
    // least two over any complete stream).
    let greeting = format!("event: status\ndata: {}\n\n", campaign.status_json());
    if stream.write_all(greeting.as_bytes()).is_err() {
        return;
    }
    let mut cursor = 0usize;
    loop {
        let (frames, closed) = campaign.events.wait_from(cursor, SSE_KEEP_ALIVE);
        if frames.is_empty() {
            if closed {
                return;
            }
            // Nothing new within the window: prove the socket is alive.
            if stream.write_all(b": keep-alive\n\n").is_err() {
                return;
            }
            continue;
        }
        cursor += frames.len();
        for frame in frames {
            if stream.write_all(frame.as_bytes()).is_err() {
                return;
            }
        }
        if closed {
            return;
        }
        let _ = stream.flush();
    }
}

/// `POST /campaigns`: parse, validate, admit.
fn submit(state: &ServerState, body: &[u8]) -> (u16, &'static str, String) {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return (400, "Bad Request", error_body("body is not UTF-8")),
    };
    match state.submit(text) {
        Ok(campaign) => (
            202,
            "Accepted",
            format!(r#"{{"id":{},"state":"queued"}}"#, json_str(&campaign.id)),
        ),
        Err(crate::SubmitError::Invalid(e)) => (400, "Bad Request", error_body(&e)),
        Err(crate::SubmitError::QueueFull) => {
            // The rejection counters (fleet + per-tenant) are bumped in
            // `ServerState::submit`, where the tenant is known.
            (429, "Too Many Requests", error_body("queue full"))
        }
    }
}

fn metrics_body(state: &ServerState) -> String {
    let running = state.running_count();
    let body = state.metrics.body(
        state.queue.depth(),
        running,
        state.service.workers(),
        state.service.queued(),
    );
    serde_json::to_string(&body).expect("metrics bodies are serializable")
}

/// The Prometheus text exposition: refresh the scrape-time gauges from
/// live daemon state, then render every family in the shared registry.
fn prometheus_body(state: &ServerState) -> String {
    state.metrics.set_live(
        state.queue.depth(),
        state.running_count(),
        state.service.workers(),
        state.service.queued(),
        &state.queue.tenant_depths(),
    );
    state.metrics.registry().render_prometheus()
}

fn not_found(id: &str) -> (u16, &'static str, &'static str, String) {
    (
        404,
        "Not Found",
        JSON,
        error_body(&format!("no campaign {id}")),
    )
}

fn error_body(message: &str) -> String {
    format!(r#"{{"error":{}}}"#, json_str(message))
}

/// Minimal JSON string escaping for hand-built bodies.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reads into `chunk`, waiting at most [`READ_TIMEOUT`] and not past
/// `deadline`.
fn read_by(stream: &mut TcpStream, chunk: &mut [u8], deadline: Instant) -> std::io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left.min(READ_TIMEOUT)))?;
    stream.read(chunk)
}

/// Reads one request within [`REQUEST_DEADLINE`]. `Ok(None)` means the
/// request exceeded [`MAX_REQUEST_BYTES`].
fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Where the terminator scan resumes: a `\r\n\r\n` split across two
    // reads starts at most 3 bytes before the newer one, so each byte is
    // scanned once.
    let mut scanned = 0;
    let header_end = loop {
        if let Some(at) = find_header_end(&buf[scanned..]) {
            break scanned + at;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Ok(None);
        }
        scanned = buf.len().saturating_sub(3);
        let n = read_by(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| malformed("non-UTF-8 header"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    if method.is_empty() || path.is_empty() {
        return Err(malformed("bad request line"));
    }
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    for line in lines {
        // A field name is a token: a line without `:`, a folded
        // continuation line and `Name : value` are all refused.
        let (name, value) = line
            .split_once(':')
            .filter(|(name, _)| !name.is_empty() && !name.contains(char::is_whitespace))
            .ok_or_else(|| malformed("bad header line"))?;
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| malformed("bad content-length"))?;
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }
    // `content_length` is the client's: compare without adding to it.
    if content_length > MAX_REQUEST_BYTES.saturating_sub(header_end + 4) {
        return Ok(None);
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_by(stream, &mut chunk, deadline)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

fn malformed(what: &'static str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, what)
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one response and lets the connection close.
fn respond(stream: &mut TcpStream, code: u16, reason: &str, content_type: &str, body: String) {
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn test_server() -> crate::ServerHandle {
        let config = crate::ServerConfig {
            port: 0,
            workers: 1,
            runners: 1,
            queue_cap: 1,
        };
        crate::Server::bind(config).unwrap().spawn().unwrap()
    }

    /// Everything the server sends until it closes.
    fn read_response(stream: &mut TcpStream) -> String {
        // A guard for the test itself: fail rather than hang.
        stream.set_read_timeout(Some(READ_TIMEOUT * 20)).unwrap();
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .expect("the server answers and closes within its deadline");
        response
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("plain"), r#""plain""#);
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    /// One request over a fresh connection to a one-worker daemon: `parts`
    /// written in turn, a pause after each, then the whole response.
    fn exchange_in_parts(parts: &[&[u8]]) -> String {
        let server = test_server();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        for part in parts {
            client.write_all(part).unwrap();
            client.flush().unwrap();
            thread::sleep(Duration::from_millis(20));
        }
        let response = read_response(&mut client);
        server.shutdown();
        response
    }

    #[test]
    fn a_terminator_split_across_reads_is_found() {
        let response = exchange_in_parts(&[b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r", b"\n"]);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    }

    /// The bound is on headers and body together: 3 MiB of headers and a
    /// declared 2 MiB body each fit alone, and are refused before the body
    /// is read.
    #[test]
    fn headers_and_body_share_one_size_bound() {
        let padding = format!("X-Pad: {}\r\n", "a".repeat(3 << 20));
        let head = format!(
            "POST /campaigns HTTP/1.1\r\n{padding}Content-Length: {}\r\n\r\n",
            2 << 20
        );
        let response = exchange_in_parts(&[head.as_bytes()]);
        assert!(
            response.starts_with("HTTP/1.1 413 Payload Too Large"),
            "{response}"
        );
    }

    /// A declared length that would overflow the headers + body sum is
    /// refused like any other oversized body, not wrapped into a small one.
    #[test]
    fn a_content_length_at_usize_max_gets_413() {
        let head = format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            usize::MAX
        );
        let response = exchange_in_parts(&[head.as_bytes()]);
        assert!(
            response.starts_with("HTTP/1.1 413 Payload Too Large"),
            "{response}"
        );
    }

    /// A spec whose `bug` is a string of about 4 MiB is read in one pass
    /// and refused well inside the request deadline; a reader that decoded
    /// the rest of the input at every character took minutes over it.
    #[test]
    fn a_four_mib_bug_name_gets_400_within_the_deadline() {
        let body = format!(r#"{{"bug":"{}"}}"#, "A".repeat(MAX_REQUEST_BYTES - 1024));
        let head = format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let started = Instant::now();
        let response = exchange_in_parts(&[head.as_bytes(), body.as_bytes()]);
        let elapsed = started.elapsed();
        assert!(
            response.starts_with("HTTP/1.1 400 Bad Request"),
            "{}",
            &response[..response.len().min(200)]
        );
        assert!(response.contains("unknown catalogue bug 'AAAA"));
        assert!(elapsed < REQUEST_DEADLINE, "answered after {elapsed:?}");
    }

    /// A spec holding a number outside JSON's grammar is refused as JSON:
    /// `0200` once read as 200 and queued a campaign.
    #[test]
    fn a_number_outside_the_json_grammar_gets_400() {
        for cap in ["0200", "200.", "2e"] {
            let body = format!(r#"{{"bug":"Roshi-1","cap":{cap}}}"#);
            let request = format!(
                "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let response = exchange_in_parts(&[request.as_bytes()]);
            assert!(
                response.starts_with("HTTP/1.1 400 Bad Request"),
                "{cap}: {response}"
            );
            let refusal = format!("invalid number `{cap}`");
            assert!(response.contains(&refusal), "{cap}: {response}");
        }
    }

    // The route table itself is exercised end-to-end (over a real socket)
    // by the workspace-level `server_equivalence` suite.

    #[test]
    fn stalled_clients_get_408_while_others_are_served() {
        let server = test_server();
        let silent = TcpStream::connect(server.addr()).unwrap();
        let mut half = TcpStream::connect(server.addr()).unwrap();
        half.write_all(b"GET /healthz HTTP/1.1\r\nHost: x").unwrap();

        // Both stalled connections are open; a third one is served.
        let mut live = TcpStream::connect(server.addr()).unwrap();
        live.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let response = read_response(&mut live);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");

        for mut stalled in [silent, half] {
            let response = read_response(&mut stalled);
            assert!(
                response.starts_with("HTTP/1.1 408 Request Timeout"),
                "{response}"
            );
        }
        server.shutdown();
    }

    /// One header byte every third of a read timeout: no single read ever
    /// times out, and the request deadline still answers it.
    #[test]
    fn a_trickling_client_gets_408_at_the_request_deadline() {
        let server = test_server();
        let started = Instant::now();
        let mut slow = TcpStream::connect(server.addr()).unwrap();
        slow.write_all(b"GET /healthz HTTP/1.1\r\nX-Trickle: ")
            .unwrap();
        slow.set_read_timeout(Some(READ_TIMEOUT / 3)).unwrap();
        let mut response = Vec::new();
        let mut served = false;
        // A guard for the test itself: a server without a deadline would
        // take the bytes for ever, so stop trickling and fail.
        while started.elapsed() < REQUEST_DEADLINE * 4 {
            if slow.write_all(b"a").is_err() {
                break;
            }
            let mut chunk = [0u8; 256];
            match slow.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => response.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => panic!("trickling: {e}"),
            }
            if !served && started.elapsed() > READ_TIMEOUT * 2 {
                // Past a read timeout of trickling, another client is served.
                let mut live = TcpStream::connect(server.addr()).unwrap();
                live.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
                let healthz = read_response(&mut live);
                assert!(healthz.starts_with("HTTP/1.1 200 OK"), "{healthz}");
                served = true;
            }
        }
        let elapsed = started.elapsed();
        let response = String::from_utf8_lossy(&response);
        assert!(
            response.starts_with("HTTP/1.1 408 Request Timeout"),
            "after {elapsed:?}: {response:?}"
        );
        assert!(served);
        assert!(elapsed < REQUEST_DEADLINE * 2, "answered after {elapsed:?}");
        server.shutdown();
    }

    /// A header line that is not `name: value` is refused, not skipped (the
    /// generated sweep below found it skipped and the request served).
    #[test]
    fn a_header_line_that_is_not_a_field_gets_400() {
        for line in [
            "Host x",
            " folded continuation",
            "Content-Length : 0",
            ": empty",
        ] {
            let request = format!("GET /healthz HTTP/1.0\r\n{line}\r\n\r\n");
            let response = exchange_in_parts(&[request.as_bytes()]);
            assert!(
                response.starts_with("HTTP/1.1 400 Bad Request"),
                "{line:?}: {response}"
            );
        }
    }

    /// Holding every slot with a silent connection, the next client is
    /// answered 503 by the accept loop; once the silent ones get their 408,
    /// the daemon serves again.
    #[test]
    fn past_the_connection_cap_a_client_gets_503() {
        let server = test_server();
        let stalled: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        let mut over = TcpStream::connect(server.addr()).unwrap();
        let response = read_response(&mut over);
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{response}"
        );
        for mut stalled in stalled {
            let response = read_response(&mut stalled);
            assert!(
                response.starts_with("HTTP/1.1 408 Request Timeout"),
                "{response}"
            );
        }
        let mut live = TcpStream::connect(server.addr()).unwrap();
        live.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let response = read_response(&mut live);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        server.shutdown();
    }

    /// One generated request: its bytes, and whether it is malformed (and
    /// so must be refused with a 4xx) rather than merely odd.
    #[derive(Debug)]
    struct Generated {
        bytes: Vec<u8>,
        malformed: bool,
    }

    const METHODS: &[&str] = &["GET", "POST", "DELETE", "PUT"];
    const PATHS: &[&str] = &["/healthz", "/metrics", "/campaigns", "/nope"];
    const VERSIONS: &[&str] = &["HTTP/1.1", "HTTP/1.0", "HTTP/2"];
    const HEADERS: &[&str] = &["Host: x", "Accept: text/plain", "X-C: a:b"];
    const NO_COLON: &[&str] = &["Host x", "X-No-Colon", " folded continuation"];
    const NON_UTF8: &[&[u8]] = &[b"\xff", b"\xc3\x28", b"\x80abc", b"\xed\xa0\x80"];

    /// A well-formed request with one family's defect, or none: family 0 is
    /// well-formed, 1 has a request line of fewer than two tokens, 2 a
    /// header line without `:`, 3 non-UTF-8 header bytes, 4 a `Content-Length`
    /// that is no length, 5 one longer than the body sent, 6 one shorter.
    /// Only 6 is not malformed: the bytes past the length are ignored.
    fn request() -> impl Strategy<Value = Generated> {
        let line = (0..METHODS.len(), 0..PATHS.len(), 0..VERSIONS.len());
        let headers = proptest::collection::vec(0..HEADERS.len(), 0..3);
        let body = proptest::collection::vec(any::<u8>(), 1..48);
        (0u8..7, line, headers, body, any::<usize>()).prop_map(
            |(family, (m, p, v), headers, body, pick)| {
                let tokens = [METHODS[m], PATHS[p], VERSIONS[v]];
                let line = tokens[..if family == 1 { pick % 2 } else { 3 }].join(" ");
                let mut bytes = format!("{line}\r\n").into_bytes();
                for &h in &headers {
                    bytes.extend_from_slice(format!("{}\r\n", HEADERS[h]).as_bytes());
                }
                let length = match family {
                    2 => {
                        let line = NO_COLON[pick % NO_COLON.len()];
                        bytes.extend_from_slice(format!("{line}\r\n").as_bytes());
                        body.len().to_string()
                    }
                    3 => {
                        bytes.extend_from_slice(b"X-Bytes: ");
                        bytes.extend_from_slice(NON_UTF8[pick % NON_UTF8.len()]);
                        bytes.extend_from_slice(b"\r\n");
                        body.len().to_string()
                    }
                    4 => {
                        let past_usize = (usize::MAX as u128 + 1).to_string();
                        let bad = ["abc", "", "12x", "-1", "0x10", &past_usize];
                        bad[pick % bad.len()].to_owned()
                    }
                    5 => (body.len() + 1 + pick % 16).to_string(),
                    6 => (pick % body.len()).to_string(),
                    _ => body.len().to_string(),
                };
                bytes.extend_from_slice(format!("Content-Length: {length}\r\n\r\n").as_bytes());
                bytes.extend_from_slice(&body);
                Generated {
                    bytes,
                    malformed: (1..=5).contains(&family),
                }
            },
        )
    }

    /// Every generated request is answered with a status line, a malformed
    /// one with a 4xx, and the daemon still serves `/healthz` after the
    /// sweep. Each case half-closes after writing, so a body shorter than
    /// its length ends in EOF rather than a read timeout.
    #[test]
    fn every_malformed_request_gets_a_status_line() {
        use proptest::test_runner::TestRng;

        let server = test_server();
        let strategy = request();
        for case in 0..64 {
            let mut rng =
                TestRng::for_case("http::every_malformed_request_gets_a_status_line", case);
            let generated = strategy.generate(&mut rng);
            let mut client = TcpStream::connect(server.addr()).unwrap();
            client.write_all(&generated.bytes).unwrap();
            client.shutdown(std::net::Shutdown::Write).unwrap();
            let response = read_response(&mut client);
            let code = response
                .strip_prefix("HTTP/1.1 ")
                .and_then(|rest| rest.get(..4))
                .and_then(|code| code.strip_suffix(' '))
                .and_then(|code| code.parse::<u16>().ok());
            let request = String::from_utf8_lossy(&generated.bytes);
            let Some(code) = code else {
                panic!("case {case}: {request:?} got no status line: {response:?}");
            };
            if generated.malformed {
                assert!(
                    (400..500).contains(&code),
                    "case {case}: malformed {request:?} got {code}"
                );
            }
        }
        let mut live = TcpStream::connect(server.addr()).unwrap();
        live.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let response = read_response(&mut live);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        server.shutdown();
    }

    #[test]
    fn phase_names_are_wire_stable() {
        use crate::campaign::Phase;
        // The report endpoint leans on these names in its 409 body.
        assert_eq!(Phase::Queued.as_str(), "queued");
        assert_eq!(Phase::Running.as_str(), "running");
    }
}
