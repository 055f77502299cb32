//! An HTTP client for the campaign daemon: one `Connection: close`
//! exchange per call over a real socket, and the poll loops on a
//! campaign's status.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use er_pi_server::{Server, ServerConfig, ServerHandle};

/// The states a campaign does not leave.
pub const TERMINAL: [&str; 3] = ["done", "cancelled", "failed"];

/// A daemon on an ephemeral port, and its address.
pub fn daemon(config: ServerConfig) -> (ServerHandle, String) {
    let handle = Server::bind(config)
        .expect("binds")
        .spawn()
        .expect("spawns");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Sends `request` and reads the whole response: its status code, header
/// block and body.
fn exchange(addr: &str, request: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream
        .write_all(request.as_bytes())
        .expect("write the request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read the response");
    let (head, body) = response.split_once("\r\n\r\n").expect("a header block");
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("a status line");
    (code, head.to_owned(), body.to_owned())
}

/// A request without a body: its status code and body.
fn bodiless(addr: &str, method: &str, path: &str) -> (u16, String) {
    let request = format!("{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let (code, _, body) = exchange(addr, &request);
    (code, body)
}

pub fn get(addr: &str, path: &str) -> (u16, String) {
    bodiless(addr, "GET", path)
}

pub fn delete(addr: &str, path: &str) -> (u16, String) {
    bodiless(addr, "DELETE", path)
}

/// A `GET` asking for `accept`: the status code, the `Content-Type` served
/// and the body.
pub fn get_accept(addr: &str, path: &str, accept: &str) -> (u16, String, String) {
    let (code, head, body) = exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nAccept: {accept}\r\nConnection: close\r\n\r\n"),
    );
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or_default()
        .to_owned();
    (code, content_type, body)
}

pub fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    let (code, _, body) = exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    (code, body)
}

/// The scalar value of the first `"name":` key in `json`, unquoted.
pub fn field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let at = json.find(&key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Submits `spec` and returns the id of the admitted campaign.
pub fn submit_id(addr: &str, spec: &str) -> String {
    let (code, body) = post(addr, "/campaigns", spec);
    assert_eq!(code, 202, "submission refused: {body}");
    field(&body, "id").expect("an id").to_owned()
}

/// Polls campaign `id`'s status until `done` holds of its state and body,
/// and returns that body; panics after 120 s.
fn poll(addr: &str, id: &str, done: impl Fn(&str, &str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = get(addr, &format!("/campaigns/{id}"));
        assert_eq!(code, 200, "status poll failed: {body}");
        let state = field(&body, "state").expect("a state").to_owned();
        if done(&state, &body) {
            return body;
        }
        assert!(Instant::now() < deadline, "campaign {id} stuck in {state}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Polls until the campaign reaches one of `want`; returns its status body.
pub fn poll_until(addr: &str, id: &str, want: &[&str]) -> String {
    poll(addr, id, |state, _| want.contains(&state))
}

/// Polls until the campaign ends, and requires that it ended `done`.
pub fn poll_until_done(addr: &str, id: &str) {
    let body = poll_until(addr, id, &TERMINAL);
    assert_eq!(field(&body, "state"), Some("done"), "{body}");
}

/// Polls until the campaign is running *and* has published a live
/// progress snapshot — i.e. exploration proper is under way.
pub fn poll_until_progress(addr: &str, id: &str) {
    poll(addr, id, |state, body| {
        let progressed = body.contains("\"runs_done\"");
        assert!(
            progressed || !TERMINAL.contains(&state),
            "campaign {id} ended ({state}) before progress was observed"
        );
        progressed
    });
}
