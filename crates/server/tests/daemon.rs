//! The `er-pi-server` binary itself: it parses its flags, binds, announces
//! its address on stdout and serves; a flag it does not know is a usage
//! error (exit code 2).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const DAEMON: &str = env!("CARGO_BIN_EXE_er-pi-server");

/// A spawned daemon, stopped however the test ends.
struct Running(Child);

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn the_daemon_announces_its_port_and_answers_healthz() {
    let mut daemon = Running(
        Command::new(DAEMON)
            .args(["--port", "0", "--workers", "1", "--runners", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn er-pi-server"),
    );
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the announcement");
    let addr = line
        .trim()
        .strip_prefix("er-pi-server listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_owned();

    let mut stream = TcpStream::connect(&addr).expect("connect to the daemon");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("write the request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read the response");
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(
        response.ends_with("\r\n\r\n{\"status\":\"ok\"}"),
        "{response}"
    );
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let output = Command::new(DAEMON)
        .arg("--bogus")
        .output()
        .expect("run er-pi-server");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("usage: er-pi-server"), "{stderr}");
}
