//! The campaign daemon, seen from one client: spec validation, and submit →
//! report over a loopback socket against an in-process `Server` with one
//! executor worker and one runner.
//!
//! Informational only. The hand-offs between the connection thread, the
//! runner and the worker spread 19 % between runs on this two-core VM even
//! after calibration, so no end-to-end metric rests on them; the numbers
//! are recorded so a later daemon workload has a history to compare with.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use er_pi_server::{CampaignSpec, Server, ServerConfig};

use crate::stats::{iqr_share, median};

const SPEC: &str = r#"{"tenant": "bench", "bug": "Roshi-1", "cap": 10000}"#;
const SUBMISSIONS: usize = 9;
const VALIDATIONS: usize = 50;

fn exchange(addr: &str, request: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("no status line")?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((code, body))
}

fn get(addr: &str, path: &str) -> Result<(u16, String), String> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"),
    )
}

/// Submits [`SPEC`], waits on the campaign's event stream until its
/// terminal frame, fetches the report. Milliseconds from submit to report.
fn submit_to_report(addr: &str) -> Result<f64, String> {
    let started = Instant::now();
    let (code, body) = exchange(
        addr,
        &format!(
            "POST /campaigns HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{SPEC}",
            SPEC.len()
        ),
    )?;
    if code != 202 {
        return Err(format!("submission refused with {code}: {body}"));
    }
    let id = body
        .split_once("\"id\":")
        .and_then(|(_, rest)| rest.split('"').nth(1))
        .ok_or("no campaign id in the 202 body")?
        .to_owned();
    let (code, events) = get(addr, &format!("/campaigns/{id}/events"))?;
    if code != 200 || !events.contains("event: done") {
        return Err(format!("event stream ended without `done` ({code})"));
    }
    let (code, report) = get(addr, &format!("/campaigns/{id}/report"))?;
    if code != 200 || !report.contains("\"explored\"") {
        return Err(format!("no report ({code})"));
    }
    Ok(started.elapsed().as_secs_f64() * 1e3)
}

/// `(spec_validate_us, submit_to_report_ms, submit_to_report_iqr_share)`.
/// All zero, with a note on stderr, where no loopback socket can be bound.
pub fn run() -> (f64, f64, f64) {
    let validations: Vec<f64> = (0..VALIDATIONS)
        .map(|_| {
            let started = Instant::now();
            let spec: CampaignSpec = serde_json::from_str(SPEC).expect("the probe spec parses");
            let valid = spec.validate().expect("the probe spec is valid");
            let us = started.elapsed().as_secs_f64() * 1e6;
            drop(valid);
            us
        })
        .collect();
    let validate_us = median(&validations);

    let handle = Server::bind(ServerConfig {
        port: 0,
        workers: 1,
        runners: 1,
        queue_cap: 4,
    })
    .and_then(Server::spawn);
    let handle = match handle {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("server probe skipped: cannot serve on loopback: {error}");
            return (validate_us, 0.0, 0.0);
        }
    };
    let addr = handle.addr().to_string();
    let submissions: Result<Vec<f64>, String> =
        (0..SUBMISSIONS).map(|_| submit_to_report(&addr)).collect();
    handle.shutdown();
    match submissions {
        Ok(ms) => (validate_us, median(&ms), iqr_share(&ms)),
        Err(error) => {
            eprintln!("server probe failed: {error}");
            (validate_us, 0.0, 0.0)
        }
    }
}
