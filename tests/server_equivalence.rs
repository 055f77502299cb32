//! The campaign server's determinism contract, end to end.
//!
//! 1. **Co-tenancy equivalence**: for every catalogue bug, the report a
//!    campaign produces on a shared [`ExecutorService`] — while two
//!    competing campaigns at different priorities are co-scheduled over
//!    the same workers — is byte-identical (under
//!    [`Report::canonical_json`]) to the standalone sequential session, at
//!    1, 2 and 4 service workers.
//! 2. **Socket lifecycle**: over a real TCP connection — submit, live
//!    progress, mid-campaign `DELETE` that stops *only* the targeted
//!    campaign, final report retrieval, and metrics.
//! 3. **Backpressure**: bounded admission refuses with 429 once the queue
//!    is full, and queued campaigns can be cancelled before they start.
//! 4. **Admission parity**: a served *trace* obeys every replay key the
//!    daemon admits — its report is the standalone oracle's under the same
//!    `ReplayConfig`.

mod common;

use common::WORKER_COUNTS;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use er_pi::{Attachments, ExecutorService, ReplayConfig, Report};
use er_pi_fuzz::{report_for, FuzzCase};
use er_pi_server::{Server, ServerConfig};
use er_pi_subjects::Bug;

/// The standalone side replays on one slot; the service brings its own.
fn opts() -> ReplayConfig {
    ReplayConfig {
        workers: 1,
        ..ReplayConfig::default()
    }
}

/// For each catalogue bug: standalone sequential report vs the same spec
/// replayed as one of three concurrently submitted campaigns (priorities
/// 0, 5 and 9) on a shared service.
#[test]
fn co_scheduled_campaign_reports_are_byte_identical_to_standalone() {
    let catalogue = Bug::catalogue();
    let standalone: Vec<(String, Report)> = catalogue
        .iter()
        .map(|bug| (bug.name.to_owned(), bug.replay_report_opts(&opts())))
        .collect();
    for workers in WORKER_COUNTS {
        let service = ExecutorService::new(workers);
        for (name, baseline) in &standalone {
            let bug = Bug::by_name(name).expect("catalogue bug");
            // Two competitors keep the shared workers busy while the bug
            // under test replays; all three run concurrently.
            let competitors = [("Roshi-1", 0u8), ("Yorkie-1", 9u8)];
            let served = thread::scope(|scope| {
                for (rival, priority) in competitors {
                    let service = &service;
                    scope.spawn(move || {
                        let rival = Bug::by_name(rival).expect("catalogue bug");
                        let rival_opts = ReplayConfig {
                            cap: 1_000,
                            ..opts()
                        };
                        rival
                            .replay_report_on(
                                service,
                                priority,
                                &rival_opts,
                                Attachments::default(),
                            )
                            .expect("competitor campaigns finish");
                    });
                }
                bug.replay_report_on(&service, 5, &opts(), Attachments::default())
                    .expect("the campaign under test finishes")
            });
            assert_eq!(
                baseline.diff(&served),
                None,
                "{name} diverged at {workers} service workers"
            );
            assert_eq!(
                baseline.canonical_json(),
                served.canonical_json(),
                "{name} canonical bytes diverged at {workers} service workers"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Socket-level helpers: one Connection: close exchange per call.
// ---------------------------------------------------------------------

fn exchange(addr: &str, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream
        .write_all(request.as_bytes())
        .expect("write the request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read the response");
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("a status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (code, body)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn delete(addr: &str, path: &str) -> (u16, String) {
    exchange(
        addr,
        &format!("DELETE {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let at = json.find(&key)? + key.len();
    let rest = json[at..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn submit_id(addr: &str, spec: &str) -> String {
    let (code, body) = post(addr, "/campaigns", spec);
    assert_eq!(code, 202, "submission refused: {body}");
    field(&body, "id").expect("an id").to_owned()
}

/// Polls until the campaign reaches `want` (or any terminal state if
/// `want` is terminal-only); panics after 120 s.
fn poll_until(addr: &str, id: &str, want: &[&str]) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = get(addr, &format!("/campaigns/{id}"));
        assert_eq!(code, 200, "status poll failed: {body}");
        let state = field(&body, "state").expect("a state").to_owned();
        if want.contains(&state.as_str()) {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} stuck in {state}, wanted {want:?}"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

/// Polls until the campaign is running *and* has published a live
/// progress snapshot — i.e. exploration proper is under way.
fn poll_until_progress(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, body) = get(addr, &format!("/campaigns/{id}"));
        assert_eq!(code, 200, "status poll failed: {body}");
        if body.contains("\"runs_done\"") {
            return body;
        }
        let state = field(&body, "state").expect("a state").to_owned();
        assert!(
            !["done", "cancelled", "failed"].contains(&state.as_str()),
            "campaign {id} ended ({state}) before progress was observed"
        );
        assert!(
            Instant::now() < deadline,
            "campaign {id} never published progress"
        );
        thread::sleep(Duration::from_millis(2));
    }
}

/// A trace campaign with a causally unconstrained 756 756-interleaving
/// space: 15 round-robin ledger credits over 3 replicas. Big enough that
/// a capped campaign is still mid-flight when the test lands a `DELETE`.
fn long_trace_spec(tenant: &str, priority: u8) -> String {
    let entries: Vec<String> = (0..15)
        .map(|i| {
            format!(
                r#"{{"Op": {{"replica": {}, "function": "credit", "args": [{}]}}}}"#,
                i % 3,
                i + 1
            )
        })
        .collect();
    format!(
        r#"{{"tenant": "{tenant}", "priority": {priority}, "cap": 200000, "trace": {{"target": "Ledger", "spec": {{"replicas": 3, "entries": [{}], "chain_from": null}}, "faults": []}}}}"#,
        entries.join(", ")
    )
}

/// Submit → live progress → DELETE stops only the targeted campaign →
/// the co-scheduled one still reports.
#[test]
fn delete_cancels_only_the_targeted_campaign_over_a_real_socket() {
    let handle = Server::bind(ServerConfig {
        port: 0,
        workers: 2,
        runners: 2,
        queue_cap: 8,
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr().to_string();

    let (code, body) = get(&addr, "/healthz");
    assert_eq!((code, body.as_str()), (200, r#"{"status":"ok"}"#));

    // A long victim campaign and a short co-tenant on the same workers.
    // Wait for live progress (not just the running phase): the replay
    // proper starts only after workload analysis, and the cancellation
    // must land mid-exploration.
    let victim = submit_id(&addr, &long_trace_spec("tenant-a", 5));
    poll_until_progress(&addr, &victim);
    let cotenant = submit_id(
        &addr,
        r#"{"tenant": "tenant-b", "bug": "Roshi-1", "cap": 2000}"#,
    );

    let (code, body) = delete(&addr, &format!("/campaigns/{victim}"));
    assert_eq!(code, 202, "{body}");

    let ended = poll_until(&addr, &victim, &["cancelled", "done", "failed"]);
    assert_eq!(field(&ended, "state"), Some("cancelled"), "{ended}");
    let (code, body) = get(&addr, &format!("/campaigns/{victim}/report"));
    assert_eq!(code, 409, "cancelled campaigns have no report: {body}");

    // The co-scheduled campaign is untouched: it completes and reports.
    let done = poll_until(&addr, &cotenant, &["done", "cancelled", "failed"]);
    assert_eq!(field(&done, "state"), Some("done"), "{done}");
    let (code, report) = get(&addr, &format!("/campaigns/{cotenant}/report"));
    assert_eq!(code, 200, "{report}");
    assert!(report.contains("\"explored\""), "{report}");

    // The live path produced progress snapshots for the victim: the last
    // one is retained on the cancelled status.
    assert!(ended.contains("\"runs_done\""), "{ended}");

    let (code, metrics) = get(&addr, "/metrics");
    assert_eq!(code, 200);
    assert!(metrics.contains("\"runs_per_sec\""), "{metrics}");
    assert_eq!(field(&metrics, "cancelled"), Some("1"), "{metrics}");

    let (code, _) = get(&addr, "/campaigns/c-999");
    assert_eq!(code, 404);

    handle.shutdown();
}

/// A violating Ledger trace — the duplicated sync applies its credit twice
/// — with four runs, the first violation at run 1.
const DUPLICATED_LEDGER: &str = r#"{"target": "Ledger", "spec": {"replicas": 2, "entries": [
    {"Op": {"replica": 0, "function": "credit", "args": [5]}},
    {"SyncPair": {"from": 0, "to": 1, "of": 0}},
    {"Op": {"replica": 1, "function": "credit", "args": [7]}}
], "chain_from": null}, "faults": [{"anchor": 1, "kind": "Duplicate"}]}"#;

/// A Crdts trace whose three updates commute pairwise and never meet: every
/// order diverges, and sleep sets replay half of them.
const COMMUTING_CRDTS: &str = r#"{"target": "Crdts", "spec": {"replicas": 3, "entries": [
    {"Op": {"replica": 0, "function": "counter_inc", "args": [1]}},
    {"Op": {"replica": 1, "function": "counter_inc", "args": [2]}},
    {"Op": {"replica": 2, "function": "set_add", "args": [3]}},
    {"SyncPair": {"from": 0, "to": 1, "of": 0}}
], "chain_from": null}, "faults": []}"#;

/// A trace campaign obeys every replay key the daemon admits, exactly as a
/// catalogue campaign does: the served report is the standalone oracle's
/// under the `ReplayConfig` the keys spell.
#[test]
fn served_trace_campaigns_honour_every_admitted_key() {
    let handle = Server::bind(ServerConfig {
        port: 0,
        workers: 2,
        runners: 1,
        queue_cap: 4,
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr().to_string();
    let served = |trace: &str, key: &str| {
        let id = submit_id(&addr, &format!(r#"{{"trace": {trace}, {key}}}"#));
        let done = poll_until(&addr, &id, &["done", "cancelled", "failed"]);
        assert_eq!(field(&done, "state"), Some("done"), "{done}");
        let (code, report) = get(&addr, &format!("/campaigns/{id}/report"));
        assert_eq!(code, 200, "{report}");
        report
    };
    let violation_set = |report: &Report| {
        let mut set: Vec<(String, String)> = report
            .violations
            .iter()
            .map(|v| (v.assertion.to_string(), v.message.clone()))
            .collect();
        set.sort();
        set.dedup();
        set
    };
    let exhaustive = ReplayConfig::default();

    let case: FuzzCase = serde_json::from_str(DUPLICATED_LEDGER).expect("the trace parses");
    let stop_first = ReplayConfig {
        stop_on_first_violation: true,
        ..exhaustive
    };
    let standalone = report_for(&case, &stop_first);
    assert!(standalone.stopped_early);
    assert_eq!(
        Some(standalone.explored),
        standalone.first_violation_at.map(|at| at + 1)
    );
    assert!(
        standalone.explored < report_for(&case, &exhaustive).explored,
        "the key must have something to cut"
    );
    assert_eq!(
        served(DUPLICATED_LEDGER, r#""stop_on_first_violation": true"#),
        standalone.canonical_json()
    );

    let case: FuzzCase = serde_json::from_str(COMMUTING_CRDTS).expect("the trace parses");
    let sleeping = ReplayConfig {
        sleep_sets: true,
        ..exhaustive
    };
    let standalone = report_for(&case, &sleeping);
    let unpruned = report_for(&case, &exhaustive);
    assert!(standalone.explored < unpruned.explored, "a pair commutes");
    assert!(!standalone.violations.is_empty());
    assert_eq!(violation_set(&standalone), violation_set(&unpruned));
    assert_eq!(
        served(COMMUTING_CRDTS, r#""sleep_sets": true"#),
        standalone.canonical_json()
    );

    handle.shutdown();
}

/// Bounded admission: with one runner busy and a queue of one, a third
/// submission is refused with 429; a queued campaign DELETEs immediately.
#[test]
fn full_queues_refuse_submissions_with_429() {
    let handle = Server::bind(ServerConfig {
        port: 0,
        workers: 1,
        runners: 1,
        queue_cap: 1,
    })
    .expect("bind")
    .spawn()
    .expect("spawn");
    let addr = handle.addr().to_string();

    let running = submit_id(&addr, &long_trace_spec("tenant-a", 5));
    poll_until(&addr, &running, &["running"]);

    let queued = submit_id(&addr, &long_trace_spec("tenant-b", 5));
    let (code, body) = post(&addr, "/campaigns", &long_trace_spec("tenant-c", 5));
    assert_eq!(code, 429, "{body}");
    assert!(body.contains("queue full"), "{body}");

    // Bad specs are refused before admission, not enqueued.
    let (code, body) = post(&addr, "/campaigns", r#"{"bug": "No-Such-Bug"}"#);
    assert_eq!(code, 400, "{body}");

    // The queued campaign cancels without ever starting.
    let (code, body) = delete(&addr, &format!("/campaigns/{queued}"));
    assert_eq!(code, 202, "{body}");
    let ended = poll_until(&addr, &queued, &["cancelled"]);
    assert!(field(&ended, "progress").is_some(), "{ended}");

    let (code, _) = delete(&addr, &format!("/campaigns/{running}"));
    assert_eq!(code, 202);
    poll_until(&addr, &running, &["cancelled"]);

    let (_, metrics) = get(&addr, "/metrics");
    assert_eq!(field(&metrics, "rejected"), Some("1"), "{metrics}");

    handle.shutdown();
}
