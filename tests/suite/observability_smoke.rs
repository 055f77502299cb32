//! End-to-end smoke of the observability surface: Prometheus exposition,
//! Server-Sent-Event streaming, and violation forensics over a real
//! socket against an in-process campaign daemon.
//!
//! The `server_equivalence` suite pins the determinism contract; this one
//! pins the *observer* side: `GET /metrics` content-negotiates a lintable
//! Prometheus text exposition whose counters only ever go up, a campaign's
//! `/events` stream replays its full history and terminates with the
//! campaign, `/violations/:n` serves the same forensic bundle bytes a
//! standalone replay of the same spec explains locally, and the status,
//! summary, progress and report payloads keep their key sets.

use crate::http::{daemon, field, get, get_accept, poll_until_done, submit_id};
use er_pi::telemetry::{lint_exposition, lint_monotone};
use er_pi::ReplayConfig;
use er_pi_server::{ServerConfig, ServerHandle};
use er_pi_subjects::Bug;
use serde::Content;

/// The entries of a JSON object, keys in the order the body carries them.
fn entries(value: Content) -> Vec<(String, Content)> {
    let Content::Map(entries) = value else {
        panic!("not an object: {value:?}");
    };
    let key = |k| match k {
        Content::Str(k) => k,
        k => panic!("non-string key {k:?}"),
    };
    entries.into_iter().map(|(k, v)| (key(k), v)).collect()
}

fn object(json: &str) -> Vec<(String, Content)> {
    entries(serde_json::from_str(json).unwrap_or_else(|e| panic!("{e}: {json}")))
}

fn keys(object: &[(String, Content)]) -> Vec<&str> {
    object.iter().map(|(k, _)| k.as_str()).collect()
}

fn member(object: &[(String, Content)], name: &str) -> Content {
    let value = object.iter().find(|(k, _)| k == name);
    value.unwrap_or_else(|| panic!("no {name}")).1.clone()
}

fn tiny_daemon() -> (ServerHandle, String) {
    daemon(ServerConfig {
        port: 0,
        workers: 2,
        runners: 2,
        queue_cap: 8,
    })
}

// ---------------------------------------------------------------------
// The smoke itself.
// ---------------------------------------------------------------------

#[test]
fn metrics_negotiate_json_and_lintable_monotone_prometheus_text() {
    let (handle, addr) = tiny_daemon();
    assert_eq!(
        get(&addr, "/healthz"),
        (200, r#"{"status":"ok"}"#.to_owned())
    );

    // Default (no Accept): the JSON body with its stable key set.
    let (code, content_type, body) = get_accept(&addr, "/metrics", "application/json");
    assert_eq!(code, 200);
    assert!(
        content_type.starts_with("application/json"),
        "{content_type}"
    );
    for key in [
        "uptime_secs",
        "submitted",
        "rejected",
        "completed",
        "cancelled",
        "failed",
        "runs_total",
        "subsumed_total",
        "sleep_prunes_total",
        "subsume_rate",
        "runs_per_sec",
        "queue_depth",
        "running",
        "service_workers",
        "service_jobs",
        "worker_utilization",
    ] {
        assert!(
            body.contains(&format!("\"{key}\"")),
            "JSON body lost {key}: {body}"
        );
    }

    // Accept: text/plain: the Prometheus exposition, lint-clean.
    let (code, content_type, first) = get_accept(&addr, "/metrics", "text/plain");
    assert_eq!(code, 200);
    assert!(content_type.starts_with("text/plain"), "{content_type}");
    lint_exposition(&first).expect("first scrape lints");
    assert!(
        first.contains("# TYPE er_pi_server_submitted_total counter"),
        "exposition lost the fleet counters:\n{first}"
    );
    assert!(
        first.contains("# TYPE er_pi_run_latency_us histogram"),
        "exposition lost the executor histograms:\n{first}"
    );

    // Run a campaign, scrape again: still lint-clean, counters monotone,
    // and the campaign's labelled series materialized.
    let id = submit_id(
        &addr,
        r#"{"bug": "Roshi-1", "cap": 200, "tenant": "smoke"}"#,
    );
    poll_until_done(&addr, &id);
    let (_, _, second) = get_accept(&addr, "/metrics", "text/plain");
    lint_exposition(&second).expect("second scrape lints");
    lint_monotone(&first, &second).expect("counters only go up");
    assert!(
        second.contains(&format!(
            "er_pi_campaign_runs_total{{tenant=\"smoke\",campaign=\"{id}\"}}"
        )),
        "campaign series missing:\n{second}"
    );
    assert!(
        second.contains("er_pi_submit_to_report_us_bucket"),
        "latency histogram missing:\n{second}"
    );

    // Three more campaigns queued at once and run side by side: every
    // submission is accounted for, and none failed.
    let ids: Vec<String> = ["Roshi-2", "OrbitDB-1", "Yorkie-2"]
        .iter()
        .enumerate()
        .map(|(i, bug)| {
            let spec =
                format!(r#"{{"bug": "{bug}", "cap": 200, "tenant": "t{i}", "priority": {i}}}"#);
            submit_id(&addr, &spec)
        })
        .collect();
    for id in &ids {
        poll_until_done(&addr, id);
    }
    let (_, _, body) = get_accept(&addr, "/metrics", "application/json");
    let fleet = object(&body);
    for (counter, expected) in [("submitted", 4), ("completed", 4), ("failed", 0)] {
        assert_eq!(
            member(&fleet, counter),
            Content::Int(expected),
            "{counter}: {body}"
        );
    }
    handle.shutdown();
}

#[test]
fn event_stream_replays_history_and_ends_with_the_terminal_event() {
    let (handle, addr) = tiny_daemon();
    let id = submit_id(&addr, r#"{"bug": "OrbitDB-2", "cap": 500}"#);
    // Late subscription is the harder case: the full history must replay.
    poll_until_done(&addr, &id);
    let (code, body) = get(&addr, &format!("/campaigns/{id}/events"));
    assert_eq!(code, 200, "{body}");
    let events: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("event: "))
        .collect();
    assert!(
        events.len() >= 2,
        "stream carried fewer than 2 events: {events:?}"
    );
    assert_eq!(events[0], "status", "greeting frame first: {events:?}");
    assert_eq!(*events.last().unwrap(), "done", "terminal last: {events:?}");
    // Every data line is one line of JSON.
    for line in body.lines() {
        if let Some(data) = line.strip_prefix("data: ") {
            assert!(
                data.starts_with('{') && data.ends_with('}'),
                "malformed SSE data line: {line}"
            );
        }
    }
    // The terminal frame, the exposition and the report tell one story:
    // the runs the slots executed in every live view, the runs the report
    // retains in the other two.
    let terminal = body
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("data: "))
        .expect("a terminal frame");
    let count = |json: &str, name: &str| -> u64 {
        let value = field(json, name).unwrap_or_else(|| panic!("no {name} in {json}"));
        value.parse().unwrap_or_else(|_| panic!("{name}: {value}"))
    };
    let executed = count(terminal, "executed");
    assert_eq!(count(terminal, "runs_done"), executed, "{terminal}");
    let (_, _, exposition) = get_accept(&addr, "/metrics", "text/plain");
    let series = |prefix: &str| -> u64 {
        let line = exposition.lines().find(|l| l.starts_with(prefix));
        let value = line.and_then(|l| l.rsplit(' ').next());
        value
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {prefix} sample:\n{exposition}"))
    };
    let campaign = format!("er_pi_campaign_runs_total{{tenant=\"anon\",campaign=\"{id}\"}} ");
    assert_eq!(series(&campaign), executed);
    // The daemon's only campaign: the fleet counter is the sum of one.
    assert_eq!(series("er_pi_server_runs_total "), executed);
    let (code, report) = get(&addr, &format!("/campaigns/{id}/report"));
    assert_eq!(code, 200, "{report}");
    assert_eq!(count(&report, "explored"), count(terminal, "explored"));
    assert!(executed >= count(&report, "explored"));
    assert!(count(&report, "explored") > 0, "{report}");

    // The payloads a client reads, key for key; the canonical report holds
    // only the deterministic fields, so no wall clock, load or cache count.
    let (code, status) = get(&addr, &format!("/campaigns/{id}"));
    assert_eq!(code, 200, "{status}");
    let status = object(&status);
    assert_eq!(
        keys(&status),
        ["id", "tenant", "priority", "subject", "cap", "state", "progress", "summary", "error"]
    );
    let summary = entries(member(&status, "summary"));
    assert_eq!(
        keys(&summary),
        [
            "mode",
            "explored",
            "executed",
            "violations",
            "sim_us",
            "wall_ms",
            "grouping_factor",
            "pruners",
            "workers",
            "cache",
            "failures"
        ]
    );
    let progress = entries(member(&status, "progress"));
    assert_eq!(
        keys(&progress),
        [
            "elapsed_secs",
            "runs_done",
            "expected_total",
            "runs_per_sec",
            "eta_secs",
            "campaign_secs_hint",
            "cache_hit_rate",
            "subsumed_runs",
            "subsume_rate",
            "sleep_prunes",
            "per_worker_runs"
        ]
    );
    let report = object(&report);
    assert_eq!(
        keys(&report),
        [
            "mode",
            "explored",
            "first_violation_at",
            "prune_stats",
            "wasted_work",
            "sim_us",
            "stopped_early",
            "violations",
            "runs",
            "diagnostics"
        ]
    );
    assert_eq!(member(&report, "explored"), member(&summary, "explored"));

    // Unknown campaigns get a plain 404, not a stream.
    let (code, _) = get(&addr, "/campaigns/c-999/events");
    assert_eq!(code, 404);
    handle.shutdown();
}

#[test]
fn violation_bundles_are_served_and_match_a_local_explain() {
    let (handle, addr) = tiny_daemon();
    let id = submit_id(&addr, r#"{"bug": "Roshi-1", "cap": 200}"#);
    poll_until_done(&addr, &id);

    let (code, bundle) = get(&addr, &format!("/campaigns/{id}/violations/0"));
    assert_eq!(code, 200, "{bundle}");
    for key in [
        "assertion",
        "interleaving",
        "steps",
        "hb_dot",
        "provenance",
        "first_divergence",
    ] {
        assert!(bundle.contains(&format!("\"{key}\"")), "bundle lost {key}");
    }

    // The served bytes are exactly what a standalone replay of the same
    // spec explains locally — forensics are scheduling-independent.
    let bug = Bug::by_name("Roshi-1").expect("catalogue bug");
    let report = bug.replay_report_opts(&ReplayConfig {
        cap: 200,
        workers: 1,
        ..ReplayConfig::default()
    });
    let local = bug
        .explain(report.violations.first().expect("Roshi-1 reproduces"))
        .expect("explains")
        .canonical_json();
    assert_eq!(bundle, local, "served bundle diverged from local explain");

    // Out of range and unknown ids are 404; junk indexes are 400.
    let (code, _) = get(&addr, &format!("/campaigns/{id}/violations/999"));
    assert_eq!(code, 404);
    let (code, _) = get(&addr, "/campaigns/c-999/violations/0");
    assert_eq!(code, 404);
    let (code, _) = get(&addr, &format!("/campaigns/{id}/violations/zero"));
    assert_eq!(code, 400);
    handle.shutdown();
}
