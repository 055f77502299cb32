//! Differential-equivalence harness for the telemetry layer.
//!
//! Telemetry is strictly *write-only*: attaching any sink — the no-op
//! [`NullSink`], the in-memory collector, the JSON Lines stream or the
//! Chrome trace-event stream — must leave the [`Report`] byte-identical to
//! a detached session. These tests pin that contract across the twelve-bug
//! catalogue at 1, 2 and 4 workers, in both exhaustive and
//! stop-on-first-violation scheduling, and then randomize the whole knob
//! matrix under proptest. `Report::diff` compares every deterministic
//! field; only wall-clock time, worker loads, cache counters and the
//! session summary are legitimately scheduling-dependent.

mod common;

use common::WORKER_COUNTS;
use std::sync::Arc;

use proptest::prelude::*;

use er_pi::telemetry::{
    ChromeTraceSink, JsonLinesSink, MemorySink, NullSink, SharedBuf, Sink, Telemetry,
    TelemetryEvent,
};
use er_pi::{Attachments, ReplayConfig, Report};
use er_pi_subjects::Bug;

/// The telemetry attachment over `sink`.
fn sink_attachment(sink: Arc<dyn Sink>) -> Attachments {
    Attachments {
        telemetry: Telemetry::new(sink),
        ..Attachments::default()
    }
}

/// One replay of `bug` under the paper's cap, into `sink` if there is one.
fn replay(bug: &Bug, stop: bool, workers: usize, sink: Option<Arc<dyn Sink>>) -> Report {
    let config = ReplayConfig {
        stop_on_first_violation: stop,
        workers,
        ..ReplayConfig::default()
    };
    let attach = sink.map(sink_attachment).unwrap_or_default();
    bug.replay_report_checked(&config, attach).0
}

/// Builds the sink variant `which` (0–3) and returns it with a closure that
/// sanity-checks whatever the sink produced after the replay.
fn make_sink(which: usize) -> (Arc<dyn Sink>, Box<dyn FnOnce()>) {
    match which % 4 {
        0 => (Arc::new(NullSink), Box::new(|| {})),
        1 => {
            let sink = Arc::new(MemorySink::new());
            let probe = sink.clone();
            (
                sink,
                Box::new(move || {
                    assert!(!probe.events().is_empty(), "memory sink collected nothing");
                }),
            )
        }
        2 => {
            let buf = SharedBuf::new();
            let probe = buf.clone();
            (
                Arc::new(JsonLinesSink::new(buf)),
                Box::new(move || assert_jsonl_schema(&probe.contents())),
            )
        }
        _ => {
            let buf = SharedBuf::new();
            let probe = buf.clone();
            let sink = Arc::new(ChromeTraceSink::new(buf));
            let closer = sink.clone();
            (
                sink,
                Box::new(move || {
                    closer.close();
                    assert_chrome_trace_shape(&probe.contents());
                }),
            )
        }
    }
}

/// Every line of a JSON Lines stream is one object with a known `kind`.
fn assert_jsonl_schema(contents: &str) {
    assert!(!contents.is_empty(), "jsonl sink wrote nothing");
    for line in contents.lines() {
        assert!(
            line.starts_with("{\"kind\":\"") && line.ends_with('}'),
            "malformed jsonl line: {line}"
        );
        let kind = line["{\"kind\":\"".len()..].split('"').next().unwrap();
        assert!(
            ["span", "instant", "counter", "warning"].contains(&kind),
            "unknown event kind {kind:?} in line: {line}"
        );
        assert!(line.contains("\"ts_us\":"), "line lacks ts_us: {line}");
        assert!(line.contains("\"track\":"), "line lacks track: {line}");
    }
}

/// A closed Chrome trace is one JSON array of event objects with the
/// Perfetto-required fields, including the thread-name metadata events.
fn assert_chrome_trace_shape(contents: &str) {
    let trimmed = contents.trim();
    assert!(trimmed.starts_with('['), "trace is not an array: {trimmed}");
    assert!(trimmed.ends_with(']'), "trace was not closed: {trimmed}");
    assert!(
        trimmed.contains("\"ph\":\"M\"") && trimmed.contains("thread_name"),
        "trace lacks track metadata"
    );
    assert!(
        trimmed.contains("\"ph\":\"X\""),
        "trace lacks complete spans"
    );
    for line in trimmed.lines().skip(1) {
        let obj = line.trim_end_matches(&[',', ']'][..]);
        if obj.is_empty() {
            continue;
        }
        assert!(
            obj.starts_with('{') && obj.ends_with('}'),
            "malformed trace object: {line}"
        );
        assert!(obj.contains("\"pid\":"), "object lacks pid: {line}");
        assert!(obj.contains("\"tid\":"), "object lacks tid: {line}");
    }
}

fn assert_identical(reference: &Report, attached: &Report, label: &str) {
    assert_eq!(
        reference.diff(attached),
        None,
        "{label}: attaching a sink changed the report"
    );
}

/// The full catalogue, every worker count, both scheduling modes: a session
/// with a collecting sink diffs clean against a detached one.
#[test]
fn any_sink_never_changes_the_report() {
    for bug in Bug::catalogue() {
        for stop in [false, true] {
            let reference = replay(&bug, stop, 1, None);
            for workers in WORKER_COUNTS {
                let sink = Arc::new(MemorySink::new());
                let attached = replay(&bug, stop, workers, Some(sink.clone()));
                assert_identical(
                    &reference,
                    &attached,
                    &format!("{} stop={stop} workers={workers}", bug.name),
                );
                assert!(
                    !sink.events().is_empty(),
                    "{}: attached sink saw no events",
                    bug.name
                );
            }
        }
    }
}

/// The sink matrix — null, memory, jsonl, chrome-trace — on a
/// representative bug per subject family, with the output of each stream
/// sink schema-checked.
#[test]
fn every_sink_kind_is_write_only_and_well_formed() {
    for name in ["Roshi-1", "OrbitDB-1", "Yorkie-2"] {
        let bug = Bug::by_name(name).expect("catalogue bug");
        let reference = replay(&bug, false, 1, None);
        for which in 0..4 {
            for workers in WORKER_COUNTS {
                let (sink, check) = make_sink(which);
                let attached = replay(&bug, false, workers, Some(sink));
                assert_identical(
                    &reference,
                    &attached,
                    &format!("{name} sink#{which} workers={workers}"),
                );
                check();
            }
        }
    }
}

/// The attached report still carries the session summary (excluded from
/// `diff`), and the summary's deterministic counters agree with the report.
#[test]
fn attached_report_carries_a_consistent_summary() {
    // ReplicaDB-1 enables independence and failed-ops pruning, so the
    // summary's attribution table must be populated.
    let bug = Bug::by_name("ReplicaDB-1").expect("catalogue bug");
    let sink = Arc::new(MemorySink::new());
    let report = replay(&bug, false, 2, Some(sink));
    let summary = &report.session_summary;
    assert_eq!(summary.explored, report.explored);
    assert_eq!(summary.violations, report.violations.len());
    assert_eq!(summary.sim_us, report.sim_us);
    assert_eq!(summary.workers.len(), 2, "one load entry per pool worker");
    assert!(
        !summary.pruners.is_empty(),
        "ER-π mode must attribute its pruning"
    );
    let rendered = summary.render();
    assert!(rendered.contains("session summary"));
}

/// Every replayed run lands as one `run` span, so a trace is a complete
/// account of the campaign.
#[test]
fn trace_run_spans_match_explored_count() {
    let bug = Bug::by_name("ReplicaDB-1").expect("catalogue bug");
    for workers in WORKER_COUNTS {
        let sink = Arc::new(MemorySink::new());
        let report = replay(&bug, false, workers, Some(sink.clone()));
        let runs = sink
            .events()
            .iter()
            .filter(|e: &&TelemetryEvent| e.name == "run")
            .count();
        assert_eq!(
            runs, report.explored,
            "workers={workers}: trace dropped or duplicated run spans"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized knob matrix: any catalogue bug, any worker count 1–4,
    /// either scheduling mode, any sink kind — the report never moves.
    #[test]
    fn report_is_invariant_under_any_sink(
        bug_idx in 0usize..12,
        workers in 1usize..5,
        stop in any::<bool>(),
        which in 0usize..4,
    ) {
        let catalogue = Bug::catalogue();
        let bug = &catalogue[bug_idx];
        let reference = replay(bug, stop, 1, None);
        let (sink, check) = make_sink(which);
        let attached = replay(bug, stop, workers, Some(sink));
        prop_assert_eq!(
            reference.diff(&attached),
            None,
            "{} stop={} workers={} sink#{}",
            bug.name,
            stop,
            workers,
            which
        );
        check();
    }
}

/// S3 co-tenancy: two campaigns multiplexed over one shared
/// [`ExecutorService`], each streaming into its own Chrome trace sink.
/// Concurrent emission from shared worker threads must never tear a JSON
/// object or leak one campaign's events into the other's trace — every
/// line of each buffer parses on its own, and each trace carries a
/// coherent track set of its own.
#[test]
fn co_tenant_chrome_traces_stay_separate_and_well_formed() {
    use er_pi::ExecutorService;

    let service = Arc::new(ExecutorService::new(2));
    let spawn = |name: &'static str| {
        let buf = SharedBuf::new();
        let sink = Arc::new(ChromeTraceSink::new(buf.clone()));
        let service = Arc::clone(&service);
        let handle = std::thread::spawn({
            let sink = sink.clone();
            move || {
                let bug = Bug::by_name(name).expect("catalogue bug");
                let erased: Arc<dyn Sink> = sink.clone();
                let report = bug
                    .replay_report_on(
                        &service,
                        5,
                        &ReplayConfig::default(),
                        sink_attachment(erased),
                    )
                    .expect("co-scheduled campaign completes");
                sink.close();
                report
            }
        });
        (name, buf, handle)
    };
    let campaigns = [spawn("Roshi-1"), spawn("ReplicaDB-2")];
    for (name, buf, handle) in campaigns {
        let report = handle.join().expect("campaign thread");
        assert!(report.explored > 0, "{name}: campaign replayed nothing");
        let contents = buf.contents();
        assert_chrome_trace_shape(&contents);
        let mut tracks = std::collections::BTreeSet::new();
        for line in contents.trim().lines().skip(1) {
            let object = line.trim_end_matches(&[',', ']'][..]);
            if object.is_empty() {
                continue;
            }
            let value: serde::Content = serde_json::from_str(object).unwrap_or_else(|e| {
                panic!("{name}: torn or interleaved trace object {object:?}: {e}")
            });
            let serde::Content::Map(entries) = &value else {
                panic!("{name}: trace line is not an object: {object:?}");
            };
            let tid = entries
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (serde::Content::Str(k), serde::Content::Int(n)) if k == "tid" => Some(*n),
                    _ => None,
                })
                .expect("every object has a tid");
            tracks.insert(tid);
        }
        assert!(
            !tracks.is_empty(),
            "{name}: trace carries no addressed events"
        );
    }
}
