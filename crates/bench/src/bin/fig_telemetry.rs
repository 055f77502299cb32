//! Telemetry overhead and trace-schema micro-benchmark.
//!
//! Two questions, answered in one JSON document:
//!
//! * **Is disabled telemetry free?** The same DFS-capped town workload is
//!   replayed detached, with a [`NullSink`] (reports `enabled() == false`,
//!   so every instrumented site must reduce to one dead branch), with a
//!   JSON Lines sink and with a Chrome trace sink — min-of-k wall time
//!   each. The CI `telemetry-smoke` job fails when the NullSink overhead
//!   exceeds 2% of the detached baseline.
//! * **Does a live trace carry every event kind, well-formed?** A second
//!   run pins the checkpoint-cache budget to zero so the hit-rate monitor
//!   organically emits its warning, and streams through a JSON Lines sink;
//!   the document embeds one sample line per event kind (span, instant,
//!   counter, warning) for downstream schema validation.
//!
//! Every attached report is diffed against the detached reference —
//! telemetry is write-only, so `divergence` must be null everywhere.
//!
//! Usage: `fig_telemetry [--cap N] [--repeats K] [--pretty]`

use std::sync::Arc;
use std::time::Instant;

use er_pi::telemetry::{
    ChromeTraceSink, JsonLinesSink, NullSink, SharedBuf, Sink, HIT_RATE_WINDOW,
};
use er_pi::{ExploreMode, Report, Session};
use er_pi_model::{ReplicaId, Value};
use er_pi_subjects::TownApp;
use serde::Serialize;

const DEFAULT_CAP: usize = 5_000;
const DEFAULT_REPEATS: usize = 5;

/// A named sink constructor for the overhead table.
type SinkConfig = (&'static str, fn() -> Arc<dyn Sink>);

/// The §2.3 town workload extended to 10 events (the same recording the
/// `town-dfs` workload of `benchmark/` uses), DFS-enumerated under the cap.
fn town_session(cap: usize) -> Session<TownApp> {
    let mut session = Session::new(TownApp::new(2));
    let r = ReplicaId::new;
    session.record(|sys| {
        let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
        sys.sync(r(0), r(1), ev1);
        let ev2 = sys.invoke(r(1), "add", [Value::from("ph")]);
        sys.sync(r(1), r(0), ev2);
        let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
        sys.sync(r(1), r(0), ev3);
        let ev4 = sys.invoke(r(0), "add", [Value::from("pl")]);
        sys.sync(r(0), r(1), ev4);
        sys.invoke(r(1), "remove", [Value::from("ph")]);
        sys.external(r(0), "transmit");
    });
    session.set_mode(ExploreMode::Dfs);
    session.set_cap(cap);
    session
}

fn replay_once(cap: usize, sink: Option<Arc<dyn Sink>>) -> (Report, u128) {
    let mut session = town_session(cap);
    if let Some(sink) = sink {
        session.set_telemetry(sink);
    }
    let started = Instant::now();
    let report = session.replay(&TownApp::invariant()).expect("recorded");
    (report, started.elapsed().as_micros())
}

/// Min-of-k wall time for one sink configuration; returns the last report
/// for the write-only diff.
fn measure(
    cap: usize,
    repeats: usize,
    mk_sink: impl Fn() -> Option<Arc<dyn Sink>>,
) -> (Report, u128) {
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..repeats {
        let (report, wall_us) = replay_once(cap, mk_sink());
        best = best.min(wall_us);
        last = Some(report);
    }
    (last.expect("repeats >= 1"), best)
}

#[derive(Serialize)]
struct Timing {
    sink: &'static str,
    min_wall_us: u128,
    /// `(wall - detached_wall) / detached_wall`; negative values are
    /// measurement noise.
    overhead_vs_detached: f64,
    /// `Report::diff` against the detached reference (must be null).
    divergence: Option<String>,
}

#[derive(Serialize)]
struct KindSample {
    kind: &'static str,
    /// One verbatim line of the JSON Lines stream.
    line: String,
}

#[derive(Serialize)]
struct WarningRun {
    cap: usize,
    explored: usize,
    /// Lines per event kind in the streamed trace.
    spans: usize,
    instants: usize,
    counters: usize,
    warnings: usize,
    samples: Vec<KindSample>,
    /// `Report::diff` against the detached reference at the same cap
    /// (must be null).
    divergence: Option<String>,
}

#[derive(Serialize)]
struct Document {
    cap: usize,
    repeats: usize,
    workload_events: usize,
    explored: usize,
    timings: Vec<Timing>,
    /// The headline number: NullSink overhead as a fraction of the
    /// detached baseline. The CI ceiling is 0.02.
    null_overhead_frac: f64,
    warning_run: WarningRun,
    /// True iff every divergence field in the document is null.
    all_reports_identical: bool,
}

fn count_kind(contents: &str, kind: &str) -> usize {
    let prefix = format!("{{\"kind\":\"{kind}\"");
    contents.lines().filter(|l| l.starts_with(&prefix)).count()
}

fn sample_kind(contents: &str, kind: &'static str) -> KindSample {
    let prefix = format!("{{\"kind\":\"{kind}\"");
    KindSample {
        kind,
        line: contents
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("trace has no {kind} event"))
            .to_string(),
    }
}

/// Replays with a zero cache budget so every incremental run misses: the
/// hit-rate monitor's warning fires organically once the window fills.
fn warning_run(cap: usize, reference: &Report) -> WarningRun {
    let buf = SharedBuf::new();
    let sink: Arc<dyn Sink> = Arc::new(JsonLinesSink::new(buf.clone()));
    let mut session = town_session(cap);
    session.set_cache_budget(0);
    session.set_telemetry(sink);
    let report = session.replay(&TownApp::invariant()).expect("recorded");
    let contents = buf.contents();
    WarningRun {
        cap,
        explored: report.explored,
        spans: count_kind(&contents, "span"),
        instants: count_kind(&contents, "instant"),
        counters: count_kind(&contents, "counter"),
        warnings: count_kind(&contents, "warning"),
        samples: vec![
            sample_kind(&contents, "span"),
            sample_kind(&contents, "instant"),
            sample_kind(&contents, "counter"),
            sample_kind(&contents, "warning"),
        ],
        divergence: reference.diff(&report),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let cap: usize = get("--cap")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CAP)
        .max(1);
    let repeats: usize = get("--repeats")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_REPEATS)
        .max(1);
    let pretty = args.iter().any(|a| a == "--pretty");

    let workload_events = town_session(1)
        .workload()
        .map(er_pi_model::Workload::len)
        .unwrap_or(0);

    let (reference, detached_us) = measure(cap, repeats, || None);
    let configs: [SinkConfig; 3] = [
        ("null", || Arc::new(NullSink)),
        ("jsonl", || Arc::new(JsonLinesSink::new(SharedBuf::new()))),
        ("chrome-trace", || {
            Arc::new(ChromeTraceSink::new(SharedBuf::new()))
        }),
    ];

    let mut timings = vec![Timing {
        sink: "detached",
        min_wall_us: detached_us,
        overhead_vs_detached: 0.0,
        divergence: None,
    }];
    for (name, mk) in configs {
        let (report, wall_us) = measure(cap, repeats, || Some(mk()));
        timings.push(Timing {
            sink: name,
            min_wall_us: wall_us,
            overhead_vs_detached: (wall_us as f64 - detached_us as f64) / detached_us.max(1) as f64,
            divergence: reference.diff(&report),
        });
    }
    let null_overhead_frac = timings
        .iter()
        .find(|t| t.sink == "null")
        .map_or(f64::NAN, |t| t.overhead_vs_detached);

    // The warning window must fill, whatever cap the caller picked.
    let warn_cap = cap.max(HIT_RATE_WINDOW as usize + 200);
    let warn_reference_storage;
    let warn_reference = if warn_cap == cap {
        &reference
    } else {
        warn_reference_storage = replay_once(warn_cap, None).0;
        &warn_reference_storage
    };
    let warning_run = warning_run(warn_cap, warn_reference);

    let all_reports_identical =
        timings.iter().all(|t| t.divergence.is_none()) && warning_run.divergence.is_none();

    let doc = Document {
        cap,
        repeats,
        workload_events,
        explored: reference.explored,
        timings,
        null_overhead_frac,
        warning_run,
        all_reports_identical,
    };

    let rendered = if pretty {
        serde_json::to_string_pretty(&doc)
    } else {
        serde_json::to_string(&doc)
    }
    .expect("report serializes");
    println!("{rendered}");
}
