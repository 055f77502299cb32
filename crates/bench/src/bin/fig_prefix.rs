//! Prefix-sharing incremental replay: events-applied and wall-clock for
//! scratch vs incremental executors at 1/2/4/8 workers.
//!
//! Two data sets, emitted as one JSON document:
//!
//! * the §6.3-capped workload: the motivating town app extended to 10
//!   events, DFS-enumerated and capped at the paper's 10 000
//!   interleavings. Lexicographically adjacent orders share long prefixes
//!   (average divergent suffix ≈ e ≈ 2.72 events regardless of N), so
//!   the incremental executor applies roughly `explored · e` events where
//!   the scratch executor applies `explored · N` — the headline
//!   `reduction_at_1` must stay ≥ 3× (the CI `bench-smoke` job fails
//!   below 2×);
//! * the 12-bug catalogue at 1/2/4 workers, where each incremental report
//!   is diffed against the scratch reference — `Report::diff` must be
//!   `null` everywhere, or the timing numbers are meaningless.
//!
//! Usage: `fig_prefix [--cap N] [--catalogue-cap N] [--pretty]`

use std::time::Instant;

use er_pi::{ExploreMode, Report, Session};
use er_pi_model::{ReplicaId, Value};
use er_pi_subjects::{Bug, TownApp};
use serde::Serialize;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DEFAULT_CATALOGUE_CAP: usize = 2_000;
const CATALOGUE_WORKERS: [usize; 3] = [1, 2, 4];

/// Records the town workload extended to 10 events: the §2.3 recording
/// plus a second add/sync round and a remove, keeping the final transmit.
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
    // DFS enumerates the 10! space lexicographically; the cap keeps the
    // paper's 10 000-interleaving budget. Lexicographic order maximizes
    // adjacent-prefix sharing — exactly what the incremental executor trades on.
    session.set_mode(ExploreMode::Dfs);
    session.set_cap(cap);
    session
}

#[derive(Serialize)]
struct Point {
    workers: usize,
    incremental: bool,
    wall_ms: u128,
    /// Events physically applied: `explored · N` for scratch, minus the
    /// cache's `events_saved` for incremental.
    events_applied: u64,
    cache_hits: Option<u64>,
    cache_misses: Option<u64>,
    events_saved: Option<u64>,
    sim_us_saved: Option<u64>,
    bytes_resident: Option<usize>,
    /// `Report::diff` against the scratch single-worker reference (must
    /// be null).
    divergence: Option<String>,
}

#[derive(Serialize)]
struct CatalogueCheck {
    bug: String,
    workers: usize,
    events_saved: u64,
    /// Incremental vs scratch `Report::diff` (must be null).
    divergence: Option<String>,
}

#[derive(Serialize)]
struct Document {
    cap: usize,
    workload_events: usize,
    explored: usize,
    points: Vec<Point>,
    /// Scratch / incremental events-applied at one worker — the headline
    /// number; the CI floor is 2.0, the acceptance target 3.0.
    reduction_at_1: f64,
    catalogue_cap: usize,
    catalogue: Vec<CatalogueCheck>,
    /// True iff every divergence field in the document is null.
    all_reports_identical: bool,
}

fn measure(cap: usize, workers: usize, incremental: bool) -> (Report, u128) {
    let mut session = town_session(cap);
    session.set_workers(workers);
    session.set_incremental(incremental);
    let started = Instant::now();
    let report = session.replay(&TownApp::invariant()).expect("recorded");
    (report, started.elapsed().as_millis())
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
        .unwrap_or(er_pi_bench::CAP)
        .max(1);
    let catalogue_cap: usize = get("--catalogue-cap")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CATALOGUE_CAP)
        .max(1);
    let pretty = args.iter().any(|a| a == "--pretty");

    let workload_events = town_session(1)
        .workload()
        .map(er_pi_model::Workload::len)
        .unwrap_or(0);

    let mut reference: Option<Report> = None;
    let mut points = Vec::new();
    for incremental in [false, true] {
        for workers in WORKER_COUNTS {
            let (report, wall_ms) = measure(cap, workers, incremental);
            let scratch_applied = report.explored as u64 * workload_events as u64;
            let stats = report.cache_stats;
            let divergence = match &reference {
                None => None,
                Some(reference) => reference.diff(&report),
            };
            points.push(Point {
                workers,
                incremental,
                wall_ms,
                events_applied: scratch_applied - stats.map_or(0, |s| s.events_saved),
                cache_hits: stats.map(|s| s.hits),
                cache_misses: stats.map(|s| s.misses),
                events_saved: stats.map(|s| s.events_saved),
                sim_us_saved: stats.map(|s| s.sim_us_saved),
                bytes_resident: stats.map(|s| s.bytes_resident),
                divergence,
            });
            if reference.is_none() {
                reference = Some(report);
            }
        }
    }
    let explored = reference.as_ref().map_or(0, |r| r.explored);

    let applied_at_1 = |incremental: bool| {
        points
            .iter()
            .find(|p| p.workers == 1 && p.incremental == incremental)
            .map_or(0, |p| p.events_applied)
    };
    let reduction_at_1 = applied_at_1(false) as f64 / applied_at_1(true).max(1) as f64;

    let catalogue: Vec<CatalogueCheck> = Bug::catalogue()
        .into_iter()
        .flat_map(|bug| {
            let scratch = bug.replay_report_with(catalogue_cap, false, 1, false);
            CATALOGUE_WORKERS
                .into_iter()
                .map(|workers| {
                    let incremental = bug.replay_report_with(catalogue_cap, false, workers, true);
                    CatalogueCheck {
                        bug: bug.name.to_string(),
                        workers,
                        events_saved: incremental.cache_stats.map_or(0, |s| s.events_saved),
                        divergence: scratch.diff(&incremental),
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let all_reports_identical = points.iter().all(|p| p.divergence.is_none())
        && catalogue.iter().all(|c| c.divergence.is_none());

    let doc = Document {
        cap,
        workload_events,
        explored,
        points,
        reduction_at_1,
        catalogue_cap,
        catalogue,
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
