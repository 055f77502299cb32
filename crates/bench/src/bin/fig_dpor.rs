//! Deep-pruning reductions: state-hash subsumption and sleep-set (DPOR)
//! pruning, with and without fault schedules.
//!
//! Two workloads, emitted as one JSON document:
//!
//! * the §6.3-capped workload (the motivating town app extended to 10
//!   events, DFS, capped at 1 000 and 10 000 interleavings), where
//!   permuted prefixes converge to identical OR-set states and the
//!   subsume set answers most runs from memoized tails — the headline
//!   `subsume_reduction_at_10k` must stay ≥ 10× (the CI `dpor-smoke` job
//!   fails below 5×). Each cap is also rerun under a two-plan fault
//!   schedule (empty baseline plus a dropped remove-propagation sync) to
//!   show the reduction survives fault-digest partitioning of the key
//!   space;
//! * a commuting variant of the §2.3 recording whose lone adds of
//!   distinct elements form certified-commuting units, where the sleep
//!   filter has real commutation classes to prune.
//!
//! Subsumption points are diffed against the reductions-off baseline —
//! `divergence` must be `null`. Sleep points replay a *smaller* set, so
//! they are held to violation-set equivalence (`violations_preserved`)
//! instead.
//!
//! Usage: `fig_dpor [--cap N] [--pretty]`

use std::collections::BTreeSet;
use std::time::Instant;

use er_pi::{ExploreMode, Report, Session};
use er_pi_model::{EventId, FaultEvent, FaultKind, FaultPlan, ReplicaId, Value};
use er_pi_subjects::TownApp;
use serde::Serialize;

const CAPS: [usize; 2] = [1_000, 10_000];

/// The town workload extended to 10 events (identical to the `town-dfs`
/// workload of `benchmark/`): DFS order maximizes prefix convergence,
/// which is what the subsume set trades on. Event 5 is the propagation
/// sync of the `remove`.
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

/// The commuting variant: lone adds of distinct elements on different
/// replicas are certified-commuting units, giving the sleep filter real
/// commutation classes. Event 3 is the propagation sync of the `remove`.
fn commuting_session(cap: usize) -> Session<TownApp> {
    let mut session = Session::new(TownApp::new(2));
    let r = ReplicaId::new;
    session.record(|sys| {
        let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
        sys.sync(r(0), r(1), ev1);
        let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
        sys.sync(r(1), r(0), ev3);
        sys.invoke(r(0), "add", [Value::from("pl")]);
        sys.invoke(r(1), "add", [Value::from("ph")]);
        sys.invoke(r(0), "add", [Value::from("tri")]);
        sys.invoke(r(1), "add", [Value::from("sq")]);
        sys.external(r(0), "transmit");
    });
    session.set_cap(cap);
    session
}

#[derive(Serialize)]
struct Point {
    workload: &'static str,
    cap: usize,
    faults: bool,
    subsumption: bool,
    sleep_sets: bool,
    explored: usize,
    /// Interleavings physically replayed: `explored` minus the runs the
    /// subsume set answered from memoized tails.
    executed_runs: u64,
    subsumed: u64,
    sleep_rejected: u64,
    wall_ms: u128,
    distinct_violations: usize,
    /// `Report::diff` against the reductions-off baseline (must be null
    /// for subsumption-only points; sleep points legitimately replay a
    /// different set, so `diff` is not meaningful there and stays null).
    divergence: Option<String>,
    /// The distinct (assertion, message) violation set matches the
    /// baseline's — the promise every reduction mode must keep.
    violations_preserved: bool,
}

fn violation_set(report: &Report) -> BTreeSet<(String, String)> {
    report
        .violations
        .iter()
        .map(|v| (v.assertion.clone(), v.message.clone()))
        .collect()
}

struct Shape {
    workload: &'static str,
    build: fn(usize) -> Session<TownApp>,
    /// Event dropped by the faulty plan: the remove-propagation sync,
    /// under which clean interleavings become violating.
    drop_event: u32,
}

fn run(
    shape: &Shape,
    cap: usize,
    faults: bool,
    subsumption: bool,
    sleep_sets: bool,
) -> (Report, u128) {
    let mut session = (shape.build)(cap);
    if faults {
        session.set_fault_plans(vec![
            FaultPlan::empty(),
            FaultPlan::new(vec![FaultEvent::new(
                EventId::new(shape.drop_event),
                FaultKind::Drop,
            )]),
        ]);
    }
    session.set_subsumption(subsumption);
    session.set_sleep_sets(sleep_sets);
    let started = Instant::now();
    let report = session.replay(&TownApp::invariant()).expect("recorded");
    (report, started.elapsed().as_millis())
}

#[derive(Serialize)]
struct Document {
    caps: Vec<usize>,
    points: Vec<Point>,
    /// Baseline-explored over subsumption-executed on the 10k town
    /// workload, fault-free — the headline; the CI floor is 5.0, the
    /// acceptance target 10.0.
    subsume_reduction_at_10k: f64,
    /// The same ratio under the two-plan fault schedule.
    subsume_reduction_at_10k_faults: f64,
    /// Share of the commuting workload's candidate schedules the sleep
    /// filter rejected before replay (fault-free, largest cap).
    sleep_pruned_share: f64,
    /// True iff every point preserved the violation set and no
    /// subsumption point diverged byte-wise.
    all_sound: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cap_override: Option<usize> = args
        .iter()
        .position(|a| a == "--cap")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let pretty = args.iter().any(|a| a == "--pretty");
    let caps: Vec<usize> = match cap_override {
        Some(cap) => vec![cap.max(1)],
        None => CAPS.to_vec(),
    };

    let shapes = [
        Shape {
            workload: "town10",
            build: town_session,
            drop_event: 5,
        },
        Shape {
            workload: "commuting",
            build: commuting_session,
            drop_event: 3,
        },
    ];

    let mut points = Vec::new();
    for shape in &shapes {
        for &cap in &caps {
            for faults in [false, true] {
                let (baseline, base_ms) = run(shape, cap, faults, false, false);
                let base_violations = violation_set(&baseline);
                let modes = [(false, false), (true, false), (false, true), (true, true)];
                for (subsumption, sleep_sets) in modes {
                    let (report, wall_ms) = if subsumption || sleep_sets {
                        run(shape, cap, faults, subsumption, sleep_sets)
                    } else {
                        continue;
                    };
                    let stats = report.cache_stats;
                    let executed = stats.map_or(report.explored as u64, |s| s.executed_runs());
                    let divergence = if sleep_sets {
                        None
                    } else {
                        baseline.diff(&report)
                    };
                    points.push(Point {
                        workload: shape.workload,
                        cap,
                        faults,
                        subsumption,
                        sleep_sets,
                        explored: report.explored,
                        executed_runs: executed,
                        subsumed: stats.map_or(0, |s| s.subsumed),
                        sleep_rejected: report.prune_stats.as_ref().map_or(0, |s| s.sleep_rejected),
                        wall_ms,
                        distinct_violations: violation_set(&report).len(),
                        divergence,
                        violations_preserved: violation_set(&report) == base_violations,
                    });
                }
                // The baseline itself, for the curves.
                points.push(Point {
                    workload: shape.workload,
                    cap,
                    faults,
                    subsumption: false,
                    sleep_sets: false,
                    explored: baseline.explored,
                    executed_runs: baseline.explored as u64,
                    subsumed: 0,
                    sleep_rejected: 0,
                    wall_ms: base_ms,
                    distinct_violations: base_violations.len(),
                    divergence: None,
                    violations_preserved: true,
                });
            }
        }
    }

    let top_cap = caps.iter().copied().max().unwrap_or(1);
    let reduction = |faults: bool| {
        points
            .iter()
            .find(|p| {
                p.workload == "town10"
                    && p.cap == top_cap
                    && p.faults == faults
                    && p.subsumption
                    && !p.sleep_sets
            })
            .map_or(1.0, |p| p.explored as f64 / p.executed_runs.max(1) as f64)
    };
    let sleep_pruned_share = points
        .iter()
        .find(|p| p.workload == "commuting" && p.cap == top_cap && !p.faults && p.sleep_sets)
        .map_or(0.0, |p| {
            let candidates = p.explored as u64 + p.sleep_rejected;
            p.sleep_rejected as f64 / candidates.max(1) as f64
        });
    let all_sound = points
        .iter()
        .all(|p| p.divergence.is_none() && p.violations_preserved);

    let subsume_reduction_at_10k = reduction(false);
    let subsume_reduction_at_10k_faults = reduction(true);
    let doc = Document {
        caps,
        points,
        subsume_reduction_at_10k,
        subsume_reduction_at_10k_faults,
        sleep_pruned_share,
        all_sound,
    };

    let rendered = if pretty {
        serde_json::to_string_pretty(&doc)
    } else {
        serde_json::to_string(&doc)
    }
    .expect("report serializes");
    println!("{rendered}");
}
