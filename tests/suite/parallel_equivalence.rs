//! Differential-equivalence harness for parallel replay.
//!
//! The campaign core's contract is that a merged [`Report`] is
//! *byte-identical* for any worker count — same runs, same order, same
//! violations, same simulated time. The first four tests pin that over the
//! 12-bug catalogue against a one-worker engine reference: they replay the
//! scratch column of the catalogue matrix (`common::matrix`), sanitizer
//! attached. The naive-loop test anchors the lot against a loop that is not
//! the engine (`common::reference_replay`), on every model `tests/` can name
//! and in every cell of `common::cells()`.
//!
//! Two tests pin the retention rule (`ReplayConfig::keep_runs`): a report
//! under default retention states exactly what one that kept its run
//! records states, and `SystemModel::observe` runs only for a reader. The
//! last pins what a report keeps of a message: one string per slot.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::common::matrix::sweep;
use crate::common::town::record_town;
use crate::common::{cells, r, reference_replay, Cell, Reference, SCRATCH, WORKER_COUNTS};
use er_pi::{
    enumerate_plans, Assertion, ExploreMode, FailureStats, FaultSpace, LiveSystem, OpOutcome,
    ReplayConfig, Report, Session, SystemModel, TestSuite,
};
use er_pi_model::{Event, ReplicaId, Value};
use er_pi_subjects::{Bug, CrdtsModel, RoshiModel, TownApp, YorkieModel};

/// Cap of the engine-versus-naive-loop matrix: enough runs for ten chunks
/// on one slot and for every slot of four to claim several.
const MATRIX_CAP: usize = 640;

/// `workers == 1` is the same campaign loop on the calling thread alone, the
/// left-hand side of every diff: replaying the stop-first reference's own
/// configuration again must reproduce it.
#[test]
fn one_worker_is_the_sequential_path() {
    sweep(true, |cell| cell == SCRATCH);
}

#[test]
fn parallel_equals_sequential_exhaustive() {
    sweep(false, |cell| {
        !cell.incremental && !cell.subsumption && cell.workers > 1
    });
}

#[test]
fn parallel_equals_sequential_stop_on_first() {
    sweep(true, |cell| {
        cell == Cell {
            workers: 2,
            ..SCRATCH
        }
    });
}

/// The first violation a parallel run reports must be the *lowest-indexed*
/// one — the interleaving a sequential scan flags first — not merely "some"
/// violation that happened to finish early: the reference has one, and
/// `Report::diff` compares `first_violation_at`. Every stop-first cell of the
/// matrix holds that; this is its four-worker scratch cell.
#[test]
fn first_violation_index_is_scheduling_independent() {
    sweep(true, |cell| {
        cell == Cell {
            workers: 4,
            ..SCRATCH
        }
    });
}

/// Assertions any model can be held to; some orders of the recordings below
/// violate each.
fn generic_suite<S>() -> TestSuite<S> {
    TestSuite::new()
        .with(Assertion::replicas_converge("converge"))
        .with(Assertion::no_failed_ops("no-failed-ops"))
}

/// One recorded session the engine is held against the naive loop on.
fn against_the_naive_loop<M>(
    what: &str,
    new_model: impl Fn() -> M,
    record: impl Fn(&mut LiveSystem<'_, M>),
    suite: &TestSuite<M::State>,
) where
    M: SystemModel + Sync,
    M::State: Send + Sync,
{
    let mut recorder = Session::new(new_model());
    let workload = recorder.record(&record).clone();
    let modes = [
        ExploreMode::ErPi,
        ExploreMode::Dfs,
        ExploreMode::Random { seed: 7 },
    ];
    for mode in modes {
        for stop in [false, true] {
            for faults in [None, Some(FaultSpace::all(1))] {
                let plans = faults
                    .as_ref()
                    .map_or_else(Vec::new, |space| enumerate_plans(&workload, space));
                let model = new_model();
                let reference =
                    reference_replay(&model, &workload, mode, plans, suite, MATRIX_CAP, stop);
                assert!(
                    stop || reference.explored > 1,
                    "{what}: nothing to interleave"
                );
                for cell in cells() {
                    let mut session = Session::new(new_model());
                    session.set_workload(workload.clone());
                    cell.apply(&mut session)
                        .set_mode(mode)
                        .set_cap(MATRIX_CAP)
                        .set_stop_on_first_violation(stop)
                        .set_keep_runs(true);
                    if let Some(space) = &faults {
                        session.set_fault_space(space.clone());
                    }
                    let report = session.replay(suite).expect("workload installed");
                    let engine = Reference {
                        runs: report.runs,
                        violations: report.violations,
                        first_violation_at: report.first_violation_at,
                        explored: report.explored,
                        stopped_early: report.stopped_early,
                    };
                    assert!(
                        engine == reference,
                        "{what}: {mode} stop={stop} faults={} {cell} diverged from the naive loop",
                        faults.is_some()
                    );
                }
            }
        }
    }
}

/// The anchor of every workers-N-versus-1 diff in the suites: the engine —
/// chunked claims, per-slot incremental executors, subsumption, scoped
/// threads, the merge — reports exactly what a naive one-at-a-time scratch
/// loop that shares none of that code reports, on every model `tests/` can
/// name.
#[test]
fn the_engine_equals_a_reference_that_is_not_the_engine() {
    let town = TownApp::invariant();
    against_the_naive_loop(
        "town, motivating",
        || TownApp::new(2),
        |app| {
            let ev1 = app.invoke(r(0), "add", [Value::from("otb")]);
            app.sync(r(0), r(1), ev1);
            let ev2 = app.invoke(r(1), "add", [Value::from("ph")]);
            app.sync(r(1), r(0), ev2);
            let ev3 = app.invoke(r(1), "remove", [Value::from("otb")]);
            app.sync(r(1), r(0), ev3);
            app.external(r(0), "transmit");
        },
        &town,
    );
    against_the_naive_loop("town, 10 events", || TownApp::new(2), record_town, &town);
    against_the_naive_loop(
        "roshi",
        || RoshiModel::new(2),
        |app| {
            let member = [Value::from("k"), Value::from("m"), Value::from(9)];
            app.invoke(r(0), "insert", member);
            app.invoke(r(0), "select", [Value::from("k")]);
        },
        &generic_suite(),
    );
    against_the_naive_loop(
        "yorkie",
        || YorkieModel::new(2),
        |app| {
            let s1 = app.invoke(r(1), "set", [Value::from("k"), Value::from("remote")]);
            app.sync_split(r(1), r(0), Some(s1));
            app.invoke(r(0), "set", [Value::from("k"), Value::from("local")]);
        },
        &generic_suite(),
    );
    against_the_naive_loop(
        "crdts",
        || CrdtsModel::new(2),
        |app| {
            app.invoke(r(0), "set_add", [Value::from(1)]);
            app.invoke(r(1), "set_remove", [Value::from(1)]); // fails pre-sync
            app.sync_untracked(r(0), r(1));
        },
        &generic_suite(),
    );
}

/// A report under default retention states what one that kept its run
/// records states — all of it but the records.
fn assert_retention_only_adds_records(what: &str, default: &Report, mut kept: Report) {
    assert!(default.runs.is_empty(), "{what}: nothing asked for records");
    assert_eq!(kept.runs.len(), kept.explored, "{what}: a record per run");
    let failures = default.session_summary.failures;
    assert_eq!(failures, kept.session_summary.failures, "{what}: failures");
    assert_eq!(failures, FailureStats::from_runs(&kept.runs), "{what}");
    assert_eq!(default.session_summary.explored, default.explored, "{what}");
    // `explored`, `sim_us`, `violations` and every other deterministic field.
    kept.runs.clear();
    assert_eq!(default.diff(&kept), None, "{what}");
}

/// The tally column is all a report needs of a run: over the catalogue and
/// the benchmark's town recording, at every worker count and both stop
/// policies, default retention and `keep_runs` report the same `explored`,
/// `sim_us`, violations and failure statistics (that the kept `runs` are the
/// naive loop's is the test above).
#[test]
fn default_retention_reports_what_kept_records_report() {
    for stop in [false, true] {
        for workers in WORKER_COUNTS {
            let config = |keep_runs| ReplayConfig {
                cap: MATRIX_CAP,
                stop_on_first_violation: stop,
                workers,
                keep_runs,
                ..ReplayConfig::default()
            };
            for bug in Bug::catalogue() {
                let what = format!("{} stop={stop} workers={workers}", bug.name);
                let default = bug.replay_report_opts(&config(false));
                let kept = bug.replay_report_opts(&config(true));
                assert_retention_only_adds_records(&what, &default, kept);
            }
            for mode in [ExploreMode::Dfs, ExploreMode::Random { seed: 7 }] {
                let what = format!("town {mode} stop={stop} workers={workers}");
                let replay = |keep_runs| {
                    let config = ReplayConfig {
                        mode,
                        ..config(keep_runs)
                    };
                    let mut session =
                        Session::with_config(TownApp::new(2), config, Default::default());
                    session.record(record_town);
                    session.replay(&TownApp::invariant()).expect("recorded")
                };
                assert_retention_only_adds_records(&what, &replay(false), replay(true));
            }
        }
    }
}

/// Forwards to `M` and counts the `observe` calls.
struct CountingObserve<M> {
    inner: M,
    observed: AtomicUsize,
}

impl<M: SystemModel> SystemModel for CountingObserve<M> {
    type State = M::State;

    fn replicas(&self) -> usize {
        self.inner.replicas()
    }

    fn init(&self, replica: ReplicaId) -> M::State {
        self.inner.init(replica)
    }

    fn apply(&self, states: &mut [M::State], event: &Event) -> OpOutcome {
        self.inner.apply(states, event)
    }

    fn observe(&self, state: &M::State) -> Value {
        self.observed.fetch_add(1, Ordering::Relaxed);
        self.inner.observe(state)
    }

    fn recover(&self, states: &mut [M::State], replica: ReplicaId) {
        self.inner.recover(states, replica);
    }

    fn state_encode(&self, state: &M::State, out: &mut Vec<u8>) -> bool {
        self.inner.state_encode(state, out)
    }

    fn replica_digest(&self, state: &M::State) -> Option<u128> {
        self.inner.replica_digest(state)
    }

    fn state_size_hint(&self, state: &M::State) -> usize {
        self.inner.state_size_hint(state)
    }
}

/// Observations are paid for on read: `observe` runs once per replica for a
/// run whose assertions read them or whose record is kept, never twice, and
/// not at all for a run nobody reads.
#[test]
fn observe_runs_only_when_something_reads_it() {
    const REPLICAS: usize = 2;
    let reading = || TestSuite::new().with(Assertion::replicas_converge("converge"));
    let reading_twice = || reading().with(Assertion::no_duplication("no-dup", 0));
    let cases = [
        (
            "default retention, no reader",
            false,
            TownApp::invariant(),
            0,
        ),
        ("one reading assertion", false, reading(), REPLICAS),
        ("two reading assertions", false, reading_twice(), REPLICAS),
        (
            "kept records, no reader",
            true,
            TownApp::invariant(),
            REPLICAS,
        ),
        ("kept records and a reader", true, reading_twice(), REPLICAS),
    ];
    for (what, keep_runs, suite, per_run) in cases {
        for workers in WORKER_COUNTS {
            let model = CountingObserve {
                inner: TownApp::new(REPLICAS),
                observed: AtomicUsize::new(0),
            };
            let mut session = Session::new(model);
            session.record(record_town);
            session
                .set_mode(ExploreMode::Dfs)
                .set_cap(MATRIX_CAP)
                .set_workers(workers)
                .set_keep_runs(keep_runs);
            let report = session.replay(&suite).expect("recorded");
            assert_eq!(report.explored, MATRIX_CAP);
            assert_eq!(
                session.model().observed.load(Ordering::Relaxed),
                per_run * report.explored,
                "{what} at {workers} workers"
            );
        }
    }
}

/// A replay slot stores each violation message once: the town recording's
/// 7 900 violations fail with one text, which the report holds in at most
/// one string per slot, at one worker and at two.
#[test]
fn equal_violation_messages_share_one_string_per_slot() {
    for workers in [1, 2] {
        let config = ReplayConfig {
            mode: ExploreMode::Dfs,
            cap: 10_000,
            workers,
            ..ReplayConfig::default()
        };
        let mut session = Session::with_config(TownApp::new(2), config, Default::default());
        session.record(record_town);
        let report = session.replay(&TownApp::invariant()).expect("recorded");
        assert_eq!(report.violations.len(), 7_900);
        let mut strings: BTreeMap<&str, BTreeSet<*const u8>> = BTreeMap::new();
        for violation in &report.violations {
            let message = &violation.message;
            strings
                .entry(message)
                .or_default()
                .insert(Arc::as_ptr(message).cast());
        }
        for (text, copies) in strings {
            assert!(
                copies.len() <= workers,
                "{workers} workers: {} strings of {text:?}",
                copies.len()
            );
        }
    }
}
