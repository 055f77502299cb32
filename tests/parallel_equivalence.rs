//! Differential-equivalence harness for parallel replay.
//!
//! The campaign core's contract is that a merged [`Report`] is
//! *byte-identical* for any worker count — same runs, same order, same
//! violations, same simulated time. These tests pin that contract across
//! the entire 12-bug catalogue, with and without
//! `stop_on_first_violation`, at 1, 2 and 4 workers. `Report::diff`
//! compares every field except wall-clock time and per-worker load
//! (which are legitimately scheduling-dependent). One worker is no
//! separate code path — it is the same loop on the calling thread — so
//! the last test anchors the lot against a naive loop that is not the
//! engine (`common::reference_replay`).

mod common;

use common::{reference_replay, Reference, WORKER_COUNTS};
use er_pi::{
    enumerate_plans, Assertion, ExploreMode, FaultSpace, LiveSystem, Session, SystemModel,
    TestSuite,
};
use er_pi_model::{ReplicaId, Value};
use er_pi_subjects::{Bug, CrdtsModel, RoshiModel, TownApp, YorkieModel};

const CAP: usize = 10_000;
/// Cap of the engine-versus-naive-loop matrix: enough runs for ten chunks
/// on one slot and for every slot of four to claim several.
const MATRIX_CAP: usize = 640;

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

/// Assertions any model can be held to; some orders of the recordings below
/// violate each.
fn generic_suite<S>() -> TestSuite<S> {
    TestSuite::new()
        .with(Assertion::replicas_converge("converge"))
        .with(Assertion::no_failed_ops("no-failed-ops"))
}

/// `workers == 1` is the same campaign loop on the calling thread alone,
/// the left-hand side of every diff below: it must be deterministic.
#[test]
fn one_worker_is_the_sequential_path() {
    for bug in Bug::catalogue() {
        let a = bug.replay_report(CAP, true, 1);
        let b = bug.replay_report(CAP, true, 1);
        assert_eq!(
            a.diff(&b),
            None,
            "{}: sequential replay must be deterministic",
            bug.name
        );
    }
}

#[test]
fn parallel_equals_sequential_exhaustive() {
    for bug in Bug::catalogue() {
        let reference = bug.replay_report(CAP, false, 1);
        for workers in WORKER_COUNTS {
            let parallel = bug.replay_report(CAP, false, workers);
            assert_eq!(
                reference.diff(&parallel),
                None,
                "{} at {workers} workers diverged from sequential (exhaustive)",
                bug.name
            );
        }
    }
}

#[test]
fn parallel_equals_sequential_stop_on_first() {
    for bug in Bug::catalogue() {
        let reference = bug.replay_report(CAP, true, 1);
        for workers in WORKER_COUNTS {
            let parallel = bug.replay_report(CAP, true, workers);
            assert_eq!(
                reference.diff(&parallel),
                None,
                "{} at {workers} workers diverged from sequential (stop-on-first)",
                bug.name
            );
        }
    }
}

/// The first violation a parallel run reports must be the *lowest-indexed*
/// one — i.e. exactly the interleaving a sequential scan would have flagged
/// first — not merely "some" violation that happened to finish early.
#[test]
fn first_violation_index_is_scheduling_independent() {
    for bug in Bug::catalogue() {
        let reference = bug.replay_report(CAP, true, 1);
        assert!(
            reference.first_violation_at.is_some(),
            "{}: catalogue bug must manifest under ER-π pruning",
            bug.name
        );
        for workers in WORKER_COUNTS {
            let parallel = bug.replay_report(CAP, true, workers);
            assert_eq!(
                parallel.first_violation_at, reference.first_violation_at,
                "{} at {workers} workers found a different first violation",
                bug.name
            );
        }
    }
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
                for workers in WORKER_COUNTS {
                    for incremental in [true, false] {
                        let mut session = Session::new(new_model());
                        session.set_workload(workload.clone());
                        session
                            .set_mode(mode)
                            .set_cap(MATRIX_CAP)
                            .set_stop_on_first_violation(stop)
                            .set_workers(workers)
                            .set_incremental(incremental)
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
                            "{what}: {mode} stop={stop} faults={} workers={workers} \
                             incremental={incremental} diverged from the naive loop",
                            faults.is_some()
                        );
                    }
                }
            }
        }
    }
}

/// The anchor of every workers-N-versus-1 diff in the suites: the engine —
/// chunked claims, per-slot incremental executors, scoped threads, the
/// merge — reports exactly what a naive one-at-a-time scratch loop that
/// shares none of that code reports, on every model `tests/` can name.
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
    against_the_naive_loop(
        "town, 10 events",
        || TownApp::new(2),
        |app| {
            let ev1 = app.invoke(r(0), "add", [Value::from("otb")]);
            app.sync(r(0), r(1), ev1);
            let ev2 = app.invoke(r(1), "add", [Value::from("ph")]);
            app.sync(r(1), r(0), ev2);
            let ev3 = app.invoke(r(1), "remove", [Value::from("otb")]);
            app.sync(r(1), r(0), ev3);
            let ev4 = app.invoke(r(0), "add", [Value::from("pl")]);
            app.sync(r(0), r(1), ev4);
            app.invoke(r(1), "remove", [Value::from("ph")]);
            app.external(r(0), "transmit");
        },
        &town,
    );
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
