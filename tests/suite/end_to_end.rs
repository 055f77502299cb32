//! End-to-end integration tests across the workspace: the full
//! record → generate → prune → replay → assert pipeline.

use crate::common::r;
use er_pi::{Assertion, ExploreMode, FailedOpsRule, PruningConfig, Session, TestSuite};
use er_pi_model::{EventId, Value};
use er_pi_subjects::{CrdtsModel, RoshiModel, TownApp, YorkieModel};

fn record_motivating(session: &mut Session<TownApp>) -> [EventId; 4] {
    let mut ids = [EventId::new(0); 4];
    session.record(|app| {
        let ev1 = app.invoke(r(0), "add", [Value::from("otb")]);
        app.sync(r(0), r(1), ev1);
        let ev2 = app.invoke(r(1), "add", [Value::from("ph")]);
        app.sync(r(1), r(0), ev2);
        let ev3 = app.invoke(r(1), "remove", [Value::from("otb")]);
        app.sync(r(1), r(0), ev3);
        let ev4 = app.external(r(0), "transmit");
        ids = [ev1, ev2, ev3, ev4];
    });
    ids
}

#[test]
fn motivating_example_full_pipeline() {
    let mut session = Session::new(TownApp::new(2));
    let [ev1, ev2, ev3, ev4] = record_motivating(&mut session);

    // Paper numbers: 7 events, 5040 raw, 24 grouped, 19 with the rule.
    assert_eq!(session.workload().unwrap().total_orders(), 5040);
    let grouped = session.replay(&TownApp::invariant()).unwrap();
    assert_eq!(grouped.explored, 24);
    assert!(!grouped.passed());

    session.set_config(PruningConfig::default().with_failed_ops(FailedOpsRule {
        predecessors: vec![ev4],
        successors: vec![ev1, ev2, ev3],
    }));
    let pruned = session.replay(&TownApp::invariant()).unwrap();
    assert_eq!(pruned.explored, 19);
    assert!(!pruned.passed(), "pruning must not lose the violation");

    // The violation count is identical: only equivalent orders were merged
    // away, and merged classes share outcomes.
    assert_eq!(grouped.violations.len(), pruned.violations.len());
}

#[test]
fn all_three_modes_find_the_motivating_violation() {
    for mode in [
        ExploreMode::ErPi,
        ExploreMode::Dfs,
        ExploreMode::Random { seed: 7 },
    ] {
        let mut session = Session::new(TownApp::new(2));
        record_motivating(&mut session);
        session.set_mode(mode);
        session.set_stop_on_first_violation(true);
        let report = session.replay(&TownApp::invariant()).unwrap();
        assert!(!report.passed(), "{mode} must find the violation");
    }
}

#[test]
fn constraints_directory_prunes_mid_session() {
    let dir = std::env::temp_dir().join(format!("er-pi-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut session = Session::new(TownApp::new(2));
    let [ev1, ev2, ev3, ev4] = record_motivating(&mut session);
    let rule = PruningConfig::default().with_failed_ops(FailedOpsRule {
        predecessors: vec![ev4],
        successors: vec![ev1, ev2, ev3],
    });
    std::fs::write(dir.join("rule.json"), serde_json::to_string(&rule).unwrap()).unwrap();
    session.watch_constraints(&dir);
    let report = session.replay(&TownApp::invariant()).unwrap();
    assert_eq!(
        report.explored, 19,
        "the dropped constraint shrank the space"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recording_executes_against_the_real_subject() {
    // The LiveSystem is not a mock: recorded calls run the actual RDL.
    let mut session = Session::new(RoshiModel::new(2));
    session.record(|app| {
        app.invoke(
            r(0),
            "insert",
            [Value::from("k"), Value::from("m"), Value::from(9)],
        );
        let sel = app.invoke(r(0), "select", [Value::from("k")]);
        assert!(matches!(app.outcome(sel), er_pi::OpOutcome::Observed(_)));
        assert_eq!(app.state(r(0)).store.key_len("k"), 1);
        assert_eq!(app.state(r(1)).store.key_len("k"), 0);
    });
}

#[test]
fn cross_run_divergence_detector_spans_subjects() {
    // The same cross-interleaving detector works on any SystemModel.
    let mut session = Session::new(YorkieModel::new(2));
    session.record(|app| {
        let s1 = app.invoke(r(1), "set", [Value::from("k"), Value::from("remote")]);
        app.sync_split(r(1), r(0), Some(s1));
        app.invoke(r(0), "set", [Value::from("k"), Value::from("local")]);
    });
    let suite = TestSuite::new().with_cross(er_pi::CrossCheck::same_state_across_interleavings(
        "stable", 0,
    ));
    let report = session.replay(&suite).unwrap();
    assert!(!report.passed(), "LWW winner depends on the interleaving");
}

#[test]
fn failed_ops_surface_in_check_contexts() {
    let mut session = Session::new(CrdtsModel::new(2));
    session.record(|app| {
        app.invoke(r(0), "set_add", [Value::from(1)]);
        app.invoke(r(1), "set_remove", [Value::from(1)]); // fails pre-sync
        app.sync_untracked(r(0), r(1));
    });
    session.set_keep_runs(true);
    let suite = TestSuite::new().with(Assertion::new("count-failures", |ctx| {
        // At least one order runs the remove before the element is visible.
        let _ = ctx.failed_ops();
        Ok(())
    }));
    let report = session.replay(&suite).unwrap();
    assert!(report.runs.iter().any(|run| run.failed_ops > 0));
    assert!(report.runs.iter().any(|run| run.failed_ops == 0));
}

#[test]
fn dfs_mode_counts_match_factorial_for_small_workloads() {
    let mut session = Session::new(CrdtsModel::new(2));
    session.record(|app| {
        app.invoke(r(0), "counter_inc", [Value::from(1)]);
        app.invoke(r(1), "counter_inc", [Value::from(2)]);
        app.invoke(r(0), "counter_dec", [Value::from(1)]);
        app.invoke(r(1), "reg_set", [Value::from(5)]);
    });
    session.set_mode(ExploreMode::Dfs);
    let report = session.replay(&TestSuite::new()).unwrap();
    assert_eq!(report.explored, 24); // 4!
}
