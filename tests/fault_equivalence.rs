//! Differential-equivalence harness for fault-schedule replay.
//!
//! Fault plans are part of run identity, so the pool/incremental contract
//! extends to them: for a fixed workload and [`FaultPlan`] set, the merged
//! [`Report`] must be byte-identical across worker counts, exploration
//! modes, and executor kinds. These tests pin that matrix — and the reason
//! fault schedules exist at all: a seeded fault-dependent bug that *no*
//! fault-free interleaving can expose, found by fault-space exploration
//! and reproduced from its minimized (workload, fault schedule) pair.

mod common;

use common::WORKER_COUNTS;
use er_pi::{CheckContext, FaultSpace, ReplayConfig, Report, Session, TestSuite};
use er_pi_fuzz::{report_for, FuzzCase, SpecEntry, SpecFault, Target, WorkloadSpec, ORACLE_CAP};
use er_pi_model::{EventId, FaultEvent, FaultKind, FaultPlan, ReplicaId, Value, Workload};
use er_pi_subjects::{CrdtsModel, LedgerApp, LedgerState};

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

/// Two credits on different replicas, each shipped to the other.
fn ledger_workload() -> Workload {
    let mut w = Workload::builder();
    let a = w.update(r(0), "credit", [Value::from(10)]);
    w.sync_pair(r(0), r(1), a);
    let b = w.update(r(1), "credit", [Value::from(20)]);
    w.sync_pair(r(1), r(0), b);
    w.build()
}

fn exactly_once_suite() -> TestSuite<LedgerState> {
    TestSuite::new().with_assertion("exactly-once", |ctx: &CheckContext<'_, LedgerState>| {
        for (i, state) in ctx.states.iter().enumerate() {
            if let Some(id) = state.duplicated_entry() {
                return Err(format!("replica {i} applied entry {id} twice"));
            }
        }
        Ok(())
    })
}

fn ledger_report(
    plans: Vec<FaultPlan>,
    workers: usize,
    stop_first: bool,
    incremental: bool,
) -> Report {
    let mut session = Session::new(LedgerApp::new(2));
    session
        .set_workload(ledger_workload())
        .set_fault_plans(plans)
        .set_workers(workers)
        .set_stop_on_first_violation(stop_first)
        .set_incremental(incremental)
        .set_cap(50_000);
    session.config_mut().require_causal = true;
    session.replay(&exactly_once_suite()).unwrap()
}

/// The duplicate-delivery schedule on the first sync (event 1).
fn duplicate_plan() -> FaultPlan {
    FaultPlan::new(vec![FaultEvent::new(EventId::new(1), FaultKind::Duplicate)])
}

#[test]
fn same_fault_plan_is_byte_identical_across_the_matrix() {
    for stop_first in [false, true] {
        let reference = ledger_report(
            vec![FaultPlan::empty(), duplicate_plan()],
            1,
            stop_first,
            false,
        );
        for workers in WORKER_COUNTS {
            for incremental in [false, true] {
                let other = ledger_report(
                    vec![FaultPlan::empty(), duplicate_plan()],
                    workers,
                    stop_first,
                    incremental,
                );
                assert_eq!(
                    reference.diff(&other),
                    None,
                    "stop_first={stop_first} workers={workers} incremental={incremental} \
                     diverged from the sequential reference"
                );
            }
        }
    }
}

/// The acceptance witness: exhaustive *fault-free* exploration of the
/// ledger workload is clean, while one scheduled duplicate delivery
/// violates exactly-once — the bug class that only fault schedules reach.
#[test]
fn fault_space_finds_what_no_fault_free_interleaving_can() {
    let fault_free = ledger_report(vec![FaultPlan::empty()], 1, false, false);
    assert!(
        !fault_free.stopped_early && fault_free.explored < 50_000,
        "the fault-free space must be fully explored for the claim to hold"
    );
    assert!(
        fault_free.violations.is_empty(),
        "no fault-free interleaving may double-apply a sync"
    );

    // The default fault space (budget 1, duplicates only) finds it.
    let mut session = Session::new(LedgerApp::new(2));
    session
        .set_workload(ledger_workload())
        .set_fault_space(FaultSpace::default())
        .set_cap(50_000);
    session.config_mut().require_causal = true;
    let explored = session.replay(&exactly_once_suite()).unwrap();
    assert!(
        !explored.violations.is_empty(),
        "fault-space exploration must surface the duplicate-delivery bug"
    );
    for violation in &explored.violations {
        let faults = violation
            .interleaving
            .as_ref()
            .expect("per-run violations carry their interleaving")
            .faults();
        assert!(
            !faults.is_empty(),
            "every violating run must carry a fault schedule: {violation:?}"
        );
    }
}

/// The minimized (workload, fault schedule) pair from the fuzzer's corpus
/// shape replays to the same Report — violations, prune stats and all — at
/// every worker count and executor mode.
#[test]
fn minimized_pair_replays_deterministically_everywhere() {
    let minimal = FuzzCase {
        target: Target::Ledger,
        spec: WorkloadSpec {
            replicas: 2,
            entries: vec![
                SpecEntry::Op {
                    replica: 0,
                    function: "credit".into(),
                    args: vec![1],
                },
                SpecEntry::SyncPair {
                    from: 0,
                    to: 1,
                    of: Some(0),
                },
            ],
            chain_from: None,
        },
        faults: vec![SpecFault {
            anchor: 1,
            kind: FaultKind::Duplicate,
        }],
    };
    let oracle = ReplayConfig {
        cap: ORACLE_CAP,
        workers: 1,
        ..ReplayConfig::default()
    };
    let reference = report_for(&minimal, &oracle);
    // One causal order (the sync depends on its credit), two plans.
    assert_eq!(reference.explored, 2);
    assert_eq!(reference.violations.len(), 1);
    assert!(
        reference.prune_stats.is_some(),
        "pruner stats must be recomputed under fault plans"
    );
    for workers in WORKER_COUNTS {
        for incremental in [false, true] {
            let opts = ReplayConfig {
                workers,
                incremental,
                ..oracle
            };
            let other = report_for(&minimal, &opts);
            assert_eq!(
                reference.diff(&other),
                None,
                "minimized pair diverged at workers={workers} incremental={incremental}"
            );
        }
    }
}

/// Fault products preserve determinism for the convergence subject too:
/// the full default fault space over a crdts workload, across the matrix.
#[test]
fn crdts_fault_space_is_deterministic_across_the_matrix() {
    let workload = || {
        let mut w = Workload::builder();
        let a = w.update(r(0), "set_add", [Value::from(1)]);
        w.sync_pair(r(0), r(1), a);
        let b = w.update(r(1), "counter_inc", [Value::from(2)]);
        w.sync_pair(r(1), r(0), b);
        w.build()
    };
    let run = |workers: usize, incremental: bool| {
        let mut session = Session::new(CrdtsModel::new(2));
        session
            .set_workload(workload())
            .set_fault_space(FaultSpace::all(1))
            .set_workers(workers)
            .set_incremental(incremental)
            .set_cap(50_000);
        session.config_mut().require_causal = true;
        session
            .replay(&TestSuite::new().with(er_pi::Assertion::replicas_converge("converge")))
            .unwrap()
    };
    let reference = run(1, false);
    assert!(reference.explored > 0);
    for workers in WORKER_COUNTS {
        for incremental in [false, true] {
            assert_eq!(
                reference.diff(&run(workers, incremental)),
                None,
                "crdts fault space diverged at workers={workers} incremental={incremental}"
            );
        }
    }
}
