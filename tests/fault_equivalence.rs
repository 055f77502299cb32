//! Differential-equivalence harness for fault-schedule replay.
//!
//! Fault plans are part of run identity, so the pool/incremental contract
//! extends to them: for a fixed workload and [`FaultPlan`] set, the merged
//! [`Report`] must be byte-identical across worker counts, exploration
//! modes, and executor kinds. These tests pin that matrix — and the reason
//! fault schedules exist at all: a seeded fault-dependent bug that *no*
//! fault-free interleaving can expose, found by fault-space exploration
//! and reproduced from its minimized (workload, fault schedule) pair — how
//! the fault product grows with the fault budget, and that a crash-restart
//! recovers, phase by phase, the state normal execution reaches.

mod common;

use crate::common::{cells, r, Cell, SCRATCH};
use er_pi::{
    enumerate_plans, CheckContext, FaultInterpreter, FaultSpace, OpOutcome, ReplayConfig, Report,
    Session, SystemModel, TestSuite,
};
use er_pi_fuzz::{report_for, FuzzCase, SpecEntry, SpecFault, Target, WorkloadSpec, ORACLE_CAP};
use er_pi_model::{Event, EventId, FaultEvent, FaultKind, FaultPlan, ReplicaId, Value, Workload};
use er_pi_subjects::{CrdtsModel, CrdtsState, LedgerApp, LedgerState};

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

fn ledger_report(plans: Vec<FaultPlan>, cell: Cell, stop_first: bool) -> Report {
    let mut session = Session::new(LedgerApp::new(2));
    cell.apply(&mut session)
        .set_workload(ledger_workload())
        .set_fault_plans(plans)
        .set_stop_on_first_violation(stop_first)
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
        let plans = || vec![FaultPlan::empty(), duplicate_plan()];
        let reference = ledger_report(plans(), SCRATCH, stop_first);
        for cell in cells() {
            let other = ledger_report(plans(), cell, stop_first);
            assert_eq!(
                reference.diff(&other),
                None,
                "stop_first={stop_first} {cell} diverged from the sequential reference"
            );
        }
    }
}

/// The acceptance witness: exhaustive *fault-free* exploration of the
/// ledger workload is clean, while one scheduled duplicate delivery
/// violates exactly-once — the bug class that only fault schedules reach.
#[test]
fn fault_space_finds_what_no_fault_free_interleaving_can() {
    let fault_free = ledger_report(vec![FaultPlan::empty()], SCRATCH, false);
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
    for cell in cells() {
        let other = report_for(&minimal, &cell.config(oracle));
        assert_eq!(
            reference.diff(&other),
            None,
            "minimized pair diverged at {cell}"
        );
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
    let run = |cell: Cell| {
        let mut session = Session::new(CrdtsModel::new(2));
        cell.apply(&mut session)
            .set_workload(workload())
            .set_fault_space(FaultSpace::all(1))
            .set_cap(50_000);
        session.config_mut().require_causal = true;
        session
            .replay(&TestSuite::new().with(er_pi::Assertion::replicas_converge("converge")))
            .unwrap()
    };
    let reference = run(SCRATCH);
    assert!(reference.explored > 0);
    for cell in cells() {
        assert_eq!(
            reference.diff(&run(cell)),
            None,
            "crdts fault space diverged at {cell}"
        );
    }
}

/// A subject of the fault-space sweep: two updates cross-shipped between
/// two replicas, the second a read-modify-write issued after the first
/// arrives, so causally invalid unit orders exist for the pruner to reject.
fn causal_workload(first: &str, first_arg: i64, second: &str, second_arg: i64) -> Workload {
    let mut w = Workload::builder();
    let a = w.update(r(0), first, [Value::from(first_arg)]);
    let s1 = w.sync_pair(r(0), r(1), a);
    let b = w.update(r(1), second, [Value::from(second_arg)]);
    w.depends(b, s1);
    w.sync_pair(r(1), r(0), b);
    w.build()
}

/// `workload` on `model` under `space` (`None`: the empty plan alone), the
/// causal pruner on or off, in `cell`.
fn fault_space_report<M>(
    model: M,
    workload: &Workload,
    suite: &TestSuite<M::State>,
    space: &Option<FaultSpace>,
    causal: bool,
    cell: Cell,
) -> Report
where
    M: er_pi::SystemModel + Sync,
    M::State: Send + Sync,
{
    let mut session = Session::new(model);
    cell.apply(&mut session)
        .set_workload(workload.clone())
        .set_cap(10_000);
    match space {
        Some(space) => session.set_fault_space(space.clone()),
        None => session.set_fault_plans(vec![FaultPlan::empty()]),
    };
    session.config_mut().require_causal = causal;
    session.replay(suite).expect("workload installed")
}

/// Fault spaces of growing budget over both fault subjects: how many plans
/// each enumerates and how many runs its product replays with the causal
/// pruner off and on (the pruner rejects each causally invalid order once
/// per plan), that fault-free exploration is clean and every violation
/// carries its fault schedule, and that four incremental workers report
/// what one scratch worker does.
#[test]
fn fault_spaces_stay_sound_and_deterministic_as_the_budget_grows() {
    // (space, plans, replays with the causal pruner off, replays with it
    // on): the same on both subjects, which share their shape.
    let spaces = [
        ("none", None, 1, 2, 1),
        ("default(1)", Some(FaultSpace::default()), 5, 10, 5),
        ("all(1)", Some(FaultSpace::all(1)), 13, 26, 13),
        ("all(2)", Some(FaultSpace::all(2)), 60, 120, 60),
    ];
    let parallel = Cell {
        workers: 4,
        incremental: true,
        subsumption: false,
    };
    let ledger = causal_workload("credit", 10, "credit", 20);
    let crdts = causal_workload("set_add", 1, "counter_inc", 2);
    let converge = TestSuite::new().with(er_pi::Assertion::replicas_converge("converge"));
    for (subject, workload) in [("ledger", &ledger), ("crdts", &crdts)] {
        let mut found = 0;
        for (space_name, space, plans, unpruned, pruned) in &spaces {
            let what = format!("{subject} {space_name}");
            let run = |causal: bool, cell: Cell| match subject {
                "ledger" => fault_space_report(
                    LedgerApp::new(2),
                    workload,
                    &exactly_once_suite(),
                    space,
                    causal,
                    cell,
                ),
                _ => {
                    fault_space_report(CrdtsModel::new(2), workload, &converge, space, causal, cell)
                }
            };
            let enumerated = space
                .as_ref()
                .map_or(1, |space| enumerate_plans(workload, space).len());
            assert_eq!(enumerated, *plans, "{what}: plans");
            let report = run(true, SCRATCH);
            assert_eq!(
                run(false, SCRATCH).explored,
                *unpruned,
                "{what}: causal off"
            );
            assert_eq!(report.explored, *pruned, "{what}: causal on");
            assert!(
                space.is_some() || report.violations.is_empty(),
                "{what}: fault-free exploration must be clean"
            );
            for violation in &report.violations {
                let il = violation.interleaving.as_ref().expect("per-run violation");
                assert!(
                    !il.faults().is_empty(),
                    "{what}: a violation escaped its fault schedule: {violation:?}"
                );
            }
            found += report.violations.len();
            assert_eq!(
                report.diff(&run(true, parallel)),
                None,
                "{what}: {parallel}"
            );
        }
        assert!(found > 0, "{subject}: no fault space surfaced a violation");
    }
}

/// One row of a recovery-parity table, in the shape of a recovery audit's
/// "phase × normal × recovery × identical?": after the step at `position`
/// of the recorded order under the crash `plan`, does `replica` hold what it
/// holds at the same position of the run without the crash?
#[derive(Debug)]
struct Parity {
    plan: String,
    position: usize,
    replica: usize,
    identical: bool,
}

/// Steps `workload`'s recorded order through `FaultInterpreter` under each
/// single-crash plan and under the empty plan side by side, comparing every
/// replica's `replica_digest` after every step.
fn recovery_parity<M: SystemModel>(model: &M, workload: &Workload) -> Vec<Parity> {
    let crashes = FaultSpace {
        budget: 1,
        drop: false,
        duplicate: false,
        delay_window: 0,
        partitions: false,
        crashes: true,
        include_local_ops: false,
        include_baseline: false,
    };
    let order = workload.recorded_order();
    let normal_plan = FaultPlan::empty();
    let digest = |state: &M::State| model.replica_digest(state).expect("the subject encodes");
    let mut table = Vec::new();
    for plan in enumerate_plans(workload, &crashes) {
        let (mut recovered, mut normal) = (model.init_all(), model.init_all());
        let mut crashing = FaultInterpreter::new(&plan);
        let mut running = FaultInterpreter::new(&normal_plan);
        for (position, &id) in order.iter().enumerate() {
            let event = workload.event(id);
            crashing.step(model, &mut recovered, workload, event, position);
            running.step(model, &mut normal, workload, event, position);
            for replica in 0..model.replicas() {
                table.push(Parity {
                    plan: plan.to_string(),
                    position,
                    replica,
                    identical: digest(&recovered[replica]) == digest(&normal[replica]),
                });
            }
        }
    }
    table
}

/// The `(plan, position, replica)` rows of `table` that differ.
fn differing(table: &[Parity]) -> Vec<(&str, usize, usize)> {
    table
        .iter()
        .filter(|row| !row.identical)
        .map(|row| (row.plan.as_str(), row.position, row.replica))
        .collect()
}

/// How many rows of `table` disagree with `pinned` on `identical`.
fn flipped(pinned: &[Parity], table: &[Parity]) -> usize {
    assert_eq!(pinned.len(), table.len());
    pinned
        .iter()
        .zip(table)
        .filter(|(p, t)| p.identical != t.identical)
        .count()
}

/// `inner` with `recover` replaced: a mutant for the parity tables.
struct Recovering<M, F> {
    inner: M,
    recover: F,
}

impl<M, F> SystemModel for Recovering<M, F>
where
    M: SystemModel,
    F: Fn(&M, &mut [M::State], ReplicaId),
{
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
        self.inner.observe(state)
    }

    fn recover(&self, states: &mut [M::State], replica: ReplicaId) {
        (self.recover)(&self.inner, states, replica)
    }

    fn state_encode(&self, state: &M::State, out: &mut Vec<u8>) -> bool {
        self.inner.state_encode(state, out)
    }

    fn replica_digest(&self, state: &M::State) -> Option<u128> {
        self.inner.replica_digest(state)
    }
}

/// Ledger recovery replays the durable log: a replica crashed before
/// its own credit has lost the entry it received, and one crashed before
/// shipping has lost it too; every other (plan, phase, replica) is the
/// state normal execution reaches. A recovery that also loses the last
/// durable entry shows.
#[test]
fn ledger_recovery_parity_phase_by_phase() {
    let workload = ledger_workload();
    let pinned = recovery_parity(&LedgerApp::new(2), &workload);
    assert_eq!(pinned.len(), 32, "4 plans × 4 positions × 2 replicas");
    assert_eq!(
        differing(&pinned),
        [
            ("{crash R1@e2}", 2, 1),
            ("{crash R1@e2}", 3, 1),
            ("{crash R1@e3}", 3, 1),
        ]
    );
    let lossy = Recovering {
        inner: LedgerApp::new(2),
        recover: |model: &LedgerApp, states: &mut [LedgerState], replica: ReplicaId| {
            model.recover(states, replica);
            let state = &mut states[replica.index()];
            if let Some(last) = state.log.pop() {
                state.entries.retain(|entry| *entry != last);
            }
        },
    };
    assert_eq!(flipped(&pinned, &recovery_parity(&lossy, &workload)), 7);
}

/// crdts recovery keeps every structure and loses the inbox: only a
/// receiver crashed between a split sync's send and its exec differs, from
/// that exec on. A restart from `init` (the trait's default) shows.
#[test]
fn crdts_recovery_parity_phase_by_phase() {
    let mut w = Workload::builder();
    let add = w.update(r(0), "set_add", [Value::from(1)]);
    w.sync_split(r(0), r(1), Some(add));
    let push = w.update(r(1), "list_push", [Value::from(2)]);
    w.sync_pair(r(1), r(0), push);
    let workload = w.build();
    let pinned = recovery_parity(&CrdtsModel::new(2), &workload);
    assert_eq!(pinned.len(), 50, "5 plans × 5 positions × 2 replicas");
    assert_eq!(
        differing(&pinned),
        [
            ("{crash R1@e2}", 2, 1),
            ("{crash R1@e2}", 3, 1),
            ("{crash R1@e2}", 4, 1),
        ]
    );
    let amnesiac = Recovering {
        inner: CrdtsModel::new(2),
        recover: |model: &CrdtsModel, states: &mut [CrdtsState], replica: ReplicaId| {
            states[replica.index()] = model.init(replica);
        },
    };
    assert_eq!(flipped(&pinned, &recovery_parity(&amnesiac, &workload)), 12);
}
