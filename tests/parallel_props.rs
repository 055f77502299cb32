//! Property tests for the parallel replay pool on randomized workloads.
//!
//! Three properties: (a) the union of work the shards executed is exactly
//! the sequential pruned interleaving set — nothing dropped, nothing
//! duplicated, same order; (b) the merged report is independent of the
//! worker count; (c) a panic inside one shard surfaces as
//! [`ErPiError::ExecutorPanic`] — at one worker and on a shared executor
//! service too — other shards are discarded cleanly, and the session stays
//! usable. A plain test pins the same for a pre-tripped cancel token.

use std::collections::HashSet;

use proptest::prelude::*;

use er_pi::{
    CancelToken, ErPiError, ExecutorService, ExploreMode, OpOutcome, Report, Session, SystemModel,
    TestSuite,
};
use er_pi_model::{Event, EventKind, ReplicaId, Value, Workload};

/// Two-replica last-write-wins register, order-sensitive by construction.
#[derive(Clone)]
struct RegMachine;

impl SystemModel for RegMachine {
    type State = i64;

    fn replicas(&self) -> usize {
        2
    }

    fn init(&self, _replica: ReplicaId) -> i64 {
        0
    }

    fn apply(&self, states: &mut [i64], event: &Event) -> OpOutcome {
        match &event.kind {
            EventKind::LocalUpdate { op } => {
                states[event.replica.index()] = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                OpOutcome::Applied
            }
            EventKind::Sync { to, .. } => {
                states[to.index()] = states[event.replica.index()];
                OpOutcome::Applied
            }
            _ => OpOutcome::failed("unsupported"),
        }
    }

    fn observe(&self, state: &i64) -> Value {
        Value::from(*state)
    }
}

/// Like [`RegMachine`], but detonates on any `bomb` op.
#[derive(Clone)]
struct FuseMachine;

impl SystemModel for FuseMachine {
    type State = i64;

    fn replicas(&self) -> usize {
        2
    }

    fn init(&self, _replica: ReplicaId) -> i64 {
        0
    }

    fn apply(&self, states: &mut [i64], event: &Event) -> OpOutcome {
        if let EventKind::LocalUpdate { op } = &event.kind {
            assert!(op.function() != "bomb", "model detonated");
            states[event.replica.index()] = op.arg(0).and_then(Value::as_int).unwrap_or(0);
        }
        OpOutcome::Applied
    }

    fn observe(&self, state: &i64) -> Value {
        Value::from(*state)
    }
}

#[derive(Debug, Clone)]
enum Step {
    Update(u16, i64),
    Sync(u16),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..2, 1i64..9).prop_map(|(r, v)| Step::Update(r, v)),
            (0u16..2).prop_map(Step::Sync),
        ],
        1..6,
    )
}

fn build_workload(steps: &[Step]) -> Workload {
    let mut w = Workload::builder();
    let mut last_update = None;
    for step in steps {
        match step {
            Step::Update(r, v) => {
                last_update = Some(w.update(ReplicaId::new(*r), "set", [Value::from(*v)]));
            }
            Step::Sync(r) => {
                let from = ReplicaId::new(*r);
                let to = ReplicaId::new(1 - *r);
                match last_update {
                    Some(u) => {
                        w.sync_pair(from, to, u);
                    }
                    None => {
                        w.sync_untracked(from, to);
                    }
                }
            }
        }
    }
    w.build()
}

fn replay_with_workers(workload: &Workload, mode: ExploreMode, workers: usize) -> Report {
    let mut session = Session::new(RegMachine);
    session.set_workload(workload.clone());
    session.set_mode(mode);
    session.set_keep_runs(true);
    session.set_cap(100_000);
    session.set_workers(workers);
    session.replay(&TestSuite::new()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shard union == pruned set: the pooled run list carries exactly the
    /// interleavings the sequential scan dispenses, in the same order,
    /// with no duplicates.
    #[test]
    fn shard_union_covers_pruned_set_exactly(steps in arb_steps()) {
        let workload = build_workload(&steps);
        let sequential = replay_with_workers(&workload, ExploreMode::ErPi, 1);
        let pooled = replay_with_workers(&workload, ExploreMode::ErPi, 4);

        let seq_ils: Vec<_> = sequential.runs.iter().map(|r| r.interleaving.clone()).collect();
        let pool_ils: Vec<_> = pooled.runs.iter().map(|r| r.interleaving.clone()).collect();
        prop_assert_eq!(&seq_ils, &pool_ils, "pooled runs are not the pruned set in order");

        let unique: HashSet<u64> = pool_ils.iter().map(|il| il.fingerprint()).collect();
        prop_assert_eq!(unique.len(), pool_ils.len(), "pooled runs contain duplicates");
    }

    /// The merged report is invariant under the worker count, in both
    /// exploration modes.
    #[test]
    fn merged_report_independent_of_worker_count(steps in arb_steps()) {
        let workload = build_workload(&steps);
        for mode in [ExploreMode::ErPi, ExploreMode::Dfs] {
            let reference = replay_with_workers(&workload, mode, 1);
            for workers in [2usize, 3, 4, 8] {
                let pooled = replay_with_workers(&workload, mode, workers);
                prop_assert_eq!(
                    reference.diff(&pooled),
                    None,
                    "report diverged at {} workers",
                    workers
                );
            }
        }
    }

    /// A panicking model surfaces as `ExecutorPanic` at every worker count
    /// — one included, where the replay runs on the calling thread — and
    /// on a shared executor service; the session is not poisoned — a benign
    /// workload on the same session replays fine afterwards.
    #[test]
    fn shard_panic_is_contained(steps in arb_steps()) {
        let mut bomb = Workload::builder();
        bomb.update(ReplicaId::new(0), "set", [Value::from(1)]);
        bomb.update(ReplicaId::new(1), "bomb", [Value::from(0)]);
        let bomb = bomb.build();
        let benign = build_workload(&steps);
        let service = ExecutorService::new(2);

        for workers in [4usize, 1] {
            let mut session = Session::new(FuseMachine);
            session.set_workload(bomb.clone());
            session.set_mode(ExploreMode::Dfs);
            session.set_workers(workers);
            let err = session.replay(&TestSuite::new());
            prop_assert!(
                matches!(err, Err(ErPiError::ExecutorPanic(_))),
                "expected ExecutorPanic, got {:?}",
                err.map(|r| r.explored)
            );

            // Same session, benign randomized workload: still usable.
            session.set_workload(benign.clone());
            let report = session.replay(&TestSuite::new());
            prop_assert!(report.is_ok(), "session poisoned after shard panic");
            prop_assert!(report.unwrap().explored > 0);

            // The service driver: same rule, and the service survives too.
            session.set_workload(bomb.clone());
            let err = session.replay_on(&service, 0, &TestSuite::new());
            prop_assert!(
                matches!(err, Err(ErPiError::ExecutorPanic(_))),
                "expected ExecutorPanic from the service, got {:?}",
                err.map(|r| r.explored)
            );
            session.set_workload(benign.clone());
            let report = session.replay_on(&service, 0, &TestSuite::new());
            prop_assert!(report.is_ok(), "service poisoned after a model panic");
            prop_assert!(report.unwrap().explored > 0);
        }
    }
}

/// A token tripped before the replay starts cancels it on every driver and
/// at every worker count, and clearing the token makes the session usable
/// again.
#[test]
fn a_pre_tripped_token_cancels_every_driver() {
    let workload = build_workload(&[Step::Update(0, 1), Step::Sync(0), Step::Update(1, 2)]);
    let service = ExecutorService::new(2);
    for workers in [1usize, 2, 4] {
        let mut session = Session::new(RegMachine);
        session.set_workload(workload.clone());
        session.set_mode(ExploreMode::Dfs).set_workers(workers);
        let token = CancelToken::new();
        token.cancel();
        session.set_cancel_token(Some(token));
        let cancelled = session.replay(&TestSuite::new());
        assert!(
            matches!(cancelled, Err(ErPiError::Cancelled)),
            "{workers} workers: expected Cancelled"
        );
        let cancelled = session.replay_on(&service, 0, &TestSuite::new());
        assert!(matches!(cancelled, Err(ErPiError::Cancelled)));

        session.set_cancel_token(None);
        let standalone = session.replay(&TestSuite::new()).unwrap();
        let shared = session.replay_on(&service, 0, &TestSuite::new()).unwrap();
        assert_eq!(standalone.explored, 6);
        assert_eq!(standalone.diff(&shared), None);
    }
}
