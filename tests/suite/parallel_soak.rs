//! Stress/soak test for the replay pool: a 10 000-interleaving synthetic
//! workload at 8 workers must complete without deadlock, without losing a
//! single run, and faster than the sequential scan.
//!
//! Ignored by default (it replays 20 000 interleavings of a deliberately
//! latency-heavy model); the nightly CI job runs it with
//! `cargo test --test suite -- parallel_soak:: --ignored`.

use std::collections::HashSet;
use std::time::Instant;

use er_pi::{ExploreMode, OpOutcome, Session, SystemModel, TestSuite};
use er_pi_model::{Event, EventKind, ReplicaId, Value, Workload};

const CAP: usize = 10_000;

/// An order-sensitive register whose `apply` waits out a small fixed
/// round-trip delay per event — the latency-bound profile of the paper's
/// real replay deployment (each event takes a distributed-lock hop). The
/// pool overlaps the waits, so parallel replay beats sequential replay
/// even on a single-core machine.
struct HeavyMachine;

impl SystemModel for HeavyMachine {
    type State = i64;

    fn replicas(&self) -> usize {
        2
    }

    fn init(&self, _replica: ReplicaId) -> i64 {
        0
    }

    fn apply(&self, states: &mut [i64], event: &Event) -> OpOutcome {
        // The wait never touches state, so replay stays deterministic.
        std::thread::sleep(std::time::Duration::from_micros(20));
        match &event.kind {
            EventKind::LocalUpdate { op } => {
                let v = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                states[event.replica.index()] = v;
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

/// Eight independent events across two replicas: 8! = 40 320 raw DFS
/// interleavings, well past the 10 000 cap.
fn soak_workload() -> Workload {
    let mut w = Workload::builder();
    for i in 0..8i64 {
        w.update(ReplicaId::new((i % 2) as u16), "set", [Value::from(i)]);
    }
    w.build()
}

fn replay(workers: usize) -> (er_pi::Report, std::time::Duration) {
    let mut session = Session::new(HeavyMachine);
    session.set_workload(soak_workload());
    session.set_mode(ExploreMode::Dfs);
    session.set_cap(CAP);
    session.set_keep_runs(true);
    session.set_workers(workers);
    let started = Instant::now();
    let report = session.replay(&TestSuite::new()).unwrap();
    (report, started.elapsed())
}

#[test]
#[ignore = "soak: replays 20k interleavings of a latency-heavy model (nightly CI)"]
fn soak_10k_interleavings_at_8_workers() {
    let (sequential, seq_wall) = replay(1);
    let (parallel, par_wall) = replay(8);

    // No deadlock is implied by reaching this point; no lost or duplicated
    // runs is checked structurally.
    assert_eq!(parallel.explored, CAP, "pool lost runs");
    assert_eq!(parallel.runs.len(), CAP);
    let unique: HashSet<u64> = parallel
        .runs
        .iter()
        .map(|r| r.interleaving.fingerprint())
        .collect();
    assert_eq!(unique.len(), CAP, "pool duplicated runs");

    // Byte-identical to the sequential scan.
    assert_eq!(sequential.diff(&parallel), None, "pooled report diverged");

    // And actually faster. The per-event waits overlap across workers, so
    // even a single-core machine clears this comfortably at 8 workers.
    assert!(
        par_wall < seq_wall,
        "no speedup: sequential {seq_wall:?} vs parallel {par_wall:?}"
    );
}
