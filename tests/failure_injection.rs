//! Failure injection as fault-plan campaigns: reordered, lost, partitioned,
//! duplicated and crash-interrupted deliveries, scheduled as [`FaultPlan`]s
//! and replayed through the engine's own fault path (the replay cursor
//! stepping `FaultInterpreter`, which calls `SystemModel::recover` on a
//! crash) over the crdts subject's OR-set and RGA.
//!
//! Each row is a crdts workload plus a fault schedule. [`report_for`]
//! replays the fault-free plan beside the faulted one over every causal
//! interleaving, so a row proves something either way:
//!
//! * a row that converges ends in an anti-entropy chain (`chain_from`) and
//!   replays with no violation;
//! * a row that diverges violates, and every violating run carries the
//!   fault schedule, so the fault-free plan of the same case is clean.
//!
//! Convergence under *any* delivery order of the same operations is
//! `er-pi-rdl`'s `convergence.rs` (`orset_delivery_order_independent`,
//! `rga_delivery_order_independent`) and the fuzzer's crdts target
//! (`tests/suite/fuzz_corpus.rs`). That a run never sees the damage a run before
//! it left behind, whatever was cached, moved out or unwound, is
//! `incremental_props.rs::no_hint_can_change_an_execution`.
//!
//! [`FaultPlan`]: er_pi_model::FaultPlan

use er_pi::{ReplayConfig, Report};
use er_pi_fuzz::{report_for, FuzzCase, SpecEntry, SpecFault, Target, WorkloadSpec, ORACLE_CAP};
use er_pi_model::{FaultKind, ReplicaId};

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

fn op(replica: u16, function: &str, arg: i64) -> SpecEntry {
    SpecEntry::Op {
        replica,
        function: function.into(),
        args: vec![arg],
    }
}

fn ship(from: u16, to: u16, of: Option<usize>) -> SpecEntry {
    SpecEntry::SyncPair { from, to, of }
}

/// Three replicas gossip: `function(i + 1)` at replica `i`, each shipped to
/// the next replica (entries 0–5), then the anti-entropy chain
/// r0→r1→r2→r1→r0 (entries 6–9).
fn gossip(function: &str) -> WorkloadSpec {
    let mut entries = Vec::new();
    for i in 0..3 {
        entries.push(op(i, function, i64::from(i) + 1));
        entries.push(ship(i, (i + 1) % 3, Some(entries.len() - 1)));
    }
    for (from, to) in [(0, 1), (1, 2), (2, 1), (1, 0)] {
        entries.push(ship(from, to, None));
    }
    WorkloadSpec {
        replicas: 3,
        entries,
        chain_from: Some(6),
    }
}

/// Two replicas each add one element and ship it to the other (add,
/// ship 0→1, add, ship 1→0), with no anti-entropy chain after.
fn cross_ship() -> WorkloadSpec {
    WorkloadSpec {
        replicas: 2,
        entries: vec![
            op(0, "set_add", 1),
            ship(0, 1, Some(0)),
            op(1, "set_add", 2),
            ship(1, 0, Some(2)),
        ],
        chain_from: None,
    }
}

/// One fault-plan campaign: `faults` (spec index of the anchor, kind) over
/// `spec`, and what its report must show — `explored` runs over both plans
/// and `violations` violating runs.
struct Row {
    what: &'static str,
    spec: WorkloadSpec,
    faults: Vec<(usize, FaultKind)>,
    explored: usize,
    violations: usize,
}

fn case(spec: &WorkloadSpec, faults: &[(usize, FaultKind)]) -> FuzzCase {
    FuzzCase {
        target: Target::Crdts,
        spec: spec.clone(),
        faults: faults
            .iter()
            .map(|&(anchor, kind)| SpecFault { anchor, kind })
            .collect(),
    }
}

/// `case` replayed on one worker, every run's final observations kept.
fn campaign(case: &FuzzCase, incremental: bool) -> Report {
    report_for(
        case,
        &ReplayConfig {
            cap: ORACLE_CAP,
            workers: 1,
            incremental,
            keep_runs: true,
            ..ReplayConfig::default()
        },
    )
}

/// Replays each row and checks its counts; every violation must carry a
/// non-empty fault schedule.
fn check(rows: &[Row]) {
    for row in rows {
        let report = campaign(&case(&row.spec, &row.faults), true);
        let what = row.what;
        assert_eq!(report.explored, row.explored, "{what}: runs");
        assert_eq!(
            report.violations.len(),
            row.violations,
            "{what}: violations"
        );
        for violation in &report.violations {
            let il = violation.interleaving.as_ref().expect("per-run violation");
            assert!(
                !il.faults().is_empty(),
                "{what}: a fault-free run violated: {violation:?}"
            );
        }
    }
}

#[test]
fn orset_converges_under_reordered_delivery() {
    check(&[Row {
        what: "reorder",
        spec: gossip("set_add"),
        faults: vec![
            (1, FaultKind::Delay { by: 2 }),
            (3, FaultKind::Delay { by: 1 }),
        ],
        explored: 12,
        violations: 0,
    }]);
}

/// A lost message is made good by a later sync; without one, the replicas
/// stay apart in exactly the runs under the drop.
#[test]
fn lossy_network_delays_but_does_not_corrupt() {
    check(&[
        Row {
            what: "loss, retransmitted",
            spec: gossip("set_add"),
            faults: vec![(1, FaultKind::Drop)],
            explored: 12,
            violations: 0,
        },
        Row {
            what: "loss of 0→1, no retransmit",
            spec: cross_ship(),
            faults: vec![(1, FaultKind::Drop)],
            explored: 4,
            violations: 2,
        },
        Row {
            what: "loss of 1→0, no retransmit",
            spec: cross_ship(),
            faults: vec![(3, FaultKind::Drop)],
            explored: 4,
            violations: 2,
        },
    ]);
}

/// A partition that heals before the anti-entropy chain converges; one that
/// never heals diverges in every run under it.
#[test]
fn partition_heals_into_convergence() {
    let partition = (
        0,
        FaultKind::Partition {
            from: r(0),
            to: r(1),
        },
    );
    check(&[
        Row {
            what: "partition, healed",
            spec: gossip("set_add"),
            faults: vec![
                partition,
                (
                    6,
                    FaultKind::Heal {
                        from: r(0),
                        to: r(1),
                    },
                ),
            ],
            explored: 12,
            violations: 0,
        },
        Row {
            what: "partition, never healed",
            spec: gossip("set_add"),
            faults: vec![partition],
            explored: 12,
            violations: 6,
        },
    ]);
}

/// A duplicated delivery is absorbed: CRDT merges are idempotent. The
/// ledger subject, whose sync is not, is
/// `fault_equivalence.rs::fault_space_finds_what_no_fault_free_interleaving_can`.
#[test]
fn scheduled_duplicate_delivery_through_the_cluster() {
    check(&[Row {
        what: "duplicate",
        spec: gossip("set_add"),
        faults: vec![(1, FaultKind::Duplicate)],
        explored: 12,
        violations: 0,
    }]);
}

/// A replica restarted mid-gossip still converges. That it recovers the
/// state it held, phase by phase, is the recovery-parity table of
/// `fault_equivalence.rs`.
#[test]
fn crash_restart_recovers_observably_equal_state_from_the_log() {
    check(&[Row {
        what: "crash",
        spec: gossip("set_add"),
        faults: vec![(3, FaultKind::CrashRestart { replica: r(1) })],
        explored: 12,
        violations: 0,
    }]);
}

#[test]
fn rga_survives_duplicated_and_reordered_ops() {
    check(&[Row {
        what: "rga",
        spec: gossip("list_push"),
        faults: vec![(1, FaultKind::Duplicate), (3, FaultKind::Delay { by: 2 })],
        explored: 12,
        violations: 0,
    }]);
}

/// A delivery still in flight when a run ends, a duplicate and a crash
/// leave nothing behind for the next run: replayed from cached prefixes,
/// the campaign reports what scratch replay does, final observations
/// included. The ring has no anti-entropy chain, so a delivery the cursor
/// forgot on resuming shows in the states a run ends in.
#[test]
fn checkpoint_reset_discards_in_flight_damage() {
    let mut ring = gossip("list_push");
    ring.entries.truncate(6);
    ring.chain_from = None;
    let chaos = case(
        &ring,
        &[
            (1, FaultKind::Delay { by: 9 }),
            (3, FaultKind::Duplicate),
            (4, FaultKind::CrashRestart { replica: r(2) }),
        ],
    );
    let scratch = campaign(&chaos, false);
    let incremental = campaign(&chaos, true);
    assert_eq!(scratch.diff(&incremental), None);
    let stats = incremental.cache_stats.expect("incremental replay counts");
    assert!(stats.events_saved > 0, "no run resumed from a prefix");
}
