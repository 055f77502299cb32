//! The five OrbitDB bugs of Table 1.

use er_pi::PruningConfig;
use er_pi_model::{EventId, ReplicaId, Value, Workload};
use er_pi_rdl::LogSortOrder;

use crate::{OrbitConfig, OrbitModel, OrbitState};

use super::{Bug, BugCtx, BugImpl, BugStatus, SubjectKind};

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

fn v(s: &str) -> Value {
    Value::from(s)
}

/// Whether `state`'s log received exactly the string payloads `expected`,
/// in that order.
fn arrived(state: &OrbitState, expected: &[&str]) -> bool {
    state.log.len() == expected.len()
        && state
            .log
            .arrival()
            .zip(expected)
            .all(|(payload, s)| payload.as_str() == Some(s))
}

/// OrbitDB-1 (issue #513): *ordering tie-breaker can cause undefined
/// ordering with the same identity.*
///
/// Two writers share an identity; with a clock-only sort, equal Lamport
/// clocks fall back to insertion order, which differs between replicas.
pub(super) fn orbitdb_1() -> Bug {
    let mut w = Workload::builder();
    let a0 = w.update(r(0), "append", [v("a0")]);
    w.sync_split(r(0), r(1), Some(a0));
    // Both writers reset their (wall-clock seeded) Lamport clocks — the
    // scenario of the issue: identical clocks AND identical identities.
    w.update(r(0), "poison_clock", [Value::from(10)]);
    let a1 = w.update(r(0), "append", [v("a1")]);
    w.sync_split(r(0), r(1), Some(a1));
    w.update(r(1), "poison_clock", [Value::from(10)]);
    let b1 = w.update(r(1), "append", [v("b1")]);
    w.sync_split(r(1), r(0), Some(b1));
    w.update(r(1), "audit", [Value::Null; 0]);

    fn check(ctx: &BugCtx<'_, OrbitState>) -> Option<String> {
        if ctx.failed_ops != 0 {
            return None;
        }
        let (l0, l1) = (&ctx.states[0].log, &ctx.states[1].log);
        if l0.len() != 3 || l1.len() != 3 {
            return None;
        }
        // The symptom shows each payload's display; two payloads are equal
        // exactly when their displays are.
        let (p0, p1) = (l0.values(), l1.values());
        if p0 == p1 {
            return None;
        }
        let shown = |payloads: Vec<&Value>| -> Vec<String> {
            payloads.iter().map(ToString::to_string).collect()
        };
        let (p0, p1) = (shown(p0), shown(p1));
        Some(format!(
            "same-identity tie left replicas with different orders: {p0:?} vs {p1:?}"
        ))
    }

    Bug {
        name: "OrbitDB-1",
        subject: SubjectKind::OrbitDb,
        issue: 513,
        status: BugStatus::Open,
        reason: None,
        workload: w.build(),
        config: PruningConfig::default(),
        imp: BugImpl::Orbit {
            model: OrbitModel::with_config(
                2,
                OrbitConfig {
                    sort: LogSortOrder::ClockOnly,
                    identities: vec!["same".into(), "same".into()],
                    ..OrbitConfig::default()
                },
            ),
            check,
        },
    }
}

/// OrbitDB-2 (issue #512): *Lamport clock can be set far into the future
/// making db progress halt.*
///
/// An interleaving that poisons the clock before a sync ships a
/// far-future entry, which every peer rejects from then on.
pub(super) fn orbitdb_2() -> Bug {
    let mut w = Workload::builder();
    let a0 = w.update(r(0), "append", [v("x")]);
    w.sync_split(r(0), r(1), Some(a0));
    let b0 = w.update(r(1), "append", [v("y")]);
    w.sync_split(r(1), r(0), Some(b0));
    w.update(r(0), "poison_clock", [Value::from(1_000_000_000i64)]);
    w.update(r(0), "append", [v("poisoned")]);

    fn check(ctx: &BugCtx<'_, OrbitState>) -> Option<String> {
        if ctx.failed_ops != 0 {
            return None;
        }
        // The report's shape: replication otherwise completed in order —
        // R0 holds x, y, and its poisoned entry; R1 holds y and x — but R1
        // rejected exactly the far-future entry and halts on it.
        let (r0, r1) = (&ctx.states[0], &ctx.states[1]);
        if r1.log.rejected_count() != 1 {
            return None;
        }
        if arrived(r0, &["x", "y", "poisoned"]) && arrived(r1, &["y", "x"]) {
            return Some("peer halts on far-future Lamport clock".into());
        }
        None
    }

    Bug {
        name: "OrbitDB-2",
        subject: SubjectKind::OrbitDb,
        issue: 512,
        status: BugStatus::Open,
        reason: None,
        workload: w.build(),
        config: PruningConfig::default(),
        imp: BugImpl::Orbit {
            model: OrbitModel::with_config(
                2,
                OrbitConfig {
                    max_clock_skew: Some(1_000),
                    ..OrbitConfig::default()
                },
            ),
            check,
        },
    }
}

/// OrbitDB-3 (issue #1153): *could not append entry although write access
/// is granted.*
///
/// The access controller is cached; an interleaving that takes the cache
/// snapshot between a revoke and the re-grant denies a legitimately granted
/// writer.
pub(super) fn orbitdb_3() -> Bug {
    let mut w = Workload::builder();
    let a0 = w.update(r(0), "append", [v("a0")]);
    w.sync_split(r(0), r(1), Some(a0));
    let b0 = w.update(r(1), "append", [v("b0")]);
    w.sync_split(r(1), r(0), Some(b0));
    w.update(r(0), "revoke", [v("w")]);
    w.update(r(0), "grant", [v("w")]);
    w.update(r(0), "cache_access", [Value::Null; 0]);
    let a1 = w.update(r(0), "append", [v("a1")]);
    w.sync_split(r(0), r(1), Some(a1));
    let b1 = w.update(r(1), "append", [v("b1")]);
    w.sync_split(r(1), r(0), Some(b1));

    fn check(ctx: &BugCtx<'_, OrbitState>) -> Option<String> {
        // The denied append is the run's only failure; everything else
        // worked in order — the report's confusing symptom.
        if ctx.failed_ops != 1 {
            return None;
        }
        if ctx.states[0].rejected_appends != 1 {
            return None;
        }
        let expected = ["a0", "b0", "b1"];
        if arrived(&ctx.states[0], &expected) && arrived(&ctx.states[1], &expected) {
            return Some("granted writer denied by the stale access cache".into());
        }
        None
    }

    Bug {
        name: "OrbitDB-3",
        subject: SubjectKind::OrbitDb,
        issue: 1153,
        status: BugStatus::Closed,
        reason: Some("misuse"),
        workload: w.build(),
        config: PruningConfig::default(),
        imp: BugImpl::Orbit {
            model: OrbitModel::with_config(
                2,
                OrbitConfig {
                    identities: vec!["w".into(), "w".into()],
                    ..OrbitConfig::default()
                },
            ),
            check,
        },
    }
}

/// OrbitDB-4 (issue #583): *head hash didn't match the contents.*
///
/// Heads-only replication: a head can arrive whose ancestors are fetched
/// separately. If the fetch races ahead of the head's arrival, the missing
/// parents are never resolved and the DAG stays broken.
pub(super) fn orbitdb_4() -> Bug {
    let mut w = Workload::builder();
    // R0 builds a chain and ships it to R2.
    let a1 = w.update(r(0), "append", [v("a1")]);
    let a2 = w.update(r(0), "append", [v("a2")]);
    let (s02, _x) = w.sync_split(r(0), r(2), Some(a2));
    // R2 extends the chain and announces its head to R1.
    let c1 = w.update(r(2), "append", [v("c1")]);
    let c2 = w.update(r(2), "append", [v("c2")]);
    let (s21, x21) = w.sync_split(r(2), r(1), Some(c2));
    let fetch2 = w.update(r(1), "fetch", [Value::from(2)]);
    // R0 continues; R1 receives and heals R0-authored ancestors.
    let a3 = w.update(r(0), "append", [v("a3")]);
    let (s01, _x01) = w.sync_split(r(0), r(1), Some(a3));
    w.update(r(1), "fetch", [Value::from(0)]);
    // R2 continues; R1 receives one more head.
    let c3 = w.update(r(2), "append", [v("c3")]);
    let (s21b, _x21b) = w.sync_split(r(2), r(1), Some(c3));
    w.update(r(1), "fetch", [Value::from(0)]);
    w.update(r(1), "audit", [Value::Null; 0]);

    fn check(ctx: &BugCtx<'_, OrbitState>) -> Option<String> {
        if ctx.failed_ops != 0 {
            return None; // the reported run had no visible errors
        }
        let st = &ctx.states[1];
        // The narrow symptom from the issue: R1 received every announced
        // head IN ORDER and healed every R0-authored ancestor, yet one
        // R2-authored parent is missing forever — verify fails on exactly
        // that hash.
        let r1_expected = ["c2", "a3", "a2", "a1", "c3"];
        // Heads-only sync: R2 received only R0's head (a2); a1 stays
        // dangling at R2 (it never fetches), which is normal operation.
        let r2_expected = ["a2", "c1", "c2", "c3"];
        if arrived(st, &r1_expected)
            && arrived(&ctx.states[2], &r2_expected)
            && !st.log.verify()
            && st.log.dangling_refs().len() == 1
        {
            return Some(format!(
                "head hash didn't match: dangling parent {:?}",
                st.log.dangling_refs()
            ));
        }
        None
    }

    let config = PruningConfig::default()
        .with_group(vec![a1, a2, s02])
        .with_group(vec![c1, c2, s21])
        .with_group(vec![a3, s01])
        .with_group(vec![c3, s21b]);
    let _ = (x21, fetch2);

    Bug {
        name: "OrbitDB-4",
        subject: SubjectKind::OrbitDb,
        issue: 583,
        status: BugStatus::Closed,
        reason: Some("misconception"),
        workload: w.build(),
        config,
        imp: BugImpl::Orbit {
            model: OrbitModel::with_config(
                3,
                OrbitConfig {
                    heads_only_sync: true,
                    ..OrbitConfig::default()
                },
            ),
            check,
        },
    }
}

/// OrbitDB-5 (issue #557): *repo folder keeps getting locked.*
///
/// Closing the database while a synchronization is still in flight leaves
/// the repo lock behind; every later open fails. The largest workload of
/// the catalogue (24 events) — the scalability subject of Figure 10.
pub(super) fn orbitdb_5() -> Bug {
    let mut w = Workload::builder();
    let mut groups: Vec<Vec<EventId>> = Vec::new();
    w.update(r(1), "open_repo", [Value::Null; 0]);
    // Two rounds from writer R0.
    for p in ["a1", "a2"] {
        let a = w.update(r(0), "append", [v(p)]);
        let (s, _x) = w.sync_split(r(0), r(1), Some(a));
        groups.push(vec![a, s]);
    }
    // One round from writer R2 — the still-unflushed sync of the defect.
    let c1 = w.update(r(2), "append", [v("c1")]);
    let (s2, _x2) = w.sync_split(r(2), r(1), Some(c1));
    groups.push(vec![c1, s2]);
    w.update(r(1), "flush", [Value::Null; 0]);
    w.update(r(1), "close_repo", [Value::Null; 0]);
    w.update(r(1), "open_repo", [Value::Null; 0]);
    // Three more rounds from R0 after the reopen.
    for p in ["a3", "a4", "a5"] {
        let a = w.update(r(0), "append", [v(p)]);
        let (s, _x) = w.sync_split(r(0), r(1), Some(a));
        groups.push(vec![a, s]);
    }
    w.update(r(1), "flush", [Value::Null; 0]);
    w.update(r(1), "close_repo", [Value::Null; 0]);

    fn check(ctx: &BugCtx<'_, OrbitState>) -> Option<String> {
        let st = &ctx.states[1];
        // Symptom: the reopen and the final close both failed on the stuck
        // lock (exactly two failures), although replication itself
        // completed in order — the log holds all six payloads as sent.
        if ctx.failed_ops != 2 || !st.lock_stuck || st.failed_opens != 1 {
            return None;
        }
        if !arrived(st, &["a1", "a2", "c1", "a3", "a4", "a5"]) || st.busy {
            return None;
        }
        Some("repo folder lock left behind by a close racing an unflushed sync".into())
    }

    let mut config = PruningConfig::default();
    for g in groups {
        config = config.with_group(g);
    }

    Bug {
        name: "OrbitDB-5",
        subject: SubjectKind::OrbitDb,
        issue: 557,
        status: BugStatus::Closed,
        reason: Some("misconception"),
        workload: w.build(),
        config,
        imp: BugImpl::Orbit {
            model: OrbitModel::new(3),
            check,
        },
    }
}
