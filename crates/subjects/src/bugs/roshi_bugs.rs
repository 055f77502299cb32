//! The three Roshi bugs of Table 1.

use er_pi::PruningConfig;
use er_pi_model::{ReplicaId, Value, Workload};
use er_pi_rdl::TieBreak;

use crate::{RoshiModel, RoshiState};

use super::{Bug, BugCtx, BugImpl, BugStatus, SubjectKind};

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

fn v(s: &str) -> Value {
    Value::from(s)
}

/// Roshi-1 (issue #18): *incorrect `deleted` field in response.*
///
/// The application reads the `deleted` flag and trusts it to reflect the
/// converged state; interleavings where the read lands between a delete's
/// synchronization and a newer insert's synchronization surface a stale
/// `deleted = true` for an element that is actually present.
pub(super) fn roshi_1() -> Bug {
    let mut w = Workload::builder();
    let ins1 = w.update(r(0), "insert", [v("k"), v("m"), Value::from(10)]);
    w.sync_pair(r(0), r(1), ins1);
    let del = w.update(r(1), "delete", [v("k"), v("m"), Value::from(20)]);
    w.sync_pair(r(1), r(0), del);
    let ins2 = w.update(r(0), "insert", [v("k"), v("m"), Value::from(30)]);
    w.sync_pair(r(0), r(1), ins2);
    w.update(r(1), "read_deleted", [v("k"), v("m")]);
    w.update(r(0), "read_deleted", [v("k"), v("m")]);
    w.update(r(1), "select", [v("k")]);

    fn check(ctx: &BugCtx<'_, RoshiState>) -> Option<String> {
        if ctx.failed_ops != 0 {
            return None; // the reported run looked healthy
        }
        let (r0, r1) = (&ctx.states[0], &ctx.states[1]);
        // The report's shape: the stores converged on "present", the
        // writer's own read agreed — yet the reader replica's response
        // said deleted=true.
        let converged = r0.store.is_deleted("k", "m") == Some(false)
            && r1.store.is_deleted("k", "m") == Some(false);
        let page_ok = r1
            .last_select
            .as_ref()
            .is_some_and(|page| page.len() == 1 && &*page[0].member == "m");
        if converged && page_ok && r0.last_deleted == Some(false) && r1.last_deleted == Some(true) {
            return Some("reader replica served deleted=true for a present element".into());
        }
        None
    }

    Bug {
        name: "Roshi-1",
        subject: SubjectKind::Roshi,
        issue: 18,
        status: BugStatus::Closed,
        reason: Some("misconception"),
        workload: w.build(),
        config: PruningConfig::default(),
        imp: BugImpl::Roshi {
            model: RoshiModel::new(2),
            check,
        },
    }
}

/// Roshi-2 (issue #11): *CRDT semantics violated if same timestamp.*
///
/// With an order-dependent tie-break, an insert and a delete carrying the
/// same score resolve differently depending on arrival order — replicas
/// diverge permanently.
pub(super) fn roshi_2() -> Bug {
    let mut w = Workload::builder();
    let ins = w.update(r(0), "insert", [v("k"), v("m"), Value::from(50)]);
    let (send1, _x1) = w.sync_split(r(0), r(1), Some(ins));
    let del = w.update(r(1), "delete", [v("k"), v("m"), Value::from(50)]);
    w.sync_split(r(1), r(0), Some(del));
    let ins2 = w.update(r(0), "insert", [v("k"), v("m2"), Value::from(60)]);
    w.sync_split(r(0), r(1), Some(ins2));
    w.update(r(1), "select", [v("k")]);

    fn check(ctx: &BugCtx<'_, RoshiState>) -> Option<String> {
        if ctx.failed_ops != 0 {
            return None;
        }
        let a = ctx.states[0].store.is_deleted("k", "m");
        let b = ctx.states[1].store.is_deleted("k", "m");
        if a.is_some() && b.is_some() && a != b {
            return Some(format!(
                "replicas diverge on the tied element: R0 sees deleted={a:?}, R1 sees {b:?}"
            ));
        }
        None
    }

    Bug {
        name: "Roshi-2",
        subject: SubjectKind::Roshi,
        issue: 11,
        status: BugStatus::Closed,
        reason: Some("RDL issue"),
        workload: w.build(),
        // The first insert and its outbound sync form one logical write.
        config: PruningConfig::default().with_group(vec![ins, send1]),
        imp: BugImpl::Roshi {
            model: RoshiModel::with_tie(2, TieBreak::LastApplied),
            check,
        },
    }
}

/// Roshi-3 (issue #40): *roshi-server select and map order.*
///
/// The server assembles its API response by iterating a Go map, leaking the
/// local arrival order into the response. The bug needs a deep interleaving:
/// an entire insert+sync block from one writer overtaking another writer's
/// block, while the response assembly still observes a complete store.
pub(super) fn roshi_3() -> Bug {
    let mut w = Workload::builder();
    let mut groups: Vec<Vec<er_pi_model::EventId>> = Vec::new();
    // Writer R0 inserts m1..m3; writer R2 inserts m4..m6. Every insert is
    // shipped to the read replica R1 through a split sync.
    for (writer, members) in [(r(0), ["m1", "m2", "m3"]), (r(2), ["m4", "m5", "m6"])] {
        for (i, member) in members.iter().enumerate() {
            let score = Value::from(((writer.index() * 3 + i + 1) * 10) as i64);
            let ins = w.update(writer, "insert", [v("k"), v(member), score]);
            let (send, _exec) = w.sync_split(writer, r(1), Some(ins));
            groups.push(vec![ins, send]);
        }
    }
    w.update(r(1), "delete", [v("k"), v("m1"), Value::from(100)]);
    w.update(r(1), "assemble", [v("k")]);
    w.update(r(1), "select", [v("k")]);

    fn check(ctx: &BugCtx<'_, RoshiState>) -> Option<String> {
        if ctx.failed_ops != 0 {
            return None; // the reporter's run had no errors
        }
        let st = &ctx.states[1];
        // Completeness: every member arrived, m1 is tombstoned, and the
        // response was assembled over the complete store.
        if st.store.is_deleted("k", "m1") != Some(true) {
            return None;
        }
        let assembled = st.assembled.as_ref()?;
        let page = st.last_select.as_ref()?;
        if page.len() != 5 {
            return None;
        }
        // The leak, exactly as in the issue report: the response shows
        // writer R2's first member squeezed between writer R0's m3 and m2
        // — an order no client ever submitted.
        if assembled
            .iter()
            .map(|m| &**m)
            .eq(["m3", "m4", "m2", "m5", "m6"])
        {
            return Some(format!(
                "assembled response leaks arrival order: {assembled:?}"
            ));
        }
        None
    }

    let mut config = PruningConfig::default();
    for g in groups {
        config = config.with_group(g);
    }

    Bug {
        name: "Roshi-3",
        subject: SubjectKind::Roshi,
        issue: 40,
        status: BugStatus::Closed,
        reason: Some("misconception"),
        workload: w.build(),
        config,
        imp: BugImpl::Roshi {
            model: RoshiModel::new(3),
            check,
        },
    }
}
