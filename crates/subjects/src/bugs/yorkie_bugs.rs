//! The two Yorkie bugs of Table 1.

use er_pi::PruningConfig;
use er_pi_model::{ReplicaId, Value, Workload};
use er_pi_rdl::{DocOp, PathSegment};

use crate::{YorkieModel, YorkieState};

use super::{Bug, BugCtx, BugImpl, BugStatus, SubjectKind};

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

fn v(s: &str) -> Value {
    Value::from(s)
}

/// The visible items of the list `l`, read in place.
fn list(state: &YorkieState) -> Option<impl Iterator<Item = &Value> + Clone> {
    state.doc.view(&["l"])?.items()
}

/// `path.join(".") == joined`, without the join.
fn joins_to(path: &[PathSegment], joined: &str) -> bool {
    let mut rest = joined;
    for (i, segment) in path.iter().enumerate() {
        if i > 0 {
            let Some(after) = rest.strip_prefix('.') else {
                return false;
            };
            rest = after;
        }
        let Some(after) = rest.strip_prefix(&**segment) else {
            return false;
        };
        rest = after;
    }
    rest.is_empty()
}

/// Yorkie-1 (issue #676): *document doesn't converge when using
/// Array.MoveAfter.*
///
/// The application implements moves as delete + insert; two replicas moving
/// the same element concurrently duplicate it.
pub(super) fn yorkie_1() -> Bug {
    let mut w = Workload::builder();
    let mk = w.update(r(0), "new_array", [v("l")]);
    let _ = mk;
    for item in ["x", "y", "z"] {
        w.update(r(0), "push", [v("l"), v(item)]);
    }
    let base = w.update(r(0), "push", [v("l"), v("w")]);
    w.sync_pair(r(0), r(1), base);
    let title = w.update(r(1), "set", [v("meta.title"), v("board")]);
    w.sync_pair(r(1), r(0), title);
    let rev = w.update(r(0), "set", [v("meta.rev"), Value::from(1)]);
    // The racing moves: R0 moves "x" towards the tail, R1 moves "x" one
    // slot down. In the recorded run R1 moves only after seeing R0's move;
    // the synchronizations are untracked (periodic), so the replay is free
    // to interleave the second move before the first move's arrival.
    let _mv0 = w.update(r(0), "move_naive", [v("l"), Value::from(0), Value::from(2)]);
    w.sync_untracked(r(0), r(1));
    let _mv1 = w.update(r(1), "move_naive", [v("l"), Value::from(0), Value::from(1)]);
    w.sync_untracked(r(1), r(0));
    w.sync_untracked(r(0), r(1));
    // The session continues normally after the silent corruption.
    let extra = w.update(r(1), "push", [v("l"), v("u")]);
    w.sync_pair(r(1), r(0), extra);
    w.sync_untracked(r(0), r(1));
    let _ = rev;

    fn check(ctx: &BugCtx<'_, YorkieState>) -> Option<String> {
        if ctx.failed_ops != 0 {
            return None;
        }
        let l0 = list(&ctx.states[0])?;
        let l1 = list(&ctx.states[1])?;
        // Converged replicas whose list duplicates an element.
        if !l0.clone().eq(l1) {
            return None;
        }
        // The corrupted board of the issue report: a duplicated "x", one
        // copy at replica 1's move target (index 1), with the full session
        // content present.
        let is_x = |item: &Value| item.as_str() == Some("x");
        let dup = l0.clone().filter(|item| is_x(item)).count();
        if l0.clone().count() == 6 && dup == 2 && l0.clone().nth(1).is_some_and(is_x) {
            let l0: Vec<&Value> = l0.collect();
            return Some(format!(
                "Array.MoveAfter duplicated the moved element: {l0:?}"
            ));
        }
        None
    }

    Bug {
        name: "Yorkie-1",
        subject: SubjectKind::Yorkie,
        issue: 676,
        status: BugStatus::Open,
        reason: None,
        workload: w.build(),
        config: PruningConfig::default(),
        imp: BugImpl::Yorkie {
            model: YorkieModel::new(2),
            check,
        },
    }
}

/// Yorkie-2 (issue #663): *modify the set operation to handle nested object
/// values.*
///
/// A "refresh" that reads a nested object and sets it back wholesale drops
/// a concurrent sibling write on every replica — converged, but data is
/// silently lost.
pub(super) fn yorkie_2() -> Bug {
    let mut w = Workload::builder();
    let a = w.update(r(0), "set", [v("cfg.a"), Value::from(1)]);
    w.sync_split(r(0), r(1), Some(a));
    let b = w.update(r(1), "set", [v("cfg.b"), Value::from(2)]);
    w.sync_split(r(1), r(0), Some(b));
    let c = w.update(r(0), "set", [v("cfg.c"), Value::from(3)]);
    w.sync_split(r(0), r(1), Some(c));
    let title = w.update(r(1), "set", [v("doc.title"), v("settings")]);
    w.sync_split(r(1), r(0), Some(title));
    let d = w.update(r(1), "set", [v("cfg.d"), Value::from(4)]);
    w.sync_split(r(1), r(0), Some(d));
    // A local revision bump, then the refresh: R0 rewrites the whole cfg
    // object (reading its current view). Recorded after d's arrival, so
    // nothing is lost in the observed run.
    w.update(r(0), "set", [v("doc.rev"), Value::from(2)]);
    let refresh = w.update(r(0), "refresh_object", [v("cfg")]);
    w.sync_split(r(0), r(1), Some(refresh));
    let e = w.update(r(1), "set", [v("cfg.e"), Value::from(5)]);
    w.sync_split(r(1), r(0), Some(e));

    /// The visible keys of the object `cfg`, read in place.
    fn cfg_keys(state: &YorkieState) -> Option<impl Iterator<Item = &str> + Clone> {
        state.doc.view(&["cfg"])?.keys()
    }

    /// The primitive at `path`, read in place.
    fn prim<'a>(state: &'a YorkieState, path: &[&str]) -> Option<&'a Value> {
        state.doc.view(path)?.as_prim()
    }

    fn check(ctx: &BugCtx<'_, YorkieState>) -> Option<String> {
        if ctx.failed_ops != 0 {
            return None; // every sync round-tripped in the reported run
        }
        let states = ctx.states;
        let k0 = cfg_keys(&states[0])?;
        let k1 = cfg_keys(&states[1])?;
        // Converged replicas that silently lost the concurrent sibling d,
        // while the rest of the document round-tripped completely.
        if !k0.clone().eq(k1) {
            return None;
        }
        let expect_rest = ["a", "b", "c", "e"];
        if !expect_rest.iter().all(|k| k0.clone().any(|x| x == *k)) {
            return None;
        }
        if k0.clone().any(|x| x == "d") {
            return None;
        }
        // The unrelated subtree must have survived intact (the report's
        // confusing part: only the nested object misbehaves).
        let title_ok = states
            .iter()
            .all(|st| prim(st, &["doc", "title"]).and_then(Value::as_str) == Some("settings"));
        if !title_ok {
            return None;
        }
        // Fully converged documents — the loss is silent.
        if states[0].doc.root_view() != states[1].doc.root_view() {
            return None;
        }
        // The rest of the session round-tripped: the revision bump reached
        // both replicas.
        let rev_ok = states
            .iter()
            .all(|st| prim(st, &["doc", "rev"]) == Some(&Value::Int(2)));
        if !rev_ok {
            return None;
        }
        // The race's signature in the replicas' operation logs (what the
        // reporter reconstructed from their sync traces): everything
        // applied in session order, except that R0 received d only after
        // its own refresh. An op reads as its joined path, "set:" and the
        // path for a whole-object set, "?" for anything else.
        let logged = |op: &DocOp, expected: &str| match op {
            DocOp::SetPrim { path, .. } => joins_to(path, expected),
            DocOp::SetObject { path, .. } => expected
                .strip_prefix("set:")
                .is_some_and(|rest| joins_to(path, rest)),
            _ => expected == "?",
        };
        let log_is = |st: &YorkieState, expected: &[&str]| {
            st.doc.ops().count() == expected.len()
                && st.doc.ops().zip(expected).all(|(op, e)| logged(op, e))
        };
        let r0_expected = [
            "cfg.a",
            "cfg.b",
            "cfg.c",
            "doc.title",
            "doc.rev",
            "set:cfg",
            "cfg.d",
            "cfg.e",
        ];
        let r1_expected = [
            "cfg.a",
            "cfg.b",
            "cfg.c",
            "doc.title",
            "cfg.d",
            "doc.rev",
            "set:cfg",
            "cfg.e",
        ];
        if !log_is(&states[0], &r0_expected) || !log_is(&states[1], &r1_expected) {
            return None;
        }
        let k0: Vec<&str> = k0.collect();
        Some(format!(
            "set over nested object dropped sibling key d: {k0:?}"
        ))
    }

    Bug {
        name: "Yorkie-2",
        subject: SubjectKind::Yorkie,
        issue: 663,
        status: BugStatus::Closed,
        reason: Some("misconception"),
        workload: w.build(),
        config: PruningConfig::default(),
        imp: BugImpl::Yorkie {
            model: YorkieModel::new(2),
            check,
        },
    }
}
