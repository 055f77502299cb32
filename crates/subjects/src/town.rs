//! The paper's motivating example (§2.3): the town issue-reporting app.

use std::sync::Arc;

use crate::sender_and_receiver;
use er_pi::{OpOutcome, SystemModel};
use er_pi_model::{CanonicalEncode, Event, EventKind, ReplicaId, Value};
use er_pi_rdl::{DeltaSync, OrSet, Shared};

/// One resident's replica: the replicated set of reported issues plus the
/// (local, non-replicated) record of what was transmitted to the
/// municipality.
#[derive(Debug)]
pub struct TownReplica {
    /// Replicated set of open issues, each the handle of the argument that
    /// added it.
    pub issues: OrSet<Arc<str>>,
    /// What this resident transmitted, if they did: a [`Value::List`] of
    /// issue strings, the one list the transmit's outcome observed. Behind
    /// a reference count, like everything else a copy of the replica would
    /// otherwise duplicate.
    pub transmitted: Option<Arc<Value>>,
}

impl TownReplica {
    /// The issues this resident transmitted, in the order sent (none if it
    /// did not transmit).
    pub fn transmitted_issues(&self) -> impl Iterator<Item = &str> {
        let items = self.transmitted.as_deref().and_then(Value::as_list);
        items.unwrap_or_default().iter().filter_map(Value::as_str)
    }
}

impl Clone for TownReplica {
    fn clone(&self) -> Self {
        let TownReplica {
            issues,
            transmitted,
        } = self;
        TownReplica {
            issues: issues.clone(),
            transmitted: transmitted.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let TownReplica {
            issues,
            transmitted,
        } = source;
        self.issues.clone_from(issues);
        self.transmitted.clone_from(transmitted);
    }
}

/// [`TownApp`]'s per-replica state: a [`TownReplica`] behind a copy-on-write
/// cell, so a snapshot of the town is one pointer bump per resident.
pub type TownState = Shared<TownReplica>;

/// The town issue-reporting application.
///
/// Residents `add`/`remove` issues in a replicated OR-set; `transmit` sends
/// the *currently visible* set to the municipality. The integration defect:
/// nothing forces the transmission to happen after the last synchronization,
/// so some interleavings transmit stale issues (the paper's
/// `Interleaving₂`).
///
/// ```
/// use er_pi::{Session, TestSuite};
/// use er_pi_model::{ReplicaId, Value};
/// use er_pi_subjects::TownApp;
///
/// let mut session = Session::new(TownApp::new(2));
/// let a = ReplicaId::new(0);
/// let b = ReplicaId::new(1);
/// session.record(|sys| {
///     let ev1 = sys.invoke(a, "add", [Value::from("otb")]);
///     sys.sync(a, b, ev1);
///     let ev2 = sys.invoke(b, "add", [Value::from("ph")]);
///     sys.sync(b, a, ev2);
///     let ev3 = sys.invoke(b, "remove", [Value::from("otb")]);
///     sys.sync(b, a, ev3);
///     sys.external(a, "transmit");
/// });
/// let report = session.replay(&TownApp::invariant()).unwrap();
/// assert_eq!(report.explored, 24);
/// assert!(!report.passed());
/// ```
#[derive(Debug, Clone)]
pub struct TownApp {
    replicas: usize,
}

impl TownApp {
    /// Creates the app with `replicas` residents.
    pub fn new(replicas: usize) -> Self {
        TownApp { replicas }
    }

    /// The motivating example's invariant: a transmitted issue set must not
    /// contain an issue whose removal the transmitting replica *could* have
    /// synchronized — concretely, the overturned trash bin must not reach
    /// the municipality.
    pub fn invariant() -> er_pi::TestSuite<TownState> {
        er_pi::TestSuite::new().with_assertion(
            "no-stale-issue-transmitted",
            |ctx: &er_pi::CheckContext<'_, TownState>| {
                for (replica, state) in ctx.states.iter().enumerate() {
                    if state.transmitted_issues().any(|i| i == "otb") {
                        return Err(format!(
                            "replica {replica} transmitted the already-fixed issue \"otb\""
                        ));
                    }
                }
                Ok(())
            },
        )
    }
}

impl Default for TownApp {
    fn default() -> Self {
        Self::new(2)
    }
}

impl SystemModel for TownApp {
    type State = TownState;

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn init(&self, replica: ReplicaId) -> TownState {
        Shared::new(TownReplica {
            issues: OrSet::new(replica),
            transmitted: None,
        })
    }

    fn apply(&self, states: &mut [TownState], event: &Event) -> OpOutcome {
        let at = event.replica.index();
        match &event.kind {
            EventKind::LocalUpdate { op } => {
                let shared = op.arg(0).and_then(Value::as_shared_str);
                let arg = shared.map_or("", |s| &**s);
                match op.function() {
                    "add" => {
                        let issue = shared.map_or_else(|| Arc::from(""), Arc::clone);
                        states[at].issues.insert(issue);
                        OpOutcome::Applied
                    }
                    // Asked through `&self` first: a remove that fails writes
                    // nothing, so it must not un-share the replica either.
                    "remove" if !states[at].issues.contains(arg) => {
                        OpOutcome::failed("remove of unseen issue")
                    }
                    "remove" => {
                        states[at].issues.remove(arg);
                        OpOutcome::Applied
                    }
                    other => OpOutcome::failed(format!("unknown town op {other}")),
                }
            }
            EventKind::Sync { to, .. } => {
                if let Some((from, to)) = sender_and_receiver(states, at, to.index()) {
                    to.issues.sync_from(&from.issues);
                }
                OpOutcome::Applied
            }
            EventKind::External { label } if label == "transmit" => {
                let issues: Value = states[at].issues.iter().map(Value::from).collect();
                let issues = Arc::new(issues);
                states[at].transmitted = Some(Arc::clone(&issues));
                OpOutcome::Observed(issues)
            }
            _ => OpOutcome::failed("unsupported event kind for TownApp"),
        }
    }

    fn observe(&self, state: &TownState) -> Value {
        let issues: Value = state.issues.iter().map(Value::from).collect();
        let transmitted = state.transmitted.as_deref().cloned().unwrap_or(Value::Null);
        Value::List(vec![issues, transmitted])
    }

    fn state_encode(&self, state: &TownState, out: &mut Vec<u8>) -> bool {
        // Faithful encoding for subsumption: the OR-set's canonical form
        // covers entries + add-tags, tombstones, the op log, and the dot
        // context — everything a future add/remove/sync can observe — and
        // `transmitted` is the only other field `apply` reads or writes.
        state.issues.encode_canonical(out);
        // Encoded as an optional list of strings, not as the `Value` that
        // holds it: these bytes are pinned (`state_bytes.rs`).
        match state.transmitted {
            None => out.push(0),
            Some(_) => {
                out.push(1);
                (state.transmitted_issues().count() as u64).encode_canonical(out);
                for issue in state.transmitted_issues() {
                    issue.encode_canonical(out);
                }
            }
        }
        true
    }

    fn replica_digest(&self, state: &TownState) -> Option<u128> {
        Shared::digest_with(state, || er_pi::encoding_digest(self, state))
    }

    fn state_size_hint(&self, state: &TownState) -> usize {
        // Proportional estimate for the incremental executor's snapshot
        // budget: tagged OR-set entries dominate, the transmitted snapshot
        // is a plain string list. Per-entry constants approximate the tag
        // and container overhead; only relative accuracy matters.
        let issues: usize = state.issues.iter().map(|s| s.len() + 48).sum();
        let transmitted: usize = state.transmitted_issues().map(|s| s.len() + 24).sum();
        std::mem::size_of::<TownReplica>() + issues + transmitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi::{ExploreMode, Session};
    use er_pi_interleave::{FailedOpsRule, PruningConfig};

    fn record_motivating(session: &mut Session<TownApp>) -> [er_pi_model::EventId; 4] {
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        let mut out = [er_pi_model::EventId::new(0); 4];
        session.record(|sys| {
            let ev1 = sys.invoke(a, "add", [Value::from("otb")]);
            sys.sync(a, b, ev1);
            let ev2 = sys.invoke(b, "add", [Value::from("ph")]);
            sys.sync(b, a, ev2);
            let ev3 = sys.invoke(b, "remove", [Value::from("otb")]);
            sys.sync(b, a, ev3);
            let ev4 = sys.external(a, "transmit");
            out = [ev1, ev2, ev3, ev4];
        });
        out
    }

    #[test]
    fn recorded_order_satisfies_the_invariant() {
        let mut session = Session::new(TownApp::new(2));
        record_motivating(&mut session);
        session.set_cap(1); // only the recorded (identity) order
        let report = session.replay(&TownApp::invariant()).unwrap();
        assert!(report.passed(), "the observed execution was fine");
    }

    #[test]
    fn exhaustive_replay_finds_the_stale_transmission() {
        let mut session = Session::new(TownApp::new(2));
        record_motivating(&mut session);
        let report = session.replay(&TownApp::invariant()).unwrap();
        assert_eq!(report.explored, 24);
        assert!(!report.passed());
        // The violating interleavings all place the transmit before the
        // remove's synchronization reached replica A.
        for v in &report.violations {
            assert_eq!(&*v.assertion, "no-stale-issue-transmitted");
        }
    }

    #[test]
    fn paper_pruned_count_19_still_finds_the_bug() {
        let mut session = Session::new(TownApp::new(2));
        let [ev1, ev2, ev3, ev4] = record_motivating(&mut session);
        session.set_config(PruningConfig::default().with_failed_ops(FailedOpsRule {
            predecessors: vec![ev4],
            successors: vec![ev1, ev2, ev3],
        }));
        let report = session.replay(&TownApp::invariant()).unwrap();
        assert_eq!(report.explored, 19, "the paper's §3.1 number");
        assert!(!report.passed(), "pruning must not lose the bug");
    }

    #[test]
    fn dfs_also_finds_it_but_explores_more() {
        let mut session = Session::new(TownApp::new(2));
        record_motivating(&mut session);
        session.set_mode(ExploreMode::Dfs);
        session.set_stop_on_first_violation(true);
        let dfs = session.replay(&TownApp::invariant()).unwrap();
        assert!(!dfs.passed());

        let mut session2 = Session::new(TownApp::new(2));
        record_motivating(&mut session2);
        session2.set_stop_on_first_violation(true);
        let erpi = session2.replay(&TownApp::invariant()).unwrap();
        assert!(!erpi.passed());
        assert!(
            erpi.first_violation_at.unwrap() <= dfs.first_violation_at.unwrap(),
            "pruned exploration reaches the bug at least as fast"
        );
    }

    #[test]
    fn snapshots_stay_independent_along_the_motivating_recording() {
        let mut session = Session::new(TownApp::new(2));
        record_motivating(&mut session);
        let workload = session.workload().expect("recorded");
        crate::assert_snapshots_stay_independent(&TownApp::new(2), workload, "town");
    }

    #[test]
    fn snapshots_stay_independent_along_a_long_recording() {
        // 48 events: both logs and the entry arrays outgrow every capacity
        // the motivating recording reaches, with re-adds of removed issues
        // and a transmit in the middle.
        let r = ReplicaId::new;
        let mut w = er_pi_model::Workload::builder();
        for i in 0..16u16 {
            let issue = Value::from(format!("issue-{}", i % 6));
            let op = if i % 4 == 3 { "remove" } else { "add" };
            let update = w.update(r(i % 2), op, [issue]);
            w.sync_pair(r(i % 2), r((i + 1) % 2), update);
            w.external(r(i % 2), "transmit");
        }
        let w = w.build();
        assert!(w.len() >= 40);
        crate::assert_snapshots_stay_independent(&TownApp::new(2), &w, "town, long");
    }

    #[test]
    fn size_hint_grows_with_the_issue_set() {
        let app = TownApp::new(2);
        let mut states = app.init_all();
        let empty = app.state_size_hint(&states[0]);
        let mut w = er_pi_model::Workload::builder();
        w.update(ReplicaId::new(0), "add", [Value::from("otb")]);
        let w = w.build();
        app.apply(&mut states, w.event(er_pi_model::EventId::new(0)));
        assert!(
            app.state_size_hint(&states[0]) > empty,
            "heap payload must be reflected in the budget charge"
        );
    }

    #[test]
    fn state_digest_merges_commuted_orders_but_not_lossy_lookalikes() {
        let app = TownApp::new(2);
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        let mut w = er_pi_model::Workload::builder();
        w.update(a, "add", [Value::from("otb")]);
        w.update(b, "add", [Value::from("ph")]);
        let w = w.build();
        let (e0, e1) = (
            w.event(er_pi_model::EventId::new(0)),
            w.event(er_pi_model::EventId::new(1)),
        );

        // Two independent local updates on different replicas: applying
        // them in either order must reach the same digest — the hit that
        // powers subsumption.
        let mut s1 = app.init_all();
        app.apply(&mut s1, e0);
        app.apply(&mut s1, e1);
        let mut s2 = app.init_all();
        app.apply(&mut s2, e1);
        app.apply(&mut s2, e0);
        let d1 = app.state_digest(&s1).expect("TownApp encodes");
        assert_eq!(app.state_digest(&s2), Some(d1));

        // Same visible elements but a different history (an extra add that
        // was removed again) must NOT collide: the digest sees tombstones.
        let mut w2 = er_pi_model::Workload::builder();
        w2.update(a, "add", [Value::from("otb")]);
        w2.update(b, "add", [Value::from("ph")]);
        w2.update(a, "add", [Value::from("tmp")]);
        w2.update(a, "remove", [Value::from("tmp")]);
        let w2 = w2.build();
        let mut s3 = app.init_all();
        for i in 0..4 {
            app.apply(&mut s3, w2.event(er_pi_model::EventId::new(i)));
        }
        assert_eq!(
            app.observe(&s3[0]).as_list().unwrap()[0],
            app.observe(&s1[0]).as_list().unwrap()[0],
            "visible projection agrees"
        );
        assert_ne!(app.state_digest(&s3), Some(d1), "hidden state differs");
    }

    #[test]
    fn failed_remove_is_a_failed_op() {
        let mut session = Session::new(TownApp::new(2));
        let b = ReplicaId::new(1);
        session.record(|sys| {
            // Remove before any add: fails.
            let ev = sys.invoke(b, "remove", [Value::from("ghost")]);
            assert!(sys.outcome(ev).is_failed());
        });
    }
}
