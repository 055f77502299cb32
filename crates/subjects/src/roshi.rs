//! Subject 1 — SoundCloud's Roshi: a time-series event database with
//! LWW-set semantics (paper §6, Subject 1).

use std::collections::VecDeque;
use std::sync::Arc;

use crate::{clone_queue_from, sender_and_receiver};
use er_pi::{OpOutcome, SystemModel};
use er_pi_model::CanonicalEncode;
use er_pi_model::{Event, EventKind, ReplicaId, Value};
use er_pi_rdl::{
    clone_handles_from, LwwTimeSeries, ScoredMember, Shared, StateCrdt, TieBreak, TsOp,
};

/// One Roshi replica: the LWW time-series store plus the application-level
/// read results the assertions inspect.
#[derive(Debug)]
pub struct RoshiReplica {
    /// The replicated store.
    pub store: Shared<LwwTimeSeries>,
    /// Pending sync payloads (send → exec message queue).
    pub inbox: VecDeque<Vec<Arc<TsOp>>>,
    /// Result of the last `select`: handles to the store's members.
    pub last_select: Option<Vec<ScoredMember>>,
    /// Result of the last `read_deleted` — the response field of issue #18.
    pub last_deleted: Option<bool>,
    /// Result of the last `assemble`: members in *local map iteration
    /// order* — the roshi-server response assembly of issue #40, which
    /// leaks Go map ordering into the API. Handles to the logged members.
    pub assembled: Option<Vec<Arc<str>>>,
}

impl Clone for RoshiReplica {
    fn clone(&self) -> Self {
        let RoshiReplica {
            store,
            inbox,
            last_select,
            last_deleted,
            assembled,
        } = self;
        RoshiReplica {
            store: store.clone(),
            inbox: inbox.clone(),
            last_select: last_select.clone(),
            last_deleted: *last_deleted,
            assembled: assembled.clone(),
        }
    }

    /// Field by field, each into the one it replaces; an inbox payload by
    /// pointer.
    fn clone_from(&mut self, source: &Self) {
        let RoshiReplica {
            store,
            inbox,
            last_select,
            last_deleted,
            assembled,
        } = source;
        self.store.clone_from(store);
        clone_queue_from(&mut self.inbox, inbox, |mine, theirs| {
            clone_handles_from(mine, theirs)
        });
        self.last_select.clone_from(last_select);
        self.last_deleted = *last_deleted;
        self.assembled.clone_from(assembled);
    }
}

/// [`RoshiModel`]'s per-replica state: a [`RoshiReplica`] behind a
/// copy-on-write cell (a snapshot is a pointer bump).
pub type RoshiState = Shared<RoshiReplica>;

/// The Roshi subject model.
///
/// Operation vocabulary (`LocalUpdate` functions):
///
/// * `insert(key, member, score)` / `delete(key, member, score)`,
/// * `select(key)` — records the page into [`RoshiReplica::last_select`],
/// * `read_deleted(key, member)` — records the `deleted` response field,
/// * `assemble(key)` — builds a response in local first-insertion order
///   (the Go-map-order leak of Roshi-3).
///
/// Synchronization: fused `Sync` merges stores; split `SyncSend`/`SyncExec`
/// ship the op log through a per-replica inbox.
#[derive(Debug, Clone)]
pub struct RoshiModel {
    replicas: usize,
    tie: TieBreak,
}

impl RoshiModel {
    /// Creates the model with Roshi's documented insert-wins tie policy.
    pub fn new(replicas: usize) -> Self {
        RoshiModel {
            replicas,
            tie: TieBreak::InsertWins,
        }
    }

    /// Creates the model with an explicit tie policy (Roshi-2 uses the
    /// defective order-dependent [`TieBreak::LastApplied`]).
    pub fn with_tie(replicas: usize, tie: TieBreak) -> Self {
        RoshiModel { replicas, tie }
    }
}

/// `(key, member, score)`: the recorded argument strings by handle, which
/// the store keeps as they are.
fn args3(op: &er_pi_model::OpDescriptor) -> Option<(Arc<str>, Arc<str>, u64)> {
    Some((
        Arc::clone(op.arg(0)?.as_shared_str()?),
        Arc::clone(op.arg(1)?.as_shared_str()?),
        op.arg(2)?.as_int()? as u64,
    ))
}

impl SystemModel for RoshiModel {
    type State = RoshiState;

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn init(&self, _replica: ReplicaId) -> RoshiState {
        Shared::new(RoshiReplica {
            store: Shared::new(LwwTimeSeries::new(self.tie)),
            inbox: VecDeque::new(),
            last_select: None,
            last_deleted: None,
            assembled: None,
        })
    }

    fn apply(&self, states: &mut [RoshiState], event: &Event) -> OpOutcome {
        let at = event.replica.index();
        match &event.kind {
            EventKind::LocalUpdate { op } => match op.function() {
                "insert" => {
                    let Some((key, member, score)) = args3(op) else {
                        return OpOutcome::failed("insert needs (key, member, score)");
                    };
                    if states[at].store.insert(key, member, score) {
                        OpOutcome::Applied
                    } else {
                        OpOutcome::failed("stale insert lost LWW resolution")
                    }
                }
                "delete" => {
                    let Some((key, member, score)) = args3(op) else {
                        return OpOutcome::failed("delete needs (key, member, score)");
                    };
                    if states[at].store.delete(key, member, score) {
                        OpOutcome::Applied
                    } else {
                        OpOutcome::failed("stale delete lost LWW resolution")
                    }
                }
                "select" => {
                    let key = op.arg(0).and_then(Value::as_str).unwrap_or("k");
                    let page = states[at].store.select(key, 0, usize::MAX);
                    let observed = page.iter().map(|m| Value::from(&m.member)).collect();
                    states[at].last_select = Some(page);
                    OpOutcome::observed(observed)
                }
                "read_deleted" => {
                    let key = op.arg(0).and_then(Value::as_str).unwrap_or("k");
                    let member = op.arg(1).and_then(Value::as_str).unwrap_or("");
                    let flag = states[at].store.is_deleted(key, member);
                    states[at].last_deleted = flag;
                    OpOutcome::observed(flag.map(Value::from).unwrap_or(Value::Null))
                }
                "assemble" => {
                    let key = op.arg(0).and_then(Value::as_str).unwrap_or("k");
                    // First-insertion (map iteration) order of visible
                    // members: depends on the local apply history.
                    let mut order: Vec<Arc<str>> = Vec::new();
                    for tsop in states[at].store.log().iter() {
                        if let TsOp::Insert { key: k, member, .. } = tsop {
                            if **k == *key && !order.contains(member) {
                                order.push(Arc::clone(member));
                            }
                        }
                    }
                    order.retain(|m| states[at].store.is_deleted(key, m) == Some(false));
                    let observed = order.iter().map(Value::from).collect();
                    states[at].assembled = Some(order);
                    OpOutcome::observed(observed)
                }
                other => OpOutcome::failed(format!("unknown roshi op {other}")),
            },
            EventKind::Sync { to, .. } => {
                if let Some((from, to)) = sender_and_receiver(states, at, to.index()) {
                    to.store.merge(&from.store);
                }
                OpOutcome::Applied
            }
            EventKind::SyncSend { to, .. } => {
                let ops = states[at].store.log().shared().cloned().collect();
                states[to.index()].inbox.push_back(ops);
                OpOutcome::Applied
            }
            EventKind::SyncExec { .. } => {
                // One write access to the replica, and one to its store,
                // for the whole batch.
                let replica = &mut *states[at];
                match replica.inbox.pop_front() {
                    Some(ops) => {
                        if !ops.is_empty() {
                            let store = &mut *replica.store;
                            for op in &ops {
                                store.apply(op);
                            }
                        }
                        OpOutcome::Applied
                    }
                    None => OpOutcome::failed("sync exec before any send arrived"),
                }
            }
            EventKind::External { label } => {
                OpOutcome::failed(format!("unsupported external event {label}"))
            }
        }
    }

    fn observe(&self, state: &RoshiState) -> Value {
        let keys: Vec<Value> = state
            .store
            .keys()
            .map(|k| {
                let members: Value = state
                    .store
                    .select(k, 0, usize::MAX)
                    .iter()
                    .map(|m| Value::from(&m.member))
                    .collect();
                Value::List(vec![Value::from(k), members])
            })
            .collect();
        let selected = state
            .last_select
            .as_ref()
            .map(|page| page.iter().map(|m| Value::from(&m.member)).collect())
            .unwrap_or(Value::Null);
        let deleted = state.last_deleted.map(Value::from).unwrap_or(Value::Null);
        let assembled = state
            .assembled
            .as_ref()
            .map(|v| v.iter().map(Value::from).collect())
            .unwrap_or(Value::Null);
        Value::List(vec![Value::List(keys), selected, deleted, assembled])
    }

    fn state_encode(&self, state: &RoshiState, out: &mut Vec<u8>) -> bool {
        // Faithful: the store's canonical form covers cells + tie policy +
        // the op log (which `assemble` iterates), and the remaining fields
        // are exactly the read results and inbox the assertions and future
        // `SyncExec`s observe.
        state.store.encode_canonical(out);
        state.inbox.encode_canonical(out);
        state.last_select.encode_canonical(out);
        state.last_deleted.encode_canonical(out);
        state.assembled.encode_canonical(out);
        true
    }

    fn replica_digest(&self, state: &RoshiState) -> Option<u128> {
        Shared::digest_with(state, || er_pi::encoding_digest(self, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi::Session;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn insert_select_through_the_model() {
        let mut session = Session::new(RoshiModel::new(2));
        session.record(|sys| {
            sys.invoke(
                r(0),
                "insert",
                [Value::from("k"), Value::from("m1"), Value::from(10)],
            );
            let sel = sys.invoke(r(0), "select", [Value::from("k")]);
            assert!(matches!(sys.outcome(sel), OpOutcome::Observed(_)));
            assert_eq!(sys.state(r(0)).last_select.as_ref().unwrap().len(), 1);
        });
    }

    #[test]
    fn split_sync_ships_the_log() {
        let mut session = Session::new(RoshiModel::new(2));
        session.record(|sys| {
            let ins = sys.invoke(
                r(0),
                "insert",
                [Value::from("k"), Value::from("m"), Value::from(5)],
            );
            sys.sync_split(r(0), r(1), Some(ins));
            assert_eq!(sys.state(r(1)).store.key_len("k"), 1);
        });
    }

    #[test]
    fn sync_exec_without_send_fails() {
        let model = RoshiModel::new(2);
        let mut w = er_pi_model::Workload::builder();
        let send = w.sync_send(r(0), r(1), None);
        let exec = w.sync_exec(r(1), r(0), send);
        let w = w.build();
        // Execute the exec BEFORE the send: a failed op.
        let mut states = model.init_all();
        let out = model.apply(&mut states, w.event(exec));
        assert!(out.is_failed());
        let out = model.apply(&mut states, w.event(send));
        assert!(!out.is_failed());
    }

    #[test]
    fn fused_sync_merges_stores() {
        let model = RoshiModel::new(2);
        let mut w = er_pi_model::Workload::builder();
        let ins = w.update(
            r(0),
            "insert",
            [Value::from("k"), Value::from("m"), Value::from(5)],
        );
        let sync = w.sync_pair(r(0), r(1), ins);
        let w = w.build();
        let mut states = model.init_all();
        model.apply(&mut states, w.event(ins));
        model.apply(&mut states, w.event(sync));
        assert_eq!(states[1].store.key_len("k"), 1);
    }

    #[test]
    fn assemble_order_depends_on_local_history() {
        let model = RoshiModel::new(2);
        let mk = |first: &str, second: &str| {
            let mut states = model.init_all();
            let mut w = er_pi_model::Workload::builder();
            let i1 = w.update(
                r(0),
                "insert",
                [Value::from("k"), Value::from(first), Value::from(5)],
            );
            let i2 = w.update(
                r(0),
                "insert",
                [Value::from("k"), Value::from(second), Value::from(6)],
            );
            let asm = w.update(r(0), "assemble", [Value::from("k")]);
            let w = w.build();
            for ev in [i1, i2, asm] {
                model.apply(&mut states, w.event(ev));
            }
            let assembled = states[0].assembled.clone().unwrap();
            assembled.iter().map(|m| m.to_string()).collect::<Vec<_>>()
        };
        assert_eq!(mk("a", "b"), vec!["a", "b"]);
        assert_eq!(mk("b", "a"), vec!["b", "a"], "iteration order leaks");
    }

    #[test]
    fn observe_is_stable_for_equal_states() {
        let model = RoshiModel::new(1);
        let s1 = model.init(r(0));
        let s2 = model.init(r(0));
        assert_eq!(model.observe(&s1), model.observe(&s2));
    }
}
