//! Subject 5 — the `crdts` collection library (paper §6, Subject 5).
//!
//! The original is a Java collection of CRDT data structures; applications
//! compose them freely. This model exposes one instance of each structure,
//! which is exactly the playground the paper uses to seed all five
//! misconceptions (Table 2's last row checks every column).

use std::collections::VecDeque;

use crate::clone_queue_from;
use er_pi::{OpOutcome, SystemModel};
use er_pi_model::{CanonicalEncode, Event, EventKind, LamportTimestamp, ReplicaId, Value};
use er_pi_rdl::{DeltaSync, LwwRegister, OrSet, PnCounter, Rga, Shared, StateCrdt};

/// One replica of the composed CRDT collection.
#[derive(Debug)]
pub struct CrdtsReplica {
    /// An observed-remove set.
    pub set: OrSet<i64>,
    /// A list CRDT.
    pub list: Rga<i64>,
    /// A counter.
    pub counter: PnCounter,
    /// An LWW register.
    pub register: LwwRegister<i64>,
    /// The to-do app built on top: `(id, title)` items, where the
    /// application mints ids as `max_seen_id + 1` — the misconception-#4
    /// seed.
    pub todos: Vec<(i64, String)>,
    /// Logical clock for register writes.
    clock: u64,
    /// Pending sync payloads (snapshots, in this model).
    pub inbox: VecDeque<Box<CrdtsSnapshot>>,
}

impl Clone for CrdtsReplica {
    fn clone(&self) -> Self {
        let CrdtsReplica {
            set,
            list,
            counter,
            register,
            todos,
            clock,
            inbox,
        } = self;
        CrdtsReplica {
            set: set.clone(),
            list: list.clone(),
            counter: counter.clone(),
            register: register.clone(),
            todos: todos.clone(),
            clock: *clock,
            inbox: inbox.clone(),
        }
    }

    /// Field by field, each into the one it replaces; an inbox snapshot
    /// into the one in its place.
    fn clone_from(&mut self, source: &Self) {
        let CrdtsReplica {
            set,
            list,
            counter,
            register,
            todos,
            clock,
            inbox,
        } = source;
        self.set.clone_from(set);
        self.list.clone_from(list);
        self.counter.clone_from(counter);
        self.register.clone_from(register);
        self.todos.clone_from(todos);
        self.clock = *clock;
        clone_queue_from(&mut self.inbox, inbox, Clone::clone_from);
    }
}

/// [`CrdtsModel`]'s per-replica state: a [`CrdtsReplica`] behind a
/// copy-on-write cell (a snapshot is a pointer bump).
pub type CrdtsState = Shared<CrdtsReplica>;

/// The payload of a split sync: a full snapshot of the sender.
#[derive(Debug)]
pub struct CrdtsSnapshot {
    set: OrSet<i64>,
    list: Rga<i64>,
    counter: PnCounter,
    register: LwwRegister<i64>,
    todos: Vec<(i64, String)>,
}

impl Clone for CrdtsSnapshot {
    fn clone(&self) -> Self {
        let CrdtsSnapshot {
            set,
            list,
            counter,
            register,
            todos,
        } = self;
        CrdtsSnapshot {
            set: set.clone(),
            list: list.clone(),
            counter: counter.clone(),
            register: register.clone(),
            todos: todos.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let CrdtsSnapshot {
            set,
            list,
            counter,
            register,
            todos,
        } = source;
        self.set.clone_from(set);
        self.list.clone_from(list);
        self.counter.clone_from(counter);
        self.register.clone_from(register);
        self.todos.clone_from(todos);
    }
}

impl CrdtsReplica {
    fn snapshot(&self) -> CrdtsSnapshot {
        CrdtsSnapshot {
            set: self.set.clone(),
            list: self.list.clone(),
            counter: self.counter.clone(),
            register: self.register.clone(),
            todos: self.todos.clone(),
        }
    }

    fn absorb(&mut self, snap: &CrdtsSnapshot) {
        self.set.sync_from(&snap.set);
        self.list.sync_from(&snap.list);
        self.counter.merge(&snap.counter);
        self.register.merge(&snap.register);
        for todo in &snap.todos {
            if !self.todos.contains(todo) {
                self.todos.push(todo.clone());
            }
        }
        self.todos.sort();
    }
}

/// The `crdts` collection subject model.
///
/// Operation vocabulary:
///
/// * `set_add(v)` / `set_remove(v)`,
/// * `list_push(v)` / `list_insert(idx, v)` / `list_delete(idx)` /
///   `list_move(from, to)` (correct) / `list_move_naive(from, to)`
///   (misconception #3),
/// * `counter_inc(n)` / `counter_dec(n)`,
/// * `reg_set(v)`,
/// * `todo_create(title)` — mints `max_id + 1` (misconception #4).
#[derive(Debug, Clone)]
pub struct CrdtsModel {
    replicas: usize,
}

impl CrdtsModel {
    /// Creates the model.
    pub fn new(replicas: usize) -> Self {
        CrdtsModel { replicas }
    }
}

impl SystemModel for CrdtsModel {
    type State = CrdtsState;

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn init(&self, replica: ReplicaId) -> CrdtsState {
        Shared::new(CrdtsReplica {
            set: OrSet::new(replica),
            list: Rga::new(replica),
            counter: PnCounter::new(replica),
            register: LwwRegister::new(0, LamportTimestamp::new(0, replica)),
            todos: Vec::new(),
            clock: 0,
            inbox: VecDeque::new(),
        })
    }

    fn apply(&self, states: &mut [CrdtsState], event: &Event) -> OpOutcome {
        let at = event.replica.index();
        match &event.kind {
            EventKind::LocalUpdate { op } => {
                let int = |i: usize| op.arg(i).and_then(Value::as_int);
                let state = &mut states[at];
                match op.function() {
                    "set_add" => {
                        let Some(v) = int(0) else {
                            return OpOutcome::failed("set_add needs a value");
                        };
                        state.set.insert(v);
                        OpOutcome::Applied
                    }
                    "set_remove" => {
                        let Some(v) = int(0) else {
                            return OpOutcome::failed("set_remove needs a value");
                        };
                        match state.set.remove(&v) {
                            Some(_) => OpOutcome::Applied,
                            None => OpOutcome::failed("remove of unobserved element"),
                        }
                    }
                    "list_push" => {
                        let Some(v) = int(0) else {
                            return OpOutcome::failed("list_push needs a value");
                        };
                        state.list.push(v);
                        OpOutcome::Applied
                    }
                    "list_insert" => {
                        let (Some(idx), Some(v)) = (int(0), int(1)) else {
                            return OpOutcome::failed("list_insert needs (idx, value)");
                        };
                        if idx as usize > state.list.len() {
                            return OpOutcome::failed("list index out of bounds");
                        }
                        state.list.insert(idx as usize, v);
                        OpOutcome::Applied
                    }
                    "list_delete" => {
                        let Some(idx) = int(0) else {
                            return OpOutcome::failed("list_delete needs idx");
                        };
                        match state.list.delete(idx as usize) {
                            Some(_) => OpOutcome::Applied,
                            None => OpOutcome::failed("list index out of bounds"),
                        }
                    }
                    "list_move" => {
                        let (Some(from), Some(to)) = (int(0), int(1)) else {
                            return OpOutcome::failed("list_move needs (from, to)");
                        };
                        match state.list.move_item(from as usize, to as usize) {
                            Some(_) => OpOutcome::Applied,
                            None => OpOutcome::failed("move out of bounds"),
                        }
                    }
                    "list_move_naive" => {
                        let (Some(from), Some(to)) = (int(0), int(1)) else {
                            return OpOutcome::failed("list_move_naive needs (from, to)");
                        };
                        match state.list.move_naive(from as usize, to as usize) {
                            Some(_) => OpOutcome::Applied,
                            None => OpOutcome::failed("move out of bounds"),
                        }
                    }
                    "counter_inc" => {
                        state.counter.increment(int(0).unwrap_or(1) as u64);
                        OpOutcome::Applied
                    }
                    "counter_dec" => {
                        state.counter.decrement(int(0).unwrap_or(1) as u64);
                        OpOutcome::Applied
                    }
                    "reg_set" => {
                        let Some(v) = int(0) else {
                            return OpOutcome::failed("reg_set needs a value");
                        };
                        state.clock += 1;
                        let ts = LamportTimestamp::new(state.clock, event.replica);
                        state.register.set(v, ts);
                        OpOutcome::Applied
                    }
                    "todo_create" => {
                        let title = op
                            .arg(0)
                            .and_then(Value::as_str)
                            .unwrap_or("todo")
                            .to_owned();
                        // Misconception #4: mint the next sequential id.
                        let next = state.todos.iter().map(|(id, _)| *id).max().unwrap_or(0) + 1;
                        state.todos.push((next, title));
                        state.todos.sort();
                        OpOutcome::observed(Value::from(next))
                    }
                    other => OpOutcome::failed(format!("unknown crdts op {other}")),
                }
            }
            EventKind::Sync { to, .. } => {
                let snap = states[at].snapshot();
                states[to.index()].absorb(&snap);
                OpOutcome::Applied
            }
            EventKind::SyncSend { to, .. } => {
                let snap = states[at].snapshot();
                states[to.index()].inbox.push_back(Box::new(snap));
                OpOutcome::Applied
            }
            EventKind::SyncExec { .. } => match states[at].inbox.pop_front() {
                Some(snap) => {
                    states[at].absorb(&snap);
                    OpOutcome::Applied
                }
                None => OpOutcome::failed("sync exec with empty inbox"),
            },
            EventKind::External { label } => {
                OpOutcome::failed(format!("unsupported external event {label}"))
            }
        }
    }

    /// Crash-restart recovery: the CRDT structures are the RDL's durable
    /// state and survive intact; only the volatile inbox of received but
    /// not-yet-executed sync payloads is lost. This mirrors an op-log-backed
    /// deployment where every acknowledged update is persisted before the
    /// crash, so scheduled [`CrashRestart`](er_pi_model::FaultKind) faults
    /// never break convergence for this subject — what they *can* do is
    /// turn a pending `SyncExec` into a failed op.
    fn recover(&self, states: &mut [CrdtsState], replica: ReplicaId) {
        states[replica.index()].inbox.clear();
    }

    fn observe(&self, state: &CrdtsState) -> Value {
        let set: Value = state.set.elements().into_iter().copied().collect();
        let list: Value = state.list.values().into_iter().copied().collect();
        let todos: Value = state
            .todos
            .iter()
            .map(|(id, title)| Value::List(vec![Value::from(*id), Value::from(title.as_str())]))
            .collect();
        Value::List(vec![
            set,
            list,
            Value::from(state.counter.value()),
            Value::from(*state.register.get()),
            todos,
        ])
    }

    fn state_encode(&self, state: &CrdtsState, out: &mut Vec<u8>) -> bool {
        fn snapshot(snap: &CrdtsSnapshot, out: &mut Vec<u8>) {
            snap.set.encode_canonical(out);
            snap.list.encode_canonical(out);
            snap.counter.encode_canonical(out);
            snap.register.encode_canonical(out);
            snap.todos.encode_canonical(out);
        }
        // One component per structure, plus the app-level to-do list, the
        // register clock (it mints future write timestamps) and the inbox
        // of queued snapshots.
        state.set.encode_canonical(out);
        state.list.encode_canonical(out);
        state.counter.encode_canonical(out);
        state.register.encode_canonical(out);
        state.todos.encode_canonical(out);
        state.clock.encode_canonical(out);
        (state.inbox.len() as u64).encode_canonical(out);
        for snap in &state.inbox {
            snapshot(snap, out);
        }
        true
    }

    fn replica_digest(&self, state: &CrdtsState) -> Option<u128> {
        Shared::digest_with(state, || er_pi::encoding_digest(self, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::Workload;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn run(model: &CrdtsModel, w: &Workload) -> Vec<CrdtsState> {
        let mut states = model.init_all();
        for ev in w.events() {
            model.apply(&mut states, ev);
        }
        states
    }

    #[test]
    fn all_structures_replicate_through_fused_sync() {
        let model = CrdtsModel::new(2);
        let mut w = Workload::builder();
        w.update(r(0), "set_add", [Value::from(7)]);
        w.update(r(0), "list_push", [Value::from(1)]);
        w.update(r(0), "counter_inc", [Value::from(3)]);
        let last = w.update(r(0), "reg_set", [Value::from(42)]);
        w.sync_pair(r(0), r(1), last);
        let states = run(&model, &w.build());
        assert_eq!(model.observe(&states[0]), model.observe(&states[1]));
        assert!(states[1].set.contains(&7));
        assert_eq!(states[1].counter.value(), 3);
        assert_eq!(*states[1].register.get(), 42);
    }

    #[test]
    fn todo_ids_clash_when_minted_concurrently() {
        // Misconception #4 at the model level.
        let model = CrdtsModel::new(2);
        let mut w = Workload::builder();
        w.update(r(0), "todo_create", [Value::from("buy milk")]);
        w.update(r(1), "todo_create", [Value::from("walk dog")]);
        w.sync_untracked(r(0), r(1));
        let states = run(&model, &w.build());
        let ids: Vec<i64> = states[1].todos.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 1], "both replicas minted id 1");
    }

    #[test]
    fn split_sync_uses_the_inbox() {
        let model = CrdtsModel::new(2);
        let mut w = Workload::builder();
        let add = w.update(r(0), "set_add", [Value::from(5)]);
        let (_, _) = w.sync_split(r(0), r(1), Some(add));
        let states = run(&model, &w.build());
        assert!(states[1].set.contains(&5));
        assert!(states[1].inbox.is_empty());
    }

    #[test]
    fn snapshots_stay_independent_over_every_structure() {
        let mut w = Workload::builder();
        for v in [10, 20, 30] {
            w.update(r(0), "list_push", [Value::from(v)]);
            w.update(r(1), "set_add", [Value::from(v)]);
        }
        let add = w.update(r(0), "set_add", [Value::from(5)]);
        w.sync_split(r(0), r(1), Some(add));
        w.update(r(1), "set_remove", [Value::from(10)]);
        w.update(r(1), "list_move", [Value::from(0), Value::from(2)]);
        w.update(r(1), "counter_inc", [Value::from(3)]);
        w.update(r(0), "reg_set", [Value::from(42)]);
        w.update(r(0), "todo_create", [Value::from("buy milk")]);
        w.sync_untracked(r(1), r(0));
        crate::assert_snapshots_stay_independent(&CrdtsModel::new(2), &w.build(), "crdts");
    }

    #[test]
    fn snapshots_stay_independent_along_a_long_recording() {
        // 45 events on three replicas: the set's and the list's logs, the
        // list's nodes and the snapshot inbox all grow well past what the
        // recording above reaches.
        let mut w = Workload::builder();
        for i in 0..15u16 {
            let (at, v) = (r(i % 3), Value::from(i64::from(i)));
            let add = w.update(at, "set_add", [v.clone()]);
            match i % 5 {
                3 => w.update(at, "set_remove", [Value::from(i64::from(i) - 3)]),
                4 => w.update(at, "list_move_naive", [Value::from(0), Value::from(1)]),
                _ => w.update(at, "list_push", [v]),
            };
            if i % 2 == 0 {
                w.sync_pair(at, r((i + 1) % 3), add);
            } else {
                w.sync_split(at, r((i + 1) % 3), Some(add));
            }
        }
        let w = w.build();
        assert!(w.len() >= 40);
        crate::assert_snapshots_stay_independent(&CrdtsModel::new(3), &w, "crdts, long");
    }

    #[test]
    fn naive_move_duplicates() {
        let model = CrdtsModel::new(2);
        let mut w = Workload::builder();
        for v in [10, 20, 30] {
            w.update(r(0), "list_push", [Value::from(v)]);
        }
        w.sync_untracked(r(0), r(1));
        w.update(r(0), "list_move_naive", [Value::from(0), Value::from(2)]);
        w.update(r(1), "list_move_naive", [Value::from(0), Value::from(1)]);
        w.sync_untracked(r(0), r(1));
        w.sync_untracked(r(1), r(0));
        let states = run(&model, &w.build());
        let tens = states[0]
            .list
            .values()
            .into_iter()
            .filter(|v| **v == 10)
            .count();
        assert_eq!(tens, 2);
    }

    #[test]
    fn failed_ops_surface() {
        let model = CrdtsModel::new(1);
        let mut states = model.init_all();
        let mut w = Workload::builder();
        let bad_remove = w.update(r(0), "set_remove", [Value::from(9)]);
        let bad_delete = w.update(r(0), "list_delete", [Value::from(4)]);
        let w = w.build();
        assert!(model.apply(&mut states, w.event(bad_remove)).is_failed());
        assert!(model.apply(&mut states, w.event(bad_delete)).is_failed());
    }
}
