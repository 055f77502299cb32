//! Subject 4 — Yorkie: a replicated JSON document store (paper §6,
//! Subject 4).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::{clone_queue_from, sender_and_receiver};
use er_pi::{OpOutcome, SystemModel};
use er_pi_model::{CanonicalEncode, Event, EventKind, OpDescriptor, ReplicaId, Value};
use er_pi_rdl::{clone_handles_from, DeltaSync, DocOp, JsonDoc, JsonView, Shared};

/// One Yorkie replica: the document plus a sync inbox.
#[derive(Debug)]
pub struct YorkieReplica {
    /// The replicated JSON document.
    pub doc: Shared<JsonDoc>,
    /// Pending sync payloads.
    pub inbox: VecDeque<Vec<Arc<DocOp>>>,
    /// Keys captured by the last `snapshot_keys` read.
    pub last_snapshot: Option<Vec<String>>,
}

impl Clone for YorkieReplica {
    fn clone(&self) -> Self {
        let YorkieReplica {
            doc,
            inbox,
            last_snapshot,
        } = self;
        YorkieReplica {
            doc: doc.clone(),
            inbox: inbox.clone(),
            last_snapshot: last_snapshot.clone(),
        }
    }

    /// Field by field, each into the one it replaces; an inbox payload by
    /// pointer.
    fn clone_from(&mut self, source: &Self) {
        let YorkieReplica {
            doc,
            inbox,
            last_snapshot,
        } = source;
        self.doc.clone_from(doc);
        clone_queue_from(&mut self.inbox, inbox, |mine, theirs| {
            clone_handles_from(mine, theirs)
        });
        self.last_snapshot.clone_from(last_snapshot);
    }
}

/// [`YorkieModel`]'s per-replica state: a [`YorkieReplica`] behind a
/// copy-on-write cell (a snapshot is a pointer bump).
pub type YorkieState = Shared<YorkieReplica>;

/// The Yorkie subject model.
///
/// Operation vocabulary (paths are dot-separated strings):
///
/// * `set(path, value)` — LWW-set a primitive,
/// * `set_object(path, k1, v1, k2, v2, …)` — whole-subtree replace (the
///   Yorkie-2 misuse surface),
/// * `remove(path)`,
/// * `new_array(path)`, `push(path, value)`,
/// * `move(path, from, to)` — correct `MoveAfter`,
/// * `move_naive(path, from, to)` — delete+insert move (Yorkie-1 defect).
#[derive(Debug, Clone)]
pub struct YorkieModel {
    replicas: usize,
}

impl YorkieModel {
    /// Creates the model.
    pub fn new(replicas: usize) -> Self {
        YorkieModel { replicas }
    }
}

/// Hands `f` the segments of the dotted document path `raw`, empty ones
/// skipped, on the stack: a path of more than [`INLINE_SEGMENTS`] segments
/// goes through a `Vec`.
fn with_path<R>(raw: &str, f: impl FnOnce(&[&str]) -> R) -> R {
    let segments = || raw.split('.').filter(|s| !s.is_empty());
    let mut inline = [""; INLINE_SEGMENTS];
    let mut len = 0;
    for segment in segments() {
        if len == INLINE_SEGMENTS {
            return f(&segments().collect::<Vec<_>>());
        }
        inline[len] = segment;
        len += 1;
    }
    f(&inline[..len])
}

/// Path segments [`with_path`] holds without a heap buffer.
const INLINE_SEGMENTS: usize = 8;

fn doc_result(result: Result<impl Sized, er_pi_rdl::DocError>) -> OpOutcome {
    match result {
        Ok(_) => OpOutcome::Applied,
        Err(e) => OpOutcome::failed(e.to_string()),
    }
}

/// Applies the local update `op` at replica `at`, on the document path
/// `path`.
fn local_update(
    states: &mut [YorkieState],
    at: usize,
    op: &OpDescriptor,
    path: &[&str],
) -> OpOutcome {
    if path.is_empty() {
        return OpOutcome::failed("empty document path");
    }
    let doc = &mut states[at].doc;
    match op.function() {
        "set" => {
            let v = op.arg(1).cloned().unwrap_or(Value::Null);
            doc_result(doc.set(path, v))
        }
        "set_object" => {
            let mut entries = BTreeMap::new();
            let mut i = 1;
            while let (Some(k), Some(v)) = (op.arg(i), op.arg(i + 1)) {
                let Some(key) = k.as_shared_str() else {
                    return OpOutcome::failed("set_object keys must be strings");
                };
                entries.insert(Arc::clone(key), v.clone());
                i += 2;
            }
            doc_result(doc.set_object(path, entries))
        }
        "remove" => doc_result(doc.remove(path)),
        "snapshot_keys" => {
            let Some(keys) = doc.view(path).and_then(JsonView::keys) else {
                return OpOutcome::failed("snapshot_keys needs an object path");
            };
            let keys: Vec<String> = keys.map(str::to_owned).collect();
            let observed = keys.iter().map(String::as_str).collect();
            states[at].last_snapshot = Some(keys);
            OpOutcome::observed(observed)
        }
        // The Yorkie-2 misuse pattern: read the object and
        // write it back wholesale ("normalize settings"). Any
        // concurrent sibling write older than this refresh is
        // silently dropped.
        "refresh_object" => {
            let Some(fields) = doc.view(path).and_then(JsonView::entries) else {
                return OpOutcome::failed("refresh_object needs an object path");
            };
            let entries: BTreeMap<Arc<str>, Value> = fields
                .filter_map(|(key, field)| Some((Arc::clone(key), field.as_prim()?.clone())))
                .collect();
            doc_result(doc.set_object(path, entries))
        }
        "new_array" => doc_result(doc.new_array(path)),
        "push" => {
            let v = op.arg(1).cloned().unwrap_or(Value::Null);
            doc_result(doc.arr_push(path, v))
        }
        "move" => {
            let (Some(from), Some(to)) = (
                op.arg(1).and_then(Value::as_int),
                op.arg(2).and_then(Value::as_int),
            ) else {
                return OpOutcome::failed("move needs (path, from, to)");
            };
            doc_result(doc.arr_move(path, from as usize, to as usize))
        }
        "move_naive" => {
            let (Some(from), Some(to)) = (
                op.arg(1).and_then(Value::as_int),
                op.arg(2).and_then(Value::as_int),
            ) else {
                return OpOutcome::failed("move_naive needs (path, from, to)");
            };
            doc_result(doc.arr_move_naive(path, from as usize, to as usize))
        }
        other => OpOutcome::failed(format!("unknown yorkie op {other}")),
    }
}

impl SystemModel for YorkieModel {
    type State = YorkieState;

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn init(&self, replica: ReplicaId) -> YorkieState {
        Shared::new(YorkieReplica {
            doc: Shared::new(JsonDoc::new(replica)),
            inbox: VecDeque::new(),
            last_snapshot: None,
        })
    }

    fn apply(&self, states: &mut [YorkieState], event: &Event) -> OpOutcome {
        let at = event.replica.index();
        match &event.kind {
            EventKind::LocalUpdate { op } => {
                let raw = op.arg(0).and_then(Value::as_str).unwrap_or("");
                with_path(raw, |path| local_update(states, at, op, path))
            }
            EventKind::Sync { to, .. } => {
                if let Some((from, to)) = sender_and_receiver(states, at, to.index()) {
                    to.doc.sync_from(&from.doc);
                }
                OpOutcome::Applied
            }
            EventKind::SyncSend { to, .. } => {
                let receiver_version = states[to.index()].doc.version().clone();
                let ops = states[at].doc.missing_since(&receiver_version);
                states[to.index()].inbox.push_back(ops);
                OpOutcome::Applied
            }
            EventKind::SyncExec { .. } => match states[at].inbox.pop_front() {
                Some(ops) => {
                    // Op by op, each through `DerefMut`: an empty delta
                    // must not un-share the document.
                    for op in &ops {
                        states[at].doc.apply_op(op);
                    }
                    OpOutcome::Applied
                }
                None => OpOutcome::failed("sync exec with empty inbox"),
            },
            EventKind::External { label } => {
                OpOutcome::failed(format!("unsupported external event {label}"))
            }
        }
    }

    fn observe(&self, state: &YorkieState) -> Value {
        // A canonical rendering of the document snapshot.
        fn render(v: &er_pi_rdl::JsonValue) -> Value {
            match v {
                er_pi_rdl::JsonValue::Prim(p) => p.clone(),
                er_pi_rdl::JsonValue::Object(map) => map
                    .iter()
                    .map(|(k, v)| Value::List(vec![Value::from(k.as_str()), render(v)]))
                    .collect(),
                er_pi_rdl::JsonValue::Array(items) => Value::List(items.clone()),
            }
        }
        render(&state.doc.root())
    }

    fn state_encode(&self, state: &YorkieState, out: &mut Vec<u8>) -> bool {
        // The document's canonical form keeps the per-entry LWW timestamps
        // (they steer future conflict resolution), not just the rendered
        // snapshot `observe` exposes.
        state.doc.encode_canonical(out);
        state.inbox.encode_canonical(out);
        state.last_snapshot.encode_canonical(out);
        true
    }

    fn replica_digest(&self, state: &YorkieState) -> Option<u128> {
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

    fn run(model: &YorkieModel, w: &Workload) -> Vec<YorkieState> {
        let mut states = model.init_all();
        for ev in w.events() {
            model.apply(&mut states, ev);
        }
        states
    }

    #[test]
    fn a_path_is_split_on_the_stack_and_past_it_on_the_heap() {
        let segments = |raw: &str| with_path(raw, |path| path.join("/"));
        assert_eq!(segments(".a..b.c."), "a/b/c");
        assert_eq!(segments(""), "");
        let deep: Vec<String> = (0..INLINE_SEGMENTS + 3).map(|i| i.to_string()).collect();
        assert_eq!(segments(&deep.join(".")), deep.join("/"));
    }

    #[test]
    fn set_and_sync() {
        let model = YorkieModel::new(2);
        let mut w = Workload::builder();
        let set = w.update(
            r(0),
            "set",
            [Value::from("profile.name"), Value::from("ada")],
        );
        w.sync_pair(r(0), r(1), set);
        let states = run(&model, &w.build());
        assert_eq!(model.observe(&states[0]), model.observe(&states[1]));
    }

    #[test]
    fn arrays_and_correct_move() {
        let model = YorkieModel::new(2);
        let mut w = Workload::builder();
        w.update(r(0), "new_array", [Value::from("l")]);
        for v in ["x", "y", "z"] {
            w.update(r(0), "push", [Value::from("l"), Value::from(v)]);
        }
        w.update(
            r(0),
            "move",
            [Value::from("l"), Value::from(0), Value::from(2)],
        );
        let states = run(&model, &w.build());
        let doc = states[0].doc.get(&["l"]).unwrap();
        assert_eq!(doc.as_array().unwrap().len(), 3);
    }

    #[test]
    fn naive_move_duplicates_under_concurrency() {
        let model = YorkieModel::new(2);
        let mut w = Workload::builder();
        w.update(r(0), "new_array", [Value::from("l")]);
        for v in ["x", "y", "z"] {
            w.update(r(0), "push", [Value::from("l"), Value::from(v)]);
        }
        let m0 = w.update(
            r(0),
            "move_naive",
            [Value::from("l"), Value::from(0), Value::from(2)],
        );
        let w_pre = w.len();
        let _ = w_pre;
        // Sync the base list to replica 1 BEFORE the move, then both move.
        // Built linearly here for clarity: sync first, then moves, then
        // cross-sync.
        let mut w2 = Workload::builder();
        let mk_arr = w2.update(r(0), "new_array", [Value::from("l")]);
        let mut last = mk_arr;
        for v in ["x", "y", "z"] {
            last = w2.update(r(0), "push", [Value::from("l"), Value::from(v)]);
        }
        w2.sync_pair(r(0), r(1), last);
        w2.update(
            r(0),
            "move_naive",
            [Value::from("l"), Value::from(0), Value::from(2)],
        );
        w2.update(
            r(1),
            "move_naive",
            [Value::from("l"), Value::from(0), Value::from(1)],
        );
        w2.sync_untracked(r(0), r(1));
        w2.sync_untracked(r(1), r(0));
        let states = run(&model, &w2.build());
        let arr = states[0]
            .doc
            .get(&["l"])
            .unwrap()
            .as_array()
            .unwrap()
            .to_vec();
        assert_eq!(
            arr.iter().filter(|v| **v == Value::from("x")).count(),
            2,
            "naive move duplicated under concurrency: {arr:?}"
        );
        let _ = m0;
    }

    #[test]
    fn bad_paths_fail() {
        let model = YorkieModel::new(1);
        let mut states = model.init_all();
        let mut w = Workload::builder();
        let bad = w.update(r(0), "push", [Value::from("missing"), Value::from(1)]);
        let empty = w.update(r(0), "set", [Value::from(""), Value::from(1)]);
        let w = w.build();
        assert!(model.apply(&mut states, w.event(bad)).is_failed());
        assert!(model.apply(&mut states, w.event(empty)).is_failed());
    }

    #[test]
    fn set_object_replaces_subtree() {
        let model = YorkieModel::new(1);
        let mut w = Workload::builder();
        w.update(r(0), "set", [Value::from("obj.a"), Value::from(1)]);
        w.update(r(0), "set", [Value::from("obj.b"), Value::from(2)]);
        w.update(
            r(0),
            "set_object",
            [Value::from("obj"), Value::from("a"), Value::from(10)],
        );
        let states = run(&model, &w.build());
        let obj = states[0].doc.get(&["obj"]).unwrap();
        let map = obj.as_object().unwrap();
        assert_eq!(map.len(), 1, "sibling b was dropped by the replace");
    }
}
