//! Property tests for the copy-on-write cell and the shared structures below
//! it: two handles to one value are observationally independent, whatever is
//! done through either — also after a reset with `clone_from`, which retires
//! the value it displaces and copies into it field by field. And the
//! borrowed reads over them — a document's views and held ops, a log's
//! arrival order, a list's visible items — read what the snapshots and
//! deltas they stand in for copy out.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

use proptest::prelude::*;

use er_pi_model::{CanonicalEncode, Dot, DotContext, ReplicaId, Value, VersionVector};
use er_pi_rdl::{
    fnv1a128, DeltaSync, JsonDoc, JsonValue, Log, LwwTimeSeries, MerkleLog, OrSet, OrSetOp, Rga,
    Shared, StateCrdt, TieBreak,
};

#[derive(Debug, Clone)]
enum Action {
    Insert(i64),
    Remove(i64),
    /// `&self` calls through a `&mut` binding: must never copy.
    Read(i64),
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            (0i64..6).prop_map(Action::Insert),
            (0i64..6).prop_map(Action::Remove),
            (0i64..6).prop_map(Action::Read),
        ],
        0..16,
    )
}

type Cell = Shared<OrSet<i64>>;

fn bytes(cell: &Cell) -> Vec<u8> {
    let mut out = Vec::new();
    cell.encode_canonical(&mut out);
    out
}

/// The digest the way a model asks for it: remembered by the cell.
fn digest(cell: &Cell) -> u128 {
    Shared::digest_with(cell, || Some(fnv1a128(&bytes(cell)))).expect("computed")
}

/// Runs `actions` through `cell`; `twin` shares its value on entry.
/// Returns whether a write went through.
fn drive(cell: &mut Cell, twin: &Cell, actions: &[Action]) -> bool {
    let mut wrote = false;
    for action in actions {
        let handle: &mut Cell = cell;
        match action {
            Action::Insert(v) => {
                handle.insert(*v);
                wrote = true;
            }
            Action::Remove(v) => {
                // A failed remove is still a `&mut self` call: it separates
                // the handles without changing the value.
                handle.remove(v);
                wrote = true;
            }
            Action::Read(v) => {
                let _ = (handle.contains(v), handle.len(), handle.elements());
            }
        }
        assert_eq!(
            Shared::ptr_eq(handle, twin),
            !wrote,
            "reads share, the first write separates: {action:?}"
        );
        // The remembered digest is never stale.
        assert_eq!(digest(handle), fnv1a128(&bytes(handle)));
    }
    wrote
}

proptest! {
    #[test]
    fn handles_are_observationally_independent(
        before in arb_actions(),
        through_b in arb_actions(),
        through_a in arb_actions(),
    ) {
        let mut a: Cell = Shared::new(OrSet::new(ReplicaId::new(0)));
        let untouched = a.clone();
        drive(&mut a, &untouched, &before);
        let (a_bytes, a_digest) = (bytes(&a), digest(&a));

        let mut b = a.clone();
        prop_assert!(Shared::ptr_eq(&a, &b));
        prop_assert_eq!(digest(&b), a_digest);

        let b_wrote = drive(&mut b, &a, &through_b);
        prop_assert_eq!(bytes(&a), a_bytes.clone(), "writes through b showed in a");
        prop_assert_eq!(digest(&a), a_digest);
        prop_assert_eq!(Shared::ptr_eq(&a, &b), !b_wrote);

        let (b_bytes, b_digest) = (bytes(&b), digest(&b));
        let frozen = b.clone();
        let twin = a.clone();
        drive(&mut a, &twin, &through_a);
        prop_assert_eq!(bytes(&b), b_bytes, "writes through a showed in b");
        prop_assert_eq!(digest(&b), b_digest);
        prop_assert!(Shared::ptr_eq(&b, &frozen));

        // What each handle holds is what the same actions build on a value
        // that was never shared.
        let mut alone = OrSet::new(ReplicaId::new(0));
        for action in before.iter().chain(&through_a) {
            match action {
                Action::Insert(v) => {
                    alone.insert(*v);
                }
                Action::Remove(v) => {
                    alone.remove(v);
                }
                Action::Read(_) => {}
            }
        }
        prop_assert_eq!(&*a, &alone);
    }
}

/// Runs `actions` through `cell` the way [`drive`] does, without its checks.
fn apply(cell: &mut Cell, actions: &[Action]) {
    for action in actions {
        match action {
            Action::Insert(v) => drop(cell.insert(*v)),
            Action::Remove(v) => drop(cell.remove(v)),
            Action::Read(v) => drop(cell.contains(v)),
        }
    }
}

proptest! {
    #[test]
    fn a_write_after_a_reset_copies_into_the_value_it_displaced(
        history in arb_actions(),
        stale_writes in arb_actions(),
        writes in arb_actions(),
        displaced_is_shared in any::<bool>(),
    ) {
        let mut snapshot: Cell = Shared::new(OrSet::new(ReplicaId::new(0)));
        apply(&mut snapshot, &history);
        let snapshot_bytes = bytes(&snapshot);
        // A copy that went on from the snapshot, held by this handle alone
        // unless another one holds it too.
        let mut stale = snapshot.clone();
        apply(&mut stale, &[Action::Insert(100)]);
        apply(&mut stale, &stale_writes);
        let holder = displaced_is_shared.then(|| stale.clone());
        let holder_bytes = holder.as_ref().map(bytes);
        let displaced: *const OrSet<i64> = &*stale;

        stale.clone_from(&snapshot);
        // Takes the block a displaced value that was dropped would leave,
        // so a fresh copy cannot land at the displaced value's address.
        let _decoy: Cell = Shared::new(OrSet::new(ReplicaId::new(1)));
        prop_assert!(Shared::ptr_eq(&stale, &snapshot));
        prop_assert_eq!(bytes(&stale), snapshot_bytes.clone());
        apply(&mut stale, &[Action::Insert(101)]);
        apply(&mut stale, &writes);

        let written: *const OrSet<i64> = &*stale;
        prop_assert_eq!(
            written == displaced,
            !displaced_is_shared,
            "the write copies into the displaced value exactly when nothing else held it"
        );
        prop_assert!(!Shared::ptr_eq(&stale, &snapshot));
        prop_assert_eq!(bytes(&snapshot), snapshot_bytes, "the write showed in the snapshot");
        prop_assert_eq!(holder.as_ref().map(bytes), holder_bytes, "the write showed in the holder");
        prop_assert_eq!(digest(&stale), fnv1a128(&bytes(&stale)), "a stale digest");
        // What it holds is what the same writes build on a plain copy.
        let mut plain: Cell = Shared::new((*snapshot).clone());
        apply(&mut plain, &[Action::Insert(101)]);
        apply(&mut plain, &writes);
        prop_assert_eq!(&*stale, &*plain);
        prop_assert_eq!(bytes(&stale), bytes(&plain));
        prop_assert_eq!(format!("{stale:?}"), format!("{plain:?}"));
    }
}

/// One step over [`HANDLES`] cells: a write through one, a reset of one to
/// another's value or to a value no other handle holds, or a clone.
#[derive(Debug, Clone)]
enum ResetAction {
    Write {
        handle: usize,
        action: Action,
    },
    /// `to.clone_from(&from)`: retires what `to` held alone.
    Reset {
        from: usize,
        to: usize,
    },
    /// `to = from.clone()`: a handle on `from`'s value, none of its spares.
    Clone {
        from: usize,
        to: usize,
    },
    /// `to.clone_from(&Shared::new(..))` with a one-element set: `to` then
    /// holds its value alone, and the next reset retires it.
    Fresh {
        to: usize,
        element: i64,
    },
}

fn arb_reset_actions() -> impl Strategy<Value = Vec<ResetAction>> {
    let handle = 0..HANDLES;
    let write = prop_oneof![
        (0i64..6).prop_map(Action::Insert),
        (0i64..6).prop_map(Action::Remove),
    ];
    proptest::collection::vec(
        prop_oneof![
            (handle.clone(), write)
                .prop_map(|(handle, action)| ResetAction::Write { handle, action }),
            (handle.clone(), handle.clone()).prop_map(|(from, to)| ResetAction::Reset { from, to }),
            (handle.clone(), handle.clone()).prop_map(|(from, to)| ResetAction::Clone { from, to }),
            (handle, 0i64..6).prop_map(|(to, element)| ResetAction::Fresh { to, element }),
        ],
        0..64,
    )
}

proptest! {
    /// Several resets from different sources between writes fill and
    /// refill a handle's spares, clones of it share its value but not them,
    /// and writes through any handle copy into them: every handle still holds what the same steps build on values
    /// outside any cell, after every step, with a fresh digest.
    #[test]
    fn handles_reset_from_many_sources_stay_independent(actions in arb_reset_actions()) {
        let fresh = |element: Option<i64>| {
            let mut set = OrSet::new(ReplicaId::new(0));
            if let Some(element) = element {
                set.insert(element);
            }
            set
        };
        let mut cells: Vec<Cell> = (0..HANDLES).map(|_| Shared::new(fresh(None))).collect();
        let mut plain: Vec<OrSet<i64>> = (0..HANDLES).map(|_| fresh(None)).collect();
        for step in &actions {
            match *step {
                ResetAction::Write { handle, ref action } => {
                    apply(&mut cells[handle], std::slice::from_ref(action));
                    match *action {
                        Action::Insert(v) => drop(plain[handle].insert(v)),
                        Action::Remove(v) => drop(plain[handle].remove(&v)),
                        Action::Read(_) => {}
                    }
                }
                ResetAction::Reset { from, to } => {
                    let source = cells[from].clone();
                    cells[to].clone_from(&source);
                    plain[to] = plain[from].clone();
                }
                ResetAction::Clone { from, to } => {
                    cells[to] = cells[from].clone();
                    plain[to] = plain[from].clone();
                }
                ResetAction::Fresh { to, element } => {
                    cells[to].clone_from(&Shared::new(fresh(Some(element))));
                    plain[to] = fresh(Some(element));
                }
            }
            for (cell, plain) in cells.iter().zip(&plain) {
                prop_assert_eq!(&**cell, plain, "after {:?}", step);
                prop_assert_eq!(bytes(cell), encoded(plain));
                prop_assert_eq!(digest(cell), fnv1a128(&bytes(cell)), "a stale digest");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Below the cell: the structures a replica copy shares with its original —
// the op log and the OR-set's entries — against models that share nothing.
// ---------------------------------------------------------------------------

/// Up to this many handles are alive at once.
const HANDLES: usize = 4;

#[derive(Debug, Clone)]
enum HandleAction {
    /// Writes through one handle (what is written is the test's own).
    Write {
        handle: usize,
        arg: i64,
    },
    /// Overwrites `to` with a clone of `from`.
    Clone {
        from: usize,
        to: usize,
    },
    Drop {
        handle: usize,
    },
}

fn arb_handle_actions() -> impl Strategy<Value = Vec<HandleAction>> {
    let handle = 0..HANDLES;
    proptest::collection::vec(
        prop_oneof![
            (handle.clone(), 0i64..6).prop_map(|(handle, arg)| HandleAction::Write { handle, arg }),
            (handle.clone(), handle.clone())
                .prop_map(|(from, to)| HandleAction::Clone { from, to }),
            handle.prop_map(|handle| HandleAction::Drop { handle }),
        ],
        0..48,
    )
}

/// Runs `actions` over `HANDLES` slots of `(subject, model)` pairs, slot 0
/// starting as `fresh()`; `write` applies one write to both halves of a pair
/// and `check` compares them. Every live pair is checked after every action,
/// so a write that leaks through shared structure into another handle shows
/// at the step that made it.
fn drive_handles<S: Clone, M: Clone>(
    actions: &[HandleAction],
    fresh: impl Fn() -> (S, M),
    write: impl Fn(&mut (S, M), i64),
    check: impl Fn(&(S, M)),
) {
    let mut slots: Vec<Option<(S, M)>> = vec![None; HANDLES];
    slots[0] = Some(fresh());
    for action in actions {
        match *action {
            HandleAction::Write { handle, arg } => {
                write(slots[handle].get_or_insert_with(&fresh), arg)
            }
            HandleAction::Clone { from, to } => slots[to] = slots[from].clone(),
            HandleAction::Drop { handle } => slots[handle] = None,
        }
        slots.iter().flatten().for_each(&check);
    }
}

fn encoded<T: CanonicalEncode>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_canonical(&mut out);
    out
}

/// The OR-set as it was before its entries and log were shared: a
/// `BTreeMap` of tag vectors and a `Vec` of operations, deep-copied by
/// `clone`. Kept here as the reference the shared one is checked against.
#[derive(Debug, Clone)]
struct PlainOrSet {
    replica: ReplicaId,
    entries: BTreeMap<i64, Vec<Dot>>,
    removed_tags: BTreeSet<Dot>,
    log: Vec<OrSetOp<i64>>,
    ctx: DotContext,
}

impl PlainOrSet {
    fn new(replica: ReplicaId) -> Self {
        PlainOrSet {
            replica,
            entries: BTreeMap::new(),
            removed_tags: BTreeSet::new(),
            log: Vec::new(),
            ctx: DotContext::new(),
        }
    }

    fn insert(&mut self, element: i64) {
        let dot = self.ctx.next_dot(self.replica);
        self.record(OrSetOp::Add { element, dot });
    }

    fn remove(&mut self, element: i64) -> bool {
        let Some(observed) = self.entries.get(&element).filter(|tags| !tags.is_empty()) else {
            return false;
        };
        let observed = observed.clone().into();
        let dot = self.ctx.next_dot(self.replica);
        self.record(OrSetOp::Remove {
            element,
            observed,
            dot,
        });
        true
    }

    fn apply_op(&mut self, op: &OrSetOp<i64>) {
        if !self.ctx.contains(op.dot()) {
            self.ctx.add(op.dot());
            self.record(op.clone());
        }
    }

    fn record(&mut self, op: OrSetOp<i64>) {
        match &op {
            OrSetOp::Add { element, dot } => {
                if !self.removed_tags.contains(dot) {
                    let tags = self.entries.entry(*element).or_default();
                    if !tags.contains(dot) {
                        tags.push(*dot);
                    }
                }
            }
            OrSetOp::Remove {
                element, observed, ..
            } => {
                self.removed_tags.extend(observed.as_slice());
                if let Some(tags) = self.entries.get_mut(element) {
                    tags.retain(|t| !observed.as_slice().contains(t));
                }
            }
        }
        self.log.push(op);
    }

    fn visible(&self) -> Vec<i64> {
        let live = self.entries.iter().filter(|(_, tags)| !tags.is_empty());
        live.map(|(element, _)| *element).collect()
    }
}

impl CanonicalEncode for PlainOrSet {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.replica.encode_canonical(out);
        self.entries.encode_canonical(out);
        self.removed_tags.encode_canonical(out);
        self.log.encode_canonical(out);
        self.ctx.encode_canonical(out);
    }
}

proptest! {
    #[test]
    fn a_log_is_a_vec_through_any_number_of_handles(actions in arb_handle_actions()) {
        drive_handles(
            &actions,
            || (Log::<String>::new(), Vec::<String>::new()),
            |(log, model), arg| {
                let item = format!("item-{arg}-{}", model.len());
                assert_eq!(&**log.push(item.clone()), &item);
                model.push(item);
            },
            |(log, model)| {
                assert!(log.iter().eq(model.iter()), "{log:?} is not {model:?}");
                assert!(log.iter().rev().eq(model.iter().rev()));
                assert_eq!((log.len(), log.is_empty()), (model.len(), model.is_empty()));
                assert_eq!(log.last(), model.last());
                assert_eq!(encoded(log), encoded(model));
                assert_eq!(format!("{log:?}"), format!("{model:?}"));
            },
        );
    }

    #[test]
    fn a_shared_or_set_is_the_plain_one_through_any_number_of_handles(
        actions in arb_handle_actions(),
        peer_adds in proptest::collection::vec(0i64..6, 0..4),
    ) {
        // A second replica's adds, for writes that arrive by sync: the same
        // element under another tag, and tags a remove has not observed.
        let mut peer = OrSet::new(ReplicaId::new(1));
        let remote: Vec<_> = peer_adds.iter().map(|v| peer.insert(*v).clone()).collect();
        drive_handles(
            &actions,
            || (OrSet::new(ReplicaId::new(0)), PlainOrSet::new(ReplicaId::new(0))),
            |(set, plain), arg| match arg % 3 {
                0 => {
                    set.insert(arg);
                    plain.insert(arg);
                }
                1 => assert_eq!(set.remove(&(arg - 1)).is_some(), plain.remove(arg - 1)),
                _ => {
                    for op in &remote {
                        set.apply_op(op);
                        plain.apply_op(op);
                    }
                }
            },
            |(set, plain)| {
                assert_eq!(encoded(set), encoded(plain));
                assert!(set.iter().eq(plain.visible().iter()));
                let shipped = set.missing_since(&VersionVector::new());
                assert!(shipped.iter().map(|op| &**op).eq(plain.log.iter()));
            },
        );
    }
}

/// One step on one of two replicas: `(kind, replica, path or index, a, b)`,
/// interpreted by each of `docs`, `logs` and `lists` below. Each has a
/// delivery step that hands a single op of the other replica over, out of
/// order if it picks one, so buffered and rejected ops are in play.
type Step = (u8, usize, usize, i64, usize);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..10, 0usize..2, 0usize..8, 0i64..6, 0usize..6), 0..32)
}

/// A payload: an integer or a string, so a read must tell them apart.
fn payload(a: i64) -> Value {
    if a % 2 == 0 {
        Value::from(a)
    } else {
        Value::from(format!("s{a}"))
    }
}

/// The paths the document steps write to and the properties read at: the
/// root, objects, leaves under them, the two array paths (4 and 5), and a
/// path through a leaf.
const PATHS: [&[&str]; 8] = [
    &[],
    &["a"],
    &["a", "x"],
    &["a", "y"],
    &["l"],
    &["a", "l"],
    &["b"],
    &["b", "x", "z"],
];

/// Hands `to` the `pick`-th op `from` holds that `to` has not seen.
fn deliver<T: DeltaSync>(from: &T, to: &mut T, pick: usize) {
    let missing = from.missing_since(to.version());
    if !missing.is_empty() {
        to.apply_op(&missing[pick % missing.len()]);
    }
}

/// The replica a step acts on, and the other one.
fn acting<T>(pair: &mut [T; 2], replica: usize) -> (&mut T, &mut T) {
    let [first, second] = pair;
    if replica == 0 {
        (first, second)
    } else {
        (second, first)
    }
}

/// `pair` after `steps`, each applied with `step`.
fn run<T>(mut pair: [T; 2], steps: &[Step], step: fn(&mut [T; 2], Step)) -> [T; 2] {
    for &s in steps {
        step(&mut pair, s);
    }
    pair
}

fn fresh_docs() -> [JsonDoc; 2] {
    [
        JsonDoc::new(ReplicaId::new(0)),
        JsonDoc::new(ReplicaId::new(1)),
    ]
}

fn doc_step(docs: &mut [JsonDoc; 2], (kind, replica, path, a, b): Step) {
    let (doc, other) = acting(docs, replica);
    // Array steps go to the two array paths, the rest anywhere.
    let at = match kind {
        3..=7 => PATHS[4 + path % 2],
        _ => PATHS[path.max(1)],
    };
    // A step that does not apply (no array there, index out of range)
    // leaves the document as it was.
    let _ = match kind {
        0 => doc.set(at, payload(a)).map(drop),
        1 => {
            let entries = (0..b % 3).map(|i| (format!("k{i}").into(), payload(a + i as i64)));
            doc.set_object(at, entries.collect()).map(drop)
        }
        2 => doc.remove(at).map(drop),
        3 => doc.new_array(at).map(drop),
        4 | 5 => doc.arr_push(at, payload(a)).map(drop),
        6 => doc.arr_delete(at, b).map(drop),
        7 => doc.arr_move_naive(at, a as usize, b).map(drop),
        8 => {
            deliver(other, doc, b);
            Ok(())
        }
        _ => {
            doc.sync_from(other);
            Ok(())
        }
    };
}

/// Two documents after `steps`.
fn docs(steps: &[Step]) -> [JsonDoc; 2] {
    run(fresh_docs(), steps, doc_step)
}

/// Two Merkle logs, the second rejecting far-future clocks.
fn fresh_logs() -> [MerkleLog; 2] {
    let mut logs = [
        MerkleLog::new(ReplicaId::new(0), "a"),
        MerkleLog::new(ReplicaId::new(1), "b"),
    ];
    logs[1].set_max_clock_skew(Some(8));
    logs
}

fn log_step(logs: &mut [MerkleLog; 2], (kind, replica, _, a, b): Step) {
    let (log, other) = acting(logs, replica);
    match kind {
        0..=5 => drop(log.append(payload(a))),
        6 => log.force_clock(log.clock_time() + 16 * a as u64),
        7 | 8 => deliver(other, log, b),
        _ => log.sync_from(other),
    }
}

/// Two Merkle logs after `steps`.
fn logs(steps: &[Step]) -> [MerkleLog; 2] {
    run(fresh_logs(), steps, log_step)
}

fn fresh_lists() -> [Rga<Value>; 2] {
    [Rga::new(ReplicaId::new(0)), Rga::new(ReplicaId::new(1))]
}

fn list_step(lists: &mut [Rga<Value>; 2], (kind, replica, at, a, b): Step) {
    let (list, other) = acting(lists, replica);
    match kind {
        0..=2 => drop(list.push(payload(a))),
        3 => drop(list.insert(at.min(list.len()), payload(a))),
        4 => drop(list.delete(b)),
        5 => drop(list.move_item(at, b)),
        6 => drop(list.move_naive(at, b)),
        7 | 8 => deliver(other, list, b),
        _ => list.sync_from(other),
    }
}

/// Two lists after `steps`.
fn lists(steps: &[Step]) -> [Rga<Value>; 2] {
    run(fresh_lists(), steps, list_step)
}

fn fresh_sets() -> [OrSet<i64>; 2] {
    [OrSet::new(ReplicaId::new(0)), OrSet::new(ReplicaId::new(1))]
}

fn set_step(sets: &mut [OrSet<i64>; 2], (kind, replica, _, a, b): Step) {
    let (set, other) = acting(sets, replica);
    match kind {
        0..=3 => drop(set.insert(a)),
        4..=6 => drop(set.remove(&a)),
        7 | 8 => deliver(other, set, b),
        _ => set.sync_from(other),
    }
}

fn fresh_series() -> [LwwTimeSeries; 2] {
    [
        LwwTimeSeries::new(TieBreak::InsertWins),
        LwwTimeSeries::new(TieBreak::InsertWins),
    ]
}

fn series_step(series: &mut [LwwTimeSeries; 2], (kind, replica, key, a, b): Step) {
    let (store, other) = acting(series, replica);
    let (key, member, score) = (format!("k{}", key % 3), format!("m{a}"), b as u64);
    match kind {
        0..=4 => drop(store.insert(key, member, score)),
        5..=7 => drop(store.delete(key, member, score)),
        _ => store.merge(other),
    }
}

fn fresh_op_logs() -> [Log<String>; 2] {
    [Log::new(), Log::new()]
}

/// A push of a new item, or of the other log's last one.
fn op_log_step(logs: &mut [Log<String>; 2], (kind, replica, _, a, _): Step) {
    let (log, other) = acting(logs, replica);
    match (kind, other.shared().last()) {
        (0..=6, _) | (_, None) => drop(log.push(format!("item-{a}-{}", log.len()))),
        (_, Some(item)) => drop(log.push_shared(std::sync::Arc::clone(item))),
    }
}

/// `clone_from` is `clone`, however much of its history the stale copy
/// shares: two pairs go on from one `history` along `left` and `right`,
/// `b.clone_from(&a)` makes the second equal to the first — in value, in
/// canonical bytes and in `Debug` — and after it writes to either one are
/// invisible to the other.
fn assert_clone_from_is_clone<T: Clone + PartialEq + Debug + CanonicalEncode>(
    fresh: [T; 2],
    [history, left, right, after]: &[Vec<Step>; 4],
    step: fn(&mut [T; 2], Step),
) {
    let base = run(fresh, history, step);
    let a = run(base.clone(), left, step);
    let mut b = run(base, right, step);
    for (mine, theirs) in b.iter_mut().zip(&a) {
        mine.clone_from(theirs);
    }
    let view = |pair: &[T; 2]| (pair.each_ref().map(encoded), format!("{pair:?}"));
    assert_eq!(b, a);
    assert_eq!(view(&b), view(&a), "canonical bytes and Debug");
    let a_was = view(&a);
    let b = run(b, after, step);
    assert_eq!(view(&a), a_was, "a write to the copy showed in its source");
    let b_was = view(&b);
    let a = run(a, after, step);
    assert_eq!(view(&b), b_was, "a write to the source showed in its copy");
    assert_eq!(a, b, "the same steps from equal values");
}

fn arb_histories() -> impl Strategy<Value = [Vec<Step>; 4]> {
    (arb_steps(), arb_steps(), arb_steps(), arb_steps()).prop_map(|(h, l, r, a)| [h, l, r, a])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_log_copied_over_a_stale_one_is_its_clone(steps in arb_histories()) {
        assert_clone_from_is_clone(fresh_op_logs(), &steps, op_log_step);
    }

    #[test]
    fn an_or_set_copied_over_a_stale_one_is_its_clone(steps in arb_histories()) {
        assert_clone_from_is_clone(fresh_sets(), &steps, set_step);
    }

    #[test]
    fn a_list_copied_over_a_stale_one_is_its_clone(steps in arb_histories()) {
        assert_clone_from_is_clone(fresh_lists(), &steps, list_step);
    }

    #[test]
    fn a_document_copied_over_a_stale_one_is_its_clone(steps in arb_histories()) {
        assert_clone_from_is_clone(fresh_docs(), &steps, doc_step);
    }

    #[test]
    fn a_merkle_log_copied_over_a_stale_one_is_its_clone(steps in arb_histories()) {
        assert_clone_from_is_clone(fresh_logs(), &steps, log_step);
    }

    #[test]
    fn a_time_series_copied_over_a_stale_one_is_its_clone(steps in arb_histories()) {
        assert_clone_from_is_clone(fresh_series(), &steps, series_step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_document_view_reads_what_its_snapshot_copies(steps in arb_steps()) {
        let docs = docs(&steps);
        for doc in &docs {
            for path in PATHS {
                let (view, snapshot) = (doc.view(path), doc.get(path));
                prop_assert_eq!(view.map(|v| v.to_json()), snapshot.clone(), "{:?}", path);
                let Some(view) = view else { continue };
                let snapshot = snapshot.expect("a view has a snapshot");
                prop_assert_eq!(view.as_prim(), snapshot.as_prim());
                let keys = snapshot.as_object().map(|map| map.keys().map(String::as_str).collect());
                prop_assert_eq!(view.keys().map(Iterator::collect::<Vec<_>>), keys);
                let items = snapshot.as_array().map(|items| items.iter().collect());
                prop_assert_eq!(view.items().map(Iterator::collect::<Vec<_>>), items);
            }
            prop_assert_eq!(doc.root_view().to_json(), doc.root());
        }
        let [a, b] = &docs;
        prop_assert_eq!(a.root_view() == b.root_view(), a.root() == b.root());
        for path in PATHS {
            prop_assert_eq!(a.view(path) == b.view(path), a.get(path) == b.get(path));
        }
    }

    #[test]
    fn visible_tree_equality_agrees_with_snapshots_once_synced(steps in arb_steps()) {
        // Synced documents are mostly equal, which arbitrary ones rarely are.
        let [mut a, mut b] = docs(&steps);
        a.sync_from(&b);
        b.sync_from(&a);
        prop_assert_eq!(a.root_view() == b.root_view(), a.root() == b.root());
        let copy = a.clone();
        prop_assert!(a.root_view() == copy.root_view());
        // A key no step writes: the trees now differ by it.
        b.set(&["fresh"], Value::from(1)).expect("a set applies");
        prop_assert!(a.root() != b.root());
        prop_assert!(a.root_view() != b.root_view());
        prop_assert!(matches!(b.get(&["fresh"]), Some(JsonValue::Prim(_))));
    }

    #[test]
    fn held_ops_and_arrival_order_are_what_an_empty_version_ships(steps in arb_steps()) {
        let empty = VersionVector::new();
        for doc in &docs(&steps) {
            let shipped = doc.missing_since(&empty);
            prop_assert!(doc.ops().eq(shipped.iter().map(|op| &**op)));
        }
        for log in &logs(&steps) {
            let shipped = log.missing_since(&empty);
            prop_assert!(log.arrival().eq(shipped.iter().map(|entry| &entry.payload)));
            prop_assert_eq!(log.arrival().count(), log.len());
        }
    }

    #[test]
    fn a_list_reads_its_visible_items_in_place(steps in arb_steps()) {
        for list in &lists(&steps) {
            let values = list.values();
            prop_assert!(list.visible().eq(values.iter().copied()));
            prop_assert_eq!(list.visible().count(), list.len());
            for (i, value) in values.iter().enumerate() {
                prop_assert_eq!(list.get(i), Some(*value));
            }
            prop_assert_eq!(list.get(values.len()), None);
        }
    }
}
