//! Property tests for the copy-on-write cell and the shared structures below
//! it: two handles to one value are observationally independent, whatever is
//! done through either.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use er_pi_model::{CanonicalEncode, Dot, DotContext, ReplicaId, VersionVector};
use er_pi_rdl::{fnv1a128, DeltaSync, Log, OrSet, OrSetOp, Shared};

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
        let observed = observed.clone();
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
                self.removed_tags.extend(observed.iter().copied());
                if let Some(tags) = self.entries.get_mut(element) {
                    tags.retain(|t| !observed.contains(t));
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
