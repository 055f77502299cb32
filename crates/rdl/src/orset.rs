//! Observed-remove set (add-wins), with op-based delta synchronization.

use std::collections::{BTreeMap, BTreeSet};

use er_pi_model::{CanonicalEncode, Dot, DotContext, ReplicaId, VersionVector};
use serde::{Deserialize, Serialize};

use crate::{DeltaSync, StateCrdt};

/// One replicated operation of an [`OrSet`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrSetOp<T> {
    /// Adds `element` under the unique tag `dot`.
    Add {
        /// Added element.
        element: T,
        /// Unique add tag.
        dot: Dot,
    },
    /// Removes the *observed* add tags of `element`.
    Remove {
        /// Removed element.
        element: T,
        /// The add tags observed at the remover; only these die.
        observed: Vec<Dot>,
        /// Unique tag of the remove itself (for delta bookkeeping).
        dot: Dot,
    },
}

impl<T> OrSetOp<T> {
    /// The operation's own unique tag.
    pub fn dot(&self) -> Dot {
        match self {
            OrSetOp::Add { dot, .. } | OrSetOp::Remove { dot, .. } => *dot,
        }
    }
}

/// An observed-remove set: adds win over concurrent removes.
///
/// Every add gets a unique tag; a remove kills exactly the tags the removing
/// replica has *observed*. A concurrent add (with a tag the remover never
/// saw) survives — the "add-wins" conflict resolution of the motivating
/// example's issue-reporting app.
///
/// The type is simultaneously state-based ([`StateCrdt::merge`]) and
/// op-based ([`DeltaSync`]); the op log is retained for delta computation.
///
/// ```
/// use er_pi_model::ReplicaId;
/// use er_pi_rdl::{DeltaSync, OrSet};
///
/// let mut a = OrSet::new(ReplicaId::new(0));
/// let mut b = OrSet::new(ReplicaId::new(1));
///
/// a.insert("otb");
/// b.sync_from(&a); // b observes the add
/// b.remove(&"otb");
/// a.sync_from(&b);
/// assert!(!a.contains(&"otb")); // observed remove took effect
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrSet<T: Ord> {
    replica: ReplicaId,
    /// Live add-tags per element.
    entries: BTreeMap<T, Vec<Dot>>,
    /// Add-tags already killed by a remove (so late-arriving adds with a
    /// removed tag do not resurrect the element under reordered delivery).
    removed_tags: BTreeSet<Dot>,
    /// Full op history (for delta sync).
    log: Vec<OrSetOp<T>>,
    ctx: DotContext,
}

impl<T: Ord + Clone> OrSet<T> {
    /// Creates an empty set owned by `replica`.
    pub fn new(replica: ReplicaId) -> Self {
        OrSet {
            replica,
            entries: BTreeMap::new(),
            removed_tags: BTreeSet::new(),
            log: Vec::new(),
            ctx: DotContext::new(),
        }
    }

    /// The replica this handle mutates on behalf of.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Adds `element`; always succeeds (fresh unique tag). Returns the
    /// generated operation, already applied locally and logged (clone it to
    /// ship it by hand).
    pub fn insert(&mut self, element: T) -> &OrSetOp<T> {
        let dot = self.ctx.next_dot(self.replica);
        self.record(OrSetOp::Add { element, dot })
    }

    /// Removes `element` if visible. Returns the generated operation, or
    /// `None` if the element is absent (a failed op — nothing to observe).
    pub fn remove(&mut self, element: &T) -> Option<&OrSetOp<T>> {
        let observed = self.entries.get(element)?.clone();
        if observed.is_empty() {
            return None;
        }
        let dot = self.ctx.next_dot(self.replica);
        Some(self.record(OrSetOp::Remove {
            element: element.clone(),
            observed,
            dot,
        }))
    }

    /// Integrates `op` and moves it into the log.
    fn record(&mut self, op: OrSetOp<T>) -> &OrSetOp<T> {
        self.integrate(&op);
        self.log.push(op);
        self.log.last().expect("just pushed")
    }

    /// Membership test.
    pub fn contains(&self, element: &T) -> bool {
        self.entries
            .get(element)
            .is_some_and(|tags| !tags.is_empty())
    }

    /// Iterates over the visible elements, in sorted order, without
    /// collecting them.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries
            .iter()
            .filter(|(_, tags)| !tags.is_empty())
            .map(|(e, _)| e)
    }

    /// Visible elements, in sorted order.
    pub fn elements(&self) -> Vec<&T> {
        self.iter().collect()
    }

    /// Number of visible elements.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Returns `true` if no element is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn integrate(&mut self, op: &OrSetOp<T>) {
        match op {
            OrSetOp::Add { element, dot } => {
                if self.removed_tags.contains(dot) {
                    return; // this tag was already killed by a remove
                }
                let tags = self.entries.entry(element.clone()).or_default();
                if !tags.contains(dot) {
                    tags.push(*dot);
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
    }
}

impl<T: Ord + Clone> DeltaSync for OrSet<T> {
    type Op = OrSetOp<T>;

    fn missing_since(&self, since: &VersionVector) -> Vec<OrSetOp<T>> {
        self.log
            .iter()
            .filter(|op| !since.contains(op.dot()))
            .cloned()
            .collect()
    }

    fn apply_op(&mut self, op: &OrSetOp<T>) {
        if !self.ctx.contains(op.dot()) {
            self.apply_owned(op.clone());
        }
    }

    fn apply_owned(&mut self, op: OrSetOp<T>) {
        if self.ctx.contains(op.dot()) {
            return; // redelivery: idempotent
        }
        self.ctx.add(op.dot());
        self.record(op);
    }

    fn version(&self) -> &VersionVector {
        self.ctx.vector()
    }
}

impl<T: Ord + Clone> StateCrdt for OrSet<T> {
    fn merge(&mut self, other: &Self) {
        self.sync_from(other);
    }
}

impl<T: CanonicalEncode> CanonicalEncode for OrSetOp<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        match self {
            OrSetOp::Add { element, dot } => {
                out.push(0);
                element.encode_canonical(out);
                dot.encode_canonical(out);
            }
            OrSetOp::Remove {
                element,
                observed,
                dot,
            } => {
                out.push(1);
                element.encode_canonical(out);
                observed.encode_canonical(out);
                dot.encode_canonical(out);
            }
        }
    }
}

/// Canonical encoding of the *complete* behavioral state.
///
/// Subsumption soundness demands that equal encodings imply equal future
/// behavior under any suffix of events, so every field that influences a
/// future operation is included: the visible entries *and* their add-tags
/// (observed removes kill exactly these), the removed-tag tombstones
/// (resurrection protection), the full op log in arrival order (delta sync
/// replays it), the dot context (idempotent redelivery + tag allocation),
/// and the owning replica id. This is strictly stronger than hashing
/// `elements()`, which is a lossy projection.
impl<T: Ord + CanonicalEncode> CanonicalEncode for OrSet<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.replica.encode_canonical(out);
        (self.entries.len() as u64).encode_canonical(out);
        for (element, tags) in &self.entries {
            element.encode_canonical(out);
            tags.encode_canonical(out);
        }
        (self.removed_tags.len() as u64).encode_canonical(out);
        for dot in &self.removed_tags {
            dot.encode_canonical(out);
        }
        self.log.encode_canonical(out);
        self.ctx.encode_canonical(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn insert_and_contains() {
        let mut s = OrSet::new(r(0));
        s.insert(1);
        assert!(s.contains(&1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.elements(), vec![&1]);
        s.insert(0);
        s.insert(2);
        s.remove(&1);
        assert!(s.iter().eq([&0, &2]), "visible elements only, sorted");
        assert_eq!(s.elements(), vec![&0, &2]);
    }

    #[test]
    fn remove_of_absent_is_failed_op() {
        let mut s: OrSet<i32> = OrSet::new(r(0));
        assert!(s.remove(&1).is_none());
    }

    #[test]
    fn observed_remove_kills_synced_adds() {
        let mut a = OrSet::new(r(0));
        let mut b = OrSet::new(r(1));
        a.insert("x");
        b.sync_from(&a);
        assert!(b.contains(&"x"));
        b.remove(&"x");
        a.sync_from(&b);
        assert!(!a.contains(&"x"));
        assert!(!b.contains(&"x"));
    }

    #[test]
    fn concurrent_add_survives_remove_add_wins() {
        let mut a = OrSet::new(r(0));
        let mut b = OrSet::new(r(1));
        a.insert("x");
        b.sync_from(&a);
        // Concurrently: b removes, a re-adds with a fresh tag.
        b.remove(&"x");
        a.insert("x");
        a.sync_from(&b);
        b.sync_from(&a);
        // The fresh add was never observed by b's remove: it survives.
        assert!(a.contains(&"x"));
        assert!(b.contains(&"x"));
    }

    #[test]
    fn unsynced_remove_does_not_kill_unseen_add() {
        // The motivating example's bug scenario: B removes "otb" WITHOUT
        // having observed A's add — the remove is a no-op on the tag level.
        let mut a = OrSet::new(r(0));
        let mut b = OrSet::new(r(1));
        a.insert("otb");
        // b never synced: remove fails locally.
        assert!(b.remove(&"otb").is_none());
        b.sync_from(&a);
        assert!(b.contains(&"otb"));
    }

    #[test]
    fn redelivery_is_idempotent() {
        let mut a = OrSet::new(r(0));
        let op = a.insert(7);
        let mut b = OrSet::new(r(1));
        b.apply_op(op);
        let before = b.clone();
        b.apply_op(op);
        b.apply_owned(op.clone());
        assert_eq!(b, before);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn delta_contains_only_missing_ops() {
        let mut a = OrSet::new(r(0));
        a.insert(1);
        let mut b = OrSet::new(r(1));
        b.sync_from(&a);
        a.insert(2);
        let delta = a.missing_since(b.version());
        assert_eq!(delta.len(), 1);
        assert!(matches!(&delta[0], OrSetOp::Add { element: 2, .. }));
    }

    #[test]
    fn three_replica_convergence_any_order() {
        let mut a = OrSet::new(r(0));
        let mut b = OrSet::new(r(1));
        let mut c = OrSet::new(r(2));
        let op1 = a.insert("p").clone();
        let op2 = b.insert("q").clone();
        let op3 = b.insert("r").clone();
        // c receives ops out of order and duplicated.
        c.apply_op(&op3);
        c.apply_op(&op1);
        c.apply_op(&op2);
        c.apply_op(&op1);
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.elements(), c.elements());
        assert_eq!(b.elements(), c.elements());
        assert_eq!(c.len(), 3);
    }

    fn enc<T: Ord + Clone + CanonicalEncode>(s: &OrSet<T>) -> Vec<u8> {
        let mut out = Vec::new();
        s.encode_canonical(&mut out);
        out
    }

    #[test]
    fn canonical_encoding_is_deterministic_and_clone_stable() {
        let mut a = OrSet::new(r(0));
        a.insert("x");
        a.insert("y");
        a.remove(&"x");
        assert_eq!(enc(&a), enc(&a));
        assert_eq!(enc(&a), enc(&a.clone()));
    }

    #[test]
    fn canonical_encoding_sees_past_the_visible_projection() {
        // Same `elements()` on both sides, but different hidden state: a
        // remove left tombstones + log entries behind. A digest of the
        // visible set would wrongly subsume these; the canonical encoding
        // must distinguish them.
        let mut a = OrSet::new(r(0));
        a.insert("x");
        let mut b = a.clone();
        b.insert("tmp");
        b.remove(&"tmp");
        assert_eq!(a.elements(), b.elements());
        assert_ne!(enc(&a), enc(&b));
    }

    #[test]
    fn canonical_encoding_includes_replica_identity() {
        let a: OrSet<i32> = OrSet::new(r(0));
        let b: OrSet<i32> = OrSet::new(r(1));
        assert_ne!(enc(&a), enc(&b));
    }

    #[test]
    fn merge_matches_sync_semantics() {
        let mut a = OrSet::new(r(0));
        let mut b = OrSet::new(r(1));
        a.insert(1);
        b.insert(2);
        let c = a.merged(&b);
        assert_eq!(c.len(), 2);
        // Idempotent.
        assert_eq!(c.merged(&c).elements(), c.elements());
    }
}
