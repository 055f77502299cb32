//! Observed-remove set (add-wins), with op-based delta synchronization.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use er_pi_model::{CanonicalEncode, Dot, DotContext, ReplicaId, VersionVector};
use serde::{content_get, Content, DeError, Deserialize, Serialize};

use crate::copy::{clone_arc_from, clone_set_from};
use crate::{DeltaSync, Log, StateCrdt};

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
        /// The add tags observed at the remover; only these die. One tag
        /// inline (an element nearly always has exactly one), so the remove
        /// copies the entry's tag list without a block of its own.
        observed: AddTags,
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

    /// The element the operation adds or removes.
    pub fn element(&self) -> &T {
        match self {
            OrSetOp::Add { element, .. } | OrSetOp::Remove { element, .. } => element,
        }
    }
}

/// The live add-tags of one element, in arrival order. An element nearly
/// always has exactly one, which is stored inline: an entry then owns no
/// block of its own, and copying a set copies one array.
#[derive(Debug, Clone)]
enum Tags {
    None,
    One(Dot),
    /// Two or more when built; a remove may leave fewer behind.
    Many(Vec<Dot>),
}

impl Tags {
    fn as_slice(&self) -> &[Dot] {
        match self {
            Tags::None => &[],
            Tags::One(dot) => std::slice::from_ref(dot),
            Tags::Many(dots) => dots,
        }
    }

    fn push(&mut self, dot: Dot) {
        match self {
            Tags::None => *self = Tags::One(dot),
            Tags::One(first) => *self = Tags::Many(vec![*first, dot]),
            Tags::Many(dots) => dots.push(dot),
        }
    }

    fn retain(&mut self, keep: impl Fn(&Dot) -> bool) {
        match self {
            Tags::None => {}
            Tags::One(dot) => {
                if !keep(dot) {
                    *self = Tags::None;
                }
            }
            Tags::Many(dots) => dots.retain(keep),
        }
    }
}

impl From<Vec<Dot>> for Tags {
    fn from(dots: Vec<Dot>) -> Self {
        match dots[..] {
            [] => Tags::None,
            [dot] => Tags::One(dot),
            _ => Tags::Many(dots),
        }
    }
}

/// The add tags a remove of an [`OrSet`] element observed, in arrival
/// order: a copy of the element's live tags. The one tag an element nearly
/// always has is stored inline, so the copy owns no block.
///
/// It reads as the slice [`as_slice`](AddTags::as_slice) returns: equality,
/// `Debug`, the canonical encoding and serde (a plain sequence of dots)
/// are the slice's, however the tags are stored.
#[derive(Clone)]
pub struct AddTags(Tags);

impl AddTags {
    /// The tags, in arrival order.
    pub fn as_slice(&self) -> &[Dot] {
        self.0.as_slice()
    }
}

impl From<Vec<Dot>> for AddTags {
    fn from(dots: Vec<Dot>) -> Self {
        AddTags(dots.into())
    }
}

impl PartialEq for AddTags {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AddTags {}

impl std::fmt::Debug for AddTags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Serialize for AddTags {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl Deserialize for AddTags {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Vec::<Dot>::from_content(content).map(AddTags::from)
    }
}

impl CanonicalEncode for AddTags {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.as_slice().encode_canonical(out);
    }
}

/// One element that was ever added, with its live tags. The element is not
/// stored a second time: it is read out of the add that introduced it,
/// which the log holds too.
#[derive(Debug)]
struct Entry<T> {
    introduced_by: Arc<OrSetOp<T>>,
    tags: Tags,
}

impl<T> Clone for Entry<T> {
    fn clone(&self) -> Self {
        let Entry {
            introduced_by,
            tags,
        } = self;
        Entry {
            introduced_by: Arc::clone(introduced_by),
            tags: tags.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Entry {
            introduced_by,
            tags,
        } = source;
        clone_arc_from(&mut self.introduced_by, introduced_by);
        self.tags.clone_from(tags);
    }
}

impl<T> Entry<T> {
    fn element(&self) -> &T {
        self.introduced_by.element()
    }
}

impl<T: PartialEq> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.element() == other.element() && self.tags.as_slice() == other.tags.as_slice()
    }
}

impl<T: Eq> Eq for Entry<T> {}

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
/// A clone shares every operation and every element with the original (see
/// [`Log`]); it allocates the log's array, the entry array and the tree of
/// removed tags (when there are any), whatever the set holds. `clone_from`
/// copies into those: over a stale copy of the same set it allocates only
/// where the source outgrew them.
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
#[derive(Debug, PartialEq, Eq)]
pub struct OrSet<T: Ord> {
    replica: ReplicaId,
    /// One entry per element ever added, sorted by element.
    entries: Vec<Entry<T>>,
    /// Add-tags already killed by a remove (so late-arriving adds with a
    /// removed tag do not resurrect the element under reordered delivery).
    removed_tags: BTreeSet<Dot>,
    /// Full op history (for delta sync).
    log: Log<OrSetOp<T>>,
    ctx: DotContext,
}

impl<T: Ord + Clone> OrSet<T> {
    /// Creates an empty set owned by `replica`.
    pub fn new(replica: ReplicaId) -> Self {
        OrSet {
            replica,
            entries: Vec::new(),
            removed_tags: BTreeSet::new(),
            log: Log::new(),
            ctx: DotContext::new(),
        }
    }

    /// The replica this handle mutates on behalf of.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Adds `element`; always succeeds (fresh unique tag). Returns the
    /// generated operation, already applied locally and logged (clone the
    /// handle to ship it by hand).
    pub fn insert(&mut self, element: T) -> &Arc<OrSetOp<T>> {
        let dot = self.ctx.next_dot(self.replica);
        self.record(Arc::new(OrSetOp::Add { element, dot }))
    }

    /// Removes `element` if visible. Returns the generated operation, or
    /// `None` if the element is absent (a failed op — nothing to observe).
    /// Like a map lookup, takes any borrowed form of the element.
    pub fn remove<Q>(&mut self, element: &Q) -> Option<&Arc<OrSetOp<T>>>
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let entry = &self.entries[self.position(element).ok()?];
        if entry.tags.as_slice().is_empty() {
            return None;
        }
        let (element, observed) = (entry.element().clone(), AddTags(entry.tags.clone()));
        let dot = self.ctx.next_dot(self.replica);
        Some(self.record(Arc::new(OrSetOp::Remove {
            element,
            observed,
            dot,
        })))
    }

    /// Integrates `op` and puts it into the log.
    fn record(&mut self, op: Arc<OrSetOp<T>>) -> &Arc<OrSetOp<T>> {
        self.integrate(&op);
        self.log.push_shared(op)
    }

    /// Where `element`'s entry is, or where it would go.
    fn position<Q>(&self, element: &Q) -> Result<usize, usize>
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.entries
            .binary_search_by(|entry| entry.element().borrow().cmp(element))
    }

    /// Membership test, by any borrowed form of the element.
    pub fn contains<Q>(&self, element: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.position(element)
            .is_ok_and(|at| !self.entries[at].tags.as_slice().is_empty())
    }

    /// Iterates over the visible elements, in sorted order, without
    /// collecting them.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries
            .iter()
            .filter(|entry| !entry.tags.as_slice().is_empty())
            .map(Entry::element)
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

    fn integrate(&mut self, op: &Arc<OrSetOp<T>>) {
        match &**op {
            OrSetOp::Add { element, dot } => {
                if self.removed_tags.contains(dot) {
                    return; // this tag was already killed by a remove
                }
                match self.position(element) {
                    Ok(at) => {
                        let tags = &mut self.entries[at].tags;
                        if !tags.as_slice().contains(dot) {
                            tags.push(*dot);
                        }
                    }
                    Err(at) => self.entries.insert(
                        at,
                        Entry {
                            introduced_by: Arc::clone(op),
                            tags: Tags::One(*dot),
                        },
                    ),
                }
            }
            OrSetOp::Remove {
                element, observed, ..
            } => {
                let observed = observed.as_slice();
                self.removed_tags.extend(observed.iter().copied());
                if let Ok(at) = self.position(element) {
                    self.entries[at].tags.retain(|t| !observed.contains(t));
                }
            }
        }
    }
}

impl<T: Ord + Clone> Clone for OrSet<T> {
    fn clone(&self) -> Self {
        let OrSet {
            replica,
            entries,
            removed_tags,
            log,
            ctx,
        } = self;
        OrSet {
            replica: *replica,
            entries: entries.clone(),
            removed_tags: removed_tags.clone(),
            log: log.clone(),
            ctx: ctx.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let OrSet {
            replica,
            entries,
            removed_tags,
            log,
            ctx,
        } = source;
        self.replica = *replica;
        self.entries.clone_from(entries);
        clone_set_from(&mut self.removed_tags, removed_tags);
        self.log.clone_from(log);
        self.ctx.clone_from(ctx);
    }
}

impl<T: Ord + Clone> DeltaSync for OrSet<T> {
    type Op = OrSetOp<T>;

    fn missing_since(&self, since: &VersionVector) -> Vec<Arc<OrSetOp<T>>> {
        self.log
            .shared()
            .filter(|op| !since.contains(op.dot()))
            .cloned()
            .collect()
    }

    fn apply_op(&mut self, op: &Arc<OrSetOp<T>>) {
        if self.ctx.contains(op.dot()) {
            return; // redelivery: idempotent
        }
        self.ctx.add(op.dot());
        self.record(Arc::clone(op));
    }

    fn version(&self) -> &VersionVector {
        self.ctx.vector()
    }

    /// [`missing_since`](DeltaSync::missing_since)`(self.version())`,
    /// applied in its order straight off `other`'s log: no delta `Vec`, one
    /// handle bump per operation recorded. An operation the shipped filter
    /// would leave out is one the version already covers, and `apply_op`
    /// skips it as a redelivery; the version only grows, so every one it
    /// lets through the delta would have carried.
    fn sync_from(&mut self, other: &Self) {
        for op in other.log.shared() {
            self.apply_op(op);
        }
    }
}

impl<T: Ord + Clone> StateCrdt for OrSet<T> {
    fn merge(&mut self, other: &Self) {
        self.sync_from(other);
    }
}

// By hand, for the entries: they serialize as the `element -> tags` map
// they are, and read back as handles into the log read beside them.
impl<T: Ord + Serialize> Serialize for OrSet<T> {
    fn to_content(&self) -> Content {
        let entries = self
            .entries
            .iter()
            .map(|entry| {
                (
                    entry.element().to_content(),
                    entry.tags.as_slice().to_content(),
                )
            })
            .collect();
        let field = |name: &str, content| (Content::Str(name.to_owned()), content);
        Content::Map(vec![
            field("replica", self.replica.to_content()),
            field("entries", Content::Map(entries)),
            field("removed_tags", self.removed_tags.to_content()),
            field("log", self.log.to_content()),
            field("ctx", self.ctx.to_content()),
        ])
    }
}

impl<T: Ord + Deserialize> Deserialize for OrSet<T> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let Content::Map(fields) = content else {
            return Err(DeError::expected("map", "OrSet"));
        };
        fn field<F: Deserialize>(fields: &[(Content, Content)], name: &str) -> Result<F, DeError> {
            let content = content_get(fields, name).ok_or(DeError::missing_field(name, "OrSet"))?;
            F::from_content(content)
        }
        let log: Log<OrSetOp<T>> = field(fields, "log")?;
        let tags: BTreeMap<T, Vec<Dot>> = field(fields, "entries")?;
        let entries = tags
            .into_iter()
            .map(|(element, tags)| {
                let introduced_by = log
                    .shared()
                    .find(|op| matches!(***op, OrSetOp::Add { .. }) && *op.element() == element)
                    .ok_or(DeError::custom("OrSet entry without an add in the log"))?;
                Ok(Entry {
                    introduced_by: Arc::clone(introduced_by),
                    tags: tags.into(),
                })
            })
            .collect::<Result<_, DeError>>()?;
        Ok(OrSet {
            replica: field(fields, "replica")?,
            entries,
            removed_tags: field(fields, "removed_tags")?,
            log,
            ctx: field(fields, "ctx")?,
        })
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
        for entry in &self.entries {
            entry.element().encode_canonical(out);
            entry.tags.as_slice().encode_canonical(out);
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
    fn sync_from_applies_what_the_shipped_delta_would() {
        let mut sender = OrSet::new(r(0));
        for x in 0..6 {
            sender.insert(x);
        }
        sender.remove(&2);
        // The receiver holds operations of its own, and two of the
        // sender's out of order: a cloud past its version, which the
        // shipped delta carries again.
        let ops = sender.missing_since(&VersionVector::default());
        let mut receiver = OrSet::new(r(1));
        receiver.insert(9);
        receiver.apply_op(&ops[3]);
        receiver.apply_op(&ops[5]);
        let mut shipped = receiver.clone();
        for op in &sender.missing_since(shipped.version()) {
            shipped.apply_op(op);
        }
        receiver.sync_from(&sender);
        assert_eq!(receiver, shipped, "the same operations, in the same order");
        let mut held = receiver.log.shared().zip(shipped.log.shared());
        assert!(held.all(|(a, b)| Arc::ptr_eq(a, b)), "the sender's handles");
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
        b.apply_op(&Arc::new(OrSetOp::clone(op)));
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
        assert!(matches!(&*delta[0], OrSetOp::Add { element: 2, .. }));
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
