//! A replicated growable array (RGA) — the list CRDT, with move support.
//!
//! This is the data structure behind misconceptions #2 (element order) and
//! #3 (move duplication) of the paper's §6.2, and behind the Yorkie-1 bug
//! (`Array.MoveAfter` divergence, issue #676).

use std::sync::Arc;

use er_pi_model::{
    CanonicalEncode, Dot, DotContext, LamportClock, LamportTimestamp, ReplicaId, VersionVector,
};
use serde::{Deserialize, Serialize};

use crate::{DeltaSync, Log, StateCrdt};

/// The unique, stable identity of one list element: the Lamport timestamp of
/// the insert that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ElementId(pub LamportTimestamp);

impl std::fmt::Display for ElementId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One replicated operation of an [`Rga`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RgaOp<T> {
    /// Inserts `value` with identity `id` after element `after`
    /// (`None` = list head).
    Insert {
        /// Identity of the new element.
        id: ElementId,
        /// Predecessor element, or `None` for the head.
        after: Option<ElementId>,
        /// Element payload.
        value: T,
        /// Delivery-tracking tag.
        dot: Dot,
    },
    /// Tombstones element `id`.
    Delete {
        /// Identity of the deleted element.
        id: ElementId,
        /// Delivery-tracking tag.
        dot: Dot,
    },
    /// Relocates element `id` after `after`; last-writer-wins on `moved_at`.
    ///
    /// This is the *correct* move primitive ("designate a winning position",
    /// Kleppmann 2020). The defective alternative — delete + fresh insert —
    /// is what applications write when they hold misconception #3.
    Move {
        /// Identity of the moved element (stable across moves).
        id: ElementId,
        /// New predecessor, or `None` for the head.
        after: Option<ElementId>,
        /// Timestamp of the move; the highest one wins.
        moved_at: LamportTimestamp,
        /// Delivery-tracking tag.
        dot: Dot,
    },
}

impl<T> RgaOp<T> {
    /// The operation's delivery-tracking tag.
    pub fn dot(&self) -> Dot {
        match self {
            RgaOp::Insert { dot, .. } | RgaOp::Delete { dot, .. } | RgaOp::Move { dot, .. } => *dot,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Node<T> {
    id: ElementId,
    /// Position identity: insert id initially, the winning move timestamp
    /// after relocation. Concurrent siblings order by descending `pos_id`.
    pos_id: LamportTimestamp,
    value: T,
    deleted: bool,
    /// Timestamp of the winning move applied to this node, if any.
    moved_at: Option<LamportTimestamp>,
}

/// A replicated growable array: a list CRDT with insert, delete, and move.
///
/// Convergent under arbitrary (including out-of-causal-order) delivery:
/// operations whose referenced elements have not arrived yet are buffered
/// and integrated once their dependencies appear.
///
/// ```
/// use er_pi_model::ReplicaId;
/// use er_pi_rdl::{DeltaSync, Rga};
///
/// let mut a = Rga::new(ReplicaId::new(0));
/// let mut b = Rga::new(ReplicaId::new(1));
/// a.push("x");
/// a.push("y");
/// b.sync_from(&a);
/// assert_eq!(b.values(), vec![&"x", &"y"]);
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rga<T> {
    replica: ReplicaId,
    clock: LamportClock,
    nodes: Vec<Node<T>>,
    ctx: DotContext,
    log: Log<RgaOp<T>>,
    /// Operations whose referenced elements have not arrived yet.
    pending: Log<RgaOp<T>>,
}

impl<T: Clone> Clone for Rga<T> {
    fn clone(&self) -> Self {
        let Rga {
            replica,
            clock,
            nodes,
            ctx,
            log,
            pending,
        } = self;
        Rga {
            replica: *replica,
            clock: clock.clone(),
            nodes: nodes.clone(),
            ctx: ctx.clone(),
            log: log.clone(),
            pending: pending.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let Rga {
            replica,
            clock,
            nodes,
            ctx,
            log,
            pending,
        } = source;
        self.replica = *replica;
        self.clock.clone_from(clock);
        self.nodes.clone_from(nodes);
        self.ctx.clone_from(ctx);
        self.log.clone_from(log);
        self.pending.clone_from(pending);
    }
}

impl<T: Clone + PartialEq> Rga<T> {
    /// Creates an empty list owned by `replica`.
    pub fn new(replica: ReplicaId) -> Self {
        Rga {
            replica,
            clock: LamportClock::new(replica),
            nodes: Vec::new(),
            ctx: DotContext::new(),
            log: Log::new(),
            pending: Log::new(),
        }
    }

    /// The replica this handle mutates on behalf of.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Number of visible (non-tombstoned) elements.
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.deleted).count()
    }

    /// Returns `true` if no element is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visible values in list order, read in place.
    pub fn visible(&self) -> impl Iterator<Item = &T> + Clone {
        self.nodes.iter().filter(|n| !n.deleted).map(|n| &n.value)
    }

    /// Visible values in list order, collected.
    pub fn values(&self) -> Vec<&T> {
        self.visible().collect()
    }

    /// The value at visible index `idx`.
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.visible().nth(idx)
    }

    /// The stable identity of the element at visible index `idx`.
    pub fn id_at(&self, idx: usize) -> Option<ElementId> {
        self.nodes
            .iter()
            .filter(|n| !n.deleted)
            .nth(idx)
            .map(|n| n.id)
    }

    /// The visible index of element `id`, if present and visible.
    pub fn index_of(&self, id: ElementId) -> Option<usize> {
        self.nodes
            .iter()
            .filter(|n| !n.deleted)
            .position(|n| n.id == id)
    }

    /// Appends `value` at the end of the list.
    pub fn push(&mut self, value: T) -> Arc<RgaOp<T>> {
        let after = self.nodes.iter().rev().find(|n| !n.deleted).map(|n| n.id);
        self.insert_after(after, value)
    }

    /// Inserts `value` at visible index `idx` (0 = head).
    ///
    /// # Panics
    ///
    /// Panics if `idx > len`.
    pub fn insert(&mut self, idx: usize, value: T) -> Arc<RgaOp<T>> {
        assert!(
            idx <= self.len(),
            "index {idx} out of bounds (len {})",
            self.len()
        );
        let after = if idx == 0 { None } else { self.id_at(idx - 1) };
        self.insert_after(after, value)
    }

    /// Inserts `value` after element `after` (`None` = head).
    pub fn insert_after(&mut self, after: Option<ElementId>, value: T) -> Arc<RgaOp<T>> {
        let id = ElementId(self.clock.tick());
        let dot = self.ctx.next_dot(self.replica);
        self.record(RgaOp::Insert {
            id,
            after,
            value,
            dot,
        })
    }

    /// Integrates a local operation (its references resolve) and logs it.
    fn record(&mut self, op: RgaOp<T>) -> Arc<RgaOp<T>> {
        self.integrate(&op);
        Arc::clone(self.log.push(op))
    }

    /// Tombstones the element at visible index `idx`. Returns `None` (a
    /// failed op) if the index is out of bounds.
    pub fn delete(&mut self, idx: usize) -> Option<Arc<RgaOp<T>>> {
        let id = self.id_at(idx)?;
        self.delete_id(id)
    }

    /// Tombstones element `id`. Returns `None` if absent or already deleted.
    pub fn delete_id(&mut self, id: ElementId) -> Option<Arc<RgaOp<T>>> {
        self.nodes.iter().find(|n| n.id == id && !n.deleted)?;
        let dot = self.ctx.next_dot(self.replica);
        Some(self.record(RgaOp::Delete { id, dot }))
    }

    /// Moves the element at visible index `from` to sit after the element
    /// currently preceding visible index `to`, using the **correct** move
    /// primitive (stable identity, LWW position). Returns `None` if either
    /// index is out of bounds.
    pub fn move_item(&mut self, from: usize, to: usize) -> Option<Arc<RgaOp<T>>> {
        let id = self.id_at(from)?;
        if to > self.len() {
            return None;
        }
        let after = if to == 0 {
            None
        } else {
            // Position `to` is interpreted against the list *without* the
            // moved element, matching typical moveItem APIs.
            let mut visible: Vec<ElementId> = self
                .nodes
                .iter()
                .filter(|n| !n.deleted)
                .map(|n| n.id)
                .collect();
            visible.retain(|&v| v != id);
            if to == 0 {
                None
            } else {
                visible.get(to - 1).copied()
            }
        };
        self.move_after_id(id, after)
    }

    /// Moves element `id` to sit after `after` (`None` = head).
    pub fn move_after_id(
        &mut self,
        id: ElementId,
        after: Option<ElementId>,
    ) -> Option<Arc<RgaOp<T>>> {
        if !self.nodes.iter().any(|n| n.id == id && !n.deleted) {
            return None;
        }
        let moved_at = self.clock.tick();
        let dot = self.ctx.next_dot(self.replica);
        Some(self.record(RgaOp::Move {
            id,
            after,
            moved_at,
            dot,
        }))
    }

    /// The *defective* move an application with misconception #3 writes:
    /// delete + re-insert as a **new** element. Under concurrent moves of
    /// the same element this duplicates it, because each replica mints a
    /// fresh identity whose tombstone the other never observes. Returns the
    /// delete and the insert, in that order.
    pub fn move_naive(&mut self, from: usize, to: usize) -> Option<[Arc<RgaOp<T>>; 2]> {
        let value = self.get(from)?.clone();
        let del = self.delete(from)?;
        let to = to.min(self.len());
        let ins = self.insert(to, value);
        Some([del, ins])
    }

    fn node_pos(&self, id: ElementId) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    /// RGA integration: place a node with position identity `pos_id` after
    /// `after`, skipping concurrent siblings with greater `pos_id`.
    fn integration_index(
        &self,
        after: Option<ElementId>,
        pos_id: LamportTimestamp,
    ) -> Option<usize> {
        let mut idx = match after {
            None => 0,
            Some(p) => self.node_pos(p)? + 1,
        };
        while idx < self.nodes.len() && self.nodes[idx].pos_id > pos_id {
            idx += 1;
        }
        Some(idx)
    }

    /// Attempts to apply `op`; returns `false` if a referenced element has
    /// not arrived yet (op goes to the pending buffer).
    fn integrate(&mut self, op: &RgaOp<T>) -> bool {
        match op {
            RgaOp::Insert {
                id, after, value, ..
            } => {
                if self.nodes.iter().any(|n| n.id == *id) {
                    return true; // duplicate insert: idempotent
                }
                let Some(idx) = self.integration_index(*after, id.0) else {
                    return false;
                };
                self.clock.observe(id.0);
                self.nodes.insert(
                    idx,
                    Node {
                        id: *id,
                        pos_id: id.0,
                        value: value.clone(),
                        deleted: false,
                        moved_at: None,
                    },
                );
                true
            }
            RgaOp::Delete { id, .. } => {
                let Some(pos) = self.node_pos(*id) else {
                    return false;
                };
                self.nodes[pos].deleted = true;
                true
            }
            RgaOp::Move {
                id,
                after,
                moved_at,
                ..
            } => {
                let Some(pos) = self.node_pos(*id) else {
                    return false;
                };
                if after.is_some() && self.node_pos(after.unwrap()).is_none() {
                    return false;
                }
                if self.nodes[pos].moved_at.is_some_and(|m| m >= *moved_at) {
                    return true; // an equal-or-newer move already won
                }
                self.clock.observe(*moved_at);
                let mut node = self.nodes.remove(pos);
                node.moved_at = Some(*moved_at);
                node.pos_id = *moved_at;
                let idx = self
                    .integration_index(*after, *moved_at)
                    .expect("target checked above");
                self.nodes.insert(idx, node);
                true
            }
        }
    }

    /// Drains the pending buffer, applying every op whose dependencies have
    /// arrived; repeats until a fixpoint.
    fn flush_pending(&mut self) {
        loop {
            let mut progressed = false;
            let pending = std::mem::take(&mut self.pending);
            for op in pending.shared() {
                if self.integrate(op) {
                    progressed = true;
                    self.log.push_shared(Arc::clone(op));
                } else {
                    self.pending.push_shared(Arc::clone(op));
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

impl<T: Clone + PartialEq> DeltaSync for Rga<T> {
    type Op = RgaOp<T>;

    fn missing_since(&self, since: &VersionVector) -> Vec<Arc<RgaOp<T>>> {
        // Include still-pending ops too: the receiver may have their deps.
        self.log
            .shared()
            .chain(self.pending.shared())
            .filter(|op| !since.contains(op.dot()))
            .cloned()
            .collect()
    }

    fn apply_op(&mut self, op: &Arc<RgaOp<T>>) {
        if self.ctx.contains(op.dot()) {
            return;
        }
        self.ctx.add(op.dot());
        if self.integrate(op) {
            self.log.push_shared(Arc::clone(op));
            self.flush_pending();
        } else {
            self.pending.push_shared(Arc::clone(op));
        }
    }

    fn version(&self) -> &VersionVector {
        self.ctx.vector()
    }
}

impl<T: Clone + PartialEq> StateCrdt for Rga<T> {
    fn merge(&mut self, other: &Self) {
        self.sync_from(other);
    }
}

impl CanonicalEncode for ElementId {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.0.encode_canonical(out);
    }
}

impl<T: CanonicalEncode> CanonicalEncode for RgaOp<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        match self {
            RgaOp::Insert {
                id,
                after,
                value,
                dot,
            } => {
                out.push(0);
                id.encode_canonical(out);
                after.encode_canonical(out);
                value.encode_canonical(out);
                dot.encode_canonical(out);
            }
            RgaOp::Delete { id, dot } => {
                out.push(1);
                id.encode_canonical(out);
                dot.encode_canonical(out);
            }
            RgaOp::Move {
                id,
                after,
                moved_at,
                dot,
            } => {
                out.push(2);
                id.encode_canonical(out);
                after.encode_canonical(out);
                moved_at.encode_canonical(out);
                dot.encode_canonical(out);
            }
        }
    }
}

impl<T: CanonicalEncode> CanonicalEncode for Rga<T> {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        // The node vector *is* the linearized list (tombstones included);
        // pending buffers ops whose dependencies have not arrived, and the
        // dot context is the delivery filter — all three steer future
        // integrations.
        self.replica.encode_canonical(out);
        self.clock.encode_canonical(out);
        (self.nodes.len() as u64).encode_canonical(out);
        for node in &self.nodes {
            node.id.encode_canonical(out);
            node.pos_id.encode_canonical(out);
            node.value.encode_canonical(out);
            node.deleted.encode_canonical(out);
            node.moved_at.encode_canonical(out);
        }
        self.ctx.encode_canonical(out);
        self.log.encode_canonical(out);
        self.pending.encode_canonical(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn push_and_get() {
        let mut l = Rga::new(r(0));
        l.push(1);
        l.push(2);
        l.insert(1, 99);
        assert_eq!(l.values(), vec![&1, &99, &2]);
        assert_eq!(l.get(1), Some(&99));
        assert_eq!(l.get(3), None);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn delete_tombstones() {
        let mut l = Rga::new(r(0));
        l.push("a");
        l.push("b");
        assert!(l.delete(0).is_some());
        assert_eq!(l.values(), vec![&"b"]);
        assert!(l.delete(5).is_none(), "out of bounds delete is a failed op");
    }

    #[test]
    fn sync_converges_simple() {
        let mut a = Rga::new(r(0));
        let mut b = Rga::new(r(1));
        a.push(1);
        a.push(2);
        b.sync_from(&a);
        b.delete(0);
        a.sync_from(&b);
        assert_eq!(a.values(), b.values());
        assert_eq!(a.values(), vec![&2]);
    }

    #[test]
    fn concurrent_inserts_converge_to_same_order() {
        let mut a = Rga::new(r(0));
        let mut b = Rga::new(r(1));
        a.push("base");
        b.sync_from(&a);
        // Both insert at the head concurrently.
        a.insert(0, "from-a");
        b.insert(0, "from-b");
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.values(), b.values());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn out_of_order_delivery_is_buffered() {
        let mut a = Rga::new(r(0));
        let op1 = a.push(1);
        let op2 = a.insert_after(
            match &*op1 {
                RgaOp::Insert { id, .. } => Some(*id),
                _ => unreachable!(),
            },
            2,
        );
        let mut b = Rga::new(r(1));
        // Deliver the child before the parent.
        b.apply_op(&op2);
        assert_eq!(b.len(), 0, "child is pending until parent arrives");
        b.apply_op(&op1);
        assert_eq!(b.values(), vec![&1, &2]);
    }

    #[test]
    fn correct_move_does_not_duplicate_under_concurrency() {
        let mut a = Rga::new(r(0));
        a.push("x");
        a.push("y");
        a.push("z");
        let mut b = Rga::new(r(1));
        b.sync_from(&a);
        // Concurrent moves of "x" to different positions.
        a.move_item(0, 2);
        b.move_item(0, 1);
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.values(), b.values(), "replicas must converge");
        let xs = a.values().into_iter().filter(|v| **v == "x").count();
        assert_eq!(xs, 1, "one winner position, no duplication");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn naive_move_duplicates_under_concurrency() {
        // Misconception #3 reproduced at the library level.
        let mut a = Rga::new(r(0));
        a.push("x");
        a.push("y");
        a.push("z");
        let mut b = Rga::new(r(1));
        b.sync_from(&a);
        a.move_naive(0, 2);
        b.move_naive(0, 1);
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.values(), b.values());
        let xs = a.values().into_iter().filter(|v| **v == "x").count();
        assert_eq!(xs, 2, "delete+insert move duplicates the element");
    }

    #[test]
    fn move_lww_highest_timestamp_wins() {
        let mut a = Rga::new(r(0));
        a.push(10);
        a.push(20);
        a.push(30);
        let mut b = Rga::new(r(1));
        b.sync_from(&a);
        // b's clock is ahead after extra activity: its move wins.
        b.push(40);
        b.delete(3);
        let id = a.id_at(0).unwrap();
        a.move_after_id(id, a.id_at(2)); // a: move 10 after 30
        b.move_after_id(id, None); // b: move 10 to head (later ts)
        a.sync_from(&b);
        b.sync_from(&a);
        assert_eq!(a.values(), b.values());
        assert_eq!(a.values()[0], &10, "the later move (b's) wins");
    }

    #[test]
    fn redelivery_is_idempotent() {
        let mut a = Rga::new(r(0));
        let op = a.push(1);
        let mut b = Rga::new(r(1));
        b.apply_op(&op);
        b.apply_op(&op);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn index_of_and_id_at_roundtrip() {
        let mut l = Rga::new(r(0));
        l.push("a");
        l.push("b");
        let id = l.id_at(1).unwrap();
        assert_eq!(l.index_of(id), Some(1));
        l.delete(0);
        assert_eq!(l.index_of(id), Some(0));
    }

    #[test]
    fn three_replicas_converge_via_pairwise_sync() {
        let mut a = Rga::new(r(0));
        let mut b = Rga::new(r(1));
        let mut c = Rga::new(r(2));
        a.push(1);
        b.push(2);
        c.push(3);
        // Ring sync twice.
        for _ in 0..2 {
            let (sa, sb, sc) = (a.clone(), b.clone(), c.clone());
            b.sync_from(&sa);
            c.sync_from(&sb);
            a.sync_from(&sc);
        }
        a.sync_from(&b);
        a.sync_from(&c);
        b.sync_from(&a);
        c.sync_from(&a);
        assert_eq!(a.values(), b.values());
        assert_eq!(b.values(), c.values());
        assert_eq!(a.len(), 3);
    }
}
