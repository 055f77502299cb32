//! The two replication interfaces the substrate exposes.

use std::sync::Arc;

use er_pi_model::VersionVector;

/// A state-based (convergent) replicated data type.
///
/// `merge` must be a join-semilattice join: commutative, associative, and
/// idempotent. The property-test suite of this crate checks all three laws
/// for every implementation.
pub trait StateCrdt: Clone {
    /// Joins `other`'s state into `self`.
    fn merge(&mut self, other: &Self);

    /// Returns the join of `self` and `other` without mutating either.
    #[must_use]
    fn merged(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.merge(other);
        out
    }
}

/// An operation-based replicated data type that can compute sync deltas.
///
/// The replica simulator uses this to build sync messages: the sender calls
/// [`DeltaSync::missing_since`] with the receiver's version vector and ships
/// the returned operations; the receiver applies them with
/// [`DeltaSync::apply_op`]. Applying must be idempotent (redelivery safe)
/// and commutative across concurrent operations.
///
/// Operations travel as `Arc<Op>`: an operation is allocated once, by the
/// replica that issued it, and the sender's [`Log`](crate::Log), the delta
/// and every receiver's log hold that one allocation.
pub trait DeltaSync {
    /// The operation type shipped between replicas.
    type Op;

    /// Operations this replica has observed that `since` has not.
    fn missing_since(&self, since: &VersionVector) -> Vec<Arc<Self::Op>>;

    /// Applies one (possibly remote, possibly redelivered) operation; a
    /// type that retains applied operations keeps a handle to `op`, not a
    /// copy.
    fn apply_op(&mut self, op: &Arc<Self::Op>);

    /// The version vector summarizing every operation observed so far.
    fn version(&self) -> &VersionVector;

    /// Applies every operation in `ops` in order.
    fn apply_ops<'a, I>(&mut self, ops: I)
    where
        I: IntoIterator<Item = &'a Arc<Self::Op>>,
        Self::Op: 'a,
    {
        for op in ops {
            self.apply_op(op);
        }
    }

    /// Synchronizes from `other` by applying everything `self` is missing.
    fn sync_from(&mut self, other: &Self)
    where
        Self: Sized,
    {
        for op in &other.missing_since(self.version()) {
            self.apply_op(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::DeltaSync;
    use crate::{JsonDoc, LwwTimeSeries, MerkleLog, OrSet, Rga, TieBreak};
    use er_pi_model::{ReplicaId, Value};

    /// Ships everything `sender` knows into `fresh`, every operation twice
    /// and in reverse order (so buffering and redelivery are on the path):
    /// the receiver must come out with `sync_from`'s version, holding the
    /// sender's allocations rather than copies of them.
    fn shipped_ops_are_shared<T>(sender: &T, fresh: T)
    where
        T: DeltaSync + Clone + PartialEq + std::fmt::Debug,
    {
        let mut ops = sender.missing_since(fresh.version());
        assert!(!ops.is_empty());
        let mut synced = fresh.clone();
        synced.sync_from(sender);
        ops.reverse();
        let mut receiver = fresh;
        for op in &ops {
            receiver.apply_op(op);
            receiver.apply_op(op);
        }
        assert_eq!(receiver.version(), synced.version());
        let held = receiver.missing_since(&Default::default());
        assert_eq!(held.len(), ops.len());
        for op in &held {
            assert!(
                ops.iter().any(|sent| Arc::ptr_eq(sent, op)),
                "the receiver holds a copy of {:p}",
                Arc::as_ptr(op)
            );
        }
    }

    #[test]
    fn a_shipped_op_is_one_allocation_for_every_delta_type() {
        let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));

        let mut set = OrSet::new(a);
        set.insert("x");
        set.insert("y");
        set.remove(&"x");
        shipped_ops_are_shared(&set, OrSet::new(b));

        let mut list = Rga::new(a);
        list.push(1);
        list.push(2);
        list.insert(1, 3);
        list.delete(0);
        list.move_item(1, 0);
        shipped_ops_are_shared(&list, Rga::new(b));

        let mut log = MerkleLog::new(a, "alice");
        log.append(Value::from("one"));
        log.append(Value::from("two"));
        shipped_ops_are_shared(&log, MerkleLog::new(b, "bob"));

        let mut doc = JsonDoc::new(a);
        doc.set(&["profile", "name"], Value::from("ada")).unwrap();
        doc.new_array(&["todos"]).unwrap();
        doc.arr_push(&["todos"], Value::from("write")).unwrap();
        doc.remove(&["profile", "name"]).unwrap();
        shipped_ops_are_shared(&doc, JsonDoc::new(b));
    }

    #[test]
    fn a_time_series_applies_its_log_by_handle() {
        let mut source = LwwTimeSeries::new(TieBreak::InsertWins);
        source.insert("k", "m1", 10);
        source.delete("k", "m1", 20);
        source.insert("k", "m2", 5);
        let mut replayed = LwwTimeSeries::new(TieBreak::InsertWins);
        for op in source.log().shared() {
            replayed.apply(op);
        }
        assert_eq!(replayed, source);
        assert!(replayed
            .log()
            .shared()
            .zip(source.log().shared())
            .all(|(a, b)| Arc::ptr_eq(a, b)));
    }
}
