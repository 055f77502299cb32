//! The two replication interfaces the substrate exposes.

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
/// [`DeltaSync::apply_op`] (or [`DeltaSync::apply_owned`] when it is done
/// with them). Applying must be idempotent (redelivery safe) and commutative
/// across concurrent operations.
pub trait DeltaSync {
    /// The operation type shipped between replicas.
    type Op: Clone;

    /// Operations this replica has observed that `since` has not.
    fn missing_since(&self, since: &VersionVector) -> Vec<Self::Op>;

    /// Applies one (possibly remote, possibly redelivered) operation.
    fn apply_op(&mut self, op: &Self::Op);

    /// [`apply_op`](DeltaSync::apply_op) for an operation the caller is done
    /// with. Types that retain applied operations (an op log) override this
    /// to keep `op` itself instead of a copy, so an operation shipped by
    /// [`sync_from`](DeltaSync::sync_from) is cloned once — out of the
    /// sender's log — and not a second time into the receiver's.
    fn apply_owned(&mut self, op: Self::Op) {
        self.apply_op(&op);
    }

    /// The version vector summarizing every operation observed so far.
    fn version(&self) -> &VersionVector;

    /// Applies every operation in `ops` in order.
    fn apply_ops<'a, I>(&mut self, ops: I)
    where
        I: IntoIterator<Item = &'a Self::Op>,
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
        for op in other.missing_since(self.version()) {
            self.apply_owned(op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::DeltaSync;
    use crate::{JsonDoc, LwwTimeSeries, MerkleLog, OrSet, Rga, TieBreak};
    use er_pi_model::{ReplicaId, Value};

    /// Ships everything `sender` knows into two copies of `fresh`, by
    /// reference and by value, every operation twice and in reverse order
    /// (so buffering and redelivery are on the path): the receivers must
    /// come out equal, and equal to what `sync_from` builds.
    fn owned_matches_borrowed<T>(sender: &T, fresh: T)
    where
        T: DeltaSync + Clone + PartialEq + std::fmt::Debug,
    {
        let mut ops = sender.missing_since(fresh.version());
        assert!(!ops.is_empty());
        let mut synced = fresh.clone();
        synced.sync_from(sender);
        ops.reverse();
        let (mut by_ref, mut by_value) = (fresh.clone(), fresh);
        for op in &ops {
            by_ref.apply_op(op);
            by_ref.apply_op(op);
        }
        for op in ops {
            by_value.apply_owned(op.clone());
            by_value.apply_owned(op);
        }
        assert_eq!(by_ref, by_value);
        assert_eq!(by_value.version(), synced.version());
    }

    #[test]
    fn apply_owned_is_apply_op_for_every_delta_type() {
        let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));

        let mut set = OrSet::new(a);
        set.insert("x");
        set.insert("y");
        set.remove(&"x");
        owned_matches_borrowed(&set, OrSet::new(b));

        let mut list = Rga::new(a);
        list.push(1);
        list.push(2);
        list.insert(1, 3);
        list.delete(0);
        list.move_item(1, 0);
        owned_matches_borrowed(&list, Rga::new(b));

        let mut log = MerkleLog::new(a, "alice");
        log.append(Value::from("one"));
        log.append(Value::from("two"));
        owned_matches_borrowed(&log, MerkleLog::new(b, "bob"));

        let mut doc = JsonDoc::new(a);
        doc.set(&["profile", "name"], Value::from("ada")).unwrap();
        doc.new_array(&["todos"]).unwrap();
        doc.arr_push(&["todos"], Value::from("write")).unwrap();
        doc.remove(&["profile", "name"]).unwrap();
        owned_matches_borrowed(&doc, JsonDoc::new(b));
    }

    #[test]
    fn time_series_apply_owned_is_apply() {
        let mut source = LwwTimeSeries::new(TieBreak::InsertWins);
        source.insert("k", "m1", 10);
        source.delete("k", "m1", 20);
        source.insert("k", "m2", 5);
        let mut by_ref = LwwTimeSeries::new(TieBreak::InsertWins);
        let mut by_value = by_ref.clone();
        for op in source.log() {
            by_ref.apply(op);
            by_value.apply_owned(op.clone());
        }
        assert_eq!(by_ref, by_value);
        assert_eq!(by_value, source);
    }
}
