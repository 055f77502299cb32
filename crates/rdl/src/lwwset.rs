//! Last-write-wins element set.

use std::collections::BTreeMap;

use er_pi_model::LamportTimestamp;
use serde::{Deserialize, Serialize};

use crate::{clone_map_from, StateCrdt};

/// Tie-breaking policy when an element's latest add and remove carry the
/// *same* timestamp.
///
/// Roshi documents add-bias ("inserts win over deletes at the same
/// timestamp"); the Roshi-2 bug (issue #11) is precisely about what happens
/// when this tie policy is not honoured consistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Bias {
    /// At equal timestamps, the element is present.
    #[default]
    Add,
    /// At equal timestamps, the element is absent.
    Remove,
}

/// A last-write-wins element set: per element, the highest-timestamped
/// add/remove wins.
///
/// ```
/// use er_pi_model::{LamportTimestamp, ReplicaId};
/// use er_pi_rdl::{Bias, LwwElementSet, StateCrdt};
///
/// let r0 = ReplicaId::new(0);
/// let mut s = LwwElementSet::new(Bias::Add);
/// s.add("x", LamportTimestamp::new(1, r0));
/// s.remove("x", LamportTimestamp::new(2, r0));
/// assert!(!s.contains(&"x"));
/// s.add("x", LamportTimestamp::new(3, r0));
/// assert!(s.contains(&"x"));
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LwwElementSet<T: Ord> {
    bias: Bias,
    adds: BTreeMap<T, LamportTimestamp>,
    removes: BTreeMap<T, LamportTimestamp>,
}

impl<T: Ord + Clone> Clone for LwwElementSet<T> {
    fn clone(&self) -> Self {
        let LwwElementSet {
            bias,
            adds,
            removes,
        } = self;
        LwwElementSet {
            bias: *bias,
            adds: adds.clone(),
            removes: removes.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let LwwElementSet {
            bias,
            adds,
            removes,
        } = source;
        self.bias = *bias;
        clone_map_from(&mut self.adds, adds);
        clone_map_from(&mut self.removes, removes);
    }
}

impl<T: Ord + Clone> LwwElementSet<T> {
    /// Creates an empty set with the given tie-breaking `bias`.
    pub fn new(bias: Bias) -> Self {
        LwwElementSet {
            bias,
            adds: BTreeMap::new(),
            removes: BTreeMap::new(),
        }
    }

    /// The configured tie-breaking policy.
    pub fn bias(&self) -> Bias {
        self.bias
    }

    /// Records an add of `element` at `ts`. Keeps the max add timestamp.
    pub fn add(&mut self, element: T, ts: LamportTimestamp) {
        let slot = self.adds.entry(element).or_insert(ts);
        if ts > *slot {
            *slot = ts;
        }
    }

    /// Records a remove of `element` at `ts`. Keeps the max remove timestamp.
    pub fn remove(&mut self, element: T, ts: LamportTimestamp) {
        let slot = self.removes.entry(element).or_insert(ts);
        if ts > *slot {
            *slot = ts;
        }
    }

    /// Membership under LWW + bias semantics.
    pub fn contains(&self, element: &T) -> bool {
        match (self.adds.get(element), self.removes.get(element)) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(a), Some(r)) => {
                if a.time == r.time {
                    // Same logical instant: the configured bias decides.
                    self.bias == Bias::Add
                } else {
                    a > r
                }
            }
        }
    }

    /// Returns `true` if `element` has a remove newer than (or tying with,
    /// under remove bias) its add — i.e. the element reads as deleted.
    ///
    /// This is the `deleted` response field of Roshi's read API whose
    /// miscomputation is the Roshi-1 bug (issue #18).
    pub fn is_deleted(&self, element: &T) -> bool {
        self.adds.contains_key(element) && !self.contains(element)
    }

    /// Visible elements in sorted order.
    pub fn elements(&self) -> Vec<&T> {
        self.adds.keys().filter(|e| self.contains(e)).collect()
    }

    /// Number of visible elements.
    pub fn len(&self) -> usize {
        self.elements().len()
    }

    /// Returns `true` if no element is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest add timestamp recorded for `element`.
    pub fn add_timestamp(&self, element: &T) -> Option<LamportTimestamp> {
        self.adds.get(element).copied()
    }

    /// The latest remove timestamp recorded for `element`.
    pub fn remove_timestamp(&self, element: &T) -> Option<LamportTimestamp> {
        self.removes.get(element).copied()
    }
}

impl<T: Ord + Clone> StateCrdt for LwwElementSet<T> {
    fn merge(&mut self, other: &Self) {
        for (e, &ts) in &other.adds {
            self.add(e.clone(), ts);
        }
        for (e, &ts) in &other.removes {
            self.remove(e.clone(), ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::ReplicaId;

    fn ts(t: u64, rep: u16) -> LamportTimestamp {
        LamportTimestamp::new(t, ReplicaId::new(rep))
    }

    #[test]
    fn add_then_remove_then_add() {
        let mut s = LwwElementSet::new(Bias::Add);
        s.add(1, ts(1, 0));
        assert!(s.contains(&1));
        s.remove(1, ts(2, 0));
        assert!(!s.contains(&1));
        assert!(s.is_deleted(&1));
        s.add(1, ts(3, 0));
        assert!(s.contains(&1));
        assert!(!s.is_deleted(&1));
    }

    #[test]
    fn stale_operations_lose() {
        let mut s = LwwElementSet::new(Bias::Add);
        s.add(1, ts(5, 0));
        s.remove(1, ts(3, 0)); // older remove: loses
        assert!(s.contains(&1));
    }

    #[test]
    fn equal_time_add_bias() {
        let mut s = LwwElementSet::new(Bias::Add);
        s.add("x", ts(4, 0));
        s.remove("x", ts(4, 1));
        assert!(s.contains(&"x"), "add bias keeps the element at a tie");
    }

    #[test]
    fn equal_time_remove_bias() {
        let mut s = LwwElementSet::new(Bias::Remove);
        s.add("x", ts(4, 0));
        s.remove("x", ts(4, 1));
        assert!(!s.contains(&"x"), "remove bias drops the element at a tie");
    }

    #[test]
    fn merge_converges_and_is_idempotent() {
        let mut a = LwwElementSet::new(Bias::Add);
        let mut b = LwwElementSet::new(Bias::Add);
        a.add(1, ts(1, 0));
        a.remove(2, ts(2, 0));
        b.add(2, ts(1, 1));
        b.add(3, ts(2, 1));
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.merged(&ab), ab);
        assert!(ab.contains(&1));
        assert!(!ab.contains(&2)); // remove at t=2 beats add at t=1
        assert!(ab.contains(&3));
    }

    #[test]
    fn never_added_is_not_deleted() {
        let s: LwwElementSet<i32> = LwwElementSet::new(Bias::Add);
        assert!(!s.is_deleted(&9));
        assert!(!s.contains(&9));
        assert!(s.is_empty());
    }

    #[test]
    fn timestamps_are_observable() {
        let mut s = LwwElementSet::new(Bias::Add);
        s.add(1, ts(1, 0));
        s.add(1, ts(7, 1));
        s.add(1, ts(3, 0)); // older: ignored
        assert_eq!(s.add_timestamp(&1), Some(ts(7, 1)));
        assert_eq!(s.remove_timestamp(&1), None);
    }
}
