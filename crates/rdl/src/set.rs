//! Grow-only and two-phase sets.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::copy::clone_set_from;
use crate::StateCrdt;

/// A grow-only set: elements can only be added.
///
/// ```
/// use er_pi_rdl::{GSet, StateCrdt};
///
/// let mut a = GSet::new();
/// let mut b = GSet::new();
/// a.insert(1);
/// b.insert(2);
/// a.merge(&b);
/// assert!(a.contains(&1) && a.contains(&2));
/// ```
#[derive(Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GSet<T: Ord> {
    items: BTreeSet<T>,
}

impl<T: Ord + Clone> Clone for GSet<T> {
    fn clone(&self) -> Self {
        let GSet { items } = self;
        GSet {
            items: items.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let GSet { items } = source;
        clone_set_from(&mut self.items, items);
    }
}

impl<T: Ord> GSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        GSet {
            items: BTreeSet::new(),
        }
    }

    /// Adds `item`; returns `true` if it was not already present.
    pub fn insert(&mut self, item: T) -> bool {
        self.items.insert(item)
    }

    /// Membership test.
    pub fn contains(&self, item: &T) -> bool {
        self.items.contains(item)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the elements in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

impl<T: Ord + Clone> StateCrdt for GSet<T> {
    fn merge(&mut self, other: &Self) {
        for item in &other.items {
            if !self.items.contains(item) {
                self.items.insert(item.clone());
            }
        }
    }
}

impl<T: Ord> FromIterator<T> for GSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        GSet {
            items: iter.into_iter().collect(),
        }
    }
}

/// A two-phase set: removal is permanent (tombstoned); a removed element can
/// never be re-added.
///
/// This is the simplest replicated set with removal — and its "remove wins
/// forever" semantics is one of the behaviours application developers
/// commonly misunderstand (misconception #5 territory: the library is
/// consistent, but the application may not expect permanence).
///
/// ```
/// use er_pi_rdl::{StateCrdt, TwoPhaseSet};
///
/// let mut s = TwoPhaseSet::new();
/// s.insert("x");
/// assert!(s.remove(&"x"));
/// assert!(!s.insert("x")); // re-add is refused: the tombstone wins
/// assert!(!s.contains(&"x"));
/// ```
#[derive(Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TwoPhaseSet<T: Ord> {
    added: BTreeSet<T>,
    removed: BTreeSet<T>,
}

impl<T: Ord + Clone> Clone for TwoPhaseSet<T> {
    fn clone(&self) -> Self {
        let TwoPhaseSet { added, removed } = self;
        TwoPhaseSet {
            added: added.clone(),
            removed: removed.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let TwoPhaseSet { added, removed } = source;
        clone_set_from(&mut self.added, added);
        clone_set_from(&mut self.removed, removed);
    }
}

impl<T: Ord + Clone> TwoPhaseSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        TwoPhaseSet {
            added: BTreeSet::new(),
            removed: BTreeSet::new(),
        }
    }

    /// Adds `item`. Returns `false` (a failed op) if the element is
    /// tombstoned or already present.
    pub fn insert(&mut self, item: T) -> bool {
        if self.removed.contains(&item) || self.added.contains(&item) {
            return false;
        }
        self.added.insert(item)
    }

    /// Removes `item`. Returns `false` (a failed op) if the element is not
    /// currently visible.
    pub fn remove(&mut self, item: &T) -> bool {
        if self.contains(item) {
            self.removed.insert(item.clone());
            true
        } else {
            false
        }
    }

    /// Membership test (added and not tombstoned).
    pub fn contains(&self, item: &T) -> bool {
        self.added.contains(item) && !self.removed.contains(item)
    }

    /// Number of visible elements.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Returns `true` if no element is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over visible elements in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.added
            .iter()
            .filter(move |i| !self.removed.contains(*i))
    }
}

impl<T: Ord + Clone> StateCrdt for TwoPhaseSet<T> {
    fn merge(&mut self, other: &Self) {
        for i in &other.added {
            if !self.added.contains(i) {
                self.added.insert(i.clone());
            }
        }
        for i in &other.removed {
            if !self.removed.contains(i) {
                self.removed.insert(i.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gset_insert_and_contains() {
        let mut s = GSet::new();
        assert!(s.insert(1));
        assert!(!s.insert(1)); // duplicate add is a failed op
        assert!(s.contains(&1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn gset_merge_is_union() {
        let a: GSet<i32> = [1, 2].into_iter().collect();
        let b: GSet<i32> = [2, 3].into_iter().collect();
        let m = a.merged(&b);
        assert_eq!(m.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn twop_remove_then_readd_fails() {
        let mut s = TwoPhaseSet::new();
        assert!(s.insert(5));
        assert!(s.remove(&5));
        assert!(!s.insert(5));
        assert!(s.is_empty());
    }

    #[test]
    fn twop_remove_of_absent_fails() {
        let mut s: TwoPhaseSet<i32> = TwoPhaseSet::new();
        assert!(!s.remove(&1));
    }

    #[test]
    fn twop_concurrent_add_remove_remove_wins() {
        let mut a = TwoPhaseSet::new();
        a.insert("x");
        let mut b = a.clone();
        // Replica B removes while replica A keeps it.
        b.remove(&"x");
        a.merge(&b);
        assert!(!a.contains(&"x"));
        // Convergent from the other direction too.
        let mut a2 = TwoPhaseSet::new();
        a2.insert("x");
        let mut b2 = a2.clone();
        b2.remove(&"x");
        b2.merge(&a2);
        assert!(!b2.contains(&"x"));
    }

    #[test]
    fn twop_merge_laws_hold_on_sample() {
        let mut a = TwoPhaseSet::new();
        a.insert(1);
        a.insert(2);
        a.remove(&2);
        let mut b = TwoPhaseSet::new();
        b.insert(2);
        b.insert(3);
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.merged(&ab), ab);
        // 2 was tombstoned by a: stays dead after merge.
        assert!(!ab.contains(&2));
        assert_eq!(ab.len(), 2);
    }
}
