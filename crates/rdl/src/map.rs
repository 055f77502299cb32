//! Replicated maps: last-write-wins and nested observed-remove maps.

use std::collections::BTreeMap;

use er_pi_model::{LamportTimestamp, ReplicaId, VersionVector};
use serde::{Deserialize, Serialize};

use crate::{clone_map_from, LwwRegister, StateCrdt};

/// A last-write-wins map: per key, the highest-timestamped write (or
/// tombstone) wins.
///
/// ```
/// use er_pi_model::{LamportTimestamp, ReplicaId};
/// use er_pi_rdl::{LwwMap, StateCrdt};
///
/// let r0 = ReplicaId::new(0);
/// let mut m = LwwMap::new();
/// m.put("k", 1, LamportTimestamp::new(1, r0));
/// m.remove(&"k", LamportTimestamp::new(2, r0));
/// assert_eq!(m.get(&"k"), None);
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LwwMap<K: Ord, V> {
    entries: BTreeMap<K, LwwRegister<Option<V>>>,
}

impl<K: Ord + Clone, V: Clone> Clone for LwwMap<K, V> {
    fn clone(&self) -> Self {
        let LwwMap { entries } = self;
        LwwMap {
            entries: entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let LwwMap { entries } = source;
        clone_map_from(&mut self.entries, entries);
    }
}

impl<K: Ord + Clone, V: Clone> LwwMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        LwwMap {
            entries: BTreeMap::new(),
        }
    }

    /// Writes `value` under `key` at `ts`. Returns `true` if the write won.
    pub fn put(&mut self, key: K, value: V, ts: LamportTimestamp) -> bool {
        match self.entries.get_mut(&key) {
            Some(reg) => reg.set(Some(value), ts),
            None => {
                self.entries.insert(key, LwwRegister::new(Some(value), ts));
                true
            }
        }
    }

    /// Tombstones `key` at `ts`. Returns `true` if the tombstone won.
    pub fn remove(&mut self, key: &K, ts: LamportTimestamp) -> bool {
        match self.entries.get_mut(key) {
            Some(reg) => reg.set(None, ts),
            None => {
                self.entries.insert(key.clone(), LwwRegister::new(None, ts));
                true
            }
        }
    }

    /// The visible value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).and_then(|reg| reg.get().as_ref())
    }

    /// The write timestamp currently winning for `key` (even if tombstoned).
    pub fn timestamp(&self, key: &K) -> Option<LamportTimestamp> {
        self.entries.get(key).map(LwwRegister::timestamp)
    }

    /// Number of visible keys.
    pub fn len(&self) -> usize {
        self.entries.values().filter(|r| r.get().is_some()).count()
    }

    /// Returns `true` if no key is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over visible `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries
            .iter()
            .filter_map(|(k, reg)| reg.get().as_ref().map(|v| (k, v)))
    }

    /// Visible keys in key order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }
}

impl<K: Ord + Clone, V: Clone> Default for LwwMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> StateCrdt for LwwMap<K, V> {
    fn merge(&mut self, other: &Self) {
        for (k, reg) in &other.entries {
            match self.entries.get_mut(k) {
                Some(mine) => mine.merge(reg),
                None => {
                    self.entries.insert(k.clone(), reg.clone());
                }
            }
        }
    }
}

/// An observed-remove map of nested CRDTs: values are themselves state-based
/// CRDTs, merged key-wise; a remove only deletes the state it observed
/// (concurrent nested updates resurrect the entry — add-wins).
///
/// ```
/// use er_pi_model::ReplicaId;
/// use er_pi_rdl::{GCounter, OrMap, StateCrdt};
///
/// let mut m: OrMap<&str, GCounter> = OrMap::new(ReplicaId::new(0));
/// m.update_with("hits", || GCounter::new(ReplicaId::new(0)), |c| c.increment(2));
/// assert_eq!(m.get(&"hits").unwrap().value(), 2);
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrMap<K: Ord, V> {
    replica: ReplicaId,
    entries: BTreeMap<K, V>,
    /// Per-key causal context: versions observed at removal time.
    removed: BTreeMap<K, VersionVector>,
    /// Per-key update version.
    versions: BTreeMap<K, VersionVector>,
}

impl<K: Ord + Clone, V: Clone> Clone for OrMap<K, V> {
    fn clone(&self) -> Self {
        let OrMap {
            replica,
            entries,
            removed,
            versions,
        } = self;
        OrMap {
            replica: *replica,
            entries: entries.clone(),
            removed: removed.clone(),
            versions: versions.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let OrMap {
            replica,
            entries,
            removed,
            versions,
        } = source;
        self.replica = *replica;
        clone_map_from(&mut self.entries, entries);
        clone_map_from(&mut self.removed, removed);
        clone_map_from(&mut self.versions, versions);
    }
}

impl<K: Ord + Clone, V: StateCrdt + PartialEq> OrMap<K, V> {
    /// Creates an empty map owned by `replica`.
    pub fn new(replica: ReplicaId) -> Self {
        OrMap {
            replica,
            entries: BTreeMap::new(),
            removed: BTreeMap::new(),
            versions: BTreeMap::new(),
        }
    }

    /// The replica this handle mutates on behalf of.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Mutates (creating with `init` if absent) the nested CRDT under `key`.
    pub fn update_with(&mut self, key: K, init: impl FnOnce() -> V, f: impl FnOnce(&mut V)) {
        let v = self.entries.entry(key.clone()).or_insert_with(init);
        f(v);
        self.versions
            .entry(key)
            .or_default()
            .increment(self.replica);
    }

    /// Mutates (creating if absent) the nested CRDT under `key`.
    pub fn update(&mut self, key: K, f: impl FnOnce(&mut V))
    where
        V: Default,
    {
        self.update_with(key, V::default, f);
    }

    /// Removes `key`, observing its current causal version. Returns `false`
    /// (a failed op) if the key is absent.
    pub fn remove(&mut self, key: &K) -> bool {
        if !self.contains(key) {
            return false;
        }
        let observed = self.versions.get(key).cloned().unwrap_or_default();
        self.entries.remove(key);
        let slot = self.removed.entry(key.clone()).or_default();
        slot.merge(&observed);
        true
    }

    /// The nested CRDT under `key`, if visible.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Membership test.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of visible keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no key is visible.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over visible `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter()
    }
}

impl<K: Ord + Clone, V: StateCrdt + PartialEq> StateCrdt for OrMap<K, V> {
    fn merge(&mut self, other: &Self) {
        // Merge removal contexts first.
        for (k, rv) in &other.removed {
            self.removed.entry(k.clone()).or_default().merge(rv);
        }
        // Merge entries: an entry survives if its version is not dominated
        // by the (combined) removal context.
        let mut keys: Vec<K> = self.entries.keys().cloned().collect();
        for k in other.entries.keys() {
            if !keys.contains(k) {
                keys.push(k.clone());
            }
        }
        for k in keys {
            let mut version = self.versions.get(&k).cloned().unwrap_or_default();
            if let Some(ov) = other.versions.get(&k) {
                version.merge(ov);
            }
            let removed_ctx = self.removed.get(&k).cloned().unwrap_or_default();
            let mut value = match (self.entries.remove(&k), other.entries.get(&k)) {
                (Some(mut mine), Some(theirs)) => {
                    mine.merge(theirs);
                    Some(mine)
                }
                (Some(mine), None) => Some(mine),
                (None, Some(theirs)) => Some(theirs.clone()),
                (None, None) => None,
            };
            // Drop the entry if every update it carries was observed by a
            // remover (remove-wins over *observed* state only).
            if removed_ctx.dominates(&version) && version != VersionVector::new() {
                value = None;
            }
            if let Some(v) = value {
                self.entries.insert(k.clone(), v);
                self.versions.insert(k, version);
            } else {
                self.versions.insert(k, version);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GCounter;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn ts(t: u64, rep: u16) -> LamportTimestamp {
        LamportTimestamp::new(t, r(rep))
    }

    #[test]
    fn lww_map_put_get_remove() {
        let mut m = LwwMap::new();
        assert!(m.put("a", 1, ts(1, 0)));
        assert_eq!(m.get(&"a"), Some(&1));
        assert!(m.remove(&"a", ts(2, 0)));
        assert_eq!(m.get(&"a"), None);
        assert!(!m.put("a", 9, ts(1, 0)), "stale write loses to tombstone");
        assert!(m.is_empty());
    }

    #[test]
    fn lww_map_merge_converges() {
        let mut a = LwwMap::new();
        let mut b = LwwMap::new();
        a.put("k", 1, ts(1, 0));
        b.put("k", 2, ts(2, 1));
        b.put("only-b", 3, ts(1, 1));
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(&"k"), Some(&2));
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.keys().count(), 2);
    }

    #[test]
    fn lww_map_remove_of_unknown_key_tombstones() {
        let mut a: LwwMap<&str, i32> = LwwMap::new();
        a.remove(&"ghost", ts(5, 0));
        let mut b = LwwMap::new();
        b.put("ghost", 1, ts(1, 1));
        a.merge(&b);
        assert_eq!(a.get(&"ghost"), None, "newer tombstone wins over older put");
    }

    #[test]
    fn ormap_update_creates_and_mutates() {
        let mut m: OrMap<&str, GCounter> = OrMap::new(r(0));
        m.update_with("c", || GCounter::new(r(0)), |c| c.increment(1));
        m.update_with("c", || GCounter::new(r(0)), |c| c.increment(2));
        assert_eq!(m.get(&"c").unwrap().value(), 3);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn ormap_remove_of_absent_fails() {
        let mut m: OrMap<&str, GCounter> = OrMap::new(r(0));
        assert!(!m.remove(&"nope"));
    }

    #[test]
    fn ormap_observed_remove_deletes() {
        let mut a: OrMap<&str, GCounter> = OrMap::new(r(0));
        a.update_with("k", || GCounter::new(r(0)), |c| c.increment(1));
        let mut b = OrMap::new(r(1));
        b.merge(&a);
        assert!(b.contains(&"k"));
        b.remove(&"k");
        a.merge(&b);
        assert!(!a.contains(&"k"), "fully observed remove wins");
    }

    #[test]
    fn ormap_concurrent_update_resurrects() {
        let mut a: OrMap<&str, GCounter> = OrMap::new(r(0));
        a.update_with("k", || GCounter::new(r(0)), |c| c.increment(1));
        let mut b = OrMap::new(r(1));
        b.merge(&a);
        // Concurrently: b removes, a updates again (unobserved by b).
        b.remove(&"k");
        a.update_with("k", || GCounter::new(r(0)), |c| c.increment(5));
        a.merge(&b);
        assert!(a.contains(&"k"), "concurrent update survives the remove");
    }

    #[test]
    fn ormap_merge_idempotent() {
        let mut a: OrMap<&str, GCounter> = OrMap::new(r(0));
        a.update_with("x", || GCounter::new(r(0)), |c| c.increment(2));
        let snap = a.clone();
        a.merge(&snap);
        assert_eq!(a.get(&"x").unwrap().value(), 2);
        assert_eq!(a.len(), 1);
    }
}
