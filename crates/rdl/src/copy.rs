//! `clone_from` that touches only what differs: the field copies of this
//! crate's structures, and of the subject replicas built on them.
//!
//! A replica is reset to a snapshot by copying the snapshot into a stale
//! copy of itself ([`Shared`](crate::Shared) keeps one for that), and the
//! two are mostly the same history. So these keep what the destination
//! already holds where it equals the source, and release and acquire only
//! the rest.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Makes `into` a copy of `from` by pointer: keeps the leading handles the
/// two already share and replaces only those after them, so a copy over a
/// stale version of the same history touches the handles it differs in and
/// no others.
///
/// ```
/// use std::sync::Arc;
/// use er_pi_rdl::clone_handles_from;
///
/// let ops: Vec<Arc<&str>> = ["a", "b", "c"].into_iter().map(Arc::new).collect();
/// let mut stale = ops[..2].to_vec();
/// stale.push(Arc::new("x"));
/// clone_handles_from(&mut stale, &ops);
/// assert!(stale.iter().zip(&ops).all(|(a, b)| Arc::ptr_eq(a, b)));
/// ```
pub fn clone_handles_from<T>(into: &mut Vec<Arc<T>>, from: &[Arc<T>]) {
    let shared = into
        .iter()
        .zip(from)
        .take_while(|(mine, theirs)| Arc::ptr_eq(mine, theirs))
        .count();
    into.truncate(shared);
    into.extend_from_slice(&from[shared..]);
}

/// Makes `into` a copy of `from`, keeping the entries whose keys both hold
/// (their values copied over with `V::clone_from`), removing those only
/// `into` holds and inserting those only `from` holds. Over two versions of
/// one replica's map that is the entries the versions differ in, and the
/// tree's nodes are reused.
pub fn clone_map_from<K: Ord + Clone, V: Clone>(into: &mut BTreeMap<K, V>, from: &BTreeMap<K, V>) {
    clone_map_with(into, from, V::clone_from);
}

/// [`clone_map_from`], with `copy` copying a value over another.
pub(crate) fn clone_map_with<K: Ord + Clone, V: Clone>(
    into: &mut BTreeMap<K, V>,
    from: &BTreeMap<K, V>,
    copy: impl Fn(&mut V, &V),
) {
    if into.len() == from.len() && into.keys().eq(from.keys()) {
        for (mine, theirs) in into.values_mut().zip(from.values()) {
            copy(mine, theirs);
        }
        return;
    }
    into.retain(|key, _| from.contains_key(key));
    for (key, value) in from {
        match into.get_mut(key) {
            Some(mine) => copy(mine, value),
            None => drop(into.insert(key.clone(), value.clone())),
        }
    }
}

/// [`clone_map_from`] for a set.
pub(crate) fn clone_set_from<T: Ord + Clone>(into: &mut BTreeSet<T>, from: &BTreeSet<T>) {
    if into.len() == from.len() && into.iter().eq(from) {
        return;
    }
    into.retain(|item| from.contains(item));
    for item in from {
        if !into.contains(item) {
            into.insert(item.clone());
        }
    }
}

/// `Arc::clone_from` that leaves a handle on the same value alone, instead
/// of taking one reference and dropping another.
pub(crate) fn clone_arc_from<T: ?Sized>(into: &mut Arc<T>, from: &Arc<T>) {
    if !Arc::ptr_eq(into, from) {
        *into = Arc::clone(from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_map_copy_reuses_what_both_hold_and_fixes_the_rest() {
        let from: BTreeMap<i64, String> = (0..6).map(|k| (k, format!("v{k}"))).collect();
        for stale in [
            from.clone(),
            BTreeMap::new(),
            (3..9).map(|k| (k, format!("w{k}"))).collect(),
        ] {
            let mut into = stale;
            clone_map_from(&mut into, &from);
            assert_eq!(into, from);
        }
        let set: BTreeSet<i64> = (0..6).collect();
        for stale in [set.clone(), BTreeSet::new(), (3..9).collect()] {
            let mut into = stale;
            clone_set_from(&mut into, &set);
            assert_eq!(into, set);
        }
    }

    #[test]
    fn a_handle_copy_keeps_the_shared_prefix_and_replaces_the_rest() {
        let ops: Vec<Arc<i64>> = (0..4).map(Arc::new).collect();
        let mut stale: Vec<Arc<i64>> = ops[..2].to_vec();
        stale.extend([Arc::new(9), Arc::new(8), Arc::new(7)]);
        let kept = Arc::clone(&stale[1]);
        clone_handles_from(&mut stale, &ops);
        assert!(stale.iter().zip(&ops).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(stale.len(), 4);
        // The prefix was neither released nor acquired again.
        assert_eq!(Arc::strong_count(&kept), 3);
        clone_handles_from(&mut stale, &ops[..1]);
        assert_eq!(stale, ops[..1]);

        let mut one = Arc::new(1);
        let same = Arc::clone(&one);
        clone_arc_from(&mut one, &same);
        assert_eq!(Arc::strong_count(&same), 2);
        clone_arc_from(&mut one, &Arc::new(2));
        assert_eq!((*one, Arc::strong_count(&same)), (2, 1));
    }
}
