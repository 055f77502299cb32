//! Version vectors for causal comparison of replica states.

use std::cmp::Ordering;
use std::fmt;

use serde::{content_get, Content, DeError, Deserialize, Serialize};

use crate::{Dot, ReplicaId};

/// How many replicas a [`VersionVector`] counts without a heap block.
const INLINE: usize = 4;

type Pair = (ReplicaId, u64);

/// The `(replica, count)` pairs of a [`VersionVector`], sorted by replica.
///
/// A vector is cloned with every replica copy (it sits in each
/// [`DotContext`](crate::DotContext)) and holds two or three entries, so up
/// to [`INLINE`] of them live in the value itself: a clone is a `memcpy`,
/// not a map node allocated, walked and freed. Entries are never removed, so
/// a vector spills to the heap once and stays there.
#[derive(Clone)]
enum Counts {
    Inline { len: u8, pairs: [Pair; INLINE] },
    Spilled(Vec<Pair>),
}

impl Counts {
    fn as_slice(&self) -> &[Pair] {
        match self {
            Counts::Inline { len, pairs } => &pairs[..usize::from(*len)],
            Counts::Spilled(pairs) => pairs,
        }
    }

    /// The count of `replica`, entered as 0 if it has none yet.
    fn slot(&mut self, replica: ReplicaId) -> &mut u64 {
        let at = match self.as_slice().binary_search_by_key(&replica, |&(r, _)| r) {
            Ok(at) => at,
            Err(at) => {
                self.insert(at, (replica, 0));
                at
            }
        };
        match self {
            Counts::Inline { pairs, .. } => &mut pairs[at].1,
            Counts::Spilled(pairs) => &mut pairs[at].1,
        }
    }

    fn insert(&mut self, at: usize, pair: Pair) {
        match self {
            Counts::Inline { len, pairs } if usize::from(*len) < INLINE => {
                pairs.copy_within(at..usize::from(*len), at + 1);
                pairs[at] = pair;
                *len += 1;
            }
            Counts::Inline { pairs, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE);
                spilled.extend_from_slice(pairs);
                spilled.insert(at, pair);
                *self = Counts::Spilled(spilled);
            }
            Counts::Spilled(pairs) => pairs.insert(at, pair),
        }
    }
}

impl Default for Counts {
    fn default() -> Self {
        Counts::Inline {
            len: 0,
            pairs: [(ReplicaId::new(0), 0); INLINE],
        }
    }
}

/// A version vector: per-replica count of observed updates.
///
/// Used by the op-based CRDTs in the RDL substrate to compute sync deltas
/// ("which of your operations have I not yet seen?") and by the misconception
/// tests to decide whether two replica states are causally comparable.
///
/// ```
/// use er_pi_model::{ReplicaId, VersionVector};
///
/// let r0 = ReplicaId::new(0);
/// let r1 = ReplicaId::new(1);
///
/// let mut a = VersionVector::new();
/// a.increment(r0);
/// let mut b = VersionVector::new();
/// b.increment(r1);
///
/// assert!(a.concurrent(&b));
/// b.merge(&a);
/// assert!(b.dominates(&a));
/// ```
#[derive(Clone, Default)]
pub struct VersionVector {
    counts: Counts,
}

impl VersionVector {
    /// Creates an empty version vector (no updates observed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the number of updates observed from `replica`.
    pub fn get(&self, replica: ReplicaId) -> u64 {
        let pairs = self.counts.as_slice();
        pairs
            .iter()
            .find(|&&(r, _)| r == replica)
            .map_or(0, |&(_, c)| c)
    }

    /// Records one more local update at `replica` and returns its [`Dot`].
    pub fn increment(&mut self, replica: ReplicaId) -> Dot {
        let c = self.counts.slot(replica);
        *c += 1;
        Dot::new(replica, *c)
    }

    /// Returns `true` if this vector has already observed `dot`.
    pub fn contains(&self, dot: Dot) -> bool {
        self.get(dot.replica) >= dot.counter
    }

    /// Observes `dot`, extending the replica's count if the dot is the next
    /// expected one or beyond (gaps are absorbed — this models op logs that
    /// deliver batches).
    pub fn observe(&mut self, dot: Dot) {
        let c = self.counts.slot(dot.replica);
        if dot.counter > *c {
            *c = dot.counter;
        }
    }

    /// Point-wise maximum with `other`.
    pub fn merge(&mut self, other: &VersionVector) {
        for &(r, c) in other.counts.as_slice() {
            let mine = self.counts.slot(r);
            if c > *mine {
                *mine = c;
            }
        }
    }

    /// Returns `true` if `self` has observed everything `other` has.
    pub fn dominates(&self, other: &VersionVector) -> bool {
        other.iter().all(|(r, c)| self.get(r) >= c)
    }

    /// Returns `true` if neither vector dominates the other (the states are
    /// causally concurrent).
    pub fn concurrent(&self, other: &VersionVector) -> bool {
        !self.dominates(other) && !other.dominates(self)
    }

    /// Partial causal comparison: `Some(Equal | Less | Greater)` when the
    /// vectors are ordered, `None` when concurrent.
    pub fn partial_cmp_causal(&self, other: &VersionVector) -> Option<Ordering> {
        match (self.dominates(other), other.dominates(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Greater),
            (false, true) => Some(Ordering::Less),
            (false, false) => None,
        }
    }

    /// Iterates over the `(replica, count)` pairs in replica order, without
    /// allocating.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ReplicaId, u64)> + '_ {
        self.counts.as_slice().iter().copied()
    }

    /// Total number of updates observed across all replicas.
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, c)| c).sum()
    }
}

/// By content: where the pairs are stored is not part of the value.
impl PartialEq for VersionVector {
    fn eq(&self, other: &Self) -> bool {
        self.counts.as_slice() == other.counts.as_slice()
    }
}

impl Eq for VersionVector {}

impl fmt::Debug for VersionVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct AsMap<'a>(&'a VersionVector);
        impl fmt::Debug for AsMap<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("VersionVector")
            .field("counts", &AsMap(self))
            .finish()
    }
}

impl FromIterator<(ReplicaId, u64)> for VersionVector {
    fn from_iter<I: IntoIterator<Item = (ReplicaId, u64)>>(iter: I) -> Self {
        let mut vector = VersionVector::new();
        for (r, c) in iter.into_iter().filter(|&(_, c)| c > 0) {
            *vector.counts.slot(r) = c;
        }
        vector
    }
}

// By hand: the wire shape stays the `{"counts": {replica: count}}` of the
// map this used to be.
impl Serialize for VersionVector {
    fn to_content(&self) -> Content {
        let counts = self
            .iter()
            .map(|(r, c)| (r.to_content(), c.to_content()))
            .collect();
        Content::Map(vec![(
            Content::Str("counts".to_owned()),
            Content::Map(counts),
        )])
    }
}

impl Deserialize for VersionVector {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let Content::Map(fields) = content else {
            return Err(DeError::expected("map", "VersionVector"));
        };
        let counts = content_get(fields, "counts")
            .ok_or(DeError::missing_field("counts", "VersionVector"))?;
        let Content::Map(entries) = counts else {
            return Err(DeError::expected("map", "VersionVector"));
        };
        let mut vector = VersionVector::new();
        for (r, c) in entries {
            *vector.counts.slot(ReplicaId::from_content(r)?) = u64::from_content(c)?;
        }
        Ok(vector)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn increment_returns_sequential_dots() {
        let mut v = VersionVector::new();
        assert_eq!(v.increment(r(0)), Dot::new(r(0), 1));
        assert_eq!(v.increment(r(0)), Dot::new(r(0), 2));
        assert_eq!(v.get(r(0)), 2);
        assert_eq!(v.get(r(1)), 0);
    }

    #[test]
    fn contains_respects_counter() {
        let mut v = VersionVector::new();
        v.increment(r(1));
        v.increment(r(1));
        assert!(v.contains(Dot::new(r(1), 1)));
        assert!(v.contains(Dot::new(r(1), 2)));
        assert!(!v.contains(Dot::new(r(1), 3)));
        assert!(!v.contains(Dot::new(r(0), 1)));
    }

    #[test]
    fn merge_is_pointwise_max() {
        let mut a: VersionVector = [(r(0), 3), (r(1), 1)].into_iter().collect();
        let b: VersionVector = [(r(0), 1), (r(2), 4)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.get(r(0)), 3);
        assert_eq!(a.get(r(1)), 1);
        assert_eq!(a.get(r(2)), 4);
    }

    #[test]
    fn dominance_and_concurrency() {
        let a: VersionVector = [(r(0), 2)].into_iter().collect();
        let b: VersionVector = [(r(0), 2), (r(1), 1)].into_iter().collect();
        let c: VersionVector = [(r(2), 1)].into_iter().collect();
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
        assert!(a.concurrent(&c));
        assert_eq!(b.partial_cmp_causal(&a), Some(std::cmp::Ordering::Greater));
        assert_eq!(a.partial_cmp_causal(&c), None);
        assert_eq!(
            a.partial_cmp_causal(&a.clone()),
            Some(std::cmp::Ordering::Equal)
        );
    }

    #[test]
    fn observe_absorbs_gaps() {
        let mut v = VersionVector::new();
        v.observe(Dot::new(r(0), 5));
        assert_eq!(v.get(r(0)), 5);
        v.observe(Dot::new(r(0), 3));
        assert_eq!(v.get(r(0)), 5);
    }

    #[test]
    fn zero_counts_are_not_stored() {
        let v: VersionVector = [(r(0), 0), (r(1), 2)].into_iter().collect();
        assert_eq!(v.iter().count(), 1);
        assert_eq!(v.total(), 2);
    }
}
