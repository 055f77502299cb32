//! Grow-only and increment/decrement counters.

use std::collections::BTreeMap;
use std::fmt;

use er_pi_model::{CanonicalEncode, ReplicaId};
use serde::{Deserialize, Serialize};

use crate::{clone_map_from, StateCrdt};

/// A grow-only counter: one monotone count per replica; value = sum.
///
/// ```
/// use er_pi_model::{CanonicalEncode, ReplicaId};
/// use er_pi_rdl::{GCounter, StateCrdt};
///
/// let mut a = GCounter::new(ReplicaId::new(0));
/// let mut b = GCounter::new(ReplicaId::new(1));
/// a.increment(3);
/// b.increment(2);
/// a.merge(&b);
/// assert_eq!(a.value(), 5);
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GCounter {
    replica: ReplicaId,
    counts: BTreeMap<ReplicaId, u64>,
}

impl Clone for GCounter {
    fn clone(&self) -> Self {
        let GCounter { replica, counts } = self;
        GCounter {
            replica: *replica,
            counts: counts.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let GCounter { replica, counts } = source;
        self.replica = *replica;
        clone_map_from(&mut self.counts, counts);
    }
}

impl GCounter {
    /// Creates a zeroed counter owned by `replica`.
    pub fn new(replica: ReplicaId) -> Self {
        GCounter {
            replica,
            counts: BTreeMap::new(),
        }
    }

    /// The replica this handle mutates on behalf of.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Adds `by` to the local replica's count.
    pub fn increment(&mut self, by: u64) {
        *self.counts.entry(self.replica).or_insert(0) += by;
    }

    /// The converged value: the sum of all per-replica counts.
    pub fn value(&self) -> u64 {
        self.counts.values().sum()
    }

    /// The contribution of one specific replica.
    pub fn contribution(&self, replica: ReplicaId) -> u64 {
        self.counts.get(&replica).copied().unwrap_or(0)
    }
}

impl StateCrdt for GCounter {
    fn merge(&mut self, other: &Self) {
        for (&r, &c) in &other.counts {
            let mine = self.counts.entry(r).or_insert(0);
            if c > *mine {
                *mine = c;
            }
        }
    }
}

impl fmt::Display for GCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GCounter({})", self.value())
    }
}

/// A positive-negative counter: two [`GCounter`]s, one for increments and one
/// for decrements.
///
/// ```
/// use er_pi_model::{CanonicalEncode, ReplicaId};
/// use er_pi_rdl::{PnCounter, StateCrdt};
///
/// let mut a = PnCounter::new(ReplicaId::new(0));
/// a.increment(10);
/// a.decrement(4);
/// assert_eq!(a.value(), 6);
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PnCounter {
    inc: GCounter,
    dec: GCounter,
}

impl Clone for PnCounter {
    fn clone(&self) -> Self {
        let PnCounter { inc, dec } = self;
        PnCounter {
            inc: inc.clone(),
            dec: dec.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let PnCounter { inc, dec } = source;
        self.inc.clone_from(inc);
        self.dec.clone_from(dec);
    }
}

impl PnCounter {
    /// Creates a zeroed counter owned by `replica`.
    pub fn new(replica: ReplicaId) -> Self {
        PnCounter {
            inc: GCounter::new(replica),
            dec: GCounter::new(replica),
        }
    }

    /// The replica this handle mutates on behalf of.
    pub fn replica(&self) -> ReplicaId {
        self.inc.replica()
    }

    /// Adds `by`.
    pub fn increment(&mut self, by: u64) {
        self.inc.increment(by);
    }

    /// Subtracts `by`.
    pub fn decrement(&mut self, by: u64) {
        self.dec.increment(by);
    }

    /// The converged value (may be negative).
    pub fn value(&self) -> i64 {
        self.inc.value() as i64 - self.dec.value() as i64
    }
}

impl StateCrdt for PnCounter {
    fn merge(&mut self, other: &Self) {
        self.inc.merge(&other.inc);
        self.dec.merge(&other.dec);
    }
}

impl CanonicalEncode for GCounter {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.replica.encode_canonical(out);
        self.counts.encode_canonical(out);
    }
}

impl CanonicalEncode for PnCounter {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.inc.encode_canonical(out);
        self.dec.encode_canonical(out);
    }
}

impl fmt::Display for PnCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PnCounter({})", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn gcounter_counts_per_replica() {
        let mut c = GCounter::new(r(0));
        c.increment(1);
        c.increment(2);
        assert_eq!(c.value(), 3);
        assert_eq!(c.contribution(r(0)), 3);
        assert_eq!(c.contribution(r(1)), 0);
    }

    #[test]
    fn gcounter_merge_takes_max_not_sum() {
        let mut a = GCounter::new(r(0));
        a.increment(5);
        let snapshot = a.clone();
        a.increment(1);
        // Re-merging an older snapshot must not double count.
        a.merge(&snapshot);
        assert_eq!(a.value(), 6);
    }

    #[test]
    fn gcounter_concurrent_increments_sum() {
        let mut a = GCounter::new(r(0));
        let mut b = GCounter::new(r(1));
        a.increment(2);
        b.increment(7);
        let merged = a.merged(&b);
        assert_eq!(merged.value(), 9);
    }

    #[test]
    fn pncounter_can_go_negative() {
        let mut c = PnCounter::new(r(0));
        c.decrement(4);
        assert_eq!(c.value(), -4);
        c.increment(1);
        assert_eq!(c.value(), -3);
    }

    #[test]
    fn pncounter_merge_converges_from_both_sides() {
        let mut a = PnCounter::new(r(0));
        let mut b = PnCounter::new(r(1));
        a.increment(10);
        b.decrement(3);
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        // The owner-replica handle differs; the replicated state must not.
        assert_eq!(ab.value(), ba.value());
        assert_eq!(ab.value(), 7);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(GCounter::new(r(0)).to_string(), "GCounter(0)");
        assert_eq!(PnCounter::new(r(0)).to_string(), "PnCounter(0)");
    }
}
