//! Dot contexts: exact tracking of observed update identities.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::{Dot, ReplicaId, VersionVector};

/// Tracks exactly which [`Dot`]s have been observed, tolerating gaps.
///
/// A plain [`VersionVector`] can only represent contiguous prefixes of each
/// replica's updates; delivering operation 2 before operation 1 would either
/// lose information or (with gap-absorbing semantics) wrongly mark the
/// earlier operation as seen. A dot context keeps a compact vector for the
/// contiguous prefix plus a *cloud* of out-of-order dots, compacting the
/// cloud into the vector as gaps fill.
///
/// ```
/// use er_pi_model::{Dot, DotContext, ReplicaId};
///
/// let r = ReplicaId::new(0);
/// let mut ctx = DotContext::new();
/// ctx.add(Dot::new(r, 2)); // out of order
/// assert!(ctx.contains(Dot::new(r, 2)));
/// assert!(!ctx.contains(Dot::new(r, 1)));
/// ctx.add(Dot::new(r, 1)); // gap fills, cloud compacts
/// assert_eq!(ctx.vector().get(r), 2);
/// ```
///
/// `clone_from` copies the cloud into the set it already has: over a copy
/// that holds the same dots (a refill over a stale copy of the same
/// replica) it allocates nothing.
#[derive(Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DotContext {
    vector: VersionVector,
    cloud: BTreeSet<Dot>,
}

impl Clone for DotContext {
    fn clone(&self) -> Self {
        let DotContext { vector, cloud } = self;
        DotContext {
            vector: vector.clone(),
            cloud: cloud.clone(),
        }
    }

    /// Field by field; the cloud keeps the dots both sets hold and gains
    /// only the rest.
    fn clone_from(&mut self, source: &Self) {
        let DotContext { vector, cloud } = source;
        self.vector.clone_from(vector);
        if self.cloud.len() == cloud.len() && self.cloud.iter().eq(cloud) {
            return;
        }
        self.cloud.retain(|dot| cloud.contains(dot));
        self.cloud.extend(cloud);
    }
}

impl DotContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if `dot` has been observed.
    pub fn contains(&self, dot: Dot) -> bool {
        self.vector.contains(dot) || self.cloud.contains(&dot)
    }

    /// Records `dot` as observed, compacting the cloud when possible.
    pub fn add(&mut self, dot: Dot) {
        if self.vector.contains(dot) {
            return;
        }
        if dot.counter == self.vector.get(dot.replica) + 1 {
            self.advance_contiguous(dot.replica, dot.counter);
        } else {
            self.cloud.insert(dot);
        }
    }

    fn advance_contiguous(&mut self, replica: ReplicaId, mut counter: u64) {
        // Extend the contiguous prefix as far as the cloud allows.
        while self.cloud.remove(&Dot::new(replica, counter + 1)) {
            counter += 1;
        }
        self.vector.observe(Dot::new(replica, counter));
    }

    /// Mints the next dot for a local update at `replica` and records it.
    pub fn next_dot(&mut self, replica: ReplicaId) -> Dot {
        // Local updates are always contiguous for the local replica.
        let dot = Dot::new(replica, self.vector.get(replica) + 1);
        self.add(dot);
        dot
    }

    /// The compact (contiguous-prefix) version vector.
    ///
    /// This is what gets attached to sync requests: the sender responds with
    /// every operation not covered by it, and the receiver's cloud dedups
    /// any operations it already holds out of order.
    pub fn vector(&self) -> &VersionVector {
        &self.vector
    }

    /// Number of out-of-order dots currently parked in the cloud.
    pub fn cloud_len(&self) -> usize {
        self.cloud.len()
    }

    /// Merges another context (union of observations).
    pub fn merge(&mut self, other: &DotContext) {
        for (r, c) in other.vector.iter() {
            for k in self.vector.get(r) + 1..=c {
                self.add(Dot::new(r, k));
            }
        }
        for &d in &other.cloud {
            self.add(d);
        }
    }
}

impl crate::CanonicalEncode for DotContext {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.vector.encode_canonical(out);
        // The cloud is a BTreeSet: iteration order is sorted, deterministic.
        (self.cloud.len() as u64).encode_canonical(out);
        for dot in &self.cloud {
            dot.encode_canonical(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn out_of_order_dots_stay_distinct() {
        let mut ctx = DotContext::new();
        ctx.add(Dot::new(r(0), 3));
        assert!(ctx.contains(Dot::new(r(0), 3)));
        assert!(!ctx.contains(Dot::new(r(0), 1)));
        assert!(!ctx.contains(Dot::new(r(0), 2)));
        assert_eq!(ctx.cloud_len(), 1);
        assert_eq!(ctx.vector().get(r(0)), 0);
    }

    #[test]
    fn cloud_compacts_when_gap_fills() {
        let mut ctx = DotContext::new();
        ctx.add(Dot::new(r(0), 2));
        ctx.add(Dot::new(r(0), 3));
        assert_eq!(ctx.cloud_len(), 2);
        ctx.add(Dot::new(r(0), 1));
        assert_eq!(ctx.cloud_len(), 0);
        assert_eq!(ctx.vector().get(r(0)), 3);
    }

    #[test]
    fn add_is_idempotent() {
        let mut ctx = DotContext::new();
        ctx.add(Dot::new(r(0), 1));
        let snapshot = ctx.clone();
        ctx.add(Dot::new(r(0), 1));
        assert_eq!(ctx, snapshot);
    }

    #[test]
    fn next_dot_is_sequential() {
        let mut ctx = DotContext::new();
        assert_eq!(ctx.next_dot(r(1)), Dot::new(r(1), 1));
        assert_eq!(ctx.next_dot(r(1)), Dot::new(r(1), 2));
        assert_eq!(ctx.vector().get(r(1)), 2);
    }

    #[test]
    fn clone_from_leaves_a_copy_equal_to_its_source() {
        let context = |dots: &[(u16, u64)]| {
            let mut ctx = DotContext::new();
            for &(replica, counter) in dots {
                ctx.add(Dot::new(r(replica), counter));
            }
            ctx
        };
        let source = context(&[(0, 1), (0, 3), (1, 4), (2, 2)]);
        for stale in [
            source.clone(),
            DotContext::new(),
            context(&[(0, 3), (1, 2), (1, 7)]),
            context(&[(0, 1), (0, 2), (0, 3), (0, 5)]),
        ] {
            let mut into = stale;
            into.clone_from(&source);
            assert_eq!(into, source);
            assert_eq!(into.cloud_len(), source.cloud_len());
        }
    }

    #[test]
    fn merge_unions_observations() {
        let mut a = DotContext::new();
        a.add(Dot::new(r(0), 1));
        a.add(Dot::new(r(1), 2)); // cloud
        let mut b = DotContext::new();
        b.add(Dot::new(r(1), 1));
        a.merge(&b);
        assert_eq!(a.vector().get(r(1)), 2, "gap filled by merge");
        assert_eq!(a.cloud_len(), 0);
    }
}
