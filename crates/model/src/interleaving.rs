//! Interleavings: total orders over a workload's events.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{EventId, FaultPlan, LamportTimestamp, Workload};

/// One total order over a workload's events, plus the fault schedule it
/// executes under (empty by default — the fault-free baseline).
///
/// ```
/// use er_pi_model::{EventId, Interleaving};
///
/// let il = Interleaving::new(vec![EventId::new(2), EventId::new(0), EventId::new(1)]);
/// assert_eq!(il.position(EventId::new(0)), Some(1));
/// assert_eq!(il.to_string(), "⟨e2 e0 e1⟩");
/// ```
///
/// `Default` is the empty order, fault-free: a buffer to
/// [`refill`](Interleaving::refill), or what `mem::take` leaves behind.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interleaving {
    order: Vec<EventId>,
    /// The fault schedule this order runs under. Part of the run identity:
    /// equality, hashing, and [`fingerprint`](Interleaving::fingerprint)
    /// all include it, so the same order under two plans is two runs.
    /// `default` keeps pre-fault persisted orders deserializable.
    #[serde(default)]
    faults: FaultPlan,
}

impl Interleaving {
    /// Creates an interleaving from an explicit order (fault-free).
    pub fn new(order: Vec<EventId>) -> Self {
        Interleaving {
            order,
            faults: FaultPlan::empty(),
        }
    }

    /// The identity order over `n` events (`e0, e1, …`).
    pub fn identity(n: usize) -> Self {
        Interleaving::new((0..n as u32).map(EventId::new).collect())
    }

    /// Returns this order scheduled under `faults`.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Rewrites this interleaving in place: `write` appends the new order
    /// of `len` events to the emptied order, and the plan becomes `faults`.
    ///
    /// The order keeps its allocation, so an explorer that dispenses into
    /// the same buffer run after run allocates nothing; an empty buffer
    /// grows to exactly `len`, so an order taken out of it with
    /// `mem::take` carries no spare capacity.
    ///
    /// ```
    /// use er_pi_model::{EventId, FaultPlan, Interleaving};
    ///
    /// let mut buf = Interleaving::default();
    /// buf.refill(3, &FaultPlan::empty(), |order| {
    ///     order.extend([2, 0, 1].map(EventId::new));
    /// });
    /// assert_eq!(buf.to_string(), "⟨e2 e0 e1⟩");
    /// ```
    pub fn refill(
        &mut self,
        len: usize,
        faults: &FaultPlan,
        write: impl FnOnce(&mut Vec<EventId>),
    ) {
        self.order.clear();
        self.order.reserve_exact(len);
        write(&mut self.order);
        debug_assert_eq!(self.order.len(), len, "the order written is `len` long");
        self.faults.clone_from(faults);
    }

    /// The fault schedule this order runs under.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Number of events in the order.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates over the event ids in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, EventId> {
        self.order.iter()
    }

    /// Returns the order as a slice.
    pub fn as_slice(&self) -> &[EventId] {
        &self.order
    }

    /// Consumes the interleaving, returning the underlying order (the fault
    /// plan, if any, is discarded).
    pub fn into_inner(self) -> Vec<EventId> {
        self.order
    }

    /// Returns the position of `id` in the order, if present.
    pub fn position(&self, id: EventId) -> Option<usize> {
        self.order.iter().position(|&e| e == id)
    }

    /// Returns a position lookup table: `table[event.index()] = position`.
    ///
    /// # Panics
    ///
    /// Panics if an event id's index exceeds `len` (the interleaving is not
    /// over dense ids `0..len`).
    pub fn position_table(&self) -> Vec<usize> {
        let mut table = vec![usize::MAX; self.order.len()];
        for (pos, &id) in self.order.iter().enumerate() {
            table[id.index()] = pos;
        }
        table
    }

    /// Returns `true` if `a` occurs before `b` in this order.
    ///
    /// # Panics
    ///
    /// Panics if either event is absent from the order.
    pub fn precedes(&self, a: EventId, b: EventId) -> bool {
        let pa = self.position(a).expect("event a in interleaving");
        let pb = self.position(b).expect("event b in interleaving");
        pa < pb
    }

    /// Assigns Lamport timestamps to every event of the order (paper §4.2):
    /// each event gets the timestamp `position + 1` at the replica where it
    /// executes, which is exactly the execution order the distributed lock
    /// enforces during replay.
    pub fn assign_timestamps(&self, workload: &Workload) -> Vec<(EventId, LamportTimestamp)> {
        self.order
            .iter()
            .enumerate()
            .map(|(pos, &id)| {
                let replica = workload.event(id).replica;
                (id, LamportTimestamp::new(pos as u64 + 1, replica))
            })
            .collect()
    }

    /// Length of the longest common prefix shared with `other` — the
    /// number of leading events the two orders execute identically.
    ///
    /// This is the quantity the incremental replay engine trades on:
    /// lexicographically adjacent interleavings share long prefixes, and a
    /// cached checkpoint at depth `common_prefix_len` lets the executor
    /// replay only the divergent suffix.
    ///
    /// ```
    /// use er_pi_model::{EventId, Interleaving};
    ///
    /// let e = |i| EventId::new(i);
    /// let a = Interleaving::new(vec![e(0), e(1), e(2), e(3)]);
    /// let b = Interleaving::new(vec![e(0), e(1), e(3), e(2)]);
    /// assert_eq!(a.common_prefix_len(&b), 2);
    /// assert_eq!(a.common_prefix_len(&a), 4);
    /// ```
    pub fn common_prefix_len(&self, other: &Interleaving) -> usize {
        // Two orders under different fault schedules never share replayable
        // state: even identical leading events can diverge at an anchored
        // fault, so the conservative (and sound) answer is zero. Finer
        // per-anchor sharing is the incremental executor's job — its path
        // steps carry per-event fault digests.
        if self.faults != other.faults {
            return 0;
        }
        self.order
            .iter()
            .zip(&other.order)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// A stable 64-bit fingerprint of the order (FNV-1a), used by the Random
    /// explorer's seen-set and by persistence layers as a compact key.
    ///
    /// A non-empty fault plan mixes its digest in, so the same order under
    /// two schedules fingerprints differently; fault-free fingerprints are
    /// unchanged from earlier versions.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &id in &self.order {
            for b in id.raw().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let plan = self.faults.digest();
        if plan != 0 {
            for b in plan.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

impl From<Vec<EventId>> for Interleaving {
    fn from(order: Vec<EventId>) -> Self {
        Interleaving::new(order)
    }
}

impl FromIterator<EventId> for Interleaving {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        Interleaving::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Interleaving {
    type Item = &'a EventId;
    type IntoIter = std::slice::Iter<'a, EventId>;

    fn into_iter(self) -> Self::IntoIter {
        self.order.iter()
    }
}

impl fmt::Display for Interleaving {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("⟨")?;
        for (i, id) in self.order.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{id}")?;
        }
        f.write_str("⟩")?;
        if !self.faults.is_empty() {
            write!(f, " ⚡{}", self.faults)?;
        }
        Ok(())
    }
}

/// `n!` as a `u128`, saturating at `u128::MAX` (34! overflows).
///
/// ```
/// use er_pi_model::factorial;
///
/// assert_eq!(factorial(7), 5040);
/// assert_eq!(factorial(0), 1);
/// assert_eq!(factorial(40), u128::MAX); // saturated
/// ```
pub fn factorial(n: usize) -> u128 {
    let mut acc: u128 = 1;
    for k in 2..=n as u128 {
        acc = match acc.checked_mul(k) {
            Some(v) => v,
            None => return u128::MAX,
        };
    }
    acc
}

/// The problem-space reduction factor `⌊total / remaining⌋` the paper
/// reports (e.g. `⌊5040 / 19⌋ = 265` for the motivating example).
///
/// Returns `None` if `remaining` is zero.
pub fn reduction_factor(total: u128, remaining: u128) -> Option<u128> {
    total.checked_div(remaining)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Interleaving {
        raw.iter().copied().map(EventId::new).collect()
    }

    #[test]
    fn identity_is_sorted() {
        let il = Interleaving::identity(4);
        assert_eq!(il.as_slice(), &[0, 1, 2, 3].map(EventId::new));
    }

    #[test]
    fn position_and_precedes() {
        let il = ids(&[2, 0, 1]);
        assert_eq!(il.position(EventId::new(2)), Some(0));
        assert!(il.precedes(EventId::new(2), EventId::new(1)));
        assert!(!il.precedes(EventId::new(1), EventId::new(2)));
    }

    #[test]
    fn position_table_inverts_order() {
        let il = ids(&[2, 0, 1]);
        let table = il.position_table();
        assert_eq!(table, vec![1, 2, 0]);
    }

    #[test]
    fn common_prefix_len_edges() {
        let a = ids(&[0, 1, 2]);
        let b = ids(&[1, 0, 2]);
        assert_eq!(a.common_prefix_len(&b), 0);
        assert_eq!(a.common_prefix_len(&ids(&[0, 1])), 2);
        assert_eq!(ids(&[]).common_prefix_len(&a), 0);
    }

    #[test]
    fn fingerprint_distinguishes_orders() {
        let a = ids(&[0, 1, 2]);
        let b = ids(&[0, 2, 1]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), ids(&[0, 1, 2]).fingerprint());
    }

    #[test]
    fn factorial_small_values() {
        assert_eq!(factorial(1), 1);
        assert_eq!(factorial(4), 24);
        assert_eq!(factorial(8), 40_320);
        assert_eq!(factorial(10), 3_628_800);
        // 21 events (Roshi-3): astronomically large but still representable.
        assert_eq!(factorial(21), 51_090_942_171_709_440_000);
    }

    #[test]
    fn reduction_factor_matches_paper_motivating_example() {
        assert_eq!(reduction_factor(5040, 19), Some(265));
        assert_eq!(reduction_factor(40_320, 720), Some(56));
        assert_eq!(reduction_factor(10, 0), None);
    }

    #[test]
    fn timestamps_follow_positions() {
        use crate::{ReplicaId, Workload};
        let mut w = Workload::builder();
        let a = w.update(ReplicaId::new(0), "x", [1]);
        let b = w.update(ReplicaId::new(1), "y", [2]);
        let w = w.build();
        let il = Interleaving::new(vec![b, a]);
        let ts = il.assign_timestamps(&w);
        assert_eq!(ts[0].0, b);
        assert_eq!(ts[0].1.time, 1);
        assert_eq!(ts[0].1.replica, ReplicaId::new(1));
        assert_eq!(ts[1].1.time, 2);
    }

    #[test]
    fn display_wraps_in_angle_brackets() {
        assert_eq!(ids(&[1, 0]).to_string(), "⟨e1 e0⟩");
    }

    #[test]
    fn fault_plans_enter_the_run_identity() {
        use crate::{FaultEvent, FaultKind, FaultPlan};
        let base = ids(&[0, 1, 2]);
        let plan = FaultPlan::new(vec![FaultEvent::new(EventId::new(1), FaultKind::Duplicate)]);
        let faulted = base.clone().with_faults(plan.clone());
        assert_ne!(base, faulted);
        assert_ne!(base.fingerprint(), faulted.fingerprint());
        // The fault-free fingerprint is stable across the plan's addition.
        assert_eq!(
            base.fingerprint(),
            base.clone().with_faults(FaultPlan::empty()).fingerprint()
        );
        // Different schedules over the same order never share a prefix …
        assert_eq!(base.common_prefix_len(&faulted), 0);
        // … but the same schedule shares prefixes as before.
        let faulted2 = ids(&[0, 1, 2]).with_faults(plan);
        assert_eq!(faulted.common_prefix_len(&faulted2), 3);
    }

    #[test]
    fn clone_from_overwrites_order_and_plan() {
        use crate::{FaultEvent, FaultKind, FaultPlan};
        let plan = FaultPlan::new(vec![FaultEvent::new(EventId::new(1), FaultKind::Drop)]);
        let mut scratch = ids(&[3, 2, 1, 0]).with_faults(plan.clone());
        for source in [ids(&[0, 1]), ids(&[2, 0, 1]).with_faults(plan)] {
            scratch.clone_from(&source);
            assert_eq!(scratch, source);
            assert_eq!(scratch.fingerprint(), source.fingerprint());
        }
    }

    #[test]
    fn refill_overwrites_order_and_plan_in_place() {
        use crate::{FaultEvent, FaultKind, FaultPlan};
        let plan = FaultPlan::new(vec![FaultEvent::new(EventId::new(1), FaultKind::Drop)]);
        let mut buf = ids(&[3, 2, 1, 0]).with_faults(plan.clone());
        let at = buf.as_slice().as_ptr();
        buf.refill(2, &FaultPlan::empty(), |order| {
            order.extend([EventId::new(1), EventId::new(0)])
        });
        assert_eq!(buf, ids(&[1, 0]));
        assert_eq!(buf.as_slice().as_ptr(), at, "the order kept its block");
        buf.refill(3, &plan, |order| order.extend((0..3).map(EventId::new)));
        assert_eq!(buf, ids(&[0, 1, 2]).with_faults(plan));
        let taken = std::mem::take(&mut buf);
        assert_eq!(buf, Interleaving::default());
        let mut fresh = Interleaving::default();
        fresh.refill(3, taken.faults(), |order| {
            order.extend_from_slice(taken.as_slice())
        });
        assert_eq!(fresh, taken);
        assert_eq!(fresh.into_inner().capacity(), 3, "no spare capacity");
    }

    #[test]
    fn legacy_serialized_orders_still_deserialize() {
        // Persisted interleavings from before the fault model carry no
        // `faults` field; `#[serde(default)]` reads them as fault-free.
        let legacy = r#"{"order":[1,0]}"#;
        let back: Interleaving = serde_json::from_str(legacy).unwrap();
        assert_eq!(back, ids(&[1, 0]));
        assert!(back.faults().is_empty());
        let json = serde_json::to_string(&ids(&[1, 0])).unwrap();
        let again: Interleaving = serde_json::from_str(&json).unwrap();
        assert_eq!(again, ids(&[1, 0]));
    }

    #[test]
    fn faulted_serialization_roundtrips() {
        use crate::{FaultEvent, FaultKind, FaultPlan};
        let il = ids(&[1, 0]).with_faults(FaultPlan::new(vec![FaultEvent::new(
            EventId::new(0),
            FaultKind::Drop,
        )]));
        let json = serde_json::to_string(&il).unwrap();
        let back: Interleaving = serde_json::from_str(&json).unwrap();
        assert_eq!(back, il);
        assert_eq!(back.faults().len(), 1);
    }
}
