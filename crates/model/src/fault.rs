//! Fault plans: faults as deterministic, schedulable choice points.
//!
//! ER-π's original fault story lived in the virtual network's RNG-seeded
//! delivery modes — adverse behaviors *outside* the replayed schedule, so a
//! fault-dependent violation could not be exhaustively searched for or
//! minimally reproduced. This module promotes faults to first-class recorded
//! events (the iReplayer lesson): a [`FaultPlan`] is a set of
//! [`FaultEvent`]s, each anchored to a workload event id, and the plan
//! travels *inside* the [`Interleaving`](crate::Interleaving) so every
//! downstream layer — dedup, pooling, checkpoint reuse, persistence,
//! telemetry — sees the fault schedule as part of the run identity.
//!
//! Anchoring on [`EventId`] (not on interleaving positions) keeps a plan
//! meaningful across *every* order of the same workload, which is what lets
//! the explorer take the product `interleavings × plans` without re-deriving
//! plans per order.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::{EventId, ReplicaId};

/// One kind of injected fault, interpreted relative to its anchor event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// The anchor event's effect is lost: the op is recorded as failed and
    /// never applied (a dropped message).
    Drop,
    /// The anchor event's effect is applied twice (a duplicated delivery).
    Duplicate,
    /// The anchor event's effect is deferred by `by` schedule steps — the
    /// reorder-window fault: the op is recorded as failed at its slot and
    /// its effect lands after `by` later events have executed.
    Delay {
        /// How many schedule steps later the effect fires.
        by: u32,
    },
    /// Just before the anchor executes, the link between `from` and `to` is
    /// cut (symmetric). Sync events across a cut link fail deterministically.
    Partition {
        /// One endpoint of the cut link.
        from: ReplicaId,
        /// The other endpoint.
        to: ReplicaId,
    },
    /// Just before the anchor executes, the link between `from` and `to` is
    /// restored.
    Heal {
        /// One endpoint of the restored link.
        from: ReplicaId,
        /// The other endpoint.
        to: ReplicaId,
    },
    /// Just before the anchor executes, `replica` crashes and restarts,
    /// recovering via [`SystemModel::recover`] (log replay in models that
    /// keep a durable log; fresh init otherwise).
    ///
    /// [`SystemModel::recover`]: https://docs.rs/er-pi
    CrashRestart {
        /// The replica that crashes.
        replica: ReplicaId,
    },
}

impl FaultKind {
    /// Stable discriminant used by digests (serialization-independent).
    fn tag(&self) -> u8 {
        match self {
            FaultKind::Drop => 1,
            FaultKind::Duplicate => 2,
            FaultKind::Delay { .. } => 3,
            FaultKind::Partition { .. } => 4,
            FaultKind::Heal { .. } => 5,
            FaultKind::CrashRestart { .. } => 6,
        }
    }

    fn mix(&self, h: &mut u64) {
        fnv(h, &[self.tag()]);
        match self {
            FaultKind::Drop | FaultKind::Duplicate => {}
            FaultKind::Delay { by } => fnv(h, &by.to_le_bytes()),
            FaultKind::Partition { from, to } | FaultKind::Heal { from, to } => {
                fnv(h, &from.raw().to_le_bytes());
                fnv(h, &to.raw().to_le_bytes());
            }
            FaultKind::CrashRestart { replica } => fnv(h, &replica.raw().to_le_bytes()),
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Drop => f.write_str("drop"),
            FaultKind::Duplicate => f.write_str("duplicate"),
            FaultKind::Delay { by } => write!(f, "delay+{by}"),
            FaultKind::Partition { from, to } => write!(f, "partition {from}⊥{to}"),
            FaultKind::Heal { from, to } => write!(f, "heal {from}~{to}"),
            FaultKind::CrashRestart { replica } => write!(f, "crash {replica}"),
        }
    }
}

/// One scheduled fault: a [`FaultKind`] anchored at a workload event.
///
/// The anchor is the event *at whose execution step* the fault takes
/// effect; because anchors are event ids, the same plan is meaningful in
/// every interleaving of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The workload event the fault is attached to.
    pub anchor: EventId,
    /// What happens there.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// Creates a fault event.
    pub fn new(anchor: EventId, kind: FaultKind) -> Self {
        FaultEvent { anchor, kind }
    }
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.kind, self.anchor)
    }
}

/// A deterministic fault schedule: a sorted set of [`FaultEvent`]s.
///
/// The empty plan is the fault-free baseline; [`Interleaving`]s carry a plan
/// (empty by default) and mix a non-empty plan's [`digest`] into their
/// fingerprint, so two runs of the same order under different schedules are
/// distinct everywhere a fingerprint is used as identity.
///
/// [`digest`]: FaultPlan::digest
/// [`Interleaving`]: crate::Interleaving
///
/// ```
/// use er_pi_model::{EventId, FaultEvent, FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(vec![FaultEvent::new(EventId::new(3), FaultKind::Duplicate)]);
/// assert!(!plan.is_empty());
/// assert_ne!(plan.digest_at(EventId::new(3)), 0);
/// assert_eq!(plan.digest_at(EventId::new(4)), 0);
/// ```
///
/// The faults are shared: a clone — one per run of a fault product — is a
/// reference-count bump, and the fault-free plan holds no reference at all.
/// It serializes as the JSON array of its faults.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Sorted and deduplicated; `None` is the fault-free plan, never an
    /// empty slice.
    faults: Option<Arc<[FaultEvent]>>,
}

impl FaultPlan {
    /// Creates a plan from the given faults, normalizing to sorted order so
    /// plans compare and hash structurally.
    pub fn new(mut faults: Vec<FaultEvent>) -> Self {
        faults.sort();
        faults.dedup();
        FaultPlan {
            faults: (!faults.is_empty()).then(|| faults.into()),
        }
    }

    /// The empty (fault-free) plan.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    fn as_slice(&self) -> &[FaultEvent] {
        self.faults.as_deref().unwrap_or_default()
    }

    /// Returns `true` if the plan schedules no faults.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.faults.is_none()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Iterates over the scheduled faults in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, FaultEvent> {
        self.as_slice().iter()
    }

    /// The faults anchored at `anchor`, in sorted order.
    #[inline]
    pub fn at(&self, anchor: EventId) -> impl Iterator<Item = &FaultEvent> {
        self.iter().filter(move |f| f.anchor == anchor)
    }

    /// A 64-bit digest of the faults anchored at `anchor`, or `0` when none
    /// are. This is the per-step key component of the incremental
    /// executor's path cache: two plans that agree on every anchor along a
    /// prefix share that prefix's snapshots.
    #[inline]
    pub fn digest_at(&self, anchor: EventId) -> u64 {
        if self.faults.is_none() {
            return 0;
        }
        let mut h: u64 = 0;
        for f in self.at(anchor) {
            if h == 0 {
                h = FNV_OFFSET;
            }
            f.kind.mix(&mut h);
        }
        h
    }

    /// A 64-bit digest of the whole plan (`0` for the empty plan), mixed
    /// into [`Interleaving::fingerprint`](crate::Interleaving::fingerprint).
    pub fn digest(&self) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let mut h: u64 = FNV_OFFSET;
        for f in self {
            fnv(&mut h, &f.anchor.raw().to_le_bytes());
            f.kind.mix(&mut h);
        }
        h
    }
}

// Hashed, printed and serialized as the list of faults it used to be stored
// as, so nothing keyed on a plan sees the sharing.

impl Hash for FaultPlan {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("faults", &self.as_slice())
            .finish()
    }
}

impl Serialize for FaultPlan {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl Deserialize for FaultPlan {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Vec::from_content(content).map(FaultPlan::new)
    }
}

impl From<Vec<FaultEvent>> for FaultPlan {
    fn from(faults: Vec<FaultEvent>) -> Self {
        FaultPlan::new(faults)
    }
}

impl FromIterator<FaultEvent> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = FaultEvent>>(iter: I) -> Self {
        FaultPlan::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a FaultPlan {
    type Item = &'a FaultEvent;
    type IntoIter = std::slice::Iter<'a, FaultEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("∅");
        }
        f.write_str("{")?;
        for (i, fault) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{fault}")?;
        }
        f.write_str("}")
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EventId {
        EventId::new(i)
    }

    #[test]
    fn plans_normalize_to_sorted_order() {
        let a = FaultPlan::new(vec![
            FaultEvent::new(e(4), FaultKind::Drop),
            FaultEvent::new(e(1), FaultKind::Duplicate),
        ]);
        let b = FaultPlan::new(vec![
            FaultEvent::new(e(1), FaultKind::Duplicate),
            FaultEvent::new(e(4), FaultKind::Drop),
        ]);
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn empty_plan_has_zero_digest() {
        assert_eq!(FaultPlan::empty().digest(), 0);
        assert_eq!(FaultPlan::empty().digest_at(e(0)), 0);
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn digest_distinguishes_kinds_and_anchors() {
        let drop3 = FaultPlan::new(vec![FaultEvent::new(e(3), FaultKind::Drop)]);
        let dup3 = FaultPlan::new(vec![FaultEvent::new(e(3), FaultKind::Duplicate)]);
        let drop4 = FaultPlan::new(vec![FaultEvent::new(e(4), FaultKind::Drop)]);
        assert_ne!(drop3.digest(), dup3.digest());
        assert_ne!(drop3.digest(), drop4.digest());
        assert_ne!(drop3.digest_at(e(3)), 0);
        assert_eq!(drop3.digest_at(e(4)), 0);
        assert_ne!(drop3.digest_at(e(3)), dup3.digest_at(e(3)));
    }

    #[test]
    fn delay_parameters_reach_the_digest() {
        let d1 = FaultPlan::new(vec![FaultEvent::new(e(2), FaultKind::Delay { by: 1 })]);
        let d2 = FaultPlan::new(vec![FaultEvent::new(e(2), FaultKind::Delay { by: 2 })]);
        assert_ne!(d1.digest_at(e(2)), d2.digest_at(e(2)));
    }

    #[test]
    fn serde_roundtrip_is_transparent() {
        let plan = FaultPlan::new(vec![FaultEvent::new(
            e(1),
            FaultKind::CrashRestart {
                replica: ReplicaId::new(2),
            },
        )]);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn serde_writes_the_json_array_of_faults() {
        assert_eq!(serde_json::to_string(&FaultPlan::empty()).unwrap(), "[]");
        let back: FaultPlan = serde_json::from_str("[]").unwrap();
        assert!(back.is_empty());
        let plan = FaultPlan::new(vec![
            FaultEvent::new(e(4), FaultKind::Delay { by: 2 }),
            FaultEvent::new(e(1), FaultKind::Drop),
        ]);
        let json = serde_json::to_string(&plan).unwrap();
        assert_eq!(
            json,
            r#"[{"anchor":1,"kind":"Drop"},{"anchor":4,"kind":{"Delay":{"by":2}}}]"#
        );
        assert_eq!(serde_json::from_str::<FaultPlan>(&json).unwrap(), plan);
    }

    #[test]
    fn an_interleaving_round_trips_with_its_plan() {
        let plan = FaultPlan::new(vec![FaultEvent::new(e(1), FaultKind::Duplicate)]);
        let il = crate::Interleaving::new(vec![e(1), e(0)]).with_faults(plan);
        let json = serde_json::to_string(&il).unwrap();
        assert_eq!(
            json,
            r#"{"order":[1,0],"faults":[{"anchor":1,"kind":"Duplicate"}]}"#
        );
        let back: crate::Interleaving = serde_json::from_str(&json).unwrap();
        assert_eq!(back, il);
        assert_eq!(back.faults().digest(), il.faults().digest());
        let plain = crate::Interleaving::new(vec![e(0)]);
        let json = serde_json::to_string(&plain).unwrap();
        assert_eq!(json, r#"{"order":[0],"faults":[]}"#);
        assert_eq!(
            serde_json::from_str::<crate::Interleaving>(&json).unwrap(),
            plain
        );
    }

    #[test]
    fn a_clone_shares_the_faults_and_the_empty_plan_holds_none() {
        let plan = FaultPlan::new(vec![FaultEvent::new(e(2), FaultKind::Drop)]);
        let copy = plan.clone();
        let shared = |p: &FaultPlan| p.faults.as_ref().map(Arc::as_ptr);
        assert_eq!(shared(&copy), shared(&plan));
        assert!(FaultPlan::new(Vec::new()).faults.is_none());
        assert_eq!(FaultPlan::new(Vec::new()), FaultPlan::empty());
        assert_eq!(
            format!("{plan:?}"),
            "FaultPlan { faults: [FaultEvent { anchor: EventId(2), kind: Drop }] }"
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(FaultPlan::empty().to_string(), "∅");
        let plan = FaultPlan::new(vec![FaultEvent::new(e(5), FaultKind::Duplicate)]);
        assert_eq!(plan.to_string(), "{duplicate@e5}");
    }
}
