//! State-hash subsumption: the campaign-wide explored-set that lets replay
//! short-circuit any run whose remaining work an earlier run already did.
//!
//! The four ER-π pruners and the sleep-set filter reason about *schedules*;
//! subsumption reasons about *states*. Two interleavings that permute only
//! commuting events converge to the same replica states a step or two past
//! their divergence point — from there on they are the same computation. The
//! [`SubsumeSet`] records, for every depth of every executed run, the key
//!
//! ```text
//! (state digest, fault-context digest, remaining-suffix hash, depth)
//! ```
//!
//! together with a memo of that run's full outcome vector and final states.
//! When a later run reaches an already-recorded key, its tail is *stitched*
//! from the memo instead of executed: by determinism of
//! [`SystemModel::apply`](crate::SystemModel::apply), equal states + equal
//! fault context + the same remaining event sequence at the same positions
//! must reproduce exactly the memoized outcomes and final states, so the
//! stitched run is byte-identical to what execution would have produced —
//! the violation set cannot change (DESIGN.md §15).
//!
//! Soundness rests on [`SystemModel::state_encode`] being *faithful*: equal
//! encodings must imply behaviorally identical states. Models decline by
//! default (subsumption is then silently inert), and the
//! `ER_PI_SUBSUME_AUDIT=1` mode re-executes every would-be-subsumed tail
//! and fails loudly on either a 128-bit digest collision or an unfaithful
//! encoding.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::OpOutcome;

/// The explored-set key: everything that determines a run's remaining
/// behavior at a given depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SubsumeKey {
    /// 128-bit digest over all replicas' canonical state encodings
    /// ([`SystemModel::state_digest`](crate::SystemModel::state_digest)).
    pub state: u128,
    /// Digest of the fault context: the plan plus the interpreter's live
    /// partitions and outstanding delayed effects
    /// (`FaultInterpreter::pending_digest`).
    pub faults: u64,
    /// Hash of the remaining `(event, fault-anchor digest)` suffix, in
    /// order.
    pub suffix: u64,
    /// Prefix length already executed. Delayed effects fire at absolute
    /// positions, so the same suffix at a different depth is a different
    /// computation.
    pub depth: u32,
}

/// What an earlier run recorded at some key: its full outcome vector and
/// its final (post-fault-flush) replica states. Shared via `Arc` across the
/// many depths of one run.
#[derive(Debug)]
pub(crate) struct RunMemo<S> {
    /// Outcomes of the donor run, all positions.
    pub outcomes: Vec<OpOutcome>,
    /// Final replica states of the donor run.
    pub states: Vec<S>,
}

#[derive(Debug)]
struct StoredEntry<S> {
    memo: Arc<RunMemo<S>>,
    /// Canonical state bytes at the key's depth — kept only in audit mode,
    /// to distinguish a genuine digest collision from a true hit.
    bytes: Option<Arc<[u8]>>,
}

/// A successful lookup.
#[derive(Debug)]
pub(crate) struct SubsumeHit<S> {
    pub memo: Arc<RunMemo<S>>,
    pub bytes: Option<Arc<[u8]>>,
}

/// The campaign-wide explored-set, shared by every slot of a replay (on
/// either driver). Thread-safe; by the determinism
/// contract any two inserts under the same key hold equivalent memos, so
/// first-writer-wins is exact, not approximate.
#[derive(Debug)]
pub(crate) struct SubsumeSet<S> {
    map: Mutex<HashMap<SubsumeKey, StoredEntry<S>>>,
    audit: bool,
}

impl<S> SubsumeSet<S> {
    /// Creates an empty set. Audit mode is read from the
    /// `ER_PI_SUBSUME_AUDIT` environment variable (`1` enables it) once,
    /// here — every executor sharing the set sees the same decision.
    pub(crate) fn new() -> Self {
        let audit = std::env::var_os("ER_PI_SUBSUME_AUDIT").is_some_and(|v| v == *"1");
        SubsumeSet {
            map: Mutex::new(HashMap::new()),
            audit,
        }
    }

    /// Returns `true` when `ER_PI_SUBSUME_AUDIT=1` was set at construction.
    pub(crate) fn audit(&self) -> bool {
        self.audit
    }

    /// Looks up `key`, cloning the memo handle out of the lock.
    pub(crate) fn lookup(&self, key: &SubsumeKey) -> Option<SubsumeHit<S>> {
        let map = self.map.lock().expect("subsume set lock");
        map.get(key).map(|e| SubsumeHit {
            memo: Arc::clone(&e.memo),
            bytes: e.bytes.clone(),
        })
    }

    /// Records `memo` under `key`. First writer wins; concurrent inserts
    /// under one key are byte-equivalent by determinism, so dropping the
    /// loser changes nothing observable.
    pub(crate) fn insert(&self, key: SubsumeKey, memo: Arc<RunMemo<S>>, bytes: Option<Arc<[u8]>>) {
        let mut map = self.map.lock().expect("subsume set lock");
        if let MapEntry::Vacant(slot) = map.entry(key) {
            slot.insert(StoredEntry { memo, bytes });
        }
    }

    /// Number of recorded keys (tests / diagnostics).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.map.lock().expect("subsume set lock").len()
    }
}

/// Right-fold suffix hashes for one interleaving, written over `out`:
/// `out[pos]` is a hash of the `(event id, fault-anchor digest)` sequence
/// from `pos` to the end (`out[len]` covers the empty suffix). Computed once
/// per run in O(N), into a buffer the executor keeps between runs.
pub(crate) fn suffix_hashes(il: &er_pi_model::Interleaving, out: &mut Vec<u64>) {
    let n = il.len();
    out.clear();
    out.resize(n + 1, 0);
    for pos in (0..n).rev() {
        let id = il.as_slice()[pos];
        let mut item = [0u8; 12];
        item[..4].copy_from_slice(&id.raw().to_le_bytes());
        item[4..].copy_from_slice(&il.faults().digest_at(id).to_le_bytes());
        // FNV-prime right-fold: injective enough for a 64-bit slot of the
        // composite key, and O(1) per position.
        out[pos] = out[pos + 1].wrapping_mul(0x0000_0100_0000_01b3) ^ er_pi_rdl::fnv1a64(&item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::{EventId, Interleaving};

    fn il(ids: &[u32]) -> Interleaving {
        ids.iter().copied().map(EventId::new).collect()
    }

    fn suffix_hashes(il: &Interleaving) -> Vec<u64> {
        // Start from a longer, dirty buffer: a reused one must come out the
        // same as a fresh one.
        let mut out = vec![u64::MAX; il.len() + 5];
        super::suffix_hashes(il, &mut out);
        out
    }

    #[test]
    fn suffix_hashes_depend_on_order_and_position() {
        let a = suffix_hashes(&il(&[0, 1, 2, 3]));
        let b = suffix_hashes(&il(&[1, 0, 2, 3]));
        assert_eq!(a.len(), 5);
        // Divergent prefixes, identical suffixes: the tails agree...
        assert_eq!(a[2..], b[2..]);
        // ...but the full orders differ.
        assert_ne!(a[0], b[0]);
        // The empty suffix is the fixed point.
        assert_eq!(a[4], b[4]);
        assert_eq!(a[4], 0);
    }

    #[test]
    fn suffix_hashes_see_fault_anchors() {
        use er_pi_model::{FaultEvent, FaultKind, FaultPlan};
        let plain = il(&[0, 1, 2]);
        let faulted = il(&[0, 1, 2]).with_faults(FaultPlan::new(vec![FaultEvent::new(
            EventId::new(1),
            FaultKind::Drop,
        )]));
        let a = suffix_hashes(&plain);
        let b = suffix_hashes(&faulted);
        assert_ne!(a[0], b[0]);
        assert_ne!(a[1], b[1], "anchor inside the suffix changes it");
        assert_eq!(a[2], b[2], "anchor before the suffix does not");
    }

    #[test]
    fn set_is_first_writer_wins() {
        let set: SubsumeSet<u32> = SubsumeSet::new();
        let key = SubsumeKey {
            state: 1,
            faults: 2,
            suffix: 3,
            depth: 4,
        };
        assert!(set.lookup(&key).is_none());
        set.insert(
            key,
            Arc::new(RunMemo {
                outcomes: vec![OpOutcome::Applied],
                states: vec![7],
            }),
            None,
        );
        set.insert(
            key,
            Arc::new(RunMemo {
                outcomes: vec![],
                states: vec![9],
            }),
            None,
        );
        let hit = set.lookup(&key).expect("recorded");
        assert_eq!(hit.memo.states, vec![7], "first writer won");
        assert_eq!(set.len(), 1);
    }
}
