//! Roshi-style LWW time-series event store.
//!
//! [Roshi](https://github.com/soundcloud/roshi) keeps, per key, a set of
//! `(member, score)` pairs under last-write-wins semantics: an insert or
//! delete only takes effect if its score (timestamp) is higher than the
//! member's current score. Reads return members sorted by descending score
//! and expose a `deleted` flag per member — the field the Roshi-1 bug
//! (issue #18) miscomputes.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::copy::clone_map_with;
use crate::{clone_map_from, Log, StateCrdt};
use er_pi_model::CanonicalEncode;

/// What happens when an insert and a delete of the same member carry the
/// *same* score.
///
/// Roshi's documented semantics is "inserts win"; the Roshi-2 bug
/// (issue #11, "CRDT semantics violated if same timestamp?") arises when an
/// implementation leaves the tie unspecified, making the outcome depend on
/// arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TieBreak {
    /// Inserts win ties (Roshi's documented behaviour).
    #[default]
    InsertWins,
    /// Deletes win ties.
    DeleteWins,
    /// Ties resolve to whichever operation was *applied last* — the buggy,
    /// order-dependent behaviour ER-π flushes out.
    LastApplied,
}

/// One `(member, score)` pair returned by [`LwwTimeSeries::select`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ScoredMember {
    /// Score (timestamp) of the winning write.
    pub score: u64,
    /// Member payload, shared with the store that holds it.
    pub member: Arc<str>,
}

/// One replicated operation of a [`LwwTimeSeries`], as shipped in sync
/// messages.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TsOp {
    /// Insert `member` into `key`'s set at `score`.
    Insert {
        /// Target key.
        key: Arc<str>,
        /// Member payload.
        member: Arc<str>,
        /// Write score.
        score: u64,
    },
    /// Delete `member` from `key`'s set at `score`.
    Delete {
        /// Target key.
        key: Arc<str>,
        /// Member payload.
        member: Arc<str>,
        /// Write score.
        score: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum OpKind {
    Insert,
    Delete,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Cell {
    score: u64,
    kind: OpKind,
}

/// A Roshi-style LWW time-series store: keys map to LWW sets of scored
/// members.
///
/// Keys and members are shared strings: the store, its op log, the ops it
/// ships and the pages it returns hold handles to one allocation per
/// string a caller passed in.
///
/// ```
/// use er_pi_rdl::{LwwTimeSeries, TieBreak};
///
/// let mut ts = LwwTimeSeries::new(TieBreak::InsertWins);
/// ts.insert("stream", "event-1", 100);
/// ts.insert("stream", "event-2", 200);
/// ts.delete("stream", "event-1", 300);
/// let page = ts.select("stream", 0, 10);
/// assert_eq!(page.len(), 1);
/// assert_eq!(&*page[0].member, "event-2");
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LwwTimeSeries {
    tie: TieBreak,
    keys: BTreeMap<Arc<str>, BTreeMap<Arc<str>, Cell>>,
    /// Full op history, for delta-style shipping by the subjects.
    log: Log<TsOp>,
}

impl Clone for LwwTimeSeries {
    fn clone(&self) -> Self {
        let LwwTimeSeries { tie, keys, log } = self;
        LwwTimeSeries {
            tie: *tie,
            keys: keys.clone(),
            log: log.clone(),
        }
    }

    /// Field by field, each into the one it replaces; a key's members are
    /// copied into the member map the key already has.
    fn clone_from(&mut self, source: &Self) {
        let LwwTimeSeries { tie, keys, log } = source;
        self.tie = *tie;
        clone_map_with(&mut self.keys, keys, clone_map_from);
        self.log.clone_from(log);
    }
}

impl LwwTimeSeries {
    /// Creates an empty store with tie policy `tie`.
    pub fn new(tie: TieBreak) -> Self {
        LwwTimeSeries {
            tie,
            keys: BTreeMap::new(),
            log: Log::new(),
        }
    }

    /// The configured tie policy.
    pub fn tie_break(&self) -> TieBreak {
        self.tie
    }

    /// Resolves `incoming` against `member`'s cell under `key`; a key or
    /// member seen for the first time stores a handle to the caller's
    /// string, one already held is looked up by its text.
    fn apply_cell(&mut self, key: &Arc<str>, member: &Arc<str>, incoming: Cell) -> bool {
        let set = self.keys.entry(Arc::clone(key)).or_default();
        match set.get_mut(&**member) {
            None => {
                set.insert(Arc::clone(member), incoming);
                true
            }
            Some(current) => {
                let wins = match incoming.score.cmp(&current.score) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => match self.tie {
                        TieBreak::InsertWins => {
                            incoming.kind == OpKind::Insert && current.kind == OpKind::Delete
                        }
                        TieBreak::DeleteWins => {
                            incoming.kind == OpKind::Delete && current.kind == OpKind::Insert
                        }
                        // Order-dependent: the op applied last always wins
                        // the tie. Divergence waiting to happen.
                        TieBreak::LastApplied => incoming.kind != current.kind,
                    },
                };
                if wins {
                    *current = incoming;
                }
                wins
            }
        }
    }

    /// Inserts `member` under `key` at `score`. Returns `true` if the write
    /// won LWW resolution. A caller that holds the strings as `Arc<str>`
    /// hands over the handles, which the store keeps without copying.
    pub fn insert(
        &mut self,
        key: impl Into<Arc<str>>,
        member: impl Into<Arc<str>>,
        score: u64,
    ) -> bool {
        self.apply(&Arc::new(TsOp::Insert {
            key: key.into(),
            member: member.into(),
            score,
        }))
    }

    /// Deletes `member` under `key` at `score`. Returns `true` if the write
    /// won LWW resolution. Takes handles as [`insert`](Self::insert) does.
    pub fn delete(
        &mut self,
        key: impl Into<Arc<str>>,
        member: impl Into<Arc<str>>,
        score: u64,
    ) -> bool {
        self.apply(&Arc::new(TsOp::Delete {
            key: key.into(),
            member: member.into(),
            score,
        }))
    }

    /// Applies one operation — a remote one resolves as a local write does —
    /// and logs a handle to it. Returns `true` if the write won LWW
    /// resolution.
    pub fn apply(&mut self, op: &Arc<TsOp>) -> bool {
        let (key, member, score, kind) = match &**op {
            TsOp::Insert { key, member, score } => (key, member, *score, OpKind::Insert),
            TsOp::Delete { key, member, score } => (key, member, *score, OpKind::Delete),
        };
        let won = self.apply_cell(key, member, Cell { score, kind });
        self.log.push_shared(Arc::clone(op));
        won
    }

    /// The full operation log (for subjects that ship deltas themselves).
    pub fn log(&self) -> &Log<TsOp> {
        &self.log
    }

    /// Reads a page of `key`'s visible members, sorted by descending score
    /// (ties by member), skipping `offset` and returning at most `limit`.
    pub fn select(&self, key: &str, offset: usize, limit: usize) -> Vec<ScoredMember> {
        let Some(set) = self.keys.get(key) else {
            return Vec::new();
        };
        let mut members: Vec<ScoredMember> = set
            .iter()
            .filter(|(_, cell)| cell.kind == OpKind::Insert)
            .map(|(m, cell)| ScoredMember {
                score: cell.score,
                member: Arc::clone(m),
            })
            .collect();
        members.sort_by(|a, b| b.score.cmp(&a.score).then_with(|| a.member.cmp(&b.member)));
        members.into_iter().skip(offset).take(limit).collect()
    }

    /// Returns whether `member` currently reads as deleted under `key`
    /// (`None` if the member was never written). This is the response field
    /// of the Roshi-1 bug.
    pub fn is_deleted(&self, key: &str, member: &str) -> Option<bool> {
        self.keys
            .get(key)
            .and_then(|set| set.get(member))
            .map(|cell| cell.kind == OpKind::Delete)
    }

    /// Number of visible members under `key`.
    pub fn key_len(&self, key: &str) -> usize {
        self.keys
            .get(key)
            .map(|set| set.values().filter(|c| c.kind == OpKind::Insert).count())
            .unwrap_or(0)
    }

    /// All keys with any recorded member (visible or tombstoned).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.keys.keys().map(|key| &**key)
    }
}

impl Default for LwwTimeSeries {
    fn default() -> Self {
        Self::new(TieBreak::InsertWins)
    }
}

impl CanonicalEncode for ScoredMember {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.score.encode_canonical(out);
        self.member.encode_canonical(out);
    }
}

impl CanonicalEncode for TsOp {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        let (tag, key, member, score) = match self {
            TsOp::Insert { key, member, score } => (0u8, key, member, score),
            TsOp::Delete { key, member, score } => (1u8, key, member, score),
        };
        out.push(tag);
        key.encode_canonical(out);
        member.encode_canonical(out);
        score.encode_canonical(out);
    }
}

impl CanonicalEncode for LwwTimeSeries {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        // Everything a future op can observe: the tie policy steers LWW
        // resolution, the per-member cells steer insert/delete acceptance
        // and reads, and the op log is what sync ships (and what
        // `assemble`-style history reads iterate).
        out.push(match self.tie {
            TieBreak::InsertWins => 0,
            TieBreak::DeleteWins => 1,
            TieBreak::LastApplied => 2,
        });
        (self.keys.len() as u64).encode_canonical(out);
        for (key, set) in &self.keys {
            key.encode_canonical(out);
            (set.len() as u64).encode_canonical(out);
            for (member, cell) in set {
                member.encode_canonical(out);
                cell.score.encode_canonical(out);
                out.push(match cell.kind {
                    OpKind::Insert => 0,
                    OpKind::Delete => 1,
                });
            }
        }
        self.log.encode_canonical(out);
    }
}

impl StateCrdt for LwwTimeSeries {
    fn merge(&mut self, other: &Self) {
        for (key, set) in &other.keys {
            for (member, &cell) in set {
                self.apply_cell(key, member, cell);
            }
        }
        // The log grows by the operations it does not hold yet, compared by
        // value and in `other`'s order; one pass over each log, not one scan
        // of `self.log` per incoming operation.
        let mut held: HashSet<&TsOp> = self.log.iter().collect();
        let missing: Vec<&Arc<TsOp>> = other.log.shared().filter(|op| held.insert(op)).collect();
        for op in missing {
            self.log.push_shared(Arc::clone(op));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_select_roundtrip() {
        let mut ts = LwwTimeSeries::default();
        ts.insert("k", "a", 10);
        ts.insert("k", "b", 20);
        let page = ts.select("k", 0, 10);
        assert_eq!(page.len(), 2);
        assert_eq!(&*page[0].member, "b", "descending score order");
        assert_eq!(ts.key_len("k"), 2);
    }

    #[test]
    fn select_pagination() {
        let mut ts = LwwTimeSeries::default();
        for i in 0..5u64 {
            ts.insert("k", format!("m{i}"), i * 10);
        }
        let page = ts.select("k", 1, 2);
        assert_eq!(page.len(), 2);
        assert_eq!(&*page[0].member, "m3");
        assert_eq!(&*page[1].member, "m2");
        assert!(ts.select("missing", 0, 10).is_empty());
    }

    #[test]
    fn stale_delete_loses() {
        let mut ts = LwwTimeSeries::default();
        ts.insert("k", "a", 100);
        assert!(!ts.delete("k", "a", 50));
        assert_eq!(ts.key_len("k"), 1);
        assert_eq!(ts.is_deleted("k", "a"), Some(false));
    }

    #[test]
    fn newer_delete_wins_and_flags_deleted() {
        let mut ts = LwwTimeSeries::default();
        ts.insert("k", "a", 100);
        assert!(ts.delete("k", "a", 200));
        assert_eq!(ts.key_len("k"), 0);
        assert_eq!(ts.is_deleted("k", "a"), Some(true));
        assert_eq!(ts.is_deleted("k", "never"), None);
    }

    #[test]
    fn insert_wins_tie_is_order_independent() {
        let mut x = LwwTimeSeries::new(TieBreak::InsertWins);
        x.insert("k", "a", 5);
        x.delete("k", "a", 5);
        let mut y = LwwTimeSeries::new(TieBreak::InsertWins);
        y.delete("k", "a", 5);
        y.insert("k", "a", 5);
        assert_eq!(x.is_deleted("k", "a"), Some(false));
        assert_eq!(y.is_deleted("k", "a"), Some(false));
    }

    #[test]
    fn last_applied_tie_is_order_dependent() {
        // The Roshi-2 defect distilled: same ops, different orders,
        // different outcomes.
        let mut x = LwwTimeSeries::new(TieBreak::LastApplied);
        x.insert("k", "a", 5);
        x.delete("k", "a", 5);
        let mut y = LwwTimeSeries::new(TieBreak::LastApplied);
        y.delete("k", "a", 5);
        y.insert("k", "a", 5);
        assert_ne!(x.is_deleted("k", "a"), y.is_deleted("k", "a"));
    }

    #[test]
    fn merge_with_insert_wins_converges() {
        let mut a = LwwTimeSeries::new(TieBreak::InsertWins);
        let mut b = LwwTimeSeries::new(TieBreak::InsertWins);
        a.insert("k", "x", 10);
        a.delete("k", "y", 30);
        b.insert("k", "y", 20);
        b.insert("k", "z", 5);
        let ab = a.merged(&b);
        let ba = b.merged(&a);
        assert_eq!(ab.select("k", 0, 10), ba.select("k", 0, 10));
        assert_eq!(ab.key_len("k"), 2); // y is tombstoned at 30
    }

    #[test]
    fn apply_matches_local_ops() {
        let mut a = LwwTimeSeries::default();
        a.insert("k", "m", 7);
        let mut b = LwwTimeSeries::default();
        for op in a.log().shared() {
            b.apply(op);
        }
        assert_eq!(b.select("k", 0, 10), a.select("k", 0, 10));
    }

    #[test]
    fn keys_lists_all_touched_keys() {
        let mut ts = LwwTimeSeries::default();
        ts.insert("k1", "a", 1);
        ts.delete("k2", "b", 1);
        let keys: Vec<&str> = ts.keys().collect();
        assert_eq!(keys, vec!["k1", "k2"]);
    }
}
