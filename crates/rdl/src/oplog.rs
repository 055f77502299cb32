//! OrbitDB-style Merkle-CRDT operation log.
//!
//! [OrbitDB](https://github.com/orbitdb/orbitdb) stores every database as an
//! append-only log whose entries form a Merkle DAG: each entry references the
//! current *heads* (entries nothing points at yet) by content hash and
//! carries a Lamport clock plus a writer identity. Two logs merge by DAG
//! union; reads linearize the DAG by `(clock, tie-break)`.
//!
//! The bugs this substrate lets the subjects reproduce:
//!
//! * **OrbitDB-1** (issue #513) — the tie-breaker is the writer identity, so
//!   two writers with the *same* identity produce an undefined order
//!   ([`LogSortOrder::ClockThenIdentity`] vs the defective
//!   [`LogSortOrder::ClockOnly`]).
//! * **OrbitDB-2** (issue #512) — a Lamport clock "set far into the future"
//!   makes every peer reject subsequent entries (see
//!   [`MerkleLog::set_max_clock_skew`]).
//! * **OrbitDB-4** (issue #583) — partially synced DAGs leave *dangling*
//!   head references ([`MerkleLog::dangling_refs`]).

use std::fmt::{self, Write};
use std::sync::Arc;

use er_pi_model::{
    CanonicalEncode, Dot, DotContext, LamportClock, LamportTimestamp, ReplicaId, Value,
    VersionVector,
};
use serde::{Deserialize, Serialize};

use crate::copy::clone_arc_from;
use crate::{fnv1a64, fnv1a64_extend, DeltaSync, Log, StateCrdt};

/// Content hash of one log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MerkleHash(pub u64);

impl std::fmt::Display for MerkleHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// How reads linearize the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LogSortOrder {
    /// Sort by `(clock time, identity, hash)` — fully deterministic.
    #[default]
    ClockThenIdentity,
    /// Sort by clock time only; ties keep *insertion order* — the defective
    /// behaviour of OrbitDB-1 when identities collide.
    ClockOnly,
}

/// One entry of the Merkle log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Content hash (computed over clock, identity, payload, and refs).
    pub hash: MerkleHash,
    /// Lamport timestamp of the append.
    pub clock: LamportTimestamp,
    /// Writer identity (OrbitDB's public-key identity): the handle of the
    /// log that appended the entry, shared by every entry it appends, and
    /// not a copy of its text.
    pub identity: Arc<str>,
    /// Entry payload.
    pub payload: Value,
    /// Hashes of the heads this entry was appended on top of.
    pub refs: Vec<MerkleHash>,
    /// Delivery-tracking tag.
    pub dot: Dot,
}

impl LogEntry {
    fn compute_hash(
        clock: LamportTimestamp,
        identity: &str,
        payload: &Value,
        refs: &[MerkleHash],
        dot: Dot,
    ) -> MerkleHash {
        // FNV-1a over the fields in order, streamed: the same bytes as
        // hashing them assembled, with no buffer and no rendered payload.
        let mut h = fnv1a64(&clock.time.to_le_bytes());
        h = fnv1a64_extend(h, &clock.replica.raw().to_le_bytes());
        h = fnv1a64_extend(h, identity.as_bytes());
        let mut payload_hash = FnvWriter(h);
        write!(payload_hash, "{payload}").expect("hashing a value's text cannot fail");
        h = payload_hash.0;
        for r in refs {
            h = fnv1a64_extend(h, &r.0.to_le_bytes());
        }
        h = fnv1a64_extend(h, &dot.counter.to_le_bytes());
        h = fnv1a64_extend(h, &dot.replica.raw().to_le_bytes());
        MerkleHash(h)
    }
}

/// A [`fmt::Write`] that folds what is written into an [`fnv1a64`] hash.
struct FnvWriter(u64);

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a64_extend(self.0, s.as_bytes());
        Ok(())
    }
}

/// The synchronization operation of a [`MerkleLog`] is simply an entry.
pub type MerkleLogOp = LogEntry;

/// An OrbitDB-style Merkle-CRDT log.
///
/// ```
/// use er_pi_model::{ReplicaId, Value};
/// use er_pi_rdl::{DeltaSync, MerkleLog};
///
/// let mut a = MerkleLog::new(ReplicaId::new(0), "alice");
/// let mut b = MerkleLog::new(ReplicaId::new(1), "bob");
/// a.append(Value::from("hello"));
/// b.append(Value::from("world"));
/// a.sync_from(&b);
/// b.sync_from(&a);
/// assert_eq!(a.values(), b.values());
/// assert_eq!(a.len(), 2);
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleLog {
    replica: ReplicaId,
    identity: Arc<str>,
    clock: LamportClock,
    sort: LogSortOrder,
    /// Entries in arrival order.
    entries: Log<LogEntry>,
    ctx: DotContext,
    /// Reject incoming entries whose clock exceeds ours by more than this.
    max_clock_skew: Option<u64>,
    /// Entries rejected due to clock skew (progress-halt symptom).
    rejected: u64,
}

impl Clone for MerkleLog {
    fn clone(&self) -> Self {
        let MerkleLog {
            replica,
            identity,
            clock,
            sort,
            entries,
            ctx,
            max_clock_skew,
            rejected,
        } = self;
        MerkleLog {
            replica: *replica,
            identity: Arc::clone(identity),
            clock: clock.clone(),
            sort: *sort,
            entries: entries.clone(),
            ctx: ctx.clone(),
            max_clock_skew: *max_clock_skew,
            rejected: *rejected,
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let MerkleLog {
            replica,
            identity,
            clock,
            sort,
            entries,
            ctx,
            max_clock_skew,
            rejected,
        } = source;
        self.replica = *replica;
        clone_arc_from(&mut self.identity, identity);
        self.clock.clone_from(clock);
        self.sort = *sort;
        self.entries.clone_from(entries);
        self.ctx.clone_from(ctx);
        self.max_clock_skew = *max_clock_skew;
        self.rejected = *rejected;
    }
}

impl MerkleLog {
    /// Creates an empty log for `replica` writing as `identity`.
    pub fn new(replica: ReplicaId, identity: impl Into<Arc<str>>) -> Self {
        MerkleLog {
            replica,
            identity: identity.into(),
            clock: LamportClock::new(replica),
            sort: LogSortOrder::default(),
            entries: Log::new(),
            ctx: DotContext::new(),
            max_clock_skew: None,
            rejected: 0,
        }
    }

    /// Overrides the read-side sort order (defaults to the deterministic
    /// [`LogSortOrder::ClockThenIdentity`]).
    pub fn set_sort_order(&mut self, sort: LogSortOrder) {
        self.sort = sort;
    }

    /// Configures clock-skew rejection: incoming entries with
    /// `clock.time > local_time + skew` are dropped (modelling the
    /// progress-halt of OrbitDB-2). `None` disables the check.
    pub fn set_max_clock_skew(&mut self, skew: Option<u64>) {
        self.max_clock_skew = skew;
    }

    /// Number of entries rejected by the skew check so far.
    pub fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// The writer identity of this handle.
    pub fn identity(&self) -> &str {
        &self.identity
    }

    /// The replica this handle mutates on behalf of.
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Forces the local Lamport clock (models the poisoned-clock scenario).
    pub fn force_clock(&mut self, time: u64) {
        self.clock.force(time);
    }

    /// The current local Lamport time.
    pub fn clock_time(&self) -> u64 {
        self.clock.time()
    }

    /// Appends `payload` on top of the current heads; returns the new entry.
    pub fn append(&mut self, payload: Value) -> Arc<LogEntry> {
        let clock = self.clock.tick();
        let refs = self.heads();
        let dot = self.ctx.next_dot(self.replica);
        let hash = LogEntry::compute_hash(clock, &self.identity, &payload, &refs, dot);
        Arc::clone(self.entries.push(LogEntry {
            hash,
            clock,
            identity: Arc::clone(&self.identity),
            payload,
            refs,
            dot,
        }))
    }

    /// The current heads: entries no other entry references, in log order.
    /// Counted before they are collected, so an appended entry's `refs`
    /// holds its heads and no spare capacity. An entry is looked for first
    /// among the entries after it, where what references it usually sits
    /// (right after it, in a chain): only a head is checked against all.
    pub fn heads(&self) -> Vec<MerkleHash> {
        let entries = self.entries.shared().as_slice();
        let is_head = |at: &usize| {
            let (before, from) = entries.split_at(*at);
            let hash = &from[0].hash;
            !from[1..]
                .iter()
                .chain(before)
                .any(|e| e.refs.contains(hash))
        };
        let mut heads = Vec::with_capacity((0..entries.len()).filter(is_head).count());
        heads.extend(
            (0..entries.len())
                .filter(is_head)
                .map(|at| entries[at].hash),
        );
        heads
    }

    /// Referenced hashes with no corresponding entry — the "head hash didn't
    /// match" symptom of OrbitDB-4 after a partial sync.
    pub fn dangling_refs(&self) -> Vec<MerkleHash> {
        let mut missing = Vec::new();
        for e in self.entries.iter() {
            for &r in &e.refs {
                if !self.entries.iter().any(|x| x.hash == r) && !missing.contains(&r) {
                    missing.push(r);
                }
            }
        }
        missing
    }

    /// Returns `true` if every reference resolves (the DAG is complete).
    pub fn verify(&self) -> bool {
        self.dangling_refs().is_empty()
    }

    /// Entries linearized by the configured sort order.
    pub fn entries(&self) -> Vec<&LogEntry> {
        let mut out: Vec<&LogEntry> = self.entries.iter().collect();
        match self.sort {
            LogSortOrder::ClockThenIdentity => out.sort_by(|a, b| {
                a.clock
                    .time
                    .cmp(&b.clock.time)
                    .then_with(|| a.identity.cmp(&b.identity))
                    .then_with(|| a.hash.cmp(&b.hash))
            }),
            // Stable sort by clock time only: equal clocks keep insertion
            // order, which differs between replicas.
            LogSortOrder::ClockOnly => out.sort_by_key(|e| e.clock.time),
        }
        out
    }

    /// Payloads in linearized order.
    pub fn values(&self) -> Vec<&Value> {
        self.entries().into_iter().map(|e| &e.payload).collect()
    }

    /// Payloads in arrival order, read in place: the order in which
    /// [`missing_since`](DeltaSync::missing_since) of an empty version
    /// vector would ship them.
    pub fn arrival(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|e| &e.payload)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by hash: the log's handle to it, which
    /// [`apply_op`](DeltaSync::apply_op) on another log shares.
    pub fn entry(&self, hash: MerkleHash) -> Option<&Arc<LogEntry>> {
        self.entries.shared().find(|e| e.hash == hash)
    }

    /// Everything applying a remote entry does short of storing it; `false`
    /// when the entry is a duplicate or fails the skew check.
    fn admit(&mut self, op: &MerkleLogOp) -> bool {
        if self.entries.iter().any(|e| e.hash == op.hash) {
            self.ctx.add(op.dot);
            return false; // duplicate: idempotent
        }
        if let Some(skew) = self.max_clock_skew {
            if op.clock.time > self.clock.time() + skew {
                // Poisoned clock: reject and halt progress on this entry.
                self.rejected += 1;
                return false;
            }
        }
        self.ctx.add(op.dot);
        self.clock.observe(op.clock);
        true
    }
}

impl DeltaSync for MerkleLog {
    type Op = MerkleLogOp;

    fn missing_since(&self, since: &VersionVector) -> Vec<Arc<MerkleLogOp>> {
        self.entries
            .shared()
            .filter(|e| !since.contains(e.dot))
            .cloned()
            .collect()
    }

    fn apply_op(&mut self, op: &Arc<MerkleLogOp>) {
        if self.admit(op) {
            self.entries.push_shared(Arc::clone(op));
        }
    }

    fn version(&self) -> &VersionVector {
        self.ctx.vector()
    }
}

impl StateCrdt for MerkleLog {
    fn merge(&mut self, other: &Self) {
        self.sync_from(other);
    }
}

impl CanonicalEncode for MerkleHash {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.0.encode_canonical(out);
    }
}

impl CanonicalEncode for LogEntry {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        self.hash.encode_canonical(out);
        self.clock.encode_canonical(out);
        self.identity.encode_canonical(out);
        self.payload.encode_canonical(out);
        self.refs.encode_canonical(out);
        self.dot.encode_canonical(out);
    }
}

impl CanonicalEncode for MerkleLog {
    fn encode_canonical(&self, out: &mut Vec<u8>) {
        // Entries are kept in arrival order and `LogSortOrder::ClockOnly`
        // makes reads depend on it, so the raw entry vector (not a sorted
        // view) is the faithful encoding; the clock, skew policy and
        // rejection count steer future appends.
        self.replica.encode_canonical(out);
        self.identity.encode_canonical(out);
        self.clock.encode_canonical(out);
        out.push(match self.sort {
            LogSortOrder::ClockThenIdentity => 0,
            LogSortOrder::ClockOnly => 1,
        });
        self.entries.encode_canonical(out);
        self.ctx.encode_canonical(out);
        self.max_clock_skew.encode_canonical(out);
        self.rejected.encode_canonical(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn append_builds_a_chain() {
        let mut log = MerkleLog::new(r(0), "alice");
        let e1 = log.append(Value::from(1));
        let e2 = log.append(Value::from(2));
        assert!(e1.refs.is_empty());
        assert_eq!(e2.refs, vec![e1.hash]);
        assert_eq!(log.heads(), vec![e2.hash]);
        assert!(log.verify());
    }

    #[test]
    fn join_unions_dags_and_merges_heads() {
        let mut a = MerkleLog::new(r(0), "alice");
        let mut b = MerkleLog::new(r(1), "bob");
        a.append(Value::from("a1"));
        b.append(Value::from("b1"));
        a.sync_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.heads().len(), 2, "two concurrent heads");
        // Appending on top of both heads converges them.
        let e = a.append(Value::from("merge"));
        assert_eq!(e.refs.len(), 2);
        assert_eq!(a.heads(), vec![e.hash]);
    }

    #[test]
    fn an_appended_entry_keeps_exactly_its_heads() {
        let mut a = MerkleLog::new(r(0), "alice");
        let mut b = MerkleLog::new(r(1), "bob");
        for i in 0..64 {
            a.append(Value::from(i));
        }
        let b1 = b.append(Value::from("b1"));
        a.sync_from(&b);
        let a64 = a.entries.iter().nth(63).expect("64 appends").hash;
        assert_eq!(a.heads(), vec![a64, b1.hash], "log order");
        let merge = a.append(Value::from("merge"));
        assert_eq!(merge.refs, vec![a64, b1.hash]);
        for e in a.entries.iter() {
            assert_eq!(e.refs.capacity(), e.refs.len());
        }
    }

    #[test]
    fn deterministic_sort_converges_on_identity_ties() {
        let mut a = MerkleLog::new(r(0), "same-id");
        let mut b = MerkleLog::new(r(1), "same-id");
        a.append(Value::from("from-a"));
        b.append(Value::from("from-b"));
        a.sync_from(&b);
        b.sync_from(&a);
        // Same clock time, same identity — but hash still breaks the tie.
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn clock_only_sort_diverges_on_ties() {
        // OrbitDB-1 distilled: equal clocks + insertion-order ties.
        let mut a = MerkleLog::new(r(0), "same-id");
        let mut b = MerkleLog::new(r(1), "same-id");
        a.set_sort_order(LogSortOrder::ClockOnly);
        b.set_sort_order(LogSortOrder::ClockOnly);
        let ea = a.append(Value::from("from-a"));
        let eb = b.append(Value::from("from-b"));
        // Cross-deliver in opposite orders.
        a.apply_op(&eb);
        b.apply_op(&ea);
        assert_eq!(ea.clock.time, eb.clock.time);
        assert_ne!(a.values(), b.values(), "insertion-order ties diverge");
    }

    #[test]
    fn skew_rejection_halts_progress() {
        let mut a = MerkleLog::new(r(0), "alice");
        let mut b = MerkleLog::new(r(1), "bob");
        b.set_max_clock_skew(Some(100));
        a.force_clock(1_000_000);
        let poisoned = a.append(Value::from("poison"));
        b.apply_op(&poisoned);
        assert_eq!(b.len(), 0);
        assert_eq!(b.rejected_count(), 1);
    }

    #[test]
    fn partial_sync_leaves_dangling_refs() {
        let mut a = MerkleLog::new(r(0), "alice");
        a.append(Value::from(1));
        let e2 = a.append(Value::from(2));
        let mut b = MerkleLog::new(r(1), "bob");
        // Deliver only the child: its ref dangles.
        b.apply_op(&e2);
        assert!(!b.verify());
        assert_eq!(b.dangling_refs().len(), 1);
    }

    #[test]
    fn redelivery_is_idempotent() {
        let mut a = MerkleLog::new(r(0), "alice");
        let e = a.append(Value::from(1));
        let mut b = MerkleLog::new(r(1), "bob");
        b.apply_op(&e);
        b.apply_op(&e);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn delta_sync_sends_only_missing() {
        let mut a = MerkleLog::new(r(0), "alice");
        a.append(Value::from(1));
        let mut b = MerkleLog::new(r(1), "bob");
        b.sync_from(&a);
        a.append(Value::from(2));
        let delta = a.missing_since(b.version());
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].payload, Value::from(2));
    }

    #[test]
    fn entry_lookup_by_hash() {
        let mut a = MerkleLog::new(r(0), "alice");
        let e = a.append(Value::from("x"));
        assert_eq!(a.entry(e.hash).unwrap().payload, Value::from("x"));
        assert!(a.entry(MerkleHash(0xdead)).is_none());
    }
}
