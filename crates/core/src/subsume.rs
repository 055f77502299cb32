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
//! (state digest, live-fault digest, remaining-suffix hash, depth)
//! ```
//!
//! and points it at that run's tail: the outcomes from that depth on and the
//! final states. When a later run reaches an already-recorded key, its tail
//! is *stitched* from the set instead of executed: by determinism of
//! [`SystemModel::apply`](crate::SystemModel::apply), equal states + equal
//! cut links and in-flight delayed effects + the same remaining
//! `(event, fault anchors)` sequence at the same positions must reproduce
//! exactly the recorded outcomes and final states, so the stitched run is
//! byte-identical to what execution would have produced — the violation set
//! cannot change (DESIGN.md §15). The key holds no plan: a fault still ahead
//! is in the suffix hash, and one that fired lives on only in the states,
//! the links and the delayed effects, so a run can be stitched from a tail
//! recorded under another fault plan.
//!
//! A tail is stored once. Every run that records keys appends only the
//! outcomes nobody gave it — from its shallowest new key to where it was
//! stitched, or to its end — and then either links to the run it was
//! stitched from or, having executed to the end, points at its final
//! states, which are appended only if no run before left states of the same
//! digest. Reading a tail follows those links; what a link skips is, by the
//! same determinism, exactly what the linking run received.
//!
//! Soundness rests on [`SystemModel::state_encode`] being *faithful*: equal
//! encodings must imply behaviorally identical states. Models decline by
//! default (subsumption is then silently inert), and the
//! `ER_PI_SUBSUME_AUDIT=1` mode re-executes every would-be-subsumed tail
//! and fails loudly on either a 128-bit digest collision — of a key or of
//! two runs' final states — or an unfaithful encoding.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Mutex;

use crate::OpOutcome;

/// The explored-set key: everything that determines a run's remaining
/// behavior at a given depth.
///
/// Its fields are digests already, so it hashes as one word folded from
/// them rather than through SipHash; equality still compares all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubsumeKey {
    /// 128-bit digest over all replicas' canonical state encodings
    /// ([`SystemModel::state_digest`](crate::SystemModel::state_digest)),
    /// as its low and high halves ([`SubsumeKey::halves`]): a `u128` would
    /// align the key to 16 bytes and pad each `(key, MemoId)` entry of the
    /// set from 48 bytes to 64.
    pub state: [u64; 2],
    /// Digest of what fired faults left live: the interpreter's cut links
    /// and outstanding delayed effects (`FaultInterpreter::live_digest`).
    /// Not the plan: its anchors still ahead are in [`suffix`](Self::suffix),
    /// and one that fired acts on the rest of the run only through the
    /// replica states and this live context, so runs under different plans
    /// share a key once those agree.
    pub faults: u64,
    /// Hash of the remaining `(event, fault-anchor digest)` suffix, in
    /// order.
    pub suffix: u64,
    /// Prefix length already executed. Delayed effects fire at absolute
    /// positions, so the same suffix at a different depth is a different
    /// computation.
    pub depth: u32,
}

impl SubsumeKey {
    /// A state digest as the key holds it, low half first.
    pub(crate) fn halves(digest: u128) -> [u64; 2] {
        [digest as u64, (digest >> 64) as u64]
    }

    /// The state digest, whole again.
    fn digest(&self) -> u128 {
        u128::from(self.state[1]) << 64 | u128::from(self.state[0])
    }
}

impl Hash for SubsumeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let fold = self.state[0]
            ^ self.state[1]
            ^ self.faults.rotate_left(21)
            ^ self.suffix.rotate_left(42)
            ^ u64::from(self.depth).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // One multiply spreads the fold over both ends of the word: the
        // table indexes by the low bits and tags by the high ones.
        state.write_u64((fold ^ (fold >> 32)).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    }
}

/// Passes on the one word [`SubsumeKey`] hashes to, or the two halves of a
/// state digest folded into one: both are mixed already.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn write_u128(&mut self, digest: u128) {
        self.0 = digest as u64 ^ (digest >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

type KeyMap<V> = HashMap<SubsumeKey, V, BuildHasherDefault<KeyHasher>>;

/// A map keyed by a state digest.
type DigestMap<V> = HashMap<u128, V, BuildHasherDefault<KeyHasher>>;

/// Index of a memo in the set.
pub(crate) type MemoId = u32;

/// An offset into one of the arena's vectors, which are indexed by `u32` to
/// keep a [`Memo`] at 24 bytes.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a subsume arena holds under 2^32 entries")
}

/// `start..end` in one of the arena's vectors.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// Appends `items` to `arena` and returns where they went.
    fn append<T: Clone>(arena: &mut Vec<T>, items: &[T]) -> Span {
        let start = offset(arena.len());
        arena.extend_from_slice(items);
        Span {
            start,
            end: offset(arena.len()),
        }
    }

    fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    fn of<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..self.end as usize]
    }
}

/// Where a memo's run goes on past its own outcomes.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// The run was stitched from this memo, at the depth where the run's own
    /// outcomes end.
    Donor(MemoId),
    /// The run executed to the end and left these final states — shared
    /// with every other run whose final states have the same digest.
    States(Span),
}

/// One run's record: its outcomes at depths `from..from + own.len()`, then
/// [`Next`].
#[derive(Debug, Clone, Copy)]
struct Memo {
    /// Depth of the shallowest key that maps here.
    from: u32,
    own: Span,
    next: Next,
}

/// Every memo of a campaign and what they store, appended to and never
/// rewritten.
#[derive(Debug)]
struct Tails<S> {
    memos: Vec<Memo>,
    outcomes: Vec<OpOutcome>,
    states: Vec<S>,
}

impl<S> Tails<S> {
    /// Appends a memo whose own outcomes are `own`, answering for depths
    /// `from` on.
    fn push(&mut self, from: usize, own: &[OpOutcome], next: Next) -> MemoId {
        let memo = Memo {
            from: offset(from),
            own: Span::append(&mut self.outcomes, own),
            next,
        };
        self.memos.push(memo);
        offset(self.memos.len() - 1)
    }
}

/// The tail of a recorded run from some depth on: its outcomes, in order, as
/// an iterator, and then [`states`](Tail::states).
///
/// It walks the run's own outcomes and, past them, those of the memo it was
/// stitched from, continued at the same depth. A key maps to a memo only if
/// that memo's run probed the key as a miss and so went on past its depth,
/// which means every memo a tail links to holds at least one outcome deeper
/// than the one before: a tail from depth `d` of an `n`-event run costs
/// `O(n - d)` however long the chain behind it is.
pub(crate) struct Tail<'a, S> {
    tails: &'a Tails<S>,
    memo: &'a Memo,
    depth: usize,
}

impl<'a, S> Tail<'a, S> {
    /// The final states of the run the chain ends in.
    pub(crate) fn states(&self) -> &'a [S] {
        let mut memo = self.memo;
        loop {
            match memo.next {
                Next::Donor(donor) => memo = &self.tails.memos[donor as usize],
                Next::States(states) => return states.of(&self.tails.states),
            }
        }
    }
}

impl<'a, S> Iterator for Tail<'a, S> {
    type Item = &'a OpOutcome;

    fn next(&mut self) -> Option<&'a OpOutcome> {
        loop {
            let memo = self.memo;
            debug_assert!(memo.from as usize <= self.depth, "a link starts deeper");
            let at = self.depth - memo.from as usize;
            if at < memo.own.len() {
                self.depth += 1;
                return memo.own.of(&self.tails.outcomes).get(at);
            }
            let Next::Donor(donor) = memo.next else {
                return None;
            };
            self.memo = &self.tails.memos[donor as usize];
        }
    }
}

/// How a recording run ended.
#[derive(Debug)]
pub(crate) enum End<'a, S> {
    /// Its tail from `depth` on is `memo`'s: stitched from it, or — in audit
    /// mode — executed and verified against it.
    Stitched { memo: MemoId, depth: usize },
    /// It executed to the last event, leaving `states`, whose
    /// [`state_digest`](crate::SystemModel::state_digest) is `digest` (`None`
    /// if the model declined to encode them) and, in audit mode, whose
    /// canonical encoding is `bytes`.
    Executed {
        states: &'a [S],
        digest: Option<u128>,
        bytes: Option<&'a [u8]>,
    },
}

#[derive(Debug)]
struct Arena<S> {
    /// Each recorded key, to the memo that answers for it.
    keys: KeyMap<MemoId>,
    /// Canonical state bytes per key — kept only in audit mode, to tell a
    /// genuine digest collision from a true hit.
    bytes: KeyMap<Box<[u8]>>,
    /// Each stored final state's digest, to where the states went: equal
    /// digests stand for equal canonical encodings, which stand for
    /// identical behaviour, so one copy answers for every run that left
    /// them.
    finals: DigestMap<Span>,
    /// Canonical bytes per final digest — audit mode only, like `bytes`.
    final_bytes: DigestMap<Box<[u8]>>,
    tails: Tails<S>,
}

/// The campaign-wide explored-set, shared by every slot of a replay (on
/// either driver): an append-only arena of run tails behind one lock.
///
/// Keys map to memos; a memo holds only the outcomes its run computed past
/// its shallowest new key and links to the memo it was stitched from, so a
/// donor's tail is stored once however many runs are answered from it, and
/// final states are stored once per distinct state digest.
/// Nothing is overwritten or evicted before the campaign ends, and by the
/// determinism contract any two runs recording one key hold the same tail
/// there, so first-writer-wins is exact, not approximate. A run whose keys
/// were all taken meanwhile (by another slot) stores nothing.
#[derive(Debug)]
pub(crate) struct SubsumeSet<S> {
    arena: Mutex<Arena<S>>,
    audit: bool,
}

impl<S: Clone> SubsumeSet<S> {
    /// Creates an empty set. Audit mode is read from the
    /// `ER_PI_SUBSUME_AUDIT` environment variable (`1` enables it) once,
    /// here — every executor sharing the set sees the same decision.
    pub(crate) fn new() -> Self {
        Self::with_audit(std::env::var_os("ER_PI_SUBSUME_AUDIT").is_some_and(|v| v == *"1"))
    }

    /// Creates an empty set, in audit mode if `audit`.
    pub(crate) fn with_audit(audit: bool) -> Self {
        SubsumeSet {
            arena: Mutex::new(Arena {
                keys: KeyMap::default(),
                bytes: KeyMap::default(),
                finals: DigestMap::default(),
                final_bytes: DigestMap::default(),
                tails: Tails {
                    memos: Vec::new(),
                    outcomes: Vec::new(),
                    states: Vec::new(),
                },
            }),
            audit,
        }
    }

    /// Returns `true` when `ER_PI_SUBSUME_AUDIT=1` was set at construction.
    pub(crate) fn audit(&self) -> bool {
        self.audit
    }

    /// The memo recorded under `key`. In audit mode `bytes` are the probing
    /// states' canonical encoding, and a hit whose recorded bytes differ is
    /// a digest collision: this panics.
    pub(crate) fn lookup(&self, key: &SubsumeKey, bytes: Option<&[u8]>) -> Option<MemoId> {
        let arena = self.arena.lock().expect("subsume set lock");
        let memo = arena.keys.get(key).copied();
        let collides = match (bytes, arena.bytes.get(key)) {
            (Some(probed), Some(recorded)) => probed != &recorded[..],
            _ => false,
        };
        drop(arena);
        assert!(
            !collides,
            "ER_PI_SUBSUME_AUDIT: 128-bit digest collision at depth {}: \
             distinct canonical states share digest {:#034x}",
            key.depth,
            key.digest()
        );
        memo
    }

    /// Reads `memo`'s tail from `depth` on — which must be the depth of a
    /// key that maps to it — under the lock.
    pub(crate) fn read_tail<R>(
        &self,
        memo: MemoId,
        depth: usize,
        read: impl FnOnce(Tail<'_, S>) -> R,
    ) -> R {
        let arena = self.arena.lock().expect("subsume set lock");
        let tails = &arena.tails;
        read(Tail {
            tails,
            memo: &tails.memos[memo as usize],
            depth,
        })
    }

    /// Records a run: every key of `pending` (drained, in increasing depth,
    /// each with its audit bytes) not yet in the set comes to answer from a
    /// memo of this run, whose `outcomes` and `end` it stores from the
    /// shallowest such key on. Takes the lock once. In audit mode, final
    /// states whose digest is stored already but whose bytes differ are a
    /// digest collision: this panics.
    pub(crate) fn record(
        &self,
        pending: &mut Vec<(SubsumeKey, Option<Box<[u8]>>)>,
        outcomes: &[OpOutcome],
        end: End<'_, S>,
    ) {
        let mut arena = self.arena.lock().expect("subsume set lock");
        let Arena {
            keys,
            bytes,
            finals,
            final_bytes,
            tails,
        } = &mut *arena;
        // Keys another slot took meanwhile answer from its run; this run's
        // memo starts at its shallowest new key, if it has one.
        let Some(first) = pending.iter().position(|(key, _)| !keys.contains_key(key)) else {
            pending.clear();
            return;
        };
        let (to, next) = match end {
            End::Stitched { memo, depth } => (depth, Next::Donor(memo)),
            End::Executed {
                states,
                digest,
                bytes: encoded,
            } => {
                let mut append = || Span::append(&mut tails.states, states);
                let span = match digest {
                    Some(digest) => *finals.entry(digest).or_insert_with(append),
                    None => append(),
                };
                if let (Some(digest), Some(encoded)) = (digest, encoded) {
                    let recorded = final_bytes.entry(digest).or_insert_with(|| encoded.into());
                    if **recorded != *encoded {
                        drop(arena);
                        panic!(
                            "ER_PI_SUBSUME_AUDIT: 128-bit digest collision at the final \
                             states: distinct canonical states share digest {digest:#034x}"
                        );
                    }
                }
                (outcomes.len(), Next::States(span))
            }
        };
        let from = pending[first].0.depth as usize;
        let memo = tails.push(from, &outcomes[from..to], next);
        for (key, encoded) in pending.drain(..).skip(first) {
            let MapEntry::Vacant(slot) = keys.entry(key) else {
                continue;
            };
            slot.insert(memo);
            if let Some(encoded) = encoded {
                bytes.insert(key, encoded);
            }
        }
    }

    /// Number of recorded keys (tests / diagnostics).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.arena.lock().expect("subsume set lock").keys.len()
    }

    /// Number of stored memos (tests).
    #[cfg(test)]
    fn memos(&self) -> usize {
        self.arena
            .lock()
            .expect("subsume set lock")
            .tails
            .memos
            .len()
    }

    /// Number of stored final states, counted per replica (tests).
    #[cfg(test)]
    fn stored_states(&self) -> usize {
        self.arena
            .lock()
            .expect("subsume set lock")
            .tails
            .states
            .len()
    }
}

/// Right-fold suffix hashes for one interleaving, written over `out`:
/// `out[pos]` is a hash of the `(event id, fault-anchor digest)` sequence
/// from `pos` to the end (`out[len]` covers the empty suffix). Only
/// `out[from..=len]` is computed — a run probes nothing above the depth it
/// resumes at — in O(len - from), into a buffer the executor keeps between
/// runs; what lies below `from` is left as it was.
pub(crate) fn suffix_hashes(il: &er_pi_model::Interleaving, from: usize, out: &mut Vec<u64>) {
    let n = il.len();
    out.resize(n + 1, 0);
    out[n] = 0;
    for pos in (from..n).rev() {
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
    use er_pi_model::{EventId, Interleaving, Value};

    fn il(ids: &[u32]) -> Interleaving {
        ids.iter().copied().map(EventId::new).collect()
    }

    fn suffix_hashes(il: &Interleaving) -> Vec<u64> {
        // Start from a longer, dirty buffer: a reused one must come out the
        // same as a fresh one.
        let mut out = vec![u64::MAX; il.len() + 5];
        super::suffix_hashes(il, 0, &mut out);
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

    /// The key no longer holds the plan, so a future fault is kept apart by
    /// the suffix hash alone: under the empty plan and under a drop of the
    /// event at position 2, one order's hashes differ at every depth whose
    /// suffix still holds the anchor and agree past it.
    #[test]
    fn suffix_hashes_keep_a_future_fault_apart_until_its_anchor() {
        use er_pi_model::{FaultEvent, FaultKind, FaultPlan};
        let ids = [4, 2, 0, 3, 1, 5];
        let anchor = 2;
        let drop = FaultEvent::new(EventId::new(ids[anchor]), FaultKind::Drop);
        let plain = suffix_hashes(&il(&ids));
        let faulted = suffix_hashes(&il(&ids).with_faults(FaultPlan::new(vec![drop])));
        for depth in 0..=ids.len() {
            if depth <= anchor {
                assert_ne!(plain[depth], faulted[depth], "depth {depth}: anchor ahead");
            } else {
                assert_eq!(plain[depth], faulted[depth], "depth {depth}: anchor passed");
            }
        }
    }

    #[test]
    fn suffix_hashes_from_a_depth_equal_the_full_computation_there() {
        let order = il(&[4, 2, 0, 3, 1, 5]);
        let full = suffix_hashes(&order);
        for from in 0..=order.len() {
            // Whatever a longer run left in the buffer stays below `from`.
            let mut out = vec![7; 9];
            super::suffix_hashes(&order, from, &mut out);
            assert_eq!(out.len(), order.len() + 1);
            assert_eq!(out[from..], full[from..], "from depth {from}");
        }
    }

    fn key(state: u128, depth: u32) -> SubsumeKey {
        SubsumeKey {
            state: SubsumeKey::halves(state),
            faults: 0,
            suffix: 0,
            depth,
        }
    }

    #[test]
    fn a_key_entry_takes_48_bytes_and_keeps_its_whole_digest() {
        assert_eq!(std::mem::size_of::<(SubsumeKey, MemoId)>(), 48);
        let digest = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210_u128;
        assert_eq!(key(digest, 0).digest(), digest);
        // Digests that differ in one half only are different keys.
        assert_ne!(key(digest, 3), key(digest ^ 1 << 100, 3));
        assert_ne!(key(digest, 3), key(digest ^ 1, 3));
    }

    /// Outcomes a run named `run` computed at positions `0..n`.
    fn outcomes(run: &str, n: usize) -> Vec<OpOutcome> {
        (0..n)
            .map(|at| OpOutcome::observed(Value::from(format!("{run}{at}"))))
            .collect()
    }

    fn tail(set: &SubsumeSet<u32>, key: &SubsumeKey) -> (Vec<OpOutcome>, Vec<u32>) {
        let memo = set.lookup(key, None).expect("recorded");
        set.read_tail(memo, key.depth as usize, |mut tail| {
            let outcomes = tail.by_ref().cloned().collect();
            (outcomes, tail.states().to_vec())
        })
    }

    /// The end of a run that executed to `states`, digested as the executor
    /// would: equal states, equal digests.
    fn executed(states: &[u32]) -> End<'_, u32> {
        let digest = states.iter().fold(0, |digest, &state| {
            er_pi_rdl::digest128_fold(digest, u128::from(state))
        });
        End::Executed {
            states,
            digest: Some(digest),
            bytes: None,
        }
    }

    /// Pending keys `(state, depth)` of a run, as the executor collects them.
    fn pending(keys: &[(u128, u32)]) -> Vec<(SubsumeKey, Option<Box<[u8]>>)> {
        keys.iter()
            .map(|&(state, depth)| (key(state, depth), None))
            .collect()
    }

    #[test]
    fn keys_at_several_depths_of_one_run_each_read_their_own_tail() {
        let set: SubsumeSet<u32> = SubsumeSet::new();
        let a = outcomes("a", 5);
        let keys = [(10, 1), (11, 2), (12, 4)];
        set.record(&mut pending(&keys), &a, executed(&[7, 8]));
        assert_eq!((set.len(), set.memos()), (3, 1));
        for (state, depth) in keys {
            let (outcomes, states) = tail(&set, &key(state, depth));
            assert_eq!(outcomes, a[depth as usize..], "depth {depth}");
            assert_eq!(states, [7, 8]);
        }
    }

    #[test]
    fn a_donor_chain_reads_each_runs_own_outcomes_then_the_donors_tail() {
        let set: SubsumeSet<u32> = SubsumeSet::new();
        // A executes to the end.
        let a = outcomes("a", 5);
        set.record(&mut pending(&[(30, 2), (31, 3)]), &a, executed(&[7]));
        // B is stitched from A's key at depth 3: its outcomes from there on
        // are A's.
        let hit = set.lookup(&key(31, 3), None).expect("A recorded");
        let mut b = outcomes("b", 3);
        b.extend_from_slice(&a[3..]);
        let stitched = End::Stitched {
            memo: hit,
            depth: 3,
        };
        set.record(&mut pending(&[(20, 1), (21, 2)]), &b, stitched);
        // C is stitched from B's key at depth 2.
        let hit = set.lookup(&key(21, 2), None).expect("B recorded");
        let mut c = outcomes("c", 2);
        c.extend_from_slice(&b[2..]);
        let stitched = End::Stitched {
            memo: hit,
            depth: 2,
        };
        set.record(&mut pending(&[(10, 0), (11, 1)]), &c, stitched);
        assert_eq!(set.memos(), 3);

        // C's keys: C's own outcomes, B's own, then A's tail and A's states.
        let (outcomes, states) = tail(&set, &key(10, 0));
        assert_eq!(outcomes, c);
        assert_eq!(outcomes[2], b[2], "B's own outcome");
        assert_eq!(outcomes[3..], a[3..], "A's tail");
        assert_eq!(states, [7], "A's final states");
        assert_eq!(tail(&set, &key(11, 1)).0, c[1..]);
        // B's key at depth 1 reads the same chain from B.
        assert_eq!(tail(&set, &key(20, 1)), (b[1..].to_vec(), vec![7]));
    }

    #[test]
    fn first_writer_wins_and_a_run_with_no_new_key_stores_nothing() {
        let set: SubsumeSet<u32> = SubsumeSet::new();
        let first = outcomes("first", 4);
        set.record(&mut pending(&[(1, 2), (2, 3)]), &first, executed(&[7]));
        // Another slot probed the same keys as misses meanwhile.
        let late = outcomes("late", 4);
        set.record(&mut pending(&[(1, 2), (2, 3)]), &late, executed(&[9]));
        assert_eq!((set.len(), set.memos()), (2, 1), "nothing stored");
        assert_eq!(tail(&set, &key(1, 2)), (first[2..].to_vec(), vec![7]));
        // One new key among taken ones: the memo starts at the new key.
        set.record(&mut pending(&[(1, 2), (3, 3)]), &late, executed(&[9]));
        assert_eq!((set.len(), set.memos()), (3, 2));
        assert_eq!(tail(&set, &key(1, 2)).1, [7], "first writer won");
        assert_eq!(tail(&set, &key(3, 3)), (late[3..].to_vec(), vec![9]));
    }

    #[test]
    fn final_states_of_one_digest_are_stored_once() {
        let set: SubsumeSet<u32> = SubsumeSet::new();
        let a = outcomes("a", 4);
        set.record(&mut pending(&[(1, 2)]), &a, executed(&[7, 8]));
        // Another order of the same events ends in the same states.
        let b = outcomes("b", 4);
        set.record(&mut pending(&[(2, 1)]), &b, executed(&[7, 8]));
        assert_eq!((set.memos(), set.stored_states()), (2, 2), "one span");
        assert_eq!(tail(&set, &key(1, 2)), (a[2..].to_vec(), vec![7, 8]));
        assert_eq!(tail(&set, &key(2, 1)), (b[1..].to_vec(), vec![7, 8]));
        // Other states are stored beside them; a run that declined to
        // digest its states stores them unshared.
        set.record(&mut pending(&[(3, 1)]), &b, executed(&[7, 9]));
        let undigested = End::Executed {
            states: &[7, 8],
            digest: None,
            bytes: None,
        };
        set.record(&mut pending(&[(4, 1)]), &b, undigested);
        assert_eq!(set.stored_states(), 6);
        assert_eq!(tail(&set, &key(3, 1)).1, [7, 9]);
        assert_eq!(tail(&set, &key(4, 1)).1, [7, 8]);
    }
}
