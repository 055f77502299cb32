//! Shardable, indexed iteration over the pruned interleaving set.
//!
//! [`IndexedSource`] is the single dispensing discipline behind every
//! replay (the dispenser of `er-pi`'s campaign core): it pulls candidates
//! from any explorer, drops fingerprint duplicates (which appear after a
//! State-4 regeneration), enforces the interleaving cap, and stamps every
//! surviving interleaving with a stable, strictly increasing *exploration
//! index*. Because every replay slot draws from the same source, the index
//! assigned to an interleaving is independent of how many slots later
//! replay it — the invariant the differential-equivalence suite pins down.

use std::collections::HashSet;

use er_pi_model::Interleaving;

/// A deduplicating, capping, index-stamping wrapper around an explorer.
///
/// Semantics (those of a plain one-at-a-time replay loop):
///
/// 1. pull the next candidate from the underlying explorer;
/// 2. if the cap is already reached, mark the source *truncated* and stop —
///    the candidate is discarded, mirroring such a loop's
///    "`runs.len() >= cap` → `stopped_early`" check, which fires only when
///    the explorer proves it had more to offer;
/// 3. if the candidate's fingerprint was already dispensed, skip it
///    (regenerated explorers re-emit old interleavings);
/// 4. otherwise dispense `(index, interleaving)` with the next index.
///
/// ```
/// use er_pi_interleave::{DfsExplorer, IndexedSource};
/// use er_pi_model::{ReplicaId, Workload};
///
/// let mut w = Workload::builder();
/// w.update(ReplicaId::new(0), "a", [1]);
/// w.update(ReplicaId::new(1), "b", [2]);
/// let w = w.build();
///
/// let mut source = IndexedSource::new(DfsExplorer::new(&w), 10);
/// let (i0, _) = source.next().unwrap();
/// let (i1, _) = source.next().unwrap();
/// assert_eq!((i0, i1), (0, 1));
/// assert!(source.next().is_none());
/// assert!(!source.truncated(), "the space ran dry before the cap");
/// ```
#[derive(Debug)]
pub struct IndexedSource<I> {
    inner: I,
    seen: HashSet<u64>,
    next_index: usize,
    cap: usize,
    truncated: bool,
    last: Option<Interleaving>,
    shared_prefix_events: u64,
}

impl<I: Iterator<Item = Interleaving>> IndexedSource<I> {
    /// Wraps `inner`, dispensing at most `cap` interleavings.
    pub fn new(inner: I, cap: usize) -> Self {
        IndexedSource {
            inner,
            seen: HashSet::new(),
            next_index: 0,
            cap,
            truncated: false,
            last: None,
            shared_prefix_events: 0,
        }
    }

    /// Claims up to `max` *contiguous* interleavings in one call — the
    /// shape of a replay slot's claim (the engine itself pulls the items
    /// of a claim one by one, to read the explorer's counters behind each).
    /// Chunked (not strided) hand-out is what lets per-slot prefix locality
    /// survive parallel replay: consecutive interleavings from a
    /// lexicographic explorer share long prefixes, so a slot that owns a
    /// contiguous index range keeps resuming from its own previous run
    /// instead of fighting over interleavings whose prefixes live in
    /// another slot's cache.
    ///
    /// Returns fewer than `max` items (possibly none) once the source runs
    /// dry or hits the cap. Indices within a chunk are consecutive, and
    /// chunks partition the dispensed index space.
    pub fn next_chunk(&mut self, max: usize) -> Vec<(usize, Interleaving)> {
        let mut chunk = Vec::with_capacity(max);
        while chunk.len() < max {
            match self.next() {
                Some(pair) => chunk.push(pair),
                None => break,
            }
        }
        chunk
    }

    /// Total events shared between consecutively dispensed interleavings
    /// (the sum of [`Interleaving::common_prefix_len`] over adjacent
    /// pairs) — the prefix locality the incremental executor trades on.
    /// Divide by `dispensed - 1` for the average resumable depth.
    pub fn shared_prefix_events(&self) -> u64 {
        self.shared_prefix_events
    }

    /// Replaces the underlying explorer while keeping the dedup set, the
    /// index counter, and the cap — the State-4 regeneration: newly ingested
    /// constraints rebuild the generator, and anything it re-emits that was
    /// already replayed is skipped.
    pub fn reseed(&mut self, inner: I) {
        self.inner = inner;
    }

    /// Number of interleavings dispensed so far (also the next index).
    pub fn dispensed(&self) -> usize {
        self.next_index
    }

    /// Returns `true` once the cap cut the iteration short while the
    /// explorer still had candidates.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The wrapped explorer (e.g. to read its pruning counters).
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Unwraps the underlying explorer.
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: Iterator<Item = Interleaving>> Iterator for IndexedSource<I> {
    type Item = (usize, Interleaving);

    fn next(&mut self) -> Option<(usize, Interleaving)> {
        if self.truncated {
            return None;
        }
        loop {
            let il = self.inner.next()?;
            if self.next_index >= self.cap {
                self.truncated = true;
                return None;
            }
            if !self.seen.insert(il.fingerprint()) {
                continue;
            }
            let index = self.next_index;
            self.next_index += 1;
            // `last` only feeds the locality counter: refresh it in place so
            // dispensing allocates nothing beyond the item it hands out.
            match &mut self.last {
                Some(prev) => {
                    self.shared_prefix_events += prev.common_prefix_len(&il) as u64;
                    prev.clone_from(&il);
                }
                None => self.last = Some(il.clone()),
            }
            return Some((index, il));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfsExplorer, ErPiExplorer, PruningConfig};
    use er_pi_model::{ReplicaId, Value, Workload};

    fn workload(n: usize) -> Workload {
        let mut w = Workload::builder();
        for i in 0..n {
            w.update(
                ReplicaId::new((i % 3) as u16),
                "op",
                [Value::from(i as i64)],
            );
        }
        w.build()
    }

    #[test]
    fn indices_are_dense_and_ordered() {
        let w = workload(4);
        let source = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
        let indices: Vec<usize> = source.map(|(i, _)| i).collect();
        assert_eq!(indices, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn cap_truncates_and_flags() {
        let w = workload(4);
        let mut source = IndexedSource::new(DfsExplorer::new(&w), 5);
        let drawn: Vec<_> = source.by_ref().collect();
        assert_eq!(drawn.len(), 5);
        assert!(source.truncated());
        assert_eq!(source.dispensed(), 5);
        assert!(source.next().is_none(), "truncation is sticky");
    }

    #[test]
    fn exact_cap_without_surplus_is_not_truncated() {
        let w = workload(3);
        let mut source = IndexedSource::new(DfsExplorer::new(&w), 6);
        assert_eq!(source.by_ref().count(), 6);
        assert!(
            !source.truncated(),
            "the explorer ran dry exactly at the cap"
        );
    }

    #[test]
    fn reseed_skips_already_dispensed_interleavings() {
        let w = workload(3);
        let mut source = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
        let first_three: Vec<_> = source.by_ref().take(3).collect();
        assert_eq!(first_three.len(), 3);
        // Regenerate: the fresh explorer re-emits all six orders, but the
        // three already dispensed are skipped and indices keep counting.
        source.reseed(DfsExplorer::new(&w));
        let rest: Vec<_> = source.by_ref().collect();
        assert_eq!(rest.len(), 3);
        assert_eq!(rest[0].0, 3, "indices continue after a reseed");
        let mut all: Vec<u64> = first_three
            .iter()
            .chain(&rest)
            .map(|(_, il)| il.fingerprint())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 6, "union covers the space with no duplicates");
    }

    #[test]
    fn chunked_union_equals_pruned_set() {
        // The dispensing discipline parallel replay relies on: chunks hand out
        // contiguous index ranges, partition the dispensed space, and their
        // union is exactly the pruned set an item-at-a-time scan yields.
        let w = workload(5);
        let config = PruningConfig::default();
        let direct: Vec<(usize, Interleaving)> =
            IndexedSource::new(ErPiExplorer::new(&w, &config), usize::MAX).collect();
        for chunk_size in [1, 3, 7, 64] {
            let mut source = IndexedSource::new(ErPiExplorer::new(&w, &config), usize::MAX);
            let mut union: Vec<(usize, Interleaving)> = Vec::new();
            loop {
                let chunk = source.next_chunk(chunk_size);
                if chunk.is_empty() {
                    break;
                }
                // Contiguity within the chunk.
                for pair in chunk.windows(2) {
                    assert_eq!(pair[1].0, pair[0].0 + 1, "chunk indices must be contiguous");
                }
                union.extend(chunk);
            }
            assert_eq!(union, direct, "chunk size {chunk_size} changed the set");
        }
    }

    #[test]
    fn chunked_dispensing_respects_the_cap() {
        let w = workload(4);
        let mut source = IndexedSource::new(DfsExplorer::new(&w), 10);
        let a = source.next_chunk(7);
        let b = source.next_chunk(7);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 3, "cap cuts the second chunk short");
        assert!(source.truncated());
        assert!(source.next_chunk(7).is_empty(), "truncation is sticky");
    }

    #[test]
    fn prefix_locality_counter_matches_adjacent_overlap() {
        let w = workload(4);
        let mut source = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
        let dispensed: Vec<Interleaving> = source.by_ref().map(|(_, il)| il).collect();
        let expected: u64 = dispensed
            .windows(2)
            .map(|pair| pair[0].common_prefix_len(&pair[1]) as u64)
            .sum();
        assert_eq!(source.shared_prefix_events(), expected);
        // Lexicographic DFS guarantees substantial locality: the average
        // shared prefix of adjacent permutations approaches N - e.
        assert!(
            source.shared_prefix_events() as f64 / (dispensed.len() - 1) as f64 > 1.0,
            "lexicographic order should share > 1 event on average"
        );
    }

    #[test]
    fn pruned_explorer_passes_through_unchanged() {
        let w = workload(4);
        let config = PruningConfig::default();
        let direct: Vec<Interleaving> = ErPiExplorer::new(&w, &config).collect();
        let sourced: Vec<Interleaving> =
            IndexedSource::new(ErPiExplorer::new(&w, &config), usize::MAX)
                .map(|(_, il)| il)
                .collect();
        assert_eq!(direct, sourced);
    }
}
