//! Shardable, indexed iteration over the pruned interleaving set.
//!
//! [`IndexedSource`] is the single dispensing discipline behind every
//! replay (the dispenser of `er-pi`'s campaign core): it pulls candidates
//! from any explorer, enforces the interleaving cap, and stamps every
//! surviving interleaving with a stable, strictly increasing *exploration
//! index*. Because every replay slot draws from the same source, the index
//! assigned to an interleaving is independent of how many slots later
//! replay it — the invariant the differential-equivalence suite pins down.
//!
//! No explorer of this crate emits an interleaving twice: [`DfsExplorer`],
//! [`ErPiExplorer`] and [`FaultProduct`] enumerate, and [`RandomExplorer`]
//! keeps its own set of what it drew (`tests/suite/explorer_distinct.rs` at the
//! workspace root pins all of it). A duplicate can only come from a State-4
//! regeneration — [`IndexedSource::reseed`] swaps in a fresh explorer that
//! starts over — so only a source [made for
//! that](IndexedSource::make_reseedable) fingerprints what it dispenses and
//! drops what it has dispensed before; every other source hands its
//! explorer's items through untouched and retains nothing.
//!
//! [`DfsExplorer`]: crate::DfsExplorer
//! [`ErPiExplorer`]: crate::ErPiExplorer
//! [`FaultProduct`]: crate::FaultProduct
//! [`RandomExplorer`]: crate::RandomExplorer

use std::collections::HashSet;

use er_pi_model::Interleaving;

/// A capping, index-stamping wrapper around an explorer — deduplicating
/// too, when it was [made reseedable](IndexedSource::make_reseedable).
///
/// Semantics (those of a plain one-at-a-time replay loop):
///
/// 1. pull the next candidate from the underlying explorer;
/// 2. if the cap is already reached, mark the source *truncated* and stop —
///    the candidate is discarded, mirroring such a loop's
///    "`runs.len() >= cap` → `stopped_early`" check, which fires only when
///    the explorer proves it had more to offer;
/// 3. on a reseedable source, if the candidate's fingerprint was already
///    dispensed, skip it (regenerated explorers re-emit old interleavings);
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
    /// Fingerprints of everything dispensed — kept only by a reseedable
    /// source, the one kind that can be handed a duplicate.
    seen: Option<HashSet<u64>>,
    next_index: usize,
    cap: usize,
    truncated: bool,
}

impl<I: Iterator<Item = Interleaving>> IndexedSource<I> {
    /// Wraps `inner`, dispensing at most `cap` interleavings.
    ///
    /// The source trusts `inner` not to repeat itself (every explorer of
    /// this crate qualifies — [`DfsExplorer`](crate::DfsExplorer),
    /// [`ErPiExplorer`](crate::ErPiExplorer) and
    /// [`FaultProduct`](crate::FaultProduct) enumerate,
    /// [`RandomExplorer`](crate::RandomExplorer) keeps its own set): it
    /// neither hashes nor remembers what it hands out, and it cannot be
    /// [reseeded](IndexedSource::reseed) unless
    /// [`make_reseedable`](IndexedSource::make_reseedable) is called before
    /// the first dispense.
    pub fn new(inner: I, cap: usize) -> Self {
        IndexedSource {
            inner,
            seen: None,
            next_index: 0,
            cap,
            truncated: false,
        }
    }

    /// Makes this a source that may be [reseeded](IndexedSource::reseed):
    /// from here on it fingerprints every candidate and skips the ones it
    /// has dispensed before.
    ///
    /// # Panics
    ///
    /// If anything was dispensed already: what went out unrecorded could be
    /// re-emitted after a reseed.
    pub fn make_reseedable(&mut self) {
        assert_eq!(
            self.next_index, 0,
            "a source is made reseedable before its first dispense"
        );
        self.seen = Some(HashSet::new());
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

    /// Replaces the underlying explorer while keeping the dedup set, the
    /// index counter, and the cap — the State-4 regeneration: newly ingested
    /// constraints rebuild the generator, and anything it re-emits that was
    /// already replayed is skipped.
    ///
    /// # Panics
    ///
    /// On a source that was not [made
    /// reseedable](IndexedSource::make_reseedable): it kept no record of
    /// what it dispensed, so the fresh explorer's repeats would be replayed
    /// again under new indices instead of being skipped.
    pub fn reseed(&mut self, inner: I) {
        assert!(
            self.seen.is_some(),
            "reseed on a source that was not made reseedable: it would re-emit what it dispensed"
        );
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
            if let Some(seen) = &mut self.seen {
                if !seen.insert(il.fingerprint()) {
                    continue;
                }
            }
            let index = self.next_index;
            self.next_index += 1;
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
        source.make_reseedable();
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
    #[should_panic(expected = "not made reseedable")]
    fn reseed_on_a_plain_source_panics() {
        let w = workload(3);
        let mut source = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
        assert_eq!(source.by_ref().take(3).count(), 3);
        // Nothing remembers those three: the fresh explorer would hand
        // them out again as indices 3, 4 and 5.
        source.reseed(DfsExplorer::new(&w));
    }

    #[test]
    #[should_panic(expected = "before its first dispense")]
    fn a_source_is_not_made_reseedable_after_dispensing() {
        let w = workload(3);
        let mut source = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
        source.next();
        source.make_reseedable();
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
