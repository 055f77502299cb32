//! The exploration baselines: DFS and Random (paper §6.3).

use std::collections::HashSet;

use er_pi_model::{factorial, EventId, FaultPlan, Interleaving, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{FilterTimings, Permutations, PruneStats};

/// A source of interleavings to replay.
///
/// All explorers are plain iterators; [`Explorer::fill`] is the same
/// stream written into a buffer the caller keeps, which is how the replay
/// engine draws it. The rest is what an explorer says about its own work,
/// each with a default for an explorer that has none of it:
/// [`wasted_work`](Explorer::wasted_work) (the Random explorer's shuffle
/// retries, which feed the simulated-time model of Figure 8b),
/// [`prune_stats`](Explorer::prune_stats) and
/// [`filter_timings`](Explorer::filter_timings) (ER-π's pruner counters
/// and per-filter wall time). A campaign holds its explorer as a
/// `Box<dyn Explorer>` and reads all three the same way for every mode.
pub trait Explorer: Iterator<Item = Interleaving> {
    /// Short mode name for reports ("ER-π", "DFS", "Rand").
    fn name(&self) -> &'static str;

    /// Mode-specific overhead units accumulated so far (e.g. rejected
    /// shuffles). Zero for systematic explorers.
    fn wasted_work(&self) -> u64 {
        0
    }

    /// Writes the next interleaving — the one [`Iterator::next`] would
    /// return — over `buf`'s order and plan ([`Interleaving::refill`]), so
    /// that a caller dispensing into the same buffers allocates nothing per
    /// interleaving. Returns `false` once the explorer is exhausted; `buf`
    /// then holds nothing meaningful. An explorer's `next` is this, into a
    /// fresh buffer.
    fn fill(&mut self, buf: &mut Interleaving) -> bool;

    /// The pruning counters accumulated so far; `None` for an explorer
    /// that prunes nothing.
    fn prune_stats(&self) -> Option<PruneStats> {
        None
    }

    /// Per-filter wall time accumulated so far; `None` for an explorer
    /// that runs no filter.
    fn filter_timings(&self) -> Option<FilterTimings> {
        None
    }
}

impl<E: Explorer + ?Sized> Explorer for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn wasted_work(&self) -> u64 {
        (**self).wasted_work()
    }

    fn fill(&mut self, buf: &mut Interleaving) -> bool {
        (**self).fill(buf)
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        (**self).prune_stats()
    }

    fn filter_timings(&self) -> Option<FilterTimings> {
        (**self).filter_timings()
    }
}

/// [`Iterator::next`] of an [`Explorer`]: its [`fill`](Explorer::fill)
/// into a fresh buffer.
pub(crate) fn fresh(explorer: &mut impl Explorer) -> Option<Interleaving> {
    let mut il = Interleaving::default();
    explorer.fill(&mut il).then_some(il)
}

/// Moves `inner`'s next item into `buf`: what a wrapper that is generic
/// over any iterator of interleavings pulls with where it cannot
/// [`fill`](Explorer::fill).
pub(crate) fn pull_next<I>(inner: &mut I, buf: &mut Interleaving) -> bool
where
    I: Iterator<Item = Interleaving>,
{
    match inner.next() {
        Some(next) => {
            *buf = next;
            true
        }
        None => false,
    }
}

/// Which exploration mode to run — the three bars of Figures 8a/8b.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreMode {
    /// ER-π with its applicable pruning algorithms.
    ErPi,
    /// Depth-first search over all `n!` orders.
    Dfs,
    /// Random shuffling with a seen-cache over all `n!` orders.
    Random {
        /// Shuffle seed.
        seed: u64,
    },
}

impl std::fmt::Display for ExploreMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreMode::ErPi => f.write_str("ER-π"),
            ExploreMode::Dfs => f.write_str("DFS"),
            ExploreMode::Random { .. } => f.write_str("Rand"),
        }
    }
}

/// Depth-first (lexicographic) exploration of all `n!` interleavings.
///
/// ```
/// use er_pi_interleave::{DfsExplorer, Explorer};
/// use er_pi_model::{ReplicaId, Workload};
///
/// let mut w = Workload::builder();
/// w.update(ReplicaId::new(0), "a", [1]);
/// w.update(ReplicaId::new(1), "b", [2]);
/// let workload = w.build();
///
/// let mut dfs = DfsExplorer::new(&workload);
/// assert_eq!(dfs.name(), "DFS");
/// assert_eq!(dfs.count(), 2);
/// ```
#[derive(Debug)]
pub struct DfsExplorer {
    ids: Vec<EventId>,
    perms: Permutations,
}

impl DfsExplorer {
    /// Creates the explorer for `workload`.
    pub fn new(workload: &Workload) -> Self {
        DfsExplorer {
            ids: workload.event_ids().collect(),
            perms: Permutations::new(workload.len()),
        }
    }

    /// Creates the explorer with an explicit base expansion order: the tree
    /// is explored as if the events were enumerated in `base` order.
    ///
    /// Restarting a real model checker perturbs its frontier ordering (I/O
    /// timing, hash seeds); this constructor models that run-to-run
    /// nondeterminism for the Figure 10 micro-benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a permutation of the workload's events.
    pub fn with_base_order(workload: &Workload, base: Vec<er_pi_model::EventId>) -> Self {
        assert!(
            workload.is_permutation(&er_pi_model::Interleaving::new(base.clone())),
            "base order must be a permutation of the workload"
        );
        DfsExplorer {
            ids: base,
            perms: Permutations::new(workload.len()),
        }
    }
}

impl Iterator for DfsExplorer {
    type Item = Interleaving;

    fn next(&mut self) -> Option<Interleaving> {
        fresh(self)
    }
}

impl Explorer for DfsExplorer {
    fn name(&self) -> &'static str {
        "DFS"
    }

    fn fill(&mut self, buf: &mut Interleaving) -> bool {
        let Some(perm) = self.perms.step() else {
            return false;
        };
        let ids = &self.ids;
        buf.refill(perm.len(), &FaultPlan::empty(), |order| {
            order.extend(perm.iter().map(|&i| ids[i]));
        });
        true
    }
}

/// Random exploration: each draw shuffles the events and retries until an
/// unexplored interleaving appears (the paper's "caching the composed
/// interleavings to avoid repetition").
///
/// The retry count is the mode's characteristic overhead — "Rand took the
/// most time due to the need to keep shuffling the events until finding an
/// unexplored interleaving" (§6.3).
#[derive(Debug)]
pub struct RandomExplorer {
    ids: Vec<EventId>,
    rng: StdRng,
    seen: HashSet<u64>,
    total: u128,
    retries: u64,
}

impl RandomExplorer {
    /// Creates the explorer for `workload` with a deterministic `seed`.
    pub fn new(workload: &Workload, seed: u64) -> Self {
        RandomExplorer {
            ids: workload.event_ids().collect(),
            rng: StdRng::seed_from_u64(seed),
            seen: HashSet::new(),
            total: factorial(workload.len()),
            retries: 0,
        }
    }

    /// Number of rejected (already seen) shuffles so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }
}

impl Iterator for RandomExplorer {
    type Item = Interleaving;

    fn next(&mut self) -> Option<Interleaving> {
        fresh(self)
    }
}

impl Explorer for RandomExplorer {
    fn name(&self) -> &'static str {
        "Rand"
    }

    fn wasted_work(&self) -> u64 {
        self.retries
    }

    fn fill(&mut self, buf: &mut Interleaving) -> bool {
        if (self.seen.len() as u128) >= self.total {
            return false; // the whole space has been emitted
        }
        loop {
            // A retry reshuffles in the same buffer.
            let (ids, rng) = (&self.ids, &mut self.rng);
            buf.refill(ids.len(), &FaultPlan::empty(), |order| {
                order.extend_from_slice(ids);
                order.shuffle(rng);
            });
            if self.seen.insert(buf.fingerprint()) {
                return true;
            }
            self.retries += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::{ReplicaId, Workload};

    fn workload(n: usize) -> Workload {
        let mut w = Workload::builder();
        for i in 0..n {
            w.update(ReplicaId::new((i % 3) as u16), "op", [i as i64]);
        }
        w.build()
    }

    #[test]
    fn dfs_enumerates_all_orders_exactly_once() {
        let w = workload(4);
        let all: Vec<Interleaving> = DfsExplorer::new(&w).collect();
        assert_eq!(all.len(), 24);
        let unique: HashSet<u64> = all.iter().map(Interleaving::fingerprint).collect();
        assert_eq!(unique.len(), 24);
        for il in &all {
            assert!(w.is_permutation(il));
        }
    }

    #[test]
    fn dfs_first_is_recorded_order() {
        let w = workload(5);
        let first = DfsExplorer::new(&w).next().unwrap();
        assert_eq!(first, w.recorded_order());
    }

    #[test]
    fn random_emits_unique_permutations() {
        let w = workload(4);
        let mut rand = RandomExplorer::new(&w, 1234);
        let drawn: Vec<Interleaving> = rand.by_ref().take(24).collect();
        let unique: HashSet<u64> = drawn.iter().map(Interleaving::fingerprint).collect();
        assert_eq!(unique.len(), 24, "all 4! orders drawn without repetition");
        assert!(rand.next().is_none(), "space exhausted");
        assert!(rand.retries() > 0, "exhausting the space forces retries");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let w = workload(5);
        let a: Vec<Interleaving> = RandomExplorer::new(&w, 7).take(10).collect();
        let b: Vec<Interleaving> = RandomExplorer::new(&w, 7).take(10).collect();
        assert_eq!(a, b);
        let c: Vec<Interleaving> = RandomExplorer::new(&w, 8).take(10).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn random_orders_differ_from_dfs_prefix() {
        let w = workload(6);
        let dfs: Vec<Interleaving> = DfsExplorer::new(&w).take(5).collect();
        let rand: Vec<Interleaving> = RandomExplorer::new(&w, 99).take(5).collect();
        assert_ne!(dfs, rand);
    }

    /// Behind a `Box<dyn Explorer>` — how a campaign holds every mode —
    /// each explorer reports what it reports bare: ER-π its counters and
    /// timings, the baselines none and their wasted work.
    #[test]
    fn a_boxed_explorer_reports_what_it_reports_bare() {
        let w = workload(4);
        let config = crate::PruningConfig::default();
        let mut boxed: [Box<dyn Explorer>; 3] = [
            Box::new(crate::ErPiExplorer::new(&w, &config)),
            Box::new(DfsExplorer::new(&w)),
            Box::new(RandomExplorer::new(&w, 1234)),
        ];
        for explorer in &mut boxed {
            assert_eq!(explorer.by_ref().count(), 24, "{}", explorer.name());
        }
        let mut erpi = crate::ErPiExplorer::new(&w, &config);
        erpi.by_ref().for_each(drop);
        assert_eq!(boxed[0].prune_stats(), Some(erpi.stats()));
        assert_eq!(boxed[0].filter_timings(), Some(FilterTimings::default()));
        let mut rand = RandomExplorer::new(&w, 1234);
        rand.by_ref().for_each(drop);
        for baseline in &boxed[1..] {
            assert_eq!(baseline.prune_stats(), None);
            assert_eq!(baseline.filter_timings(), None);
        }
        assert_eq!(boxed[2].wasted_work(), rand.retries());
    }

    #[test]
    fn mode_display_names() {
        assert_eq!(ExploreMode::ErPi.to_string(), "ER-π");
        assert_eq!(ExploreMode::Dfs.to_string(), "DFS");
        assert_eq!(ExploreMode::Random { seed: 1 }.to_string(), "Rand");
    }
}
