//! The counters a report carries about how a campaign ran: per-slot loads,
//! checkpoint-cache savings and failed-operation rates.

use crate::RunRecord;

/// One replay slot's share of a campaign — how many interleavings it
/// replayed and how much simulated time they cost. A report carries one
/// per slot in [`SessionSummary::workers`](crate::SessionSummary::workers),
/// so the fig8/fig9/fig10 timing pipelines can attribute cost per worker;
/// the *assignment* of runs to workers is scheduling-dependent, but the
/// totals across workers are not.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkerLoad {
    /// Slot index within the campaign (0-based).
    pub worker: usize,
    /// Interleavings this worker replayed (including runs later discarded
    /// by the lowest-violation-wins merge).
    pub runs: usize,
    /// Simulated time charged to those runs, microseconds.
    pub sim_us: u64,
}

/// Checkpoint-cache counters of an incremental replay — what the
/// [`IncrementalExecutor`](crate::IncrementalExecutor)'s path cache saved
/// relative to replaying every interleaving from scratch.
///
/// Carried in [`Report::cache_stats`](crate::Report::cache_stats) when the
/// session ran incrementally or subsumed (`None` for a plain scratch
/// replay). Like
/// [`WorkerLoad`], the counters are legitimately scheduling-dependent under
/// a parallel pool (each worker owns its own paths), so they are excluded
/// from [`Report::diff`](crate::Report::diff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Runs that resumed from a cached prefix checkpoint (depth > 0).
    pub hits: u64,
    /// Runs that found no usable checkpoint and replayed from scratch. An
    /// executor that keeps no snapshots (subsumption on, incremental replay
    /// off) books every run here: [`Report::cache_stats`](crate::Report::cache_stats)
    /// shows one miss per run, while the session summary, the live progress
    /// tally and the registry show no hit or miss, there having been no
    /// cache to miss.
    pub misses: u64,
    /// Event applications skipped by resuming from cached prefixes — what
    /// `core.incr_events_saved_share` reports (see `benchmark/README.md`).
    pub events_saved: u64,
    /// Bytes of snapshot state resident when the replay ended: the sum of
    /// [`SystemModel::state_size_hint`](crate::SystemModel::state_size_hint)
    /// over the states of every snapshot still on a path, one shared by
    /// several fault plans counted once. Never above the cache budget.
    pub bytes_resident: usize,
    /// Simulated time the skipped prefix events would have cost,
    /// microseconds. The *reported* `sim_us` stays byte-identical to a
    /// scratch replay (each resume is still charged `reset_cost_us` — a
    /// rewind *is* a state reset); this field records how much of that
    /// total was never physically re-executed, so latency models built on
    /// `sim_us` can subtract it and stay honest.
    pub sim_us_saved: u64,
    /// Runs short-circuited by state-hash subsumption: the run reached a
    /// `(state digest, fault context, remaining suffix)` an earlier run had
    /// already explored, so its tail was stitched from the memoized run
    /// instead of executing. "Executed replays" = `hits + misses -
    /// subsumed`.
    #[serde(default)]
    pub subsumed: u64,
    /// Event applications skipped by subsumption short-circuits (beyond
    /// those already counted in `events_saved` by prefix resume).
    #[serde(default)]
    pub subsume_events_saved: u64,
}

impl CacheStats {
    /// Merges another slot's counters into this one (campaigns sum
    /// the per-worker caches).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.events_saved += other.events_saved;
        self.bytes_resident += other.bytes_resident;
        self.sim_us_saved += other.sim_us_saved;
        self.subsumed += other.subsumed;
        self.subsume_events_saved += other.subsume_events_saved;
    }

    /// Fraction of runs that resumed from a checkpoint (0 when no runs).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Simulated seconds saved by prefix reuse.
    pub fn saved_secs(&self) -> f64 {
        self.sim_us_saved as f64 / 1e6
    }

    /// Fraction of runs short-circuited by subsumption (0 when no runs).
    pub fn subsume_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.subsumed as f64 / total as f64
        }
    }

    /// Runs that physically executed events (i.e. were not subsumed).
    pub fn executed_runs(&self) -> u64 {
        (self.hits + self.misses).saturating_sub(self.subsumed)
    }
}

/// Failure statistics across a set of replayed runs.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct FailureStats {
    /// Runs with at least one failed operation.
    pub runs_with_failures: usize,
    /// Total runs inspected.
    pub runs: usize,
    /// Total failed operations.
    pub failed_ops: usize,
}

impl FailureStats {
    /// Aggregates over run records (e.g. `Report::runs`).
    pub fn from_runs(runs: &[RunRecord]) -> Self {
        FailureStats::from_failed_ops(runs.iter().map(|r| r.failed_ops))
    }

    /// Aggregates over per-run failed-operation counts.
    pub(crate) fn from_failed_ops(per_run: impl IntoIterator<Item = usize>) -> Self {
        let mut stats = FailureStats::default();
        for failed_ops in per_run {
            stats.runs += 1;
            stats.runs_with_failures += usize::from(failed_ops > 0);
            stats.failed_ops += failed_ops;
        }
        stats
    }

    /// Fraction of runs that saw a failure (0 when no runs).
    pub fn failure_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.runs_with_failures as f64 / self.runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::Interleaving;

    #[test]
    fn cache_stats_merge_and_rates() {
        let mut a = CacheStats {
            hits: 3,
            misses: 1,
            events_saved: 30,
            bytes_resident: 100,
            sim_us_saved: 2_000_000,
            subsumed: 2,
            subsume_events_saved: 8,
        };
        let b = CacheStats {
            hits: 1,
            misses: 3,
            events_saved: 10,
            bytes_resident: 50,
            sim_us_saved: 500_000,
            subsumed: 1,
            subsume_events_saved: 4,
        };
        a.absorb(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.misses, 4);
        assert_eq!(a.events_saved, 40);
        assert_eq!(a.bytes_resident, 150);
        assert_eq!(a.subsumed, 3);
        assert_eq!(a.subsume_events_saved, 12);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert!((a.saved_secs() - 2.5).abs() < 1e-12);
        assert!((a.subsume_rate() - 0.375).abs() < 1e-12);
        assert_eq!(a.executed_runs(), 5);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(CacheStats::default().subsume_rate(), 0.0);
    }

    #[test]
    fn failure_stats_aggregate() {
        let runs = vec![
            RunRecord {
                interleaving: Interleaving::new(vec![]),
                observations: vec![],
                failed_ops: 0,
                sim_us: 0,
            },
            RunRecord {
                interleaving: Interleaving::new(vec![]),
                observations: vec![],
                failed_ops: 3,
                sim_us: 0,
            },
        ];
        let stats = FailureStats::from_runs(&runs);
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.runs_with_failures, 1);
        assert_eq!(stats.failed_ops, 3);
        assert!((stats.failure_rate() - 0.5).abs() < 1e-12);
        assert_eq!(FailureStats::from_runs(&[]).failure_rate(), 0.0);
    }
}
