//! Resource profiling — the paper's §8 future-work direction
//! ("we plan to extend the applicability and usefulness of ER-π for tasks
//! such as resource profiling"), implemented over the replay machinery.
//!
//! A [`ResourceProfile`] breaks a workload's replay cost down per replica
//! and per event kind under a [`TimeModel`], and aggregates observed
//! failure rates across a set of replayed runs. Developers use it to spot
//! hot replicas (e.g. an underpowered edge device dominating replay time)
//! before scaling out a test campaign.

use er_pi_model::{EventKind, ReplicaId, Workload};

use crate::{RunRecord, TimeModel};

/// Per-replica share of one replay's simulated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaLoad {
    /// The replica.
    pub replica: ReplicaId,
    /// Events executing at this replica.
    pub events: usize,
    /// Local RDL updates among them.
    pub updates: usize,
    /// Synchronization events among them (any flavour).
    pub syncs: usize,
    /// Simulated cost charged to this replica per replay, microseconds.
    pub cost_us: u64,
}

/// A workload's replay-cost profile.
///
/// ```
/// use er_pi::{ResourceProfile, TimeModel};
/// use er_pi_model::{ReplicaId, Value, Workload};
///
/// let mut w = Workload::builder();
/// let u = w.update(ReplicaId::new(0), "add", [Value::from(1)]);
/// w.sync_pair(ReplicaId::new(0), ReplicaId::new(2), u);
/// let w = w.build();
///
/// let profile = ResourceProfile::for_workload(&w, &TimeModel::paper_setup());
/// // The Raspberry Pi replica (id 2) receives the sync — but the fused
/// // sync executes at the sender, so replica 0 carries the cost here.
/// assert_eq!(profile.busiest().unwrap().replica, ReplicaId::new(0));
/// assert!(profile.run_cost_us() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceProfile {
    loads: Vec<ReplicaLoad>,
    reset_cost_us: u64,
}

impl ResourceProfile {
    /// Profiles one replay of `workload` under `time`.
    pub fn for_workload(workload: &Workload, time: &TimeModel) -> Self {
        let mut loads: Vec<ReplicaLoad> = workload
            .replicas()
            .into_iter()
            .map(|replica| ReplicaLoad {
                replica,
                events: 0,
                updates: 0,
                syncs: 0,
                cost_us: 0,
            })
            .collect();
        for event in workload.events() {
            let Some(load) = loads.iter_mut().find(|l| l.replica == event.replica) else {
                continue;
            };
            load.events += 1;
            match event.kind {
                EventKind::LocalUpdate { .. } => load.updates += 1,
                EventKind::SyncSend { .. }
                | EventKind::SyncExec { .. }
                | EventKind::Sync { .. } => load.syncs += 1,
                EventKind::External { .. } => {}
            }
            load.cost_us += time.event_cost_us(event);
        }
        ResourceProfile {
            loads,
            reset_cost_us: time.reset_cost_us,
        }
    }

    /// Per-replica loads, in replica order.
    pub fn loads(&self) -> &[ReplicaLoad] {
        &self.loads
    }

    /// The most expensive replica, or `None` for the profile of an empty
    /// workload (no replicas, nothing to attribute).
    pub fn busiest(&self) -> Option<&ReplicaLoad> {
        self.loads.iter().max_by_key(|l| l.cost_us)
    }

    /// Total simulated cost of one replay, including the checkpoint/reset
    /// overhead.
    pub fn run_cost_us(&self) -> u64 {
        self.loads.iter().map(|l| l.cost_us).sum::<u64>() + self.reset_cost_us
    }

    /// Projects the cost of a whole campaign of `interleavings` replays,
    /// in simulated seconds — the planning number behind the paper's
    /// "seven machine days" remark.
    pub fn campaign_secs(&self, interleavings: usize) -> f64 {
        self.run_cost_us() as f64 * interleavings as f64 / 1e6
    }
}

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
/// session ran incrementally (`None` for a scratch replay). Like
/// [`WorkerLoad`], the counters are legitimately scheduling-dependent under
/// a parallel pool (each worker owns its own paths), so they are excluded
/// from [`Report::diff`](crate::Report::diff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Runs that resumed from a cached prefix checkpoint (depth > 0).
    pub hits: u64,
    /// Runs that found no usable checkpoint and replayed from scratch.
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
    use er_pi_model::{Interleaving, Value};

    fn workload() -> Workload {
        let mut w = Workload::builder();
        let u0 = w.update(ReplicaId::new(0), "add", [Value::from(1)]);
        w.update(ReplicaId::new(2), "add", [Value::from(2)]);
        w.sync_pair(ReplicaId::new(0), ReplicaId::new(1), u0);
        w.external(ReplicaId::new(1), "read");
        w.build()
    }

    #[test]
    fn loads_partition_the_events() {
        let profile = ResourceProfile::for_workload(&workload(), &TimeModel::paper_setup());
        let total: usize = profile.loads().iter().map(|l| l.events).sum();
        assert_eq!(total, 4);
        let r0 = &profile.loads()[0];
        assert_eq!(r0.updates, 1);
        assert_eq!(r0.syncs, 1);
    }

    #[test]
    fn pi_replica_charges_more_per_update() {
        let profile = ResourceProfile::for_workload(&workload(), &TimeModel::paper_setup());
        let pi = profile
            .loads()
            .iter()
            .find(|l| l.replica == ReplicaId::new(2))
            .unwrap();
        // One update on the Raspberry Pi profile costs over a millisecond.
        assert_eq!(pi.updates, 1);
        assert!(pi.cost_us > 1_000, "Pi op cost: {}", pi.cost_us);
    }

    #[test]
    fn busiest_is_none_for_an_empty_workload() {
        let empty = Workload::builder().build();
        let profile = ResourceProfile::for_workload(&empty, &TimeModel::paper_setup());
        assert!(profile.busiest().is_none());
        let profile = ResourceProfile::for_workload(&workload(), &TimeModel::paper_setup());
        assert!(profile.busiest().is_some());
    }

    #[test]
    fn campaign_projection_scales_linearly() {
        let profile = ResourceProfile::for_workload(&workload(), &TimeModel::paper_setup());
        let one = profile.campaign_secs(1);
        let ten_k = profile.campaign_secs(10_000);
        assert!((ten_k / one - 10_000.0).abs() < 1e-6);
    }

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
