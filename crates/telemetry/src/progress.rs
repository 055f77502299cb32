//! Live campaign progress: one lock-free tally of finished runs, read by
//! the progress snapshot, by everything rendered from it and — when its
//! cells are registry series — by the metric exposition; plus the one
//! low-hit-rate rule over that tally.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::registry::Counter;

/// The per-run cells of a campaign's tally, in the order `[runs, cache
/// hits, cache misses, subsumed]`. Detached by default; a campaign that
/// exports into a [`Registry`](crate::Registry) hands in that registry's own
/// series, so one [`Progress::record_run`] advances the live snapshot and
/// the exposition through the same memory.
pub type RunCells = [Counter; 4];

/// Lock-free progress aggregator shared between the session thread and
/// every replay slot. Slots bump atomic counters as runs finish; anyone
/// can take a [`ProgressSnapshot`] at any time.
#[derive(Debug)]
pub struct Progress {
    started: Instant,
    cells: RunCells,
    /// What the cells read when this campaign began. Registry series keep
    /// accumulating over every replay of a session; a campaign counts from
    /// zero.
    base: [u64; 4],
    /// The low-hit-rate warning has been handed out.
    warned: AtomicBool,
    /// Unit permutations pruned by the sleep-set filter. Behind an `Arc`
    /// so the exploring thread can bump it without holding the aggregator
    /// (see [`Progress::sleep_tally`]).
    sleep_prunes: Arc<AtomicU64>,
    per_worker: Vec<AtomicU64>,
    /// Expected total number of runs, when the campaign is bounded.
    expected_total: Option<u64>,
    /// A-priori whole-campaign projection (seconds), e.g. the cap times
    /// `TimeModel::run_cost_us`. Carried into snapshots untouched.
    campaign_secs_hint: Option<f64>,
}

impl Progress {
    /// A fresh aggregator for `workers` replay slots, over detached cells.
    pub fn new(workers: usize) -> Self {
        Progress {
            started: Instant::now(),
            cells: RunCells::default(),
            base: [0; 4],
            warned: AtomicBool::new(false),
            sleep_prunes: Arc::new(AtomicU64::new(0)),
            per_worker: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            expected_total: None,
            campaign_secs_hint: None,
        }
    }

    /// Counts into `cells` instead of cells of its own, starting from what
    /// they read now. Two campaigns running at once need cells of their
    /// own each.
    pub fn with_cells(mut self, cells: RunCells) -> Self {
        self.base = cells.each_ref().map(Counter::get);
        self.cells = cells;
        self
    }

    /// Sets the expected number of runs (enables the measured ETA).
    pub fn with_expected_total(mut self, total: Option<u64>) -> Self {
        self.expected_total = total;
        self
    }

    /// Attaches an a-priori campaign-duration projection in seconds.
    pub fn with_campaign_secs(mut self, secs: Option<f64>) -> Self {
        self.campaign_secs_hint = secs;
        self
    }

    /// Records one finished run on `worker`'s tally. `cache_hit` says
    /// whether the run resumed from a checkpoint (`None` when the executors
    /// keep no snapshots); `subsumed` whether state-hash subsumption
    /// stitched the run's tail instead of executing it. Returns the
    /// campaign's new total, so callers can trigger periodic work every N
    /// runs without a second load.
    pub fn record_run(&self, worker: usize, cache_hit: Option<bool>, subsumed: bool) -> u64 {
        let [runs, cache_hits, cache_misses, subsumed_runs] = &self.cells;
        if let Some(w) = self.per_worker.get(worker) {
            w.fetch_add(1, Ordering::Relaxed);
        }
        match cache_hit {
            Some(true) => {
                cache_hits.inc();
            }
            Some(false) => {
                cache_misses.inc();
            }
            None => {}
        }
        if subsumed {
            subsumed_runs.inc();
        }
        runs.inc() - self.base[0]
    }

    /// The shared sleep-set prune tally: hand the `Arc` to the explorer
    /// (`ErPiExplorer::set_sleep_tally`) and it shows up live in
    /// [`ProgressSnapshot::sleep_prunes`].
    pub fn sleep_tally(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.sleep_prunes)
    }

    /// Number of workers this aggregator tracks.
    pub fn workers(&self) -> usize {
        self.per_worker.len()
    }

    /// This campaign's `[runs, cache hits, cache misses, subsumed]` so far.
    fn counts(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.cells[i].get() - self.base[i])
    }

    /// The [`low_hit_rate`] sentence over the tally so far — the first time
    /// the rule holds, and never again for this campaign.
    pub fn low_hit_rate_warning(&self) -> Option<String> {
        if self.warned.load(Ordering::Relaxed) {
            return None;
        }
        let [_, hits, misses, _] = self.counts();
        let message = low_hit_rate(hits, misses)?;
        (!self.warned.swap(true, Ordering::Relaxed)).then_some(message)
    }

    /// Takes a consistent-enough snapshot (counters are relaxed; exact
    /// cross-counter consistency is not needed for display).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let elapsed = self.started.elapsed().as_secs_f64();
        let [runs_done, hits, misses, subsumed_runs] = self.counts();
        let runs_per_sec = if elapsed > 0.0 {
            runs_done as f64 / elapsed
        } else {
            0.0
        };
        // ETA only once throughput is measurable: with zero completed runs
        // (or a zero-elapsed window) the division would fabricate an
        // estimate out of nothing, and the old `Some(0.0)` sentinel leaked
        // "done" into JSON payloads before the first run even finished.
        let eta_secs = match self.expected_total {
            Some(total) if runs_per_sec > 0.0 && total > runs_done => {
                Some((total - runs_done) as f64 / runs_per_sec)
            }
            Some(total) if runs_per_sec > 0.0 && runs_done >= total => Some(0.0),
            _ => None,
        };
        ProgressSnapshot {
            elapsed_secs: elapsed,
            runs_done,
            expected_total: self.expected_total,
            runs_per_sec,
            eta_secs,
            campaign_secs_hint: self.campaign_secs_hint,
            cache_hit_rate: hit_rate(hits, misses),
            subsumed_runs,
            subsume_rate: share(subsumed_runs, runs_done),
            sleep_prunes: self.sleep_prunes.load(Ordering::Relaxed),
            per_worker_runs: self
                .per_worker
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time view of campaign progress, handed to the periodic
/// progress callback installed with `Session::set_progress_hook` and
/// serialized as-is by the campaign server's `GET /campaigns/:id`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProgressSnapshot {
    /// Wall-clock seconds since replay started.
    pub elapsed_secs: f64,
    /// Runs executed so far: every run a replay slot finished, the
    /// speculative ones past a stop-on-first violation included. It ends at
    /// `SessionSummary::executed`, which `Report::explored` never exceeds.
    pub runs_done: u64,
    /// Expected total runs (the session cap), when bounded.
    pub expected_total: Option<u64>,
    /// Measured throughput over the whole campaign so far.
    pub runs_per_sec: f64,
    /// Measured time-to-completion estimate, seconds
    /// (`None` when the campaign is unbounded or throughput is still 0).
    pub eta_secs: Option<f64>,
    /// The a-priori projection (the cap times `TimeModel::run_cost_us`, in
    /// seconds), if the caller supplied one — useful to compare against the
    /// measured ETA.
    pub campaign_secs_hint: Option<f64>,
    /// Checkpoint-cache hit rate in `[0, 1]` (`None` before any
    /// incremental-replay run finishes).
    pub cache_hit_rate: Option<f64>,
    /// Runs short-circuited by state-hash subsumption so far.
    #[serde(default)]
    pub subsumed_runs: u64,
    /// `subsumed_runs / runs_done` in `[0, 1]` (`None` before the first
    /// run finishes).
    #[serde(default)]
    pub subsume_rate: Option<f64>,
    /// Unit permutations pruned live by the sleep-set filter.
    #[serde(default)]
    pub sleep_prunes: u64,
    /// Runs completed per worker — utilization skew at a glance.
    pub per_worker_runs: Vec<u64>,
}

impl ProgressSnapshot {
    /// Per-worker utilization relative to a perfectly even split, in
    /// `[0, 1]` per worker (1.0 = this worker did an even share or more).
    pub fn worker_utilization(&self) -> Vec<f64> {
        let n = self.per_worker_runs.len();
        if n == 0 || self.runs_done == 0 {
            return vec![0.0; n];
        }
        let fair = self.runs_done as f64 / n as f64;
        self.per_worker_runs
            .iter()
            .map(|&r| (r as f64 / fair).min(1.0))
            .collect()
    }
}

/// Attributed runs below which [`low_hit_rate`] stays quiet.
pub const HIT_RATE_WINDOW: u64 = 1_000;
/// Hit-rate floor below which [`low_hit_rate`] warns.
pub const HIT_RATE_THRESHOLD: f64 = 0.10;

/// `part / whole` in `[0, 1]`; no rate over an empty whole.
fn share(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

/// The checkpoint-cache hit rate of `hits` resumed and `misses` scratch
/// runs, in `[0, 1]`; `None` when no run was attributed — the executors
/// keep no snapshots, or nothing has finished yet.
pub fn hit_rate(hits: u64, misses: u64) -> Option<f64> {
    share(hits, hits + misses)
}

/// The degraded-cache rule: at least [`HIT_RATE_WINDOW`] attributed runs
/// with a cumulative hit rate under [`HIT_RATE_THRESHOLD`] — an order with
/// no prefix locality, or a cache budget that refuses every snapshot,
/// surfaced instead of letting replay silently fall back to scratch
/// execution. Returns the one sentence every view words it with.
pub fn low_hit_rate(hits: u64, misses: u64) -> Option<String> {
    let attributed = hits + misses;
    let rate = hit_rate(hits, misses)?;
    (attributed >= HIT_RATE_WINDOW && rate < HIT_RATE_THRESHOLD).then(|| {
        format!(
            "checkpoint-cache hit rate {:.1}% over {attributed} attributed runs is below \
             the {:.0}% floor — consecutive interleavings share few prefixes (Random \
             order sits near 1/N) or the cache budget is refusing snapshots; incremental \
             replay then costs about what scratch replay costs",
            rate * 100.0,
            HIT_RATE_THRESHOLD * 100.0,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_counts_runs_and_cache_hits() {
        let p = Progress::new(2).with_expected_total(Some(10));
        assert_eq!(p.record_run(0, Some(true), true), 1);
        assert_eq!(p.record_run(1, Some(false), false), 2);
        assert_eq!(p.record_run(1, None, false), 3);
        let s = p.snapshot();
        assert_eq!(s.runs_done, 3);
        assert_eq!(s.per_worker_runs, vec![1, 2]);
        assert_eq!(s.cache_hit_rate, Some(0.5));
        assert_eq!(s.expected_total, Some(10));
        assert!(s.eta_secs.is_some());
    }

    #[test]
    fn snapshot_without_incremental_has_no_hit_rate() {
        let p = Progress::new(1);
        p.record_run(0, None, false);
        let s = p.snapshot();
        assert_eq!(s.cache_hit_rate, None);
        assert_eq!(s.eta_secs, None);
    }

    #[test]
    fn eta_is_absent_until_throughput_is_measurable() {
        // A bounded campaign with zero completed runs used to report
        // `Some(0.0)` — indistinguishable from "finished" — and a zero
        // elapsed window divides by zero. Both must yield no estimate.
        let p = Progress::new(1).with_expected_total(Some(100));
        let s = p.snapshot();
        assert_eq!(s.runs_done, 0);
        assert_eq!(s.eta_secs, None, "no runs done yet: no ETA");
        assert!(
            s.eta_secs.is_none_or(f64::is_finite),
            "ETA must never be inf/NaN"
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let p = Progress::new(2).with_expected_total(Some(8));
        p.record_run(0, Some(true), true);
        p.record_run(1, Some(false), false);
        let s = p.snapshot();
        let json = serde_json::to_string(&s).expect("snapshot serializes");
        let back: ProgressSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        assert_eq!(back.runs_done, s.runs_done);
        assert_eq!(back.per_worker_runs, s.per_worker_runs);
        assert_eq!(back.expected_total, s.expected_total);
        assert_eq!(back.cache_hit_rate, s.cache_hit_rate);
    }

    #[test]
    fn out_of_range_worker_index_is_tolerated() {
        let p = Progress::new(1);
        p.record_run(7, None, false);
        assert_eq!(p.snapshot().runs_done, 1);
    }

    #[test]
    fn utilization_is_relative_to_even_split() {
        let p = Progress::new(2);
        for _ in 0..3 {
            p.record_run(0, None, false);
        }
        p.record_run(1, None, false);
        let u = p.snapshot().worker_utilization();
        assert_eq!(u[0], 1.0);
        assert_eq!(u[1], 0.5);
    }

    #[test]
    fn shared_cells_accumulate_while_each_campaign_counts_from_zero() {
        let registry = crate::Registry::new();
        let cells = || -> RunCells {
            ["runs", "hits", "misses", "subsumed"]
                .map(|name| registry.counter(&format!("er_pi_{name}_total"), name, &[]))
        };
        let first = Progress::new(1).with_cells(cells());
        first.record_run(0, Some(true), false);
        first.record_run(0, Some(false), true);
        assert_eq!(first.snapshot().runs_done, 2);

        // A second replay under the same series: the series keep their
        // totals, the campaign's own view starts over.
        let second = Progress::new(1).with_cells(cells());
        assert_eq!(second.snapshot().runs_done, 0);
        assert_eq!(second.record_run(0, Some(true), false), 1);
        let snapshot = second.snapshot();
        assert_eq!((snapshot.runs_done, snapshot.subsumed_runs), (1, 0));
        assert_eq!(snapshot.cache_hit_rate, Some(1.0));
        assert_eq!(cells().map(|cell| cell.get()), [3, 2, 1, 1]);
    }

    #[test]
    fn the_low_hit_rate_warning_fires_once_past_the_window() {
        let p = Progress::new(1);
        for run in 1..HIT_RATE_WINDOW {
            p.record_run(0, Some(false), false);
            assert_eq!(p.low_hit_rate_warning(), None, "run {run}");
        }
        p.record_run(0, Some(false), false);
        let message = p.low_hit_rate_warning().expect("a cold window");
        assert!(
            message.contains("0.0% over 1000 attributed runs"),
            "{message}"
        );
        assert_eq!(Some(message), low_hit_rate(0, HIT_RATE_WINDOW));
        // Still cold, but said once.
        p.record_run(0, Some(false), false);
        assert_eq!(p.low_hit_rate_warning(), None);
    }

    #[test]
    fn the_rule_needs_attribution_a_window_and_a_rate_under_the_floor() {
        assert_eq!(hit_rate(0, 0), None);
        assert_eq!(low_hit_rate(0, 0), None, "nothing attributed");
        assert_eq!(low_hit_rate(0, HIT_RATE_WINDOW - 1), None, "too few runs");
        assert_eq!(
            low_hit_rate(100, 900),
            None,
            "10% is the floor, not below it"
        );
        assert!(low_hit_rate(99, 901).is_some());
        // Unattributed runs never make a window.
        let p = Progress::new(1);
        for _ in 0..2 * HIT_RATE_WINDOW {
            p.record_run(0, None, false);
        }
        assert_eq!(p.low_hit_rate_warning(), None);
    }
}
