//! Live campaign progress: a lock-free aggregator sampled by replay
//! workers, plus the checkpoint-cache hit-rate monitor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Lock-free progress aggregator shared between the session thread and
/// every replay slot. Slots bump atomic counters as runs finish; anyone
/// can take a [`ProgressSnapshot`] at any time.
#[derive(Debug)]
pub struct Progress {
    started: Instant,
    runs_done: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Runs short-circuited by state-hash subsumption (a subset of
    /// `runs_done` — a subsumed run still completes and is reported).
    subsumed: AtomicU64,
    /// Unit permutations pruned by the sleep-set filter. Behind an `Arc`
    /// so the exploring thread can bump it without holding the aggregator
    /// (see [`Progress::sleep_tally`]).
    sleep_prunes: Arc<AtomicU64>,
    per_worker: Vec<AtomicU64>,
    /// Expected total number of runs, when the campaign is bounded.
    expected_total: Option<u64>,
    /// A-priori whole-campaign projection (seconds), e.g. from
    /// `ResourceProfile::campaign_secs`. Carried into snapshots untouched.
    campaign_secs_hint: Option<f64>,
}

impl Progress {
    /// A fresh aggregator for `workers` replay slots.
    pub fn new(workers: usize) -> Self {
        Progress {
            started: Instant::now(),
            runs_done: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            subsumed: AtomicU64::new(0),
            sleep_prunes: Arc::new(AtomicU64::new(0)),
            per_worker: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            expected_total: None,
            campaign_secs_hint: None,
        }
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
    /// whether the run resumed from a checkpoint (`None` when incremental
    /// replay is off); `subsumed` whether state-hash subsumption stitched
    /// the run's tail instead of executing it. Returns the new total, so
    /// callers can trigger periodic work every N runs without a second
    /// load.
    pub fn record_run(&self, worker: usize, cache_hit: Option<bool>, subsumed: bool) -> u64 {
        if let Some(w) = self.per_worker.get(worker) {
            w.fetch_add(1, Ordering::Relaxed);
        }
        match cache_hit {
            Some(true) => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            Some(false) => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        if subsumed {
            self.subsumed.fetch_add(1, Ordering::Relaxed);
        }
        self.runs_done.fetch_add(1, Ordering::Relaxed) + 1
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

    /// Takes a consistent-enough snapshot (counters are relaxed; exact
    /// cross-counter consistency is not needed for display).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let elapsed = self.started.elapsed().as_secs_f64();
        let runs_done = self.runs_done.load(Ordering::Relaxed);
        let runs_per_sec = if elapsed > 0.0 {
            runs_done as f64 / elapsed
        } else {
            0.0
        };
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let cache_hit_rate = if hits + misses > 0 {
            Some(hits as f64 / (hits + misses) as f64)
        } else {
            None
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
        let subsumed_runs = self.subsumed.load(Ordering::Relaxed);
        let subsume_rate = if runs_done > 0 {
            Some(subsumed_runs as f64 / runs_done as f64)
        } else {
            None
        };
        ProgressSnapshot {
            elapsed_secs: elapsed,
            runs_done,
            expected_total: self.expected_total,
            runs_per_sec,
            eta_secs,
            campaign_secs_hint: self.campaign_secs_hint,
            cache_hit_rate,
            subsumed_runs,
            subsume_rate,
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
    /// Runs completed so far.
    pub runs_done: u64,
    /// Expected total runs (the session cap), when bounded.
    pub expected_total: Option<u64>,
    /// Measured throughput over the whole campaign so far.
    pub runs_per_sec: f64,
    /// Measured time-to-completion estimate, seconds
    /// (`None` when the campaign is unbounded or throughput is still 0).
    pub eta_secs: Option<f64>,
    /// The a-priori projection from `ResourceProfile::campaign_secs`, if
    /// the caller supplied one — useful to compare against the measured
    /// ETA.
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

/// Watches the checkpoint-cache hit rate over fixed windows of runs and
/// produces a one-line warning the first time a window degrades below the
/// threshold — surfacing an order with no prefix locality (or a cache
/// budget that refuses every snapshot) instead of letting replay silently
/// fall back to scratch execution.
#[derive(Debug)]
pub struct HitRateMonitor {
    window: u64,
    threshold: f64,
    hits: u64,
    seen: u64,
    warned: bool,
}

/// Runs per observation window of the default monitor.
pub const HIT_RATE_WINDOW: u64 = 1_000;
/// Hit-rate floor below which the default monitor warns.
pub const HIT_RATE_THRESHOLD: f64 = 0.10;

impl Default for HitRateMonitor {
    fn default() -> Self {
        HitRateMonitor::new(HIT_RATE_WINDOW, HIT_RATE_THRESHOLD)
    }
}

impl HitRateMonitor {
    /// A monitor warning when a `window`-run window's hit rate is below
    /// `threshold`.
    pub fn new(window: u64, threshold: f64) -> Self {
        HitRateMonitor {
            window: window.max(1),
            threshold,
            hits: 0,
            seen: 0,
            warned: false,
        }
    }

    /// Records one run (`hit` = resumed from a checkpoint). Returns the
    /// warning message when a completed window first falls below the
    /// threshold; at most one warning per monitor.
    pub fn record(&mut self, hit: bool) -> Option<String> {
        self.seen += 1;
        if hit {
            self.hits += 1;
        }
        if self.seen < self.window {
            return None;
        }
        let rate = self.hits as f64 / self.seen as f64;
        let fired = !self.warned && rate < self.threshold;
        self.hits = 0;
        self.seen = 0;
        if fired {
            self.warned = true;
            Some(format!(
                "checkpoint-cache hit rate {:.1}% over the last {} runs (threshold {:.0}%): \
                 consecutive runs share few prefixes, or set_cache_budget is refusing \
                 snapshots",
                rate * 100.0,
                self.window,
                self.threshold * 100.0
            ))
        } else {
            None
        }
    }
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
    fn monitor_warns_once_on_a_cold_window() {
        let mut m = HitRateMonitor::new(10, 0.10);
        for i in 0..9 {
            assert_eq!(m.record(false), None, "run {i}");
        }
        let msg = m.record(false).expect("window completed cold");
        assert!(msg.contains("0.0%"), "{msg}");
        assert!(msg.contains("set_cache_budget"), "{msg}");
        // Second cold window stays quiet: warn-once.
        for _ in 0..10 {
            assert_eq!(m.record(false), None);
        }
    }

    #[test]
    fn monitor_stays_quiet_above_threshold() {
        let mut m = HitRateMonitor::new(10, 0.10);
        for i in 0..20 {
            assert_eq!(m.record(i % 2 == 0), None);
        }
    }

    #[test]
    fn windows_are_independent() {
        let mut m = HitRateMonitor::new(10, 0.5);
        // First window warm, second cold: the warning fires on the second.
        for _ in 0..10 {
            assert_eq!(m.record(true), None);
        }
        for _ in 0..9 {
            assert_eq!(m.record(false), None);
        }
        assert!(m.record(false).is_some());
    }
}
