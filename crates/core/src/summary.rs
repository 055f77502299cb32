//! The end-of-session attribution summary.

use er_pi_interleave::{FilterTimings, PruneStats};
use er_pi_telemetry::hit_rate;

use crate::{CacheStats, FailureStats, WorkerLoad};

/// One pruning algorithm's row in the attribution table.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize)]
pub struct PrunerRow {
    /// Filter name, as `PruneStats::per_filter` spells it — the one
    /// spelling the summary, the `prune:<name>` spans and the
    /// `er_pi_campaign_pruned_total{algorithm}` label all carry.
    pub name: &'static str,
    /// Candidates that reached this filter (count-in).
    pub checked: u64,
    /// Candidates this filter eliminated.
    pub rejected: u64,
    /// Wall-clock nanoseconds spent inside the filter (0 unless the
    /// session ran with telemetry attached — per-filter timing costs two
    /// clock reads per candidate, so it is only measured when someone is
    /// watching).
    pub wall_ns: u64,
}

/// The unified attribution table rendered at the end of every
/// `Session::replay`: what the previously scattered [`WorkerLoad`],
/// [`CacheStats`], [`FailureStats`] and [`PruneStats`] counters say about
/// one campaign, in one place.
///
/// Serialized into [`Report::session_summary`](crate::Report::session_summary).
/// It aggregates scheduling-dependent inputs (wall time, run→worker
/// assignment, per-worker cache counters), so — like those inputs — it is
/// excluded from [`Report::diff`](crate::Report::diff).
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize)]
pub struct SessionSummary {
    /// Exploration mode name.
    pub mode: String,
    /// Runs the report retains: [`Report::explored`](crate::Report::explored).
    pub explored: usize,
    /// Runs the replay slots executed (Σ `workers[].runs`) — what every live
    /// counter ends at. Above `explored` only by the speculative runs other
    /// slots finished past the lowest violation of a stop-on-first replay.
    pub executed: usize,
    /// Assertion violations found.
    pub violations: usize,
    /// Total simulated time, microseconds.
    pub sim_us: u64,
    /// Wall-clock replay duration, milliseconds.
    pub wall_ms: u128,
    /// The analytic grouping reduction (`n!/u!`), ER-π mode only.
    pub grouping_factor: Option<u128>,
    /// Per-pruner attribution rows, in filter evaluation order; empty for
    /// the non-pruning modes or when no filter saw a candidate.
    pub pruners: Vec<PrunerRow>,
    /// Per-slot replay counters, one row per replay slot (matching
    /// `Report::worker_loads`).
    pub workers: Vec<WorkerLoad>,
    /// Checkpoint-cache counters (`None` for scratch replay). `hits` and
    /// `misses` stay zero when the executors kept no snapshots
    /// (subsumption without incremental replay): no hit rate to present.
    pub cache: Option<CacheStats>,
    /// Failed-operation statistics across the replayed runs.
    pub failures: FailureStats,
}

impl SessionSummary {
    /// Builds the pruner rows by joining counter and timing tables.
    pub(crate) fn pruner_rows(
        stats: Option<&PruneStats>,
        timings: Option<&FilterTimings>,
    ) -> Vec<PrunerRow> {
        let Some(stats) = stats else {
            return Vec::new();
        };
        let timings = timings.copied().unwrap_or_default();
        stats
            .per_filter()
            .into_iter()
            .map(|(name, checked, rejected)| PrunerRow {
                name,
                checked,
                rejected,
                wall_ns: timings
                    .per_filter()
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0, |&(_, ns)| ns),
            })
            .collect()
    }

    /// Serializes the summary as one JSON object — the machine-readable
    /// sibling of [`SessionSummary::render`], served verbatim by the
    /// campaign server and reusable by the `fig_*` bench binaries.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("summary has no non-finite floats")
    }

    /// Renders the multi-line attribution table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let executed = match self.executed == self.explored {
            true => String::new(),
            false => format!(" ({} executed)", self.executed),
        };
        let _ = writeln!(
            out,
            "session summary [{}]: {} runs{executed}, {} violation(s), sim {:.3}s, wall {}ms",
            self.mode,
            self.explored,
            self.violations,
            self.sim_us as f64 / 1e6,
            self.wall_ms,
        );
        if self.grouping_factor.is_some() || !self.pruners.is_empty() {
            let factor = self
                .grouping_factor
                .map(|f| format!(" (grouping factor {f}x)"))
                .unwrap_or_default();
            let _ = writeln!(out, "  pruning{factor}:");
            for row in &self.pruners {
                let timing = if row.wall_ns > 0 {
                    format!("  {:.1}us", row.wall_ns as f64 / 1e3)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "    {:<17} checked {:<8} rejected {:<8}{timing}",
                    row.name, row.checked, row.rejected,
                );
            }
        }
        if !self.workers.is_empty() {
            let _ = writeln!(out, "  workers:");
            for load in &self.workers {
                let _ = writeln!(
                    out,
                    "    worker {}: {} runs, sim {}us",
                    load.worker, load.runs, load.sim_us
                );
            }
        }
        if let Some(cache) = &self.cache {
            if let Some(rate) = hit_rate(cache.hits, cache.misses) {
                let _ = writeln!(
                    out,
                    "  cache: {}/{} hits ({:.1}%), {} events saved, {:.3}s saved, {} B resident",
                    cache.hits,
                    cache.hits + cache.misses,
                    rate * 100.0,
                    cache.events_saved,
                    cache.saved_secs(),
                    cache.bytes_resident,
                );
            }
            if cache.subsumed > 0 {
                let executed = self.executed as u64;
                let _ = writeln!(
                    out,
                    "  subsumption: {} runs short-circuited ({:.1}%), {} executed, {} events skipped",
                    cache.subsumed,
                    cache.subsumed as f64 * 100.0 / executed.max(1) as f64,
                    executed.saturating_sub(cache.subsumed),
                    cache.subsume_events_saved,
                );
            }
        }
        let _ = writeln!(
            out,
            "  failures: {}/{} runs with failed ops ({} total)",
            self.failures.runs_with_failures, self.failures.runs, self.failures.failed_ops,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruner_rows_join_counts_and_timings() {
        let stats = PruneStats {
            failed_ops_checked: 24,
            failed_ops_rejected: 5,
            causal_checked: 19,
            causal_rejected: 2,
            emitted: 17,
            ..PruneStats::default()
        };
        let timings = FilterTimings {
            failed_ops_ns: 1_500,
            ..FilterTimings::default()
        };
        let rows = SessionSummary::pruner_rows(Some(&stats), Some(&timings));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "failed-ops");
        assert_eq!(rows[0].checked, 24);
        assert_eq!(rows[0].rejected, 5);
        assert_eq!(rows[0].wall_ns, 1_500);
        assert_eq!(rows[1].name, "causal");
        assert_eq!(rows[1].wall_ns, 0);
        assert!(SessionSummary::pruner_rows(None, None).is_empty());
    }

    #[test]
    fn render_mentions_every_section() {
        let summary = SessionSummary {
            mode: "ER-π".into(),
            explored: 19,
            executed: 19,
            violations: 1,
            sim_us: 123_000,
            wall_ms: 4,
            grouping_factor: Some(210),
            pruners: vec![PrunerRow {
                name: "failed-ops",
                checked: 24,
                rejected: 5,
                wall_ns: 1_500,
            }],
            workers: vec![WorkerLoad {
                worker: 0,
                runs: 19,
                sim_us: 123_000,
            }],
            cache: Some(CacheStats {
                hits: 18,
                misses: 1,
                events_saved: 40,
                bytes_resident: 512,
                sim_us_saved: 2_000,
                subsumed: 6,
                subsume_events_saved: 24,
            }),
            failures: FailureStats {
                runs_with_failures: 5,
                runs: 19,
                failed_ops: 5,
            },
        };
        let text = summary.render();
        assert!(text.contains("ER-π"), "{text}");
        assert!(text.contains("grouping factor 210x"), "{text}");
        assert!(text.contains("failed-ops"), "{text}");
        assert!(text.contains("worker 0"), "{text}");
        assert!(text.contains("94.7%"), "{text}");
        assert!(text.contains("subsumption: 6 runs"), "{text}");
        assert!(text.contains("13 executed"), "{text}");
        assert!(text.contains("5/19 runs"), "{text}");
    }

    #[test]
    fn to_json_exposes_every_field() {
        let summary = SessionSummary {
            mode: "ER-π".into(),
            explored: 19,
            executed: 19,
            violations: 1,
            sim_us: 123_000,
            wall_ms: 4,
            grouping_factor: Some(210),
            pruners: vec![PrunerRow {
                name: "failed-ops",
                checked: 24,
                rejected: 5,
                wall_ns: 1_500,
            }],
            workers: Vec::new(),
            cache: None,
            failures: FailureStats::default(),
        };
        let json = summary.to_json();
        for key in [
            "\"mode\"",
            "\"explored\"",
            "\"executed\"",
            "\"violations\"",
            "\"sim_us\"",
            "\"wall_ms\"",
            "\"grouping_factor\"",
            "\"pruners\"",
            "\"failed-ops\"",
            "\"workers\"",
            "\"cache\"",
            "\"failures\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn render_names_both_run_counts_and_no_rate_without_attribution() {
        // Stop-on-first on two slots, executors that subsume but keep no
        // snapshots: six speculative runs, no hits or misses attributed.
        let summary = SessionSummary {
            explored: 145,
            executed: 151,
            cache: Some(CacheStats {
                subsumed: 100,
                ..CacheStats::default()
            }),
            ..SessionSummary::default()
        };
        let text = summary.render();
        assert!(text.contains("145 runs (151 executed), "), "{text}");
        assert!(!text.contains("cache:"), "{text}");
        assert!(
            text.contains("subsumption: 100 runs short-circuited (66.2%), 51 executed"),
            "{text}"
        );
    }

    #[test]
    fn default_summary_renders_minimal() {
        let text = SessionSummary::default().render();
        assert!(text.contains("0 runs"));
        assert!(!text.contains("pruning"));
        assert!(!text.contains("cache:"));
    }
}
