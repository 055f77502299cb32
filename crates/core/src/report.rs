//! Replay reports.

use std::sync::Arc;

use er_pi_analysis::Diagnostic;
use er_pi_interleave::PruneStats;
use er_pi_model::{Interleaving, Value};

use crate::{CacheStats, SessionSummary};

/// The record of one replayed interleaving.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RunRecord {
    /// The executed order.
    pub interleaving: Interleaving,
    /// Final per-replica observations.
    pub observations: Vec<Value>,
    /// How many events failed during the run.
    pub failed_ops: usize,
    /// Simulated execution time of this run, microseconds.
    pub sim_us: u64,
}

/// One assertion violation.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Violation {
    /// Index of the violating run (replay order); `None` for cross-run
    /// checks, which look at the whole set.
    pub run: Option<usize>,
    /// The violated assertion's name, shared with the assertion.
    pub assertion: Arc<str>,
    /// The assertion's failure message.
    pub message: String,
    /// The violating interleaving, if per-run.
    pub interleaving: Option<Interleaving>,
}

/// The result of one `Session::replay`.
#[derive(Debug, Default)]
pub struct Report {
    /// Exploration mode name ("ER-π", "DFS", "Rand").
    pub mode: String,
    /// Number of interleavings *explored*: the runs this report retains, up
    /// to the cap or — under stop-on-first — the lowest violation; the same
    /// at every worker count. What the slots *executed* beyond that is
    /// scheduling-dependent: [`SessionSummary::executed`].
    pub explored: usize,
    /// All assertion violations found.
    pub violations: Vec<Violation>,
    /// Replay index of the first violation, if any.
    pub first_violation_at: Option<usize>,
    /// Pruning counters (ER-π mode only).
    pub prune_stats: Option<PruneStats>,
    /// Mode-specific wasted work (Random mode's shuffle retries).
    pub wasted_work: u64,
    /// Wall-clock replay duration, milliseconds.
    pub wall_ms: u128,
    /// Total simulated time across all runs, microseconds.
    pub sim_us: u64,
    /// Per-run records, in replay order — empty unless the session was
    /// asked for them or the suite has cross-interleaving checks; the rule
    /// is on [`ReplayConfig::keep_runs`](crate::ReplayConfig::keep_runs).
    pub runs: Vec<RunRecord>,
    /// Whether the exploration stopped early (violation or cap).
    pub stopped_early: bool,
    /// Pre-replay lint diagnostics from the static trace analysis
    /// (misconception patterns flagged before any interleaving ran).
    pub diagnostics: Vec<Diagnostic>,
    /// Checkpoint-cache counters of the incremental executor (`None` for a
    /// scratch replay without subsumption). The counters are summed over
    /// the per-slot executors, which makes them scheduling-dependent — like
    /// `wall_ms` they are excluded from [`Report::diff`]. With subsumption
    /// on and incremental replay off the executors keep no snapshots, and
    /// these counters book one miss per run; the session summary's
    /// [`cache`](crate::SessionSummary::cache), the live progress tally and
    /// the registry show no hit or miss for such a campaign.
    pub cache_stats: Option<CacheStats>,
    /// The end-of-session attribution table unifying the pruning, worker,
    /// cache, and failure counters. Its per-slot rows
    /// ([`SessionSummary::workers`]) and the wall time and cache counters it
    /// aggregates are scheduling-dependent, so it is likewise excluded from
    /// [`Report::diff`].
    pub session_summary: SessionSummary,
    /// Operational advisories (e.g. the degraded checkpoint-cache
    /// warning), surfaced here so headless campaigns see them without a
    /// telemetry sink. Derived from the scheduling-dependent cache
    /// counters, so — like `wall_ms` and the summary's worker rows —
    /// advisories are excluded from [`Report::diff`] and [`Report::canonical_json`].
    pub advisories: Vec<String>,
}

impl Report {
    /// Returns `true` if no assertion was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total simulated seconds.
    pub fn sim_secs(&self) -> f64 {
        self.sim_us as f64 / 1e6
    }

    /// Simulated time actually spent executing, microseconds: the reported
    /// `sim_us` (which stays byte-identical to a scratch replay) minus the
    /// prefix costs the incremental executor never physically re-applied
    /// ([`CacheStats::sim_us_saved`]). Equal to `sim_us` for scratch runs.
    pub fn sim_us_actual(&self) -> u64 {
        self.sim_us
            .saturating_sub(self.cache_stats.map_or(0, |c| c.sim_us_saved))
    }

    /// Compares the two reports' *deterministic* fields — everything except
    /// wall-clock time, the run→worker assignment and the checkpoint-cache
    /// counters (all legitimately scheduling-dependent) — and names the first
    /// field that differs. `None` means the reports are equivalent: this is
    /// the differential oracle behind the parallel-equivalence suite, where
    /// a replay on many slots must be indistinguishable from one on one.
    pub fn diff(&self, other: &Report) -> Option<String> {
        macro_rules! cmp {
            ($field:ident) => {
                if self.$field != other.$field {
                    return Some(format!(
                        "{}: {:?} != {:?}",
                        stringify!($field),
                        self.$field,
                        other.$field
                    ));
                }
            };
        }
        cmp!(mode);
        cmp!(explored);
        cmp!(first_violation_at);
        cmp!(prune_stats);
        cmp!(wasted_work);
        cmp!(sim_us);
        cmp!(stopped_early);
        cmp!(violations);
        cmp!(runs);
        cmp!(diagnostics);
        None
    }

    /// Serializes exactly the *deterministic* fields — the same set
    /// [`Report::diff`] compares, in the same order — as one JSON object.
    /// Two reports are [`diff`](Report::diff)-equivalent iff their canonical
    /// JSON strings are byte-identical, which is the determinism contract
    /// the campaign server's equivalence suite pins: a report served over
    /// HTTP must match the standalone session byte for byte, regardless of
    /// worker count or co-scheduled campaigns.
    pub fn canonical_json(&self) -> String {
        use serde::{Content, Serialize as _};
        let entry = |k: &str, v: Content| (Content::Str(k.to_owned()), v);
        let map = Content::Map(vec![
            entry("mode", self.mode.to_content()),
            entry("explored", self.explored.to_content()),
            entry("first_violation_at", self.first_violation_at.to_content()),
            entry("prune_stats", self.prune_stats.to_content()),
            entry("wasted_work", self.wasted_work.to_content()),
            entry("sim_us", self.sim_us.to_content()),
            entry("stopped_early", self.stopped_early.to_content()),
            entry("violations", self.violations.to_content()),
            entry("runs", self.runs.to_content()),
            entry("diagnostics", self.diagnostics.to_content()),
        ]);
        serde_json::to_string(&map).expect("deterministic report fields contain no floats")
    }

    /// Compact one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "[{}] explored {} interleavings, {} violation(s){}, sim {:.3}s, wall {}ms",
            self.mode,
            self.explored,
            self.violations.len(),
            self.first_violation_at
                .map(|i| format!(" (first at #{i})"))
                .unwrap_or_default(),
            self.sim_secs(),
            self.wall_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkerLoad;

    #[test]
    fn summary_mentions_the_essentials() {
        let report = Report {
            mode: "ER-π".into(),
            explored: 19,
            violations: vec![Violation {
                run: Some(3),
                assertion: "inv".into(),
                message: "boom".into(),
                interleaving: None,
            }],
            first_violation_at: Some(3),
            ..Report::default()
        };
        let s = report.summary();
        assert!(s.contains("ER-π"));
        assert!(s.contains("19"));
        assert!(s.contains("#3"));
        assert!(!report.passed());
    }

    #[test]
    fn empty_report_passes() {
        assert!(Report::default().passed());
    }

    #[test]
    fn diff_ignores_wall_clock_worker_assignment_and_cache_counters() {
        let a = Report {
            wall_ms: 10,
            session_summary: SessionSummary {
                workers: vec![WorkerLoad {
                    worker: 0,
                    runs: 3,
                    sim_us: 9,
                }],
                ..SessionSummary::default()
            },
            cache_stats: Some(CacheStats {
                hits: 5,
                misses: 1,
                events_saved: 40,
                bytes_resident: 512,
                sim_us_saved: 7,
                subsumed: 2,
                subsume_events_saved: 9,
            }),
            ..Report::default()
        };
        let b = Report {
            wall_ms: 99,
            ..Report::default()
        };
        assert_eq!(a.diff(&b), None);
    }

    #[test]
    fn sim_us_actual_subtracts_saved_prefix_cost() {
        let mut report = Report {
            sim_us: 1_000,
            ..Report::default()
        };
        assert_eq!(report.sim_us_actual(), 1_000);
        report.cache_stats = Some(CacheStats {
            sim_us_saved: 400,
            ..CacheStats::default()
        });
        assert_eq!(report.sim_us_actual(), 600);
    }

    #[test]
    fn canonical_json_tracks_diff_equivalence() {
        let base = Report {
            mode: "ER-π".into(),
            explored: 19,
            ..Report::default()
        };
        // Scheduling-dependent fields don't reach the canonical bytes.
        let rescheduled = Report {
            mode: "ER-π".into(),
            explored: 19,
            wall_ms: 777,
            session_summary: SessionSummary {
                workers: vec![WorkerLoad {
                    worker: 1,
                    runs: 19,
                    sim_us: 5,
                }],
                ..SessionSummary::default()
            },
            ..Report::default()
        };
        assert_eq!(base.diff(&rescheduled), None);
        assert_eq!(base.canonical_json(), rescheduled.canonical_json());
        // A deterministic field difference changes the bytes.
        let other = Report {
            mode: "ER-π".into(),
            explored: 20,
            ..Report::default()
        };
        assert!(base.diff(&other).is_some());
        assert_ne!(base.canonical_json(), other.canonical_json());
    }

    #[test]
    fn advisories_stay_outside_the_determinism_contract() {
        let quiet = Report::default();
        let warned = Report {
            advisories: vec!["checkpoint-cache hit rate 2.0% ...".into()],
            ..Report::default()
        };
        assert_eq!(quiet.diff(&warned), None);
        assert_eq!(quiet.canonical_json(), warned.canonical_json());
    }

    #[test]
    fn diff_names_the_differing_field() {
        let a = Report::default();
        let b = Report {
            explored: 7,
            ..Report::default()
        };
        let diff = a.diff(&b).unwrap();
        assert!(diff.contains("explored"), "{diff}");
    }
}
