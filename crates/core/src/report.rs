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
    /// The assertion's failure message, shared by every violation of the
    /// same text that one replay slot found (see DESIGN.md §9).
    pub message: Arc<str>,
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
    ///
    /// The object is written field by field into one buffer, reserved once
    /// from the violation and run counts, with each [`Violation`] written
    /// in place; only the small fields go through [`serde_json::push_json`].
    /// The bytes are those of `serde_json::to_string` of the report's
    /// fields as one map.
    pub fn canonical_json(&self) -> String {
        use serde_json::{push_json, push_str_literal};
        let push_uint = |x: u64, out: &mut String| serde_json::push_u128(x.into(), out);
        const NO_FLOATS: &str = "deterministic report fields contain no floats";

        let violation_bytes: usize = self
            .violations
            .iter()
            .map(|v| {
                let order = v.interleaving.as_ref().map_or(0, |il| 4 * il.len());
                80 + v.assertion.len() + v.message.len() + order
            })
            .sum();
        let mut out = String::with_capacity(512 + violation_bytes + 256 * self.runs.len());

        out.push_str("{\"mode\":");
        push_str_literal(&self.mode, &mut out);
        out.push_str(",\"explored\":");
        push_uint(self.explored as u64, &mut out);
        out.push_str(",\"first_violation_at\":");
        match self.first_violation_at {
            Some(at) => push_uint(at as u64, &mut out),
            None => out.push_str("null"),
        }
        out.push_str(",\"prune_stats\":");
        push_json(&self.prune_stats, &mut out).expect(NO_FLOATS);
        out.push_str(",\"wasted_work\":");
        push_uint(self.wasted_work, &mut out);
        out.push_str(",\"sim_us\":");
        push_uint(self.sim_us, &mut out);
        out.push_str(",\"stopped_early\":");
        out.push_str(if self.stopped_early { "true" } else { "false" });
        out.push_str(",\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"run\":");
            match v.run {
                Some(run) => push_uint(run as u64, &mut out),
                None => out.push_str("null"),
            }
            out.push_str(",\"assertion\":");
            push_str_literal(&v.assertion, &mut out);
            out.push_str(",\"message\":");
            push_str_literal(&v.message, &mut out);
            out.push_str(",\"interleaving\":");
            match &v.interleaving {
                Some(il) => {
                    out.push_str("{\"order\":[");
                    for (j, e) in il.as_slice().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        push_uint(e.raw().into(), &mut out);
                    }
                    out.push_str("],\"faults\":");
                    push_json(il.faults(), &mut out).expect(NO_FLOATS);
                    out.push('}');
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("],\"runs\":[");
        for (i, run) in self.runs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json(run, &mut out).expect(NO_FLOATS);
        }
        out.push_str("],\"diagnostics\":");
        push_json(&self.diagnostics, &mut out).expect(NO_FLOATS);
        out.push('}');
        out
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

    /// `canonical_json` as it was before it wrote into one buffer: the
    /// report's fields as one `Content` map through `serde_json`. The
    /// reference the written report is held to.
    fn tree_canonical_json(r: &Report) -> String {
        use serde::{Content, Serialize as _};
        let entry = |k: &str, v: Content| (Content::Str(k.to_owned()), v);
        let map = Content::Map(vec![
            entry("mode", r.mode.to_content()),
            entry("explored", r.explored.to_content()),
            entry("first_violation_at", r.first_violation_at.to_content()),
            entry("prune_stats", r.prune_stats.to_content()),
            entry("wasted_work", r.wasted_work.to_content()),
            entry("sim_us", r.sim_us.to_content()),
            entry("stopped_early", r.stopped_early.to_content()),
            entry("violations", r.violations.to_content()),
            entry("runs", r.runs.to_content()),
            entry("diagnostics", r.diagnostics.to_content()),
        ]);
        serde_json::to_string(&map).expect("deterministic report fields contain no floats")
    }

    mod generated {
        use super::*;
        use er_pi_analysis::LintPattern;
        use er_pi_model::{EventId, FaultEvent, FaultKind, FaultPlan, ReplicaId};
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        fn below(rng: &mut TestRng, n: u64) -> usize {
            rng.below(n) as usize
        }

        /// Text over quotes, backslashes, every control character,
        /// non-ASCII and astral characters, and plain ASCII.
        fn text(rng: &mut TestRng) -> String {
            const PIECES: &[&str] = &["\"", "\\", "/", "é", "π", "😀", "\u{7f}", "ab", " "];
            let len = below(rng, 12);
            let mut s = String::new();
            for _ in 0..len {
                match below(rng, 3) {
                    0 => s.push(char::from(below(rng, 0x20) as u8)),
                    _ => s.push_str(PIECES[below(rng, PIECES.len() as u64)]),
                }
            }
            s
        }

        fn int(rng: &mut TestRng) -> u64 {
            match below(rng, 3) {
                0 => u64::MAX,
                1 => rng.next_u64(),
                _ => rng.below(100),
            }
        }

        fn replica(rng: &mut TestRng) -> ReplicaId {
            ReplicaId::new(rng.below(4) as u16)
        }

        fn faults(rng: &mut TestRng, events: u32) -> FaultPlan {
            let mut plan = Vec::new();
            for _ in 0..below(rng, 3) {
                let kind = match below(rng, 6) {
                    0 => FaultKind::Drop,
                    1 => FaultKind::Duplicate,
                    2 => FaultKind::Delay {
                        by: rng.below(5) as u32,
                    },
                    3 => FaultKind::Partition {
                        from: replica(rng),
                        to: replica(rng),
                    },
                    4 => FaultKind::Heal {
                        from: replica(rng),
                        to: replica(rng),
                    },
                    _ => FaultKind::CrashRestart {
                        replica: replica(rng),
                    },
                };
                plan.push(FaultEvent::new(
                    EventId::new(rng.below(events.into()) as u32),
                    kind,
                ));
            }
            FaultPlan::new(plan)
        }

        fn interleaving(rng: &mut TestRng) -> Interleaving {
            let n = rng.below(12) as u32;
            let order = (0..n)
                .map(|_| {
                    EventId::new(if rng.below(8) == 0 {
                        u32::MAX
                    } else {
                        rng.below(30) as u32
                    })
                })
                .collect();
            let plan = faults(rng, n.max(1));
            Interleaving::new(order).with_faults(plan)
        }

        fn value(rng: &mut TestRng, depth: u32) -> Value {
            match below(rng, if depth == 0 { 4 } else { 5 }) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 0),
                2 => Value::Int(match below(rng, 3) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.next_u64() as i64,
                }),
                3 => Value::Str(text(rng).into()),
                _ => Value::List((0..below(rng, 4)).map(|_| value(rng, depth - 1)).collect()),
            }
        }

        fn report(mut rng: TestRng) -> Report {
            let violations = (0..below(&mut rng, 5))
                .map(|_| Violation {
                    run: (rng.below(3) != 0).then(|| int(&mut rng) as usize),
                    assertion: text(&mut rng).into(),
                    message: text(&mut rng).into(),
                    interleaving: (rng.below(3) != 0).then(|| interleaving(&mut rng)),
                })
                .collect();
            let runs = (0..below(&mut rng, 3))
                .map(|_| RunRecord {
                    interleaving: interleaving(&mut rng),
                    observations: (0..below(&mut rng, 3))
                        .map(|_| value(&mut rng, 2))
                        .collect(),
                    failed_ops: rng.below(5) as usize,
                    sim_us: int(&mut rng),
                })
                .collect();
            const PATTERNS: [LintPattern; 3] = [
                LintPattern::RacingDeliveries,
                LintPattern::RacingIdMint,
                LintPattern::IndependenceSoundness,
            ];
            let diagnostics = (0..below(&mut rng, 3))
                .map(|_| Diagnostic {
                    misconception: rng.below(6) as u8,
                    pattern: PATTERNS[below(&mut rng, 3)],
                    message: text(&mut rng),
                    events: (0..below(&mut rng, 4))
                        .map(|i| EventId::new(i as u32))
                        .collect(),
                    replica: replica(&mut rng),
                })
                .collect();
            Report {
                mode: text(&mut rng),
                explored: int(&mut rng) as usize,
                violations,
                first_violation_at: (rng.below(2) == 0).then(|| int(&mut rng) as usize),
                prune_stats: (rng.below(2) == 0).then(|| PruneStats {
                    grouping_factor: u128::MAX - u128::from(rng.next_u64()),
                    sleep_checked: int(&mut rng),
                    causal_rejected: int(&mut rng),
                    emitted: int(&mut rng),
                    ..PruneStats::default()
                }),
                wasted_work: int(&mut rng),
                sim_us: int(&mut rng),
                runs,
                stopped_early: rng.below(2) == 0,
                diagnostics,
                ..Report::default()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn the_written_report_matches_the_tree_rendering(
                r in Just(()).prop_perturb(|(), rng| report(rng))
            ) {
                prop_assert_eq!(r.canonical_json(), tree_canonical_json(&r));
            }
        }
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
