//! Differential-equivalence matrix for the incremental (path-cache)
//! executor.
//!
//! The incremental engine's contract is stricter than "same verdict": the
//! report it produces must be *byte-identical* to the scratch executor's —
//! same runs, same outcomes, same violations, same `sim_us` — because the
//! cache only skips work whose result is already known, never changes what
//! a run computes. These tests pin that contract across the full 12-bug
//! catalogue, with and without `stop_on_first_violation`, at 1, 2 and 4
//! workers, always diffing against a *scratch* single-worker reference
//! (PR 2's differential harness compared pooled-vs-sequential; here the
//! axis is incremental-vs-scratch).
//!
//! `Report::diff` ignores wall-clock, per-worker load and the cache
//! counters themselves — everything else must match exactly.

mod common;

use common::WORKER_COUNTS;
use er_pi::{ExploreMode, Report, Session, TestSuite};
use er_pi_interleave::{ErPiExplorer, Explorer, IndexedSource, PruningConfig, RandomExplorer};
use er_pi_model::{EventId, Interleaving, ReplicaId, Value};
use er_pi_subjects::{Bug, TownApp};

const CAP: usize = 10_000;

#[test]
fn incremental_equals_scratch_exhaustive() {
    for bug in Bug::catalogue() {
        let scratch = bug.replay_report_with(CAP, false, 1, false);
        for workers in WORKER_COUNTS {
            let incremental = bug.replay_report_with(CAP, false, workers, true);
            assert_eq!(
                scratch.diff(&incremental),
                None,
                "{} at {workers} workers: incremental diverged from scratch (exhaustive)",
                bug.name
            );
        }
    }
}

#[test]
fn incremental_equals_scratch_stop_on_first() {
    for bug in Bug::catalogue() {
        let scratch = bug.replay_report_with(CAP, true, 1, false);
        for workers in WORKER_COUNTS {
            let incremental = bug.replay_report_with(CAP, true, workers, true);
            assert_eq!(
                scratch.diff(&incremental),
                None,
                "{} at {workers} workers: incremental diverged from scratch (stop-on-first)",
                bug.name
            );
        }
    }
}

/// The cache must actually engage on the catalogue: lexicographically
/// adjacent interleavings share prefixes, so a sequential exhaustive sweep
/// with more than a handful of runs must record hits and saved events —
/// otherwise the equivalence above is vacuous (scratch == scratch).
#[test]
fn incremental_actually_reuses_prefixes() {
    for bug in Bug::catalogue() {
        let report = bug.replay_report_with(CAP, false, 1, true);
        let stats = report
            .cache_stats
            .unwrap_or_else(|| panic!("{}: incremental run must report CacheStats", bug.name));
        assert_eq!(
            stats.hits + stats.misses,
            report.explored as u64,
            "{}: every explored interleaving is one cache probe",
            bug.name
        );
        if report.explored > 2 {
            assert!(
                stats.hits > 0 && stats.events_saved > 0,
                "{}: {} interleavings explored but no prefix reuse (hits={}, saved={})",
                bug.name,
                report.explored,
                stats.hits,
                stats.events_saved
            );
        }
        // The saving is pinned exactly: the explorer is lexicographic, so
        // every run resumes from the whole prefix it shares with the run
        // before it (short of the final depth, which is never kept).
        let explorer = ErPiExplorer::new(bug.workload(), bug.pruning_config());
        let dispensed: Vec<Interleaving> = IndexedSource::new(explorer, CAP)
            .map(|(_, il)| il)
            .collect();
        let shared: u64 = dispensed
            .windows(2)
            .map(|pair| pair[0].common_prefix_len(&pair[1]).min(pair[1].len() - 1) as u64)
            .sum();
        assert_eq!(
            stats.events_saved, shared,
            "{}: events saved != common prefixes of consecutive runs",
            bug.name
        );
        assert!(
            report.sim_us_actual() <= report.sim_us,
            "{}: saved simulated time cannot exceed charged time",
            bug.name
        );
    }
}

/// `sim_us` itself (as reported) is charged for the *full* interleaving —
/// the saving is accounted separately in `CacheStats::sim_us_saved` — so
/// the simulated-time figures in a report never depend on cache luck.
#[test]
fn charged_sim_us_is_cache_independent() {
    for bug in Bug::catalogue() {
        let scratch = bug.replay_report_with(CAP, false, 1, false);
        let incremental = bug.replay_report_with(CAP, false, 4, true);
        assert_eq!(
            scratch.sim_us, incremental.sim_us,
            "{}: charged sim_us must not depend on the executor",
            bug.name
        );
    }
}

/// Four ungrouped updates at two replicas: 4! = 24 interleavings.
fn four_adds() -> Session<TownApp> {
    let mut session = Session::new(TownApp::new(2));
    session.record(|app| {
        for (i, issue) in ["a", "b", "c", "d"].into_iter().enumerate() {
            app.invoke(ReplicaId::new((i % 2) as u16), "add", [Value::from(issue)]);
        }
    });
    session
}

fn assert_stop_fields_equal(incremental: &Report, scratch: &Report, what: &str) {
    assert_eq!(incremental.prune_stats, scratch.prune_stats, "{what}");
    assert_eq!(incremental.wasted_work, scratch.wasted_work, "{what}");
    assert_eq!(incremental.stopped_early, scratch.stopped_early, "{what}");
    assert_eq!(
        incremental.first_violation_at, scratch.first_violation_at,
        "{what}"
    );
    assert_eq!(incremental.diff(scratch), None, "{what}");
}

/// A claim dispenses one interleaving past its chunk to hint the executor
/// (and the rest of the chunk past a violation). When a violation stops the
/// campaign, those candidates have already advanced the explorer — and must
/// not show in `prune_stats` or `wasted_work`. A scratch replay never peeks, and a fresh explorer that dispenses exactly the
/// replayed runs is a second, independent reference.
#[test]
fn stop_on_first_lookahead_keeps_the_peeked_candidate_out_of_the_counters() {
    // ER-π mode, every pruner the bug configures.
    for bug in Bug::catalogue() {
        let incremental = bug.replay_report_with(CAP, true, 1, true);
        let scratch = bug.replay_report_with(CAP, true, 1, false);
        assert_stop_fields_equal(&incremental, &scratch, bug.name);
        let explorer = ErPiExplorer::new(bug.workload(), bug.pruning_config());
        let mut fresh = IndexedSource::new(explorer, CAP);
        assert_eq!(
            fresh.by_ref().take(incremental.explored).count(),
            incremental.explored
        );
        assert_eq!(
            incremental.prune_stats,
            Some(fresh.inner().stats()),
            "{}: counters are those of exactly the replayed runs",
            bug.name
        );
    }

    // Random mode: `wasted_work` counts shuffle retries, and the shuffle
    // behind the peeked candidate retries too. Only the reversed order
    // violates, so a 24-order space draws duplicates before it stops.
    let workload = four_adds().workload().unwrap().clone();
    let reversed: Interleaving = (0..4).rev().map(EventId::new).collect();
    let suite = TestSuite::new().with_assertion("not-reversed", move |ctx| {
        if *ctx.interleaving == reversed {
            return Err("reversed order".into());
        }
        Ok(())
    });
    let mut any_wasted = false;
    for seed in 0..8 {
        let run = |incremental: bool| {
            let mut session = four_adds();
            session
                .set_mode(ExploreMode::Random { seed })
                .set_workers(1)
                .set_stop_on_first_violation(true)
                .set_incremental(incremental);
            session.replay(&suite).unwrap()
        };
        let (incremental, scratch) = (run(true), run(false));
        assert!(incremental.stopped_early && incremental.first_violation_at.is_some());
        assert_stop_fields_equal(&incremental, &scratch, &format!("random seed {seed}"));
        let mut fresh = IndexedSource::new(RandomExplorer::new(&workload, seed), CAP);
        fresh.by_ref().take(incremental.explored).for_each(drop);
        assert_eq!(incremental.wasted_work, fresh.inner().wasted_work());
        any_wasted |= incremental.wasted_work > 0;
    }
    assert!(
        any_wasted,
        "no seed retried a shuffle: the check is vacuous"
    );
}

/// Under State-4 constraint watching a reseed between two runs decides the
/// next candidate, so the loop must not peek: the session dispenses the
/// index → interleaving sequence of an `IndexedSource` reseeded after run
/// 99, not one that had already pulled run 100 from the old explorer.
#[test]
fn constraint_watching_dispenses_the_reseeded_sequence() {
    let dir = std::env::temp_dir().join(format!("er-pi-reseed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Five ungrouped updates: 5! = 120 interleavings, one poll at run 100.
    let mut session = Session::new(TownApp::new(2));
    session.record(|app| {
        for (i, issue) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            app.invoke(ReplicaId::new((i % 2) as u16), "add", [Value::from(issue)]);
        }
    });
    let workload = session.workload().unwrap().clone();
    let rule =
        PruningConfig::default().with_independent_set(vec![EventId::new(1), EventId::new(3)]);

    let base = PruningConfig::default();
    let unconstrained: Vec<Interleaving> = ErPiExplorer::new(&workload, &base).collect();
    assert_eq!(unconstrained.len(), 120);
    let mut constrained = base.clone();
    constrained.absorb(rule.clone());
    let mut source = IndexedSource::new(ErPiExplorer::new(&workload, &base), CAP);
    source.make_reseedable();
    let mut expected: Vec<Interleaving> = source.by_ref().take(100).map(|(_, il)| il).collect();
    source.reseed(ErPiExplorer::new(&workload, &constrained));
    expected.extend(source.map(|(_, il)| il));
    assert_ne!(
        expected[100], unconstrained[100],
        "the rule must prune the very candidate a peek would have taken"
    );

    // The rule file appears while run 0 is being checked, so the pre-replay
    // poll misses it and the poll after run 99 ingests it.
    let rule_json = serde_json::to_string(&rule).unwrap();
    let path = dir.join("rule.json");
    let suite = TestSuite::new().with_assertion("drop-the-rule", move |_ctx| {
        if !path.exists() {
            std::fs::write(&path, &rule_json).unwrap();
        }
        Ok(())
    });
    session.watch_constraints(&dir);
    session.set_workers(1).set_keep_runs(true);
    let report = session.replay(&suite).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    let dispensed: Vec<&Interleaving> = report.runs.iter().map(|r| &r.interleaving).collect();
    assert_eq!(dispensed, expected.iter().collect::<Vec<_>>());
    assert!(report.explored < 120, "the ingested rule shrank the space");
}
