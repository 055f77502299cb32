//! Differential-equivalence harness for the incremental (path-cache)
//! executor.
//!
//! The incremental engine's contract is stricter than "same verdict": the
//! report it produces must be *byte-identical* to the scratch executor's —
//! same runs, same outcomes, same violations, same `sim_us` — because the
//! cache only skips work whose result is already known, never changes what
//! a run computes. The first four tests pin that over the 12-bug catalogue,
//! with the cache's own counters: they replay the incremental column of the
//! catalogue matrix (`common::matrix`). The last two pin the places a run's
//! successor is not simply the next candidate: a stop-on-first lookahead in
//! Random order, and a constraint reseed.

use crate::common::matrix::sweep;
use crate::common::{Cell, SCRATCH};
use er_pi::{ExploreMode, Report, Session, TestSuite};
use er_pi_interleave::{ErPiExplorer, Explorer, IndexedSource, PruningConfig, RandomExplorer};
use er_pi_model::{EventId, Interleaving, ReplicaId, Value};
use er_pi_subjects::TownApp;

const CAP: usize = 10_000;

/// The incremental cell of the matrix at `workers`.
fn incremental(workers: usize) -> Cell {
    Cell {
        workers,
        incremental: true,
        ..SCRATCH
    }
}

#[test]
fn incremental_equals_scratch_exhaustive() {
    sweep(false, |cell| cell == incremental(2));
}

/// Includes, on one worker, the catalogue half of
/// `stop_on_first_lookahead_keeps_the_peeked_candidate_out_of_the_counters`:
/// the counters are a fresh explorer's over exactly the replayed runs.
#[test]
fn incremental_equals_scratch_stop_on_first() {
    sweep(true, |cell| cell.incremental && !cell.subsumption);
}

/// The cache must actually engage on the catalogue: lexicographically
/// adjacent interleavings share prefixes, so a sequential exhaustive sweep
/// must record hits, and save exactly the common prefixes of consecutive
/// runs — otherwise the equivalence is vacuous (scratch == scratch).
#[test]
fn incremental_actually_reuses_prefixes() {
    sweep(false, |cell| cell == incremental(1));
}

/// `sim_us` itself (as reported) is charged for the *full* interleaving —
/// the saving is accounted separately in `CacheStats::sim_us_saved` — so
/// the simulated-time figures a four-worker incremental report states are
/// the one-worker scratch reference's (`Report::diff` compares `sim_us`).
#[test]
fn charged_sim_us_is_cache_independent() {
    sweep(false, |cell| cell == incremental(4));
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
/// not show in `prune_stats` or `wasted_work`. A scratch replay never
/// peeks, and a fresh explorer that dispenses exactly the replayed runs is
/// a second, independent reference. (ER-π mode over the catalogue is
/// `incremental_equals_scratch_stop_on_first`'s one-worker cell.)
#[test]
fn stop_on_first_lookahead_keeps_the_peeked_candidate_out_of_the_counters() {
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
