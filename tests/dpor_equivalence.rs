//! Differential-equivalence suite for the two deep-reduction layers:
//! state-hash subsumption and sleep-set (DPOR-style) pruning.
//!
//! The two layers make different promises, and the suite pins each at its
//! own strength:
//!
//! * **Subsumption** never changes *which* interleavings are replayed — it
//!   only answers some of them from memoized run tails — so its reports
//!   must be *byte-identical* (`Report::diff == None`) to
//!   reductions-off across the full 12-bug catalogue, every worker count,
//!   both executors and both stopping policies.
//! * **Sleep sets** drop redundant members of commutation classes before
//!   replay, so the replayed set shrinks; what is preserved is the
//!   *violation set* — same assertions failing with the same messages —
//!   and in particular the lowest-indexed violation of the full
//!   enumeration, which can never be pruned (pruning it would require a
//!   lexicographically smaller equivalent — and equally violating —
//!   schedule to survive, which would then be the lowest-indexed
//!   violation instead).
//!
//! The headline acceptance number also lives here: on the §6.3 motivating
//! workload (town app extended to 10 events, DFS, capped at 10 000
//! interleavings) subsumption must answer at least 90% of runs from the
//! explored set — a ≥10× reduction in physically executed replays.

mod common;

use common::WORKER_COUNTS;
use proptest::prelude::*;

use er_pi::{Attachments, ExploreMode, InlineExecutor, ReplayConfig, Report, Session, TimeModel};
use er_pi_interleave::FaultSpace;
use er_pi_model::{EventId, FaultEvent, FaultKind, FaultPlan, Interleaving, ReplicaId, Value};
use er_pi_subjects::{Bug, TownApp};

const CAP: usize = 10_000;

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

// ---------------------------------------------------------------------------
// Subsumption: byte-identical reports across the catalogue.
// ---------------------------------------------------------------------------

#[test]
fn subsumption_is_byte_identical_across_the_catalogue() {
    for bug in Bug::catalogue() {
        for stop_first in [false, true] {
            let reference = bug.replay_report_opts(&ReplayConfig {
                cap: CAP,
                stop_on_first_violation: stop_first,
                workers: 1,
                incremental: false,
                ..ReplayConfig::default()
            });
            for workers in WORKER_COUNTS {
                for incremental in [false, true] {
                    let subsuming = bug.replay_report_opts(&ReplayConfig {
                        cap: CAP,
                        stop_on_first_violation: stop_first,
                        workers,
                        incremental,
                        subsumption: true,
                        ..ReplayConfig::default()
                    });
                    assert_eq!(
                        reference.diff(&subsuming),
                        None,
                        "{}: subsumption diverged (workers={workers}, \
                         incremental={incremental}, stop_first={stop_first})",
                        bug.name
                    );
                }
            }
        }
    }
}

/// The equivalence above must not be vacuous: across the catalogue the
/// subsume set has to actually answer runs, otherwise we are comparing
/// plain replay with plain replay.
#[test]
fn subsumption_actually_engages_on_the_catalogue() {
    let mut total_subsumed = 0u64;
    for bug in Bug::catalogue() {
        let report = bug.replay_report_opts(&ReplayConfig {
            cap: CAP,
            workers: 1,
            subsumption: true,
            incremental: false,
            ..ReplayConfig::default()
        });
        let stats = report
            .cache_stats
            .unwrap_or_else(|| panic!("{}: subsuming replay must report CacheStats", bug.name));
        assert_eq!(
            stats.hits + stats.misses,
            report.explored as u64,
            "{}: every explored interleaving is one subsume probe",
            bug.name
        );
        assert_eq!(
            stats.executed_runs() + stats.subsumed,
            report.explored as u64,
            "{}: runs are either executed or subsumed",
            bug.name
        );
        total_subsumed += stats.subsumed;
    }
    assert!(
        total_subsumed > 0,
        "the 12-bug catalogue produced no subsumed runs at all"
    );
}

// ---------------------------------------------------------------------------
// The acceptance number: ≥10× fewer executed replays on the motivating
// 10k-interleaving workload.
// ---------------------------------------------------------------------------

/// The §6.3 workload: the §2.3 town recording extended to 10 events.
fn town_session_10(cap: usize) -> Session<TownApp> {
    let mut session = Session::new(TownApp::new(2));
    session.record(|sys| {
        let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
        sys.sync(r(0), r(1), ev1);
        let ev2 = sys.invoke(r(1), "add", [Value::from("ph")]);
        sys.sync(r(1), r(0), ev2);
        let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
        sys.sync(r(1), r(0), ev3);
        let ev4 = sys.invoke(r(0), "add", [Value::from("pl")]);
        sys.sync(r(0), r(1), ev4);
        sys.invoke(r(1), "remove", [Value::from("ph")]);
        sys.external(r(0), "transmit");
    });
    session.set_mode(ExploreMode::Dfs);
    session.set_cap(cap);
    session
}

#[test]
fn motivating_workload_subsumes_ten_x() {
    let mut reference = town_session_10(CAP);
    let reference = reference.replay(&TownApp::invariant()).expect("recorded");

    let mut session = town_session_10(CAP);
    session.set_subsumption(true);
    let report = session.replay(&TownApp::invariant()).expect("recorded");

    assert_eq!(
        reference.diff(&report),
        None,
        "subsumption must keep the 10k-interleaving report byte-identical"
    );
    let stats = report.cache_stats.expect("subsuming replay reports stats");
    let executed = stats.executed_runs();
    assert_eq!(report.explored, CAP, "the cap binds on the 10! space");
    assert!(
        executed * 10 <= report.explored as u64,
        "acceptance floor: ≥10× fewer executed replays \
         (explored {}, executed {executed}, subsumed {})",
        report.explored,
        stats.subsumed
    );
}

/// The benchmark's `fault-subsume` shape: the 10-event town recording in DFS
/// order under every one-fault plan, with subsumption on. Runs here are
/// stitched from runs that were themselves stitched, so the reports pin tails
/// read through chains of links — and under `ER_PI_SUBSUME_AUDIT=1` every
/// such tail is checked against execution.
#[test]
fn a_subsuming_fault_product_equals_scratch_replay() {
    let replay = |workers: usize, stop_first: bool, subsumption: bool| {
        let config = ReplayConfig {
            mode: ExploreMode::Dfs,
            cap: 2_000,
            workers,
            stop_on_first_violation: stop_first,
            incremental: subsumption,
            subsumption,
            ..ReplayConfig::default()
        };
        let mut session = Session::with_config(TownApp::new(2), config, Attachments::default());
        session.record(common::record_town);
        session.set_fault_space(FaultSpace::all(1));
        session.replay(&TownApp::invariant()).expect("recorded")
    };
    for stop_first in [false, true] {
        let reference = replay(1, stop_first, false);
        for workers in [1, 2] {
            let subsuming = replay(workers, stop_first, true);
            assert_eq!(
                reference.diff(&subsuming),
                None,
                "workers={workers}, stop_first={stop_first}"
            );
            // A dropped sync violates on the second run, so only the
            // exhaustive campaign lives long enough to subsume.
            let stats = subsuming
                .cache_stats
                .expect("subsuming replay reports stats");
            assert!(
                stop_first || stats.subsumed > 1_000,
                "workers={workers}: {} runs subsumed",
                stats.subsumed
            );
        }
    }
}

/// `ER_PI_SUBSUME_AUDIT=1` keeps the canonical bytes next to the digests
/// and executes every hit anyway, panicking on a 128-bit collision or a
/// false subsumption — and the audited report must still equal the plain
/// reference, with the verified hits counted as subsumed.
#[test]
fn audit_mode_executes_hits_and_stays_identical() {
    let mut reference = town_session_10(CAP);
    let reference = reference.replay(&TownApp::invariant()).expect("recorded");

    std::env::set_var("ER_PI_SUBSUME_AUDIT", "1");
    let mut session = town_session_10(CAP);
    session.set_subsumption(true);
    let audited = session.replay(&TownApp::invariant()).expect("recorded");
    std::env::remove_var("ER_PI_SUBSUME_AUDIT");

    assert_eq!(
        reference.diff(&audited),
        None,
        "audit mode changed the report"
    );
    let stats = audited.cache_stats.expect("subsuming replay reports stats");
    assert!(
        stats.subsumed > 0,
        "audit mode must still count verified hits as subsumed"
    );
}

// ---------------------------------------------------------------------------
// Sleep sets: violation-set equivalence across the catalogue.
// ---------------------------------------------------------------------------

/// The violation set as the sorted *distinct* (assertion, message) pairs —
/// sleep sets drop redundant members of commutation classes, so a
/// violation witnessed by several equivalent schedules may keep fewer
/// witnesses; what must survive is every distinct violation.
fn violation_set(report: &Report) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = report
        .violations
        .iter()
        .map(|v| (v.assertion.clone(), v.message.clone()))
        .collect();
    v.sort();
    v.dedup();
    v
}

#[test]
fn sleep_sets_preserve_the_violation_set_across_the_catalogue() {
    let mut total_pruned = 0u64;
    for bug in Bug::catalogue() {
        let reference = bug.replay_report_opts(&ReplayConfig {
            cap: CAP,
            workers: 1,
            ..ReplayConfig::default()
        });
        let pruned = bug.replay_report_opts(&ReplayConfig {
            cap: CAP,
            workers: 1,
            sleep_sets: true,
            ..ReplayConfig::default()
        });
        assert_eq!(
            violation_set(&reference),
            violation_set(&pruned),
            "{}: sleep sets changed the violation set",
            bug.name
        );
        assert!(
            pruned.explored <= reference.explored,
            "{}: sleep sets cannot grow the replayed set",
            bug.name
        );
        // Enabling sleep sets also pulls in the auto-derived independence
        // relation (which feeds the event-level canonical filter), so the
        // explored count can shrink by more than the sleep rejections alone.
        if let Some(stats) = &pruned.prune_stats {
            total_pruned += stats.sleep_rejected;
        }
    }
    assert!(
        total_pruned > 0,
        "sleep sets pruned nothing anywhere in the catalogue"
    );
}

/// Sleep sets compose with subsumption: both on at once still preserves
/// the violation set, and the layers don't double-count.
#[test]
fn sleep_and_subsumption_compose() {
    for bug in Bug::catalogue() {
        let reference = bug.replay_report_opts(&ReplayConfig {
            cap: CAP,
            workers: 1,
            ..ReplayConfig::default()
        });
        let both = bug.replay_report_opts(&ReplayConfig {
            cap: CAP,
            workers: 1,
            sleep_sets: true,
            subsumption: true,
            incremental: false,
            ..ReplayConfig::default()
        });
        assert_eq!(
            violation_set(&reference),
            violation_set(&both),
            "{}: composed reductions changed the violation set",
            bug.name
        );
        let stats = both.cache_stats.expect("subsuming replay reports stats");
        assert_eq!(
            stats.executed_runs() + stats.subsumed,
            both.explored as u64,
            "{}: composed layers double-counted a run",
            bug.name
        );
    }
}

// ---------------------------------------------------------------------------
// Proptest: no subset of the sleep prunes can remove the lowest-indexed
// violation.
// ---------------------------------------------------------------------------

/// A sleep-heavy variant of the §2.3 town workload, keeping every run so
/// the proptest can diff the replayed enumerations. The two lone adds of
/// *distinct* elements on different replicas form certified-commuting
/// units — the auto-derived relation (which sleep-set pruning pulls in on
/// its own) marks them independent, so the sleep filter has real
/// commutation classes to prune. The sleep-off instance of this session is
/// the *unpruned* reference enumeration.
fn town_erpi_session() -> Session<TownApp> {
    let mut session = Session::new(TownApp::new(2));
    session.record(|sys| {
        let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
        sys.sync(r(0), r(1), ev1);
        let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
        sys.sync(r(1), r(0), ev3);
        sys.invoke(r(0), "add", [Value::from("pl")]);
        sys.invoke(r(1), "add", [Value::from("ph")]);
        sys.external(r(0), "transmit");
    });
    session.set_keep_runs(true);
    session.set_cap(CAP);
    session
}

/// True iff the town invariant rejects the final states this interleaving
/// produces — the same predicate `TownApp::invariant` checks, evaluated
/// directly so the proptest can replay arbitrary sublists of the full
/// enumeration.
fn violates(model: &TownApp, session: &Session<TownApp>, il: &Interleaving) -> bool {
    let workload = session.workload().expect("recorded");
    let exec = InlineExecutor::execute(model, workload, il, &TimeModel::default());
    exec.states.iter().any(|s| {
        s.transmitted
            .as_ref()
            .is_some_and(|items| items.iter().any(|i| i == "otb"))
    })
}

/// Full-vs-pruned interleaving lists plus the full enumeration's first
/// violating interleaving, computed once for the proptest. `pruned_idx`
/// covers every schedule the deep-pruning stack (sleep sets plus the
/// event-level filter fed by the same derived relation) drops.
fn sleep_prune_fixture() -> (Vec<Interleaving>, Vec<usize>, usize) {
    let mut full = town_erpi_session();
    let full_report = full.replay(&TownApp::invariant()).expect("recorded");

    let mut pruned = town_erpi_session();
    pruned.set_sleep_sets(true);
    let pruned_report = pruned.replay(&TownApp::invariant()).expect("recorded");

    let kept: std::collections::HashSet<&Interleaving> = pruned_report
        .runs
        .iter()
        .map(|run| &run.interleaving)
        .collect();
    let all: Vec<Interleaving> = full_report
        .runs
        .iter()
        .map(|run| run.interleaving.clone())
        .collect();
    let pruned_idx: Vec<usize> = all
        .iter()
        .enumerate()
        .filter(|(_, il)| !kept.contains(il))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !pruned_idx.is_empty(),
        "the fixture must actually exercise sleep pruning"
    );

    let first_violation = full_report
        .first_violation_at
        .expect("the town bug violates");
    (all, pruned_idx, first_violation)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For ANY subset of the sleep-set prunes, the surviving enumeration
    /// still contains the full enumeration's lowest-indexed violating
    /// interleaving — and it is still the first violation found. (If the
    /// sleep filter could prune it, a lexicographically smaller equivalent
    /// violating schedule would have to survive, which would have been the
    /// lowest-indexed violation in the first place.)
    #[test]
    fn no_prune_subset_removes_the_lowest_violation(subset_seed in proptest::collection::vec(any::<bool>(), 32..64)) {
        let (all, pruned_idx, first_violation) = sleep_prune_fixture();

        // The lowest-indexed violation is never itself prunable.
        prop_assert!(
            !pruned_idx.contains(&first_violation),
            "sleep pruning removed the lowest-indexed violation (run {first_violation})"
        );

        let drop: std::collections::HashSet<usize> = pruned_idx
            .iter()
            .enumerate()
            .filter(|(k, _)| subset_seed.get(k % subset_seed.len().max(1)).copied().unwrap_or(false))
            .map(|(_, &i)| i)
            .collect();

        let session = town_erpi_session();
        let model = TownApp::new(2);
        let surviving_first = all
            .iter()
            .enumerate()
            .filter(|(i, _)| !drop.contains(i))
            .find(|(_, il)| violates(&model, &session, il))
            .map(|(i, _)| i);
        prop_assert_eq!(
            surviving_first,
            Some(first_violation),
            "dropping a prune subset moved or lost the first violation"
        );
    }
}

// ---------------------------------------------------------------------------
// Fault digests are part of the subsumption key.
// ---------------------------------------------------------------------------

/// Two fault plans over the town workload: the empty baseline and a
/// dropped-sync schedule under which the same event sequence reaches a
/// *different* final state (the remove never propagates, so interleavings
/// that are clean fault-free become violating). If the subsume key
/// ignored the fault digest, runs of one plan would be stitched from the
/// other plan's memoized tails and the per-plan violation sets would
/// merge — caught here as a non-null `Report::diff`.
#[test]
fn subsumption_keys_include_the_fault_digest() {
    // The §2.3 7-event recording: small enough that the cap never binds on
    // the doubled (interleaving × plan) space, so both plans fully replay.
    let town_session_7 = || {
        let mut session = Session::new(TownApp::new(2));
        session.record(|sys| {
            let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
            sys.sync(r(0), r(1), ev1);
            let ev2 = sys.invoke(r(1), "add", [Value::from("ph")]);
            sys.sync(r(1), r(0), ev2);
            let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
            sys.sync(r(1), r(0), ev3);
            sys.external(r(0), "transmit");
        });
        session.set_mode(ExploreMode::Dfs);
        session.set_cap(50_000);
        session
    };
    // Event 5 is `sync(b → a, ev3)`: the propagation of the remove.
    let drop_remove_sync = FaultPlan::new(vec![FaultEvent::new(EventId::new(5), FaultKind::Drop)]);
    let town = |subsumption: bool, plans: Vec<FaultPlan>| {
        let mut session = town_session_7();
        session.set_fault_plans(plans);
        session.set_subsumption(subsumption);
        session.replay(&TownApp::invariant()).expect("recorded")
    };

    let baseline_only = town(false, vec![FaultPlan::empty()]);
    let reference = town(false, vec![FaultPlan::empty(), drop_remove_sync.clone()]);
    let subsuming = town(true, vec![FaultPlan::empty(), drop_remove_sync]);

    assert!(
        reference.violations.len() > baseline_only.violations.len(),
        "the dropped sync must add fault-dependent violations \
         (baseline {}, fault space {})",
        baseline_only.violations.len(),
        reference.violations.len()
    );
    assert_eq!(
        reference.diff(&subsuming),
        None,
        "fault-digest-aware subsumption must keep the fault-space report byte-identical"
    );
    let stats = subsuming
        .cache_stats
        .expect("subsuming replay reports stats");
    assert!(
        stats.subsumed > 0,
        "the two-plan fault space must still produce subsumed runs \
         (same-plan tails are legal to stitch)"
    );
}
