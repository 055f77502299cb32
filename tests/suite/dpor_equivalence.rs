//! Differential-equivalence suite for the two deep-reduction layers:
//! state-hash subsumption and sleep-set (DPOR-style) pruning.
//!
//! The two layers make different promises, and the suite pins each at its
//! own strength:
//!
//! * **Subsumption** never changes *which* interleavings are replayed — it
//!   only answers some of them from memoized run tails — so its reports
//!   must be *byte-identical* (`Report::diff == None`) to reductions-off:
//!   over the 12-bug catalogue, every worker count, both executors and both
//!   stopping policies (the subsumption cells of the catalogue matrix,
//!   `common::matrix`), and on the town workloads, with and without fault
//!   plans.
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
//! explored set — a ≥10× reduction in physically executed replays — with
//! and without a two-plan fault schedule, and under every plan of one and
//! of two faults.

use crate::common::matrix::{sweep, sweep_sleep, violation_set};
use crate::common::r;
use crate::common::town::record_town;

use proptest::prelude::*;

use er_pi::{Attachments, ExploreMode, InlineExecutor, ReplayConfig, Session, TimeModel};
use er_pi_interleave::FaultSpace;
use er_pi_model::{EventId, FaultEvent, FaultKind, FaultPlan, Interleaving, Value};
use er_pi_subjects::TownApp;

const CAP: usize = 10_000;

// ---------------------------------------------------------------------------
// Subsumption on the town workloads: the ≥10× acceptance number on the
// motivating 10k-interleaving workload, and both reductions beside it.
// ---------------------------------------------------------------------------

/// The §6.3 workload: the §2.3 town recording extended to 10 events, in
/// DFS order. Event 5 is the propagation sync of the first `remove`.
fn town_session_10(cap: usize) -> Session<TownApp> {
    let mut session = Session::new(TownApp::new(2));
    session.record(record_town);
    session.set_mode(ExploreMode::Dfs);
    session.set_cap(cap);
    session
}

/// The two-plan fault schedule: the empty baseline and a dropped `event`,
/// the propagation sync of a `remove`, under which clean interleavings
/// become violating.
fn two_plans(event: u32) -> Vec<FaultPlan> {
    let drop = FaultEvent::new(EventId::new(event), FaultKind::Drop);
    vec![FaultPlan::empty(), FaultPlan::new(vec![drop])]
}

/// At least 90% of the 10 000 runs answered from the explored set, fault
/// free, under the two-plan schedule and under every plan of one and of two
/// faults, and the report byte-identical each time. A fault still ahead of a
/// run is in its key's suffix hash, and one that fired is in its states, cut
/// links and delayed effects, so a run stitches tails recorded under other
/// plans: at one worker the one-fault space executes 921 runs and the
/// two-fault space 813 (2 252 and 4 295 while the key held the whole plan).
#[test]
fn motivating_workload_subsumes_ten_x() {
    type Faults = fn(&mut Session<TownApp>);
    let rows: [(&str, Option<usize>, Faults); 4] = [
        ("fault free", None, |_| {}),
        ("[empty, Drop@5]", None, |session| {
            session.set_fault_plans(two_plans(5));
        }),
        ("all(1)", Some(1), |session| {
            session.set_fault_space(FaultSpace::all(1));
        }),
        ("all(2)", Some(1), |session| {
            session.set_fault_space(FaultSpace::all(2));
        }),
    ];
    for (faults, workers, set_faults) in rows {
        let replay = |subsumption: bool| {
            let mut session = town_session_10(CAP);
            if let Some(workers) = workers {
                session.set_workers(workers);
            }
            set_faults(&mut session);
            session.set_subsumption(subsumption);
            session.replay(&TownApp::invariant()).expect("recorded")
        };
        let (reference, report) = (replay(false), replay(true));
        assert_eq!(
            reference.diff(&report),
            None,
            "{faults}: subsumption must keep the 10k-interleaving report byte-identical"
        );
        let stats = report.cache_stats.expect("subsuming replay reports stats");
        let executed = stats.executed_runs();
        assert_eq!(report.explored, CAP, "{faults}: the cap binds");
        assert!(
            executed * 10 <= report.explored as u64,
            "{faults}: acceptance floor: ≥10× fewer executed replays \
             (explored {}, executed {executed}, subsumed {})",
            report.explored,
            stats.subsumed
        );
    }
}

/// The empty plan and a duplicated delivery of event 5, at one worker: a
/// duplicate fires at its anchor and leaves only state behind, so past it a
/// run under one plan is stitched from tails the other recorded. The
/// executed and subsumed counts are pinned exactly (960 and 9 040 while the
/// key held the whole plan), and the report equals scratch replay.
#[test]
fn a_duplicated_delivery_stitches_tails_across_plans() {
    let duplicate = FaultEvent::new(EventId::new(5), FaultKind::Duplicate);
    let plans = vec![FaultPlan::empty(), FaultPlan::new(vec![duplicate])];
    let replay = |subsumption: bool| {
        let config = ReplayConfig {
            mode: ExploreMode::Dfs,
            cap: CAP,
            workers: 1,
            incremental: subsumption,
            subsumption,
            ..ReplayConfig::default()
        };
        let mut session = Session::with_config(TownApp::new(2), config, Attachments::default());
        session.record(record_town);
        session.set_fault_plans(plans.clone());
        session.replay(&TownApp::invariant()).expect("recorded")
    };
    let (reference, report) = (replay(false), replay(true));
    assert_eq!(reference.diff(&report), None);
    assert_eq!(report.explored, CAP);
    let stats = report.cache_stats.expect("subsuming replay reports stats");
    assert_eq!(
        (stats.executed_runs(), stats.subsumed),
        (599, 9_401),
        "executed and subsumed runs"
    );
}

/// A variant of the §2.3 recording whose lone adds of distinct elements on
/// different replicas are certified-commuting units, giving the sleep
/// filter real commutation classes. ER-π order; event 3 is the propagation
/// sync of the `remove`.
fn commuting_session(cap: usize) -> Session<TownApp> {
    let mut session = Session::new(TownApp::new(2));
    session.record(|sys| {
        let ev1 = sys.invoke(r(0), "add", [Value::from("otb")]);
        sys.sync(r(0), r(1), ev1);
        let ev3 = sys.invoke(r(1), "remove", [Value::from("otb")]);
        sys.sync(r(1), r(0), ev3);
        sys.invoke(r(0), "add", [Value::from("pl")]);
        sys.invoke(r(1), "add", [Value::from("ph")]);
        sys.invoke(r(0), "add", [Value::from("tri")]);
        sys.invoke(r(1), "add", [Value::from("sq")]);
        sys.external(r(0), "transmit");
    });
    session.set_cap(cap);
    session
}

/// Both reductions on the two town workloads, fault free and under the
/// two-plan schedule, at 1 000 and 10 000 interleavings: subsumption diffs
/// clean against the reductions-off baseline, and sleep sets — alone and
/// with subsumption — keep its distinct violation set. On the commuting
/// workload, fault free, the sleep filter must actually reject schedules.
#[test]
fn deep_reductions_keep_the_town_findings() {
    type Build = fn(usize) -> Session<TownApp>;
    let shapes: [(&str, Build, u32); 2] = [
        ("town10", town_session_10, 5),
        ("commuting", commuting_session, 3),
    ];
    for (workload, build, drop_event) in shapes {
        for cap in [1_000, CAP] {
            for faults in [false, true] {
                let replay = |subsumption: bool, sleep_sets: bool| {
                    let mut session = build(cap);
                    if faults {
                        session.set_fault_plans(two_plans(drop_event));
                    }
                    session.set_subsumption(subsumption);
                    session.set_sleep_sets(sleep_sets);
                    session.replay(&TownApp::invariant()).expect("recorded")
                };
                let what = format!("{workload} cap={cap} faults={faults}");
                let baseline = replay(false, false);
                let subsuming = replay(true, false);
                assert_eq!(baseline.diff(&subsuming), None, "{what}: subsumption");
                let violations = violation_set(&baseline);
                for subsumption in [false, true] {
                    let pruned = replay(subsumption, true);
                    assert_eq!(
                        violation_set(&pruned),
                        violations,
                        "{what} subsumption={subsumption}: sleep sets changed the violation set"
                    );
                    let rejected = pruned.prune_stats.map_or(0, |s| s.sleep_rejected);
                    assert!(
                        workload != "commuting" || faults || rejected > 0,
                        "{what} subsumption={subsumption}: sleep sets pruned nothing"
                    );
                }
            }
        }
    }
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
        session.record(record_town);
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

// ---------------------------------------------------------------------------
// The catalogue: both reductions on their cells of the catalogue matrix.
// ---------------------------------------------------------------------------

/// Subsumption on the catalogue matrix (`common::matrix`) keeps the report
/// byte-identical to a one-worker scratch reference. These are the
/// exhaustive multi-worker scratch + subsumption cells; the one-worker one
/// is below, the incremental + subsumption column belongs to
/// `telemetry_equivalence` and every stop-first subsumption cell to
/// `forensics_equivalence`.
#[test]
fn subsumption_is_byte_identical_across_the_catalogue() {
    sweep(false, |cell| {
        !cell.incremental && cell.subsumption && cell.workers > 1
    });
}

/// The equivalence above must not be vacuous: across the catalogue the
/// subsume set has to actually answer runs, otherwise plain replay is
/// compared with plain replay.
#[test]
fn subsumption_actually_engages_on_the_catalogue() {
    let totals = sweep(false, |cell| {
        !cell.incremental && cell.subsumption && cell.workers == 1
    });
    assert!(
        totals.subsumed > 0,
        "the 12-bug catalogue produced no subsumed runs at all"
    );
}

/// Sleep sets keep every bug's distinct violation set, replaying no more.
#[test]
fn sleep_sets_preserve_the_violation_set_across_the_catalogue() {
    let totals = sweep_sleep(false);
    assert!(
        totals.sleep_rejected > 0,
        "sleep sets pruned nothing anywhere in the catalogue"
    );
}

/// Sleep sets compose with subsumption: both on at once still preserve
/// the violation set, and the layers don't double-count.
#[test]
fn sleep_and_subsumption_compose() {
    sweep_sleep(true);
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
    exec.states
        .iter()
        .any(|s| s.transmitted_issues().any(|i| i == "otb"))
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
// Fault anchors still ahead are part of the subsumption key.
// ---------------------------------------------------------------------------

/// Two fault plans over the town workload: the empty baseline and a
/// dropped-sync schedule under which the same event sequence reaches a
/// *different* final state (the remove never propagates, so interleavings
/// that are clean fault-free become violating). The key keeps the two apart
/// at every depth where they would differ: until the drop fires, its anchor
/// digest is in the suffix hash; after it, the replica states differ. If the
/// suffix hash ignored anchor digests, runs of one plan would be stitched
/// from the other plan's memoized tails before the drop and the per-plan
/// violation sets would merge — caught here as a non-null `Report::diff`.
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
    let town = |subsumption: bool, plans: Vec<FaultPlan>| {
        let mut session = town_session_7();
        session.set_fault_plans(plans);
        session.set_subsumption(subsumption);
        session.replay(&TownApp::invariant()).expect("recorded")
    };

    // Event 5 is `sync(b → a, ev3)`: the propagation of the remove.
    let baseline_only = town(false, vec![FaultPlan::empty()]);
    let reference = town(false, two_plans(5));
    let subsuming = town(true, two_plans(5));

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
