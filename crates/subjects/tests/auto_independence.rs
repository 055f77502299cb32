//! Ground truth for the static analysis pass on the evaluation subjects.
//!
//! Four claims are checked against the real subject workloads:
//!
//! 1. The independence knowledge the bug catalogue used to hand-declare
//!    (ReplicaDB's disjoint-key put batch) is *derived* by the analysis.
//! 2. Every catalogue bug still reproduces under ER-π when the
//!    hand-declared independent sets and interference pairs are deleted
//!    and replaced by the auto-derived ones — zero hand declarations.
//! 3. The pre-replay lint pass statically flags the Table 2 misconception
//!    patterns on the seeded subject workloads, before any interleaving
//!    is replayed.
//! 4. The derived relation of every catalogue workload is exactly the
//!    pinned one (set sizes and pair counts; `ReplicaDB-2` in full).

use std::collections::BTreeSet;

use er_pi::{analyze, Session};
use er_pi_model::{EventId, ReplicaId, Value};
use er_pi_rdl::TieBreak;
use er_pi_subjects::{Bug, CrdtsModel, RoshiModel};

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

#[test]
fn replicadb_hand_declared_sets_are_derived() {
    let bug = Bug::by_name("ReplicaDB-1").expect("catalogue entry");
    let hand = &bug.pruning_config().independent_sets;
    assert!(
        !hand.is_empty(),
        "ReplicaDB-1 is the catalogue's hand-declared independence example"
    );

    let analysis = analyze(bug.workload());
    for set in hand {
        let mut want = set.clone();
        want.sort_unstable();
        assert!(
            analysis
                .independence
                .sets
                .iter()
                .any(|derived| want.iter().all(|e| derived.contains(e))),
            "hand-declared set {want:?} not covered by derived sets {:?}",
            analysis.independence.sets
        );
    }
}

#[test]
fn catalogue_reproduces_with_auto_derived_independence() {
    for bug in Bug::catalogue() {
        // Start from the bug's config with every hand declaration removed,
        // then absorb what the static analysis derives from the trace.
        let mut config = bug.pruning_config().clone();
        config.independent_sets.clear();
        config.interference.clear();
        config.absorb(analyze(bug.workload()).to_pruning_config());

        let repro = bug.reproduce_with_config(config, 10_000);
        assert!(
            repro.reproduced(),
            "{} must still reproduce with auto-derived independence \
             (explored {})",
            bug.name,
            repro.explored
        );
    }
}

#[test]
fn derived_relation_is_pinned_per_catalogue_workload() {
    // Set sizes and interference-pair count of every catalogue workload, as
    // the Datalog derivation this pass replaced produced them.
    let pinned: [(&str, &[usize], usize); 12] = [
        ("Roshi-1", &[], 0),
        ("Roshi-2", &[2], 13),
        ("Roshi-3", &[6], 37),
        ("OrbitDB-1", &[], 0),
        ("OrbitDB-2", &[], 0),
        ("OrbitDB-3", &[], 0),
        ("OrbitDB-4", &[], 0),
        ("OrbitDB-5", &[], 0),
        ("ReplicaDB-1", &[3], 21),
        ("ReplicaDB-2", &[5, 2], 69),
        ("Yorkie-1", &[2], 30),
        ("Yorkie-2", &[3, 4], 105),
    ];
    assert_eq!(Bug::catalogue().len(), pinned.len());
    for (name, set_sizes, interference) in pinned {
        let bug = Bug::by_name(name).expect("catalogue entry");
        let derived = analyze(bug.workload()).independence;
        let sizes: Vec<usize> = derived.sets.iter().map(Vec::len).collect();
        assert_eq!(sizes, set_sizes, "{name}: set sizes");
        assert_eq!(derived.interference.len(), interference, "{name}: pairs");
    }

    // The two-set workload in full: members, order, every pair.
    let ids = |ixs: &[u32]| -> Vec<EventId> { ixs.iter().map(|&i| EventId::new(i)).collect() };
    let derived = analyze(Bug::by_name("ReplicaDB-2").unwrap().workload()).independence;
    assert_eq!(derived.sets, [ids(&[0, 1, 2, 7, 11]), ids(&[3, 8])]);
    #[rustfmt::skip]
    let interference: [(u32, u32); 69] = [
        (0, 3), (0, 8),
        (1, 3), (1, 8),
        (2, 3), (2, 8),
        (3, 0), (3, 1), (3, 2), (3, 7), (3, 11),
        (4, 0), (4, 1), (4, 2), (4, 3), (4, 7), (4, 8), (4, 11),
        (5, 0), (5, 1), (5, 2), (5, 3), (5, 7), (5, 8), (5, 11),
        (6, 0), (6, 1), (6, 2), (6, 3), (6, 7), (6, 8), (6, 11),
        (7, 3), (7, 8),
        (8, 0), (8, 1), (8, 2), (8, 7), (8, 11),
        (9, 0), (9, 1), (9, 2), (9, 3), (9, 7), (9, 8), (9, 11),
        (10, 0), (10, 1), (10, 2), (10, 3), (10, 7), (10, 8), (10, 11),
        (11, 3), (11, 8),
        (12, 0), (12, 1), (12, 2), (12, 3), (12, 7), (12, 8), (12, 11),
        (13, 0), (13, 1), (13, 2), (13, 3), (13, 7), (13, 8), (13, 11),
    ];
    assert_eq!(
        derived.interference,
        interference.map(|(x, y)| (EventId::new(x), EventId::new(y)))
    );
}

/// Collects the misconception numbers the lint pass flags for a recorded
/// session.
fn flagged<M: er_pi::SystemModel>(session: &Session<M>) -> BTreeSet<u8> {
    session
        .analyze()
        .expect("workload recorded")
        .diagnostics
        .iter()
        .map(|d| d.misconception)
        .collect()
}

#[test]
fn lint_flags_racing_deliveries_on_roshi() {
    // Roshi Table-2 cell #1: two writers race into replica 0 through
    // independent sync messages.
    let mut session = Session::new(RoshiModel::with_tie(3, TieBreak::LastApplied));
    session.record(|sys| {
        let i1 = sys.invoke(
            r(1),
            "insert",
            [Value::from("k"), Value::from("m"), Value::from(50)],
        );
        let d2 = sys.invoke(
            r(2),
            "delete",
            [Value::from("k"), Value::from("m"), Value::from(50)],
        );
        sys.sync_split(r(1), r(0), Some(i1));
        sys.sync_split(r(2), r(0), Some(d2));
    });
    assert!(
        flagged(&session).contains(&1),
        "misconception 1 must be flagged"
    );
}

#[test]
fn lint_flags_concurrent_list_edits_on_crdts() {
    // Crdts Table-2 cell #2: concurrent pushes at different replicas.
    let mut session = Session::new(CrdtsModel::new(2));
    session.record(|sys| {
        let p0 = sys.invoke(r(0), "list_push", [Value::from(10)]);
        sys.sync(r(0), r(1), p0);
        sys.invoke(r(1), "list_push", [Value::from(20)]);
        sys.invoke(r(0), "list_push", [Value::from(30)]);
        sys.sync_untracked(r(1), r(0));
        sys.sync_untracked(r(0), r(1));
    });
    assert!(
        flagged(&session).contains(&2),
        "misconception 2 must be flagged"
    );
}

#[test]
fn lint_flags_unsafe_moves_on_crdts() {
    // Crdts Table-2 cell #3: concurrent naive list moves.
    let mut session = Session::new(CrdtsModel::new(2));
    session.record(|sys| {
        for v in [10, 20, 30] {
            sys.invoke(r(0), "list_push", [Value::from(v)]);
        }
        sys.sync_untracked(r(0), r(1));
        sys.invoke(r(0), "list_move_naive", [Value::from(0), Value::from(2)]);
        sys.invoke(r(1), "list_move_naive", [Value::from(0), Value::from(1)]);
        sys.sync_untracked(r(0), r(1));
        sys.sync_untracked(r(1), r(0));
    });
    assert!(
        flagged(&session).contains(&3),
        "misconception 3 must be flagged"
    );
}

#[test]
fn lint_flags_racing_id_mints_on_crdts() {
    // Crdts Table-2 cell #4: both replicas mint the next to-do id.
    let mut session = Session::new(CrdtsModel::new(2));
    session.record(|sys| {
        sys.invoke(r(0), "todo_create", [Value::from("buy milk")]);
        sys.invoke(r(1), "todo_create", [Value::from("walk dog")]);
        sys.sync_untracked(r(0), r(1));
        sys.sync_untracked(r(1), r(0));
    });
    assert!(
        flagged(&session).contains(&4),
        "misconception 4 must be flagged"
    );
}

#[test]
fn lint_flags_uncoordinated_writes_on_crdts() {
    // Crdts Table-2 cell #5: replica 0 writes without coordinating while
    // remote updates race in.
    let mut session = Session::new(CrdtsModel::new(3));
    session.record(|sys| {
        let u1 = sys.invoke(r(1), "counter_inc", [Value::from(1)]);
        sys.sync(r(1), r(0), u1);
        sys.invoke(r(2), "counter_inc", [Value::from(2)]);
        sys.invoke(r(0), "reg_set", [Value::from(7)]);
        sys.sync_untracked(r(2), r(0));
    });
    assert!(
        flagged(&session).contains(&5),
        "misconception 5 must be flagged"
    );
}

#[test]
fn lint_coverage_spans_the_misconception_table() {
    // Acceptance floor: the lint pass flags at least three of the five
    // misconception patterns across the subject workloads (the per-pattern
    // tests above pin each individually).
    let mut covered = BTreeSet::new();

    let mut session = Session::new(CrdtsModel::new(3));
    session.record(|sys| {
        let u1 = sys.invoke(r(1), "reg_set", [Value::from(1)]);
        let u2 = sys.invoke(r(2), "reg_set", [Value::from(2)]);
        sys.sync_split(r(1), r(0), Some(u1));
        sys.sync_split(r(2), r(0), Some(u2));
    });
    covered.extend(flagged(&session));

    let mut session = Session::new(CrdtsModel::new(2));
    session.record(|sys| {
        sys.invoke(r(0), "todo_create", [Value::from("a")]);
        sys.invoke(r(1), "todo_create", [Value::from("b")]);
        sys.invoke(r(0), "list_move_naive", [Value::from(0), Value::from(1)]);
    });
    covered.extend(flagged(&session));

    assert!(
        covered.len() >= 3,
        "lints must flag at least 3 of 5 misconceptions, got {covered:?}"
    );
}
