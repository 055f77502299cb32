//! Replica-specific pruning (paper §3.3, Algorithm 2) checked against the
//! whole space it prunes, on a real subject model.
//!
//! Events at other replicas that land after the last sync into the target
//! cannot reach it, so their order is merged away. The catalogue never
//! exercises this pruner (Fig. 9 reads 0 % on every bug), so this module
//! builds a workload that does, enumerates every causally valid order of
//! it, and holds the orders the pruner keeps to exactly the target-replica
//! states that the orders it prunes from reach: a bounded, small-scope
//! check in the manner of Nagar et al. (PAPERS.md).

use std::collections::BTreeSet;

use er_pi::{InlineExecutor, SystemModel, TimeModel};
use er_pi_interleave::{DfsExplorer, ErPiExplorer, PruningConfig};
use er_pi_model::{Interleaving, ReplicaId, Value, Workload};
use er_pi_subjects::TownApp;

/// What the target replica ends a run in: its canonical digest and its
/// observation.
type Key = (u128, Value);

const TARGET: ReplicaId = ReplicaId::new(1);

/// Seven events over three town replicas, B the target: A's add of `x`
/// reaches B by the one sync into it, and the updates at A and C — an add
/// synced C→A, a remove of `x` at A, a second add at C — may all land after
/// that sync. 7! = 5 040 orders, 1 260 of them causally valid; 120 grouped.
fn workload() -> Workload {
    let (a, b, c) = (ReplicaId::new(0), TARGET, ReplicaId::new(2));
    let mut w = Workload::builder();
    let x = w.update(a, "add", [Value::from("x")]);
    w.sync_pair(a, b, x);
    w.update(b, "add", [Value::from("y")]);
    let z = w.update(c, "add", [Value::from("z")]);
    w.sync_pair(c, a, z);
    w.update(a, "remove", [Value::from("x")]);
    w.update(c, "add", [Value::from("w")]);
    w.build()
}

/// The target's keys over the causally valid orders of `orders`, each
/// replayed from scratch.
fn keys(workload: &Workload, orders: impl Iterator<Item = Interleaving>) -> BTreeSet<Key> {
    let model = TownApp::new(3);
    orders
        .filter(|il| workload.is_causally_valid(il))
        .map(|il| {
            let run = InlineExecutor::execute(&model, workload, &il, &TimeModel::paper_setup());
            let target = &run.states[TARGET.index()];
            let digest = model.replica_digest(target).expect("town encodes");
            (digest, model.observe(target))
        })
        .collect()
}

/// With grouping on and off, the orders the pruner keeps reach exactly the
/// target states of the space it prunes, and it prunes some. With grouping
/// off that space is every causally valid order.
#[test]
fn replica_specific_pruning_keeps_every_target_state() {
    let workload = workload();
    let all = keys(&workload, DfsExplorer::new(&workload));
    assert!(all.len() > 1, "the space reaches one target state only");
    for grouping in [false, true] {
        let base = PruningConfig {
            disable_grouping: !grouping,
            ..PruningConfig::default()
        };
        let space = keys(&workload, ErPiExplorer::new(&workload, &base));
        assert!(
            grouping || space == all,
            "ungrouped, ER-π walks every order"
        );
        let config = base.with_target_replica(TARGET);
        let mut explorer = ErPiExplorer::new(&workload, &config);
        let kept = keys(&workload, explorer.by_ref());
        let stats = explorer.stats();
        assert!(
            stats.replica_specific_rejected > 0,
            "grouping {grouping}: the pruner removed nothing: {stats:?}"
        );
        let lost: Vec<&Key> = space.difference(&kept).collect();
        assert!(
            lost.is_empty(),
            "grouping {grouping}: {} of {} target states lost: {lost:?}",
            lost.len(),
            space.len()
        );
        assert_eq!(kept, space, "grouping {grouping}: a state no order reaches");
    }
}

/// Grouping is the developer's declaration that an update and its sync are
/// one step, and on this workload it intends a loss of its own: every
/// grouped order ships `x` to B with its add, so B ends holding `x`. What B
/// can observe under grouping is exactly what it can observe holding `x`;
/// the ungrouped orders that sync A to B only after A removed `x` reach
/// the rest.
#[test]
fn grouping_declares_the_sync_of_x_atomic() {
    let workload = workload();
    let all = keys(&workload, DfsExplorer::new(&workload));
    let grouped = keys(
        &workload,
        ErPiExplorer::new(&workload, &PruningConfig::default()),
    );
    assert!(grouped.is_subset(&all));
    let observed = |keys: &BTreeSet<Key>| -> BTreeSet<Value> {
        keys.iter().map(|(_, observed)| observed.clone()).collect()
    };
    let everything = observed(&all);
    let holding_x: BTreeSet<Value> = everything
        .iter()
        .filter(|observed| observed.to_string().contains("\"x\""))
        .cloned()
        .collect();
    assert!(holding_x.len() < everything.len(), "{everything:?}");
    assert_eq!(observed(&grouped), holding_x);
}
