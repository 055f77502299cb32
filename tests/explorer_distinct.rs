//! No explorer hands the dispenser the same interleaving twice.
//!
//! `IndexedSource` no longer fingerprints what it dispenses unless it was
//! made reseedable (the watched, one-slot campaign of State 4): everywhere
//! else it rests on its explorer never repeating itself. This pins that
//! fact over what the campaigns actually draw — the first 10 000 items, the
//! cap of every experiment — and pins it on the *fingerprint*, the key the
//! old dedup set dropped candidates by: pairwise distinct fingerprints mean
//! the set never dropped anything, so taking it away changed no report.
//! (`RandomExplorer` draws with replacement and keeps its own set; its unit
//! tests and `incremental_equivalence.rs`' wasted-work check hold that.)

mod common;

use std::collections::HashSet;

use er_pi::Session;
use er_pi_interleave::{
    enumerate_plans, DfsExplorer, ErPiExplorer, FaultProduct, FaultSpace, PruningConfig,
};
use er_pi_model::{Interleaving, Workload};
use er_pi_subjects::{Bug, TownApp};

const CAP: usize = 10_000;

fn assert_distinct(what: &str, explorer: impl Iterator<Item = Interleaving>) {
    let mut seen = HashSet::new();
    let mut drawn = 0;
    for il in explorer.take(CAP) {
        drawn += 1;
        assert!(
            seen.insert(il.fingerprint()),
            "{what}: item {drawn} ({il}) repeats an earlier fingerprint"
        );
    }
    assert!(drawn > 0, "{what}: the explorer emitted nothing");
}

/// The benchmark's 10-event town recording.
fn town_workload() -> Workload {
    let mut session = Session::new(TownApp::new(2));
    session.record(common::record_town);
    session.workload().expect("recorded").clone()
}

#[test]
fn dfs_and_erpi_never_repeat_within_the_cap() {
    let town = town_workload();
    assert_distinct("town DFS", DfsExplorer::new(&town));
    assert_distinct(
        "town ER-π",
        ErPiExplorer::new(&town, &PruningConfig::default()),
    );
    for bug in Bug::catalogue() {
        let what = format!("{} {}", bug.subject, bug.name);
        assert_distinct(&format!("{what} DFS"), DfsExplorer::new(bug.workload()));
        assert_distinct(
            &format!("{what} ER-π"),
            ErPiExplorer::new(bug.workload(), bug.pruning_config()),
        );
    }
}

#[test]
fn the_fault_product_never_repeats_within_the_cap() {
    let space = FaultSpace::all(1);
    let town = town_workload();
    let plans = enumerate_plans(&town, &space);
    assert!(plans.len() > 1, "one-fault plans beside the fault-free one");
    assert_distinct(
        "town DFS × all(1)",
        FaultProduct::new(DfsExplorer::new(&town), plans),
    );
    for bug in Bug::catalogue() {
        let plans = enumerate_plans(bug.workload(), &space);
        let orders = ErPiExplorer::new(bug.workload(), bug.pruning_config());
        assert_distinct(
            &format!("{} {} ER-π × all(1)", bug.subject, bug.name),
            FaultProduct::new(orders, plans),
        );
    }
}
