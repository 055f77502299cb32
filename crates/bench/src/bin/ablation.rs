//! Ablation study: what each pruning algorithm buys on the bug catalogue.
//!
//! For every bug, reproduce with (a) the full ER-π configuration, (b)
//! automatic event grouping only (developer-specified groups, independence
//! sets, and failed-ops rules stripped), and (c) no pruning at all
//! (equivalent to DFS). The gap between the columns is each layer's
//! contribution at the system level — the DESIGN.md ablation.

use er_pi::{ExploreMode, PruningConfig, Session, SystemModel, TestSuite};
use er_pi_bench::{fmt_found, CAP};
use er_pi_subjects::Bug;

fn reproduce_with_config(bug: &Bug, strip: bool) -> Option<usize> {
    // Re-run through the public API with a modified configuration; the
    // violation predicate stays the bug's own.
    let mut config = bug.pruning_config().clone();
    if strip {
        config.extra_groups.clear();
        config.independent_sets.clear();
        config.failed_ops.clear();
        config.target_replica = None;
    }
    reproduce(bug, ExploreMode::ErPi, Some(config))
}

fn reproduce(bug: &Bug, mode: ExploreMode, config: Option<PruningConfig>) -> Option<usize> {
    // The catalogue's `reproduce` always uses the stored config for ER-π;
    // emulate an override by a thin wrapper around the same machinery.
    match config {
        None => bug.reproduce(mode, CAP).found_at,
        Some(config) => bug.reproduce_with_config(config, CAP).found_at,
    }
}

fn main() {
    println!("Ablation: interleavings to reproduce each bug (cap {CAP}).");
    println!();
    println!(
        "{:<13} {:>10} {:>14} {:>12}",
        "bug", "full ER-π", "grouping-only", "no pruning"
    );
    println!("{}", "-".repeat(52));
    for bug in Bug::catalogue() {
        let full = reproduce(&bug, ExploreMode::ErPi, None);
        let grouping_only = reproduce_with_config(&bug, true);
        let none = reproduce(&bug, ExploreMode::Dfs, None);
        println!(
            "{:<13} {:>10} {:>14} {:>12}",
            bug.name,
            fmt_found(full),
            fmt_found(grouping_only),
            fmt_found(none),
        );
    }
    println!();
    println!("full ER-π = automatic grouping + the bug's developer-parameterized");
    println!("rules; grouping-only strips the developer rules; no pruning = DFS");
    println!("over the raw n! space.");
    // Re-exported so the binary exercises the public Session surface too.
    let _ = Session::<er_pi_subjects::TownApp>::new(er_pi_subjects::TownApp::new(2))
        .model()
        .replicas();
    let _ = TestSuite::<()>::new();
}
