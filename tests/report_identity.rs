//! "No report moved", as one number: the canonical JSON of a fixed set of
//! reports, folded through `fnv1a128` and compared with a literal.
//!
//! The equivalence suites compare a campaign with a reference replayed by
//! the same tree, so a change that moves the engine and its reference
//! together passes them. This pins what the tree reports, not what it agrees
//! with: a change that claims to leave every report alone must leave
//! [`REPORT_SET_HASH`] alone. The set spans what decides a report's bytes —
//! the town recording under each exploration mode, fault-free and under
//! every one-fault plan, in each executor, with and without stopping at the
//! first violation and with the run records kept or not; and the catalogue
//! under each executor and stop policy on one and two workers.
//!
//! At that cap most catalogue campaigns are cut short, so a second literal,
//! [`FULL_CAP_CATALOGUE_HASH`], pins the catalogue at the paper's cap of
//! 10 000: every verdict the bug checks reach in the benchmark's sweep.

mod common;

use er_pi::{Attachments, ExploreMode, FaultSpace, ReplayConfig, Report, Session};
use er_pi_subjects::{Bug, TownApp};

/// The fold of the set below, as first printed by [`report_set_hash`].
/// Change it only with a change that means to move a report, and say which.
const REPORT_SET_HASH: u128 = 0x0951_53c7_5642_ad7e_2c7e_b60b_1bf9_549b;

/// The fold of [`full_cap_catalogue`]'s reports, as first printed by
/// [`full_cap_catalogue_hash`].
const FULL_CAP_CATALOGUE_HASH: u128 = 0xbb25_941e_932a_3049_7d56_f1b9_3ca1_9077;

/// How many interleavings a campaign replays at most: enough for the town's
/// DFS stream to reach plans whose runs are stitched from chains of memos.
const CAP: usize = 1_000;

/// Scratch, incremental, incremental + subsumption, scratch + subsumption.
const EXECUTORS: [(bool, bool); 4] = [(false, false), (true, false), (true, true), (false, true)];

/// The town recording, replayed under `config` on one worker, under every
/// one-fault plan if `faulted`.
fn town_report(config: ReplayConfig, faulted: bool) -> Report {
    let mut session = Session::with_config(TownApp::new(2), config, Attachments::default());
    session.record(common::record_town);
    if faulted {
        session.set_fault_space(FaultSpace::all(1));
    }
    session.replay(&TownApp::invariant()).expect("recorded")
}

/// `fnv1a128` folded over each report's canonical JSON, in order.
fn fold(reports: &[Report]) -> u128 {
    reports.iter().fold(0u128, |folded, report| {
        let mut item = folded.to_le_bytes().to_vec();
        item.extend_from_slice(report.canonical_json().as_bytes());
        er_pi_rdl::fnv1a128(&item)
    })
}

/// `fnv1a128` folded over each report's canonical JSON, in set order, and
/// the number of reports folded.
fn report_set_hash() -> (u128, usize) {
    let mut reports = Vec::new();
    let modes = [
        ExploreMode::Dfs,
        ExploreMode::Random { seed: 7 },
        ExploreMode::ErPi,
    ];
    for mode in modes {
        for faulted in [false, true] {
            for (incremental, subsumption) in EXECUTORS {
                for (stop_on_first_violation, keep_runs) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let config = ReplayConfig {
                        mode,
                        cap: CAP,
                        workers: 1,
                        stop_on_first_violation,
                        incremental,
                        subsumption,
                        keep_runs,
                        ..ReplayConfig::default()
                    };
                    reports.push(town_report(config, faulted));
                }
            }
        }
    }
    for bug in Bug::catalogue() {
        for stop_on_first_violation in [false, true] {
            // Scratch, incremental, incremental + subsumption.
            for &(incremental, subsumption) in &EXECUTORS[..3] {
                for workers in [1, 2] {
                    let config = ReplayConfig {
                        cap: CAP,
                        stop_on_first_violation,
                        workers,
                        incremental,
                        subsumption,
                        ..ReplayConfig::default()
                    };
                    reports.push(bug.replay_report_opts(&config));
                }
            }
        }
    }
    (fold(&reports), reports.len())
}

/// Each catalogue bug at cap 10 000 on one incremental worker, with every
/// violation kept and stopping at the first: the benchmark's `catalogue`
/// sweep and its first-violation twin, in [`Bug::catalogue`] order.
fn full_cap_catalogue(stop_on_first_violation: bool) -> Vec<Report> {
    let config = ReplayConfig {
        cap: 10_000,
        workers: 1,
        incremental: true,
        stop_on_first_violation,
        ..ReplayConfig::default()
    };
    Bug::catalogue()
        .iter()
        .map(|bug| bug.replay_report_opts(&config))
        .collect()
}

/// The full-cap reports folded like [`report_set_hash`]'s, full sweep
/// first, and the `fnv1a64` of the full sweep's canonical JSON
/// concatenated.
fn full_cap_catalogue_hash() -> (u128, u64) {
    let full = full_cap_catalogue(false);
    let concatenated: Vec<u8> = full
        .iter()
        .flat_map(|report| report.canonical_json().into_bytes())
        .collect();
    let mut reports = full;
    reports.extend(full_cap_catalogue(true));
    (fold(&reports), er_pi_rdl::fnv1a64(&concatenated))
}

#[test]
fn the_report_set_hashes_to_its_pinned_literal() {
    let (hash, count) = report_set_hash();
    assert_eq!(count, 96 + 144, "the set is fixed");
    assert_eq!(
        hash, REPORT_SET_HASH,
        "a report moved: the set now hashes to {hash:#034x}"
    );
}

#[test]
fn the_full_cap_catalogue_hashes_to_its_pinned_literals() {
    let (hash, full) = full_cap_catalogue_hash();
    // The full sweep's reports, checked independently of the fold.
    assert_eq!(
        full, 0x1bb7_7387_9df2_b4e4,
        "a full-cap catalogue report moved"
    );
    assert_eq!(
        hash, FULL_CAP_CATALOGUE_HASH,
        "a full-cap catalogue report moved: the set now hashes to {hash:#034x}"
    );
}
