//! Subsumption's audit mode, in a test binary of its own: its tests set
//! `ER_PI_SUBSUME_AUDIT`, which every subsumption set reads when it is
//! built, so in a shared binary the value would reach whatever test
//! happened to build one meanwhile. Each test sets it and none removes it:
//! they run side by side, and only their subsuming replays build a set.

#[path = "suite/common/town.rs"]
mod town;

use er_pi::{ExploreMode, Session};
use er_pi_interleave::FaultSpace;
use er_pi_subjects::TownApp;

/// The §6.3 workload: the town recording in DFS order, capped at 10 000
/// interleavings.
fn town_session() -> Session<TownApp> {
    let mut session = Session::new(TownApp::new(2));
    session.record(town::record_town);
    session.set_mode(ExploreMode::Dfs);
    session.set_cap(10_000);
    session
}

/// `ER_PI_SUBSUME_AUDIT=1` keeps the canonical bytes next to the digests
/// and executes every hit anyway, panicking on a 128-bit collision or a
/// false subsumption — and the audited report must still equal the plain
/// reference, with the verified hits counted as subsumed.
#[test]
fn audit_mode_executes_hits_and_stays_identical() {
    let reference = town_session()
        .replay(&TownApp::invariant())
        .expect("recorded");

    std::env::set_var("ER_PI_SUBSUME_AUDIT", "1");
    let mut session = town_session();
    session.set_subsumption(true);
    let audited = session.replay(&TownApp::invariant()).expect("recorded");

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

/// Every plan of up to two faults, audited: tails are stitched across plans
/// here while links are cut and delayed effects are in flight, and each hit
/// is executed and compared with the tail it would have been stitched from.
#[test]
fn an_audited_two_fault_space_stitches_across_plans_and_stays_identical() {
    let replay = |subsumption: bool| {
        let mut session = town_session();
        session.set_fault_space(FaultSpace::all(2));
        session.set_subsumption(subsumption);
        session.replay(&TownApp::invariant()).expect("recorded")
    };
    let reference = replay(false);

    std::env::set_var("ER_PI_SUBSUME_AUDIT", "1");
    let audited = replay(true);

    assert_eq!(
        reference.diff(&audited),
        None,
        "audit mode changed the report"
    );
    let stats = audited.cache_stats.expect("subsuming replay reports stats");
    assert!(
        stats.subsumed >= 9_000,
        "{} runs subsumed and verified",
        stats.subsumed
    );
}
