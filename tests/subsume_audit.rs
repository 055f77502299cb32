//! Subsumption's audit mode, in a test binary of its own: the test sets
//! `ER_PI_SUBSUME_AUDIT`, which every subsumption set reads when it is
//! built, so in a shared binary the value would reach whatever test
//! happened to build one meanwhile.

#[path = "common/town.rs"]
mod town;

use er_pi::{ExploreMode, Session};
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
