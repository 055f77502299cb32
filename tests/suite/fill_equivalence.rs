//! Dispensing into a kept buffer is dispensing: `Explorer::fill` and
//! `IndexedSource::fill` hand out exactly what `Iterator::next` does.
//!
//! The replay engine draws every interleaving into a buffer its slot keeps
//! from claim to claim, while the explorers' own tests, the benchmark's
//! exploration probe and every caller outside the engine iterate. Each pair
//! of streams here comes from two explorers built alike — DFS, Random
//! drawing with retries, and ER-π running its independence (with an
//! interferer), failed-ops and causal filters, and under each catalogue
//! bug's own pruning — bare and under fault
//! products of 1, 5 and 27 plans, each through a capped source and through
//! a reseedable one that is reseeded after a thousand items. The fill side
//! writes over a buffer that holds an order of another length under another
//! plan every time. Item for item, the index, the order and the plan must
//! agree, and so must the pruning counters and the wasted work behind each
//! item; at the end, whether the cap cut the stream.

use er_pi::Session;
use er_pi_interleave::{
    enumerate_plans, DfsExplorer, ErPiExplorer, Explorer, FailedOpsRule, FaultProduct, FaultSpace,
    IndexedSource, PruneStats, PruningConfig, RandomExplorer,
};
use er_pi_model::{
    EventId, FaultEvent, FaultKind, FaultPlan, Interleaving, ReplicaId, Value, Workload,
};
use er_pi_subjects::{Bug, TownApp};

use crate::common::town::record_town;

/// The cap of every experiment.
const CAP: usize = 10_000;

/// Where the reseedable sources are handed a fresh explorer.
const RESEED_AT: usize = 1_000;

/// The plan counts of the products.
const PLAN_COUNTS: [usize; 3] = [1, 5, 27];

/// The benchmark's 10-event town recording: 10! orders, so DFS is capped.
fn town() -> Workload {
    let mut session = Session::new(TownApp::new(2));
    session.record(record_town);
    session.workload().expect("recorded").clone()
}

/// Seven updates on three replicas: 5 040 orders, fewer than the cap, so a
/// bare Random explorer draws all of them and retries more and more often.
fn seven() -> Workload {
    let mut w = Workload::builder();
    for i in 0..7 {
        w.update(ReplicaId::new(i % 3), "op", [Value::from(i64::from(i))]);
    }
    w.build()
}

/// Nine updates under every filter the ER-π explorer runs per candidate: an
/// independent set with an interferer of one member, a failed-ops rule and
/// a dependency for the causal filter. 9! orders, so the stream is capped,
/// and each filter rejects within the cap.
fn filtered() -> (Workload, PruningConfig) {
    let mut w = Workload::builder();
    let e: Vec<EventId> = (0..9)
        .map(|i| w.update(ReplicaId::new(i % 3), "op", [Value::from(i64::from(i))]))
        .collect();
    w.depends(e[8], e[3]);
    let config = PruningConfig {
        interference: vec![(e[8], e[5])],
        require_causal: true,
        ..PruningConfig::default()
            .with_independent_set(vec![e[4], e[5], e[6]])
            .with_failed_ops(FailedOpsRule {
                predecessors: vec![e[7]],
                successors: vec![e[2], e[3]],
            })
    };
    (w.build(), config)
}

/// The first `count` plans of every two-fault schedule of `workload`.
fn plans(workload: &Workload, count: usize) -> Vec<FaultPlan> {
    let plans = enumerate_plans(workload, &FaultSpace::all(2));
    assert!(plans.len() >= count, "{} plans", plans.len());
    plans[..count].to_vec()
}

/// Overwrites `buf` with an order of another length than `len`, under a
/// plan the explorers never emit.
fn dirty(buf: &mut Interleaving, len: usize, step: usize) {
    let other = match step % 2 {
        0 => len + 1 + step % 5,
        _ => step % len.max(1),
    };
    let plan = FaultPlan::new(vec![FaultEvent::new(EventId::new(99), FaultKind::Drop)]);
    buf.refill(other, &plan, |order| {
        order.extend((0..other as u32).rev().map(EventId::new));
    });
}

/// What behind each item must agree: the pruning counters (ER-π only) and
/// the wasted work.
type Counters = (Option<PruneStats>, u64);

/// Drains two sources over explorers built by `make`, one by `next` and
/// one by `fill`, and asserts they agree item for item. A reseedable pair
/// is reseeded with fresh explorers after [`RESEED_AT`] items. Returns the
/// fill side's last counters, and whether the cap cut its stream.
fn assert_fill_matches_next<E: Explorer>(
    what: &str,
    len: usize,
    reseedable: bool,
    make: impl Fn() -> E,
    stats: impl Fn(&E) -> Option<PruneStats>,
) -> (Counters, bool) {
    let counters = |e: &E| (stats(e), e.wasted_work());
    let mut by_next = IndexedSource::new(make(), CAP);
    let mut by_fill = IndexedSource::new(make(), CAP);
    if reseedable {
        by_next.make_reseedable();
        by_fill.make_reseedable();
    }
    let mut buf = Interleaving::default();
    let mut step = 0;
    loop {
        if reseedable && step == RESEED_AT {
            by_next.reseed(make());
            by_fill.reseed(make());
        }
        dirty(&mut buf, len, step);
        let expected = by_next.next();
        let got = by_fill.fill(&mut buf).map(|index| (index, buf.clone()));
        assert_eq!(got, expected, "{what}: item {step}");
        assert_eq!(
            counters(by_fill.inner()),
            counters(by_next.inner()),
            "{what}: counters behind item {step}"
        );
        if expected.is_none() {
            break;
        }
        step += 1;
    }
    assert!(step > 0, "{what}: nothing dispensed");
    assert_eq!(
        by_fill.truncated(),
        by_next.truncated(),
        "{what}: truncated"
    );
    assert_eq!(
        by_fill.dispensed(),
        by_next.dispensed(),
        "{what}: dispensed"
    );
    (counters(by_fill.inner()), by_fill.truncated())
}

/// One explorer kind, bare and under each product, through both kinds of
/// source.
fn assert_every_shape<E: Explorer>(
    what: &str,
    workload: &Workload,
    make: impl Fn() -> E,
    stats: impl Fn(&E) -> Option<PruneStats> + Copy,
) {
    let len = workload.len();
    for reseedable in [false, true] {
        let source = if reseedable { "reseedable" } else { "capped" };
        assert_fill_matches_next(&format!("{what}, {source}"), len, reseedable, &make, stats);
        for count in PLAN_COUNTS {
            let plans = plans(workload, count);
            assert_fill_matches_next(
                &format!("{what} × {count} plans, {source}"),
                len,
                reseedable,
                || FaultProduct::new(make(), plans.clone()),
                |product| stats(product.inner()),
            );
        }
    }
}

#[test]
fn dfs_fills_what_it_iterates() {
    let town = town();
    assert_every_shape("town DFS", &town, || DfsExplorer::new(&town), |_| None);
}

#[test]
fn random_fills_what_it_iterates_retries_included() {
    let seven = seven();
    let make = || RandomExplorer::new(&seven, 7);
    let ((_, retries), _) = assert_fill_matches_next("7-event Random", 7, false, make, |_| None);
    assert!(
        retries > 1_000,
        "drawing the whole space retries: {retries}"
    );
    assert_every_shape("7-event Random", &seven, make, |_| None);
    let town = town();
    assert_every_shape(
        "town Random",
        &town,
        || RandomExplorer::new(&town, 7),
        |_| None,
    );
}

#[test]
fn erpi_fills_what_it_iterates_through_every_filter() {
    let (workload, config) = filtered();
    let make = || ErPiExplorer::new(&workload, &config);
    let len = workload.len();
    let ((stats, _), truncated) =
        assert_fill_matches_next("filtered ER-π", len, false, make, |e| Some(e.stats()));
    let stats = stats.expect("ER-π counts");
    assert!(truncated && stats.emitted == CAP as u64 + 1, "{stats:?}");
    for (filter, checked, rejected) in [
        (
            "independence",
            stats.independence_checked,
            stats.independence_rejected,
        ),
        (
            "failed-ops",
            stats.failed_ops_checked,
            stats.failed_ops_rejected,
        ),
        ("causal", stats.causal_checked, stats.causal_rejected),
    ] {
        assert!(checked > 0 && rejected > 0, "{filter}: {stats:?}");
    }
    assert_every_shape("filtered ER-π", &workload, make, |e| Some(e.stats()));
}

/// The catalogue as the campaigns draw it: ER-π under each bug's own
/// pruning, capped. Where the space is larger than the cap, the explorer
/// emits one more than the cap — the candidate that proves the cap cut the
/// stream short — whichever way it is drawn.
#[test]
fn the_catalogue_fills_what_it_iterates_and_probes_past_the_cap() {
    let mut capped = 0;
    for bug in Bug::catalogue() {
        let make = || ErPiExplorer::new(bug.workload(), bug.pruning_config());
        let len = bug.workload().len();
        let ((stats, _), truncated) =
            assert_fill_matches_next(bug.name, len, false, make, |e| Some(e.stats()));
        let emitted = stats.expect("ER-π counts").emitted;
        if truncated {
            capped += 1;
            assert_eq!(emitted, CAP as u64 + 1, "{}: the cap probe", bug.name);
        } else {
            assert!(emitted <= CAP as u64, "{}: {emitted} emitted", bug.name);
        }
    }
    assert!(capped > 0, "some bug's space is larger than the cap");
}
