//! Differential-equivalence harness for violation forensics.
//!
//! A forensic bundle is a *pure function* of `(subject, violation)`: it is
//! assembled by deterministically re-executing the violating interleaving
//! step by step, never from live campaign state. So however the campaign
//! that found the violation was scheduled — worker count, scratch vs
//! incremental executor, state-hash subsumption on or off — the bundle for
//! the first violation must come out byte-identical; every stop-first cell
//! of the catalogue matrix (`common::matrix`) holds that. The other tests
//! pin the bundles themselves — deterministic, complete, equal to literal
//! digests — and the metrics registry as write-only: a session exporting
//! into a shared [`Registry`] produces the same canonical report bytes as a
//! detached one.

use std::sync::Arc;

use crate::common::matrix::{base, reference, sweep};
use crate::common::{Cell, SCRATCH};
use er_pi::telemetry::Registry;
use er_pi::{Attachments, ReplayConfig, SessionMetrics, Violation};
use er_pi_rdl::fnv1a128;
use er_pi_subjects::Bug;

/// Every catalogue bug: the first violation's forensic bundle is
/// byte-identical no matter how the campaign that found it was scheduled.
/// Every stop-first cell of the matrix compares its bundle with the
/// reference's; these are the subsumption ones, scratch and incremental
/// (watched).
#[test]
fn forensic_bundles_are_byte_identical_across_scheduling() {
    sweep(true, |cell| cell.subsumption);
}

/// Re-explaining the same violation is a no-op: two assemblies of the
/// same bundle are byte-identical, and the bundle names the violating
/// assertion and carries the happens-before DOT graph.
#[test]
fn explaining_twice_is_deterministic_and_complete() {
    let bug = Bug::by_name("Roshi-1").expect("catalogue bug");
    let report = bug.replay_report_opts(
        &Cell {
            incremental: true,
            ..SCRATCH
        }
        .config(base(true)),
    );
    let violation = report.violations.first().expect("Roshi-1 reproduces");
    let first = bug.explain(violation).expect("explains");
    let second = bug.explain(violation).expect("explains");
    assert_eq!(first.canonical_json(), second.canonical_json());
    assert_eq!(first.assertion, &*violation.assertion);
    assert_eq!(first.steps.len(), bug.events());
    assert!(
        first.hb_dot.starts_with("digraph happens_before"),
        "bundle carries the DOT graph"
    );
    assert!(
        first.first_divergence.is_some(),
        "a violating order must diverge from the clean recorded order"
    );
}

/// The ledger fuzz case whose duplicated sync violates exactly-once, and
/// the violation its one-worker campaign finds first.
fn fuzz_case() -> (er_pi_fuzz::FuzzCase, Violation) {
    let case: er_pi_fuzz::FuzzCase = serde_json::from_str(
        r#"{
            "target": "Ledger",
            "spec": {
                "replicas": 2,
                "entries": [
                    {"Op": {"replica": 0, "function": "credit", "args": [75]}},
                    {"SyncPair": {"from": 0, "to": 1, "of": 0}}
                ],
                "chain_from": null
            },
            "faults": [{"anchor": 1, "kind": "Duplicate"}]
        }"#,
    )
    .expect("case parses");
    let report = er_pi_fuzz::report_for(
        &case,
        &ReplayConfig {
            cap: er_pi_fuzz::ORACLE_CAP,
            workers: 1,
            ..ReplayConfig::default()
        },
    );
    let violation = report
        .violations
        .into_iter()
        .next()
        .expect("the duplicated sync violates exactly-once");
    (case, violation)
}

/// A fuzz-case violation explains the same way: the bundle is rebuilt
/// from the case spec alone and is stable across re-assembly.
#[test]
fn fuzz_case_bundles_are_deterministic() {
    let (case, violation) = fuzz_case();
    let first = er_pi_fuzz::explain_for(&case, &violation).expect("explains");
    let second = er_pi_fuzz::explain_for(&case, &violation).expect("explains");
    assert_eq!(first.canonical_json(), second.canonical_json());
    assert_eq!(
        first.provenance.fault_count, 1,
        "the fault plan rides in the bundle"
    );
}

/// The bundles' bytes, held to literals rather than to each other:
/// `fnv1a128` of the canonical JSON of every catalogue bug's first-violation
/// bundle (the matrix's stop-first reference, which every stop-first cell
/// matches byte for byte) and of the fuzz case's. A change to
/// how a violating run is re-executed, digested or rendered shows here even
/// when every bundle still agrees with every other.
#[test]
fn forensic_bundles_match_their_pinned_bytes() {
    const PINNED: [(&str, u128); 13] = [
        ("Roshi-1", 0x02aa309b2728884328d45cea531488af),
        ("Roshi-2", 0x464afd54e02a5d50a28b904c1c512d70),
        ("Roshi-3", 0xdf2eee693604484c302bb178c655fa1f),
        ("OrbitDB-1", 0x4693fccad922622f63771162887ce7d8),
        ("OrbitDB-2", 0x2d3f53d7298a820c9ebb148258f64a2c),
        ("OrbitDB-3", 0x626843059b1056fe28dba793ab6ce74d),
        ("OrbitDB-4", 0xffac2f51f357b6cbd3df48d36fabf3d0),
        ("OrbitDB-5", 0x80cc628c88cd12668f26c83f961f8562),
        ("ReplicaDB-1", 0x77c7f306e693bf7e999b11529dddb831),
        ("ReplicaDB-2", 0x853bad56274857f7008a2ebc00da4aa5),
        ("Yorkie-1", 0x3e691539a12fb8dca93b481c57b3d38a),
        ("Yorkie-2", 0x1f96e962ca5751de249b47d7e206c74b),
        ("ledger fuzz case", 0xd6025aa763bd24618d1b00c39448305c),
    ];
    let mut seen: Vec<(&str, u128)> = Bug::catalogue()
        .iter()
        .map(|bug| {
            let bundle = reference(bug, true).bundle.as_deref();
            (bug.name, fnv1a128(bundle.expect("stop-first").as_bytes()))
        })
        .collect();
    let (case, violation) = fuzz_case();
    let fuzz = er_pi_fuzz::explain_for(&case, &violation).expect("explains");
    seen.push((
        "ledger fuzz case",
        fnv1a128(fuzz.canonical_json().as_bytes()),
    ));
    let rows: String = seen
        .iter()
        .map(|(name, digest)| format!("        ({name:?}, 0x{digest:032x}),\n"))
        .collect();
    assert_eq!(
        seen, PINNED,
        "the rows, if the change was intended:\n{rows}"
    );
}

/// The metrics registry is write-only: attaching a [`SessionMetrics`]
/// handle leaves the canonical report bytes untouched at every worker
/// count, while the registry itself visibly accumulates the campaign.
#[test]
fn session_metrics_never_change_the_report() {
    for name in ["Roshi-1", "OrbitDB-2", "ReplicaDB-1", "Yorkie-1"] {
        let bug = Bug::by_name(name).expect("catalogue bug");
        let reference = bug.replay_report_opts(&ReplayConfig {
            workers: 1,
            ..ReplayConfig::default()
        });
        for workers in [1usize, 2, 4] {
            let registry = Arc::new(Registry::new());
            let metrics = SessionMetrics::new(&registry, &[("campaign", name)]);
            let replay = ReplayConfig {
                workers,
                ..ReplayConfig::default()
            };
            let attach = Attachments {
                metrics: Some(metrics),
                ..Attachments::default()
            };
            let (attached, _) = bug.replay_report_checked(&replay, attach);
            assert_eq!(
                reference.diff(&attached),
                None,
                "{name} workers={workers}: metrics changed the report"
            );
            assert_eq!(
                reference.canonical_json(),
                attached.canonical_json(),
                "{name} workers={workers}: canonical bytes moved"
            );
            let exposition = registry.render_prometheus();
            er_pi::telemetry::lint_exposition(&exposition)
                .unwrap_or_else(|e| panic!("{name}: exposition lint failed: {e}"));
            assert!(
                exposition.contains(&format!(
                    "er_pi_campaign_runs_total{{campaign=\"{name}\"}} {}",
                    attached.explored
                )),
                "{name}: registry missed the campaign's runs:\n{exposition}"
            );
        }
    }
}
