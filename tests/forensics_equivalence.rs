//! Differential-equivalence harness for violation forensics.
//!
//! A forensic bundle is a *pure function* of `(subject, violation)`: it is
//! assembled by deterministically re-executing the violating interleaving
//! step by step, never from live campaign state. So however the campaign
//! that found the violation was scheduled — worker count, scratch vs
//! incremental executor, state-hash subsumption on or off — the bundle for
//! the first violation must come out byte-identical. These tests pin that
//! across the twelve-bug catalogue, and pin the metrics registry as
//! write-only: a session exporting into a shared [`Registry`] produces the
//! same canonical report bytes as a detached one.

use std::sync::Arc;

use er_pi::telemetry::Registry;
use er_pi::{Attachments, ReplayConfig, SessionMetrics};
use er_pi_subjects::Bug;

fn opts(workers: usize, incremental: bool, subsumption: bool) -> ReplayConfig {
    ReplayConfig {
        stop_on_first_violation: true,
        workers,
        incremental,
        subsumption,
        ..ReplayConfig::default()
    }
}

/// The scheduling matrix: {1, 2, 4} workers × {scratch, incremental,
/// incremental+subsumption}.
fn matrix() -> Vec<(usize, bool, bool)> {
    let mut configs = Vec::new();
    for workers in [1usize, 2, 4] {
        for (incremental, subsumption) in [(false, false), (true, false), (true, true)] {
            configs.push((workers, incremental, subsumption));
        }
    }
    configs
}

/// Every catalogue bug: the first violation's forensic bundle is
/// byte-identical no matter how the campaign that found it was scheduled.
#[test]
fn forensic_bundles_are_byte_identical_across_scheduling() {
    for bug in Bug::catalogue() {
        let reference = {
            let report = bug.replay_report_opts(&opts(1, false, false));
            let violation = report
                .violations
                .first()
                .unwrap_or_else(|| panic!("{}: catalogue bug must reproduce", bug.name));
            bug.explain(violation)
                .unwrap_or_else(|| panic!("{}: per-run violation must explain", bug.name))
                .canonical_json()
        };
        for (workers, incremental, subsumption) in matrix() {
            let report = bug.replay_report_opts(&opts(workers, incremental, subsumption));
            let violation = report.violations.first().unwrap_or_else(|| {
                panic!(
                    "{}: no violation at workers={workers} incremental={incremental} \
                     subsumption={subsumption}",
                    bug.name
                )
            });
            let bundle = bug
                .explain(violation)
                .expect("per-run violation must explain")
                .canonical_json();
            assert_eq!(
                bundle, reference,
                "{}: bundle diverged at workers={workers} incremental={incremental} \
                 subsumption={subsumption}",
                bug.name
            );
        }
    }
}

/// Re-explaining the same violation is a no-op: two assemblies of the
/// same bundle are byte-identical, and the bundle names the violating
/// assertion and carries the happens-before DOT graph.
#[test]
fn explaining_twice_is_deterministic_and_complete() {
    let bug = Bug::by_name("Roshi-1").expect("catalogue bug");
    let report = bug.replay_report_opts(&opts(1, true, false));
    let violation = report.violations.first().expect("Roshi-1 reproduces");
    let first = bug.explain(violation).expect("explains");
    let second = bug.explain(violation).expect("explains");
    assert_eq!(first.canonical_json(), second.canonical_json());
    assert_eq!(first.assertion, violation.assertion);
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

/// A fuzz-case violation explains the same way: the bundle is rebuilt
/// from the case spec alone and is stable across re-assembly.
#[test]
fn fuzz_case_bundles_are_deterministic() {
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
        .first()
        .expect("the duplicated sync violates exactly-once");
    let first = er_pi_fuzz::explain_for(&case, violation).expect("explains");
    let second = er_pi_fuzz::explain_for(&case, violation).expect("explains");
    assert_eq!(first.canonical_json(), second.canonical_json());
    assert_eq!(
        first.provenance.fault_count, 1,
        "the fault plan rides in the bundle"
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
