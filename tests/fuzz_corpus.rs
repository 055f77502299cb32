//! The fuzzer's regression corpus, re-run deterministically on every
//! `cargo test`.
//!
//! Each file in `tests/corpus/` is a shrunk [`Finding`] — a minimal
//! (workload, fault schedule) pair plus the violation its replay reported
//! when it was found. These tests replay every file and require the exact
//! same violation (assertion, fault dependence, fingerprint) at 1, 2 and 4
//! workers, so a corpus entry reproduces forever or fails loudly.
//!
//! [`Finding`]: er_pi_fuzz::Finding

use std::path::Path;

use er_pi::ReplayConfig;
use er_pi_fuzz::{corpus, run_case, shrink, ORACLE_CAP};

/// What the campaign CLI replays under by default — the configuration the
/// corpus findings were recorded with.
fn oracle_config() -> ReplayConfig {
    ReplayConfig {
        cap: ORACLE_CAP,
        workers: 1,
        ..ReplayConfig::default()
    }
}

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

#[test]
fn corpus_is_present_and_well_formed() {
    let corpus = corpus::load(corpus_dir()).expect("corpus files parse");
    assert!(
        !corpus.is_empty(),
        "the regression corpus must ship at least one finding"
    );
    for (path, finding) in &corpus {
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(corpus::file_name(finding).as_str()),
            "corpus filename must embed the case fingerprint"
        );
        assert_eq!(
            finding.case.fingerprint(),
            finding.fingerprint,
            "{}: stored fingerprint drifted from the case",
            path.display()
        );
        finding.case.spec.validate().expect("corpus case validates");
    }
}

#[test]
fn every_corpus_finding_reproduces_identically() {
    for (path, finding) in corpus::load(corpus_dir()).unwrap() {
        for workers in [1, 2, 4] {
            let opts = ReplayConfig {
                workers,
                ..oracle_config()
            };
            let fresh = run_case(&finding.case, &opts)
                .unwrap_or_else(|| panic!("{} no longer fails", path.display()));
            assert_eq!(fresh.assertion, finding.assertion, "{}", path.display());
            assert_eq!(fresh.message, finding.message, "{}", path.display());
            assert_eq!(
                fresh.fault_dependent,
                finding.fault_dependent,
                "{}: fault dependence drifted",
                path.display()
            );
            assert_eq!(
                fresh.fingerprint,
                finding.fingerprint,
                "{}: fingerprint drifted",
                path.display()
            );
        }
    }
}

/// Corpus entries are already minimal: re-shrinking (preserving assertion
/// and fault dependence) must be the identity.
#[test]
fn corpus_findings_are_shrunk_fixpoints() {
    let opts = oracle_config();
    for (path, finding) in corpus::load(corpus_dir()).unwrap() {
        // Hand-promoted entries document richer schedules (e.g. fan-out
        // double duplicates); only machine-shrunk single-fault entries
        // claim minimality.
        if finding.case.faults.len() > 1 || finding.case.spec.entries.len() > 2 {
            continue;
        }
        let accepts = |c: &er_pi_fuzz::FuzzCase| {
            run_case(c, &opts).is_some_and(|f| {
                f.assertion == finding.assertion && f.fault_dependent == finding.fault_dependent
            })
        };
        let reshrunk = shrink(&finding.case, &accepts);
        assert_eq!(
            reshrunk,
            finding.case,
            "{}: corpus case was not a shrink fixpoint",
            path.display()
        );
    }
}
