//! Independence-soundness smoke data: certifier verdict census + sanitizer
//! overhead over the 12-bug catalogue, emitted as one JSON document
//! (`BENCH_soundness.json` in CI).
//!
//! The `soundness-smoke` CI job fails when any table claim certifies
//! UNSOUND or UNWITNESSED, when a sanitizer-enabled report diverges from
//! the sanitizer-off reference, when a catalogue run reports an
//! independence violation, or when the sanitizer's total wall-clock
//! overhead exceeds the 10% contract of DESIGN.md §12.
//!
//! Usage: `fig_soundness [--cap N] [--pretty]`

use std::time::Instant;

use er_pi::{certify_table, Attachments, CertClaim, CertifiedTable, ReplayConfig, Verdict};
use er_pi_subjects::Bug;
use serde::Serialize;

const DEFAULT_CAP: usize = 2_000;

#[derive(Serialize)]
struct ClaimRow {
    claim: String,
    verdict: Verdict,
    families: Vec<String>,
    pairs: usize,
    checks: usize,
}

#[derive(Serialize)]
struct BugRow {
    bug: String,
    explored: usize,
    wall_off_ms: u128,
    wall_on_ms: u128,
    pairs_considered: usize,
    pairs_checked: usize,
    pairs_deduped: usize,
    violations: usize,
    /// Sanitizer-on vs sanitizer-off `Report::diff` (must be null).
    divergence: Option<String>,
}

#[derive(Serialize)]
struct Document {
    cap: usize,
    /// Wall-clock of one full `certify_table` pass.
    certify_ms: u128,
    commute_claims: usize,
    conflict_claims: usize,
    table_is_sound: bool,
    unsound: Vec<ClaimRow>,
    unwitnessed: Vec<ClaimRow>,
    catalogue: Vec<BugRow>,
    total_wall_off_ms: u128,
    total_wall_on_ms: u128,
    /// (on − off) / off over the whole catalogue; the contract is < 0.10.
    sanitizer_overhead_frac: f64,
    total_violations: usize,
    all_reports_identical: bool,
    /// The full certified table: bounds, every claim, every witness.
    table: CertifiedTable,
}

fn rows(claims: Vec<&CertClaim>) -> Vec<ClaimRow> {
    claims
        .into_iter()
        .map(|c| ClaimRow {
            claim: c.claim.clone(),
            verdict: c.verdict,
            families: c.families.clone(),
            pairs: c.pairs,
            checks: c.checks,
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cap: usize = args
        .iter()
        .position(|a| a == "--cap")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CAP)
        .max(1);
    let pretty = args.iter().any(|a| a == "--pretty");

    let started = Instant::now();
    let table: CertifiedTable = certify_table();
    let certify_ms = started.elapsed().as_millis();

    let opts = |sanitize: bool| ReplayConfig {
        cap,
        workers: 1,
        sanitize,
        ..ReplayConfig::default()
    };

    let mut catalogue = Vec::new();
    let (mut total_off, mut total_on) = (0u128, 0u128);
    for bug in Bug::catalogue() {
        // Warm-up run so neither side pays first-touch costs.
        let _ = bug.replay_report_opts(&opts(false));
        let started = Instant::now();
        let reference = bug.replay_report_opts(&opts(false));
        let wall_off_ms = started.elapsed().as_millis();
        let started = Instant::now();
        let (sanitized, findings) = bug.replay_report_checked(&opts(true), Attachments::default());
        let wall_on_ms = started.elapsed().as_millis();
        let findings = findings.expect("sanitize was requested");
        total_off += wall_off_ms;
        total_on += wall_on_ms;
        catalogue.push(BugRow {
            bug: bug.name.to_string(),
            explored: sanitized.explored,
            wall_off_ms,
            wall_on_ms,
            pairs_considered: findings.pairs_considered,
            pairs_checked: findings.pairs_checked,
            pairs_deduped: findings.pairs_deduped,
            violations: findings.violations.len(),
            divergence: reference.diff(&sanitized),
        });
    }

    let doc = Document {
        cap,
        certify_ms,
        commute_claims: table.commute_claims.len(),
        conflict_claims: table.conflict_claims.len(),
        table_is_sound: table.is_sound(),
        unsound: rows(table.unsound()),
        unwitnessed: rows(table.unwitnessed()),
        total_wall_off_ms: total_off,
        total_wall_on_ms: total_on,
        sanitizer_overhead_frac: (total_on as f64 - total_off as f64) / (total_off.max(1) as f64),
        total_violations: catalogue.iter().map(|r| r.violations).sum(),
        all_reports_identical: catalogue.iter().all(|r| r.divergence.is_none()),
        catalogue,
        table,
    };

    let rendered = if pretty {
        serde_json::to_string_pretty(&doc)
    } else {
        serde_json::to_string(&doc)
    }
    .expect("report serializes");
    println!("{rendered}");
}
