//! `er-pi-explain` — violation forensics from the command line.
//!
//! Replays a catalogue bug until its first violation (or to the 10 000-run
//! paper cap) and prints the deterministic forensic bundle for one of the
//! violations found: the exact interleaving with its fault plan, per-step
//! canonical state digests with the first divergence from the fault-free
//! recorded order, the workload's happens-before graph in Graphviz DOT,
//! and replay-space provenance. The bundle is a pure function of
//! `(subject, violation)`, so the bytes printed here match what the
//! campaign daemon serves at `GET /campaigns/:id/violations/:n` for the
//! same subject — however that campaign was scheduled.
//!
//! Usage:
//!
//! ```text
//! er-pi-explain <Bug-Name> [--violation N] [--pretty]
//! er-pi-explain --all
//! ```
//!
//! `--all` sweeps the catalogue and prints one summary line per bug
//! (steps recorded, first divergence, digest source, bundle size) —
//! a quick smoke that every catalogue violation explains.

use std::process::ExitCode;

use er_pi::ReplayConfig;
use er_pi_subjects::Bug;

fn replay_opts(stop_on_first_violation: bool) -> ReplayConfig {
    ReplayConfig {
        stop_on_first_violation,
        ..ReplayConfig::default()
    }
}

fn explain_all() -> ExitCode {
    let mut failures = 0usize;
    for bug in Bug::catalogue() {
        let report = bug.replay_report_opts(&replay_opts(true));
        let Some(violation) = report.violations.first() else {
            println!("{:<14} NO VIOLATION under cap", bug.name);
            failures += 1;
            continue;
        };
        match bug.explain(violation) {
            Some(bundle) => {
                let divergence = bundle
                    .first_divergence
                    .as_ref()
                    .map(|d| format!("step {}", d.pos))
                    .unwrap_or_else(|| "none".to_owned());
                println!(
                    "{:<14} steps={:<3} divergence={:<8} digests={:?} bundle={}B",
                    bug.name,
                    bundle.steps.len(),
                    divergence,
                    bundle.provenance.digest_source,
                    bundle.canonical_json().len(),
                );
            }
            None => {
                println!("{:<14} violation is cross-run (no interleaving)", bug.name);
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut violation_index = 0usize;
    let mut pretty = false;
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--pretty" => pretty = true,
            "--violation" => {
                i += 1;
                match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) => violation_index = n,
                    None => {
                        eprintln!("--violation needs a number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("usage: er-pi-explain <Bug-Name> [--violation N] [--pretty] | --all");
                return ExitCode::SUCCESS;
            }
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_owned()),
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if all {
        return explain_all();
    }
    let Some(name) = name else {
        eprintln!("usage: er-pi-explain <Bug-Name> [--violation N] [--pretty] | --all");
        return ExitCode::FAILURE;
    };
    let Some(bug) = Bug::by_name(&name) else {
        eprintln!(
            "unknown bug {name:?}; catalogue: {}",
            Bug::catalogue()
                .iter()
                .map(|b| b.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    };

    // Keep replaying past the first violation only when a later one was
    // asked for — the first is the common case and stops early.
    let opts = replay_opts(violation_index == 0);
    let report = bug.replay_report_opts(&opts);
    let Some(violation) = report.violations.get(violation_index) else {
        eprintln!(
            "{name}: violation {violation_index} out of range ({} found under cap {})",
            report.violations.len(),
            opts.cap
        );
        return ExitCode::FAILURE;
    };
    let Some(bundle) = bug.explain(violation) else {
        eprintln!(
            "{name}: violation {violation_index} is cross-run — no single interleaving to replay"
        );
        return ExitCode::FAILURE;
    };
    if pretty {
        println!(
            "{}",
            serde_json::to_string_pretty(&bundle).expect("bundle serializes")
        );
    } else {
        println!("{}", bundle.canonical_json());
    }
    ExitCode::SUCCESS
}
