//! The fuzz-campaign driver (the binary CI's nightly job runs).
//!
//! ```text
//! er-pi-fuzz [--target crdts|ledger|all] [--seeds 0,1,2] [--cases N]
//!            [--workers N] [--cap N] [--corpus DIR] [--artifacts DIR]
//!            [--check-corpus]
//! ```
//!
//! For every `(target, seed)` pair the driver generates `--cases`
//! deterministic cases, replays each through the oracle, shrinks any
//! finding to a minimal (workload, fault schedule) pair, and matches the
//! shrunk fingerprint against the regression corpus. Findings already in
//! the corpus are reported and tolerated; unknown findings are written to
//! `--artifacts` as replayable JSON and fail the run with exit code 1.
//! `--check-corpus` additionally re-runs every corpus file and fails with
//! exit code 2 if one no longer reproduces (assertion, fault dependence,
//! or fingerprint drift).
//!
//! `--promote CASE.json` takes a hand-written [`FuzzCase`], replays it,
//! and (when it fails the oracle) writes the resulting finding into
//! `--corpus` — the manual path into the regression corpus.
//!
//! [`FuzzCase`]: er_pi_fuzz::FuzzCase

use std::path::PathBuf;
use std::process::ExitCode;

use er_pi::ReplayConfig;
use er_pi_fuzz::{case_strategy, corpus, run_case, shrink, Finding, Target, ORACLE_CAP};
use proptest::test_runner::TestRng;
use proptest::Strategy;

struct Args {
    targets: Vec<Target>,
    seeds: Vec<u32>,
    cases: u32,
    replay: ReplayConfig,
    corpus_dir: PathBuf,
    artifacts_dir: PathBuf,
    check_corpus: bool,
    promote: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        targets: vec![Target::Crdts, Target::Ledger],
        seeds: vec![0],
        cases: 32,
        replay: ReplayConfig {
            cap: ORACLE_CAP,
            workers: 1,
            ..ReplayConfig::default()
        },
        corpus_dir: PathBuf::from("tests/corpus"),
        artifacts_dir: PathBuf::from("target/fuzz-artifacts"),
        check_corpus: false,
        promote: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--target" => {
                args.targets = match value("--target")?.as_str() {
                    "crdts" => vec![Target::Crdts],
                    "ledger" => vec![Target::Ledger],
                    "all" => vec![Target::Crdts, Target::Ledger],
                    other => return Err(format!("unknown target {other}")),
                };
            }
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad seed {s}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--cases" => {
                args.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?;
            }
            "--workers" => {
                args.replay.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--cap" => {
                args.replay.cap = value("--cap")?
                    .parse()
                    .map_err(|e| format!("bad --cap: {e}"))?;
            }
            "--corpus" => args.corpus_dir = PathBuf::from(value("--corpus")?),
            "--artifacts" => args.artifacts_dir = PathBuf::from(value("--artifacts")?),
            "--check-corpus" => args.check_corpus = true,
            "--promote" => args.promote.push(PathBuf::from(value("--promote")?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("er-pi-fuzz: {e}");
            return ExitCode::from(2);
        }
    };

    if !args.promote.is_empty() {
        for path in &args.promote {
            let case: er_pi_fuzz::FuzzCase = match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
            {
                Ok(case) => case,
                Err(e) => {
                    eprintln!("er-pi-fuzz: cannot read case {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let Some(finding) = run_case(&case, &args.replay) else {
                eprintln!(
                    "er-pi-fuzz: case {} passes the oracle — nothing to promote",
                    path.display()
                );
                return ExitCode::from(2);
            };
            match corpus::save(&args.corpus_dir, &finding) {
                Ok(written) => println!("promoted {} -> {}", path.display(), written.display()),
                Err(e) => {
                    eprintln!("er-pi-fuzz: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let known = match corpus::load(&args.corpus_dir) {
        Ok(known) => known,
        Err(e) => {
            eprintln!("er-pi-fuzz: corpus unreadable: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "corpus: {} known finding(s) in {}",
        known.len(),
        args.corpus_dir.display()
    );

    if args.check_corpus {
        for (path, finding) in &known {
            match run_case(&finding.case, &args.replay) {
                Some(fresh)
                    if fresh.assertion == finding.assertion
                        && fresh.fault_dependent == finding.fault_dependent
                        && fresh.fingerprint == finding.fingerprint =>
                {
                    println!("corpus ok: {}", path.display());
                }
                other => {
                    eprintln!(
                        "er-pi-fuzz: corpus file {} no longer reproduces (got {:?})",
                        path.display(),
                        other.map(|f| f.assertion)
                    );
                    return ExitCode::from(2);
                }
            }
        }
    }

    let mut explored = 0u64;
    let mut new_findings: Vec<Finding> = Vec::new();
    for &target in &args.targets {
        let strategy = case_strategy(target);
        for &seed in &args.seeds {
            let name = format!("{}-{seed}", target.name());
            for case_idx in 0..args.cases {
                let mut rng = TestRng::for_case(&name, case_idx);
                let case = strategy.generate(&mut rng);
                explored += 1;
                let Some(finding) = run_case(&case, &args.replay) else {
                    continue;
                };
                let accepts = |c: &er_pi_fuzz::FuzzCase| {
                    run_case(c, &args.replay).is_some_and(|f| {
                        f.assertion == finding.assertion
                            && f.fault_dependent == finding.fault_dependent
                    })
                };
                let minimal = shrink(&case, &accepts);
                let shrunk = run_case(&minimal, &args.replay)
                    .expect("the shrinker's last accepted candidate still fails");
                println!(
                    "finding [{}/{seed}/{case_idx}] {}: {} ({} entries, {} fault(s), \
                     fault-dependent: {}, fingerprint {:016x})",
                    target.name(),
                    shrunk.assertion,
                    shrunk.message,
                    minimal.spec.entries.len(),
                    minimal.faults.len(),
                    shrunk.fault_dependent,
                    shrunk.fingerprint
                );
                if corpus::contains(&known, shrunk.fingerprint)
                    || new_findings
                        .iter()
                        .any(|f| f.fingerprint == shrunk.fingerprint)
                {
                    println!("  -> known (in corpus), continuing");
                } else {
                    new_findings.push(shrunk);
                }
            }
        }
    }

    println!(
        "explored {explored} case(s), {} new finding(s)",
        new_findings.len()
    );
    if new_findings.is_empty() {
        return ExitCode::SUCCESS;
    }
    for finding in &new_findings {
        match corpus::save(&args.artifacts_dir, finding) {
            Ok(path) => println!("  wrote artifact {}", path.display()),
            Err(e) => eprintln!("er-pi-fuzz: failed to write artifact: {e}"),
        }
    }
    eprintln!(
        "er-pi-fuzz: {} finding(s) not in the corpus — inspect {} and either fix the bug \
         or promote the artifact into tests/corpus/",
        new_findings.len(),
        args.artifacts_dir.display()
    );
    ExitCode::FAILURE
}
