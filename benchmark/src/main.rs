//! `er-pi-benchmark`: the calibrated single-core replay benchmark.
//!
//! ```text
//! er-pi-benchmark --workload <town-dfs|town-rand|catalogue|fault-subsume|all>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! er-pi-benchmark --selfcheck [--seed N] [--seconds S]
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits non-zero if any campaign's output was wrong. See
//! `README.md` beside this crate for the definitions.

mod alloc;
mod calib;
mod inputs;
mod layers;
mod metrics;
mod server_probe;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::Calibrator;
use inputs::Inputs;
use metrics::{RunResult, END_TO_END};
use workloads::{Tally, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up is repeated (and its median reported) while the repetitions fit
/// in this much wall time; the catalogue's set-up alone exceeds it and
/// runs once.
const SETUP_BUDGET: Duration = Duration::from_secs(4);
const SETUP_REPS_MAX: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 25.0,
        trace: false,
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run of one workload: set-up (repeated while it fits), then either
/// the untraced measurement or the traced pass.
fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    let inputs = Inputs::generate(seed, er_pi_subjects::Bug::catalogue().len());
    let mut calibrator =
        Calibrator::new().map_err(|e| format!("cannot start the kernel server: {e}"))?;
    let mut tally = Tally::default();

    let setup_started = Instant::now();
    let mut setup_samples = Vec::new();
    let mut prepared = None;
    while setup_samples.len() < SETUP_REPS_MAX {
        let (outcome, sample) =
            calibrator.bracket(|| workloads::set_up(workload, &inputs, &mut tally));
        prepared = Some(outcome?);
        setup_samples.push(sample);
        let per_rep = setup_started.elapsed() / setup_samples.len() as u32;
        if setup_started.elapsed() + per_rep > SETUP_BUDGET {
            break;
        }
    }
    let mut prepared = prepared.expect("set-up ran at least once");

    let values = if traced {
        let path = PathBuf::from(format!("benchmark/out/trace-{}.jsonl", workload.name()));
        let values = layers::run(&mut prepared, &inputs, &mut calibrator, &mut tally, &path);
        println!("# spans written to {}", path.display());
        values
    } else {
        let budget = Duration::from_secs_f64(seconds);
        let samples = workloads::measure(&mut prepared, &mut calibrator, &mut tally, budget);
        let (mut values, notes) = workloads::end_to_end(&prepared, &samples, &calibrator);
        values.insert("setup_s", calib::ref_ms(&setup_samples) / 1e3);
        for note in notes {
            println!("# {note}");
        }
        println!("# setup_s: over {} set-up(s)", setup_samples.len());
        values
    };
    Ok(RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
    })
}

fn print_table(workload: Workload, result: &RunResult, traced: bool) {
    println!(
        "# workload {} ({}): {} campaigns attempted, {} failed",
        workload.name(),
        if traced { "traced" } else { "untraced" },
        result.attempted,
        result.failed
    );
    for (name, unit, better) in metrics::reported(traced) {
        if let Some(value) = result.values.get(name) {
            println!(
                "{name:40} {value:>16.4} {unit:8} ({} is better)",
                better.as_str()
            );
        }
    }
}

/// One untraced run of `workload` in a process of its own, read back from
/// its result line — what the driver does, so `setup_s` really starts at
/// process start and no run inherits another's heap.
fn run_in_child(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    RunResult::from_json(line, false).ok_or(format!("unreadable result line: {line}"))
}

/// Runs every workload twice, each run in its own process and the second
/// pass in reverse order, and holds the two values of every end-to-end
/// metric against each other: a timing may differ by half its bound, a
/// counted metric not at all.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut order: Vec<Workload> = Workload::ALL.to_vec();
    let mut passes: Vec<Vec<(Workload, RunResult)>> = Vec::new();
    for _ in 0..2 {
        let mut pass = Vec::new();
        for &workload in &order {
            eprintln!("selfcheck: running {}", workload.name());
            pass.push((workload, run_in_child(workload, seed, seconds)?));
        }
        passes.push(pass);
        order.reverse();
    }
    let mut green = true;
    println!(
        "{:14} {:22} {:>16} {:>16} {:>9} {:>9}  verdict",
        "workload", "metric", "first", "second", "gap", "allowed"
    );
    for (workload, first) in &passes[0] {
        let (_, second) = passes[1]
            .iter()
            .find(|(w, _)| w == workload)
            .expect("both passes ran every workload");
        if !(first.correct() && second.correct()) {
            green = false;
            println!(
                "{:14} campaigns failed: {} and {}",
                workload.name(),
                first.failed,
                second.failed
            );
        }
        for metric in END_TO_END {
            let (a, b) = (first.values[metric.name], second.values[metric.name]);
            let gap = (a - b).abs() / a.abs().min(b.abs());
            let allowed = if metric.exact {
                0.0
            } else {
                metric.bound / 2.0
            };
            let ok = gap <= allowed;
            green &= ok;
            println!(
                "{:14} {:22} {:>16.4} {:>16.4} {:>8.3}% {:>8.3}%  {}",
                workload.name(),
                metric.name,
                a,
                b,
                gap * 100.0,
                allowed * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    println!("selfcheck: {}", if green { "green" } else { "RED" });
    Ok(green)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(calib::KERNEL_SERVER_FLAG) {
        return match calib::serve_kernel(std::io::stdin().lock(), std::io::stdout().lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::from(1),
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("er-pi-benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return match selfcheck(args.seed, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(error) => {
                eprintln!("er-pi-benchmark: {error}");
                ExitCode::from(1)
            }
        };
    }

    let Some(name) = args.workload else {
        eprintln!("er-pi-benchmark: --workload <name|all> or --selfcheck is required");
        return ExitCode::from(2);
    };
    let workloads: Vec<Workload> = if name == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::from_name(&name) {
            Some(workload) => vec![workload],
            None => {
                eprintln!("er-pi-benchmark: unknown workload {name}");
                return ExitCode::from(2);
            }
        }
    };
    let mut all_correct = true;
    for workload in workloads {
        match run_workload(workload, args.seed, args.seconds, args.trace) {
            Ok(result) => {
                print_table(workload, &result, args.trace);
                println!("{}", result.to_json(args.trace));
                all_correct &= result.correct();
            }
            Err(error) => {
                eprintln!("er-pi-benchmark: {}: {error}", workload.name());
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
