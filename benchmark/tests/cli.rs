//! Drives the built binary the way the benchmark driver does: the four
//! contract arguments in, one JSON result line out.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::Content;

fn run_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_er-pi-benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary starts")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("a scratch directory under the target dir");
    dir
}

fn field<'a>(map: &'a Content, key: &str) -> &'a Content {
    let Content::Map(entries) = map else {
        panic!("expected an object around {key}");
    };
    serde::content_get(entries, key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn number(content: &Content) -> f64 {
    match content {
        Content::F64(v) => *v,
        Content::Int(v) => *v as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// The last stdout line, parsed, with its metric names in order.
fn result_of(output: &Output) -> (Content, Vec<String>) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "exit {:?}\n{stdout}\n{stderr}",
        output.status
    );
    let line = stdout.lines().last().expect("a result line");
    let doc: Content = serde_json::from_str(line).expect("the last line is JSON");
    let Content::Map(top) = &doc else {
        panic!("the result is not an object");
    };
    let keys: Vec<&str> = top
        .iter()
        .map(|(k, _)| match k {
            Content::Str(s) => s.as_str(),
            other => panic!("key {other:?}"),
        })
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&doc, "correct"), &Content::Bool(true));
    assert_eq!(number(field(&doc, "failed")), 0.0);
    assert!(number(field(&doc, "attempted")) >= 1.0);
    let Content::Map(metrics) = field(&doc, "metrics") else {
        panic!("metrics is not an object");
    };
    let names = metrics
        .iter()
        .map(|(k, _)| match k {
            Content::Str(s) => s.clone(),
            other => panic!("metric key {other:?}"),
        })
        .collect();
    (doc, names)
}

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Content = serde_json::from_str(&raw).expect("BENCHMARK.json parses");
    let Content::Seq(items) = field(&doc, section) else {
        panic!("{section} is not a list");
    };
    items
        .iter()
        .map(|m| match field(m, "name") {
            Content::Str(s) => s.clone(),
            other => panic!("name {other:?}"),
        })
        .collect()
}

#[test]
fn untraced_run_reports_every_end_to_end_metric_and_repeats_its_counts() {
    let dir = scratch_dir("untraced");
    let args = [
        "--workload",
        "town-dfs",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    let (first, names) = result_of(&run_in(&dir, &args));
    assert_eq!(names, declared("end_to_end"));
    let value =
        |doc: &Content, name: &str| number(field(field(field(doc, "metrics"), name), "value"));
    for name in &names {
        assert!(value(&first, name) > 0.0, "{name} must never be 0");
    }
    assert_eq!(
        field(field(field(&first, "metrics"), "setup_s"), "unit"),
        &Content::Str("s".to_owned())
    );

    // A second process, same seed: counted metrics agree to the last digit.
    let (second, _) = result_of(&run_in(&dir, &args));
    for exact in ["allocs_per_replay", "alloc_kib_per_replay", "peak_live_mib"] {
        assert_eq!(value(&first, exact), value(&second, exact), "{exact}");
    }
    assert!(
        !dir.join("benchmark").exists(),
        "an untraced run writes no files"
    );
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_writes_its_spans() {
    let dir = scratch_dir("traced");
    let args = [
        "--workload",
        "fault-subsume",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
    ];
    let (doc, names) = result_of(&run_in(&dir, &args));
    assert_eq!(names, declared("per_layer"));
    let value = |name: &str| number(field(field(field(&doc, "metrics"), name), "value"));
    // The layers this workload exists for are all visible.
    assert!(value("interleave.fault_plans") > 1.0);
    assert!(value("core.subsumed_share") > 0.5);
    assert!(value("model.encode_calls_per_replay") > 0.0);
    assert!(value("model.encode_bytes_per_call") > 0.0);
    let coverage = value("bench.span_coverage_share");
    assert!(coverage > 0.0 && coverage < 1.0, "coverage {coverage}");

    let trace = dir.join("benchmark/out/trace-fault-subsume.jsonl");
    let spans = std::fs::read_to_string(&trace).expect("the trace file was written");
    assert_eq!(spans.lines().count() as f64, value("bench.spans"));
    let first: Content = serde_json::from_str(spans.lines().next().expect("a span"))
        .expect("every line is a JSON object");
    for key in ["name", "start_ns", "end_ns", "parent", "campaign", "count"] {
        field(&first, key);
    }
    assert!(spans.contains("\"name\":\"campaign\""));
    assert!(spans.contains("\"name\":\"model.apply\""));
}

#[test]
fn bad_arguments_are_refused_without_a_result_line() {
    let dir = scratch_dir("refused");
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "town-dfs", "--trace", "2"],
        &["--seconds", "5"],
        &["--frobnicate"],
    ] {
        let output = run_in(&dir, args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
