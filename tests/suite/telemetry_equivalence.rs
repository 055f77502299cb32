//! Differential-equivalence harness for the telemetry layer.
//!
//! Telemetry is strictly *write-only*: attaching any sink — the no-op
//! [`NullSink`], the in-memory collector, the JSON Lines stream or the
//! Chrome trace-event stream — must leave the [`Report`] byte-identical to
//! a detached session. The catalogue matrix (`common::matrix`) pins that
//! for a sink, a registry and a progress hook at once over the whole
//! catalogue, in its incremental + subsumption column; the other tests cover
//! every sink kind on a bug per subject family, randomize the knob matrix
//! under proptest, and reach what the matrix never enters (a refusing cache,
//! co-tenant traces).
//! `Report::diff` compares every deterministic field; only wall-clock
//! time, worker loads, cache counters and the session summary are
//! legitimately scheduling-dependent.
//!
//! The observers are also checked against each other: a campaign watched
//! through a sink, a metric registry and a progress hook at once must tell
//! one story — `common::views::assert_views_agree`.

use crate::common::matrix::sweep;
use crate::common::views::{assert_views_agree, replay_watched, sink_attachment, watch};
use crate::common::WORKER_COUNTS;
use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use er_pi::telemetry::{
    ChromeTraceSink, JsonLinesSink, MemorySink, NullSink, SharedBuf, Sink, TelemetryEvent,
    HIT_RATE_WINDOW,
};
use er_pi::{
    Assertion, Attachments, OpOutcome, PruningConfig, ReplayConfig, Report, Session, SystemModel,
    TestSuite, DEFAULT_CACHE_BUDGET,
};
use er_pi_model::{Event, EventId, ReplicaId, Value};
use er_pi_subjects::{
    Bug, OrbitConfig, OrbitModel, ReplicaDbModel, ReplicationMode, RoshiModel, TownApp, YorkieModel,
};

/// One replay of `bug` under the paper's cap, into `sink` if there is one.
fn replay(bug: &Bug, stop: bool, workers: usize, sink: Option<Arc<dyn Sink>>) -> Report {
    let config = ReplayConfig {
        stop_on_first_violation: stop,
        workers,
        ..ReplayConfig::default()
    };
    let attach = sink.map(sink_attachment).unwrap_or_default();
    bug.replay_report_checked(&config, attach).0
}

/// Builds the sink variant `which` (0–3) and returns it with a closure that
/// sanity-checks whatever the sink produced after the replay.
fn make_sink(which: usize) -> (Arc<dyn Sink>, Box<dyn FnOnce()>) {
    match which % 4 {
        0 => (Arc::new(NullSink), Box::new(|| {})),
        1 => {
            let sink = Arc::new(MemorySink::new());
            let probe = sink.clone();
            (
                sink,
                Box::new(move || {
                    assert!(!probe.events().is_empty(), "memory sink collected nothing");
                }),
            )
        }
        2 => {
            let buf = SharedBuf::new();
            let probe = buf.clone();
            (
                Arc::new(JsonLinesSink::new(buf)),
                Box::new(move || {
                    assert_jsonl_schema(&probe.contents());
                }),
            )
        }
        _ => {
            let buf = SharedBuf::new();
            let probe = buf.clone();
            let sink = Arc::new(ChromeTraceSink::new(buf));
            let closer = sink.clone();
            (
                sink,
                Box::new(move || {
                    closer.close();
                    assert_chrome_trace_shape(&probe.contents());
                }),
            )
        }
    }
}

/// Every line of a JSON Lines stream is one object with a known `kind`,
/// the common keys and that kind's payload keys. Returns the kinds seen.
fn assert_jsonl_schema(contents: &str) -> BTreeSet<&str> {
    assert!(!contents.is_empty(), "jsonl sink wrote nothing");
    let mut kinds = BTreeSet::new();
    for line in contents.lines() {
        assert!(
            line.starts_with("{\"kind\":\"") && line.ends_with('}'),
            "malformed jsonl line: {line}"
        );
        let kind = line["{\"kind\":\"".len()..].split('"').next().unwrap();
        let payload: &[&str] = match kind {
            "span" => &["dur_us", "args"],
            "instant" => &["args"],
            "counter" => &["value"],
            "warning" => &["message"],
            _ => panic!("unknown event kind {kind:?} in line: {line}"),
        };
        for key in ["name", "ts_us", "track"].iter().chain(payload) {
            assert!(
                line.contains(&format!("\"{key}\":")),
                "{kind} line lacks {key}: {line}"
            );
        }
        kinds.insert(kind);
    }
    kinds
}

/// A closed Chrome trace is one JSON array of event objects with the
/// Perfetto-required fields, including the thread-name metadata events.
fn assert_chrome_trace_shape(contents: &str) {
    let trimmed = contents.trim();
    assert!(trimmed.starts_with('['), "trace is not an array: {trimmed}");
    assert!(trimmed.ends_with(']'), "trace was not closed: {trimmed}");
    assert!(
        trimmed.contains("\"ph\":\"M\"") && trimmed.contains("thread_name"),
        "trace lacks track metadata"
    );
    assert!(
        trimmed.contains("\"ph\":\"X\""),
        "trace lacks complete spans"
    );
    for line in trimmed.lines().skip(1) {
        let obj = line.trim_end_matches(&[',', ']'][..]);
        if obj.is_empty() {
            continue;
        }
        assert!(
            obj.starts_with('{') && obj.ends_with('}'),
            "malformed trace object: {line}"
        );
        assert!(obj.contains("\"pid\":"), "object lacks pid: {line}");
        assert!(obj.contains("\"tid\":"), "object lacks tid: {line}");
    }
}

fn assert_identical(reference: &Report, attached: &Report, label: &str) {
    assert_eq!(
        reference.diff(attached),
        None,
        "{label}: attaching a sink changed the report"
    );
}

/// The full catalogue at every worker count, exhaustive: a session with a
/// collecting sink — and a registry and a progress hook — diffs clean
/// against a detached reference, and what the three observers saw agrees.
/// These are the matrix's watched cells; their stop-first half belongs to
/// `forensics_equivalence`.
#[test]
fn any_sink_never_changes_the_report() {
    sweep(false, |cell| cell.incremental && cell.subsumption);
}

/// A subject model whose every snapshot outweighs the whole snapshot
/// budget: an incremental executor over it keeps nothing and every run
/// misses — a refusing cache, made by the model's `state_size_hint`.
#[derive(Clone)]
struct Refusing<M>(M);

impl<M: SystemModel> SystemModel for Refusing<M> {
    type State = M::State;

    fn replicas(&self) -> usize {
        self.0.replicas()
    }

    fn init(&self, replica: ReplicaId) -> M::State {
        self.0.init(replica)
    }

    fn apply(&self, states: &mut [M::State], event: &Event) -> OpOutcome {
        self.0.apply(states, event)
    }

    fn observe(&self, state: &M::State) -> Value {
        self.0.observe(state)
    }

    fn recover(&self, states: &mut [M::State], replica: ReplicaId) {
        self.0.recover(states, replica)
    }

    fn state_encode(&self, state: &M::State, out: &mut Vec<u8>) -> bool {
        self.0.state_encode(state, out)
    }

    fn replica_digest(&self, state: &M::State) -> Option<u128> {
        self.0.replica_digest(state)
    }

    fn state_size_hint(&self, _state: &M::State) -> usize {
        DEFAULT_CACHE_BUDGET + 1
    }
}

/// `bug`'s workload and pruning rules replayed on `model` under `config`
/// into `attach`, checked for convergence.
fn replay_on<M>(model: M, bug: &Bug, config: &ReplayConfig, attach: Attachments) -> Report
where
    M: SystemModel + Sync,
    M::State: Send + Sync,
{
    let mut session = Session::with_config(model, *config, attach);
    session.set_workload(bug.workload().clone());
    session.set_config(bug.pruning_config().clone());
    let suite = TestSuite::new().with(Assertion::replicas_converge("converge"));
    session.replay(&suite).expect("workload installed")
}

/// The refusing cache over `bug`'s own model, at every worker count: the
/// report diffs clean against the plain model's, the views agree, and the
/// low-hit-rate rule fires exactly on the campaigns that reach its window.
fn assert_a_refusing_cache_agrees<M>(bug: &str, model: M, base: ReplayConfig)
where
    M: SystemModel + Clone + Sync,
    M::State: Send + Sync,
{
    let bug = Bug::by_name(bug).expect("catalogue bug");
    let one = ReplayConfig { workers: 1, ..base };
    let reference = replay_on(model.clone(), &bug, &one, Attachments::default());
    for workers in WORKER_COUNTS {
        let config = ReplayConfig { workers, ..base };
        let refusing = Refusing(model.clone());
        let watched = watch(bug.name, |attach| {
            replay_on(refusing, &bug, &config, attach)
        });
        let label = format!("{} refusing cache workers={workers}", bug.name);
        assert_identical(&reference, &watched.report, &label);
        assert_views_agree(&watched, &config, &label);
        let advised = !watched.report.advisories.is_empty();
        let past_the_window = reference.explored as u64 >= HIT_RATE_WINDOW;
        assert_eq!(advised, past_the_window, "{label}");
    }
}

/// What the catalogue sweep's default configuration never enters, on one
/// bug per subject family: executors that keep no snapshots but subsume
/// (no hit rate in any view), subsumption over incremental replay, and a
/// model whose snapshots the cache refuses (the low-hit-rate rule fires
/// exactly on the campaigns that reach its window).
#[test]
fn the_views_agree_under_subsumption_and_a_refusing_cache() {
    const CAP: usize = 2_000;
    let base = ReplayConfig {
        cap: CAP,
        ..ReplayConfig::default()
    };
    let variants = [
        (
            "subsumption only",
            ReplayConfig {
                incremental: false,
                subsumption: true,
                ..base
            },
        ),
        (
            "incremental + subsumption",
            ReplayConfig {
                subsumption: true,
                ..base
            },
        ),
    ];
    for name in ["Roshi-1", "OrbitDB-2", "ReplicaDB-1", "Yorkie-1"] {
        let bug = Bug::by_name(name).expect("catalogue bug");
        let reference = bug.replay_report_opts(&ReplayConfig { workers: 1, ..base });
        for (variant, config) in variants {
            for workers in WORKER_COUNTS {
                let config = ReplayConfig { workers, ..config };
                let watched = replay_watched(&bug, &config);
                let label = format!("{name} {variant} workers={workers}");
                assert_identical(&reference, &watched.report, &label);
                assert_views_agree(&watched, &config, &label);
            }
        }
    }
    // The refusing cache, each bug on its own model.
    assert_a_refusing_cache_agrees("Roshi-1", RoshiModel::new(2), base);
    let skewed = OrbitConfig {
        max_clock_skew: Some(1_000),
        ..OrbitConfig::default()
    };
    assert_a_refusing_cache_agrees("OrbitDB-2", OrbitModel::with_config(2, skewed), base);
    let complete = ReplicaDbModel::new(ReplicationMode::Complete, 2 * 64);
    assert_a_refusing_cache_agrees("ReplicaDB-1", complete, base);
    assert_a_refusing_cache_agrees("Yorkie-1", YorkieModel::new(2), base);

    // The stream a `warning` line really occurs in: all four event kinds,
    // each with its payload keys.
    let buf = SharedBuf::new();
    let yorkie = Bug::by_name("Yorkie-1").expect("catalogue bug");
    replay_on(
        Refusing(YorkieModel::new(2)),
        &yorkie,
        &ReplayConfig { workers: 1, ..base },
        sink_attachment(Arc::new(JsonLinesSink::new(buf.clone()))),
    );
    let stream = buf.contents();
    let kinds = assert_jsonl_schema(&stream);
    assert_eq!(
        Vec::from_iter(kinds),
        ["counter", "instant", "span", "warning"]
    );
}

/// The sink matrix — null, memory, jsonl, chrome-trace — on a
/// representative bug per subject family, with the output of each stream
/// sink schema-checked.
#[test]
fn every_sink_kind_is_write_only_and_well_formed() {
    for name in ["Roshi-1", "OrbitDB-1", "Yorkie-2"] {
        let bug = Bug::by_name(name).expect("catalogue bug");
        let reference = replay(&bug, false, 1, None);
        for which in 0..4 {
            for workers in WORKER_COUNTS {
                let (sink, check) = make_sink(which);
                let attached = replay(&bug, false, workers, Some(sink));
                assert_identical(
                    &reference,
                    &attached,
                    &format!("{name} sink#{which} workers={workers}"),
                );
                check();
            }
        }
    }
}

/// The attached report still carries the session summary (excluded from
/// `diff`), and the summary's deterministic counters agree with the report.
#[test]
fn attached_report_carries_a_consistent_summary() {
    // ReplicaDB-1 enables independence and failed-ops pruning, so the
    // summary's attribution table must be populated.
    let bug = Bug::by_name("ReplicaDB-1").expect("catalogue bug");
    let sink = Arc::new(MemorySink::new());
    let report = replay(&bug, false, 2, Some(sink));
    let summary = &report.session_summary;
    assert_eq!(summary.explored, report.explored);
    assert_eq!(summary.violations, report.violations.len());
    assert_eq!(summary.sim_us, report.sim_us);
    assert_eq!(summary.workers.len(), 2, "one load entry per pool worker");
    assert!(
        !summary.pruners.is_empty(),
        "ER-π mode must attribute its pruning"
    );
    let rendered = summary.render();
    assert!(rendered.contains("session summary"));
}

/// Every replayed run lands as one `run` span, so a trace is a complete
/// account of the campaign.
#[test]
fn trace_run_spans_match_explored_count() {
    let bug = Bug::by_name("ReplicaDB-1").expect("catalogue bug");
    for workers in WORKER_COUNTS {
        let sink = Arc::new(MemorySink::new());
        let report = replay(&bug, false, workers, Some(sink.clone()));
        let runs = sink
            .events()
            .iter()
            .filter(|e: &&TelemetryEvent| e.name == "run")
            .count();
        assert_eq!(
            runs, report.explored,
            "workers={workers}: trace dropped or duplicated run spans"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized knob matrix: any catalogue bug, any worker count 1–4,
    /// either scheduling mode, any sink kind — the report never moves.
    #[test]
    fn report_is_invariant_under_any_sink(
        bug_idx in 0usize..12,
        workers in 1usize..5,
        stop in any::<bool>(),
        which in 0usize..4,
    ) {
        let catalogue = Bug::catalogue();
        let bug = &catalogue[bug_idx];
        let reference = replay(bug, stop, 1, None);
        let (sink, check) = make_sink(which);
        let attached = replay(bug, stop, workers, Some(sink));
        prop_assert_eq!(
            reference.diff(&attached),
            None,
            "{} stop={} workers={} sink#{}",
            bug.name,
            stop,
            workers,
            which
        );
        check();
    }
}

/// S3 co-tenancy: two campaigns multiplexed over one shared
/// [`ExecutorService`], each streaming into its own Chrome trace sink.
/// Concurrent emission from shared worker threads must never tear a JSON
/// object or leak one campaign's events into the other's trace — every
/// line of each buffer parses on its own, and each trace carries a
/// coherent track set of its own.
#[test]
fn co_tenant_chrome_traces_stay_separate_and_well_formed() {
    use er_pi::ExecutorService;

    let service = Arc::new(ExecutorService::new(2));
    let spawn = |name: &'static str| {
        let buf = SharedBuf::new();
        let sink = Arc::new(ChromeTraceSink::new(buf.clone()));
        let service = Arc::clone(&service);
        let handle = std::thread::spawn({
            let sink = sink.clone();
            move || {
                let bug = Bug::by_name(name).expect("catalogue bug");
                let erased: Arc<dyn Sink> = sink.clone();
                let report = bug
                    .replay_report_on(
                        &service,
                        5,
                        &ReplayConfig::default(),
                        sink_attachment(erased),
                    )
                    .expect("co-scheduled campaign completes");
                sink.close();
                report
            }
        });
        (name, buf, handle)
    };
    let campaigns = [spawn("Roshi-1"), spawn("ReplicaDB-2")];
    for (name, buf, handle) in campaigns {
        let report = handle.join().expect("campaign thread");
        assert!(report.explored > 0, "{name}: campaign replayed nothing");
        let contents = buf.contents();
        assert_chrome_trace_shape(&contents);
        let mut tracks = std::collections::BTreeSet::new();
        for line in contents.trim().lines().skip(1) {
            let object = line.trim_end_matches(&[',', ']'][..]);
            if object.is_empty() {
                continue;
            }
            let value: serde::Content = serde_json::from_str(object).unwrap_or_else(|e| {
                panic!("{name}: torn or interleaved trace object {object:?}: {e}")
            });
            let serde::Content::Map(entries) = &value else {
                panic!("{name}: trace line is not an object: {object:?}");
            };
            let tid = entries
                .iter()
                .find_map(|(k, v)| match (k, v) {
                    (serde::Content::Str(k), serde::Content::Int(n)) if k == "tid" => Some(*n),
                    _ => None,
                })
                .expect("every object has a tid");
            tracks.insert(tid);
        }
        assert!(
            !tracks.is_empty(),
            "{name}: trace carries no addressed events"
        );
    }
}

/// A State-4 reseed hands the campaign a new explorer, and the campaign
/// observes it as it observed the first: per-filter wall time and the live
/// sleep-set tally go on counting across the reseed. The first explorer
/// prunes nothing (sleep sets are on, but no pair is declared to commute
/// yet), so every pruner row and every live sleep prune comes from the
/// replacement, built after the rule is ingested at the poll after run 99.
#[test]
fn a_reseeded_explorer_is_observed_like_the_first() {
    let dir = std::env::temp_dir().join(format!("er-pi-observed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Five ungrouped updates: 5! = 120 interleavings, one poll at run 100.
    let mut session = Session::new(TownApp::new(2));
    session.record(|app| {
        for (i, issue) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            app.invoke(ReplicaId::new((i % 2) as u16), "add", [Value::from(issue)]);
        }
    });
    let rule =
        PruningConfig::default().with_independent_set(vec![EventId::new(1), EventId::new(3)]);
    // The rule file appears while run 0 is being checked, so the pre-replay
    // poll misses it and the poll after run 99 ingests it.
    let rule_json = serde_json::to_string(&rule).unwrap();
    let path = dir.join("rule.json");
    let suite = TestSuite::new().with_assertion("drop-the-rule", move |_ctx| {
        if !path.exists() {
            std::fs::write(&path, &rule_json).unwrap();
        }
        Ok(())
    });
    let last = Arc::new(std::sync::Mutex::new(None));
    let seen = Arc::clone(&last);
    session
        .set_config(PruningConfig::default().with_sleep_sets(true))
        .set_telemetry(Arc::new(MemorySink::new()))
        .set_progress_hook(1, move |snap| *seen.lock().unwrap() = Some(snap.clone()))
        .watch_constraints(&dir)
        .set_workers(1);
    let report = session.replay(&suite).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(report.explored < 120, "the ingested rule shrank the space");
    let stats = report.prune_stats.expect("ER-π mode");
    assert!(
        stats.sleep_rejected > 0,
        "the replacement prunes: {stats:?}"
    );
    let pruners = &report.session_summary.pruners;
    assert!(pruners.iter().any(|row| row.name == "sleep"), "{pruners:?}");
    for row in pruners.iter().filter(|row| row.checked > 0) {
        assert!(
            row.wall_ns > 0,
            "{} went untimed after the reseed",
            row.name
        );
    }
    let last = last.lock().unwrap().clone().expect("the hook fired");
    assert_eq!(
        last.sleep_prunes, stats.sleep_rejected,
        "the live tally counts the replacement's sleep prunes"
    );
}
