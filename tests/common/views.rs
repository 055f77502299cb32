//! A campaign watched through every observer at once — a sink, a metric
//! registry and a progress hook — and the table that holds what each saw
//! to the others, by name.

use std::sync::{Arc, Mutex};

use er_pi::telemetry::{
    hit_rate, EventKind, MemorySink, ProgressSnapshot, Registry, Sink, Telemetry, TelemetryEvent,
};
use er_pi::{Attachments, ReplayConfig, Report, SessionMetrics};
use er_pi_subjects::Bug;

/// The telemetry attachment over `sink`.
pub fn sink_attachment(sink: Arc<dyn Sink>) -> Attachments {
    Attachments {
        telemetry: Telemetry::new(sink),
        ..Attachments::default()
    }
}

/// A campaign watched through every observer at once, and what each saw.
pub struct Watched {
    pub report: Report,
    pub events: Vec<TelemetryEvent>,
    /// The registry's exposition; the campaign's series carry one label,
    /// `campaign`.
    pub exposition: String,
    /// The progress hook's last snapshot.
    pub last: ProgressSnapshot,
}

/// `bug` replayed under `config`, watched.
pub fn replay_watched(bug: &Bug, config: &ReplayConfig) -> Watched {
    watch(bug.name, |attach| {
        bug.replay_report_checked(config, attach).0
    })
}

/// The campaign `replay` runs into the attachments it is handed, watched
/// through every observer at once; `name` labels its registry series.
pub fn watch(name: &str, replay: impl FnOnce(Attachments) -> Report) -> Watched {
    let sink = Arc::new(MemorySink::new());
    let registry = Arc::new(Registry::new());
    let last = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&last);
    let attach = Attachments {
        metrics: Some(SessionMetrics::new(&registry, &[("campaign", name)])),
        progress: Some(Arc::new(move |snapshot: &ProgressSnapshot| {
            *seen.lock().unwrap() = Some(snapshot.clone());
        })),
        ..sink_attachment(sink.clone())
    };
    let report = replay(attach);
    let last = last.lock().unwrap().take();
    Watched {
        report,
        events: sink.events(),
        exposition: registry.render_prometheus(),
        last: last.expect("every watched replay ends with a sample"),
    }
}

impl Watched {
    /// The values of every series of family `name`, with their label sets.
    fn series(&self, name: &str) -> Vec<(&str, f64)> {
        let samples = self.exposition.lines().filter_map(|line| {
            let (labels, value) = line
                .strip_prefix(name)?
                .strip_prefix('{')?
                .split_once("} ")?;
            Some((labels, value.parse().expect("a sample value")))
        });
        samples.collect()
    }

    /// The campaign's one series of family `name`, if it was ever set.
    fn metric(&self, name: &str) -> Option<f64> {
        let series = self.series(name);
        assert!(series.len() <= 1, "{name}: {series:?}");
        series.first().map(|&(_, value)| value)
    }

    fn count(&self, name: &str) -> u64 {
        self.metric(name).unwrap_or_else(|| panic!("no {name}")) as u64
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a TelemetryEvent> {
        self.events.iter().filter(move |event| event.name == name)
    }
}

/// The agreement table: each fact once per view that shows it, compared by
/// name. `config` is what the campaign replayed under, `label` names it.
pub fn assert_views_agree(watched: &Watched, config: &ReplayConfig, label: &str) {
    let Watched { report, last, .. } = watched;
    let summary = &report.session_summary;

    // Executed: every run a slot replayed, in five views; explored: what
    // the report retains of them.
    let executed = summary.executed as u64;
    let by_worker: usize = summary.workers.iter().map(|load| load.runs).sum();
    assert_eq!(by_worker, summary.executed, "{label}: Σ workers[].runs");
    assert_eq!(
        watched.count("er_pi_campaign_runs_total"),
        executed,
        "{label}: er_pi_campaign_runs_total"
    );
    assert_eq!(last.runs_done, executed, "{label}: last snapshot");
    assert_eq!(
        last.per_worker_runs.iter().sum::<u64>(),
        executed,
        "{label}"
    );
    assert_eq!(
        watched.named("run").count(),
        summary.executed,
        "{label}: run spans"
    );
    assert_eq!(summary.explored, report.explored, "{label}");
    assert!(summary.executed >= report.explored, "{label}");
    if !config.stop_on_first_violation {
        assert_eq!(summary.executed, report.explored, "{label}: exhaustive");
    }
    let first_line = summary.render().lines().next().unwrap().to_owned();
    assert_eq!(
        first_line.contains("executed"),
        summary.executed != summary.explored,
        "{label}: {first_line}"
    );

    // Cache attribution: wherever the executors keep snapshots, and
    // nowhere else — a subsumption-only campaign has no hit rate to show.
    let cache = report.cache_stats.unwrap_or_default();
    let (hits, misses) = match config.incremental {
        true => (cache.hits, cache.misses),
        false => (0, 0),
    };
    let rate = hit_rate(hits, misses);
    assert_eq!(
        watched.count("er_pi_campaign_cache_hits_total"),
        hits,
        "{label}"
    );
    assert_eq!(
        watched.count("er_pi_campaign_cache_misses_total"),
        misses,
        "{label}"
    );
    assert_eq!(last.cache_hit_rate, rate, "{label}: last snapshot");
    assert_eq!(
        watched.metric("er_pi_campaign_cache_hit_rate"),
        rate,
        "{label}: er_pi_campaign_cache_hit_rate"
    );
    let rendered = summary.render();
    assert_eq!(
        rendered.contains("\n  cache: "),
        rate.is_some(),
        "{label}: {rendered}"
    );
    assert_eq!(
        watched.count("er_pi_campaign_subsumed_total"),
        cache.subsumed,
        "{label}"
    );
    assert_eq!(last.subsumed_runs, cache.subsumed, "{label}: last snapshot");
    assert_eq!(
        rendered.contains("\n  subsumption: "),
        cache.subsumed > 0,
        "{label}: {rendered}"
    );

    // One row per pruner, one spelling: the summary's rows are the
    // registry's `algorithm` labels and the trace's `prune:` spans.
    let rows: Vec<_> = summary.pruners.iter().map(|row| row.name).collect();
    let spans: Vec<_> = watched
        .events
        .iter()
        .filter_map(|event| event.name.strip_prefix("prune:"))
        .collect();
    assert_eq!(spans, rows, "{label}: prune spans");
    let pruned = watched.series("er_pi_campaign_pruned_total");
    assert_eq!(pruned.len(), rows.len(), "{label}: {pruned:?}");
    for row in &summary.pruners {
        let algorithm = format!("algorithm=\"{}\"", row.name);
        let series = pruned
            .iter()
            .find(|(labels, _)| labels.ends_with(&algorithm));
        let rejected = series.map(|&(_, rejected)| rejected as u64);
        assert_eq!(rejected, Some(row.rejected), "{label}: {algorithm}");
    }

    // The low-hit-rate rule: in the report, latched in the registry and
    // warned into the sink, or in none of them.
    let advised = report.advisories.len();
    assert!(advised <= 1, "{label}: {:?}", report.advisories);
    assert_eq!(
        watched.metric("er_pi_cache_low_hit_rate"),
        Some(advised as f64),
        "{label}: er_pi_cache_low_hit_rate"
    );
    let warnings: Vec<_> = watched.named("cache:low-hit-rate").collect();
    assert_eq!(warnings.len(), advised, "{label}: {warnings:?}");
    for (warning, advisory) in warnings.iter().zip(&report.advisories) {
        let EventKind::Warning { message } = &warning.kind else {
            panic!("{label}: {warning:?}");
        };
        let sentence = "checkpoint-cache hit rate 0.0% over ";
        assert!(message.starts_with(sentence), "{label}: {message}");
        assert!(advisory.starts_with(sentence), "{label}: {advisory}");
        assert_eq!(warning.track, 0, "{label}: once, on the coordinator track");
    }
}
