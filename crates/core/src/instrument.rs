//! What a replay writes to while it runs: the caller's [`Attachments`] and
//! the per-replay [`Instrument`] built from them — the one place a campaign
//! is observed.

use std::sync::Arc;
use std::time::Instant;

use er_pi_interleave::ErPiExplorer;
use er_pi_model::Workload;
use er_pi_telemetry::{worker_track, Progress, ProgressSnapshot, Telemetry, COORDINATOR_TRACK};

use crate::metrics::{SessionMetrics, SvcMetrics};
use crate::{CancelToken, ReplayConfig, SessionSummary, TimeModel};

/// The periodic progress callback of [`Attachments::progress`].
pub type ProgressHook = Arc<dyn Fn(&ProgressSnapshot) + Send + Sync>;

/// The handles a replay reports through or is stopped by — everything a
/// caller may attach that is not configuration. All of them are outside the
/// determinism boundary: any combination leaves the [`Report`](crate::Report)
/// byte-identical to a detached run (the root test suite's
/// `telemetry_equivalence`, `forensics_equivalence` and `parallel_props`
/// modules under `tests/suite` pin this), which is
/// why they are kept apart from the [`ReplayConfig`] data.
#[derive(Clone)]
pub struct Attachments {
    /// The telemetry handle ([`Session::set_telemetry`](crate::Session::set_telemetry));
    /// disabled by default.
    pub telemetry: Telemetry,
    /// Label-scoped registry counters
    /// ([`Session::set_metrics`](crate::Session::set_metrics)).
    pub metrics: Option<SessionMetrics>,
    /// The periodic progress callback
    /// ([`Session::set_progress_hook`](crate::Session::set_progress_hook)).
    pub progress: Option<ProgressHook>,
    /// Sample period of the progress counters and callback, in finished
    /// runs (default 256).
    pub progress_every: usize,
    /// The cooperative cancel token
    /// ([`Session::set_cancel_token`](crate::Session::set_cancel_token)).
    pub cancel: Option<CancelToken>,
}

impl Default for Attachments {
    fn default() -> Self {
        Attachments {
            telemetry: Telemetry::disabled(),
            metrics: None,
            progress: None,
            progress_every: 256,
            cancel: None,
        }
    }
}

impl Attachments {
    /// Builds the instrument of one replay: these handles plus — when
    /// anyone is watching — the shared progress aggregator sized for
    /// `slots` worker tallies, counting into the registry's own series when
    /// there is one, and seeded with the cap and the a-priori campaign
    /// projection.
    pub(crate) fn instrument(
        &self,
        workload: &Workload,
        slots: usize,
        config: &ReplayConfig,
        time: &TimeModel,
    ) -> Instrument {
        let watching =
            self.telemetry.is_active() || self.progress.is_some() || self.metrics.is_some();
        let progress = watching.then(|| {
            let expected = (config.cap < usize::MAX).then_some(config.cap as u64);
            let campaign_secs =
                expected.map(|cap| time.run_cost_us(workload) as f64 * cap as f64 / 1e6);
            let cells = self.metrics.as_ref().map(SessionMetrics::run_cells);
            Arc::new(
                Progress::new(slots.max(1))
                    .with_cells(cells.unwrap_or_default())
                    .with_expected_total(expected)
                    .with_campaign_secs(campaign_secs),
            )
        });
        Instrument {
            attach: self.clone(),
            progress,
            snapshots: config.incremental,
            svc: None,
        }
    }
}

/// Everything the replay loop needs to observe one campaign: the caller's
/// [`Attachments`] and the shared progress aggregator. An unwatched
/// campaign (no active sink, hook or registry) has no aggregator and costs
/// one branch per instrumented site. Clones share the aggregator — that is
/// what lets the [`ExecutorService`](crate::ExecutorService) own an
/// instrument per campaign while the session keeps sampling it.
#[derive(Clone, Default)]
pub(crate) struct Instrument {
    pub attach: Attachments,
    progress: Option<Arc<Progress>>,
    /// The executors keep snapshots (`incremental`), so a run's resume depth
    /// says hit or miss. A zero-budget subsumption-only executor always
    /// resumes from depth 0 and would report a fictitious 0 % hit rate.
    snapshots: bool,
    /// The executor service's shared latency histograms, when the campaign
    /// runs on a service that has a registry attached.
    pub svc: Option<SvcMetrics>,
}

/// When an observed stretch began: on the sink's clock for spans, and on
/// the wall clock for the service's latency histograms. Neither clock is
/// read unless its consumer is attached.
#[derive(Clone, Copy)]
pub(crate) struct Stamp {
    span_us: u64,
    wall: Option<Instant>,
}

/// What the campaign loop knows about one finished run.
pub(crate) struct RunFacts {
    pub slot: usize,
    pub index: usize,
    pub resumed_depth: usize,
    pub subsumed: bool,
    pub sim_us: u64,
    pub failed_ops: usize,
    /// Assertions checked.
    pub assertions: usize,
    pub violated: bool,
    pub started: Stamp,
    pub check_started: Stamp,
}

impl Instrument {
    /// Turns on what the explorer measures only for an observer: per-filter
    /// wall time (two clock reads per evaluation) when a sink will show it,
    /// and the live sleep-set prune tally (inert when sleep sets are off or
    /// no pair of units commutes) when anyone is watching.
    pub fn observe_explorer(&self, explorer: &mut ErPiExplorer<'_>) {
        if self.attach.telemetry.is_active() {
            explorer.enable_timing();
        }
        if let Some(progress) = &self.progress {
            explorer.set_sleep_tally(progress.sleep_tally());
        }
    }

    /// Now, on each clock an attached observer will measure from.
    pub fn stamp(&self) -> Stamp {
        Stamp {
            span_us: self.attach.telemetry.start(),
            wall: self.svc.as_ref().map(|_| Instant::now()),
        }
    }

    /// `slot` claimed `count` interleavings from exploration index `first`
    /// on, having asked at `asked`.
    pub fn chunk_claimed(&self, slot: usize, asked: Stamp, first: usize, count: usize) {
        if let (Some(svc), Some(wall)) = (&self.svc, asked.wall) {
            svc.claim_wait.observe_us(wall.elapsed().as_micros() as u64);
        }
        let telemetry = &self.attach.telemetry;
        if telemetry.is_active() {
            telemetry.span_since(
                worker_track(slot),
                "claim",
                asked.span_us,
                vec![("first_index", first.into()), ("count", count.into())],
            );
        }
    }

    /// Books one finished run everywhere it shows: the service's latency
    /// histogram, the `check` and `run` spans, the slot's tally and — every
    /// [`Attachments::progress_every`] runs — a sample.
    pub fn run_done(&self, run: RunFacts) {
        if let (Some(svc), Some(wall)) = (&self.svc, run.started.wall) {
            svc.run_latency
                .observe_us(wall.elapsed().as_micros() as u64);
        }
        let telemetry = &self.attach.telemetry;
        if telemetry.is_active() {
            let track = worker_track(run.slot);
            telemetry.span_since(
                track,
                "check",
                run.check_started.span_us,
                vec![
                    ("assertions", run.assertions.into()),
                    ("violated", run.violated.into()),
                ],
            );
            telemetry.span_since(
                track,
                "run",
                run.started.span_us,
                vec![
                    ("index", run.index.into()),
                    ("resumed_depth", run.resumed_depth.into()),
                    ("sim_us", run.sim_us.into()),
                    ("violated", run.violated.into()),
                    ("failed_ops", run.failed_ops.into()),
                ],
            );
        }
        let Some(progress) = &self.progress else {
            return;
        };
        let cache_hit = self.snapshots.then_some(run.resumed_depth > 0);
        let total = progress.record_run(run.slot, cache_hit, run.subsumed);
        let every = self.attach.progress_every;
        if every > 0 && total % every as u64 == 0 {
            self.sample(progress);
        }
    }

    /// Applies the low-hit-rate rule to the tally — its first firing warns
    /// on the coordinator track and latches the registry gauge — and samples
    /// the tally into counters and the hook.
    fn sample(&self, progress: &Progress) {
        let telemetry = &self.attach.telemetry;
        if let Some(message) = progress.low_hit_rate_warning() {
            if let Some(metrics) = &self.attach.metrics {
                metrics.low_hit_rate().set(1.0);
            }
            telemetry.warn(COORDINATOR_TRACK, "cache:low-hit-rate", message);
        }
        // A snapshot allocates: only for a sink or a hook to consume it.
        if !telemetry.is_active() && self.attach.progress.is_none() {
            return;
        }
        let snapshot = progress.snapshot();
        telemetry.counter(
            COORDINATOR_TRACK,
            "progress:runs_per_sec",
            snapshot.runs_per_sec,
        );
        if let Some(rate) = snapshot.cache_hit_rate {
            telemetry.counter(COORDINATOR_TRACK, "progress:cache_hit_rate", rate);
        }
        if let Some(eta) = snapshot.eta_secs {
            telemetry.counter(COORDINATOR_TRACK, "progress:eta_secs", eta);
        }
        if let Some(hook) = &self.attach.progress {
            hook(&snapshot);
        }
    }

    /// Closes the campaign's account: one aggregate span per pruner row
    /// (`prune:<name>`, laid out back-to-back with the measured in-filter
    /// wall time as the duration, so Perfetto renders the algorithms as
    /// adjacent blocks), the `summary` instant, a last sample, and the
    /// registry's end-of-campaign fold.
    pub fn campaign_done(&self, summary: &SessionSummary) {
        let telemetry = &self.attach.telemetry;
        if telemetry.is_active() {
            let mut cursor = telemetry.now_us();
            for row in &summary.pruners {
                let dur_us = row.wall_ns / 1_000;
                telemetry.span(
                    COORDINATOR_TRACK,
                    format!("prune:{}", row.name),
                    cursor,
                    dur_us,
                    vec![
                        ("checked", row.checked.into()),
                        ("rejected", row.rejected.into()),
                        ("wall_ns", row.wall_ns.into()),
                    ],
                );
                cursor += dur_us.max(1);
            }
            telemetry.instant(
                COORDINATOR_TRACK,
                "summary",
                vec![
                    ("explored", summary.explored.into()),
                    ("violations", summary.violations.into()),
                    ("sim_us", summary.sim_us.into()),
                    ("rendered", summary.render().into()),
                ],
            );
        }
        if let Some(progress) = &self.progress {
            self.sample(progress);
        }
        telemetry.flush();
        if let Some(metrics) = &self.attach.metrics {
            metrics.finish(summary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_telemetry::{MemorySink, NullSink};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn miss(i: &Instrument) {
        i.run_done(RunFacts {
            slot: 0,
            index: 0,
            resumed_depth: 0,
            subsumed: false,
            sim_us: 0,
            failed_ops: 0,
            assertions: 0,
            violated: false,
            started: i.stamp(),
            check_started: i.stamp(),
        });
    }

    #[test]
    fn unwatched_instrument_ignores_runs() {
        let w = Workload::builder().build();
        let time = TimeModel::paper_setup();
        let null_sink = Attachments {
            telemetry: Telemetry::new(Arc::new(NullSink)),
            ..Attachments::default()
        };
        // A NullSink campaign is the detached path, not a cheap watched one.
        for attach in [Attachments::default(), null_sink] {
            let i = attach.instrument(&w, 1, &ReplayConfig::default(), &time);
            assert!(i.progress.is_none(), "nobody is watching");
            miss(&i); // no aggregator: no-op
        }
    }

    #[test]
    fn hook_fires_on_the_sample_period() {
        let sink = Arc::new(MemorySink::new());
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        let i = Instrument {
            attach: Attachments {
                telemetry: Telemetry::new(sink.clone()),
                progress: Some(Arc::new(move |snap: &ProgressSnapshot| {
                    assert!(snap.runs_done > 0);
                    fired2.fetch_add(1, Ordering::Relaxed);
                })),
                progress_every: 3,
                ..Attachments::default()
            },
            progress: Some(Arc::new(Progress::new(1))),
            snapshots: true,
            svc: None,
        };
        for _ in 0..7 {
            miss(&i);
        }
        assert_eq!(fired.load(Ordering::Relaxed), 2, "fires at runs 3 and 6");
        assert!(sink
            .events()
            .iter()
            .any(|e| e.name == "progress:runs_per_sec"));
        assert!(sink
            .events()
            .iter()
            .any(|e| e.name == "progress:cache_hit_rate"));
    }
}
