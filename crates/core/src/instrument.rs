//! What a replay writes to while it runs: the caller's [`Attachments`] and
//! the per-replay [`Instrument`] built from them.

use std::sync::Arc;

use er_pi_model::Workload;
use er_pi_telemetry::{Progress, ProgressSnapshot, Telemetry, COORDINATOR_TRACK};

use crate::metrics::SessionMetrics;
use crate::{CancelToken, ReplayConfig, ResourceProfile, TimeModel};

/// The periodic progress callback of [`Attachments::progress`].
pub type ProgressHook = Arc<dyn Fn(&ProgressSnapshot) + Send + Sync>;

/// The handles a replay reports through or is stopped by — everything a
/// caller may attach that is not configuration. All of them are outside the
/// determinism boundary: any combination leaves the [`Report`](crate::Report)
/// byte-identical to a detached run (the `telemetry_equivalence`,
/// `forensics_equivalence` and `parallel_props` suites pin this), which is
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
    /// `slots` worker tallies and seeded with the cap and the a-priori
    /// campaign projection.
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
            let campaign_secs = expected.map(|cap| {
                ResourceProfile::for_workload(workload, time).campaign_secs(cap as usize)
            });
            Arc::new(
                Progress::new(slots.max(1))
                    .with_expected_total(expected)
                    .with_campaign_secs(campaign_secs),
            )
        });
        Instrument {
            attach: self.clone(),
            progress,
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
    pub progress: Option<Arc<Progress>>,
}

impl Instrument {
    /// Records one finished run on `worker`'s tally and, every
    /// [`Attachments::progress_every`] runs, samples the progress counters
    /// into the sink and invokes the hook. `cache_hit` is `None` when
    /// incremental replay is off; `subsumed` whether state-hash subsumption
    /// stitched the run's tail instead of executing it.
    pub fn run_done(&self, worker: usize, cache_hit: Option<bool>, subsumed: bool) {
        if let Some(metrics) = &self.attach.metrics {
            metrics.run_done(cache_hit, subsumed);
        }
        let Some(progress) = &self.progress else {
            return;
        };
        let total = progress.record_run(worker, cache_hit, subsumed);
        let every = self.attach.progress_every;
        if every > 0 && total % every as u64 == 0 {
            self.sample(progress);
        }
    }

    /// Samples the aggregator into counters and the hook.
    pub fn sample(&self, progress: &Progress) {
        let telemetry = &self.attach.telemetry;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_telemetry::MemorySink;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn unwatched_instrument_ignores_runs() {
        let w = Workload::builder().build();
        let time = TimeModel::paper_setup();
        let i = Attachments::default().instrument(&w, 1, &ReplayConfig::default(), &time);
        assert!(i.progress.is_none(), "nobody is watching");
        i.run_done(0, Some(true), false); // no aggregator: no-op
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
        };
        for _ in 0..7 {
            i.run_done(0, Some(false), false);
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
