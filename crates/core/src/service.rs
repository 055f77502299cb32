//! The shared replay executor: one process-wide set of worker threads
//! stepping many concurrent campaigns.
//!
//! [`Session::replay`](crate::Session::replay) steps its campaign from
//! scoped threads of its own — the right shape for one session, the wrong
//! one for a daemon running many. [`ExecutorService`] is the other driver
//! of the same [`Campaign`]: long-lived threads, a queue, and the priority
//! pick; everything a replay *does* happens in [`Campaign::step`].
//!
//! * each campaign keeps its own dispenser, so the exploration indices —
//!   and therefore the merged, deterministic result — are exactly what a
//!   standalone replay produces, no matter how many campaigns are
//!   co-scheduled;
//! * worker threads always serve the oldest campaign of the most urgent
//!   priority (`(priority, submission)` order — FIFO within a priority
//!   band), one chunk per pick, with the campaign's per-slot incremental
//!   executors keeping prefix locality across the multiplexing;
//! * cancellation is cooperative and per-campaign: a tripped
//!   [`CancelToken`](crate::CancelToken) stops that campaign at its next
//!   chunk boundary ([`ErPiError::Cancelled`], partial results discarded)
//!   without disturbing anything co-scheduled — the contract behind the
//!   campaign server's `DELETE /campaigns/:id`.
//!
//! Campaigns are submitted through
//! [`Session::replay_on`](crate::Session::replay_on), which blocks the
//! *submitting* thread until the service finishes the campaign — the
//! service parallelizes runs within and across campaigns, not the
//! submitters themselves.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use er_pi_telemetry::Registry;
use parking_lot::{Condvar, Mutex};

use crate::campaign::{available_workers, Campaign, Outcome, Phase, Subject};
use crate::metrics::SvcMetrics;
use crate::{ErPiError, SystemModel, TestSuite};

/// What the worker threads see of a campaign: claim-and-execute one chunk,
/// or abort. Type-erased so campaigns over different models share a queue.
trait ServiceJob: Send + Sync {
    /// Scheduling key: `(priority, submission sequence)` — lower first.
    fn order_key(&self) -> (u8, u64);
    /// Claims and executes one chunk on worker `slot`; returns where that
    /// leaves the campaign.
    fn run_chunk(&self, slot: usize) -> Phase;
    /// Merges a settled campaign and hands the result to the submitter —
    /// by whichever worker gets there first, exactly once.
    fn fulfil(&self);
    /// Fulfils the campaign as cancelled (service shutdown path).
    fn abort(&self);
}

/// One queued campaign with the model and suite it is stepped against,
/// owned because the worker threads outlive the submitting call.
struct CampaignTask<M: SystemModel> {
    campaign: Campaign<'static, M>,
    model: M,
    suite: TestSuite<M::State>,
    priority: u8,
    seq: u64,
    fulfilled: AtomicBool,
    done: Mutex<Option<Result<Outcome, ErPiError>>>,
    done_cv: Condvar,
}

impl<M> ServiceJob for CampaignTask<M>
where
    M: SystemModel + Send + Sync,
    M::State: Send + Sync,
{
    fn order_key(&self) -> (u8, u64) {
        (self.priority, self.seq)
    }

    fn run_chunk(&self, slot: usize) -> Phase {
        let on = Subject {
            model: &self.model,
            suite: &self.suite,
        };
        self.campaign.step(slot, on);
        self.campaign.phase()
    }

    fn fulfil(&self) {
        if !self.fulfilled.swap(true, Ordering::AcqRel) {
            *self.done.lock() = Some(self.campaign.finish());
            self.done_cv.notify_all();
        }
    }

    fn abort(&self) {
        self.campaign.abort();
        if self.campaign.phase() == Phase::Settled {
            self.fulfil();
        }
    }
}

/// The queue and wake-up machinery shared between the service handle and
/// its worker threads.
struct ServiceCore {
    /// Queued campaigns; scanned for the minimum
    /// [`order_key`](ServiceJob::order_key) on every pick. Campaign counts
    /// are small (a server queue, not a task graph), so a scan beats a
    /// heap that would need re-keying on removal.
    queue: Mutex<Vec<Arc<dyn ServiceJob>>>,
    available: Condvar,
    shutdown: AtomicBool,
}

impl ServiceCore {
    /// The most urgent claimable campaign, if any.
    fn pick(queue: &[Arc<dyn ServiceJob>]) -> Option<Arc<dyn ServiceJob>> {
        queue
            .iter()
            .min_by_key(|job| job.order_key())
            .map(Arc::clone)
    }

    fn worker_loop(&self, slot: usize) {
        loop {
            let job = {
                let mut queue = self.queue.lock();
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(job) = Self::pick(&queue) {
                        break job;
                    }
                    queue = self.available.wait(queue);
                }
            };
            let phase = job.run_chunk(slot);
            if phase != Phase::Claiming {
                // The campaign is drained: drop it from the queue. Retain
                // by identity — several slots can discover the drain and
                // the removal must be idempotent.
                self.queue.lock().retain(|j| !Arc::ptr_eq(j, &job));
            }
            if phase == Phase::Settled {
                // After the removal, so a submitter that wakes up finds
                // its campaign gone from the queue.
                job.fulfil();
            }
        }
    }
}

/// A process-wide pool of replay worker threads multiplexing many
/// concurrent campaigns, each submitted with
/// [`Session::replay_on`](crate::Session::replay_on).
///
/// Campaigns are served in `(priority, submission)` order — priority `0`
/// is the most urgent, and within a priority band the service drains
/// campaigns FIFO, ganging every idle worker onto the front campaign (the
/// same chunked dispensing a standalone replay does, so reports stay
/// byte-identical to it). Dropping the service joins its threads;
/// campaigns still queued at that point complete with
/// [`ErPiError::Cancelled`] so no submitter is left waiting.
///
/// ```
/// use er_pi::ExecutorService;
///
/// let service = ExecutorService::new(2);
/// assert_eq!(service.workers(), 2);
/// // `Session::replay_on(&service, priority, &suite)` replays campaigns
/// // on it — see the session docs.
/// ```
pub struct ExecutorService {
    core: Arc<ServiceCore>,
    workers: usize,
    seq: AtomicU64,
    /// Shared latency histograms, when the embedder attached a metric
    /// registry ([`ExecutorService::with_registry`]); the instrument of
    /// every campaign replayed here observes into them.
    pub(crate) metrics: Option<SvcMetrics>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ExecutorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorService")
            .field("workers", &self.workers)
            .field("queued", &self.core.queue.lock().len())
            .finish()
    }
}

impl ExecutorService {
    /// Spawns a service with `workers` threads (`0` means "all available
    /// cores", honouring the `ER_PI_WORKERS` override like
    /// [`Session::set_workers`](crate::Session::set_workers)).
    pub fn new(workers: usize) -> Self {
        Self::spawn(workers, None)
    }

    /// Like [`ExecutorService::new`], with service-wide latency histograms
    /// (chunk-claim wait, per-run replay latency) registered into
    /// `registry`.
    pub fn with_registry(workers: usize, registry: &Registry) -> Self {
        Self::spawn(workers, Some(SvcMetrics::new(registry)))
    }

    fn spawn(workers: usize, metrics: Option<SvcMetrics>) -> Self {
        let workers = if workers == 0 {
            available_workers()
        } else {
            workers
        };
        let core = Arc::new(ServiceCore {
            queue: Mutex::new(Vec::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|slot| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("er-pi-svc-{slot}"))
                    .spawn(move || core.worker_loop(slot))
                    .expect("spawn service worker")
            })
            .collect();
        ExecutorService {
            core,
            workers,
            seq: AtomicU64::new(0),
            metrics,
            handles,
        }
    }

    /// The number of worker threads (and therefore concurrent replay
    /// slots) this service multiplexes campaigns over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Campaigns currently queued or executing.
    pub fn queued(&self) -> usize {
        self.core.queue.lock().len()
    }

    /// Submits one campaign (set up with [`ExecutorService::workers`]
    /// slots) and blocks until the service completes it.
    ///
    /// # Errors
    ///
    /// [`ErPiError::Cancelled`] if the campaign's token tripped (or the
    /// service shut down) before it finished;
    /// [`ErPiError::ExecutorPanic`] if the model panicked in a worker.
    pub(crate) fn run_campaign<M>(
        &self,
        campaign: Campaign<'static, M>,
        model: M,
        suite: TestSuite<M::State>,
        priority: u8,
    ) -> Result<Outcome, ErPiError>
    where
        M: SystemModel + Send + Sync + 'static,
        M::State: Send + Sync,
    {
        assert_eq!(campaign.slots(), self.workers, "one slot per worker");
        let task = Arc::new(CampaignTask {
            campaign,
            model,
            suite,
            priority,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            fulfilled: AtomicBool::new(false),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
        });
        {
            let mut queue = self.core.queue.lock();
            queue.push(Arc::clone(&task) as Arc<dyn ServiceJob>);
            self.core.available.notify_all();
        }
        let mut done = task.done.lock();
        loop {
            match done.take() {
                Some(result) => return result,
                None => done = task.done_cv.wait(done),
            }
        }
    }
}

impl Drop for ExecutorService {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Whatever is still queued will never run: fulfil each campaign as
        // cancelled so no submitter blocks forever.
        for job in std::mem::take(&mut *self.core.queue.lock()) {
            job.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::testing::{dfs_params, two_writes, Bomb, RegApp};
    use crate::campaign::DEFAULT_CHUNK_SIZE;
    use crate::{Assertion, CancelToken};
    use er_pi_model::{ReplicaId, Value, Workload};

    /// A DFS campaign over the two-writes workload, sized for `service`.
    fn campaign(
        service: &ExecutorService,
        stop_on_first_violation: bool,
        cancel: Option<CancelToken>,
    ) -> Campaign<'static, RegApp> {
        let mut params = dfs_params(two_writes(), service.workers());
        params.replay.stop_on_first_violation = stop_on_first_violation;
        params.instrument.attach.cancel = cancel;
        Campaign::new(params, DEFAULT_CHUNK_SIZE)
    }

    fn standalone(stop_on_first_violation: bool, suite: &TestSuite<i64>) -> Outcome {
        let mut params = dfs_params(two_writes(), 1);
        params.replay.stop_on_first_violation = stop_on_first_violation;
        let model = &RegApp;
        Campaign::new(params, DEFAULT_CHUNK_SIZE)
            .run(Subject { model, suite })
            .unwrap()
    }

    #[test]
    fn one_campaign_matches_a_standalone_run() {
        let suite = TestSuite::new();
        let baseline = standalone(false, &suite);
        for workers in [1, 2, 4] {
            let service = ExecutorService::new(workers);
            let out = service
                .run_campaign(campaign(&service, false, None), RegApp, suite.clone(), 5)
                .unwrap();
            assert_eq!(out.explored, 24);
            assert_eq!(
                out.runs, baseline.runs,
                "{workers} service workers must preserve exploration order"
            );
            assert_eq!(out.sim_us, baseline.sim_us);
            assert!(!out.stopped_early);
        }
    }

    #[test]
    fn co_scheduled_campaigns_do_not_interfere() {
        let service = Arc::new(ExecutorService::new(2));
        let suite = TestSuite::new().with(Assertion::replicas_converge("conv"));
        let handles: Vec<_> = (0..3u8)
            .map(|priority| {
                let service = Arc::clone(&service);
                let suite = suite.clone();
                std::thread::spawn(move || {
                    let campaign = campaign(&service, true, None);
                    service
                        .run_campaign(campaign, RegApp, suite, priority)
                        .unwrap()
                })
            })
            .collect();
        let baseline = standalone(true, &suite);
        for handle in handles {
            let out = handle.join().unwrap();
            assert_eq!(out.first_violation_at, baseline.first_violation_at);
            assert_eq!(out.runs, baseline.runs);
            assert_eq!(out.violations, baseline.violations);
            assert_eq!(out.sim_us, baseline.sim_us);
            assert!(out.stopped_early);
        }
        assert_eq!(service.queued(), 0);
    }

    #[test]
    fn a_tripped_token_cancels_only_that_campaign() {
        for workers in [1, 2] {
            let service = ExecutorService::new(workers);
            let token = CancelToken::new();
            token.cancel();
            let suite = TestSuite::new();
            let cancelled = service.run_campaign(
                campaign(&service, false, Some(token)),
                RegApp,
                suite.clone(),
                0,
            );
            assert!(matches!(cancelled, Err(ErPiError::Cancelled)));
            // A co-resident campaign without a tripped token still completes.
            let out = service
                .run_campaign(campaign(&service, false, None), RegApp, suite, 0)
                .unwrap();
            assert_eq!(out.explored, 24);
        }
    }

    #[test]
    fn model_panics_surface_without_poisoning_the_service() {
        let mut w = Workload::builder();
        w.update(ReplicaId::new(0), "x", [Value::from(1)]);
        w.update(ReplicaId::new(0), "y", [Value::from(2)]);
        let w = w.build();
        for workers in [1, 2] {
            let service = ExecutorService::new(workers);
            let bomb = Campaign::new(dfs_params(w.clone(), workers), DEFAULT_CHUNK_SIZE);
            match service.run_campaign(bomb, Bomb, TestSuite::new(), 0) {
                Err(ErPiError::ExecutorPanic(what)) => assert!(what.contains("campaign kaboom")),
                other => panic!(
                    "expected ExecutorPanic, got {:?}",
                    other.map(|o| o.explored)
                ),
            }
            // The service itself survives the panic.
            let out = service
                .run_campaign(campaign(&service, false, None), RegApp, TestSuite::new(), 0)
                .unwrap();
            assert_eq!(out.explored, 24);
        }
    }

    #[test]
    fn abort_fulfils_the_campaign_as_cancelled() {
        // The shutdown path Drop relies on: aborting a never-picked
        // campaign fulfils it so its submitter cannot block forever.
        let task = Arc::new(CampaignTask {
            campaign: Campaign::new(dfs_params(two_writes(), 1), DEFAULT_CHUNK_SIZE),
            model: RegApp,
            suite: TestSuite::new(),
            priority: 0,
            seq: 0,
            fulfilled: AtomicBool::new(false),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
        });
        let job: Arc<dyn ServiceJob> = Arc::clone(&task) as Arc<dyn ServiceJob>;
        job.abort();
        let done = task.done.lock().take().expect("abort fulfils the result");
        assert!(matches!(done, Err(ErPiError::Cancelled)));
        // Idempotent: a second abort (e.g. a redundant Drop sweep) is a
        // no-op on the already-fulfilled campaign.
        job.abort();
        assert!(task.done.lock().is_none(), "taken once, not refilled");
    }

    #[test]
    fn an_idle_service_shuts_down_cleanly() {
        let service = ExecutorService::new(3);
        assert_eq!(service.workers(), 3);
        assert_eq!(service.queued(), 0);
        drop(service); // joins the three idle workers without hanging
    }
}
