//! The shared replay executor: one process-wide worker pool multiplexing
//! many concurrent campaigns.
//!
//! [`ReplayPool`](crate::ReplayPool) spawns scoped threads per replay —
//! the right shape for one session, the wrong one for a daemon running
//! many. [`ExecutorService`] lifts the pool's scheduling discipline into
//! long-lived threads shared by every campaign in the process:
//!
//! * each campaign keeps its own [`IndexedSource`] dispenser, so the
//!   exploration indices — and therefore the merged, deterministic result
//!   — are exactly what a private pool (or the sequential loop) would
//!   produce, no matter how many campaigns are co-scheduled;
//! * worker threads always serve the oldest campaign of the most urgent
//!   priority (`(priority, submission)` order — FIFO within a priority
//!   band), claiming contiguous chunks of the campaign's configured size
//!   ([`DEFAULT_CHUNK_SIZE`](crate::DEFAULT_CHUNK_SIZE) by default) exactly like
//!   the pool, with per-`(campaign, slot)` incremental executors so
//!   prefix locality survives the multiplexing;
//! * cancellation is cooperative and per-campaign: a tripped
//!   [`CancelToken`] stops that campaign at its next chunk boundary
//!   ([`ErPiError::Cancelled`], partial results discarded) without
//!   disturbing anything co-scheduled — the contract behind the campaign
//!   server's `DELETE /campaigns/:id`.
//!
//! Campaigns are submitted through
//! [`Session::replay_on`](crate::Session::replay_on), which blocks the
//! *submitting* thread until the service finishes the campaign — the
//! service parallelizes runs within and across campaigns, not the
//! submitters themselves.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use er_pi_interleave::IndexedSource;
use er_pi_model::{Interleaving, Workload};
use er_pi_telemetry::{worker_track, Registry};
use parking_lot::{Condvar, Mutex};

use crate::instrument::Instrument;
use crate::metrics::SvcMetrics;
use crate::pool::{execute_one, panic_message, PoolOutput, WorkerRun, NO_VIOLATION};
use crate::subsume::SubsumeSet;
use crate::{
    CacheStats, CancelToken, ErPiError, IncrementalExecutor, ReplayPool, SystemModel, TestSuite,
    TimeModel, Violation, WorkerLoad,
};

/// Everything a campaign ships to the service besides its exploration
/// source: the cloned model, workload, suite, and replay knobs.
pub(crate) struct CampaignParams<M: SystemModel> {
    pub model: M,
    pub workload: Workload,
    pub time: TimeModel,
    pub suite: TestSuite<M::State>,
    pub stop_on_first_violation: bool,
    pub incremental_budget: Option<usize>,
    /// The campaign-wide explored-set for state-hash subsumption, shared
    /// by every slot's executor (`None` when subsumption is off).
    pub subsume: Option<Arc<SubsumeSet<M::State>>>,
    /// Dispenser claim granularity, in interleavings (min 1).
    pub chunk_size: usize,
    pub instrument: Instrument,
    pub cancel: Option<CancelToken>,
}

/// What the worker threads see of a campaign: claim-and-execute one chunk,
/// or abort. Type-erased so campaigns over different models share a queue.
trait ServiceJob: Send + Sync {
    /// Scheduling key: `(priority, submission sequence)` — lower first.
    fn order_key(&self) -> (u8, u64);
    /// Claims and executes one chunk on worker `slot`. Returns `true` when
    /// the campaign will never hand out another chunk (drained, stopped,
    /// or cancelled) and should leave the queue. `metrics` is the
    /// service's shared latency histograms, when a registry is attached.
    fn run_chunk(&self, slot: usize, metrics: Option<&SvcMetrics>) -> bool;
    /// Fulfils the campaign as cancelled (service shutdown path).
    fn abort(&self);
}

/// The state guarded by the campaign's dispenser lock: the indexed source
/// plus the bookkeeping that decides who finalizes.
struct DispState<I> {
    /// `Some` until the submitter harvests it back after completion.
    source: Option<IndexedSource<I>>,
    /// Chunks claimed but not yet fully executed.
    inflight: usize,
    /// No further chunks will ever be claimed.
    exhausted: bool,
    /// The campaign's own [`CancelToken`] tripped at a chunk boundary.
    ext_cancelled: bool,
}

/// One queued campaign: the pool's shared-state machinery (sink, lowest
/// violation, panic note, per-slot executors) reified into a long-lived
/// object instead of scoped-thread captures.
struct CampaignTask<M: SystemModel, I> {
    params: CampaignParams<M>,
    priority: u8,
    seq: u64,
    disp: Mutex<DispState<I>>,
    sink: Mutex<Vec<WorkerRun>>,
    lowest_violation: AtomicUsize,
    /// Internal stop: a violation under stop-on-first, or a model panic.
    stop: AtomicBool,
    panicked: Mutex<Option<String>>,
    /// Per-slot incremental executors, taken out for the duration of a
    /// chunk and put back — the service's equivalent of the pool's
    /// one-executor-per-worker locality.
    executors: Mutex<BTreeMap<usize, IncrementalExecutor<M>>>,
    loads: Mutex<BTreeMap<usize, WorkerLoad>>,
    finalized: AtomicBool,
    done: Mutex<Option<Result<PoolOutput, ErPiError>>>,
    done_cv: Condvar,
}

impl<M, I> CampaignTask<M, I>
where
    M: SystemModel + Send + Sync,
    M::State: Send + Sync,
    I: Iterator<Item = Interleaving> + Send,
{
    /// Finalizes the campaign if every claimed chunk has completed and no
    /// more will be claimed. Called under the dispenser lock, by whichever
    /// worker gets there last — exactly once.
    fn maybe_finalize(&self, disp: &mut DispState<I>) {
        if !disp.exhausted || disp.inflight != 0 {
            return;
        }
        if self.finalized.swap(true, Ordering::AcqRel) {
            return;
        }
        let result = if disp.ext_cancelled {
            // Partial results are discarded wholesale: the caller asked the
            // campaign to stop, not for an answer.
            Err(ErPiError::Cancelled)
        } else if let Some(what) = self.panicked.lock().take() {
            Err(ErPiError::ExecutorPanic(what))
        } else {
            Ok(self.merge())
        };
        *self.done.lock() = Some(result);
        self.done_cv.notify_all();
    }

    /// The pool's merge, verbatim: sort by exploration index, truncate at
    /// the lowest violation under stop-on-first, sum the rest.
    fn merge(&self) -> PoolOutput {
        let mut produced = std::mem::take(&mut *self.sink.lock());
        produced.sort_unstable_by_key(|run| run.index);

        let lowest = self.lowest_violation.load(Ordering::Acquire);
        let cancelled = self.params.stop_on_first_violation && lowest != NO_VIOLATION;
        if cancelled {
            produced.truncate(lowest + 1);
        }

        let mut runs = Vec::with_capacity(produced.len());
        let mut violations = Vec::new();
        let mut sim_us = 0u64;
        for run in produced {
            debug_assert_eq!(run.index, runs.len(), "merged indices must be dense");
            sim_us += run.record.sim_us;
            for (assertion, message) in run.violations {
                violations.push(Violation {
                    run: Some(run.index),
                    assertion,
                    message,
                    interleaving: Some(run.record.interleaving.clone()),
                });
            }
            runs.push(run.record);
        }

        let mut cache_stats: Option<CacheStats> = None;
        for executor in std::mem::take(&mut *self.executors.lock()).into_values() {
            cache_stats
                .get_or_insert_with(CacheStats::default)
                .absorb(&executor.stats());
        }

        PoolOutput {
            runs,
            violations,
            first_violation_at: (lowest != NO_VIOLATION).then_some(lowest),
            sim_us,
            cancelled,
            worker_loads: std::mem::take(&mut *self.loads.lock())
                .into_values()
                .collect(),
            cache_stats,
        }
    }
}

impl<M, I> ServiceJob for CampaignTask<M, I>
where
    M: SystemModel + Send + Sync,
    M::State: Send + Sync,
    I: Iterator<Item = Interleaving> + Send,
{
    fn order_key(&self) -> (u8, u64) {
        (self.priority, self.seq)
    }

    fn run_chunk(&self, slot: usize, metrics: Option<&SvcMetrics>) -> bool {
        // Claim-then-execute under the campaign's own dispenser lock —
        // chunk boundaries are the only places stop flags and the cancel
        // token are honoured, so a claimed chunk always executes in full
        // and the dispensed index range stays dense for the merge.
        let claim_started = metrics.map(|_| std::time::Instant::now());
        let chunk = {
            let mut disp = self.disp.lock();
            if disp.exhausted {
                return true;
            }
            if self
                .params
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
            {
                disp.ext_cancelled = true;
                disp.exhausted = true;
                self.maybe_finalize(&mut disp);
                return true;
            }
            if self.stop.load(Ordering::Acquire) {
                disp.exhausted = true;
                self.maybe_finalize(&mut disp);
                return true;
            }
            let chunk = disp
                .source
                .as_mut()
                .expect("source stays in place until the campaign completes")
                .next_chunk(self.params.chunk_size.max(1));
            if chunk.is_empty() {
                disp.exhausted = true;
                self.maybe_finalize(&mut disp);
                return true;
            }
            disp.inflight += 1;
            chunk
        };
        if let (Some(metrics), Some(started)) = (metrics, claim_started) {
            metrics
                .claim_wait
                .observe_us(started.elapsed().as_micros() as u64);
        }

        let telemetry = self.params.instrument.telemetry.clone();
        let track = worker_track(slot);
        // Take the slot's executor out for the whole chunk; another slot
        // serving this campaign concurrently uses its own.
        let mut executor = self.executors.lock().remove(&slot).or_else(|| {
            match (self.params.incremental_budget, &self.params.subsume) {
                (None, None) => None,
                (budget, sub) => {
                    let mut e = IncrementalExecutor::<M>::new(budget.unwrap_or(0));
                    if let Some(set) = sub {
                        e.enable_subsumption(Arc::clone(set));
                    }
                    Some(e)
                }
            }
        });

        let mut chunk = chunk.into_iter().peekable();
        while let Some((index, il)) = chunk.next() {
            let run_started = metrics.map(|_| std::time::Instant::now());
            let executed = catch_unwind(AssertUnwindSafe(|| {
                execute_one(
                    &self.params.model,
                    &self.params.workload,
                    index,
                    il,
                    chunk.peek().map(|(_, next)| next),
                    &self.params.time,
                    &self.params.suite,
                    executor.as_mut(),
                    &telemetry,
                    track,
                )
            }));
            if let (Some(metrics), Some(started)) = (metrics, run_started) {
                metrics
                    .run_latency
                    .observe_us(started.elapsed().as_micros() as u64);
            }
            match executed {
                Ok(run) => {
                    {
                        let mut loads = self.loads.lock();
                        let load = loads.entry(slot).or_insert(WorkerLoad {
                            worker: slot,
                            runs: 0,
                            sim_us: 0,
                        });
                        load.runs += 1;
                        load.sim_us += run.record.sim_us;
                    }
                    if !run.violations.is_empty() {
                        self.lowest_violation.fetch_min(run.index, Ordering::AcqRel);
                        if self.params.stop_on_first_violation {
                            self.stop.store(true, Ordering::Release);
                        }
                    }
                    // As in the pool: no hit/miss attribution from a
                    // zero-budget subsumption-only executor.
                    let cache_hit = self
                        .params
                        .incremental_budget
                        .and_then(|_| executor.as_ref().map(|e| e.last_resume_depth() > 0));
                    let subsumed = executor
                        .as_ref()
                        .is_some_and(IncrementalExecutor::last_run_subsumed);
                    self.params.instrument.run_done(slot, cache_hit, subsumed);
                    self.sink.lock().push(run);
                }
                Err(payload) => {
                    let mut note = self.panicked.lock();
                    if note.is_none() {
                        *note = Some(panic_message(payload.as_ref()));
                    }
                    self.stop.store(true, Ordering::Release);
                    break;
                }
            }
        }

        if let Some(executor) = executor {
            self.executors.lock().insert(slot, executor);
        }

        let mut disp = self.disp.lock();
        disp.inflight -= 1;
        self.maybe_finalize(&mut disp);
        false
    }

    fn abort(&self) {
        let mut disp = self.disp.lock();
        disp.ext_cancelled = true;
        disp.exhausted = true;
        self.maybe_finalize(&mut disp);
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
    /// Shared latency histograms, when the embedder attached a metric
    /// registry ([`ExecutorService::with_registry`]). Installed before the
    /// workers spawn, immutable after.
    metrics: Option<SvcMetrics>,
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
            if job.run_chunk(slot, self.metrics.as_ref()) {
                // The campaign is drained: drop it from the queue. Retain
                // by identity — several slots can discover the drain and
                // the removal must be idempotent.
                self.queue.lock().retain(|j| !Arc::ptr_eq(j, &job));
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
/// same chunked dispensing a private [`ReplayPool`] would do, so reports
/// stay byte-identical to standalone replays). Dropping the service joins
/// its threads; campaigns still queued at that point complete with
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
    /// [`ReplayPool::new`]).
    pub fn new(workers: usize) -> Self {
        Self::spawn(workers, None)
    }

    /// Like [`ExecutorService::new`], with service-wide latency histograms
    /// (chunk-claim wait, per-run replay latency) registered into
    /// `registry`. The registry must be attached at construction because
    /// the worker threads capture their observation handles when they
    /// spawn.
    pub fn with_registry(workers: usize, registry: &Registry) -> Self {
        Self::spawn(workers, Some(SvcMetrics::new(registry)))
    }

    fn spawn(workers: usize, metrics: Option<SvcMetrics>) -> Self {
        let workers = if workers == 0 {
            ReplayPool::available_workers()
        } else {
            workers
        };
        let core = Arc::new(ServiceCore {
            queue: Mutex::new(Vec::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
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

    /// Submits one campaign and blocks until the service completes it,
    /// returning the merged output plus the exploration source (for the
    /// session's post-replay counter harvesting).
    ///
    /// # Errors
    ///
    /// [`ErPiError::Cancelled`] if the campaign's token tripped (or the
    /// service shut down) before it finished;
    /// [`ErPiError::ExecutorPanic`] if the model panicked in a worker.
    pub(crate) fn run_campaign<M, I>(
        &self,
        params: CampaignParams<M>,
        source: IndexedSource<I>,
        priority: u8,
    ) -> Result<(PoolOutput, IndexedSource<I>), ErPiError>
    where
        M: SystemModel + Send + Sync + 'static,
        M::State: Send + Sync,
        I: Iterator<Item = Interleaving> + Send + 'static,
    {
        let task = Arc::new(CampaignTask {
            params,
            priority,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            disp: Mutex::new(DispState {
                source: Some(source),
                inflight: 0,
                exhausted: false,
                ext_cancelled: false,
            }),
            sink: Mutex::new(Vec::new()),
            lowest_violation: AtomicUsize::new(NO_VIOLATION),
            stop: AtomicBool::new(false),
            panicked: Mutex::new(None),
            executors: Mutex::new(BTreeMap::new()),
            loads: Mutex::new(BTreeMap::new()),
            finalized: AtomicBool::new(false),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
        });
        {
            let mut queue = self.core.queue.lock();
            queue.push(Arc::clone(&task) as Arc<dyn ServiceJob>);
            self.core.available.notify_all();
        }
        let result = {
            let mut done = task.done.lock();
            while done.is_none() {
                done = task.done_cv.wait(done);
            }
            done.take().expect("checked above")
        };
        let output = result?;
        let source = task
            .disp
            .lock()
            .source
            .take()
            .expect("source is harvested exactly once, after completion");
        Ok((output, source))
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
    use crate::{Assertion, OpOutcome, Report, TestSuite};
    use er_pi_interleave::DfsExplorer;
    use er_pi_model::{Event, EventKind, ReplicaId, Value};

    /// Integer register per replica; `set(v)` writes, fused sync copies.
    #[derive(Clone)]
    struct RegApp;

    impl SystemModel for RegApp {
        type State = i64;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> i64 {
            0
        }

        fn apply(&self, states: &mut [i64], event: &Event) -> OpOutcome {
            match &event.kind {
                EventKind::LocalUpdate { op } => {
                    states[event.replica.index()] = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                    OpOutcome::Applied
                }
                EventKind::Sync { to, .. } => {
                    states[to.index()] = states[event.replica.index()];
                    OpOutcome::Applied
                }
                _ => OpOutcome::failed("unsupported"),
            }
        }

        fn observe(&self, state: &i64) -> Value {
            Value::from(*state)
        }
    }

    fn two_writes() -> Workload {
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        let mut w = Workload::builder();
        let w1 = w.update(a, "set", [Value::from(1)]);
        w.sync_pair(a, b, w1);
        let w2 = w.update(b, "set", [Value::from(2)]);
        w.sync_pair(b, a, w2);
        w.build()
    }

    fn params(
        stop_on_first_violation: bool,
        suite: TestSuite<i64>,
        cancel: Option<CancelToken>,
    ) -> CampaignParams<RegApp> {
        CampaignParams {
            model: RegApp,
            workload: two_writes(),
            time: TimeModel::paper_setup(),
            suite,
            stop_on_first_violation,
            incremental_budget: None,
            subsume: None,
            chunk_size: crate::DEFAULT_CHUNK_SIZE,
            instrument: Instrument::disabled(),
            cancel,
        }
    }

    fn dfs_source(w: &Workload) -> IndexedSource<DfsExplorer> {
        IndexedSource::new(DfsExplorer::new(w), usize::MAX)
    }

    #[test]
    fn one_campaign_matches_the_private_pool() {
        let w = two_writes();
        let time = TimeModel::paper_setup();
        let suite = TestSuite::new().with_cross(crate::CrossCheck::new("keep", |_| Ok(())));
        let baseline: Report = ReplayPool::new(1)
            .replay(&RegApp, &w, DfsExplorer::new(&w), &time, &suite, false)
            .unwrap();
        for workers in [1, 2, 4] {
            let service = ExecutorService::new(workers);
            let (out, source) = service
                .run_campaign(params(false, suite.clone(), None), dfs_source(&w), 5)
                .unwrap();
            assert_eq!(out.runs.len(), 24);
            assert_eq!(out.sim_us, baseline.sim_us);
            assert_eq!(
                out.runs.iter().map(|r| &r.interleaving).collect::<Vec<_>>(),
                baseline
                    .runs
                    .iter()
                    .map(|r| &r.interleaving)
                    .collect::<Vec<_>>(),
                "{workers} service workers must preserve exploration order"
            );
            assert!(!source.truncated());
        }
    }

    #[test]
    fn co_scheduled_campaigns_do_not_interfere() {
        let w = two_writes();
        let service = Arc::new(ExecutorService::new(2));
        let suite = TestSuite::new().with(Assertion::replicas_converge("conv"));
        let handles: Vec<_> = (0..3u8)
            .map(|priority| {
                let service = Arc::clone(&service);
                let suite = suite.clone();
                let w = w.clone();
                std::thread::spawn(move || {
                    service
                        .run_campaign(params(true, suite, None), dfs_source(&w), priority)
                        .unwrap()
                })
            })
            .collect();
        let time = TimeModel::paper_setup();
        let baseline = ReplayPool::new(1)
            .replay(&RegApp, &w, DfsExplorer::new(&w), &time, &suite, true)
            .unwrap();
        for handle in handles {
            let (out, _) = handle.join().unwrap();
            assert_eq!(out.first_violation_at, baseline.first_violation_at);
            assert_eq!(out.runs.len(), baseline.explored);
            assert_eq!(out.sim_us, baseline.sim_us);
            assert!(out.cancelled);
        }
        assert_eq!(service.queued(), 0);
    }

    #[test]
    fn a_tripped_token_cancels_only_that_campaign() {
        let w = two_writes();
        let service = ExecutorService::new(2);
        let token = CancelToken::new();
        token.cancel();
        let suite = TestSuite::new();
        let cancelled =
            service.run_campaign(params(false, suite.clone(), Some(token)), dfs_source(&w), 0);
        assert!(matches!(cancelled, Err(ErPiError::Cancelled)));
        // A co-resident campaign without a tripped token still completes.
        let (out, _) = service
            .run_campaign(params(false, suite, None), dfs_source(&w), 0)
            .unwrap();
        assert_eq!(out.runs.len(), 24);
    }

    #[test]
    fn model_panics_surface_without_poisoning_the_service() {
        #[derive(Clone)]
        struct Bomb;
        impl SystemModel for Bomb {
            type State = ();
            fn replicas(&self) -> usize {
                1
            }
            fn init(&self, _r: ReplicaId) {}
            fn apply(&self, _s: &mut [()], _e: &Event) -> OpOutcome {
                panic!("service kaboom");
            }
            fn observe(&self, _s: &()) -> Value {
                Value::Null
            }
        }
        let mut w = Workload::builder();
        w.update(ReplicaId::new(0), "x", [Value::from(1)]);
        w.update(ReplicaId::new(0), "y", [Value::from(2)]);
        let w = w.build();
        let service = ExecutorService::new(2);
        let err = service.run_campaign(
            CampaignParams {
                model: Bomb,
                workload: w.clone(),
                time: TimeModel::paper_setup(),
                suite: TestSuite::new(),
                stop_on_first_violation: false,
                incremental_budget: None,
                subsume: None,
                chunk_size: crate::DEFAULT_CHUNK_SIZE,
                instrument: Instrument::disabled(),
                cancel: None,
            },
            IndexedSource::new(DfsExplorer::new(&w), usize::MAX),
            0,
        );
        match err {
            Err(ErPiError::ExecutorPanic(what)) => assert!(what.contains("service kaboom")),
            other => panic!(
                "expected ExecutorPanic, got {:?}",
                other.map(|(o, _)| o.runs.len())
            ),
        }
        // The service itself survives the panic.
        let good = two_writes();
        let (out, _) = service
            .run_campaign(params(false, TestSuite::new(), None), dfs_source(&good), 0)
            .unwrap();
        assert_eq!(out.runs.len(), 24);
    }

    #[test]
    fn abort_fulfils_the_campaign_as_cancelled() {
        // The shutdown path Drop relies on: aborting a never-picked
        // campaign fulfils it so its submitter cannot block forever.
        let w = two_writes();
        let task = Arc::new(CampaignTask {
            params: params(false, TestSuite::new(), None),
            priority: 0,
            seq: 0,
            disp: Mutex::new(DispState {
                source: Some(dfs_source(&w)),
                inflight: 0,
                exhausted: false,
                ext_cancelled: false,
            }),
            sink: Mutex::new(Vec::new()),
            lowest_violation: AtomicUsize::new(NO_VIOLATION),
            stop: AtomicBool::new(false),
            panicked: Mutex::new(None),
            executors: Mutex::new(BTreeMap::new()),
            loads: Mutex::new(BTreeMap::new()),
            finalized: AtomicBool::new(false),
            done: Mutex::new(None),
            done_cv: Condvar::new(),
        });
        let job: Arc<dyn ServiceJob> = Arc::clone(&task) as Arc<dyn ServiceJob>;
        job.abort();
        let done = task.done.lock().take().expect("abort fulfils the result");
        assert!(matches!(done, Err(ErPiError::Cancelled)));
        // Idempotent: a second abort (e.g. a redundant Drop sweep) is a
        // no-op on the already-finalized campaign.
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
