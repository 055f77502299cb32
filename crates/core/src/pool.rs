//! The parallel replay scheduler: cross-interleaving parallelism.
//!
//! The paper's cost model is dominated by State-4 replay — every surviving
//! interleaving is executed with checkpoint/reset. [`ThreadedExecutor`]
//! parallelizes the replicas *within* one interleaving (faithful to §4.3's
//! distributed lock, and bounded by it); the [`ReplayPool`] instead fans the
//! pruned set itself across worker threads, each replaying whole
//! interleavings independently against its own cloned checkpoint. Replays
//! are embarrassingly parallel — runs share no state — so the only work is
//! making the *merged* result indistinguishable from the sequential one:
//!
//! * every dispensed interleaving carries a stable exploration index
//!   ([`IndexedSource`]), and merged runs are ordered by it;
//! * under `stop_on_first_violation`, cancellation is cooperative (an
//!   `AtomicBool` checked between interleavings) and the *lowest-indexed*
//!   violation wins: runs past it are discarded, so the bug-reproduction
//!   output is deterministic no matter which worker found what first;
//! * a panicking model surfaces as [`ErPiError::ExecutorPanic`] and the
//!   whole result set is discarded — the session itself is left usable.
//!
//! [`ThreadedExecutor`]: crate::ThreadedExecutor

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use er_pi_interleave::IndexedSource;
use er_pi_model::{Interleaving, Value, Workload};
use er_pi_telemetry::{worker_track, HitRateMonitor, Telemetry, TrackId};
use parking_lot::Mutex;

use crate::instrument::Instrument;
use crate::subsume::SubsumeSet;
use crate::{
    CacheStats, CancelToken, CheckContext, ErPiError, IncrementalExecutor, InlineExecutor, Report,
    RunRecord, SystemModel, TestSuite, TimeModel, Violation, WorkerLoad,
};

/// Sentinel for "no violation found yet" in the atomic minimum.
pub(crate) const NO_VIOLATION: usize = usize::MAX;

/// Default interleavings claimed per dispenser lock acquisition
/// (tunable per session via
/// [`Session::set_chunk_size`](crate::Session::set_chunk_size)).
/// Contiguous chunks (rather than strided or item-at-a-time claims)
/// preserve per-worker prefix locality: lexicographically adjacent
/// interleavings land on the same worker's executor, each resuming from the
/// one before it. Chunks also amortize the dispenser lock. Cooperative
/// cancellation is checked *between* chunks only — a claimed chunk always
/// executes to completion, keeping the dispensed index range dense for the
/// merge.
pub const DEFAULT_CHUNK_SIZE: usize = 32;

/// A pool of replay workers fanning the pruned interleaving set across
/// threads.
///
/// Constructed by [`Session::replay`](crate::Session::replay) whenever the
/// session's worker count is above one; also usable standalone through
/// [`ReplayPool::replay`] for custom exploration sources.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPool {
    workers: usize,
}

/// What one worker hands back per replayed interleaving.
pub(crate) struct WorkerRun {
    pub(crate) index: usize,
    pub(crate) record: RunRecord,
    pub(crate) violations: Vec<(String, String)>,
}

/// The merged result of a pooled replay, before the session dresses it up
/// as a [`Report`].
pub(crate) struct PoolOutput {
    /// Retained runs, ordered by exploration index (dense from 0).
    pub runs: Vec<RunRecord>,
    /// Per-run violations of the retained runs, in (run, assertion) order.
    pub violations: Vec<Violation>,
    /// Lowest run index with a violation, if any.
    pub first_violation_at: Option<usize>,
    /// Σ `sim_us` over the retained runs.
    pub sim_us: u64,
    /// Whether cooperative cancellation fired (stop-on-first-violation).
    pub cancelled: bool,
    /// Per-worker replay counters, in worker order.
    pub worker_loads: Vec<WorkerLoad>,
    /// Checkpoint-cache counters summed over the per-worker executors; `None`
    /// when the pool ran the scratch executor.
    pub cache_stats: Option<CacheStats>,
}

impl ReplayPool {
    /// Creates a pool with `workers` threads (`0` means "all available
    /// cores").
    pub fn new(workers: usize) -> Self {
        ReplayPool {
            workers: if workers == 0 {
                Self::available_workers()
            } else {
                workers
            },
        }
    }

    /// The number of worker threads this pool spawns.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The platform's available parallelism (used for worker count `0` and
    /// the session default); `1` when it cannot be queried.
    ///
    /// An `ER_PI_WORKERS` environment variable overrides the probe:
    /// cgroup-limited deployments (containers with a CPU quota) report the
    /// host's core count through `available_parallelism`, so operators pin
    /// the real budget explicitly. Unparsable or zero values are ignored.
    pub fn available_workers() -> usize {
        std::env::var("ER_PI_WORKERS")
            .ok()
            .as_deref()
            .and_then(parse_workers_override)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    }

    /// Replays everything `source` dispenses and merges the results into a
    /// [`Report`] deterministically equal to a sequential replay of the
    /// same source (compare with [`Report::diff`]).
    ///
    /// This is the standalone entry point over an explicit exploration
    /// source; [`Session::replay`](crate::Session::replay) wires the same
    /// machinery to the session's explorer, pruning configuration, and
    /// static-analysis pass.
    ///
    /// # Errors
    ///
    /// [`ErPiError::ExecutorPanic`] if the model panics in any worker; all
    /// shard results are discarded.
    pub fn replay<M, I>(
        &self,
        model: &M,
        workload: &Workload,
        source: I,
        time: &TimeModel,
        suite: &TestSuite<M::State>,
        stop_on_first_violation: bool,
    ) -> Result<Report, ErPiError>
    where
        M: SystemModel + Sync,
        M::State: Send + Sync,
        I: Iterator<Item = Interleaving> + Send,
    {
        let started = std::time::Instant::now();
        let mut source = IndexedSource::new(source, usize::MAX);
        let out = self.run(
            model,
            workload,
            &mut source,
            time,
            suite,
            stop_on_first_violation,
            None,
            None,
            DEFAULT_CHUNK_SIZE,
            &Instrument::disabled(),
            None,
        )?;
        let keep = !suite.cross_checks().is_empty();
        let mut violations = out.violations;
        for check in suite.cross_checks() {
            if let Err(message) = check.check(&crate::CrossContext { runs: &out.runs }) {
                violations.push(Violation {
                    run: None,
                    assertion: check.name().to_owned(),
                    message,
                    interleaving: None,
                });
            }
        }
        let wall_ms = started.elapsed().as_millis();
        let session_summary = crate::SessionSummary {
            mode: "pool".into(),
            explored: out.runs.len(),
            violations: violations.len(),
            sim_us: out.sim_us,
            wall_ms,
            grouping_factor: None,
            pruners: Vec::new(),
            workers: out.worker_loads.clone(),
            cache: out.cache_stats,
            failures: crate::FailureStats::from_runs(&out.runs),
        };
        Ok(Report {
            mode: "pool".into(),
            explored: out.runs.len(),
            first_violation_at: out.first_violation_at,
            prune_stats: None,
            wasted_work: 0,
            wall_ms,
            sim_us: out.sim_us,
            runs: if keep { out.runs } else { Vec::new() },
            violations,
            stopped_early: out.cancelled || source.truncated(),
            diagnostics: Vec::new(),
            worker_loads: out.worker_loads,
            cache_stats: out.cache_stats,
            session_summary,
            advisories: Vec::new(),
        })
    }

    /// The scheduling core: workers claim contiguous chunks of
    /// `(index, interleaving)` pairs from the shared source, execute them
    /// against fresh checkpoints — or, with `incremental_budget` set,
    /// against a per-worker [`IncrementalExecutor`] resuming from cached
    /// prefixes — and push results into a shared sink; the merge restores
    /// sequential order. Used by both [`ReplayPool::replay`] and the
    /// session.
    ///
    /// `external_cancel` is the campaign-level [`CancelToken`]: polled at
    /// the same chunk boundaries as the internal stop-on-first flag, and
    /// when tripped the whole result set is discarded as
    /// [`ErPiError::Cancelled`].
    ///
    /// `subsume` is the campaign-wide explored-set for state-hash
    /// subsumption, shared across all workers (each worker's executor
    /// probes and feeds it); with subsumption on but incremental replay
    /// off, every worker still gets an executor — with a zero snapshot
    /// budget, so it keeps no path and only the subsumption layer is
    /// live. `chunk_size` is the dispenser claim granularity (see
    /// [`DEFAULT_CHUNK_SIZE`] for the trade-off; values below 1 are clamped).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<M, I>(
        &self,
        model: &M,
        workload: &Workload,
        source: &mut IndexedSource<I>,
        time: &TimeModel,
        suite: &TestSuite<M::State>,
        stop_on_first_violation: bool,
        incremental_budget: Option<usize>,
        subsume: Option<&Arc<SubsumeSet<M::State>>>,
        chunk_size: usize,
        instrument: &Instrument,
        external_cancel: Option<&CancelToken>,
    ) -> Result<PoolOutput, ErPiError>
    where
        M: SystemModel + Sync,
        M::State: Send + Sync,
        I: Iterator<Item = Interleaving> + Send,
    {
        let chunk_size = chunk_size.max(1);
        let dispenser = Mutex::new(source);
        let sink: Mutex<Vec<WorkerRun>> = Mutex::new(Vec::new());
        let cancel = AtomicBool::new(false);
        let lowest_violation = AtomicUsize::new(NO_VIOLATION);
        let panicked: Mutex<Option<String>> = Mutex::new(None);

        let worker_results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|worker| {
                    let dispenser = &dispenser;
                    let sink = &sink;
                    let cancel = &cancel;
                    let lowest_violation = &lowest_violation;
                    let panicked = &panicked;
                    scope.spawn(move || {
                        let mut load = WorkerLoad {
                            worker,
                            runs: 0,
                            sim_us: 0,
                        };
                        let telemetry = instrument.telemetry.clone();
                        let track = worker_track(worker);
                        // Each worker owns its executor: no cross-thread
                        // snapshot sharing, and the chunked dispenser keeps
                        // the worker's stream prefix-coherent.
                        let mut executor = match (incremental_budget, subsume) {
                            (None, None) => None,
                            (budget, sub) => {
                                let mut e = IncrementalExecutor::<M>::new(budget.unwrap_or(0));
                                if let Some(set) = sub {
                                    e.enable_subsumption(Arc::clone(set));
                                }
                                Some(e)
                            }
                        };
                        // Each worker also watches its own hit rate — the
                        // warning names the worker via its track.
                        let mut hit_monitor = (incremental_budget.is_some()
                            && telemetry.is_active())
                        .then(HitRateMonitor::default);
                        'claim: loop {
                            if cancel.load(Ordering::Acquire)
                                || external_cancel.is_some_and(CancelToken::is_cancelled)
                            {
                                break;
                            }
                            // Claim-then-execute: once a chunk is claimed it
                            // is always executed in full (cancellation is
                            // only checked between chunks), so the dispensed
                            // index range stays dense — the merge relies on
                            // it.
                            let t_claim = telemetry.start();
                            let chunk = dispenser.lock().next_chunk(chunk_size);
                            if chunk.is_empty() {
                                break;
                            }
                            if telemetry.is_active() {
                                telemetry.span_since(
                                    track,
                                    "claim",
                                    t_claim,
                                    vec![
                                        ("first_index", chunk[0].0.into()),
                                        ("count", chunk.len().into()),
                                    ],
                                );
                            }
                            let mut chunk = chunk.into_iter().peekable();
                            while let Some((index, il)) = chunk.next() {
                                let t_run = telemetry.start();
                                let executed = catch_unwind(AssertUnwindSafe(|| {
                                    execute_one(
                                        model,
                                        workload,
                                        index,
                                        il,
                                        chunk.peek().map(|(_, next)| next),
                                        time,
                                        suite,
                                        executor.as_mut(),
                                        &telemetry,
                                        track,
                                    )
                                }));
                                match executed {
                                    Ok(run) => {
                                        load.runs += 1;
                                        load.sim_us += run.record.sim_us;
                                        let violated = !run.violations.is_empty();
                                        if violated {
                                            lowest_violation.fetch_min(run.index, Ordering::AcqRel);
                                            if stop_on_first_violation {
                                                cancel.store(true, Ordering::Release);
                                            }
                                        }
                                        let resumed_depth =
                                            executor.as_ref().map(|e| e.last_resume_depth());
                                        if telemetry.is_active() {
                                            telemetry.span_since(
                                                track,
                                                "run",
                                                t_run,
                                                vec![
                                                    ("index", run.index.into()),
                                                    (
                                                        "resumed_depth",
                                                        resumed_depth.unwrap_or(0).into(),
                                                    ),
                                                    ("sim_us", run.record.sim_us.into()),
                                                    ("violated", violated.into()),
                                                    ("failed_ops", run.record.failed_ops.into()),
                                                ],
                                            );
                                        }
                                        // Only attribute hit/miss when the
                                        // cache has a budget: a zero-budget
                                        // subsumption-only executor always
                                        // resumes from depth 0 and would
                                        // report a fictitious 0% hit rate.
                                        let cache_hit =
                                            incremental_budget.and(resumed_depth).map(|d| d > 0);
                                        if let (Some(monitor), Some(hit)) =
                                            (hit_monitor.as_mut(), cache_hit)
                                        {
                                            if let Some(message) = monitor.record(hit) {
                                                telemetry.warn(
                                                    track,
                                                    "cache:low-hit-rate",
                                                    message,
                                                );
                                            }
                                        }
                                        let subsumed = executor
                                            .as_ref()
                                            .is_some_and(IncrementalExecutor::last_run_subsumed);
                                        instrument.run_done(worker, cache_hit, subsumed);
                                        sink.lock().push(run);
                                    }
                                    Err(payload) => {
                                        let mut note = panicked.lock();
                                        if note.is_none() {
                                            *note = Some(panic_message(payload.as_ref()));
                                        }
                                        cancel.store(true, Ordering::Release);
                                        break 'claim;
                                    }
                                }
                            }
                        }
                        (load, executor.map(|e| e.stats()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool workers catch model panics"))
                .collect::<Vec<(WorkerLoad, Option<CacheStats>)>>()
        });

        if let Some(what) = panicked.into_inner() {
            // Discard every shard's results; the session stays usable.
            return Err(ErPiError::ExecutorPanic(what));
        }
        if external_cancel.is_some_and(CancelToken::is_cancelled) {
            // The campaign was cancelled from outside: partial results are
            // discarded wholesale (no deterministic prefix is promised —
            // the caller asked for the campaign to stop, not for an
            // answer). The session itself stays usable.
            return Err(ErPiError::Cancelled);
        }

        let mut worker_loads = Vec::with_capacity(worker_results.len());
        let mut cache_stats: Option<CacheStats> = None;
        for (load, stats) in worker_results {
            worker_loads.push(load);
            if let Some(stats) = stats {
                cache_stats
                    .get_or_insert_with(CacheStats::default)
                    .absorb(&stats);
            }
        }

        let mut produced = sink.into_inner();
        produced.sort_unstable_by_key(|run| run.index);

        // Lowest-indexed violation wins: under stop-on-first, runs beyond
        // it were speculative and are discarded so the merged report equals
        // the sequential one byte for byte.
        let lowest = lowest_violation.into_inner();
        let cancelled = stop_on_first_violation && lowest != NO_VIOLATION;
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

        Ok(PoolOutput {
            runs,
            violations,
            first_violation_at: (lowest != NO_VIOLATION).then_some(lowest),
            sim_us,
            cancelled,
            worker_loads,
            cache_stats,
        })
    }
}

/// Executes one interleaving — against a fresh checkpoint, or resuming
/// from the worker's previous run when an incremental executor is supplied
/// (`next`, the item after `il` in the worker's chunk, is its lookahead
/// hint) — and checks the suite. The per-item body shared by all workers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_one<M: SystemModel>(
    model: &M,
    workload: &Workload,
    index: usize,
    il: Interleaving,
    next: Option<&Interleaving>,
    time: &TimeModel,
    suite: &TestSuite<M::State>,
    executor: Option<&mut IncrementalExecutor<M>>,
    telemetry: &Telemetry,
    track: TrackId,
) -> WorkerRun {
    let exec = match executor {
        Some(incremental) => incremental.execute_hinted(model, workload, &il, next, time),
        None => InlineExecutor::execute(model, workload, &il, time),
    };
    let observations: Vec<Value> = exec.states.iter().map(|s| model.observe(s)).collect();
    let ctx = CheckContext {
        states: &exec.states,
        observations: &observations,
        interleaving: &il,
        outcomes: &exec.outcomes,
    };
    let t_check = telemetry.start();
    let mut violations = Vec::new();
    for assertion in suite.assertions() {
        if let Err(message) = assertion.check(&ctx) {
            violations.push((assertion.name().to_owned(), message));
        }
    }
    if telemetry.is_active() {
        telemetry.span_since(
            track,
            "check",
            t_check,
            vec![
                ("assertions", suite.assertions().len().into()),
                ("violated", (!violations.is_empty()).into()),
            ],
        );
    }
    let failed_ops = exec.outcomes.iter().filter(|o| o.is_failed()).count();
    WorkerRun {
        index,
        record: RunRecord {
            interleaving: il,
            observations,
            failed_ops,
            sim_us: exec.sim_us,
        },
        violations,
    }
}

/// Parses an `ER_PI_WORKERS` override: a positive integer (surrounding
/// whitespace tolerated). Anything else — empty, zero, garbage — is `None`
/// so the platform probe stays authoritative.
fn parse_workers_override(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assertion;
    use er_pi_interleave::DfsExplorer;
    use er_pi_model::{Event, EventKind, ReplicaId};

    /// Integer register per replica; `set(v)` writes, fused sync copies.
    struct RegApp;

    impl SystemModel for RegApp {
        type State = i64;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> i64 {
            0
        }

        fn apply(&self, states: &mut [i64], event: &Event) -> crate::OpOutcome {
            match &event.kind {
                EventKind::LocalUpdate { op } => {
                    states[event.replica.index()] = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                    crate::OpOutcome::Applied
                }
                EventKind::Sync { to, .. } => {
                    states[to.index()] = states[event.replica.index()];
                    crate::OpOutcome::Applied
                }
                _ => crate::OpOutcome::failed("unsupported"),
            }
        }

        fn observe(&self, state: &i64) -> Value {
            Value::from(*state)
        }

        fn state_encode(&self, state: &i64, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(&state.to_le_bytes());
            true
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

    #[test]
    fn pool_covers_the_space_in_stable_order() {
        let w = two_writes();
        let time = TimeModel::paper_setup();
        let suite = TestSuite::new().with_cross(crate::CrossCheck::new("keep", |_| Ok(())));
        let sequential: Vec<Interleaving> = DfsExplorer::new(&w).collect();
        for workers in [1, 2, 4] {
            let pool = ReplayPool::new(workers);
            let report = pool
                .replay(&RegApp, &w, DfsExplorer::new(&w), &time, &suite, false)
                .unwrap();
            assert_eq!(report.explored, 24);
            let replayed: Vec<&Interleaving> =
                report.runs.iter().map(|r| &r.interleaving).collect();
            assert_eq!(
                replayed,
                sequential.iter().collect::<Vec<_>>(),
                "{workers} workers must preserve exploration order"
            );
            assert_eq!(report.worker_loads.len(), workers);
            let total: usize = report.worker_loads.iter().map(|l| l.runs).sum();
            assert_eq!(total, 24, "no lost or duplicated runs across workers");
        }
    }

    #[test]
    fn lowest_indexed_violation_wins() {
        let w = two_writes();
        let time = TimeModel::paper_setup();
        let suite = TestSuite::new().with(Assertion::replicas_converge("conv"));
        let baseline = ReplayPool::new(1)
            .replay(&RegApp, &w, DfsExplorer::new(&w), &time, &suite, true)
            .unwrap();
        for workers in [2, 4, 8] {
            let report = ReplayPool::new(workers)
                .replay(&RegApp, &w, DfsExplorer::new(&w), &time, &suite, true)
                .unwrap();
            assert_eq!(report.first_violation_at, baseline.first_violation_at);
            assert_eq!(report.explored, baseline.explored);
            assert_eq!(report.violations, baseline.violations);
            assert_eq!(report.sim_us, baseline.sim_us);
            assert!(report.stopped_early);
        }
    }

    #[test]
    fn incremental_pool_matches_scratch_pool() {
        let w = two_writes();
        let time = TimeModel::paper_setup();
        let suite = TestSuite::new().with_cross(crate::CrossCheck::new("keep", |_| Ok(())));
        for workers in [1, 2, 4] {
            let pool = ReplayPool::new(workers);
            let mut scratch_src = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
            let scratch = pool
                .run(
                    &RegApp,
                    &w,
                    &mut scratch_src,
                    &time,
                    &suite,
                    false,
                    None,
                    None,
                    DEFAULT_CHUNK_SIZE,
                    &Instrument::disabled(),
                    None,
                )
                .unwrap();
            let mut inc_src = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
            let incremental = pool
                .run(
                    &RegApp,
                    &w,
                    &mut inc_src,
                    &time,
                    &suite,
                    false,
                    Some(crate::DEFAULT_CACHE_BUDGET),
                    None,
                    DEFAULT_CHUNK_SIZE,
                    &Instrument::disabled(),
                    None,
                )
                .unwrap();
            assert_eq!(scratch.runs, incremental.runs);
            assert_eq!(scratch.violations, incremental.violations);
            assert_eq!(scratch.sim_us, incremental.sim_us);
            assert!(scratch.cache_stats.is_none());
            let stats = incremental.cache_stats.expect("incremental counters");
            assert_eq!(stats.hits + stats.misses, 24);
        }
    }

    #[test]
    fn subsuming_pool_matches_plain_pool() {
        let w = two_writes();
        let time = TimeModel::paper_setup();
        let suite = TestSuite::new().with_cross(crate::CrossCheck::new("keep", |_| Ok(())));
        for workers in [1, 2, 4] {
            let pool = ReplayPool::new(workers);
            let mut plain_src = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
            let plain = pool
                .run(
                    &RegApp,
                    &w,
                    &mut plain_src,
                    &time,
                    &suite,
                    false,
                    None,
                    None,
                    DEFAULT_CHUNK_SIZE,
                    &Instrument::disabled(),
                    None,
                )
                .unwrap();
            let set = Arc::new(SubsumeSet::new());
            let mut sub_src = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
            let subsuming = pool
                .run(
                    &RegApp,
                    &w,
                    &mut sub_src,
                    &time,
                    &suite,
                    false,
                    None,
                    Some(&set),
                    DEFAULT_CHUNK_SIZE,
                    &Instrument::disabled(),
                    None,
                )
                .unwrap();
            assert_eq!(plain.runs, subsuming.runs);
            assert_eq!(plain.violations, subsuming.violations);
            assert!(plain.cache_stats.is_none());
            assert!(set.len() > 0, "every worker feeds the shared set");
            let stats = subsuming.cache_stats.expect("subsumption-only counters");
            assert_eq!(stats.hits + stats.misses, 24);
            if workers == 1 {
                // Deterministic with a single worker: later permutations of
                // the two-writes space re-reach explored states.
                assert!(stats.subsumed > 0, "subsumption must fire");
            }
        }
    }

    #[test]
    fn model_panics_surface_as_executor_panic() {
        struct Bomb;
        impl SystemModel for Bomb {
            type State = ();
            fn replicas(&self) -> usize {
                1
            }
            fn init(&self, _r: ReplicaId) {}
            fn apply(&self, _s: &mut [()], _e: &Event) -> crate::OpOutcome {
                panic!("pool kaboom");
            }
            fn observe(&self, _s: &()) -> Value {
                Value::Null
            }
        }
        let mut w = Workload::builder();
        w.update(ReplicaId::new(0), "x", [Value::from(1)]);
        w.update(ReplicaId::new(0), "y", [Value::from(2)]);
        let w = w.build();
        let err = ReplayPool::new(4).replay(
            &Bomb,
            &w,
            DfsExplorer::new(&w),
            &TimeModel::paper_setup(),
            &TestSuite::new(),
            false,
        );
        match err {
            Err(ErPiError::ExecutorPanic(what)) => assert!(what.contains("pool kaboom")),
            other => panic!("expected ExecutorPanic, got {other:?}"),
        }
    }

    #[test]
    fn workers_override_parses_strictly() {
        assert_eq!(parse_workers_override("4"), Some(4));
        assert_eq!(parse_workers_override(" 16 "), Some(16));
        assert_eq!(parse_workers_override("0"), None, "zero workers is absurd");
        assert_eq!(parse_workers_override(""), None);
        assert_eq!(parse_workers_override("-2"), None);
        assert_eq!(parse_workers_override("many"), None);
        assert_eq!(parse_workers_override("4.5"), None);
    }

    // One test covers both the platform probe and the env override:
    // `available_workers` reads `ER_PI_WORKERS` on every call, so keeping
    // the two scenarios in a single #[test] stops the parallel harness
    // from interleaving them.
    #[test]
    fn zero_workers_and_the_er_pi_workers_override() {
        let pool = ReplayPool::new(0);
        assert_eq!(pool.workers(), ReplayPool::available_workers());
        assert!(pool.workers() >= 1);

        std::env::set_var("ER_PI_WORKERS", "3");
        let seen = ReplayPool::available_workers();
        let pinned = ReplayPool::new(0);
        std::env::remove_var("ER_PI_WORKERS");
        assert_eq!(seen, 3, "cgroup-limited deployments pin the real budget");
        assert_eq!(pinned.workers(), 3);

        std::env::set_var("ER_PI_WORKERS", "not-a-number");
        let garbage = ReplayPool::available_workers();
        std::env::remove_var("ER_PI_WORKERS");
        assert!(garbage >= 1, "garbage overrides fall back to the probe");
    }

    #[test]
    fn a_pre_tripped_token_cancels_the_pool() {
        let w = two_writes();
        let time = TimeModel::paper_setup();
        let suite = TestSuite::new();
        let token = CancelToken::new();
        token.cancel();
        let mut source = IndexedSource::new(DfsExplorer::new(&w), usize::MAX);
        let result = ReplayPool::new(2).run(
            &RegApp,
            &w,
            &mut source,
            &time,
            &suite,
            false,
            None,
            None,
            DEFAULT_CHUNK_SIZE,
            &Instrument::disabled(),
            Some(&token),
        );
        match result {
            Err(ErPiError::Cancelled) => {}
            other => panic!("expected Cancelled, got {:?}", other.map(|o| o.runs.len())),
        }
    }
}
