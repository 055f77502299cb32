//! The twelve-bug catalogue of Table 1.
//!
//! Every bug is encoded as a `(workload, pruning configuration, violation
//! predicate)` triple on the corresponding subject model. The workload's
//! *recorded* order is a correct execution; the bug manifests only under
//! specific interleavings — which is exactly what makes these bugs hard to
//! reproduce from user reports and motivates exhaustive replay.
//!
//! The per-bug pruning configurations play the role of the "applicable
//! pruning algorithms" the paper applies per bug (§6.3): event grouping is
//! always on; developer-specified groups, replica-specific targets,
//! independence sets, and failed-ops rules are added where the bug's
//! semantics justify them.

mod orbit_bugs;
mod rdb_bugs;
mod roshi_bugs;
mod yorkie_bugs;

use std::sync::Arc;

use er_pi::telemetry::{ProgressSnapshot, Sink};
use er_pi::{
    Assertion, CancelToken, ErPiError, ExecutorService, ExploreMode, ForensicBundle,
    InlineExecutor, PruningConfig, Report, SanitizerReport, Session, SessionMetrics, SystemModel,
    TestSuite, TimeModel, Violation,
};
use er_pi_interleave::{DfsExplorer, PruneStats};
use er_pi_model::{EventId, Workload};

use crate::{
    CrdtsState, OrbitModel, OrbitState, ReplicaDbModel, ReplicaDbState, RoshiModel, RoshiState,
    YorkieModel, YorkieState,
};

/// Periodic progress callback for service-scheduled campaigns: invoked
/// with a live [`ProgressSnapshot`] every few runs (see
/// [`Bug::replay_report_on`]). The callback runs on service worker
/// threads — keep it cheap and non-blocking.
pub type ProgressFn = Arc<dyn Fn(&ProgressSnapshot) + Send + Sync>;

/// Sample period (in runs) of the [`ProgressFn`] hook. Small catalogue
/// workloads finish in a few hundred runs, so a tight period keeps the
/// live view fresh without measurable overhead.
const PROGRESS_EVERY: usize = 16;

/// The five evaluation subjects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubjectKind {
    /// SoundCloud's Roshi (Go).
    Roshi,
    /// OrbitDB (JavaScript).
    OrbitDb,
    /// ReplicaDB (Java).
    ReplicaDb,
    /// Yorkie (Go).
    Yorkie,
    /// The `crdts` collection (Java).
    Crdts,
}

impl SubjectKind {
    /// All subjects, in the paper's order.
    pub fn all() -> [SubjectKind; 5] {
        [
            SubjectKind::Roshi,
            SubjectKind::OrbitDb,
            SubjectKind::ReplicaDb,
            SubjectKind::Yorkie,
            SubjectKind::Crdts,
        ]
    }
}

impl std::fmt::Display for SubjectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubjectKind::Roshi => f.write_str("Roshi"),
            SubjectKind::OrbitDb => f.write_str("OrbitDB"),
            SubjectKind::ReplicaDb => f.write_str("ReplicaDB"),
            SubjectKind::Yorkie => f.write_str("Yorkie"),
            SubjectKind::Crdts => f.write_str("CRDTs"),
        }
    }
}

/// Upstream status of the bug report (Table 1's "Status" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugStatus {
    /// Fixed by the library developers.
    Closed,
    /// Still open at the time of the paper.
    Open,
}

impl std::fmt::Display for BugStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BugStatus::Closed => f.write_str("closed"),
            BugStatus::Open => f.write_str("open"),
        }
    }
}

/// What a bug's violation predicate can inspect after one replayed
/// interleaving.
#[derive(Debug)]
pub struct BugCtx<'a, S> {
    /// Final replica states.
    pub states: &'a [S],
    /// Number of events that failed during the run. Every catalogue bug
    /// requires a *plausible* run — reporters hit these bugs in executions
    /// that looked healthy, so reproduction demands the same.
    pub failed_ops: usize,
}

/// The model + violation check of one bug (type-erased over subjects).
pub(crate) enum BugImpl {
    /// A Roshi bug.
    Roshi {
        /// Subject model instance.
        model: RoshiModel,
        /// Returns `Some(symptom)` when the bug manifested.
        check: fn(&BugCtx<'_, RoshiState>) -> Option<String>,
    },
    /// An OrbitDB bug.
    Orbit {
        /// Subject model instance.
        model: OrbitModel,
        /// Returns `Some(symptom)` when the bug manifested.
        check: fn(&BugCtx<'_, OrbitState>) -> Option<String>,
    },
    /// A ReplicaDB bug.
    ReplicaDb {
        /// Subject model instance.
        model: ReplicaDbModel,
        /// Returns `Some(symptom)` when the bug manifested.
        check: fn(&BugCtx<'_, ReplicaDbState>) -> Option<String>,
    },
    /// A Yorkie bug.
    Yorkie {
        /// Subject model instance.
        model: YorkieModel,
        /// Returns `Some(symptom)` when the bug manifested.
        check: fn(&BugCtx<'_, YorkieState>) -> Option<String>,
    },
    /// A `crdts` collection bug (unused by Table 1 but kept for symmetry
    /// with user extensions).
    #[allow(dead_code)]
    Crdts {
        /// Subject model instance.
        model: crate::CrdtsModel,
        /// Returns `Some(symptom)` when the bug manifested.
        check: fn(&BugCtx<'_, CrdtsState>) -> Option<String>,
    },
}

/// One reproduction attempt's outcome — a bar of Figures 8a/8b.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Exploration mode name.
    pub mode: String,
    /// 1-based count of interleavings replayed until the bug manifested
    /// (`None` = not reproduced within the cap).
    pub found_at: Option<usize>,
    /// Interleavings replayed in total.
    pub explored: usize,
    /// Simulated time spent, seconds (the Figure 8b axis).
    pub sim_secs: f64,
    /// Wall-clock time spent, milliseconds.
    pub wall_ms: u128,
    /// Mode overhead (Random's shuffle retries).
    pub wasted: u64,
}

impl Repro {
    /// Returns `true` if the bug was reproduced.
    pub fn reproduced(&self) -> bool {
        self.found_at.is_some()
    }
}

/// One row of Table 1: a reproducible bug.
pub struct Bug {
    /// Short name ("Roshi-1", "ODB-5", …).
    pub name: &'static str,
    /// The subject it lives in.
    pub subject: SubjectKind,
    /// Upstream issue number.
    pub issue: u32,
    /// Upstream status.
    pub status: BugStatus,
    /// Root-cause classification (Table 1's "Reason"; `None` for open
    /// bugs, which the paper leaves unclassified).
    pub reason: Option<&'static str>,
    pub(crate) workload: Workload,
    pub(crate) config: PruningConfig,
    pub(crate) imp: BugImpl,
}

impl std::fmt::Debug for Bug {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bug")
            .field("name", &self.name)
            .field("issue", &self.issue)
            .field("events", &self.events())
            .finish()
    }
}

/// A type-erased handle for measuring `State: Clone` cost — what the
/// incremental executor's path cache pays per snapshot, the subsumption
/// memo per run and a stitched tail per hit.
///
/// Built by [`Bug::clone_probe`]: holds the final replica states of the
/// bug's recorded order (a representative fully-populated snapshot). Each
/// [`CloneProbe::clone_states`] call clones them the way a snapshot does —
/// with copy-on-write states that is one `Vec` of pointer bumps, which
/// `tests/snapshot_allocs.rs` pins at one allocated block — and returns the
/// summed [`SystemModel::state_size_hint`], so the `state_clone`
/// micro-benchmark can weigh clone time against the budget charge the same
/// clone would incur as a snapshot.
pub struct CloneProbe {
    clone_fn: Box<dyn Fn() -> usize + Send + Sync>,
}

impl CloneProbe {
    /// Clones the captured states once; returns their total size hint in
    /// bytes.
    pub fn clone_states(&self) -> usize {
        (self.clone_fn)()
    }
}

impl std::fmt::Debug for CloneProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloneProbe").finish_non_exhaustive()
    }
}

fn probe<M, S>(model: M, workload: &Workload) -> CloneProbe
where
    M: SystemModel<State = S> + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
{
    let exec = InlineExecutor::execute(
        &model,
        workload,
        &workload.recorded_order(),
        &TimeModel::paper_setup(),
    );
    let states = exec.states;
    CloneProbe {
        clone_fn: Box::new(move || {
            let cloned = states.clone();
            cloned.iter().map(|s| model.state_size_hint(s)).sum()
        }),
    }
}

/// Options for [`Bug::replay_report_opts`] — the fully general scheduling
/// knob set behind the differential-equivalence harnesses.
///
/// ```
/// use er_pi_subjects::{Bug, ReplayOptions};
///
/// let bug = Bug::by_name("Roshi-1").unwrap();
/// let report = bug.replay_report_opts(&ReplayOptions {
///     workers: 2,
///     ..ReplayOptions::default()
/// });
/// assert!(report.explored > 0);
/// ```
#[derive(Clone)]
pub struct ReplayOptions {
    /// Replay at most this many interleavings (the paper caps at 10 000).
    pub cap: usize,
    /// Stop at the first violating interleaving.
    pub stop_on_first_violation: bool,
    /// Replay slots: `1` replays everything on the calling thread, `0`
    /// uses all available cores. The report does not depend on it.
    pub workers: usize,
    /// Prefix-sharing incremental replay; `false` pins the scratch
    /// executor.
    pub incremental: bool,
    /// Telemetry sink to attach to the session, if any.
    pub telemetry: Option<Arc<dyn Sink>>,
    /// Run the replay-time independence sanitizer alongside the replay;
    /// retrieve its findings via [`Bug::replay_report_checked`].
    pub sanitize: bool,
    /// State-hash subsumption ([`Session::set_subsumption`]); the report
    /// stays byte-identical either way.
    pub subsumption: bool,
    /// Sleep-set pruning ([`Session::set_sleep_sets`]); violation sets
    /// stay identical, replayed representatives may differ.
    pub sleep_sets: bool,
    /// Fleet-metrics handle ([`Session::set_metrics`]) exporting run and
    /// pruning counters to a shared registry. Write-only, like
    /// `telemetry`: the report stays byte-identical either way.
    pub metrics: Option<SessionMetrics>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            cap: 10_000,
            stop_on_first_violation: false,
            workers: 1,
            incremental: true,
            telemetry: None,
            sanitize: false,
            subsumption: false,
            sleep_sets: false,
            metrics: None,
        }
    }
}

impl std::fmt::Debug for ReplayOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayOptions")
            .field("cap", &self.cap)
            .field("stop_on_first_violation", &self.stop_on_first_violation)
            .field("workers", &self.workers)
            .field("incremental", &self.incremental)
            .field("telemetry", &self.telemetry.is_some())
            .field("sanitize", &self.sanitize)
            .field("subsumption", &self.subsumption)
            .field("sleep_sets", &self.sleep_sets)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

/// A session over `model` replaying `workload` in `mode` under `opts` —
/// everything but who runs the replay, which is where [`run_report`] and
/// [`run_report_on`] differ.
fn configure<M: SystemModel>(
    model: M,
    workload: &Workload,
    config: &PruningConfig,
    mode: ExploreMode,
    opts: &ReplayOptions,
) -> Session<M> {
    let mut session = Session::new(model);
    session.set_workload(workload.clone());
    if matches!(mode, ExploreMode::ErPi) {
        session.set_config(config.clone());
    }
    session.set_mode(mode);
    session.set_cap(opts.cap);
    session.set_stop_on_first_violation(opts.stop_on_first_violation);
    session.set_incremental(opts.incremental);
    session.set_subsumption(opts.subsumption);
    session.set_sleep_sets(opts.sleep_sets);
    if let Some(sink) = &opts.telemetry {
        session.set_telemetry(Arc::clone(sink));
    }
    if let Some(metrics) = &opts.metrics {
        session.set_metrics(metrics.clone());
    }
    session
}

/// The one-assertion suite of a catalogue bug: violated when `check`
/// reports a symptom.
fn bug_suite<S: 'static>(check: for<'a> fn(&BugCtx<'a, S>) -> Option<String>) -> TestSuite<S> {
    TestSuite::new().with(Assertion::new("bug-manifested", move |ctx| {
        let bug_ctx = BugCtx {
            states: ctx.states,
            failed_ops: ctx.failed_ops(),
        };
        match check(&bug_ctx) {
            Some(symptom) => Err(symptom),
            None => Ok(()),
        }
    }))
}

fn run_report<M, S>(
    model: M,
    workload: &Workload,
    config: &PruningConfig,
    mode: ExploreMode,
    opts: &ReplayOptions,
    check: for<'a> fn(&BugCtx<'a, S>) -> Option<String>,
) -> (Report, Option<SanitizerReport>)
where
    M: SystemModel<State = S> + Sync,
    S: Send + Sync + 'static,
{
    let mut session = configure(model, workload, config, mode, opts);
    session.set_workers(opts.workers);
    session.set_sanitizer(opts.sanitize);
    let report = session
        .replay(&bug_suite(check))
        .expect("bug workload installed");
    (report, session.sanitizer_report().cloned())
}

/// [`run_report`] with the replay submitted to a shared [`ExecutorService`]
/// instead of run on threads of the session's own — the campaign-server
/// path. Returns `Err` (instead of panicking) because service campaigns
/// are routinely cancelled from outside.
#[allow(clippy::too_many_arguments)]
fn run_report_on<M, S>(
    model: M,
    workload: &Workload,
    config: &PruningConfig,
    opts: &ReplayOptions,
    check: for<'a> fn(&BugCtx<'a, S>) -> Option<String>,
    service: &ExecutorService,
    priority: u8,
    cancel: Option<CancelToken>,
    progress: Option<ProgressFn>,
) -> Result<Report, ErPiError>
where
    M: SystemModel<State = S> + Clone + Send + Sync + 'static,
    S: Send + Sync + 'static,
{
    let mut session = configure(model, workload, config, ExploreMode::ErPi, opts);
    session.set_cancel_token(cancel);
    if let Some(hook) = progress {
        session.set_progress_hook(PROGRESS_EVERY, move |snap| hook(snap));
    }
    session.replay_on(service, priority, &bug_suite(check))
}

fn run<M, S>(
    model: M,
    workload: &Workload,
    config: &PruningConfig,
    mode: ExploreMode,
    cap: usize,
    check: for<'a> fn(&BugCtx<'a, S>) -> Option<String>,
) -> Repro
where
    M: SystemModel<State = S> + Sync,
    S: Send + Sync + 'static,
{
    let opts = ReplayOptions {
        cap,
        stop_on_first_violation: true,
        workers: 0, // all available cores
        ..ReplayOptions::default()
    };
    let (report, _) = run_report(model, workload, config, mode, &opts, check);
    Repro {
        mode: report.mode.clone(),
        found_at: report.first_violation_at.map(|i| i + 1),
        explored: report.explored,
        sim_secs: report.sim_secs(),
        wall_ms: report.wall_ms,
        wasted: report.wasted_work,
    }
}

fn run_dfs_base<M, S>(
    model: M,
    workload: &Workload,
    base: Vec<EventId>,
    cap: usize,
    check: for<'a> fn(&BugCtx<'a, S>) -> Option<String>,
) -> Repro
where
    M: SystemModel<State = S>,
    S: 'static,
{
    let started = std::time::Instant::now();
    let time = TimeModel::paper_setup();
    let explorer = DfsExplorer::with_base_order(workload, base);
    let mut explored = 0usize;
    let mut found_at = None;
    let mut sim_us = 0u64;
    for il in explorer {
        if explored >= cap {
            break;
        }
        explored += 1;
        let exec = InlineExecutor::execute(&model, workload, &il, &time);
        sim_us += exec.sim_us;
        let failed = exec.outcomes.iter().filter(|o| o.is_failed()).count();
        let ctx = BugCtx {
            states: &exec.states,
            failed_ops: failed,
        };
        if check(&ctx).is_some() {
            found_at = Some(explored);
            break;
        }
    }
    Repro {
        mode: "DFS".into(),
        found_at,
        explored,
        sim_secs: sim_us as f64 / 1e6,
        wall_ms: started.elapsed().as_millis(),
        wasted: 0,
    }
}

impl Bug {
    /// All twelve bugs, in Table 1 order.
    pub fn catalogue() -> Vec<Bug> {
        vec![
            roshi_bugs::roshi_1(),
            roshi_bugs::roshi_2(),
            roshi_bugs::roshi_3(),
            orbit_bugs::orbitdb_1(),
            orbit_bugs::orbitdb_2(),
            orbit_bugs::orbitdb_3(),
            orbit_bugs::orbitdb_4(),
            orbit_bugs::orbitdb_5(),
            rdb_bugs::replicadb_1(),
            rdb_bugs::replicadb_2(),
            yorkie_bugs::yorkie_1(),
            yorkie_bugs::yorkie_2(),
        ]
    }

    /// Looks a bug up by name.
    pub fn by_name(name: &str) -> Option<Bug> {
        Bug::catalogue().into_iter().find(|b| b.name == name)
    }

    /// Number of interleaved events (Table 1's "#Events").
    pub fn events(&self) -> usize {
        self.workload.len()
    }

    /// The bug's workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The ER-π pruning configuration used to reproduce this bug.
    pub fn pruning_config(&self) -> &PruningConfig {
        &self.config
    }

    /// Attempts to reproduce the bug in `mode`, replaying at most `cap`
    /// interleavings (the paper caps at 10 000).
    pub fn reproduce(&self, mode: ExploreMode, cap: usize) -> Repro {
        match &self.imp {
            BugImpl::Roshi { model, check } => run(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                cap,
                *check,
            ),
            BugImpl::Orbit { model, check } => run(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                cap,
                *check,
            ),
            BugImpl::ReplicaDb { model, check } => run(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                cap,
                *check,
            ),
            BugImpl::Yorkie { model, check } => run(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                cap,
                *check,
            ),
            BugImpl::Crdts { model, check } => run(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                cap,
                *check,
            ),
        }
    }

    /// Attempts to reproduce the bug in ER-π mode under an explicit
    /// pruning configuration (ablation studies).
    pub fn reproduce_with_config(&self, config: PruningConfig, cap: usize) -> Repro {
        match &self.imp {
            BugImpl::Roshi { model, check } => run(
                model.clone(),
                &self.workload,
                &config,
                ExploreMode::ErPi,
                cap,
                *check,
            ),
            BugImpl::Orbit { model, check } => run(
                model.clone(),
                &self.workload,
                &config,
                ExploreMode::ErPi,
                cap,
                *check,
            ),
            BugImpl::ReplicaDb { model, check } => run(
                model.clone(),
                &self.workload,
                &config,
                ExploreMode::ErPi,
                cap,
                *check,
            ),
            BugImpl::Yorkie { model, check } => run(
                model.clone(),
                &self.workload,
                &config,
                ExploreMode::ErPi,
                cap,
                *check,
            ),
            BugImpl::Crdts { model, check } => run(
                model.clone(),
                &self.workload,
                &config,
                ExploreMode::ErPi,
                cap,
                *check,
            ),
        }
    }

    /// Replays the bug's workload in ER-π mode and returns the full
    /// [`Report`] — the entry point of the differential-equivalence test
    /// harness. `workers == 1` replays on the calling thread alone;
    /// `workers == 0` uses all available cores. Reports produced at
    /// different worker counts must satisfy [`Report::diff`] `== None`.
    pub fn replay_report(
        &self,
        cap: usize,
        stop_on_first_violation: bool,
        workers: usize,
    ) -> Report {
        self.replay_report_with(cap, stop_on_first_violation, workers, true)
    }

    /// Like [`Bug::replay_report`], with explicit control over incremental
    /// replay: `incremental == false` pins the scratch executor, the
    /// reference side of the incremental differential-equivalence suite.
    pub fn replay_report_with(
        &self,
        cap: usize,
        stop_on_first_violation: bool,
        workers: usize,
        incremental: bool,
    ) -> Report {
        self.replay_report_opts(&ReplayOptions {
            cap,
            stop_on_first_violation,
            workers,
            incremental,
            ..ReplayOptions::default()
        })
    }

    /// The fully general replay entry point: every scheduling knob plus an
    /// optional telemetry sink, via [`ReplayOptions`].
    pub fn replay_report_opts(&self, opts: &ReplayOptions) -> Report {
        self.replay_report_checked(opts).0
    }

    /// Like [`Bug::replay_report_opts`], additionally returning the
    /// independence sanitizer's findings (`Some` iff `opts.sanitize`).
    /// The [`Report`] half must be byte-identical to a sanitizer-off
    /// replay — the sanitizer observes, it never steers.
    pub fn replay_report_checked(&self, opts: &ReplayOptions) -> (Report, Option<SanitizerReport>) {
        let mode = ExploreMode::ErPi;
        match &self.imp {
            BugImpl::Roshi { model, check } => run_report(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                opts,
                *check,
            ),
            BugImpl::Orbit { model, check } => run_report(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                opts,
                *check,
            ),
            BugImpl::ReplicaDb { model, check } => run_report(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                opts,
                *check,
            ),
            BugImpl::Yorkie { model, check } => run_report(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                opts,
                *check,
            ),
            BugImpl::Crdts { model, check } => run_report(
                model.clone(),
                &self.workload,
                &self.config,
                mode,
                opts,
                *check,
            ),
        }
    }

    /// Replays the bug as one campaign on a shared [`ExecutorService`] —
    /// the path the campaign server takes. The resulting [`Report`] must be
    /// byte-identical (under [`Report::canonical_json`]) to
    /// [`Bug::replay_report_opts`] with the same options, for any mix of
    /// co-scheduled campaigns — the `server_equivalence` suite pins this.
    ///
    /// `opts.workers` and `opts.sanitize` are ignored: the service owns the
    /// worker threads, and the sanitizer is a session-side diagnostic.
    /// `progress`, when given, receives a live snapshot every few runs —
    /// the campaign server streams these to its clients.
    ///
    /// # Errors
    ///
    /// [`ErPiError::Cancelled`] if `cancel` trips mid-campaign;
    /// [`ErPiError::ExecutorPanic`] if the model panics in a worker.
    pub fn replay_report_on(
        &self,
        service: &ExecutorService,
        priority: u8,
        cancel: Option<CancelToken>,
        progress: Option<ProgressFn>,
        opts: &ReplayOptions,
    ) -> Result<Report, ErPiError> {
        match &self.imp {
            BugImpl::Roshi { model, check } => run_report_on(
                model.clone(),
                &self.workload,
                &self.config,
                opts,
                *check,
                service,
                priority,
                cancel.clone(),
                progress.clone(),
            ),
            BugImpl::Orbit { model, check } => run_report_on(
                model.clone(),
                &self.workload,
                &self.config,
                opts,
                *check,
                service,
                priority,
                cancel.clone(),
                progress.clone(),
            ),
            BugImpl::ReplicaDb { model, check } => run_report_on(
                model.clone(),
                &self.workload,
                &self.config,
                opts,
                *check,
                service,
                priority,
                cancel.clone(),
                progress.clone(),
            ),
            BugImpl::Yorkie { model, check } => run_report_on(
                model.clone(),
                &self.workload,
                &self.config,
                opts,
                *check,
                service,
                priority,
                cancel.clone(),
                progress.clone(),
            ),
            BugImpl::Crdts { model, check } => run_report_on(
                model.clone(),
                &self.workload,
                &self.config,
                opts,
                *check,
                service,
                priority,
                cancel.clone(),
                progress.clone(),
            ),
        }
    }

    /// Reproduces the bug with a DFS whose frontier expansion order is
    /// `base` instead of the recorded order — modelling the run-to-run
    /// nondeterminism of restarting a real checker (used by the Figure 10
    /// micro-benchmark).
    pub fn reproduce_dfs_perturbed(&self, base: Vec<EventId>, cap: usize) -> Repro {
        match &self.imp {
            BugImpl::Roshi { model, check } => {
                run_dfs_base(model.clone(), &self.workload, base, cap, *check)
            }
            BugImpl::Orbit { model, check } => {
                run_dfs_base(model.clone(), &self.workload, base, cap, *check)
            }
            BugImpl::ReplicaDb { model, check } => {
                run_dfs_base(model.clone(), &self.workload, base, cap, *check)
            }
            BugImpl::Yorkie { model, check } => {
                run_dfs_base(model.clone(), &self.workload, base, cap, *check)
            }
            BugImpl::Crdts { model, check } => {
                run_dfs_base(model.clone(), &self.workload, base, cap, *check)
            }
        }
    }

    /// Re-executes a violating interleaving step by step and assembles the
    /// deterministic forensic bundle — exact order + fault plan, per-step
    /// state digests, first divergence from the recorded order, and the
    /// workload's happens-before graph in DOT ([`er_pi::explain_violation`]).
    ///
    /// The bundle is a pure function of `(bug, violation)`: the campaign
    /// server and the `er-pi-explain` CLI must produce byte-identical
    /// bundles for the same violation regardless of how the campaign that
    /// found it was scheduled. Returns `None` for cross-run violations,
    /// which carry no single interleaving to replay.
    pub fn explain(&self, violation: &Violation) -> Option<ForensicBundle> {
        match &self.imp {
            BugImpl::Roshi { model, .. } => {
                er_pi::explain_violation(model, &self.workload, violation)
            }
            BugImpl::Orbit { model, .. } => {
                er_pi::explain_violation(model, &self.workload, violation)
            }
            BugImpl::ReplicaDb { model, .. } => {
                er_pi::explain_violation(model, &self.workload, violation)
            }
            BugImpl::Yorkie { model, .. } => {
                er_pi::explain_violation(model, &self.workload, violation)
            }
            BugImpl::Crdts { model, .. } => {
                er_pi::explain_violation(model, &self.workload, violation)
            }
        }
    }

    /// Builds a [`CloneProbe`] over this bug's model: the final states of
    /// the recorded order, behind a type-erased clone interface (the input
    /// of the `state_clone` micro-benchmark and of
    /// `tests/snapshot_allocs.rs`).
    pub fn clone_probe(&self) -> CloneProbe {
        match &self.imp {
            BugImpl::Roshi { model, .. } => probe(model.clone(), &self.workload),
            BugImpl::Orbit { model, .. } => probe(model.clone(), &self.workload),
            BugImpl::ReplicaDb { model, .. } => probe(model.clone(), &self.workload),
            BugImpl::Yorkie { model, .. } => probe(model.clone(), &self.workload),
            BugImpl::Crdts { model, .. } => probe(model.clone(), &self.workload),
        }
    }

    /// Explores pruned interleavings until `cap` *candidates* have been
    /// examined and reports the per-algorithm pruning statistics (the
    /// Figure 9 data).
    pub fn prune_stats(&self, cap: usize) -> PruneStats {
        let mut explorer = er_pi_interleave::ErPiExplorer::new(&self.workload, &self.config);
        while explorer.stats().examined() < cap as u64 {
            if explorer.next().is_none() {
                break;
            }
        }
        explorer.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1's event counts, verbatim.
    const TABLE1: &[(&str, u32, usize)] = &[
        ("Roshi-1", 18, 9),
        ("Roshi-2", 11, 10),
        ("Roshi-3", 40, 21),
        ("OrbitDB-1", 513, 12),
        ("OrbitDB-2", 512, 8),
        ("OrbitDB-3", 1153, 15),
        ("OrbitDB-4", 583, 18),
        ("OrbitDB-5", 557, 24),
        ("ReplicaDB-1", 79, 10),
        ("ReplicaDB-2", 23, 14),
        ("Yorkie-1", 676, 17),
        ("Yorkie-2", 663, 22),
    ];

    #[test]
    fn catalogue_matches_table1() {
        let bugs = Bug::catalogue();
        assert_eq!(bugs.len(), 12);
        for (bug, &(name, issue, events)) in bugs.iter().zip(TABLE1) {
            assert_eq!(bug.name, name);
            assert_eq!(bug.issue, issue, "{name} issue number");
            assert_eq!(bug.events(), events, "{name} event count");
        }
    }

    #[test]
    fn statuses_and_reasons_match_table1() {
        let open: Vec<&str> = Bug::catalogue()
            .iter()
            .filter(|b| b.status == BugStatus::Open)
            .map(|b| b.name)
            .collect();
        assert_eq!(open, vec!["OrbitDB-1", "OrbitDB-2", "Yorkie-1"]);
        for bug in Bug::catalogue() {
            match bug.status {
                BugStatus::Open => assert!(bug.reason.is_none()),
                BugStatus::Closed => assert!(bug.reason.is_some(), "{} reason", bug.name),
            }
        }
        let misconceptions = Bug::catalogue()
            .iter()
            .filter(|b| b.reason == Some("misconception"))
            .count();
        assert_eq!(misconceptions, 6);
        let misuse = Bug::catalogue()
            .iter()
            .filter(|b| b.reason == Some("misuse"))
            .count();
        assert_eq!(misuse, 2);
    }

    #[test]
    fn recorded_orders_are_clean() {
        // The observed execution (identity order) must NOT manifest any
        // bug: users hit these only under unlucky interleavings.
        for bug in Bug::catalogue() {
            let repro = bug.reproduce(ExploreMode::ErPi, 1);
            assert_ne!(
                repro.found_at,
                Some(1),
                "{}: the recorded order must be violation-free",
                bug.name
            );
        }
    }

    #[test]
    fn snapshots_stay_independent_across_the_catalogue() {
        use crate::assert_snapshots_stay_independent as check;
        for bug in Bug::catalogue() {
            match &bug.imp {
                BugImpl::Roshi { model, .. } => check(model, &bug.workload, bug.name),
                BugImpl::Orbit { model, .. } => check(model, &bug.workload, bug.name),
                BugImpl::ReplicaDb { model, .. } => check(model, &bug.workload, bug.name),
                BugImpl::Yorkie { model, .. } => check(model, &bug.workload, bug.name),
                BugImpl::Crdts { model, .. } => check(model, &bug.workload, bug.name),
            }
        }
    }

    #[test]
    fn by_name_finds_every_bug() {
        for &(name, _, _) in TABLE1 {
            assert!(Bug::by_name(name).is_some(), "{name}");
        }
        assert!(Bug::by_name("Nope-1").is_none());
    }

    #[test]
    fn erpi_reproduces_every_bug_within_the_cap() {
        for bug in Bug::catalogue() {
            let repro = bug.reproduce(ExploreMode::ErPi, 10_000);
            assert!(
                repro.reproduced(),
                "{} not reproduced by ER-π within 10K ({} explored)",
                bug.name,
                repro.explored
            );
        }
    }
}
