//! The testing session: `ER-π.Start()` … `ER-π.End(assertions)`.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use er_pi_interleave::{enumerate_plans, ExploreMode, FaultSpace, PruningConfig};
use er_pi_model::{EventId, FaultPlan, ReplicaId, Value, Workload, WorkloadBuilder};
use er_pi_telemetry::{low_hit_rate, ProgressSnapshot, Sink, Telemetry, COORDINATOR_TRACK};

use er_pi_analysis::{Diagnostic, TraceAnalysis};

use crate::campaign::{Campaign, Outcome, Params, Subject, Watch, DEFAULT_CHUNK_SIZE};
use crate::instrument::Instrument;
use crate::{
    Attachments, CacheStats, CancelToken, ConstraintsDir, CrossContext, ErPiError, ExecutorService,
    OpOutcome, ReplayConfig, Report, SanitizerReport, SessionMetrics, SessionSummary, SystemModel,
    TestSuite, TimeModel, Violation,
};

/// The live, recording instance of the system under test.
///
/// During `Session::record`, application code drives its workload through
/// this handle. Each call executes immediately against the real model *and*
/// is intercepted as an [`Event`](er_pi_model::Event) — the Rust equivalent
/// of the paper's RDL proxies (§4.1).
pub struct LiveSystem<'m, M: SystemModel> {
    model: &'m M,
    states: Vec<M::State>,
    builder: WorkloadBuilder,
    outcomes: Vec<OpOutcome>,
}

impl<'m, M: SystemModel> LiveSystem<'m, M> {
    fn new(model: &'m M) -> Self {
        LiveSystem {
            states: model.init_all(),
            model,
            builder: WorkloadBuilder::new(),
            outcomes: Vec::new(),
        }
    }

    fn run_last(&mut self, id: EventId) -> EventId {
        let event = self.builder.event(id).clone();
        let outcome = self.model.apply(&mut self.states, &event);
        self.outcomes.push(outcome);
        id
    }

    /// Invokes (and records) an RDL function at `replica`.
    pub fn invoke<A>(&mut self, replica: ReplicaId, function: &str, args: A) -> EventId
    where
        A: IntoIterator,
        A::Item: Into<Value>,
    {
        let id = self.builder.update(replica, function, args);
        self.run_last(id)
    }

    /// Performs (and records) a fused synchronization shipping update `of`
    /// from `from` to `to`.
    pub fn sync(&mut self, from: ReplicaId, to: ReplicaId, of: EventId) -> EventId {
        let id = self.builder.sync_pair(from, to, of);
        self.run_last(id)
    }

    /// Performs (and records) a fused synchronization with no tracked
    /// source update.
    pub fn sync_untracked(&mut self, from: ReplicaId, to: ReplicaId) -> EventId {
        let id = self.builder.sync_untracked(from, to);
        self.run_last(id)
    }

    /// Performs (and records) a split synchronization: a send event followed
    /// by the matching execute event.
    pub fn sync_split(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        of: Option<EventId>,
    ) -> (EventId, EventId) {
        let send = self.builder.sync_send(from, to, of);
        self.run_last(send);
        let exec = self.builder.sync_exec(to, from, send);
        self.run_last(exec);
        (send, exec)
    }

    /// Performs (and records) an external effect at `replica`.
    pub fn external(&mut self, replica: ReplicaId, label: impl Into<String>) -> EventId {
        let id = self.builder.external(replica, label);
        self.run_last(id)
    }

    /// Declares an explicit causal dependency between recorded events.
    pub fn depends(&mut self, event: EventId, dep: EventId) {
        self.builder.depends(event, dep);
    }

    /// The current live state of `replica` (reads are not recorded).
    pub fn state(&self, replica: ReplicaId) -> &M::State {
        &self.states[replica.index()]
    }

    /// The recorded outcome of `event` during the live run.
    pub fn outcome(&self, event: EventId) -> &OpOutcome {
        &self.outcomes[event.index()]
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.builder.len()
    }

    /// Returns `true` if nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.builder.is_empty()
    }
}

/// One integration-testing session over a [`SystemModel`].
///
/// Mirrors the paper's workflow: [`Session::record`] is State 1 (event
/// extraction through proxies); [`Session::replay`] runs States 2–4
/// (generate + prune, execute each interleaving with checkpointed
/// state, ingest runtime constraints). See the
/// [crate-level example](crate).
pub struct Session<M: SystemModel> {
    model: M,
    config: PruningConfig,
    replay: ReplayConfig,
    attach: Attachments,
    /// The paper's three-host time model.
    time: TimeModel,
    constraints: Option<ConstraintsDir>,
    workload: Option<Workload>,
    fault_plans: Option<Vec<FaultPlan>>,
    fault_space: Option<FaultSpace>,
    sanitizer_report: Option<SanitizerReport>,
}

impl<M: SystemModel> Session<M> {
    /// Creates a session with [`ReplayConfig::default`] (ER-π mode, the
    /// paper's 10 000-interleaving cap) and nothing attached.
    pub fn new(model: M) -> Self {
        Session::with_config(model, ReplayConfig::default(), Attachments::default())
    }

    /// Creates a session that replays under `replay` and reports through
    /// `attach`, both handed over whole (what the catalogue, fuzz and server
    /// harnesses do); the `set_*` methods edit the same two values in place.
    pub fn with_config(model: M, replay: ReplayConfig, attach: Attachments) -> Self {
        Session {
            model,
            config: PruningConfig::default(),
            replay,
            attach,
            time: TimeModel::paper_setup(),
            constraints: None,
            workload: None,
            fault_plans: None,
            fault_space: None,
            sanitizer_report: None,
        }
    }

    /// The system under test.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The replay configuration as the `set_*` methods have left it.
    pub fn replay_config(&self) -> &ReplayConfig {
        &self.replay
    }

    /// Mutable access to the pruning configuration.
    pub fn config_mut(&mut self) -> &mut PruningConfig {
        &mut self.config
    }

    /// Replaces the pruning configuration.
    pub fn set_config(&mut self, config: PruningConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Selects the exploration mode (ER-π, DFS, or Random).
    pub fn set_mode(&mut self, mode: ExploreMode) -> &mut Self {
        self.replay.mode = mode;
        self
    }

    /// Enables the static analysis pass as the source of Algorithm 3's
    /// inputs: the independent sets and interference relation derived by
    /// [`er_pi_analysis::analyze`] are merged into the pruning
    /// configuration for every replay, replacing hand declarations.
    pub fn set_auto_independence(&mut self, auto: bool) -> &mut Self {
        self.replay.auto_independence = auto;
        self
    }

    /// Caps the number of replayed interleavings (paper default: 10 000).
    pub fn set_cap(&mut self, cap: usize) -> &mut Self {
        self.replay.cap = cap;
        self
    }

    /// Stops the replay at the first violation (bug-reproduction mode).
    pub fn set_stop_on_first_violation(&mut self, stop: bool) -> &mut Self {
        self.replay.stop_on_first_violation = stop;
        self
    }

    /// Returns the per-run records in [`Report::runs`] (default: **off**).
    /// [`ReplayConfig::keep_runs`] states the whole rule: what a campaign
    /// keeps of a run either way, what else makes it build records, and
    /// when [`SystemModel::observe`] runs.
    pub fn set_keep_runs(&mut self, keep: bool) -> &mut Self {
        self.replay.keep_runs = keep;
        self
    }

    /// Sets the number of replay slots (default: all available cores; `0`
    /// also means "all available cores").
    ///
    /// [`Session::replay`] steps slot 0 on the calling thread and every
    /// further slot on a scoped thread of its own, all claiming chunks of
    /// the pruned interleaving set from one dispenser; the merged report
    /// does not depend on the count (compare with [`Report::diff`]) — the
    /// differential-equivalence suites check every count against a naive
    /// loop that is not this engine. Sessions watching a constraints
    /// directory replay on one slot regardless, because State-4 ingestion
    /// is a feedback loop on the live exploration order.
    pub fn set_workers(&mut self, workers: usize) -> &mut Self {
        self.replay.workers = workers;
        self
    }

    /// The replay slot count the configured worker count stands for (`0`
    /// resolved to the available cores).
    pub fn workers(&self) -> usize {
        self.replay.slots()
    }

    /// Enables or disables prefix-sharing incremental replay (default:
    /// **on**).
    ///
    /// Incrementally replayed sessions resume each interleaving from the
    /// deepest snapshot the previous run left on their common prefix (see
    /// [`IncrementalExecutor`](crate::IncrementalExecutor)), applying only the divergent suffix — the
    /// report stays byte-identical to a scratch replay ([`Report::diff`]
    /// returns `None` between the two), but the cache counters land in
    /// [`Report::cache_stats`] and the wall-clock drops with the workload's
    /// prefix locality: about `e` events are applied per run in the
    /// lexicographic modes, and Random order costs about what scratch
    /// replay costs. Disable it to force the §4.3 scratch semantics (e.g.
    /// when `SystemModel::apply` is not deterministic — which also breaks
    /// replay itself — or to baseline the saving, as the scratch oracle of
    /// `benchmark/` does; see `benchmark/README.md`).
    pub fn set_incremental(&mut self, incremental: bool) -> &mut Self {
        self.replay.incremental = incremental;
        self
    }

    /// Enables or disables state-hash subsumption (default: **off**).
    ///
    /// Each replay then keeps a campaign-wide explored-set of
    /// `(state digest, live-fault digest, suffix hash, depth)` keys; whenever
    /// a run reaches a state some memoized run already continued from — with
    /// the same cut links and delayed effects in flight, and the same
    /// remaining events and fault anchors — the memoized tail is stitched in
    /// instead of executed, whichever fault plan recorded it. The report stays
    /// byte-identical to a subsumption-off replay ([`Report::diff`]
    /// returns `None`; the dpor-equivalence suite pins it), and
    /// [`CacheStats::subsumed`] / [`CacheStats::subsume_events_saved`]
    /// count the skipped work.
    ///
    /// Requires [`SystemModel::state_encode`]: models that decline it run
    /// unchanged (the set never fires). `ER_PI_SUBSUME_AUDIT=1` keeps the
    /// full encodings next to the digests and panics on any 128-bit
    /// collision or false subsumption.
    pub fn set_subsumption(&mut self, subsume: bool) -> &mut Self {
        self.replay.subsumption = subsume;
        self
    }

    /// Enables or disables sleep-set (DPOR-style) pruning (default:
    /// **off**); equivalent to setting
    /// [`PruningConfig::sleep_sets`] on the session's configuration, except
    /// that the session flag also merges the auto-derived (certified)
    /// independence relation into the effective pruning configuration, so
    /// workloads that declare no independent sets by hand still get a live
    /// commute matrix.
    ///
    /// Unit permutations with a descending adjacent pair of commuting
    /// units (every cross event pair declared independent) are rejected
    /// before they are even flattened. Sound — one representative per
    /// commutation class always survives, so the violation set is
    /// unchanged — but the surviving representative may differ from the
    /// one the event-level independence filter would have kept, so reports
    /// are violation-equivalent rather than byte-identical.
    pub fn set_sleep_sets(&mut self, sleep: bool) -> &mut Self {
        self.replay.sleep_sets = sleep;
        self
    }

    /// Watches `dir` for runtime constraint files (State 4 of the paper's
    /// workflow).
    pub fn watch_constraints(&mut self, dir: impl Into<std::path::PathBuf>) -> &mut Self {
        self.constraints = Some(ConstraintsDir::new(dir));
        self
    }

    /// Enables the replay-time independence sanitizer (default: **off**).
    ///
    /// After each [`Session::replay`], every run in which two events of a
    /// declared independent set executed adjacently (with no declared
    /// interferer inside the set's span — the precondition for Algorithm
    /// 3's merging) is re-checked: the run's prefix is re-executed, the
    /// pair is applied in both orders, and the hashed replica observations
    /// plus per-event [`OpOutcome`]s are compared. Any difference lands in
    /// [`Session::sanitizer_report`] as an
    /// [`IndependenceViolation`](crate::IndependenceViolation).
    ///
    /// The sanitizer never changes the [`Report`]: a sanitizer-on replay is
    /// byte-identical to a sanitizer-off one under [`Report::diff`] (pinned
    /// by the `sanitizer_equivalence` suite).
    pub fn set_sanitizer(&mut self, sanitize: bool) -> &mut Self {
        self.replay.sanitize = sanitize;
        self
    }

    /// The independence findings of the last sanitizer-enabled replay
    /// (`None` before the first such replay, or while the sanitizer is
    /// off).
    pub fn sanitizer_report(&self) -> Option<&SanitizerReport> {
        self.sanitizer_report.as_ref()
    }

    /// Enables pre-replay certification of the commutativity table
    /// (default: **off**).
    ///
    /// Each [`Session::replay`] then runs the bounded certifier
    /// ([`er_pi_analysis::certify_table`]) and validates both the table and
    /// the replay's effective independence declarations against it; any
    /// unsound or vacuous entry is appended to [`Report::diagnostics`] as
    /// an `independence-soundness` lint (misconception number 0), alongside
    /// the five misconception lints.
    pub fn set_certify(&mut self, certify: bool) -> &mut Self {
        self.replay.certify = certify;
        self
    }

    /// Attaches a telemetry sink: recording, enumeration, each pruning
    /// algorithm, dispatch, every replayed run, constraint checking, and
    /// the end-of-session summary emit structured events into it (see the
    /// `er_pi_telemetry` crate for the sinks).
    ///
    /// Telemetry is strictly write-only — attaching any sink leaves the
    /// [`Report`] byte-identical to a detached run ([`Report::diff`]
    /// returns `None` between the two;
    /// `tests/suite/telemetry_equivalence.rs` pins this). The default is
    /// [`er_pi_telemetry::NullSink`], which disables the whole layer down to
    /// one dead branch per instrumented site.
    pub fn set_telemetry(&mut self, sink: Arc<dyn Sink>) -> &mut Self {
        self.attach.telemetry = Telemetry::new(sink);
        self
    }

    /// Attaches label-scoped registry metrics
    /// ([`SessionMetrics`](crate::SessionMetrics)): every subsequent
    /// replay counts its finished runs in the campaign's
    /// run/cache/subsumption series and folds pruner statistics and the
    /// final cache hit rate in when the replay completes.
    ///
    /// Like telemetry sinks, the registry is strictly write-only: an
    /// attached registry leaves the [`Report`] byte-identical to a
    /// detached run.
    pub fn set_metrics(&mut self, metrics: SessionMetrics) -> &mut Self {
        self.attach.metrics = Some(metrics);
        self
    }

    /// Installs a periodic progress callback, invoked every `every`
    /// finished runs (from whichever thread crosses the boundary) with a
    /// live [`ProgressSnapshot`]: runs/sec, measured ETA, the a-priori
    /// projection (the cap times [`TimeModel::run_cost_us`], in seconds),
    /// cache hit rate, and per-worker utilization.
    pub fn set_progress_hook(
        &mut self,
        every: usize,
        hook: impl Fn(&ProgressSnapshot) + Send + Sync + 'static,
    ) -> &mut Self {
        self.attach.progress_every = every.max(1);
        self.attach.progress = Some(Arc::new(hook));
        self
    }

    /// Attaches a cooperative [`CancelToken`] to every subsequent replay.
    ///
    /// Cancellation is checked between claimed chunks and once more
    /// before the merge: tripping the token makes the in-flight replay
    /// stop at the next boundary and return [`ErPiError::Cancelled`],
    /// discarding its partial results.
    /// The session stays usable — replace or clear the token and replay
    /// again. The campaign server trips a per-campaign token from its
    /// `DELETE /campaigns/:id` handler.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) -> &mut Self {
        self.attach.cancel = token;
        self
    }

    /// `ER-π.Start()` … `ER-π.End()`: runs `drive` against a live instance
    /// of the system, intercepting every call as an event. Returns the
    /// extracted workload.
    pub fn record(&mut self, drive: impl FnOnce(&mut LiveSystem<'_, M>)) -> &Workload {
        let t_record = self.attach.telemetry.start();
        let mut live = LiveSystem::new(&self.model);
        drive(&mut live);
        self.attach.telemetry.span_since(
            COORDINATOR_TRACK,
            "record",
            t_record,
            vec![("events", live.builder.len().into())],
        );
        self.workload = Some(live.builder.build());
        self.workload.as_ref().expect("just set")
    }

    /// Installs a pre-built workload (used by the bug catalogue, where the
    /// event sets come from the reported issues).
    pub fn set_workload(&mut self, workload: Workload) -> &mut Self {
        self.workload = Some(workload);
        self
    }

    /// Schedules an explicit list of fault plans: every replay explores the
    /// product `orders × plans`, with each plan interpreted
    /// deterministically (drops, duplicates, delays, partition windows,
    /// crash-restarts are *scheduled choice points*, not random draws).
    ///
    /// Fault plans are part of run identity — they enter interleaving
    /// fingerprints, dedup, persistence, and the path-cache step keys — so
    /// incremental and scratch replays of the same plan list, at any worker
    /// count, produce byte-identical reports ([`Report::diff`] returns `None`).
    ///
    /// Takes precedence over [`Session::set_fault_space`]. An empty list
    /// (or neither setter called) keeps the fault-free pipeline
    /// bit-identical to previous releases.
    pub fn set_fault_plans(&mut self, plans: Vec<FaultPlan>) -> &mut Self {
        self.fault_plans = Some(plans);
        self
    }

    /// Schedules a [`FaultSpace`]: each replay enumerates its budget-bounded
    /// plan list over the *current* workload via [`enumerate_plans`] and
    /// explores the product `orders × plans` (baseline first when the space
    /// includes it). See [`Session::set_fault_plans`] for the determinism
    /// contract.
    pub fn set_fault_space(&mut self, space: FaultSpace) -> &mut Self {
        self.fault_space = Some(space);
        self
    }

    /// The fault plans the next replay will explore over `workload`:
    /// explicit plans win, else the configured space is enumerated, else
    /// the single fault-free baseline.
    fn resolve_fault_plans(&self, workload: &Workload) -> Vec<FaultPlan> {
        if let Some(plans) = &self.fault_plans {
            return plans.clone();
        }
        if let Some(space) = &self.fault_space {
            return enumerate_plans(workload, space);
        }
        Vec::new()
    }

    /// The recorded workload, if any.
    pub fn workload(&self) -> Option<&Workload> {
        self.workload.as_ref()
    }

    /// Runs the static trace analysis over the recorded workload:
    /// happens-before graph, commutativity classification, derived
    /// independence, and the misconception lints.
    ///
    /// # Errors
    ///
    /// [`ErPiError::NothingRecorded`] without a prior
    /// [`Session::record`]/[`Session::set_workload`].
    pub fn analyze(&self) -> Result<TraceAnalysis, ErPiError> {
        self.workload
            .as_ref()
            .map(er_pi_analysis::analyze)
            .ok_or(ErPiError::NothingRecorded)
    }

    /// Sets up the campaign both replay entry points run: this session's
    /// exploration of `workload` under `effective`, on `slots` slots.
    fn campaign<'w>(
        &self,
        workload: Cow<'w, Workload>,
        effective: PruningConfig,
        slots: usize,
        instrument: &Instrument,
    ) -> Campaign<'w, M> {
        let params = Params {
            plans: self.resolve_fault_plans(&workload),
            workload,
            replay: self.replay,
            config: effective,
            time: self.time.clone(),
            slots,
            instrument: instrument.clone(),
        };
        Campaign::new(params, DEFAULT_CHUNK_SIZE)
    }

    /// Replays the recorded workload's interleavings and checks `suite`
    /// after each one — States 2–4 of the paper's workflow.
    ///
    /// The pruned set is dispensed in chunks to the session's replay slots
    /// (the default is one per available core, see
    /// [`Session::set_workers`]): slot 0 runs on the calling thread, every
    /// further slot on a scoped thread, and the merged report is
    /// deterministically identical for any slot count.
    ///
    /// # Errors
    ///
    /// [`ErPiError::NothingRecorded`] without a prior
    /// [`Session::record`]/[`Session::set_workload`];
    /// [`ErPiError::Constraints`] if a constraints file is malformed;
    /// [`ErPiError::ExecutorPanic`] if the model panics during a replay,
    /// on any slot (the session stays usable);
    /// [`ErPiError::Cancelled`] if the session's
    /// [cancel token](Session::set_cancel_token) trips mid-campaign.
    pub fn replay(&mut self, suite: &TestSuite<M::State>) -> Result<Report, ErPiError>
    where
        M: Sync,
        M::State: Send + Sync,
    {
        let workload = self.workload.clone().ok_or(ErPiError::NothingRecorded)?;
        let started = Instant::now();
        let slots = match self.constraints {
            Some(_) => 1,
            None => self.replay.slots(),
        };
        let instrument = self
            .attach
            .instrument(&workload, slots, &self.replay, &self.time);
        let (diagnostics, effective) = self.prepare_replay(&workload)?;
        let mut campaign = self.campaign(Cow::Borrowed(&workload), effective, slots, &instrument);
        if let Some(dir) = self.constraints.as_mut() {
            campaign.watch(Watch {
                dir,
                config: &mut self.config,
            });
        }
        let model = &self.model;
        let outcome = campaign.run(Subject { model, suite })?;
        Ok(self.finish_replay(&workload, suite, &instrument, started, outcome, diagnostics))
    }

    /// Replays the recorded workload on a shared [`ExecutorService`]
    /// instead of threads of its own: the campaign is queued at `priority`
    /// (lower is more urgent) and its chunks are multiplexed over the
    /// service's process-wide worker threads alongside every co-scheduled
    /// campaign. It is the same campaign [`Session::replay`] runs, stepped
    /// by other threads, so the merged report is deterministically
    /// identical — byte for byte under [`Report::canonical_json`], for any
    /// co-tenancy mix — the contract the `server_equivalence` suite pins.
    ///
    /// Unlike [`Session::replay`], the service path needs to ship the
    /// campaign to threads that outlive this call, hence the stronger
    /// bounds (`M: Clone + Send + Sync + 'static`). A watched constraints
    /// directory is polled once before generation (as always) but not
    /// between runs — State-4 live ingestion pins a campaign to one slot,
    /// which a shared service does not offer.
    ///
    /// # Errors
    ///
    /// Everything [`Session::replay`] returns; a service shut down with
    /// the campaign still queued also reports [`ErPiError::Cancelled`].
    pub fn replay_on(
        &mut self,
        service: &ExecutorService,
        priority: u8,
        suite: &TestSuite<M::State>,
    ) -> Result<Report, ErPiError>
    where
        M: Clone + Send + Sync + 'static,
        M::State: Send + Sync,
    {
        let workload = self.workload.clone().ok_or(ErPiError::NothingRecorded)?;
        let started = Instant::now();
        let slots = service.workers();
        let mut instrument = self
            .attach
            .instrument(&workload, slots, &self.replay, &self.time);
        instrument.svc = service.metrics.clone();
        let (diagnostics, effective) = self.prepare_replay(&workload)?;
        let campaign = self.campaign(Cow::Owned(workload.clone()), effective, slots, &instrument);
        let outcome =
            service.run_campaign(campaign, self.model.clone(), suite.clone(), priority)?;
        Ok(self.finish_replay(&workload, suite, &instrument, started, outcome, diagnostics))
    }

    /// The shared pre-replay pipeline: static analysis, pending-constraint
    /// ingestion, the effective pruning configuration, and (optionally)
    /// table certification. Returns the pre-replay diagnostics plus the
    /// configuration the exploration will run under.
    fn prepare_replay(
        &mut self,
        workload: &Workload,
    ) -> Result<(Vec<Diagnostic>, PruningConfig), ErPiError> {
        // The static pass always runs: its lints land in the report, and —
        // if enabled — its derived independence feeds Algorithm 3.
        let telemetry = &self.attach.telemetry;
        let t_analyze = telemetry.start();
        let analysis = er_pi_analysis::analyze(workload);
        let mut diagnostics = analysis.diagnostics.clone();
        telemetry.span_since(
            COORDINATOR_TRACK,
            "analyze",
            t_analyze,
            vec![
                ("events", workload.len().into()),
                ("diagnostics", diagnostics.len().into()),
            ],
        );

        // Ingest any constraints already waiting before generating (the
        // State 4 → State 2 loop can begin with pre-discovered rules).
        if let Some(constraints) = self.constraints.as_mut() {
            if let Some(newer) = constraints.poll()? {
                self.config.absorb(newer);
            }
        }

        // The effective configuration for this replay: the session's own
        // rules, optionally extended by the analysis-derived independence.
        // Kept local so repeated replays never accumulate duplicates.
        let mut effective = self.config.clone();
        // Sleep sets consume the analysis-derived independence relation, so
        // enabling them implies the auto-independence merge.
        if self.replay.auto_independence || self.replay.sleep_sets {
            effective.absorb(analysis.to_pruning_config());
        }
        effective.sleep_sets |= self.replay.sleep_sets;

        // Pre-campaign certification: audit the commutativity table itself
        // and cross-check the effective independence declarations against
        // the certified verdicts. Findings join the misconception lints.
        if self.replay.certify {
            let t_certify = telemetry.start();
            let table = er_pi_analysis::certify_table();
            let mut findings = er_pi_analysis::validate_table(&table);
            findings.extend(er_pi_analysis::validate_independence(
                workload, &effective, &table,
            ));
            telemetry.span_since(
                COORDINATOR_TRACK,
                "certify",
                t_certify,
                vec![
                    (
                        "claims",
                        (table.commute_claims.len() + table.conflict_claims.len()).into(),
                    ),
                    ("findings", findings.len().into()),
                ],
            );
            diagnostics.extend(findings);
        }

        Ok((diagnostics, effective))
    }

    /// The shared post-replay pipeline: the independence sanitizer, the
    /// cross-interleaving checks, retry-cost accounting, the session summary
    /// (which the instrument closes every view on), and the assembled
    /// [`Report`].
    fn finish_replay(
        &mut self,
        workload: &Workload,
        suite: &TestSuite<M::State>,
        instrument: &Instrument,
        started: Instant,
        mut outcome: Outcome,
        diagnostics: Vec<Diagnostic>,
    ) -> Report {
        // Dynamic independence cross-check: re-execute every adjacent
        // declared-independent pair swap the pruners relied on. Strictly
        // read-only with respect to the report — findings live on the
        // session only.
        let telemetry = &self.attach.telemetry;
        self.sanitizer_report = self.replay.sanitize.then(|| {
            let t_sanitize = telemetry.start();
            let report =
                crate::sanitizer::sanitize(&self.model, workload, &outcome.config, &outcome.runs);
            telemetry.span_since(
                COORDINATOR_TRACK,
                "sanitize",
                t_sanitize,
                vec![
                    ("pairs_checked", report.pairs_checked.into()),
                    ("violations", report.violations.len().into()),
                ],
            );
            report
        });

        // Cross-interleaving checks (misconceptions #1/#5 detectors).
        let cross_ctx = CrossContext {
            runs: &outcome.runs,
        };
        for check in suite.cross_checks() {
            if let Err(message) = check.check(&cross_ctx) {
                outcome.violations.push(Violation {
                    run: None,
                    assertion: Arc::clone(check.shared_name()),
                    message: message.into(),
                    interleaving: None,
                });
            }
        }

        // Charge the Random mode's shuffle-retry overhead.
        let sim_us_total = outcome.sim_us + outcome.wasted * self.time.shuffle_retry_cost_us;
        let wall_ms = started.elapsed().as_millis();

        // A subsumption-only executor keeps no snapshots: each of its runs
        // counts a miss without there having been a cache to miss.
        let cache = outcome
            .cache_stats
            .map(|stats| match self.replay.incremental {
                true => stats,
                false => CacheStats {
                    hits: 0,
                    misses: 0,
                    ..stats
                },
            });
        let session_summary = SessionSummary {
            mode: outcome.mode.clone(),
            explored: outcome.explored,
            executed: outcome.worker_loads.iter().map(|load| load.runs).sum(),
            violations: outcome.violations.len(),
            sim_us: sim_us_total,
            wall_ms,
            grouping_factor: outcome.prune_stats.map(|s| s.grouping_factor),
            pruners: SessionSummary::pruner_rows(
                outcome.prune_stats.as_ref(),
                outcome.filter_timings.as_ref(),
            ),
            workers: outcome.worker_loads,
            cache,
            failures: outcome.failures,
        };
        instrument.campaign_done(&session_summary);

        // The degraded-cache rule once more, over the final counts, for
        // campaigns nobody watched live. Advisories are scheduling-dependent
        // — hit/miss attribution depends on which slot got which run — so
        // they live OUTSIDE the byte-identical report contract, like
        // `wall_ms` and the summary's worker rows.
        let cache = cache.unwrap_or_default();
        let advisories = Vec::from_iter(low_hit_rate(cache.hits, cache.misses));

        Report {
            mode: outcome.mode,
            explored: outcome.explored,
            first_violation_at: outcome.first_violation_at,
            prune_stats: outcome.prune_stats,
            wasted_work: outcome.wasted,
            wall_ms,
            sim_us: sim_us_total,
            runs: match self.replay.returns_records(suite) {
                true => outcome.runs,
                false => Vec::new(),
            },
            violations: outcome.violations,
            stopped_early: outcome.stopped_early,
            diagnostics,
            cache_stats: outcome.cache_stats,
            session_summary,
            advisories,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::testing::RegApp;

    fn record_two_writes(session: &mut Session<RegApp>) {
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        session.record(|sys| {
            let w1 = sys.invoke(a, "set", [Value::from(1)]);
            sys.sync(a, b, w1);
            let w2 = sys.invoke(b, "set", [Value::from(2)]);
            sys.sync(b, a, w2);
        });
    }

    /// The defaults live in `ReplayConfig::default()` and nowhere else, and
    /// each setter writes the field it names and no other.
    #[test]
    fn setters_write_the_one_replay_config() {
        let mut expected = ReplayConfig::default();
        assert_eq!(
            (expected.mode, expected.cap, expected.workers),
            (ExploreMode::ErPi, 10_000, 0),
            "ER-π mode, the paper's cap, every core"
        );
        assert!(expected.incremental);

        let mut session = Session::new(RegApp);
        assert_eq!(session.replay_config(), &expected);
        macro_rules! writes {
            ($setter:ident($value:expr) => $field:ident) => {
                session.$setter($value);
                expected.$field = $value;
                assert_eq!(session.replay_config(), &expected, stringify!($setter));
            };
        }
        writes!(set_mode(ExploreMode::Dfs) => mode);
        writes!(set_cap(7) => cap);
        writes!(set_stop_on_first_violation(true) => stop_on_first_violation);
        writes!(set_workers(3) => workers);
        writes!(set_incremental(false) => incremental);
        writes!(set_subsumption(true) => subsumption);
        writes!(set_sleep_sets(true) => sleep_sets);
        writes!(set_auto_independence(true) => auto_independence);
        writes!(set_sanitizer(true) => sanitize);
        writes!(set_certify(true) => certify);
        writes!(set_keep_runs(true) => keep_runs);
    }

    #[test]
    fn replay_without_recording_errors() {
        let mut session = Session::new(RegApp);
        let err = session.replay(&TestSuite::new());
        assert!(matches!(err, Err(ErPiError::NothingRecorded)));
    }

    #[test]
    fn recording_executes_live_and_extracts_events() {
        let mut session = Session::new(RegApp);
        let a = ReplicaId::new(0);
        let workload_len = {
            session.record(|sys| {
                let w = sys.invoke(a, "set", [Value::from(9)]);
                assert_eq!(*sys.state(a), 9, "live execution happens during record");
                assert_eq!(sys.outcome(w), &OpOutcome::Applied);
                assert_eq!(sys.len(), 1);
            });
            session.workload().unwrap().len()
        };
        assert_eq!(workload_len, 1);
    }

    #[test]
    fn replay_explores_grouped_space() {
        let mut session = Session::new(RegApp);
        record_two_writes(&mut session);
        let report = session.replay(&TestSuite::new()).unwrap();
        // 4 events, 2 (update, sync) pairs → 2 units → 2 interleavings.
        assert_eq!(report.explored, 2);
        assert_eq!(report.mode, "ER-π");
        assert!(report.passed());
        assert!(report.prune_stats.is_some());
        assert!(report.sim_us > 0);
    }

    #[test]
    fn dfs_mode_explores_everything() {
        let mut session = Session::new(RegApp);
        record_two_writes(&mut session);
        session.set_mode(ExploreMode::Dfs);
        let report = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(report.explored, 24); // 4!
        assert_eq!(report.mode, "DFS");
        assert!(report.prune_stats.is_none());
    }

    #[test]
    fn random_mode_is_capped_and_tracks_retries() {
        let mut session = Session::new(RegApp);
        record_two_writes(&mut session);
        session.set_mode(ExploreMode::Random { seed: 5 });
        session.set_cap(10);
        let report = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(report.explored, 10);
        assert!(report.stopped_early);
        assert_eq!(report.mode, "Rand");
    }

    #[test]
    fn violations_are_reported_with_interleavings() {
        let mut session = Session::new(RegApp);
        record_two_writes(&mut session);
        session.set_mode(ExploreMode::Dfs);
        // Final convergence only holds when the last sync runs last; many
        // DFS orders violate it.
        let suite = TestSuite::new().with(Assertion::replicas_converge("conv"));
        let report = session.replay(&suite).unwrap();
        assert!(!report.passed());
        assert!(report.first_violation_at.is_some());
        let v = &report.violations[0];
        assert_eq!(&*v.assertion, "conv");
        assert!(v.interleaving.is_some());
    }

    #[test]
    fn stop_on_first_violation_halts_early() {
        let mut session = Session::new(RegApp);
        record_two_writes(&mut session);
        session.set_mode(ExploreMode::Dfs);
        session.set_stop_on_first_violation(true);
        let suite = TestSuite::new().with(Assertion::replicas_converge("conv"));
        let report = session.replay(&suite).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.stopped_early);
        assert_eq!(
            report.first_violation_at.map(|i| i + 1),
            Some(report.explored)
        );
    }

    #[test]
    fn incremental_default_diffs_clean_against_scratch() {
        // `set_incremental` defaults on; its report must be byte-identical
        // to the scratch executor's, on one slot and on four, with the
        // cache counters present only on the incremental side.
        for workers in [1, 4] {
            let mut incremental = Session::new(RegApp);
            record_two_writes(&mut incremental);
            incremental.set_mode(ExploreMode::Dfs).set_workers(workers);
            assert!(
                incremental.replay_config().incremental,
                "incremental defaults on"
            );
            let inc = incremental.replay(&TestSuite::new()).unwrap();

            let mut scratch = Session::new(RegApp);
            record_two_writes(&mut scratch);
            scratch
                .set_mode(ExploreMode::Dfs)
                .set_workers(workers)
                .set_incremental(false);
            let base = scratch.replay(&TestSuite::new()).unwrap();

            assert_eq!(inc.diff(&base), None, "at {workers} workers");
            assert!(base.cache_stats.is_none());
            let stats = inc.cache_stats.expect("incremental counters");
            assert_eq!(stats.hits + stats.misses, 24);
            assert!(inc.sim_us_actual() <= inc.sim_us);
        }
    }

    #[test]
    fn auto_independence_merges_commuting_updates() {
        // Two concurrent counter increments at different replicas: with
        // hand-declared rules absent, ER-π explores both orders; the static
        // analysis derives their independence and merges them into one.
        let mut session = Session::new(RegApp);
        session.record(|sys| {
            sys.invoke(ReplicaId::new(0), "counter_inc", [Value::from(1)]);
            sys.invoke(ReplicaId::new(1), "counter_inc", [Value::from(1)]);
        });
        let baseline = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(baseline.explored, 2);

        session.set_auto_independence(true);
        let report = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(report.explored, 1, "derived independence merges the pair");

        // The analysis is re-derived per replay; repeating does not
        // accumulate duplicate sets or change the result.
        let again = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(again.explored, 1);
        assert!(session.config_mut().independent_sets.is_empty());
    }

    #[test]
    fn auto_independence_leaves_conflicting_updates_alone() {
        // Two concurrent LWW-register writes conflict (last writer wins, so
        // order matters): the static pass must not merge them even when
        // enabled.
        let mut session = Session::new(RegApp);
        session.record(|sys| {
            sys.invoke(ReplicaId::new(0), "reg_set", [Value::from(1)]);
            sys.invoke(ReplicaId::new(1), "reg_set", [Value::from(2)]);
        });
        session.set_auto_independence(true);
        let report = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(report.explored, 2);
    }

    #[test]
    fn reports_carry_pre_replay_diagnostics() {
        let mut session = Session::new(RegApp);
        session.record(|sys| {
            sys.invoke(ReplicaId::new(0), "todo_create", [Value::from(1)]);
            sys.invoke(ReplicaId::new(1), "todo_create", [Value::from(2)]);
        });
        let report = session.replay(&TestSuite::new()).unwrap();
        assert!(report.diagnostics.iter().any(|d| d.misconception == 4));
    }

    #[test]
    fn analyze_exposes_the_static_pass() {
        let mut session = Session::new(RegApp);
        assert!(session.analyze().is_err(), "nothing recorded yet");
        session.record(|sys| {
            sys.invoke(ReplicaId::new(0), "reg_set", [Value::from(1)]);
            sys.invoke(ReplicaId::new(1), "reg_set", [Value::from(2)]);
        });
        let analysis = session.analyze().unwrap();
        assert!(
            analysis.independence.sets.is_empty(),
            "LWW register writes conflict"
        );
    }

    #[test]
    fn telemetry_covers_the_pipeline_and_never_changes_the_report() {
        let sink = Arc::new(er_pi_telemetry::MemorySink::new());
        let mut watched = Session::new(RegApp);
        watched.set_telemetry(sink.clone());
        record_two_writes(&mut watched);
        watched.set_mode(ExploreMode::Dfs).set_workers(1);
        let report = watched.replay(&TestSuite::new()).unwrap();

        let mut plain = Session::new(RegApp);
        record_two_writes(&mut plain);
        plain.set_mode(ExploreMode::Dfs).set_workers(1);
        let base = plain.replay(&TestSuite::new()).unwrap();
        assert_eq!(report.diff(&base), None, "telemetry is write-only");

        let events = sink.events();
        for expected in ["record", "analyze", "run", "check", "summary"] {
            assert!(
                events.iter().any(|e| e.name == expected),
                "missing {expected} event"
            );
        }
        let runs = events.iter().filter(|e| e.name == "run").count();
        assert_eq!(runs, report.explored);
        assert_eq!(report.session_summary.explored, report.explored);
        assert_eq!(report.session_summary.mode, report.mode);
    }

    #[test]
    fn pooled_telemetry_lands_runs_on_worker_tracks() {
        let sink = Arc::new(er_pi_telemetry::MemorySink::new());
        let mut session = Session::new(RegApp);
        session.set_telemetry(sink.clone());
        record_two_writes(&mut session);
        session.set_mode(ExploreMode::Dfs).set_workers(2);
        let report = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(report.explored, 24);

        let events = sink.events();
        let run_tracks: std::collections::BTreeSet<u32> = events
            .iter()
            .filter(|e| e.name == "run")
            .map(|e| e.track)
            .collect();
        assert!(
            run_tracks.iter().all(|&t| t >= 1),
            "pooled runs live on worker tracks, got {run_tracks:?}"
        );
        assert!(events.iter().any(|e| e.name == "claim"));
        assert_eq!(report.session_summary.workers.len(), 2);
    }

    #[test]
    fn erpi_mode_emits_per_pruner_spans() {
        let sink = Arc::new(er_pi_telemetry::MemorySink::new());
        let mut session = Session::new(RegApp);
        session.set_telemetry(sink.clone());
        record_two_writes(&mut session);
        // Force a filter to actually run: require causal validity.
        session.config_mut().require_causal = true;
        session.set_workers(1);
        let report = session.replay(&TestSuite::new()).unwrap();
        assert!(sink.events().iter().any(|e| e.name == "prune:causal"));
        let row = &report.session_summary.pruners[0];
        assert_eq!(row.name, "causal");
        assert!(row.checked > 0);
    }

    #[test]
    fn progress_hook_fires_with_live_counters() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        let mut session = Session::new(RegApp);
        record_two_writes(&mut session);
        session.set_mode(ExploreMode::Dfs).set_workers(1);
        let run_cost_us = TimeModel::paper_setup().run_cost_us(session.workload().unwrap());
        let projection = run_cost_us as f64 * session.replay_config().cap as f64 / 1e6;
        session.set_progress_hook(8, move |snap| {
            assert!(snap.runs_done > 0);
            assert!(snap.expected_total.is_some());
            assert_eq!(snap.campaign_secs_hint, Some(projection));
            fired2.fetch_add(1, Ordering::Relaxed);
        });
        let report = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(report.explored, 24);
        // Every 8 runs (3×) plus the final end-of-replay sample.
        assert_eq!(fired.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn sanitizer_catches_false_independence_declaration() {
        // Two same-replica register writes do NOT commute (the second one
        // wins); declaring them independent is unsound, and the sanitizer
        // proves it dynamically from the retained runs — even though the
        // pruner already merged the swapped order away.
        let mut session = Session::new(RegApp);
        let r0 = ReplicaId::new(0);
        session.record(|sys| {
            sys.invoke(r0, "set", [Value::from(1)]);
            sys.invoke(r0, "set", [Value::from(2)]);
        });
        session
            .config_mut()
            .independent_sets
            .push(vec![EventId::new(0), EventId::new(1)]);
        session.set_workers(1).set_sanitizer(true);
        let with = session.replay(&TestSuite::new()).unwrap();
        let findings = session.sanitizer_report().expect("sanitizer ran").clone();
        assert!(!findings.passed());
        assert_eq!(findings.violations[0].first, EventId::new(0));
        assert_eq!(findings.violations[0].second, EventId::new(1));
        assert!(findings.pairs_checked >= 1);

        // The report itself is untouched by the sanitizer.
        session.set_sanitizer(false);
        let without = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(with.diff(&without), None);
        assert!(session.sanitizer_report().is_none());
    }

    #[test]
    fn sanitizer_accepts_sound_independence() {
        // Writes at different replicas with no sync genuinely commute:
        // zero violations, and dedup keeps re-execution bounded.
        let mut session = Session::new(RegApp);
        session.record(|sys| {
            sys.invoke(ReplicaId::new(0), "set", [Value::from(1)]);
            sys.invoke(ReplicaId::new(1), "set", [Value::from(2)]);
        });
        session
            .config_mut()
            .independent_sets
            .push(vec![EventId::new(0), EventId::new(1)]);
        session.set_mode(ExploreMode::Dfs).set_workers(1);
        session.set_sanitizer(true);
        session.replay(&TestSuite::new()).unwrap();
        let findings = session.sanitizer_report().unwrap();
        assert!(findings.passed(), "{:?}", findings.violations);
        assert_eq!(findings.runs_scanned, 2);
        assert!(findings.pairs_checked >= 1);
    }

    #[test]
    fn certify_surfaces_unsound_declarations_as_diagnostics() {
        let mut session = Session::new(RegApp);
        session.record(|sys| {
            sys.invoke(ReplicaId::new(0), "reg_set", [Value::from(1)]);
            sys.invoke(ReplicaId::new(1), "reg_set", [Value::from(2)]);
        });
        session.set_certify(true);

        // Healthy table, no declarations: certification is silent.
        let clean = session.replay(&TestSuite::new()).unwrap();
        assert!(clean
            .diagnostics
            .iter()
            .all(|d| d.pattern != crate::LintPattern::IndependenceSoundness));

        // Declaring the conflicting LWW writes independent is flagged
        // before the campaign, with the certified conflict reason.
        session
            .config_mut()
            .independent_sets
            .push(vec![EventId::new(0), EventId::new(1)]);
        let flagged = session.replay(&TestSuite::new()).unwrap();
        let finding = flagged
            .diagnostics
            .iter()
            .find(|d| d.pattern == crate::LintPattern::IndependenceSoundness)
            .expect("soundness diagnostic");
        assert_eq!(finding.misconception, 0);
        assert!(finding.message.contains("register writes tie-break"));
        session.config_mut().independent_sets.clear();
    }

    #[test]
    fn fault_space_multiplies_run_identity_deterministically() {
        use er_pi_interleave::FaultSpace;
        // Default space over two syncs: baseline + (duplicate, delay@1) at
        // each sync = 5 plans; DFS explores 24 orders → 120 product runs.
        let mut plain = Session::new(RegApp);
        record_two_writes(&mut plain);
        plain.set_mode(ExploreMode::Dfs).set_workers(1);
        let base = plain.replay(&TestSuite::new()).unwrap();
        assert_eq!(base.explored, 24);

        let mut reference = None;
        for workers in [1, 2, 4] {
            for incremental in [false, true] {
                let mut session = Session::new(RegApp);
                record_two_writes(&mut session);
                session
                    .set_mode(ExploreMode::Dfs)
                    .set_workers(workers)
                    .set_incremental(incremental)
                    .set_fault_space(FaultSpace::default());
                let report = session.replay(&TestSuite::new()).unwrap();
                assert_eq!(report.explored, 120, "24 orders x 5 plans");
                match &reference {
                    None => reference = Some(report),
                    Some(first) => assert_eq!(
                        report.diff(first),
                        None,
                        "workers={workers} incremental={incremental}"
                    ),
                }
            }
        }
    }

    #[test]
    fn explicit_plans_win_and_baseline_only_is_transparent() {
        use er_pi_model::FaultPlan;
        let mut plain = Session::new(RegApp);
        record_two_writes(&mut plain);
        plain.set_mode(ExploreMode::Dfs).set_workers(1);
        let base = plain.replay(&TestSuite::new()).unwrap();

        // Explicit plans override the configured space; the single empty
        // plan leaves the report byte-identical to a fault-free session.
        let mut session = Session::new(RegApp);
        record_two_writes(&mut session);
        session
            .set_mode(ExploreMode::Dfs)
            .set_workers(1)
            .set_fault_space(er_pi_interleave::FaultSpace::all(2))
            .set_fault_plans(vec![FaultPlan::empty()]);
        let report = session.replay(&TestSuite::new()).unwrap();
        assert_eq!(report.diff(&base), None);
    }

    #[test]
    fn cross_checks_see_all_runs() {
        let mut session = Session::new(RegApp);
        record_two_writes(&mut session);
        session.set_mode(ExploreMode::Dfs);
        let suite = TestSuite::new().with_cross(
            crate::CrossCheck::same_state_across_interleavings("stable-a", 0),
        );
        let report = session.replay(&suite).unwrap();
        // Different interleavings leave replica 0 in different states.
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| v.run.is_none()));
        assert!(!report.runs.is_empty(), "cross checks retain runs");
    }

    use crate::Assertion;
}
