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

use er_pi::{
    Assertion, Attachments, ErPiError, ExecutorService, ExploreMode, ForensicBundle,
    InlineExecutor, PruningConfig, ReplayConfig, Report, SanitizerReport, Session, SystemModel,
    TestSuite, TimeModel, Violation,
};
use er_pi_interleave::{DfsExplorer, PruneStats};
use er_pi_model::{EventId, Workload};

use crate::{
    OrbitModel, OrbitState, ReplicaDbModel, ReplicaDbState, RoshiModel, RoshiState, YorkieModel,
    YorkieState,
};

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
///
/// The predicate runs after every replay of the bug, pass or fail, so it
/// reads the states in place — [`JsonDoc::view`](er_pi_rdl::JsonDoc::view),
/// [`MerkleLog::arrival`](er_pi_rdl::MerkleLog::arrival),
/// [`JsonDoc::ops`](er_pi_rdl::JsonDoc::ops) — instead of snapshotting
/// them, and formats its symptom only when the bug manifested.
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
}

/// The one place that dispatches on a bug's subject: evaluates `$body` with
/// `$model` and `$check` bound to the bug's model and violation check,
/// monomorphised per subject.
macro_rules! with_subject {
    ($bug:expr, |$model:ident, $check:ident| $body:expr) => {
        match &$bug.imp {
            BugImpl::Roshi {
                model: $model,
                check: $check,
            } => $body,
            BugImpl::Orbit {
                model: $model,
                check: $check,
            } => $body,
            BugImpl::ReplicaDb {
                model: $model,
                check: $check,
            } => $body,
            BugImpl::Yorkie {
                model: $model,
                check: $check,
            } => $body,
        }
    };
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
/// summed [`SystemModel::state_size_hint`], the budget charge the same clone
/// would incur as a snapshot, which that test pins under a kilobyte. The
/// benchmark times the clone as `model.snapshot_clone_ns`.
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

fn run_dfs_base<M, S>(
    model: &M,
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
        let exec = InlineExecutor::execute(model, workload, &il, &time);
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

    /// A session over `model` replaying this bug's workload under `replay`
    /// — with `config` as its pruning rules in ER-π mode — and reporting
    /// through `attach`: everything but who runs the replay.
    fn session<M: SystemModel + Clone>(
        &self,
        model: &M,
        config: &PruningConfig,
        replay: &ReplayConfig,
        attach: Attachments,
    ) -> Session<M> {
        let mut session = Session::with_config(model.clone(), *replay, attach);
        session.set_workload(self.workload.clone());
        if matches!(replay.mode, ExploreMode::ErPi) {
            session.set_config(config.clone());
        }
        session
    }

    /// Replays the bug under `replay` on threads of the session's own, with
    /// `config` as the pruning rules.
    fn replay_under(
        &self,
        config: &PruningConfig,
        replay: &ReplayConfig,
        attach: Attachments,
    ) -> (Report, Option<SanitizerReport>) {
        with_subject!(self, |model, check| {
            let mut session = self.session(model, config, replay, attach);
            let report = session
                .replay(&bug_suite(*check))
                .expect("bug workload installed");
            (report, session.sanitizer_report().cloned())
        })
    }

    /// One reproduction attempt: stop at the first violation, on every
    /// available core.
    fn reproduce_under(&self, config: &PruningConfig, mode: ExploreMode, cap: usize) -> Repro {
        let replay = ReplayConfig {
            mode,
            cap,
            stop_on_first_violation: true,
            ..ReplayConfig::default()
        };
        let (report, _) = self.replay_under(config, &replay, Attachments::default());
        Repro {
            mode: report.mode.clone(),
            found_at: report.first_violation_at.map(|i| i + 1),
            explored: report.explored,
            sim_secs: report.sim_secs(),
            wall_ms: report.wall_ms,
            wasted: report.wasted_work,
        }
    }

    /// Attempts to reproduce the bug in `mode`, replaying at most `cap`
    /// interleavings (the paper caps at 10 000).
    pub fn reproduce(&self, mode: ExploreMode, cap: usize) -> Repro {
        self.reproduce_under(&self.config, mode, cap)
    }

    /// Attempts to reproduce the bug in ER-π mode under an explicit
    /// pruning configuration (ablation studies).
    pub fn reproduce_with_config(&self, config: PruningConfig, cap: usize) -> Repro {
        self.reproduce_under(&config, ExploreMode::ErPi, cap)
    }

    /// The fully general replay entry point: the bug's workload and pruning
    /// rules under any [`ReplayConfig`], nothing attached.
    ///
    /// ```
    /// use er_pi::ReplayConfig;
    /// use er_pi_subjects::Bug;
    ///
    /// let bug = Bug::by_name("Roshi-1").unwrap();
    /// let report = bug.replay_report_opts(&ReplayConfig {
    ///     workers: 2,
    ///     ..ReplayConfig::default()
    /// });
    /// assert!(report.explored > 0);
    /// ```
    pub fn replay_report_opts(&self, replay: &ReplayConfig) -> Report {
        self.replay_report_checked(replay, Attachments::default()).0
    }

    /// Like [`Bug::replay_report_opts`], reporting through `attach` and
    /// additionally returning the independence sanitizer's findings (`Some`
    /// iff `replay.sanitize`). The [`Report`] half must be byte-identical
    /// to a detached, sanitizer-off replay — both observe, neither steers.
    pub fn replay_report_checked(
        &self,
        replay: &ReplayConfig,
        attach: Attachments,
    ) -> (Report, Option<SanitizerReport>) {
        self.replay_under(&self.config, replay, attach)
    }

    /// Replays the bug as one campaign on a shared [`ExecutorService`] —
    /// the path the campaign server takes. The resulting [`Report`] must be
    /// byte-identical (under [`Report::canonical_json`]) to
    /// [`Bug::replay_report_opts`] with the same configuration, for any mix
    /// of co-scheduled campaigns — the `server_equivalence` suite pins
    /// this. The service's own thread count stands in for `replay.workers`.
    ///
    /// # Errors
    ///
    /// [`ErPiError::Cancelled`] if `attach.cancel` trips mid-campaign;
    /// [`ErPiError::ExecutorPanic`] if the model panics in a worker.
    pub fn replay_report_on(
        &self,
        service: &ExecutorService,
        priority: u8,
        replay: &ReplayConfig,
        attach: Attachments,
    ) -> Result<Report, ErPiError> {
        with_subject!(self, |model, check| {
            self.session(model, &self.config, replay, attach).replay_on(
                service,
                priority,
                &bug_suite(*check),
            )
        })
    }

    /// Reproduces the bug with a DFS whose frontier expansion order is
    /// `base` instead of the recorded order — modelling the run-to-run
    /// nondeterminism of restarting a real checker (used by the Figure 10
    /// micro-benchmark).
    pub fn reproduce_dfs_perturbed(&self, base: Vec<EventId>, cap: usize) -> Repro {
        with_subject!(self, |model, check| run_dfs_base(
            model,
            &self.workload,
            base,
            cap,
            *check
        ))
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
        with_subject!(self, |model, _check| er_pi::explain_violation(
            model,
            &self.workload,
            violation
        ))
    }

    /// Builds a [`CloneProbe`] over this bug's model: the final states of
    /// the recorded order, behind a type-erased clone interface (the input
    /// of `tests/snapshot_allocs.rs` and of the benchmark's
    /// `model.snapshot_clone_ns`).
    pub fn clone_probe(&self) -> CloneProbe {
        with_subject!(self, |model, _check| probe(model.clone(), &self.workload))
    }

    /// [`prefix_digests`](crate::prefix_digests) of this bug's model along
    /// its recorded order.
    pub fn prefix_digests(&self) -> Vec<(u128, u128)> {
        with_subject!(self, |model, _check| crate::prefix_digests(
            model,
            &self.workload
        ))
    }

    /// [`prefix_encodings`](crate::prefix_encodings) of this bug's model
    /// along its recorded order.
    pub fn prefix_encodings(&self) -> Vec<(u128, Vec<Vec<u8>>)> {
        with_subject!(self, |model, _check| crate::prefix_encodings(
            model,
            &self.workload
        ))
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
            with_subject!(bug, |model, _check| check(model, &bug.workload, bug.name));
        }
    }

    /// At least forty events of `subject`'s vocabulary on `replicas`
    /// replicas: every op log (and every array under it) grows past the
    /// sizes the Table 1 recordings reach, fused and split syncs included.
    fn long_recording(subject: SubjectKind, replicas: usize) -> Workload {
        use er_pi_model::{ReplicaId, Value};
        let r = |i: usize| ReplicaId::new((i % replicas) as u16);
        let text = |s: String| Value::from(s);
        let mut w = Workload::builder();
        for i in 0..14usize {
            let n = i as i64;
            let update = match subject {
                SubjectKind::Roshi => {
                    let member = text(format!("m{}", i % 5));
                    let op = if i % 4 == 3 { "delete" } else { "insert" };
                    w.update(r(i), op, [text("k".into()), member, Value::from(10 + n)])
                }
                SubjectKind::OrbitDb => w.update(r(i), "append", [text(format!("entry-{i}"))]),
                SubjectKind::ReplicaDb => match i % 4 {
                    3 => w.update(r(0), "delete", [Value::from(n - 1)]),
                    _ => w.update(r(0), "put", [Value::from(n), Value::from(n * n)]),
                },
                SubjectKind::Yorkie => match i {
                    0 => w.update(r(i), "new_array", [text("todos".into())]),
                    1..=6 => w.update(r(0), "push", [text("todos".into()), Value::from(n)]),
                    7 => w.update(r(0), "move", [text("todos".into()), 0.into(), 2.into()]),
                    8 => w.update(
                        r(0),
                        "move_naive",
                        [text("todos".into()), 1.into(), 3.into()],
                    ),
                    9 => w.update(r(i), "remove", [text("profile.name".into())]),
                    _ => w.update(r(i), "set", [text(format!("profile.f{}", i % 3)), n.into()]),
                },
                SubjectKind::Crdts => unreachable!("Table 1 has no crdts bug"),
            };
            match subject {
                SubjectKind::ReplicaDb => {
                    w.update(r(1), "read_batch", [Value::from(0), Value::from(n)]);
                    w.update(r(1), "commit_batch", Vec::<Value>::new());
                }
                // The Yorkie array lives at replica 0; everyone hears of it.
                _ if i % 3 == 2 => {
                    w.sync_split(r(i), r(i + 1), Some(update));
                }
                _ => {
                    w.sync_pair(r(i), r(i + 1), update);
                    w.sync_pair(r(i + 1), r(i + 2), update);
                }
            }
        }
        let w = w.build();
        assert!(w.len() >= 40, "{subject}: {} events", w.len());
        w
    }

    #[test]
    fn snapshots_stay_independent_along_long_recordings() {
        use crate::assert_snapshots_stay_independent as check;
        for bug in Bug::catalogue() {
            with_subject!(bug, |model, _check| {
                let workload = long_recording(bug.subject, model.replicas());
                check(model, &workload, bug.name)
            });
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
