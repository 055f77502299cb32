//! The Report-driven oracle: runs a [`FuzzCase`] through a full ER-π
//! replay session and decides whether it found anything.
//!
//! Every case is replayed under two fault plans — the fault-free baseline
//! and the case's schedule — over the same causally-valid interleaving
//! space. A finding is *fault-dependent* when every violating run carries a
//! non-empty fault plan: the baseline sweep doubles as the control group
//! that rules out plain ordering bugs (which the catalogue-driven tests
//! already hunt) and pins the blame on the schedule.

use er_pi::{
    Assertion, CancelToken, ErPiError, ExecutorService, ForensicBundle, Report, Session,
    SessionMetrics, SystemModel, TestSuite, Violation,
};
use er_pi_model::FaultPlan;
use er_pi_subjects::{CrdtsModel, LedgerApp, ProgressFn};
use serde::{Deserialize, Serialize};

use crate::spec::{FuzzCase, Target};

/// Replay knobs for oracle runs.
#[derive(Debug, Clone, Copy)]
pub struct OracleOptions {
    /// Replay slots (1 = the calling thread alone).
    pub workers: usize,
    /// Interleaving cap per case (runs, counting each fault plan).
    pub cap: usize,
    /// Whether the incremental (path-cache) executor is enabled.
    pub incremental: bool,
    /// Whether state-hash subsumption is enabled (byte-identical reports
    /// either way; subsumed runs land in the report's cache counters).
    pub subsumption: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            workers: 1,
            cap: 2048,
            incremental: true,
            subsumption: false,
        }
    }
}

/// A violation the fuzzer decided to keep: the (shrunk) case plus what its
/// replay reported.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// The minimized (workload, fault schedule) pair.
    pub case: FuzzCase,
    /// Name of the violated assertion.
    pub assertion: String,
    /// The violation message of the first violating run.
    pub message: String,
    /// `true` when no fault-free interleaving violates — the violation
    /// needs the fault schedule.
    pub fault_dependent: bool,
    /// [`FuzzCase::fingerprint`] of `case`, the corpus identity.
    pub fingerprint: u64,
}

/// The per-target test suite the oracle replays against.
///
/// * [`Target::Crdts`]: all replicas must observe identical state at the
///   end of every causal interleaving (sound because generated workloads
///   end in a pinned anti-entropy chain, and generated fault kinds cannot
///   defeat it for a state-based RDL — see `gen`).
/// * [`Target::Ledger`]: no replica may apply the same ledger entry twice.
fn crdts_suite() -> TestSuite<er_pi_subjects::CrdtsState> {
    TestSuite::new().with(Assertion::replicas_converge("fuzz-convergence"))
}

fn ledger_suite() -> TestSuite<er_pi_subjects::LedgerState> {
    TestSuite::new().with_assertion(
        "fuzz-exactly-once",
        |ctx: &er_pi::CheckContext<'_, er_pi_subjects::LedgerState>| {
            for (i, state) in ctx.states.iter().enumerate() {
                if let Some(id) = state.duplicated_entry() {
                    return Err(format!("replica {i} applied entry {id} twice"));
                }
            }
            Ok(())
        },
    )
}

/// Replays `case` exhaustively (up to the cap) and returns the full
/// [`Report`]. Deterministic for a given `(case, opts.cap)` — worker count
/// and incremental mode do not change the bytes (the fault-equivalence
/// tests pin this).
pub fn report_for(case: &FuzzCase, opts: &OracleOptions) -> Report {
    let (workload, plan) = case.build();
    let mut plans = vec![FaultPlan::empty()];
    if !plan.is_empty() {
        plans.push(plan);
    }
    let replicas = usize::from(case.spec.replicas);
    match case.target {
        Target::Crdts => {
            let mut session = Session::new(CrdtsModel::new(replicas));
            session
                .set_workload(workload)
                .set_fault_plans(plans)
                .set_workers(opts.workers)
                .set_cap(opts.cap)
                .set_incremental(opts.incremental)
                .set_subsumption(opts.subsumption);
            session.config_mut().require_causal = true;
            session.replay(&crdts_suite()).expect("replay cannot fail")
        }
        Target::Ledger => {
            let mut session = Session::new(LedgerApp::new(replicas));
            session
                .set_workload(workload)
                .set_fault_plans(plans)
                .set_workers(opts.workers)
                .set_cap(opts.cap)
                .set_incremental(opts.incremental)
                .set_subsumption(opts.subsumption);
            session.config_mut().require_causal = true;
            session.replay(&ledger_suite()).expect("replay cannot fail")
        }
    }
}

/// The sample period of the optional progress hook, in runs.
const PROGRESS_EVERY: usize = 16;

#[allow(clippy::too_many_arguments)]
fn replay_case_on<M>(
    model: M,
    case: &FuzzCase,
    opts: &OracleOptions,
    suite: &TestSuite<M::State>,
    service: &ExecutorService,
    priority: u8,
    cancel: Option<CancelToken>,
    progress: Option<ProgressFn>,
    metrics: Option<SessionMetrics>,
) -> Result<Report, ErPiError>
where
    M: SystemModel + Clone + Send + Sync + 'static,
    M::State: Send + Sync,
{
    let (workload, plan) = case.build();
    let mut plans = vec![FaultPlan::empty()];
    if !plan.is_empty() {
        plans.push(plan);
    }
    let mut session = Session::new(model);
    session
        .set_workload(workload)
        .set_fault_plans(plans)
        .set_cap(opts.cap)
        .set_incremental(opts.incremental)
        .set_subsumption(opts.subsumption)
        .set_cancel_token(cancel);
    if let Some(metrics) = metrics {
        session.set_metrics(metrics);
    }
    session.config_mut().require_causal = true;
    if let Some(hook) = progress {
        session.set_progress_hook(PROGRESS_EVERY, move |snap| hook(snap));
    }
    session.replay_on(service, priority, suite)
}

/// Replays `case` as one campaign on a shared [`ExecutorService`] — the
/// path the campaign server takes for submitted traces. The resulting
/// [`Report`] must be byte-identical (under [`Report::canonical_json`]) to
/// [`report_for`] with the same options, for any mix of co-scheduled
/// campaigns. `opts.workers` is ignored: the service owns the threads.
///
/// # Errors
///
/// [`ErPiError::Cancelled`] if `cancel` trips mid-campaign;
/// [`ErPiError::ExecutorPanic`] if a model panics in a worker.
///
/// `metrics`, when given, exports the campaign's run and pruning counters
/// to a shared registry ([`Session::set_metrics`]). [`OracleOptions`] stays
/// `Copy`, so the handle rides as its own argument; like telemetry it is
/// write-only and cannot change the report bytes.
#[allow(clippy::too_many_arguments)]
pub fn report_for_on(
    case: &FuzzCase,
    opts: &OracleOptions,
    service: &ExecutorService,
    priority: u8,
    cancel: Option<CancelToken>,
    progress: Option<ProgressFn>,
    metrics: Option<SessionMetrics>,
) -> Result<Report, ErPiError> {
    let replicas = usize::from(case.spec.replicas);
    match case.target {
        Target::Crdts => replay_case_on(
            CrdtsModel::new(replicas),
            case,
            opts,
            &crdts_suite(),
            service,
            priority,
            cancel,
            progress,
            metrics,
        ),
        Target::Ledger => replay_case_on(
            LedgerApp::new(replicas),
            case,
            opts,
            &ledger_suite(),
            service,
            priority,
            cancel,
            progress,
            metrics,
        ),
    }
}

/// Rebuilds `case`'s workload and assembles the deterministic forensic
/// bundle for one of its violations ([`er_pi::explain_violation`]): the
/// exact interleaving + fault plan, per-step state digests with the first
/// divergence from the recorded order, and the happens-before DOT graph.
/// Returns `None` for cross-run violations (no single interleaving).
pub fn explain_for(case: &FuzzCase, violation: &Violation) -> Option<ForensicBundle> {
    let (workload, _) = case.build();
    let replicas = usize::from(case.spec.replicas);
    match case.target {
        Target::Crdts => er_pi::explain_violation(&CrdtsModel::new(replicas), &workload, violation),
        Target::Ledger => er_pi::explain_violation(&LedgerApp::new(replicas), &workload, violation),
    }
}

/// Runs the oracle over one case. Returns a [`Finding`] if any assertion
/// was violated.
pub fn run_case(case: &FuzzCase, opts: &OracleOptions) -> Option<Finding> {
    let report = report_for(case, opts);
    let first = report.violations.first()?;
    // Fault-dependent iff every violating run executed a non-empty fault
    // schedule; a violation with no attached interleaving is counted as
    // fault-free (conservative).
    let fault_dependent = report.violations.iter().all(|v| {
        v.interleaving
            .as_ref()
            .is_some_and(|il| !il.faults().is_empty())
    });
    Some(Finding {
        case: case.clone(),
        assertion: first.assertion.clone(),
        message: first.message.clone(),
        fault_dependent,
        fingerprint: case.fingerprint(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SpecEntry, SpecFault, WorkloadSpec};
    use er_pi_model::FaultKind;

    fn duplicated_ledger_case() -> FuzzCase {
        FuzzCase {
            target: Target::Ledger,
            spec: WorkloadSpec {
                replicas: 2,
                entries: vec![
                    SpecEntry::Op {
                        replica: 0,
                        function: "credit".into(),
                        args: vec![75],
                    },
                    SpecEntry::SyncPair {
                        from: 0,
                        to: 1,
                        of: Some(0),
                    },
                ],
                chain_from: None,
            },
            faults: vec![SpecFault {
                anchor: 1,
                kind: FaultKind::Duplicate,
            }],
        }
    }

    #[test]
    fn duplicate_delivery_is_a_fault_dependent_finding() {
        let finding = run_case(&duplicated_ledger_case(), &OracleOptions::default())
            .expect("the seeded exactly-once bug must surface");
        assert_eq!(finding.assertion, "fuzz-exactly-once");
        assert!(
            finding.fault_dependent,
            "no fault-free interleaving can double-apply a sync"
        );
    }

    #[test]
    fn the_fault_free_case_is_clean() {
        let mut case = duplicated_ledger_case();
        case.faults.clear();
        assert_eq!(run_case(&case, &OracleOptions::default()), None);
    }

    #[test]
    fn reports_are_identical_across_workers_and_modes() {
        let case = duplicated_ledger_case();
        let base = report_for(&case, &OracleOptions::default());
        for workers in [2, 4] {
            for incremental in [false, true] {
                let opts = OracleOptions {
                    workers,
                    incremental,
                    ..OracleOptions::default()
                };
                let other = report_for(&case, &opts);
                assert_eq!(
                    base.diff(&other),
                    None,
                    "oracle must be deterministic at {workers} workers"
                );
            }
        }
    }
}
