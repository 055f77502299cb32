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
    Assertion, Attachments, ErPiError, ExecutorService, ForensicBundle, ReplayConfig, Report,
    Session, SystemModel, TestSuite, Violation,
};
use er_pi_model::FaultPlan;
use er_pi_subjects::{CrdtsModel, LedgerApp};
use serde::{Deserialize, Serialize};

use crate::spec::{FuzzCase, Target};

/// The interleaving cap fuzzing runs start from (runs per case, counting
/// each fault plan): generated cases are small, and a campaign replays
/// thousands of them. The oracle itself obeys whatever
/// [`ReplayConfig::cap`] it is handed — the campaign server hands it the
/// submitted one.
pub const ORACLE_CAP: usize = 2_048;

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

/// A session over `model` set up to replay `case` under `replay`: the
/// fault-free baseline plan plus the case's schedule, over the causally
/// valid interleavings — everything but who runs the replay.
fn session_for<M: SystemModel>(
    model: M,
    case: &FuzzCase,
    replay: &ReplayConfig,
    attach: Attachments,
) -> Session<M> {
    let (workload, plan) = case.build();
    let mut plans = vec![FaultPlan::empty()];
    if !plan.is_empty() {
        plans.push(plan);
    }
    let mut session = Session::with_config(model, *replay, attach);
    session.set_workload(workload).set_fault_plans(plans);
    session.config_mut().require_causal = true;
    session
}

/// Replays `case` exhaustively (up to the cap) and returns the full
/// [`Report`]. Deterministic for a given `(case, replay.cap)` — worker
/// count and incremental mode do not change the bytes (the
/// fault-equivalence tests pin this).
pub fn report_for(case: &FuzzCase, replay: &ReplayConfig) -> Report {
    let replicas = usize::from(case.spec.replicas);
    let attach = Attachments::default();
    match case.target {
        Target::Crdts => {
            session_for(CrdtsModel::new(replicas), case, replay, attach).replay(&crdts_suite())
        }
        Target::Ledger => {
            session_for(LedgerApp::new(replicas), case, replay, attach).replay(&ledger_suite())
        }
    }
    .expect("replay cannot fail")
}

/// Replays `case` as one campaign on a shared [`ExecutorService`] — the
/// path the campaign server takes for submitted traces. The resulting
/// [`Report`] must be byte-identical (under [`Report::canonical_json`]) to
/// [`report_for`] with the same configuration, for any mix of co-scheduled
/// campaigns. The service's own thread count stands in for
/// `replay.workers`.
///
/// # Errors
///
/// [`ErPiError::Cancelled`] if `attach.cancel` trips mid-campaign;
/// [`ErPiError::ExecutorPanic`] if a model panics in a worker.
pub fn report_for_on(
    case: &FuzzCase,
    replay: &ReplayConfig,
    service: &ExecutorService,
    priority: u8,
    attach: Attachments,
) -> Result<Report, ErPiError> {
    let replicas = usize::from(case.spec.replicas);
    match case.target {
        Target::Crdts => session_for(CrdtsModel::new(replicas), case, replay, attach).replay_on(
            service,
            priority,
            &crdts_suite(),
        ),
        Target::Ledger => session_for(LedgerApp::new(replicas), case, replay, attach).replay_on(
            service,
            priority,
            &ledger_suite(),
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
pub fn run_case(case: &FuzzCase, replay: &ReplayConfig) -> Option<Finding> {
    let report = report_for(case, replay);
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
        assertion: first.assertion.to_string(),
        message: first.message.to_string(),
        fault_dependent,
        fingerprint: case.fingerprint(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SpecEntry, SpecFault, WorkloadSpec};
    use er_pi_model::FaultKind;

    /// One slot: the oracle's answer does not depend on it, a test's CPU
    /// footprint does.
    fn oracle_config() -> ReplayConfig {
        ReplayConfig {
            cap: ORACLE_CAP,
            workers: 1,
            ..ReplayConfig::default()
        }
    }

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
        let finding = run_case(&duplicated_ledger_case(), &oracle_config())
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
        assert_eq!(run_case(&case, &oracle_config()), None);
    }

    #[test]
    fn reports_are_identical_across_workers_and_modes() {
        let case = duplicated_ledger_case();
        let base = report_for(&case, &oracle_config());
        for workers in [2, 4] {
            for incremental in [false, true] {
                let replay = ReplayConfig {
                    workers,
                    incremental,
                    ..oracle_config()
                };
                let other = report_for(&case, &replay);
                assert_eq!(
                    base.diff(&other),
                    None,
                    "oracle must be deterministic at {workers} workers"
                );
            }
        }
    }
}
