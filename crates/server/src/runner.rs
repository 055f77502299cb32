//! Runner threads: pop admitted campaigns and replay them as jobs on the
//! shared [`ExecutorService`](er_pi::ExecutorService).
//!
//! The runner count bounds how many campaigns are *co-scheduled* — each
//! occupies one blocked runner thread while its chunks are multiplexed
//! over the service's workers. The service picks chunks by the same
//! `(priority, seq)` key the queue uses, so a high-priority submission
//! overtakes lower classes at both hand-offs.
//!
//! Each campaign also feeds the observability plane from here: a
//! [`SessionMetrics`] handle labelled `{tenant, campaign}` exports its run
//! and pruning counters into the shared registry, and the progress hook
//! doubles as the SSE producer — `progress` deltas, one-shot pruner
//! milestones, and the terminal `done`/`cancelled`/`failed` frame.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use er_pi::telemetry::ProgressSnapshot;
use er_pi::{Attachments, ErPiError, ProgressHook, SessionMetrics};
use er_pi_fuzz::report_for_on;

use crate::campaign::{Campaign, Phase};
use crate::spec::SubjectSpec;
use crate::ServerState;

/// Sample period (in runs) of the progress hook. Small catalogue workloads
/// finish in a few hundred runs, so a tight period keeps the live view
/// fresh without measurable overhead.
const PROGRESS_EVERY: usize = 16;

/// One runner thread: drain the queue until it closes.
pub(crate) fn runner_loop(state: Arc<ServerState>) {
    while let Some(campaign) = state.queue.pop() {
        run_one(&state, &campaign);
    }
}

/// Replays one campaign and records its outcome.
fn run_one(state: &ServerState, campaign: &Arc<Campaign>) {
    if campaign.cancel.is_cancelled() {
        // DELETE raced the pop; honour it without spending worker time.
        campaign.finish(Phase::Cancelled);
        state.metrics.inc_cancelled();
        return;
    }
    state
        .metrics
        .observe_queue_wait_us(campaign.submitted_at.elapsed().as_micros() as u64);
    campaign.status.lock().phase = Phase::Running;
    campaign.events.push("status", &campaign.status_json());
    let progress: ProgressHook = {
        let campaign = Arc::clone(campaign);
        let subsumption_seen = AtomicBool::new(false);
        let sleep_seen = AtomicBool::new(false);
        Arc::new(move |snap: &ProgressSnapshot| {
            campaign.status.lock().progress = Some(snap.clone());
            let json = serde_json::to_string(snap).expect("progress snapshots are serializable");
            campaign.events.push("progress", &json);
            // One-shot pruner milestones: the first run answered by
            // state-hash subsumption, the first sleep-set rejection.
            if snap.subsumed_runs > 0 && !subsumption_seen.swap(true, Ordering::Relaxed) {
                campaign.events.push(
                    "milestone",
                    &format!(
                        r#"{{"kind":"subsumption-active","runs_done":{}}}"#,
                        snap.runs_done
                    ),
                );
            }
            if snap.sleep_prunes > 0 && !sleep_seen.swap(true, Ordering::Relaxed) {
                campaign.events.push(
                    "milestone",
                    &format!(
                        r#"{{"kind":"sleep-set-active","runs_done":{}}}"#,
                        snap.runs_done
                    ),
                );
            }
        })
    };
    let spec = &campaign.spec;
    let metrics = SessionMetrics::new(
        state.metrics.registry(),
        &[("tenant", &spec.tenant), ("campaign", &campaign.id)],
    );
    let attach = Attachments {
        metrics: Some(metrics),
        progress: Some(progress),
        progress_every: PROGRESS_EVERY,
        cancel: Some(campaign.cancel.clone()),
        ..Attachments::default()
    };
    // One value for both subject kinds: whatever `validate()` admitted is
    // what replays.
    let result = match &spec.subject {
        SubjectSpec::Bug(bug) => {
            bug.replay_report_on(&state.service, spec.priority, &spec.replay, attach)
        }
        SubjectSpec::Trace(case) => {
            report_for_on(case, &spec.replay, &state.service, spec.priority, attach)
        }
    };
    match result {
        Ok(report) => {
            state.metrics.add_campaign(&report);
            state.metrics.inc_completed();
            state
                .metrics
                .observe_submit_to_report_us(campaign.submitted_at.elapsed().as_micros() as u64);
            campaign.status.lock().report = Some(report);
            campaign.finish(Phase::Done);
        }
        Err(ErPiError::Cancelled) => {
            state.metrics.inc_cancelled();
            campaign.finish(Phase::Cancelled);
        }
        Err(e) => {
            state.metrics.inc_failed();
            campaign.status.lock().error = Some(e.to_string());
            campaign.finish(Phase::Failed);
        }
    }
}
