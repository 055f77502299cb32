//! One admitted campaign: identity, scheduling key, cancellation handle,
//! and the mutable status the HTTP layer reads while runners write.

use std::time::Instant;

use er_pi::telemetry::ProgressSnapshot;
use er_pi::{CancelToken, Report, SessionSummary};
use parking_lot::Mutex;
use serde::Serialize;

use crate::events::EventLog;
use crate::spec::{SubjectSpec, ValidSpec};

/// Lifecycle of a campaign, as reported by `GET /campaigns/:id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Admitted, waiting for a runner.
    Queued,
    /// A runner is replaying it on the shared executor service.
    Running,
    /// Finished; the report is available.
    Done,
    /// Cancelled before completion (by `DELETE` or server shutdown).
    Cancelled,
    /// The replay errored; see `error` in the status payload.
    Failed,
}

impl Phase {
    /// Wire name of the phase.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Cancelled => "cancelled",
            Phase::Failed => "failed",
        }
    }

    /// Whether the campaign has left the queue and the runners for good.
    pub fn is_terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Cancelled | Phase::Failed)
    }
}

/// The runner-written, HTTP-read side of a campaign.
pub struct CampaignStatus {
    /// Where the campaign is in its lifecycle.
    pub phase: Phase,
    /// Latest live snapshot (present once the replay produced one).
    pub progress: Option<ProgressSnapshot>,
    /// The final report (present iff `phase == Done`).
    pub report: Option<Report>,
    /// The failure message (present iff `phase == Failed`).
    pub error: Option<String>,
}

/// An admitted campaign. Shared between the queue, the registry, the
/// runner executing it, and every HTTP connection polling it.
pub struct Campaign {
    /// Server-assigned identifier (`"c-1"`, `"c-2"`, …).
    pub id: String,
    /// Submission order, the FIFO tiebreak within a priority class.
    pub seq: u64,
    /// What to replay and how.
    pub spec: ValidSpec,
    /// Trips at `DELETE`; the executor service observes it at the next
    /// chunk boundary.
    pub cancel: CancelToken,
    /// Mutable status.
    pub status: Mutex<CampaignStatus>,
    /// When the submission was admitted (feeds the queue-wait and
    /// submit-to-report histograms).
    pub submitted_at: Instant,
    /// The live SSE stream behind `GET /campaigns/:id/events`.
    pub events: EventLog,
}

/// Why `GET /campaigns/:id/violations/:n` could not serve a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainError {
    /// The campaign has not finished (HTTP 409).
    NotDone,
    /// The index is past the report's violation list (HTTP 404).
    OutOfRange,
    /// The violation is a cross-run check with no single interleaving to
    /// re-execute (HTTP 422).
    NoInterleaving,
}

/// JSON body of `GET /campaigns/:id`.
#[derive(Serialize)]
struct StatusBody {
    id: String,
    tenant: String,
    priority: u8,
    subject: String,
    cap: usize,
    state: String,
    progress: Option<ProgressSnapshot>,
    summary: Option<SessionSummary>,
    error: Option<String>,
}

impl Campaign {
    /// Creates an admitted campaign in [`Phase::Queued`].
    pub fn new(id: String, seq: u64, spec: ValidSpec) -> Self {
        Campaign {
            id,
            seq,
            spec,
            cancel: CancelToken::new(),
            status: Mutex::new(CampaignStatus {
                phase: Phase::Queued,
                progress: None,
                report: None,
                error: None,
            }),
            submitted_at: Instant::now(),
            events: EventLog::new(),
        }
    }

    /// The queue's scheduling key: lowest wins, FIFO within a priority.
    pub fn order_key(&self) -> (u8, u64) {
        (self.spec.priority, self.seq)
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.status.lock().phase
    }

    /// Renders the live status payload. While running this carries the
    /// latest [`ProgressSnapshot`]; once done it carries the final
    /// [`SessionSummary`].
    pub fn status_json(&self) -> String {
        let status = self.status.lock();
        let body = StatusBody {
            id: self.id.clone(),
            tenant: self.spec.tenant.clone(),
            priority: self.spec.priority,
            subject: self.spec.subject.label(),
            cap: self.spec.replay.cap,
            state: status.phase.as_str().to_owned(),
            progress: status.progress.clone(),
            summary: status.report.as_ref().map(|r| r.session_summary.clone()),
            error: status.error.clone(),
        };
        serde_json::to_string(&body).expect("status bodies are serializable")
    }

    /// Renders the final report, if the campaign is done.
    pub fn report_json(&self) -> Option<String> {
        let status = self.status.lock();
        status.report.as_ref().map(Report::canonical_json)
    }

    /// Re-executes violation `n` of the final report and renders its
    /// forensic bundle. The bundle is a pure function of the campaign
    /// spec and the violation, so every client — and the `er-pi-explain`
    /// CLI replaying the same subject offline — gets byte-identical JSON
    /// regardless of how the campaign was scheduled.
    pub fn violation_json(&self, n: usize) -> Result<String, ExplainError> {
        let violation = {
            let status = self.status.lock();
            let report = status.report.as_ref().ok_or(ExplainError::NotDone)?;
            report
                .violations
                .get(n)
                .ok_or(ExplainError::OutOfRange)?
                .clone()
            // Drop the lock before the (cheap, single-interleaving)
            // re-execution below.
        };
        let bundle = match &self.spec.subject {
            SubjectSpec::Bug(bug) => bug.explain(&violation),
            SubjectSpec::Trace(case) => er_pi_fuzz::explain_for(case, &violation),
        };
        bundle
            .map(|b| b.canonical_json())
            .ok_or(ExplainError::NoInterleaving)
    }

    /// Marks the campaign terminal: records `phase`, appends the terminal
    /// SSE event (named after the phase, carrying the final status body),
    /// and closes the event stream. The status lock must NOT be held.
    pub fn finish(&self, phase: Phase) {
        self.status.lock().phase = phase;
        self.events.close_with(phase.as_str(), &self.status_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn campaign() -> Campaign {
        let spec: CampaignSpec = serde_json::from_str(r#"{"bug": "Roshi-1"}"#).expect("parses");
        Campaign::new("c-1".to_owned(), 7, spec.validate().expect("valid"))
    }

    #[test]
    fn the_status_payload_tracks_the_phase() {
        let c = campaign();
        assert_eq!(c.order_key(), (5, 7));
        let json = c.status_json();
        assert!(json.contains(r#""state":"queued""#), "{json}");
        assert!(json.contains(r#""subject":"bug:Roshi-1""#), "{json}");
        assert!(c.report_json().is_none());

        c.status.lock().phase = Phase::Failed;
        c.status.lock().error = Some("boom".to_owned());
        let json = c.status_json();
        assert!(json.contains(r#""state":"failed""#), "{json}");
        assert!(json.contains("boom"), "{json}");
        assert!(Phase::Failed.is_terminal());
        assert!(!Phase::Running.is_terminal());
    }
}
