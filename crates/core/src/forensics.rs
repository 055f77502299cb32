//! Violation forensics: the per-run flight recorder and the deterministic
//! forensic bundle behind `GET /campaigns/:id/violations/:n` and the
//! `er-pi-explain` binary.
//!
//! The replay hot path records nothing — a violating run is *re-executed*
//! with the flight recorder armed, which is sound because
//! [`SystemModel::apply`] is deterministic in `(states, event)`: the same
//! interleaving and fault plan always reproduce the same run. The bundle
//! is therefore a pure function of `(model, workload, violation)` and is
//! byte-identical no matter how many workers or which executor strategy
//! originally found the violation (proven by the
//! `forensics_equivalence` differential test over the bug catalogue).
//!
//! A bundle assembles the evidence an operator needs to answer *why*:
//!
//! * the exact interleaving and fault plan (replayable verbatim);
//! * per-step canonical state digests, with the first divergence from the
//!   fault-free recorded-order baseline execution pinpointed and the
//!   observable state deltas at that step;
//! * the workload's happens-before graph as Graphviz DOT
//!   ([`HbGraph::to_dot`]);
//! * provenance: the interleaving fingerprint, the fault digest,
//!   whether digests came from the model's canonical encoding (the same
//!   encoding state-hash subsumption trusts) or from the lossy `observe`
//!   projection, and the name of the digest function.

use std::collections::VecDeque;

use er_pi_analysis::HbGraph;
use er_pi_model::{Interleaving, Workload};
use serde::Serialize;

use crate::{FaultInterpreter, OpOutcome, SystemModel, Violation};

/// Default flight-recorder capacity, in steps. Workload segments are
/// short (tens of events); the cap only matters for adversarial inputs.
pub(crate) const RECORDER_CAPACITY: usize = 4096;

/// One recorded execution step of the violating run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ForensicStep {
    /// Position in the interleaving (0-based).
    pub pos: usize,
    /// The event's display form, e.g. `e3[R0 set(1)]`.
    pub event: String,
    /// The replica the event executed at.
    pub replica: u16,
    /// The step's outcome: `applied`, `failed: <reason>`, or
    /// `observed: <value>`.
    pub outcome: String,
    /// Hex digest of all replica states *after* the step (including the
    /// step's fault surgery).
    pub digest: String,
}

/// The first step at which the violating run's state departs from the
/// fault-free recorded-order baseline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DivergencePoint {
    /// Position in both executions (0-based).
    pub pos: usize,
    /// The event the violating run executed at `pos`.
    pub event: String,
    /// The event the baseline executed at `pos`.
    pub baseline_event: String,
    /// Post-step state digest of the violating run.
    pub digest: String,
    /// Post-step state digest of the baseline.
    pub baseline_digest: String,
    /// Per-replica `observe` projections after the step, violating run.
    pub observations: Vec<String>,
    /// Per-replica `observe` projections after the step, baseline.
    pub baseline_observations: Vec<String>,
}

/// Where the bundle's state digests come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "kebab-case")]
pub enum DigestSource {
    /// The model's canonical [`state_encode`](SystemModel::state_encode) —
    /// the same encoding state-hash subsumption trusts; equal digests
    /// imply behaviorally identical states.
    Canonical,
    /// The lossy [`observe`](SystemModel::observe) projection — the model
    /// declined canonical encoding, so equal digests imply equal
    /// *observable* state only.
    ObserveProjection,
}

/// Replay-space provenance of the violating run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Provenance {
    /// FNV fingerprint of the interleaving (order + fault plan).
    pub fingerprint: String,
    /// Number of scheduled faults in the run's fault plan.
    pub fault_count: usize,
    /// `true` when the run's order is exactly the recorded order.
    pub is_recorded_order: bool,
    /// What the per-step digests are computed from.
    pub digest_source: DigestSource,
    /// Which digest function computed them:
    /// [`DIGEST128_NAME`](er_pi_rdl::DIGEST128_NAME), the function behind
    /// [`encoding_digest`](crate::encoding_digest), the default
    /// [`SystemModel::state_digest`] fold and the `observe` fallback.
    pub digest: &'static str,
}

/// The deterministic forensic bundle for one violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ForensicBundle {
    /// The violated assertion's name.
    pub assertion: String,
    /// The assertion's failure message.
    pub message: String,
    /// Exploration index of the violating run, when per-run.
    pub run: Option<usize>,
    /// The exact violating interleaving, fault plan included.
    pub interleaving: Interleaving,
    /// The recorded steps (oldest dropped first if over capacity).
    pub steps: Vec<ForensicStep>,
    /// Steps evicted from the ring buffer (0 for normal workloads).
    pub steps_dropped: usize,
    /// Per-replica `observe` projections of the final states.
    pub final_observations: Vec<String>,
    /// First step whose state departs from the fault-free recorded-order
    /// baseline; `None` when the run never diverges (the violation is
    /// order-insensitive) or the run *is* the fault-free recorded order.
    pub first_divergence: Option<DivergencePoint>,
    /// The workload's happens-before graph, Graphviz DOT.
    pub hb_dot: String,
    /// Replay-space provenance of the run.
    pub provenance: Provenance,
}

impl ForensicBundle {
    /// Canonical JSON encoding of the bundle. Field order is the struct
    /// order, map-free, no floats or wall-clock values — two bundles for
    /// the same violation serialize byte-identically.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("bundle has no non-serializable values")
    }
}

/// A bounded ring buffer of [`ForensicStep`]s. Armed only on the
/// forensic re-execution of a violating run — never on the replay hot
/// path.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    steps: VecDeque<ForensicStep>,
    capacity: usize,
    dropped: usize,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            steps: VecDeque::with_capacity(capacity.min(RECORDER_CAPACITY)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    pub fn record(&mut self, step: ForensicStep) {
        if self.steps.len() == self.capacity {
            self.steps.pop_front();
            self.dropped += 1;
        }
        self.steps.push_back(step);
    }

    pub fn into_parts(self) -> (Vec<ForensicStep>, usize) {
        (self.steps.into(), self.dropped)
    }
}

fn outcome_string(outcome: &OpOutcome) -> String {
    match outcome {
        OpOutcome::Applied => "applied".to_string(),
        OpOutcome::Failed { reason } => format!("failed: {reason}"),
        OpOutcome::Observed(value) => format!("observed: {value}"),
    }
}

/// Digests `states`, preferring the model's canonical encoding and
/// falling back to the lossy `observe` projection when the model
/// declines. The fallback length-prefixes each projection's display form
/// so adjacent replicas never alias.
fn digest_states<M: SystemModel>(model: &M, states: &[M::State]) -> (String, DigestSource) {
    if let Some(digest) = model.state_digest(states) {
        return (format!("{digest:032x}"), DigestSource::Canonical);
    }
    let mut buf = Vec::new();
    for state in states {
        let rendered = model.observe(state).to_string();
        buf.extend_from_slice(&(rendered.len() as u64).to_le_bytes());
        buf.extend_from_slice(rendered.as_bytes());
    }
    (
        format!("{:032x}", er_pi_rdl::digest128(&buf)),
        DigestSource::ObserveProjection,
    )
}

/// Executes `il` with the flight recorder armed, returning the recorded
/// steps, the per-step digests, the final observations, and the per-step
/// observation snapshots (for divergence deltas).
struct RecordedRun {
    steps: Vec<ForensicStep>,
    dropped: usize,
    observations: Vec<Vec<String>>,
    final_observations: Vec<String>,
    digest_source: DigestSource,
}

fn record_run<M: SystemModel>(model: &M, workload: &Workload, il: &Interleaving) -> RecordedRun {
    let mut recorder = FlightRecorder::new(RECORDER_CAPACITY);
    let mut observations: Vec<Vec<String>> = Vec::with_capacity(il.len());
    let mut source = DigestSource::Canonical;
    let observe = |states: &[M::State]| -> Vec<String> {
        states
            .iter()
            .map(|s| model.observe(s).to_string())
            .collect()
    };
    let mut states = model.init_all();
    let mut faults = FaultInterpreter::new(il.faults());
    for (pos, &id) in il.iter().enumerate() {
        let event = workload.event(id);
        // The states as left after the step, fault surgery included.
        let outcome = faults.step(model, &mut states, workload, event, pos);
        let (digest, digest_source) = digest_states(model, &states);
        source = digest_source;
        recorder.record(ForensicStep {
            pos,
            event: event.to_string(),
            replica: event.replica.raw(),
            outcome: outcome_string(&outcome),
            digest,
        });
        observations.push(observe(&states));
    }
    faults.finish(model, &mut states, workload);
    let (steps, dropped) = recorder.into_parts();
    RecordedRun {
        steps,
        dropped,
        observations,
        final_observations: observe(&states),
        digest_source: source,
    }
}

/// Assembles the deterministic forensic bundle for `violation`, or `None`
/// when the violation carries no interleaving (cross-run checks inspect
/// the whole run set, so there is no single run to replay).
pub fn explain_violation<M: SystemModel>(
    model: &M,
    workload: &Workload,
    violation: &Violation,
) -> Option<ForensicBundle> {
    let il = violation.interleaving.as_ref()?;
    let run = record_run(model, workload, il);

    // The divergence baseline: the fault-free recorded order — "what the
    // developer observed" — executed with the same recorder.
    let baseline_il = workload.recorded_order();
    let is_baseline = il.as_slice() == baseline_il.as_slice() && il.faults().is_empty();
    let first_divergence = if is_baseline {
        None
    } else {
        let baseline = record_run(model, workload, &baseline_il);
        run.steps
            .iter()
            .zip(baseline.steps.iter())
            .find(|(step, base)| step.digest != base.digest)
            .map(|(step, base)| DivergencePoint {
                pos: step.pos,
                event: step.event.clone(),
                baseline_event: base.event.clone(),
                digest: step.digest.clone(),
                baseline_digest: base.digest.clone(),
                observations: run.observations.get(step.pos).cloned().unwrap_or_default(),
                baseline_observations: baseline
                    .observations
                    .get(base.pos)
                    .cloned()
                    .unwrap_or_default(),
            })
    };

    let hb = HbGraph::build(workload);
    Some(ForensicBundle {
        assertion: violation.assertion.to_string(),
        message: violation.message.to_string(),
        run: violation.run,
        interleaving: il.clone(),
        steps: run.steps,
        steps_dropped: run.dropped,
        final_observations: run.final_observations,
        first_divergence,
        hb_dot: hb.to_dot(workload),
        provenance: Provenance {
            fingerprint: format!("{:016x}", il.fingerprint()),
            fault_count: il.faults().len(),
            is_recorded_order: il.as_slice() == baseline_il.as_slice(),
            digest_source: run.digest_source,
            digest: er_pi_rdl::DIGEST128_NAME,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::{Event, EventId, EventKind, ReplicaId, Value};

    /// Integer register per replica with canonical encoding, so digests
    /// take the canonical path.
    #[derive(Clone)]
    struct Reg;

    impl SystemModel for Reg {
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

        fn state_encode(&self, state: &i64, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(&state.to_le_bytes());
            true
        }
    }

    fn workload() -> Workload {
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        let mut w = Workload::builder();
        let w1 = w.update(a, "set", [Value::from(1)]);
        w.sync_pair(a, b, w1);
        let w2 = w.update(b, "set", [Value::from(2)]);
        w.sync_pair(b, a, w2);
        w.build()
    }

    fn violation_on(il: Interleaving) -> Violation {
        Violation {
            run: Some(7),
            assertion: "probe".into(),
            message: "states disagree".into(),
            interleaving: Some(il),
        }
    }

    #[test]
    fn a_cross_run_violation_has_no_bundle() {
        let w = workload();
        let v = Violation {
            run: None,
            assertion: "cross".into(),
            message: "m".into(),
            interleaving: None,
        };
        assert!(explain_violation(&Reg, &w, &v).is_none());
    }

    #[test]
    fn bundles_are_deterministic_and_locate_the_divergence() {
        let w = workload();
        // Reversed order: diverges from the recorded baseline immediately.
        let mut ids: Vec<EventId> = w.event_ids().collect();
        ids.reverse();
        let v = violation_on(Interleaving::new(ids));
        let a = explain_violation(&Reg, &w, &v).expect("per-run violation explains");
        let b = explain_violation(&Reg, &w, &v).expect("second bundle");
        assert_eq!(a.canonical_json(), b.canonical_json(), "byte-identical");
        assert_eq!(a.steps.len(), w.len());
        assert_eq!(a.steps_dropped, 0);
        assert_eq!(a.provenance.digest_source, DigestSource::Canonical);
        assert_eq!(a.provenance.digest, er_pi_rdl::DIGEST128_NAME);
        assert!(!a.provenance.is_recorded_order);
        let div = a.first_divergence.expect("a reversed order diverges");
        assert_eq!(div.pos, 0);
        assert_ne!(div.digest, div.baseline_digest);
        assert_eq!(div.observations.len(), 2);
        assert!(a.hb_dot.starts_with("digraph happens_before {"));
        assert_eq!(a.run, Some(7));
    }

    #[test]
    fn the_recorded_order_itself_never_diverges() {
        let w = workload();
        let v = violation_on(w.recorded_order());
        let bundle = explain_violation(&Reg, &w, &v).unwrap();
        assert!(bundle.first_divergence.is_none());
        assert!(bundle.provenance.is_recorded_order);
        assert_eq!(bundle.provenance.fault_count, 0);
    }

    #[test]
    fn models_without_canonical_encoding_fall_back_to_observe() {
        #[derive(Clone)]
        struct Opaque;
        impl SystemModel for Opaque {
            type State = i64;
            fn replicas(&self) -> usize {
                1
            }
            fn init(&self, _r: ReplicaId) -> i64 {
                0
            }
            fn apply(&self, states: &mut [i64], _e: &Event) -> OpOutcome {
                states[0] += 1;
                OpOutcome::Applied
            }
            fn observe(&self, state: &i64) -> Value {
                Value::from(*state)
            }
        }
        let mut w = Workload::builder();
        w.update(ReplicaId::new(0), "x", [Value::from(1)]);
        w.update(ReplicaId::new(0), "y", [Value::from(2)]);
        let w = w.build();
        let v = violation_on(w.recorded_order());
        let bundle = explain_violation(&Opaque, &w, &v).unwrap();
        assert_eq!(
            bundle.provenance.digest_source,
            DigestSource::ObserveProjection
        );
        assert!(bundle.steps.iter().all(|s| !s.digest.is_empty()));
    }

    #[test]
    fn the_ring_buffer_evicts_oldest_first() {
        let mut rec = FlightRecorder::new(2);
        for pos in 0..5 {
            rec.record(ForensicStep {
                pos,
                event: format!("e{pos}"),
                replica: 0,
                outcome: "applied".into(),
                digest: String::new(),
            });
        }
        let (steps, dropped) = rec.into_parts();
        assert_eq!(dropped, 3);
        assert_eq!(steps.iter().map(|s| s.pos).collect::<Vec<_>>(), [3, 4]);
    }
}
