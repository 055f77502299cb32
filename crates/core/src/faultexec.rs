//! Deterministic interpretation of [`FaultPlan`]s during replay.
//!
//! [`FaultInterpreter`] is the one public stepping primitive: the cursor
//! ([`IncrementalExecutor`](crate::IncrementalExecutor)), the forensic
//! recorder and the naive reference
//! ([`InlineExecutor`](crate::InlineExecutor)) all step an interleaving
//! through it, so the semantics — and therefore the produced
//! `(states, outcomes)` — are byte-identical across execution paths. The
//! interpreter is pure bookkeeping over the plan:
//!
//! * **Topology faults** (`Partition`/`Heal`/`CrashRestart`) fire *before*
//!   their anchor event executes.
//! * **Delivery faults** (`Drop`/`Delay`/`Duplicate`) decide what happens
//!   *to* the anchor event itself. A sync event whose endpoints are
//!   partitioned fails regardless of anchored faults.
//! * **Delayed effects** fire at the end of the step whose position reaches
//!   `anchor position + by`, in scheduling order; effects still pending when
//!   the run ends are flushed after the last event (unless partitioned).
//!
//! Each rule has one copy. A step is its state-free half — the links cut or
//! healed at the anchor and the anchor's delivery decision, which queues a
//! delay — between the crash-restarts before it and the retirement of the
//! delayed effects due at its end. Flushing at the end of a run is that
//! retirement past every position, and resuming from a snapshot
//! (`fast_forward`) is the state-free half and the retirement, position by
//! position, with nothing applied: a resumed run's bookkeeping is the one a
//! run from scratch reaches by stepping.
//!
//! Fault surgery rearranges *which* state transitions happen, not the
//! simulated-time ledger: `sim_us` stays `reset_cost + Σ event costs`
//! exactly as in fault-free replay, so the time model needs no fault
//! special-casing and incremental accounting is unchanged.

use std::collections::BTreeSet;

use er_pi_model::{Event, EventId, FaultKind, FaultPlan, ReplicaId, Workload};
use er_pi_rdl::{fnv1a64, fnv1a64_extend};

use crate::{OpOutcome, SystemModel};

/// Failure reasons recorded for faulted slots (stable strings: they are part
/// of the byte-identical report contract).
pub(crate) const REASON_PARTITIONED: &str = "fault: partitioned link";
pub(crate) const REASON_DROPPED: &str = "fault: message dropped";
pub(crate) const REASON_DELAYED: &str = "fault: delivery delayed";

/// Replays one interleaving's fault schedule deterministically.
///
/// One run is [`new`](FaultInterpreter::new), then
/// [`step`](FaultInterpreter::step) for each event in schedule order (its
/// position in the interleaving as `pos`), then
/// [`finish`](FaultInterpreter::finish) — the whole body of
/// [`InlineExecutor::execute`](crate::InlineExecutor::execute).
#[derive(Debug, Clone)]
pub struct FaultInterpreter<'p> {
    plan: &'p FaultPlan,
    /// Cut links, normalized `(min, max)`. Ordered, so
    /// [`live_digest`](FaultInterpreter::live_digest) can fold them
    /// as they come.
    partitions: BTreeSet<(ReplicaId, ReplicaId)>,
    /// Delayed effects: `(fire_pos, event)`, in scheduling order.
    pending: Vec<(usize, EventId)>,
}

fn normalize(a: ReplicaId, b: ReplicaId) -> (ReplicaId, ReplicaId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Whether `event` is a sync across one of the cut `links`.
fn partitioned(links: &BTreeSet<(ReplicaId, ReplicaId)>, event: &Event) -> bool {
    event
        .sync_endpoints()
        .is_some_and(|(a, b)| links.contains(&normalize(a, b)))
}

impl<'p> FaultInterpreter<'p> {
    /// An interpreter at the start of a run under `plan`: no link cut, no
    /// delivery outstanding.
    pub fn new(plan: &'p FaultPlan) -> Self {
        Self::reusing(plan, Vec::new())
    }

    /// [`new`](FaultInterpreter::new), queueing delayed effects in `pending`
    /// (emptied first): a buffer an earlier run handed back through
    /// [`into_pending`](FaultInterpreter::into_pending), kept for its
    /// capacity.
    pub(crate) fn reusing(plan: &'p FaultPlan, mut pending: Vec<(usize, EventId)>) -> Self {
        pending.clear();
        FaultInterpreter {
            plan,
            partitions: BTreeSet::new(),
            pending,
        }
    }

    /// The delayed-effect buffer, for the next run's
    /// [`reusing`](FaultInterpreter::reusing).
    pub(crate) fn into_pending(self) -> Vec<(usize, EventId)> {
        self.pending
    }

    /// Returns `true` when the plan schedules no faults — callers may take
    /// the zero-overhead fault-free path.
    pub(crate) fn idle(&self) -> bool {
        self.plan.is_empty()
    }

    /// Executes the event at schedule slot `pos` with its faults and returns
    /// the outcome the slot records. The order of these calls *is* the fault
    /// semantics — crash-restarts and links cut or healed at the event, the
    /// anchor's own delivery (re-applied when duplicated), then the delayed
    /// effects due at the end of the step — and every executor goes
    /// through here, so there is one copy of it. `states` is left as it is
    /// after the whole step, fault surgery included.
    #[inline]
    pub fn step<M: SystemModel>(
        &mut self,
        model: &M,
        states: &mut [M::State],
        workload: &Workload,
        event: &Event,
        pos: usize,
    ) -> OpOutcome {
        self.restart(model, states, event);
        let outcome = match self.route(event, pos) {
            None => {
                let out = model.apply(states, event);
                if self.duplicate(event) {
                    let _ = model.apply(states, event);
                }
                out
            }
            Some(reason) => OpOutcome::failed(reason),
        };
        self.end_step(workload, pos, |event| {
            let _ = model.apply(states, event);
        });
        outcome
    }

    /// Fires the crash-restarts anchored at `event` (before it executes).
    fn restart<M: SystemModel>(&self, model: &M, states: &mut [M::State], event: &Event) {
        if self.idle() {
            return;
        }
        for fault in self.plan.at(event.id) {
            if let FaultKind::CrashRestart { replica } = fault.kind {
                model.recover(states, replica);
            }
        }
    }

    /// The half of a step that touches no state: cuts and heals the links
    /// anchored at `event` (before it executes), then decides its own
    /// delivery at schedule slot `pos`. `None` applies it, `Some(reason)`
    /// fails the slot without applying — partitioned endpoints, a scheduled
    /// `Drop`, or a scheduled `Delay` (whose effect is queued to fire
    /// later).
    ///
    /// Precedence when a plan stacks delivery faults on one anchor:
    /// partition > drop > delay > duplicate (the enumerator never stacks,
    /// but hand-written plans may).
    fn route(&mut self, event: &Event, pos: usize) -> Option<&'static str> {
        if self.idle() {
            return None;
        }
        let (mut dropped, mut delay) = (false, None);
        for fault in self.plan.at(event.id) {
            match fault.kind {
                FaultKind::Partition { from, to } => {
                    self.partitions.insert(normalize(from, to));
                }
                FaultKind::Heal { from, to } => {
                    self.partitions.remove(&normalize(from, to));
                }
                FaultKind::Drop => dropped = true,
                FaultKind::Delay { by } => delay = Some(by.max(1) as usize),
                _ => {}
            }
        }
        if partitioned(&self.partitions, event) {
            return Some(REASON_PARTITIONED);
        }
        if dropped {
            return Some(REASON_DROPPED);
        }
        let by = delay?;
        self.pending.push((pos + by, event.id));
        Some(REASON_DELAYED)
    }

    /// Returns `true` if `event` should be applied a second time (a
    /// duplicated delivery). Only meaningful for a delivered event.
    fn duplicate(&self, event: &Event) -> bool {
        !self.idle()
            && self
                .plan
                .at(event.id)
                .any(|f| f.kind == FaultKind::Duplicate)
    }

    /// Retires the delayed effects due at or before `pos` (end of that
    /// step), in scheduling order, handing each to `fire` unless its link
    /// is partitioned. Their outcomes are discarded — the schedule slot
    /// already recorded [`REASON_DELAYED`].
    fn end_step(&mut self, workload: &Workload, pos: usize, mut fire: impl FnMut(&Event)) {
        let partitions = &self.partitions;
        self.pending.retain(|&(due, id)| {
            if due > pos {
                return true;
            }
            let event = workload.event(id);
            if !partitioned(partitions, event) {
                fire(event);
            }
            false
        });
    }

    /// Flushes every still-pending delayed effect after the last event
    /// (unless its link is partitioned): the end of a step past every
    /// position. Call once, after the last
    /// [`step`](FaultInterpreter::step).
    pub fn finish<M: SystemModel>(
        &mut self,
        model: &M,
        states: &mut [M::State],
        workload: &Workload,
    ) {
        self.end_step(workload, usize::MAX, |event| {
            let _ = model.apply(states, event);
        });
    }

    /// Rebuilds the interpreter's bookkeeping as if the events at positions
    /// `0..depth` of `order` had executed — without touching states (the
    /// checkpoint snapshot already contains their effects): each position
    /// is [`step`](FaultInterpreter::step)'s state-free half and the
    /// retirement at its end. Used when the incremental executor resumes
    /// from a cached prefix.
    pub(crate) fn fast_forward(&mut self, workload: &Workload, order: &[EventId], depth: usize) {
        if self.idle() {
            return;
        }
        for (pos, &id) in order.iter().take(depth).enumerate() {
            let _ = self.route(workload.event(id), pos);
            self.end_step(workload, pos, |_| {});
        }
    }

    /// A 64-bit digest of what the faults that already fired left live: the
    /// cut links in sorted order, and the outstanding delayed effects in
    /// scheduling order (firing order is behavior, so the `Vec` order is
    /// hashed as-is). Subsumption folds this into its key. The plan itself
    /// is not hashed: the interpreter reads it only at the anchor being
    /// stepped, and the key's suffix hash already folds the anchor digest of
    /// every event still to come, so a fault that fired acts on the rest of
    /// the run only through the replica states, the cut links and the
    /// delayed effects (DESIGN.md §15). Two runs at the same replica-state
    /// digest, depth and suffix under different plans thus share a key once
    /// their live context agrees. One call per subsume probe, so it
    /// allocates nothing.
    pub(crate) fn live_digest(&self) -> u64 {
        // The FNV-1a of these fields laid end to end, folded in place.
        let mut h = fnv1a64(&(self.partitions.len() as u64).to_le_bytes());
        for (a, b) in &self.partitions {
            h = fnv1a64_extend(h, &a.raw().to_le_bytes());
            h = fnv1a64_extend(h, &b.raw().to_le_bytes());
        }
        h = fnv1a64_extend(h, &(self.pending.len() as u64).to_le_bytes());
        for &(fire, id) in &self.pending {
            h = fnv1a64_extend(h, &(fire as u64).to_le_bytes());
            h = fnv1a64_extend(h, &id.raw().to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::{FaultEvent, Interleaving, ReplicaId, Value};

    struct Probe;

    impl SystemModel for Probe {
        type State = Vec<i64>;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> Vec<i64> {
            Vec::new()
        }

        fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
            let v = event
                .op()
                .and_then(|op| op.arg(0))
                .and_then(Value::as_int)
                .unwrap_or(100 + event.id.raw() as i64);
            states[event.replica.index()].push(v);
            OpOutcome::Applied
        }

        fn observe(&self, state: &Vec<i64>) -> Value {
            state.iter().copied().collect()
        }
    }

    fn run(workload: &Workload, il: &Interleaving) -> (Vec<Vec<i64>>, Vec<OpOutcome>) {
        let model = Probe;
        let mut states = model.init_all();
        let mut outcomes = Vec::new();
        let mut interp = FaultInterpreter::new(il.faults());
        for (pos, &id) in il.iter().enumerate() {
            let event = workload.event(id);
            outcomes.push(interp.step(&model, &mut states, workload, event, pos));
        }
        interp.finish(&model, &mut states, workload);
        (states, outcomes)
    }

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn three_ops() -> (Workload, Vec<er_pi_model::EventId>) {
        let mut w = Workload::builder();
        let ids = vec![
            w.update(r(0), "op", [Value::from(1)]),
            w.update(r(0), "op", [Value::from(2)]),
            w.update(r(0), "op", [Value::from(3)]),
        ];
        (w.build(), ids)
    }

    #[test]
    fn drop_suppresses_the_anchor() {
        let (w, ids) = three_ops();
        let il = w
            .recorded_order()
            .with_faults(FaultPlan::new(vec![FaultEvent::new(
                ids[1],
                FaultKind::Drop,
            )]));
        let (states, outcomes) = run(&w, &il);
        assert_eq!(states[0], vec![1, 3]);
        assert_eq!(outcomes[1], OpOutcome::failed(REASON_DROPPED));
    }

    #[test]
    fn duplicate_applies_twice() {
        let (w, ids) = three_ops();
        let il = w
            .recorded_order()
            .with_faults(FaultPlan::new(vec![FaultEvent::new(
                ids[0],
                FaultKind::Duplicate,
            )]));
        let (states, outcomes) = run(&w, &il);
        assert_eq!(states[0], vec![1, 1, 2, 3]);
        assert_eq!(outcomes[0], OpOutcome::Applied);
    }

    #[test]
    fn delay_moves_the_effect_later() {
        let (w, ids) = three_ops();
        let il = w
            .recorded_order()
            .with_faults(FaultPlan::new(vec![FaultEvent::new(
                ids[0],
                FaultKind::Delay { by: 2 },
            )]));
        let (states, outcomes) = run(&w, &il);
        // op1 fires at the end of step 2 (after op3 applied).
        assert_eq!(states[0], vec![2, 3, 1]);
        assert_eq!(outcomes[0], OpOutcome::failed(REASON_DELAYED));
        assert_eq!(outcomes[1], OpOutcome::Applied);
    }

    #[test]
    fn delay_past_the_end_flushes_at_finish() {
        let (w, ids) = three_ops();
        let il = w
            .recorded_order()
            .with_faults(FaultPlan::new(vec![FaultEvent::new(
                ids[2],
                FaultKind::Delay { by: 5 },
            )]));
        let (states, _) = run(&w, &il);
        assert_eq!(states[0], vec![1, 2, 3], "flushed after the last event");
    }

    #[test]
    fn partition_window_fails_syncs_until_heal() {
        let mut w = Workload::builder();
        let a = w.update(r(0), "op", [Value::from(1)]);
        let s1 = w.sync_pair(r(0), r(1), a);
        let b = w.update(r(0), "op", [Value::from(2)]);
        let s2 = w.sync_pair(r(0), r(1), b);
        let w = w.build();
        let il = w.recorded_order().with_faults(FaultPlan::new(vec![
            FaultEvent::new(
                s1,
                FaultKind::Partition {
                    from: r(0),
                    to: r(1),
                },
            ),
            FaultEvent::new(
                s2,
                FaultKind::Heal {
                    from: r(0),
                    to: r(1),
                },
            ),
        ]));
        let (states, outcomes) = run(&w, &il);
        assert_eq!(outcomes[s1.index()], OpOutcome::failed(REASON_PARTITIONED));
        assert_eq!(outcomes[s2.index()], OpOutcome::Applied);
        // The probe records applies at the sender: two updates plus the
        // healed sync ran there; the partitioned sync never applied.
        assert_eq!(states[0].len(), 3);
    }

    #[test]
    fn crash_restart_reinitializes_by_default() {
        let (w, ids) = three_ops();
        let il = w
            .recorded_order()
            .with_faults(FaultPlan::new(vec![FaultEvent::new(
                ids[2],
                FaultKind::CrashRestart { replica: r(0) },
            )]));
        let (states, _) = run(&w, &il);
        // Crash before op3 wipes ops 1 and 2.
        assert_eq!(states[0], vec![3]);
    }

    #[test]
    fn live_digest_forgets_fired_faults_and_keeps_topology_and_delays() {
        let (w, ids) = three_ops();
        let order: Vec<_> = w.event_ids().collect();

        let empty = FaultPlan::empty();
        let base = FaultInterpreter::new(&empty).live_digest();

        // A plan is not part of the digest: its anchors still to come are in
        // the suffix hash, and a drop that fired leaves nothing live.
        let drop_plan = FaultPlan::new(vec![FaultEvent::new(ids[1], FaultKind::Drop)]);
        let mut dropped = FaultInterpreter::new(&drop_plan);
        assert_eq!(dropped.live_digest(), base);
        dropped.fast_forward(&w, &order, 2);
        assert_eq!(dropped.live_digest(), base, "a fired drop is forgotten");

        // A live partition changes the digest, and healing it restores it.
        let cut = FaultKind::Partition {
            from: r(0),
            to: r(1),
        };
        let heal = FaultKind::Heal {
            from: r(0),
            to: r(1),
        };
        let pplan = FaultPlan::new(vec![
            FaultEvent::new(ids[0], cut),
            FaultEvent::new(ids[2], heal),
        ]);
        let mut window = FaultInterpreter::new(&pplan);
        window.fast_forward(&w, &order, 1);
        assert_ne!(window.live_digest(), base);
        let mut healed = FaultInterpreter::new(&pplan);
        healed.fast_forward(&w, &order, 3);
        assert_eq!(healed.live_digest(), base, "a healed link is forgotten");

        // An outstanding delayed effect changes the digest, and firing order
        // matters (the pending Vec is hashed in order).
        let dplan = FaultPlan::new(vec![FaultEvent::new(ids[1], FaultKind::Delay { by: 2 })]);
        let mut delayed = FaultInterpreter::new(&dplan);
        delayed.fast_forward(&w, &order, 2);
        assert_ne!(delayed.live_digest(), base);
        let mut two = FaultInterpreter::new(&dplan);
        two.pending = vec![(3, ids[1]), (4, ids[2])];
        let mut swapped = FaultInterpreter::new(&dplan);
        swapped.pending = vec![(4, ids[2]), (3, ids[1])];
        assert_ne!(two.live_digest(), swapped.live_digest());
    }

    #[test]
    fn live_digest_is_fnv_of_the_concatenated_context() {
        let (w, ids) = three_ops();
        let order: Vec<_> = w.event_ids().collect();
        let plan = FaultPlan::new(vec![
            FaultEvent::new(
                ids[0],
                FaultKind::Partition {
                    from: r(1),
                    to: r(0),
                },
            ),
            FaultEvent::new(ids[1], FaultKind::Delay { by: 2 }),
        ]);
        let mut interp = FaultInterpreter::new(&plan);
        interp.fast_forward(&w, &order, 2);
        // Links, then delayed effects: no plan digest in front.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&r(0).raw().to_le_bytes());
        bytes.extend_from_slice(&r(1).raw().to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&ids[1].raw().to_le_bytes());
        assert_eq!(interp.live_digest(), fnv1a64(&bytes));
    }

    #[test]
    fn a_reused_delay_buffer_starts_empty_and_finish_keeps_its_capacity() {
        let (w, ids) = three_ops();
        let plan = FaultPlan::new(vec![FaultEvent::new(ids[2], FaultKind::Delay { by: 5 })]);
        let il = w.recorded_order().with_faults(plan.clone());
        let (model, mut states) = (Probe, Probe.init_all());
        let mut interp = FaultInterpreter::reusing(&plan, vec![(9, ids[0]); 4]);
        assert!(interp.pending.is_empty(), "emptied before the run");
        for (pos, &id) in il.iter().enumerate() {
            interp.step(&model, &mut states, &w, w.event(id), pos);
        }
        interp.finish(&model, &mut states, &w);
        assert_eq!(
            states,
            run(&w, &il).0,
            "the same run as a fresh interpreter"
        );
        let buffer = interp.into_pending();
        assert!(
            buffer.is_empty() && buffer.capacity() >= 4,
            "drained, not taken"
        );
    }

    #[test]
    fn fast_forward_retains_only_outstanding_delays() {
        let (w, ids) = three_ops();
        let plan = FaultPlan::new(vec![
            FaultEvent::new(ids[0], FaultKind::Delay { by: 1 }),
            FaultEvent::new(ids[1], FaultKind::Delay { by: 2 }),
        ]);
        let order: Vec<_> = w.event_ids().collect();
        // Prefix of 2 steps: delay@e0 fires at end of step 1 (inside the
        // prefix); delay@e1 fires at step 3 (outstanding).
        let mut interp = FaultInterpreter::new(&plan);
        interp.fast_forward(&w, &order, 2);
        assert_eq!(interp.pending, vec![(3, ids[1])]);
        // A full-depth fast-forward of a partition plan rebuilds topology.
        let pplan = FaultPlan::new(vec![FaultEvent::new(
            ids[0],
            FaultKind::Partition {
                from: r(0),
                to: r(1),
            },
        )]);
        let mut interp = FaultInterpreter::new(&pplan);
        interp.fast_forward(&w, &order, 3);
        assert!(interp.partitions.contains(&(r(0), r(1))));
    }

    #[test]
    fn fast_forward_leaves_what_stepping_leaves_at_every_depth() {
        // A delayed effect due at a step that fails — dropped, or a sync
        // across a link cut before it — is retired at that step's end all
        // the same: a run resumed right after it must not fire it again.
        let mut w = Workload::builder();
        let a = w.update(r(0), "op", [Value::from(1)]);
        let b = w.update(r(0), "op", [Value::from(2)]);
        w.sync_pair(r(0), r(1), b);
        w.update(r(0), "op", [Value::from(3)]);
        let w = w.build();
        let order: Vec<_> = w.event_ids().collect();
        let cut = FaultKind::Partition {
            from: r(0),
            to: r(1),
        };
        let plans = [
            FaultPlan::new(vec![
                FaultEvent::new(a, FaultKind::Delay { by: 1 }),
                FaultEvent::new(b, FaultKind::Drop),
            ]),
            FaultPlan::new(vec![
                FaultEvent::new(a, cut),
                FaultEvent::new(b, FaultKind::Delay { by: 1 }),
            ]),
        ];
        for plan in &plans {
            let (model, mut states) = (Probe, Probe.init_all());
            let mut stepped = FaultInterpreter::new(plan);
            for depth in 0..=order.len() {
                let mut resumed = FaultInterpreter::new(plan);
                resumed.fast_forward(&w, &order, depth);
                assert_eq!(
                    resumed.live_digest(),
                    stepped.live_digest(),
                    "{plan:?} at depth {depth}"
                );
                if let Some(&id) = order.get(depth) {
                    stepped.step(&model, &mut states, &w, w.event(id), depth);
                }
            }
        }
    }
}
