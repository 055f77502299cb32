//! Workloads: the event sets captured between `ER-π.Start()` and `ER-π.End()`.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Event, EventId, EventKind, Interleaving, OpDescriptor, ReplicaId, Value};

/// Errors arising from malformed workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// A `SyncExec` references a `send` event that is not a `SyncSend`.
    DanglingSyncExec {
        /// The offending exec event.
        exec: EventId,
        /// What it referenced.
        referenced: EventId,
    },
    /// An event's dependency points at an event with an equal or higher id,
    /// which would make the recorded program order cyclic.
    ForwardDependency {
        /// The event with the bad dependency.
        event: EventId,
        /// The dependency that points forward.
        dep: EventId,
    },
    /// A dependency references an event id outside the workload.
    UnknownEvent {
        /// The event with the bad dependency.
        event: EventId,
        /// The unknown id.
        dep: EventId,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::DanglingSyncExec { exec, referenced } => {
                write!(
                    f,
                    "sync-exec {exec} references {referenced}, which is not a sync-send"
                )
            }
            WorkloadError::ForwardDependency { event, dep } => {
                write!(f, "event {event} depends on later event {dep}")
            }
            WorkloadError::UnknownEvent { event, dep } => {
                write!(f, "event {event} depends on unknown event {dep}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The complete set of events recorded for one intercepted code segment.
///
/// Event ids are dense indices (`0..len`) assigned in recording order, so
/// the identity interleaving `[e0, e1, …]` is the originally observed
/// execution. See the [crate-level example](crate) for construction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Workload {
    events: Vec<Event>,
}

impl Workload {
    /// Starts building a workload.
    pub fn builder() -> WorkloadBuilder {
        WorkloadBuilder::default()
    }

    /// Creates a workload from pre-built events.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if dependencies point forward, reference
    /// unknown events, or a `SyncExec` references a non-`SyncSend`.
    pub fn from_events(events: Vec<Event>) -> Result<Self, WorkloadError> {
        let w = Workload { events };
        w.validate()?;
        Ok(w)
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        for ev in &self.events {
            for dep in ev.all_deps() {
                if dep.index() >= self.events.len() {
                    return Err(WorkloadError::UnknownEvent { event: ev.id, dep });
                }
                if dep >= ev.id {
                    return Err(WorkloadError::ForwardDependency { event: ev.id, dep });
                }
            }
            if let EventKind::SyncExec { send, .. } = ev.kind {
                if !self.events[send.index()].is_sync_send() {
                    return Err(WorkloadError::DanglingSyncExec {
                        exec: ev.id,
                        referenced: send,
                    });
                }
            }
        }
        Ok(())
    }

    /// All events, indexed by [`EventId::index`].
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the workload has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Looks up an event by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this workload.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// All event ids, in recording order.
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        self.events.iter().map(|e| e.id)
    }

    /// Ids of events executing at `replica`.
    pub fn events_at(&self, replica: ReplicaId) -> Vec<EventId> {
        self.events
            .iter()
            .filter(|e| e.replica == replica)
            .map(|e| e.id)
            .collect()
    }

    /// The distinct replicas participating in the workload.
    pub fn replicas(&self) -> Vec<ReplicaId> {
        let mut out: Vec<ReplicaId> = Vec::new();
        for e in &self.events {
            if !out.contains(&e.replica) {
                out.push(e.replica);
            }
            if let Some((from, to)) = e.sync_endpoints() {
                for r in [from, to] {
                    if !out.contains(&r) {
                        out.push(r);
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// The interleaving observed during recording (identity order).
    pub fn recorded_order(&self) -> Interleaving {
        Interleaving::new(self.event_ids().collect())
    }

    /// Total number of unconstrained interleavings, `n!` — what the DFS and
    /// Random baselines explore (paper §6.3). Saturates at `u128::MAX`.
    pub fn total_orders(&self) -> u128 {
        crate::factorial(self.len())
    }

    /// Checks whether `order` is a permutation of exactly this workload's
    /// events.
    pub fn is_permutation(&self, order: &Interleaving) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut seen = vec![false; self.len()];
        for &id in order.iter() {
            match seen.get_mut(id.index()) {
                Some(slot @ false) => *slot = true,
                _ => return false,
            }
        }
        true
    }

    /// Checks whether `order` respects the causal partial order (every
    /// event's dependencies appear before it). An order that is not a
    /// permutation of this workload's events — of another length, with an
    /// id twice or out of range — is not valid.
    ///
    /// The DFS/Random baselines deliberately do *not* restrict themselves to
    /// causally valid orders; executing an invalid order simply wastes an
    /// exploration step (the out-of-order events fail as no-ops).
    pub fn is_causally_valid(&self, order: &Interleaving) -> bool {
        self.is_causally_valid_in(order, &mut Vec::new())
    }

    /// [`Workload::is_causally_valid`] in one pass over `order`, marking
    /// each event in `seen` (cleared first) as it goes: an event is placed
    /// validly when it is in range, not seen yet, and every dependency is
    /// seen already. A caller that checks many orders keeps one `seen` and
    /// allocates nothing after the first.
    pub fn is_causally_valid_in(&self, order: &Interleaving, seen: &mut Vec<bool>) -> bool {
        if order.len() != self.len() {
            return false;
        }
        seen.clear();
        seen.resize(self.len(), false);
        order.iter().all(|&id| {
            let Some(ev) = self.events.get(id.index()) else {
                return false;
            };
            let placed = !seen[id.index()]
                && ev
                    .all_deps_iter()
                    .all(|dep| seen.get(dep.index()).copied().unwrap_or(false));
            seen[id.index()] = true;
            placed
        })
    }
}

/// Incrementally records events into a [`Workload`].
///
/// The builder mirrors the recording side of the ER-π proxies: each call
/// appends one event and returns its id so later events can reference it.
#[derive(Debug, Default)]
pub struct WorkloadBuilder {
    events: Vec<Event>,
}

impl WorkloadBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, replica: ReplicaId, kind: EventKind, deps: Vec<EventId>) -> EventId {
        let id = EventId::new(self.events.len() as u32);
        self.events.push(Event {
            id,
            replica,
            kind,
            deps,
        });
        id
    }

    /// Records a local RDL update at `replica`.
    pub fn update<A>(&mut self, replica: ReplicaId, function: &str, args: A) -> EventId
    where
        A: IntoIterator,
        A::Item: Into<Value>,
    {
        self.push(
            replica,
            EventKind::LocalUpdate {
                op: OpDescriptor::new(function, args),
            },
            Vec::new(),
        )
    }

    /// Records a "send sync request" event from `from` to `to`, shipping the
    /// effects of update `of`.
    pub fn sync_send(&mut self, from: ReplicaId, to: ReplicaId, of: Option<EventId>) -> EventId {
        self.push(from, EventKind::SyncSend { to, of }, Vec::new())
    }

    /// Records an "execute sync request" event at `at`, executing the request
    /// previously sent in `send`.
    pub fn sync_exec(&mut self, at: ReplicaId, from: ReplicaId, send: EventId) -> EventId {
        self.push(at, EventKind::SyncExec { from, send }, Vec::new())
    }

    /// Records a split synchronization (send then exec) and returns both ids.
    pub fn sync_split(
        &mut self,
        from: ReplicaId,
        to: ReplicaId,
        of: Option<EventId>,
    ) -> (EventId, EventId) {
        let send = self.sync_send(from, to, of);
        let exec = self.sync_exec(to, from, send);
        (send, exec)
    }

    /// Records a fused synchronization event (`sync(ev)` in the paper's
    /// Figure 2) shipping update `of` from `from` to `to`.
    pub fn sync_pair(&mut self, from: ReplicaId, to: ReplicaId, of: EventId) -> EventId {
        self.push(from, EventKind::Sync { to, of: Some(of) }, Vec::new())
    }

    /// Records a fused synchronization with no tracked source update.
    pub fn sync_untracked(&mut self, from: ReplicaId, to: ReplicaId) -> EventId {
        self.push(from, EventKind::Sync { to, of: None }, Vec::new())
    }

    /// Records an external (non-RDL) effectful event.
    pub fn external(&mut self, replica: ReplicaId, label: impl Into<String>) -> EventId {
        self.push(
            replica,
            EventKind::External {
                label: label.into(),
            },
            Vec::new(),
        )
    }

    /// Adds an explicit causal dependency: `event` must come after `dep`.
    ///
    /// # Panics
    ///
    /// Panics if either id has not been recorded yet, or if `dep` was not
    /// recorded before `event` (a dependency on the event itself or on a
    /// later one, which would make the recorded program order cyclic).
    pub fn depends(&mut self, event: EventId, dep: EventId) -> &mut Self {
        assert!(event.index() < self.events.len(), "unknown event {event}");
        assert!(dep.index() < self.events.len(), "unknown dep {dep}");
        assert!(
            dep < event,
            "event {event} cannot depend on {dep}, which was not recorded before it"
        );
        let ev = &mut self.events[event.index()];
        if !ev.deps.contains(&dep) {
            ev.deps.push(dep);
        }
        self
    }

    /// Looks up an already recorded event.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been recorded yet.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finishes the workload.
    ///
    /// # Panics
    ///
    /// Panics if the recorded events are internally inconsistent; the builder
    /// API prevents that by construction, so this only guards against misuse
    /// of [`WorkloadBuilder::depends`] with hand-crafted ids.
    pub fn build(self) -> Workload {
        Workload::from_events(self.events).expect("builder produced a consistent workload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    /// The motivating example of §2.3: 7 events.
    fn motivating() -> Workload {
        let a = r(0);
        let b = r(1);
        let mut w = Workload::builder();
        let ev1 = w.update(a, "add", [Value::from("otb")]);
        w.sync_pair(a, b, ev1);
        let ev2 = w.update(b, "add", [Value::from("ph")]);
        w.sync_pair(b, a, ev2);
        let ev3 = w.update(b, "remove", [Value::from("otb")]);
        w.sync_pair(b, a, ev3);
        w.external(a, "transmit");
        w.build()
    }

    #[test]
    fn motivating_example_has_seven_events_and_5040_orders() {
        let w = motivating();
        assert_eq!(w.len(), 7);
        assert_eq!(w.total_orders(), 5040);
        assert_eq!(w.replicas(), vec![r(0), r(1)]);
    }

    #[test]
    fn recorded_order_is_identity_and_valid() {
        let w = motivating();
        let order = w.recorded_order();
        assert!(w.is_permutation(&order));
        assert!(w.is_causally_valid(&order));
    }

    #[test]
    fn sync_before_update_is_causally_invalid() {
        let w = motivating();
        // Swap ev1 (index 0) and its sync (index 1): sync now precedes the
        // update it ships.
        let mut ids: Vec<EventId> = w.event_ids().collect();
        ids.swap(0, 1);
        let order = Interleaving::new(ids);
        assert!(w.is_permutation(&order));
        assert!(!w.is_causally_valid(&order));
    }

    #[test]
    fn is_permutation_rejects_wrong_length_and_duplicates() {
        let w = motivating();
        let short = Interleaving::new(vec![EventId::new(0)]);
        assert!(!w.is_permutation(&short));
        let mut ids: Vec<EventId> = w.event_ids().collect();
        ids[1] = ids[0];
        assert!(!w.is_permutation(&Interleaving::new(ids)));
    }

    #[test]
    fn split_sync_wires_exec_to_send() {
        let mut w = Workload::builder();
        let u = w.update(r(0), "add", [Value::from(1)]);
        let (send, exec) = w.sync_split(r(0), r(1), Some(u));
        let w = w.build();
        assert!(w.event(send).is_sync_send());
        assert!(w.event(exec).is_sync_exec());
        assert_eq!(w.event(exec).all_deps(), vec![send]);
        assert_eq!(w.event(send).all_deps(), vec![u]);
        assert_eq!(w.event(send).sync_endpoints(), Some((r(0), r(1))));
        assert_eq!(w.event(exec).sync_endpoints(), Some((r(0), r(1))));
    }

    #[test]
    fn explicit_dependency_affects_validity() {
        let mut w = Workload::builder();
        let x = w.update(r(0), "a", [1]);
        let y = w.update(r(1), "b", [2]);
        w.depends(y, x);
        let w = w.build();
        let reversed = Interleaving::new(vec![y, x]);
        assert!(!w.is_causally_valid(&reversed));
        let forward = Interleaving::new(vec![x, y]);
        assert!(w.is_causally_valid(&forward));
    }

    #[test]
    fn from_events_rejects_dangling_exec() {
        let bad = vec![
            Event {
                id: EventId::new(0),
                replica: r(0),
                kind: EventKind::LocalUpdate {
                    op: OpDescriptor::nullary("x"),
                },
                deps: vec![],
            },
            Event {
                id: EventId::new(1),
                replica: r(1),
                kind: EventKind::SyncExec {
                    from: r(0),
                    send: EventId::new(0),
                },
                deps: vec![],
            },
        ];
        let err = Workload::from_events(bad).unwrap_err();
        assert!(matches!(err, WorkloadError::DanglingSyncExec { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn from_events_rejects_forward_dependency() {
        let bad = vec![Event {
            id: EventId::new(0),
            replica: r(0),
            kind: EventKind::LocalUpdate {
                op: OpDescriptor::nullary("x"),
            },
            deps: vec![EventId::new(0)],
        }];
        let err = Workload::from_events(bad).unwrap_err();
        assert!(matches!(err, WorkloadError::ForwardDependency { .. }));
    }

    #[test]
    fn from_events_rejects_unknown_dependency() {
        let bad = vec![Event {
            id: EventId::new(0),
            replica: r(0),
            kind: EventKind::LocalUpdate {
                op: OpDescriptor::nullary("x"),
            },
            deps: vec![EventId::new(9)],
        }];
        let err = Workload::from_events(bad).unwrap_err();
        assert!(matches!(err, WorkloadError::UnknownEvent { .. }));
    }

    #[test]
    #[should_panic(expected = "event e0 cannot depend on e0")]
    fn depends_rejects_a_self_dependency_at_the_call() {
        let mut w = Workload::builder();
        let e0 = w.update(r(0), "x", [Value::from(0)]);
        w.depends(e0, e0);
    }

    #[test]
    #[should_panic(expected = "event e0 cannot depend on e1")]
    fn depends_rejects_a_forward_dependency_at_the_call() {
        let mut w = Workload::builder();
        let e0 = w.update(r(0), "x", [Value::from(0)]);
        let e1 = w.update(r(1), "y", [Value::from(1)]);
        w.depends(e0, e1);
    }

    #[test]
    fn events_at_filters_by_replica() {
        let w = motivating();
        // Events at replica B: sync of ev1 lands at... careful: fused sync
        // events execute at the *sender* in our model, endpoints carry both.
        let at_a = w.events_at(r(0));
        let at_b = w.events_at(r(1));
        assert_eq!(at_a.len() + at_b.len(), 7);
    }
}
