//! The distributed event abstraction that ER-π intercepts and replays.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{EventId, ReplicaId, Value};

/// Describes one intercepted RDL function invocation: the function name plus
/// its (dynamically typed) arguments.
///
/// This is what the paper's language-specific proxies (Go AST rewriting, JS
/// monkey patching, Java dynamic proxies) extract; in this reproduction the
/// proxy layer in `er-pi` records these descriptors through static wrappers.
///
/// ```
/// use er_pi_model::{OpDescriptor, Value};
///
/// let op = OpDescriptor::new("add", [Value::from("pothole")]);
/// assert_eq!(op.function(), "add");
/// assert_eq!(op.to_string(), r#"add("pothole")"#);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpDescriptor {
    function: String,
    args: Vec<Value>,
}

impl OpDescriptor {
    /// Creates a descriptor for a call of `function` with `args`.
    pub fn new<A>(function: impl Into<String>, args: A) -> Self
    where
        A: IntoIterator,
        A::Item: Into<Value>,
    {
        OpDescriptor {
            function: function.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// Creates a descriptor for a zero-argument call.
    pub fn nullary(function: impl Into<String>) -> Self {
        OpDescriptor::new(function, std::iter::empty::<Value>())
    }

    /// The intercepted function name.
    pub fn function(&self) -> &str {
        &self.function
    }

    /// The intercepted arguments.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Convenience accessor for the `i`-th argument.
    pub fn arg(&self, i: usize) -> Option<&Value> {
        self.args.get(i)
    }
}

impl fmt::Display for OpDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.function)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

/// The kind of a distributed event, following the paper's event taxonomy.
///
/// * `LocalUpdate` — an application-issued RDL mutation at one replica.
/// * `SyncSend` — a replica ships a synchronization request to a peer
///   ("send sync request" in Algorithm 1).
/// * `SyncExec` — the peer executes a previously sent request
///   ("execute sync request").
/// * `Sync` — a fused send+execute pair, used where the paper draws a single
///   `sync(ev)` arrow (Figure 2); semantically equivalent to an already
///   event-grouped pair.
/// * `External` — an effectful action outside the RDL (e.g. `ev_IV`,
///   transmitting the issue set to the municipality).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Application-issued RDL mutation executed at [`Event::replica`].
    LocalUpdate {
        /// The intercepted library call.
        op: OpDescriptor,
    },
    /// [`Event::replica`] sends a sync request to `to`.
    SyncSend {
        /// Receiving replica.
        to: ReplicaId,
        /// The update event whose effects this request ships, if tracked.
        of: Option<EventId>,
    },
    /// [`Event::replica`] executes a sync request received from `from`.
    SyncExec {
        /// Sending replica.
        from: ReplicaId,
        /// The matching [`EventKind::SyncSend`] event.
        send: EventId,
    },
    /// Fused synchronization from [`Event::replica`] (the sender) to `to`.
    Sync {
        /// Receiving replica.
        to: ReplicaId,
        /// The update event whose effects this synchronization ships.
        of: Option<EventId>,
    },
    /// Effectful action outside the RDL (observation, transmission, ...).
    External {
        /// Human-readable label, also used by assertions to find the event.
        label: String,
    },
}

/// One distributed event raised during the intercepted workload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Event {
    /// Dense id of the event within its workload.
    pub id: EventId,
    /// Replica at which the event executes.
    pub replica: ReplicaId,
    /// What the event does.
    pub kind: EventKind,
    /// Explicit causal predecessors, beyond the implicit ones derivable
    /// from `kind` (a `SyncExec` always depends on its `SyncSend`; a
    /// `SyncSend`/`Sync` with a tracked `of` depends on that update).
    pub deps: Vec<EventId>,
}

impl Event {
    /// Returns `(from, to)` replica endpoints if this is a synchronization
    /// event (of any flavour), `None` otherwise.
    ///
    /// This is the `fromReplicaId` / `toReplicaId` pair that Algorithm 1
    /// (event grouping) matches on.
    pub fn sync_endpoints(&self) -> Option<(ReplicaId, ReplicaId)> {
        match &self.kind {
            EventKind::SyncSend { to, .. } | EventKind::Sync { to, .. } => {
                Some((self.replica, *to))
            }
            EventKind::SyncExec { from, .. } => Some((*from, self.replica)),
            _ => None,
        }
    }

    /// Returns `true` if this is a "send sync request" event.
    pub fn is_sync_send(&self) -> bool {
        matches!(self.kind, EventKind::SyncSend { .. })
    }

    /// Returns `true` if this is an "execute sync request" event.
    pub fn is_sync_exec(&self) -> bool {
        matches!(self.kind, EventKind::SyncExec { .. })
    }

    /// Returns `true` for any synchronization flavour.
    pub fn is_sync(&self) -> bool {
        self.sync_endpoints().is_some()
    }

    /// Returns `true` if this is a local RDL update.
    pub fn is_update(&self) -> bool {
        matches!(self.kind, EventKind::LocalUpdate { .. })
    }

    /// Returns the intercepted call for local updates.
    pub fn op(&self) -> Option<&OpDescriptor> {
        match &self.kind {
            EventKind::LocalUpdate { op } => Some(op),
            _ => None,
        }
    }

    /// The implicit causal predecessor derived from the event kind, if any.
    fn implicit_dep(&self) -> Option<EventId> {
        match &self.kind {
            EventKind::SyncExec { send, .. } => Some(*send),
            EventKind::SyncSend { of: Some(of), .. } | EventKind::Sync { of: Some(of), .. } => {
                Some(*of)
            }
            _ => None,
        }
    }

    /// Implicit causal predecessors derived from the event kind.
    pub fn implicit_deps(&self) -> Vec<EventId> {
        self.implicit_dep().into_iter().collect()
    }

    /// The causal predecessors of [`Event::all_deps`], read in place: the
    /// implicit one first, then the explicit [`Event::deps`], one of which
    /// may repeat it.
    pub fn all_deps_iter(&self) -> impl Iterator<Item = EventId> + '_ {
        self.implicit_dep()
            .into_iter()
            .chain(self.deps.iter().copied())
    }

    /// All causal predecessors: implicit ones plus explicit [`Event::deps`].
    pub fn all_deps(&self) -> Vec<EventId> {
        let mut deps = Vec::new();
        for d in self.all_deps_iter() {
            if !deps.contains(&d) {
                deps.push(d);
            }
        }
        deps
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::LocalUpdate { op } => write!(f, "{}[{} {}]", self.id, self.replica, op),
            EventKind::SyncSend { to, .. } => {
                write!(f, "{}[{}→{} send]", self.id, self.replica, to)
            }
            EventKind::SyncExec { from, .. } => {
                write!(f, "{}[{}←{} exec]", self.id, self.replica, from)
            }
            EventKind::Sync { to, .. } => write!(f, "{}[{}⇒{} sync]", self.id, self.replica, to),
            EventKind::External { label } => write!(f, "{}[{} !{}]", self.id, self.replica, label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }
    fn e(i: u32) -> EventId {
        EventId::new(i)
    }

    fn update(id: u32, rep: u16) -> Event {
        Event {
            id: e(id),
            replica: r(rep),
            kind: EventKind::LocalUpdate {
                op: OpDescriptor::new("add", [Value::from(1)]),
            },
            deps: vec![],
        }
    }

    #[test]
    fn sync_endpoints_for_each_flavour() {
        let send = Event {
            id: e(1),
            replica: r(0),
            kind: EventKind::SyncSend { to: r(1), of: None },
            deps: vec![],
        };
        let exec = Event {
            id: e(2),
            replica: r(1),
            kind: EventKind::SyncExec {
                from: r(0),
                send: e(1),
            },
            deps: vec![],
        };
        let fused = Event {
            id: e(3),
            replica: r(0),
            kind: EventKind::Sync { to: r(1), of: None },
            deps: vec![],
        };
        assert_eq!(send.sync_endpoints(), Some((r(0), r(1))));
        assert_eq!(exec.sync_endpoints(), Some((r(0), r(1))));
        assert_eq!(fused.sync_endpoints(), Some((r(0), r(1))));
        assert_eq!(update(0, 0).sync_endpoints(), None);
    }

    #[test]
    fn implicit_deps_follow_kind() {
        let exec = Event {
            id: e(2),
            replica: r(1),
            kind: EventKind::SyncExec {
                from: r(0),
                send: e(1),
            },
            deps: vec![e(0)],
        };
        assert_eq!(exec.implicit_deps(), vec![e(1)]);
        assert_eq!(exec.all_deps(), vec![e(1), e(0)]);
    }

    #[test]
    fn all_deps_deduplicates() {
        let sync = Event {
            id: e(2),
            replica: r(0),
            kind: EventKind::Sync {
                to: r(1),
                of: Some(e(0)),
            },
            deps: vec![e(0), e(1)],
        };
        assert_eq!(sync.all_deps(), vec![e(0), e(1)]);
    }

    #[test]
    fn classification_predicates() {
        let u = update(0, 0);
        assert!(u.is_update());
        assert!(!u.is_sync());
        assert_eq!(u.op().unwrap().function(), "add");
    }

    #[test]
    fn op_descriptor_accessors() {
        let op = OpDescriptor::new("move", [Value::from(1), Value::from(3)]);
        assert_eq!(op.args().len(), 2);
        assert_eq!(op.arg(1), Some(&Value::from(3)));
        assert_eq!(op.arg(2), None);
        assert_eq!(OpDescriptor::nullary("clear").args().len(), 0);
    }

    #[test]
    fn display_is_informative() {
        let s = update(4, 2).to_string();
        assert!(s.contains("e4"), "{s}");
        assert!(s.contains("R2"), "{s}");
        assert!(s.contains("add"), "{s}");
    }
}
