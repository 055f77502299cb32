//! A replicated append-only ledger with the *exactly-once delivery*
//! misconception seeded in its sync path.
//!
//! The application keeps, per replica, a durable log of its own credits and
//! a volatile list of every ledger entry it has applied (own + received).
//! Shipping an entry appends it at the receiver **without deduplication** —
//! the developer assumed the transport delivers each sync exactly once.
//!
//! Under fault-free replay that assumption is unfalsifiable: every `Sync`
//! event executes exactly once in every interleaving, so no order of the
//! same workload ever double-applies an entry (an aggressive order can only
//! make the sync *fail* with "nothing to ship yet", which Algorithm 4 prunes
//! around). Only a scheduled [`Duplicate`](er_pi_model::FaultKind::Duplicate)
//! delivery exposes the missing idempotence check — the bug class fault
//! schedules exist for.

use er_pi::{OpOutcome, SystemModel};
use er_pi_model::{CanonicalEncode, Event, EventId, EventKind, ReplicaId, Value};
use er_pi_rdl::Shared;

/// One replica of the ledger application.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LedgerReplica {
    /// Durable: credits issued at this replica, in issue order. This is the
    /// op log a crash-restart recovers from.
    pub log: Vec<(EventId, i64)>,
    /// Volatile: every entry applied here (own credits + received ones),
    /// in application order. Duplicated [`EventId`]s are the bug.
    pub entries: Vec<(EventId, i64)>,
}

impl Clone for LedgerReplica {
    fn clone(&self) -> Self {
        let LedgerReplica { log, entries } = self;
        LedgerReplica {
            log: log.clone(),
            entries: entries.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let LedgerReplica { log, entries } = source;
        self.log.clone_from(log);
        self.entries.clone_from(entries);
    }
}

/// [`LedgerApp`]'s per-replica state: a [`LedgerReplica`] behind a
/// copy-on-write cell (a snapshot is a pointer bump).
pub type LedgerState = Shared<LedgerReplica>;

impl LedgerReplica {
    /// The replica's balance: the sum of all applied entries.
    pub fn balance(&self) -> i64 {
        self.entries.iter().map(|(_, v)| v).sum()
    }

    /// The first entry id applied more than once, if any — the observable
    /// footprint of a double delivery.
    pub fn duplicated_entry(&self) -> Option<EventId> {
        self.entries
            .iter()
            .enumerate()
            .find(|(i, (id, _))| self.entries[..*i].iter().any(|(seen, _)| seen == id))
            .map(|(_, (id, _))| *id)
    }
}

/// The ledger subject model.
///
/// Operation vocabulary: `credit(amount)` appends a ledger entry at the
/// event's replica. A fused `Sync { of }` ships the entry created by `of`
/// to the receiver, appending it blindly (the seeded bug); it fails with
/// "nothing to ship yet" while the sender has not applied `of`.
#[derive(Debug, Clone)]
pub struct LedgerApp {
    replicas: usize,
}

impl LedgerApp {
    /// Creates the model.
    pub fn new(replicas: usize) -> Self {
        LedgerApp { replicas }
    }
}

impl SystemModel for LedgerApp {
    type State = LedgerState;

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn init(&self, _replica: ReplicaId) -> LedgerState {
        LedgerState::default()
    }

    fn apply(&self, states: &mut [LedgerState], event: &Event) -> OpOutcome {
        let at = event.replica.index();
        match &event.kind {
            EventKind::LocalUpdate { op } => match op.function() {
                "credit" => {
                    let Some(v) = op.arg(0).and_then(Value::as_int) else {
                        return OpOutcome::failed("credit needs an amount");
                    };
                    states[at].log.push((event.id, v));
                    states[at].entries.push((event.id, v));
                    OpOutcome::Applied
                }
                other => OpOutcome::failed(format!("unknown ledger op {other}")),
            },
            EventKind::Sync { to, of } => {
                let Some(of) = *of else {
                    return OpOutcome::failed("ledger syncs ship one tracked entry");
                };
                let Some(&(id, v)) = states[at].entries.iter().find(|(id, _)| *id == of) else {
                    return OpOutcome::failed("nothing to ship yet");
                };
                // The seeded bug: append without checking whether the
                // receiver already holds `id` — "the network delivers each
                // sync exactly once".
                states[to.index()].entries.push((id, v));
                OpOutcome::Applied
            }
            _ => OpOutcome::failed("unsupported event kind for the ledger"),
        }
    }

    /// Crash-restart recovery replays the durable credit log into a fresh
    /// state; received entries were volatile and are lost until re-synced.
    fn recover(&self, states: &mut [LedgerState], replica: ReplicaId) {
        let log = std::mem::take(&mut states[replica.index()].log);
        states[replica.index()] = Shared::new(LedgerReplica {
            entries: log.clone(),
            log,
        });
    }

    fn observe(&self, state: &LedgerState) -> Value {
        let entries: Value = state
            .entries
            .iter()
            .map(|(id, v)| Value::List(vec![Value::from(i64::from(id.raw())), Value::from(*v)]))
            .collect();
        Value::List(vec![Value::from(state.balance()), entries])
    }

    fn state_encode(&self, state: &LedgerState, out: &mut Vec<u8>) -> bool {
        state.log.encode_canonical(out);
        state.entries.encode_canonical(out);
        true
    }

    fn replica_digest(&self, state: &LedgerState) -> Option<u128> {
        Shared::digest_with(state, || er_pi::encoding_digest(self, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::Workload;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn workload() -> Workload {
        let mut w = Workload::builder();
        let c = w.update(r(0), "credit", [Value::from(100)]);
        w.sync_pair(r(0), r(1), c);
        w.build()
    }

    #[test]
    fn fault_free_sync_applies_each_entry_once() {
        let model = LedgerApp::new(2);
        let mut states = model.init_all();
        for ev in workload().events() {
            model.apply(&mut states, ev);
        }
        assert_eq!(states[1].balance(), 100);
        assert_eq!(states[1].duplicated_entry(), None);
    }

    #[test]
    fn snapshots_stay_independent() {
        crate::assert_snapshots_stay_independent(&LedgerApp::new(2), &workload(), "ledger");
    }

    #[test]
    fn sync_before_credit_is_a_failed_op() {
        let model = LedgerApp::new(2);
        let w = workload();
        let mut states = model.init_all();
        let sync = w.event(EventId::new(1));
        assert_eq!(
            model.apply(&mut states, sync),
            OpOutcome::failed("nothing to ship yet")
        );
        assert_eq!(states[1].entries.len(), 0);
    }

    #[test]
    fn double_applied_sync_duplicates_the_entry() {
        // What a scheduled Duplicate fault does at replay time.
        let model = LedgerApp::new(2);
        let w = workload();
        let mut states = model.init_all();
        model.apply(&mut states, w.event(EventId::new(0)));
        let sync = w.event(EventId::new(1));
        model.apply(&mut states, sync);
        model.apply(&mut states, sync);
        assert_eq!(states[1].duplicated_entry(), Some(EventId::new(0)));
        assert_eq!(states[1].balance(), 200, "the balance double-counts");
    }

    #[test]
    fn recovery_replays_the_durable_log_only() {
        let model = LedgerApp::new(2);
        let w = workload();
        let mut states = model.init_all();
        for ev in w.events() {
            model.apply(&mut states, ev);
        }
        // Replica 1 holds one received entry and no own credits.
        assert_eq!(states[1].entries.len(), 1);
        model.recover(&mut states, r(1));
        assert_eq!(states[1].entries.len(), 0, "received entries are volatile");
        // Replica 0's own credit survives the crash via log replay.
        model.recover(&mut states, r(0));
        assert_eq!(states[0].entries, vec![(EventId::new(0), 100)]);
        assert_eq!(states[0].balance(), 100);
    }
}
