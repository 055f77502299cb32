//! Subject 2 — OrbitDB: a serverless, peer-to-peer, Merkle-CRDT log
//! database (paper §6, Subject 2).

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use crate::{clone_queue_from, sender_and_receiver};
use er_pi::{OpOutcome, SystemModel};
use er_pi_model::{CanonicalEncode, Event, EventKind, ReplicaId, Value};
use er_pi_rdl::{clone_handles_from, DeltaSync, LogEntry, LogSortOrder, MerkleLog, Shared};

/// Static configuration of the OrbitDB subject.
#[derive(Debug, Clone)]
pub struct OrbitConfig {
    /// Read-side linearization ([`LogSortOrder::ClockOnly`] is the OrbitDB-1
    /// defect surface).
    pub sort: LogSortOrder,
    /// Clock-skew rejection threshold (OrbitDB-2's halt symptom), if any.
    pub max_clock_skew: Option<u64>,
    /// Writer identity per replica (identical identities trigger the
    /// OrbitDB-1 tie).
    pub identities: Vec<String>,
    /// Ship only *head* entries on `SyncSend` (real OrbitDB announces heads
    /// and fetches ancestors separately) — the OrbitDB-4 defect surface:
    /// heads can arrive whose parents were never fetched.
    pub heads_only_sync: bool,
}

impl Default for OrbitConfig {
    fn default() -> Self {
        OrbitConfig {
            sort: LogSortOrder::ClockThenIdentity,
            max_clock_skew: None,
            identities: vec!["id-a".into(), "id-b".into(), "id-c".into()],
            heads_only_sync: false,
        }
    }
}

/// One OrbitDB replica.
#[derive(Debug)]
pub struct OrbitReplica {
    /// The replicated Merkle log.
    pub log: Shared<MerkleLog>,
    /// Pending sync payloads.
    pub inbox: VecDeque<Vec<Arc<LogEntry>>>,
    /// Identities currently granted write access. Behind a cell of its own,
    /// like the log: a replica copy shares the set until a `grant` or
    /// `revoke` writes it.
    pub access: Shared<BTreeSet<String>>,
    /// Cached access snapshot — the stale-cache surface of OrbitDB-3
    /// ("could not append entry although write access is granted"). A handle
    /// on the set as it was when `cache_access` ran.
    pub access_cache: Option<Shared<BTreeSet<String>>>,
    /// Appends rejected by the access check.
    pub rejected_appends: u32,
    /// Whether the repo folder lock is currently held.
    pub repo_locked: bool,
    /// Whether a close ran while a sync was still in flight, leaving the
    /// lock behind — the OrbitDB-5 symptom ("repo folder keeps getting
    /// locked").
    pub lock_stuck: bool,
    /// Whether an executed sync is still unflushed (an operation "in
    /// progress" from the repo lock's point of view).
    pub busy: bool,
    /// Number of `open_repo` calls refused because the lock was stuck.
    pub failed_opens: u32,
}

impl Clone for OrbitReplica {
    fn clone(&self) -> Self {
        let OrbitReplica {
            log,
            inbox,
            access,
            access_cache,
            rejected_appends,
            repo_locked,
            lock_stuck,
            busy,
            failed_opens,
        } = self;
        OrbitReplica {
            log: log.clone(),
            inbox: inbox.clone(),
            access: access.clone(),
            access_cache: access_cache.clone(),
            rejected_appends: *rejected_appends,
            repo_locked: *repo_locked,
            lock_stuck: *lock_stuck,
            busy: *busy,
            failed_opens: *failed_opens,
        }
    }

    /// Field by field, each into the one it replaces; an inbox payload by
    /// pointer.
    fn clone_from(&mut self, source: &Self) {
        let OrbitReplica {
            log,
            inbox,
            access,
            access_cache,
            rejected_appends,
            repo_locked,
            lock_stuck,
            busy,
            failed_opens,
        } = source;
        self.log.clone_from(log);
        clone_queue_from(&mut self.inbox, inbox, |mine, theirs| {
            clone_handles_from(mine, theirs)
        });
        self.access.clone_from(access);
        self.access_cache.clone_from(access_cache);
        self.rejected_appends = *rejected_appends;
        self.repo_locked = *repo_locked;
        self.lock_stuck = *lock_stuck;
        self.busy = *busy;
        self.failed_opens = *failed_opens;
    }
}

/// [`OrbitModel`]'s per-replica state: an [`OrbitReplica`] behind a
/// copy-on-write cell (a snapshot is a pointer bump).
pub type OrbitState = Shared<OrbitReplica>;

/// The OrbitDB subject model.
///
/// Operation vocabulary:
///
/// * `append(payload)` — appends if the (possibly cached) access controller
///   grants this replica's identity,
/// * `grant(identity)` / `revoke(identity)` — mutate the access controller,
/// * `cache_access()` — snapshot the controller into the cache,
/// * `poison_clock(t)` — force the local Lamport clock (OrbitDB-2),
/// * `open_repo()` / `close_repo()` — take / release the repo folder lock;
///   closing with an in-flight sync leaves the lock stuck (OrbitDB-5).
#[derive(Debug, Clone)]
pub struct OrbitModel {
    replicas: usize,
    config: OrbitConfig,
}

impl OrbitModel {
    /// Creates the model with the default (correct) configuration.
    pub fn new(replicas: usize) -> Self {
        OrbitModel {
            replicas,
            config: OrbitConfig::default(),
        }
    }

    /// Creates the model with an explicit configuration.
    pub fn with_config(replicas: usize, config: OrbitConfig) -> Self {
        OrbitModel { replicas, config }
    }
}

impl SystemModel for OrbitModel {
    type State = OrbitState;

    fn replicas(&self) -> usize {
        self.replicas
    }

    fn init(&self, replica: ReplicaId) -> OrbitState {
        let identity = self
            .config
            .identities
            .get(replica.index())
            .cloned()
            .unwrap_or_else(|| format!("id-{}", replica.index()));
        let mut log = MerkleLog::new(replica, identity.clone());
        log.set_sort_order(self.config.sort);
        log.set_max_clock_skew(self.config.max_clock_skew);
        let mut access = BTreeSet::new();
        access.insert(identity);
        Shared::new(OrbitReplica {
            log: Shared::new(log),
            inbox: VecDeque::new(),
            access: Shared::new(access),
            access_cache: None,
            rejected_appends: 0,
            repo_locked: false,
            lock_stuck: false,
            busy: false,
            failed_opens: 0,
        })
    }

    fn apply(&self, states: &mut [OrbitState], event: &Event) -> OpOutcome {
        let at = event.replica.index();
        match &event.kind {
            EventKind::LocalUpdate { op } => match op.function() {
                "append" => {
                    let payload = op.arg(0).cloned().unwrap_or(Value::Null);
                    let state = &mut states[at];
                    let identity = state.log.identity();
                    let granted = state
                        .access_cache
                        .as_ref()
                        .unwrap_or(&state.access)
                        .contains(identity);
                    if !granted {
                        let refusal = format!(
                            "could not append entry: {identity} not in (cached) access list"
                        );
                        state.rejected_appends += 1;
                        return OpOutcome::failed(refusal);
                    }
                    state.log.append(payload);
                    OpOutcome::Applied
                }
                "grant" => {
                    let id = op.arg(0).and_then(Value::as_str).unwrap_or("").to_owned();
                    states[at].access.insert(id);
                    OpOutcome::Applied
                }
                "revoke" => {
                    let id = op.arg(0).and_then(Value::as_str).unwrap_or("").to_owned();
                    states[at].access.remove(&id);
                    OpOutcome::Applied
                }
                "cache_access" => {
                    states[at].access_cache = Some(states[at].access.clone());
                    OpOutcome::Applied
                }
                "poison_clock" => {
                    let t = op.arg(0).and_then(Value::as_int).unwrap_or(0) as u64;
                    states[at].log.force_clock(t);
                    OpOutcome::Applied
                }
                "fetch" => {
                    // Resolve dangling references by pulling the missing
                    // entries (and their ancestors) from a peer's log.
                    let Some(from) = op.arg(0).and_then(Value::as_int) else {
                        return OpOutcome::failed("fetch needs a peer replica index");
                    };
                    let from = from as usize;
                    if from >= states.len() {
                        return OpOutcome::failed("fetch peer out of range");
                    }
                    let mut pulled = 0usize;
                    // A replica's own log holds none of its dangling refs.
                    if let Some((peer, me)) = sender_and_receiver(states, from, at) {
                        loop {
                            let missing = me.log.dangling_refs();
                            let mut progressed = false;
                            for hash in missing {
                                if let Some(entry) = peer.log.entry(hash) {
                                    me.log.apply_op(entry);
                                    pulled += 1;
                                    progressed = true;
                                }
                            }
                            if !progressed {
                                break;
                            }
                        }
                    }
                    OpOutcome::observed(Value::from(pulled as i64))
                }
                "audit" => {
                    let values: Value = states[at].log.values().into_iter().cloned().collect();
                    OpOutcome::observed(values)
                }
                "open_repo" => {
                    let state = &mut states[at];
                    if state.lock_stuck || state.repo_locked {
                        state.failed_opens += 1;
                        OpOutcome::failed("repo folder is locked")
                    } else {
                        state.repo_locked = true;
                        OpOutcome::Applied
                    }
                }
                "flush" => {
                    states[at].busy = false;
                    OpOutcome::Applied
                }
                "close_repo" => {
                    let state = &mut states[at];
                    if !state.repo_locked {
                        return OpOutcome::failed("close without open");
                    }
                    state.repo_locked = false;
                    if !state.inbox.is_empty() || state.busy {
                        // Closing with a sync still in flight (queued or
                        // executed-but-unflushed): the lock file is left
                        // behind.
                        state.lock_stuck = true;
                    }
                    OpOutcome::Applied
                }
                other => OpOutcome::failed(format!("unknown orbitdb op {other}")),
            },
            EventKind::Sync { to, .. } => {
                if let Some((from, to)) = sender_and_receiver(states, at, to.index()) {
                    to.log.sync_from(&from.log);
                }
                OpOutcome::Applied
            }
            EventKind::SyncSend { to, .. } => {
                let entries = if self.config.heads_only_sync {
                    let heads = states[at].log.heads();
                    heads
                        .into_iter()
                        .filter_map(|h| states[at].log.entry(h).cloned())
                        .collect()
                } else {
                    let receiver_version = states[to.index()].log.version().clone();
                    states[at].log.missing_since(&receiver_version)
                };
                states[to.index()].inbox.push_back(entries);
                OpOutcome::Applied
            }
            EventKind::SyncExec { .. } => match states[at].inbox.pop_front() {
                Some(entries) => {
                    // Entry by entry, each through `DerefMut`: an empty delta
                    // must not un-share the log.
                    for e in &entries {
                        states[at].log.apply_op(e);
                    }
                    states[at].busy = true;
                    OpOutcome::Applied
                }
                None => OpOutcome::failed("sync exec with empty inbox"),
            },
            EventKind::External { label } => {
                OpOutcome::failed(format!("unsupported external event {label}"))
            }
        }
    }

    fn observe(&self, state: &OrbitState) -> Value {
        let values: Value = state.log.values().into_iter().cloned().collect();
        Value::List(vec![
            values,
            Value::from(state.log.verify()),
            Value::from(i64::from(state.rejected_appends)),
            Value::from(state.lock_stuck),
            Value::from(i64::from(state.log.rejected_count() as u32)),
        ])
    }

    fn state_encode(&self, state: &OrbitState, out: &mut Vec<u8>) -> bool {
        // The access controller, its (possibly stale) cache, and the repo
        // lock flags all steer future appends/opens, so they are part of
        // behavioral state alongside the Merkle log and the sync inbox.
        state.log.encode_canonical(out);
        state.inbox.encode_canonical(out);
        state.access.encode_canonical(out);
        state.access_cache.encode_canonical(out);
        state.rejected_appends.encode_canonical(out);
        state.repo_locked.encode_canonical(out);
        state.lock_stuck.encode_canonical(out);
        state.busy.encode_canonical(out);
        state.failed_opens.encode_canonical(out);
        true
    }

    fn replica_digest(&self, state: &OrbitState) -> Option<u128> {
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

    fn apply_all(model: &OrbitModel, w: &Workload) -> Vec<OrbitState> {
        let mut states = model.init_all();
        for ev in w.events() {
            model.apply(&mut states, ev);
        }
        states
    }

    #[test]
    fn append_and_sync_converge() {
        let model = OrbitModel::new(2);
        let mut w = Workload::builder();
        let a1 = w.update(r(0), "append", [Value::from("x")]);
        w.sync_pair(r(0), r(1), a1);
        let w = w.build();
        let states = apply_all(&model, &w);
        assert_eq!(states[1].log.len(), 1);
        assert!(states[1].log.verify());
    }

    #[test]
    fn stale_access_cache_rejects_granted_writer() {
        // OrbitDB-3 distilled: grant happens, but the replica cached the
        // old controller.
        let model = OrbitModel::with_config(
            2,
            OrbitConfig {
                identities: vec!["w".into(), "w".into()],
                ..OrbitConfig::default()
            },
        );
        let mut states = model.init_all();
        // Replica 0 revokes itself, caches, then re-grants — the cache is
        // stale and still denies.
        let mut w = Workload::builder();
        let revoke = w.update(r(0), "revoke", [Value::from("w")]);
        let cache = w.update(r(0), "cache_access", [Value::Null; 0]);
        let grant = w.update(r(0), "grant", [Value::from("w")]);
        let append = w.update(r(0), "append", [Value::from("data")]);
        let w = w.build();
        for ev in [revoke, cache, grant, append] {
            model.apply(&mut states, w.event(ev));
        }
        assert_eq!(states[0].rejected_appends, 1, "write denied despite grant");
    }

    #[test]
    fn poisoned_clock_halts_peer_progress() {
        let model = OrbitModel::with_config(
            2,
            OrbitConfig {
                max_clock_skew: Some(1_000),
                ..OrbitConfig::default()
            },
        );
        let mut w = Workload::builder();
        let poison = w.update(r(0), "poison_clock", [Value::from(9_999_999)]);
        let append = w.update(r(0), "append", [Value::from("future")]);
        let sync = w.sync_pair(r(0), r(1), append);
        let w = w.build();
        let mut states = model.init_all();
        for ev in [poison, append, sync] {
            model.apply(&mut states, w.event(ev));
        }
        assert_eq!(states[1].log.len(), 0, "entry rejected for skew");
        assert_eq!(states[1].log.rejected_count(), 1);
    }

    #[test]
    fn close_with_inflight_sync_leaves_lock_stuck() {
        let model = OrbitModel::new(2);
        let mut w = Workload::builder();
        let open = w.update(r(1), "open_repo", [Value::Null; 0]);
        let a = w.update(r(0), "append", [Value::from("x")]);
        let send = w.sync_send(r(0), r(1), Some(a));
        let close = w.update(r(1), "close_repo", [Value::Null; 0]);
        let reopen = w.update(r(1), "open_repo", [Value::Null; 0]);
        let w = w.build();
        let mut states = model.init_all();
        for ev in [open, a, send, close] {
            let out = model.apply(&mut states, w.event(ev));
            assert!(!out.is_failed(), "{out:?}");
        }
        assert!(states[1].lock_stuck);
        let out = model.apply(&mut states, w.event(reopen));
        assert!(out.is_failed(), "repo remains locked");
    }

    #[test]
    fn identity_tie_with_clock_only_sort_diverges() {
        let model = OrbitModel::with_config(
            2,
            OrbitConfig {
                sort: LogSortOrder::ClockOnly,
                identities: vec!["same".into(), "same".into()],
                ..OrbitConfig::default()
            },
        );
        let mut w = Workload::builder();
        let a0 = w.update(r(0), "append", [Value::from("from-0")]);
        let a1 = w.update(r(1), "append", [Value::from("from-1")]);
        w.sync_pair(r(0), r(1), a0);
        w.sync_pair(r(1), r(0), a1);
        let w = w.build();
        let states = apply_all(&model, &w);
        let v0 = model.observe(&states[0]);
        let v1 = model.observe(&states[1]);
        assert_ne!(v0, v1, "tie-broken order differs between replicas");
    }
}
