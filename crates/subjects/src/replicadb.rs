//! Subject 3 — ReplicaDB: bulk data replication between a source and a sink
//! (paper §6, Subject 3).

use std::collections::BTreeMap;

use crate::sender_and_receiver;
use er_pi::{OpOutcome, SystemModel};
use er_pi_model::{CanonicalEncode, Event, EventKind, ReplicaId, Value};
use er_pi_rdl::{clone_map_from, Shared};

/// ReplicaDB's replication modes (the real tool offers `complete`,
/// `complete-atomic`, and `incremental`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// Full copy: the sink is truncated and rebuilt from the staging rows.
    #[default]
    Complete,
    /// Incremental: only rows newer than the snapshot cut are applied;
    /// deletions are *not* propagated — the defect surface of issue #23
    /// ("deleted records aren't getting deleted from the sink tables").
    Incremental,
}

/// Replica 0 is the *source* database, replica 1 the *sink*; the model
/// also uses the state of the acting replica to hold the transfer job's
/// staging buffer.
#[derive(Debug, Default)]
pub struct ReplicaDbReplica {
    /// Table content (key → row payload).
    pub table: BTreeMap<i64, i64>,
    /// Rows read from the source, awaiting commit to the sink.
    pub staging: Vec<(i64, i64)>,
    /// Bytes the staging buffer currently occupies.
    pub staging_bytes: u64,
    /// Peak staging occupancy over the run.
    pub peak_staging_bytes: u64,
    /// Whether the job crashed with an out-of-memory error (issue #79).
    pub oom: bool,
    /// Keys captured by the incremental snapshot cut, if taken.
    pub snapshot: Option<Vec<i64>>,
}

impl Clone for ReplicaDbReplica {
    fn clone(&self) -> Self {
        let ReplicaDbReplica {
            table,
            staging,
            staging_bytes,
            peak_staging_bytes,
            oom,
            snapshot,
        } = self;
        ReplicaDbReplica {
            table: table.clone(),
            staging: staging.clone(),
            staging_bytes: *staging_bytes,
            peak_staging_bytes: *peak_staging_bytes,
            oom: *oom,
            snapshot: snapshot.clone(),
        }
    }

    /// Field by field, each into the one it replaces.
    fn clone_from(&mut self, source: &Self) {
        let ReplicaDbReplica {
            table,
            staging,
            staging_bytes,
            peak_staging_bytes,
            oom,
            snapshot,
        } = source;
        clone_map_from(&mut self.table, table);
        self.staging.clone_from(staging);
        self.staging_bytes = *staging_bytes;
        self.peak_staging_bytes = *peak_staging_bytes;
        self.oom = *oom;
        self.snapshot.clone_from(snapshot);
    }
}

/// [`ReplicaDbModel`]'s per-replica state: a [`ReplicaDbReplica`] behind a
/// copy-on-write cell (a snapshot is a pointer bump).
pub type ReplicaDbState = Shared<ReplicaDbReplica>;

/// The ReplicaDB subject model.
///
/// Operation vocabulary (all executed by the transfer job at the replica
/// named in the event — the source is replica 0, the sink replica 1):
///
/// * `put(key, value)` / `delete(key)` — source-side table mutations,
/// * `read_batch(from_key, to_key)` — stage source rows into the job buffer,
/// * `commit_batch()` — flush the staging buffer into the sink,
/// * `snapshot()` — take the incremental snapshot cut,
/// * `finish()` — complete the job (applies mode-specific semantics).
#[derive(Debug, Clone)]
pub struct ReplicaDbModel {
    mode: ReplicationMode,
    /// Staging memory budget in bytes (issue #79's OOM trigger).
    memory_budget: u64,
    row_bytes: u64,
}

impl ReplicaDbModel {
    /// Creates the model in the given mode with a staging budget.
    pub fn new(mode: ReplicationMode, memory_budget: u64) -> Self {
        ReplicaDbModel {
            mode,
            memory_budget,
            row_bytes: 64,
        }
    }

    /// The configured replication mode.
    pub fn mode(&self) -> ReplicationMode {
        self.mode
    }

    const SOURCE: usize = 0;
    const SINK: usize = 1;
}

impl SystemModel for ReplicaDbModel {
    type State = ReplicaDbState;

    fn replicas(&self) -> usize {
        2
    }

    fn init(&self, _replica: ReplicaId) -> ReplicaDbState {
        ReplicaDbState::default()
    }

    fn apply(&self, states: &mut [ReplicaDbState], event: &Event) -> OpOutcome {
        let EventKind::LocalUpdate { op } = &event.kind else {
            // The transfer job is point-to-point; sync events are modelled
            // as explicit read/commit batches.
            return OpOutcome::failed("replicadb uses explicit batch events");
        };
        match op.function() {
            "put" => {
                let (Some(k), Some(v)) = (
                    op.arg(0).and_then(Value::as_int),
                    op.arg(1).and_then(Value::as_int),
                ) else {
                    return OpOutcome::failed("put needs (key, value)");
                };
                states[Self::SOURCE].table.insert(k, v);
                OpOutcome::Applied
            }
            "delete" => {
                let Some(k) = op.arg(0).and_then(Value::as_int) else {
                    return OpOutcome::failed("delete needs key");
                };
                if states[Self::SOURCE].table.remove(&k).is_none() {
                    return OpOutcome::failed("delete of absent key");
                }
                OpOutcome::Applied
            }
            "read_batch" => {
                let from = op.arg(0).and_then(Value::as_int).unwrap_or(i64::MIN);
                let to = op.arg(1).and_then(Value::as_int).unwrap_or(i64::MAX);
                let (source, job) = sender_and_receiver(states, Self::SOURCE, Self::SINK)
                    .expect("source and sink are distinct replicas");
                // Straight from the source's range into the sink's buffer:
                // the batch is counted by how far the buffer grew.
                let job = &mut **job;
                let staged = job.staging.len();
                let batch = source.table.range(from..=to).map(|(&k, &v)| (k, v));
                job.staging.extend(batch);
                let rows = (job.staging.len() - staged) as u64;
                job.staging_bytes += rows * self.row_bytes;
                job.peak_staging_bytes = job.peak_staging_bytes.max(job.staging_bytes);
                if job.staging_bytes > self.memory_budget {
                    job.oom = true;
                    return OpOutcome::failed(format!(
                        "out of memory: staging {} bytes exceeds budget {}",
                        job.staging_bytes, self.memory_budget
                    ));
                }
                OpOutcome::Applied
            }
            "commit_batch" => {
                let job = &mut *states[Self::SINK];
                if job.staging.is_empty() {
                    return OpOutcome::failed("commit with empty staging");
                }
                job.staging_bytes = 0;
                // Drained, not taken: the buffer stays, for the next batch
                // and for a copy into this replica to reuse.
                for (k, v) in job.staging.drain(..) {
                    job.table.insert(k, v);
                }
                OpOutcome::Applied
            }
            "snapshot" => {
                let keys: Vec<i64> = states[Self::SOURCE].table.keys().copied().collect();
                states[Self::SINK].snapshot = Some(keys);
                OpOutcome::Applied
            }
            "finish" => {
                let (source, sink) = sender_and_receiver(states, Self::SOURCE, Self::SINK)
                    .expect("source and sink are distinct replicas");
                match self.mode {
                    // Complete mode re-reads the final source state: the
                    // sink ends as an exact copy.
                    ReplicationMode::Complete => sink.table.clone_from(&source.table),
                    // Incremental mode only reconciles *upserts* since the
                    // snapshot; deletions are never propagated.
                    ReplicationMode::Incremental => sink.table.extend(&source.table),
                }
                OpOutcome::Applied
            }
            other => OpOutcome::failed(format!("unknown replicadb op {other}")),
        }
    }

    fn observe(&self, state: &ReplicaDbState) -> Value {
        let rows: Value = state
            .table
            .iter()
            .map(|(k, v)| Value::List(vec![Value::from(*k), Value::from(*v)]))
            .collect();
        Value::List(vec![
            rows,
            Value::from(state.oom),
            Value::from(state.peak_staging_bytes as i64),
        ])
    }

    fn state_encode(&self, state: &ReplicaDbState, out: &mut Vec<u8>) -> bool {
        state.table.encode_canonical(out);
        state.staging.encode_canonical(out);
        state.staging_bytes.encode_canonical(out);
        state.peak_staging_bytes.encode_canonical(out);
        state.oom.encode_canonical(out);
        state.snapshot.encode_canonical(out);
        true
    }

    fn replica_digest(&self, state: &ReplicaDbState) -> Option<u128> {
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

    fn run(model: &ReplicaDbModel, w: &Workload) -> Vec<ReplicaDbState> {
        let mut states = model.init_all();
        for ev in w.events() {
            model.apply(&mut states, ev);
        }
        states
    }

    #[test]
    fn complete_transfer_copies_everything() {
        let model = ReplicaDbModel::new(ReplicationMode::Complete, 10_000);
        let mut w = Workload::builder();
        w.update(r(0), "put", [Value::from(1), Value::from(10)]);
        w.update(r(0), "put", [Value::from(2), Value::from(20)]);
        w.update(r(1), "read_batch", [Value::from(0), Value::from(100)]);
        w.update(r(1), "commit_batch", [Value::Null; 0]);
        w.update(r(1), "finish", [Value::Null; 0]);
        let states = run(&model, &w.build());
        assert_eq!(states[1].table, states[0].table);
    }

    #[test]
    fn staging_overflow_is_oom() {
        let model = ReplicaDbModel::new(ReplicationMode::Complete, 2 * 64);
        let mut w = Workload::builder();
        for i in 0..5i64 {
            w.update(r(0), "put", [Value::from(i), Value::from(i)]);
        }
        // Read everything in one batch without committing: 5 rows > budget.
        w.update(r(1), "read_batch", [Value::from(0), Value::from(100)]);
        let states = run(&model, &w.build());
        assert!(states[1].oom, "staging exceeded the memory budget");
    }

    #[test]
    fn interleaved_commits_keep_memory_bounded() {
        let model = ReplicaDbModel::new(ReplicationMode::Complete, 2 * 64);
        let mut w = Workload::builder();
        for i in 0..4i64 {
            w.update(r(0), "put", [Value::from(i), Value::from(i)]);
            w.update(r(1), "read_batch", [Value::from(i), Value::from(i)]);
            w.update(r(1), "commit_batch", [Value::Null; 0]);
        }
        let states = run(&model, &w.build());
        assert!(!states[1].oom);
        assert_eq!(states[1].table.len(), 4);
    }

    #[test]
    fn incremental_mode_misses_deletes() {
        // Issue #23 distilled.
        let model = ReplicaDbModel::new(ReplicationMode::Incremental, 10_000);
        let mut w = Workload::builder();
        w.update(r(0), "put", [Value::from(1), Value::from(10)]);
        w.update(r(0), "put", [Value::from(2), Value::from(20)]);
        w.update(r(1), "read_batch", [Value::from(0), Value::from(100)]);
        w.update(r(1), "commit_batch", [Value::Null; 0]);
        w.update(r(1), "snapshot", [Value::Null; 0]);
        w.update(r(0), "delete", [Value::from(1)]);
        w.update(r(1), "finish", [Value::Null; 0]);
        let states = run(&model, &w.build());
        assert!(!states[0].table.contains_key(&1));
        assert!(
            states[1].table.contains_key(&1),
            "deleted record survives in the sink"
        );
    }

    #[test]
    fn complete_finish_reconciles_deletes() {
        let model = ReplicaDbModel::new(ReplicationMode::Complete, 10_000);
        let mut w = Workload::builder();
        w.update(r(0), "put", [Value::from(1), Value::from(10)]);
        w.update(r(1), "read_batch", [Value::from(0), Value::from(100)]);
        w.update(r(1), "commit_batch", [Value::Null; 0]);
        w.update(r(0), "delete", [Value::from(1)]);
        w.update(r(1), "finish", [Value::Null; 0]);
        let states = run(&model, &w.build());
        assert!(!states[1].table.contains_key(&1));
    }

    #[test]
    fn failed_ops_for_bad_usage() {
        let model = ReplicaDbModel::new(ReplicationMode::Complete, 1_000);
        let mut states = model.init_all();
        let mut w = Workload::builder();
        let commit = w.update(r(1), "commit_batch", [Value::Null; 0]);
        let del = w.update(r(0), "delete", [Value::from(9)]);
        let w = w.build();
        assert!(model.apply(&mut states, w.event(commit)).is_failed());
        assert!(model.apply(&mut states, w.event(del)).is_failed());
    }
}
