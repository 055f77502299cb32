//! The five evaluation subjects of the paper's §6, re-implemented on the
//! `er-pi-rdl` substrate, plus the twelve-bug catalogue of Table 1 and the
//! misconception seeding of Table 2.
//!
//! | Subject | Original | Our model |
//! |---|---|---|
//! | [`RoshiModel`] | SoundCloud Roshi (Go): LWW-set time-series event DB over Redis | [`er_pi_rdl::LwwTimeSeries`] per replica, state-merge sync |
//! | [`OrbitModel`] | OrbitDB (JavaScript): serverless Merkle-CRDT log DB | [`er_pi_rdl::MerkleLog`] per replica, delta sync, access-controller cache, repo lock lease |
//! | [`ReplicaDbModel`] | ReplicaDB (Java): bulk source→sink replication | source/sink tables with a staging buffer, complete & incremental modes |
//! | [`YorkieModel`] | Yorkie (Go): JSON document store | [`er_pi_rdl::JsonDoc`] per replica, delta sync |
//! | [`CrdtsModel`] | `crdts` (Java): CRDT collection library | OR-set + RGA + PN-counter + LWW register + to-do map |
//! | [`TownApp`] | the paper's §2.3 motivating example | OR-set of reported issues + transmission |
//!
//! The bug catalogue ([`Bug::catalogue`]) encodes every row of Table 1 as a
//! `(workload, pruning config, violation assertion)` triple; the Figure 8
//! benchmarks replay them under the three exploration modes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bugs;
mod crdts;
mod ledger;
mod misconceive;
mod orbitdb;
mod replicadb;
mod roshi;
mod town;
mod yorkie;

pub use bugs::{Bug, BugCtx, BugStatus, CloneProbe, Repro, SubjectKind};
pub use crdts::{CrdtsModel, CrdtsReplica, CrdtsState};
/// The name `benchmark/` imports [`er_pi::ReplayConfig`] by. Nothing else
/// uses it; it goes with the `[benchmark]` change that renames it there.
pub use er_pi::ReplayConfig as ReplayOptions;
pub use ledger::{LedgerApp, LedgerReplica, LedgerState};
pub use misconceive::{detect_misconception, misconception_matrix, MatrixCell};
pub use orbitdb::{OrbitConfig, OrbitModel, OrbitReplica, OrbitState};
pub use replicadb::{ReplicaDbModel, ReplicaDbReplica, ReplicaDbState, ReplicationMode};
pub use roshi::{RoshiModel, RoshiReplica, RoshiState};
pub use town::{TownApp, TownReplica, TownState};
pub use yorkie::{YorkieModel, YorkieReplica, YorkieState};

/// Borrows `states[from]` shared and `states[to]` mutably at the same time,
/// so a sync handler can read the sender while it updates the receiver
/// instead of cloning the sender's whole state first.
///
/// `None` when `from == to`: a replica syncing with itself receives nothing
/// (`missing_since` of its own version is empty, and merging a state into
/// itself changes nothing), so callers skip the transfer.
pub(crate) fn sender_and_receiver<S>(
    states: &mut [S],
    from: usize,
    to: usize,
) -> Option<(&S, &mut S)> {
    use std::cmp::Ordering;
    match from.cmp(&to) {
        Ordering::Less => {
            let (low, high) = states.split_at_mut(to);
            Some((&low[from], &mut high[0]))
        }
        Ordering::Greater => {
            let (low, high) = states.split_at_mut(from);
            Some((&high[0], &mut low[to]))
        }
        Ordering::Equal => None,
    }
}

/// Makes the queue `into` a copy of `from`, copying each payload over the
/// one in its place with `copy` and cloning only those `into` lacks: the
/// inbox half of a replica's field-wise `clone_from`.
pub(crate) fn clone_queue_from<T: Clone>(
    into: &mut std::collections::VecDeque<T>,
    from: &std::collections::VecDeque<T>,
    copy: impl Fn(&mut T, &T),
) {
    into.truncate(from.len());
    let kept = into.len();
    for (mine, theirs) in into.iter_mut().zip(from) {
        copy(mine, theirs);
    }
    into.extend(from.iter().skip(kept).cloned());
}

/// What a model — and the `rdl` types under it — produce along one
/// recording, as digests: for the initial states and after each event of
/// `workload`'s recorded order, the [`fnv1a128`](er_pi_rdl::fnv1a128) of
/// every replica's `state_encode` bytes and of every replica's canonically
/// encoded observation, both in replica order.
///
/// A campaign report cannot show a change to what `rdl` encodes or observes
/// (its reference replay runs the same `rdl`); literals of these can, and
/// `tests/state_bytes.rs` holds every shipped subject to them.
///
/// # Panics
///
/// Panics if `model` declines [`SystemModel::state_encode`](er_pi::SystemModel::state_encode).
pub fn prefix_digests<M: er_pi::SystemModel>(
    model: &M,
    workload: &er_pi_model::Workload,
) -> Vec<(u128, u128)> {
    use er_pi_model::CanonicalEncode;
    walk_recording(model, workload, |states| {
        let (mut bytes, mut seen) = (Vec::new(), Vec::new());
        for state in states {
            assert!(model.state_encode(state, &mut bytes), "model encodes");
            model.observe(state).encode_canonical(&mut seen);
        }
        (er_pi_rdl::fnv1a128(&bytes), er_pi_rdl::fnv1a128(&seen))
    })
}

/// What state-hash subsumption keys on along the recording
/// [`prefix_digests`] walks: for the initial states and after each event,
/// the model's [`state_digest`](er_pi::SystemModel::state_digest) and every
/// replica's `state_encode` bytes, in replica order.
///
/// # Panics
///
/// Panics if `model` declines [`SystemModel::state_encode`](er_pi::SystemModel::state_encode).
pub fn prefix_encodings<M: er_pi::SystemModel>(
    model: &M,
    workload: &er_pi_model::Workload,
) -> Vec<(u128, Vec<Vec<u8>>)> {
    walk_recording(model, workload, |states| {
        let encodings = states.iter().map(|state| {
            let mut bytes = Vec::new();
            assert!(model.state_encode(state, &mut bytes), "model encodes");
            bytes
        });
        let digest = model.state_digest(states).expect("model encodes");
        (digest, encodings.collect())
    })
}

/// `visit` of `model`'s initial states and of its states after each event
/// of `workload`'s recorded order.
fn walk_recording<M: er_pi::SystemModel, T>(
    model: &M,
    workload: &er_pi_model::Workload,
    mut visit: impl FnMut(&[M::State]) -> T,
) -> Vec<T> {
    let mut states = model.init_all();
    let mut out = vec![visit(&states)];
    for &id in workload.recorded_order().iter() {
        model.apply(&mut states, workload.event(id));
        out.push(visit(&states));
    }
    out
}

/// The snapshot contract of [`SystemModel::State`](er_pi::SystemModel),
/// checked on one recording: the models here share replica states between
/// clones, and this is what must not show.
#[cfg(test)]
pub(crate) fn assert_snapshots_stay_independent<M: er_pi::SystemModel>(
    model: &M,
    workload: &er_pi_model::Workload,
    label: &str,
) {
    // Everything the engine can see of a system: per replica, the canonical
    // bytes and the observation.
    let view = |states: &[M::State]| -> Vec<(Vec<u8>, er_pi_model::Value)> {
        let seen = |state| {
            let mut bytes = Vec::new();
            assert!(model.state_encode(state, &mut bytes), "{label}: encodes");
            (bytes, model.observe(state))
        };
        states.iter().map(seen).collect()
    };
    let order = workload.recorded_order();
    let replay = |states: &mut Vec<M::State>, from: usize| {
        for &id in &order.as_slice()[from..] {
            model.apply(states, workload.event(id));
        }
    };

    // Walk the recorded order, cloning the whole system at every prefix,
    // then keep writing to the live handles: crash every replica and run
    // the recording once more on what is left.
    let mut live = model.init_all();
    let mut kept = vec![live.clone()];
    for &id in order.iter() {
        model.apply(&mut live, workload.event(id));
        kept.push(live.clone());
    }
    let finished = view(&live);
    for replica in 0..model.replicas() as u16 {
        model.recover(&mut live, er_pi_model::ReplicaId::new(replica));
    }
    replay(&mut live, 0);

    // The engine resumes the way the refill below does: it copies the
    // snapshot over the states the previous run left, with `clone_from`,
    // and a copy-on-write state keeps what that displaces for its next
    // write. The first run to be refilled is a whole, unshared one.
    let mut refilled = model.init_all();
    replay(&mut refilled, 0);

    for (depth, snapshot) in kept.iter().enumerate() {
        let mut scratch = model.init_all();
        for &id in &order.as_slice()[..depth] {
            model.apply(&mut scratch, workload.event(id));
        }
        let expected = view(&scratch);
        assert_eq!(
            view(snapshot),
            expected,
            "{label}: the snapshot at depth {depth} is not what a scratch replay of its prefix produces"
        );
        // The other direction: a run resumed from a clone of the snapshot
        // ends where the recording did, and leaves the snapshot alone.
        let mut resumed = snapshot.clone();
        replay(&mut resumed, depth);
        assert_eq!(
            view(&resumed),
            finished,
            "{label}: resumed at depth {depth}"
        );
        assert_eq!(
            view(snapshot),
            expected,
            "{label}: resuming from depth {depth} wrote through to the snapshot"
        );
        refilled.clone_from(snapshot);
        assert_eq!(
            view(&refilled),
            expected,
            "{label}: refilled at depth {depth}"
        );
        replay(&mut refilled, depth);
        assert_eq!(
            view(&refilled),
            finished,
            "{label}: refilled and resumed at depth {depth}"
        );
        assert_eq!(
            view(snapshot),
            expected,
            "{label}: a run refilled at depth {depth} wrote through to the snapshot"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::sender_and_receiver;

    #[test]
    fn sender_and_receiver_borrows_either_direction_and_skips_self() {
        let mut states = vec![10, 20, 30];
        let (from, to) = sender_and_receiver(&mut states, 0, 2).unwrap();
        *to += *from;
        let (from, to) = sender_and_receiver(&mut states, 2, 1).unwrap();
        *to += *from;
        assert_eq!(states, vec![10, 60, 40]);
        assert!(sender_and_receiver(&mut states, 1, 1).is_none());
    }
}
