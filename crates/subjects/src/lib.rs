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

pub use bugs::{Bug, BugCtx, BugStatus, CloneProbe, ProgressFn, ReplayOptions, Repro, SubjectKind};
pub use crdts::{CrdtsModel, CrdtsState};
pub use ledger::{LedgerApp, LedgerState};
pub use misconceive::{detect_misconception, misconception_matrix, MatrixCell};
pub use orbitdb::{OrbitConfig, OrbitModel, OrbitState};
pub use replicadb::{ReplicaDbModel, ReplicaDbState, ReplicationMode};
pub use roshi::{RoshiModel, RoshiState};
pub use town::{TownApp, TownState};
pub use yorkie::{YorkieModel, YorkieState};

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
