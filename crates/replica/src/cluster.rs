//! The virtual cluster: replicas + network + simulated time.

use std::sync::Arc;

use er_pi_model::{HostProfile, ReplicaId};
use er_pi_rdl::DeltaSync;

use crate::{DeliveryMode, Replica, SimClock, VirtualNetwork};

/// A virtual cluster of replicas holding op-based CRDT states.
///
/// The cluster wires three concerns together:
///
/// * state — one [`Replica`] per participant,
/// * transport — a [`VirtualNetwork`] of sync messages (operation deltas),
/// * time — a [`SimClock`] charged per the acting replica's
///   [`HostProfile`].
///
/// The two synchronization halves map onto the paper's event taxonomy:
/// [`Cluster::sync_send`] is a "send sync request" event and
/// [`Cluster::sync_exec`] is the matching "execute sync request" event.
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Cluster<T: DeltaSync + Clone> {
    replicas: Vec<Replica<T>>,
    network: VirtualNetwork<Vec<Arc<T::Op>>>,
    sim: SimClock,
}

impl<T: DeltaSync + Clone> Cluster<T> {
    /// Creates a cluster of `n` replicas with default host profiles;
    /// `make` builds each replica's initial state.
    pub fn new(n: usize, make: impl Fn(ReplicaId) -> T) -> Self {
        let replicas = (0..n as u16)
            .map(|i| {
                let id = ReplicaId::new(i);
                Replica::new(id, make(id))
            })
            .collect();
        Cluster {
            replicas,
            network: VirtualNetwork::new(),
            sim: SimClock::new(),
        }
    }

    /// Creates the paper's three-replica setup: i7 laptop, i5 laptop,
    /// Raspberry Pi 3.
    pub fn paper_setup(make: impl Fn(ReplicaId) -> T) -> Self {
        let hosts = HostProfile::paper_trio();
        let replicas = hosts
            .into_iter()
            .enumerate()
            .map(|(i, host)| {
                let id = ReplicaId::new(i as u16);
                Replica::with_host(id, make(id), host)
            })
            .collect();
        Cluster {
            replicas,
            network: VirtualNetwork::new(),
            sim: SimClock::new(),
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Returns `true` if the cluster has no replicas.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// All replica ids.
    pub fn replica_ids(&self) -> Vec<ReplicaId> {
        self.replicas.iter().map(Replica::id).collect()
    }

    /// Immutable access to a replica's state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of the cluster.
    pub fn state(&self, id: ReplicaId) -> &T {
        self.replicas[id.index()].state()
    }

    /// The replica handle itself.
    pub fn replica(&self, id: ReplicaId) -> &Replica<T> {
        &self.replicas[id.index()]
    }

    /// Applies a local update at `id`, charging the host's op cost.
    pub fn update<R>(&mut self, id: ReplicaId, f: impl FnOnce(&mut T) -> R) -> R {
        let cost = self.replicas[id.index()].host().op_cost_us;
        self.sim.charge_us(cost);
        f(self.replicas[id.index()].state_mut())
    }

    /// Reads from a replica without charging time.
    pub fn read<R>(&self, id: ReplicaId, f: impl FnOnce(&T) -> R) -> R {
        f(self.replicas[id.index()].state())
    }

    /// "Send sync request": computes the operations `to` is missing and puts
    /// them on the wire. Returns the number of operations shipped.
    pub fn sync_send(&mut self, from: ReplicaId, to: ReplicaId) -> usize {
        let receiver_version = self.replicas[to.index()].state().version().clone();
        let ops = self.replicas[from.index()]
            .state()
            .missing_since(&receiver_version);
        let n = ops.len();
        let latency = self.replicas[from.index()].host().net_latency_us;
        self.sim.charge_us(latency);
        self.network.send(from, to, ops);
        n
    }

    /// "Execute sync request": delivers one pending sync message addressed
    /// to `at` (from any peer, scanning in replica order) and applies it.
    /// Returns the number of operations applied, or `None` if no message is
    /// deliverable (a failed op in ER-π terms).
    pub fn sync_exec(&mut self, at: ReplicaId) -> Option<usize> {
        let peers = self.replica_ids();
        for from in peers {
            if from == at {
                continue;
            }
            if let Some(ops) = self.network.deliver(from, at) {
                let cost = self.replicas[at.index()].host().sync_cost_us;
                self.sim.charge_us(cost);
                let state = self.replicas[at.index()].state_mut();
                for op in &ops {
                    state.apply_op(op);
                }
                return Some(ops.len());
            }
        }
        None
    }

    /// "Execute sync request" from a specific sender.
    pub fn sync_exec_from(&mut self, at: ReplicaId, from: ReplicaId) -> Option<usize> {
        let ops = self.network.deliver(from, at)?;
        let cost = self.replicas[at.index()].host().sync_cost_us;
        self.sim.charge_us(cost);
        let state = self.replicas[at.index()].state_mut();
        for op in &ops {
            state.apply_op(op);
        }
        Some(ops.len())
    }

    /// Convenience: send + exec in one step (the fused `sync(ev)` of the
    /// paper's Figure 2).
    pub fn sync_pair(&mut self, from: ReplicaId, to: ReplicaId) -> usize {
        self.sync_send(from, to);
        self.sync_exec_from(to, from).unwrap_or(0)
    }

    /// Direct access to the network (partitions, delivery modes).
    pub fn network_mut(&mut self) -> &mut VirtualNetwork<Vec<Arc<T::Op>>> {
        &mut self.network
    }

    /// Crash-restarts replica `id`: the in-memory state is discarded and a
    /// fresh one (built by `make`, as at cluster construction) recovers by
    /// replaying the replica's durable op log — everything the crashed
    /// state had observed, i.e. `missing_since(⊥)`. Because [`DeltaSync`]
    /// ops are idempotent and commutative, recovery lands on a state
    /// observably equal to the pre-crash one; what a crash *does* lose is
    /// anything outside the log (and messages the replica had not yet
    /// executed stay on the wire, unaffected).
    ///
    /// Returns the number of operations replayed, charging the host's sync
    /// cost once for the recovery scan.
    pub fn crash_restart(&mut self, id: ReplicaId, make: impl FnOnce(ReplicaId) -> T) -> usize {
        use er_pi_model::VersionVector;
        let log = self.replicas[id.index()]
            .state()
            .missing_since(&VersionVector::default());
        let cost = self.replicas[id.index()].host().sync_cost_us;
        self.sim.charge_us(cost);
        let mut fresh = make(id);
        fresh.apply_ops(log.iter());
        *self.replicas[id.index()].state_mut() = fresh;
        log.len()
    }

    /// Changes the network delivery mode.
    pub fn set_delivery(&mut self, mode: DeliveryMode) {
        self.network.set_mode(mode);
    }

    /// Checkpoints every replica and clears in-flight messages.
    pub fn checkpoint_all(&mut self) {
        for r in &mut self.replicas {
            r.checkpoint();
        }
    }

    /// Resets every replica to its checkpoint, clears the network, and
    /// zeroes the simulated clock — the per-interleaving reset of §4.3.
    pub fn reset_all(&mut self) {
        for r in &mut self.replicas {
            r.reset();
        }
        self.network.reset();
    }

    /// Total simulated time so far.
    pub fn sim(&self) -> SimClock {
        self.sim
    }

    /// Resets the simulated clock.
    pub fn reset_sim(&mut self) {
        self.sim.reset();
    }

    /// Returns `true` if all replicas hold observably identical state,
    /// judged by a projection of each state.
    pub fn converged_by<P: PartialEq>(&self, project: impl Fn(&T) -> P) -> bool {
        let mut views = self.replicas.iter().map(|r| project(r.state()));
        match views.next() {
            None => true,
            Some(first) => views.all(|v| v == first),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_rdl::OrSet;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn cluster() -> Cluster<OrSet<&'static str>> {
        Cluster::paper_setup(OrSet::new)
    }

    #[test]
    fn paper_setup_has_three_heterogeneous_hosts() {
        let c = cluster();
        assert_eq!(c.len(), 3);
        assert_eq!(c.replica(r(0)).host().name, "ubuntu-laptop-i7");
        assert_eq!(c.replica(r(2)).host().name, "raspbian-rpi3");
    }

    #[test]
    fn update_and_sync_roundtrip() {
        let mut c = cluster();
        c.update(r(0), |s| {
            s.insert("x");
        });
        let shipped = c.sync_send(r(0), r(1));
        assert_eq!(shipped, 1);
        let applied = c.sync_exec(r(1));
        assert_eq!(applied, Some(1));
        assert!(c.state(r(1)).contains(&"x"));
    }

    #[test]
    fn sync_exec_with_empty_queue_is_failed_op() {
        let mut c = cluster();
        assert_eq!(c.sync_exec(r(1)), None);
    }

    #[test]
    fn sim_time_reflects_host_heterogeneity() {
        let mut c = cluster();
        c.update(r(0), |s| {
            s.insert("a");
        });
        let fast = c.sim().elapsed_us();
        c.update(r(2), |s| {
            s.insert("b");
        });
        let slow = c.sim().elapsed_us() - fast;
        assert!(slow > fast, "the Pi replica must charge more time");
    }

    #[test]
    fn checkpoint_reset_isolates_interleavings() {
        let mut c = cluster();
        c.update(r(0), |s| {
            s.insert("base");
        });
        c.checkpoint_all();
        c.update(r(0), |s| {
            s.insert("dirty");
        });
        c.sync_send(r(0), r(1));
        c.reset_all();
        assert!(!c.state(r(0)).contains(&"dirty"));
        assert!(c.state(r(0)).contains(&"base"));
        assert_eq!(c.network_mut().in_flight(), 0);
    }

    #[test]
    fn sync_pair_is_fused_send_exec() {
        let mut c = cluster();
        c.update(r(1), |s| {
            s.insert("p");
        });
        let applied = c.sync_pair(r(1), r(2));
        assert_eq!(applied, 1);
        assert!(c.state(r(2)).contains(&"p"));
    }

    #[test]
    fn converged_by_projection() {
        let mut c = cluster();
        c.update(r(0), |s| {
            s.insert("v");
        });
        assert!(!c.converged_by(|s| s.elements().into_iter().cloned().collect::<Vec<_>>()));
        c.sync_pair(r(0), r(1));
        c.sync_pair(r(0), r(2));
        assert!(c.converged_by(|s| s.elements().into_iter().cloned().collect::<Vec<_>>()));
    }

    #[test]
    fn partitioned_link_blocks_sync() {
        let mut c = cluster();
        c.update(r(0), |s| {
            s.insert("q");
        });
        c.network_mut().partition(r(0), r(1));
        c.sync_send(r(0), r(1));
        assert_eq!(c.sync_exec(r(1)), None, "partition blocks delivery");
        c.network_mut().heal(r(0), r(1));
        assert_eq!(c.sync_exec(r(1)), Some(1));
    }
}
