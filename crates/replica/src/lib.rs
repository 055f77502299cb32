//! Virtual replica cluster for the ER-π reproduction.
//!
//! The paper's experimental setup runs three physical replicas (an i7
//! laptop, an i5 laptop, and a Raspberry Pi 3) connected over a real
//! network. This crate substitutes that testbed with a deterministic
//! simulation:
//!
//! * [`Replica`] — one replica holding a CRDT state from `er-pi-rdl`, with
//!   checkpoint/reset support (ER-π snapshots and restores replica state
//!   around every replayed interleaving, paper §4.3),
//! * [`VirtualNetwork`] — per-pair FIFO message queues with configurable
//!   delivery: in-order, seeded reordering, loss, or partitions,
//! * [`SimClock`] — simulated time, charged per
//!   [`HostProfile`](er_pi_model::HostProfile), reproducing the *time*
//!   dimension of Figure 8b without the physical hardware,
//! * [`Cluster`] — the three-replica assembly used throughout the
//!   evaluation.
//!
//! ```
//! use er_pi_model::ReplicaId;
//! use er_pi_rdl::OrSet;
//! use er_pi_replica::Cluster;
//!
//! let mut cluster = Cluster::paper_setup(|id| OrSet::<&str>::new(id));
//! let a = ReplicaId::new(0);
//! let b = ReplicaId::new(1);
//!
//! cluster.update(a, |set| {
//!     set.insert("overturned trash bin");
//! });
//! cluster.sync_send(a, b);
//! cluster.sync_exec(b);
//! assert!(cluster.state(b).contains(&"overturned trash bin"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cluster;
mod network;
mod replica;

pub use clock::SimClock;
pub use cluster::Cluster;
pub use network::{DeliveryMode, LinkFault, VirtualNetwork};
pub use replica::Replica;
