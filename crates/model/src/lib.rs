//! Shared event model for the ER-π reproduction.
//!
//! This crate defines the vocabulary every other crate in the workspace
//! speaks:
//!
//! * identifiers for replicas, events, and operations ([`ReplicaId`],
//!   [`EventId`], [`Dot`]),
//! * logical time ([`LamportClock`], [`LamportTimestamp`],
//!   [`VersionVector`]),
//! * the distributed *event* abstraction the middleware intercepts and
//!   replays ([`Event`], [`EventKind`], [`OpDescriptor`]),
//! * complete *workloads* — the set of events raised between the
//!   `ER-π.Start()` and `ER-π.End()` markers ([`Workload`],
//!   [`WorkloadBuilder`]),
//! * *interleavings* — total orders over a workload's events
//!   ([`Interleaving`]),
//! * and the hosts events run on, priced per event ([`HostProfile`]).
//!
//! # Example
//!
//! Build the seven-event workload of the paper's motivating example
//! (Section 2.3): two residents report town issues into a replicated set,
//! one removes a fixed issue, and resident A finally transmits the set.
//!
//! ```
//! use er_pi_model::{ReplicaId, Value, Workload};
//!
//! let a = ReplicaId::new(0); // Resident A
//! let b = ReplicaId::new(1); // Resident B
//!
//! let mut w = Workload::builder();
//! let ev1 = w.update(a, "add", [Value::from("otb")]); // overturned trash bin
//! let _s1 = w.sync_pair(a, b, ev1);
//! let ev2 = w.update(b, "add", [Value::from("ph")]); // pothole
//! let _s2 = w.sync_pair(b, a, ev2);
//! let ev3 = w.update(b, "remove", [Value::from("otb")]);
//! let _s3 = w.sync_pair(b, a, ev3);
//! let _ev4 = w.external(a, "transmit");
//! let workload = w.build();
//!
//! // `sync_pair` emits a single fused synchronization event, matching the
//! // paper's Figure 2, so the workload has seven events in total.
//! assert_eq!(workload.len(), 7);
//! assert_eq!(workload.total_orders(), 5040);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod dotctx;
mod encode;
mod event;
mod fault;
mod host;
mod ids;
mod interleaving;
mod value;
mod version;
mod workload;

pub use clock::{LamportClock, LamportTimestamp};
pub use dotctx::DotContext;
pub use encode::CanonicalEncode;
pub use event::{Event, EventKind, OpDescriptor};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use host::HostProfile;
pub use ids::{Dot, EventId, ReplicaId};
pub use interleaving::{factorial, reduction_factor, Interleaving};
pub use value::Value;
pub use version::VersionVector;
pub use workload::{Workload, WorkloadBuilder, WorkloadError};
