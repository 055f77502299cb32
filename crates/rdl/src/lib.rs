//! The replicated data library (RDL) substrate of the ER-π reproduction.
//!
//! The paper evaluates ER-π against five third-party RDLs (Roshi, OrbitDB,
//! ReplicaDB, Yorkie, and the `crdts` Java collection). Since those libraries
//! are written in Go, JavaScript, and Java, this crate rebuilds the data
//! models they share — a complete, standalone CRDT library:
//!
//! | Family | Types |
//! |---|---|
//! | counters | [`GCounter`], [`PnCounter`] |
//! | registers | [`LwwRegister`], [`MvRegister`] |
//! | sets | [`GSet`], [`TwoPhaseSet`], [`OrSet`], [`LwwElementSet`] |
//! | sequences | [`Rga`] (replicated growable array with move support) |
//! | maps | [`LwwMap`], [`OrMap`] |
//! | stores | [`LwwTimeSeries`] (Roshi-style), [`MerkleLog`] (OrbitDB-style), [`JsonDoc`] (Yorkie-style) |
//! | sharing | [`Shared`] (copy-on-write cell), [`Log`] (append-only log of shared operations) |
//!
//! All state-based types implement [`StateCrdt`] (join-semilattice `merge`);
//! the op-based types additionally implement [`DeltaSync`], producing the
//! operation deltas that the replica simulator ships as sync messages.
//!
//! # Convergence guarantees
//!
//! Every `merge` in this crate is commutative, associative, and idempotent,
//! and every op-based `effect` is commutative for concurrent operations and
//! idempotent under redelivery. These are the *library-level* guarantees the
//! paper's motivating example leans on — and, crucially, they do **not**
//! imply application-level correctness, which is exactly the gap ER-π's
//! integration testing targets.
//!
//! ```
//! use er_pi_model::ReplicaId;
//! use er_pi_rdl::{OrSet, StateCrdt};
//!
//! let mut a = OrSet::new(ReplicaId::new(0));
//! let mut b = OrSet::new(ReplicaId::new(1));
//! a.insert("overturned trash bin");
//! b.insert("pothole");
//!
//! // Bidirectional merge converges both replicas.
//! let snapshot = b.clone();
//! b.merge(&a);
//! a.merge(&snapshot);
//! assert_eq!(a.elements(), b.elements());
//! assert_eq!(a.len(), 2);
//! ```
//!
//! # What a copy shares
//!
//! A replay engine snapshots every replica at every step and resumes later
//! runs from those snapshots, so these types are copied far more often than
//! a library's usually are. Two layers keep a copy proportional to what the
//! next write touches, not to what the replica has lived through:
//!
//! * [`Shared`] is the copy-on-write cell a subject model wraps each
//!   replica in: a snapshot is a pointer bump, the first write after it
//!   copies the replica — into the copy a reset to a snapshot displaced,
//!   when the cell kept one.
//! * That clone is shallow where it counts. Every delta type keeps its
//!   operations in a [`Log`] — an array of handles, one allocation per
//!   operation for the operation's whole life, in the issuer's log, in the
//!   deltas [`DeltaSync::missing_since`] ships and in every receiver's log.
//!   An [`OrSet`] reads each element out of the add that introduced it
//!   instead of keeping a second copy, and a [`JsonDoc`] holds every subtree
//!   behind its own reference count, so a write un-shares one root-to-leaf
//!   path and nothing beside it.
//! * A copy into a stale copy touches only what differs. Every structure
//!   here that holds a log, handles or a map has a field-wise `clone_from`:
//!   a log keeps the handles the two share ([`clone_handles_from`]) and a
//!   map the entries ([`clone_map_from`]).
//!
//! None of it shows: two copies are observationally independent, and
//! equality, the canonical encoding and serde are those of the plain
//! structures (`tests/shared_props.rs` checks both against models that share
//! nothing).
//!
//! ```
//! use er_pi_model::ReplicaId;
//! use er_pi_rdl::{DeltaSync, OrSet};
//!
//! let mut live = OrSet::new(ReplicaId::new(0));
//! live.insert("pothole".to_owned());
//! let snapshot = live.clone(); // shares the operation and its string
//! live.insert("overturned trash bin".to_owned());
//! live.remove("pothole");
//! assert_eq!(snapshot.elements(), ["pothole"]);
//! assert_eq!(live.elements(), ["overturned trash bin"]);
//! // The shared history is the same allocation in both.
//! let (kept, grown) = (
//!     snapshot.missing_since(&Default::default()),
//!     live.missing_since(&Default::default()),
//! );
//! assert!(std::sync::Arc::ptr_eq(&kept[0], &grown[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commute;
mod copy;
mod counter;
mod doc;
mod hash;
mod log;
mod lwwset;
mod map;
mod oplog;
mod orset;
mod register;
mod rga;
mod set;
mod shared;
mod timeseries;
mod traits;

pub use commute::{conflict_reasons, ConflictReason, CrdtType, OpKind, OpProfile};
pub use copy::{clone_handles_from, clone_map_from};
pub use counter::{GCounter, PnCounter};
pub use doc::{DocError, DocOp, JsonDoc, JsonValue, JsonView, PathSegment};
pub use hash::{digest128, digest128_fold, fnv1a128, fnv1a64, fnv1a64_extend, DIGEST128_NAME};
pub use log::Log;
pub use lwwset::{Bias, LwwElementSet};
pub use map::{LwwMap, OrMap};
pub use oplog::{LogEntry, LogSortOrder, MerkleHash, MerkleLog, MerkleLogOp};
pub use orset::{AddTags, OrSet, OrSetOp};
pub use register::{LwwRegister, MvRegister};
pub use rga::{ElementId, Rga, RgaOp};
pub use set::{GSet, TwoPhaseSet};
pub use shared::Shared;
pub use timeseries::{LwwTimeSeries, ScoredMember, TieBreak, TsOp};
pub use traits::{DeltaSync, StateCrdt};
