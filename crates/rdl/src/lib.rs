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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commute;
mod counter;
mod doc;
mod hash;
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
pub use counter::{GCounter, PnCounter};
pub use doc::{DocError, DocOp, JsonDoc, JsonValue, PathSegment};
pub use hash::{fnv1a128, fnv1a128_extend, fnv1a64, fnv1a64_extend};
pub use lwwset::{Bias, LwwElementSet};
pub use map::{LwwMap, OrMap};
pub use oplog::{LogEntry, LogSortOrder, MerkleHash, MerkleLog, MerkleLogOp};
pub use orset::{OrSet, OrSetOp};
pub use register::{LwwRegister, MvRegister};
pub use rga::{ElementId, Rga, RgaOp};
pub use set::{GSet, TwoPhaseSet};
pub use shared::Shared;
pub use timeseries::{LwwTimeSeries, ScoredMember, TieBreak, TsOp};
pub use traits::{DeltaSync, StateCrdt};
