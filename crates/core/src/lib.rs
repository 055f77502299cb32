//! # ER-π — exhaustive interleaving replay for RDL integration testing
//!
//! This crate is the middleware itself: the reproduction of the system
//! described in *"ER-π: Exhaustive Interleaving Replay for Testing
//! Replicated Data Library Integration"* (Middleware 2025).
//!
//! ER-π tests the *integration* between application logic and a replicated
//! data library (RDL). Eventual consistency guarantees that replicas
//! converge — it does **not** guarantee that the application built on top is
//! correct. Bugs hide in specific event interleavings; ER-π finds them by
//! (1) intercepting the RDL calls an application segment makes,
//! (2) generating every interleaving of those events, (3) pruning the
//! factorial space with four domain-specific algorithms, and (4) replaying
//! each surviving interleaving under a distributed lock while checking test
//! assertions.
//!
//! ## Workflow (paper §5.2)
//!
//! ```text
//! ER-π.Start()
//!   State 1: extract events via proxies            → Session::record
//!   State 2: generate + prune                      → Session::replay
//!   State 3: execute each interleaving, run tests  → Session::replay
//!   State 4: ingest new constraints, goto State 2  → constraints directory
//! ER-π.End(assertions)
//! ```
//!
//! The paper's State 2 also persists the generated interleavings in a
//! Souffle Datalog store; here the persisted forms are a report's
//! canonical JSON (`Report::canonical_json`, which holds the replayed
//! interleavings under [`Session::set_keep_runs`]) and forensic bundles.
//!
//! ## Example
//!
//! The paper's motivating town-issues app: an eventually consistent set of
//! reported problems, where transmitting the set *before* the last
//! synchronization sends stale data.
//!
//! ```
//! use er_pi::{OpOutcome, Session, SystemModel, TestSuite};
//! use er_pi_model::{Event, EventKind, ReplicaId, Value};
//! use er_pi_rdl::{DeltaSync, OrSet, Shared};
//!
//! struct TownApp;
//!
//! #[derive(Clone)]
//! struct TownReplica {
//!     issues: OrSet<String>,
//!     transmitted: Option<Vec<String>>,
//! }
//!
//! // Replay snapshots every replica after every step; behind the
//! // copy-on-write cell that is a pointer bump each, and a write copies the
//! // one replica it touches. Field access goes through auto-deref.
//! type TownState = Shared<TownReplica>;
//!
//! impl SystemModel for TownApp {
//!     type State = TownState;
//!
//!     fn replicas(&self) -> usize { 2 }
//!
//!     fn init(&self, replica: ReplicaId) -> TownState {
//!         Shared::new(TownReplica { issues: OrSet::new(replica), transmitted: None })
//!     }
//!
//!     fn apply(&self, states: &mut [TownState], event: &Event) -> OpOutcome {
//!         let at = event.replica.index();
//!         match &event.kind {
//!             EventKind::LocalUpdate { op } => {
//!                 let arg = op.arg(0).and_then(Value::as_str).unwrap_or("").to_owned();
//!                 match op.function() {
//!                     "add" => { states[at].issues.insert(arg); OpOutcome::Applied }
//!                     "remove" => match states[at].issues.remove(&arg) {
//!                         Some(_) => OpOutcome::Applied,
//!                         None => OpOutcome::failed("remove of absent element"),
//!                     },
//!                     other => OpOutcome::failed(format!("unknown op {other}")),
//!                 }
//!             }
//!             EventKind::Sync { to, .. } => {
//!                 let (src, dst) = (at, to.index());
//!                 let snapshot = states[src].issues.clone();
//!                 states[dst].issues.sync_from(&snapshot);
//!                 OpOutcome::Applied
//!             }
//!             EventKind::External { .. } => {
//!                 let snapshot: Vec<String> =
//!                     states[at].issues.elements().into_iter().cloned().collect();
//!                 states[at].transmitted = Some(snapshot);
//!                 OpOutcome::Applied
//!             }
//!             _ => OpOutcome::failed("unused event kind"),
//!         }
//!     }
//!
//!     fn observe(&self, state: &TownState) -> Value {
//!         state
//!             .transmitted
//!             .clone()
//!             .map(|v| v.into_iter().collect())
//!             .unwrap_or(Value::Null)
//!     }
//! }
//!
//! let mut session = Session::new(TownApp);
//! let a = ReplicaId::new(0);
//! let b = ReplicaId::new(1);
//! session.record(|sys| {
//!     let ev1 = sys.invoke(a, "add", [Value::from("otb")]);
//!     sys.sync(a, b, ev1);
//!     let ev2 = sys.invoke(b, "add", [Value::from("ph")]);
//!     sys.sync(b, a, ev2);
//!     let ev3 = sys.invoke(b, "remove", [Value::from("otb")]);
//!     sys.sync(b, a, ev3);
//!     sys.external(a, "transmit");
//! });
//!
//! // Invariant: whatever A transmits must equal the fully synced set.
//! let suite = TestSuite::new().with_assertion(
//!     "transmit-reflects-remove",
//!     |ctx: &er_pi::CheckContext<'_, TownState>| {
//!         match &ctx.states[0].transmitted {
//!             Some(items) if items.contains(&"otb".to_owned()) => {
//!                 Err("stale issue transmitted to the municipality".into())
//!             }
//!             _ => Ok(()),
//!         }
//!     },
//! );
//!
//! let report = session.replay(&suite).unwrap();
//! assert_eq!(report.explored, 24); // event grouping: 4 units
//! assert!(!report.violations.is_empty(), "ER-π exposes the bad interleavings");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod cancel;
mod checks;
mod config;
mod constraints;
mod error;
mod executor;
mod faultexec;
mod forensics;
mod incremental;
mod instrument;
mod metrics;
mod misconceptions;
mod profile;
mod report;
mod sanitizer;
mod service;
mod session;
mod subsume;
mod summary;
mod system;
mod time;

pub use cancel::CancelToken;
pub use checks::{Assertion, CheckContext, CrossCheck, CrossContext, TestSuite};
pub use config::ReplayConfig;
pub use constraints::ConstraintsDir;
pub use error::ErPiError;
pub use executor::{Execution, ExecutionRef, InlineExecutor};
pub use faultexec::FaultInterpreter;
pub use forensics::{
    explain_violation, DigestSource, DivergencePoint, ForensicBundle, ForensicStep, Provenance,
};
pub use incremental::{IncrementalExecutor, DEFAULT_CACHE_BUDGET};
pub use instrument::{Attachments, ProgressHook};
pub use metrics::SessionMetrics;
pub use misconceptions::{misconception, Misconception};
pub use profile::{CacheStats, FailureStats, WorkerLoad};
pub use report::{Report, RunRecord, Violation};
pub use sanitizer::{IndependenceViolation, SanitizerReport};
pub use service::ExecutorService;
pub use session::{LiveSystem, Session};
pub use summary::{PrunerRow, SessionSummary};
pub use system::{encoding_digest, OpOutcome, Reason, SystemModel};
pub use time::TimeModel;

// Re-export the neighbours users need at the API boundary.
pub use er_pi_analysis::{
    analyze, certify_table, certify_table_with, validate_independence, validate_table, CertBounds,
    CertClaim, CertSummary, CertWitness, CertifiedTable, Diagnostic, LintPattern, TraceAnalysis,
    Verdict,
};
pub use er_pi_interleave::{
    enumerate_plans, ExploreMode, FailedOpsRule, FaultProduct, FaultSpace, FilterTimings,
    PruningConfig,
};
pub use er_pi_model::{FaultEvent, FaultKind, FaultPlan};
/// The structured telemetry layer (sinks, progress, trace export) — see
/// [`Session::set_telemetry`].
pub use er_pi_telemetry as telemetry;
