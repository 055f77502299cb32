//! Property-based workload + fault-schedule fuzzing for the ER-π replay
//! engine and its subjects.
//!
//! The catalogue-driven tests replay *known* bugs; this crate goes looking
//! for unknown ones. A campaign:
//!
//! 1. **generates** arbitrary well-formed op sequences over the full `rdl`
//!    vocabulary plus a fault plan ([`case_strategy`], deterministic per
//!    seed via the vendored proptest RNG),
//! 2. **replays** each case exhaustively under both the fault-free
//!    baseline and its schedule, judging the [`Report`] with a per-target
//!    oracle ([`run_case`]): convergence for the CRDT collection,
//!    exactly-once for the ledger,
//! 3. **shrinks** any finding to a minimal (workload, fault schedule)
//!    pair ([`shrink`]) whose violation stays *fault-dependent* — the
//!    failure needs the schedule, not just an adversarial order, and
//! 4. **matches** the shrunk case against the regression corpus
//!    ([`corpus`]); unknown findings fail the campaign and are written out
//!    as replayable artifacts.
//!
//! Everything is deterministic: a `(target, seed, case index)` triple
//! always generates the same case, the oracle's report is byte-identical
//! across worker counts and executor modes, and the shrinker tries
//! candidates in a fixed order — so a corpus file reproduces forever.
//!
//! [`Report`]: er_pi::Report

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
mod gen;
mod oracle;
mod shrink;
mod spec;

pub use gen::{case_strategy, CaseStrategy};
pub use oracle::{explain_for, report_for, report_for_on, run_case, Finding, ORACLE_CAP};
pub use shrink::shrink;
pub use spec::{FuzzCase, SpecEntry, SpecFault, Target, WorkloadSpec};
