//! One root test binary: each module is one suite, and `common`, `http` and
//! `steps` are compiled once for all of them. Run one suite with its module
//! path as the filter: `cargo test --test suite -- server_equivalence::`.
//!
//! The catalogue-matrix suites here (`dpor_`, `forensics_`, `incremental_`,
//! `parallel_`, `sanitizer_` and `telemetry_equivalence`) share one scratch
//! reference per (bug, stop policy) (`common::matrix`), so each reference is
//! replayed once. Two root binaries stand apart: `snapshot_allocs`, whose
//! counting allocator would replace every other test's, and `subsume_audit`,
//! which sets an environment variable the engine reads; both include only
//! `common/town.rs`.

mod common;
mod http;
mod steps;

mod dpor_equivalence;
mod end_to_end;
mod evaluation_shape;
mod explorer_distinct;
mod failure_injection;
mod fault_equivalence;
mod fill_equivalence;
mod forensics_equivalence;
mod fuzz_corpus;
mod incremental_equivalence;
mod incremental_props;
mod observability_smoke;
mod parallel_equivalence;
mod parallel_props;
mod parallel_soak;
mod replica_specific_space;
mod report_identity;
mod sanitizer_equivalence;
mod server_equivalence;
mod telemetry_equivalence;
