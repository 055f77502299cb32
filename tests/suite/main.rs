//! One root test binary for the suites that share no catalogue sweep: each
//! module is one suite, and `common`, `http` and `steps` are compiled once
//! for all of them. Run one suite with its module path as the filter:
//! `cargo test --test suite -- server_equivalence::`.
//!
//! The differential suites that sweep the catalogue matrix stay binaries of
//! their own at `tests/*.rs`, as do `snapshot_allocs`, whose counting
//! allocator would replace every other test's, and `subsume_audit`, which
//! sets an environment variable the engine reads.

#[path = "../common/mod.rs"]
mod common;
mod http;
mod steps;

mod explorer_distinct;
mod fuzz_corpus;
mod incremental_props;
mod observability_smoke;
mod parallel_props;
mod parallel_soak;
mod report_identity;
mod server_equivalence;
