//! Umbrella crate for the ER-pi reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. See the individual crates for the real APIs:
//! [`er_pi`] (middleware), [`er_pi_rdl`] (CRDT library),
//! [`er_pi_interleave`] (interleaving generation and pruning),
//! [`er_pi_subjects`] (evaluation subjects and bug catalogue).
//!
//! It also holds the one replay path the engine does not run on:
//! [`ThreadedExecutor`], the paper's §4.3 Redlock-sequenced replay.
pub use er_pi;
pub use er_pi_dlock;
pub use er_pi_interleave;
pub use er_pi_model;
pub use er_pi_rdl;
pub use er_pi_subjects;

mod threaded;

pub use threaded::ThreadedExecutor;
