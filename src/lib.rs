//! Umbrella crate for the ER-pi reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. It defines nothing of its own; see the individual
//! crates for the real APIs: [`er_pi`] (middleware), [`er_pi_rdl`] (CRDT
//! library), [`er_pi_interleave`] (interleaving generation and pruning),
//! [`er_pi_subjects`] (evaluation subjects and bug catalogue).
pub use er_pi;
pub use er_pi_interleave;
pub use er_pi_model;
pub use er_pi_rdl;
pub use er_pi_subjects;
