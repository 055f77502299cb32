//! Static commutativity & conflict analysis over recorded traces.
//!
//! The paper's Algorithm 3 (event-independence pruning) is parameterized by
//! a developer-declared set of mutually independent events plus an
//! interference relation `R(ev, iev)`. Declaring those by hand is both
//! tedious and risky: an over-eager declaration merges interleavings that
//! can differ, silently hiding bugs. This crate derives both relations
//! *statically* from the recorded [`Workload`] — no replay required:
//!
//! 1. **Happens-before** ([`TraceAnalysis::happens_before`]): every event is
//!    assigned a [`VersionVector`] built from program order (same-replica
//!    recording order), the implicit dependencies of sync events, and
//!    explicit `depends` edges. Two events are *concurrent* when neither
//!    clock dominates the other.
//! 2. **Commutativity** ([`er_pi_rdl::OpProfile`]): every local update is
//!    mapped to an abstract operation profile (which RDL type family it
//!    touches and what it does), and pairs are classified against the
//!    per-type commutativity tables in `er-pi-rdl`.
//! 3. **Derivation** ([`analyze`]): plain loops over the results of steps
//!    1–2. Commuting updates that are concurrent or co-located are
//!    partitioned into independent sets, and an event interferes with a
//!    set member when it is a sync touching the member's replica, an
//!    observer at it, another update at it, a conflicting update, or any
//!    update outside the vocabulary — packaged as the exact inputs
//!    `er_pi_interleave::independence_canonical` consumes.
//! 4. **Lints** ([`TraceAnalysis::diagnostics`]): the five misconception
//!    patterns of the paper's Table 2 are flagged on the static trace,
//!    before any replay, with full event provenance.
//!
//! # Soundness
//!
//! The derived relations never merge two interleavings that can differ in
//! final state (or in per-event outcomes). The argument has two layers.
//!
//! **Mechanical layer.** The independence filter merges orders that differ
//! only in the relative placement of the declared events among the
//! positions they jointly occupy; every other event keeps its position, and
//! merging is suppressed whenever an interfering event sits inside the
//! span. The derived set contains only local updates that are pairwise
//! concurrent *or* same-replica commuting; concurrent updates execute at
//! distinct replicas (program order makes same-replica events ordered), so
//! they touch disjoint entries of the replica-state vector. The derived
//! interference relation marks, for each member `y`, every event that can
//! observe or transport `y`'s replica state: synchronizations whose
//! endpoints include `y`'s replica, external/observing events at `y`'s
//! replica, and any other update at `y`'s replica. Consequently, inside a
//! merged span, no event reads or writes a member's replica except the
//! members themselves — every replica's event subsequence is identical
//! across the merged orders, so the per-replica state trajectories, the
//! per-event outcomes, and the final states coincide.
//!
//! **Semantic layer.** On top of the mechanical argument, a pair only
//! enters the independent set when the per-type commutativity table of
//! `er-pi-rdl` approves it (counters commute; same-element OR-set
//! add/remove conflict; concurrent RGA inserts conflict; equal-timestamp
//! LWW writes conflict on tie-break; sequential-ID creation never
//! commutes). That table is itself checked: the bounded certifier
//! ([`certify_table`]) replays every claim in both orders against the real
//! `er-pi-rdl` types and demands convergence for "commutes" entries and a
//! concrete divergence witness for every conflict reason.
//! This second gate is deliberately conservative — it protects
//! workloads whose sync timing is implicit in the model (LWW tie-breaks,
//! log orders) and keeps the derived relation aligned with the paper's
//! semantic notion of independence. Conservatism cannot cause unsoundness:
//! shrinking the independent set and growing the interference relation
//! only *reduces* merging.
//!
//! ```
//! use er_pi_analysis::analyze;
//! use er_pi_model::{ReplicaId, Value, Workload};
//!
//! // Two concurrent counter increments at different replicas, then a sync.
//! let mut w = Workload::builder();
//! let a = w.update(ReplicaId::new(0), "counter_inc", [Value::from(1)]);
//! let b = w.update(ReplicaId::new(1), "counter_inc", [Value::from(2)]);
//! w.sync_pair(ReplicaId::new(0), ReplicaId::new(1), a);
//! let analysis = analyze(&w.build());
//!
//! assert_eq!(analysis.independence.sets, vec![vec![a, b]]);
//! assert!(analysis.concurrent(a, b));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod certify;
mod derive;
mod hb;
mod lint;
mod vocab;

pub use audit::{
    certify_table, certify_table_with, validate_independence, validate_table, CertBounds,
    CertClaim, CertSummary, CertifiedTable, Verdict,
};
pub use certify::{family_name, kind_sig, CertWitness, PairEvidence};
pub use derive::DerivedIndependence;
pub use hb::HbGraph;
pub use lint::{Diagnostic, LintPattern};
pub use vocab::interpret_op;

use er_pi_interleave::PruningConfig;
use er_pi_model::{EventId, VersionVector, Workload};
use er_pi_rdl::OpProfile;

/// The complete result of one static analysis pass over a recorded trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    hb: HbGraph,
    profiles: Vec<Option<OpProfile>>,
    /// The auto-derived independence relation (Algorithm 3 inputs).
    pub independence: DerivedIndependence,
    /// Misconception lints, in event order of their first involved event.
    pub diagnostics: Vec<Diagnostic>,
}

impl TraceAnalysis {
    /// Returns `true` when `a` happened before `b` in the recorded trace.
    pub fn happens_before(&self, a: EventId, b: EventId) -> bool {
        self.hb.happens_before(a, b)
    }

    /// Returns `true` when neither event happened before the other.
    pub fn concurrent(&self, a: EventId, b: EventId) -> bool {
        self.hb.concurrent(a, b)
    }

    /// The per-event vector clock assigned by the happens-before pass.
    pub fn clock(&self, event: EventId) -> &VersionVector {
        self.hb.clock(event)
    }

    /// The operation profile extracted for `event` (`None` for sync and
    /// external events, and for updates whose vocabulary is unknown).
    pub fn profile(&self, event: EventId) -> Option<&OpProfile> {
        self.profiles.get(event.index()).and_then(|p| p.as_ref())
    }

    /// Packages the derived relations as a [`PruningConfig`] fragment —
    /// exactly what a developer would otherwise declare by hand.
    pub fn to_pruning_config(&self) -> PruningConfig {
        let mut config = PruningConfig::default();
        for set in &self.independence.sets {
            config = config.with_independent_set(set.clone());
        }
        for &(x, y) in &self.independence.interference {
            config = config.with_interference(x, y);
        }
        config
    }

    /// Diagnostics matching one Table 2 misconception number (1–5).
    pub fn diagnostics_for(&self, misconception: u8) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.misconception == misconception)
            .collect()
    }
}

/// Runs the full static pass over `workload`: happens-before construction,
/// commutativity classification, derivation of the
/// independence/interference relations, and the misconception lints.
pub fn analyze(workload: &Workload) -> TraceAnalysis {
    let hb = HbGraph::build(workload);
    let profiles: Vec<Option<OpProfile>> = workload
        .events()
        .iter()
        .map(|ev| ev.op().and_then(interpret_op))
        .collect();
    let independence = derive::derive(workload, &hb, &profiles);
    let diagnostics = lint::lint(workload, &hb, &profiles);
    TraceAnalysis {
        hb,
        profiles,
        independence,
        diagnostics,
    }
}
