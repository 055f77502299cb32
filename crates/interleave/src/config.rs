//! Pruning configuration — including the JSON shape the runtime ingests.
//!
//! The paper's §5.2: "ER-π periodically checks for the presence of JSON
//! files in the constraints directory. If found, ER-π then consults the
//! files for the new constraints to apply." [`PruningConfig`] is exactly
//! that JSON document.

use er_pi_model::{EventId, ReplicaId};
use serde::{Deserialize, Serialize};

/// A failed-ops pruning rule (paper §3.5).
///
/// When every `predecessors` event occurs before every `successors` event in
/// an interleaving, the successors are known to fail (or to be irrelevant to
/// the tested outcome), so their relative order is canonicalized — merging
/// `|successors|!` interleavings into one.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FailedOpsRule {
    /// Events that must all come first for the rule to fire.
    pub predecessors: Vec<EventId>,
    /// Events whose order becomes irrelevant once the rule fires.
    pub successors: Vec<EventId>,
}

/// The complete pruning configuration for one testing session.
///
/// `Default` enables only event grouping (the always-on pruning the paper
/// applies during initial generation, §4.2); the other algorithms are
/// parameterized by the developer, either up front or dynamically via
/// constraint files.
///
/// ```
/// use er_pi_interleave::PruningConfig;
/// use er_pi_model::ReplicaId;
///
/// let json = r#"{ "target_replica": 1, "independent_sets": [[2, 4]] }"#;
/// let config: PruningConfig = serde_json::from_str(json).unwrap();
/// assert_eq!(config.target_replica, Some(ReplicaId::new(1)));
/// assert_eq!(config.independent_sets.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PruningConfig {
    /// Disable the always-on event grouping, so that every event is its own
    /// unit. No explorer or bench sets it; the grouping and pruning-soundness
    /// tests do.
    #[serde(default)]
    pub disable_grouping: bool,
    /// Developer-specified extra groups (each inner list is fused into one
    /// atomic unit), per Algorithm 1's `spec_group` input.
    #[serde(default)]
    pub extra_groups: Vec<Vec<EventId>>,
    /// Replica-specific exploration target (Algorithm 2): passed as a
    /// parameter of the `Start`/`End` higher-order functions in the paper.
    #[serde(default)]
    pub target_replica: Option<ReplicaId>,
    /// Sets of mutually independent events (Algorithm 3).
    #[serde(default)]
    pub independent_sets: Vec<Vec<EventId>>,
    /// Pairs `(x, y)` meaning event `x` *interferes with* independent event
    /// `y` — an interleaved `x` between independent events blocks their
    /// merging (the `R(ev, iev)` relation of Algorithm 3).
    #[serde(default)]
    pub interference: Vec<(EventId, EventId)>,
    /// Failed-ops rules (Algorithm 4).
    #[serde(default)]
    pub failed_ops: Vec<FailedOpsRule>,
    /// Extension (not in the paper's counts): skip causally invalid orders
    /// entirely instead of replaying them as wasted no-op runs.
    #[serde(default)]
    pub require_causal: bool,
    /// Extension: sleep-set (DPOR-style) pruning over unit permutations.
    /// Precomputes which grouped units commute (every cross event pair
    /// co-members of a declared independent set) and rejects permutations
    /// with a descending adjacent commuting pair — before the candidate is
    /// even flattened. Sound (one representative per commutation class
    /// always survives) but off by default: it changes *which*
    /// representative of a merged class is replayed, so reports are
    /// violation-equivalent rather than byte-identical to a sleep-off run.
    #[serde(default)]
    pub sleep_sets: bool,
}

impl PruningConfig {
    /// Builder-style: adds a developer-specified group.
    #[must_use]
    pub fn with_group(mut self, group: Vec<EventId>) -> Self {
        self.extra_groups.push(group);
        self
    }

    /// Builder-style: sets the replica-specific target.
    #[must_use]
    pub fn with_target_replica(mut self, replica: ReplicaId) -> Self {
        self.target_replica = Some(replica);
        self
    }

    /// Builder-style: declares a set of independent events.
    #[must_use]
    pub fn with_independent_set(mut self, set: Vec<EventId>) -> Self {
        self.independent_sets.push(set);
        self
    }

    /// Builder-style: adds a failed-ops rule.
    #[must_use]
    pub fn with_failed_ops(mut self, rule: FailedOpsRule) -> Self {
        self.failed_ops.push(rule);
        self
    }

    /// Builder-style: declares an interference edge.
    #[must_use]
    pub fn with_interference(mut self, interferer: EventId, independent: EventId) -> Self {
        self.interference.push((interferer, independent));
        self
    }

    /// Builder-style: enables sleep-set pruning over unit permutations.
    #[must_use]
    pub fn with_sleep_sets(mut self, enabled: bool) -> Self {
        self.sleep_sets = enabled;
        self
    }

    /// Merges constraints discovered at runtime (State 4 of the paper's
    /// workflow) into this configuration.
    pub fn absorb(&mut self, newer: PruningConfig) {
        self.disable_grouping |= newer.disable_grouping;
        self.extra_groups.extend(newer.extra_groups);
        if newer.target_replica.is_some() {
            self.target_replica = newer.target_replica;
        }
        self.independent_sets.extend(newer.independent_sets);
        self.interference.extend(newer.interference);
        self.failed_ops.extend(newer.failed_ops);
        self.require_causal |= newer.require_causal;
        self.sleep_sets |= newer.sleep_sets;
    }

    /// Returns `true` if any dynamic (developer-parameterized) pruning is
    /// configured beyond the always-on grouping.
    pub fn has_dynamic_rules(&self) -> bool {
        self.target_replica.is_some()
            || !self.independent_sets.is_empty()
            || !self.failed_ops.is_empty()
            || !self.extra_groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EventId {
        EventId::new(i)
    }

    #[test]
    fn default_is_grouping_only() {
        let c = PruningConfig::default();
        assert!(!c.disable_grouping);
        assert!(!c.has_dynamic_rules());
    }

    #[test]
    fn builders_accumulate() {
        let c = PruningConfig::default()
            .with_group(vec![e(0), e(1)])
            .with_target_replica(ReplicaId::new(2))
            .with_independent_set(vec![e(3), e(4)])
            .with_interference(e(5), e(3))
            .with_failed_ops(FailedOpsRule {
                predecessors: vec![e(0)],
                successors: vec![e(3)],
            });
        assert!(c.has_dynamic_rules());
        assert_eq!(c.extra_groups.len(), 1);
        assert_eq!(c.interference, vec![(e(5), e(3))]);
    }

    #[test]
    fn absorb_merges_runtime_constraints() {
        let mut base = PruningConfig::default().with_group(vec![e(0), e(1)]);
        let update = PruningConfig::default()
            .with_target_replica(ReplicaId::new(1))
            .with_independent_set(vec![e(2), e(3)]);
        base.absorb(update);
        assert_eq!(base.extra_groups.len(), 1);
        assert_eq!(base.target_replica, Some(ReplicaId::new(1)));
        assert_eq!(base.independent_sets.len(), 1);
    }

    #[test]
    fn json_roundtrip() {
        let c = PruningConfig::default()
            .with_failed_ops(FailedOpsRule {
                predecessors: vec![e(6)],
                successors: vec![e(0), e(2)],
            })
            .with_target_replica(ReplicaId::new(0));
        let json = serde_json::to_string(&c).unwrap();
        let back: PruningConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn partial_json_uses_defaults() {
        let c: PruningConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(c, PruningConfig::default());
    }
}
