//! Algorithm 4 — failed-ops pruning.
//!
//! Data-structure constraints make some operations fail when preceded by
//! certain others (adding an existing set element, removing an absent one).
//! Once every *predecessor* event has executed, the listed *successor*
//! events all fail — so interleavings differing only in the failed
//! successors' order are equivalent. ER-π keeps the representative with the
//! successors in ascending event-id order.

use er_pi_model::EventId;

use crate::FailedOpsRule;

/// Returns `true` if `order` is the canonical representative of its
/// failed-ops equivalence class under `rule`.
///
/// The rule fires when every predecessor is positioned before every
/// successor (matching the pseudo-code's
/// `∀p ∈ pIdx, ∃s ∈ sIdx : p < s` strengthened to all-before-all, which is
/// the configuration in which *all* successors fail); a fired rule requires
/// the successors to appear in ascending id order.
///
/// ```
/// use er_pi_interleave::{failed_ops_canonical, FailedOpsRule};
/// use er_pi_model::EventId;
///
/// let e = |i| EventId::new(i);
/// let rule = FailedOpsRule { predecessors: vec![e(0)], successors: vec![e(1), e(2)] };
///
/// assert!(failed_ops_canonical(&[e(0), e(1), e(2)], &rule));
/// assert!(!failed_ops_canonical(&[e(0), e(2), e(1)], &rule)); // merged away
/// assert!(failed_ops_canonical(&[e(2), e(0), e(1)], &rule)); // rule not fired
/// ```
pub fn failed_ops_canonical(order: &[EventId], rule: &FailedOpsRule) -> bool {
    if rule.predecessors.is_empty() || rule.successors.len() < 2 {
        return true;
    }
    // Each id stands at its first position in `order`; a rule that names an
    // absent event never fires.
    let pos = |id: EventId| order.iter().position(|&e| e == id);
    let mut last_pred = 0;
    for &p in &rule.predecessors {
        match pos(p) {
            Some(i) => last_pred = last_pred.max(i),
            None => return true,
        }
    }
    let mut first_succ = usize::MAX;
    for &s in &rule.successors {
        match pos(s) {
            Some(i) => first_succ = first_succ.min(i),
            None => return true,
        }
    }
    if last_pred >= first_succ {
        return true;
    }
    // Rule fired: all successors fail; canonical = ascending id order. The
    // successors in the order of their positions, read off `order` from the
    // first of them on, must have strictly ascending ids. A successor stands
    // there once per time the rule lists it, so one listed twice is not
    // strictly ascending past itself.
    let mut previous = None;
    for (at, &e) in order.iter().enumerate().skip(first_succ) {
        if order[first_succ..at].contains(&e) {
            continue; // not the event's first position
        }
        for _ in rule.successors.iter().filter(|&&s| s == e) {
            if previous.is_some_and(|p| p >= e) {
                return false;
            }
            previous = Some(e);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Permutations;

    fn e(i: u32) -> EventId {
        EventId::new(i)
    }

    /// The Figure 6 scenario: set content established, then three failing
    /// ops (`remove(ε)`, `add(α)`, `remove(σ)`).
    #[test]
    fn three_failed_ops_merge_6_to_1() {
        // Events 0..2 establish the set; events 3..5 are the failed ops.
        let rule = FailedOpsRule {
            predecessors: vec![e(0), e(1), e(2)],
            successors: vec![e(3), e(4), e(5)],
        };
        let mut canonical = 0;
        for perm in Permutations::new(3) {
            let mut order = vec![e(0), e(1), e(2)];
            order.extend(perm.iter().map(|&i| e(3 + i as u32)));
            if failed_ops_canonical(&order, &rule) {
                canonical += 1;
            }
        }
        assert_eq!(canonical, 1, "3! - 1 = 5 interleavings pruned");
    }

    #[test]
    fn rule_does_not_fire_when_a_successor_precedes_a_predecessor() {
        let rule = FailedOpsRule {
            predecessors: vec![e(0), e(1)],
            successors: vec![e(2), e(3)],
        };
        // e3 before e1: not all successors follow all predecessors, so the
        // ops do not (all) fail and every order is canonical.
        assert!(failed_ops_canonical(&[e(0), e(3), e(1), e(2)], &rule));
        assert!(failed_ops_canonical(&[e(3), e(2), e(0), e(1)], &rule));
    }

    #[test]
    fn non_rule_events_are_free() {
        let rule = FailedOpsRule {
            predecessors: vec![e(0)],
            successors: vec![e(1), e(2)],
        };
        // e9-like extra events don't exist here, but interleaving the
        // successors with unrelated events keeps ascending order binding.
        assert!(failed_ops_canonical(&[e(0), e(1), e(3), e(2)], &rule));
        assert!(!failed_ops_canonical(&[e(0), e(2), e(3), e(1)], &rule));
    }

    #[test]
    fn degenerate_rules_are_trivially_canonical() {
        let no_pred = FailedOpsRule {
            predecessors: vec![],
            successors: vec![e(0), e(1)],
        };
        assert!(failed_ops_canonical(&[e(1), e(0)], &no_pred));
        let one_succ = FailedOpsRule {
            predecessors: vec![e(0)],
            successors: vec![e(1)],
        };
        assert!(failed_ops_canonical(&[e(0), e(1)], &one_succ));
    }

    #[test]
    fn a_successor_listed_twice_is_not_ascending_once_the_rule_fires() {
        let rule = FailedOpsRule {
            predecessors: vec![e(0)],
            successors: vec![e(1), e(2), e(1)],
        };
        assert!(!failed_ops_canonical(&[e(0), e(1), e(2)], &rule));
        assert!(
            failed_ops_canonical(&[e(1), e(0), e(2)], &rule),
            "not fired"
        );
    }

    #[test]
    fn absent_events_disable_the_rule() {
        let rule = FailedOpsRule {
            predecessors: vec![e(9)],
            successors: vec![e(0), e(1)],
        };
        assert!(failed_ops_canonical(&[e(1), e(0)], &rule));
    }
}
