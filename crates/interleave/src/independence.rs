//! Algorithm 3 — event-independence pruning.
//!
//! Once the developer determines (by observing replays) that a set of events
//! is mutually independent — e.g. list updates touching disjoint indices —
//! interleavings that differ only in the order of those events are
//! equivalent, *provided* no interfering event separates them. ER-π keeps
//! the representative where the independent events appear in ascending
//! event-id order.

use er_pi_model::EventId;

/// Returns `true` if `order` is the canonical representative of its
/// independence class for the declared `independent` set.
///
/// `interference` lists pairs `(x, y)`: event `x` interferes with
/// independent event `y` (the `R(ev, iev)` relation of the paper's
/// Algorithm 3). If an interfering event sits between the first and last
/// independent event, the class collapses to singletons (everything is
/// canonical — no merging).
///
/// This indexes the set by event and asks the index; the ER-π explorer
/// builds one index per declared set, once, and asks it per candidate.
///
/// ```
/// use er_pi_interleave::independence_canonical;
/// use er_pi_model::EventId;
///
/// let e = |i| EventId::new(i);
/// let independent = vec![e(0), e(1)];
///
/// // 0 before 1: canonical. 1 before 0: merged away.
/// assert!(independence_canonical(&[e(0), e(1), e(2)], &independent, &[]));
/// assert!(!independence_canonical(&[e(1), e(0), e(2)], &independent, &[]));
///
/// // An interfering event in between blocks the merge.
/// let interference = vec![(e(2), e(0))];
/// assert!(independence_canonical(&[e(1), e(2), e(0)], &independent, &interference));
/// ```
pub fn independence_canonical(
    order: &[EventId],
    independent: &[EventId],
    interference: &[(EventId, EventId)],
) -> bool {
    let bound = order.iter().map(|id| id.index() + 1).max().unwrap_or(0);
    IndependentSet::new(independent, interference, bound).is_canonical(order)
}

/// What an event is to one declared independent set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Role {
    #[default]
    Neither,
    Member,
    /// Interferes with a member and is not one itself.
    Interferer,
}

/// One declared independent set, indexed by event: its members, and the
/// events that interfere with one of them. Built once from the pruning
/// configuration, it answers [`independence_canonical`] in one pass over
/// the order, with no allocation.
#[derive(Debug, Clone)]
pub(crate) struct IndependentSet {
    /// `roles[id.index()]`, for the ids below the bound it was built for.
    roles: Vec<Role>,
}

impl IndependentSet {
    /// Indexes `independent` and its interferers among the events whose
    /// index is below `bound` — every id an order checked against it holds
    /// (a workload's length; ids past it never show in an order).
    pub(crate) fn new(
        independent: &[EventId],
        interference: &[(EventId, EventId)],
        bound: usize,
    ) -> Self {
        let mut roles = vec![Role::Neither; bound];
        for id in independent {
            if let Some(role) = roles.get_mut(id.index()) {
                *role = Role::Member;
            }
        }
        // A member absent from every order still makes its interferers
        // block: membership is the declaration's, not the index's.
        for (x, y) in interference {
            if independent.contains(y) {
                if let Some(role @ Role::Neither) = roles.get_mut(x.index()) {
                    *role = Role::Interferer;
                }
            }
        }
        IndependentSet { roles }
    }

    fn role(&self, id: EventId) -> Role {
        self.roles.get(id.index()).copied().unwrap_or_default()
    }

    /// [`independence_canonical`] for this set: an interferer between two
    /// members blocks the merge (canonical); otherwise the members must
    /// appear in strictly ascending id order.
    pub(crate) fn is_canonical(&self, order: &[EventId]) -> bool {
        let mut last: Option<EventId> = None;
        let mut ascending = true;
        // An interferer seen since the last member: blocking, if another
        // member follows.
        let mut between = false;
        for &id in order {
            match self.role(id) {
                Role::Member if between => return true,
                Role::Member => {
                    ascending &= last.is_none_or(|prev| prev < id);
                    last = Some(id);
                }
                Role::Interferer => between = last.is_some(),
                Role::Neither => {}
            }
        }
        ascending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Permutations;

    fn e(i: u32) -> EventId {
        EventId::new(i)
    }

    /// The Figure 5 scenario: three independent list updates.
    #[test]
    fn three_independent_events_merge_6_to_1() {
        let independent = vec![e(0), e(1), e(2)];
        let mut canonical = 0;
        for perm in Permutations::new(3) {
            let order: Vec<EventId> = perm.iter().map(|&i| e(i as u32)).collect();
            if independence_canonical(&order, &independent, &[]) {
                canonical += 1;
            }
        }
        assert_eq!(canonical, 1, "3! - 1 = 5 interleavings pruned");
    }

    #[test]
    fn non_independent_events_are_unconstrained() {
        let independent = vec![e(0), e(1)];
        // Events 2 and 3 are free to be anywhere in any order.
        assert!(independence_canonical(
            &[e(3), e(0), e(1), e(2)],
            &independent,
            &[]
        ));
        assert!(independence_canonical(
            &[e(2), e(0), e(1), e(3)],
            &independent,
            &[]
        ));
    }

    #[test]
    fn intervening_neutral_event_does_not_block_merge() {
        let independent = vec![e(0), e(1)];
        // e2 sits between the independent events but does not interfere.
        assert!(independence_canonical(
            &[e(0), e(2), e(1)],
            &independent,
            &[]
        ));
        assert!(!independence_canonical(
            &[e(1), e(2), e(0)],
            &independent,
            &[]
        ));
    }

    #[test]
    fn interfering_event_blocks_merge_only_when_in_between() {
        let independent = vec![e(0), e(1)];
        let interference = vec![(e(2), e(1))];
        // Interferer in between: both orders canonical (no merging).
        assert!(independence_canonical(
            &[e(0), e(2), e(1)],
            &independent,
            &interference
        ));
        assert!(independence_canonical(
            &[e(1), e(2), e(0)],
            &independent,
            &interference
        ));
        // Interferer outside the span: merging applies again.
        assert!(independence_canonical(
            &[e(2), e(0), e(1)],
            &independent,
            &interference
        ));
        assert!(!independence_canonical(
            &[e(2), e(1), e(0)],
            &independent,
            &interference
        ));
    }

    #[test]
    fn singleton_and_absent_sets_are_trivially_canonical() {
        assert!(independence_canonical(&[e(0), e(1)], &[e(0)], &[]));
        assert!(independence_canonical(&[e(0), e(1)], &[], &[]));
        assert!(independence_canonical(&[e(0), e(1)], &[e(7), e(9)], &[]));
    }

    #[test]
    fn two_disjoint_sets_can_be_checked_independently() {
        let set_a = vec![e(0), e(1)];
        let set_b = vec![e(2), e(3)];
        let order = [e(1), e(0), e(2), e(3)];
        assert!(!independence_canonical(&order, &set_a, &[]));
        assert!(independence_canonical(&order, &set_b, &[]));
    }
}
