//! Algorithm 1 — event-group pruning.
//!
//! Fuses causally inseparable events into atomic units so that only unit
//! permutations are enumerated:
//!
//! * a "send sync request" event with the matching "execute sync request"
//!   event of the same `(sender, receiver)` pair — interleaving anything
//!   between them is wasteful because the execute can only follow its send;
//! * an update event with its fused `sync(update)` event (the grouping used
//!   in the paper's §3.1 walk-through of the motivating example);
//! * any developer-specified groups (`spec_group` in the pseudo-code).

use er_pi_model::{EventId, EventKind, Workload};

use crate::PruningConfig;

/// The grouped view of a workload: an ordered list of atomic units, each a
/// list of event ids in their fixed internal execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupedUnits {
    units: Vec<Vec<EventId>>,
    /// Events over all units: the length of every flattened order.
    events: usize,
}

impl GroupedUnits {
    /// The units, each a non-empty event sequence.
    pub fn units(&self) -> &[Vec<EventId>] {
        &self.units
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Returns `true` if there are no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Total number of unit permutations, `len()!`.
    pub fn total_orders(&self) -> u128 {
        er_pi_model::factorial(self.len())
    }

    /// Flattens a permutation of unit indices into an event order.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..len()`.
    pub fn flatten(&self, perm: &[usize]) -> Vec<EventId> {
        // Sized up front: `flat_map` has no useful size hint, so collecting
        // it grows the order by reallocation.
        let mut order = Vec::with_capacity(self.events);
        self.flatten_into(perm, &mut order);
        order
    }

    /// [`flatten`](GroupedUnits::flatten), appending to `order`: the ER-π
    /// explorer flattens into the buffer it dispenses.
    pub(crate) fn flatten_into(&self, perm: &[usize], order: &mut Vec<EventId>) {
        assert_eq!(perm.len(), self.units.len(), "not a unit permutation");
        for &u in perm {
            order.extend_from_slice(&self.units[u]);
        }
    }
}

/// Computes the grouped units of `workload` (Algorithm 1).
///
/// With `config.disable_grouping`, every event is its own unit. Developer
/// groups from `config.extra_groups` are merged after the automatic rules;
/// transitive overlaps fuse into a single unit.
pub fn group_events(workload: &Workload, config: &PruningConfig) -> GroupedUnits {
    let n = workload.len();
    // Union-find over event indices.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let union = |parent: &mut Vec<usize>, a: usize, b: usize| {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb {
            // Attach the larger root under the smaller so the unit's lead
            // event keeps the smallest id.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi] = lo;
        }
    };

    if !config.disable_grouping {
        for ev in workload.events() {
            match &ev.kind {
                // (send sync, execute sync) of the same (from, to) pair.
                EventKind::SyncExec { send, .. } => {
                    union(&mut parent, send.index(), ev.id.index());
                }
                // (update, sync(update)) — the §3.1 grouping.
                EventKind::Sync {
                    of: Some(update), ..
                } => {
                    union(&mut parent, update.index(), ev.id.index());
                }
                _ => {}
            }
        }
    }
    for group in &config.extra_groups {
        for pair in group.windows(2) {
            union(&mut parent, pair[0].index(), pair[1].index());
        }
    }

    // Collect members per root, preserving recording order inside units and
    // ordering units by their lead (smallest) event.
    let mut units: Vec<Vec<EventId>> = Vec::new();
    let mut root_to_unit: Vec<Option<usize>> = vec![None; n];
    for idx in 0..n {
        let root = find(&mut parent, idx);
        match root_to_unit[root] {
            Some(u) => units[u].push(EventId::new(idx as u32)),
            None => {
                root_to_unit[root] = Some(units.len());
                units.push(vec![EventId::new(idx as u32)]);
            }
        }
    }
    GroupedUnits { units, events: n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::{ReplicaId, Value, Workload};

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    /// The §3.2 example: 8 events, two (send, exec) pairs.
    fn figure3_workload() -> Workload {
        let a = r(0);
        let b = r(1);
        let mut w = Workload::builder();
        let u1 = w.update(a, "op1", [Value::from(1)]);
        let _u2 = w.update(a, "op2", [Value::from(2)]);
        let (_s1, _x1) = w.sync_split(a, b, Some(u1));
        let u3 = w.update(b, "op3", [Value::from(3)]);
        let _u4 = w.update(b, "op4", [Value::from(4)]);
        let (_s2, _x2) = w.sync_split(b, a, Some(u3));
        w.build()
    }

    #[test]
    fn figure3_grouping_reduces_8_events_to_6_units() {
        let w = figure3_workload();
        assert_eq!(w.len(), 8);
        assert_eq!(w.total_orders(), 40_320); // 8!
        let grouped = group_events(&w, &PruningConfig::default());
        assert_eq!(grouped.len(), 6);
        assert_eq!(grouped.total_orders(), 720); // 6!
                                                 // The paper's 56x reduction.
        assert_eq!(
            er_pi_model::reduction_factor(w.total_orders(), grouped.total_orders()),
            Some(56)
        );
    }

    #[test]
    fn send_exec_pairs_stay_in_execution_order() {
        let w = figure3_workload();
        let grouped = group_events(&w, &PruningConfig::default());
        for unit in grouped.units() {
            if unit.len() == 2 {
                let first = w.event(unit[0]);
                let second = w.event(unit[1]);
                assert!(first.is_sync_send());
                assert!(second.is_sync_exec());
            }
        }
    }

    #[test]
    fn motivating_example_groups_updates_with_fused_syncs() {
        let a = r(0);
        let b = r(1);
        let mut w = Workload::builder();
        let ev1 = w.update(a, "add", [Value::from("otb")]);
        w.sync_pair(a, b, ev1);
        let ev2 = w.update(b, "add", [Value::from("ph")]);
        w.sync_pair(b, a, ev2);
        let ev3 = w.update(b, "remove", [Value::from("otb")]);
        w.sync_pair(b, a, ev3);
        w.external(a, "transmit");
        let w = w.build();
        let grouped = group_events(&w, &PruningConfig::default());
        assert_eq!(grouped.len(), 4, "three pairs + the external event");
        assert_eq!(grouped.total_orders(), 24);
    }

    #[test]
    fn disable_grouping_yields_singletons() {
        let w = figure3_workload();
        let config = PruningConfig {
            disable_grouping: true,
            ..PruningConfig::default()
        };
        let grouped = group_events(&w, &config);
        assert_eq!(grouped.len(), 8);
    }

    #[test]
    fn developer_groups_fuse_transitively() {
        let mut w = Workload::builder();
        let e0 = w.update(r(0), "a", [1]);
        let e1 = w.update(r(0), "b", [2]);
        let e2 = w.update(r(1), "c", [3]);
        let w = w.build();
        let config = PruningConfig::default()
            .with_group(vec![e0, e1])
            .with_group(vec![e1, e2]);
        let grouped = group_events(&w, &config);
        assert_eq!(grouped.len(), 1, "overlapping groups fuse");
        assert_eq!(grouped.units()[0], vec![e0, e1, e2]);
    }

    #[test]
    fn flatten_expands_units_in_order() {
        let w = figure3_workload();
        let grouped = group_events(&w, &PruningConfig::default());
        let identity: Vec<usize> = (0..grouped.len()).collect();
        let flat = grouped.flatten(&identity);
        assert_eq!(flat.len(), 8);
        // Identity unit order reproduces the recorded event order.
        let recorded: Vec<EventId> = w.event_ids().collect();
        assert_eq!(flat, recorded);
    }

    #[test]
    #[should_panic(expected = "not a unit permutation")]
    fn flatten_rejects_wrong_arity() {
        let w = figure3_workload();
        let grouped = group_events(&w, &PruningConfig::default());
        grouped.flatten(&[0, 1]);
    }
}
