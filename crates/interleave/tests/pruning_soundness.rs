//! Property tests: the pruning algorithms are *sound* — they only merge
//! genuinely equivalent interleavings, never losing an equivalence class.
//!
//! For each pruning algorithm we check, on randomized workloads:
//!
//! 1. **Representative existence** — every rejected interleaving has a
//!    canonical sibling (same positions for unconstrained events,
//!    constrained events reordered canonically) that the filter accepts.
//! 2. **Exact counting** — the number of canonical survivors matches the
//!    closed-form `total / k!` the paper's examples rely on.

use proptest::prelude::*;

use er_pi_interleave::{
    failed_ops_canonical, independence_canonical, DfsExplorer, ErPiExplorer, FailedOpsRule,
    PruningConfig,
};
use er_pi_model::{factorial, EventId, ReplicaId, Value, Workload};

fn e(i: u32) -> EventId {
    EventId::new(i)
}

/// Builds a workload of `n` independent single-replica updates.
fn flat_workload(n: usize) -> Workload {
    let mut w = Workload::builder();
    for i in 0..n {
        w.update(
            ReplicaId::new((i % 3) as u16),
            "op",
            [Value::from(i as i64)],
        );
    }
    w.build()
}

/// Canonicalizes `order` with respect to a constrained subset: the
/// constrained events keep their *positions* but are re-sorted ascending.
fn sort_constrained(order: &[EventId], constrained: &[EventId]) -> Vec<EventId> {
    let mut slots: Vec<usize> = Vec::new();
    let mut members: Vec<EventId> = Vec::new();
    for (i, &id) in order.iter().enumerate() {
        if constrained.contains(&id) {
            slots.push(i);
            members.push(id);
        }
    }
    members.sort();
    let mut out = order.to_vec();
    for (slot, member) in slots.into_iter().zip(members) {
        out[slot] = member;
    }
    out
}

/// Algorithm 3 read straight off its definition, with no index: the
/// positions of the set's members in `order`; an event between the first
/// and the last of them that is not a member and interferes with one
/// blocks the merge; otherwise the members must ascend strictly.
fn naive_independence(
    order: &[EventId],
    independent: &[EventId],
    interference: &[(EventId, EventId)],
) -> bool {
    let positions: Vec<usize> = (0..order.len())
        .filter(|&at| independent.contains(&order[at]))
        .collect();
    let (Some(&first), Some(&last)) = (positions.first(), positions.last()) else {
        return true;
    };
    let interferes = |id: EventId| {
        !independent.contains(&id)
            && interference
                .iter()
                .any(|&(x, y)| x == id && independent.contains(&y))
    };
    if order[first..=last].iter().any(|&id| interferes(id)) {
        return true;
    }
    positions.windows(2).all(|w| order[w[0]] < order[w[1]])
}

/// `(x, y)`: `x` interferes with independent event `y`.
type Interference = (EventId, EventId);

fn ids(raw: Vec<u32>) -> Vec<EventId> {
    raw.into_iter().map(e).collect()
}

/// Algorithm 4 as it was first written: the positions of the rule's
/// events, each at its first place in `order`; the successors' positions
/// collected, sorted and checked for strictly ascending ids once every
/// predecessor stands before every successor.
fn naive_failed_ops(order: &[EventId], rule: &FailedOpsRule) -> bool {
    if rule.predecessors.is_empty() || rule.successors.len() < 2 {
        return true;
    }
    let pos = |id: EventId| order.iter().position(|&e| e == id);
    let mut last_pred = None::<usize>;
    for &p in &rule.predecessors {
        match pos(p) {
            Some(i) => last_pred = Some(last_pred.map_or(i, |m: usize| m.max(i))),
            None => return true,
        }
    }
    let mut succ_positions = Vec::with_capacity(rule.successors.len());
    for &s in &rule.successors {
        match pos(s) {
            Some(i) => succ_positions.push((i, s)),
            None => return true,
        }
    }
    let first_succ = succ_positions.iter().map(|&(i, _)| i).min().unwrap_or(0);
    if last_pred.is_some_and(|lp| lp < first_succ) {
        succ_positions.sort_by_key(|&(i, _)| i);
        succ_positions.windows(2).all(|w| w[0].1 < w[1].1)
    } else {
        true
    }
}

/// The failed-ops corners a random draw may miss, each against the naive
/// rule: a successor listed twice once the rule fires (rejected) and when
/// it does not (kept), absent ids on either side, an empty predecessor
/// list, one successor, a repeated predecessor, and orders that repeat an
/// id.
#[test]
fn the_failed_ops_rule_matches_the_naive_rule_at_the_corners() {
    let rule = |predecessors: &[u32], successors: &[u32]| FailedOpsRule {
        predecessors: ids(predecessors.to_vec()),
        successors: ids(successors.to_vec()),
    };
    let order = [e(0), e(1), e(2), e(3)];
    let cases = [
        (rule(&[0], &[1, 1]), false),
        (rule(&[0], &[2, 1, 2]), false),
        (rule(&[3], &[1, 1]), true),
        (rule(&[0], &[1, 9]), true),
        (rule(&[9], &[1, 2]), true),
        (rule(&[], &[2, 1]), true),
        (rule(&[0], &[2]), true),
        (rule(&[0, 1, 0], &[3, 2]), true),
        (rule(&[1, 1], &[3, 0]), true),
    ];
    for (rule, expected) in cases {
        assert_eq!(failed_ops_canonical(&order, &rule), expected, "{rule:?}");
        assert_eq!(naive_failed_ops(&order, &rule), expected, "{rule:?}");
    }
    for order in [[e(0), e(2), e(1), e(2)], [e(0), e(1), e(0), e(2)]] {
        for rule in [
            rule(&[0], &[1, 2]),
            rule(&[0], &[2, 1]),
            rule(&[1], &[0, 2]),
        ] {
            assert_eq!(
                failed_ops_canonical(&order, &rule),
                naive_failed_ops(&order, &rule),
                "{order:?} under {rule:?}"
            );
        }
    }
}

/// The corners a random draw may miss, each against the naive rule.
#[test]
fn indexed_independence_matches_the_naive_rule_at_the_corners() {
    let order = [e(1), e(3), e(0), e(2)];
    let cases: [(&[EventId], &[Interference]); 7] = [
        // Members absent from the order, and an empty set.
        (&[e(7), e(9)], &[]),
        (&[], &[]),
        (&[], &[(e(3), e(1))]),
        // Duplicate members.
        (&[e(2), e(1), e(2), e(1)], &[]),
        // An interferer that is itself a member does not block.
        (&[e(1), e(3), e(2)], &[(e(3), e(2))]),
        // An interferer of a member absent from the order still blocks.
        (&[e(0), e(1), e(9)], &[(e(3), e(9))]),
        // An interferer of nothing in the set does not.
        (&[e(1), e(2)], &[(e(3), e(7))]),
    ];
    for (set, interference) in cases {
        assert_eq!(
            independence_canonical(&order, set, interference),
            naive_independence(&order, set, interference),
            "{set:?} with {interference:?}"
        );
    }
    // A repeated member in the order is not ascending past itself.
    let repeated = [e(0), e(1), e(1)];
    assert!(!independence_canonical(&repeated, &[e(0), e(1)], &[]));
    assert!(!naive_independence(&repeated, &[e(0), e(1)], &[]));
}

proptest! {
    /// The indexed independence check is the naive rule, over orders that
    /// may repeat or skip ids, sets that may hold ids the order lacks and
    /// repeat their own, and interference lists whose interferers may be
    /// members.
    #[test]
    fn indexed_independence_matches_the_naive_rule(
        order in proptest::collection::vec(0u32..10, 0..12),
        set in proptest::collection::vec(0u32..12, 0..6),
        interference in proptest::collection::vec((0u32..12, 0u32..12), 0..5),
    ) {
        let (order, set) = (ids(order), ids(set));
        let interference: Vec<(EventId, EventId)> =
            interference.into_iter().map(|(x, y)| (e(x), e(y))).collect();
        prop_assert_eq!(
            independence_canonical(&order, &set, &interference),
            naive_independence(&order, &set, &interference)
        );
    }

    /// The ER-π explorer's own index (built once, bounded by the workload)
    /// keeps exactly the orders the naive rule accepts: ungrouped, its
    /// stream is DFS's, filtered.
    #[test]
    fn the_explorers_independence_index_matches_the_naive_rule(
        n in 2usize..6,
        set in proptest::collection::vec(0u32..8, 0..5),
        interference in proptest::collection::vec((0u32..8, 0u32..8), 0..4),
    ) {
        let w = flat_workload(n);
        let set = ids(set);
        let interference: Vec<(EventId, EventId)> =
            interference.into_iter().map(|(x, y)| (e(x), e(y))).collect();
        let config = PruningConfig {
            disable_grouping: true,
            independent_sets: vec![set.clone()],
            interference: interference.clone(),
            ..PruningConfig::default()
        };
        let emitted: Vec<_> = ErPiExplorer::new(&w, &config).collect();
        let expected: Vec<_> = DfsExplorer::new(&w)
            .filter(|il| naive_independence(il.as_slice(), &set, &interference))
            .collect();
        prop_assert_eq!(emitted, expected);
    }


    /// Independence: every rejected order has an accepted representative,
    /// and the survivor count is exactly n!/|S|! (no interference).
    #[test]
    fn independence_partition_is_exact(n in 3usize..6, set_size in 2usize..4) {
        prop_assume!(set_size <= n);
        let w = flat_workload(n);
        let set: Vec<EventId> = (0..set_size as u32).map(e).collect();
        let mut accepted = 0u128;
        for il in DfsExplorer::new(&w) {
            if independence_canonical(il.as_slice(), &set, &[]) {
                accepted += 1;
                // A canonical order must be its own representative.
                prop_assert_eq!(
                    sort_constrained(il.as_slice(), &set),
                    il.as_slice().to_vec()
                );
            } else {
                // The representative of a rejected order must be accepted.
                let rep = sort_constrained(il.as_slice(), &set);
                prop_assert!(independence_canonical(&rep, &set, &[]));
            }
        }
        prop_assert_eq!(accepted, factorial(n) / factorial(set_size));
    }

    /// Failed-ops: representatives always exist, and firing configurations
    /// are counted exactly.
    #[test]
    fn failed_ops_representative_exists(n in 4usize..6, n_pred in 1usize..3) {
        let w = flat_workload(n);
        let predecessors: Vec<EventId> = (0..n_pred as u32).map(e).collect();
        let successors: Vec<EventId> = (n_pred as u32..n as u32).map(e).collect();
        prop_assume!(successors.len() >= 2);
        let rule = FailedOpsRule {
            predecessors: predecessors.clone(),
            successors: successors.clone(),
        };
        for il in DfsExplorer::new(&w) {
            if !failed_ops_canonical(il.as_slice(), &rule) {
                let rep = sort_constrained(il.as_slice(), &successors);
                prop_assert!(
                    failed_ops_canonical(&rep, &rule),
                    "rejected order {:?} has no accepted representative",
                    il.as_slice()
                );
            }
        }
    }

    /// The ER-π explorer emits exactly the canonical survivors: no
    /// duplicates, all permutations, count consistent with its own stats.
    #[test]
    fn erpi_explorer_is_consistent(n in 2usize..6) {
        let w = flat_workload(n);
        let config = PruningConfig::default()
            .with_independent_set(vec![e(0), e(1)]);
        let mut explorer = ErPiExplorer::new(&w, &config);
        let emitted: Vec<_> = explorer.by_ref().collect();
        let stats = explorer.stats();
        prop_assert_eq!(stats.emitted as usize, emitted.len());
        let mut fps: Vec<u64> = emitted.iter().map(|il| il.fingerprint()).collect();
        fps.sort_unstable();
        fps.dedup();
        prop_assert_eq!(fps.len(), emitted.len(), "no duplicates");
        for il in &emitted {
            prop_assert!(w.is_permutation(il));
        }
        prop_assert_eq!(stats.examined() as u128, factorial(n));
    }

    /// Grouping + DFS equivalence: with grouping disabled, the ER-π
    /// explorer (no dynamic rules) enumerates exactly the DFS space.
    #[test]
    fn ungrouped_erpi_equals_dfs(n in 1usize..5) {
        let w = flat_workload(n);
        let config = PruningConfig { disable_grouping: true, ..PruningConfig::default() };
        let erpi: Vec<_> = ErPiExplorer::new(&w, &config).collect();
        let dfs: Vec<_> = DfsExplorer::new(&w).collect();
        prop_assert_eq!(erpi, dfs);
    }
}

/// Workloads with sync pairs: grouped units never get split by any emitted
/// interleaving, and every DFS order maps into some emitted class by
/// collapsing units.
#[test]
fn grouped_units_cover_the_full_space() {
    let a = ReplicaId::new(0);
    let b = ReplicaId::new(1);
    let mut builder = Workload::builder();
    let u1 = builder.update(a, "x", [Value::from(1)]);
    let s1 = builder.sync_pair(a, b, u1);
    let u2 = builder.update(b, "y", [Value::from(2)]);
    let w = builder.build();

    let config = PruningConfig::default();
    let emitted: Vec<_> = ErPiExplorer::new(&w, &config).collect();
    // 2 units → 2 interleavings.
    assert_eq!(emitted.len(), 2);
    for il in &emitted {
        let pu = il.position(u1).unwrap();
        let ps = il.position(s1).unwrap();
        assert_eq!(ps, pu + 1);
    }
    // Every one of the 3! raw orders collapses (by unit adjacency) into one
    // of the two emitted classes: the class is determined by whether u2
    // precedes the (u1, s1) unit.
    let mut classes = std::collections::HashSet::new();
    for il in DfsExplorer::new(&w) {
        let class = il.position(u2).unwrap() < il.position(u1).unwrap();
        classes.insert(class);
    }
    assert_eq!(classes.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The failed-ops check is the naive rule, for rules that may name ids
    /// no order holds, have no predecessor or a single successor, and list
    /// a predecessor or a successor twice: over every order of `n` events,
    /// and over an order that may repeat and skip ids.
    #[test]
    fn the_failed_ops_rule_matches_the_naive_rule(
        n in 3usize..7,
        predecessors in proptest::collection::vec(0u32..6, 0..3),
        successors in proptest::collection::vec(0u32..6, 0..5),
        bent in proptest::collection::vec(0u32..7, 0..9),
    ) {
        let rule = FailedOpsRule {
            predecessors: ids(predecessors),
            successors: ids(successors),
        };
        let bent = ids(bent);
        let orders = DfsExplorer::new(&flat_workload(n)).map(|il| il.as_slice().to_vec());
        for order in orders.chain([bent]) {
            prop_assert_eq!(
                failed_ops_canonical(&order, &rule),
                naive_failed_ops(&order, &rule),
                "{:?} under {:?}",
                order,
                rule
            );
        }
    }
}
