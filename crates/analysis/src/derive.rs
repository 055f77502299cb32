//! Derivation of the independence sets and the interference relation.
//!
//! The happens-before and commutativity passes classify the events; this
//! module turns that into the two inputs of Algorithm 3, with plain loops
//! over the recorded events, packaged for
//! `er_pi_interleave::independence_canonical`.
//!
//! # Event roles
//!
//! | Role | Meaning |
//! |---|---|
//! | update | local update with a known, non-`Read` profile |
//! | opaque | local update whose vocabulary is unknown |
//! | observer | external event or `Read`-profile update |
//! | sync | synchronization event, touching its two endpoint replicas |
//!
//! # Independence
//!
//! Two updates are *independent* — the pair may be swapped — when the
//! commutativity table approves the swap and they are concurrent or
//! co-located on one replica; they *conflict* when the table rejects it.
//! The sets are a greedy partition of the independent pairs into cliques.
//!
//! # Interference
//!
//! `(x, y)` is the `R(ev, iev)` relation of Algorithm 3: `x` can observe or
//! transport the replica state that set member `y` mutates, so it blocks
//! merging when it sits inside the span. `x` interferes with `y` when it is
//!
//! 1. a sync with an endpoint at `y`'s replica,
//! 2. an observer at `y`'s replica,
//! 3. another update at `y`'s replica,
//! 4. an update that conflicts with `y`, or
//! 5. any opaque update — one outside the vocabulary may observe anything
//!    (ReplicaDB's `read_batch` reads the *source* replica from the sink
//!    side), so it conservatively interferes with every member.

use er_pi_model::{EventId, Workload};
use er_pi_rdl::{OpKind, OpProfile};

use crate::hb::HbGraph;

/// The auto-derived inputs of Algorithm 3: mutually independent event sets
/// plus the interference relation `R(ev, iev)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DerivedIndependence {
    /// Maximal cliques of pairwise-independent update events (ascending by
    /// id, singletons dropped).
    pub sets: Vec<Vec<EventId>>,
    /// Pairs `(x, y)`: event `x` interferes with independent event `y`.
    pub interference: Vec<(EventId, EventId)>,
}

/// How the commutativity table and the happens-before order relate two
/// updates.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pair {
    /// Not both updates, or commuting but ordered across replicas.
    Unrelated,
    /// Commuting, and concurrent or co-located: the pair may be swapped.
    Independent,
    /// The table rejects the swap.
    Conflicting,
}

/// Derives the independence sets and the interference relation of
/// `workload` from its happens-before graph and operation profiles.
pub(crate) fn derive(
    workload: &Workload,
    hb: &HbGraph,
    profiles: &[Option<OpProfile>],
) -> DerivedIndependence {
    let events = workload.events();
    let updates: Vec<EventId> = events
        .iter()
        .filter(|ev| matches!(&profiles[ev.id.index()], Some(p) if p.kind != OpKind::Read))
        .map(|ev| ev.id)
        .collect();
    // Recorded workloads repeat the same few (family, op-kind, args)
    // shapes over and over, so the quadratic loop would re-consult the
    // commutativity table with identical inputs per *event* pair. Dedupe
    // the profiles into equality classes first (OpProfile is `PartialEq`
    // but not `Hash` — `Value` arguments preclude hashing — so class
    // lookup is a linear scan over the handful of distinct shapes) and
    // memoize one table verdict per unordered class pair.
    let mut classes: Vec<&OpProfile> = Vec::new();
    let class_of: Vec<usize> = updates
        .iter()
        .map(|&e| {
            let p = profiles[e.index()].as_ref().expect("profiled");
            classes.iter().position(|c| *c == p).unwrap_or_else(|| {
                classes.push(p);
                classes.len() - 1
            })
        })
        .collect();
    let mut verdicts: Vec<Option<bool>> = vec![None; classes.len() * classes.len()];
    // The symmetric pair relation, indexed by event id.
    let n = events.len();
    let mut pairs = vec![Pair::Unrelated; n * n];
    for (i, &a) in updates.iter().enumerate() {
        for (j, &b) in updates.iter().enumerate().skip(i + 1) {
            let (ca, cb) = (class_of[i], class_of[j]);
            let commutes = *verdicts[ca * classes.len() + cb]
                .get_or_insert_with(|| classes[ca].commutes_with(classes[cb]).is_none());
            let pair = if !commutes {
                Pair::Conflicting
            } else if hb.concurrent(a, b) || events[a.index()].replica == events[b.index()].replica
            {
                Pair::Independent
            } else {
                continue;
            };
            pairs[a.index() * n + b.index()] = pair;
            pairs[b.index() * n + a.index()] = pair;
        }
    }
    let pair = |a: EventId, b: EventId| pairs[a.index() * n + b.index()];

    // Greedy clique partition in ascending id order: deterministic, and the
    // id order is exactly the canonical-representative order Algorithm 3
    // keeps. Singletons merge nothing, so they are dropped.
    let mut set_of: Vec<Option<usize>> = vec![None; n];
    let mut sets: Vec<Vec<EventId>> = Vec::new();
    for (i, &seed) in updates.iter().enumerate() {
        if set_of[seed.index()].is_some() {
            continue;
        }
        let mut clique = vec![seed];
        for &candidate in &updates[i + 1..] {
            if set_of[candidate.index()].is_none()
                && clique
                    .iter()
                    .all(|&m| pair(candidate, m) == Pair::Independent)
            {
                clique.push(candidate);
            }
        }
        if clique.len() >= 2 {
            for m in &clique {
                set_of[m.index()] = Some(sets.len());
            }
            sets.push(clique);
        }
    }

    // Interference pairs, for the members of the kept sets. Pairs within
    // one set are dropped: the canonical check skips co-members, and a
    // set's own updates reorder soundly by construction. A member of a
    // *different* set stays — it is an ordinary interferer for this set.
    let mut interference: Vec<(EventId, EventId)> = Vec::new();
    for &y in sets.iter().flatten() {
        let at = events[y.index()].replica;
        for x in events {
            if set_of[x.id.index()] == set_of[y.index()] {
                continue;
            }
            let interferes = match (&profiles[x.id.index()], x.sync_endpoints()) {
                // (1) a sync touching the member's replica
                (_, Some((from, to))) => from == at || to == at,
                // (3) another update there, or (4) a conflicting one anywhere
                (Some(p), _) if p.kind != OpKind::Read => {
                    x.replica == at || pair(x.id, y) == Pair::Conflicting
                }
                // (5) an opaque update
                (None, _) if x.is_update() => true,
                // (2) an observer — external event or read — there
                _ => x.replica == at,
            };
            if interferes {
                interference.push((x.id, y));
            }
        }
    }
    interference.sort_unstable();

    DerivedIndependence { sets, interference }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use er_pi_model::{ReplicaId, Value, Workload};

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn concurrent_commuting_updates_become_one_set() {
        let mut w = Workload::builder();
        let a = w.update(r(0), "counter_inc", [Value::from(1)]);
        let b = w.update(r(1), "counter_inc", [Value::from(1)]);
        let c = w.update(r(2), "counter_dec", [Value::from(1)]);
        let analysis = analyze(&w.build());
        assert_eq!(analysis.independence.sets, vec![vec![a, b, c]]);
    }

    #[test]
    fn conflicting_pairs_are_kept_apart() {
        // Same-element OR-set add/remove at different replicas: the order
        // decides whether the remove wins, so no merging is allowed.
        let mut w = Workload::builder();
        w.update(r(0), "set_add", [Value::from("x")]);
        w.update(r(1), "set_remove", [Value::from("x")]);
        let analysis = analyze(&w.build());
        assert!(analysis.independence.sets.is_empty());
    }

    #[test]
    fn same_replica_commuting_updates_are_independent() {
        // The ReplicaDB pattern: three puts to disjoint keys at one replica.
        let mut w = Workload::builder();
        let p1 = w.update(r(0), "put", [Value::from(1), Value::from(10)]);
        let p2 = w.update(r(0), "put", [Value::from(2), Value::from(20)]);
        let p3 = w.update(r(0), "put", [Value::from(3), Value::from(30)]);
        let analysis = analyze(&w.build());
        assert_eq!(analysis.independence.sets, vec![vec![p1, p2, p3]]);
    }

    #[test]
    fn syncs_touching_a_member_replica_interfere() {
        let mut w = Workload::builder();
        let a = w.update(r(0), "counter_inc", [Value::from(1)]);
        let b = w.update(r(1), "counter_inc", [Value::from(1)]);
        let s = w.sync_pair(r(0), r(2), a);
        let analysis = analyze(&w.build());
        assert_eq!(analysis.independence.sets, vec![vec![a, b]]);
        assert!(analysis.independence.interference.contains(&(s, a)));
        // The sync endpoints are replicas 0 and 2; it does not touch b's
        // replica 1, whose state it can neither observe nor transport.
        assert!(!analysis.independence.interference.contains(&(s, b)));
    }

    #[test]
    fn opaque_updates_interfere_with_everything() {
        let mut w = Workload::builder();
        let a = w.update(r(0), "counter_inc", [Value::from(1)]);
        let b = w.update(r(1), "counter_inc", [Value::from(1)]);
        let x = w.update(r(2), "mystery_call", [Value::from(1)]);
        let analysis = analyze(&w.build());
        assert_eq!(analysis.independence.sets, vec![vec![a, b]]);
        assert!(analysis.independence.interference.contains(&(x, a)));
        assert!(analysis.independence.interference.contains(&(x, b)));
    }

    #[test]
    fn readers_at_a_member_replica_interfere() {
        let mut w = Workload::builder();
        let a = w.update(
            r(0),
            "insert",
            [Value::from("k"), Value::from("x"), Value::from(1)],
        );
        let b = w.update(
            r(1),
            "insert",
            [Value::from("k"), Value::from("y"), Value::from(2)],
        );
        let sel = w.update(r(0), "select", [Value::from("k")]);
        let ext = w.external(r(1), "report");
        let analysis = analyze(&w.build());
        assert_eq!(analysis.independence.sets, vec![vec![a, b]]);
        assert!(analysis.independence.interference.contains(&(sel, a)));
        assert!(analysis.independence.interference.contains(&(ext, b)));
    }

    #[test]
    fn program_ordered_conflicting_updates_never_pair() {
        // Two same-register writes at one replica conflict (LWW tie-break),
        // so even though they are co-located they must not merge.
        let mut w = Workload::builder();
        w.update(r(0), "reg_set", [Value::from(1)]);
        w.update(r(0), "reg_set", [Value::from(2)]);
        let analysis = analyze(&w.build());
        assert!(analysis.independence.sets.is_empty());
        assert!(analysis.independence.interference.is_empty());
    }

    #[test]
    fn memoized_verdicts_match_the_naive_table_walk() {
        // A workload that repeats a handful of op shapes across replicas —
        // the profile-class memo must derive exactly what a naive
        // per-event-pair table walk would. No syncs and no observers, so
        // every pair is concurrent or co-located: independence is the
        // table's verdict alone, and interference is co-location or conflict.
        let mut w = Workload::builder();
        for rep in 0..3u16 {
            w.update(r(rep), "counter_inc", [Value::from(1)]);
            w.update(r(rep), "set_add", [Value::from("x")]);
            w.update(r(rep), "set_remove", [Value::from("x")]);
            w.update(r(rep), "put", [Value::from(i64::from(rep)), Value::from(1)]);
            w.update(r(rep), "reg_set", [Value::from(7)]);
        }
        let workload = w.build();
        let analysis = analyze(&workload);
        let DerivedIndependence { sets, interference } = &analysis.independence;

        let profiled: Vec<_> = workload
            .events()
            .iter()
            .map(|ev| {
                (
                    ev.id,
                    ev.replica,
                    analysis.profile(ev.id).expect("profiled"),
                )
            })
            .collect();
        assert_eq!(profiled.len(), 15, "workload must exercise repetition");
        let commutes = |a: EventId, b: EventId| {
            let (lo, hi) = (a.min(b).index(), a.max(b).index());
            profiled[lo].2.commutes_with(profiled[hi].2).is_none()
        };
        let set_of = |e: EventId| sets.iter().position(|set| set.contains(&e));

        assert!(!sets.is_empty());
        for set in sets {
            for (i, &a) in set.iter().enumerate() {
                for &b in &set[i + 1..] {
                    assert!(commutes(a, b), "{a:?} and {b:?} share a set but conflict");
                }
            }
        }
        for &(x, rx, _) in &profiled {
            if set_of(x).is_none() {
                // The greedy partition leaves no update a set could absorb.
                for set in sets {
                    assert!(set.iter().any(|&m| !commutes(x, m)), "{x:?} fits {set:?}");
                }
            }
            for &(y, ry, _) in &profiled {
                let expected =
                    set_of(y).is_some() && set_of(x) != set_of(y) && (rx == ry || !commutes(x, y));
                assert_eq!(interference.contains(&(x, y)), expected, "({x:?}, {y:?})");
            }
        }
    }
}
