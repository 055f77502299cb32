//! Property-based tests for the shared event model.

use proptest::prelude::*;

use er_pi_model::{
    factorial, CanonicalEncode, Dot, EventId, EventKind, Interleaving, LamportClock,
    LamportTimestamp, ReplicaId, Value, VersionVector, Workload,
};

fn arb_replica() -> impl Strategy<Value = ReplicaId> {
    (0u16..4).prop_map(ReplicaId::new)
}

fn arb_vv() -> impl Strategy<Value = VersionVector> {
    proptest::collection::vec((arb_replica(), 0u64..16), 0..6)
        .prop_map(|pairs| pairs.into_iter().collect())
}

/// Up to seven replicas: past the inline capacity of four.
fn arb_wide_vv() -> impl Strategy<Value = VersionVector> {
    proptest::collection::vec((0u16..7, 0u64..12), 0..8).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(r, c)| (ReplicaId::new(r), c))
            .collect()
    })
}

proptest! {
    /// merge is commutative: a ⊔ b == b ⊔ a.
    #[test]
    fn vv_merge_commutative(a in arb_vv(), b in arb_vv()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// merge is associative: (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c).
    #[test]
    fn vv_merge_associative(a in arb_vv(), b in arb_vv(), c in arb_vv()) {
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// merge is idempotent: a ⊔ a == a.
    #[test]
    fn vv_merge_idempotent(a in arb_vv()) {
        let mut aa = a.clone();
        aa.merge(&a);
        prop_assert_eq!(aa, a);
    }

    /// The merge of two vectors dominates both inputs.
    #[test]
    fn vv_merge_is_upper_bound(a in arb_vv(), b in arb_vv()) {
        let mut m = a.clone();
        m.merge(&b);
        prop_assert!(m.dominates(&a));
        prop_assert!(m.dominates(&b));
    }

    /// Observing a dot makes contains() true, and observation is monotone.
    #[test]
    fn vv_observe_contains(mut v in arb_vv(), r in arb_replica(), c in 1u64..32) {
        let dot = Dot::new(r, c);
        let before = v.get(r);
        v.observe(dot);
        prop_assert!(v.contains(dot));
        prop_assert!(v.get(r) >= before);
    }

    /// The inline-then-spilled storage against the `BTreeMap` it replaced:
    /// over `increment` / `observe` / `merge` on seven replicas (the spill
    /// is at the fifth) every read, the canonical bytes and the serde shape
    /// are the map's, and equality is by content on either side of the spill.
    #[test]
    fn vv_matches_a_btreemap_model(
        ops in proptest::collection::vec((0u8..3, 0u16..7, 0u64..12, arb_wide_vv()), 0..40),
    ) {
        use std::collections::BTreeMap;
        let mut vv = VersionVector::new();
        let mut model: BTreeMap<ReplicaId, u64> = BTreeMap::new();
        for (op, replica, counter, other) in ops {
            let r = ReplicaId::new(replica);
            match op {
                0 => {
                    let c = model.entry(r).or_insert(0);
                    *c += 1;
                    prop_assert_eq!(vv.increment(r), Dot::new(r, *c));
                }
                1 => {
                    let c = model.entry(r).or_insert(0);
                    *c = (*c).max(counter);
                    vv.observe(Dot::new(r, counter));
                }
                _ => {
                    for (r, c) in other.iter() {
                        let mine = model.entry(r).or_insert(0);
                        *mine = (*mine).max(c);
                    }
                    vv.merge(&other);
                }
            }
            let pairs: Vec<(ReplicaId, u64)> = model.iter().map(|(&r, &c)| (r, c)).collect();
            prop_assert_eq!(vv.iter().collect::<Vec<_>>(), pairs.clone());
            prop_assert_eq!(vv.total(), model.values().sum::<u64>());
            for raw in 0..8 {
                let r = ReplicaId::new(raw);
                prop_assert_eq!(vv.get(r), model.get(&r).copied().unwrap_or(0));
            }
            // Rebuilt from scratch the pairs land in the same storage or the
            // other one; equality and the bytes do not care.
            let mut rebuilt = VersionVector::new();
            for &(r, c) in pairs.iter().rev() {
                rebuilt.observe(Dot::new(r, c));
            }
            prop_assert_eq!(&rebuilt, &vv);
            prop_assert_eq!(&vv.clone(), &vv);
            let mut bytes = Vec::new();
            vv.encode_canonical(&mut bytes);
            let mut expected = Vec::new();
            (pairs.len() as u64).encode_canonical(&mut expected);
            for (r, c) in &pairs {
                r.encode_canonical(&mut expected);
                c.encode_canonical(&mut expected);
            }
            prop_assert_eq!(bytes, expected);
            let json = serde_json::to_string(&vv).unwrap();
            let wire = BTreeMap::from([("counts", model.clone())]);
            prop_assert_eq!(&json, &serde_json::to_string(&wire).unwrap());
            prop_assert_eq!(&serde_json::from_str::<VersionVector>(&json).unwrap(), &vv);
        }
    }

    /// Lamport clock: a chain of ticks and observes is strictly increasing.
    #[test]
    fn lamport_clock_monotone(remote_times in proptest::collection::vec(0u64..100, 1..20)) {
        let mut clock = LamportClock::new(ReplicaId::new(0));
        let mut last = clock.now();
        for (i, t) in remote_times.into_iter().enumerate() {
            let next = if i % 2 == 0 {
                clock.tick()
            } else {
                clock.observe(LamportTimestamp::new(t, ReplicaId::new(1)))
            };
            prop_assert!(next > last, "clock must advance: {next} !> {last}");
            last = next;
        }
    }

    /// Fingerprints of distinct permutations of up to 6 events never collide
    /// within a sampled pair (FNV over short sequences is collision-free at
    /// this scale).
    #[test]
    fn fingerprint_injective_on_small_perms(
        a in Just((0u32..6).collect::<Vec<_>>()).prop_shuffle(),
        b in Just((0u32..6).collect::<Vec<_>>()).prop_shuffle(),
    ) {
        let perm_a: Interleaving = a.iter().map(|&x| EventId::new(x)).collect();
        let perm_b: Interleaving = b.iter().map(|&x| EventId::new(x)).collect();
        if perm_a == perm_b {
            prop_assert_eq!(perm_a.fingerprint(), perm_b.fingerprint());
        } else {
            prop_assert_ne!(perm_a.fingerprint(), perm_b.fingerprint());
        }
    }

    /// The recorded order of a randomly built workload is always causally
    /// valid, and reversing it is invalid whenever any dependency exists.
    #[test]
    fn recorded_order_valid(n_updates in 1usize..6, n_syncs in 0usize..4) {
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        let mut builder = Workload::builder();
        let mut updates = Vec::new();
        for i in 0..n_updates {
            updates.push(builder.update(a, "op", [Value::from(i as i64)]));
        }
        for i in 0..n_syncs {
            builder.sync_pair(a, b, updates[i % updates.len()]);
        }
        let w = builder.build();
        prop_assert!(w.is_causally_valid(&w.recorded_order()));
        if n_syncs > 0 {
            let mut rev: Vec<EventId> = w.event_ids().collect();
            rev.reverse();
            prop_assert!(!w.is_causally_valid(&Interleaving::new(rev)));
        }
    }
}

#[test]
fn factorial_is_monotone_until_saturation() {
    let mut prev = factorial(0);
    for n in 1..40 {
        let next = factorial(n);
        assert!(next >= prev, "factorial must not decrease");
        prev = next;
    }
    // 34! still fits in u128; 35! is the first to saturate.
    assert!(factorial(34) < u128::MAX);
    assert_eq!(factorial(35), u128::MAX);
}

/// The causal rule as it read before it ran in one pass: a permutation
/// check, then every event's dependencies — read off its kind here, not
/// through the library — looked up in a position table.
fn naive_causally_valid(w: &Workload, order: &Interleaving) -> bool {
    if !w.is_permutation(order) {
        return false;
    }
    let mut pos = vec![0usize; w.len()];
    for (i, &id) in order.iter().enumerate() {
        pos[id.index()] = i;
    }
    w.events().iter().all(|ev| {
        let implicit = match ev.kind {
            EventKind::SyncExec { send, .. } => Some(send),
            EventKind::SyncSend { of, .. } | EventKind::Sync { of, .. } => of,
            _ => None,
        };
        implicit
            .iter()
            .chain(&ev.deps)
            .all(|dep| pos[dep.index()] < pos[ev.id.index()])
    })
}

/// A workload of one or two events per kind on two replicas — updates,
/// fused and split syncs of an earlier update, untracked sends — with
/// explicit dependencies of later events on earlier ones, some repeating
/// an implicit one.
fn workload_of(kinds: &[u8], deps: &[(usize, usize)]) -> Workload {
    let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
    let mut builder = Workload::builder();
    let mut last_update = None;
    for (i, kind) in kinds.iter().enumerate() {
        match (kind % 4, last_update) {
            (1, Some(of)) => drop(builder.sync_pair(a, b, of)),
            (2, Some(of)) => drop(builder.sync_split(a, b, Some(of))),
            (3, _) => drop(builder.sync_send(b, a, None)),
            _ => last_update = Some(builder.update(a, "op", [Value::from(i as i64)])),
        }
    }
    let n = builder.len();
    for &(x, y) in deps {
        let (dep, event) = ((x % n).min(y % n), (x % n).max(y % n));
        if dep < event {
            builder.depends(EventId::new(event as u32), EventId::new(dep as u32));
        }
    }
    builder.build()
}

/// `order` bent by `how`: kept, cut short, one id repeated in place of
/// another, or one id moved out of range.
fn bent(mut order: Vec<EventId>, how: u8, at: usize) -> Interleaving {
    let n = order.len();
    match how % 6 {
        0 if n > 0 => drop(order.remove(at % n)),
        1 if n > 1 => order[at % n] = order[(at + 1) % n],
        2 if n > 0 => order[at % n] = EventId::new((n + at % 3) as u32),
        _ => {}
    }
    Interleaving::new(order)
}

proptest! {
    /// The one-pass causal check agrees with the naive rule on every order
    /// — causal or not, a permutation or not — and a kept seen-table,
    /// dirty from another workload's order, changes no answer.
    #[test]
    fn the_one_pass_causal_check_is_the_naive_rule(
        kinds in proptest::collection::vec(0u8..4, 1..8),
        deps in proptest::collection::vec((0usize..8, 0usize..8), 0..4),
        order_seed in proptest::collection::vec(0usize..16, 16..17),
        how in 0u8..12,
        at in 0usize..8,
        dirty in proptest::collection::vec(any::<bool>(), 0..12),
    ) {
        let w = workload_of(&kinds, &deps);
        // A shuffle drawn from the seed, so both causal and acausal orders come up.
        let mut ids: Vec<EventId> = w.event_ids().collect();
        let n = ids.len();
        for (i, &j) in order_seed.iter().enumerate().take(n) {
            ids.swap(i, j % n);
        }
        for order in [bent(ids, how, at), w.recorded_order()] {
            let naive = naive_causally_valid(&w, &order);
            prop_assert_eq!(w.is_causally_valid(&order), naive, "{}", order);
            let mut seen = dirty.clone();
            prop_assert_eq!(w.is_causally_valid_in(&order, &mut seen), naive);
            prop_assert_eq!(w.is_causally_valid_in(&order, &mut seen), naive, "kept table");
        }
    }
}
