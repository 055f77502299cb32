//! Property-based convergence tests for the RDL substrate.
//!
//! Every state-based CRDT must satisfy the join-semilattice laws
//! (commutativity, associativity, idempotence), and every op-based CRDT must
//! converge under arbitrary delivery orders with redelivery.

use proptest::prelude::*;

use er_pi_model::{LamportTimestamp, ReplicaId, Value};
use er_pi_rdl::{
    Bias, DeltaSync, GCounter, GSet, LwwElementSet, LwwMap, LwwTimeSeries, MerkleLog, OrSet,
    PnCounter, Rga, StateCrdt, TieBreak, TwoPhaseSet,
};

fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

/// Checks the three semilattice laws on three concrete states.
fn check_lattice_laws<T: StateCrdt + PartialEq + std::fmt::Debug>(a: &T, b: &T, c: &T) {
    let ab_c = a.merged(b).merged(c);
    let a_bc = a.merged(&b.merged(c));
    assert_eq!(ab_c, a_bc, "associativity");
    let aa = a.merged(a);
    assert_eq!(&aa, a, "idempotence");
}

/// Commutativity needs a semantic equality hook because some types carry
/// owner-replica handle metadata; here we compare via a projection.
fn check_commutative<T: StateCrdt, P: PartialEq + std::fmt::Debug>(
    a: &T,
    b: &T,
    project: impl Fn(&T) -> P,
) {
    assert_eq!(
        project(&a.merged(b)),
        project(&b.merged(a)),
        "commutativity"
    );
}

#[derive(Debug, Clone)]
enum SetAction {
    Insert(u8),
    Remove(u8),
}

fn arb_set_actions() -> impl Strategy<Value = Vec<(u16, SetAction)>> {
    proptest::collection::vec(
        (
            0u16..3,
            prop_oneof![
                (0u8..8).prop_map(SetAction::Insert),
                (0u8..8).prop_map(SetAction::Remove),
            ],
        ),
        0..24,
    )
}

proptest! {
    #[test]
    fn gcounter_laws(xs in proptest::collection::vec((0u16..3, 1u64..10), 0..12)) {
        let mut states = [GCounter::new(r(0)), GCounter::new(r(1)), GCounter::new(r(2))];
        for (rep, by) in xs {
            states[(rep % 3) as usize].increment(by);
        }
        let [a, b, c] = states;
        check_lattice_laws(&a, &b, &c);
        check_commutative(&a, &b, GCounter::value);
    }

    #[test]
    fn pncounter_laws(xs in proptest::collection::vec((0u16..3, 1u64..10, any::<bool>()), 0..12)) {
        let mut states = [PnCounter::new(r(0)), PnCounter::new(r(1)), PnCounter::new(r(2))];
        for (rep, by, up) in xs {
            if up {
                states[(rep % 3) as usize].increment(by);
            } else {
                states[(rep % 3) as usize].decrement(by);
            }
        }
        let [a, b, c] = states;
        check_lattice_laws(&a, &b, &c);
        check_commutative(&a, &b, PnCounter::value);
    }

    #[test]
    fn gset_laws(xs in proptest::collection::vec((0usize..3, 0u8..10), 0..20)) {
        let mut states = [GSet::new(), GSet::new(), GSet::new()];
        for (rep, v) in xs {
            states[rep % 3].insert(v);
        }
        let [a, b, c] = states;
        check_lattice_laws(&a, &b, &c);
        check_commutative(&a, &b, |s: &GSet<u8>| s.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn twophase_set_laws(actions in arb_set_actions()) {
        let mut states = [TwoPhaseSet::new(), TwoPhaseSet::new(), TwoPhaseSet::new()];
        for (rep, act) in actions {
            let s = &mut states[(rep % 3) as usize];
            match act {
                SetAction::Insert(v) => { s.insert(v); }
                SetAction::Remove(v) => { s.remove(&v); }
            }
        }
        let [a, b, c] = states;
        check_lattice_laws(&a, &b, &c);
        check_commutative(&a, &b, |s: &TwoPhaseSet<u8>| s.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn lww_element_set_laws(
        ops in proptest::collection::vec((0u8..6, 0u64..20, 0u16..3, any::<bool>()), 0..24)
    ) {
        let mut states = [
            LwwElementSet::new(Bias::Add),
            LwwElementSet::new(Bias::Add),
            LwwElementSet::new(Bias::Add),
        ];
        for (elem, t, rep, add) in ops {
            let ts = LamportTimestamp::new(t, r(rep));
            let s = &mut states[rep as usize];
            if add {
                s.add(elem, ts);
            } else {
                s.remove(elem, ts);
            }
        }
        let [a, b, c] = states;
        check_lattice_laws(&a, &b, &c);
        check_commutative(&a, &b, |s: &LwwElementSet<u8>| {
            s.elements().into_iter().copied().collect::<Vec<_>>()
        });
    }

    #[test]
    fn lww_map_laws(
        ops in proptest::collection::vec((0u8..4, 0i64..50, 0u64..20, 0u16..3, any::<bool>()), 0..24)
    ) {
        let mut states = [LwwMap::new(), LwwMap::new(), LwwMap::new()];
        for (k, v, t, rep, put) in ops {
            let ts = LamportTimestamp::new(t, r(rep));
            let m = &mut states[rep as usize];
            if put {
                m.put(k, v, ts);
            } else {
                m.remove(&k, ts);
            }
        }
        let [a, b, c] = states;
        check_lattice_laws(&a, &b, &c);
        check_commutative(&a, &b, |m: &LwwMap<u8, i64>| {
            m.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
        });
    }

    #[test]
    fn timeseries_insertwins_laws(
        ops in proptest::collection::vec((0u8..3, 0u8..5, 1u64..20, 0usize..3, any::<bool>()), 0..24)
    ) {
        let mut states = [
            LwwTimeSeries::new(TieBreak::InsertWins),
            LwwTimeSeries::new(TieBreak::InsertWins),
            LwwTimeSeries::new(TieBreak::InsertWins),
        ];
        for (key, member, score, rep, ins) in ops {
            let key = format!("k{key}");
            let member = format!("m{member}");
            let s = &mut states[rep % 3];
            if ins {
                s.insert(key, member, score);
            } else {
                s.delete(key, member, score);
            }
        }
        let [a, b, c] = states;
        let view = |s: &LwwTimeSeries| {
            s.keys()
                .map(|k| (k.to_owned(), s.select(k, 0, usize::MAX)))
                .collect::<Vec<_>>()
        };
        check_commutative(&a, &b, view);
        // Associativity/idempotence on the observable view.
        assert_eq!(view(&a.merged(&b).merged(&c)), view(&a.merged(&b.merged(&c))));
        assert_eq!(view(&a.merged(&a)), view(&a));
    }

    /// OrSet: applying the same ops in any order converges, with redelivery.
    #[test]
    fn orset_delivery_order_independent(
        actions in arb_set_actions(),
        order in Just(()).prop_perturb(|(), mut rng| rng.gen::<u64>()),
    ) {
        let mut sources = [OrSet::new(r(0)), OrSet::new(r(1)), OrSet::new(r(2))];
        let mut ops = Vec::new();
        for (rep, act) in actions {
            let s = &mut sources[(rep % 3) as usize];
            match act {
                SetAction::Insert(v) => ops.push(s.insert(v).clone()),
                SetAction::Remove(v) => {
                    // Removes act on observed state: sync first.
                    if let Some(op) = s.remove(&v) {
                        ops.push(op.clone());
                    }
                }
            }
        }
        // Observer 1: in-order, each op twice (redelivery).
        let mut obs1 = OrSet::new(r(9));
        for op in &ops {
            obs1.apply_op(op);
            obs1.apply_op(op);
        }
        // Observer 2: deterministic pseudo-shuffled order.
        let mut shuffled: Vec<_> = ops.clone();
        let mut seed = order;
        for i in (1..shuffled.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (seed >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut obs2 = OrSet::new(r(10));
        for op in &shuffled {
            obs2.apply_op(op);
        }
        prop_assert_eq!(obs1.elements(), obs2.elements());
    }

    /// RGA: delivery order independence (with causal buffering) and
    /// convergence of concurrent edits.
    #[test]
    fn rga_delivery_order_independent(
        values in proptest::collection::vec(0u8..100, 1..10),
        order in Just(()).prop_perturb(|(), mut rng| rng.gen::<u64>()),
    ) {
        let mut src = Rga::new(r(0));
        let mut ops = Vec::new();
        for (i, v) in values.iter().enumerate() {
            if i % 3 == 2 && src.len() > 1 {
                if let Some(op) = src.delete(i % src.len()) {
                    ops.push(op);
                }
            }
            ops.push(src.insert(src.len().min(i % (src.len() + 1)), *v));
        }
        let mut obs1 = Rga::new(r(1));
        for op in &ops {
            obs1.apply_op(op);
        }
        let mut shuffled = ops.clone();
        let mut seed = order;
        for i in (1..shuffled.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (seed >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut obs2 = Rga::new(r(2));
        for op in &shuffled {
            obs2.apply_op(op);
            obs2.apply_op(op); // redelivery
        }
        prop_assert_eq!(obs1.values(), obs2.values());
        prop_assert_eq!(obs1.values(), src.values());
    }

    /// MerkleLog: entry-set union is order independent; deterministic sort
    /// yields identical reads.
    #[test]
    fn merkle_log_union_order_independent(
        payloads in proptest::collection::vec((0u16..3, 0i64..100), 1..12),
        order in Just(()).prop_perturb(|(), mut rng| rng.gen::<u64>()),
    ) {
        let mut writers = [
            MerkleLog::new(r(0), "w0"),
            MerkleLog::new(r(1), "w1"),
            MerkleLog::new(r(2), "w2"),
        ];
        let mut entries = Vec::new();
        for (rep, v) in payloads {
            entries.push(writers[(rep % 3) as usize].append(Value::from(v)));
        }
        let mut obs1 = MerkleLog::new(r(8), "obs1");
        for e in &entries {
            obs1.apply_op(e);
        }
        let mut shuffled = entries.clone();
        let mut seed = order;
        for i in (1..shuffled.len()).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (seed >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let mut obs2 = MerkleLog::new(r(9), "obs2");
        for e in &shuffled {
            obs2.apply_op(e);
        }
        prop_assert_eq!(obs1.values(), obs2.values());
        prop_assert_eq!(obs1.heads().len(), obs2.heads().len());
    }
}
