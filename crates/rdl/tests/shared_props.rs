//! Property tests for the copy-on-write cell: two handles to one value are
//! observationally independent, whatever is done through either.

use proptest::prelude::*;

use er_pi_model::{CanonicalEncode, ReplicaId};
use er_pi_rdl::{fnv1a128, OrSet, Shared};

#[derive(Debug, Clone)]
enum Action {
    Insert(i64),
    Remove(i64),
    /// `&self` calls through a `&mut` binding: must never copy.
    Read(i64),
}

fn arb_actions() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(
        prop_oneof![
            (0i64..6).prop_map(Action::Insert),
            (0i64..6).prop_map(Action::Remove),
            (0i64..6).prop_map(Action::Read),
        ],
        0..16,
    )
}

type Cell = Shared<OrSet<i64>>;

fn bytes(cell: &Cell) -> Vec<u8> {
    let mut out = Vec::new();
    cell.encode_canonical(&mut out);
    out
}

/// The digest the way a model asks for it: remembered by the cell.
fn digest(cell: &Cell) -> u128 {
    Shared::digest_with(cell, || Some(fnv1a128(&bytes(cell)))).expect("computed")
}

/// Runs `actions` through `cell`; `twin` shares its value on entry.
/// Returns whether a write went through.
fn drive(cell: &mut Cell, twin: &Cell, actions: &[Action]) -> bool {
    let mut wrote = false;
    for action in actions {
        let handle: &mut Cell = cell;
        match action {
            Action::Insert(v) => {
                handle.insert(*v);
                wrote = true;
            }
            Action::Remove(v) => {
                // A failed remove is still a `&mut self` call: it separates
                // the handles without changing the value.
                handle.remove(v);
                wrote = true;
            }
            Action::Read(v) => {
                let _ = (handle.contains(v), handle.len(), handle.elements());
            }
        }
        assert_eq!(
            Shared::ptr_eq(handle, twin),
            !wrote,
            "reads share, the first write separates: {action:?}"
        );
        // The remembered digest is never stale.
        assert_eq!(digest(handle), fnv1a128(&bytes(handle)));
    }
    wrote
}

proptest! {
    #[test]
    fn handles_are_observationally_independent(
        before in arb_actions(),
        through_b in arb_actions(),
        through_a in arb_actions(),
    ) {
        let mut a: Cell = Shared::new(OrSet::new(ReplicaId::new(0)));
        let untouched = a.clone();
        drive(&mut a, &untouched, &before);
        let (a_bytes, a_digest) = (bytes(&a), digest(&a));

        let mut b = a.clone();
        prop_assert!(Shared::ptr_eq(&a, &b));
        prop_assert_eq!(digest(&b), a_digest);

        let b_wrote = drive(&mut b, &a, &through_b);
        prop_assert_eq!(bytes(&a), a_bytes.clone(), "writes through b showed in a");
        prop_assert_eq!(digest(&a), a_digest);
        prop_assert_eq!(Shared::ptr_eq(&a, &b), !b_wrote);

        let (b_bytes, b_digest) = (bytes(&b), digest(&b));
        let frozen = b.clone();
        let twin = a.clone();
        drive(&mut a, &twin, &through_a);
        prop_assert_eq!(bytes(&b), b_bytes, "writes through a showed in b");
        prop_assert_eq!(digest(&b), b_digest);
        prop_assert!(Shared::ptr_eq(&b, &frozen));

        // What each handle holds is what the same actions build on a value
        // that was never shared.
        let mut alone = OrSet::new(ReplicaId::new(0));
        for action in before.iter().chain(&through_a) {
            match action {
                Action::Insert(v) => {
                    alone.insert(*v);
                }
                Action::Remove(v) => {
                    alone.remove(v);
                }
                Action::Read(_) => {}
            }
        }
        prop_assert_eq!(&*a, &alone);
    }
}
