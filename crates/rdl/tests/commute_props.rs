//! Property tests for the commutativity table ([`OpProfile::commutes_with`]).
//!
//! The bounded certifier in `er-pi-analysis` checks the table against the
//! real types; these properties pin the *algebraic* contract of the table
//! itself, over the full generated space of profiles:
//!
//! * **Symmetry** — `a.commutes_with(b)` and `b.commutes_with(a)` agree on
//!   commute-vs-conflict for every pair, including cross-family ones. The
//!   analysis asks each pair once, in recording order, so an asymmetric
//!   table would make the derived relation depend on which event came first.
//! * **Reflexive-disjointness** — operations on *different* families always
//!   commute (they act on disjoint objects), and that verdict is symmetric.
//! * **Erasure conservatism** — replacing a known argument with `None`
//!   (statically unknown) never turns a conflict into a commute. Unknown
//!   arguments may only *lose* pruning opportunities, never merge more.

use proptest::prelude::*;

use er_pi_model::Value;
use er_pi_rdl::{CrdtType, OpKind, OpProfile};

/// Every type family, indexable by a generated integer.
const FAMILIES: [CrdtType; 14] = [
    CrdtType::GCounter,
    CrdtType::PnCounter,
    CrdtType::LwwRegister,
    CrdtType::MvRegister,
    CrdtType::GSet,
    CrdtType::TwoPhaseSet,
    CrdtType::OrSet,
    CrdtType::LwwElementSet,
    CrdtType::Rga,
    CrdtType::LwwMap,
    CrdtType::OrMap,
    CrdtType::LwwTimeSeries,
    CrdtType::MerkleLog,
    CrdtType::JsonDoc,
];

/// Number of [`OpKind`] shapes `kind_at` can produce.
const KIND_SHAPES: usize = 11;

/// Decodes one generated `(shape, argument, argument-known)` triple into an
/// [`OpKind`]. Arguments are drawn from a 3-value domain so equal and
/// distinct argument pairs both occur often.
fn kind_at(shape: usize, arg: i64, known: bool) -> OpKind {
    let value = known.then(|| Value::from(arg));
    let position = known.then_some(arg);
    match shape {
        0 => OpKind::Inc,
        1 => OpKind::Dec,
        2 => OpKind::Write { key: value },
        3 => OpKind::Add { element: value },
        4 => OpKind::Remove { element: value },
        5 => OpKind::Insert { position },
        6 => OpKind::Delete { position },
        7 => OpKind::Move { safe: arg % 2 == 0 },
        8 => OpKind::Append,
        9 => OpKind::MintId,
        _ => OpKind::Read,
    }
}

/// Erases every known argument from `kind` — the profile the analysis
/// would build had the proxy failed to extract the arguments.
fn erased(kind: &OpKind) -> OpKind {
    match kind {
        OpKind::Write { .. } => OpKind::Write { key: None },
        OpKind::Add { .. } => OpKind::Add { element: None },
        OpKind::Remove { .. } => OpKind::Remove { element: None },
        OpKind::Insert { .. } => OpKind::Insert { position: None },
        OpKind::Delete { .. } => OpKind::Delete { position: None },
        other => other.clone(),
    }
}

fn arb_profile() -> impl Strategy<Value = OpProfile> {
    (
        0usize..FAMILIES.len(),
        0usize..KIND_SHAPES,
        0i64..3,
        any::<bool>(),
    )
        .prop_map(|(f, shape, arg, known)| OpProfile::new(FAMILIES[f], kind_at(shape, arg, known)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn commutes_with_is_symmetric(a in arb_profile(), b in arb_profile()) {
        let ab = a.commutes_with(&b);
        let ba = b.commutes_with(&a);
        prop_assert_eq!(
            ab.is_some(),
            ba.is_some(),
            "asymmetric verdict for {:?} vs {:?}: {:?} / {:?}",
            a, b, ab, ba
        );
    }

    #[test]
    fn cross_family_pairs_always_commute(a in arb_profile(), b in arb_profile()) {
        prop_assume!(a.crdt != b.crdt);
        prop_assert_eq!(
            a.commutes_with(&b),
            None,
            "cross-family pair must commute: {:?} vs {:?}",
            a, b
        );
        prop_assert_eq!(b.commutes_with(&a), None);
    }

    #[test]
    fn erasing_arguments_never_unlocks_commuting(a in arb_profile(), b in arb_profile()) {
        prop_assume!(a.commutes_with(&b).is_some());
        let ea = OpProfile::new(a.crdt, erased(&a.kind));
        let eb = OpProfile::new(b.crdt, erased(&b.kind));
        prop_assert!(
            ea.commutes_with(&eb).is_some(),
            "erasure turned a conflict into a commute: {:?} vs {:?} erased to {:?} vs {:?}",
            a, b, ea, eb
        );
    }

    #[test]
    fn verdicts_are_pure(a in arb_profile(), b in arb_profile()) {
        prop_assert_eq!(a.commutes_with(&b), a.commutes_with(&b));
    }
}

/// Same-profile pairs: the table must never claim an operation conflicts
/// with itself asymmetrically, and counter/grow-only self-pairs commute.
#[test]
fn self_pairs_are_symmetric_across_the_whole_vocabulary() {
    for f in FAMILIES {
        for shape in 0..KIND_SHAPES {
            for (arg, known) in [(0, true), (1, true), (0, false)] {
                let p = OpProfile::new(f, kind_at(shape, arg, known));
                let fwd = p.commutes_with(&p.clone());
                let rev = p.clone().commutes_with(&p);
                assert_eq!(fwd, rev, "self-pair asymmetry for {p:?}");
            }
        }
    }
}
