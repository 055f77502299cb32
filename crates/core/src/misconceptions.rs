//! The built-in test library for the five common RDL misconceptions
//! (paper §6.2).
//!
//! "ER-π provides a test library of commonly held wrong assumptions and
//! misconceptions of RDL usage. Provided as functions, the tests can be
//! invoked after each interleaving."

use er_pi_model::Value;

use crate::{Assertion, CrossCheck, TestSuite};

/// The five misconceptions of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Misconception {
    /// #1 — "The underlying network ensures causal delivery."
    CausalDelivery,
    /// #2 — "The order of List elements is always consistent."
    ListOrderConsistency,
    /// #3 — "Moving items in a List doesn't cause duplication."
    MoveNoDuplication,
    /// #4 — "Sequential IDs are always suitable for creating new items."
    SequentialIds,
    /// #5 — "Multiple replicas in different regions mathematically resolve
    /// to the same state without coordination."
    CoordinationFree,
}

impl Misconception {
    /// All five, in Table 2 order.
    pub fn all() -> [Misconception; 5] {
        [
            Misconception::CausalDelivery,
            Misconception::ListOrderConsistency,
            Misconception::MoveNoDuplication,
            Misconception::SequentialIds,
            Misconception::CoordinationFree,
        ]
    }

    /// The paper's label number (1–5).
    pub fn number(&self) -> u8 {
        match self {
            Misconception::CausalDelivery => 1,
            Misconception::ListOrderConsistency => 2,
            Misconception::MoveNoDuplication => 3,
            Misconception::SequentialIds => 4,
            Misconception::CoordinationFree => 5,
        }
    }

    /// The misconception statement, verbatim from the paper.
    pub fn statement(&self) -> &'static str {
        match self {
            Misconception::CausalDelivery => "the underlying network ensures causal delivery",
            Misconception::ListOrderConsistency => {
                "the order of List elements is always consistent"
            }
            Misconception::MoveNoDuplication => "moving items in a List doesn't cause duplication",
            Misconception::SequentialIds => {
                "sequential IDs are always suitable for creating new items in a to-do list"
            }
            Misconception::CoordinationFree => {
                "multiple replicas in different regions mathematically resolve to the same \
                 state without coordination"
            }
        }
    }

    /// Attaches this misconception's detector to `suite`.
    ///
    /// `target_replica` parameterizes the detectors that examine one
    /// replica (following the paper's seeding procedure, which disables
    /// conflict resolution / coordination *for a particular replica*).
    #[must_use]
    pub fn attach<S>(self, suite: TestSuite<S>, target_replica: usize) -> TestSuite<S> {
        let name = format!("misconception-#{}", self.number());
        match self {
            // #1: without an explicit conflict-resolution step, the target
            // replica's state must NOT depend on the interleaving — if it
            // does, the network alone did not deliver causally.
            Misconception::CausalDelivery => suite.with_cross(
                CrossCheck::same_state_across_interleavings(name, target_replica),
            ),
            // #2: all replicas must observe the same list (content AND
            // order) at the end of every interleaving.
            Misconception::ListOrderConsistency => {
                suite.with(Assertion::new(name, |ctx: &crate::CheckContext<'_, S>| {
                    for pair in ctx.observations().windows(2) {
                        if pair[0] != pair[1] {
                            return Err(format!(
                                "list order differs between replicas: {} vs {}",
                                pair[0], pair[1]
                            ));
                        }
                    }
                    Ok(())
                }))
            }
            // #3: no replica's list observation may contain duplicates
            // after a move.
            Misconception::MoveNoDuplication => {
                let mut s = suite;
                // Duplication can appear at any replica.
                for r in 0..8 {
                    s = s.with(Assertion::no_duplication(
                        format!("misconception-#3@replica{r}"),
                        r,
                    ));
                }
                s
            }
            // #4: IDs minted across replicas must be globally unique.
            Misconception::SequentialIds => {
                suite.with(Assertion::new(name, |ctx: &crate::CheckContext<'_, S>| {
                    let mut seen: Vec<&Value> = Vec::new();
                    for obs in ctx.observations() {
                        let Some(ids) = obs.as_list() else { continue };
                        for id in ids {
                            if seen.contains(&id) {
                                return Err(format!("ID clash across replicas: {id}"));
                            }
                            seen.push(id);
                        }
                    }
                    Ok(())
                }))
            }
            // #5: same detector shape as #1 — the uncoordinated replica's
            // state must not vary across interleavings if the assumption
            // held.
            Misconception::CoordinationFree => suite.with_cross(
                CrossCheck::same_state_across_interleavings(name, target_replica),
            ),
        }
    }
}

impl std::fmt::Display for Misconception {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{} ({})", self.number(), self.statement())
    }
}

/// Looks up a misconception by its paper number (1–5).
pub fn misconception(number: u8) -> Option<Misconception> {
    Misconception::all()
        .into_iter()
        .find(|m| m.number() == number)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckContext, CrossContext, RunRecord};
    use er_pi_model::Interleaving;

    #[test]
    fn lookup_by_number() {
        for n in 1..=5 {
            assert_eq!(misconception(n).unwrap().number(), n);
        }
        assert!(misconception(0).is_none());
        assert!(misconception(6).is_none());
    }

    #[test]
    fn display_quotes_the_statement() {
        let s = Misconception::CausalDelivery.to_string();
        assert!(s.contains("#1"));
        assert!(s.contains("causal delivery"));
    }

    fn ctx<'a>(observations: &'a [Value], il: &'a Interleaving) -> CheckContext<'a, ()> {
        CheckContext::new(&[], observations, il, &[])
    }

    #[test]
    fn list_order_detector_flags_divergent_replicas() {
        let suite = Misconception::ListOrderConsistency.attach(TestSuite::<()>::new(), 0);
        let il = Interleaving::new(vec![]);
        let same = [
            Value::List(vec![Value::from(1), Value::from(2)]),
            Value::List(vec![Value::from(1), Value::from(2)]),
        ];
        let diff = [
            Value::List(vec![Value::from(1), Value::from(2)]),
            Value::List(vec![Value::from(2), Value::from(1)]),
        ];
        let a = &suite.assertions()[0];
        assert!(a.check(&ctx(&same, &il)).is_ok());
        assert!(a.check(&ctx(&diff, &il)).is_err());
    }

    #[test]
    fn sequential_id_detector_flags_cross_replica_clashes() {
        let suite = Misconception::SequentialIds.attach(TestSuite::<()>::new(), 0);
        let il = Interleaving::new(vec![]);
        let clash = [
            Value::List(vec![Value::from(1), Value::from(2)]),
            Value::List(vec![Value::from(2)]),
        ];
        let clean = [
            Value::List(vec![Value::from(1)]),
            Value::List(vec![Value::from(2)]),
        ];
        let a = &suite.assertions()[0];
        assert!(a.check(&ctx(&clash, &il)).is_err());
        assert!(a.check(&ctx(&clean, &il)).is_ok());
    }

    #[test]
    fn coordination_free_detector_is_cross_run() {
        let suite = Misconception::CoordinationFree.attach(TestSuite::<()>::new(), 1);
        assert_eq!(suite.cross_checks().len(), 1);
        let mk = |v: i64| RunRecord {
            interleaving: Interleaving::new(vec![]),
            observations: vec![Value::Null, Value::from(v)],
            failed_ops: 0,
            sim_us: 0,
        };
        let runs = vec![mk(1), mk(2)];
        let err = suite.cross_checks()[0]
            .check(&CrossContext { runs: &runs })
            .unwrap_err();
        assert!(err.contains("diverges"));
    }

    #[test]
    fn move_duplication_detector_covers_multiple_replicas() {
        let suite = Misconception::MoveNoDuplication.attach(TestSuite::<()>::new(), 0);
        assert!(suite.assertions().len() >= 3);
        let il = Interleaving::new(vec![]);
        let dup_at_r2 = [
            Value::List(vec![Value::from(1)]),
            Value::List(vec![Value::from(1)]),
            Value::List(vec![Value::from(7), Value::from(7)]),
        ];
        let violations: usize = suite
            .assertions()
            .iter()
            .filter(|a| a.check(&ctx(&dup_at_r2, &il)).is_err())
            .count();
        assert_eq!(violations, 1, "exactly the replica-2 detector fires");
    }
}
