//! Test assertions: per-interleaving and cross-interleaving checks.

use std::cell::OnceCell;
use std::sync::Arc;

use er_pi_model::{Interleaving, Value};

use crate::{ExecutionRef, OpOutcome, RunRecord};

/// Where a [`CheckContext`]'s observations come from.
enum Observations<'a, S> {
    /// Computed by whoever built the context.
    Ready(&'a [Value]),
    /// `observe` over the final states, the first time someone reads them.
    /// The cell and the borrowed closure live in the context itself: an
    /// unread run allocates nothing for them.
    OnRead {
        observe: &'a dyn Fn(&S) -> Value,
        seen: OnceCell<Vec<Value>>,
    },
}

/// Everything an assertion can look at after one replayed interleaving.
pub struct CheckContext<'a, S> {
    /// Final replica states of this run.
    pub states: &'a [S],
    /// The interleaving that was executed.
    pub interleaving: &'a Interleaving,
    /// Per-event outcomes, aligned with the interleaving's positions.
    pub outcomes: &'a [OpOutcome],
    /// How many of `outcomes` are failed operations.
    failed_ops: usize,
    observations: Observations<'a, S>,
}

impl<'a, S> CheckContext<'a, S> {
    /// A context over ready-made `observations`, one per replica — what a
    /// harness that has already called [`SystemModel::observe`] passes its
    /// assertions.
    ///
    /// [`SystemModel::observe`]: crate::SystemModel::observe
    pub fn new(
        states: &'a [S],
        observations: &'a [Value],
        interleaving: &'a Interleaving,
        outcomes: &'a [OpOutcome],
    ) -> Self {
        CheckContext {
            states,
            interleaving,
            outcomes,
            failed_ops: outcomes.iter().filter(|o| o.is_failed()).count(),
            observations: Observations::Ready(observations),
        }
    }

    /// The campaign's context over the run `exec`: `observe` runs over its
    /// states at most once, when [`CheckContext::observations`] is first
    /// read or the run's record is kept ([`CheckContext::into_observations`])
    /// — and not at all for a run whose observations nobody looks at.
    pub(crate) fn observing(
        exec: &ExecutionRef<'a, S>,
        observe: &'a dyn Fn(&S) -> Value,
        interleaving: &'a Interleaving,
    ) -> Self {
        CheckContext {
            states: exec.states,
            interleaving,
            outcomes: exec.outcomes,
            failed_ops: exec.failed_ops,
            observations: Observations::OnRead {
                observe,
                seen: OnceCell::new(),
            },
        }
    }

    /// Per-replica observations ([`SystemModel::observe`] of each final
    /// state). The engine computes them on the first read of a run, so an
    /// assertion that decides from [`states`](CheckContext::states) or
    /// [`outcomes`](CheckContext::outcomes) alone never pays for them.
    ///
    /// [`SystemModel::observe`]: crate::SystemModel::observe
    pub fn observations(&self) -> &[Value] {
        match &self.observations {
            Observations::Ready(values) => values,
            Observations::OnRead { observe, seen } => {
                seen.get_or_init(|| self.states.iter().map(observe).collect())
            }
        }
    }

    /// The observations as the run's record keeps them: whatever an
    /// assertion already read, computed now otherwise.
    pub(crate) fn into_observations(self) -> Vec<Value> {
        match self.observations {
            Observations::Ready(values) => values.to_vec(),
            Observations::OnRead { observe, seen } => seen
                .into_inner()
                .unwrap_or_else(|| self.states.iter().map(observe).collect()),
        }
    }

    /// Number of events that failed in this run: counted once, when the
    /// context was built (the campaign's executor already holds it).
    pub fn failed_ops(&self) -> usize {
        self.failed_ops
    }

    /// Returns `true` if every replica observes the same value.
    pub fn observations_converged(&self) -> bool {
        self.observations().windows(2).all(|w| w[0] == w[1])
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for CheckContext<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckContext")
            .field("states", &self.states)
            .field("interleaving", &self.interleaving)
            .field("outcomes", &self.outcomes)
            .finish_non_exhaustive()
    }
}

/// The shared predicate an [`Assertion`] runs against one replayed
/// interleaving. `Arc` rather than `Box` so suites are `Clone` — campaign
///-service jobs own their suite.
type CheckFn<S> = Arc<dyn Fn(&CheckContext<'_, S>) -> Result<(), String> + Send + Sync>;

/// A per-interleaving assertion (the functions passed to `ER-π.End(...)`
/// in the paper's Go snippet).
pub struct Assertion<S> {
    name: Arc<str>,
    check: CheckFn<S>,
}

// Manual impl: `S` itself need not be `Clone` (the closure is shared).
impl<S> Clone for Assertion<S> {
    fn clone(&self) -> Self {
        Assertion {
            name: Arc::clone(&self.name),
            check: Arc::clone(&self.check),
        }
    }
}

impl<S> Assertion<S> {
    /// Creates a named assertion.
    ///
    /// `check` runs after every replayed interleaving, pass or fail, so
    /// what it costs is paid once per run. It should read the states in
    /// place — borrowed views, not snapshots, owned keys or string copies —
    /// and build its message only when it fails.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&CheckContext<'_, S>) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        Assertion {
            name: name.into().into(),
            check: Arc::new(check),
        }
    }

    /// The assertion's name (reported in violations).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name as the handle each of its violations shares.
    pub(crate) fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Runs the assertion.
    pub fn check(&self, ctx: &CheckContext<'_, S>) -> Result<(), String> {
        (self.check)(ctx)
    }

    /// Built-in: all replicas observe identical state at the end of the
    /// interleaving.
    pub fn replicas_converge(name: impl Into<String>) -> Self {
        Assertion::new(name, |ctx: &CheckContext<'_, S>| {
            if ctx.observations_converged() {
                Ok(())
            } else {
                Err(format!(
                    "replica observations diverge: {:?}",
                    ctx.observations()
                ))
            }
        })
    }

    /// Built-in: a specific replica's observation (as a list) contains no
    /// duplicate entries — the paper's `assertNoDuplication`.
    pub fn no_duplication(name: impl Into<String>, replica: usize) -> Self {
        Assertion::new(name, move |ctx: &CheckContext<'_, S>| {
            let Some(items) = ctx.observations().get(replica).and_then(Value::as_list) else {
                return Ok(());
            };
            let mut seen = Vec::new();
            for item in items {
                if seen.contains(&item) {
                    return Err(format!("duplicated entry {item} at replica {replica}"));
                }
                seen.push(item);
            }
            Ok(())
        })
    }

    /// Built-in: no event failed during the run.
    pub fn no_failed_ops(name: impl Into<String>) -> Self {
        Assertion::new(name, |ctx: &CheckContext<'_, S>| {
            let failed = ctx.failed_ops();
            if failed == 0 {
                Ok(())
            } else {
                Err(format!("{failed} operations failed"))
            }
        })
    }
}

impl<S> std::fmt::Debug for Assertion<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Assertion")
            .field("name", &self.name)
            .finish()
    }
}

/// Everything a cross-interleaving check can look at after the whole replay.
#[derive(Debug)]
pub struct CrossContext<'a> {
    /// One record per replayed interleaving, in replay order.
    pub runs: &'a [RunRecord],
}

/// The shared predicate a [`CrossCheck`] runs over the whole run set.
type CrossFn = Arc<dyn Fn(&CrossContext<'_>) -> Result<(), String> + Send + Sync>;

/// A check over *all* replayed interleavings — e.g. "this replica's final
/// state must be identical no matter the interleaving" (misconceptions #1
/// and #5 are detected this way).
#[derive(Clone)]
pub struct CrossCheck {
    name: Arc<str>,
    check: CrossFn,
}

impl CrossCheck {
    /// Creates a named cross-run check.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&CrossContext<'_>) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        CrossCheck {
            name: name.into().into(),
            check: Arc::new(check),
        }
    }

    /// The check's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The name as the handle its violation shares.
    pub(crate) fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Runs the check.
    pub fn check(&self, ctx: &CrossContext<'_>) -> Result<(), String> {
        (self.check)(ctx)
    }

    /// Built-in: `replica`'s final observation is identical across every
    /// replayed interleaving.
    pub fn same_state_across_interleavings(name: impl Into<String>, replica: usize) -> Self {
        CrossCheck::new(name, move |ctx: &CrossContext<'_>| {
            let mut first: Option<(&Value, usize)> = None;
            for (i, run) in ctx.runs.iter().enumerate() {
                let Some(obs) = run.observations.get(replica) else {
                    continue;
                };
                match first {
                    None => first = Some((obs, i)),
                    Some((expected, at)) if expected != obs => {
                        return Err(format!(
                            "replica {replica} diverges across interleavings: \
                             run {at} observed {expected}, run {i} observed {obs}"
                        ));
                    }
                    _ => {}
                }
            }
            Ok(())
        })
    }
}

impl std::fmt::Debug for CrossCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossCheck")
            .field("name", &self.name)
            .finish()
    }
}

/// The assertions passed to one replay — the parameter of `ER-π.End(...)`.
///
/// Cloning is cheap: the check closures are shared, not re-allocated.
#[derive(Debug, Default)]
pub struct TestSuite<S> {
    per_run: Vec<Assertion<S>>,
    cross_run: Vec<CrossCheck>,
}

impl<S> Clone for TestSuite<S> {
    fn clone(&self) -> Self {
        TestSuite {
            per_run: self.per_run.clone(),
            cross_run: self.cross_run.clone(),
        }
    }
}

impl<S> TestSuite<S> {
    /// Creates an empty suite.
    pub fn new() -> Self {
        TestSuite {
            per_run: Vec::new(),
            cross_run: Vec::new(),
        }
    }

    /// Adds a pre-built per-interleaving assertion.
    #[must_use]
    pub fn with(mut self, assertion: Assertion<S>) -> Self {
        self.per_run.push(assertion);
        self
    }

    /// Adds a per-interleaving assertion from a closure.
    #[must_use]
    pub fn with_assertion(
        self,
        name: impl Into<String>,
        check: impl Fn(&CheckContext<'_, S>) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.with(Assertion::new(name, check))
    }

    /// Adds a cross-interleaving check.
    #[must_use]
    pub fn with_cross(mut self, check: CrossCheck) -> Self {
        self.cross_run.push(check);
        self
    }

    /// The per-interleaving assertions.
    pub fn assertions(&self) -> &[Assertion<S>] {
        &self.per_run
    }

    /// The cross-interleaving checks.
    pub fn cross_checks(&self) -> &[CrossCheck] {
        &self.cross_run
    }

    /// Returns `true` if the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.per_run.is_empty() && self.cross_run.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::EventId;

    fn ctx<'a>(
        states: &'a [u32],
        observations: &'a [Value],
        interleaving: &'a Interleaving,
        outcomes: &'a [OpOutcome],
    ) -> CheckContext<'a, u32> {
        CheckContext::new(states, observations, interleaving, outcomes)
    }

    #[test]
    fn convergence_assertion() {
        let il = Interleaving::new(vec![EventId::new(0)]);
        let same = [Value::from(1), Value::from(1)];
        let diff = [Value::from(1), Value::from(2)];
        let a = Assertion::<u32>::replicas_converge("conv");
        assert!(a.check(&ctx(&[0, 0], &same, &il, &[])).is_ok());
        assert!(a.check(&ctx(&[0, 0], &diff, &il, &[])).is_err());
        assert_eq!(a.name(), "conv");
    }

    /// The campaign's context pays for `observe` on the first read, once,
    /// and a kept record takes what an assertion already computed.
    #[test]
    fn observations_are_computed_on_first_read_and_at_most_once() {
        use std::cell::Cell;
        let il = Interleaving::new(vec![]);
        let calls = Cell::new(0);
        let observe = |state: &u32| {
            calls.set(calls.get() + 1);
            Value::from(i64::from(*state))
        };
        let exec = ExecutionRef {
            states: &[7, 7, 8],
            outcomes: &[],
            sim_us: 0,
            failed_ops: 0,
        };
        let lazy = || CheckContext::observing(&exec, &observe, &il);

        let unread = lazy();
        assert_eq!(unread.failed_ops(), 0);
        drop(unread);
        assert_eq!(calls.get(), 0, "nobody read them");

        let read = lazy();
        assert!(!read.observations_converged());
        assert_eq!(read.observations().len(), 3);
        assert_eq!(calls.get(), 3, "one observe per replica, on the first read");
        let kept = read.into_observations();
        assert_eq!(kept, [Value::from(7), Value::from(7), Value::from(8)]);
        assert_eq!(calls.get(), 3, "the record keeps what the assertion read");

        assert_eq!(lazy().into_observations(), kept);
        assert_eq!(
            calls.get(),
            6,
            "a kept record of an unread run computes them"
        );
    }

    #[test]
    fn no_duplication_assertion() {
        let il = Interleaving::new(vec![]);
        let clean = [Value::List(vec![Value::from(1), Value::from(2)])];
        let dup = [Value::List(vec![Value::from(1), Value::from(1)])];
        let not_a_list = [Value::from(3)];
        let a = Assertion::<u32>::no_duplication("dup", 0);
        assert!(a.check(&ctx(&[0], &clean, &il, &[])).is_ok());
        assert!(a.check(&ctx(&[0], &dup, &il, &[])).is_err());
        assert!(a.check(&ctx(&[0], &not_a_list, &il, &[])).is_ok());
    }

    #[test]
    fn failed_ops_counting() {
        let il = Interleaving::new(vec![]);
        let outcomes = [
            OpOutcome::Applied,
            OpOutcome::failed("x"),
            OpOutcome::failed("y"),
        ];
        let c = ctx(&[0], &[], &il, &outcomes);
        assert_eq!(c.failed_ops(), 2);
        let a = Assertion::<u32>::no_failed_ops("nf");
        assert!(a.check(&c).is_err());
    }

    #[test]
    fn cross_check_detects_divergence_across_runs() {
        let mk_run = |obs: i64| RunRecord {
            interleaving: Interleaving::new(vec![]),
            observations: vec![Value::from(obs)],
            failed_ops: 0,
            sim_us: 0,
        };
        let check = CrossCheck::same_state_across_interleavings("stable", 0);
        let same = vec![mk_run(1), mk_run(1)];
        assert!(check.check(&CrossContext { runs: &same }).is_ok());
        let diff = vec![mk_run(1), mk_run(2)];
        let err = check.check(&CrossContext { runs: &diff }).unwrap_err();
        assert!(err.contains("diverges"), "{err}");
    }

    #[test]
    fn suite_builders() {
        let suite: TestSuite<u32> = TestSuite::new()
            .with(Assertion::replicas_converge("c"))
            .with_assertion("x", |_| Ok(()))
            .with_cross(CrossCheck::same_state_across_interleavings("s", 0));
        assert_eq!(suite.assertions().len(), 2);
        assert_eq!(suite.cross_checks().len(), 1);
        assert!(!suite.is_empty());
        assert!(TestSuite::<u32>::new().is_empty());
    }
}
