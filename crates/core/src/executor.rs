//! The naive reference executor and the owned run it returns.

use er_pi_model::{Interleaving, Workload};

use crate::{FaultInterpreter, OpOutcome, SystemModel, TimeModel};

/// The result of executing one interleaving, owned.
///
/// What [`InlineExecutor`] builds per run, and what
/// [`IncrementalExecutor::execute`](crate::IncrementalExecutor::execute)
/// hands out by giving its buffers away. The campaign reads every run
/// borrowed from its cursor instead, as an [`ExecutionRef`].
#[derive(Debug)]
pub struct Execution<S> {
    /// Final replica states.
    pub states: Vec<S>,
    /// Per-event outcomes, aligned with the interleaving.
    pub outcomes: Vec<OpOutcome>,
    /// Simulated time charged, microseconds.
    pub sim_us: u64,
}

/// One executed interleaving, borrowed from the run an
/// [`IncrementalExecutor`](crate::IncrementalExecutor) is on.
#[derive(Debug)]
pub struct ExecutionRef<'a, S> {
    /// Final replica states.
    pub states: &'a [S],
    /// Per-event outcomes, aligned with the interleaving.
    pub outcomes: &'a [OpOutcome],
    /// Simulated time charged, microseconds.
    pub sim_us: u64,
    /// How many of `outcomes` are failed operations.
    pub failed_ops: usize,
}

/// Replays one interleaving from fresh states on the current thread, in the
/// plainest way there is: the naive reference the engine's results are
/// compared with.
///
/// No engine path calls it — a campaign, scratch or not, replays through
/// the [`IncrementalExecutor`](crate::IncrementalExecutor) cursor (at a zero
/// snapshot budget when incremental replay is off) — so a suite that holds
/// a report to runs of this executor compares the engine with code it does
/// not share beyond [`FaultInterpreter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct InlineExecutor;

impl InlineExecutor {
    /// Executes `il` against fresh states of `model`, interpreting the
    /// interleaving's fault schedule deterministically (fault surgery
    /// rearranges state transitions; the simulated-time ledger is unchanged
    /// from fault-free replay).
    pub fn execute<M: SystemModel>(
        model: &M,
        workload: &Workload,
        il: &Interleaving,
        time: &TimeModel,
    ) -> Execution<M::State> {
        let mut states = model.init_all();
        let mut outcomes = Vec::with_capacity(il.len());
        let mut sim_us = time.reset_cost_us;
        let mut faults = FaultInterpreter::new(il.faults());
        for (pos, &id) in il.iter().enumerate() {
            let event = workload.event(id);
            sim_us += time.event_cost_us(event);
            outcomes.push(faults.step(model, &mut states, workload, event, pos));
        }
        faults.finish(model, &mut states, workload);
        Execution {
            states,
            outcomes,
            sim_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::{Event, EventKind, ReplicaId, Value};

    /// A model whose state is the list of op arguments applied, so the
    /// execution order is directly observable.
    struct OrderProbe;

    impl SystemModel for OrderProbe {
        type State = Vec<i64>;

        fn replicas(&self) -> usize {
            3
        }

        fn init(&self, _replica: ReplicaId) -> Vec<i64> {
            Vec::new()
        }

        fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
            if let EventKind::LocalUpdate { op } = &event.kind {
                let v = op.arg(0).and_then(Value::as_int).unwrap_or(-1);
                // Record globally (at replica 0) to observe the total order.
                states[0].push(v);
            }
            OpOutcome::Applied
        }

        fn observe(&self, state: &Vec<i64>) -> Value {
            state.iter().copied().collect()
        }
    }

    fn probe_workload() -> Workload {
        let mut w = Workload::builder();
        for i in 0..6i64 {
            w.update(ReplicaId::new((i % 3) as u16), "op", [Value::from(i)]);
        }
        w.build()
    }

    #[test]
    fn inline_executes_in_scheduled_order() {
        let w = probe_workload();
        let mut ids: Vec<er_pi_model::EventId> = w.event_ids().collect();
        ids.reverse();
        let il = Interleaving::new(ids);
        let exec = InlineExecutor::execute(&OrderProbe, &w, &il, &TimeModel::paper_setup());
        assert_eq!(exec.states[0][..6], [5, 4, 3, 2, 1, 0]);
        assert_eq!(exec.outcomes.len(), 6);
        assert!(exec.sim_us > 0);
    }
}
