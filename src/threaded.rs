//! The paper's §4.3 replay mechanism, as written: one thread per replica,
//! ordered by a distributed lock.

use er_pi::{ErPiError, Execution, FaultInterpreter, OpOutcome, SystemModel, TimeModel};
use er_pi_dlock::{OrderSequencer, RedisLite};
use er_pi_model::{EventId, Interleaving, Workload};
use parking_lot::Mutex;

/// Replays interleavings with one thread per replica, gated by the
/// distributed-lock [`OrderSequencer`] — the faithful reproduction of the
/// paper's §4.3 replay mechanism ("a mutex with a shared key managed by a
/// Redis server, thus effecting the required distributed order").
///
/// Event *i* of the interleaving is ticket *i*; the thread owning the
/// event's replica blocks on the sequencer until every earlier ticket has
/// completed. By construction the executed order is exactly the scheduled
/// one — asserted equivalent to [`InlineExecutor`](er_pi::InlineExecutor)
/// in the integration tests. The engine does not replay this way: it lives
/// here, beside its callers, so `er-pi` links no lock service.
#[derive(Debug, Default)]
pub struct ThreadedExecutor;

impl ThreadedExecutor {
    /// Executes `il` with one thread per replica.
    ///
    /// # Errors
    ///
    /// Returns [`ErPiError::ExecutorPanic`] if a replica thread panics
    /// (e.g. an assertion inside the model).
    pub fn execute<M>(
        model: &M,
        workload: &Workload,
        il: &Interleaving,
        time: &TimeModel,
    ) -> Result<Execution<M::State>, ErPiError>
    where
        M: SystemModel + Sync,
        M::State: Send,
    {
        let sequencer = OrderSequencer::new(RedisLite::new(), "er-pi-replay");
        let states = Mutex::new(model.init_all());
        let outcomes = Mutex::new(vec![OpOutcome::Applied; il.len()]);
        // The sequencer already imposes the total schedule order, so the
        // fault interpreter can live behind one lock and observe exactly
        // the same step sequence as the inline executor.
        let faults = Mutex::new(FaultInterpreter::new(il.faults()));

        // Partition tickets by owning replica.
        let replica_count = model.replicas();
        let mut tickets_per_replica: Vec<Vec<(u64, EventId)>> = vec![Vec::new(); replica_count];
        for (pos, &id) in il.iter().enumerate() {
            let replica = workload.event(id).replica.index();
            assert!(
                replica < replica_count,
                "event {id} executes at replica {replica}, but the model has {replica_count}"
            );
            tickets_per_replica[replica].push((pos as u64, id));
        }

        // Each replica thread accumulates its own simulated-time partial
        // and returns it through `join`; the partials are then summed in
        // replica order. This keeps the total structurally independent of
        // thread completion order (and off the hot lock), so it is always
        // equal to the inline executor's sum.
        let result: Result<Vec<u64>, String> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for tickets in tickets_per_replica {
                let sequencer = &sequencer;
                let states = &states;
                let outcomes = &outcomes;
                let faults = &faults;
                handles.push(scope.spawn(move || {
                    let mut local_us = 0u64;
                    for (ticket, id) in tickets {
                        sequencer.run_in_order(ticket, || {
                            let event = workload.event(id);
                            let pos = ticket as usize;
                            let mut guard = states.lock();
                            let mut interp = faults.lock();
                            let outcome = interp.step(model, &mut guard, workload, event, pos);
                            outcomes.lock()[pos] = outcome;
                            local_us += time.event_cost_us(event);
                        });
                    }
                    local_us
                }));
            }
            let mut partials = Vec::with_capacity(replica_count);
            for handle in handles {
                partials.push(handle.join().map_err(|e| format!("{e:?}"))?);
            }
            Ok(partials)
        });
        let partials = result.map_err(ErPiError::ExecutorPanic)?;

        let mut final_states = states.into_inner();
        faults
            .into_inner()
            .finish(model, &mut final_states, workload);
        Ok(Execution {
            states: final_states,
            outcomes: outcomes.into_inner(),
            sim_us: time.reset_cost_us + partials.iter().sum::<u64>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi::InlineExecutor;
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
    fn threaded_matches_inline_exactly() {
        let w = probe_workload();
        let time = TimeModel::paper_setup();
        // A deliberately scrambled order.
        let il: Interleaving = [3u32, 0, 5, 1, 4, 2]
            .into_iter()
            .map(EventId::new)
            .collect();
        let inline = InlineExecutor::execute(&OrderProbe, &w, &il, &time);
        let threaded = ThreadedExecutor::execute(&OrderProbe, &w, &il, &time).unwrap();
        assert_eq!(inline.states, threaded.states);
        assert_eq!(inline.outcomes, threaded.outcomes);
        assert_eq!(inline.sim_us, threaded.sim_us);

        // Regression: on a multi-sync workload the per-event costs differ
        // per replica (sync vs update, host profiles), so any accounting
        // that depended on thread completion order would drift here. The
        // per-thread partial sums must still equal the inline total.
        let mut mw = Workload::builder();
        let u0 = mw.update(ReplicaId::new(0), "op", [Value::from(0)]);
        mw.sync_pair(ReplicaId::new(0), ReplicaId::new(1), u0);
        let u1 = mw.update(ReplicaId::new(1), "op", [Value::from(1)]);
        mw.sync_pair(ReplicaId::new(1), ReplicaId::new(2), u1);
        let send = mw.sync_send(ReplicaId::new(2), ReplicaId::new(0), Some(u1));
        mw.sync_exec(ReplicaId::new(0), ReplicaId::new(2), send);
        mw.update(ReplicaId::new(2), "op", [Value::from(2)]);
        let mw = mw.build();
        let scrambled: Interleaving = [2u32, 0, 6, 1, 4, 3, 5]
            .into_iter()
            .map(EventId::new)
            .collect();
        for il in [mw.recorded_order(), scrambled] {
            let inline = InlineExecutor::execute(&OrderProbe, &mw, &il, &time);
            let threaded = ThreadedExecutor::execute(&OrderProbe, &mw, &il, &time).unwrap();
            assert_eq!(inline.sim_us, threaded.sim_us, "sim_us drift on {il}");
            assert_eq!(inline.states, threaded.states);
            assert_eq!(inline.outcomes, threaded.outcomes);
        }
    }

    #[test]
    fn threaded_matches_inline_under_faults() {
        use er_pi_model::{FaultEvent, FaultKind, FaultPlan};
        let w = probe_workload();
        let time = TimeModel::paper_setup();
        let ids: Vec<EventId> = w.event_ids().collect();
        let plan = FaultPlan::new(vec![
            FaultEvent::new(ids[1], FaultKind::Drop),
            FaultEvent::new(ids[2], FaultKind::Duplicate),
            FaultEvent::new(ids[3], FaultKind::Delay { by: 2 }),
        ]);
        let il = w.recorded_order().with_faults(plan);
        let inline = InlineExecutor::execute(&OrderProbe, &w, &il, &time);
        let threaded = ThreadedExecutor::execute(&OrderProbe, &w, &il, &time).unwrap();
        assert_eq!(inline.states, threaded.states);
        assert_eq!(inline.outcomes, threaded.outcomes);
        assert_eq!(inline.sim_us, threaded.sim_us);
        // Faults do not change the simulated-time ledger.
        let fault_free = InlineExecutor::execute(&OrderProbe, &w, &w.recorded_order(), &time);
        assert_eq!(inline.sim_us, fault_free.sim_us);
    }

    #[test]
    fn threaded_reports_panics_as_errors() {
        struct Bomb;
        impl SystemModel for Bomb {
            type State = ();
            fn replicas(&self) -> usize {
                1
            }
            fn init(&self, _r: ReplicaId) {}
            fn apply(&self, _s: &mut [()], _e: &Event) -> OpOutcome {
                panic!("kaboom");
            }
            fn observe(&self, _s: &()) -> Value {
                Value::Null
            }
        }
        let mut w = Workload::builder();
        w.update(ReplicaId::new(0), "x", [Value::from(1)]);
        let w = w.build();
        let il = w.recorded_order();
        let err = ThreadedExecutor::execute(&Bomb, &w, &il, &TimeModel::paper_setup());
        assert!(matches!(err, Err(ErPiError::ExecutorPanic(_))));
    }
}
