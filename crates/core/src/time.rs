//! The simulated-time model behind Figure 8b.

use er_pi_model::{Event, EventKind, HostProfile, Workload};

/// Charges simulated time for replayed events, based on per-replica host
/// profiles.
///
/// The paper measures wall-clock reproduction time on heterogeneous
/// hardware (two laptops + a Raspberry Pi); this model reproduces the time
/// *shape* deterministically: each event costs what its replica's host
/// charges, plus fixed per-interleaving reset overhead, plus (for the
/// Random mode) per-retry shuffle overhead.
#[derive(Debug, Clone)]
pub struct TimeModel {
    profiles: Vec<HostProfile>,
    /// Checkpoint/reset overhead charged per replayed interleaving, µs.
    pub reset_cost_us: u64,
    /// Cost of one rejected shuffle in Random mode, µs.
    pub shuffle_retry_cost_us: u64,
}

impl TimeModel {
    /// The paper's three-host setup.
    pub fn paper_setup() -> Self {
        TimeModel {
            profiles: HostProfile::paper_trio().to_vec(),
            reset_cost_us: 2_500,
            shuffle_retry_cost_us: 40,
        }
    }

    /// A model with explicit profiles (cycled if fewer than replicas).
    pub fn new(profiles: Vec<HostProfile>) -> Self {
        assert!(!profiles.is_empty(), "at least one host profile");
        TimeModel {
            profiles,
            reset_cost_us: 2_500,
            shuffle_retry_cost_us: 40,
        }
    }

    fn profile(&self, replica: usize) -> &HostProfile {
        &self.profiles[replica % self.profiles.len()]
    }

    /// Cost of one event, microseconds.
    pub fn event_cost_us(&self, event: &Event) -> u64 {
        let host = self.profile(event.replica.index());
        match &event.kind {
            EventKind::LocalUpdate { .. } | EventKind::External { .. } => host.op_cost_us,
            EventKind::SyncSend { .. } => host.net_latency_us,
            EventKind::SyncExec { .. } => host.sync_cost_us,
            EventKind::Sync { .. } => host.net_latency_us + host.sync_cost_us,
        }
    }

    /// Cost of replaying one full interleaving of `workload` (events +
    /// reset), microseconds.
    pub fn run_cost_us(&self, workload: &Workload) -> u64 {
        let events: u64 = workload
            .events()
            .iter()
            .map(|e| self.event_cost_us(e))
            .sum();
        events + self.reset_cost_us
    }
}

impl Default for TimeModel {
    fn default() -> Self {
        Self::paper_setup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_model::{ReplicaId, Value};

    #[test]
    fn sync_costs_more_than_update() {
        let model = TimeModel::paper_setup();
        let mut w = Workload::builder();
        let u = w.update(ReplicaId::new(0), "op", [Value::from(1)]);
        let s = w.sync_pair(ReplicaId::new(0), ReplicaId::new(1), u);
        let w = w.build();
        let cu = model.event_cost_us(w.event(u));
        let cs = model.event_cost_us(w.event(s));
        assert!(cs > cu);
    }

    #[test]
    fn pi_replica_is_slower() {
        let model = TimeModel::paper_setup();
        let mut w = Workload::builder();
        let fast = w.update(ReplicaId::new(0), "op", [Value::from(1)]);
        let slow = w.update(ReplicaId::new(2), "op", [Value::from(1)]);
        let w = w.build();
        assert!(model.event_cost_us(w.event(slow)) > model.event_cost_us(w.event(fast)));
    }

    #[test]
    fn run_cost_includes_reset() {
        let model = TimeModel::paper_setup();
        let mut w = Workload::builder();
        w.update(ReplicaId::new(0), "op", [Value::from(1)]);
        let w = w.build();
        assert_eq!(
            model.run_cost_us(&w),
            model.event_cost_us(w.event(er_pi_model::EventId::new(0))) + model.reset_cost_us
        );
    }

    #[test]
    fn profiles_cycle_beyond_their_count() {
        let model = TimeModel::new(vec![HostProfile::laptop_i7(), HostProfile::raspberry_pi3()]);
        let mut w = Workload::builder();
        let e0 = w.update(ReplicaId::new(0), "op", [Value::from(1)]);
        let e2 = w.update(ReplicaId::new(2), "op", [Value::from(1)]);
        let w = w.build();
        assert_eq!(
            model.event_cost_us(w.event(e0)),
            model.event_cost_us(w.event(e2)),
            "replica 2 wraps to profile 0"
        );
    }
}
