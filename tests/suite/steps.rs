//! A generated two-replica workload: up to five `set` updates and syncs in
//! any order, the property suites' input.

use proptest::prelude::*;

use er_pi_model::{ReplicaId, Value, Workload};

/// One recorded step: an update of a replica, or a sync from it to the
/// other one.
#[derive(Debug, Clone)]
pub enum Step {
    Update(u16, i64),
    Sync(u16),
}

pub fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..2, 1i64..9).prop_map(|(r, v)| Step::Update(r, v)),
            (0u16..2).prop_map(Step::Sync),
        ],
        1..6,
    )
}

/// The workload `steps` record; a sync carries the last update before it.
pub fn build_workload(steps: &[Step]) -> Workload {
    let mut w = Workload::builder();
    let mut last_update = None;
    for step in steps {
        match step {
            Step::Update(r, v) => {
                last_update = Some(w.update(ReplicaId::new(*r), "set", [Value::from(*v)]));
            }
            Step::Sync(r) => {
                let from = ReplicaId::new(*r);
                let to = ReplicaId::new(1 - *r);
                match last_update {
                    Some(u) => {
                        w.sync_pair(from, to, u);
                    }
                    None => {
                        w.sync_untracked(from, to);
                    }
                }
            }
        }
    }
    w.build()
}
