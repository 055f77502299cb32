//! The benchmark's town recording, shared through `common` and included
//! alone, by path, by the test binaries that need nothing else of it.

use er_pi::{LiveSystem, SystemModel};
use er_pi_model::{ReplicaId, Value};

/// The benchmark's town recording (`benchmark/src/inputs.rs`, with fixed
/// issue names): the §2.3 example extended with a second add/remove pair,
/// 10 events on 2 replicas.
pub fn record_town<M: SystemModel>(app: &mut LiveSystem<'_, M>) {
    let r = ReplicaId::new;
    let ev1 = app.invoke(r(0), "add", [Value::from("otb")]);
    app.sync(r(0), r(1), ev1);
    let ev2 = app.invoke(r(1), "add", [Value::from("ph")]);
    app.sync(r(1), r(0), ev2);
    let ev3 = app.invoke(r(1), "remove", [Value::from("otb")]);
    app.sync(r(1), r(0), ev3);
    let ev4 = app.invoke(r(0), "add", [Value::from("pl")]);
    app.sync(r(0), r(1), ev4);
    app.invoke(r(1), "remove", [Value::from("ph")]);
    app.external(r(0), "transmit");
}
