//! The runtime-constraints workflow (workflow State 4).
//!
//! Drops a JSON constraints file into a watched directory mid-session and
//! shows ER-π absorbing it and shrinking the remaining problem space: the
//! motivating workload's 24 grouped orders become 19.
//!
//! Run with: `cargo run --example runtime_constraints`

use er_pi::{FailedOpsRule, PruningConfig, Session};
use er_pi_model::{EventId, ReplicaId, Value};
use er_pi_subjects::TownApp;

fn main() {
    let a = ReplicaId::new(0);
    let b = ReplicaId::new(1);

    // Record the motivating workload once.
    let mut session = Session::new(TownApp::new(2));
    let mut ids = [EventId::new(0); 4];
    session.record(|app| {
        let ev1 = app.invoke(a, "add", [Value::from("otb")]);
        app.sync(a, b, ev1);
        let ev2 = app.invoke(b, "add", [Value::from("ph")]);
        app.sync(b, a, ev2);
        let ev3 = app.invoke(b, "remove", [Value::from("otb")]);
        app.sync(b, a, ev3);
        let ev4 = app.external(a, "transmit");
        ids = [ev1, ev2, ev3, ev4];
    });

    println!("== runtime constraints (workflow State 4) ==");
    let dir = std::env::temp_dir().join(format!("er-pi-constraints-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("constraints dir");

    // The developer discovered (by watching early replays) that once the
    // transmission runs first, the rest of the order is irrelevant.
    let [ev1, ev2, ev3, ev4] = ids;
    let discovered = PruningConfig::default().with_failed_ops(FailedOpsRule {
        predecessors: vec![ev4],
        successors: vec![ev1, ev2, ev3],
    });
    std::fs::write(
        dir.join("discovered.json"),
        serde_json::to_string_pretty(&discovered).unwrap(),
    )
    .expect("write constraints");

    session.watch_constraints(&dir);
    let report = session.replay(&TownApp::invariant()).unwrap();
    println!("{}", report.summary());
    println!("(19 instead of 24: the JSON constraint was ingested mid-replay)");
    assert_eq!(report.explored, 19);

    let _ = std::fs::remove_dir_all(&dir);
}
