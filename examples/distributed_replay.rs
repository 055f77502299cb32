//! The distributed-lock replay path and the runtime-constraints workflow.
//!
//! Two parts:
//!
//! 1. **Threaded replay** — replays one interleaving with one OS thread per
//!    replica, ordered by the Redis-style distributed lock (`er-pi-dlock`'s
//!    `OrderSequencer`), exactly as the paper's §4.3 describes, and checks
//!    it produces the same states as the fast inline executor.
//! 2. **Runtime constraints (workflow State 4)** — drops a JSON constraints
//!    file into a watched directory mid-session and shows ER-π absorbing it
//!    and shrinking the remaining problem space, plus the deductive-store
//!    persistence of the generated interleavings.
//!
//! Run with: `cargo run --example distributed_replay`

use er_pi::{FailedOpsRule, InlineExecutor, PruningConfig, Session, SystemModel, TimeModel};
use er_pi_datalog::InterleavingStore;
use er_pi_model::{EventId, ReplicaId, Value};
use er_pi_repro::ThreadedExecutor;
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
    let workload = session.workload().unwrap().clone();

    // -- Part 1: threaded replay under the distributed lock -------------
    println!("== threaded replay under the distributed lock ==");
    let model = TownApp::new(2);
    let time = TimeModel::paper_setup();
    let il = workload.recorded_order();
    let inline = InlineExecutor::execute(&model, &workload, &il, &time);
    let threaded =
        ThreadedExecutor::execute(&model, &workload, &il, &time).expect("threads complete");
    let same = inline
        .states
        .iter()
        .zip(&threaded.states)
        .all(|(x, y)| model.observe(x) == model.observe(y));
    println!(
        "one thread per replica, {} events sequenced by the Redis-style lock",
        il.len()
    );
    println!("states identical to the inline executor: {same}");
    assert!(same);

    // -- Part 2: runtime constraints + persistence ----------------------
    println!("\n== runtime constraints (workflow State 4) ==");
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
    session.set_keep_runs(true);
    let report = session.replay(&TownApp::invariant()).unwrap();
    println!("{}", report.summary());
    println!("(19 instead of 24: the JSON constraint was ingested mid-replay)");

    // Persistence (the paper's Souffle store, §5.1) is the caller's step:
    // copy the replayed interleavings out of the report.
    let mut store = InterleavingStore::new(session.workload().expect("recorded"));
    store.store_all(report.runs.iter().map(|r| &r.interleaving));
    println!(
        "deductive store holds {} interleavings over {} facts",
        store.len(),
        store.database().len()
    );
    // A Datalog query over the persisted interleavings: in how many does
    // the transmit precede the fix's synchronization?
    store.derive_precedes();
    let stale = store.interleavings_where_precedes(ev4, ev3);
    println!(
        "datalog query: transmit-before-remove holds in {} of the persisted orders",
        stale.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
