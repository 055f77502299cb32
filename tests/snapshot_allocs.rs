//! A snapshot of any shipped subject allocates one block: the array that
//! holds one pointer per replica (a path keeps it beside its reference
//! count, in the same block). Everything else the incremental executor, the
//! subsumption memo and a stitched tail do with replica states is a
//! `clone()` of exactly this kind, so this is the number their cost rests
//! on. What they do with an outcome is a `clone()` too, and that allocates
//! nothing.
//!
//! The same exact count stands in for what two wall-clock overhead ceilings
//! used to approximate: a metric registry attached to a replay is counted
//! into, so it costs a fixed number of blocks per campaign and none per run.
//!
//! And it is the number a replay as a whole is held to: blocks per run of
//! the benchmark's town campaigns, under default retention, with the run
//! records kept and under a subsuming fault product; of its catalogue sweep,
//! where every run ends in a bug check — and, over a model that allocates
//! nothing, blocks per run of the engine alone.
//!
//! The allocator counts only blocks requested by a thread while that thread
//! is inside [`blocks_during`], so the count is exact however the harness
//! schedules its tests.

#[path = "common/town.rs"]
mod town;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use er_pi::telemetry::Registry;
use er_pi::{
    Attachments, ExploreMode, InlineExecutor, OpOutcome, ReplayConfig, Session, SessionMetrics,
    SystemModel, TimeModel,
};
use er_pi_model::{ReplicaId, Value, Workload};
use er_pi_subjects::{Bug, CrdtsModel, LedgerApp, OrbitModel, OrbitReplica, TownApp};

thread_local! {
    /// Blocks allocated by this thread since counting began; `None` while
    /// it is not counting.
    static BLOCKS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

// SAFETY: every request is passed to `System` unchanged; the only addition
// is a thread-local counter that itself never allocates (`const`
// initializer, no destructor). `realloc` and `alloc_zeroed` keep their
// default bodies, which go through `alloc`, so a grown block counts as a
// block.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread that is tearing its locals down is not counting.
        let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get().map(|n| n + 1)));
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many blocks this thread allocated meanwhile.
fn blocks_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    BLOCKS.with(|blocks| blocks.set(Some(0)));
    let out = f();
    let counted = BLOCKS.with(|blocks| blocks.take()).expect("counting");
    (counted, out)
}

/// The final states of `workload`'s recorded order: every replica populated.
fn populated<M: SystemModel>(model: &M, workload: &Workload) -> Vec<M::State> {
    let order = workload.recorded_order();
    InlineExecutor::execute(model, workload, &order, &TimeModel::paper_setup()).states
}

fn assert_one_block<M: SystemModel>(subject: &str, model: &M, states: &[M::State]) {
    let (blocks, copy) = blocks_during(|| states.to_vec());
    assert_eq!(copy.len(), states.len());
    assert_eq!(
        blocks,
        1,
        "{subject}: a snapshot of {} replicas allocated {blocks} blocks, not just its Vec",
        states.len()
    );
    // Charged under a kilobyte: what `DEFAULT_CACHE_BUDGET` rests on.
    let hint: usize = copy.iter().map(|s| model.state_size_hint(s)).sum();
    assert!((1..1024).contains(&hint), "{subject}: charged {hint}");
}

#[test]
fn the_counter_sees_every_block_of_a_deep_copy() {
    let nested = vec![vec![1u8; 8], vec![2u8; 8]];
    let (blocks, copy) = blocks_during(|| nested.clone());
    assert_eq!((blocks, copy.len()), (3, 2));
    let (blocks, _) = blocks_during(|| ());
    assert_eq!(blocks, 0);
}

#[test]
fn a_catalogue_snapshot_allocates_one_block() {
    for bug in Bug::catalogue() {
        let probe = bug.clone_probe();
        let (blocks, hint) = blocks_during(|| probe.clone_states());
        // Charged under a kilobyte: what `DEFAULT_CACHE_BUDGET` rests on.
        assert!((1..1024).contains(&hint), "{}: charged {hint}", bug.name);
        assert_eq!(
            blocks, 1,
            "{} ({}): cloning the recorded order's final states allocated {blocks} blocks, \
             not just the Vec",
            bug.subject, bug.name
        );
    }
}

#[test]
fn a_town_crdts_or_ledger_snapshot_allocates_one_block() {
    let r = ReplicaId::new;

    // The §2.3 recording.
    let mut w = Workload::builder();
    let ev1 = w.update(r(0), "add", [Value::from("otb")]);
    w.sync_pair(r(0), r(1), ev1);
    let ev2 = w.update(r(1), "add", [Value::from("ph")]);
    w.sync_pair(r(1), r(0), ev2);
    let ev3 = w.update(r(1), "remove", [Value::from("otb")]);
    w.sync_pair(r(1), r(0), ev3);
    w.external(r(0), "transmit");
    let w = w.build();
    let town = populated(&TownApp::new(2), &w);
    assert!(town[0].transmitted.is_some() && !town[1].issues.is_empty());
    assert_one_block("town", &TownApp::new(2), &town);

    // Table 1 has no `crdts` bug: OR-set and RGA entries on three replicas.
    let mut w = Workload::builder();
    for i in 0..8i64 {
        w.update(r((i % 3) as u16), "set_add", [Value::from(i)]);
        w.update(r((i % 3) as u16), "list_push", [Value::from(i)]);
    }
    let crdts = CrdtsModel::new(3);
    assert_one_block("crdts", &crdts, &populated(&crdts, &w.build()));

    let mut w = Workload::builder();
    let credit = w.update(r(0), "credit", [Value::from(100)]);
    w.sync_pair(r(0), r(1), credit);
    let ledger = LedgerApp::new(2);
    assert_one_block("ledger", &ledger, &populated(&ledger, &w.build()));
}

/// Building a failure from a static reason copies nothing, and cloning any
/// outcome — which is how the cursor refills from a path, a faulted plan
/// borrows the fault-free plan's steps, a memo is recorded and a tail is
/// stitched — allocates nothing: an owned reason and an observation are
/// shared, not copied.
#[test]
fn an_outcome_is_built_from_a_static_reason_and_cloned_without_allocating() {
    let (blocks, _) = blocks_during(|| OpOutcome::failed("a static reason"));
    assert_eq!(blocks, 0, "a failure with a static reason");
    let outcomes = [
        OpOutcome::failed("a static reason"),
        OpOutcome::failed(format!("an owned reason, #{}", 7)),
        OpOutcome::observed(["otb", "ph"].into_iter().map(Value::from).collect()),
    ];
    for outcome in &outcomes {
        let (blocks, copy) = blocks_during(|| outcome.clone());
        assert_eq!(blocks, 0, "cloning {outcome:?}");
        assert_eq!(&copy, outcome);
    }
}

/// What `Shared` copies on the first write after a snapshot is a `clone` of
/// one of these, and what that costs must not depend on how long the replica
/// has lived: the op log is an array of handles, the elements are read out
/// of the operations that introduced them, a document's subtrees sit behind
/// their own reference counts. Each history below rewrites the same four
/// elements, members or keys, so the live state has one shape at any length
/// and only the log grows — 8 operations or 64, a copy and the write after
/// it allocate the same number of blocks. (An `Rga`'s node array holds its
/// values inline and is copied with them, tombstones included; integers own
/// no block.)
#[test]
fn a_copy_and_the_write_after_it_cost_the_same_at_any_history() {
    use er_pi_rdl::{JsonDoc, LwwTimeSeries, MerkleLog, OrSet, Rga, TieBreak};

    fn copy_then<T: Clone>(value: &T, write: impl FnOnce(&mut T)) -> u64 {
        let (blocks, _copy) = blocks_during(|| {
            let mut copy = value.clone();
            write(&mut copy);
            copy
        });
        blocks
    }
    fn assert_flat(what: &str, blocks_at: impl Fn(usize) -> u64) {
        let (short, long) = (blocks_at(8), blocks_at(64));
        assert_eq!(short, long, "{what}: blocks at history 8 and at 64");
        assert!(short > 0, "{what}: a copy allocates something");
    }
    let a = ReplicaId::new(0);
    let name = |i: usize| format!("element-{}", i % 4);

    assert_flat("OrSet", |history| {
        let mut set = OrSet::new(a);
        for i in 0..history {
            set.insert(name(i));
        }
        copy_then(&set, |set| {
            set.insert(name(0));
        })
    });
    assert_flat("Rga", |history| {
        let mut list = Rga::new(a);
        list.push(0i64);
        for i in 1..history {
            list.move_item(0, i % 2);
        }
        copy_then(&list, |list| {
            list.move_item(0, 0);
        })
    });
    assert_flat("MerkleLog", |history| {
        let mut log = MerkleLog::new(a, "alice");
        for i in 0..history {
            log.append(Value::from(name(i)));
        }
        copy_then(&log, |log| {
            log.append(Value::from(name(0)));
        })
    });
    assert_flat("JsonDoc", |history| {
        let mut doc = JsonDoc::new(a);
        let set = |doc: &mut JsonDoc, i: usize| {
            doc.set(&["profile", &name(i)], Value::from(name(i + 1)))
                .expect("an object path");
        };
        for i in 0..history {
            set(&mut doc, i);
        }
        copy_then(&doc, |doc| set(doc, 0))
    });
    // A replica around its log: four granted identities and a cache of
    // them ride along with every copy, behind their own reference count.
    assert_flat("OrbitReplica", |history| {
        let mut replica = OrbitReplica::clone(&OrbitModel::new(1).init(a));
        for i in 0..4 {
            replica.access.insert(name(i));
        }
        replica.access_cache = Some(replica.access.clone());
        for i in 0..history {
            replica.log.append(Value::from(name(i)));
        }
        copy_then(&replica, |replica| {
            replica.log.append(Value::from(name(0)));
        })
    });
    assert_flat("LwwTimeSeries", |history| {
        let mut series = LwwTimeSeries::new(TieBreak::InsertWins);
        for i in 0..history {
            series.insert("key", &name(i), i as u64);
        }
        copy_then(&series, |series| {
            series.insert("key", &name(0), 100);
        })
    });
}

/// A one-worker replay runs on the calling thread, so every block it asks
/// for is counted. With a registry attached it asks for the same number of
/// blocks *more* than the detached replay at 500 runs and at 2 000: set-up
/// and the end-of-campaign fold allocate, a finished run and a periodic
/// sample do not.
#[test]
fn an_attached_registry_allocates_nothing_per_run() {
    let bug = Bug::by_name("Yorkie-1").expect("catalogue bug");
    let extra_blocks = |cap: usize| {
        let config = ReplayConfig {
            cap,
            workers: 1,
            ..ReplayConfig::default()
        };
        let registry = Arc::new(Registry::new());
        let attach = Attachments {
            metrics: Some(SessionMetrics::new(&registry, &[("campaign", bug.name)])),
            ..Attachments::default()
        };
        let (detached, reference) = blocks_during(|| bug.replay_report_opts(&config));
        let (attached, (report, _)) = blocks_during(|| bug.replay_report_checked(&config, attach));
        assert_eq!(report.explored, cap);
        assert_eq!(reference.diff(&report), None);
        let text = registry.render_prometheus();
        let runs = format!("er_pi_campaign_runs_total{{campaign=\"Yorkie-1\"}} {cap}\n");
        assert!(text.contains(&runs), "the registry counted along:\n{text}");
        attached - detached
    };
    assert_eq!(extra_blocks(500), extra_blocks(2_000));
}

/// Blocks per run of `benchmark/`'s two town campaigns (their
/// `allocs_per_replay`): the 10-event town recording, capped at 10 000, one
/// worker, session defaults.
///
/// DFS order resumes 73 % of its events from snapshots, so nearly every
/// applied event first copies the replica it writes; it measures 19.53 now
/// that a snapshot is one block and an outcome clones as a handle (20.98
/// before that; 26.09 before the executor rewrote the previous run's
/// buffers in place, the dispenser stopped keeping fingerprints and a
/// version vector moved inline into its replica; 43.92 while a copy
/// duplicated the op log, the elements and the transmitted list). Random
/// order applies 99 % of its events to states no snapshot holds and shares
/// next to nothing with the run before it, so it is the pin on what sharing
/// — of structures and of buffers — costs where there is nothing to share:
/// 24.85 (25.70, 29.65, 40.35).
///
/// Under default retention a run leaves a `(sim_us, failed_ops)` row and
/// nothing else — no `observe`, no `RunRecord`. With `keep_runs` every run
/// builds its record (interleaving + observations): no benchmark workload
/// takes that path, so this is what holds it (29.97; 30.63, 35.74).
#[test]
fn a_town_replay_allocates_a_pinned_number_of_blocks_per_run() {
    let blocks_per_run = |mode: ExploreMode, keep_runs: bool| {
        let config = ReplayConfig {
            mode,
            cap: 10_000,
            workers: 1,
            keep_runs,
            ..ReplayConfig::default()
        };
        let mut session = Session::with_config(TownApp::new(2), config, Attachments::default());
        session.record(town::record_town);
        let suite = TownApp::invariant();
        let (blocks, report) = blocks_during(|| session.replay(&suite).expect("recorded"));
        assert_eq!(report.explored, 10_000);
        assert_eq!(report.runs.len(), if keep_runs { 10_000 } else { 0 });
        blocks as f64 / report.explored as f64
    };
    let dfs = blocks_per_run(ExploreMode::Dfs, false);
    let random = blocks_per_run(ExploreMode::Random { seed: 7 }, false);
    let kept = blocks_per_run(ExploreMode::Dfs, true);
    assert!(dfs <= 20.0, "DFS order: {dfs} blocks per run");
    assert!(random <= 25.3, "Random order: {random} blocks per run");
    assert!(kept <= 30.5, "keep_runs: {kept} blocks per run");
}

/// Blocks per run of `benchmark/`'s `fault-subsume` campaign: the same town
/// recording in DFS order under every one-fault plan (27 plans), with
/// state-hash subsumption, capped at 10 000, one worker.
///
/// Three quarters of its runs are answered from the explored-set, so much of
/// what a run costs there is what recording it costs. It measures 11.50 now
/// that an outcome clones as a handle — a failure reason is a static string,
/// an observation is shared — wherever the cursor, the paths, the memos and
/// stitched tails copy it, a violation takes its run's interleaving instead
/// of a copy, and a snapshot is one block (17.08 before that; 22.39 when
/// every recording run deep-copied its whole outcome vector and states into
/// a memo of its own and the fault product cloned each plan's list).
#[test]
fn a_subsuming_fault_product_allocates_a_pinned_number_of_blocks_per_run() {
    let config = ReplayConfig {
        mode: ExploreMode::Dfs,
        cap: 10_000,
        workers: 1,
        subsumption: true,
        ..ReplayConfig::default()
    };
    let mut session = Session::with_config(TownApp::new(2), config, Attachments::default());
    session.record(town::record_town);
    session.set_fault_space(er_pi_interleave::FaultSpace::all(1));
    let suite = TownApp::invariant();
    let (blocks, report) = blocks_during(|| session.replay(&suite).expect("recorded"));
    assert_eq!(report.explored, 10_000);
    let stats = report.cache_stats.expect("subsuming replay reports stats");
    assert!(stats.subsumed > 7_000, "{} runs subsumed", stats.subsumed);
    let per_run = blocks as f64 / report.explored as f64;
    assert!(per_run <= 12.0, "fault-subsume: {per_run} blocks per run");
}

/// Blocks per run of `benchmark/`'s `catalogue` sweep: the twelve bugs of
/// Table 1 in ER-π mode, capped at 10 000, one worker, session defaults,
/// every violation kept.
///
/// Every run ends in the bug's check, pass or fail, so this is the pin on
/// what a check costs: it reads the replica states in place and formats its
/// symptom only when the bug manifested. It measures 30.69 blocks per run;
/// 41.46 while the checks snapshotted JSON subtrees, collected keys and
/// list items into vectors and turned every log payload into a string to
/// compare it, on every run.
#[test]
fn the_catalogue_sweep_allocates_a_pinned_number_of_blocks_per_run() {
    let config = ReplayConfig {
        cap: 10_000,
        workers: 1,
        ..ReplayConfig::default()
    };
    let (mut blocks, mut runs) = (0, 0);
    for bug in Bug::catalogue() {
        let (counted, report) = blocks_during(|| bug.replay_report_opts(&config));
        assert!(!report.violations.is_empty(), "{}: reproduced", bug.name);
        blocks += counted;
        runs += report.explored;
    }
    assert_eq!(runs, 92_160, "the sweep is fixed");
    let per_run = blocks as f64 / runs as f64;
    assert!(per_run <= 30.7, "catalogue: {per_run} blocks per run");
}

/// The engine's own blocks: a fault-free DFS campaign over a model whose
/// state is a `u64` and whose `apply` allocates nothing, checked by an
/// assertion that reads the states in place. What is left per run is the
/// interleaving the dispenser hands out and one block per snapshot the path
/// stores (its states, beside their reference count) — the executor is a
/// cursor, so a run brings no `states` and no `outcomes` vector of its own,
/// and the dispenser remembers nothing. 1.76 blocks per run; 2.47 while a
/// snapshot was two blocks (a reference count pointing at a `Vec`), 3.98
/// when every run built its two vectors. Scratch replay is the same cursor
/// keeping no snapshot, so a run costs the interleaving alone: 1.006 (3.006
/// while scratch replay had an executor of its own, which built a run's
/// `states` and `outcomes` afresh).
#[test]
fn the_engine_allocates_a_pinned_number_of_blocks_per_run() {
    struct Tally;

    impl SystemModel for Tally {
        type State = u64;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> u64 {
            0
        }

        fn apply(&self, states: &mut [u64], event: &er_pi_model::Event) -> er_pi::OpOutcome {
            let at = event.replica.index();
            states[at] = states[at].wrapping_mul(31) + u64::from(event.id.raw());
            er_pi::OpOutcome::Applied
        }

        fn observe(&self, state: &u64) -> Value {
            Value::from(*state as i64)
        }
    }

    let blocks_per_run = |incremental: bool| {
        let config = ReplayConfig {
            mode: ExploreMode::Dfs,
            cap: 10_000,
            workers: 1,
            incremental,
            ..ReplayConfig::default()
        };
        let mut session = Session::with_config(Tally, config, Attachments::default());
        session.record(|app| {
            for i in 0..8u16 {
                app.invoke(ReplicaId::new(i % 2), "bump", [Value::from(i64::from(i))]);
            }
        });
        let suite = er_pi::TestSuite::new().with_assertion("two replicas", |ctx| {
            (ctx.states.len() == 2)
                .then_some(())
                .ok_or_else(|| "a replica went missing".to_owned())
        });
        let (blocks, report) = blocks_during(|| session.replay(&suite).expect("recorded"));
        assert_eq!(report.explored, 10_000);
        assert!(report.violations.is_empty());
        blocks as f64 / report.explored as f64
    };
    let per_run = blocks_per_run(true);
    assert!(per_run <= 1.8, "the engine alone: {per_run} blocks per run");
    let scratch = blocks_per_run(false);
    assert!(scratch <= 1.5, "scratch replay: {scratch} blocks per run");
}
