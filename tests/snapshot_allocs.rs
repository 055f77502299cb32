//! A snapshot of any shipped subject allocates one block: the array that
//! holds one pointer per replica (a path copies it into the emptied block of
//! a snapshot no path holds any more, so there it allocates nothing once the
//! campaign is under way). Everything else the incremental executor, the
//! subsumption memo and a stitched tail do with replica states is a
//! `clone()` of exactly this kind, so this is the number their cost rests
//! on. What they do with an outcome is a `clone()` too, and that allocates
//! nothing. The copy a write makes after the cursor refills its states
//! from a snapshot goes into the value the refill displaced, and that
//! allocates nothing either.
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

#[path = "suite/common/town.rs"]
mod town;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use er_pi::telemetry::Registry;
use er_pi::{
    Attachments, ExploreMode, InlineExecutor, OpOutcome, ReplayConfig, Session, SessionMetrics,
    SystemModel, TimeModel,
};
use er_pi_interleave::{ErPiExplorer, Explorer, PruningConfig};
use er_pi_model::{EventId, EventKind, Interleaving, ReplicaId, Value, Workload};
use er_pi_subjects::{Bug, CrdtsModel, LedgerApp, OrbitModel, OrbitReplica, TownApp};

thread_local! {
    /// Blocks allocated by this thread since counting began; `None` while
    /// it is not counting.
    static BLOCKS: Cell<Option<u64>> = const { Cell::new(None) };
    /// Blocks freed by this thread since counting began.
    static FREED: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

// SAFETY: every request is passed to `System` unchanged; the only addition
// is two thread-local counters that themselves never allocate (`const`
// initializer, no destructor). `realloc` and `alloc_zeroed` keep their
// default bodies, which go through `alloc` (and `dealloc`), so a grown block
// counts as a block.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread that is tearing its locals down is not counting.
        let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get().map(|n| n + 1)));
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREED.try_with(|freed| freed.set(freed.get().map(|n| n + 1)));
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

/// Runs `f` and returns how many more blocks this thread allocated than it
/// freed meanwhile: what `f`'s result (or anything else) still holds.
fn held_after<R>(f: impl FnOnce() -> R) -> (i64, R) {
    FREED.with(|freed| freed.set(Some(0)));
    let (blocks, out) = blocks_during(f);
    let freed = FREED.with(|freed| freed.take()).expect("counting");
    (blocks as i64 - freed as i64, out)
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
            series.insert("key", name(i), i as u64);
        }
        copy_then(&series, |series| {
            series.insert("key", name(0), 100);
        })
    });
}

/// An applied operation allocates only what it keeps: its own `Arc` and
/// the collections stored inside it. A string it carries is a handle the
/// caller or the replica already holds, and no temporary is built to be
/// thrown away.
///
/// - An `OrSet` remove of a one-tag element copies the tag inline: with
///   room in the log and a node in the removed-tag tree, it allocates its
///   operation's `Arc` and nothing else (2 blocks while the observed tags
///   were a `Vec`).
/// - Every entry a `MerkleLog` appends shares the log's writer identity,
///   and so does every entry a copy of the log appends (one block per
///   append and per copy while the identity was a `String`).
/// - A `JsonDoc::set_object` key is the handle passed in, in the operation
///   and in the document (one block per key for the operation's `String`
///   and one per key and apply for the document's key).
/// - A `DotContext` copied over an equal one keeps its cloud (one block per
///   tree node while `clone_from` cloned the tree).
#[test]
fn an_applied_operation_allocates_only_what_it_keeps() {
    use er_pi_model::{Dot, DotContext};
    use er_pi_rdl::{DocOp, JsonDoc, JsonView, MerkleLog, OrSet};

    let a = ReplicaId::new(0);

    let mut set = OrSet::new(a);
    for element in 0..5i64 {
        set.insert(element);
    }
    set.remove(&0);
    // Six operations in a log of capacity eight, one removed tag.
    let (blocks, removed) = blocks_during(|| set.remove(&1).is_some());
    assert!(removed && !set.contains(&1));
    assert_eq!(blocks, 1, "an OrSet remove of a one-tag element");

    let mut log = MerkleLog::new(a, "alice");
    let first = log.append(Value::from(1));
    let mut copy = log.clone();
    let entries = [log.append(Value::from(2)), copy.append(Value::from(3))];
    for entry in &entries {
        assert!(Arc::ptr_eq(&entry.identity, &first.identity));
    }
    assert!(std::ptr::eq(
        first.identity.as_ptr(),
        log.identity().as_ptr()
    ));

    let key: Arc<str> = Arc::from("theme");
    let mut doc = JsonDoc::new(a);
    let fields = [(Arc::clone(&key), Value::from("dark"))].into();
    let op = doc
        .set_object(&["settings"], fields)
        .expect("an object path");
    let DocOp::SetObject { entries, .. } = &*op else {
        panic!("set_object records a SetObject: {op:?}");
    };
    assert!(Arc::ptr_eq(entries.keys().next().expect("one key"), &key));
    let view = doc.view(&["settings"]).and_then(JsonView::entries);
    let (held, _) = view.and_then(|mut e| e.next()).expect("one visible field");
    assert!(Arc::ptr_eq(held, &key));

    let mut context = DotContext::new();
    for counter in [1, 3, 5, 7] {
        context.add(Dot::new(a, counter));
    }
    assert_eq!(context.cloud_len(), 3);
    let mut stale = context.clone();
    let (blocks, ()) = blocks_during(|| stale.clone_from(&context));
    assert_eq!(blocks, 0, "a DotContext copied over an equal one");
    assert_eq!(stale, context);
}

/// After a refill, the copy a write makes goes into the value the refill
/// displaced: for every subject replica, at every step of its recordings
/// that wrote a replica, copying the snapshot's replica into the value the
/// step left behind allocates no block where a copy of the snapshot
/// allocates some. The one exception is the receiving end of a split sync,
/// which consumed an inbox payload the snapshot still holds: the copy
/// builds that payload again, and only that.
///
/// The engine refills with `clone_from` ([`er_pi_rdl::Shared`] retires the
/// value it displaces) and applies the next event, whose first write
/// through the cell is the copy counted here — of the replica, and of the
/// store, log or document cell inside it when the step wrote that too.
#[test]
fn a_write_after_a_refill_copies_into_the_retired_value_without_a_block() {
    use er_pi_rdl::Shared;
    use er_pi_subjects::{
        ReplicaDbModel, ReplicationMode, RoshiModel, RoshiReplica, SubjectKind, YorkieModel,
        YorkieReplica,
    };

    /// A replica's nested cell: the address of its value, and a write
    /// through it.
    type Inner<R> = (fn(&R) -> *const u8, fn(&mut R));

    fn assert_copies_in_place<R: Clone + std::fmt::Debug, M: SystemModel<State = Shared<R>>>(
        subject: &str,
        model: &M,
        workload: &Workload,
        inner: Option<Inner<R>>,
    ) {
        let mut snapshot = model.init_all();
        let mut copies = 0;
        for &id in workload.recorded_order().iter() {
            let event = workload.event(id);
            let mut run = snapshot.clone();
            model.apply(&mut run, event);
            let written: Vec<(usize, bool)> = (0..run.len())
                .filter(|&at| !Shared::ptr_eq(&run[at], &snapshot[at]))
                .map(|at| {
                    let wrote = inner.is_some_and(|(of, _)| of(&run[at]) != of(&snapshot[at]));
                    (at, wrote)
                })
                .collect();
            let receiver = match event.kind {
                EventKind::SyncExec { .. } => Some(event.replica.index()),
                _ => None,
            };
            run.clone_from(&snapshot);
            for &(at, wrote_inner) in &written {
                let copy = |replica: &mut Shared<R>| {
                    let replica: &mut R = replica;
                    if let Some((_, write)) = inner.filter(|_| wrote_inner) {
                        write(replica);
                    }
                };
                let (fresh, ()) = blocks_during(|| copy(&mut snapshot.clone()[at]));
                let (reused, ()) = blocks_during(|| copy(&mut run[at]));
                assert!(fresh > 0, "{subject}, {event}: a plain copy allocates");
                match receiver == Some(at) {
                    false => assert_eq!(reused, 0, "{subject}, {event}: blocks"),
                    true => assert!(reused < fresh, "{subject}, {event}: {reused} blocks"),
                }
                assert_eq!(format!("{:?}", *run[at]), format!("{:?}", *snapshot[at]));
                copies += 1;
            }
            model.apply(&mut snapshot, event);
        }
        assert!(copies > 0, "{subject}: no step wrote");
    }

    let r = ReplicaId::new;
    let town = TownApp::new(2);
    let mut w = Workload::builder();
    let ev1 = w.update(r(0), "add", [Value::from("otb")]);
    w.sync_pair(r(0), r(1), ev1);
    let ev2 = w.update(r(1), "add", [Value::from("ph")]);
    w.sync_pair(r(1), r(0), ev2);
    let ev3 = w.update(r(1), "remove", [Value::from("otb")]);
    w.sync_pair(r(1), r(0), ev3);
    w.external(r(0), "transmit");
    assert_copies_in_place("town", &town, &w.build(), None);

    fn write_through<T: Clone>(cell: &mut Shared<T>) {
        let _: &mut T = cell;
    }
    let roshi: Inner<RoshiReplica> = (
        |r| &*r.store as *const _ as _,
        |r| write_through(&mut r.store),
    );
    let orbit: Inner<OrbitReplica> = (|r| &*r.log as *const _ as _, |r| write_through(&mut r.log));
    let yorkie: Inner<YorkieReplica> =
        (|r| &*r.doc as *const _ as _, |r| write_through(&mut r.doc));
    for bug in Bug::catalogue() {
        let (w, name) = (bug.workload(), bug.name);
        let replicas = w.replicas().len();
        match bug.subject {
            SubjectKind::Roshi => {
                assert_copies_in_place(name, &RoshiModel::new(replicas), w, Some(roshi))
            }
            SubjectKind::OrbitDb => {
                assert_copies_in_place(name, &OrbitModel::new(replicas), w, Some(orbit))
            }
            SubjectKind::Yorkie => {
                assert_copies_in_place(name, &YorkieModel::new(replicas), w, Some(yorkie))
            }
            SubjectKind::ReplicaDb => {
                let model = ReplicaDbModel::new(ReplicationMode::Complete, u64::MAX);
                assert_copies_in_place(name, &model, w, None)
            }
            SubjectKind::Crdts => unreachable!("Table 1 has no crdts bug"),
        }
    }

    let mut w = Workload::builder();
    for i in 0..8i64 {
        let (at, next) = (r((i % 3) as u16), r(((i + 1) % 3) as u16));
        let add = w.update(at, "set_add", [Value::from(i)]);
        w.update(at, "list_push", [Value::from(i)]);
        w.sync_split(at, next, Some(add));
    }
    assert_copies_in_place("crdts", &CrdtsModel::new(3), &w.build(), None);

    let mut w = Workload::builder();
    let credit = w.update(r(0), "credit", [Value::from(100)]);
    w.sync_pair(r(0), r(1), credit);
    w.update(r(1), "credit", [Value::from(5)]);
    assert_copies_in_place("ledger", &LedgerApp::new(2), &w.build(), None);
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
/// applied event first copies the replica it writes; it measures 4.11 now
/// that an OR-set remove copies its one observed tag inline (4.85 once a
/// handle kept two values a refill displaced, so a second copy of
/// one replica in one run goes into the other; 6.69 once the dispenser
/// wrote each interleaving over a buffer its slot keeps and a snapshot was
/// built in the emptied block of one no path holds any more; 7.62 once a
/// sync between OR-sets walked the sender's log in place
/// instead of shipping a delta `Vec`, and the snapshot a run resumes from
/// was dropped on its last use even when the next run shares more; 8.69
/// once an issue was
/// the handle of the argument that added it and a transmit
/// built one list its outcome and its replica share; 12.16 while each add,
/// remove and transmit copied the issue strings, once the copy went into the
/// one the refill before the run displaced, field by field; 19.53 while every such copy was fresh and the refill
/// freed it; 20.98 before a snapshot was one block and an outcome cloned as
/// a handle; 26.09 before the executor rewrote the previous run's buffers
/// in place, the dispenser stopped keeping fingerprints and a version
/// vector moved inline into its replica; 43.92 while a copy duplicated the
/// op log, the elements and the transmitted list). Random order applies
/// 99 % of its events to states no snapshot holds and shares next to
/// nothing with the run before it, so it is the pin on what sharing — of
/// structures and of buffers — costs where there is nothing to share:
/// 6.36 with a remove's tag inline (7.10 with two spares per handle, a
/// retried shuffle redrawn in the same buffer; 7.41, 8.02, 9.87, 17.58,
/// 24.85, 25.70, 29.65, 40.35).
///
/// Under default retention a run leaves a `(sim_us, failed_ops)` row and
/// nothing else — no `observe`, no `RunRecord`. With `keep_runs` every run
/// builds its record (interleaving + observations): no benchmark workload
/// takes that path, so this is what holds it: 10.70 with a remove's tag
/// inline (11.45 with two spares per handle, the record taking its run's
/// interleaving out of the slot's buffer, which the next claim refills;
/// 13.28; 14.00; 15.07, 22.60, 29.97, 30.63, 35.74).
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
    assert!(dfs <= 4.15, "DFS order: {dfs} blocks per run");
    assert!(random <= 6.43, "Random order: {random} blocks per run");
    assert!(kept <= 10.81, "keep_runs: {kept} blocks per run");
}

/// Blocks per run of `benchmark/`'s `fault-subsume` campaign: the same town
/// recording in DFS order under every one-fault plan (27 plans), with
/// state-hash subsumption, capped at 10 000, one worker.
///
/// Nine in ten of its runs are answered from the explored-set, so much of
/// what a run costs there is what recording it costs. It measures 3.28 now
/// that an OR-set remove copies its one observed tag inline; 3.45 once a
/// handle kept two values a refill displaced; 3.52 once the product
/// wrote its base order into the slot's buffers instead of cloning it for
/// each plan, and a snapshot reused the emptied block of one no path holds;
/// 4.12 once a claim held whole base orders (27 runs)
/// and each faulted run snapshotted only where the next runs of its own
/// plan branch off, the fault-free plan keeping every depth for the others
/// to borrow; 5.23
/// while every run kept every depth, once a sync between OR-sets applied
/// the sender's log in place; 5.43 once
/// an issue string was shared by the argument, the set and the
/// transmitted list; 6.42 while each of them copied it, once the key held
/// what fired faults left live rather than the whole plan, so runs stitch
/// tails recorded under other plans, and the fault interpreter's delay
/// queue was kept from run to run; 10.07 while each plan
/// was a key space of its own and three quarters of the runs were subsumed,
/// once a write after a refill or a stitched tail copied into the value the
/// refill displaced (10.81 before that; 11.50 before an outcome cloned as a
/// handle — a failure reason is a static string, an observation is shared —
/// wherever the cursor, the paths, the memos and stitched tails copy it, a
/// violation took its run's interleaving instead of a copy, and a snapshot
/// was one block; 17.08 before that; 22.39 when every recording run
/// deep-copied its whole outcome vector and states into a memo of its own
/// and the fault product cloned each plan's list).
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
    assert!(stats.subsumed > 9_000, "{} runs subsumed", stats.subsumed);
    let per_run = blocks as f64 / report.explored as f64;
    assert!(per_run <= 3.32, "fault-subsume: {per_run} blocks per run");
}

/// What the town campaign's report holds once the campaign is gone: one
/// block per violation, the run's order. Its 7 900 violations fail with one
/// message, which the replay slot stores once and every violation shares.
/// Each violation kept its own copy of the message, the block `format!`
/// sized, while the report held 2.0 blocks per violation.
#[test]
fn a_town_report_holds_one_block_per_violation() {
    let config = ReplayConfig {
        mode: ExploreMode::Dfs,
        cap: 10_000,
        workers: 1,
        ..ReplayConfig::default()
    };
    let mut session = Session::with_config(TownApp::new(2), config, Attachments::default());
    session.record(town::record_town);
    let suite = TownApp::invariant();
    let (held, report) = held_after(|| session.replay(&suite).expect("recorded"));
    assert_eq!(report.violations.len(), 7_900);
    let per_violation = held as f64 / report.violations.len() as f64;
    assert!(
        per_violation <= 1.01,
        "the town report holds {held} blocks, {per_violation} per violation"
    );
}

/// Rendering the town campaign's report (`Report::canonical_json`, what
/// `GET /campaigns/:id/report` serves and the benchmark renders in its
/// set-up) writes it into one buffer, reserved once, with each violation
/// written in place, so the blocks it asks for do not grow with the
/// violations: the buffer, and the small trees of the fields that go
/// through `serde_json::push_json`. Rendered at cap 1 000 (600 violations)
/// and at cap 10 000 (7 900 violations, 1 414 050 bytes), it measures 20
/// blocks at both. Built as a `Content` tree of the whole report (every
/// field name a fresh `String`, the tree cloned again by the writer, each
/// integer written through `to_string`), the same two renders measured
/// 19 893 and 260 797 blocks, about 33 per violation.
#[test]
fn a_report_renders_in_a_constant_number_of_blocks() {
    let render = |cap: usize| {
        let config = ReplayConfig {
            mode: ExploreMode::Dfs,
            cap,
            workers: 1,
            ..ReplayConfig::default()
        };
        let mut session = Session::with_config(TownApp::new(2), config, Attachments::default());
        session.record(town::record_town);
        let report = session.replay(&TownApp::invariant()).expect("recorded");
        let (blocks, json) = blocks_during(|| report.canonical_json());
        (report.violations.len(), blocks, json.len())
    };
    let (few, few_blocks, _) = render(1_000);
    let (many, many_blocks, bytes) = render(10_000);
    assert_eq!(
        (many, bytes),
        (7_900, 1_414_050),
        "the town report is fixed"
    );
    assert!(few < many, "{few} violations at cap 1 000");
    assert_eq!(
        few_blocks, many_blocks,
        "{few} violations rendered in {few_blocks} blocks, {many} in {many_blocks}"
    );
    assert!(
        many_blocks <= 20,
        "the town report rendered in {many_blocks} blocks"
    );
}

/// Blocks per run of `benchmark/`'s `catalogue` sweep: the twelve bugs of
/// Table 1 in ER-π mode, capped at 10 000, one worker, session defaults,
/// every violation kept.
///
/// Every run ends in the bug's check, pass or fail, so this is the pin on
/// what a check costs: it reads the replica states in place and formats its
/// symptom only when the bug manifested. It measures 7.52 blocks per run
/// now that an applied operation allocates only what it keeps: a Merkle
/// entry shares its log's writer identity, a document object shares the
/// keys its `set_object` was handed, a batch read goes straight into the
/// sink's staging buffer, a dot context copies its cloud into the one it
/// has and the failed-ops filter reads positions off the order; 8.97 once
/// a handle kept two values a refill displaced; 10.68 once ER-π
/// flattened each candidate into the slot's buffer, its independence
/// filter read a per-set index built with the explorer instead of two hash
/// sets per candidate (ReplicaDB-1 and -2 fall by 3.8 and 3.5), and a
/// snapshot reused the emptied block of one no path holds; 12.77 once a
/// run snapshotted only the depths a later run of its chunk
/// branches off at (no depth inside one of ER-π's grouped units) and a
/// Yorkie update read its path and its object in place; 15.44 once a
/// string was allocated once and shared — a `Value::Str`, a
/// time-series key or member, a document path segment — and a Merkle
/// entry's hash streamed its fields instead of rendering them; 24.72 while
/// every clone of an argument, an observation or an array element copied
/// its text, once a write after a refill copied into the replica the refill
/// displaced, touching only what differs; 30.69 while each such copy was
/// fresh; 41.46 while the checks snapshotted JSON subtrees, collected keys
/// and list items into vectors and turned every log payload into a string
/// to compare it, on every run.
///
/// The sweep-wide figure averages one bug's regression away, so the two
/// bugs that allocate most per run are pinned on their own. Roshi-3 (the
/// bulk of the benchmark's time to first violation) measures 8.23 with two
/// spares per handle (11.65 with one; 13.43 while each run's interleaving
/// and each snapshot were blocks of their own, half its snapshots gone
/// with the depths inside its units; 18.50 once its store kept the
/// recorded argument strings by handle; 53.34 while each insert or delete
/// copied its key and member twice, each cell write copied the key again,
/// and every copy of the store or a page copied the strings it held).
/// Yorkie-1 measures 17.48 with two spares per handle (19.40 with one;
/// 20.88 while each run's interleaving and each snapshot were blocks of
/// their own, once a local update handed its path to the document from the
/// stack and read an object's keys and fields in place; 23.25 once its
/// array elements and ops shared their strings and a path was the
/// document's own key handles; 39.68). Neither moved when an applied
/// operation stopped allocating what it does not keep: none of the blocks
/// that removed occurs in their runs.
#[test]
fn the_catalogue_sweep_allocates_a_pinned_number_of_blocks_per_run() {
    let config = ReplayConfig {
        cap: 10_000,
        workers: 1,
        ..ReplayConfig::default()
    };
    let (mut blocks, mut runs, mut per_bug) = (0, 0, Vec::new());
    for bug in Bug::catalogue() {
        let (counted, report) = blocks_during(|| bug.replay_report_opts(&config));
        assert!(!report.violations.is_empty(), "{}: reproduced", bug.name);
        per_bug.push((bug.name, counted as f64 / report.explored as f64));
        blocks += counted;
        runs += report.explored;
    }
    assert_eq!(runs, 92_160, "the sweep is fixed");
    let per_run = blocks as f64 / runs as f64;
    assert!(per_run <= 7.6, "catalogue: {per_run} blocks per run");
    let bug = |name: &str| {
        per_bug
            .iter()
            .find(|(bug, _)| *bug == name)
            .expect("catalogued")
            .1
    };
    let (roshi, yorkie) = (bug("Roshi-3"), bug("Yorkie-1"));
    assert!(roshi <= 8.32, "Roshi-3: {roshi} blocks per run");
    assert!(yorkie <= 17.66, "Yorkie-1: {yorkie} blocks per run");
}

/// The engine's own blocks: a fault-free DFS campaign over a model whose
/// state is a `u64` and whose `apply` allocates nothing, checked by an
/// assertion that reads the states in place. Nothing is left per run: the
/// dispenser writes each interleaving over a buffer the slot keeps from
/// claim to claim, a snapshot is built in the emptied block of one no path
/// holds any more, the executor is a cursor (a run brings no `states` and
/// no `outcomes` vector of its own) and the dispenser remembers nothing.
/// What it measures, 0.012 blocks per run, is allocated once per
/// campaign: the slot's buffers, the cursor's and the path's. 1.73 while each
/// dispensed interleaving and each stored snapshot was a block of its own,
/// once a run snapshotted only the depths a later run of its chunk
/// branches off at; 1.76 while it kept every depth it shared with the next
/// run; 2.47 while a snapshot was two blocks (a reference count pointing
/// at a `Vec`), 3.98 when every run built its two vectors. Scratch replay
/// is the same cursor keeping no snapshot: 0.009 (1.006 while each run
/// was handed an interleaving of its own, 3.006 while scratch replay had
/// an executor of its own, which built a run's `states` and `outcomes`
/// afresh).
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
    assert!(
        per_run <= 0.05,
        "the engine alone: {per_run} blocks per run"
    );
    let scratch = blocks_per_run(false);
    assert!(scratch <= 0.015, "scratch replay: {scratch} blocks per run");
}

/// The ER-π causal filter allocates nothing per candidate: it checks an
/// order in one pass over a seen-table the explorer keeps from candidate
/// to candidate, reading each event's dependencies in place. Eight updates
/// on two replicas, one of them depending on another, every other filter
/// off, so each of the 8! candidates reaches it and half of them fail: the
/// candidates after the first (which sizes the buffer and the table)
/// allocate no block. 3 blocks per candidate while the check built a
/// permutation table, a position table and a dependency list per
/// dependent event.
#[test]
fn the_causal_filter_allocates_nothing_per_candidate() {
    let mut w = Workload::builder();
    let e: Vec<EventId> = (0..8)
        .map(|i| w.update(ReplicaId::new(i % 2), "op", [Value::from(i64::from(i))]))
        .collect();
    w.depends(e[6], e[1]);
    let workload = w.build();
    let config = PruningConfig {
        require_causal: true,
        ..PruningConfig::default()
    };
    let mut explorer = ErPiExplorer::new(&workload, &config);
    let mut buf = Interleaving::default();
    assert!(explorer.fill(&mut buf));
    let (blocks, emitted) = blocks_during(|| {
        let mut emitted = 1;
        while explorer.fill(&mut buf) {
            emitted += 1;
        }
        emitted
    });
    let stats = explorer.stats();
    assert_eq!(
        (stats.causal_checked, stats.causal_rejected),
        (40_320, 20_160)
    );
    assert_eq!(emitted, 20_160);
    assert_eq!(blocks, 0, "the causal filter over 40 320 candidates");
}

/// The ER-π failed-ops filter allocates nothing per candidate: it reads the
/// rule's positions off the order in passes. Eight updates on two replicas
/// and one rule whose three successors all follow its predecessor in a
/// quarter of the orders, every other filter off, so each of the 8!
/// candidates reaches it and the rule fires on 10 080 of them: the
/// candidates after the first (which sizes the buffer) allocate no block.
/// One block per candidate while the check collected the successors'
/// positions into a vector to sort.
#[test]
fn the_failed_ops_filter_allocates_nothing_per_candidate() {
    use er_pi_interleave::FailedOpsRule;

    let mut w = Workload::builder();
    let e: Vec<EventId> = (0..8)
        .map(|i| w.update(ReplicaId::new(i % 2), "op", [Value::from(i64::from(i))]))
        .collect();
    let workload = w.build();
    let config = PruningConfig::default().with_failed_ops(FailedOpsRule {
        predecessors: vec![e[0]],
        successors: vec![e[5], e[6], e[7]],
    });
    let mut explorer = ErPiExplorer::new(&workload, &config);
    let mut buf = Interleaving::default();
    assert!(explorer.fill(&mut buf));
    let (blocks, emitted) = blocks_during(|| {
        let mut emitted = 1;
        while explorer.fill(&mut buf) {
            emitted += 1;
        }
        emitted
    });
    let stats = explorer.stats();
    assert_eq!(
        (stats.failed_ops_checked, stats.failed_ops_rejected),
        (40_320, 8_400)
    );
    assert_eq!(emitted, 31_920);
    assert_eq!(blocks, 0, "the failed-ops filter over 40 320 candidates");
}
