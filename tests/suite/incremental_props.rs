//! Property tests for the incremental executor's cache behaviour.
//!
//! The path cache is a pure accelerator: *which* snapshots happen to be
//! resident when a run starts must never leak into the report. These
//! properties drive randomized workloads through wildly different budgets
//! — 0 (every run from scratch), ∞ (no store ever refused) and a small
//! random budget (most stores refused) — and require the merged report to
//! diff clean against scratch replay every time, sequentially and under the
//! pool. A campaign's budget is fixed, so there the model's
//! `state_size_hint` makes it bind: a hint above the budget refuses every
//! snapshot, a scaled one stands for a small budget. The first property drives the executor directly, in no
//! explorer's order — repeats, plan switches between consecutive runs, plans
//! that share a prefix with the fault-free trunk, plans that stack two
//! faults — with arbitrary lookaheads (the true branch depths of the next
//! few runs, none, or entries that lie), reading each run borrowed from the
//! cursor, taking it out owned, or blowing it up half way.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;

use proptest::prelude::*;

use crate::common::town::record_town;
use crate::steps::{arb_steps, build_workload};
use er_pi::{
    Attachments, ExecutionRef, ExploreMode, IncrementalExecutor, InlineExecutor, OpOutcome,
    ReplayConfig, Report, Session, SystemModel, TestSuite, TimeModel, DEFAULT_CACHE_BUDGET,
};
use er_pi_interleave::{enumerate_plans, DfsExplorer, FaultProduct, FaultSpace};
use er_pi_model::{
    Event, EventId, EventKind, FaultEvent, FaultKind, FaultPlan, Interleaving, ReplicaId, Value,
    Workload,
};
use er_pi_subjects::TownApp;

/// Two-replica last-write-wins register with a heap-owning state, so
/// snapshots exercise real deep clones and a non-trivial
/// `state_size_hint`.
struct HistMachine;

impl SystemModel for HistMachine {
    type State = Vec<i64>;

    fn replicas(&self) -> usize {
        2
    }

    fn init(&self, _replica: ReplicaId) -> Vec<i64> {
        Vec::new()
    }

    fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
        match &event.kind {
            EventKind::LocalUpdate { op } => {
                let v = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                states[event.replica.index()].push(v);
                OpOutcome::Applied
            }
            EventKind::Sync { to, .. } => {
                let from = states[event.replica.index()].clone();
                states[to.index()] = from;
                OpOutcome::Applied
            }
            _ => OpOutcome::failed("unsupported"),
        }
    }

    fn observe(&self, state: &Vec<i64>) -> Value {
        Value::from(state.iter().copied().sum::<i64>())
    }

    fn state_size_hint(&self, state: &Vec<i64>) -> usize {
        std::mem::size_of::<Vec<i64>>() + state.len() * std::mem::size_of::<i64>()
    }
}

/// [`HistMachine`] with its `state_size_hint` multiplied by `scale`: under
/// the campaign's fixed [`DEFAULT_CACHE_BUDGET`], its snapshots are refused
/// where a budget of `DEFAULT_CACHE_BUDGET / scale` bytes would refuse the
/// plain machine's.
struct Scaled {
    scale: usize,
}

/// Every snapshot of a [`Scaled`] machine at this scale is charged more
/// than the whole budget: a cache that refuses everything.
const REFUSING: usize = DEFAULT_CACHE_BUDGET;

impl SystemModel for Scaled {
    type State = Vec<i64>;

    fn replicas(&self) -> usize {
        HistMachine.replicas()
    }

    fn init(&self, replica: ReplicaId) -> Vec<i64> {
        HistMachine.init(replica)
    }

    fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
        HistMachine.apply(states, event)
    }

    fn observe(&self, state: &Vec<i64>) -> Value {
        HistMachine.observe(state)
    }

    fn state_size_hint(&self, state: &Vec<i64>) -> usize {
        HistMachine.state_size_hint(state) * self.scale
    }
}

/// [`HistMachine`] with a fuse: applying the armed event panics.
struct Fused {
    armed: AtomicU32,
}

const UNARMED: u32 = u32::MAX;

impl SystemModel for Fused {
    type State = Vec<i64>;

    fn replicas(&self) -> usize {
        HistMachine.replicas()
    }

    fn init(&self, replica: ReplicaId) -> Vec<i64> {
        HistMachine.init(replica)
    }

    fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
        if event.id.raw() == self.armed.load(Ordering::Relaxed) {
            panic!("{FUSE}");
        }
        HistMachine.apply(states, event)
    }

    fn observe(&self, state: &Vec<i64>) -> Value {
        HistMachine.observe(state)
    }

    fn state_size_hint(&self, state: &Vec<i64>) -> usize {
        HistMachine.state_size_hint(state)
    }
}

const FUSE: &str = "the armed event was applied";

/// Keeps the fuse's panics off stderr; every other panic prints as usual.
fn silence_the_fuse() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let fuse = info.payload().downcast_ref::<String>();
            if fuse.is_none_or(|message| message != FUSE) {
                default(info);
            }
        }));
    });
}

/// A campaign over `workload`: incremental on a [`Scaled`] machine at
/// `scale`, or — for `None` — scratch replay of the plain one.
fn replay(workload: &Workload, mode: ExploreMode, workers: usize, scale: Option<usize>) -> Report {
    fn on<M: SystemModel + Sync>(model: M, workload: &Workload, mode: ExploreMode) -> Session<M> {
        let mut session = Session::new(model);
        session.set_workload(workload.clone());
        session.set_mode(mode);
        session.set_keep_runs(true);
        session.set_cap(100_000);
        session
    }
    let suite = TestSuite::new();
    match scale {
        Some(scale) => on(Scaled { scale }, workload, mode)
            .set_workers(workers)
            .set_incremental(true)
            .replay(&suite),
        None => on(HistMachine, workload, mode)
            .set_workers(workers)
            .set_incremental(false)
            .replay(&suite),
    }
    .unwrap()
}

/// The scales that stand for budgets 0, ∞ and `random_budget` bytes.
fn scales(random_budget: usize) -> [usize; 3] {
    [REFUSING, 1, DEFAULT_CACHE_BUDGET / random_budget]
}

fn failed(outcomes: &[OpOutcome]) -> usize {
    outcomes.iter().filter(|o| o.is_failed()).count()
}

/// One run of a generated sequence: keep the first `keep` events of the
/// previous order and shuffle the rest by `shuffle` (so sequences share
/// prefixes the way explorer streams do — `keep` past the end repeats the
/// order), under plan number `plan`, told `lookahead` of the runs after it
/// and read as `take` says.
#[derive(Debug, Clone)]
struct Draw {
    keep: usize,
    shuffle: u64,
    plan: usize,
    lookahead: Lookahead,
    take: Take,
}

/// How a run leaves the executor.
#[derive(Debug, Clone)]
enum Take {
    /// `advance` + `run`: the campaign's reading, the cursor keeps the run.
    Borrowed,
    /// `execute` (unhinted): the buffers leave, the cursor is empty
    /// afterwards.
    Owned,
    /// `advance` with the event at this position (modulo the length) armed:
    /// unwinds unless the run resumes past it.
    Unwound(usize),
}

/// What a run is told of the runs after it.
#[derive(Debug, Clone)]
enum Lookahead {
    /// The true branch depths of up to this many runs after it, up to the
    /// first plan change: what a campaign's chunk tells it.
    Right(usize),
    /// Nothing: nothing is known, or the next run is under another plan.
    Absent,
    /// Up to this many entries drawn from the seed, each a depth up to one
    /// past the workload: a lie, shallower or deeper. A draw of one in
    /// eight ends it early.
    Lying(u64, usize),
    /// The true depth to the next run, then lies; nothing at a plan change.
    RightThenLying(u64, usize),
}

impl Lookahead {
    /// The entries run `i` of a sequence whose true branch depths are
    /// `truth` (`None` where the plan changes) is handed, for a workload of
    /// `n` events.
    fn entries(&self, truth: &[Option<u32>], i: usize, n: usize) -> Vec<u32> {
        let right = truth.get(i..).unwrap_or_default();
        let lie = |mut seed: u64, len: usize| -> Vec<u32> {
            let draws = std::iter::repeat_with(move || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match (seed >> 33) % 8 {
                    0 => None,
                    _ => Some(((seed >> 40) % (n as u64 + 2)) as u32),
                }
            });
            draws.take(len).map_while(|depth| depth).collect()
        };
        match *self {
            Lookahead::Right(len) => right.iter().take(len).map_while(|&depth| depth).collect(),
            Lookahead::Absent => Vec::new(),
            Lookahead::Lying(seed, len) => lie(seed, len),
            Lookahead::RightThenLying(seed, len) => match right.first() {
                Some(None) => Vec::new(),
                first => {
                    let first = first.copied().flatten();
                    first.into_iter().chain(lie(seed, len)).collect()
                }
            },
        }
    }
}

fn arb_draws() -> impl Strategy<Value = Vec<Draw>> {
    let lookahead = prop_oneof![
        Just(Lookahead::Right(1)),
        (2usize..32).prop_map(Lookahead::Right),
        (2usize..32).prop_map(Lookahead::Right),
        Just(Lookahead::Absent),
        Just(Lookahead::Absent),
        (any::<u64>(), 1usize..12).prop_map(|(seed, len)| Lookahead::Lying(seed, len)),
        (any::<u64>(), 1usize..12).prop_map(|(seed, len)| Lookahead::RightThenLying(seed, len)),
    ];
    let take = prop_oneof![
        Just(Take::Borrowed),
        Just(Take::Borrowed),
        Just(Take::Borrowed),
        Just(Take::Owned),
        (0usize..12).prop_map(Take::Unwound),
    ];
    proptest::collection::vec(
        (0usize..6, any::<u64>(), 0usize..PLANS, lookahead, take).prop_map(
            |(keep, shuffle, plan, lookahead, take)| Draw {
                keep,
                shuffle,
                plan,
                lookahead,
                take,
            },
        ),
        1..24,
    )
}

/// Fisher–Yates over `order[keep..]`, driven by a splitmix-style stream.
fn reshuffle(order: &mut [EventId], keep: usize, mut seed: u64) {
    let keep = keep.min(order.len());
    for i in (keep + 1..order.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = keep + (seed >> 33) as usize % (i - keep + 1);
        order.swap(i, j);
    }
}

/// How many plans [`plans_for`] builds.
const PLANS: usize = 7;

/// The fault-free plan, one plan per fault kind, and two plans that stack a
/// one-step delay with steps that fail — every event but the delayed one
/// dropped, or every sync after the delayed event across a link cut before
/// it — all anchored on the workload's own events.
fn plans_for(workload: &Workload) -> [FaultPlan; PLANS] {
    let ids: Vec<EventId> = workload.event_ids().collect();
    let at = |i: usize| ids[i % ids.len()];
    let delay = FaultEvent::new(at(0), FaultKind::Delay { by: 1 });
    let cut = FaultKind::Partition {
        from: ReplicaId::new(0),
        to: ReplicaId::new(1),
    };
    let drops = ids[1..]
        .iter()
        .map(|&id| FaultEvent::new(id, FaultKind::Drop));
    [
        FaultPlan::empty(),
        FaultPlan::new(vec![FaultEvent::new(at(0), FaultKind::Duplicate)]),
        FaultPlan::new(vec![FaultEvent::new(at(1), FaultKind::Drop)]),
        FaultPlan::new(vec![FaultEvent::new(at(2), FaultKind::Delay { by: 2 })]),
        FaultPlan::new(vec![FaultEvent::new(
            at(3),
            FaultKind::CrashRestart {
                replica: ReplicaId::new(0),
            },
        )]),
        FaultPlan::new(std::iter::once(delay).chain(drops).collect()),
        FaultPlan::new(vec![delay, FaultEvent::new(at(0), cut)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever order the runs come in, whatever the executor is told comes
    /// next and however the run before was taken — borrowed, moved out, or
    /// unwound out of `apply` — every run equals the scratch executor's, and
    /// after every run the cache holds at most `N - 1` snapshots per fault
    /// plan seen, within the budget.
    #[test]
    fn no_hint_can_change_an_execution(
        steps in arb_steps(),
        draws in arb_draws(),
        faulted in any::<bool>(),
        budget in prop_oneof![Just(0usize), Just(usize::MAX), 1usize..512],
    ) {
        silence_the_fuse();
        let workload = build_workload(&steps);
        let plans = plans_for(&workload);
        let time = TimeModel::paper_setup();
        let model = Fused { armed: AtomicU32::new(UNARMED) };
        let mut order: Vec<EventId> = workload.event_ids().collect();
        let sequence: Vec<Interleaving> = draws
            .iter()
            .map(|draw| {
                reshuffle(&mut order, draw.keep, draw.shuffle);
                let plan = if faulted { plans[draw.plan].clone() } else { FaultPlan::empty() };
                Interleaving::new(order.clone()).with_faults(plan)
            })
            .collect();

        let truth: Vec<Option<u32>> = sequence
            .windows(2)
            .map(|pair| {
                let same_plan = pair[0].faults() == pair[1].faults();
                same_plan.then(|| pair[0].common_prefix_len(&pair[1]) as u32)
            })
            .collect();
        let mut executor = IncrementalExecutor::<Fused>::new(budget);
        let mut plans_seen = std::collections::HashSet::new();
        for (i, (il, draw)) in sequence.iter().zip(&draws).enumerate() {
            let lookahead = draw.lookahead.entries(&truth, i, workload.len());
            let scratch = InlineExecutor::execute(&model, &workload, il, &time);
            // A run that unwinds leaves its plan's path as far as it got.
            plans_seen.insert(il.faults().clone());
            let depth_cap = workload.len().saturating_sub(1);
            let owned;
            let run = match draw.take {
                Take::Borrowed => {
                    executor.advance(&model, &workload, il, &lookahead, &time);
                    executor.run()
                }
                Take::Owned => {
                    owned = executor.execute(&model, &workload, il, &time);
                    prop_assert!(executor.run().outcomes.is_empty(), "the run moved out");
                    ExecutionRef {
                        states: &owned.states,
                        outcomes: &owned.outcomes,
                        sim_us: owned.sim_us,
                        failed_ops: failed(&owned.outcomes),
                    }
                }
                Take::Unwound(at) => {
                    model.armed.store(il.as_slice()[at % il.len()].raw(), Ordering::Relaxed);
                    let unwound = catch_unwind(AssertUnwindSafe(|| {
                        executor.advance(&model, &workload, il, &lookahead, &time);
                    }));
                    model.armed.store(UNARMED, Ordering::Relaxed);
                    if unwound.is_err() {
                        let left = executor.run();
                        prop_assert!(left.states.is_empty() && left.outcomes.is_empty());
                        prop_assert!(executor.resident_snapshots() <= depth_cap * plans_seen.len());
                        prop_assert!(executor.stats().bytes_resident <= budget);
                        continue;
                    }
                    // The armed event sat in the resumed prefix.
                    executor.run()
                }
            };
            prop_assert_eq!(&scratch.states[..], run.states, "states diverged at run {}", i);
            prop_assert_eq!(&scratch.outcomes[..], run.outcomes, "outcomes diverged at run {}", i);
            prop_assert_eq!(scratch.sim_us, run.sim_us, "sim_us diverged at run {}", i);
            prop_assert_eq!(failed(&scratch.outcomes), run.failed_ops);

            prop_assert!(executor.resident_snapshots() <= depth_cap * plans_seen.len());
            prop_assert!(executor.stats().bytes_resident <= budget);
        }
        let stats = executor.stats();
        prop_assert_eq!(stats.hits + stats.misses, sequence.len() as u64);
        if budget == 0 {
            prop_assert_eq!(stats.hits, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Budget 0, budget ∞ and a small random budget — as hint scales —
    /// produce the same report as scratch replay, in both exploration modes.
    #[test]
    fn eviction_schedule_never_changes_the_report(
        steps in arb_steps(),
        random_budget in 1usize..512,
    ) {
        let workload = build_workload(&steps);
        for mode in [ExploreMode::ErPi, ExploreMode::Dfs] {
            let scratch = replay(&workload, mode, 1, None);
            for scale in scales(random_budget) {
                let incremental = replay(&workload, mode, 1, Some(scale));
                prop_assert_eq!(
                    scratch.diff(&incremental),
                    None,
                    "hint scale {} diverged from scratch in {:?} mode",
                    scale,
                    mode
                );
            }
        }
    }

    /// Same property under the pool: per-worker caches with arbitrary
    /// budgets still merge into the scratch sequential report.
    #[test]
    fn pooled_eviction_schedule_never_changes_the_report(
        steps in arb_steps(),
        random_budget in 1usize..512,
    ) {
        let workload = build_workload(&steps);
        let scratch = replay(&workload, ExploreMode::Dfs, 1, None);
        for workers in [2usize, 4] {
            for scale in scales(random_budget) {
                let incremental = replay(&workload, ExploreMode::Dfs, workers, Some(scale));
                prop_assert_eq!(
                    scratch.diff(&incremental),
                    None,
                    "hint scale {} at {} workers diverged from scratch",
                    scale,
                    workers
                );
            }
        }
    }

    /// A refusing cache admits no snapshots: every probe is a miss, nothing
    /// is saved, nothing stays resident — the degenerate case really is
    /// scratch replay plus counters.
    #[test]
    fn zero_budget_saves_nothing(steps in arb_steps()) {
        let workload = build_workload(&steps);
        let report = replay(&workload, ExploreMode::Dfs, 1, Some(REFUSING));
        let stats = report.cache_stats.expect("incremental run reports stats");
        prop_assert_eq!(stats.hits, 0);
        prop_assert_eq!(stats.events_saved, 0);
        prop_assert_eq!(stats.sim_us_saved, 0);
        prop_assert_eq!(stats.bytes_resident, 0);
        prop_assert_eq!(stats.misses, report.explored as u64);
    }
}

/// A subsuming campaign resumes as many events as an executor told nothing
/// of the runs to come, which keeps every depth: the benchmark's town
/// recording in DFS order, capped at 10 000, one worker, fault-free and
/// under every one-fault plan. A run that stops at a hit on its resume depth
/// keeps the snapshot it resumed from while the next run shares more, and
/// one that stops short of a depth a later run branches off at leaves a
/// snapshot where it stopped; without either, the next run resumes
/// shallower. Run for run, the two replays are identical.
#[test]
fn a_run_stopped_by_a_hit_leaves_the_next_run_its_resume_point() {
    let time = TimeModel::paper_setup();
    let model = TownApp::new(2);
    for (faults, saved) in [(false, 67_004), (true, 68_635)] {
        let config = ReplayConfig {
            mode: ExploreMode::Dfs,
            cap: 10_000,
            workers: 1,
            subsumption: true,
            keep_runs: true,
            ..ReplayConfig::default()
        };
        let mut session = Session::with_config(model.clone(), config, Attachments::default());
        session.record(record_town);
        let space = FaultSpace::all(1);
        if faults {
            session.set_fault_space(space.clone());
        }
        let report = session.replay(&TestSuite::new()).expect("replay");
        let campaign = report.cache_stats.expect("subsuming replay reports stats");
        let workload = session.workload().expect("recorded");
        let plans = match faults {
            true => enumerate_plans(workload, &space),
            false => Vec::new(),
        };
        let product = FaultProduct::new(DfsExplorer::new(workload), plans);
        let mut told_nothing = IncrementalExecutor::<TownApp>::subsuming(DEFAULT_CACHE_BUDGET);
        assert_eq!(report.runs.len(), 10_000);
        for (record, il) in report.runs.iter().zip(product) {
            assert_eq!(record.interleaving, il);
            told_nothing.advance(&model, workload, &il, &[], &time);
            let run = told_nothing.run();
            let observed: Vec<Value> = run.states.iter().map(|s| model.observe(s)).collect();
            assert_eq!(record.observations, observed, "on {il}");
            assert_eq!(record.sim_us, run.sim_us, "on {il}");
            assert_eq!(record.failed_ops, run.failed_ops, "on {il}");
        }
        let alone = told_nothing.stats();
        assert_eq!(campaign.subsumed, alone.subsumed, "faults: {faults}");
        assert_eq!(
            campaign.events_saved, alone.events_saved,
            "faults: {faults}"
        );
        assert_eq!(campaign.events_saved, saved, "faults: {faults}");
    }
}
