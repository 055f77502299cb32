//! The campaign core: the one claim → execute → merge loop behind every
//! replay.
//!
//! States 2–4 of the paper's workflow are a single loop — dispense a pruned
//! interleaving, replay it from a checkpoint, check it, feed constraints
//! back — and this module is that loop, once. A [`Campaign`] owns the
//! dispenser (an [`IndexedSource`] behind a lock, claimed in contiguous
//! chunks), one [`IncrementalExecutor`] per replay slot, the run table, the
//! lowest-violation / stop / panic / cancel flags, the merge and the
//! stop-point explorer counters. It is driven from exactly two places,
//! both of which only decide *which thread* calls [`Campaign::step`]:
//!
//! * [`Campaign::run`] (behind [`Session::replay`](crate::Session::replay))
//!   steps slot 0 on the calling thread and slots `1..W` on scoped threads,
//!   against a borrowed model, workload and suite;
//! * [`ExecutorService`](crate::ExecutorService) steps queued campaigns
//!   from its long-lived threads, against owned ones.
//!
//! What makes the *merged* result independent of the slot count:
//!
//! * every dispensed interleaving carries a stable exploration index, and
//!   chunks are contiguous index ranges handed out in order, so the table
//!   is the dense prefix `0..n` of what a one-slot scan would replay;
//! * under `stop_on_first_violation` the *lowest-indexed* violation wins
//!   and the table is cut there. An item whose index is above the current
//!   lowest violation is therefore skipped rather than replayed: the
//!   lowest only ever decreases, so an item at or below its final value is
//!   never skipped, and density below the cut is all the merge needs;
//! * a panicking model surfaces as [`ErPiError::ExecutorPanic`], a tripped
//!   [`CancelToken`] as [`ErPiError::Cancelled`]; either way the whole
//!   result set is discarded and the session stays usable.
//!
//! A slot's lookahead is one rule: a claim is a stretch of a plan-minor
//! fault product (a fault-free campaign is the one-plan product) with one
//! entry per base order, read from each run's own base order on.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use er_pi_interleave::{
    DfsExplorer, ErPiExplorer, ExploreMode, Explorer, FaultProduct, FilterTimings, IndexedSource,
    PruneStats, PruningConfig, RandomExplorer,
};
use er_pi_model::{FaultPlan, Interleaving, Workload};
use parking_lot::Mutex;

use crate::instrument::{Instrument, RunFacts};
use crate::subsume::SubsumeSet;
use crate::{
    CacheStats, CancelToken, CheckContext, ConstraintsDir, ErPiError, FailureStats,
    IncrementalExecutor, ReplayConfig, RunRecord, SystemModel, TestSuite, TimeModel, Violation,
    WorkerLoad, DEFAULT_CACHE_BUDGET,
};

/// Sentinel for "no violation found yet" in the atomic minimum.
const NO_VIOLATION: usize = usize::MAX;

/// Interleavings claimed per dispenser lock acquisition. Contiguous chunks
/// (rather than strided or item-at-a-time claims) preserve per-slot prefix
/// locality: lexicographically adjacent interleavings land on the same
/// slot's executor, each resuming from the one before it. Chunks also
/// amortize the dispenser and run-table locks. Stop flags and the cancel
/// token are honoured between chunks; inside one, stop-on-first skips the
/// items above the lowest violation found so far.
///
/// Not tunable: no caller ever asked for another value, and the report does
/// not depend on it (the campaign's unit tests replay at sizes 1, 3 and 32).
/// A fault product of `P ≤ 32` plans claims `⌊32 / P⌋ · P` items, so that a
/// claim ends on a base order (see [`Chunk::bases`]).
pub(crate) const DEFAULT_CHUNK_SIZE: usize = 32;

/// The platform's available parallelism (the session's default worker count
/// and the meaning of worker count `0`); `1` when it cannot be queried.
///
/// An `ER_PI_WORKERS` environment variable overrides the probe:
/// cgroup-limited deployments (containers with a CPU quota) report the
/// host's core count through `available_parallelism`, so operators pin the
/// real budget explicitly. Unparsable or zero values are ignored.
pub(crate) fn available_workers() -> usize {
    std::env::var("ER_PI_WORKERS")
        .ok()
        .as_deref()
        .and_then(parse_workers_override)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Parses an `ER_PI_WORKERS` override: a positive integer (surrounding
/// whitespace tolerated). Anything else — empty, zero, garbage — is `None`
/// so the platform probe stays authoritative.
fn parse_workers_override(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// The dispenser's source: the campaign's explorer, whichever the mode,
/// read through [`Explorer`] alone.
type Source<'w> = IndexedSource<FaultProduct<Box<dyn Explorer + Send + 'w>>>;

/// An explorer's deterministic counters as of some dispensed item: pruning
/// statistics (ER-π mode only) and mode-specific wasted work (Random's
/// shuffle retries).
type Counters = (Option<PruneStats>, u64);

/// The counters `explorer` has accumulated so far.
fn counters(explorer: &impl Explorer) -> Counters {
    (explorer.prune_stats(), explorer.wasted_work())
}

/// Builds and observes the exploration source of one replay — the first
/// explorer and every State-4 replacement alike: the mode's explorer, with
/// what `instrument` measures of it turned on, lifted to the `orders ×
/// plans` product. With no fault configuration the product holds the
/// single empty plan and is a transparent pass-through — emitted
/// interleavings are bit-identical to the bare explorer's. A `Cow::Owned`
/// workload yields a `'static` explorer (only ER-π keeps the workload; the
/// other two modes read it once).
fn build_explorer<'w>(
    mode: ExploreMode,
    workload: Cow<'w, Workload>,
    config: &PruningConfig,
    plans: &[FaultPlan],
    instrument: &Instrument,
) -> FaultProduct<Box<dyn Explorer + Send + 'w>> {
    let explorer: Box<dyn Explorer + Send + 'w> = match mode {
        ExploreMode::ErPi => {
            let mut explorer = ErPiExplorer::over(workload, config);
            instrument.observe_explorer(&mut explorer);
            Box::new(explorer)
        }
        ExploreMode::Dfs => Box::new(DfsExplorer::new(&workload)),
        ExploreMode::Random { seed } => Box::new(RandomExplorer::new(&workload, seed)),
    };
    FaultProduct::new(explorer, plans.to_vec())
}

/// What one campaign explores and how it replays it.
pub(crate) struct Params<'w> {
    pub workload: Cow<'w, Workload>,
    /// The campaign loop reads `mode`, `cap`, `stop_on_first_violation`,
    /// `incremental` (the slots' snapshot budget: [`DEFAULT_CACHE_BUDGET`],
    /// or 0 for scratch replay) and `subsumption` (one campaign-wide
    /// explored-set). The slot count comes from the driver, not from
    /// `workers`.
    pub replay: ReplayConfig,
    /// The effective pruning configuration the exploration starts under.
    pub config: PruningConfig,
    pub plans: Vec<FaultPlan>,
    pub time: TimeModel,
    /// Replay slots (at least one).
    pub slots: usize,
    pub instrument: Instrument,
}

/// A watched constraints directory is polled before the claim that starts
/// at every this-many-th exploration index.
const CONSTRAINT_POLL_EVERY: usize = 100;

/// State 4: a watched constraints directory, polled under the dispenser
/// lock every [`CONSTRAINT_POLL_EVERY`] exploration indices.
pub(crate) struct Watch<'w> {
    pub dir: &'w mut ConstraintsDir,
    /// The session's own configuration: every ingested rule is absorbed
    /// here as well, so later replays start from it.
    pub config: &'w mut PruningConfig,
}

/// The model and suite a campaign is stepped against; the same for every
/// step of one campaign.
pub(crate) struct Subject<'a, M: SystemModel> {
    pub model: &'a M,
    pub suite: &'a TestSuite<M::State>,
}

impl<M: SystemModel> Clone for Subject<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: SystemModel> Copy for Subject<'_, M> {}

/// The merged result of a campaign, before the session dresses it up as a
/// [`Report`](crate::Report).
pub(crate) struct Outcome {
    pub mode: String,
    /// How many runs the campaign retains: exploration indices `0..explored`.
    pub explored: usize,
    /// The retained runs' records, ordered by exploration index — when the
    /// campaign built any ([`ReplayConfig::keep_runs`] has the rule), else
    /// empty.
    pub runs: Vec<RunRecord>,
    /// Per-run violations of the retained runs, in (run, assertion) order.
    pub violations: Vec<Violation>,
    /// Lowest run index with a violation, if any.
    pub first_violation_at: Option<usize>,
    /// Σ `sim_us` over the retained runs.
    pub sim_us: u64,
    /// Failed operations over the retained runs.
    pub failures: FailureStats,
    /// A violation under stop-on-first, or the cap, cut the exploration.
    pub stopped_early: bool,
    /// The explorer's counters as of exactly the retained runs.
    pub prune_stats: Option<PruneStats>,
    pub wasted: u64,
    /// Per-slot replay counters, in slot order.
    pub worker_loads: Vec<WorkerLoad>,
    /// Checkpoint-cache counters summed over the per-slot executors; `None`
    /// when the campaign neither kept snapshots nor subsumed.
    pub cache_stats: Option<CacheStats>,
    pub filter_timings: Option<FilterTimings>,
    /// The effective configuration at the end: the initial one plus every
    /// constraint ingested on the way.
    pub config: PruningConfig,
}

/// A campaign's life, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Chunks are still being handed out.
    Claiming,
    /// No further chunk will ever be claimed; some are still executing.
    Drained,
    /// Drained, and every claimed chunk has been recorded: the point from
    /// which [`Campaign::finish`] may be called.
    Settled,
}

/// One dispensed item's exploration index, with the explorer's counters as
/// of it when the campaign may stop there; its interleaving is in the
/// buffer it was dispensed into.
type Dispensed = (usize, Option<Counters>);

/// The state behind the dispenser lock.
struct Dispenser<'w> {
    source: Source<'w>,
    /// The item dispensed past the last claim as its lookahead, in `peek`;
    /// it opens the next claim.
    peeked: Option<Dispensed>,
    /// The buffer the lookahead is dispensed into. The next claim swaps it
    /// for its first buffer, which is dispensed into next.
    peek: Interleaving,
    /// The effective configuration: the initial one plus every constraint
    /// State 4 ingested so far.
    config: PruningConfig,
    watch: Option<Watch<'w>>,
    /// Chunks claimed but not yet recorded.
    inflight: usize,
    /// No further chunk will ever be claimed.
    exhausted: bool,
    /// The cancel token tripped at a claim boundary, or the driver aborted.
    cancelled: bool,
    /// A constraints file could not be ingested.
    failed: Option<ErPiError>,
}

impl Dispenser<'_> {
    /// Dispenses one item into `buf`. Under stop-on-first (`counted`) the
    /// explorer's counters are read right behind it: whatever is dispensed
    /// past a violating run — the rest of its chunk, other slots' chunks,
    /// the lookahead — depends on scheduling and must not show in the
    /// report.
    fn fill(&mut self, buf: &mut Interleaving, counted: bool) -> Option<Dispensed> {
        let index = self.source.fill(buf)?;
        Some((index, counted.then(|| counters(self.source.inner()))))
    }
}

/// One claimed chunk and what replaying it produced. A slot keeps the
/// buffers from chunk to chunk for their capacity: it claims thousands and
/// allocates for one.
#[derive(Default)]
struct Chunk {
    /// The exploration index of the first item; the others follow it.
    start: usize,
    /// How many items the claim holds: `orders[..len]`.
    len: usize,
    /// The items' interleavings, in buffers the explorer writes over claim
    /// after claim. A run whose order is kept (by its record or a
    /// violation) takes it out of its buffer, and the next claim refills
    /// the emptied one.
    orders: Vec<Interleaving>,
    /// Under stop-on-first, the explorer's counters as of each item.
    counters: Vec<Counters>,
    /// The lookahead entry past the chunk, read under the dispenser lock:
    /// where the base order of the item dispensed after the chunk leaves the
    /// last item's ([`next_order`]); none when that item is another run of
    /// the same base order (a claim of a product of more than 32 plans).
    /// That item stays with the dispenser and opens the next claim —
    /// usually another slot's, which makes this entry conservative, never
    /// wrong: a later item of a sorted stream shares no more with this run
    /// than the next does.
    tail: Option<u32>,
    /// The chunk's lookahead, kept for its capacity: one entry per base
    /// order, where the next one leaves it, the last one `tail`. From a
    /// run's own base order on, the depths at which its plan's runs branch.
    lookahead: Vec<u32>,
    /// The base order of each item within the chunk: where its run's
    /// lookahead starts.
    bases: Vec<u32>,
    /// What the executed items produced.
    done: Rows,
}

impl Chunk {
    /// The buffer of item `at`, made on the slot's first claims.
    fn buffer(&mut self, at: usize) -> &mut Interleaving {
        if at == self.orders.len() {
            self.orders.push(Interleaving::default());
        }
        &mut self.orders[at]
    }

    /// Books a dispensed item as the claim's next.
    fn push(&mut self, (index, counters): Dispensed) {
        debug_assert!(self.len == 0 || index == self.start + self.len);
        if self.len == 0 {
            self.start = index;
        }
        self.len += 1;
        self.counters.extend(counters);
    }
}

/// What replaying a contiguous range of exploration indices produced, in
/// index order.
#[derive(Default)]
struct Rows {
    /// `(sim_us, failed_ops)` per run: all the report needs of a run nobody
    /// reads. Density, the stop-on-first cut and every sum of the report
    /// are read from this column.
    tallies: Vec<(u64, usize)>,
    /// The runs' records — row for row beside `tallies` when the campaign
    /// builds them ([`ReplayConfig::keep_runs`] has the rule), else empty.
    records: Vec<RunRecord>,
    /// The rare violations, beside the rows rather than in them.
    violations: Vec<Violation>,
}

impl Rows {
    /// Moves `later`'s rows behind these; `later` keeps its capacity.
    fn append(&mut self, later: &mut Rows) {
        self.tallies.append(&mut later.tallies);
        self.records.append(&mut later.records);
        // Pushed, not appended, so the capacity doubles from 4 like any
        // push-built `Vec`: `append` doubles from whatever the first
        // violating chunk found, and how far the last doubling overshoots
        // is a tenth of a megabyte either way on a 10 000-run campaign.
        for violation in later.violations.drain(..) {
            self.violations.push(violation);
        }
    }
}

/// What one replay slot keeps between chunks. Each slot owns its executor —
/// the cursor, at a zero snapshot budget under scratch replay: no
/// cross-thread snapshot sharing, and the chunked dispenser keeps the slot's
/// stream prefix-coherent.
struct Slot<M: SystemModel> {
    executor: IncrementalExecutor<M>,
    load: WorkerLoad,
    chunk: Chunk,
    messages: Messages,
}

/// The violation messages a slot has stored, each distinct text once: a
/// campaign whose thousands of violating runs fail with a handful of
/// messages keeps a handful of strings. It holds only text the slot's
/// violations hold too, and goes with the campaign.
#[derive(Default)]
struct Messages {
    /// The message each assertion, by its position in the suite, stored
    /// last — what a run usually fails with again.
    last: Vec<Option<Arc<str>>>,
    /// Every distinct message stored.
    seen: HashSet<Arc<str>>,
}

impl Messages {
    /// The shared copy of `message`, which the suite's `assertion`-th
    /// assertion returned.
    fn intern(&mut self, assertion: usize, message: String) -> Arc<str> {
        if assertion >= self.last.len() {
            self.last.resize(assertion + 1, None);
        }
        let last = &mut self.last[assertion];
        if let Some(shared) = last.as_ref().filter(|shared| shared[..] == message[..]) {
            return Arc::clone(shared);
        }
        let shared = match self.seen.get(message.as_str()) {
            Some(shared) => Arc::clone(shared),
            None => {
                let shared = Arc::<str>::from(message);
                self.seen.insert(Arc::clone(&shared));
                shared
            }
        };
        *last = Some(Arc::clone(&shared));
        shared
    }
}

/// The run table. Exploration indices are dense from 0 and chunks are
/// contiguous, so a chunk's rows go straight onto the dense prefix — one
/// lock per chunk, no sort, no second copy; a chunk that finishes before
/// its predecessor waits in `parked`, keyed by its first index.
#[derive(Default)]
struct Table {
    /// The dense prefix: row `i` is exploration index `i`.
    merged: Rows,
    parked: BTreeMap<usize, Rows>,
    /// The lowest run stop-on-first stopped a chunk at, with the explorer's
    /// counters as of it.
    stopped_at: Option<(usize, Counters)>,
    panicked: Option<String>,
}

/// One replay campaign: see the [module docs](self).
pub(crate) struct Campaign<'w, M: SystemModel> {
    workload: Cow<'w, Workload>,
    /// `incremental` doubles as "the executors keep snapshots": a lookahead
    /// is worth computing.
    replay: ReplayConfig,
    plans: Vec<FaultPlan>,
    time: TimeModel,
    chunk_size: usize,
    instrument: Instrument,
    disp: Mutex<Dispenser<'w>>,
    slots: Vec<Mutex<Slot<M>>>,
    lowest_violation: AtomicUsize,
    /// Internal stop: a violation under stop-on-first, or a model panic.
    stop: AtomicBool,
    table: Mutex<Table>,
}

impl<'w, M: SystemModel> Campaign<'w, M> {
    /// Sets a campaign up; nothing is dispensed before the first
    /// [`Campaign::step`]. `chunk_size` is [`DEFAULT_CHUNK_SIZE`] everywhere
    /// but in this module's tests.
    pub fn new(params: Params<'w>, chunk_size: usize) -> Self {
        let Params {
            workload,
            replay,
            config,
            plans,
            time,
            slots,
            instrument,
        } = params;
        let explorer = build_explorer(replay.mode, workload.clone(), &config, &plans, &instrument);
        let explored = replay.subsumption.then(|| Arc::new(SubsumeSet::new()));
        let budget = match replay.incremental {
            true => DEFAULT_CACHE_BUDGET,
            false => 0,
        };
        // A claim of a fault product ends on a base order when one fits.
        let chunk_size = chunk_size.max(1);
        let per_order = plans.len().max(1);
        let chunk_size = match per_order <= chunk_size {
            true => chunk_size / per_order * per_order,
            false => chunk_size,
        };
        let slots = (0..slots.max(1))
            .map(|worker| {
                let mut executor = IncrementalExecutor::<M>::new(budget);
                if let Some(set) = &explored {
                    executor.enable_subsumption(Arc::clone(set));
                }
                Mutex::new(Slot {
                    executor,
                    load: WorkerLoad {
                        worker,
                        runs: 0,
                        sim_us: 0,
                    },
                    chunk: Chunk::default(),
                    messages: Messages::default(),
                })
            })
            .collect();
        Campaign {
            disp: Mutex::new(Dispenser {
                source: IndexedSource::new(explorer, replay.cap),
                peeked: None,
                peek: Interleaving::default(),
                config,
                watch: None,
                inflight: 0,
                exhausted: false,
                cancelled: false,
                failed: None,
            }),
            workload,
            replay,
            plans,
            time,
            chunk_size,
            instrument,
            slots,
            lowest_violation: AtomicUsize::new(NO_VIOLATION),
            stop: AtomicBool::new(false),
            table: Mutex::new(Table::default()),
        }
    }

    /// Attaches the State-4 hook. Constraint ingestion is a feedback loop
    /// on the live exploration order — the rules found while replaying
    /// `0..k` decide what index `k` is — so a watched campaign has one slot
    /// (claims are then strictly sequential) and no claim crosses a poll
    /// boundary, not even to peek. Call before the first [`Campaign::step`].
    pub fn watch(&mut self, watch: Watch<'w>) {
        assert_eq!(self.slots.len(), 1, "a watched campaign has one slot");
        let disp = self.disp.get_mut();
        // The one source an ingested rule may reseed: it alone keeps the
        // fingerprints of what it dispensed.
        disp.source.make_reseedable();
        disp.watch = Some(watch);
    }

    /// The number of replay slots; [`Campaign::step`] takes `0..slots`.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether the attached cancel token, if any, has tripped.
    fn cancelled(&self) -> bool {
        let token = self.instrument.attach.cancel.as_ref();
        token.is_some_and(CancelToken::is_cancelled)
    }

    /// Claims the next chunk into `chunk` under the dispenser lock; `false`
    /// once the campaign will hand out no more: the source ran dry or hit
    /// the cap, a stop flag is up, the cancel token tripped, or ingestion
    /// failed.
    fn claim(&self, chunk: &mut Chunk) -> bool {
        let mut disp = self.disp.lock();
        if disp.exhausted {
            return false;
        }
        let claimed = if self.cancelled() {
            disp.cancelled = true;
            false
        } else if self.stop.load(Ordering::Acquire) {
            false
        } else {
            self.dispense(&mut disp, chunk).unwrap_or_else(|error| {
                disp.failed = Some(error);
                false
            })
        };
        match claimed {
            true => disp.inflight += 1,
            false => disp.exhausted = true,
        }
        claimed
    }

    /// Runs the State-4 hook if this claim starts on a poll boundary, then
    /// dispenses up to one chunk plus — for executors that keep snapshots —
    /// one item of lookahead. `false` when there was nothing left.
    fn dispense(&self, disp: &mut Dispenser<'w>, chunk: &mut Chunk) -> Result<bool, ErPiError> {
        let mut max = self.chunk_size;
        let mut peek = self.replay.incremental;
        if let Some(watch) = disp.watch.as_mut() {
            let at = match disp.peeked {
                Some((index, _)) => index,
                None => disp.source.dispensed(),
            };
            if at > 0 && at % CONSTRAINT_POLL_EVERY == 0 {
                if let Some(newer) = watch.dir.poll()? {
                    watch.config.absorb(newer.clone());
                    disp.config.absorb(newer);
                    // DFS and Random read no pruning configuration, and
                    // restarting them would only re-emit what the source's
                    // dedup set — which skips everything already dispensed
                    // — then drops.
                    let mode = self.replay.mode;
                    if matches!(mode, ExploreMode::ErPi) {
                        let workload = self.workload.clone();
                        let (config, plans) = (&disp.config, &self.plans);
                        let fresh = build_explorer(mode, workload, config, plans, &self.instrument);
                        disp.source.reseed(fresh);
                    }
                }
            }
            let to_boundary = CONSTRAINT_POLL_EVERY - at % CONSTRAINT_POLL_EVERY;
            if max >= to_boundary {
                max = to_boundary;
                peek = false;
            }
        }
        let counted = self.replay.stop_on_first_violation;
        chunk.len = 0;
        if let Some(first) = disp.peeked.take() {
            std::mem::swap(chunk.buffer(0), &mut disp.peek);
            chunk.push(first);
        }
        while chunk.len < max {
            match disp.fill(chunk.buffer(chunk.len), counted) {
                Some(item) => chunk.push(item),
                None => break,
            }
        }
        if peek && chunk.len == max {
            let mut buf = std::mem::take(&mut disp.peek);
            disp.peeked = disp.fill(&mut buf, counted);
            disp.peek = buf;
        }
        chunk.tail = match (chunk.len, &disp.peeked) {
            (1.., Some(_)) => next_order(&chunk.orders[chunk.len - 1], &disp.peek),
            _ => None,
        };
        Ok(chunk.len > 0)
    }

    /// Claims one chunk and replays it on `slot`; `false` once the campaign
    /// hands out no more chunks (other slots may still be finishing theirs:
    /// see [`Campaign::phase`]). A model panic is caught here, noted, and
    /// stops the campaign.
    pub fn step(&self, slot: usize, on: Subject<'_, M>) -> bool {
        let mut state = self.slots[slot].lock();
        let state = &mut *state;
        let asked = self.instrument.stamp();
        if !self.claim(&mut state.chunk) {
            return false;
        }
        let start = state.chunk.start;
        self.instrument
            .chunk_claimed(slot, asked, start, state.chunk.len);

        let executed = catch_unwind(AssertUnwindSafe(|| self.execute_chunk(slot, state, on)));

        let mut table = self.table.lock();
        let Table { merged, parked, .. } = &mut *table;
        let done = &mut state.chunk.done;
        match executed {
            Ok(()) if start == merged.tallies.len() => {
                merged.append(done);
                while let Some(mut next) = parked.remove(&merged.tallies.len()) {
                    merged.append(&mut next);
                }
            }
            Ok(()) => {
                parked.insert(start, std::mem::take(done));
            }
            Err(payload) => {
                table
                    .panicked
                    .get_or_insert_with(|| panic_message(payload.as_ref()));
                self.stop.store(true, Ordering::Release);
            }
        }
        drop(table);
        self.disp.lock().inflight -= 1;
        true
    }

    /// Replays the items of the slot's claimed chunk in index order, each
    /// told the branch depths of the runs after it that take its path, to
    /// the claim's own lookahead past the last (executors that keep
    /// snapshots only).
    fn execute_chunk(&self, slot: usize, state: &mut Slot<M>, on: Subject<'_, M>) {
        let mut buffers = std::mem::take(&mut state.chunk.orders);
        let Chunk {
            start,
            len,
            tail,
            lookahead,
            bases,
            ..
        } = &mut state.chunk;
        let (start, len) = (*start, *len);
        let orders = &mut buffers[..len];
        lookahead.clear();
        bases.clear();
        if self.replay.incremental {
            // Once per slot: the buffers keep their capacity from claim to
            // claim, and neither outgrows a claim.
            lookahead.reserve(self.chunk_size);
            bases.reserve(self.chunk_size);
            bases.push(0);
            for pair in orders.windows(2) {
                lookahead.extend(next_order(&pair[0], &pair[1]));
                bases.push(lookahead.len() as u32);
            }
            lookahead.extend(*tail);
        }
        let lookahead = std::mem::take(lookahead);
        let bases = std::mem::take(bases);
        let stop_on_first = self.replay.stop_on_first_violation;
        let product = self.plans.len() > 1;
        for (at, il) in orders.iter_mut().enumerate() {
            let index = start + at;
            // The merge cuts the table at the lowest violation, and that
            // only ever moves down: nothing above it can be retained.
            if stop_on_first && index > self.lowest_violation.load(Ordering::Acquire) {
                break;
            }
            let ahead = window(&lookahead, &bases, at, product && il.faults().is_empty());
            if self.execute_one(slot, state, index, il, ahead, on) {
                // A load first: most violating runs lie above the lowest
                // already, and need no read-modify-write.
                if index < self.lowest_violation.load(Ordering::Acquire) {
                    self.lowest_violation.fetch_min(index, Ordering::AcqRel);
                }
                if stop_on_first {
                    self.stop.store(true, Ordering::Release);
                    let mut table = self.table.lock();
                    if table.stopped_at.is_none_or(|(lowest, _)| index < lowest) {
                        table.stopped_at = Some((index, state.chunk.counters[at]));
                    }
                }
            }
        }
        state.chunk.orders = buffers;
        state.chunk.lookahead = lookahead;
        state.chunk.bases = bases;
        state.chunk.counters.clear();
    }

    /// Executes one interleaving on the slot's cursor — from fresh states
    /// under scratch replay, else resuming from the slot's previous run —
    /// checks the suite and books the run. Returns whether it violated.
    fn execute_one(
        &self,
        slot: usize,
        state: &mut Slot<M>,
        index: usize,
        il: &mut Interleaving,
        lookahead: &[u32],
        on: Subject<'_, M>,
    ) -> bool {
        let started = self.instrument.stamp();

        // State 3: checkpointed execution of one interleaving. Fresh states
        // per run are the checkpoint/reset of §4.3 — the cursor at a zero
        // budget; with snapshots it reaches the same states by resuming from
        // the deepest cached prefix (byte-identical execution — see
        // `incremental`).
        state
            .executor
            .advance(on.model, &self.workload, il, lookahead, &self.time);
        let exec = state.executor.run();
        let (sim_us, failed_ops) = (exec.sim_us, exec.failed_ops);
        let observe = |state: &M::State| on.model.observe(state);
        let ctx = CheckContext::observing(&exec, &observe, il);
        let check_started = self.instrument.stamp();
        let done = &mut state.chunk.done;
        let before = done.violations.len();
        for (at, assertion) in on.suite.assertions().iter().enumerate() {
            if let Err(message) = assertion.check(&ctx) {
                done.violations.push(Violation {
                    run: Some(index),
                    assertion: Arc::clone(assertion.shared_name()),
                    message: state.messages.intern(at, message),
                    interleaving: None,
                });
            }
        }
        let violated = done.violations.len() > before;
        self.instrument.run_done(RunFacts {
            slot,
            index,
            resumed_depth: state.executor.last_resume_depth(),
            subsumed: state.executor.last_run_subsumed(),
            sim_us,
            failed_ops,
            assertions: on.suite.assertions().len(),
            violated,
            started,
            check_started,
        });

        state.load.runs += 1;
        state.load.sim_us += sim_us;
        done.tallies.push((sim_us, failed_ops));
        // The run's interleaving goes to what keeps it — its record, or else
        // its last violation — and a copy to each other violation. Taken out
        // of the slot's buffer, it holds exactly its events: the buffer grew
        // to the order's length and no further.
        let violations = &mut done.violations[before..];
        match self.replay.builds_records(on.suite) {
            true => {
                for violation in violations {
                    violation.interleaving = Some(il.clone());
                }
                let observations = ctx.into_observations();
                done.records.push(RunRecord {
                    interleaving: std::mem::take(il),
                    observations,
                    failed_ops,
                    sim_us,
                });
            }
            false => {
                drop(ctx);
                if let Some((last, earlier)) = violations.split_last_mut() {
                    for violation in earlier {
                        violation.interleaving = Some(il.clone());
                    }
                    last.interleaving = Some(std::mem::take(il));
                }
            }
        }
        violated
    }

    /// How far along the campaign is, as of one look under the dispenser
    /// lock.
    pub fn phase(&self) -> Phase {
        let disp = self.disp.lock();
        match (disp.exhausted, disp.inflight) {
            (false, _) => Phase::Claiming,
            (true, 0) => Phase::Settled,
            (true, _) => Phase::Drained,
        }
    }

    /// Stops the campaign from outside (executor-service shutdown): no
    /// further chunk is claimed and [`Campaign::finish`] reports
    /// [`ErPiError::Cancelled`].
    pub fn abort(&self) {
        let mut disp = self.disp.lock();
        disp.cancelled = true;
        disp.exhausted = true;
    }

    /// Steps the campaign to completion from the calling thread — slot 0
    /// here, slots `1..` on scoped threads — and merges.
    pub fn run(self, on: Subject<'_, M>) -> Result<Outcome, ErPiError>
    where
        M: Sync,
        M::State: Send + Sync,
    {
        std::thread::scope(|scope| {
            for slot in 1..self.slots() {
                let campaign = &self;
                scope.spawn(move || while campaign.step(slot, on) {});
            }
            while self.step(0, on) {}
        });
        self.finish()
    }

    /// The merge: call once, after the campaign has [settled](Phase::Settled).
    ///
    /// Cuts the table at the lowest violation under stop-on-first and sums
    /// what is left. The partial
    /// results of a panicked, failed or cancelled campaign are discarded
    /// wholesale — the caller asked for the campaign to stop, not for an
    /// answer — and the cancel token is looked at once more here, so a
    /// token tripped after the last claim still cancels.
    pub fn finish(&self) -> Result<Outcome, ErPiError> {
        // Slots first and one at a time: a late `step` holds its slot while
        // it finds the dispenser exhausted.
        let mut worker_loads = Vec::with_capacity(self.slots.len());
        let mut cache_stats = CacheStats::default();
        for slot in &self.slots {
            let slot = slot.lock();
            worker_loads.push(slot.load.clone());
            cache_stats.absorb(&slot.executor.stats());
        }
        let cache_stats =
            (self.replay.incremental || self.replay.subsumption).then_some(cache_stats);
        let mut disp = self.disp.lock();
        let disp = &mut *disp;
        let mut table = self.table.lock();
        debug_assert!(
            disp.exhausted && disp.inflight == 0,
            "finish before settled"
        );
        if let Some(what) = table.panicked.take() {
            return Err(ErPiError::ExecutorPanic(what));
        }
        if let Some(error) = disp.failed.take() {
            return Err(error);
        }
        if disp.cancelled || self.cancelled() {
            return Err(ErPiError::Cancelled);
        }

        // Lowest-indexed violation wins: under stop-on-first, runs beyond
        // it were speculative and are dropped, so the merged result is the
        // same for every slot count.
        let lowest = self.lowest_violation.load(Ordering::Acquire);
        let stopped = self.replay.stop_on_first_violation && lowest != NO_VIOLATION;
        let Rows {
            mut tallies,
            records: mut runs,
            mut violations,
        } = std::mem::take(&mut table.merged);
        if stopped {
            assert!(
                tallies.len() > lowest,
                "runs below a violation must be dense"
            );
            tallies.truncate(lowest + 1);
            runs.truncate(lowest + 1);
            violations.retain(|v| v.run.is_some_and(|run| run <= lowest));
        } else {
            assert!(
                table.parked.is_empty() && tallies.len() == disp.source.dispensed(),
                "merged indices must be dense"
            );
        }
        assert!(
            runs.is_empty() || runs.len() == tallies.len(),
            "records are built for every run or for none"
        );

        let explorer = disp.source.inner();
        let (prune_stats, wasted) = match table.stopped_at.take() {
            Some((run, counters)) if stopped => {
                assert_eq!(run, lowest, "the lowest violation is a stop point");
                counters
            }
            _ => counters(explorer),
        };
        Ok(Outcome {
            mode: explorer.name().to_owned(),
            explored: tallies.len(),
            sim_us: tallies.iter().map(|&(sim_us, _)| sim_us).sum(),
            failures: FailureStats::from_failed_ops(tallies.iter().map(|&(_, failed)| failed)),
            runs,
            violations,
            first_violation_at: (lowest != NO_VIOLATION).then_some(lowest),
            stopped_early: stopped || disp.source.truncated(),
            prune_stats,
            wasted,
            worker_loads,
            cache_stats,
            // Timings come from the *live* explorer: they are wall time, so
            // — unlike the counters — what was dispensed past the stop point
            // is exactly what was really spent.
            filter_timings: explorer.filter_timings(),
            config: std::mem::take(&mut disp.config),
        })
    }
}

/// For two consecutive items of a fault product, the depth at which
/// `next`'s base order leaves `il`'s: their common prefix as orders, plans
/// aside. `None` when the two are runs of one base order.
fn next_order(il: &Interleaving, next: &Interleaving) -> Option<u32> {
    let shared = il.iter().zip(next).take_while(|(a, b)| a == b).count();
    (shared < il.len()).then_some(shared as u32)
}

/// Run `at`'s slice of its chunk's lookahead (see [`Chunk::lookahead`]),
/// nothing under scratch replay or for the `trunk`: the fault-free plan of
/// a product keeps every depth, since the other plans borrow its path.
fn window<'a>(lookahead: &'a [u32], bases: &[u32], at: usize, trunk: bool) -> &'a [u32] {
    match bases.get(at) {
        Some(&base) if !trunk => &lookahead[base as usize..],
        _ => &[],
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// A two-replica register model and the 24-order workload over it, shared
/// with the executor service's tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::OpOutcome;
    use er_pi_model::{Event, EventKind, ReplicaId, Value};

    /// Integer register per replica; `set(v)` writes, fused sync copies.
    #[derive(Clone)]
    pub struct RegApp;

    impl SystemModel for RegApp {
        type State = i64;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> i64 {
            0
        }

        fn apply(&self, states: &mut [i64], event: &Event) -> OpOutcome {
            match &event.kind {
                EventKind::LocalUpdate { op } => {
                    states[event.replica.index()] = op.arg(0).and_then(Value::as_int).unwrap_or(0);
                    OpOutcome::Applied
                }
                EventKind::Sync { to, .. } => {
                    states[to.index()] = states[event.replica.index()];
                    OpOutcome::Applied
                }
                _ => OpOutcome::failed("unsupported"),
            }
        }

        fn observe(&self, state: &i64) -> Value {
            Value::from(*state)
        }

        fn state_encode(&self, state: &i64, out: &mut Vec<u8>) -> bool {
            out.extend_from_slice(&state.to_le_bytes());
            true
        }
    }

    /// A model that panics on its first `apply`.
    #[derive(Clone)]
    pub struct Bomb;

    impl SystemModel for Bomb {
        type State = ();

        fn replicas(&self) -> usize {
            1
        }

        fn init(&self, _replica: ReplicaId) {}

        fn apply(&self, _states: &mut [()], _event: &Event) -> OpOutcome {
            panic!("campaign kaboom");
        }

        fn observe(&self, _state: &()) -> Value {
            Value::Null
        }
    }

    /// Two writes, each synced to the other replica: 4! = 24 DFS orders,
    /// many of which end diverged.
    pub fn two_writes() -> Workload {
        let a = ReplicaId::new(0);
        let b = ReplicaId::new(1);
        let mut w = Workload::builder();
        let w1 = w.update(a, "set", [Value::from(1)]);
        w.sync_pair(a, b, w1);
        let w2 = w.update(b, "set", [Value::from(2)]);
        w.sync_pair(b, a, w2);
        w.build()
    }

    /// An uncapped, uninstrumented, scratch-replay DFS campaign over an
    /// owned `workload`; tests override what they exercise. It builds run
    /// records: the tests compare `Outcome::runs` to pin the merge order.
    pub fn dfs_params(workload: Workload, slots: usize) -> Params<'static> {
        Params {
            workload: Cow::Owned(workload),
            replay: ReplayConfig {
                mode: ExploreMode::Dfs,
                cap: usize::MAX,
                incremental: false,
                keep_runs: true,
                ..ReplayConfig::default()
            },
            config: PruningConfig::default(),
            plans: Vec::new(),
            time: TimeModel::paper_setup(),
            slots,
            instrument: Instrument::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{dfs_params, two_writes, Bomb, RegApp};
    use super::*;
    use crate::{Assertion, Session};
    use er_pi_model::{FaultEvent, FaultKind, Value};
    use std::sync::atomic::AtomicU64;

    const SLOT_COUNTS: [usize; 3] = [1, 2, 4];

    fn run(params: Params<'static>, suite: &TestSuite<i64>) -> Result<Outcome, ErPiError> {
        run_chunked(params, DEFAULT_CHUNK_SIZE, suite)
    }

    fn run_chunked(
        params: Params<'static>,
        chunk_size: usize,
        suite: &TestSuite<i64>,
    ) -> Result<Outcome, ErPiError> {
        let model = &RegApp;
        Campaign::new(params, chunk_size).run(Subject { model, suite })
    }

    fn converge() -> TestSuite<i64> {
        TestSuite::new().with(Assertion::replicas_converge("conv"))
    }

    /// Every deterministic field of two outcomes.
    fn assert_same(a: &Outcome, b: &Outcome, what: &str) {
        assert_eq!(a.runs, b.runs, "{what}: runs");
        assert_same_but_for_records(a, b, what);
    }

    fn assert_same_but_for_records(a: &Outcome, b: &Outcome, what: &str) {
        assert_eq!(a.explored, b.explored, "{what}: explored");
        assert_eq!(a.failures, b.failures, "{what}: failures");
        assert_eq!(a.violations, b.violations, "{what}: violations");
        assert_eq!(a.first_violation_at, b.first_violation_at, "{what}");
        assert_eq!(a.sim_us, b.sim_us, "{what}: sim_us");
        assert_eq!(a.stopped_early, b.stopped_early, "{what}: stopped_early");
        assert_eq!(a.prune_stats, b.prune_stats, "{what}: prune_stats");
        assert_eq!(a.wasted, b.wasted, "{what}: wasted");
    }

    #[test]
    fn every_slot_count_covers_the_space_in_exploration_order() {
        let w = two_writes();
        let scan: Vec<Interleaving> = DfsExplorer::new(&w).collect();
        for slots in SLOT_COUNTS {
            let out = run(dfs_params(w.clone(), slots), &TestSuite::new()).unwrap();
            let replayed: Vec<&Interleaving> = out.runs.iter().map(|r| &r.interleaving).collect();
            assert_eq!(
                replayed,
                scan.iter().collect::<Vec<_>>(),
                "{slots} slots must preserve exploration order"
            );
            assert!(!out.stopped_early);
            assert_eq!(out.worker_loads.len(), slots);
            let total: usize = out.worker_loads.iter().map(|l| l.runs).sum();
            assert_eq!(total, 24, "no lost or duplicated runs across slots");
        }
    }

    #[test]
    fn lowest_indexed_violation_wins() {
        let w = two_writes();
        let stop_first = |slots| {
            let mut params = dfs_params(w.clone(), slots);
            params.replay.stop_on_first_violation = true;
            run(params, &converge()).unwrap()
        };
        let baseline = stop_first(1);
        let first = baseline.first_violation_at.expect("some order diverges");
        assert_eq!(baseline.explored, first + 1);
        assert_eq!(baseline.runs.len(), first + 1);
        assert!(baseline.stopped_early);
        for slots in [2, 4, 8] {
            assert_same(&stop_first(slots), &baseline, &format!("{slots} slots"));
        }
    }

    /// The report does not depend on the claim granularity — the reason
    /// `DEFAULT_CHUNK_SIZE` is a constant and not an option.
    #[test]
    fn any_chunking_gives_the_same_result() {
        let w = two_writes();
        for (stop, cap) in [(false, usize::MAX), (true, usize::MAX), (false, 10)] {
            let params = |slots| {
                let mut params = dfs_params(w.clone(), slots);
                params.replay.stop_on_first_violation = stop;
                params.replay.cap = cap;
                params.replay.incremental = true;
                params
            };
            let baseline = run_chunked(params(1), 1, &converge()).unwrap();
            assert_eq!(baseline.stopped_early, stop || cap == 10);
            for chunk_size in [1, 3, DEFAULT_CHUNK_SIZE] {
                for slots in SLOT_COUNTS {
                    let out = run_chunked(params(slots), chunk_size, &converge()).unwrap();
                    let what = format!("chunks of {chunk_size} on {slots} slots, stop={stop}");
                    assert_same(&out, &baseline, &what);
                }
            }
        }
    }

    /// Default retention keeps a `(sim_us, failed_ops)` row per run and no
    /// record; every number of the outcome comes out the same as from the
    /// records, cut or uncut, in order or parked.
    #[test]
    fn a_campaign_without_records_sums_to_the_same_outcome() {
        let w = two_writes();
        for stop in [false, true] {
            let params = |slots, keep_runs| {
                let mut params = dfs_params(w.clone(), slots);
                params.replay.stop_on_first_violation = stop;
                params.replay.keep_runs = keep_runs;
                params
            };
            let kept = run(params(1, true), &converge()).unwrap();
            assert_eq!(kept.runs.len(), kept.explored);
            let from_records = FailureStats::from_runs(&kept.runs);
            assert_eq!(kept.failures, from_records);
            assert_eq!(kept.sim_us, kept.runs.iter().map(|r| r.sim_us).sum::<u64>());
            for chunk_size in [1, 3, DEFAULT_CHUNK_SIZE] {
                for slots in SLOT_COUNTS {
                    let bare = run_chunked(params(slots, false), chunk_size, &converge()).unwrap();
                    assert!(bare.runs.is_empty(), "nothing asked for records");
                    let what = format!("chunks of {chunk_size} on {slots} slots, stop={stop}");
                    assert_same_but_for_records(&bare, &kept, &what);
                }
            }
        }
    }

    /// A run that fails two assertions gives each violation its
    /// interleaving: a copy to the first and the run's own to the last — or,
    /// with the records kept, a copy to each and the run's own to its
    /// record.
    #[test]
    fn every_violation_carries_its_runs_interleaving() {
        let w = two_writes();
        let scan: Vec<Interleaving> = DfsExplorer::new(&w).collect();
        let suite = TestSuite::new()
            .with(Assertion::replicas_converge("conv"))
            .with(Assertion::replicas_converge("conv-again"));
        for keep_runs in [false, true] {
            let mut baseline: Option<Outcome> = None;
            for slots in SLOT_COUNTS {
                for chunk_size in [1, 3, DEFAULT_CHUNK_SIZE] {
                    let mut params = dfs_params(w.clone(), slots);
                    params.replay.keep_runs = keep_runs;
                    let out = run_chunked(params, chunk_size, &suite).unwrap();
                    let what = format!("chunks of {chunk_size} on {slots} slots, keep={keep_runs}");
                    assert!(!out.violations.is_empty(), "{what}: some order diverges");
                    for pair in out.violations.chunks(2) {
                        let names = [&*pair[0].assertion, &*pair[1].assertion];
                        assert_eq!(names, ["conv", "conv-again"], "{what}");
                        assert_eq!(pair[0].run, pair[1].run, "{what}");
                    }
                    for violation in &out.violations {
                        let run = violation.run.expect("a per-run violation");
                        let il = violation.interleaving.as_ref();
                        assert_eq!(il, Some(&scan[run]), "{what}: run {run}");
                    }
                    match keep_runs {
                        true => {
                            let kept: Vec<&Interleaving> =
                                out.runs.iter().map(|r| &r.interleaving).collect();
                            assert_eq!(kept, scan.iter().collect::<Vec<_>>(), "{what}");
                        }
                        false => assert!(out.runs.is_empty(), "{what}"),
                    }
                    match &baseline {
                        Some(baseline) => assert_same(&out, baseline, &what),
                        None => baseline = Some(out),
                    }
                }
            }
        }
    }

    /// Equal texts come back as one string: from what the assertion stored
    /// last, or, with another message in between, from the slot's set.
    #[test]
    fn equal_messages_share_one_string() {
        let mut messages = Messages::default();
        let a = messages.intern(1, "a".to_string());
        let b = messages.intern(1, "b".to_string());
        let a_again = messages.intern(1, "a".to_string());
        let b_again = messages.intern(1, "b".to_string());
        assert_eq!((&*a, &*b), ("a", "b"));
        assert!(Arc::ptr_eq(&a, &a_again) && Arc::ptr_eq(&b, &b_again));
        assert!(Arc::ptr_eq(&b, &messages.intern(1, "b".to_string())));
        // Another assertion finds the text another one stored.
        assert!(Arc::ptr_eq(&a, &messages.intern(0, "a".to_string())));
        assert_eq!(&*messages.intern(0, "c".to_string()), "c");
        assert_eq!(messages.seen.len(), 3);
    }

    /// Stop-on-first replays nothing past the violation on one slot: the
    /// rest of the claimed chunk is skipped, not executed and discarded.
    #[test]
    fn one_slot_stops_checking_at_the_first_violation() {
        let checked = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&checked);
        let suite = TestSuite::new().with(Assertion::new("counting-conv", move |ctx| {
            counter.fetch_add(1, Ordering::Relaxed);
            match ctx.states[0] == ctx.states[1] {
                true => Ok(()),
                false => Err("diverged".into()),
            }
        }));
        let mut params = dfs_params(two_writes(), 1);
        params.replay.stop_on_first_violation = true;
        let out = run(params, &suite).unwrap();
        let first = out.first_violation_at.expect("some order diverges");
        assert!(first > 0 && first + 1 < 24, "a stop in mid-chunk");
        assert_eq!(checked.load(Ordering::Relaxed), first as u64 + 1);
    }

    #[test]
    fn incremental_matches_scratch_on_every_slot_count() {
        let w = two_writes();
        for slots in SLOT_COUNTS {
            let scratch = run(dfs_params(w.clone(), slots), &TestSuite::new()).unwrap();
            let mut params = dfs_params(w.clone(), slots);
            params.replay.incremental = true;
            let incremental = run(params, &TestSuite::new()).unwrap();
            assert_same(&incremental, &scratch, &format!("{slots} slots"));
            assert!(scratch.cache_stats.is_none());
            let stats = incremental.cache_stats.expect("incremental counters");
            assert_eq!(stats.hits + stats.misses, 24);
        }
    }

    /// Each run of a chunk is told the branch depths of the items after it,
    /// and the last one its branch depth to the first item of the next
    /// chunk: it keeps snapshots only on the prefix the two share, where a
    /// run told nothing would keep every interior depth.
    ///
    /// Under a fault product of `P ≤ 32` plans a claim holds `⌊32 / P⌋ · P`
    /// items and ends on a base order, and each faulted run is told the
    /// branch depths between its own plan's runs, to the first one past the
    /// claim; the fault-free plan is told nothing. Over 32 plans a claim
    /// holds 32 items, and where the next item is a run of the same base
    /// order nothing is known past the claim: the window is empty.
    #[test]
    fn the_lookahead_crosses_chunk_boundaries() {
        let w = two_writes();
        let orders: Vec<Interleaving> = DfsExplorer::new(&w).take(4).collect();
        let shared = orders[2].common_prefix_len(&orders[3]);
        assert!(shared < w.len() - 1, "a run told nothing keeps more");

        let mut params = dfs_params(w.clone(), 1);
        params.replay.incremental = true;
        let campaign = Campaign::new(params, 3);
        let on = Subject {
            model: &RegApp,
            suite: &TestSuite::new(),
        };
        assert!(campaign.step(0, on), "runs 0..3");
        let slot = campaign.slots[0].lock();
        assert_eq!(slot.executor.resident_snapshots(), shared);
        let pairs = orders.windows(2);
        let depths: Vec<u32> = pairs
            .map(|pair| pair[0].common_prefix_len(&pair[1]) as u32)
            .collect();
        assert_eq!(slot.chunk.lookahead, depths, "each pair, and one past");
        drop(slot);

        let sync = w
            .events()
            .iter()
            .find(|event| event.is_sync())
            .expect("a sync");
        let delay = |by| FaultPlan::new(vec![FaultEvent::new(sync.id, FaultKind::Delay { by })]);
        for count in [5, 40] {
            let plans: Vec<FaultPlan> = std::iter::once(FaultPlan::empty())
                .chain((1..count).map(delay))
                .collect();
            let p = plans.len();
            let product: Vec<Interleaving> =
                FaultProduct::new(DfsExplorer::new(&w), plans.clone()).collect();
            let params = |incremental| {
                let mut params = dfs_params(w.clone(), 1);
                params.replay.incremental = incremental;
                params.plans = plans.clone();
                params
            };
            let campaign = Campaign::new(params(true), DEFAULT_CHUNK_SIZE);
            assert!(campaign.step(0, on));
            let claim = match p <= DEFAULT_CHUNK_SIZE {
                true => DEFAULT_CHUNK_SIZE / p * p,
                false => DEFAULT_CHUNK_SIZE,
            };
            let slot = campaign.slots[0].lock();
            assert_eq!(slot.load.runs, claim, "{p} plans");
            let peeked = campaign.disp.lock().peeked.map(|(at, _)| at);
            assert_eq!(peeked, Some(claim), "{p} plans");
            let chunk = &slot.chunk;
            for (at, il) in product[..claim].iter().enumerate() {
                let trunk = p > 1 && il.faults().is_empty();
                let ahead = window(&chunk.lookahead, &chunk.bases, at, trunk);
                let own: Vec<u32> = match (il.faults().is_empty(), p <= DEFAULT_CHUNK_SIZE) {
                    (true, _) => Vec::new(),
                    (false, true) => {
                        assert_eq!(claim % p, 0, "the claim ends on a base order");
                        let runs = (at..claim).step_by(p);
                        let depth = |i: usize| product[i].common_prefix_len(&product[i + p]) as u32;
                        runs.map(depth).collect()
                    }
                    (false, false) => Vec::new(),
                };
                assert_eq!(ahead, own, "{p} plans, run {at}");
            }
            drop(slot);
            while campaign.step(0, on) {}
            let scratch = run(params(false), &TestSuite::new()).unwrap();
            assert_same(&campaign.finish().unwrap(), &scratch, &format!("{p} plans"));
        }
    }

    #[test]
    fn subsumption_matches_plain_on_every_slot_count() {
        let w = two_writes();
        for slots in SLOT_COUNTS {
            let plain = run(dfs_params(w.clone(), slots), &TestSuite::new()).unwrap();
            let mut params = dfs_params(w.clone(), slots);
            params.replay.subsumption = true;
            let subsuming = run(params, &TestSuite::new()).unwrap();
            assert_same(&subsuming, &plain, &format!("{slots} slots"));
            let stats = subsuming.cache_stats.expect("subsumption-only counters");
            assert_eq!(stats.hits + stats.misses, 24);
            assert_eq!(stats.hits, 0, "a zero budget keeps no snapshot");
            if slots == 1 {
                // Deterministic on one slot: later permutations of the
                // two-writes space re-reach explored states.
                assert!(stats.subsumed > 0, "subsumption must fire");
            }
        }
    }

    #[test]
    fn model_panics_surface_as_executor_panic_on_every_slot_count() {
        let mut w = Workload::builder();
        w.update(er_pi_model::ReplicaId::new(0), "x", [Value::from(1)]);
        w.update(er_pi_model::ReplicaId::new(0), "y", [Value::from(2)]);
        let w = w.build();
        for slots in SLOT_COUNTS {
            let campaign = Campaign::new(dfs_params(w.clone(), slots), DEFAULT_CHUNK_SIZE);
            let (model, suite) = (&Bomb, &TestSuite::new());
            match campaign.run(Subject { model, suite }) {
                Err(ErPiError::ExecutorPanic(what)) => assert!(what.contains("campaign kaboom")),
                other => panic!(
                    "{slots} slots: expected ExecutorPanic, got {:?}",
                    other.map(|o| o.explored)
                ),
            }
        }
    }

    #[test]
    fn a_tripped_token_cancels_at_the_claim_and_before_the_merge() {
        let suite = TestSuite::new();
        for slots in SLOT_COUNTS {
            // Tripped before the first claim: nothing runs.
            let token = CancelToken::new();
            token.cancel();
            let mut params = dfs_params(two_writes(), slots);
            params.instrument.attach.cancel = Some(token);
            let result = run(params, &suite);
            assert!(matches!(result, Err(ErPiError::Cancelled)), "{slots} slots");
        }

        // Tripped after the last claim: every run is in the table, and the
        // campaign is still discarded.
        let token = CancelToken::new();
        let mut params = dfs_params(two_writes(), 1);
        params.instrument.attach.cancel = Some(token.clone());
        let campaign = Campaign::new(params, DEFAULT_CHUNK_SIZE);
        let on = Subject {
            model: &RegApp,
            suite: &suite,
        };
        while campaign.step(0, on) {}
        assert_eq!(campaign.phase(), Phase::Settled);
        assert_eq!(campaign.table.lock().merged.tallies.len(), 24);
        token.cancel();
        assert!(matches!(campaign.finish(), Err(ErPiError::Cancelled)));
    }

    #[test]
    fn workers_override_parses_strictly() {
        assert_eq!(parse_workers_override("4"), Some(4));
        assert_eq!(parse_workers_override(" 16 "), Some(16));
        assert_eq!(parse_workers_override("0"), None, "zero workers is absurd");
        assert_eq!(parse_workers_override(""), None);
        assert_eq!(parse_workers_override("-2"), None);
        assert_eq!(parse_workers_override("many"), None);
        assert_eq!(parse_workers_override("4.5"), None);
    }

    // One test covers both the platform probe and the env override:
    // `available_workers` reads `ER_PI_WORKERS` on every call, so keeping
    // the two scenarios in a single #[test] stops the parallel harness
    // from interleaving them.
    #[test]
    fn zero_workers_and_the_er_pi_workers_override() {
        let mut session = Session::new(RegApp);
        assert_eq!(session.set_workers(0).workers(), available_workers());
        assert!(session.workers() >= 1);

        std::env::set_var("ER_PI_WORKERS", "3");
        let seen = available_workers();
        let pinned = session.set_workers(0).workers();
        std::env::remove_var("ER_PI_WORKERS");
        assert_eq!(seen, 3, "cgroup-limited deployments pin the real budget");
        assert_eq!(pinned, 3);

        std::env::set_var("ER_PI_WORKERS", "not-a-number");
        let garbage = available_workers();
        std::env::remove_var("ER_PI_WORKERS");
        assert!(garbage >= 1, "garbage overrides fall back to the probe");
    }
}
