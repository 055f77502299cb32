//! Prefix-sharing incremental replay: the path cache, and the executor that
//! moves along it as a cursor.
//!
//! Scratch replay re-executes every surviving interleaving from `init_all()`
//! — O(runs · N) event applications — and is this executor at a zero
//! snapshot budget: the campaign's only executor, with nothing kept. But the
//! lexicographic explorers emit interleavings in an order where adjacent
//! schedules share long common prefixes (the average
//! divergent suffix of a next-permutation stream is `e ≈ 2.72` events,
//! independent of N), and in a sorted stream nothing shares more with the
//! next run than the run just before it. So the [`IncrementalExecutor`]
//! keeps only the *path* of the previous run — per fault plan, the executed
//! steps with a snapshot of the replica states after each — and the previous
//! run itself: its states, its outcomes and its running totals per depth. A
//! run takes its plan's path cut back to the prefix it repeats (what the cut
//! removes is freed on the spot), pops the previous run's buffers back to
//! that prefix, refills the states in place from the deepest snapshot left
//! (dropping the snapshot on its last use), applies only the divergent
//! suffix and leaves the extended path behind. A path never holds
//! the final depth, so at most `(N - 1) × plans` snapshots are resident.
//!
//! ## Correctness (DESIGN.md §10)
//!
//! [`SystemModel::apply`] is required to be deterministic in
//! `(states, event)` and `State: Clone` must produce an observationally
//! independent copy. Under those two contracts, the state reached by
//! applying events `e₀…e_{d-1}` is a pure function of that prefix — so resuming from a
//! snapshot taken at depth `d` and applying `e_d…e_{N-1}` reaches exactly
//! the state a scratch replay would. So are the outcomes of that prefix and
//! the time it is charged: what the previous run holds for the steps it
//! shares with this one — matched by `(event, fault digest)`, the key the
//! path is matched by — is what this run would compute, and stays where it
//! is; where the path vouches for more than the previous run does (another
//! plan's run came in between), the difference is refilled from the path
//! (each step stores the [`OpOutcome`] observed when it was executed). The
//! run — states, outcomes, `sim_us` — is byte-identical to the scratch
//! executor's. `CacheStats::sim_us_saved` separately records how much of
//! that total was never physically re-executed. The lookahead hint of
//! [`IncrementalExecutor::advance`] only decides which snapshots are kept:
//! a wrong hint makes a later run resume shallower, never differently.

use std::sync::Arc;

use er_pi_model::{EventId, Interleaving, ReplicaId, Workload};

use crate::faultexec::FaultInterpreter;
use crate::subsume::{suffix_hashes, End, MemoId, SubsumeKey, SubsumeSet};
use crate::{CacheStats, Execution, ExecutionRef, OpOutcome, SystemModel, TimeModel};

/// The snapshot budget of every incremental campaign's executors: 64 MiB of
/// [`state_size_hint`](SystemModel::state_size_hint)-accounted state (a
/// scratch campaign's executors get 0). Not an option: every shipped
/// subject's full-workload snapshot is charged under a kilobyte (pinned by
/// `tests/snapshot_allocs.rs`; the benchmark times the same clone as
/// `model.snapshot_clone_ns`), so the one thing that can make it bind is a
/// model whose hint says its states are that large.
pub const DEFAULT_CACHE_BUDGET: usize = 64 * 1024 * 1024;

/// The replica states after some prefix: one block, built straight from
/// the cursor's states and shared by `Arc` between the paths of different
/// fault plans, beside its budget charge. The charge is carried by every
/// path holding the block and released by the last one to drop it.
#[derive(Debug, Clone)]
struct Snapshot<S> {
    states: Arc<[S]>,
    /// Budget charge for this snapshot (Σ `state_size_hint`, at least 1).
    bytes: usize,
}

impl<S> Snapshot<S> {
    /// Whether no other path holds these states: dropping this handle
    /// frees them, and their charge with them.
    fn last(&self) -> bool {
        Arc::strong_count(&self.states) == 1
    }
}

/// One executed step of a path: `steps[d - 1]` is the step that took the
/// run from depth `d - 1` to depth `d`.
///
/// A step is keyed by `(event, fault digest)`, the digest being
/// [`FaultPlan::digest_at`](er_pi_model::FaultPlan::digest_at) for the
/// step's event (0 when no fault anchors there). Two plans that agree on
/// every anchor along a prefix deterministically reach the same states
/// there (all derived effects of an anchor — delayed firings, partition
/// windows, crash recovery — occur at or after the anchor's own step), so a
/// faulted plan may borrow the fault-free plan's steps up to its first
/// anchored fault; plans diverge at the first differing digest.
#[derive(Debug, Clone)]
struct Step<S> {
    event: EventId,
    /// Digest of the faults anchored at `event` under the path's plan.
    digest: u64,
    /// Outcome of applying that event at this prefix.
    outcome: OpOutcome,
    /// The states after this step, unless the budget refused them.
    snapshot: Option<Snapshot<S>>,
}

/// The steps of the most recent run under one fault plan, as far as a later
/// run can resume from them.
#[derive(Debug)]
struct Path<S> {
    /// [`FaultPlan::digest`](er_pi_model::FaultPlan::digest); 0 is the
    /// fault-free plan, whose path the other plans borrow from. Only a
    /// bucketing key: what a run may reuse is decided step by step.
    plan: u64,
    steps: Vec<Step<S>>,
}

/// Every plan's [`Path`], under a budget on the snapshot bytes resident
/// across all of them: a store that would exceed it is skipped, and a
/// budget of 0 disables caching entirely.
#[derive(Debug)]
struct PathCache<S> {
    paths: Vec<Path<S>>,
    budget: usize,
    bytes_resident: usize,
}

/// How many of the leading `(event, fault digest)` keys — of a path's steps,
/// or of the rows of the run the cursor is on — the first `limit` events of
/// `il` repeat. This is the one definition of "shares a prefix with `il`":
/// what it counts, a later run may reuse.
fn matching(keys: impl Iterator<Item = (EventId, u64)>, il: &Interleaving, limit: usize) -> usize {
    let plan = il.faults();
    keys.zip(il.iter())
        .take(limit)
        .take_while(|&((event, digest), &id)| event == id && digest == plan.digest_at(id))
        .count()
}

impl<S: Clone> PathCache<S> {
    /// How many leading steps of `steps` the first `N - 1` events of `il`
    /// repeat, fault digests included.
    fn matching(steps: &[Step<S>], il: &Interleaving) -> usize {
        let keys = steps.iter().map(|step| (step.event, step.digest));
        matching(keys, il, il.len().saturating_sub(1))
    }

    /// Cuts the path in `slot` back to `len` steps, un-charging every
    /// snapshot no other plan's path still shares.
    fn truncate(&mut self, slot: usize, len: usize) {
        let steps = &mut self.paths[slot].steps;
        for step in steps.drain(len.min(steps.len())..) {
            if let Some(last) = step.snapshot.filter(Snapshot::last) {
                self.bytes_resident -= last.bytes;
            }
        }
    }

    /// Cuts the path of `il`'s fault plan back to the deepest snapshot `il`
    /// can resume from (so its length is the resume depth) and returns its
    /// slot in `paths`. Under a faulted plan whose own path matches less of
    /// `il` than the fault-free path does, the difference is borrowed from
    /// the latter first. The path stays in the cache while the run extends
    /// it, so a run that unwinds leaves it as far as it got — every snapshot
    /// on it still charged, none charged that is not on it.
    fn checkout(&mut self, il: &Interleaving) -> usize {
        let plan = il.faults().digest();
        let slot = match self.paths.iter().position(|p| p.plan == plan) {
            Some(slot) => slot,
            None => {
                self.paths.push(Path {
                    plan,
                    steps: Vec::new(),
                });
                self.paths.len() - 1
            }
        };
        let own = Self::matching(&self.paths[slot].steps, il);
        self.truncate(slot, own);
        if plan != 0 {
            if let Some(trunk) = self.paths.iter().position(|p| p.plan == 0) {
                let [path, trunk] = self
                    .paths
                    .get_disjoint_mut([slot, trunk])
                    .expect("a faulted plan's path is not the trunk");
                let shared = Self::matching(&trunk.steps, il);
                if shared > own {
                    path.steps.extend_from_slice(&trunk.steps[own..shared]);
                }
            }
        }
        let steps = &mut self.paths[slot].steps;
        let resume = steps
            .iter()
            .rposition(|step| step.snapshot.is_some())
            .map_or(0, |at| at + 1);
        steps.truncate(resume);
        slot
    }

    /// Refills `into` with the states at the end of the checked-out path in
    /// `slot`; `false` when the path is empty (nothing to resume from).
    /// `into` keeps its allocation: the snapshot is cloned over it element
    /// by element. With `last_use` the path then drops the snapshot, which —
    /// unless another plan's path shares it — releases its charge and
    /// leaves `into` the only holder of its replicas.
    fn resume(&mut self, slot: usize, last_use: bool, into: &mut Vec<S>) -> bool {
        let steps = &mut self.paths[slot].steps;
        let Some(slot) = steps.last_mut().map(|step| &mut step.snapshot) else {
            return false;
        };
        let Some(snapshot) = slot.as_ref() else {
            return false;
        };
        snapshot.states[..].clone_into(into);
        if last_use {
            if let Some(last) = slot.take().filter(Snapshot::last) {
                self.bytes_resident -= last.bytes;
            }
        }
        true
    }

    /// Snapshots `states` if the budget has room for them.
    fn store<M>(&mut self, model: &M, states: &[S]) -> Option<Snapshot<S>>
    where
        M: SystemModel<State = S>,
    {
        let bytes = states
            .iter()
            .map(|s| model.state_size_hint(s))
            .sum::<usize>()
            .max(1);
        if bytes > self.budget.saturating_sub(self.bytes_resident) {
            return None;
        }
        self.bytes_resident += bytes;
        Some(Snapshot {
            states: Arc::from(states),
            bytes,
        })
    }
}

/// One step of the run the cursor is on, beside its outcome: `rows[d - 1]`
/// is the step that took the run from depth `d - 1` to depth `d`, with the
/// run's totals up to there.
#[derive(Debug, Clone, Copy)]
struct Row {
    event: EventId,
    /// As [`Step::digest`]: with `event`, the key a later run must repeat
    /// to share this step.
    digest: u64,
    /// Σ [`TimeModel::event_cost_us`] over events `0..d` — what a run that
    /// resumes at depth `d` does not re-execute.
    sim_us: u64,
    /// Failed outcomes among events `0..d`.
    failed_ops: usize,
}

/// The run an executor is on: the buffers one run leaves and the next takes
/// over, cut back to the prefix the two share.
#[derive(Debug)]
struct Cursor<S> {
    /// Replica states at the end of the run.
    states: Vec<S>,
    /// Per-event outcomes, aligned with the run's interleaving.
    outcomes: Vec<OpOutcome>,
    /// One row per outcome.
    rows: Vec<Row>,
    /// [`TimeModel::reset_cost_us`] as of the run.
    reset_us: u64,
}

impl<S> Default for Cursor<S> {
    fn default() -> Self {
        Cursor {
            states: Vec::new(),
            outcomes: Vec::new(),
            rows: Vec::new(),
            reset_us: 0,
        }
    }
}

impl<S> Cursor<S> {
    /// How many of the first `limit` steps of the held run `il` repeats,
    /// under the key of [`PathCache::matching`].
    fn matching(&self, il: &Interleaving, limit: usize) -> usize {
        let keys = self.rows.iter().map(|row| (row.event, row.digest));
        matching(keys, il, limit)
    }

    fn truncate(&mut self, depth: usize) {
        self.outcomes.truncate(depth);
        self.rows.truncate(depth);
    }

    /// `(sim_us, failed_ops)` of the steps held so far.
    fn totals(&self) -> (u64, usize) {
        self.rows
            .last()
            .map_or((0, 0), |row| (row.sim_us, row.failed_ops))
    }

    fn push(&mut self, event: EventId, digest: u64, cost_us: u64, outcome: OpOutcome) {
        let (sim_us, failed_ops) = self.totals();
        self.rows.push(Row {
            event,
            digest,
            sim_us: sim_us + cost_us,
            failed_ops: failed_ops + usize::from(outcome.is_failed()),
        });
        self.outcomes.push(outcome);
    }

    fn view(&self) -> ExecutionRef<'_, S> {
        let (sim_us, failed_ops) = self.totals();
        ExecutionRef {
            states: &self.states,
            outcomes: &self.outcomes,
            sim_us: self.reset_us + sim_us,
            failed_ops,
        }
    }
}

/// Replays interleavings as a cursor over the exploration tree: each run
/// pops the previous one back to the prefix the two share and pushes only
/// the divergent suffix.
///
/// The executor owns the run it is on — final `states`, per-event
/// `outcomes`, and the running simulated-time and failed-op totals per
/// depth. [`advance`](IncrementalExecutor::advance) moves it to the next
/// interleaving: what the two runs share under the `(event, fault digest)`
/// key stays where it is, `states` is refilled in place from the deepest
/// snapshot on the path, and the rest is executed. A resumed run therefore
/// allocates no vector, clones no outcome of the shared prefix and prices
/// none of its events again. [`run`](IncrementalExecutor::run)
/// borrows the result; [`execute`](IncrementalExecutor::execute) is the
/// same body handing the buffers out as an owned [`Execution`], which leaves
/// the cursor empty — the next run then rebuilds its prefix from the path,
/// as a fresh executor with a warm path cache would. A run that unwinds out of
/// [`SystemModel::apply`] leaves the cursor empty too, and its path as far
/// as it got, the budget charged for exactly the snapshots on it.
///
/// Every run is byte-identical to
/// [`InlineExecutor`](crate::InlineExecutor)'s — states, outcomes and
/// `sim_us` — for any budget, any hint and any order of interleavings; the
/// differential-equivalence harness (`tests/incremental_equivalence.rs`,
/// `tests/suite/incremental_props.rs`) pins this. At budget 0 it keeps no
/// snapshot and every run replays from `init_all()` into the buffers of the
/// run before: that is the campaign's scratch replay. An executor serves
/// one model, one workload and one time model (snapshots, outcomes and
/// per-depth costs are all remembered by event id). Each executor owns its paths, so a
/// campaign gives one to each replay slot: its chunked claims are a
/// subsequence of the sorted stream, sorted too, so it loses nothing.
#[derive(Debug)]
pub struct IncrementalExecutor<M: SystemModel> {
    cache: PathCache<M::State>,
    cursor: Cursor<M::State>,
    stats: CacheStats,
    last_resume_depth: usize,
    last_run_subsumed: bool,
    /// The campaign-wide explored-set, when state-hash subsumption is on.
    subsume: Option<Arc<SubsumeSet<M::State>>>,
    /// Whether the model supports a faithful state encoding — probed once
    /// per executor on the first run (`None` = not yet probed).
    subsume_supported: Option<bool>,
    /// The initial states of the model this executor serves, built on the
    /// first run; a run that resumes from nothing starts from a clone.
    init: Option<Vec<M::State>>,
    /// Per-run subsumption scratch, kept for its capacity: the current run's
    /// suffix hashes, and the keys it probed as misses.
    suffixes: Vec<u64>,
    pending: Vec<(SubsumeKey, Option<Box<[u8]>>)>,
}

impl<M: SystemModel> IncrementalExecutor<M> {
    /// Creates an executor with no paths, an empty cursor and the given
    /// snapshot budget (see [`DEFAULT_CACHE_BUDGET`]).
    pub fn new(budget: usize) -> Self {
        IncrementalExecutor {
            cache: PathCache {
                paths: Vec::new(),
                budget,
                bytes_resident: 0,
            },
            cursor: Cursor::default(),
            stats: CacheStats::default(),
            last_resume_depth: 0,
            last_run_subsumed: false,
            subsume: None,
            subsume_supported: None,
            init: None,
            suffixes: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Attaches the campaign's shared explored-set; subsequent runs may be
    /// short-circuited by subsumption (and feed the set). Inert when the
    /// model declines [`SystemModel::state_encode`].
    pub(crate) fn enable_subsumption(&mut self, set: Arc<SubsumeSet<M::State>>) {
        self.subsume = Some(set);
    }

    /// The prefix depth the most recent run resumed from (0 = scratch
    /// replay). Telemetry reads this to attribute each run as a cache hit
    /// or miss.
    pub fn last_resume_depth(&self) -> usize {
        self.last_resume_depth
    }

    /// Whether the most recent run was short-circuited (or, in audit mode,
    /// verified) by state-hash subsumption.
    pub fn last_run_subsumed(&self) -> bool {
        self.last_run_subsumed
    }

    /// The cache counters so far. `bytes_resident` reflects the paths'
    /// current occupancy; the other fields are cumulative.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            bytes_resident: self.cache.bytes_resident,
            ..self.stats
        }
    }

    /// Snapshots currently held, counted per path (one shared by two fault
    /// plans counts twice): at most `(N - 1) × plans seen`.
    pub fn resident_snapshots(&self) -> usize {
        let steps = self.cache.paths.iter().flat_map(|path| &path.steps);
        steps.filter(|step| step.snapshot.is_some()).count()
    }

    /// [`advance`](IncrementalExecutor::advance)s to `il`, unhinted, and
    /// hands the run out as an owned [`Execution`].
    ///
    /// The buffers leave with it, so the cursor is empty afterwards: the
    /// next run allocates its own and refills the shared prefix's outcomes
    /// from the path. Callers that only read a run take
    /// [`advance`](IncrementalExecutor::advance) +
    /// [`run`](IncrementalExecutor::run) instead.
    pub fn execute(
        &mut self,
        model: &M,
        workload: &Workload,
        il: &Interleaving,
        time: &TimeModel,
    ) -> Execution<M::State> {
        self.advance(model, workload, il, None, time);
        let sim_us = self.run().sim_us;
        let mut run = std::mem::take(&mut self.cursor);
        // The rows have no place in an `Execution`: emptied, their buffer
        // stays for the next run.
        run.rows.clear();
        self.cursor.rows = run.rows;
        Execution {
            states: run.states,
            outcomes: run.outcomes,
            sim_us,
        }
    }

    /// The run the cursor is on: the most recent
    /// [`advance`](IncrementalExecutor::advance), borrowed. Empty (no
    /// states, no outcomes) on a fresh executor, after
    /// [`execute`](IncrementalExecutor::execute) moved the run out, and
    /// after a run that unwound.
    pub fn run(&self) -> ExecutionRef<'_, M::State> {
        self.cursor.view()
    }

    /// Moves the cursor to `il`: executes it, resuming from the deepest
    /// snapshot the previous run under the same fault plan left on the
    /// shared prefix, and keeps the result for [`run`](IncrementalExecutor::run).
    /// An executor serves one model: its initial states are built once,
    /// from the model of the first call.
    ///
    /// `next` is an advisory hint: the interleaving this executor will be
    /// handed after `il`, if the caller knows it. It is used only when it
    /// carries `il`'s fault plan. Snapshots are then kept only at depths the
    /// two share — deeper ones would be cut before anyone could resume from
    /// them — and the snapshot `il` resumes from is dropped as soon as the
    /// run is refilled from it when `next` diverges above it. Without a hint
    /// every interior depth is kept.
    ///
    /// The run is byte-identical to
    /// [`InlineExecutor::execute`](crate::InlineExecutor::execute) whatever
    /// the hint: the reported `sim_us` still charges `reset_cost_us` plus
    /// every event's cost (a rewind *is* a state reset, and skipped prefix
    /// events are charged as if replayed); [`CacheStats::sim_us_saved`]
    /// records the portion that was never physically re-executed.
    pub fn advance(
        &mut self,
        model: &M,
        workload: &Workload,
        il: &Interleaving,
        next: Option<&Interleaving>,
        time: &TimeModel,
    ) {
        let n = il.len();
        let plan = il.faults();
        // The deepest step worth keeping for the next run.
        let keep = match next {
            _ if self.cache.budget == 0 => 0,
            Some(next) if next.faults() == plan => il.common_prefix_len(next),
            _ => usize::MAX,
        };
        let slot = self.cache.checkout(il);
        let resume_depth = self.cache.paths[slot].steps.len();
        self.last_resume_depth = resume_depth;

        // The run is taken out for as long as it is being rewritten: if
        // `apply` unwinds, it is dropped and the cursor stays empty.
        let mut run = std::mem::take(&mut self.cursor);
        run.reset_us = time.reset_cost_us;
        // What the previous run and the path both vouch for stays in place.
        // Past it, up to the resume depth, the path knows better: another
        // plan's run came in between (a plan-minor fault stream), or the
        // steps were borrowed from the fault-free trunk.
        let cost_us = |id: EventId| time.event_cost_us(workload.event(id));
        let kept = run.matching(il, resume_depth);
        run.truncate(kept);
        // A no-op on buffers that held a run of this workload before.
        run.outcomes.reserve(n - kept);
        run.rows.reserve(n - kept);
        for step in &self.cache.paths[slot].steps[kept..] {
            let cost_us = cost_us(step.event);
            run.push(step.event, step.digest, cost_us, step.outcome.clone());
        }

        if self
            .cache
            .resume(slot, keep < resume_depth, &mut run.states)
        {
            self.stats.hits += 1;
            self.stats.events_saved += resume_depth as u64;
            self.stats.sim_us_saved += run.totals().0;
        } else {
            self.stats.misses += 1;
            match self.cache.budget {
                // No snapshot will share these states, so they are built
                // fresh rather than cloned from the kept initial ones: each
                // replica is the run's own, and its first write copies
                // nothing.
                0 => {
                    run.states.clear();
                    let replicas = 0..model.replicas() as u16;
                    run.states
                        .extend(replicas.map(|r| model.init(ReplicaId::new(r))));
                }
                _ => {
                    let init = self.init.get_or_insert_with(|| model.init_all());
                    run.states.clone_from(init);
                }
            }
        }

        // Rebuild the fault interpreter's bookkeeping (partition topology,
        // outstanding delayed effects) as of the resume depth; the snapshot
        // states already contain everything the skipped prefix did.
        let mut faults = FaultInterpreter::new(plan);
        faults.fast_forward(workload, il.as_slice(), resume_depth);

        // Subsumption bookkeeping. The probe runs at the resume depth
        // (states come straight from the snapshot — a hit costs zero event
        // applications) and again after every applied suffix step: two
        // orders that permute only commuting events coincide a step or two
        // *past* their divergence point, so the resume-depth probe alone
        // would miss nearly every hit.
        self.last_run_subsumed = false;
        if self.subsume.is_some() && self.subsume_supported.is_none() {
            let init = self.init.get_or_insert_with(|| model.init_all());
            self.subsume_supported = Some(model.state_digest(init).is_some());
        }
        let sub: Option<&SubsumeSet<M::State>> = match self.subsume_supported {
            Some(true) => self.subsume.as_deref(),
            _ => None,
        };
        if sub.is_some() {
            suffix_hashes(il, resume_depth, &mut self.suffixes);
        }
        let suffixes = &self.suffixes;
        // A run that unwound out of `apply` must not leave keys behind for
        // the next run to record.
        self.pending.clear();
        let pending = &mut self.pending;
        // In audit mode a hit does not short-circuit: the tail executes
        // anyway and is compared against the donor's at the end of the run.
        let audit = sub.is_some_and(SubsumeSet::audit);

        let mut probe = |states: &[M::State],
                         faults: &FaultInterpreter<'_>,
                         depth: usize|
         -> Option<(usize, MemoId)> {
            let set = sub?;
            if depth >= n {
                return None;
            }
            let digest = model.state_digest(states)?;
            let bytes = match set.audit() {
                true => encode_states(model, states).map(Vec::into_boxed_slice),
                false => None,
            };
            let key = SubsumeKey {
                state: digest,
                faults: faults.pending_digest(),
                suffix: suffixes[depth],
                depth: depth as u32,
            };
            let hit = set.lookup(&key, bytes.as_deref());
            if hit.is_none() {
                pending.push((key, bytes));
            }
            hit.map(|memo| (depth, memo))
        };

        // The first hit: the depth from which this run's tail is that memo's.
        let mut donor = probe(&run.states, &faults, resume_depth);
        if donor.is_none() || audit {
            for (pos, &id) in il.iter().enumerate().skip(resume_depth) {
                let event = workload.event(id);
                let digest = plan.digest_at(id);
                // Delayed effects due at this step land inside it, before the
                // snapshot, so a stored prefix is the full deterministic
                // function of its `(events, anchored faults)` path.
                let outcome = faults.step(model, &mut run.states, workload, event, pos);
                // Extend the path through every interior depth worth keeping;
                // the final depth is never resumed from (a repeat of the same
                // interleaving resumes at N-1 and re-applies the last event),
                // and the end-of-run fault flush below therefore never leaks
                // into a snapshot.
                if pos + 1 < n && pos < keep {
                    let snapshot = self.cache.store(model, &run.states);
                    self.cache.paths[slot].steps.push(Step {
                        event: id,
                        digest,
                        outcome: outcome.clone(),
                        snapshot,
                    });
                }
                run.push(id, digest, time.event_cost_us(event), outcome);
                if donor.is_none() {
                    donor = probe(&run.states, &faults, pos + 1);
                    if donor.is_some() && !audit {
                        break;
                    }
                }
            }
        }
        match (donor, sub) {
            // Ends the run at `depth` with the donor's tail.
            (Some((depth, memo)), Some(set)) if !audit => set.read_tail(memo, depth, |mut tail| {
                for (&id, outcome) in il.as_slice()[depth..].iter().zip(tail.by_ref()) {
                    run.push(id, plan.digest_at(id), cost_us(id), outcome.clone());
                }
                run.states.clear();
                run.states.extend_from_slice(tail.states());
            }),
            _ => faults.finish(model, &mut run.states, workload),
        }

        if let Some((depth, memo)) = donor {
            if let Some(set) = sub.filter(|_| audit) {
                // The donor's tail is read the way a stitch reads it, through
                // every link of its chain.
                let (outcomes, states) = set.read_tail(memo, depth, |mut tail| {
                    let outcomes: Vec<OpOutcome> = tail.by_ref().cloned().collect();
                    (outcomes, encode_states(model, tail.states()))
                });
                assert_eq!(
                    &run.outcomes[depth..],
                    &outcomes[..],
                    "ER_PI_SUBSUME_AUDIT: false subsumption at depth {depth}: \
                     executed outcomes diverge from the memoized run"
                );
                assert_eq!(
                    encode_states(model, &run.states),
                    states,
                    "ER_PI_SUBSUME_AUDIT: false subsumption at depth {depth}: \
                     final states diverge from the memoized run"
                );
            }
            self.stats.subsumed += 1;
            self.stats.subsume_events_saved += (n - depth) as u64;
            self.last_run_subsumed = true;
        }
        if let Some(set) = sub {
            if !self.pending.is_empty() {
                // Every depth probed as a miss comes to answer from this
                // run. Stitched or audit-verified, its tail past the donor's
                // depth is the donor's, so it links there; executed, it
                // leaves its final states, under their digest.
                let bytes = match (donor, audit) {
                    (None, true) => encode_states(model, &run.states),
                    _ => None,
                };
                let end = match donor {
                    Some((depth, memo)) => End::Stitched { memo, depth },
                    None => End::Executed {
                        states: &run.states,
                        digest: model.state_digest(&run.states),
                        bytes: bytes.as_deref(),
                    },
                };
                set.record(&mut self.pending, &run.outcomes, end);
            }
        }
        self.cursor = run;
    }
}

/// The length-prefixed canonical encoding [`SystemModel::state_digest`]'s
/// default hashes. Audit mode stores and compares these bytes to tell digest
/// collisions from honest hits. `None` when the model declines encoding.
fn encode_states<M: SystemModel>(model: &M, states: &[M::State]) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    crate::system::encode_states(model, states, &mut buf).then_some(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InlineExecutor;
    use er_pi_model::{Event, EventKind, ReplicaId, Value};

    /// Heap-owning state so `Clone` independence actually matters.
    struct LogModel;

    impl SystemModel for LogModel {
        type State = Vec<i64>;

        fn replicas(&self) -> usize {
            2
        }

        fn init(&self, _replica: ReplicaId) -> Vec<i64> {
            Vec::new()
        }

        fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
            if let EventKind::LocalUpdate { op } = &event.kind {
                let v = op.arg(0).and_then(Value::as_int).unwrap_or(-1);
                states[event.replica.index()].push(v);
                if v % 3 == 0 {
                    return OpOutcome::failed("multiple of three");
                }
            }
            OpOutcome::Applied
        }

        fn observe(&self, state: &Vec<i64>) -> Value {
            state.iter().copied().collect()
        }

        fn state_size_hint(&self, state: &Vec<i64>) -> usize {
            state.len() * std::mem::size_of::<i64>() + std::mem::size_of::<Vec<i64>>()
        }
    }

    fn workload(n: i64) -> Workload {
        let mut w = Workload::builder();
        for i in 0..n {
            w.update(ReplicaId::new((i % 2) as u16), "op", [Value::from(i)]);
        }
        w.build()
    }

    fn lexicographic_orders(n: u32) -> Vec<Interleaving> {
        // All permutations of 0..n in lexicographic order.
        fn recurse(prefix: &mut Vec<u32>, rest: &[u32], out: &mut Vec<Interleaving>) {
            if rest.is_empty() {
                out.push(prefix.iter().copied().map(EventId::new).collect());
                return;
            }
            for (i, &x) in rest.iter().enumerate() {
                let mut next: Vec<u32> = rest.to_vec();
                next.remove(i);
                prefix.push(x);
                recurse(prefix, &next, out);
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        recurse(&mut Vec::new(), &(0..n).collect::<Vec<_>>(), &mut out);
        out
    }

    /// An owned run, read the way the cursor's is.
    fn borrowed(run: &Execution<Vec<i64>>) -> ExecutionRef<'_, Vec<i64>> {
        ExecutionRef {
            states: &run.states,
            outcomes: &run.outcomes,
            sim_us: run.sim_us,
            failed_ops: run.outcomes.iter().filter(|o| o.is_failed()).count(),
        }
    }

    fn assert_same(
        scratch: &Execution<Vec<i64>>,
        inc: ExecutionRef<'_, Vec<i64>>,
        il: &Interleaving,
    ) {
        assert_eq!(scratch.states, inc.states, "states diverged on {il}");
        assert_eq!(scratch.outcomes, inc.outcomes, "outcomes diverged on {il}");
        assert_eq!(scratch.sim_us, inc.sim_us, "sim_us diverged on {il}");
        assert_eq!(borrowed(scratch).failed_ops, inc.failed_ops, "on {il}");
    }

    /// Replays all `n!` lexicographic orders against the scratch executor,
    /// with the true next order as the hint when `hinted`, each run read
    /// borrowed from the cursor the way the campaign reads it; after every
    /// run the cache must hold at most `n - 1` snapshots within the budget.
    fn assert_matches_inline(budget: usize, n: u32, hinted: bool) -> CacheStats {
        let w = workload(n as i64);
        let time = TimeModel::paper_setup();
        let mut exec = IncrementalExecutor::<LogModel>::new(budget);
        let orders = lexicographic_orders(n);
        for (i, il) in orders.iter().enumerate() {
            let next = orders.get(i + 1).filter(|_| hinted);
            let scratch = InlineExecutor::execute(&LogModel, &w, il, &time);
            exec.advance(&LogModel, &w, il, next, &time);
            assert_same(&scratch, exec.run(), il);
            assert!(exec.resident_snapshots() < n as usize);
            assert!(exec.stats().bytes_resident <= budget);
        }
        exec.stats()
    }

    fn shared_prefixes(n: u32) -> u64 {
        let orders = lexicographic_orders(n);
        let shared = orders
            .windows(2)
            .map(|pair| pair[0].common_prefix_len(&pair[1]));
        shared.sum::<usize>() as u64
    }

    #[test]
    fn matches_inline_over_all_permutations() {
        // 120 runs; the first permutation of each depth-1 block (5 of
        // them) necessarily misses, everything else resumes from the
        // previous run's path — at the full common prefix, hinted or not.
        for hinted in [false, true] {
            let stats = assert_matches_inline(DEFAULT_CACHE_BUDGET, 5, hinted);
            assert_eq!(stats.misses, 5);
            assert_eq!(stats.hits, 115);
            assert_eq!(stats.events_saved, shared_prefixes(5));
            assert!(stats.sim_us_saved > 0);
        }
    }

    #[test]
    fn zero_budget_is_scratch() {
        let stats = assert_matches_inline(0, 4, false);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 24);
        assert_eq!(stats.events_saved, 0);
        assert_eq!(stats.bytes_resident, 0);
    }

    #[test]
    fn tiny_budget_skips_stores_and_stays_byte_identical() {
        // Room for one two-replica snapshot: deeper stores are refused.
        for hinted in [false, true] {
            let stats = assert_matches_inline(80, 5, hinted);
            assert_eq!(stats.hits + stats.misses, 120);
            assert!(stats.hits > 0, "one snapshot still serves resumes");
            assert!(stats.events_saved < shared_prefixes(5));
        }
    }

    #[test]
    fn a_hint_keeps_only_the_shared_prefix_and_drops_the_last_use() {
        let w = workload(5);
        let time = TimeModel::paper_setup();
        let order = |raw: [u32; 5]| -> Interleaving { raw.into_iter().map(EventId::new).collect() };
        let a = order([0, 1, 2, 3, 4]);
        let b = order([0, 1, 2, 4, 3]);
        let c = order([0, 1, 3, 2, 4]);
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        exec.advance(&LogModel, &w, &a, Some(&b), &time);
        assert_eq!(exec.resident_snapshots(), 3, "depths 1..=3 are shared");
        // b resumes at depth 3 and c shares only 2: the depth-3 snapshot is
        // dropped once b is refilled from it, and nothing deeper is stored.
        exec.advance(&LogModel, &w, &b, Some(&c), &time);
        assert_eq!(exec.last_resume_depth(), 3);
        assert_eq!(exec.resident_snapshots(), 2);
        exec.advance(&LogModel, &w, &c, None, &time);
        assert_eq!(exec.last_resume_depth(), 2);
        assert_eq!(exec.resident_snapshots(), 4, "no hint keeps every depth");
        let scratch = InlineExecutor::execute(&LogModel, &w, &c, &time);
        assert_same(&scratch, exec.run(), &c);
    }

    #[test]
    fn repeat_of_same_interleaving_resumes_at_depth_n_minus_one() {
        let w = workload(6);
        let time = TimeModel::paper_setup();
        let il = w.recorded_order();
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        // Dropping the first run's states must not disturb the snapshots.
        drop(exec.execute(&LogModel, &w, &il, &time));
        let before = exec.stats();
        let again = exec.execute(&LogModel, &w, &il, &time);
        let after = exec.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.events_saved, before.events_saved + 5);
        assert_same(
            &InlineExecutor::execute(&LogModel, &w, &il, &time),
            borrowed(&again),
            &il,
        );
    }

    #[test]
    fn matches_inline_across_fault_plans_sharing_one_executor() {
        use er_pi_model::{FaultEvent, FaultKind, FaultPlan};
        let w = workload(4);
        let time = TimeModel::paper_setup();
        let ids: Vec<EventId> = w.event_ids().collect();
        let crash = FaultKind::CrashRestart {
            replica: ReplicaId::new(0),
        };
        let plans = [
            FaultPlan::empty(),
            FaultPlan::new(vec![FaultEvent::new(ids[1], FaultKind::Drop)]),
            FaultPlan::new(vec![FaultEvent::new(ids[1], FaultKind::Duplicate)]),
            FaultPlan::new(vec![FaultEvent::new(ids[0], FaultKind::Delay { by: 2 })]),
            FaultPlan::new(vec![FaultEvent::new(ids[2], crash)]),
        ];
        // One executor serves the whole product (plan-minor, like the
        // session's fault product explorer), hinted the way the session
        // hints it: every execution must stay byte-identical to scratch
        // replay while plans take turns and borrow the fault-free path.
        let with_plans = |base: Interleaving| {
            let plans = plans.iter().cloned();
            plans.map(move |plan| base.clone().with_faults(plan))
        };
        let product: Vec<Interleaving> = lexicographic_orders(4)
            .into_iter()
            .flat_map(with_plans)
            .collect();
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        for (i, il) in product.iter().enumerate() {
            let scratch = InlineExecutor::execute(&LogModel, &w, il, &time);
            exec.advance(&LogModel, &w, il, product.get(i + 1), &time);
            assert_same(&scratch, exec.run(), il);
            assert!(exec.resident_snapshots() <= 3 * plans.len());
        }
        assert!(exec.stats().hits > 0, "fault product still shares prefixes");
    }

    #[test]
    fn a_faulted_plan_borrows_the_fault_free_path_up_to_its_anchor() {
        use er_pi_model::{FaultEvent, FaultKind, FaultPlan};
        let w = workload(5);
        let time = TimeModel::paper_setup();
        let base = w.recorded_order();
        let drop_at_3 = FaultPlan::new(vec![FaultEvent::new(EventId::new(3), FaultKind::Drop)]);
        let faulted = base.clone().with_faults(drop_at_3);
        let scratch = InlineExecutor::execute(&LogModel, &w, &faulted, &time);
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        exec.execute(&LogModel, &w, &base, &time);
        let resident = exec.stats().bytes_resident;
        // The plan has no path of its own yet: e0 e1 e2 come from the
        // fault-free run, and sharing them is charged once — only the
        // depth-4 snapshot is new.
        exec.advance(&LogModel, &w, &faulted, Some(&faulted), &time);
        assert_eq!(exec.last_resume_depth(), 3);
        assert_same(&scratch, exec.run(), &faulted);
        assert_eq!(exec.resident_snapshots(), 4 + 4);
        assert!(exec.stats().bytes_resident < 2 * resident);
        // The fault-free path moving on must not free what the plan holds.
        let other: Interleaving = [4u32, 3, 2, 1, 0].into_iter().map(EventId::new).collect();
        exec.execute(&LogModel, &w, &other, &time);
        let again = exec.execute(&LogModel, &w, &faulted, &time);
        assert_eq!(exec.last_resume_depth(), 4);
        assert_same(&scratch, borrowed(&again), &faulted);
    }

    #[test]
    fn a_resumed_run_rewrites_its_suffix_in_the_buffers_of_the_run_before() {
        let w = workload(5);
        let time = TimeModel::paper_setup();
        let orders = lexicographic_orders(5);
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        exec.advance(&LogModel, &w, &orders[0], None, &time);
        let buffers = |exec: &IncrementalExecutor<LogModel>| {
            let run = exec.run();
            (run.states.as_ptr(), run.outcomes.as_ptr())
        };
        let first = buffers(&exec);
        for il in &orders[1..] {
            exec.advance(&LogModel, &w, il, None, &time);
            assert_eq!(buffers(&exec), first, "no engine vector per run");
        }
    }

    #[test]
    fn moving_a_run_out_leaves_the_cursor_empty_and_the_next_run_equal() {
        let w = workload(5);
        let time = TimeModel::paper_setup();
        let orders = lexicographic_orders(5);
        let mut exec = IncrementalExecutor::<LogModel>::new(DEFAULT_CACHE_BUDGET);
        assert!(exec.run().states.is_empty() && exec.run().outcomes.is_empty());
        exec.advance(&LogModel, &w, &orders[0], None, &time);
        assert_eq!(exec.run().outcomes.len(), 5);
        drop(exec.execute(&LogModel, &w, &orders[1], &time));
        assert!(exec.run().states.is_empty() && exec.run().outcomes.is_empty());
        // Nothing to pop back to: the whole prefix comes from the path.
        exec.advance(&LogModel, &w, &orders[2], None, &time);
        assert_eq!(
            exec.last_resume_depth(),
            orders[1].common_prefix_len(&orders[2])
        );
        let scratch = InlineExecutor::execute(&LogModel, &w, &orders[2], &time);
        assert_same(&scratch, exec.run(), &orders[2]);
    }

    #[test]
    fn a_run_that_unwinds_leaves_the_cursor_empty_and_the_next_run_equal() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// [`LogModel`], except that applying the value 4 panics.
        struct Fused;

        impl SystemModel for Fused {
            type State = Vec<i64>;

            fn replicas(&self) -> usize {
                LogModel.replicas()
            }

            fn init(&self, replica: ReplicaId) -> Vec<i64> {
                LogModel.init(replica)
            }

            fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
                let armed = EventId::new(4);
                assert!(event.id != armed || states[0].len() < 2, "fuse");
                LogModel.apply(states, event)
            }

            fn observe(&self, state: &Vec<i64>) -> Value {
                LogModel.observe(state)
            }
        }

        let w = workload(5);
        let time = TimeModel::paper_setup();
        let order = |raw: [u32; 5]| -> Interleaving { raw.into_iter().map(EventId::new).collect() };
        // e4 runs at replica 0 (values 0, 2, 4): it blows up once two of
        // them went before it.
        let fine = order([0, 1, 4, 2, 3]);
        let blows = order([0, 1, 2, 4, 3]);
        let after = order([0, 1, 3, 4, 2]);
        let mut exec = IncrementalExecutor::<Fused>::new(DEFAULT_CACHE_BUDGET);
        exec.advance(&Fused, &w, &fine, None, &time);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            exec.advance(&Fused, &w, &blows, None, &time);
        }));
        assert!(unwound.is_err());
        assert!(exec.run().states.is_empty() && exec.run().outcomes.is_empty());
        exec.advance(&Fused, &w, &after, None, &time);
        let scratch = InlineExecutor::execute(&LogModel, &w, &after, &time);
        assert_same(&scratch, exec.run(), &after);
    }

    #[test]
    #[should_panic(expected = "digest collision at the final states")]
    fn an_audited_final_digest_shared_by_other_bytes_panics() {
        /// [`LogModel`] with a faithful encoding but one digest for every
        /// state.
        struct Constant;

        impl SystemModel for Constant {
            type State = Vec<i64>;

            fn replicas(&self) -> usize {
                LogModel.replicas()
            }

            fn init(&self, replica: ReplicaId) -> Vec<i64> {
                LogModel.init(replica)
            }

            fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
                LogModel.apply(states, event)
            }

            fn observe(&self, state: &Vec<i64>) -> Value {
                LogModel.observe(state)
            }

            fn state_encode(&self, state: &Vec<i64>, out: &mut Vec<u8>) -> bool {
                out.extend(state.iter().flat_map(|v| v.to_le_bytes()));
                true
            }

            fn replica_digest(&self, _state: &Vec<i64>) -> Option<u128> {
                Some(0)
            }
        }

        // Two writes to one replica, in both orders: no key of one run is a
        // key of the other (their suffixes differ at every depth), and they
        // end in different states under one digest.
        let mut w = Workload::builder();
        for v in [1, 2] {
            w.update(ReplicaId::new(0), "op", [Value::from(v)]);
        }
        let w = w.build();
        let time = TimeModel::paper_setup();
        let mut exec = IncrementalExecutor::<Constant>::new(0);
        exec.enable_subsumption(Arc::new(SubsumeSet::with_audit(true)));
        for raw in [[0, 1], [1, 0]] {
            let il: Interleaving = raw.into_iter().map(EventId::new).collect();
            exec.advance(&Constant, &w, &il, None, &time);
        }
    }

    /// Σ `bytes` over the distinct snapshots the paths hold.
    fn resident_bytes<M: SystemModel>(exec: &IncrementalExecutor<M>) -> usize {
        let mut seen = std::collections::HashSet::new();
        let steps = exec.cache.paths.iter().flat_map(|path| &path.steps);
        let snapshots = steps.filter_map(|step| step.snapshot.as_ref());
        let distinct = snapshots.filter(|snapshot| seen.insert(Arc::as_ptr(&snapshot.states)));
        distinct.map(|snapshot| snapshot.bytes).sum()
    }

    #[test]
    fn a_run_that_unwinds_leaves_the_budget_charged_with_what_is_resident() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// [`LogModel`], except that applying e3 after e2 panics.
        struct Fused;

        impl SystemModel for Fused {
            type State = Vec<i64>;

            fn replicas(&self) -> usize {
                LogModel.replicas()
            }

            fn init(&self, replica: ReplicaId) -> Vec<i64> {
                LogModel.init(replica)
            }

            fn apply(&self, states: &mut [Vec<i64>], event: &Event) -> OpOutcome {
                assert!(
                    event.id != EventId::new(3) || !states[0].contains(&2),
                    "fuse"
                );
                LogModel.apply(states, event)
            }

            fn observe(&self, state: &Vec<i64>) -> Value {
                LogModel.observe(state)
            }

            fn state_size_hint(&self, state: &Vec<i64>) -> usize {
                LogModel.state_size_hint(state)
            }
        }

        let w = workload(5);
        let time = TimeModel::paper_setup();
        let order = |raw: [u32; 5]| -> Interleaving { raw.into_iter().map(EventId::new).collect() };
        let mut exec = IncrementalExecutor::<Fused>::new(DEFAULT_CACHE_BUDGET);
        // Snapshots at depths 1 to 3 are stored before e3 blows up.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            exec.advance(&Fused, &w, &order([0, 1, 2, 3, 4]), None, &time);
        }));
        assert!(unwound.is_err());
        let charged = exec.stats().bytes_resident;
        assert!(charged > 0);
        assert_eq!(charged, resident_bytes(&exec));
        // What the unwound run stored is still there to resume from.
        let after = order([0, 1, 3, 2, 4]);
        exec.advance(&Fused, &w, &after, None, &time);
        assert_eq!(exec.last_resume_depth(), 2);
        assert_eq!(exec.stats().bytes_resident, resident_bytes(&exec));
        let scratch = InlineExecutor::execute(&LogModel, &w, &after, &time);
        assert_same(&scratch, exec.run(), &after);
    }
}
