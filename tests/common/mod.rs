//! What the differential suites share: the scheduling cells they sweep, the
//! catalogue matrix over those cells (`matrix`), the benchmark's town
//! recording (`town`), a reference replay that is not the engine, and the
//! agreement table of a watched campaign's views (`views`). Each root test
//! binary that declares `mod common` uses a part of it.
#![allow(dead_code)]

pub mod matrix;
pub mod town;
pub mod views;

use std::fmt;

use er_pi::{
    CheckContext, ExploreMode, InlineExecutor, ReplayConfig, RunRecord, Session, SystemModel,
    TestSuite, TimeModel, Violation,
};
use er_pi_interleave::{
    DfsExplorer, ErPiExplorer, FaultProduct, IndexedSource, PruningConfig, RandomExplorer,
};
use er_pi_model::{FaultPlan, Interleaving, ReplicaId, Value, Workload};

/// Replica `i`.
pub fn r(i: u16) -> ReplicaId {
    ReplicaId::new(i)
}

/// The replay slot counts every worker-count sweep covers.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// One cell of the scheduling matrix: how a campaign is run, never what it
/// reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub workers: usize,
    pub incremental: bool,
    pub subsumption: bool,
}

/// The cell every reference replays in: one worker, scratch, no
/// subsumption.
pub const SCRATCH: Cell = Cell {
    workers: 1,
    incremental: false,
    subsumption: false,
};

/// The matrix every equivalence sweep walks: [`WORKER_COUNTS`] × executor
/// {scratch, incremental} × subsumption {off, on}, twelve cells.
pub fn cells() -> impl Iterator<Item = Cell> {
    WORKER_COUNTS.into_iter().flat_map(|workers| {
        [(false, false), (false, true), (true, false), (true, true)]
            .into_iter()
            .map(move |(incremental, subsumption)| Cell {
                workers,
                incremental,
                subsumption,
            })
    })
}

impl Cell {
    /// `base` run in this cell.
    pub fn config(self, base: ReplayConfig) -> ReplayConfig {
        ReplayConfig {
            workers: self.workers,
            incremental: self.incremental,
            subsumption: self.subsumption,
            ..base
        }
    }

    /// Puts `session` in this cell.
    pub fn apply<M: SystemModel>(self, session: &mut Session<M>) -> &mut Session<M> {
        session
            .set_workers(self.workers)
            .set_incremental(self.incremental)
            .set_subsumption(self.subsumption)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let executor = if self.incremental {
            "incremental"
        } else {
            "scratch"
        };
        let subsume = if self.subsumption {
            " + subsumption"
        } else {
            ""
        };
        write!(f, "{} worker(s), {executor}{subsume}", self.workers)
    }
}

/// What a replay must report, as far as scheduling cannot change it.
#[derive(Debug, Default, PartialEq)]
pub struct Reference {
    pub runs: Vec<RunRecord>,
    pub violations: Vec<Violation>,
    pub first_violation_at: Option<usize>,
    pub explored: usize,
    pub stopped_early: bool,
}

/// The naive loop `Session::replay` is checked against: one interleaving at
/// a time from the mode's explorer, each executed from scratch, on the
/// calling thread. It shares no code with the campaign module — no chunks,
/// no incremental executor, no threads, no merge.
pub fn reference_replay<M: SystemModel>(
    model: &M,
    workload: &Workload,
    mode: ExploreMode,
    plans: Vec<FaultPlan>,
    suite: &TestSuite<M::State>,
    cap: usize,
    stop_on_first_violation: bool,
) -> Reference {
    let time = TimeModel::paper_setup();
    let config = PruningConfig::default();
    let explorer: Box<dyn Iterator<Item = Interleaving>> = match mode {
        ExploreMode::ErPi => Box::new(ErPiExplorer::new(workload, &config)),
        ExploreMode::Dfs => Box::new(DfsExplorer::new(workload)),
        ExploreMode::Random { seed } => Box::new(RandomExplorer::new(workload, seed)),
    };
    let mut source = IndexedSource::new(FaultProduct::new(explorer, plans), cap);
    let mut reference = Reference::default();
    for (index, il) in source.by_ref() {
        let exec = InlineExecutor::execute(model, workload, &il, &time);
        let observations: Vec<Value> = exec.states.iter().map(|s| model.observe(s)).collect();
        let ctx = CheckContext::new(&exec.states, &observations, &il, &exec.outcomes);
        let mut violated = false;
        for assertion in suite.assertions() {
            if let Err(message) = assertion.check(&ctx) {
                violated = true;
                reference.violations.push(Violation {
                    run: Some(index),
                    assertion: assertion.name().into(),
                    message,
                    interleaving: Some(il.clone()),
                });
            }
        }
        reference.runs.push(RunRecord {
            failed_ops: ctx.failed_ops(),
            sim_us: exec.sim_us,
            interleaving: il,
            observations,
        });
        if violated {
            reference.first_violation_at.get_or_insert(index);
            if stop_on_first_violation {
                reference.stopped_early = true;
                break;
            }
        }
    }
    reference.stopped_early |= source.truncated();
    reference.explored = reference.runs.len();
    reference
}
