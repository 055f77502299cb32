//! The catalogue matrix: every scheduling-independence promise the engine
//! makes, held over the 12-bug catalogue with each cell replayed once.
//!
//! Per (bug, stop policy) a scratch reference is replayed — one worker,
//! scratch executor, no subsumption, nothing attached — and each cell of
//! `common::cells()` ({1, 2, 4} workers × {scratch, incremental} ×
//! subsumption {off, on}) must diff clean against it: `Report::diff ==
//! None`, i.e. the same explored count, first violation, prune counters,
//! wasted work, simulated time, violations and diagnostics. A feature does
//! not replay the catalogue again; it adds its assertion to the cells it
//! concerns:
//!
//! | cells | assertion |
//! | --- | --- |
//! | every cell | `diff == None` against the reference |
//! | stop-first, every cell | the first violation's forensic bundle is the reference's, byte for byte (and the reference has one) |
//! | incremental, 1 worker, exhaustive | one cache probe per run; `events_saved` = Σ common prefixes of the dispensed stream; hits; `sim_us_actual ≤ sim_us` |
//! | incremental, 1 worker, stop-first | `prune_stats` = a fresh explorer's over exactly the explored runs |
//! | scratch + subsumption, 1 worker, exhaustive | one subsume probe per run; every run executed or subsumed |
//! | incremental + subsumption | a sink, a registry and a progress hook attached: the views agree, the sink saw events |
//! | scratch, no subsumption | the sanitizer attached: nothing found, every run scanned, pair counts pinned |
//! | exhaustive, 1 worker: sleep sets, sleep sets + subsumption | the distinct violation set is the reference's; no more runs |
//!
//! The other two columns (scratch + subsumption, incremental) replay
//! detached at every worker count, so the default unwatched path keeps the
//! whole catalogue. Under `ER_PI_SUBSUME_AUDIT=1` every subsumption hit in
//! the matrix is also executed and compared.
//!
//! A test replays its part of the matrix with [`sweep`], naming the stop
//! policy and the cells it owns; the tests below own each (stop, cell)
//! once between them:
//!
//! | column | exhaustive, 1 / 2 / 4 workers | stop-first, 1 / 2 / 4 workers |
//! | --- | --- | --- |
//! | scratch | `sanitizer_…` / `parallel_equals_sequential_exhaustive` ×2 | `one_worker_…` / `parallel_equals_sequential_stop_on_first` / `first_violation_index_…` |
//! | scratch + subsumption | `subsumption_actually_engages_…` / `subsumption_is_byte_identical_…` ×2 | `forensic_bundles_…` ×3 |
//! | incremental | `incremental_actually_reuses_prefixes` / `incremental_equals_scratch_exhaustive` / `charged_sim_us_…` | `incremental_equals_scratch_stop_on_first` ×3 |
//! | incremental + subsumption | `any_sink_never_changes_the_report` ×3 | `forensic_bundles_…` ×3 |
//!
//! The sleep-set cells ([`sweep_sleep`]) belong to `sleep_sets_preserve_…`
//! and `sleep_and_subsumption_compose`. The reference of a (bug, stop) is
//! replayed once per test binary and shared by every test in it. One binary
//! sweeps the matrix: `suite`, whose `dpor_`, `forensics_`, `incremental_`,
//! `parallel_`, `sanitizer_` and `telemetry_equivalence` modules replay the
//! references of both stop policies once between them.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use super::views::{assert_views_agree, watch};
use super::{cells, Cell, SCRATCH};
use er_pi::{Attachments, ReplayConfig, Report};
use er_pi_interleave::{ErPiExplorer, IndexedSource};
use er_pi_model::Interleaving;
use er_pi_subjects::Bug;

/// The paper's cap.
const CAP: usize = 10_000;

/// The sanitizer's `(pairs_considered, pairs_checked, pairs_deduped)`.
type Pairs = (usize, usize, usize);

/// The sanitizer's pair counts per bug, exhaustive and stop-first, at every
/// worker count: they are a function of the replayed runs alone. Only the two
/// ReplicaDB bugs declare independent sets; the gap between considered and
/// checked is the prefix memo that keeps the sanitizer's cost a fraction
/// of the replay's (DESIGN.md §12).
const SANITIZER_PAIRS: [(&str, [Pairs; 2]); 12] = [
    ("Roshi-1", [(0, 0, 0), (0, 0, 0)]),
    ("Roshi-2", [(0, 0, 0), (0, 0, 0)]),
    ("Roshi-3", [(0, 0, 0), (0, 0, 0)]),
    ("OrbitDB-1", [(0, 0, 0), (0, 0, 0)]),
    ("OrbitDB-2", [(0, 0, 0), (0, 0, 0)]),
    ("OrbitDB-3", [(0, 0, 0), (0, 0, 0)]),
    ("OrbitDB-4", [(0, 0, 0), (0, 0, 0)]),
    ("OrbitDB-5", [(0, 0, 0), (0, 0, 0)]),
    ("ReplicaDB-1", [(14_830, 2, 14_828), (338, 2, 336)]),
    ("ReplicaDB-2", [(20_000, 2, 19_998), (50, 2, 48)]),
    ("Yorkie-1", [(0, 0, 0), (0, 0, 0)]),
    ("Yorkie-2", [(0, 0, 0), (0, 0, 0)]),
];

/// What a sweep found across the catalogue, so that a test can hold that
/// no per-cell assertion of it held vacuously.
#[derive(Debug, Default)]
pub struct Totals {
    /// Σ `subsumed` over the one-worker scratch + subsumption cells.
    pub subsumed: u64,
    /// Σ `sleep_rejected` over the sleep-set cells without subsumption.
    pub sleep_rejected: u64,
    /// Σ `pairs_checked` over the sanitized cells.
    pub pairs_checked: usize,
}

/// The violation set as the sorted *distinct* (assertion, message) pairs —
/// sleep sets drop redundant members of commutation classes, so a
/// violation witnessed by several equivalent schedules may keep fewer
/// witnesses; what must survive is every distinct violation.
pub fn violation_set(report: &Report) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = report
        .violations
        .iter()
        .map(|v| (v.assertion.to_string(), v.message.to_string()))
        .collect();
    v.sort();
    v.dedup();
    v
}

/// The scratch reference of one (bug, stop policy).
pub struct Reference {
    report: Report,
    /// The first violation's canonical bundle, stop-first only.
    pub bundle: Option<String>,
}

/// `bug`'s reference under `stop`, replayed the first time a test of this
/// binary asks for it; tests asking at once wait for the one replay.
pub fn reference(bug: &Bug, stop: bool) -> &'static Reference {
    type Slots = HashMap<(&'static str, bool), &'static OnceLock<Reference>>;
    static SLOTS: OnceLock<Mutex<Slots>> = OnceLock::new();
    let slot = *SLOTS
        .get_or_init(Mutex::default)
        .lock()
        .unwrap()
        .entry((bug.name, stop))
        .or_insert_with(|| Box::leak(Box::default()));
    slot.get_or_init(|| {
        let report = bug.replay_report_opts(&SCRATCH.config(base(stop)));
        let bundle = stop.then(|| first_bundle(bug, &report, bug.name));
        Reference { report, bundle }
    })
}

/// The campaign every cell runs, before the cell's own settings.
pub fn base(stop: bool) -> ReplayConfig {
    ReplayConfig {
        cap: CAP,
        stop_on_first_violation: stop,
        ..ReplayConfig::default()
    }
}

/// The canonical forensic bundle of `report`'s first violation.
fn first_bundle(bug: &Bug, report: &Report, label: &str) -> String {
    let violation = report
        .violations
        .first()
        .unwrap_or_else(|| panic!("{label}: catalogue bug must reproduce"));
    bug.explain(violation)
        .unwrap_or_else(|| panic!("{label}: per-run violation must explain"))
        .canonical_json()
}

/// The interleavings `bug`'s explorer dispenses, up to the cap.
fn dispensed(bug: &Bug) -> IndexedSource<ErPiExplorer<'_>> {
    IndexedSource::new(ErPiExplorer::new(bug.workload(), bug.pruning_config()), CAP)
}

/// The cache's own counters on the one-worker incremental exhaustive cell:
/// the equivalence is not vacuous (scratch == scratch), and the saving is
/// exactly what a lexicographic explorer shares between neighbours.
fn assert_prefixes_reused(bug: &Bug, report: &Report, label: &str) {
    let stats = report
        .cache_stats
        .unwrap_or_else(|| panic!("{label}: incremental run must report CacheStats"));
    assert_eq!(
        stats.hits + stats.misses,
        report.explored as u64,
        "{label}: every explored interleaving is one cache probe"
    );
    if report.explored > 2 {
        assert!(
            stats.hits > 0 && stats.events_saved > 0,
            "{label}: {} interleavings explored but no prefix reuse (hits={}, saved={})",
            report.explored,
            stats.hits,
            stats.events_saved
        );
    }
    // Every run resumes from the whole prefix it shares with the run before
    // it (short of the final depth, which is never kept).
    let runs: Vec<Interleaving> = dispensed(bug).map(|(_, il)| il).collect();
    let shared: u64 = runs
        .windows(2)
        .map(|pair| pair[0].common_prefix_len(&pair[1]).min(pair[1].len() - 1) as u64)
        .sum();
    assert_eq!(
        stats.events_saved, shared,
        "{label}: events saved != common prefixes of consecutive runs"
    );
    assert!(
        report.sim_us_actual() <= report.sim_us,
        "{label}: saved simulated time cannot exceed charged time"
    );
}

/// A stop-first campaign's lookahead — the candidate a claim peeks past its
/// chunk, and the rest of a chunk past the violation — has advanced the
/// explorer, but must not show in the counters: they are a fresh
/// explorer's over exactly the explored runs.
fn assert_counters_cover_the_explored_runs(bug: &Bug, report: &Report, label: &str) {
    let mut fresh = dispensed(bug);
    let explored = report.explored;
    assert_eq!(fresh.by_ref().take(explored).count(), explored, "{label}");
    assert_eq!(
        report.prune_stats,
        Some(fresh.inner().stats()),
        "{label}: counters are those of exactly the replayed runs"
    );
}

/// Subsumption engages on the one-worker scratch exhaustive cell: every run
/// is one probe, and is either executed or answered from the set.
fn assert_subsumption_engaged(report: &Report, label: &str) -> u64 {
    let stats = report
        .cache_stats
        .unwrap_or_else(|| panic!("{label}: subsuming replay must report CacheStats"));
    let explored = report.explored as u64;
    assert_eq!(
        stats.hits + stats.misses,
        explored,
        "{label}: every explored interleaving is one subsume probe"
    );
    assert_eq!(
        stats.executed_runs() + stats.subsumed,
        explored,
        "{label}: runs are either executed or subsumed"
    );
    stats.subsumed
}

/// Replays `bug` in `cell`, with the column's attachments: the observers
/// on incremental + subsumption, the sanitizer on plain scratch, nothing
/// on the other two.
fn replay_cell(
    bug: &Bug,
    cell: Cell,
    base: ReplayConfig,
    label: &str,
    totals: &mut Totals,
) -> Report {
    let stop = base.stop_on_first_violation;
    let config = cell.config(base);
    match (cell.incremental, cell.subsumption) {
        (true, true) => {
            let watched = watch(bug.name, |attach| {
                bug.replay_report_checked(&config, attach).0
            });
            assert!(!watched.events.is_empty(), "{label}: the sink saw nothing");
            assert_views_agree(&watched, &config, label);
            watched.report
        }
        (false, false) => {
            let sanitizing = ReplayConfig {
                sanitize: true,
                ..config
            };
            let (report, findings) = bug.replay_report_checked(&sanitizing, Attachments::default());
            let findings = findings.expect("sanitize was requested");
            assert!(
                findings.passed(),
                "{label}: false independence violations: {:?}",
                findings.violations
            );
            assert_eq!(findings.runs_scanned, report.explored, "{label}");
            let seen = (
                findings.pairs_considered,
                findings.pairs_checked,
                findings.pairs_deduped,
            );
            let pinned = SANITIZER_PAIRS
                .iter()
                .find(|(name, _)| *name == bug.name)
                .map(|(_, pairs)| pairs[stop as usize]);
            assert_eq!(pinned, Some(seen), "{label}: sanitizer pair counts moved");
            totals.pairs_checked += findings.pairs_checked;
            report
        }
        _ => bug.replay_report_opts(&config),
    }
}

/// Replays, per catalogue bug, the cells `owns` picks under `stop`, each
/// with its column's assertions and its own, diffed against the bug's
/// reference.
pub fn sweep(stop: bool, owns: impl Fn(Cell) -> bool) -> Totals {
    let owned: Vec<Cell> = cells().filter(|&cell| owns(cell)).collect();
    assert!(!owned.is_empty(), "the sweep owns no cell of the matrix");
    let mut totals = Totals::default();
    for bug in Bug::catalogue() {
        let reference = reference(&bug, stop);
        for &cell in &owned {
            let label = format!("{} stop={stop} {cell}", bug.name);
            let report = replay_cell(&bug, cell, base(stop), &label, &mut totals);
            assert_eq!(reference.report.diff(&report), None, "{label}");
            if let Some(bundle) = &reference.bundle {
                assert_eq!(&first_bundle(&bug, &report, &label), bundle, "{label}");
            }
            if cell.workers > 1 {
                continue;
            }
            match (stop, cell.incremental, cell.subsumption) {
                (false, true, false) => assert_prefixes_reused(&bug, &report, &label),
                (true, true, false) => {
                    assert_counters_cover_the_explored_runs(&bug, &report, &label)
                }
                (false, false, true) => {
                    totals.subsumed += assert_subsumption_engaged(&report, &label)
                }
                _ => {}
            }
        }
    }
    totals
}

/// The sleep-set cells of the exhaustive sweep: per catalogue bug, sleep
/// sets, alone or with subsumption, one worker, held to the reference's
/// violation set.
pub fn sweep_sleep(subsumption: bool) -> Totals {
    let mut totals = Totals::default();
    for bug in Bug::catalogue() {
        let reference = &reference(&bug, false).report;
        let label = format!("{} sleep sets, subsumption={subsumption}", bug.name);
        let pruned = bug.replay_report_opts(&ReplayConfig {
            workers: 1,
            incremental: !subsumption,
            subsumption,
            sleep_sets: true,
            ..base(false)
        });
        assert_eq!(
            violation_set(reference),
            violation_set(&pruned),
            "{label}: sleep sets changed the violation set"
        );
        assert!(
            pruned.explored <= reference.explored,
            "{label}: sleep sets cannot grow the replayed set"
        );
        if subsumption {
            let stats = pruned.cache_stats.expect("subsuming replay reports stats");
            assert_eq!(
                stats.executed_runs() + stats.subsumed,
                pruned.explored as u64,
                "{label}: composed layers double-counted a run"
            );
        } else if let Some(stats) = &pruned.prune_stats {
            // Sleep sets also pull in the auto-derived independence relation
            // (which feeds the event-level canonical filter), so `explored`
            // can shrink by more than the sleep rejections alone.
            totals.sleep_rejected += stats.sleep_rejected;
        }
    }
    totals
}
