//! The four workloads, their set-up (oracle + warm-up) and the bracketed
//! measurement loop that yields the end-to-end metrics.
//!
//! A workload is a list of *units*: one recorded session for the three
//! town workloads, the twelve catalogue bugs for `catalogue`. Every unit
//! runs two campaign variants — the full campaign and the same campaign
//! stopping at the first violation — and a workload's timing metric is the
//! sum over its units of the per-unit calibrated medians.

use std::time::{Duration, Instant};

use er_pi::{ExploreMode, Report, Session, SystemModel, TestSuite};
use er_pi_interleave::{enumerate_plans, FaultSpace, PruningConfig};
use er_pi_model::FaultPlan;
use er_pi_subjects::{Bug, ReplayOptions, TownApp, TownState};

use crate::alloc::{Region, Usage};
use crate::calib::{ref_ms_at, Calibrator, Sample, CALIB_REF_MS};
use crate::inputs::{record_town, Inputs};
use crate::metrics::Values;
use crate::stats::{median, quantile};

/// The paper's campaign bound (§6.2); the stated input size of
/// `replays_per_ref_s`.
pub const CAP: usize = 10_000;

/// A bracket holds as many campaigns as it takes to replay about this many
/// interleavings (at most `MAX_BATCH`): a first-violation campaign on the
/// town trace stops after 34 replays and 1.8 ms, far too short to time on
/// its own next to an 18 ms kernel. Counted, not timed, so a bracket is the
/// same work in every run and on both sides of a comparison.
const BRACKET_REPLAYS: usize = 512;
const MAX_BATCH: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TownDfs,
    TownRand,
    Catalogue,
    FaultSubsume,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TownDfs,
        Workload::TownRand,
        Workload::Catalogue,
        Workload::FaultSubsume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TownDfs => "town-dfs",
            Workload::TownRand => "town-rand",
            Workload::Catalogue => "catalogue",
            Workload::FaultSubsume => "fault-subsume",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The two campaigns every unit runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Explore to the cap.
    Full,
    /// `stop_on_first_violation`: the paper's Fig. 8 reproduction run.
    First,
}

/// Which executor configuration a campaign runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The workload's own settings: what the end-to-end metrics time.
    Configured,
    /// No checkpoint cache, no subsumption. Its canonical report is the
    /// correctness oracle, and its time the no-cache floor.
    Scratch,
    /// The workload's settings with state-hash subsumption switched on.
    Subsuming,
}

/// Something that replays campaigns under one workload's settings, always
/// with one replay worker.
pub trait Unit {
    fn name(&self) -> &str;

    fn run(&mut self, variant: Variant, executor: Executor) -> Result<Report, String>;
}

/// What the exploration layer is asked for by one unit: enough to build
/// the same explorer the session builds.
pub struct ExploreSpec {
    pub workload: er_pi_model::Workload,
    pub config: PruningConfig,
    pub mode: ExploreMode,
    pub plans: Vec<FaultPlan>,
}

/// A recorded town session. Generic over the model so the traced run can
/// wrap it.
pub struct TownUnit<M: SystemModel<State = TownState>> {
    pub session: Session<M>,
    pub suite: TestSuite<TownState>,
    mode: ExploreMode,
    faults: Option<FaultSpace>,
    subsumption: bool,
}

impl<M> TownUnit<M>
where
    M: SystemModel<State = TownState> + Sync,
{
    /// Records the seeded town trace on `model` and applies `workload`'s
    /// settings; everything else stays at the session defaults
    /// (incremental replay on, 64 MiB snapshot budget).
    pub fn new(model: M, suite: TestSuite<TownState>, workload: Workload, inputs: &Inputs) -> Self {
        let mut session = Session::new(model);
        session.record(|sys| record_town(sys, &inputs.issues));
        let mode = match workload {
            Workload::TownRand => ExploreMode::Random {
                seed: inputs.explorer_seed,
            },
            _ => ExploreMode::Dfs,
        };
        session.set_mode(mode).set_cap(CAP).set_workers(1);
        let subsumption = workload == Workload::FaultSubsume;
        let faults = subsumption.then(|| FaultSpace::all(1));
        if let Some(space) = &faults {
            session.set_fault_space(space.clone());
        }
        session.set_subsumption(subsumption);
        TownUnit {
            session,
            suite,
            mode,
            faults,
            subsumption,
        }
    }

    pub fn explore_spec(&self) -> ExploreSpec {
        let workload = self.session.workload().expect("recorded in new").clone();
        let plans = self
            .faults
            .as_ref()
            .map_or_else(Vec::new, |space| enumerate_plans(&workload, space));
        ExploreSpec {
            workload,
            config: PruningConfig::default(),
            mode: self.mode,
            plans,
        }
    }
}

impl<M> Unit for TownUnit<M>
where
    M: SystemModel<State = TownState> + Sync,
{
    fn name(&self) -> &str {
        "town"
    }

    fn run(&mut self, variant: Variant, executor: Executor) -> Result<Report, String> {
        let (incremental, subsumption) = match executor {
            Executor::Configured => (true, self.subsumption),
            Executor::Scratch => (false, false),
            Executor::Subsuming => (true, true),
        };
        self.session
            .set_incremental(incremental)
            .set_subsumption(subsumption)
            .set_stop_on_first_violation(variant == Variant::First);
        self.session.replay(&self.suite).map_err(|e| e.to_string())
    }
}

/// One catalogue bug under `ReplayOptions::default()` (ER-π mode, all four
/// pruners, one worker, incremental on).
pub struct BugUnit {
    pub bug: Bug,
}

impl BugUnit {
    pub fn explore_spec(&self) -> ExploreSpec {
        ExploreSpec {
            workload: self.bug.workload().clone(),
            config: self.bug.pruning_config().clone(),
            mode: ExploreMode::ErPi,
            plans: Vec::new(),
        }
    }
}

impl Unit for BugUnit {
    fn name(&self) -> &str {
        self.bug.name
    }

    fn run(&mut self, variant: Variant, executor: Executor) -> Result<Report, String> {
        Ok(self.bug.replay_report_opts(&ReplayOptions {
            cap: CAP,
            stop_on_first_violation: variant == Variant::First,
            workers: 1,
            incremental: executor != Executor::Scratch,
            subsumption: executor == Executor::Subsuming,
            ..ReplayOptions::default()
        }))
    }
}

/// The catalogue in the seeded sweep order.
pub fn catalogue(inputs: &Inputs) -> Vec<Bug> {
    let mut bugs: Vec<Option<Bug>> = Bug::catalogue().into_iter().map(Some).collect();
    inputs
        .catalogue_order
        .iter()
        .map(|&i| bugs[i].take().expect("catalogue order is a permutation"))
        .collect()
}

fn build_units(workload: Workload, inputs: &Inputs) -> Vec<Box<dyn Unit>> {
    match workload {
        Workload::Catalogue => catalogue(inputs)
            .into_iter()
            .map(|bug| Box::new(BugUnit { bug }) as Box<dyn Unit>)
            .collect(),
        _ => vec![Box::new(TownUnit::new(
            TownApp::new(2),
            TownApp::invariant(),
            workload,
            inputs,
        ))],
    }
}

/// Campaigns attempted and campaigns whose output was wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// What a correct campaign must produce, and how many to run per bracket.
pub struct Oracle {
    /// The scratch reference. `Report::diff` against it is `None` exactly
    /// when the canonical JSON bytes are equal (the engine's own
    /// determinism contract; `the_oracle_fails_a_report_that_differs`
    /// checks both ways), and unlike rendering 1.4 MB of JSON per campaign
    /// it allocates nothing, so checking does not disturb the heap the
    /// next campaign starts from.
    pub reference: Report,
    pub batch: usize,
}

impl Oracle {
    /// Counts `outcome` as attempted, and as failed unless it equals the
    /// reference.
    pub fn judge(&self, unit: &str, outcome: &Result<Report, String>, tally: &mut Tally) {
        tally.attempted += 1;
        let problem = match outcome {
            Err(error) => Some(format!("returned Err: {error}")),
            Ok(report) => self
                .reference
                .diff(report)
                .map(|field| format!("differs from the scratch reference in {field}")),
        };
        if let Some(problem) = problem {
            tally.failed += 1;
            eprintln!("FAILED campaign on {unit}: {problem}");
        }
    }
}

pub struct PreparedUnit {
    pub unit: Box<dyn Unit>,
    pub full: Oracle,
    pub first: Oracle,
}

/// A workload ready to be measured.
pub struct Prepared {
    pub workload: Workload,
    pub units: Vec<PreparedUnit>,
}

impl Prepared {
    /// Replays of one full campaign over every unit.
    pub fn explored(&self) -> usize {
        self.units.iter().map(|u| u.full.reference.explored).sum()
    }
}

/// Builds the units, computes each one's scratch reference (the oracle)
/// and runs one untimed warm-up campaign per variant. `Err` means no
/// oracle could be built at all.
pub fn set_up(workload: Workload, inputs: &Inputs, tally: &mut Tally) -> Result<Prepared, String> {
    let mut units = Vec::new();
    for mut unit in build_units(workload, inputs) {
        let mut oracles = Vec::new();
        for variant in [Variant::Full, Variant::First] {
            let name = unit.name().to_owned();
            let reference = unit
                .run(variant, Executor::Scratch)
                .map_err(|e| format!("{name}: reference campaign failed: {e}"))?;
            tally.attempted += 1;
            if reference.violations.is_empty() {
                // Every workload here carries a known defect; a reference
                // that misses it means the bug stopped reproducing.
                tally.failed += 1;
                eprintln!("FAILED reference on {name}: no violation reported");
            }
            let oracle = Oracle {
                batch: batch_for(reference.explored),
                reference,
            };
            let warm_up = unit.run(variant, Executor::Configured);
            let failed_before = tally.failed;
            oracle.judge(&name, &warm_up, tally);
            if let (Ok(report), true) = (&warm_up, tally.failed == failed_before) {
                // Once per set-up, the byte-level form of the same check.
                if report.canonical_json() != oracle.reference.canonical_json() {
                    tally.failed += 1;
                    eprintln!("FAILED warm-up on {name}: diff is None but canonical JSON differs");
                }
            }
            oracles.push(oracle);
        }
        let first = oracles.pop().expect("two variants");
        let full = oracles.pop().expect("two variants");
        units.push(PreparedUnit { unit, full, first });
    }
    Ok(Prepared { workload, units })
}

/// Campaigns per bracket for a campaign that replays `explored`
/// interleavings: enough to reach `BRACKET_REPLAYS`, as a power of two.
fn batch_for(explored: usize) -> usize {
    BRACKET_REPLAYS
        .div_ceil(explored.max(1))
        .next_power_of_two()
        .min(MAX_BATCH)
}

/// One bracket: `run` called `oracle.batch` times, then the kernel; each
/// outcome is judged against the oracle afterwards. Returns the
/// per-campaign sample and each campaign's allocation usage.
pub fn bracket(
    name: &str,
    oracle: &Oracle,
    calibrator: &mut Calibrator,
    tally: &mut Tally,
    mut run: impl FnMut() -> Result<Report, String>,
) -> (Sample, Vec<Usage>) {
    let (outcomes, sample) = calibrator.bracket(|| {
        (0..oracle.batch)
            .map(|_| {
                let region = Region::start();
                let outcome = run();
                (outcome, region.end())
            })
            .collect::<Vec<_>>()
    });
    let mut usage = Vec::with_capacity(outcomes.len());
    for (outcome, used) in outcomes {
        oracle.judge(name, &outcome, tally);
        usage.push(used);
    }
    let per_campaign = Sample {
        wall_ms: sample.wall_ms / oracle.batch as f64,
        calib_ms: sample.calib_ms,
    };
    (per_campaign, usage)
}

/// Everything measured on one unit.
#[derive(Default)]
pub struct UnitSamples {
    pub full: Vec<Sample>,
    pub first: Vec<Sample>,
    /// Allocation usage of every full campaign.
    pub usage: Vec<Usage>,
}

/// Share of the measuring budget spent on full campaigns; the rest goes to
/// the first-violation variant.
const FULL_SHARE: f64 = 0.7;

/// Measures the two variants one after the other, each in rounds over the
/// units until the next round would overrun its share of `budget` (at
/// least two rounds each).
///
/// One phase per variant, not interleaved brackets: a campaign's speed
/// depends on the allocator state the previous piece of work left behind
/// (full and first-violation campaigns alternating made consecutive full
/// campaigns flip between 108 ms and 180 ms), and a phase of like campaigns
/// settles into one state.
pub fn measure(
    prepared: &mut Prepared,
    calibrator: &mut Calibrator,
    tally: &mut Tally,
    budget: Duration,
) -> Vec<UnitSamples> {
    let mut samples: Vec<UnitSamples> = prepared
        .units
        .iter()
        .map(|_| UnitSamples::default())
        .collect();
    for (variant, share) in [
        (Variant::Full, FULL_SHARE),
        (Variant::First, 1.0 - FULL_SHARE),
    ] {
        let phase_budget = budget.mul_f64(share);
        let started = Instant::now();
        let mut rounds = 0u32;
        loop {
            for (prepared_unit, unit_samples) in prepared.units.iter_mut().zip(&mut samples) {
                let PreparedUnit { unit, full, first } = prepared_unit;
                let name = unit.name().to_owned();
                let oracle = if variant == Variant::Full {
                    full
                } else {
                    first
                };
                let (sample, usage) = bracket(&name, oracle, calibrator, tally, || {
                    unit.run(variant, Executor::Configured)
                });
                if variant == Variant::Full {
                    unit_samples.full.push(sample);
                    unit_samples.usage.extend(usage);
                } else {
                    unit_samples.first.push(sample);
                }
            }
            rounds += 1;
            let per_round = started.elapsed() / rounds;
            if rounds >= 2 && started.elapsed() + per_round > phase_budget {
                break;
            }
        }
    }
    samples
}

/// The six measured end-to-end metrics (`setup_s` is the caller's), plus
/// the human-readable lines that give each timing's high percentile and
/// sample count.
pub fn end_to_end(
    prepared: &Prepared,
    samples: &[UnitSamples],
    calibrator: &Calibrator,
) -> (Values, Vec<String>) {
    // A workload's time is the sum over its units of each unit's time at
    // quantile `q`, at reference speed.
    let sum_at = |pick: fn(&UnitSamples) -> &Vec<Sample>, q: f64| -> f64 {
        samples.iter().map(|s| ref_ms_at(pick(s), q)).sum()
    };
    let campaign_ref_ms = sum_at(|s| &s.full, 0.5);
    let ttfv_ref_ms = sum_at(|s| &s.first, 0.5);
    let explored = prepared.explored() as f64;

    let exact = |pick: fn(&Usage) -> u64| -> Vec<f64> {
        samples
            .iter()
            .map(|s| median(&s.usage.iter().map(|u| pick(u) as f64).collect::<Vec<_>>()))
            .collect()
    };
    let allocs: f64 = exact(|u| u.allocs).iter().sum();
    let bytes: f64 = exact(|u| u.bytes).iter().sum();
    let peak = exact(|u| u.peak_live).into_iter().fold(0.0_f64, f64::max);

    let mut values = Values::new();
    values.insert("campaign_ref_ms", campaign_ref_ms);
    values.insert("replays_per_ref_s", explored / (campaign_ref_ms / 1e3));
    values.insert("ttfv_ref_ms", ttfv_ref_ms);
    values.insert("allocs_per_replay", allocs / explored);
    values.insert("alloc_kib_per_replay", bytes / 1024.0 / explored);
    values.insert("peak_live_mib", peak / (1024.0 * 1024.0));

    let count = |pick: fn(&UnitSamples) -> &Vec<Sample>| -> usize {
        samples.iter().map(|s| pick(s).len()).sum()
    };
    let repeats = samples
        .iter()
        .all(|s| s.usage.windows(2).all(|w| w[0] == w[1]));
    let kernel = calibrator.kernel_ms();
    let notes = vec![
        format!(
            "campaign_ref_ms: median {campaign_ref_ms:.3}, q25 {:.3}, p90 {:.3} over {} brackets on {} unit(s)",
            sum_at(|s| &s.full, 0.25),
            sum_at(|s| &s.full, 0.9),
            count(|s| &s.full),
            samples.len(),
        ),
        format!(
            "ttfv_ref_ms: median {ttfv_ref_ms:.4}, q25 {:.4}, p90 {:.4} over {} brackets",
            sum_at(|s| &s.first, 0.25),
            sum_at(|s| &s.first, 0.9),
            count(|s| &s.first),
        ),
        format!(
            "kernel: q10 {:.2} ms, median {:.2} ms, p90 {:.2} ms over {} timed runs (reference {CALIB_REF_MS} ms)",
            quantile(kernel, 0.1),
            median(kernel),
            quantile(kernel, 0.9),
            kernel.len(),
        ),
        format!(
            "allocation counts over {} full campaigns: {}",
            samples.iter().map(|s| s.usage.len()).sum::<usize>(),
            if repeats {
                "identical in every repetition"
            } else {
                "NOT identical across repetitions (medians reported)"
            }
        ),
    ];
    (values, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn batches_reach_the_bracket_size_in_powers_of_two() {
        assert_eq!(batch_for(10_000), 1);
        assert_eq!(batch_for(512), 1);
        assert_eq!(batch_for(400), 2);
        assert_eq!(batch_for(121), 8);
        assert_eq!(batch_for(34), 16);
        assert_eq!(batch_for(7), 64);
        assert_eq!(batch_for(0), 64);
    }

    #[test]
    fn seeded_catalogue_order_keeps_all_twelve_bugs() {
        let inputs = Inputs::generate(11, 12);
        let mut names: Vec<&str> = catalogue(&inputs).iter().map(|b| b.name).collect();
        assert_eq!(names.len(), 12);
        let swept = names.clone();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        let table: Vec<&str> = Bug::catalogue().iter().map(|b| b.name).collect();
        assert_ne!(swept, table, "seed 11 leaves the order untouched");
    }

    /// A wrong report must be counted, not waved through.
    #[test]
    fn the_oracle_fails_a_report_that_differs() {
        let inputs = Inputs::generate(7, 12);
        let mut unit = TownUnit::new(
            TownApp::new(2),
            TownApp::invariant(),
            Workload::TownDfs,
            &inputs,
        );
        unit.session.set_cap(200);
        let reference = unit
            .run(Variant::Full, Executor::Scratch)
            .expect("recorded");
        let oracle = Oracle {
            reference,
            batch: 1,
        };
        let mut tally = Tally::default();
        let same = unit.run(Variant::Full, Executor::Subsuming);
        oracle.judge("town", &same, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        let other = unit.run(Variant::First, Executor::Configured);
        oracle.judge("town", &other, &mut tally);
        oracle.judge("town", &Err("boom".to_owned()), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }
}
