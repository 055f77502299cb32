//! The replay configuration: every knob of a campaign, declared once.
//!
//! The paper parameterises a campaign in one place — `ER-π.Start()` …
//! `ER-π.End(assertions)` (§5.2), with the cap and stop-at-first-reproduction
//! of §6.2–§6.3 as its knobs — and so does the engine: a [`ReplayConfig`] is
//! what a [`Session`](crate::Session) stores, what the catalogue and fuzz
//! harnesses take, and what the campaign server resolves a submitted spec
//! into. It is plain data; the handles a replay *writes to* travel beside
//! it as [`Attachments`](crate::Attachments).

use er_pi_interleave::ExploreMode;

use crate::campaign::available_workers;
use crate::TestSuite;

/// How one campaign explores and replays its workload. Each field is
/// written by the `Session::set_*` method of (nearly) the same name, whose
/// documentation says what it does at length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// The exploration mode: ER-π, DFS or Random.
    pub mode: ExploreMode,
    /// Replay at most this many interleavings (the paper caps at 10 000).
    pub cap: usize,
    /// Stop at the first violating interleaving.
    pub stop_on_first_violation: bool,
    /// Replay slots: `1` is the calling thread alone, `0` every available
    /// core. The report does not depend on it; the per-slot cache and
    /// subsumption counters beside the report do.
    pub workers: usize,
    /// Prefix-sharing incremental replay; `false` replays every run from
    /// scratch (the same executor, keeping no snapshot).
    pub incremental: bool,
    /// State-hash subsumption; the report is byte-identical either way.
    pub subsumption: bool,
    /// Sleep-set pruning; the violation set is identical either way, the
    /// replayed representatives may differ.
    pub sleep_sets: bool,
    /// Merge the statically derived independence into the pruning rules.
    pub auto_independence: bool,
    /// Run the independence sanitizer after the replay (`set_sanitizer`).
    pub sanitize: bool,
    /// Certify the commutativity table before the replay.
    pub certify: bool,
    /// Return the per-run [`RunRecord`]s in [`Report::runs`]. **Off** by
    /// default, and this is the one place the whole retention rule is
    /// written down:
    ///
    /// * a campaign always keeps one `(sim_us, failed_ops)` row per run, and
    ///   everything else a report states — `explored`, `sim_us`, the
    ///   stop-on-first cut, the failure statistics — is read from those
    ///   rows;
    /// * it builds `RunRecord`s (the interleaving and the per-replica
    ///   observations of every run) only when something reads them: this
    ///   flag, a suite with cross-interleaving checks or [`sanitize`];
    /// * `Report::runs` returns them under this flag or a suite with
    ///   cross-checks — the sanitizer reads the records and the report
    ///   still drops them — and is empty otherwise. A caller that wants the
    ///   replayed interleavings elsewhere (the `er-pi-datalog` store, say)
    ///   sets this flag and copies them out of the report.
    ///
    /// It is also the rule for when [`SystemModel::observe`] runs: once per
    /// replica per run while records are built, otherwise only for a run
    /// whose assertions read [`CheckContext::observations`].
    ///
    /// [`RunRecord`]: crate::RunRecord
    /// [`Report::runs`]: crate::Report::runs
    /// [`sanitize`]: ReplayConfig::sanitize
    /// [`SystemModel::observe`]: crate::SystemModel::observe
    /// [`CheckContext::observations`]: crate::CheckContext::observations
    pub keep_runs: bool,
}

impl Default for ReplayConfig {
    /// The only default set there is: ER-π mode, the paper's cap, every
    /// core, incremental replay on, everything optional off.
    fn default() -> Self {
        ReplayConfig {
            mode: ExploreMode::ErPi,
            cap: 10_000,
            stop_on_first_violation: false,
            workers: 0,
            incremental: true,
            subsumption: false,
            sleep_sets: false,
            auto_independence: false,
            sanitize: false,
            certify: false,
            keep_runs: false,
        }
    }
}

impl ReplayConfig {
    /// Whether a campaign checking `suite` builds [`RunRecord`]s: the
    /// second clause of the rule on [`ReplayConfig::keep_runs`].
    ///
    /// [`RunRecord`]: crate::RunRecord
    pub(crate) fn builds_records<S>(&self, suite: &TestSuite<S>) -> bool {
        self.returns_records(suite) || self.sanitize
    }

    /// Whether the report of a campaign checking `suite` returns the
    /// records in `Report::runs`: the third clause of the same rule.
    pub(crate) fn returns_records<S>(&self, suite: &TestSuite<S>) -> bool {
        self.keep_runs || !suite.cross_checks().is_empty()
    }

    /// The slot count `workers` stands for: itself, or — for `0` — the
    /// `ER_PI_WORKERS` override, else the platform's parallelism.
    pub(crate) fn slots(&self) -> usize {
        match self.workers {
            0 => available_workers(),
            n => n,
        }
    }
}
