//! The ER-π pruned explorer: grouping + canonical-form filters.

use std::borrow::Cow;

use er_pi_model::{FaultPlan, Interleaving, Workload};

use crate::explorer::fresh;
use crate::independence::IndependentSet;
use crate::{
    failed_ops_canonical, group_events, replica_specific_canonical, sleep::SleepSet, Explorer,
    GroupedUnits, PruningConfig,
};

/// Per-algorithm pruning counters, observed while exploring.
///
/// `grouping_factor` is analytic (`n! / u!`); for each canonical filter the
/// `*_checked` field counts the candidates that reached it (count-in) and
/// the `*_rejected` field the candidates it eliminated (count-out minus
/// count-in) — together the data behind Figure 9 ("Individual Algorithm's
/// Contribution to the Reduction of Interleavings Number"). Filters run in
/// a fixed order (replica-specific, independence, failed-ops, causal), so
/// each filter's count-in is the previous filter's survivors; all counters
/// are deterministic functions of the workload and pruning config and are
/// therefore safe to compare in `Report::diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct PruneStats {
    /// Interleavings merged away by event grouping, per unit permutation
    /// (analytic): `n!/u!` interleavings collapse into every emitted one.
    pub grouping_factor: u128,
    /// Unit permutations that reached the sleep-set filter (the first
    /// filter — it runs on the raw permutation, before flattening).
    #[serde(default)]
    pub sleep_checked: u64,
    /// Unit permutations rejected by the sleep-set filter.
    #[serde(default)]
    pub sleep_rejected: u64,
    /// Candidates that reached replica-specific canonicalization.
    pub replica_specific_checked: u64,
    /// Candidates rejected by replica-specific canonicalization.
    pub replica_specific_rejected: u64,
    /// Candidates that reached event-independence canonicalization.
    pub independence_checked: u64,
    /// Candidates rejected by event-independence canonicalization.
    pub independence_rejected: u64,
    /// Candidates that reached failed-ops canonicalization.
    pub failed_ops_checked: u64,
    /// Candidates rejected by failed-ops canonicalization.
    pub failed_ops_rejected: u64,
    /// Candidates that reached the causal-validity extension filter.
    pub causal_checked: u64,
    /// Candidates rejected by the causal-validity extension filter.
    pub causal_rejected: u64,
    /// Interleavings emitted.
    pub emitted: u64,
}

impl PruneStats {
    /// Total candidates examined (emitted + rejected by any filter).
    pub fn examined(&self) -> u64 {
        self.emitted
            + self.sleep_rejected
            + self.replica_specific_rejected
            + self.independence_rejected
            + self.failed_ops_rejected
            + self.causal_rejected
    }

    /// `(name, checked, rejected)` rows for the configured filters, in
    /// evaluation order — the telemetry attribution table. Filters that
    /// never saw a candidate (not configured, or exploration rejected
    /// everything earlier) are omitted.
    pub fn per_filter(&self) -> Vec<(&'static str, u64, u64)> {
        [
            ("sleep", self.sleep_checked, self.sleep_rejected),
            (
                "replica-specific",
                self.replica_specific_checked,
                self.replica_specific_rejected,
            ),
            (
                "independence",
                self.independence_checked,
                self.independence_rejected,
            ),
            (
                "failed-ops",
                self.failed_ops_checked,
                self.failed_ops_rejected,
            ),
            ("causal", self.causal_checked, self.causal_rejected),
        ]
        .into_iter()
        .filter(|&(_, checked, _)| checked > 0)
        .collect()
    }
}

/// Wall-clock time spent inside each canonical filter, in nanoseconds.
///
/// Collected only when [`ErPiExplorer::enable_timing`] was called — timing
/// reads the monotonic clock twice per filter evaluation, which the
/// deterministic replay paths must not pay (and whose values must never
/// reach `Report`, where they would break run-to-run comparison). The
/// telemetry layer turns these into per-pruner spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterTimings {
    /// Nanoseconds spent in the sleep-set permutation filter.
    pub sleep_ns: u64,
    /// Nanoseconds spent in replica-specific canonicalization.
    pub replica_specific_ns: u64,
    /// Nanoseconds spent in event-independence canonicalization.
    pub independence_ns: u64,
    /// Nanoseconds spent in failed-ops canonicalization.
    pub failed_ops_ns: u64,
    /// Nanoseconds spent in the causal-validity extension filter.
    pub causal_ns: u64,
}

impl FilterTimings {
    /// `(name, nanoseconds)` rows in filter evaluation order.
    pub fn per_filter(&self) -> [(&'static str, u64); 5] {
        [
            ("sleep", self.sleep_ns),
            ("replica-specific", self.replica_specific_ns),
            ("independence", self.independence_ns),
            ("failed-ops", self.failed_ops_ns),
            ("causal", self.causal_ns),
        ]
    }
}

/// ER-π's interleaving generator: permutations of grouped units, filtered to
/// the canonical representative of every pruning-equivalence class.
///
/// See the [crate-level example](crate) for the motivating-example numbers
/// (5040 → 24 → 19).
#[derive(Debug)]
pub struct ErPiExplorer<'w> {
    workload: Cow<'w, Workload>,
    config: PruningConfig,
    grouped: GroupedUnits,
    /// The declared independent sets, indexed by event: built with the
    /// explorer (so again on a State-4 reseed), read per candidate.
    independent: Vec<IndependentSet>,
    /// The causal filter's seen-table, kept from candidate to candidate.
    causal_seen: Vec<bool>,
    perms: crate::Permutations,
    sleep: SleepSet,
    stats: PruneStats,
    timing: bool,
    timings: FilterTimings,
}

impl<'w> ErPiExplorer<'w> {
    /// Creates the explorer for `workload` under `config`.
    pub fn new(workload: &'w Workload, config: &PruningConfig) -> Self {
        ErPiExplorer::over(Cow::Borrowed(workload), config)
    }

    /// Like [`ErPiExplorer::new`], over a workload that is either borrowed
    /// or owned: `Cow::Owned` gives the explorer no borrowed lifetime,
    /// which one that outlives the stack frame that configured it needs
    /// (the shared executor service keeps one per campaign).
    pub fn over(workload: Cow<'w, Workload>, config: &PruningConfig) -> Self {
        let grouped = group_events(&workload, config);
        let grouping_factor = if grouped.len() == workload.len() {
            1
        } else {
            er_pi_model::reduction_factor(workload.total_orders(), grouped.total_orders())
                .unwrap_or(1)
        };
        let sleep = if config.sleep_sets {
            SleepSet::new(&grouped, config)
        } else {
            SleepSet::default()
        };
        let independent = config
            .independent_sets
            .iter()
            .map(|set| IndependentSet::new(set, &config.interference, workload.len()))
            .collect();
        ErPiExplorer {
            workload,
            config: config.clone(),
            perms: crate::Permutations::new(grouped.len()),
            grouped,
            independent,
            causal_seen: Vec::new(),
            sleep,
            stats: PruneStats {
                grouping_factor,
                ..PruneStats::default()
            },
            timing: false,
            timings: FilterTimings::default(),
        }
    }

    /// The grouped units the explorer permutes.
    pub fn grouped(&self) -> &GroupedUnits {
        &self.grouped
    }

    /// Pruning counters accumulated so far.
    pub fn stats(&self) -> PruneStats {
        self.stats
    }

    /// Starts measuring per-filter wall time (off by default — it costs two
    /// monotonic-clock reads per filter evaluation). Read the result with
    /// [`ErPiExplorer::timings`].
    pub fn enable_timing(&mut self) {
        self.timing = true;
    }

    /// Per-filter wall time accumulated so far. All zeros unless
    /// [`ErPiExplorer::enable_timing`] was called.
    pub fn timings(&self) -> FilterTimings {
        self.timings
    }

    /// Attaches a live sleep-set rejection tally (an atomic the progress
    /// layer shares with the campaign server). The deterministic counts
    /// stay in [`PruneStats`]; the tally only feeds live metrics.
    pub fn set_sleep_tally(&mut self, tally: std::sync::Arc<std::sync::atomic::AtomicU64>) {
        self.sleep.set_tally(tally);
    }

    /// Whether the flattened candidate `il` passes every configured
    /// canonical filter, in evaluation order; each filter is booked by
    /// [`pass`], and the first to reject ends the check.
    fn canonical(&mut self, il: &Interleaving) -> bool {
        let (order, s, t) = (il.as_slice(), &mut self.stats, &mut self.timings);
        if let Some(target) = self.config.target_replica {
            let book = (
                &mut s.replica_specific_checked,
                &mut s.replica_specific_rejected,
            );
            let check = || replica_specific_canonical(&self.workload, order, target);
            if !pass(self.timing, book, &mut t.replica_specific_ns, check) {
                return false;
            }
        }
        if !self.independent.is_empty() {
            let book = (&mut s.independence_checked, &mut s.independence_rejected);
            let check = || self.independent.iter().all(|set| set.is_canonical(order));
            if !pass(self.timing, book, &mut t.independence_ns, check) {
                return false;
            }
        }
        let rules = &self.config.failed_ops;
        if !rules.is_empty() {
            let book = (&mut s.failed_ops_checked, &mut s.failed_ops_rejected);
            let check = || rules.iter().all(|rule| failed_ops_canonical(order, rule));
            if !pass(self.timing, book, &mut t.failed_ops_ns, check) {
                return false;
            }
        }
        if self.config.require_causal {
            let book = (&mut s.causal_checked, &mut s.causal_rejected);
            let check = || {
                self.workload
                    .is_causally_valid_in(il, &mut self.causal_seen)
            };
            return pass(self.timing, book, &mut t.causal_ns, check);
        }
        true
    }
}

/// Runs one filter's `check` and books it: the candidate counts as checked
/// (`book.0`), the check's wall time goes to `ns` when `timing` is on, and
/// a rejection counts as rejected (`book.1`). Returns whether the candidate
/// passed.
fn pass(
    timing: bool,
    (checked, rejected): (&mut u64, &mut u64),
    ns: &mut u64,
    check: impl FnOnce() -> bool,
) -> bool {
    *checked += 1;
    let started = timing.then(std::time::Instant::now);
    let ok = check();
    if let Some(started) = started {
        *ns += started.elapsed().as_nanos() as u64;
    }
    *rejected += u64::from(!ok);
    ok
}

impl Iterator for ErPiExplorer<'_> {
    type Item = Interleaving;

    fn next(&mut self) -> Option<Interleaving> {
        fresh(self)
    }
}

impl Explorer for ErPiExplorer<'_> {
    fn name(&self) -> &'static str {
        "ER-π"
    }

    /// Flattens each candidate into `buf` and filters it there: a rejected
    /// candidate is overwritten by the next.
    fn fill(&mut self, buf: &mut Interleaving) -> bool {
        loop {
            let Some(perm) = self.perms.step() else {
                return false;
            };
            // The sleep-set check runs on the raw unit permutation, before
            // the flatten: a pruned candidate never pays event-level work.
            let (s, t) = (&mut self.stats, &mut self.timings);
            let book = (&mut s.sleep_checked, &mut s.sleep_rejected);
            let check = || self.sleep.is_canonical(perm);
            if self.sleep.is_active() && !pass(self.timing, book, &mut t.sleep_ns, check) {
                continue;
            }
            let grouped = &self.grouped;
            buf.refill(self.workload.len(), &FaultPlan::empty(), |order| {
                grouped.flatten_into(perm, order);
            });
            if self.canonical(buf) {
                self.stats.emitted += 1;
                return true;
            }
        }
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        Some(self.stats)
    }

    fn filter_timings(&self) -> Option<FilterTimings> {
        Some(self.timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailedOpsRule;
    use er_pi_model::{EventId, ReplicaId, Value, Workload};

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    /// The §2.3 motivating example workload.
    fn motivating() -> (Workload, [EventId; 4]) {
        let a = r(0);
        let b = r(1);
        let mut w = Workload::builder();
        let ev1 = w.update(a, "add", [Value::from("otb")]);
        w.sync_pair(a, b, ev1);
        let ev2 = w.update(b, "add", [Value::from("ph")]);
        w.sync_pair(b, a, ev2);
        let ev3 = w.update(b, "remove", [Value::from("otb")]);
        w.sync_pair(b, a, ev3);
        let ev4 = w.external(a, "transmit");
        (w.build(), [ev1, ev2, ev3, ev4])
    }

    #[test]
    fn grouping_only_gives_24() {
        let (w, _) = motivating();
        let config = PruningConfig::default();
        let explorer = ErPiExplorer::new(&w, &config);
        assert_eq!(explorer.grouped().len(), 4);
        assert_eq!(explorer.count(), 24);
    }

    #[test]
    fn paper_motivating_example_reaches_19() {
        let (w, [ev1, ev2, ev3, ev4]) = motivating();
        let config = PruningConfig::default().with_failed_ops(FailedOpsRule {
            predecessors: vec![ev4],
            successors: vec![ev1, ev2, ev3],
        });
        let mut explorer = ErPiExplorer::new(&w, &config);
        let emitted: Vec<Interleaving> = explorer.by_ref().collect();
        assert_eq!(emitted.len(), 19, "5040 → 19, a 265x reduction");
        assert_eq!(
            er_pi_model::reduction_factor(w.total_orders(), emitted.len() as u128),
            Some(265)
        );
        let stats = explorer.stats();
        assert_eq!(stats.emitted, 19);
        assert_eq!(stats.failed_ops_rejected, 5);
        assert_eq!(stats.failed_ops_checked, 24, "every candidate reached it");
        assert_eq!(stats.grouping_factor, 210); // 5040 / 24
        assert_eq!(stats.per_filter(), vec![("failed-ops", 24, 5)]);
    }

    #[test]
    fn count_in_chains_through_the_filter_order() {
        // Configure both the replica-specific and causal filters: causal's
        // count-in must equal replica-specific's survivors.
        let a = r(0);
        let b = r(1);
        let mut w = Workload::builder();
        let base = w.update(a, "base", [Value::from(0)]);
        w.sync_pair(a, b, base);
        let p = w.update(a, "p", [Value::from(1)]);
        let q = w.update(a, "q", [Value::from(2)]);
        w.depends(q, p);
        let w = w.build();
        let config = PruningConfig {
            require_causal: true,
            ..PruningConfig::default().with_target_replica(b)
        };
        let mut explorer = ErPiExplorer::new(&w, &config);
        let emitted = explorer.by_ref().count() as u64;
        let stats = explorer.stats();
        assert_eq!(
            stats.causal_checked,
            stats.replica_specific_checked - stats.replica_specific_rejected
        );
        assert_eq!(stats.causal_checked - stats.causal_rejected, emitted);
        assert_eq!(
            stats.per_filter(),
            vec![
                (
                    "replica-specific",
                    stats.replica_specific_checked,
                    stats.replica_specific_rejected
                ),
                ("causal", stats.causal_checked, stats.causal_rejected),
            ]
        );
    }

    #[test]
    fn timings_stay_zero_unless_enabled() {
        let (w, [ev1, ev2, ev3, ev4]) = motivating();
        let config = PruningConfig::default().with_failed_ops(FailedOpsRule {
            predecessors: vec![ev4],
            successors: vec![ev1, ev2, ev3],
        });
        let mut silent = ErPiExplorer::new(&w, &config);
        silent.by_ref().count();
        assert_eq!(silent.timings(), FilterTimings::default());

        let mut timed = ErPiExplorer::new(&w, &config);
        timed.enable_timing();
        timed.by_ref().count();
        let timings = timed.timings();
        // The failed-ops filter evaluated 24 candidates; the others never ran.
        assert_eq!(timings.replica_specific_ns, 0);
        assert_eq!(timings.independence_ns, 0);
        assert_eq!(timings.causal_ns, 0);
        // Timing must not change what is emitted or counted.
        assert_eq!(timed.stats(), silent.stats());
    }

    #[test]
    fn every_emitted_order_is_a_permutation() {
        let (w, _) = motivating();
        let config = PruningConfig::default();
        for il in ErPiExplorer::new(&w, &config) {
            assert!(w.is_permutation(&il));
        }
    }

    #[test]
    fn units_stay_contiguous_in_emitted_orders() {
        let (w, [ev1, _, _, _]) = motivating();
        let config = PruningConfig::default();
        let explorer = ErPiExplorer::new(&w, &config);
        let sync1 = EventId::new(ev1.raw() + 1); // the fused sync of ev1
        for il in explorer {
            let p_upd = il.position(ev1).unwrap();
            let p_sync = il.position(sync1).unwrap();
            assert_eq!(p_sync, p_upd + 1, "grouped pair must stay adjacent in {il}");
        }
    }

    #[test]
    fn causal_filter_extension_reduces_further() {
        // Three updates with a chain dependency x -> y -> z: only one of
        // the 3! orders is causally valid.
        let mut w = Workload::builder();
        let x = w.update(r(0), "x", [Value::from(0)]);
        let y = w.update(r(1), "y", [Value::from(1)]);
        let z = w.update(r(2), "z", [Value::from(2)]);
        w.depends(y, x);
        w.depends(z, y);
        let w = w.build();
        let config = PruningConfig {
            require_causal: true,
            ..PruningConfig::default()
        };
        let mut explorer = ErPiExplorer::new(&w, &config);
        let emitted: Vec<Interleaving> = explorer.by_ref().collect();
        assert_eq!(emitted.len(), 1);
        assert!(w.is_causally_valid(&emitted[0]));
        assert_eq!(explorer.stats().causal_rejected, 5);
        let _ = (x, z);
    }

    #[test]
    fn replica_specific_filter_counts_rejections() {
        let a = r(0);
        let b = r(1);
        let mut w = Workload::builder();
        let base = w.update(a, "base", [Value::from(0)]);
        w.sync_pair(a, b, base);
        w.update(a, "p", [Value::from(1)]);
        w.update(a, "q", [Value::from(2)]);
        let w = w.build();
        let config = PruningConfig::default().with_target_replica(b);
        let mut explorer = ErPiExplorer::new(&w, &config);
        let emitted = explorer.by_ref().count();
        let stats = explorer.stats();
        assert!(stats.replica_specific_rejected > 0);
        assert_eq!(stats.emitted as usize, emitted);
        assert_eq!(
            stats.examined() as usize,
            emitted + stats.replica_specific_rejected as usize
        );
    }

    #[test]
    fn independence_filter_applies_to_unit_orders() {
        let mut w = Workload::builder();
        let x = w.update(r(0), "set", [Value::from(0)]);
        let y = w.update(r(1), "set", [Value::from(1)]);
        let z = w.update(r(2), "set", [Value::from(2)]);
        let w = w.build();
        let config = PruningConfig::default().with_independent_set(vec![x, y, z]);
        let explorer = ErPiExplorer::new(&w, &config);
        assert_eq!(explorer.count(), 1, "3! orders merge into one");
    }

    #[test]
    fn sleep_sets_emit_the_same_orders_with_fewer_event_level_checks() {
        // Sleep pruning runs on the unit permutation before flattening, so
        // the independence filter sees fewer candidates — but the emitted
        // set must be unchanged (both keep the ascending representative).
        let mut w = Workload::builder();
        for i in 0..4u16 {
            w.update(r(i), "set", [Value::from(i as i64)]);
        }
        let w = w.build();
        let ids: Vec<EventId> = (0..4).map(EventId::new).collect();
        let base = PruningConfig::default().with_independent_set(ids.clone());
        let mut plain = ErPiExplorer::new(&w, &base);
        let plain_out: Vec<Interleaving> = plain.by_ref().collect();

        let slept = base.clone().with_sleep_sets(true);
        let mut pruned = ErPiExplorer::new(&w, &slept);
        let pruned_out: Vec<Interleaving> = pruned.by_ref().collect();

        assert_eq!(plain_out, pruned_out, "same canonical representatives");
        let stats = pruned.stats();
        assert_eq!(stats.sleep_checked, 24);
        assert!(
            stats.sleep_rejected > 0,
            "sleep must prune before the flatten: {stats:?}"
        );
        assert!(
            stats.independence_checked < plain.stats().independence_checked,
            "event-level filter saw fewer candidates"
        );
        assert_eq!(
            stats.per_filter()[0],
            ("sleep", stats.sleep_checked, stats.sleep_rejected)
        );
        assert_eq!(stats.examined(), 24);
    }

    #[test]
    fn sleep_sets_without_independence_declarations_are_inert() {
        let (w, _) = motivating();
        let config = PruningConfig::default().with_sleep_sets(true);
        let mut explorer = ErPiExplorer::new(&w, &config);
        assert_eq!(explorer.by_ref().count(), 24);
        let stats = explorer.stats();
        assert_eq!(stats.sleep_checked, 0, "no commuting pair, no check");
        assert_eq!(stats.sleep_rejected, 0);
    }
}
