//! Replay-time independence sanitizer — the dynamic half of the
//! independence soundness layer.
//!
//! The static certifier ([`er_pi_analysis::certify_table`]) audits the
//! conflict *table*; this module audits the independence *declarations*
//! actually used by a replay, race-detector style. After the runs of a
//! campaign finish, the sanitizer revisits every run in which two events of
//! a declared independent set executed adjacently with no declared
//! interferer inside the set's span — exactly the condition under which
//! Algorithm 3's canonical-form pruner treats the swapped order as
//! equivalent and discards it. For each such pair the sanitizer steps the
//! run's prefix through the run's fault plan
//! ([`FaultInterpreter::step`](crate::FaultInterpreter::step): a dropped
//! sync stays dropped and a partitioned one undelivered, as in the run),
//! applies the pair in both orders at the state the run reached, and
//! compares the FNV-hashed replica observations ([`er_pi_rdl::fnv1a64`])
//! plus the two [`OpOutcome`](crate::OpOutcome)s (per event identity). Any
//! difference is an [`IndependenceViolation`]: the pruner merged two orders
//! the model can tell apart, so a pruned interleaving might have exposed a
//! bug.
//!
//! The check is exact, not probabilistic: a step is deterministic given
//! `(states, event, plan)`, so replaying the identical prefix under the
//! run's plan and swapping the adjacent pair reproduces precisely the two
//! orders the pruner identified. A memo keyed by the exact prefix event
//! sequence, the plan and the pair deduplicates across runs — campaigns
//! with heavy prefix sharing pay for each distinct swap once — and runs
//! whose candidate pairs are all memoized skip state re-execution entirely,
//! which is what keeps the sanitizer inside its documented overhead
//! contract (see DESIGN.md §12).
//!
//! The sanitizer is strictly read-only with respect to the [`Report`]:
//! findings land in a separate [`SanitizerReport`] on the session
//! ([`Session::sanitizer_report`]), and `Report::diff` between a
//! sanitizer-on and sanitizer-off replay returns `None` (pinned by the
//! `sanitizer_equivalence` suite).
//!
//! [`Report`]: crate::Report
//! [`Session::sanitizer_report`]: crate::Session::sanitizer_report

use std::collections::HashSet;
use std::fmt::Write as _;

use serde::Serialize;

use er_pi_interleave::PruningConfig;
use er_pi_model::{EventId, Workload};
use er_pi_rdl::fnv1a64;

use crate::{FaultInterpreter, RunRecord, SystemModel};

/// One adjacent pair the pruners treated as swappable but whose swap
/// changes the system — concrete evidence of an unsound independence
/// declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct IndependenceViolation {
    /// Index of the run (in exploration order) the pair was found in.
    pub run: usize,
    /// Position of the first event of the pair within the interleaving.
    pub position: usize,
    /// The event executed first in the recorded order.
    pub first: EventId,
    /// The adjacent event executed second.
    pub second: EventId,
    /// FNV-1a hash of the per-replica observations after first-then-second.
    pub forward_hash: u64,
    /// FNV-1a hash of the per-replica observations after second-then-first.
    pub swapped_hash: u64,
    /// Human-readable account of the divergence (states and outcomes).
    pub detail: String,
}

/// The sanitizer's findings and work counters for one replay.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct SanitizerReport {
    /// Runs examined (every retained run of the replay).
    pub runs_scanned: usize,
    /// Adjacent in-set pairs encountered, before deduplication.
    pub pairs_considered: usize,
    /// Distinct (prefix, fault plan, pair) swaps actually re-executed.
    pub pairs_checked: usize,
    /// Pairs skipped because an identical prefix, plan and pair was already
    /// checked.
    pub pairs_deduped: usize,
    /// Per-run set occurrences skipped because a declared interferer sat
    /// inside the set's span (the pruner would not have merged there).
    pub sets_skipped: usize,
    /// The violations found, in (run, position) order.
    pub violations: Vec<IndependenceViolation>,
}

impl SanitizerReport {
    /// `true` when no independence violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Renders the per-replica observations for violation details.
fn render_states<M: SystemModel>(model: &M, states: &[M::State]) -> String {
    let mut out = String::new();
    for (i, state) in states.iter().enumerate() {
        let _ = write!(out, "r{i}={:?}; ", model.observe(state));
    }
    out
}

/// Hashes the canonical observation of every replica.
fn hash_states<M: SystemModel>(model: &M, states: &[M::State]) -> u64 {
    let mut buf = String::new();
    for state in states {
        let _ = write!(buf, "{:?}\u{1f}", model.observe(state));
    }
    fnv1a64(buf.as_bytes())
}

/// Scans `runs` for adjacent declared-independent pairs and cross-checks
/// each distinct swap against the model. `config` must be the *effective*
/// pruning configuration of the replay (including any analysis-derived or
/// constraint-ingested sets), or the scan would miss the declarations the
/// pruners actually used.
pub(crate) fn sanitize<M: SystemModel>(
    model: &M,
    workload: &Workload,
    config: &PruningConfig,
    runs: &[RunRecord],
) -> SanitizerReport {
    let mut report = SanitizerReport {
        runs_scanned: runs.len(),
        ..SanitizerReport::default()
    };
    if config.independent_sets.is_empty() {
        return report;
    }
    let events = workload.events();

    // Index each declared set and its interferers once.
    let sets: Vec<(HashSet<EventId>, HashSet<EventId>)> = config
        .independent_sets
        .iter()
        .map(|set| {
            let members: HashSet<EventId> = set.iter().copied().collect();
            let interferers: HashSet<EventId> = config
                .interference
                .iter()
                .filter(|(_, y)| members.contains(y))
                .map(|(x, _)| *x)
                .filter(|x| !members.contains(x))
                .collect();
            (members, interferers)
        })
        .collect();

    // Memo of swaps already executed: exact prefix event sequence, the
    // run's fault plan (by digest) and the pair. Exact-sequence keying is
    // sound because a step is deterministic — an identical prefix under an
    // identical plan reproduces identical states.
    let mut memo: HashSet<(u64, u64, usize, usize)> = HashSet::new();

    for (run_idx, run) in runs.iter().enumerate() {
        let order = run.interleaving.as_slice();
        let plan = run.interleaving.faults();
        let plan_key = plan.digest();

        // Candidate positions: `p` such that order[p] and order[p+1] belong
        // to one declared set whose span (in this run) is interferer-free —
        // the exact precondition under which `independence_canonical`
        // merges the swapped order away.
        let mut candidates: Vec<usize> = Vec::new();
        for (members, interferers) in &sets {
            let positions: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|(_, id)| members.contains(id))
                .map(|(p, _)| p)
                .collect();
            if positions.len() < 2 {
                continue;
            }
            let (first, last) = (positions[0], positions[positions.len() - 1]);
            let blocked = order[first..=last]
                .iter()
                .any(|id| !members.contains(id) && interferers.contains(id));
            if blocked {
                report.sets_skipped += 1;
                continue;
            }
            for w in positions.windows(2) {
                if w[1] == w[0] + 1 {
                    candidates.push(w[0]);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            continue;
        }
        report.pairs_considered += candidates.len();

        // First pass (no state execution): resolve each candidate's memo
        // key from the rolling prefix-id buffer and keep only novel swaps.
        let mut id_buf: Vec<u8> = Vec::with_capacity(order.len() * 4);
        let mut novel: Vec<usize> = Vec::new();
        let mut cursor = 0usize;
        for &p in &candidates {
            while cursor < p {
                id_buf.extend_from_slice(&(order[cursor].index() as u32).to_le_bytes());
                cursor += 1;
            }
            let key = (
                fnv1a64(&id_buf),
                plan_key,
                order[p].index(),
                order[p + 1].index(),
            );
            if memo.insert(key) {
                novel.push(p);
            } else {
                report.pairs_deduped += 1;
            }
        }
        if novel.is_empty() {
            continue;
        }

        // Second pass: one walk over the run under its fault plan, cloning
        // states at each novel candidate and applying the pair in both
        // orders.
        let mut faults = FaultInterpreter::new(plan);
        let mut states = model.init_all();
        let mut cursor = 0usize;
        for p in novel {
            while cursor < p {
                let event = &events[order[cursor].index()];
                let _ = faults.step(model, &mut states, workload, event, cursor);
                cursor += 1;
            }
            report.pairs_checked += 1;
            let (a, b) = (order[p], order[p + 1]);
            let mut forward = states.clone();
            let out_a_fwd = model.apply(&mut forward, &events[a.index()]);
            let out_b_fwd = model.apply(&mut forward, &events[b.index()]);
            let mut swapped = states.clone();
            let out_b_swp = model.apply(&mut swapped, &events[b.index()]);
            let out_a_swp = model.apply(&mut swapped, &events[a.index()]);
            let forward_hash = hash_states(model, &forward);
            let swapped_hash = hash_states(model, &swapped);
            if forward_hash != swapped_hash || out_a_fwd != out_a_swp || out_b_fwd != out_b_swp {
                report.violations.push(IndependenceViolation {
                    run: run_idx,
                    position: p,
                    first: a,
                    second: b,
                    forward_hash,
                    swapped_hash,
                    detail: format!(
                        "forward: {} [{a:?}={out_a_fwd:?} {b:?}={out_b_fwd:?}] | swapped: {} \
                         [{a:?}={out_a_swp:?} {b:?}={out_b_swp:?}]",
                        render_states(model, &forward),
                        render_states(model, &swapped),
                    ),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::testing::RegApp;
    use er_pi_model::{FaultEvent, FaultKind, FaultPlan, Interleaving, ReplicaId, Value};

    /// A run of `order` under `plan` (the sanitizer reads only the order).
    fn run(order: &[EventId], plan: FaultPlan) -> RunRecord {
        RunRecord {
            interleaving: Interleaving::new(order.to_vec()).with_faults(plan),
            observations: Vec::new(),
            failed_ops: 0,
            sim_us: 0,
        }
    }

    /// A sync A→B and a write of 9 at A, declared independent, commute
    /// exactly when A already holds 9. A sync B→A before them brings B's 9
    /// to A — unless the run's plan drops it, and then the pair does not
    /// commute at the state the run really reached.
    #[test]
    fn the_pair_is_checked_at_the_state_the_faulted_run_reached() {
        let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
        let mut w = Workload::builder();
        let one = w.update(a, "set", [Value::from(1)]);
        let nine = w.update(b, "set", [Value::from(9)]);
        let to_a = w.sync_pair(b, a, nine);
        let to_b = w.sync_pair(a, b, one);
        let again = w.update(a, "set", [Value::from(9)]);
        let workload = w.build();
        let config = PruningConfig::default().with_independent_set(vec![to_b, again]);
        let order = [one, nine, to_a, to_b, again];
        let dropped = FaultPlan::new(vec![FaultEvent::new(to_a, FaultKind::Drop)]);

        let check = |runs: &[RunRecord]| sanitize(&RegApp, &workload, &config, runs);
        let clean = check(&[run(&order, FaultPlan::empty())]);
        assert!(clean.passed(), "fault-free, A holds 9: {clean:?}");
        let faulted = check(&[run(&order, dropped.clone())]);
        assert_eq!(faulted.violations.len(), 1, "A holds 1: {faulted:?}");

        // The same base order under both plans: the faulted run is its own
        // check, not the fault-free one's memo entry.
        let runs = [run(&order, FaultPlan::empty()), run(&order, dropped)];
        let report = check(&runs);
        assert_eq!((report.pairs_checked, report.pairs_deduped), (2, 0));
        let found: Vec<_> = report
            .violations
            .iter()
            .map(|v| (v.run, v.position))
            .collect();
        assert_eq!(
            found,
            [(1, 3)],
            "the dropped sync leaves A at 1: {report:?}"
        );
    }
}
