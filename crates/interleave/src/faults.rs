//! Weaving fault schedules into the interleaving space.
//!
//! [`FaultSpace`] describes which fault kinds to explore and under what
//! budget; [`enumerate_plans`] turns a workload plus a space into the
//! deterministic, finite list of [`FaultPlan`]s; [`FaultProduct`] lifts any
//! interleaving explorer to the product space `orders × plans`.
//!
//! The product is *plan-minor*: for each base order the wrapper emits the
//! fault-free baseline first (when present), then each plan in enumeration
//! order, before advancing to the next order. Consecutive emissions thus
//! share their entire event order and differ only in per-anchor fault
//! digests, which is the friendliest shape for the incremental executor —
//! a faulted run borrows the baseline's snapshots up to its first anchored
//! fault. Runs of one plan are a base order apart, so the campaign claims
//! whole base orders (`⌊32 / P⌋ · P` items of a `P`-plan product) and
//! tells each faulted run the common prefixes of the base orders after its
//! own: the branch depths between that plan's runs, which decide where its
//! path keeps a snapshot.

use er_pi_model::{EventId, FaultEvent, FaultKind, FaultPlan, Interleaving, Workload};

use crate::explorer::pull_next;
use crate::{Explorer, FilterTimings, PruneStats};

/// The configurable fault budget: which faults to schedule, where, and how
/// many per plan.
///
/// Defaults explore the *schedule-surgery* faults (duplicate and delay) that
/// a correct CRDT substrate must tolerate — so any violation they surface is
/// an integration bug, not a false positive. Loss-like faults (drop,
/// partition windows) and crash-restart legitimately break convergence for
/// many oracles and are opt-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpace {
    /// Maximum number of scheduled faults per plan (a partition/heal window
    /// counts as two).
    pub budget: usize,
    /// Schedule message drops at sync events.
    pub drop: bool,
    /// Schedule duplicate deliveries at sync events.
    pub duplicate: bool,
    /// Reorder-window size: schedule delays of `1..=delay_window` steps at
    /// sync events (`0` disables delays).
    pub delay_window: u32,
    /// Schedule partition/heal windows over pairs of same-link sync events.
    pub partitions: bool,
    /// Schedule a crash-restart of the executing replica before each event.
    pub crashes: bool,
    /// Emit the fault-free baseline plan first.
    pub include_baseline: bool,
}

impl Default for FaultSpace {
    fn default() -> Self {
        FaultSpace {
            budget: 1,
            drop: false,
            duplicate: true,
            delay_window: 1,
            partitions: false,
            crashes: false,
            include_baseline: true,
        }
    }
}

impl FaultSpace {
    /// A space scheduling every supported fault kind under `budget`.
    pub fn all(budget: usize) -> Self {
        FaultSpace {
            budget,
            drop: true,
            duplicate: true,
            delay_window: 2,
            partitions: true,
            crashes: true,
            include_baseline: true,
        }
    }
}

/// One enumeration candidate: an atomic group of faults scheduled together
/// (single faults cost 1; a partition/heal window costs 2).
#[derive(Debug, Clone)]
struct Candidate {
    faults: Vec<FaultEvent>,
    anchors: Vec<EventId>,
}

impl Candidate {
    fn single(anchor: EventId, kind: FaultKind) -> Self {
        Candidate {
            faults: vec![FaultEvent::new(anchor, kind)],
            anchors: vec![anchor],
        }
    }

    fn cost(&self) -> usize {
        self.faults.len()
    }
}

fn candidates(workload: &Workload, space: &FaultSpace) -> Vec<Candidate> {
    let mut out = Vec::new();
    let anchored: Vec<&er_pi_model::Event> =
        workload.events().iter().filter(|ev| ev.is_sync()).collect();
    for ev in &anchored {
        if space.drop {
            out.push(Candidate::single(ev.id, FaultKind::Drop));
        }
        if space.duplicate {
            out.push(Candidate::single(ev.id, FaultKind::Duplicate));
        }
        for by in 1..=space.delay_window {
            out.push(Candidate::single(ev.id, FaultKind::Delay { by }));
        }
    }
    if space.partitions {
        // Partition/heal windows: cut a link just before one of its sync
        // events, restore it just before a later sync event on the same
        // link. Both ends are anchored, so the window is deterministic in
        // every interleaving that respects the anchors' recorded order.
        let syncs: Vec<&er_pi_model::Event> =
            workload.events().iter().filter(|ev| ev.is_sync()).collect();
        for (i, open) in syncs.iter().enumerate() {
            let Some((a, b)) = open.sync_endpoints() else {
                continue;
            };
            let link = normalize(a, b);
            for close in syncs.iter().skip(i + 1) {
                let Some((c, d)) = close.sync_endpoints() else {
                    continue;
                };
                if normalize(c, d) != link {
                    continue;
                }
                out.push(Candidate {
                    faults: vec![
                        FaultEvent::new(open.id, FaultKind::Partition { from: a, to: b }),
                        FaultEvent::new(close.id, FaultKind::Heal { from: a, to: b }),
                    ],
                    anchors: vec![open.id, close.id],
                });
            }
        }
    }
    if space.crashes {
        for ev in workload.events() {
            out.push(Candidate::single(
                ev.id,
                FaultKind::CrashRestart {
                    replica: ev.replica,
                },
            ));
        }
    }
    out
}

fn normalize(
    a: er_pi_model::ReplicaId,
    b: er_pi_model::ReplicaId,
) -> (er_pi_model::ReplicaId, er_pi_model::ReplicaId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Enumerates the deterministic list of fault plans for `workload` under
/// `space`: the fault-free baseline (when enabled), then every combination
/// of candidate faults with distinct anchors whose total cost is within
/// the budget, in lexicographic candidate order.
///
/// ```
/// use er_pi_interleave::{enumerate_plans, FaultSpace};
/// use er_pi_model::{ReplicaId, Workload};
///
/// let mut w = Workload::builder();
/// let op = w.update(ReplicaId::new(0), "add", [1]);
/// w.sync_pair(ReplicaId::new(0), ReplicaId::new(1), op);
/// let workload = w.build();
///
/// // Default space: baseline + duplicate + delay(1) at the one sync event.
/// let plans = enumerate_plans(&workload, &FaultSpace::default());
/// assert_eq!(plans.len(), 3);
/// assert!(plans[0].is_empty());
/// ```
pub fn enumerate_plans(workload: &Workload, space: &FaultSpace) -> Vec<FaultPlan> {
    let cands = candidates(workload, space);
    let mut plans = Vec::new();
    if space.include_baseline {
        plans.push(FaultPlan::empty());
    }
    if space.budget == 0 {
        return plans;
    }
    // Depth-first combination enumeration: stable, lexicographic in the
    // candidate order, combinations of distinct-anchor candidates.
    let mut stack: Vec<usize> = Vec::new();
    fn emit(
        cands: &[Candidate],
        start: usize,
        budget_left: usize,
        stack: &mut Vec<usize>,
        plans: &mut Vec<FaultPlan>,
    ) {
        for i in start..cands.len() {
            let c = &cands[i];
            if c.cost() > budget_left {
                continue;
            }
            let clash = stack
                .iter()
                .any(|&j| cands[j].anchors.iter().any(|a| c.anchors.contains(a)));
            if clash {
                continue;
            }
            stack.push(i);
            plans.push(FaultPlan::new(
                stack
                    .iter()
                    .flat_map(|&j| cands[j].faults.iter().copied())
                    .collect(),
            ));
            emit(cands, i + 1, budget_left - c.cost(), stack, plans);
            stack.pop();
        }
    }
    emit(&cands, 0, space.budget, &mut stack, &mut plans);
    plans
}

/// Lifts an interleaving explorer to the product space `orders × plans`.
///
/// For each base order pulled from the inner explorer, emits that order once
/// per plan (plan-minor). With the single empty plan this is a transparent
/// pass-through — emitted interleavings are equal to the inner explorer's,
/// so the fault-free pipeline is unchanged.
///
/// The base order is kept in a buffer of the product's own, copied into
/// each of its plans' items but the last, which takes the buffer: over an
/// [`Explorer`], [`Explorer::fill`] refills the buffers in place and
/// allocates nothing.
#[derive(Debug)]
pub struct FaultProduct<I> {
    inner: I,
    plans: Vec<FaultPlan>,
    /// The base order the product is on.
    base: Interleaving,
    /// The plan of the next item; 0 when it opens a new base order.
    next_plan: usize,
}

impl<I> FaultProduct<I> {
    /// Wraps `inner`, emitting each of its orders under each of `plans`.
    /// An empty plan list behaves like the single fault-free plan.
    pub fn new(inner: I, mut plans: Vec<FaultPlan>) -> Self {
        if plans.is_empty() {
            plans.push(FaultPlan::empty());
        }
        FaultProduct {
            inner,
            plans,
            base: Interleaving::default(),
            next_plan: 0,
        }
    }

    /// The wrapped explorer.
    pub fn inner(&self) -> &I {
        &self.inner
    }

    /// Number of plans in the product (including the baseline).
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// The product's one rule: `pull` refills the base buffer from the
    /// inner explorer when a new base order is due, and `buf` becomes the
    /// base order under the next plan — a copy, except for the base order's
    /// last plan, which takes the base buffer itself and leaves the
    /// product `buf`'s to refill. A one-plan product thus passes its
    /// explorer's orders through without copying them.
    fn fill_with(
        &mut self,
        buf: &mut Interleaving,
        pull: impl FnOnce(&mut I, &mut Interleaving) -> bool,
    ) -> bool {
        if self.next_plan == 0 && !pull(&mut self.inner, &mut self.base) {
            return false;
        }
        // `new` leaves at least one plan.
        let plan = &self.plans[self.next_plan];
        self.next_plan = (self.next_plan + 1) % self.plans.len();
        match self.next_plan {
            0 => {
                std::mem::swap(buf, &mut self.base);
                *buf = std::mem::take(buf).with_faults(plan.clone());
            }
            _ => {
                let base = self.base.as_slice();
                buf.refill(base.len(), plan, |order| order.extend_from_slice(base));
            }
        }
        true
    }
}

impl<I: Iterator<Item = Interleaving>> Iterator for FaultProduct<I> {
    type Item = Interleaving;

    fn next(&mut self) -> Option<Interleaving> {
        let mut il = Interleaving::default();
        self.fill_with(&mut il, pull_next).then_some(il)
    }
}

impl<I: Explorer> Explorer for FaultProduct<I> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn wasted_work(&self) -> u64 {
        self.inner.wasted_work()
    }

    fn fill(&mut self, buf: &mut Interleaving) -> bool {
        self.fill_with(buf, I::fill)
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        self.inner.prune_stats()
    }

    fn filter_timings(&self) -> Option<FilterTimings> {
        self.inner.filter_timings()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfsExplorer;
    use er_pi_model::ReplicaId;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn two_sync_workload() -> Workload {
        let mut w = Workload::builder();
        let a = w.update(r(0), "add", [1]);
        w.sync_pair(r(0), r(1), a);
        let b = w.update(r(1), "add", [2]);
        w.sync_pair(r(1), r(0), b);
        w.build()
    }

    #[test]
    fn default_space_enumerates_baseline_then_singles() {
        let w = two_sync_workload();
        let plans = enumerate_plans(&w, &FaultSpace::default());
        // 2 sync events × (duplicate + delay1) + baseline.
        assert_eq!(plans.len(), 5);
        assert!(plans[0].is_empty());
        assert!(plans[1..].iter().all(|p| p.len() == 1));
        // Deterministic: a second enumeration is identical.
        assert_eq!(plans, enumerate_plans(&w, &FaultSpace::default()));
    }

    #[test]
    fn budget_two_allows_distinct_anchor_pairs_only() {
        let w = two_sync_workload();
        let space = FaultSpace {
            budget: 2,
            delay_window: 0,
            ..FaultSpace::default()
        };
        let plans = enumerate_plans(&w, &space);
        // duplicate@s1, duplicate@s2, {duplicate@s1, duplicate@s2}, baseline.
        assert_eq!(plans.len(), 4);
        assert!(plans.iter().filter(|p| p.len() == 2).count() == 1);
        for p in &plans {
            let mut anchors: Vec<_> = p.iter().map(|f| f.anchor).collect();
            anchors.dedup();
            assert_eq!(anchors.len(), p.len(), "one fault per anchor");
        }
    }

    #[test]
    fn partition_windows_cost_two() {
        let mut w = Workload::builder();
        let a = w.update(r(0), "add", [1]);
        w.sync_pair(r(0), r(1), a);
        let b = w.update(r(0), "add", [2]);
        w.sync_pair(r(0), r(1), b);
        let w = w.build();
        let space = FaultSpace {
            budget: 2,
            duplicate: false,
            delay_window: 0,
            partitions: true,
            ..FaultSpace::default()
        };
        let plans = enumerate_plans(&w, &space);
        // baseline + one partition/heal window over the two same-link syncs.
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[1].len(), 2);
        let kinds: Vec<_> = plans[1].iter().map(|f| f.kind).collect();
        assert!(matches!(kinds[0], FaultKind::Partition { .. }));
        assert!(matches!(kinds[1], FaultKind::Heal { .. }));
    }

    #[test]
    fn crash_candidates_anchor_every_event() {
        let w = two_sync_workload();
        let space = FaultSpace {
            duplicate: false,
            delay_window: 0,
            crashes: true,
            ..FaultSpace::default()
        };
        let plans = enumerate_plans(&w, &space);
        assert_eq!(plans.len(), 1 + w.len());
    }

    #[test]
    fn product_is_plan_minor_with_baseline_first() {
        let w = two_sync_workload();
        let plans = enumerate_plans(&w, &FaultSpace::default());
        let product: Vec<Interleaving> =
            FaultProduct::new(DfsExplorer::new(&w), plans.clone()).collect();
        let base_count = DfsExplorer::new(&w).count();
        assert_eq!(product.len(), base_count * plans.len());
        // First emission is the recorded order, fault-free.
        assert!(product[0].faults().is_empty());
        // Each consecutive block shares one base order.
        for chunk in product.chunks(plans.len()) {
            assert!(chunk.iter().all(|il| il.as_slice() == chunk[0].as_slice()));
            let digests: std::collections::HashSet<u64> =
                chunk.iter().map(Interleaving::fingerprint).collect();
            assert_eq!(digests.len(), plans.len(), "plans distinguish fingerprints");
        }
    }

    #[test]
    fn empty_plan_list_is_a_transparent_passthrough() {
        let w = two_sync_workload();
        let wrapped: Vec<Interleaving> =
            FaultProduct::new(DfsExplorer::new(&w), Vec::new()).collect();
        let bare: Vec<Interleaving> = DfsExplorer::new(&w).collect();
        assert_eq!(wrapped, bare);
    }

    #[test]
    fn zero_budget_yields_baseline_only() {
        let w = two_sync_workload();
        let plans = enumerate_plans(
            &w,
            &FaultSpace {
                budget: 0,
                ..FaultSpace::default()
            },
        );
        assert_eq!(plans.len(), 1);
        assert!(plans[0].is_empty());
    }
}
