//! Outside-in tracing: spans recorded by benchmark code around each call
//! into a layer, never from inside the engine.
//!
//! A campaign replays on the calling thread (one worker), so the recorder
//! is a thread-local: the model wrapper and the wrapped assertions reach it
//! without holding state of their own, which keeps them `Sync` as
//! `Session::replay` requires.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use er_pi::{Assertion, OpOutcome, SystemModel, TestSuite};
use er_pi_model::{Event, ReplicaId, Value};

/// One recorded span. `parent` is an index into the span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The traced campaign this span belongs to (0 = none: a layer probe).
    pub campaign: u32,
    /// A count measured at the boundary (bytes written by an encode).
    pub count: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    campaign: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        campaign: 0,
    });
}

fn enter(name: &'static str) -> u32 {
    RECORDER.with(|cell| {
        let mut rec = cell.borrow_mut();
        let index = rec.spans.len() as u32;
        let parent = rec.open.last().copied();
        let campaign = rec.campaign;
        rec.open.push(index);
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            campaign,
            count: 0,
        });
        index
    })
}

fn exit(index: u32, count: u32) {
    RECORDER.with(|cell| {
        let mut rec = cell.borrow_mut();
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        let popped = rec.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
        let span = &mut rec.spans[index as usize];
        span.end_ns = end_ns;
        span.count = count;
    });
}

/// Records `work` as a span named `name` under the innermost open span.
pub fn span<T>(name: &'static str, work: impl FnOnce() -> T) -> T {
    let index = enter(name);
    let value = work();
    exit(index, 0);
    value
}

/// Records `work` as the root span of traced campaign `id` (≥ 1); every
/// span opened inside carries the same id.
pub fn campaign<T>(id: u32, work: impl FnOnce() -> T) -> T {
    RECORDER.with(|cell| cell.borrow_mut().campaign = id);
    let value = span("campaign", work);
    RECORDER.with(|cell| cell.borrow_mut().campaign = 0);
    value
}

/// Reads the spans recorded on this thread so far without taking them.
pub fn with_spans<R>(read: impl FnOnce(&[Span]) -> R) -> R {
    RECORDER.with(|cell| read(&cell.borrow().spans))
}

/// Takes every span recorded on this thread so far.
pub fn drain() -> Vec<Span> {
    RECORDER.with(|cell| {
        let mut rec = cell.borrow_mut();
        assert!(rec.open.is_empty(), "drained with a span still open");
        std::mem::take(&mut rec.spans)
    })
}

/// Writes one JSON object per span; `parent` is the 0-based line of the
/// parent span, or `null`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"campaign\":{},\"count\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.campaign, s.count
        )?;
    }
    out.flush()
}

/// Per-name totals of the spans of traced campaigns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
    /// Sum of the spans' `count` fields.
    pub count: u64,
}

/// Folds the spans that belong to a traced campaign (`campaign ≥ 1`) by
/// name. A span's self time is its duration minus its direct children's.
pub fn fold_campaigns(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            child_ns[parent as usize] += s.dur_ns();
        }
    }
    let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(&child_ns) {
        if s.campaign == 0 {
            continue;
        }
        let total = totals.entry(s.name).or_default();
        total.calls += 1;
        total.total_ns += s.dur_ns();
        total.self_ns += s.dur_ns().saturating_sub(*covered);
        total.count += u64::from(s.count);
    }
    totals
}

/// A [`SystemModel`] that records a span around every call into `M`.
///
/// `init_all` and `state_digest` are deliberately left at the trait's
/// defaults: they call `init` / `state_encode` on *this* type, so those
/// calls are seen too. That equals delegation only for a model that keeps
/// the defaults itself, as `TownApp` does (a unit test pins the reports
/// equal, subsumption on).
#[derive(Debug, Clone)]
pub struct TracedModel<M>(pub M);

impl<M: SystemModel> SystemModel for TracedModel<M> {
    type State = M::State;

    fn replicas(&self) -> usize {
        self.0.replicas()
    }

    fn init(&self, replica: ReplicaId) -> M::State {
        span("model.init", || self.0.init(replica))
    }

    fn apply(&self, states: &mut [M::State], event: &Event) -> OpOutcome {
        span("model.apply", || self.0.apply(states, event))
    }

    fn observe(&self, state: &M::State) -> Value {
        span("model.observe", || self.0.observe(state))
    }

    fn recover(&self, states: &mut [M::State], replica: ReplicaId) {
        span("model.recover", || self.0.recover(states, replica));
    }

    fn state_encode(&self, state: &M::State, out: &mut Vec<u8>) -> bool {
        let before = out.len();
        let index = enter("model.encode");
        let encoded = self.0.state_encode(state, out);
        exit(index, (out.len() - before) as u32);
        encoded
    }

    fn state_size_hint(&self, state: &M::State) -> usize {
        // Not spanned: called for every replica at every snapshot store,
        // it would double the span count for a few nanoseconds each.
        self.0.state_size_hint(state)
    }
}

/// The same suite with a `core.check` span around every assertion. Names
/// are kept, so violations (and the canonical report) are unchanged.
pub fn traced_suite<S: 'static>(suite: &TestSuite<S>) -> TestSuite<S> {
    let mut traced = TestSuite::new();
    for assertion in suite.assertions() {
        let inner = assertion.clone();
        traced = traced.with(Assertion::new(assertion.name(), move |ctx| {
            span("core.check", || inner.check(ctx))
        }));
    }
    for cross in suite.cross_checks() {
        traced = traced.with_cross(cross.clone());
    }
    traced
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{record_town, Inputs};
    use er_pi::{ExploreMode, Session};
    use er_pi_interleave::FaultSpace;
    use er_pi_subjects::TownApp;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let span = |name, start_ns, end_ns, parent, campaign| Span {
            name,
            start_ns,
            end_ns,
            parent,
            campaign,
            count: 3,
        };
        let spans = [
            span("campaign", 0, 100, None, 1),
            span("model.apply", 10, 30, Some(0), 1),
            span("model.apply", 40, 70, Some(0), 1),
            span("probe", 200, 300, None, 0),
        ];
        let totals = fold_campaigns(&spans);
        assert_eq!(totals.len(), 2, "probe spans are not part of a campaign");
        assert_eq!(totals["campaign"].self_ns, 50);
        assert_eq!(totals["campaign"].total_ns, 100);
        let apply = totals["model.apply"];
        assert_eq!(
            (apply.calls, apply.total_ns, apply.self_ns, apply.count),
            (2, 50, 50, 6)
        );
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        drain();
        campaign(9, || span("outer", || span("inner", || ())));
        span("probe", || ());
        let spans = drain();
        let names: Vec<_> = spans
            .iter()
            .map(|s| (s.name, s.parent, s.campaign))
            .collect();
        assert_eq!(
            names,
            [
                ("campaign", None, 9),
                ("outer", Some(0), 9),
                ("inner", Some(1), 9),
                ("probe", None, 0),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    /// The wrapper must be invisible to the engine: same canonical report
    /// as the bare model, with faults and subsumption on so `recover`,
    /// `state_encode` and the default `state_digest` are all exercised.
    #[test]
    fn traced_model_report_equals_the_bare_models() {
        drain();
        let inputs = Inputs::generate(7, 12);
        fn session<M: SystemModel>(model: M, inputs: &Inputs, faults: bool) -> Session<M> {
            let mut session = Session::new(model);
            session.record(|sys| record_town(sys, &inputs.issues));
            session.set_cap(600).set_workers(1);
            if faults {
                session.set_mode(ExploreMode::Dfs);
                session
                    .set_fault_space(FaultSpace::all(1))
                    .set_subsumption(true);
            } else {
                session.set_mode(ExploreMode::Random { seed: 3 });
            }
            session
        }
        let suite = TownApp::invariant();
        for faults in [true, false] {
            let expected = session(TownApp::new(2), &inputs, faults)
                .replay(&suite)
                .expect("recorded");
            let got = session(TracedModel(TownApp::new(2)), &inputs, faults)
                .replay(&traced_suite(&suite))
                .expect("recorded");
            assert_eq!(expected.diff(&got), None);
            assert_eq!(expected.canonical_json(), got.canonical_json());
            assert!(expected.explored == 600 && !expected.violations.is_empty());
        }
        let spans = drain();
        assert!(spans
            .iter()
            .any(|s| s.name == "model.encode" && s.count > 0));
        assert!(spans.iter().any(|s| s.name == "core.check"));
        assert!(
            fold_campaigns(&spans).is_empty(),
            "no campaign root was opened"
        );
    }
}
