//! The traced run: per-layer metrics from spans the benchmark records
//! around each call into a layer, plus direct probes of the layers that
//! have a public entry point of their own.
//!
//! Nothing here feeds an end-to-end metric; those always come from the
//! untraced run (`workloads::measure`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use er_pi::{IncrementalExecutor, InlineExecutor, Report, TimeModel, DEFAULT_CACHE_BUDGET};
use er_pi_interleave::{
    group_events, DfsExplorer, ErPiExplorer, ExploreMode, FaultProduct, FilterTimings,
    IndexedSource, RandomExplorer,
};
use er_pi_model::Interleaving;
use er_pi_subjects::TownApp;

use crate::calib::{self, Calibrator, Sample};
use crate::inputs::Inputs;
use crate::metrics::Values;
use crate::server_probe;
use crate::stats::{iqr_share, median, quantile};
use crate::trace::{self, traced_suite, Span, TracedModel};
use crate::workloads::{
    bracket, catalogue, BugUnit, Executor, ExploreSpec, Prepared, Tally, TownUnit, Unit, Variant,
    Workload, CAP,
};

/// Paired (untraced, traced) full campaigns per unit. Spans stay in memory
/// until the run ends, and a traced town campaign records about 10⁵ of
/// them, which is what keeps this small.
const TOWN_PAIRS: usize = 6;

/// What cannot be seen from outside `er-pi-subjects`, whose catalogue
/// models and suites are private: reported as 0 on `catalogue`.
const UNOBSERVABLE_IN_CATALOGUE: [&str; 9] = [
    "core.check_ns_per_replay",
    "core.engine_self_ns_per_replay",
    "model.apply_ns_per_event",
    "model.apply_calls_per_replay",
    "model.encode_ns_per_call",
    "model.encode_calls_per_replay",
    "model.encode_bytes_per_call",
    "model.observe_ns_per_replay",
    "model.init_calls_per_replay",
];

/// Repetitions of a probe whose single run is short; the median is kept.
const PROBE_REPS: usize = 5;

fn ns_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

/// Median wall time of `work` over `reps` runs, nanoseconds, inside one
/// probe span.
fn median_ns<T>(name: &'static str, reps: usize, mut work: impl FnMut() -> T) -> f64 {
    trace::span(name, || {
        let runs: Vec<f64> = (0..reps)
            .map(|_| {
                let started = Instant::now();
                black_box(work());
                ns_since(started)
            })
            .collect();
        median(&runs)
    })
}

/// What the exploration layer did for one unit, explorer only (nothing is
/// executed).
#[derive(Default)]
struct Explored {
    interleavings: Vec<Interleaving>,
    /// Explorer → `FaultProduct` → `IndexedSource::next_chunk(32)` to the
    /// cap, nanoseconds.
    explore_ns: f64,
    /// `IndexedSource` alone over the materialised list, nanoseconds.
    dispense_ns: f64,
    /// `group_events` alone, nanoseconds (ER-π mode; 0 otherwise).
    group_ns: f64,
    /// Building the explorer (grouping, sleep sets, permutation state).
    build_ns: f64,
    plans: usize,
    examined: u64,
    emitted: u64,
    retries: u64,
    filters: FilterTimings,
}

/// Drains `explorer` the way the replay loop does and returns what came
/// out, how long it took, and whatever `after` reads off the explorer.
fn drain<I, R>(
    explorer: I,
    spec: &ExploreSpec,
    after: impl FnOnce(&I) -> R,
) -> (Vec<Interleaving>, f64, usize, R)
where
    I: Iterator<Item = Interleaving>,
{
    let started = Instant::now();
    let product = FaultProduct::new(explorer, spec.plans.clone());
    let plans = product.plan_count();
    let mut source = IndexedSource::new(product, CAP);
    let mut out = Vec::new();
    loop {
        let chunk = source.next_chunk(32);
        if chunk.is_empty() {
            break;
        }
        out.extend(chunk.into_iter().map(|(_, il)| il));
    }
    let ns = ns_since(started);
    let read = after(source.inner().inner());
    (out, ns, plans, read)
}

fn explore(spec: &ExploreSpec) -> Explored {
    let mut explored = Explored::default();
    let mut explore_runs = Vec::new();
    for _ in 0..PROBE_REPS {
        let build = Instant::now();
        let (interleavings, ns, plans) = match spec.mode {
            ExploreMode::Dfs => {
                let explorer = DfsExplorer::new(&spec.workload);
                explored.build_ns = ns_since(build);
                let (ils, ns, plans, ()) = drain(explorer, spec, |_| ());
                explored.examined = ils.len() as u64 / plans as u64;
                explored.emitted = explored.examined;
                (ils, ns, plans)
            }
            ExploreMode::Random { seed } => {
                let explorer = RandomExplorer::new(&spec.workload, seed);
                explored.build_ns = ns_since(build);
                let (ils, ns, plans, retries) = drain(explorer, spec, RandomExplorer::retries);
                explored.emitted = ils.len() as u64 / plans as u64;
                explored.examined = explored.emitted + retries;
                explored.retries = retries;
                (ils, ns, plans)
            }
            ExploreMode::ErPi => {
                let explorer = ErPiExplorer::new(&spec.workload, &spec.config);
                explored.build_ns = ns_since(build);
                let (ils, ns, plans, stats) = drain(explorer, spec, ErPiExplorer::stats);
                explored.examined = stats.examined();
                explored.emitted = stats.emitted;
                (ils, ns, plans)
            }
        };
        explore_runs.push(ns);
        explored.plans = plans;
        explored.interleavings = interleavings;
    }
    explored.explore_ns = median(&explore_runs);

    if matches!(spec.mode, ExploreMode::ErPi) {
        explored.group_ns = median_ns("probe.interleave.group", PROBE_REPS * 4, || {
            group_events(&spec.workload, &spec.config)
        });
        // Per-filter clocks cost two clock reads per evaluation, so they
        // come from a drain of their own, not from the timed one above.
        let mut timed = ErPiExplorer::new(&spec.workload, &spec.config);
        timed.enable_timing();
        let (_, _, _, filters) = drain(timed, spec, ErPiExplorer::timings);
        explored.filters = filters;
    }

    explored.dispense_ns = {
        let runs: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let list = explored.interleavings.clone();
                let started = Instant::now();
                let mut source = IndexedSource::new(list.into_iter(), usize::MAX);
                while !black_box(source.next_chunk(32)).is_empty() {}
                ns_since(started)
            })
            .collect();
        median(&runs)
    };
    explored
}

/// Sums of the exploration numbers over a workload's units, turned into
/// the `analysis.*` and `interleave.*` metrics.
#[derive(Default)]
struct ExploreTotals {
    analyze_ns: f64,
    build_ns: f64,
    group_ns: f64,
    explore_ns: f64,
    dispense_ns: f64,
    interleavings: f64,
    examined: f64,
    emitted: f64,
    retries: f64,
    plans: f64,
    filters: [f64; 5],
}

impl ExploreTotals {
    fn add(&mut self, spec: &ExploreSpec) -> Vec<Interleaving> {
        self.analyze_ns += median_ns("probe.analysis.analyze", PROBE_REPS, || {
            er_pi_analysis::analyze(&spec.workload)
        });
        let explored = trace::span("probe.interleave.explore", || explore(spec));
        self.build_ns += explored.build_ns;
        self.group_ns += explored.group_ns;
        self.explore_ns += explored.explore_ns;
        self.dispense_ns += explored.dispense_ns;
        self.interleavings += explored.interleavings.len() as f64;
        self.examined += explored.examined as f64;
        self.emitted += explored.emitted as f64;
        self.retries += explored.retries as f64;
        self.plans = self.plans.max(explored.plans as f64);
        for (sum, (_, ns)) in self.filters.iter_mut().zip(explored.filters.per_filter()) {
            *sum += ns as f64;
        }
        explored.interleavings
    }

    fn write(&self, values: &mut Values) {
        let per_il = |ns: f64| ns / self.interleavings.max(1.0);
        let per_emitted = |ns: f64| ns / self.emitted.max(1.0);
        // `FilterTimings::per_filter` order: sleep, replica-specific,
        // independence, failed-ops, causal.
        let [sleep, replica_specific, independence, failed_ops, causal] = self.filters;
        values.insert("analysis.analyze_us", self.analyze_ns / 1e3);
        values.insert("interleave.group_us", self.build_ns / 1e3);
        values.insert("interleave.explore_ns_per_il", per_il(self.explore_ns));
        values.insert("interleave.filter_ns.grouping", per_emitted(self.group_ns));
        values.insert(
            "interleave.filter_ns.replica_specific",
            per_emitted(replica_specific),
        );
        values.insert(
            "interleave.filter_ns.independence",
            per_emitted(independence),
        );
        values.insert("interleave.filter_ns.failed_ops", per_emitted(failed_ops));
        values.insert("interleave.filter_ns.sleep", per_emitted(sleep));
        values.insert("interleave.filter_ns.causal", per_emitted(causal));
        values.insert(
            "interleave.examined_per_emitted",
            self.examined / self.emitted.max(1.0),
        );
        values.insert(
            "interleave.rand_retries_per_il",
            self.retries / self.emitted.max(1.0),
        );
        values.insert("interleave.dispense_ns_per_il", per_il(self.dispense_ns));
        values.insert("interleave.fault_plans", self.plans);
    }
}

/// `Report::canonical_json` cost and size, summed over `reports`.
fn report_metrics(reports: &[&Report], values: &mut Values) {
    let mut render_ns = 0.0;
    let mut bytes = 0usize;
    for report in reports {
        bytes += report.canonical_json().len();
        render_ns += median_ns("probe.core.report_render", PROBE_REPS, || {
            report.canonical_json()
        });
    }
    values.insert("core.report_render_us", render_ns / 1e3);
    values.insert("core.report_kib", bytes as f64 / 1024.0);
}

/// The `bench.*` metrics every traced run reports. `plain` holds the
/// untraced campaign samples, one list per unit.
fn bench_metrics(
    plain: &[Vec<Sample>],
    overhead_share: f64,
    coverage_share: f64,
    traced_campaigns: usize,
    calibrator: &Calibrator,
    values: &mut Values,
) {
    let kernel = calibrator.kernel_ms();
    // Units differ in size, so each sample is taken relative to its own
    // unit's median before the spread is read.
    let mut ratios = Vec::new();
    let mut wall_ms = 0.0;
    for unit in plain {
        let own: Vec<f64> = unit.iter().map(Sample::ratio).collect();
        let mid = median(&own);
        ratios.extend(own.iter().map(|r| r / mid));
        wall_ms += median(&unit.iter().map(|s| s.wall_ms).collect::<Vec<_>>());
    }
    values.insert("bench.calib_ms_p10", quantile(kernel, 0.1));
    values.insert("bench.calib_ms_p50", median(kernel));
    values.insert("bench.calib_ms_p90", quantile(kernel, 0.9));
    values.insert("bench.wall_ms_p50", wall_ms);
    values.insert("bench.ratio_iqr_share", iqr_share(&ratios));
    values.insert("bench.trace_overhead_share", overhead_share);
    values.insert("bench.span_coverage_share", coverage_share);
    values.insert("bench.traced_campaigns", traced_campaigns as f64);
}

/// Runs the traced pass of `prepared`'s workload and writes the spans to
/// `trace_path`.
pub fn run(
    prepared: &mut Prepared,
    inputs: &Inputs,
    calibrator: &mut Calibrator,
    tally: &mut Tally,
    trace_path: &Path,
) -> Values {
    trace::drain();
    let mut values = match prepared.workload {
        Workload::Catalogue => catalogue_layers(prepared, inputs, calibrator, tally),
        _ => town_layers(prepared, inputs, calibrator, tally),
    };
    let (validate_us, submit_ms, submit_iqr) = trace::span("probe.server", server_probe::run);
    values.insert("server.spec_validate_us", validate_us);
    values.insert("server.submit_to_report_ms", submit_ms);
    values.insert("server.submit_to_report_iqr_share", submit_iqr);

    let spans = trace::drain();
    values.insert("bench.spans", spans.len() as f64);
    if let Err(error) = trace::write_jsonl(trace_path, &spans) {
        eprintln!("could not write {}: {error}", trace_path.display());
    }
    values
}

/// How much of the traced campaigns their child spans explain, and the
/// per-name totals.
fn coverage(spans: &[Span]) -> (f64, BTreeMap<&'static str, trace::Total>) {
    let totals = trace::fold_campaigns(spans);
    let root = totals.get("campaign").copied().unwrap_or_default();
    let share = if root.total_ns == 0 {
        0.0
    } else {
        1.0 - root.self_ns as f64 / root.total_ns as f64
    };
    (share, totals)
}

fn town_layers(
    prepared: &mut Prepared,
    inputs: &Inputs,
    calibrator: &mut Calibrator,
    tally: &mut Tally,
) -> Values {
    let workload = prepared.workload;
    let oracle = &prepared.units[0].full;
    let explored_per_campaign = oracle.reference.explored as f64;
    let mut values = Values::new();

    let mut plain = TownUnit::new(TownApp::new(2), TownApp::invariant(), workload, inputs);
    let mut traced = TownUnit::new(
        TracedModel(TownApp::new(2)),
        traced_suite(&TownApp::invariant()),
        workload,
        inputs,
    );

    // Paired campaigns: the same campaign with and without the wrappers,
    // alternating, each in its own calibrated bracket.
    let mut plain_samples = Vec::new();
    let mut traced_samples = Vec::new();
    for id in 1..=TOWN_PAIRS as u32 {
        let (sample, _) = bracket("town", oracle, calibrator, tally, || {
            plain.run(Variant::Full, Executor::Configured)
        });
        plain_samples.push(sample);
        let (sample, _) = bracket("town (traced)", oracle, calibrator, tally, || {
            trace::campaign(id, || traced.run(Variant::Full, Executor::Configured))
        });
        traced_samples.push(sample);
    }
    let (coverage_share, totals) = trace::with_spans(coverage);
    let replays = explored_per_campaign * TOWN_PAIRS as f64;
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |t: trace::Total| t.total_ns as f64 / (t.calls.max(1)) as f64;

    let apply = total("model.apply");
    let encode = total("model.encode");
    let observe = total("model.observe");
    let init = total("model.init");
    let check = total("core.check");
    let root = total("campaign");
    values.insert("model.apply_ns_per_event", per_call(apply));
    values.insert("model.apply_calls_per_replay", apply.calls as f64 / replays);
    values.insert("model.encode_ns_per_call", per_call(encode));
    values.insert(
        "model.encode_calls_per_replay",
        encode.calls as f64 / replays,
    );
    values.insert(
        "model.encode_bytes_per_call",
        encode.count as f64 / encode.calls.max(1) as f64,
    );
    values.insert(
        "model.observe_ns_per_replay",
        observe.total_ns as f64 / replays,
    );
    values.insert("model.init_calls_per_replay", init.calls as f64 / replays);
    values.insert("core.check_ns_per_replay", check.total_ns as f64 / replays);
    values.insert(
        "core.engine_self_ns_per_replay",
        root.self_ns as f64 / replays,
    );

    let overhead_share = calib::ref_ms(&traced_samples) / calib::ref_ms(&plain_samples) - 1.0;
    let spec = plain.explore_spec();
    let mut totals = ExploreTotals::default();
    let interleavings = totals.add(&spec);
    totals.write(&mut values);

    let model = TownApp::new(2);
    let time = TimeModel::paper_setup();
    let events: f64 = interleavings.iter().map(|il| il.len() as f64).sum();
    let inline_ns = median_ns("probe.core.inline_exec", PROBE_REPS, || {
        for il in &interleavings {
            black_box(InlineExecutor::execute(&model, &spec.workload, il, &time));
        }
    });
    values.insert("core.inline_exec_ns_per_event", inline_ns / events);

    let mut stats = None;
    let incr_ns = median_ns("probe.core.incr_exec", PROBE_REPS, || {
        let mut executor = IncrementalExecutor::<TownApp>::new(DEFAULT_CACHE_BUDGET);
        for il in &interleavings {
            black_box(executor.execute(&model, &spec.workload, il, &time));
        }
        stats = Some(executor.stats());
    });
    let stats = stats.expect("the probe ran");
    values.insert("core.incr_exec_ns_per_event", incr_ns / events);
    values.insert("core.incr_hit_ratio", stats.hit_rate());
    values.insert(
        "core.incr_events_saved_share",
        stats.events_saved as f64 / events,
    );
    values.insert(
        "core.trie_resident_mib",
        stats.bytes_resident as f64 / (1024.0 * 1024.0),
    );

    // Subsumption is reachable only through a session, so its executor
    // figure is a whole campaign's wall time per nominal event.
    let mut subsumed = 0.0;
    let subsume_ns = median_ns("probe.core.subsume_campaign", 3, || {
        let outcome = plain.run(Variant::Full, Executor::Subsuming);
        oracle.judge("town (subsuming)", &outcome, tally);
        if let Ok(report) = &outcome {
            subsumed = report.cache_stats.map_or(0.0, |c| c.subsumed as f64);
        }
    });
    values.insert("core.subsume_exec_ns_per_event", subsume_ns / events);
    values.insert("core.subsumed_share", subsumed / explored_per_campaign);

    let reference = plain
        .run(Variant::Full, Executor::Scratch)
        .expect("the set-up already ran this reference");
    report_metrics(&[&reference], &mut values);

    let recorded = InlineExecutor::execute(
        &model,
        &spec.workload,
        &spec.workload.recorded_order(),
        &time,
    );
    let clone_ns = median_ns("probe.model.snapshot_clone", PROBE_REPS, || {
        for _ in 0..1000 {
            black_box(black_box(&recorded.states).clone());
        }
    });
    values.insert("model.snapshot_clone_ns", clone_ns / 1000.0);

    bench_metrics(
        &[plain_samples],
        overhead_share,
        coverage_share,
        TOWN_PAIRS,
        calibrator,
        &mut values,
    );
    values
}

fn catalogue_layers(
    prepared: &mut Prepared,
    inputs: &Inputs,
    calibrator: &mut Calibrator,
    tally: &mut Tally,
) -> Values {
    let mut values = Values::new();
    let mut units: Vec<BugUnit> = catalogue(inputs)
        .into_iter()
        .map(|bug| BugUnit { bug })
        .collect();

    // One sweep per executor. The models are private to `er-pi-subjects`,
    // so a campaign is a root span with no children and the `core.*`
    // executor figures are whole-campaign times per nominal event.
    let mut plain_samples = Vec::new();
    let mut traced_samples = Vec::new();
    let mut reports = Vec::new();
    let (mut events, mut explored) = (0.0, 0.0);
    let (mut scratch_ns, mut incr_ns, mut subsume_ns) = (0.0, 0.0, 0.0);
    let (mut hits, mut runs, mut saved, mut subsumed) = (0.0, 0.0, 0.0, 0.0);
    let mut resident: f64 = 0.0;
    for (index, (unit, prepared_unit)) in units.iter_mut().zip(&prepared.units).enumerate() {
        let oracle = &prepared_unit.full;
        let name = unit.name().to_owned();
        let nominal = (oracle.reference.explored * unit.bug.events()) as f64;
        events += nominal;
        explored += oracle.reference.explored as f64;

        let (sample, _) = bracket(&name, oracle, calibrator, tally, || {
            unit.run(Variant::Full, Executor::Configured)
        });
        plain_samples.push(sample);
        incr_ns += sample.wall_ms * 1e6;
        let mut last = None;
        let (sample, _) = bracket(&name, oracle, calibrator, tally, || {
            let outcome = trace::campaign(index as u32 + 1, || {
                unit.run(Variant::Full, Executor::Configured)
            });
            last = outcome.as_ref().ok().and_then(|r| r.cache_stats);
            outcome
        });
        traced_samples.push(sample);
        if let Some(cache) = last {
            hits += cache.hits as f64;
            runs += (cache.hits + cache.misses) as f64;
            saved += cache.events_saved as f64;
            resident = resident.max(cache.bytes_resident as f64);
        }

        let started = Instant::now();
        let scratch = trace::span("probe.core.scratch_campaign", || {
            unit.run(Variant::Full, Executor::Scratch)
        });
        scratch_ns += ns_since(started);
        oracle.judge(&name, &scratch, tally);
        reports.extend(scratch.ok());

        let started = Instant::now();
        let subsuming = trace::span("probe.core.subsume_campaign", || {
            unit.run(Variant::Full, Executor::Subsuming)
        });
        subsume_ns += ns_since(started);
        oracle.judge(&name, &subsuming, tally);
        if let Ok(report) = &subsuming {
            subsumed += report.cache_stats.map_or(0.0, |c| c.subsumed as f64);
        }
    }
    values.insert("core.inline_exec_ns_per_event", scratch_ns / events);
    values.insert("core.incr_exec_ns_per_event", incr_ns / events);
    values.insert("core.incr_hit_ratio", hits / runs.max(1.0));
    values.insert("core.incr_events_saved_share", saved / events);
    values.insert("core.trie_resident_mib", resident / (1024.0 * 1024.0));
    values.insert("core.subsume_exec_ns_per_event", subsume_ns / events);
    values.insert("core.subsumed_share", subsumed / explored);
    report_metrics(&reports.iter().collect::<Vec<_>>(), &mut values);

    let (coverage_share, _) = trace::with_spans(coverage);

    let mut totals = ExploreTotals::default();
    let mut clone_ns = 0.0;
    for unit in &units {
        totals.add(&unit.explore_spec());
        let probe = unit.bug.clone_probe();
        clone_ns += median_ns("probe.model.snapshot_clone", PROBE_REPS, || {
            for _ in 0..100 {
                black_box(probe.clone_states());
            }
        }) / 100.0;
    }
    totals.write(&mut values);
    values.insert("model.snapshot_clone_ns", clone_ns / units.len() as f64);

    // One bracket per bug and side, so each bug's sample is its own median.
    let sum_ref_ms =
        |samples: &[Sample]| -> f64 { samples.iter().map(|s| calib::ref_ms(&[*s])).sum() };
    let overhead_share = sum_ref_ms(&traced_samples) / sum_ref_ms(&plain_samples) - 1.0;
    for name in UNOBSERVABLE_IN_CATALOGUE {
        values.insert(name, 0.0);
    }
    let per_unit: Vec<Vec<Sample>> = plain_samples.iter().map(|s| vec![*s]).collect();
    bench_metrics(
        &per_unit,
        overhead_share,
        coverage_share,
        units.len(),
        calibrator,
        &mut values,
    );
    values
}
