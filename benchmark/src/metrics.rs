//! The metric catalogue: names, units, directions and bounds, as
//! `BENCHMARK.json` states them (a unit test holds the two together).

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: every workload reports every one of these.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Counted, not timed: two runs of one commit must agree exactly.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    e2e("campaign_ref_ms", "ref_ms", Better::Lower, 0.20, false),
    e2e("replays_per_ref_s", "1/ref_s", Better::Higher, 0.20, false),
    e2e("ttfv_ref_ms", "ref_ms", Better::Lower, 0.25, false),
    e2e("allocs_per_replay", "count", Better::Lower, 0.02, true),
    e2e("alloc_kib_per_replay", "KiB", Better::Lower, 0.02, true),
    e2e("peak_live_mib", "MiB", Better::Lower, 0.02, true),
    e2e("setup_s", "s", Better::Lower, 0.25, false),
];

/// A per-layer metric of the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 44] = [
    layer("analysis.analyze_us", "us", Better::Lower),
    layer("interleave.group_us", "us", Better::Lower),
    layer("interleave.explore_ns_per_il", "ns", Better::Lower),
    layer("interleave.filter_ns.grouping", "ns", Better::Lower),
    layer("interleave.filter_ns.replica_specific", "ns", Better::Lower),
    layer("interleave.filter_ns.independence", "ns", Better::Lower),
    layer("interleave.filter_ns.failed_ops", "ns", Better::Lower),
    layer("interleave.filter_ns.sleep", "ns", Better::Lower),
    layer("interleave.filter_ns.causal", "ns", Better::Lower),
    layer("interleave.examined_per_emitted", "ratio", Better::Lower),
    layer("interleave.rand_retries_per_il", "ratio", Better::Lower),
    layer("interleave.dispense_ns_per_il", "ns", Better::Lower),
    layer("interleave.fault_plans", "count", Better::Lower),
    layer("core.inline_exec_ns_per_event", "ns", Better::Lower),
    layer("core.incr_exec_ns_per_event", "ns", Better::Lower),
    layer("core.incr_hit_ratio", "ratio", Better::Higher),
    layer("core.incr_events_saved_share", "ratio", Better::Higher),
    layer("core.trie_resident_mib", "MiB", Better::Lower),
    layer("core.subsume_exec_ns_per_event", "ns", Better::Lower),
    layer("core.subsumed_share", "ratio", Better::Higher),
    layer("core.check_ns_per_replay", "ns", Better::Lower),
    layer("core.report_render_us", "us", Better::Lower),
    layer("core.report_kib", "KiB", Better::Lower),
    layer("core.engine_self_ns_per_replay", "ns", Better::Lower),
    layer("model.apply_ns_per_event", "ns", Better::Lower),
    layer("model.apply_calls_per_replay", "count", Better::Lower),
    layer("model.encode_ns_per_call", "ns", Better::Lower),
    layer("model.encode_calls_per_replay", "count", Better::Lower),
    layer("model.encode_bytes_per_call", "B", Better::Lower),
    layer("model.observe_ns_per_replay", "ns", Better::Lower),
    layer("model.init_calls_per_replay", "count", Better::Lower),
    layer("model.snapshot_clone_ns", "ns", Better::Lower),
    layer("server.spec_validate_us", "us", Better::Lower),
    layer("server.submit_to_report_ms", "ms", Better::Lower),
    layer("server.submit_to_report_iqr_share", "ratio", Better::Lower),
    layer("bench.calib_ms_p10", "ms", Better::Lower),
    layer("bench.calib_ms_p50", "ms", Better::Lower),
    layer("bench.calib_ms_p90", "ms", Better::Lower),
    layer("bench.wall_ms_p50", "ms", Better::Lower),
    layer("bench.ratio_iqr_share", "ratio", Better::Lower),
    layer("bench.trace_overhead_share", "ratio", Better::Lower),
    layer("bench.span_coverage_share", "ratio", Better::Higher),
    layer("bench.traced_campaigns", "count", Better::Higher),
    layer("bench.spans", "count", Better::Higher),
];

/// `(name, unit, better)` of the metrics a run reports: the per-layer ones
/// if `traced`, the end-to-end ones otherwise.
pub fn reported(traced: bool) -> Vec<(&'static str, &'static str, Better)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    }
}

/// The measured values of one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Reads a result line back (the inverse of [`RunResult::to_json`]).
    pub fn from_json(line: &str, traced: bool) -> Option<RunResult> {
        use serde::Content;
        let get = |map: &Content, key: &str| -> Option<Content> {
            match map {
                Content::Map(entries) => serde::content_get(entries, key).cloned(),
                _ => None,
            }
        };
        let number = |content: Content| -> Option<f64> {
            match content {
                Content::F64(v) => Some(v),
                Content::Int(v) => Some(v as f64),
                _ => None,
            }
        };
        let doc: Content = serde_json::from_str(line).ok()?;
        let metrics = get(&doc, "metrics")?;
        let mut values = Values::new();
        for (name, _, _) in reported(traced) {
            values.insert(name, number(get(&get(&metrics, name)?, "value")?)?);
        }
        Some(RunResult {
            attempted: number(get(&doc, "attempted")?)? as u64,
            failed: number(get(&doc, "failed")?)? as u64,
            values,
        })
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, every value with all its digits.
    pub fn to_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = reported(traced)
            .into_iter()
            .map(|(name, unit, _)| {
                let value = self.values.get(name).copied().unwrap_or_else(|| {
                    panic!("run produced no value for metric {name}");
                });
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn field<'a>(map: &'a Content, key: &str) -> &'a Content {
        let Content::Map(entries) = map else {
            panic!("expected an object around {key}");
        };
        serde::content_get(entries, key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn text(content: &Content) -> &str {
        match content {
            Content::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn items(content: &Content) -> &[Content] {
        match content {
            Content::Seq(items) => items,
            other => panic!("expected a list, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` is the contract the driver reads; this table is
    /// what the binary emits and what `--selfcheck` judges by.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Content = serde_json::from_str(&raw).expect("BENCHMARK.json parses");

        let declared: Vec<(String, String, String, String)> = items(field(&doc, "end_to_end"))
            .iter()
            .map(|m| {
                let bound = match field(m, "bound") {
                    Content::F64(b) => format!("{b:.4}"),
                    other => panic!("bound is {other:?}"),
                };
                (
                    text(field(m, "name")).to_owned(),
                    text(field(m, "unit")).to_owned(),
                    text(field(m, "better")).to_owned(),
                    bound,
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                    format!("{:.4}", m.bound),
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let declared: Vec<(String, String, String)> = items(field(&doc, "per_layer"))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_owned(),
                    text(field(m, "unit")).to_owned(),
                    text(field(m, "better")).to_owned(),
                )
            })
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(declared, ours);

        let workloads: Vec<&str> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(text(&items(field(&doc, "paths"))[0]), "benchmark");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Values = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let line = RunResult {
            attempted: 3,
            failed: 0,
            values,
        }
        .to_json(false);
        let doc: Content = serde_json::from_str(&line).expect("result line parses");
        let Content::Map(entries) = &doc else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| text(k)).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(field(&doc, "correct"), &Content::Bool(true));
        let setup = field(field(&doc, "metrics"), "setup_s");
        assert_eq!(field(setup, "value"), &Content::F64(1.25));
        assert_eq!(text(field(setup, "unit")), "s");

        let back = RunResult::from_json(&line, false).expect("reads its own output");
        assert_eq!((back.attempted, back.failed), (3, 0));
        assert_eq!(back.values.len(), END_TO_END.len());
        assert!(back.values.values().all(|&v| v == 1.25));
        assert!(RunResult::from_json(&line, true).is_none());
        assert!(RunResult::from_json("not json", false).is_none());
    }
}
