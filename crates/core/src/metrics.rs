//! Registry instrumentation for sessions and the executor service.
//!
//! [`SessionMetrics`] is the per-campaign face of the fleet metric
//! registry: a campaign (typically the daemon's runner, but any embedder)
//! constructs one with its identifying labels and attaches it via
//! [`Session::set_metrics`](crate::Session::set_metrics). The replay's live
//! tally then counts straight into the campaign's label-scoped series — a
//! couple of relaxed atomic adds per finished run, no locks — and the
//! session folds enumeration-side pruner statistics and the cache hit rate
//! in once, at the end of the replay.
//!
//! Everything recorded here is observational: metric values never feed
//! back into replay results, so an attached registry leaves `Report`s
//! byte-identical to a detached run (the same write-only contract the
//! telemetry sinks honour).

use std::sync::Arc;

use er_pi_telemetry::{hit_rate, Gauge, Histogram, Registry, RunCells};

use crate::SessionSummary;

/// A campaign's place in a metric [`Registry`]: the registry and the
/// campaign's identifying labels (e.g. `tenant`, `campaign`). Cloning
/// shares the underlying series.
#[derive(Clone, Debug)]
pub struct SessionMetrics {
    registry: Arc<Registry>,
    labels: Vec<(String, String)>,
}

impl SessionMetrics {
    /// Registers the campaign's per-run series under `labels`, so a scrape
    /// shows them at zero before the first run. Re-registering the same
    /// labels shares the series.
    pub fn new(registry: &Arc<Registry>, labels: &[(&str, &str)]) -> Self {
        let metrics = SessionMetrics {
            registry: Arc::clone(registry),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        metrics.run_cells();
        metrics.low_hit_rate();
        metrics
    }

    fn labels(&self) -> Vec<(&str, &str)> {
        self.labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }

    /// The campaign's per-run series, for its live tally to count in.
    pub(crate) fn run_cells(&self) -> RunCells {
        let labels = self.labels();
        [
            (
                "er_pi_campaign_runs_total",
                "Interleavings executed by this campaign: every run a replay slot \
                 finished, speculative ones past a stop-on-first violation included.",
            ),
            (
                "er_pi_campaign_cache_hits_total",
                "Runs resumed from a cached prefix snapshot.",
            ),
            (
                "er_pi_campaign_cache_misses_total",
                "Runs replayed from scratch despite incremental replay.",
            ),
            (
                "er_pi_campaign_subsumed_total",
                "Runs short-circuited by state-hash subsumption.",
            ),
        ]
        .map(|(name, help)| self.registry.counter(name, help, &labels))
    }

    /// The degraded-cache gauge, latched by the replay's one low-hit-rate
    /// warning.
    pub(crate) fn low_hit_rate(&self) -> Gauge {
        self.registry.gauge(
            "er_pi_cache_low_hit_rate",
            "1 when the campaign's checkpoint-cache hit rate fell below \
             the degraded-cache threshold, else 0.",
            &self.labels(),
        )
    }

    /// Folds the finished campaign's summary into the registry: rejections
    /// per pruner row and — when any run was attributed — the final cache
    /// hit rate. Called once per replay, off the hot path.
    pub(crate) fn finish(&self, summary: &SessionSummary) {
        for row in &summary.pruners {
            let mut labels = self.labels();
            labels.push(("algorithm", row.name));
            self.registry
                .counter(
                    "er_pi_campaign_pruned_total",
                    "Interleaving candidates rejected per pruning algorithm.",
                    &labels,
                )
                .add(row.rejected);
        }
        let cache = summary.cache.unwrap_or_default();
        if let Some(rate) = hit_rate(cache.hits, cache.misses) {
            self.registry
                .gauge(
                    "er_pi_campaign_cache_hit_rate",
                    "Final checkpoint-cache hit rate of the campaign (0-1).",
                    &self.labels(),
                )
                .set(rate);
        }
    }
}

/// Service-wide latency histograms, registered once per
/// [`ExecutorService`](crate::ExecutorService) and observed by every
/// worker slot.
#[derive(Clone)]
pub(crate) struct SvcMetrics {
    /// Time a worker spent acquiring a campaign dispenser and claiming a
    /// chunk, microseconds.
    pub claim_wait: Histogram,
    /// Wall-clock latency of one interleaving replay, microseconds.
    pub run_latency: Histogram,
}

impl SvcMetrics {
    pub fn new(registry: &Registry) -> Self {
        SvcMetrics {
            claim_wait: registry.histogram(
                "er_pi_chunk_claim_wait_us",
                "Time a service worker spent claiming a chunk from a \
                 campaign dispenser, microseconds.",
                &[],
            ),
            run_latency: registry.histogram(
                "er_pi_run_latency_us",
                "Wall-clock latency of one interleaving replay on a \
                 service worker, microseconds.",
                &[],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi_telemetry::Progress;

    #[test]
    fn the_run_cells_are_the_campaigns_own_series() {
        let registry = Arc::new(Registry::new());
        let m = SessionMetrics::new(&registry, &[("tenant", "acme"), ("campaign", "c-1")]);
        let tally = Progress::new(1).with_cells(m.run_cells());
        tally.record_run(0, Some(true), false);
        tally.record_run(0, Some(false), true);
        tally.record_run(0, None, false);
        let text = registry.render_prometheus();
        assert!(
            text.contains("er_pi_campaign_runs_total{tenant=\"acme\",campaign=\"c-1\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("er_pi_campaign_cache_hits_total{tenant=\"acme\",campaign=\"c-1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("er_pi_campaign_cache_misses_total{tenant=\"acme\",campaign=\"c-1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("er_pi_campaign_subsumed_total{tenant=\"acme\",campaign=\"c-1\"} 1"),
            "{text}"
        );
        assert!(!text.contains("er_pi_campaign_cache_hit_rate"), "{text}");
        er_pi_telemetry::lint_exposition(&text).expect("lints clean");
    }
}
