//! Registry instrumentation for sessions and the executor service.
//!
//! [`SessionMetrics`] is the per-campaign face of the fleet metric
//! registry: a campaign (typically the daemon's runner, but any embedder)
//! constructs one with its identifying labels and attaches it via
//! [`Session::set_metrics`](crate::Session::set_metrics). Replay workers
//! then bump label-scoped counters per finished run — a couple of relaxed
//! atomic adds, no locks — and the session folds enumeration-side pruner
//! statistics and cache rates in once, at the end of the replay.
//!
//! Everything recorded here is observational: metric values never feed
//! back into replay results, so an attached registry leaves `Report`s
//! byte-identical to a detached run (the same write-only contract the
//! telemetry sinks honour).

use std::sync::Arc;

use er_pi_telemetry::{Counter, Gauge, Histogram, Registry};

use crate::Report;

/// Per-campaign handles into a metric [`Registry`], pre-registered with
/// the campaign's identifying labels (e.g. `tenant`, `campaign`). Cloning
/// shares the underlying series.
#[derive(Clone)]
pub struct SessionMetrics {
    registry: Arc<Registry>,
    labels: Vec<(String, String)>,
    runs: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    subsumed: Counter,
    hit_rate: Gauge,
    low_hit_rate: Gauge,
}

impl std::fmt::Debug for SessionMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionMetrics")
            .field("labels", &self.labels)
            .field("runs", &self.runs.get())
            .finish()
    }
}

impl SessionMetrics {
    /// Registers the campaign's series under `labels` and returns the
    /// handle bundle. Re-registering the same labels shares the series.
    pub fn new(registry: &Arc<Registry>, labels: &[(&str, &str)]) -> Self {
        SessionMetrics {
            registry: Arc::clone(registry),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            runs: registry.counter(
                "er_pi_campaign_runs_total",
                "Interleavings replayed by this campaign.",
                labels,
            ),
            cache_hits: registry.counter(
                "er_pi_campaign_cache_hits_total",
                "Runs resumed from a cached prefix snapshot.",
                labels,
            ),
            cache_misses: registry.counter(
                "er_pi_campaign_cache_misses_total",
                "Runs replayed from scratch despite incremental replay.",
                labels,
            ),
            subsumed: registry.counter(
                "er_pi_campaign_subsumed_total",
                "Runs short-circuited by state-hash subsumption.",
                labels,
            ),
            hit_rate: registry.gauge(
                "er_pi_campaign_cache_hit_rate",
                "Final checkpoint-cache hit rate of the campaign (0-1).",
                labels,
            ),
            low_hit_rate: registry.gauge(
                "er_pi_cache_low_hit_rate",
                "1 when the campaign's checkpoint-cache hit rate fell below \
                 the degraded-cache threshold, else 0.",
                labels,
            ),
        }
    }

    /// Records one finished run (hot path: 1-3 relaxed atomic adds).
    pub(crate) fn run_done(&self, cache_hit: Option<bool>, subsumed: bool) {
        self.runs.inc();
        match cache_hit {
            Some(true) => self.cache_hits.inc(),
            Some(false) => self.cache_misses.inc(),
            None => {}
        }
        if subsumed {
            self.subsumed.inc();
        }
    }

    /// Latches the degraded-cache gauge (mirrors the
    /// [`HitRateMonitor`](er_pi_telemetry::HitRateMonitor) sink warning).
    pub(crate) fn warn_low_hit_rate(&self) {
        self.low_hit_rate.set(1.0);
    }

    /// Folds the finished report's enumeration-side statistics into the
    /// registry: per-algorithm pruner rejections and the final cache hit
    /// rate. Called once per replay, off the hot path.
    pub(crate) fn finish(&self, report: &Report) {
        if let Some(stats) = &report.prune_stats {
            let owned: Vec<(&str, &str)> = self
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            for (algorithm, rejected) in [
                ("sleep-set", stats.sleep_rejected),
                ("replica-specific", stats.replica_specific_rejected),
                ("independence", stats.independence_rejected),
                ("failed-ops", stats.failed_ops_rejected),
                ("causal", stats.causal_rejected),
            ] {
                let mut labels = owned.clone();
                labels.push(("algorithm", algorithm));
                self.registry
                    .counter(
                        "er_pi_campaign_pruned_total",
                        "Interleaving candidates rejected per pruning algorithm.",
                        &labels,
                    )
                    .add(rejected);
            }
        }
        if let Some(cache) = &report.cache_stats {
            let attributed = cache.hits + cache.misses;
            if attributed > 0 {
                self.hit_rate.set(cache.hits as f64 / attributed as f64);
            }
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

    #[test]
    fn run_done_scopes_counters_to_the_campaign_labels() {
        let registry = Arc::new(Registry::new());
        let m = SessionMetrics::new(&registry, &[("tenant", "acme"), ("campaign", "c-1")]);
        m.run_done(Some(true), false);
        m.run_done(Some(false), true);
        m.run_done(None, false);
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
            text.contains("er_pi_campaign_subsumed_total{tenant=\"acme\",campaign=\"c-1\"} 1"),
            "{text}"
        );
        er_pi_telemetry::lint_exposition(&text).expect("lints clean");
    }
}
