//! Daemon-wide metrics behind `GET /metrics`.
//!
//! All counters live in one shared [`Registry`] — the same registry the
//! executor service and every campaign session export into — so the
//! Prometheus exposition covers the whole daemon: fleet counters here,
//! per-campaign series (labelled `{tenant, campaign}`) from
//! [`SessionMetrics`](er_pi::SessionMetrics), and the service's claim-wait
//! / run-latency histograms. The legacy JSON body is derived from the same
//! cells, so the two representations can never disagree.

use std::collections::BTreeMap;
use std::time::Instant;

use er_pi::telemetry::{Counter, Gauge, Histogram, Registry};
use er_pi::Report;
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::Arc;

/// Fleet counters, written by the HTTP layer and the runners; every cell
/// is a handle into the shared [`Registry`].
pub struct Metrics {
    started: Instant,
    registry: Arc<Registry>,
    /// Campaigns admitted.
    submitted: Counter,
    /// Submissions refused with 429 (all tenants).
    rejected: Counter,
    /// Campaigns finished with a report.
    completed: Counter,
    /// Campaigns cancelled.
    cancelled: Counter,
    /// Campaigns that errored.
    failed: Counter,
    /// Interleavings executed across all finished campaigns.
    runs_total: Counter,
    /// Runs answered from the subsumption set instead of being executed.
    subsumed_total: Counter,
    /// Interleavings rejected by sleep-set pruning before replay.
    sleep_prunes_total: Counter,
    /// Queued → Running wait per campaign.
    queue_wait: Histogram,
    /// Submission → final report latency per completed campaign.
    submit_to_report: Histogram,
    /// Scrape-time gauges (set from live queue/registry/service state).
    queue_depth: Gauge,
    running: Gauge,
    service_workers: Gauge,
    service_jobs: Gauge,
    uptime: Gauge,
    /// Per-tenant queue-depth gauges, one per tenant ever seen waiting;
    /// kept so a drained tenant's series drops back to 0 instead of
    /// freezing at its last depth.
    tenant_depth: Mutex<BTreeMap<String, Gauge>>,
}

/// JSON body of `GET /metrics` (served when the client does not ask for
/// the Prometheus text format).
#[derive(Serialize)]
pub struct MetricsBody {
    /// Seconds since the daemon started.
    pub uptime_secs: f64,
    /// Campaigns admitted since start.
    pub submitted: u64,
    /// Submissions refused with 429 since start.
    pub rejected: u64,
    /// Campaigns finished with a report.
    pub completed: u64,
    /// Campaigns cancelled.
    pub cancelled: u64,
    /// Campaigns that errored.
    pub failed: u64,
    /// Interleavings executed across all finished campaigns (speculative
    /// runs past a stop-on-first violation included).
    pub runs_total: u64,
    /// Runs answered from the subsumption set instead of being executed.
    pub subsumed_total: u64,
    /// Interleavings rejected by sleep-set pruning before replay.
    pub sleep_prunes_total: u64,
    /// `subsumed_total / runs_total` — the fraction of finished runs that
    /// were stitched from a memoized tail.
    pub subsume_rate: f64,
    /// `runs_total / uptime` — the aggregate replay throughput.
    pub runs_per_sec: f64,
    /// Campaigns waiting for a runner.
    pub queue_depth: usize,
    /// Campaigns currently replaying.
    pub running: usize,
    /// Worker threads of the shared executor service.
    pub service_workers: usize,
    /// Campaign jobs currently multiplexed over those workers.
    pub service_jobs: usize,
    /// `min(1, service_jobs / service_workers)` — the fraction of service
    /// workers with a job to pull chunks from.
    pub worker_utilization: f64,
}

impl Metrics {
    /// Registers the fleet series into `registry`; clock started now.
    pub fn new(registry: Arc<Registry>) -> Self {
        let c = |name, help| registry.counter(name, help, &[]);
        let g = |name, help| registry.gauge(name, help, &[]);
        Metrics {
            started: Instant::now(),
            submitted: c("er_pi_server_submitted_total", "Campaigns admitted."),
            rejected: c(
                "er_pi_server_rejected_total",
                "Submissions refused with 429, all tenants.",
            ),
            completed: c(
                "er_pi_server_completed_total",
                "Campaigns finished with a report.",
            ),
            cancelled: c("er_pi_server_cancelled_total", "Campaigns cancelled."),
            failed: c("er_pi_server_failed_total", "Campaigns that errored."),
            runs_total: c(
                "er_pi_server_runs_total",
                "Interleavings executed across all finished campaigns: the sum of \
                 their er_pi_campaign_runs_total.",
            ),
            subsumed_total: c(
                "er_pi_server_subsumed_total",
                "Runs answered from the subsumption set instead of being executed.",
            ),
            sleep_prunes_total: c(
                "er_pi_server_sleep_prunes_total",
                "Interleavings rejected by sleep-set pruning before replay.",
            ),
            queue_wait: registry.histogram(
                "er_pi_queue_wait_us",
                "Wait between campaign admission and its runner picking it up.",
                &[],
            ),
            submit_to_report: registry.histogram(
                "er_pi_submit_to_report_us",
                "Latency from campaign submission to its final report.",
                &[],
            ),
            queue_depth: g(
                "er_pi_server_queue_depth",
                "Campaigns waiting for a runner.",
            ),
            running: g("er_pi_server_running", "Campaigns currently replaying."),
            service_workers: g(
                "er_pi_service_workers",
                "Worker threads of the shared executor service.",
            ),
            service_jobs: g(
                "er_pi_service_jobs",
                "Campaign jobs currently multiplexed over the service workers.",
            ),
            uptime: g(
                "er_pi_server_uptime_seconds",
                "Seconds since the daemon started.",
            ),
            tenant_depth: Mutex::new(BTreeMap::new()),
            registry,
        }
    }

    /// The shared registry every other layer registers into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// One campaign admitted.
    pub fn inc_submitted(&self) {
        self.submitted.inc();
    }

    /// One submission refused with 429, attributed to `tenant` (S1's
    /// per-tenant rejection series) on top of the fleet total.
    pub fn inc_rejected(&self, tenant: &str) {
        self.rejected.inc();
        self.registry
            .counter(
                "er_pi_tenant_rejected_total",
                "Submissions refused with 429, by tenant.",
                &[("tenant", tenant)],
            )
            .inc();
    }

    /// One campaign finished with a report.
    pub fn inc_completed(&self) {
        self.completed.inc();
    }

    /// One campaign cancelled.
    pub fn inc_cancelled(&self) {
        self.cancelled.inc();
    }

    /// One campaign errored.
    pub fn inc_failed(&self) {
        self.failed.inc();
    }

    /// Adds a finished campaign to the fleet tallies: the runs it executed
    /// (not the ones its report retains — the fleet counter is the sum of
    /// the campaigns' own run counters), the runs subsumption stitched and
    /// the sleep-set rejections.
    pub fn add_campaign(&self, report: &Report) {
        let executed = report.session_summary.executed;
        self.runs_total.add(executed as u64);
        let cache = report.cache_stats.unwrap_or_default();
        self.subsumed_total.add(cache.subsumed);
        let prune = report.prune_stats.unwrap_or_default();
        self.sleep_prunes_total.add(prune.sleep_rejected);
    }

    /// Records one campaign's admission → runner-pickup wait.
    pub fn observe_queue_wait_us(&self, us: u64) {
        self.queue_wait.observe_us(us);
    }

    /// Records one campaign's submission → final-report latency.
    pub fn observe_submit_to_report_us(&self, us: u64) {
        self.submit_to_report.observe_us(us);
    }

    /// Refreshes the scrape-time gauges from live daemon state.
    /// `tenant_depths` is the per-tenant breakdown of `queue_depth`;
    /// tenants that drained since the last scrape are reset to 0.
    pub fn set_live(
        &self,
        queue_depth: usize,
        running: usize,
        service_workers: usize,
        service_jobs: usize,
        tenant_depths: &BTreeMap<String, usize>,
    ) {
        self.uptime.set(self.started.elapsed().as_secs_f64());
        self.queue_depth.set(queue_depth as f64);
        self.running.set(running as f64);
        self.service_workers.set(service_workers as f64);
        self.service_jobs.set(service_jobs as f64);
        let mut known = self.tenant_depth.lock();
        for (tenant, gauge) in known.iter() {
            if !tenant_depths.contains_key(tenant) {
                gauge.set(0.0);
            }
        }
        for (tenant, depth) in tenant_depths {
            known
                .entry(tenant.clone())
                .or_insert_with(|| {
                    self.registry.gauge(
                        "er_pi_tenant_queue_depth",
                        "Campaigns waiting for a runner, by tenant.",
                        &[("tenant", tenant)],
                    )
                })
                .set(*depth as f64);
        }
    }

    /// Renders the legacy JSON payload from the same registry cells the
    /// Prometheus exposition reads.
    pub fn body(
        &self,
        queue_depth: usize,
        running: usize,
        service_workers: usize,
        service_jobs: usize,
    ) -> MetricsBody {
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let runs_total = self.runs_total.get();
        let subsumed_total = self.subsumed_total.get();
        MetricsBody {
            uptime_secs: uptime,
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed: self.completed.get(),
            cancelled: self.cancelled.get(),
            failed: self.failed.get(),
            runs_total,
            subsumed_total,
            sleep_prunes_total: self.sleep_prunes_total.get(),
            subsume_rate: if runs_total == 0 {
                0.0
            } else {
                subsumed_total as f64 / runs_total as f64
            },
            runs_per_sec: runs_total as f64 / uptime,
            queue_depth,
            running,
            service_workers,
            service_jobs,
            worker_utilization: if service_workers == 0 {
                0.0
            } else {
                (service_jobs as f64 / service_workers as f64).min(1.0)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_pi::telemetry::lint_exposition;

    fn metrics() -> Metrics {
        Metrics::new(Arc::new(Registry::new()))
    }

    #[test]
    fn the_body_derives_rates_from_the_counters() {
        let m = metrics();
        m.inc_submitted();
        m.inc_submitted();
        m.inc_completed();
        let mut report = Report::default();
        report.session_summary.executed = 500;
        report.explored = 480;
        report.cache_stats.get_or_insert_default().subsumed = 125;
        report.prune_stats.get_or_insert_default().sleep_rejected = 40;
        m.add_campaign(&report);
        let body = m.body(3, 1, 4, 2);
        assert_eq!(body.submitted, 2);
        assert_eq!(body.completed, 1);
        assert_eq!(body.runs_total, 500);
        assert_eq!(body.subsumed_total, 125);
        assert_eq!(body.sleep_prunes_total, 40);
        assert_eq!(body.subsume_rate, 0.25);
        assert!(body.runs_per_sec > 0.0);
        assert_eq!(body.queue_depth, 3);
        assert_eq!(body.worker_utilization, 0.5);
        let json = serde_json::to_string(&body).expect("serializes");
        assert!(json.contains("\"runs_per_sec\""), "{json}");
    }

    #[test]
    fn the_exposition_lints_and_carries_tenant_series() {
        let m = metrics();
        m.inc_submitted();
        m.inc_rejected("team-a");
        m.observe_queue_wait_us(1_500);
        let mut depths = BTreeMap::new();
        depths.insert("team-a".to_owned(), 2);
        depths.insert("team-b".to_owned(), 1);
        m.set_live(3, 1, 4, 2, &depths);
        let text = m.registry().render_prometheus();
        lint_exposition(&text).expect("exposition lints clean");
        assert!(
            text.contains(r#"er_pi_tenant_rejected_total{tenant="team-a"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"er_pi_tenant_queue_depth{tenant="team-b"} 1"#),
            "{text}"
        );
        // A drained tenant's depth falls back to 0 at the next refresh.
        depths.remove("team-b");
        m.set_live(2, 1, 4, 2, &depths);
        let text = m.registry().render_prometheus();
        assert!(
            text.contains(r#"er_pi_tenant_queue_depth{tenant="team-b"} 0"#),
            "{text}"
        );
    }
}
