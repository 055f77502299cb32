//! # er-pi-server — the multi-tenant replay campaign daemon
//!
//! A small HTTP/1.1 service that accepts recorded traces and campaign
//! specs as JSON, queues them with per-tenant priorities and bounded
//! admission, and multiplexes every admitted campaign over **one**
//! process-wide [`ExecutorService`] — the shared worker pool the
//! ROADMAP's server milestone calls for. Progress is observable live
//! while a campaign runs; the final report is byte-identical (under
//! [`Report::canonical_json`](er_pi::Report::canonical_json)) to what a
//! standalone [`Session`](er_pi::Session) produces for the same spec,
//! regardless of co-tenancy — the workspace `server_equivalence` suite
//! pins this.
//!
//! ## Endpoints
//!
//! | Method + path              | Meaning                                         |
//! |----------------------------|-------------------------------------------------|
//! | `GET /healthz`             | liveness probe                                  |
//! | `POST /campaigns`          | submit a spec; `202` + id, `400` invalid, `429` queue full |
//! | `GET /campaigns/:id`       | live status: phase, progress snapshot, summary  |
//! | `GET /campaigns/:id/report`| final canonical report (`409` until done)       |
//! | `GET /campaigns/:id/events`| live Server-Sent-Events stream: `status`, `progress`, pruner `milestone`s, terminal `done`/`cancelled`/`failed` |
//! | `GET /campaigns/:id/violations/:n` | forensic bundle for violation `n` (`409` until done, `404` out of range) |
//! | `DELETE /campaigns/:id`    | cancel; stops at the next chunk boundary        |
//! | `GET /metrics`             | JSON by default; Prometheus text exposition when `Accept` asks for `text/plain` |
//!
//! ## Shape
//!
//! ```text
//! HTTP conn threads ──▶ CampaignQueue (bounded, priority+FIFO)
//!                            │ pop
//!                       runner threads (co-scheduling degree)
//!                            │ replay_report_on / report_for_on
//!                       ExecutorService (shared workers, chunked claims,
//!                            │           cooperative cancellation)
//!                       Campaign.status ◀── progress hook, final report
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod events;
mod http;
mod metrics;
mod queue;
mod runner;
mod spec;

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use er_pi::telemetry::Registry;
use er_pi::ExecutorService;
use parking_lot::Mutex;

pub use campaign::{Campaign, CampaignStatus, ExplainError, Phase};
pub use events::EventLog;
pub use metrics::{Metrics, MetricsBody};
pub use queue::{CampaignQueue, QueueFull};
pub use spec::{CampaignSpec, SubjectSpec, ValidSpec, DEFAULT_PRIORITY};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port to listen on (`0` = ephemeral, for tests).
    pub port: u16,
    /// Worker threads of the shared executor service (`0` = all available
    /// cores, honouring `ER_PI_WORKERS`).
    pub workers: usize,
    /// Runner threads — the number of campaigns co-scheduled at once.
    pub runners: usize,
    /// Bounded admission: campaigns allowed to wait in the queue before
    /// submissions get 429.
    pub queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 7420,
            workers: 0,
            runners: 4,
            queue_cap: 64,
        }
    }
}

/// Why a submission was refused.
pub enum SubmitError {
    /// The spec failed to parse or validate (HTTP 400).
    Invalid(String),
    /// Bounded admission refused it (HTTP 429).
    QueueFull,
}

/// Everything the connection threads and runners share.
pub(crate) struct ServerState {
    pub(crate) config: ServerConfig,
    pub(crate) service: ExecutorService,
    pub(crate) queue: CampaignQueue,
    pub(crate) registry: Mutex<BTreeMap<String, Arc<Campaign>>>,
    pub(crate) metrics: Metrics,
    pub(crate) shutdown: AtomicBool,
    next_id: AtomicU64,
    next_seq: AtomicU64,
}

impl ServerState {
    fn new(config: ServerConfig) -> Self {
        // One registry spans the whole daemon: the executor service's
        // histograms, the fleet counters, and every campaign session's
        // {tenant, campaign}-labelled series all land in it, so one
        // `GET /metrics` scrape covers every layer.
        let metric_registry = Arc::new(Registry::new());
        ServerState {
            service: ExecutorService::with_registry(config.workers, &metric_registry),
            queue: CampaignQueue::new(config.queue_cap),
            registry: Mutex::new(BTreeMap::new()),
            metrics: Metrics::new(metric_registry),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            config,
        }
    }

    /// Parses, validates, and admits one submission.
    pub(crate) fn submit(&self, body: &str) -> Result<Arc<Campaign>, SubmitError> {
        let spec: CampaignSpec = serde_json::from_str(body)
            .map_err(|e| SubmitError::Invalid(format!("bad campaign spec: {e:?}")))?;
        let valid = spec.validate().map_err(SubmitError::Invalid)?;
        let id = format!("c-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let campaign = Arc::new(Campaign::new(id.clone(), seq, valid));
        self.registry
            .lock()
            .insert(id.clone(), Arc::clone(&campaign));
        if self.queue.push(Arc::clone(&campaign)).is_err() {
            self.registry.lock().remove(&id);
            self.metrics.inc_rejected(&campaign.spec.tenant);
            return Err(SubmitError::QueueFull);
        }
        self.metrics.inc_submitted();
        Ok(campaign)
    }

    /// Looks a campaign up by ID.
    pub(crate) fn campaign(&self, id: &str) -> Option<Arc<Campaign>> {
        self.registry.lock().get(id).cloned()
    }

    /// Cancels a campaign: a still-queued one is retired on the spot; a
    /// running one has its token tripped and stops at the executor
    /// service's next chunk boundary — co-scheduled campaigns are
    /// untouched. Returns the wire phase to report, or `None` if the ID is
    /// unknown.
    pub(crate) fn cancel_campaign(&self, id: &str) -> Option<&'static str> {
        let campaign = self.campaign(id)?;
        if let Some(queued) = self.queue.remove(id) {
            queued.cancel.cancel();
            queued.finish(Phase::Cancelled);
            self.metrics.inc_cancelled();
            return Some(Phase::Cancelled.as_str());
        }
        let phase = campaign.phase();
        if phase.is_terminal() {
            return Some(phase.as_str());
        }
        campaign.cancel.cancel();
        Some("cancelling")
    }

    /// Number of campaigns currently in [`Phase::Running`].
    pub(crate) fn running_count(&self) -> usize {
        self.registry
            .lock()
            .values()
            .filter(|c| c.phase() == Phase::Running)
            .count()
    }
}

/// A bound, not-yet-serving daemon. [`Server::run`] serves on the calling
/// thread (the binary's path); [`Server::spawn`] serves on a background
/// thread and returns a handle (the test / embedding path).
pub struct Server {
    state: Arc<ServerState>,
    listener: TcpListener,
    runners: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the runner threads. The executor
    /// service spins up its shared workers here; no campaign runs yet.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let state = Arc::new(ServerState::new(config));
        let runners = (0..state.config.runners.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                thread::Builder::new()
                    .name(format!("er-pi-runner-{i}"))
                    .spawn(move || runner::runner_loop(state))
                    .expect("spawning a runner thread")
            })
            .collect();
        Ok(Server {
            state,
            listener,
            runners,
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves on the calling thread until the process exits.
    pub fn run(self) {
        http::serve(self.state, self.listener);
    }

    /// Serves on a background thread; the handle polls and shuts down.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let accept = {
            let state = Arc::clone(&self.state);
            let listener = self.listener;
            thread::Builder::new()
                .name("er-pi-accept".to_owned())
                .spawn(move || http::serve(state, listener))
                .expect("spawning the accept thread")
        };
        Ok(ServerHandle {
            addr,
            state,
            accept,
            runners: self.runners,
        })
    }
}

/// A running daemon serving on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: JoinHandle<()>,
    runners: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: close admission, cancel every live campaign,
    /// unblock the accept loop, and join all daemon threads.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::Release);
        self.state.queue.close();
        for campaign in self.state.registry.lock().values() {
            if !campaign.phase().is_terminal() {
                campaign.cancel.cancel();
            }
        }
        // One dummy connection unblocks `accept`; the loop then sees the
        // flag and returns.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        for runner in self.runners {
            let _ = runner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_server() -> ServerHandle {
        Server::bind(ServerConfig {
            port: 0,
            workers: 2,
            runners: 2,
            queue_cap: 4,
        })
        .expect("binds")
        .spawn()
        .expect("spawns")
    }

    #[test]
    fn submit_runs_and_reports() {
        let handle = tiny_server();
        let state = Arc::clone(&handle.state);
        let campaign = state
            .submit(r#"{"bug": "Roshi-1", "cap": 200}"#)
            .unwrap_or_else(|_| panic!("valid spec admits"));
        assert_eq!(campaign.id, "c-1");
        while !campaign.phase().is_terminal() {
            thread::yield_now();
        }
        assert_eq!(campaign.phase(), Phase::Done);
        let report = campaign.report_json().expect("done campaigns report");
        assert!(report.contains("\"explored\""), "{report}");
        let status = campaign.status_json();
        assert!(status.contains(r#""state":"done""#), "{status}");
        handle.shutdown();
    }

    #[test]
    fn invalid_specs_and_backpressure_are_refused() {
        let handle = tiny_server();
        let state = Arc::clone(&handle.state);
        assert!(matches!(
            state.submit("not json"),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            state.submit(r#"{"bug": "No-Such-Bug"}"#),
            Err(SubmitError::Invalid(_))
        ));
        handle.shutdown();
    }

    #[test]
    fn cancelling_an_unknown_id_is_none() {
        let handle = tiny_server();
        assert!(handle.state.cancel_campaign("c-999").is_none());
        handle.shutdown();
    }
}
