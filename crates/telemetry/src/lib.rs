//! Structured telemetry for the ER-π replay pipeline.
//!
//! A lock-cheap, always-compiled tracing/metrics layer threaded through
//! every pipeline stage — recording, interleaving enumeration, the four
//! pruning algorithms, dispatch, per-run replay, constraint checking, and
//! distributed-lock acquisition. The design goal is *zero cost when
//! disabled*: instrumentation sites hold a [`Telemetry`] handle and gate on
//! one pre-computed branch ([`Telemetry::is_active`]); with no sink — or
//! with the default [`NullSink`] — no clock is read, no arguments are
//! built, nothing allocates.
//!
//! Three production sinks:
//!
//! * [`NullSink`] — the default; reports itself disabled so the whole
//!   layer compiles down to dead branches.
//! * [`JsonLinesSink`] — one flat JSON object per event, one per line;
//!   machine-readable campaign logs.
//! * [`ChromeTraceSink`] — Chrome trace-event JSON with one named track
//!   per pool worker; open the output in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev) to see a replay campaign as a
//!   flamegraph.
//!
//! Plus [`MemorySink`] for tests, [`Progress`] for the live run tally
//! (runs/sec, ETA, cache-hit sampling), [`low_hit_rate`] for the degraded
//! checkpoint-cache warning over it, and [`Registry`] — a typed,
//! label-aware metric registry (counters, gauges, log-bucketed latency
//! histograms) with Prometheus text exposition that every layer of the
//! engine registers into.
//!
//! Telemetry is strictly write-only: nothing observed through this crate
//! feeds back into replay results, so attaching any sink leaves `Report`s
//! byte-identical to a detached run (enforced by the workspace root's
//! `tests/suite/telemetry_equivalence.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod handle;
mod progress;
mod registry;
mod sink;

pub use event::{
    worker_track, ArgValue, Args, EventKind, TelemetryEvent, TrackId, COORDINATOR_TRACK,
};
pub use handle::Telemetry;
pub use progress::{
    hit_rate, low_hit_rate, Progress, ProgressSnapshot, RunCells, HIT_RATE_THRESHOLD,
    HIT_RATE_WINDOW,
};
pub use registry::{
    lint_exposition, lint_monotone, Counter, Gauge, Histogram, MetricKind, Registry,
};
pub use sink::{
    chrome_trace_object, jsonl_line, ChromeTraceSink, JsonLinesSink, MemorySink, NullSink,
    SharedBuf, Sink,
};
