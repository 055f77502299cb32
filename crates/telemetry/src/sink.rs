//! Sinks: where telemetry events go.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{push_json_args, push_json_str, push_json_value, TrackId};
use crate::{EventKind, TelemetryEvent};

/// A consumer of telemetry events.
///
/// Sinks are shared across the session thread and every pool worker, so all
/// methods take `&self`; implementations serialize internally (the provided
/// sinks hold a [`Mutex`] around their writer). Emission sites gate on
/// [`Sink::enabled`] *once per handle construction* — a sink that returns
/// `false` (only [`NullSink`] does) costs a single branch per instrumented
/// operation: no clock reads, no argument building, no allocation.
pub trait Sink: Send + Sync {
    /// Whether this sink wants events at all. Checked once when the sink is
    /// installed; `false` turns the whole instrumentation layer into dead
    /// branches.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&self, event: &TelemetryEvent);

    /// Flushes buffered output (stream sinks). Called at the end of every
    /// `Session::replay`; final formatting (e.g. the Chrome trace's closing
    /// bracket) happens on drop instead, so one sink can span several
    /// replays.
    fn flush(&self) {}
}

/// Blanket impl so shared handles (`Arc<MemorySink>` etc.) are sinks too.
impl<S: Sink + ?Sized> Sink for Arc<S> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn emit(&self, event: &TelemetryEvent) {
        (**self).emit(event)
    }

    fn flush(&self) {
        (**self).flush()
    }
}

/// The default sink: drops everything, and reports itself disabled so the
/// instrumentation layer never materializes an event for it in the first
/// place. Attaching `NullSink` is observably identical to attaching nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&self, _event: &TelemetryEvent) {}
}

/// An in-memory sink collecting every event — the test observability
/// harnesses' sink of choice.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TelemetryEvent>>,
}

impl MemorySink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything collected so far.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Returns `true` if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops everything collected so far.
    pub fn clear(&self) {
        self.events.lock().expect("memory sink poisoned").clear();
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: &TelemetryEvent) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// Machine-readable JSON Lines output: one self-contained JSON object per
/// event, one per line.
///
/// The schema is flat and stable (validated by `tests/suite/telemetry_equivalence.rs`):
///
/// ```json
/// {"kind":"span","name":"run","ts_us":12,"dur_us":3,"track":1,"args":{"index":0}}
/// {"kind":"instant","name":"summary","ts_us":40,"track":0,"args":{}}
/// {"kind":"counter","name":"progress:runs_per_sec","ts_us":41,"track":0,"value":812.5}
/// {"kind":"warning","name":"cache:low-hit-rate","ts_us":90,"track":0,"message":"..."}
/// ```
pub struct JsonLinesSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps `writer`; every event becomes one line.
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer: Mutex::new(writer),
        }
    }

    /// Unwraps the writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("jsonl sink poisoned")
    }
}

impl JsonLinesSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and streams events into it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

/// Renders one event as its JSON Lines object (no trailing newline).
pub fn jsonl_line(event: &TelemetryEvent) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"kind\":\"");
    out.push_str(event.kind.kind_name());
    out.push_str("\",\"name\":");
    push_json_str(&mut out, &event.name);
    out.push_str(",\"ts_us\":");
    out.push_str(&event.ts_us.to_string());
    out.push_str(",\"track\":");
    out.push_str(&event.track.to_string());
    match &event.kind {
        EventKind::Span { dur_us, args } => {
            out.push_str(",\"dur_us\":");
            out.push_str(&dur_us.to_string());
            out.push_str(",\"args\":");
            push_json_args(&mut out, args);
        }
        EventKind::Instant { args } => {
            out.push_str(",\"args\":");
            push_json_args(&mut out, args);
        }
        EventKind::Counter { value } => {
            out.push_str(",\"value\":");
            push_json_value(&mut out, &crate::ArgValue::Float(*value));
        }
        EventKind::Warning { message } => {
            out.push_str(",\"message\":");
            push_json_str(&mut out, message);
        }
    }
    out.push('}');
    out
}

impl<W: Write + Send> Sink for JsonLinesSink<W> {
    fn emit(&self, event: &TelemetryEvent) {
        let line = jsonl_line(event);
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Chrome trace-event output (the JSON Array Format understood by
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)).
///
/// * every [`TrackId`] becomes its own named thread row (`pid` 1, `tid` =
///   track), so a pooled replay renders as one flamegraph lane per worker;
/// * spans become complete (`"ph":"X"`) events, instants become `"ph":"i"`,
///   counters become `"ph":"C"`, warnings become instant events in the
///   `warning` category;
/// * the stream starts with `[` and separates events with `,\n`. The
///   closing `]` is written when the sink is dropped — but the trace-event
///   format explicitly tolerates a missing `]`, so even a trace cut short
///   by a crash loads.
pub struct ChromeTraceSink<W: Write + Send> {
    inner: Mutex<ChromeTraceState<W>>,
    closed: AtomicBool,
}

struct ChromeTraceState<W> {
    writer: W,
    /// Whether anything was written yet (controls the comma separator).
    any: bool,
    /// Tracks that already received their `thread_name` metadata event.
    named_tracks: Vec<TrackId>,
}

impl<W: Write + Send> ChromeTraceSink<W> {
    /// Wraps `writer` with an empty trace.
    pub fn new(writer: W) -> Self {
        ChromeTraceSink {
            inner: Mutex::new(ChromeTraceState {
                writer,
                any: false,
                named_tracks: Vec::new(),
            }),
            closed: AtomicBool::new(false),
        }
    }

    /// Writes the closing bracket and flushes. Idempotent; also invoked on
    /// drop. After closing, further events are dropped.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut state = self.inner.lock().expect("chrome sink poisoned");
        if !state.any {
            let _ = state.writer.write_all(b"[");
        }
        let _ = state.writer.write_all(b"\n]\n");
        let _ = state.writer.flush();
    }
}

impl ChromeTraceSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and streams the trace into it. Open the
    /// result in `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write + Send> Drop for ChromeTraceSink<W> {
    fn drop(&mut self) {
        self.close();
    }
}

/// The display name of a track in the rendered trace.
fn track_name(track: TrackId) -> String {
    if track == crate::COORDINATOR_TRACK {
        "session".to_owned()
    } else {
        format!("worker-{}", track - 1)
    }
}

/// Renders one event as its Chrome trace-event JSON object.
pub fn chrome_trace_object(event: &TelemetryEvent) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"name\":");
    push_json_str(&mut out, &event.name);
    out.push_str(",\"pid\":1,\"tid\":");
    out.push_str(&event.track.to_string());
    out.push_str(",\"ts\":");
    out.push_str(&event.ts_us.to_string());
    match &event.kind {
        EventKind::Span { dur_us, args } => {
            out.push_str(",\"ph\":\"X\",\"cat\":\"erpi\",\"dur\":");
            out.push_str(&dur_us.to_string());
            out.push_str(",\"args\":");
            push_json_args(&mut out, args);
        }
        EventKind::Instant { args } => {
            out.push_str(",\"ph\":\"i\",\"cat\":\"erpi\",\"s\":\"t\",\"args\":");
            push_json_args(&mut out, args);
        }
        EventKind::Counter { value } => {
            out.push_str(",\"ph\":\"C\",\"cat\":\"erpi\",\"args\":{\"value\":");
            push_json_value(&mut out, &crate::ArgValue::Float(*value));
            out.push('}');
        }
        EventKind::Warning { message } => {
            out.push_str(",\"ph\":\"i\",\"cat\":\"warning\",\"s\":\"t\",\"args\":{\"message\":");
            push_json_str(&mut out, message);
            out.push('}');
        }
    }
    out.push('}');
    out
}

/// The `thread_name` metadata object that labels `track`.
fn track_metadata_object(track: TrackId) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    out.push_str(&track.to_string());
    out.push_str(",\"args\":{\"name\":");
    push_json_str(&mut out, &track_name(track));
    out.push_str("}}");
    out
}

impl<W: Write + Send> Sink for ChromeTraceSink<W> {
    fn emit(&self, event: &TelemetryEvent) {
        if self.closed.load(Ordering::SeqCst) {
            return;
        }
        let mut state = self.inner.lock().expect("chrome sink poisoned");
        let mut objects = Vec::with_capacity(2);
        if !state.named_tracks.contains(&event.track) {
            state.named_tracks.push(event.track);
            objects.push(track_metadata_object(event.track));
        }
        objects.push(chrome_trace_object(event));
        for object in objects {
            let lead: &[u8] = if state.any { b",\n" } else { b"[\n" };
            state.any = true;
            let _ = state.writer.write_all(lead);
            let _ = state.writer.write_all(object.as_bytes());
        }
    }

    fn flush(&self) {
        if !self.closed.load(Ordering::SeqCst) {
            let _ = self
                .inner
                .lock()
                .expect("chrome sink poisoned")
                .writer
                .flush();
        }
    }
}

/// A shared in-memory byte buffer usable as the writer of a stream sink —
/// lets tests (and the bench harness) read back what a [`JsonLinesSink`] or
/// [`ChromeTraceSink`] wrote without touching the filesystem.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffered bytes, as a UTF-8 string.
    pub fn contents(&self) -> String {
        String::from_utf8(self.0.lock().expect("shared buf poisoned").clone())
            .expect("sinks write UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("shared buf poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgValue, COORDINATOR_TRACK};
    use std::borrow::Cow;

    fn span(name: &'static str, track: TrackId) -> TelemetryEvent {
        TelemetryEvent {
            ts_us: 5,
            track,
            name: Cow::Borrowed(name),
            kind: EventKind::Span {
                dur_us: 7,
                args: vec![("index", ArgValue::UInt(3))],
            },
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        sink.emit(&span("a", 0));
        sink.emit(&span("b", 1));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[1].track, 1);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_lines_are_flat_objects() {
        let buf = SharedBuf::new();
        let sink = JsonLinesSink::new(buf.clone());
        sink.emit(&span("run", 2));
        sink.emit(&TelemetryEvent {
            ts_us: 9,
            track: 0,
            name: Cow::Borrowed("progress:runs_per_sec"),
            kind: EventKind::Counter { value: 12.5 },
        });
        sink.flush();
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"kind":"span","name":"run","ts_us":5,"track":2,"dur_us":7,"args":{"index":3}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"kind":"counter","name":"progress:runs_per_sec","ts_us":9,"track":0,"value":12.5}"#
        );
    }

    #[test]
    fn chrome_trace_names_each_track_once_and_closes() {
        let buf = SharedBuf::new();
        let sink = ChromeTraceSink::new(buf.clone());
        sink.emit(&span("run", 1));
        sink.emit(&span("run", 1));
        sink.emit(&span("enumerate", COORDINATOR_TRACK));
        sink.close();
        let text = buf.contents();
        assert!(text.starts_with("[\n"));
        assert!(text.trim_end().ends_with(']'));
        assert_eq!(text.matches("thread_name").count(), 2, "{text}");
        assert!(text.contains("\"worker-0\""));
        assert!(text.contains("\"session\""));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 3);
        // Close is idempotent and emission after close is dropped.
        sink.emit(&span("late", 1));
        sink.close();
        assert_eq!(buf.contents(), text);
    }

    #[test]
    fn empty_chrome_trace_is_still_valid_json() {
        let buf = SharedBuf::new();
        ChromeTraceSink::new(buf.clone()).close();
        assert_eq!(buf.contents().trim(), "[\n]");
    }

    #[test]
    fn warnings_render_with_their_message() {
        let ev = TelemetryEvent {
            ts_us: 1,
            track: 1,
            name: Cow::Borrowed("cache:low-hit-rate"),
            kind: EventKind::Warning {
                message: "hit rate 3.0% below 10%".into(),
            },
        };
        assert!(jsonl_line(&ev).contains("\"message\":\"hit rate 3.0% below 10%\""));
        assert!(chrome_trace_object(&ev).contains("\"cat\":\"warning\""));
    }
}
