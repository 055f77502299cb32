//! The telemetry event model shared by every sink.

use std::borrow::Cow;
use std::fmt::Write as _;

/// The track an event is attributed to — one row in the rendered trace.
///
/// Track 0 is the coordinating thread (the session's own thread); pool
/// workers get one track each, starting at 1. [`ChromeTraceSink`] renders
/// every track as its own named timeline row, so a replay campaign shows up
/// as one flamegraph lane per worker.
///
/// [`ChromeTraceSink`]: crate::ChromeTraceSink
pub type TrackId = u32;

/// The coordinating thread's track (recording, enumeration, summary).
pub const COORDINATOR_TRACK: TrackId = 0;

/// The track of replay slot `worker` (0-based slot index).
pub const fn worker_track(worker: usize) -> TrackId {
    worker as TrackId + 1
}

/// A typed argument value attached to spans and instants.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::UInt(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::UInt(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

/// Named arguments of an event. A plain vector keeps insertion order in the
/// rendered JSON and avoids hashing on the hot path.
pub type Args = Vec<(&'static str, ArgValue)>;

/// What kind of record an event is.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed span: something that took `dur_us` microseconds.
    Span {
        /// Span duration, microseconds (wall clock).
        dur_us: u64,
        /// Named arguments.
        args: Args,
    },
    /// A point-in-time marker.
    Instant {
        /// Named arguments.
        args: Args,
    },
    /// A sampled counter value (rendered as a counter track by Perfetto).
    Counter {
        /// The sampled value.
        value: f64,
    },
    /// A one-line warning diagnostic (e.g. a degraded checkpoint-cache hit
    /// rate). The name carries a stable warning code; the message is
    /// human-readable.
    Warning {
        /// Human-readable, single-line message.
        message: String,
    },
}

impl EventKind {
    /// The JSON Lines `kind` discriminator for this event.
    pub fn kind_name(&self) -> &'static str {
        match self {
            EventKind::Span { .. } => "span",
            EventKind::Instant { .. } => "instant",
            EventKind::Counter { .. } => "counter",
            EventKind::Warning { .. } => "warning",
        }
    }
}

/// One telemetry event, as handed to a [`Sink`](crate::Sink).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Microseconds since the owning [`Telemetry`](crate::Telemetry)
    /// handle's origin.
    pub ts_us: u64,
    /// The track this event belongs to.
    pub track: TrackId,
    /// Event name (stable, dot-free identifiers like `run`,
    /// `prune:independence`, `cache:low-hit-rate`).
    pub name: Cow<'static, str>,
    /// The payload.
    pub kind: EventKind,
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an [`ArgValue`] to `out` as a JSON value.
pub(crate) fn push_json_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        ArgValue::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        ArgValue::Float(f) => {
            if f.is_finite() {
                let _ = write!(out, "{f}");
            } else {
                out.push_str("null");
            }
        }
        ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        ArgValue::Str(s) => push_json_str(out, s),
    }
}

/// Appends `args` to `out` as a JSON object.
pub(crate) fn push_json_args(out: &mut String, args: &Args) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_value(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_escaping_covers_controls() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{01}e");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }

    #[test]
    fn arg_rendering() {
        let mut out = String::new();
        push_json_args(
            &mut out,
            &vec![
                ("i", ArgValue::Int(-3)),
                ("u", ArgValue::UInt(7)),
                ("f", ArgValue::Float(0.5)),
                ("b", ArgValue::Bool(true)),
                ("s", ArgValue::Str("x".into())),
            ],
        );
        assert_eq!(out, r#"{"i":-3,"u":7,"f":0.5,"b":true,"s":"x"}"#);
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let mut out = String::new();
        push_json_value(&mut out, &ArgValue::Float(f64::NAN));
        assert_eq!(out, "null");
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            EventKind::Span {
                dur_us: 0,
                args: vec![]
            }
            .kind_name(),
            "span"
        );
        assert_eq!(EventKind::Instant { args: vec![] }.kind_name(), "instant");
        assert_eq!(EventKind::Counter { value: 0.0 }.kind_name(), "counter");
        assert_eq!(
            EventKind::Warning {
                message: String::new()
            }
            .kind_name(),
            "warning"
        );
    }

    #[test]
    fn worker_tracks_start_after_the_coordinator() {
        assert_eq!(COORDINATOR_TRACK, 0);
        assert_eq!(worker_track(0), 1);
        assert_eq!(worker_track(3), 4);
    }
}
