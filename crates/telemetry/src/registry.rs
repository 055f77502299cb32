//! A typed, label-aware metrics registry with Prometheus text exposition.
//!
//! Every layer of the engine — the session, the shared [`ExecutorService`],
//! the pruners, and the daemon — registers counters, gauges and
//! log-bucketed latency histograms into one [`Registry`]. Handles are
//! `Arc`'d atomics, so the hot path never takes a lock: the registry's
//! mutex guards only registration and rendering.
//!
//! The exposition format is the Prometheus text format (`# HELP`/`# TYPE`
//! lines, escaped labels, cumulative `_bucket{le=...}` series). A small
//! in-repo lint ([`lint_exposition`], [`lint_monotone`]) validates scrapes
//! in tests and CI without external tooling.
//!
//! [`ExecutorService`]: ../er_pi/struct.ExecutorService.html

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of finite histogram buckets: powers of two from 1 µs to 2^25 µs
/// (~33.5 s). A final implicit `+Inf` bucket catches the rest.
const HISTOGRAM_BUCKETS: usize = 26;

/// What a metric family measures. Determines the `# TYPE` line and how
/// series are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Arbitrary instantaneous value.
    Gauge,
    /// Log-bucketed latency distribution in microseconds.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotone counter handle. Cloning shares the underlying cell; the
/// `Default` is a detached cell no registry renders.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one and returns the new value.
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle storing an `f64` (as raw bits in an atomic). Cloning
/// shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// `buckets[i]` counts observations with `value_us <= 2^i`; overflow
    /// lands only in the implicit `+Inf` bucket (`count - sum(buckets)`).
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

/// A log-bucketed latency histogram handle (microsecond observations,
/// power-of-two bucket bounds). Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one latency observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        // Index of the first power-of-two bound >= us; us = 0 maps to
        // bucket 0 (le 1).
        let idx = (64 - us.saturating_sub(1).leading_zeros()) as usize;
        if idx < HISTOGRAM_BUCKETS {
            self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        }
        self.0.sum_us.fetch_add(us, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` observations that averaged `mean_us` each — a cheap
    /// bulk form for batch completions where per-item timing was not
    /// taken.
    pub fn observe_n_us(&self, mean_us: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = (64 - mean_us.saturating_sub(1).leading_zeros()) as usize;
        if idx < HISTOGRAM_BUCKETS {
            self.0.buckets[idx].fetch_add(n, Ordering::Relaxed);
        }
        self.0
            .sum_us
            .fetch_add(mean_us.saturating_mul(n), Ordering::Relaxed);
        self.0.count.fetch_add(n, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.0.sum_us.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
enum Series {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCore>),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    series: BTreeMap<Vec<(String, String)>, Series>,
}

/// The process-wide metric registry. Cheap to share (`Arc`), cheap to
/// write (handles are lock-free); the internal mutex is taken only for
/// registration and rendering.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name:?} re-registered as {kind:?}, was {:?}",
            family.kind
        );
        let key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let entry = family.series.entry(key).or_insert_with(make);
        match entry {
            Series::Counter(c) => Series::Counter(Arc::clone(c)),
            Series::Gauge(g) => Series::Gauge(Arc::clone(g)),
            Series::Histogram(h) => Series::Histogram(Arc::clone(h)),
        }
    }

    /// Registers (or re-fetches) a counter series. Re-registering the same
    /// name + labels returns a handle to the same cell; re-registering the
    /// same name with a different kind panics.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels, || {
            Series::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Series::Counter(c) => Counter(c),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or re-fetches) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels, || {
            Series::Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
        }) {
            Series::Gauge(g) => Gauge(g),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or re-fetches) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels, || {
            Series::Histogram(Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum_us: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }))
        }) {
            Series::Histogram(h) => Histogram(h),
            _ => unreachable!("kind checked above"),
        }
    }

    /// Renders every family in the Prometheus text exposition format.
    /// Families and series are emitted in sorted order, so two renders of
    /// the same state are byte-identical.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            render_labels(labels, None),
                            c.load(Ordering::Relaxed)
                        );
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            render_labels(labels, None),
                            fmt_f64(f64::from_bits(g.load(Ordering::Relaxed)))
                        );
                    }
                    Series::Histogram(h) => {
                        let mut cumulative = 0u64;
                        for (i, bucket) in h.buckets.iter().enumerate() {
                            cumulative += bucket.load(Ordering::Relaxed);
                            let le = (1u64 << i).to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(labels, Some(&le))
                            );
                        }
                        let count = h.count.load(Ordering::Relaxed);
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {count}",
                            render_labels(labels, Some("+Inf"))
                        );
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            render_labels(labels, None),
                            h.sum_us.load(Ordering::Relaxed)
                        );
                        let _ =
                            writeln!(out, "{name}_count{} {count}", render_labels(labels, None));
                    }
                }
            }
        }
        out
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Parsed form of one sample line: metric name, sorted labels, value.
type Sample = (String, Vec<(String, String)>, f64);

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    // `s` is the text between `{` and `}`. Hand-rolled scan so escaped
    // quotes and commas inside values are handled.
    let mut labels = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        // key
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            if !(c.is_ascii_alphanumeric() || c == '_') {
                return Err(format!("bad label key character {c:?} in {s:?}"));
            }
            key.push(c);
            chars.next();
        }
        if key.is_empty() {
            return Err(format!("empty label key in {s:?}"));
        }
        if chars.next() != Some('=') {
            return Err(format!("missing '=' after label key {key:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label value for {key:?} not quoted"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {key:?}")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                '\n' => return Err(format!("raw newline in label {key:?}")),
                c => value.push(c),
            }
        }
        if !closed {
            return Err(format!("unterminated label value for {key:?}"));
        }
        labels.push((key, value));
        match chars.next() {
            None => break,
            Some(',') => continue,
            Some(c) => return Err(format!("expected ',' between labels, got {c:?}")),
        }
    }
    Ok(labels)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return Err(format!("sample line without value: {line:?}")),
    };
    let value: f64 = match value {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse()
            .map_err(|e| format!("bad sample value {v:?}: {e}"))?,
    };
    let (name, labels) = match name_and_labels.find('{') {
        Some(open) => {
            let close = name_and_labels
                .rfind('}')
                .ok_or_else(|| format!("unclosed label braces: {line:?}"))?;
            if close != name_and_labels.len() - 1 {
                return Err(format!("trailing text after labels: {line:?}"));
            }
            (
                &name_and_labels[..open],
                parse_labels(&name_and_labels[open + 1..close])?,
            )
        }
        None => (name_and_labels, Vec::new()),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err(format!("bad metric name {name:?}"));
    }
    Ok((name.to_string(), labels, value))
}

/// Parses a full text exposition into `(types, samples)`.
fn parse_exposition(text: &str) -> Result<(BTreeMap<String, String>, Vec<Sample>), String> {
    let mut types = BTreeMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or_default();
            let kind = it
                .next()
                .ok_or_else(|| format!("bad TYPE line: {line:?}"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("unknown metric type {kind:?} in {line:?}"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("duplicate TYPE line for {name:?}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line)?);
    }
    Ok((types, samples))
}

/// Resolves a sample name to its family name and declared type, honouring
/// the `_bucket`/`_sum`/`_count` suffixes of histogram families.
fn family_of<'a>(name: &'a str, types: &'a BTreeMap<String, String>) -> Option<(&'a str, &'a str)> {
    if let Some(t) = types.get(name) {
        return Some((name, t.as_str()));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if let Some(t) = types.get(base) {
                if t == "histogram" {
                    return Some((base, t.as_str()));
                }
            }
        }
    }
    None
}

/// Validates a Prometheus text exposition: every sample has a `# TYPE`
/// line, names and labels are well-formed, counter and histogram values
/// are finite and non-negative, and histogram buckets are cumulative with
/// a closing `+Inf` bucket equal to `_count`.
pub fn lint_exposition(text: &str) -> Result<(), String> {
    // (family, labels-minus-le) -> (last le bound, saw +Inf, bucket total,
    // count sample)
    type HistKey = (String, Vec<(String, String)>);
    type HistState = (f64, f64, bool, Option<f64>);
    let (types, samples) = parse_exposition(text)?;
    let mut hists: BTreeMap<HistKey, HistState> = BTreeMap::new();
    for (name, labels, value) in &samples {
        let (family, kind) =
            family_of(name, &types).ok_or_else(|| format!("sample {name:?} has no # TYPE line"))?;
        match kind {
            "counter" if !value.is_finite() || *value < 0.0 => {
                return Err(format!("counter {name:?} has invalid value {value}"));
            }
            "counter" => {}
            "histogram" => {
                if !value.is_finite() || *value < 0.0 {
                    return Err(format!(
                        "histogram sample {name:?} has invalid value {value}"
                    ));
                }
                let mut key_labels = labels.clone();
                let le = if name.ends_with("_bucket") {
                    let pos = key_labels
                        .iter()
                        .position(|(k, _)| k == "le")
                        .ok_or_else(|| format!("bucket sample of {family:?} missing le label"))?;
                    Some(key_labels.remove(pos).1)
                } else {
                    None
                };
                key_labels.sort();
                let entry = hists.entry((family.to_string(), key_labels)).or_insert((
                    f64::NEG_INFINITY,
                    0.0,
                    false,
                    None,
                ));
                match le {
                    Some(le) => {
                        let bound = if le == "+Inf" {
                            f64::INFINITY
                        } else {
                            le.parse::<f64>()
                                .map_err(|e| format!("bad le bound {le:?}: {e}"))?
                        };
                        if bound <= entry.0 {
                            return Err(format!(
                                "histogram {family:?} buckets out of order at le={le}"
                            ));
                        }
                        if *value < entry.1 {
                            return Err(format!("histogram {family:?} not cumulative at le={le}"));
                        }
                        entry.0 = bound;
                        entry.1 = *value;
                        if bound == f64::INFINITY {
                            entry.2 = true;
                        }
                    }
                    None if name.ends_with("_count") => entry.3 = Some(*value),
                    None => {} // _sum: only the finite/non-negative check above
                }
            }
            _ => {
                // Gauges may be any float, including NaN/Inf.
            }
        }
    }
    for ((family, _), (_, last_cumulative, saw_inf, count)) in &hists {
        if !saw_inf {
            return Err(format!("histogram {family:?} missing +Inf bucket"));
        }
        if let Some(count) = count {
            if count != last_cumulative {
                return Err(format!(
                    "histogram {family:?}: +Inf bucket {last_cumulative} != _count {count}"
                ));
            }
        }
    }
    Ok(())
}

/// Checks that no counter (or histogram bucket/sum/count) series went
/// backwards between two scrapes `prev` and `next` of the same registry.
pub fn lint_monotone(prev: &str, next: &str) -> Result<(), String> {
    let (prev_types, prev_samples) = parse_exposition(prev)?;
    let (_, next_samples) = parse_exposition(next)?;
    let mut seen: BTreeMap<(String, Vec<(String, String)>), f64> = BTreeMap::new();
    for (name, labels, value) in next_samples {
        let mut labels = labels;
        labels.sort();
        seen.insert((name, labels), value);
    }
    for (name, mut labels, value) in prev_samples {
        let monotone = matches!(
            family_of(&name, &prev_types),
            Some((_, "counter" | "histogram"))
        );
        if !monotone {
            continue;
        }
        labels.sort();
        if let Some(next_value) = seen.get(&(name.clone(), labels.clone())) {
            if *next_value < value {
                return Err(format!(
                    "counter {name:?}{labels:?} went backwards: {value} -> {next_value}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_sorted_and_labeled() {
        let r = Registry::new();
        let c = r.counter("er_pi_runs_total", "Runs replayed.", &[("tenant", "acme")]);
        c.add(3);
        let c2 = r.counter("er_pi_runs_total", "Runs replayed.", &[("tenant", "beta")]);
        c2.inc();
        let g = r.gauge("er_pi_queue_depth", "Queued campaigns.", &[]);
        g.set(2.0);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE er_pi_queue_depth gauge"), "{text}");
        assert!(text.contains("# TYPE er_pi_runs_total counter"), "{text}");
        assert!(
            text.contains("er_pi_runs_total{tenant=\"acme\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("er_pi_runs_total{tenant=\"beta\"} 1"),
            "{text}"
        );
        assert!(text.contains("er_pi_queue_depth 2"), "{text}");
        lint_exposition(&text).expect("lints clean");
    }

    #[test]
    fn re_registration_returns_the_same_cell() {
        let r = Registry::new();
        let a = r.counter("er_pi_x_total", "X.", &[("k", "v")]);
        let b = r.counter("er_pi_x_total", "X.", &[("k", "v")]);
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    #[should_panic(expected = "re-registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("er_pi_x_total", "X.", &[]);
        r.gauge("er_pi_x_total", "X.", &[]);
    }

    #[test]
    fn histograms_bucket_logarithmically_and_cumulatively() {
        let r = Registry::new();
        let h = r.histogram("er_pi_lat_us", "Latency.", &[]);
        h.observe_us(0); // le 1
        h.observe_us(1); // le 1
        h.observe_us(3); // le 4
        h.observe_us(1_000_000); // le 2^20
        h.observe_n_us(5, 2); // le 8 twice
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum_us(), 1_000_014);
        let text = r.render_prometheus();
        assert!(text.contains("er_pi_lat_us_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("er_pi_lat_us_bucket{le=\"4\"} 3"), "{text}");
        assert!(text.contains("er_pi_lat_us_bucket{le=\"8\"} 5"), "{text}");
        assert!(
            text.contains("er_pi_lat_us_bucket{le=\"+Inf\"} 6"),
            "{text}"
        );
        assert!(text.contains("er_pi_lat_us_sum 1000014"), "{text}");
        assert!(text.contains("er_pi_lat_us_count 6"), "{text}");
        lint_exposition(&text).expect("lints clean");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("er_pi_x_total", "X.", &[("name", "a\"b\\c\nd")]);
        let text = r.render_prometheus();
        assert!(text.contains("name=\"a\\\"b\\\\c\\nd\""), "{text}");
        lint_exposition(&text).expect("lints clean");
    }

    #[test]
    fn the_lint_rejects_malformed_expositions() {
        assert!(lint_exposition("er_pi_x_total 1").is_err(), "no TYPE line");
        assert!(
            lint_exposition("# TYPE er_pi_x_total counter\ner_pi_x_total -1").is_err(),
            "negative counter"
        );
        assert!(
            lint_exposition("# TYPE er_pi_x_total widget\ner_pi_x_total 1").is_err(),
            "unknown type"
        );
        assert!(
            lint_exposition(
                "# TYPE er_pi_h histogram\ner_pi_h_bucket{le=\"1\"} 5\ner_pi_h_bucket{le=\"+Inf\"} 3\n"
            )
            .is_err(),
            "non-cumulative buckets"
        );
        assert!(
            lint_exposition("# TYPE er_pi_h histogram\ner_pi_h_bucket{le=\"1\"} 5\n").is_err(),
            "missing +Inf"
        );
        assert!(
            lint_exposition("# TYPE er_pi_x_total counter\ner_pi_x_total{k=\"v} 1").is_err(),
            "unterminated label"
        );
    }

    #[test]
    fn the_monotone_lint_catches_resets() {
        let a = "# TYPE er_pi_x_total counter\ner_pi_x_total{t=\"a\"} 5\n";
        let b = "# TYPE er_pi_x_total counter\ner_pi_x_total{t=\"a\"} 7\n";
        let c = "# TYPE er_pi_x_total counter\ner_pi_x_total{t=\"a\"} 2\n";
        lint_monotone(a, b).expect("5 -> 7 is monotone");
        assert!(lint_monotone(b, c).is_err(), "7 -> 2 is a reset");
        // A series that disappears is fine (new registry / restart detection
        // is out of scope for the lint).
        lint_monotone(a, "# TYPE er_pi_x_total counter\n").expect("absent series ignored");
    }

    #[test]
    fn renders_are_deterministic() {
        let r = Registry::new();
        r.counter("er_pi_b_total", "B.", &[("z", "1")]).inc();
        r.counter("er_pi_b_total", "B.", &[("a", "1")]).inc();
        r.counter("er_pi_a_total", "A.", &[]).inc();
        r.histogram("er_pi_h_us", "H.", &[]).observe_us(7);
        assert_eq!(r.render_prometheus(), r.render_prometheus());
    }
}
