//! The metrics registry: named counters, gauges and histograms.
//!
//! All handles are `Arc`-backed atomics. Registration (name → handle)
//! takes a lock once; recording is lock-free and safe from any thread,
//! which is what the serving worker pool's shared registry requires.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (e.g. bytes resident in a
/// cache).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Atomic `f64` accumulator (bit-cast CAS over an [`AtomicU64`]).
#[derive(Debug)]
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> AtomicF64 {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn update(&self, f: impl Fn(f64) -> f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A fixed-bucket histogram with explicit underflow and overflow buckets.
///
/// For ascending bounds `b₀ < b₁ < … < bₙ₋₁` there are `n + 1` buckets:
/// bucket `0` (the *underflow* bucket) counts values `v ≤ b₀`, bucket `i`
/// counts `bᵢ₋₁ < v ≤ bᵢ`, and bucket `n` (the *overflow* bucket) counts
/// `v > bₙ₋₁`. Alongside the buckets the histogram tracks exact count,
/// sum, min and max, so averages are exact and only quantiles are
/// bucket-interpolated estimates.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Histogram {
    /// A histogram over explicit ascending bucket bounds.
    ///
    /// # Panics
    ///
    /// If `bounds` is empty, non-finite, or not strictly ascending.
    #[must_use]
    pub fn with_bounds(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly ascending"
        );
        Histogram {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicF64::new(0.0),
            min: AtomicF64::new(f64::INFINITY),
            max: AtomicF64::new(f64::NEG_INFINITY),
        }
    }

    /// The default latency histogram: exponential bounds from 1 µs
    /// doubling up to ~67 s (values in seconds).
    #[must_use]
    pub fn latency() -> Histogram {
        let bounds: Vec<f64> = (0..27).map(|i| 1e-6 * f64::from(1u32 << i)).collect();
        Histogram::with_bounds(&bounds)
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        let i = self.bounds.partition_point(|b| *b < v);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.update(|s| s + v);
        self.min.update(|m| m.min(v));
        self.max.update(|m| m.max(v));
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram's state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets,
            count,
            sum: self.sum.get(),
            min: (count > 0).then(|| self.min.get()),
            max: (count > 0).then(|| self.max.get()),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The bucket upper bounds (`buckets.len() == bounds.len() + 1`).
    pub bounds: Vec<f64>,
    /// Per-bucket counts: underflow, the bounded buckets, overflow.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: f64,
    /// Smallest observation, if any.
    pub min: Option<f64>,
    /// Largest observation, if any.
    pub max: Option<f64>,
}

impl HistogramSnapshot {
    /// The exact mean, if anything was recorded.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// A bucket-interpolated quantile estimate (`q` in `[0, 1]`): walks to
    /// the bucket holding the `⌈q·count⌉`-th observation and interpolates
    /// linearly inside it. The underflow bucket interpolates from `min`,
    /// the overflow bucket towards `max`, so the estimate never leaves the
    /// observed range.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let (min, max) = (self.min?, self.max?);
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = if i == 0 {
                    min
                } else {
                    self.bounds[i - 1].max(min)
                };
                let hi = if i == self.bounds.len() {
                    max
                } else {
                    self.bounds[i].min(max)
                };
                let frac = (rank - seen) as f64 / c as f64;
                return Some(lo + (hi - lo).max(0.0) * frac);
            }
            seen += c;
        }
        Some(max)
    }
}

/// A registered metric (the registry's storage slot).
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named collection of metrics. Cheap to share as `Arc<Registry>`;
/// handles returned by the accessors are atomics that outlive the lock.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.register(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The latency histogram named `name` (default exponential bounds),
    /// registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.register(name, || Metric::Histogram(Arc::new(Histogram::latency()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Like [`Registry::histogram`] with explicit bucket bounds (only used
    /// on first registration; later calls return the existing histogram).
    ///
    /// # Panics
    ///
    /// As [`Histogram::with_bounds`] / [`Registry::histogram`].
    #[must_use]
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        match self.register(name, || {
            Metric::Histogram(Arc::new(Histogram::with_bounds(bounds)))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        self.metrics
            .lock()
            .expect("metrics registry lock")
            .entry(name.to_owned())
            .or_insert_with(make)
            .clone()
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("metrics registry lock");
        Snapshot {
            entries: metrics
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram state.
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of a [`Registry`], sorted by metric name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Looks up a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// A counter's value, or `None` if absent or not a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// A gauge's value, or `None` if absent or not a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name)? {
            MetricValue::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// Only the counters and gauges — the *deterministic* part of a
    /// snapshot. Two evaluations of the same query must agree here
    /// regardless of which threads ran them; histograms carry wall-clock
    /// timings and are excluded.
    #[must_use]
    pub fn deterministic(&self) -> Vec<(String, i128)> {
        self.entries
            .iter()
            .filter_map(|(name, v)| match v {
                MetricValue::Counter(c) => Some((name.clone(), i128::from(*c))),
                MetricValue::Gauge(g) => Some((name.clone(), i128::from(*g))),
                MetricValue::Histogram(_) => None,
            })
            .collect()
    }

    /// Renders the snapshot as a JSON object (hand-rolled — this crate is
    /// dependency-free). Counters and gauges become numbers; histograms
    /// become objects with `count`, `sum`, `min`, `max`, `mean`,
    /// `p50`/`p95`/`p99` and a `buckets` array of `{le, count}` pairs
    /// (the overflow bucket's `le` is `null`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str("  ");
            json_string(&mut out, name);
            out.push_str(": ");
            match value {
                MetricValue::Counter(c) => out.push_str(&c.to_string()),
                MetricValue::Gauge(g) => out.push_str(&g.to_string()),
                MetricValue::Histogram(h) => json_histogram(&mut out, h),
            }
        }
        out.push_str("\n}");
        out
    }

    /// Renders an aligned, human-readable summary (one line per metric;
    /// histograms show count/mean/p50/p95/p99/max).
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name:<width$}  {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name:<width$}  {g}");
                }
                MetricValue::Histogram(h) => {
                    let fmt = |v: Option<f64>| match v {
                        Some(x) => format!("{x:.6}"),
                        None => "-".to_owned(),
                    };
                    let _ = writeln!(
                        out,
                        "{name:<width$}  count={} mean={} p50={} p95={} p99={} max={}",
                        h.count,
                        fmt(h.mean()),
                        fmt(h.quantile(0.50)),
                        fmt(h.quantile(0.95)),
                        fmt(h.quantile(0.99)),
                        fmt(h.max),
                    );
                }
            }
        }
        out
    }
}

/// Appends a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON number, mapping non-finite values to `null` (JSON has
/// no NaN/∞) and keeping integers integral.
fn json_number(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

fn json_opt(out: &mut String, v: Option<f64>) {
    match v {
        Some(x) => json_number(out, x),
        None => out.push_str("null"),
    }
}

fn json_histogram(out: &mut String, h: &HistogramSnapshot) {
    out.push_str("{\"count\": ");
    out.push_str(&h.count.to_string());
    out.push_str(", \"sum\": ");
    json_number(out, h.sum);
    out.push_str(", \"min\": ");
    json_opt(out, h.min);
    out.push_str(", \"max\": ");
    json_opt(out, h.max);
    out.push_str(", \"mean\": ");
    json_opt(out, h.mean());
    out.push_str(", \"p50\": ");
    json_opt(out, h.quantile(0.50));
    out.push_str(", \"p95\": ");
    json_opt(out, h.quantile(0.95));
    out.push_str(", \"p99\": ");
    json_opt(out, h.quantile(0.99));
    out.push_str(", \"buckets\": [");
    for (i, c) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"le\": ");
        match h.bounds.get(i) {
            Some(b) => json_number(out, *b),
            None => out.push_str("null"),
        }
        out.push_str(", \"count\": ");
        out.push_str(&c.to_string());
        out.push('}');
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("engine.joins");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering yields the same underlying atomic.
        assert_eq!(r.counter("engine.joins").get(), 5);
        let g = r.gauge("cache.bytes_resident");
        g.add(100);
        g.sub(30);
        assert_eq!(g.get(), 70);
        g.set(-5);
        assert_eq!(g.get(), -5);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m");
        let _ = r.gauge("m");
    }

    #[test]
    fn histogram_bucketing_underflow_and_overflow() {
        let h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        h.record(-3.0); // below every bound → underflow bucket
        h.record(0.5); // still ≤ 1.0 → underflow bucket
        h.record(1.0); // exactly on a bound → that bucket (≤ semantics)
        h.record(5.0);
        h.record(10.0);
        h.record(1e9); // beyond the last bound → overflow bucket
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![3, 2, 0, 1]);
        assert_eq!(s.count, 6);
        assert_eq!(s.min, Some(-3.0));
        assert_eq!(s.max, Some(1e9));
        assert!((s.sum - (-3.0 + 0.5 + 1.0 + 5.0 + 10.0 + 1e9)).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let s = Histogram::latency().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn quantiles_stay_within_observed_range() {
        let h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        for v in [0.5, 0.6, 0.7, 3.0, 3.5, 8.0] {
            h.record(v);
        }
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let est = s.quantile(q).unwrap();
            assert!(
                (0.5..=8.0).contains(&est),
                "q={q} estimate {est} escaped [min, max]"
            );
        }
        // The median of 6 values (3rd) sits in the underflow bucket.
        assert!(s.quantile(0.5).unwrap() <= 1.0);
        // The tail estimate reaches into the overflow bucket.
        assert!(s.quantile(1.0).unwrap() > 4.0);
    }

    #[test]
    fn single_value_histogram_quantiles_are_exact_range() {
        let h = Histogram::latency();
        h.record(0.25);
        let s = h.snapshot();
        // One observation: every quantile collapses into its bucket, and
        // min == max pins the interpolation down to the value itself.
        assert_eq!(s.quantile(0.5), Some(0.25));
        assert_eq!(s.quantile(0.99), Some(0.25));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Registry::new();
        let c = r.counter("work");
        let h = r.histogram_with("lat", &[0.25, 0.5, 0.75]);
        const THREADS: usize = 8;
        const PER_THREAD: usize = 1_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        // Deterministic spread over all four buckets.
                        h.record((((t + i) % 4) as f64) * 0.25 + 0.1);
                    }
                });
            }
        });
        assert_eq!(c.get(), (THREADS * PER_THREAD) as u64);
        let s = h.snapshot();
        assert_eq!(s.count, (THREADS * PER_THREAD) as u64);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        // The spread touches every bucket equally.
        assert!(s.buckets.iter().all(|&b| b == s.count / 4));
    }

    #[test]
    fn snapshot_orders_json_and_text() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.gauge("a.gauge").set(-1);
        r.histogram_with("c.lat", &[1.0]).record(0.5);
        let s = r.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.gauge", "b.count", "c.lat"]);
        assert_eq!(s.counter("b.count"), Some(2));
        assert_eq!(s.counter("a.gauge"), None, "gauges are not counters");
        let json = s.to_json();
        assert!(json.contains("\"b.count\": 2"));
        assert!(json.contains("\"a.gauge\": -1"));
        assert!(
            json.contains("\"buckets\": [{\"le\": 1, \"count\": 1}, {\"le\": null, \"count\": 0}]")
        );
        let text = s.render_text();
        assert!(text.contains("b.count"));
        assert!(text.contains("count=1"));
        // Deterministic view drops the histogram.
        assert_eq!(
            s.deterministic(),
            vec![("a.gauge".to_owned(), -1), ("b.count".to_owned(), 2)]
        );
    }
}
