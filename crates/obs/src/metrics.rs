//! The metrics registry: named counters, gauges and histograms.
//!
//! All handles are `Arc`-backed atomics. Registration (name → handle)
//! takes a lock once; recording is lock-free and safe from any thread,
//! which is what the serving worker pool's shared registry requires.
//!
//! Counters and histograms record into per-thread *cells*: each keeps
//! [`CELLS`] cache-line-padded copies of its state, a thread always
//! writes the cell it was assigned on its first record (round-robin), and
//! only reads sum the cells. Threads that record into one shared metric
//! therefore do not bounce its cache line between cores. Histograms keep
//! their sum, min and max as integer nano-units (`value × 10⁹`, rounded)
//! so every update is a single `fetch_add`/`fetch_min`/`fetch_max`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Recording cells per counter and histogram. A power of two, so a
/// thread's cell index is its round-robin ticket masked.
const CELLS: usize = 8;

/// The next round-robin cell ticket.
static NEXT_CELL: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's recording cell, handed out on its first record.
    static CELL: usize = NEXT_CELL.fetch_add(1, Ordering::Relaxed) & (CELLS - 1);
}

/// The calling thread's cell index.
fn cell() -> usize {
    CELL.with(|c| *c)
}

/// A value padded to its own cache line pair (adjacent-line prefetch on
/// x86 pulls lines in twos), so neighbouring cells never share one.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

/// Name of the counter that counts metric-kind clashes (see
/// [`Registry::counter`]).
const KIND_CLASH: &str = "obs.kind_clash";

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    cells: [Padded<AtomicU64>; CELLS],
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

    /// Adds `n` to the calling thread's cell.
    pub fn add(&self, n: u64) {
        self.cells[cell()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value: the sum over every cell.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(c.0.load(Ordering::Relaxed)))
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

/// Nano-units per recorded unit: histograms store `value × 10⁹`.
const NANOS: f64 = 1e9;

/// A value in nano-units, rounded to the nearest (saturating; NaN → 0).
fn to_nanos(v: f64) -> i64 {
    (v * NANOS).round() as i64
}

fn from_nanos(n: i64) -> f64 {
    n as f64 / NANOS
}

/// Words per histogram line: one padded line pair holds 16 words.
const LINE_WORDS: usize = 16;

/// Leading words of a histogram cell; its bucket counts follow.
const SUM: usize = 0;
const MIN: usize = 1;
const MAX: usize = 2;
const BUCKETS: usize = 3;

/// A fixed-bucket histogram with explicit underflow and overflow buckets.
///
/// For ascending bounds `b₀ < b₁ < … < bₙ₋₁` there are `n + 1` buckets:
/// bucket `0` (the *underflow* bucket) counts values `v ≤ b₀`, bucket `i`
/// counts `bᵢ₋₁ < v ≤ bᵢ`, and bucket `n` (the *overflow* bucket) counts
/// `v > bₙ₋₁`. Alongside the buckets the histogram tracks the count
/// (`Σ buckets`), sum, min and max, kept as integers in nano-units: sums
/// of durations are exact to the nanosecond, other values round to the
/// nearest 10⁻⁹. Only quantiles are bucket-interpolated estimates.
///
/// Each of the eight cells is a run of padded lines holding its sum,
/// min, max and bucket counts; a thread records into its own cell and a
/// snapshot folds them all.
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    /// `CELLS × lines_per_cell` padded lines of `i64` words.
    lines: Box<[Padded<[AtomicI64; LINE_WORDS]>]>,
    lines_per_cell: usize,
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
        let lines_per_cell = (BUCKETS + bounds.len() + 1).div_ceil(LINE_WORDS);
        let h = Histogram {
            bounds: bounds.into(),
            lines: (0..CELLS * lines_per_cell)
                .map(|_| Padded::default())
                .collect(),
            lines_per_cell,
        };
        for c in 0..CELLS {
            h.word(c, MIN).store(i64::MAX, Ordering::Relaxed);
            h.word(c, MAX).store(i64::MIN, Ordering::Relaxed);
        }
        h
    }

    /// The default latency histogram: exponential bounds from 1 µs
    /// doubling up to ~67 s (values in seconds).
    #[must_use]
    pub fn latency() -> Histogram {
        let bounds: Vec<f64> = (0..27).map(|i| 1e-6 * f64::from(1u32 << i)).collect();
        Histogram::with_bounds(&bounds)
    }

    /// Word `j` of cell `c`.
    fn word(&self, c: usize, j: usize) -> &AtomicI64 {
        &self.lines[c * self.lines_per_cell + j / LINE_WORDS].0[j % LINE_WORDS]
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.record_nanos(v, to_nanos(v));
    }

    /// Records a [`std::time::Duration`] in seconds (its sum contribution
    /// is the exact nanosecond count).
    pub fn record_duration(&self, d: std::time::Duration) {
        let nanos = i64::try_from(d.as_nanos()).unwrap_or(i64::MAX);
        self.record_nanos(d.as_secs_f64(), nanos);
    }

    /// Records `v`, whose nano-unit value is `n`, into the calling
    /// thread's cell. The bucket is bumped last with `Release`, pairing
    /// with the `Acquire` bucket loads of [`Histogram::snapshot`]: a
    /// snapshot that counts the observation also sees its sum, min and max.
    fn record_nanos(&self, v: f64, n: i64) {
        let i = self.bounds.partition_point(|b| *b < v);
        let c = cell();
        self.word(c, SUM).fetch_add(n, Ordering::Relaxed);
        // Plain loads first: once a cell has seen a few values, most
        // observations move neither extreme and skip the write.
        let min = self.word(c, MIN);
        if n < min.load(Ordering::Relaxed) {
            min.fetch_min(n, Ordering::Relaxed);
        }
        let max = self.word(c, MAX);
        if n > max.load(Ordering::Relaxed) {
            max.fetch_max(n, Ordering::Relaxed);
        }
        self.word(c, BUCKETS + i).fetch_add(1, Ordering::Release);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.snapshot().count
    }

    /// A point-in-time copy of the histogram's state: every cell folded.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; self.bounds.len() + 1];
        let (mut sum, mut min, mut max) = (0i64, i64::MAX, i64::MIN);
        for c in 0..CELLS {
            for (i, b) in buckets.iter_mut().enumerate() {
                // Counts only grow from zero, so the word is never negative.
                *b += self.word(c, BUCKETS + i).load(Ordering::Acquire) as u64;
            }
            sum = sum.wrapping_add(self.word(c, SUM).load(Ordering::Relaxed));
            min = min.min(self.word(c, MIN).load(Ordering::Relaxed));
            max = max.max(self.word(c, MAX).load(Ordering::Relaxed));
        }
        let count = buckets.iter().sum();
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets,
            count,
            sum: from_nanos(sum),
            min: (count > 0).then(|| from_nanos(min)),
            max: (count > 0).then(|| from_nanos(max)),
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

/// A metric kind the registry hands out: how a handle is stored in and
/// recovered from a [`Metric`] slot.
trait Kind: Sized {
    fn wrap(handle: Arc<Self>) -> Metric;
    fn unwrap(slot: &Metric) -> Option<Arc<Self>>;
}

impl Kind for Counter {
    fn wrap(handle: Arc<Counter>) -> Metric {
        Metric::Counter(handle)
    }

    fn unwrap(slot: &Metric) -> Option<Arc<Counter>> {
        match slot {
            Metric::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        }
    }
}

impl Kind for Gauge {
    fn wrap(handle: Arc<Gauge>) -> Metric {
        Metric::Gauge(handle)
    }

    fn unwrap(slot: &Metric) -> Option<Arc<Gauge>> {
        match slot {
            Metric::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        }
    }
}

impl Kind for Histogram {
    fn wrap(handle: Arc<Histogram>) -> Metric {
        Metric::Histogram(handle)
    }

    fn unwrap(slot: &Metric) -> Option<Arc<Histogram>> {
        match slot {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        }
    }
}

/// A named collection of metrics. Cheap to share as `Arc<Registry>`;
/// handles returned by the accessors are atomics that outlive the lock.
///
/// Asking for a name already registered as another kind never panics: the
/// caller gets a *detached* metric of the kind it asked for (it records
/// normally but appears in no snapshot), and the `obs.kind_clash` counter
/// counts the clash.
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

    /// The counter named `name`, registering it on first use (detached
    /// if `name` is another kind).
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.resolve(name, Counter::new)
    }

    /// The gauge named `name`, registering it on first use (detached if
    /// `name` is another kind).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.resolve(name, Gauge::new)
    }

    /// The latency histogram named `name` (default exponential bounds),
    /// registering it on first use (detached if `name` is another kind).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.resolve(name, Histogram::latency)
    }

    /// Like [`Registry::histogram`] with explicit bucket bounds (only used
    /// on first registration; later calls return the existing histogram).
    ///
    /// # Panics
    ///
    /// As [`Histogram::with_bounds`].
    #[must_use]
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.resolve(name, || Histogram::with_bounds(bounds))
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        // The map is only ever inserted into, so a panic elsewhere while
        // the lock was held cannot leave it half-updated.
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The `T` named `name`: the registered one, a fresh registration, or
    /// — when `name` holds another kind — a detached one, counted under
    /// `obs.kind_clash`.
    fn resolve<T: Kind>(&self, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
        let mut metrics = self.lock();
        match metrics.get(name) {
            Some(slot) => {
                if let Some(handle) = T::unwrap(slot) {
                    return handle;
                }
                // If `obs.kind_clash` is itself taken by another kind,
                // there is nowhere to count; the caller still gets a metric.
                let clash = metrics
                    .entry(KIND_CLASH.to_owned())
                    .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
                if let Metric::Counter(c) = clash {
                    c.inc();
                }
                Arc::new(make())
            }
            None => {
                let handle = Arc::new(make());
                metrics.insert(name.to_owned(), T::wrap(Arc::clone(&handle)));
                handle
            }
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.lock();
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
    fn kind_clash_hands_out_a_detached_metric_and_counts_it() {
        let r = Registry::new();
        r.counter("m").add(3);
        assert_eq!(r.snapshot().counter(KIND_CLASH), None, "no clash yet");
        let g = r.gauge("m");
        g.set(7);
        assert_eq!(g.get(), 7, "the detached gauge records");
        let h = r.histogram("m");
        h.record(0.5);
        assert_eq!(h.count(), 1, "the detached histogram records");
        let s = r.snapshot();
        // The registered counter is untouched and the detached metrics
        // appear nowhere; each clash is counted once.
        assert_eq!(s.counter("m"), Some(3));
        assert_eq!(s.counter(KIND_CLASH), Some(2));
        assert_eq!(s.entries.len(), 2);
        // A clash on the clash counter's own name still hands out a metric.
        let r = Registry::new();
        r.gauge(KIND_CLASH).set(-1);
        r.gauge("n").set(1);
        r.counter("n").inc();
        assert_eq!(r.snapshot().gauge(KIND_CLASH), Some(-1));
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
    fn per_thread_cells_sum_exactly_to_the_nanosecond() {
        let r = Registry::new();
        let c = r.counter("work");
        let h = r.histogram("lat");
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 1_000;
        // Thread t records (t + 1) µs plus i ns: distinct, fixed durations.
        let nanos = |t: u64, i: u64| (t + 1) * 1_000 + i;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (c, h) = (&c, &h);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record_duration(std::time::Duration::from_nanos(nanos(t, i)));
                    }
                });
            }
        });
        let want_sum: u64 = (0..THREADS)
            .flat_map(|t| (0..PER_THREAD).map(move |i| nanos(t, i)))
            .sum();
        // Read on a thread that never recorded into either metric: the
        // snapshot must fold every cell, not just the reader's.
        let (count, s) = std::thread::spawn(move || (c.get(), h.snapshot()))
            .join()
            .unwrap();
        assert_eq!(count, THREADS * PER_THREAD);
        assert_eq!(s.count, THREADS * PER_THREAD);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert_eq!((s.sum * 1e9).round() as u64, want_sum);
        assert_eq!(s.min, Some(1e-6));
        assert_eq!(s.max, Some(nanos(THREADS - 1, PER_THREAD - 1) as f64 / 1e9));
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
