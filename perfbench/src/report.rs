//! Turns measured windows into the named end-to-end and per-layer
//! metrics.

use crate::harness::{peak_rss_mb, Verified, Window};
use crate::stats::{mean, quantile, ratio};
use crate::trace::{breakdown, Breakdown};

/// One named metric. `base` states what a ratio or average is taken over.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, base: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        base,
    }
}

/// Everything one run of one workload measured.
pub struct Run {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced trials; in a traced run, one untraced window and then
    /// the traced one.
    pub windows: Vec<Window>,
    pub traced: bool,
    pub verified: Verified,
    /// Shots one request scans.
    pub shots: f64,
}

impl Run {
    /// Reads plus mutation batches sent across all windows.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.windows.iter().map(|w| w.attempted).sum()
    }

    /// Operations that errored, degraded or failed the oracle.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.windows.iter().map(|w| w.errors).sum::<u64>() + self.verified.mismatches
    }

    /// Answers of the traced window agree with the untraced window's on
    /// every `(query, epoch)` pair both served.
    #[must_use]
    pub fn traced_answers_match(&self) -> bool {
        let [untraced, traced] = &self.windows[..] else {
            return true;
        };
        let seen: std::collections::HashMap<(usize, u64), u64> = untraced
            .answers
            .iter()
            .map(|&(q, e, h)| ((q, e), h))
            .collect();
        traced
            .answers
            .iter()
            .all(|&(q, e, h)| seen.get(&(q, e)).is_none_or(|&u| u == h))
    }
}

/// Milliseconds per read of a registry sum given in seconds.
fn ms_per(sum_s: f64, reads: f64) -> f64 {
    ratio(sum_s * 1e3, reads)
}

/// The median over trials of `f` applied to each trial's read latencies
/// and elapsed seconds.
fn median_over(trials: &[&Window], f: impl Fn(&[f64], f64) -> f64) -> f64 {
    let per: Vec<f64> = trials.iter().map(|w| f(&w.reads, w.elapsed)).collect();
    quantile(&per, 0.5)
}

/// The end-to-end metrics. Latency and throughput are the median over the
/// untraced trials, so a slow stretch of a shared machine moves at most a
/// minority of them.
#[must_use]
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let t: Vec<&Window> = untraced(run).collect();
    let t = &t[..];
    let fewest = t.iter().map(|w| w.reads.len()).min().unwrap_or(0);
    let reads: usize = t.iter().map(|w| w.reads.len()).sum();
    let trials = format!("median of {} trials, >= {fewest} reads each", t.len());
    vec![
        metric(
            "setup_s",
            quantile(&run.setup_s, 0.5),
            "s",
            format!("median of {} set-ups", run.setup_s.len()),
        ),
        metric(
            "query_p50_ms",
            median_over(t, |v, _| quantile(v, 0.5)) * 1e3,
            "ms",
            trials.clone(),
        ),
        metric(
            "query_p99_ms",
            median_over(t, |v, _| quantile(v, 0.99)) * 1e3,
            "ms",
            format!("{trials}, {} beyond p99", fewest / 100),
        ),
        metric(
            "query_qps",
            median_over(t, |v, secs| ratio(v.len() as f64, secs)),
            "1/s",
            format!("{trials}; {reads} reads in all"),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM".into()),
    ]
}

/// Metrics the issue names as end-to-end but that exist only on some
/// workloads or read 0 on a healthy run, so they are printed, not gated.
#[must_use]
pub fn end_to_end_extra(run: &Run) -> Vec<Metric> {
    let applies: Vec<f64> = untraced(run)
        .flat_map(|w| w.applies.iter().copied())
        .collect();
    let b = applies.len();
    vec![
        metric(
            "apply_p50_ms",
            quantile(&applies, 0.5) * 1e3,
            "ms",
            format!("{b} batches"),
        ),
        metric(
            "apply_p90_ms",
            quantile(&applies, 0.9) * 1e3,
            "ms",
            format!("{b} batches, {} beyond", b / 10),
        ),
        metric(
            "failed_frac",
            ratio(run.failed() as f64, run.attempted() as f64),
            "ratio",
            format!("{} failed / {} attempted", run.failed(), run.attempted()),
        ),
    ]
}

/// The run's untraced windows.
fn untraced(run: &Run) -> impl Iterator<Item = &Window> {
    run.windows
        .iter()
        .take(if run.traced { 1 } else { run.windows.len() })
}

/// The span layers: span name, mean and p99 metric names, scale from ns,
/// unit. `corpus.apply` is timed per mutation batch, the rest per read.
const SPAN_LAYERS: [(&str, &str, &str, f64, &str); 7] = [
    ("htl.parse", "htl.parse_us", "htl.parse_us_p99", 1e-3, "us"),
    (
        "corpus.pin",
        "corpus.pin_us",
        "corpus.pin_us_p99",
        1e-3,
        "us",
    ),
    (
        "corpus.apply",
        "corpus.apply_ms",
        "corpus.apply_ms_p99",
        1e-6,
        "ms",
    ),
    (
        "shard.eval",
        "shard.eval_ms",
        "shard.eval_ms_p99",
        1e-6,
        "ms",
    ),
    (
        "shard.gather",
        "shard.gather_us",
        "shard.gather_us_p99",
        1e-3,
        "us",
    ),
    (
        "engine.top_k",
        "engine.top_k_ms",
        "engine.top_k_ms_p99",
        1e-6,
        "ms",
    ),
    (
        "provider.fetch",
        "provider.fetch_ms",
        "provider.fetch_ms_p99",
        1e-6,
        "ms",
    ),
];

fn layer<'b>(b: &'b Breakdown, name: &str) -> &'b [f64] {
    b.layers.get(name).map_or(&[], Vec::as_slice)
}

/// The per-layer metrics: span layers from the traced window's exclusive
/// times, registry layers from the traced window's snapshot diff. The
/// metrics of [`end_to_end_extra`] complete the per-layer set.
#[must_use]
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let (untraced, traced) = (&run.windows[0], &run.windows[1]);
    let reads_b = breakdown(&traced.spans, "request");
    let apply_b = breakdown(&traced.spans, "apply");
    let reads = traced.reads.len() as f64;
    let batches = traced.applies.len() as f64;
    let reg = &traced.reg;
    let per_read = format!("per read, {reads} reads");
    let per_batch = format!("per batch, {batches} batches");

    let eval = reg.hist_sum("engine.span.eval");
    let fetch = reg.hist_sum("engine.span.atomic_fetch");
    let until = reg.hist_sum("engine.span.until_sweep");
    let join = reg.hist_sum("engine.span.join");
    let eventually = reg.hist_sum("engine.span.eventually_sweep");
    let shard_eval_s: f64 = layer(&reads_b, "shard.eval").iter().sum::<f64>() * 1e-9;
    let lookups = reg.counter("cache.lookups");
    let hits = reg.counter("cache.hits");
    let examined = reg.counter("engine.prune.entries_examined");
    let pruned = reg.counter("engine.prune.entries_pruned");
    let memo_hits = reg.counter("engine.memo.hits");
    let memo_lookups = memo_hits + reg.counter("engine.memo.misses");
    let entries = reg.counter("engine.entries_processed");
    let coverage = &reads_b.coverage;
    let outside = coverage.iter().filter(|c| (*c - 1.0).abs() > 0.1).count();
    let (p50_u, p50_t) = (quantile(&untraced.reads, 0.5), quantile(&traced.reads, 0.5));

    // Span layers: mean and p99 of the per-request exclusive time.
    let mut out = Vec::new();
    for (span, name, p99, scale, unit) in SPAN_LAYERS {
        let b = if span == "corpus.apply" {
            &apply_b
        } else {
            &reads_b
        };
        let v = layer(b, span);
        let base = format!("{} requests", v.len());
        out.push(metric(name, mean(v) * scale, unit, format!("mean, {base}")));
        out.push(metric(
            p99,
            quantile(v, 0.99) * scale,
            unit,
            format!("p99, {base}"),
        ));
    }
    out.extend([
        metric(
            "scatter.setup_ms",
            if shard_eval_s > 0.0 {
                ms_per(shard_eval_s - eval, reads)
            } else {
                0.0
            },
            "ms",
            format!("shard.eval spans - engine.span.eval, {per_read}"),
        ),
        metric(
            "engine.self_ms",
            ms_per(eval - fetch - until - join - eventually, reads),
            "ms",
            format!("engine.span.eval - atomic_fetch - kernel spans, {per_read}"),
        ),
        metric(
            "picture.fetch_ms",
            ms_per(fetch, reads),
            "ms",
            format!("engine.span.atomic_fetch, {per_read}"),
        ),
        metric(
            "picture.score_ms",
            ms_per(reg.hist_sum("cache.span.score"), reads),
            "ms",
            format!("cache.span.score, {per_read}"),
        ),
        metric(
            "picture.compile_ms",
            ms_per(reg.hist_sum("cache.span.compile"), reads),
            "ms",
            format!("cache.span.compile, {per_read}"),
        ),
        metric(
            "kernel.until_ms",
            ms_per(until, reads),
            "ms",
            format!("engine.span.until_sweep, {per_read}"),
        ),
        metric(
            "kernel.join_ms",
            ms_per(join, reads),
            "ms",
            format!("engine.span.join, {per_read}"),
        ),
        metric(
            "kernel.eventually_ms",
            ms_per(eventually, reads),
            "ms",
            format!("engine.span.eventually_sweep, {per_read}"),
        ),
        metric(
            "cache.hit_ratio",
            ratio(hits, lookups),
            "ratio",
            format!("{hits} hits / {lookups} lookups"),
        ),
        metric(
            "cache.evictions",
            ratio(reg.counter("cache.evictions"), reads),
            "count",
            per_read.clone(),
        ),
        metric(
            "cache.invalidation.evicted",
            ratio(reg.counter("cache.invalidation.evicted"), batches),
            "count",
            per_batch.clone(),
        ),
        metric(
            "cache.invalidation.retained",
            ratio(reg.counter("cache.invalidation.retained"), batches),
            "count",
            per_batch,
        ),
        metric(
            "engine.entries_per_shot",
            ratio(ratio(entries, reads), run.shots),
            "count",
            format!("{entries} entries / {reads} reads / {} shots", run.shots),
        ),
        metric(
            "engine.prune_ratio",
            ratio(pruned, examined),
            "ratio",
            format!("{pruned} pruned / {examined} examined"),
        ),
        metric(
            "engine.memo_hit_ratio",
            ratio(memo_hits, memo_lookups),
            "ratio",
            format!("{memo_hits} hits / {memo_lookups} lookups"),
        ),
        metric(
            "shard.candidates_pruned",
            ratio(reg.counter("shard.candidates_pruned"), reads),
            "count",
            per_read,
        ),
        metric(
            "trace.overhead_frac",
            ratio(p50_t - p50_u, p50_u),
            "ratio",
            format!(
                "traced p50 {:.4} ms vs untraced p50 {:.4} ms",
                p50_t * 1e3,
                p50_u * 1e3
            ),
        ),
        metric(
            "trace.coverage_frac",
            quantile(coverage, 0.5),
            "ratio",
            format!(
                "median over {} requests of sum(exclusive) / latency",
                coverage.len()
            ),
        ),
        metric(
            "trace.coverage_outside_frac",
            ratio(outside as f64, coverage.len() as f64),
            "ratio",
            format!(
                "{outside} of {} requests off by more than 10%",
                coverage.len()
            ),
        ),
    ]);
    out
}
