//! First-party observability for the simvid workspace.
//!
//! The serving system the ROADMAP targets needs per-operator cost
//! accounting that survives refactors: counters for the work the engine
//! does, gauges for what the caches hold, and latency histograms for what
//! requests cost. This crate provides exactly that with **zero
//! dependencies** (std only), so every other crate — including `core`,
//! which sits at the bottom of the dependency graph — can afford to depend
//! on it:
//!
//! * [`Registry`] — a named collection of metrics. Handles
//!   ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed atomics:
//!   recording never takes the registry lock, and every handle is `Sync`,
//!   so concurrently served requests can report freely. Counters and
//!   histograms record into per-thread cache-line-padded cells that only
//!   a read sums, so threads sharing a metric do not contend on it. A
//!   name clash between metric kinds hands out a detached metric and
//!   counts `obs.kind_clash`; it never panics.
//! * [`Histogram`] — fixed-bucket latency histograms with explicit
//!   underflow/overflow buckets, integer nano-unit sum/min/max and
//!   bucket-interpolated quantiles (p50/p95/p99), good enough for
//!   regression gates without storing samples.
//! * [`Tracer`]/[`Subscriber`] — hierarchical span timing with a
//!   pluggable subscriber. The default [`RegistrySubscriber`] folds span
//!   durations into `<prefix>.span.<name>` histograms resolved up front;
//!   a disabled tracer costs one branch per span.
//! * [`Snapshot`] — a point-in-time copy of a registry, renderable as
//!   JSON (hand-rolled; this crate stays dependency-free) or as an
//!   aligned text summary for terminal output.
//!
//! Metric names are dot-separated and namespaced by subsystem:
//! `engine.*` (evaluation work and span timings), `cache.*` (the picture
//! system's cross-query atomic cache), `serve.*` (the serving workload).
//! See `docs/observability.md` for the full namespace.

mod metrics;
mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry, Snapshot};
pub use span::{RegistrySubscriber, Span, Subscriber, Tracer};
