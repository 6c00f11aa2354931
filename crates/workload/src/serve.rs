//! A repeated-traffic serving workload.
//!
//! The serving scenario the ROADMAP targets is a retrieval endpoint that
//! answers a stream of top-`k` requests against one video database, where
//! a handful of popular queries dominate the traffic. This module builds
//! that stream deterministically: a random video (see [`crate::randomvideo`]),
//! a fixed pool of query formulas exercising every engine path (conjunction,
//! `until`, `eventually`, `next`, attribute comparisons), and a seeded
//! Zipf-like request schedule over the pool — query 1 is hot, the tail is
//! cold, exactly the shape a cross-query cache thrives on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simvid_core::{
    AtomicProvider, Budget, Engine, EngineConfig, EngineError, EngineHandles, Interval,
    RankedSegment, TopKAnswer,
};
use simvid_htl::{parse, Formula};
use simvid_model::VideoTree;
use simvid_obs::Registry;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::randomvideo::{generate, VideoGenConfig};

/// Parameters of the serving workload.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of shots in the served video (leaves of a two-level tree).
    pub shots: u32,
    /// Number of requests in the schedule.
    pub requests: usize,
    /// Skew of the query popularity distribution: request `r` picks query
    /// `i` with probability ∝ `1 / (i + 1)^zipf_exponent`. `0.0` is
    /// uniform; larger is hotter.
    pub zipf_exponent: f64,
    /// `k` of the top-`k` request each schedule slot issues.
    pub k: usize,
    /// Seed for both the video and the schedule.
    pub seed: u64,
    /// Capacity of the warm system's atomic-result cache (`0` disables
    /// caching — useful for demonstrating what the bench gate catches).
    pub cache_capacity: usize,
    /// Worker threads of the concurrent executor (see
    /// [`run_schedule_concurrent`]). `1` still goes through the pool —
    /// use [`run_schedule`] for the plain sequential loop.
    pub workers: usize,
    /// Capacity of the executor's bounded request queue; the producer
    /// blocks when it is full, bounding admitted-but-unserved work.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ServeConfig {
            shots: 400,
            requests: 200,
            zipf_exponent: 1.1,
            k: 10,
            seed: 97,
            cache_capacity: 1024,
            workers,
            queue_depth: 2 * workers,
        }
    }
}

/// A fully materialised serving workload: the video, the query pool, and
/// the request schedule (indices into the pool).
pub struct ServeWorkload {
    /// The served video: a two-level tree (`video` → `shot`).
    pub tree: VideoTree,
    /// The query pool, hottest first.
    pub queries: Vec<Formula>,
    /// The request schedule: `schedule[r]` indexes into `queries`.
    pub schedule: Vec<usize>,
    /// Top-`k` size of every request.
    pub k: usize,
}

impl ServeWorkload {
    /// The depth requests are evaluated at (the shot level).
    #[must_use]
    pub fn depth(&self) -> u8 {
        1
    }

    /// How many distinct queries the schedule actually touches.
    #[must_use]
    pub fn distinct_queries(&self) -> usize {
        let mut seen = vec![false; self.queries.len()];
        for &q in &self.schedule {
            seen[q] = true;
        }
        seen.iter().filter(|s| **s).count()
    }
}

/// The outcome of driving one request schedule through an engine.
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// Per-request ranked top-`k` answers, in schedule order.
    pub results: Vec<Vec<RankedSegment>>,
    /// Wall time of the whole schedule.
    pub elapsed: Duration,
    /// Entries dropped by the upper-bound top-`k` paths, summed over the
    /// schedule.
    pub entries_pruned: usize,
}

/// Drives the request schedule through `engine`, one top-`k` retrieval
/// per slot.
///
/// Each request increments the `serve.requests` counter and records its
/// end-to-end latency into the `serve.request_seconds` histogram of the
/// engine's [`simvid_obs::Registry`] — share a registry across the engine
/// and picture system ([`Engine::with_registry`]) and one snapshot yields
/// the whole serving profile: per-operator spans, cache behaviour, and
/// request latency quantiles.
///
/// # Panics
///
/// Panics if a pool query fails to evaluate (the pool is fixed and
/// closed, so this indicates an engine bug).
#[must_use]
pub fn run_schedule<P: AtomicProvider>(w: &ServeWorkload, engine: &Engine<P>) -> ScheduleRun {
    let requests = engine.registry().counter("serve.requests");
    let latency = engine.registry().histogram("serve.request_seconds");
    let depth = w.depth();
    let mut entries_pruned = 0;
    let start = Instant::now();
    let results = w
        .schedule
        .iter()
        .map(|&q| {
            let t0 = Instant::now();
            let out = engine
                .top_k_closed(&w.queries[q], depth, w.k)
                .expect("serve request evaluates");
            latency.record_duration(t0.elapsed());
            requests.inc();
            entries_pruned += engine.stats().entries_pruned;
            out
        })
        .collect();
    ScheduleRun {
        results,
        elapsed: start.elapsed(),
        entries_pruned,
    }
}

/// How a single resilient request resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The full top-`k` ranking, identical to what [`run_schedule`] would
    /// have produced.
    Ok,
    /// A partial ranking with sound upper bounds on the unresolved
    /// segments (budget violation or a provider that gave up after
    /// retries).
    Degraded,
    /// No usable answer: a worker panic was captured, or the engine
    /// rejected the request outright.
    Failed,
    /// The request was rejected at admission: the executor queue was
    /// saturated and the admission policy chose load shedding over
    /// blocking (see [`AdmissionConfig::shed_when_full`]). Never
    /// evaluated, so there is no partial answer — callers retry against
    /// another instance.
    Shed,
}

/// The record of one request driven through the resilient serving path.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestReport {
    /// Index into the workload's query pool.
    pub query: usize,
    /// How the request resolved.
    pub outcome: RequestOutcome,
    /// The ranking: complete for [`RequestOutcome::Ok`], partial (possibly
    /// empty) otherwise. Every listed value is a sound *lower* bound on
    /// the segment's true similarity.
    pub ranked: Vec<RankedSegment>,
    /// Sound *upper* bounds on the segments the evaluation did not
    /// resolve; empty for [`RequestOutcome::Ok`].
    pub upper_bounds: Vec<(Interval, f64)>,
    /// Why the request degraded or failed (`None` for
    /// [`RequestOutcome::Ok`]). Deterministic for a fixed fault plan, so
    /// chaos runs can be compared across engines byte for byte.
    pub reason: Option<String>,
}

/// The outcome of driving one request schedule through the resilient path.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// One report per schedule slot, in schedule order.
    pub reports: Vec<RequestReport>,
    /// Wall time of the whole schedule.
    pub elapsed: Duration,
}

impl ResilientRun {
    /// How many requests resolved with the given outcome.
    #[must_use]
    pub fn count(&self, outcome: RequestOutcome) -> usize {
        self.reports.iter().filter(|r| r.outcome == outcome).count()
    }
}

/// Per-request limits applied by [`run_schedule_resilient`]. The default
/// is unlimited: no deadline, no fuel cap.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestLimits {
    /// Wall-clock deadline per request.
    pub deadline: Option<Duration>,
    /// Fuel allowance per request (units of uncached subformula
    /// evaluations).
    pub fuel: Option<u64>,
}

impl RequestLimits {
    fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(deadline) = self.deadline {
            b = b.with_deadline(deadline);
        }
        if let Some(fuel) = self.fuel {
            b = b.with_fuel(fuel);
        }
        b
    }
}

/// Drives the request schedule through the engine's *resilient* top-`k`
/// path: every request gets a fresh [`Budget`] from `limits`, and every
/// request resolves to a classified [`RequestReport`] — the schedule never
/// aborts, whatever the provider throws at it.
///
/// `before_request` runs before each slot with the slot index; fault
/// injection harnesses use it to re-key their deterministic fault schedule
/// per request (e.g. `FaultyProvider::set_epoch`).
///
/// Outcomes are counted in the engine registry under `serve.outcome.ok` /
/// `serve.outcome.degraded` / `serve.outcome.failed`, next to the same
/// `serve.requests` counter and `serve.request_seconds` histogram
/// [`run_schedule`] records.
#[must_use]
pub fn run_schedule_resilient<P: AtomicProvider>(
    w: &ServeWorkload,
    engine: &Engine<P>,
    limits: RequestLimits,
    mut before_request: impl FnMut(usize),
) -> ResilientRun {
    let requests = engine.registry().counter("serve.requests");
    let latency = engine.registry().histogram("serve.request_seconds");
    let ok = engine.registry().counter("serve.outcome.ok");
    let degraded = engine.registry().counter("serve.outcome.degraded");
    let failed = engine.registry().counter("serve.outcome.failed");
    let shed = engine.registry().counter("serve.outcome.shed");
    let depth = w.depth();
    let start = Instant::now();
    let reports = w
        .schedule
        .iter()
        .enumerate()
        .map(|(r, &q)| {
            before_request(r);
            let budget = limits.budget();
            let t0 = Instant::now();
            let report = resolve_request(w, engine, q, depth, w.k, &budget);
            latency.record_duration(t0.elapsed());
            requests.inc();
            match report.outcome {
                RequestOutcome::Ok => ok.inc(),
                RequestOutcome::Degraded => degraded.inc(),
                RequestOutcome::Failed => failed.inc(),
                RequestOutcome::Shed => shed.inc(),
            }
            report
        })
        .collect();
    ResilientRun {
        reports,
        elapsed: start.elapsed(),
    }
}

/// Evaluates one resilient request and classifies the answer into a
/// [`RequestReport`]. Shared by the sequential and concurrent resilient
/// paths so a request classifies identically wherever it runs; counters
/// are the caller's job — each request is counted exactly once, by whoever
/// resolved it.
fn resolve_request<P: AtomicProvider>(
    w: &ServeWorkload,
    engine: &Engine<P>,
    q: usize,
    depth: u8,
    k: usize,
    budget: &Budget,
) -> RequestReport {
    // Belt and braces: the engine already catches panics at its worker
    // joins and at the resilient boundary, but a serving loop must survive
    // even a panic in a path that boundary does not cover.
    let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.top_k_closed_resilient(&w.queries[q], depth, k, budget)
    }))
    .unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        Err(EngineError::WorkerPanic(msg))
    });
    match answer {
        Ok(TopKAnswer::Complete(ranked)) => RequestReport {
            query: q,
            outcome: RequestOutcome::Ok,
            ranked,
            upper_bounds: Vec::new(),
            reason: None,
        },
        // A captured panic means the evaluation state is suspect:
        // classify as failed even though partial data came back.
        Ok(TopKAnswer::Degraded(d)) => RequestReport {
            query: q,
            outcome: if matches!(d.reason, EngineError::WorkerPanic(_)) {
                RequestOutcome::Failed
            } else {
                RequestOutcome::Degraded
            },
            ranked: d.ranked_so_far,
            upper_bounds: d.unresolved_upper_bounds,
            reason: Some(d.reason.to_string()),
        },
        Err(e) => RequestReport {
            query: q,
            outcome: RequestOutcome::Failed,
            ranked: Vec::new(),
            upper_bounds: Vec::new(),
            reason: Some(e.to_string()),
        },
    }
}

/// Shape of the concurrent serving executor: how many worker threads
/// drain the schedule, and how much admitted-but-unserved work the
/// bounded request queue may hold (the producer blocks when it is full).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads in the fixed-size pool. `0` makes
    /// [`crate::shard::run_corpus`] answer inline on the calling thread;
    /// the single-video pool runners treat it as 1.
    pub workers: usize,
    /// Bounded queue capacity (at least 1).
    pub queue_depth: usize,
}

impl ExecutorConfig {
    /// An executor of `workers` threads with the default queue depth of
    /// twice the pool size (at least 1).
    #[must_use]
    pub fn with_workers(workers: usize) -> ExecutorConfig {
        ExecutorConfig {
            workers,
            queue_depth: (2 * workers).max(1),
        }
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig::with_workers(
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        )
    }
}

impl From<&ServeConfig> for ExecutorConfig {
    fn from(cfg: &ServeConfig) -> Self {
        ExecutorConfig {
            workers: cfg.workers.max(1),
            queue_depth: cfg.queue_depth.max(1),
        }
    }
}

/// Scheduling class of one admitted request. High-priority requests jump
/// the normal lane of the executor queue — admission order within a lane
/// stays FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before any queued normal-priority request.
    High,
    /// The default lane.
    #[default]
    Normal,
}

/// What [`BoundedQueue::try_push`] did with the offered item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TryPush {
    /// Enqueued.
    Admitted,
    /// The queue is at capacity; the item was not enqueued.
    Full,
    /// The queue closed early (a worker panicked); the item was not
    /// enqueued.
    Closed,
}

/// The bounded MPMC request queue between the schedule producer and the
/// worker pool: two FIFO lanes ([`Priority::High`] drains first), a shared
/// capacity across both. Backpressure by blocking — `push` waits while the
/// queue is full, `pop` waits while it is empty and not yet closed — or by
/// shedding through the non-blocking [`BoundedQueue::try_push`].
///
/// The `serve.queue_depth` gauge mirrors the live length, and every
/// producer blocked on a full queue first counts one
/// `serve.queue.full_waits` — the saturation signal admission control
/// keys off.
pub(crate) struct BoundedQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    depth: Arc<simvid_obs::Gauge>,
    full_waits: Arc<simvid_obs::Counter>,
}

struct QueueState {
    high: VecDeque<usize>,
    normal: VecDeque<usize>,
    closed: bool,
}

impl QueueState {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    fn lane(&mut self, priority: Priority) -> &mut VecDeque<usize> {
        match priority {
            Priority::High => &mut self.high,
            Priority::Normal => &mut self.normal,
        }
    }
}

impl BoundedQueue {
    pub(crate) fn new(capacity: usize, registry: &Registry) -> BoundedQueue {
        BoundedQueue {
            state: Mutex::new(QueueState {
                high: VecDeque::new(),
                normal: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            depth: registry.gauge("serve.queue_depth"),
            full_waits: registry.counter("serve.queue.full_waits"),
        }
    }

    /// Admits `item` at normal priority, blocking while the queue is full.
    /// Returns `false` without admitting when the queue closed early (a
    /// worker panicked).
    pub(crate) fn push(&self, item: usize) -> bool {
        self.push_with(item, Priority::Normal)
    }

    /// Admits `item` into its priority lane, blocking while the queue is
    /// full (counted in `serve.queue.full_waits`). Returns `false` without
    /// admitting when the queue closed early.
    pub(crate) fn push_with(&self, item: usize, priority: Priority) -> bool {
        let mut st = self.state.lock().expect("serve queue lock");
        if st.len() >= self.capacity && !st.closed {
            self.full_waits.inc();
            while st.len() >= self.capacity && !st.closed {
                st = self.not_full.wait(st).expect("serve queue lock");
            }
        }
        if st.closed {
            return false;
        }
        st.lane(priority).push_back(item);
        self.depth.add(1);
        self.not_empty.notify_one();
        true
    }

    /// Offers `item` without blocking: [`TryPush::Full`] when the queue is
    /// saturated — the load-shed path of [`run_schedule_admission`].
    pub(crate) fn try_push(&self, item: usize, priority: Priority) -> TryPush {
        let mut st = self.state.lock().expect("serve queue lock");
        if st.closed {
            return TryPush::Closed;
        }
        if st.len() >= self.capacity {
            return TryPush::Full;
        }
        st.lane(priority).push_back(item);
        self.depth.add(1);
        self.not_empty.notify_one();
        TryPush::Admitted
    }

    /// The live queue length (both lanes) — the brownout watermark signal.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("serve queue lock").len()
    }

    /// The next request index — high lane first — or `None` once the
    /// queue is closed and drained.
    pub(crate) fn pop(&self) -> Option<usize> {
        let mut st = self.state.lock().expect("serve queue lock");
        loop {
            if let Some(item) = st.high.pop_front().or_else(|| st.normal.pop_front()) {
                self.depth.sub(1);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("serve queue lock");
        }
    }

    pub(crate) fn close(&self) {
        // Runs from a panicking worker's drop guard too: recover from the
        // (unlikely) poisoned lock rather than aborting on double panic.
        let mut st = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes the queue when a worker unwinds, so the producer and sibling
/// workers drain and exit instead of blocking forever; the panic itself
/// resurfaces at the thread-scope join.
pub(crate) struct CloseOnPanic<'a>(pub(crate) &'a BoundedQueue);

impl Drop for CloseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// Drives the request schedule through a fixed-size pool of
/// `exec.workers` threads (a [`std::thread::scope`] — no runtime
/// dependency) fed by a bounded queue, and returns results **in original
/// schedule order** regardless of completion order: each worker writes
/// into the slot of the request it served.
///
/// Every worker builds its own [`Engine`] over the shared `provider` and
/// `registry`, so per-evaluation memo state stays request-private — the
/// only cross-request sharing is the provider's atomic-result cache,
/// whose singleflight layer coalesces concurrent misses on one key into
/// a single computation. Results are therefore bit-identical to
/// [`run_schedule`] for every worker count: rankings never depend on
/// cache state, only the work to produce them does.
///
/// On top of the sequential path's `serve.requests` /
/// `serve.request_seconds` metrics this records the `serve.queue_depth`
/// gauge, one `serve.worker.{i}.request_seconds` histogram per worker,
/// and `serve.inflight_coalesced` — how many lookups of this run
/// coalesced onto another request's in-flight computation instead of
/// recomputing.
///
/// # Panics
///
/// As [`run_schedule`]: panics if a pool query fails to evaluate. A
/// panicking worker closes the queue so the pool shuts down instead of
/// deadlocking, and the panic resurfaces here.
#[must_use]
pub fn run_schedule_concurrent<P: AtomicProvider>(
    w: &ServeWorkload,
    provider: &P,
    engine_config: EngineConfig,
    registry: &Arc<Registry>,
    exec: &ExecutorConfig,
) -> ScheduleRun {
    let workers = exec.workers.max(1);
    let requests = registry.counter("serve.requests");
    let latency = registry.histogram("serve.request_seconds");
    let coalesced_total = registry.counter("cache.coalesced");
    let pruned_total = registry.counter("engine.prune.entries_pruned");
    let inflight_coalesced = registry.counter("serve.inflight_coalesced");
    let queue = BoundedQueue::new(exec.queue_depth.max(1), registry);
    let depth = w.depth();
    let slots: Vec<Mutex<Option<Vec<RankedSegment>>>> =
        w.schedule.iter().map(|_| Mutex::new(None)).collect();
    let coalesced_before = coalesced_total.get();
    let pruned_before = pruned_total.get();
    let start = Instant::now();
    // One set of engine metric handles for every worker's engine.
    let handles = EngineHandles::new(Arc::clone(registry));
    std::thread::scope(|scope| {
        for wid in 0..workers {
            let queue = &queue;
            let slots = &slots;
            let requests = &requests;
            let latency = &latency;
            let worker_latency = registry.histogram(&format!("serve.worker.{wid}.request_seconds"));
            let handles = Arc::clone(&handles);
            scope.spawn(move || {
                let _guard = CloseOnPanic(queue);
                let engine = Engine::with_handles(provider, &w.tree, engine_config, handles);
                while let Some(r) = queue.pop() {
                    let t0 = Instant::now();
                    let out = engine
                        .top_k_closed(&w.queries[w.schedule[r]], depth, w.k)
                        .expect("serve request evaluates");
                    let elapsed = t0.elapsed();
                    latency.record_duration(elapsed);
                    worker_latency.record_duration(elapsed);
                    requests.inc();
                    *slots[r].lock().expect("result slot lock") = Some(out);
                }
            });
        }
        for r in 0..w.schedule.len() {
            if !queue.push(r) {
                break; // a worker panicked; the scope join re-panics below
            }
        }
        queue.close();
    });
    inflight_coalesced.add(coalesced_total.get() - coalesced_before);
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every admitted request resolves")
        })
        .collect();
    ScheduleRun {
        results,
        elapsed: start.elapsed(),
        // Summed over the whole run from the shared registry: per-request
        // engine deltas are not meaningful when workers interleave, but
        // the cumulative counter is exact and equals the sequential sum.
        entries_pruned: (pruned_total.get() - pruned_before) as usize,
    }
}

/// Concurrent twin of [`run_schedule_resilient`]: the same fixed-size
/// worker pool and bounded queue as [`run_schedule_concurrent`], with
/// every request resolved to a classified [`RequestReport`]. Reports come
/// back **in schedule order** whatever order requests complete in, and
/// each request increments exactly one `serve.outcome.*` counter — on the
/// worker that resolved it, so the counters are exact under concurrent
/// completion.
///
/// Per-request [`Budget`]s are inherited from `limits` as in the
/// sequential path. `cancel` is an optional schedule-level budget for
/// cooperative cancellation: once it is violated (deadline passed, fuel
/// exhausted, or [`Budget::cancel`] called from another thread), every
/// not-yet-evaluated request's budget is cancelled up front, so the pool
/// drains quickly with degraded answers (sound upper bounds) instead of
/// evaluating doomed work.
///
/// `before_request` runs on the worker thread that evaluates the slot,
/// immediately before evaluation — fault harnesses pin their per-thread
/// epoch there (e.g. `FaultyProvider::set_thread_epoch`). It must be
/// `Fn + Sync` since slots resolve concurrently.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_schedule_resilient_concurrent<P: AtomicProvider>(
    w: &ServeWorkload,
    provider: &P,
    engine_config: EngineConfig,
    registry: &Arc<Registry>,
    limits: RequestLimits,
    exec: &ExecutorConfig,
    cancel: Option<&Budget>,
    before_request: impl Fn(usize) + Sync,
) -> ResilientRun {
    let workers = exec.workers.max(1);
    let requests = registry.counter("serve.requests");
    let latency = registry.histogram("serve.request_seconds");
    let ok = registry.counter("serve.outcome.ok");
    let degraded = registry.counter("serve.outcome.degraded");
    let failed = registry.counter("serve.outcome.failed");
    let shed = registry.counter("serve.outcome.shed");
    let coalesced_total = registry.counter("cache.coalesced");
    let inflight_coalesced = registry.counter("serve.inflight_coalesced");
    let queue = BoundedQueue::new(exec.queue_depth.max(1), registry);
    let depth = w.depth();
    let slots: Vec<Mutex<Option<RequestReport>>> =
        w.schedule.iter().map(|_| Mutex::new(None)).collect();
    let coalesced_before = coalesced_total.get();
    let start = Instant::now();
    // One set of engine metric handles for every worker's engine.
    let handles = EngineHandles::new(Arc::clone(registry));
    std::thread::scope(|scope| {
        for wid in 0..workers {
            let queue = &queue;
            let slots = &slots;
            let requests = &requests;
            let latency = &latency;
            let (ok, degraded, failed, shed) = (&ok, &degraded, &failed, &shed);
            let before_request = &before_request;
            let worker_latency = registry.histogram(&format!("serve.worker.{wid}.request_seconds"));
            let handles = Arc::clone(&handles);
            scope.spawn(move || {
                let _guard = CloseOnPanic(queue);
                let engine = Engine::with_handles(provider, &w.tree, engine_config, handles);
                while let Some(r) = queue.pop() {
                    before_request(r);
                    let budget = limits.budget();
                    if cancel.is_some_and(|c| c.check().is_err()) {
                        budget.cancel();
                    }
                    let t0 = Instant::now();
                    let report = resolve_request(w, &engine, w.schedule[r], depth, w.k, &budget);
                    let elapsed = t0.elapsed();
                    latency.record_duration(elapsed);
                    worker_latency.record_duration(elapsed);
                    requests.inc();
                    match report.outcome {
                        RequestOutcome::Ok => ok.inc(),
                        RequestOutcome::Degraded => degraded.inc(),
                        RequestOutcome::Failed => failed.inc(),
                        RequestOutcome::Shed => shed.inc(),
                    }
                    *slots[r].lock().expect("report slot lock") = Some(report);
                }
            });
        }
        for r in 0..w.schedule.len() {
            if !queue.push(r) {
                break;
            }
        }
        queue.close();
    });
    inflight_coalesced.add(coalesced_total.get() - coalesced_before);
    let reports = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("report slot lock")
                .expect("every admitted request resolves")
        })
        .collect();
    ResilientRun {
        reports,
        elapsed: start.elapsed(),
    }
}

/// Degraded-service tuning applied while the executor queue sits at or
/// above its watermark: requests are evaluated with a smaller `k` and an
/// optional fuel cap, trading answer size for admission capacity instead
/// of queueing or shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Queue length (at pop time) at or above which a request is served
    /// browned-out. `0` browns out everything; `usize::MAX` effectively
    /// disables brownout.
    pub watermark: usize,
    /// The lowered top-`k` size under brownout (the effective `k` is the
    /// minimum of this and the workload's `k`).
    pub k: usize,
    /// Additional fuel cap under brownout, on top of the request's normal
    /// [`RequestLimits`].
    pub fuel: Option<u64>,
}

/// Admission policy of [`run_schedule_admission`]: what happens when the
/// bounded queue is full, and whether saturation lowers service quality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// `true` sheds on a full queue ([`RequestOutcome::Shed`], counted in
    /// `serve.outcome.shed`) instead of blocking the producer; `false`
    /// keeps the blocking backpressure of the plain executor (waits
    /// counted in `serve.queue.full_waits` either way).
    pub shed_when_full: bool,
    /// Brownout mode, if any.
    pub brownout: Option<BrownoutConfig>,
}

/// [`run_schedule_resilient_concurrent`] with admission control: a
/// per-request [`Priority`] routes each request into the queue's high or
/// normal lane, a saturated queue either sheds or blocks per
/// [`AdmissionConfig::shed_when_full`], and queue pressure at serve time
/// can brown requests out ([`BrownoutConfig`]) — lowering `k` and capping
/// fuel rather than turning work away.
///
/// Shed requests resolve producer-side to [`RequestOutcome::Shed`] with an
/// [`EngineError::Overloaded`] reason and are counted in `serve.requests`
/// and `serve.outcome.shed` like any other outcome; browned-out requests
/// count `serve.brownout.requests`. With shedding off, no brownout, and a
/// uniform priority, this is exactly the resilient concurrent executor:
/// same queue, same budgets, bit-identical reports.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_schedule_admission<P: AtomicProvider>(
    w: &ServeWorkload,
    provider: &P,
    engine_config: EngineConfig,
    registry: &Arc<Registry>,
    limits: RequestLimits,
    exec: &ExecutorConfig,
    admission: &AdmissionConfig,
    priority: impl Fn(usize) -> Priority + Sync,
) -> ResilientRun {
    let workers = exec.workers.max(1);
    let requests = registry.counter("serve.requests");
    let latency = registry.histogram("serve.request_seconds");
    let ok = registry.counter("serve.outcome.ok");
    let degraded = registry.counter("serve.outcome.degraded");
    let failed = registry.counter("serve.outcome.failed");
    let shed = registry.counter("serve.outcome.shed");
    let browned = registry.counter("serve.brownout.requests");
    let coalesced_total = registry.counter("cache.coalesced");
    let inflight_coalesced = registry.counter("serve.inflight_coalesced");
    let queue = BoundedQueue::new(exec.queue_depth.max(1), registry);
    let depth = w.depth();
    let slots: Vec<Mutex<Option<RequestReport>>> =
        w.schedule.iter().map(|_| Mutex::new(None)).collect();
    let coalesced_before = coalesced_total.get();
    let start = Instant::now();
    // One set of engine metric handles for every worker's engine.
    let handles = EngineHandles::new(Arc::clone(registry));
    std::thread::scope(|scope| {
        for wid in 0..workers {
            let queue = &queue;
            let slots = &slots;
            let requests = &requests;
            let latency = &latency;
            let (ok, degraded, failed, shed) = (&ok, &degraded, &failed, &shed);
            let browned = &browned;
            let worker_latency = registry.histogram(&format!("serve.worker.{wid}.request_seconds"));
            let handles = Arc::clone(&handles);
            scope.spawn(move || {
                let _guard = CloseOnPanic(queue);
                let engine = Engine::with_handles(provider, &w.tree, engine_config, handles);
                while let Some(r) = queue.pop() {
                    // Brownout is decided at serve time from live queue
                    // pressure: the backlog behind this request, not the
                    // backlog when it was admitted.
                    let brownout = admission.brownout.filter(|b| queue.len() >= b.watermark);
                    let mut k = w.k;
                    let mut budget = limits.budget();
                    if let Some(b) = brownout {
                        browned.inc();
                        k = k.min(b.k);
                        if let Some(fuel) = b.fuel {
                            budget = budget.with_fuel(fuel);
                        }
                    }
                    let t0 = Instant::now();
                    let report = resolve_request(w, &engine, w.schedule[r], depth, k, &budget);
                    let elapsed = t0.elapsed();
                    latency.record_duration(elapsed);
                    worker_latency.record_duration(elapsed);
                    requests.inc();
                    match report.outcome {
                        RequestOutcome::Ok => ok.inc(),
                        RequestOutcome::Degraded => degraded.inc(),
                        RequestOutcome::Failed => failed.inc(),
                        RequestOutcome::Shed => shed.inc(),
                    }
                    *slots[r].lock().expect("report slot lock") = Some(report);
                }
            });
        }
        'produce: for (r, slot) in slots.iter().enumerate().take(w.schedule.len()) {
            let lane = priority(r);
            if admission.shed_when_full {
                match queue.try_push(r, lane) {
                    TryPush::Admitted => {}
                    TryPush::Closed => break 'produce,
                    TryPush::Full => {
                        let report = RequestReport {
                            query: w.schedule[r],
                            outcome: RequestOutcome::Shed,
                            ranked: Vec::new(),
                            upper_bounds: Vec::new(),
                            reason: Some(
                                EngineError::Overloaded("executor queue full".into()).to_string(),
                            ),
                        };
                        requests.inc();
                        shed.inc();
                        *slot.lock().expect("report slot lock") = Some(report);
                    }
                }
            } else if !queue.push_with(r, lane) {
                break 'produce;
            }
        }
        queue.close();
    });
    inflight_coalesced.add(coalesced_total.get() - coalesced_before);
    let reports = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("report slot lock")
                .expect("every admitted request resolves")
        })
        .collect();
    ResilientRun {
        reports,
        elapsed: start.elapsed(),
    }
}

/// The fixed query pool, hottest first. Every formula is closed (no free
/// variables) so each request is a ranked top-`k` retrieval; together they
/// exercise conjunction pruning, `until`, `eventually`, `next` and
/// attribute comparisons.
#[must_use]
pub fn query_pool() -> Vec<Formula> {
    [
        "exists x . person(x) and moving(x)",
        "(exists x . person(x)) until (exists y . horse(y))",
        "eventually (exists x . holds_gun(x))",
        "exists x . exists y . person(y) and near(x, y) and moving(x) and height(x) > 100",
        "exists x . person(x) and eventually (exists y . near(x, y))",
        "next (exists x . moving(x))",
        "exists x . height(x) > 150",
        "(exists x . moving(x)) and eventually (exists y . fires_at(y))",
    ]
    .iter()
    .map(|q| parse(q).expect("serve pool formula parses"))
    .collect()
}

/// Builds the workload. Deterministic in `cfg.seed`.
#[must_use]
pub fn build(cfg: &ServeConfig) -> ServeWorkload {
    let tree = generate(
        &VideoGenConfig {
            branching: vec![cfg.shots],
            object_count: 10,
            objects_per_leaf: 3.0,
            ..VideoGenConfig::default()
        },
        cfg.seed,
    );
    let queries = query_pool();
    // Zipf-like sampling by inverse-power weights over the pool ranks.
    let weights: Vec<f64> = (0..queries.len())
        .map(|i| 1.0 / ((i + 1) as f64).powf(cfg.zipf_exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let schedule = (0..cfg.requests)
        .map(|_| {
            let mut pick = rng.gen_range(0.0..total);
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    return i;
                }
                pick -= w;
            }
            queries.len() - 1
        })
        .collect();
    ServeWorkload {
        tree,
        queries,
        schedule,
        k: cfg.k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::{classify, FormulaClass};

    #[test]
    fn deterministic_in_seed() {
        let cfg = ServeConfig {
            shots: 20,
            requests: 50,
            ..ServeConfig::default()
        };
        let a = build(&cfg);
        let b = build(&cfg);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.tree.segment_count(), b.tree.segment_count());
    }

    #[test]
    fn schedule_is_skewed_towards_the_head() {
        let w = build(&ServeConfig {
            shots: 4,
            requests: 400,
            ..ServeConfig::default()
        });
        let head = w.schedule.iter().filter(|&&q| q == 0).count();
        let tail = w
            .schedule
            .iter()
            .filter(|&&q| q + 1 == w.queries.len())
            .count();
        assert!(
            head > tail,
            "hot query ({head} hits) should beat the tail ({tail} hits)"
        );
        assert!(w.distinct_queries() > 1, "more than one query in play");
    }

    #[test]
    fn pool_queries_repeat_no_subformula() {
        // Every read of the pool therefore skips the engine's memo.
        for f in query_pool() {
            assert!(!simvid_core::Plan::new(&f).repeats_subformula(), "{f}");
        }
    }

    #[test]
    fn resilient_fault_free_matches_plain_schedule() {
        let cfg = ServeConfig {
            shots: 12,
            requests: 16,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let sys =
            simvid_picture::PictureSystem::new(&w.tree, simvid_picture::ScoringConfig::default());
        let engine = Engine::new(&sys, &w.tree);
        let plain = run_schedule(&w, &engine);
        let resilient = run_schedule_resilient(&w, &engine, RequestLimits::default(), |_| {});
        assert_eq!(resilient.count(RequestOutcome::Ok), w.schedule.len());
        for (report, expect) in resilient.reports.iter().zip(&plain.results) {
            assert_eq!(&report.ranked, expect, "fault-free path must be identical");
            assert!(report.upper_bounds.is_empty());
            assert_eq!(report.reason, None);
        }
        let snap = engine.registry().snapshot();
        assert_eq!(snap.counter("serve.outcome.ok"), Some(16));
        assert_eq!(snap.counter("serve.outcome.degraded"), Some(0));
        assert_eq!(snap.counter("serve.outcome.failed"), Some(0));
    }

    #[test]
    fn resilient_zero_deadline_degrades_without_aborting() {
        let cfg = ServeConfig {
            shots: 8,
            requests: 6,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let sys =
            simvid_picture::PictureSystem::new(&w.tree, simvid_picture::ScoringConfig::default());
        let engine = Engine::new(&sys, &w.tree);
        let limits = RequestLimits {
            deadline: Some(Duration::ZERO),
            fuel: None,
        };
        let run = run_schedule_resilient(&w, &engine, limits, |_| {});
        assert_eq!(run.reports.len(), 6);
        assert_eq!(run.count(RequestOutcome::Degraded), 6);
        for report in &run.reports {
            assert_eq!(report.reason.as_deref(), Some("request deadline exceeded"));
            assert!(
                !report.upper_bounds.is_empty(),
                "degraded answers carry upper bounds"
            );
        }
    }

    #[test]
    fn concurrent_results_match_sequential_in_schedule_order() {
        let cfg = ServeConfig {
            shots: 12,
            requests: 24,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let sys =
            simvid_picture::PictureSystem::new(&w.tree, simvid_picture::ScoringConfig::default());
        let engine = Engine::new(&sys, &w.tree);
        let sequential = run_schedule(&w, &engine);
        let registry = Arc::new(simvid_obs::Registry::new());
        let sys2 = simvid_picture::PictureSystem::with_registry(
            &w.tree,
            simvid_picture::ScoringConfig::default(),
            simvid_picture::CacheConfig::default(),
            registry.clone(),
        );
        let concurrent = run_schedule_concurrent(
            &w,
            &sys2,
            EngineConfig::default(),
            &registry,
            &ExecutorConfig::with_workers(3),
        );
        assert_eq!(concurrent.results, sequential.results);
        assert_eq!(concurrent.entries_pruned, sequential.entries_pruned);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(24));
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
    }

    #[test]
    fn concurrent_resilient_zero_deadline_reports_stay_ordered() {
        let cfg = ServeConfig {
            shots: 8,
            requests: 10,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let registry = Arc::new(simvid_obs::Registry::new());
        let sys = simvid_picture::PictureSystem::with_registry(
            &w.tree,
            simvid_picture::ScoringConfig::default(),
            simvid_picture::CacheConfig::default(),
            registry.clone(),
        );
        let limits = RequestLimits {
            deadline: Some(Duration::ZERO),
            fuel: None,
        };
        let run = run_schedule_resilient_concurrent(
            &w,
            &sys,
            EngineConfig::default(),
            &registry,
            limits,
            &ExecutorConfig::with_workers(4),
            None,
            |_| {},
        );
        assert_eq!(run.reports.len(), 10);
        assert_eq!(run.count(RequestOutcome::Degraded), 10);
        // Slot `r` must hold slot `r`'s query whatever order workers
        // finished in.
        for (report, &q) in run.reports.iter().zip(&w.schedule) {
            assert_eq!(report.query, q);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.outcome.degraded"), Some(10));
        assert_eq!(snap.counter("serve.requests"), Some(10));
    }

    #[test]
    fn cooperative_cancel_degrades_instead_of_evaluating() {
        let cfg = ServeConfig {
            shots: 8,
            requests: 6,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let registry = Arc::new(simvid_obs::Registry::new());
        let sys = simvid_picture::PictureSystem::with_registry(
            &w.tree,
            simvid_picture::ScoringConfig::default(),
            simvid_picture::CacheConfig::default(),
            registry.clone(),
        );
        let cancel = Budget::unlimited();
        cancel.cancel();
        let run = run_schedule_resilient_concurrent(
            &w,
            &sys,
            EngineConfig::default(),
            &registry,
            RequestLimits::default(),
            &ExecutorConfig::with_workers(2),
            Some(&cancel),
            |_| {},
        );
        assert_eq!(run.reports.len(), 6);
        assert_eq!(
            run.count(RequestOutcome::Degraded),
            6,
            "a cancelled schedule budget must degrade every request"
        );
        for report in &run.reports {
            assert!(report.reason.is_some());
            assert!(
                !report.upper_bounds.is_empty(),
                "cancelled requests still carry sound upper bounds"
            );
        }
    }

    #[test]
    fn queue_priority_lanes_and_try_push() {
        let registry = Registry::new();
        let q = BoundedQueue::new(2, &registry);
        assert_eq!(q.try_push(0, Priority::Normal), TryPush::Admitted);
        assert_eq!(q.try_push(1, Priority::High), TryPush::Admitted);
        assert_eq!(q.try_push(2, Priority::Normal), TryPush::Full);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1), "high lane drains first");
        assert_eq!(q.pop(), Some(0));
        q.close();
        assert_eq!(q.pop(), None);
        assert_eq!(q.try_push(3, Priority::Normal), TryPush::Closed);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("serve.queue.full_waits"),
            Some(0),
            "try_push never blocks, so it never counts a full wait"
        );
    }

    #[test]
    fn saturated_queue_counts_full_waits() {
        let registry = Registry::new();
        let q = BoundedQueue::new(1, &registry);
        let waits = registry.counter("serve.queue.full_waits");
        assert!(q.push(0), "first push fits without waiting");
        assert_eq!(waits.get(), 0);
        std::thread::scope(|scope| {
            let q = &q;
            scope.spawn(move || {
                assert!(q.push(1), "blocked push completes once a slot frees");
            });
            // Deterministic rendezvous: the counter ticks *before* the
            // producer parks, so spinning on it cannot miss the wait.
            while waits.get() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(q.pop(), Some(0));
            assert_eq!(q.pop(), Some(1));
        });
        assert_eq!(waits.get(), 1, "exactly one producer waited");
    }

    /// Delegating provider that parks every table call until the run's
    /// first request has been shed — pinning the executor saturated so the
    /// shed path is exercised deterministically.
    struct GateProvider<'a> {
        inner: simvid_picture::PictureSystem<'a>,
        release_when: Arc<simvid_obs::Counter>,
        released: std::sync::atomic::AtomicBool,
    }

    impl GateProvider<'_> {
        fn wait(&self) {
            use std::sync::atomic::Ordering;
            if self.released.load(Ordering::Acquire) {
                return;
            }
            while self.release_when.get() == 0 {
                std::thread::yield_now();
            }
            self.released.store(true, Ordering::Release);
        }
    }

    impl AtomicProvider for GateProvider<'_> {
        fn atomic_table(
            &self,
            unit: &simvid_htl::AtomicUnit,
            ctx: simvid_core::engine::SeqContext,
        ) -> Arc<simvid_core::SimilarityTable> {
            self.wait();
            self.inner.atomic_table(unit, ctx)
        }

        fn atomic_max(&self, unit: &simvid_htl::AtomicUnit) -> f64 {
            self.inner.atomic_max(unit)
        }

        fn value_table(
            &self,
            func: &simvid_htl::AttrFn,
            ctx: simvid_core::engine::SeqContext,
        ) -> simvid_core::ValueTable {
            self.wait();
            self.inner.value_table(func, ctx)
        }
    }

    #[test]
    fn saturation_sheds_instead_of_blocking() {
        let cfg = ServeConfig {
            shots: 8,
            requests: 8,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let registry = Arc::new(simvid_obs::Registry::new());
        let sys = GateProvider {
            inner: simvid_picture::PictureSystem::with_registry(
                &w.tree,
                simvid_picture::ScoringConfig::default(),
                simvid_picture::CacheConfig::default(),
                registry.clone(),
            ),
            release_when: registry.counter("serve.outcome.shed"),
            released: std::sync::atomic::AtomicBool::new(false),
        };
        let run = run_schedule_admission(
            &w,
            &sys,
            EngineConfig::default(),
            &registry,
            RequestLimits::default(),
            &ExecutorConfig {
                workers: 1,
                queue_depth: 1,
            },
            &AdmissionConfig {
                shed_when_full: true,
                brownout: None,
            },
            |_| Priority::Normal,
        );
        assert_eq!(run.reports.len(), 8, "every slot resolves, shed or served");
        let sheds = run.count(RequestOutcome::Shed);
        assert!(sheds >= 1, "a single stalled worker must shed overflow");
        for report in &run.reports {
            if report.outcome == RequestOutcome::Shed {
                assert!(report.ranked.is_empty());
                assert!(report.reason.as_deref().unwrap().contains("overload"));
            } else {
                assert_eq!(report.outcome, RequestOutcome::Ok);
            }
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.outcome.shed"), Some(sheds as u64));
        assert_eq!(snap.counter("serve.requests"), Some(8));
    }

    #[test]
    fn brownout_lowers_k_under_pressure() {
        let cfg = ServeConfig {
            shots: 12,
            requests: 12,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let registry = Arc::new(simvid_obs::Registry::new());
        let sys = simvid_picture::PictureSystem::with_registry(
            &w.tree,
            simvid_picture::ScoringConfig::default(),
            simvid_picture::CacheConfig::default(),
            registry.clone(),
        );
        let run = run_schedule_admission(
            &w,
            &sys,
            EngineConfig::default(),
            &registry,
            RequestLimits::default(),
            &ExecutorConfig::with_workers(2),
            &AdmissionConfig {
                shed_when_full: false,
                // Watermark 0: the backlog is always >= 0, so every
                // request serves browned-out — deterministic whatever the
                // actual queue pressure.
                brownout: Some(BrownoutConfig {
                    watermark: 0,
                    k: 1,
                    fuel: None,
                }),
            },
            |_| Priority::Normal,
        );
        assert_eq!(run.count(RequestOutcome::Ok), 12);
        for report in &run.reports {
            assert!(
                report.ranked.len() <= 1,
                "browned-out requests serve at most k=1"
            );
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.brownout.requests"), Some(12));
    }

    #[test]
    fn admission_without_pressure_matches_the_resilient_path() {
        let cfg = ServeConfig {
            shots: 12,
            requests: 16,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let sys =
            simvid_picture::PictureSystem::new(&w.tree, simvid_picture::ScoringConfig::default());
        let engine = Engine::new(&sys, &w.tree);
        let reference = run_schedule_resilient(&w, &engine, RequestLimits::default(), |_| {});
        let registry = Arc::new(simvid_obs::Registry::new());
        let sys2 = simvid_picture::PictureSystem::with_registry(
            &w.tree,
            simvid_picture::ScoringConfig::default(),
            simvid_picture::CacheConfig::default(),
            registry.clone(),
        );
        let run = run_schedule_admission(
            &w,
            &sys2,
            EngineConfig::default(),
            &registry,
            RequestLimits::default(),
            &ExecutorConfig::with_workers(3),
            &AdmissionConfig {
                shed_when_full: false,
                brownout: Some(BrownoutConfig {
                    watermark: usize::MAX,
                    k: 1,
                    fuel: Some(0),
                }),
            },
            |r| {
                if r % 2 == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                }
            },
        );
        assert_eq!(
            run.reports, reference.reports,
            "no saturation: admission control must be invisible"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.outcome.shed"), Some(0));
        assert_eq!(snap.counter("serve.brownout.requests"), Some(0));
    }

    #[test]
    fn pool_formulas_are_closed_and_evaluable() {
        for f in query_pool() {
            assert_ne!(
                classify(&f),
                FormulaClass::General,
                "serve pool must stay inside the engine's fragment: {f}"
            );
        }
    }
}
