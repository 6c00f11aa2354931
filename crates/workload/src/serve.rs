//! A repeated-traffic serving workload, and the worker pool that serves it.
//!
//! The serving scenario the ROADMAP targets is a retrieval endpoint that
//! answers a stream of top-`k` requests against one video database, where
//! a handful of popular queries dominate the traffic. This module builds
//! that stream deterministically: a random video (see [`crate::randomvideo`]),
//! a fixed pool of query formulas exercising every engine path (conjunction,
//! `until`, `eventually`, `next`, attribute comparisons), and a seeded
//! Zipf-like request schedule over the pool — query 1 is hot, the tail is
//! cold, exactly the shape a cross-query cache thrives on.
//!
//! [`run_schedule`] serves the schedule. It and the corpus runner
//! [`crate::shard::run_corpus`] drain their tasks through one worker pool:
//! `exec.workers` scoped threads behind a bounded queue, or the calling
//! thread alone when `workers == 0`. Each task's result lands in its own
//! slot, so answers come back in schedule order, bit-identical at every
//! worker count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simvid_core::{
    AtomicProvider, Budget, Engine, EngineConfig, EngineError, EngineHandles, Interval, Plan,
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shots: 400,
            requests: 200,
            zipf_exponent: 1.1,
            k: 10,
            seed: 97,
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

/// How a single request resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The full top-`k` ranking.
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

/// The record of one served request.
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

/// The outcome of driving one request schedule through [`run_schedule`].
#[derive(Debug, Clone)]
pub struct ScheduleRun {
    /// One report per schedule slot, in schedule order.
    pub reports: Vec<RequestReport>,
    /// Wall time of the whole schedule.
    pub elapsed: Duration,
    /// Entries dropped by the upper-bound top-`k` paths over the run: the
    /// run's delta of the registry's `engine.prune.entries_pruned`, the
    /// same at every worker count.
    pub entries_pruned: usize,
}

impl ScheduleRun {
    /// How many requests resolved with the given outcome.
    #[must_use]
    pub fn count(&self, outcome: RequestOutcome) -> usize {
        self.reports.iter().filter(|r| r.outcome == outcome).count()
    }
}

/// Per-request limits of a [`ServePolicy`]. The default is unlimited: no
/// deadline, no fuel cap.
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

/// Degraded-service tuning applied while the executor queue sits at or
/// above its watermark: requests are evaluated with a smaller `k` and an
/// optional fuel cap, trading answer size for admission capacity instead
/// of queueing or shedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrownoutConfig {
    /// Requests still queued when a worker takes a request, at or above
    /// which that request is served browned-out. An inline run
    /// (`workers == 0`) queues nothing, so its backlog is always 0. `0`
    /// browns out everything; `usize::MAX` effectively disables brownout.
    pub watermark: usize,
    /// The lowered top-`k` size under brownout (the effective `k` is the
    /// minimum of this and the workload's `k`).
    pub k: usize,
    /// Additional fuel cap under brownout, on top of the request's normal
    /// [`RequestLimits`].
    pub fuel: Option<u64>,
}

/// Admission control of a [`ServePolicy`]: what happens when the bounded
/// queue is full, and whether saturation lowers service quality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// `true` sheds on a full queue ([`RequestOutcome::Shed`], counted in
    /// `serve.outcome.shed`) instead of blocking the producer; `false`
    /// keeps the blocking backpressure (waits counted in
    /// `serve.queue.full_waits` either way). An inline run never sheds.
    pub shed_when_full: bool,
    /// Brownout mode, if any.
    pub brownout: Option<BrownoutConfig>,
}

/// How [`run_schedule`] serves each request of one run. The default serves
/// every request unlimited, at normal priority, blocking while the queue
/// is full, with no hooks.
#[derive(Clone, Copy, Default)]
pub struct ServePolicy<'a> {
    /// The deadline and fuel of every request's [`Budget`].
    pub limits: RequestLimits,
    /// Load shedding and brownout.
    pub admission: AdmissionConfig,
    /// The queue lane of each schedule slot ([`Priority::Normal`] when
    /// `None`). Lanes only reorder work; an inline run serves in schedule
    /// order.
    pub priority: Option<&'a (dyn Fn(usize) -> Priority + Sync)>,
    /// A run-level budget for cooperative cancellation: once it is
    /// violated (deadline passed, fuel exhausted, or [`Budget::cancel`]
    /// called from another thread), every request not yet evaluated gets a
    /// cancelled budget, so the run drains quickly with degraded answers
    /// (sound upper bounds) instead of evaluating doomed work.
    pub cancel: Option<&'a Budget>,
    /// Runs with the slot index on the thread that evaluates the slot,
    /// immediately before evaluation — the caller's thread when
    /// `workers == 0`. Fault harnesses pin their per-thread epoch there
    /// (e.g. `FaultyProvider::set_thread_epoch`).
    pub before_request: Option<&'a (dyn Fn(usize) + Sync)>,
}

/// Serves the request schedule through the worker pool of `exec` and
/// returns one [`RequestReport`] per slot, **in schedule order** whatever
/// order the requests complete in. Every request resolves — the schedule
/// never aborts, whatever the provider throws at it — and takes its
/// budget, lane, brownout and hooks from `policy`.
///
/// Each pool query is planned once for the run. Every worker (or the
/// calling thread, when `exec.workers == 0`) builds its own [`Engine`]
/// over the shared `provider` and `registry`, so per-evaluation memo state
/// stays request-private; the only cross-request sharing is the provider's
/// atomic-result cache, whose singleflight layer coalesces concurrent
/// misses on one key into a single computation. Rankings never depend on
/// cache state, only the work to produce them does, so reports are
/// bit-identical at every worker count.
///
/// Every request counts `serve.requests`, its latency in the
/// `serve.request_seconds` histogram and exactly one `serve.outcome.*`
/// counter (`ok`, `degraded`, `failed`, `shed`), on the thread that
/// resolved it; a browned-out request also counts
/// `serve.brownout.requests`. Shed requests resolve producer-side with an
/// [`EngineError::Overloaded`] reason.
///
/// # Panics
///
/// A panicking worker closes the queue so the pool shuts down instead of
/// deadlocking, and the panic resurfaces here. Panics inside an
/// evaluation are captured as [`RequestOutcome::Failed`].
#[must_use]
pub fn run_schedule<P: AtomicProvider>(
    w: &ServeWorkload,
    provider: &P,
    engine_config: EngineConfig,
    registry: &Arc<Registry>,
    exec: &ExecutorConfig,
    policy: &ServePolicy<'_>,
) -> ScheduleRun {
    let requests = registry.counter("serve.requests");
    let latency = registry.histogram("serve.request_seconds");
    let ok = registry.counter("serve.outcome.ok");
    let degraded = registry.counter("serve.outcome.degraded");
    let failed = registry.counter("serve.outcome.failed");
    let shed = registry.counter("serve.outcome.shed");
    let browned = registry.counter("serve.brownout.requests");
    let pruned = registry.counter("engine.prune.entries_pruned");
    let count = |report: &RequestReport| {
        requests.inc();
        match report.outcome {
            RequestOutcome::Ok => ok.inc(),
            RequestOutcome::Degraded => degraded.inc(),
            RequestOutcome::Failed => failed.inc(),
            RequestOutcome::Shed => shed.inc(),
        }
    };
    let shed_request = |r: usize| {
        let report = RequestReport {
            query: w.schedule[r],
            outcome: RequestOutcome::Shed,
            ranked: Vec::new(),
            upper_bounds: Vec::new(),
            reason: Some(EngineError::Overloaded("executor queue full".into()).to_string()),
        };
        count(&report);
        report
    };
    let plans: Vec<Plan> = w.queries.iter().map(Plan::new).collect();
    // One set of engine metric handles for every worker's engine.
    let handles = EngineHandles::new(Arc::clone(registry));
    let pruned_before = pruned.get();
    let start = Instant::now();
    let reports = run_pool(
        exec,
        registry,
        w.schedule.len(),
        |r| policy.priority.map_or(Priority::Normal, |lane| lane(r)),
        policy
            .admission
            .shed_when_full
            .then_some(&shed_request as &dyn Fn(usize) -> RequestReport),
        || Engine::with_handles(provider, &w.tree, engine_config, Arc::clone(&handles)),
        |engine, r, backlog| {
            if let Some(hook) = policy.before_request {
                hook(r);
            }
            let mut k = w.k;
            let mut budget = policy.limits.budget();
            // Brownout is decided when the request is taken, from the
            // backlog behind it, not the backlog when it was admitted.
            if let Some(b) = policy.admission.brownout.filter(|b| backlog >= b.watermark) {
                browned.inc();
                k = k.min(b.k);
                if let Some(fuel) = b.fuel {
                    budget = budget.with_fuel(fuel);
                }
            }
            if policy.cancel.is_some_and(|c| c.check().is_err()) {
                budget.cancel();
            }
            let q = w.schedule[r];
            let t0 = Instant::now();
            let report = resolve_request(engine, &plans[q], q, w.depth(), k, &budget);
            latency.record_duration(t0.elapsed());
            count(&report);
            report
        },
    );
    ScheduleRun {
        reports,
        elapsed: start.elapsed(),
        entries_pruned: (pruned.get() - pruned_before) as usize,
    }
}

/// Evaluates one request and classifies the answer into a
/// [`RequestReport`]; counting it is the caller's job.
fn resolve_request<P: AtomicProvider>(
    engine: &Engine<P>,
    plan: &Plan,
    q: usize,
    depth: u8,
    k: usize,
    budget: &Budget,
) -> RequestReport {
    // Belt and braces: the engine already catches panics at the resilient
    // boundary, but a serving loop must survive even a panic in a path
    // that boundary does not cover.
    let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.top_k_plan_resilient(plan, depth, k, budget)
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

/// Shape of the worker pool every runner of this crate serves through:
/// how many worker threads drain the tasks, and how much admitted but
/// unserved work the bounded queue may hold (the producer blocks, or
/// sheds, while it is full).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads in the fixed-size pool. `0` runs every task inline
    /// on the calling thread, in task order, with no queue.
    pub workers: usize,
    /// Bounded queue capacity (at least 1; unused inline).
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

/// The one worker pool: runs tasks `0..tasks` and returns their results
/// in task order, whatever order they complete in.
///
/// With `exec.workers == 0` every task runs inline on the calling thread,
/// in task order, on one `worker()` state, with a backlog of 0. Otherwise
/// `exec.workers` scoped threads (no runtime dependency) each build their
/// own `worker()` state and drain a [`BoundedQueue`] of `exec.queue_depth`
/// that the calling thread fills in task order, each task into its
/// `lane`; `run(state, task, backlog)` gets the number of tasks still
/// queued when it was taken. A task the full queue turns away resolves to
/// `shed(task)` when `shed` is given; otherwise the producer blocks. Each
/// worker records its task times in a `serve.worker.<wid>.task_seconds`
/// histogram.
///
/// # Panics
///
/// A panicking worker closes the queue, so the producer and its siblings
/// stop instead of deadlocking; the panic resurfaces at the scope join.
pub(crate) fn run_pool<S, T: Send>(
    exec: &ExecutorConfig,
    registry: &Registry,
    tasks: usize,
    lane: impl Fn(usize) -> Priority,
    shed: Option<&dyn Fn(usize) -> T>,
    worker: impl Fn() -> S + Sync,
    run: impl Fn(&S, usize, usize) -> T + Sync,
) -> Vec<T> {
    if exec.workers == 0 {
        let state = worker();
        return (0..tasks).map(|t| run(&state, t, 0)).collect();
    }
    let queue = BoundedQueue::new(exec.queue_depth.max(1), registry);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for wid in 0..exec.workers {
            let (queue, slots, worker, run) = (&queue, &slots, &worker, &run);
            let task_seconds = registry.histogram(&format!("serve.worker.{wid}.task_seconds"));
            scope.spawn(move || {
                let _guard = CloseOnPanic(queue);
                let state = worker();
                while let Some((t, backlog)) = queue.pop() {
                    let t0 = Instant::now();
                    let out = run(&state, t, backlog);
                    task_seconds.record_duration(t0.elapsed());
                    *slots[t].lock().expect("task slot lock") = Some(out);
                }
            });
        }
        for (t, slot) in slots.iter().enumerate() {
            let admitted = match shed {
                None => queue.push(t, lane(t)),
                Some(shed) => match queue.try_push(t, lane(t)) {
                    TryPush::Admitted => true,
                    TryPush::Full => {
                        *slot.lock().expect("task slot lock") = Some(shed(t));
                        true
                    }
                    TryPush::Closed => false,
                },
            };
            if !admitted {
                break; // a worker panicked; the scope join re-panics below
            }
        }
        queue.close();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("task slot lock")
                .expect("every admitted task resolves")
        })
        .collect()
}

/// What [`BoundedQueue::try_push`] did with the offered item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TryPush {
    /// Enqueued.
    Admitted,
    /// The queue is at capacity; the item was not enqueued.
    Full,
    /// The queue closed early (a worker panicked); the item was not
    /// enqueued.
    Closed,
}

/// The bounded MPMC task queue between the producer and the worker pool:
/// two FIFO lanes ([`Priority::High`] drains first), a shared capacity
/// across both. Backpressure by blocking — `push` waits while the queue is
/// full, `pop` waits while it is empty and not yet closed — or by shedding
/// through the non-blocking [`BoundedQueue::try_push`].
///
/// The `serve.queue_depth` gauge mirrors the live length, and every
/// producer blocked on a full queue first counts one
/// `serve.queue.full_waits` — the saturation signal admission control
/// keys off.
struct BoundedQueue {
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
    fn new(capacity: usize, registry: &Registry) -> BoundedQueue {
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

    /// Admits `item` into its priority lane, blocking while the queue is
    /// full (counted in `serve.queue.full_waits`). Returns `false` without
    /// admitting when the queue closed early (a worker panicked).
    fn push(&self, item: usize, priority: Priority) -> bool {
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
    /// saturated — the load-shed path of [`AdmissionConfig::shed_when_full`].
    fn try_push(&self, item: usize, priority: Priority) -> TryPush {
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

    /// The next item — high lane first — with the number of items still
    /// queued behind it (the brownout backlog), or `None` once the queue
    /// is closed and drained.
    fn pop(&self) -> Option<(usize, usize)> {
        let mut st = self.state.lock().expect("serve queue lock");
        loop {
            if let Some(item) = st.high.pop_front().or_else(|| st.normal.pop_front()) {
                self.depth.sub(1);
                self.not_full.notify_one();
                return Some((item, st.len()));
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("serve queue lock");
        }
    }

    fn close(&self) {
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
struct CloseOnPanic<'a>(&'a BoundedQueue);

impl Drop for CloseOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
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

/// The generator of every served video, single or in a corpus: a
/// two-level tree of `shots` leaves over ten objects.
pub(crate) fn gen_tree(shots: u32, seed: u64) -> VideoTree {
    generate(
        &VideoGenConfig {
            branching: vec![shots],
            object_count: 10,
            objects_per_leaf: 3.0,
            ..VideoGenConfig::default()
        },
        seed,
    )
}

/// The Zipf-like request schedule both workloads serve: `requests`
/// indices into a pool of `queries` formulas, index `i` drawn with weight
/// `1 / (i + 1)^exponent`. Deterministic in `seed`.
pub(crate) fn zipf_schedule(
    queries: usize,
    requests: usize,
    exponent: f64,
    seed: u64,
) -> Vec<usize> {
    let weights: Vec<f64> = (0..queries)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    (0..requests)
        .map(|_| {
            let mut pick = rng.gen_range(0.0..total);
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    return i;
                }
                pick -= w;
            }
            queries - 1
        })
        .collect()
}

/// Builds the workload. Deterministic in `cfg.seed`.
#[must_use]
pub fn build(cfg: &ServeConfig) -> ServeWorkload {
    let queries = query_pool();
    ServeWorkload {
        tree: gen_tree(cfg.shots, cfg.seed),
        schedule: zipf_schedule(queries.len(), cfg.requests, cfg.zipf_exponent, cfg.seed),
        queries,
        k: cfg.k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::{classify, FormulaClass};
    use simvid_picture::{CacheConfig, PictureSystem, ScoringConfig};

    /// A cached picture system over `w`'s video, recording into `registry`.
    fn system<'a>(w: &'a ServeWorkload, registry: &Arc<Registry>) -> PictureSystem<'a> {
        PictureSystem::with_registry(
            &w.tree,
            ScoringConfig::default(),
            CacheConfig::default(),
            registry.clone(),
        )
    }

    /// Serves `w` on a fresh cached system and registry.
    fn serve(
        w: &ServeWorkload,
        exec: ExecutorConfig,
        policy: &ServePolicy<'_>,
    ) -> (ScheduleRun, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let sys = system(w, &registry);
        let run = run_schedule(w, &sys, EngineConfig::default(), &registry, &exec, policy);
        (run, registry)
    }

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

    /// `workers: 0` serves on the calling thread: the hook sees the
    /// caller's thread for every slot, and no pool worker records a task.
    #[test]
    fn inline_run_serves_on_the_calling_thread() {
        let w = build(&ServeConfig {
            shots: 8,
            requests: 6,
            ..ServeConfig::default()
        });
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let hook = |_: usize| seen.lock().unwrap().push(std::thread::current().id());
        let policy = ServePolicy {
            before_request: Some(&hook),
            ..ServePolicy::default()
        };
        let (run, registry) = serve(&w, ExecutorConfig::with_workers(0), &policy);
        assert_eq!(run.count(RequestOutcome::Ok), 6);
        assert_eq!(*seen.lock().unwrap(), vec![caller; 6]);
        let snap = registry.snapshot();
        assert!(
            snap.entries
                .iter()
                .all(|(name, _)| !name.starts_with("serve.worker.")),
            "an inline run registers no worker histogram"
        );
        assert_eq!(snap.counter("serve.requests"), Some(6));
    }

    #[test]
    fn resilient_zero_deadline_degrades_without_aborting() {
        let cfg = ServeConfig {
            shots: 8,
            requests: 6,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let policy = ServePolicy {
            limits: RequestLimits {
                deadline: Some(Duration::ZERO),
                fuel: None,
            },
            ..ServePolicy::default()
        };
        let (run, _) = serve(&w, ExecutorConfig::with_workers(0), &policy);
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
    fn concurrent_resilient_zero_deadline_reports_stay_ordered() {
        let cfg = ServeConfig {
            shots: 8,
            requests: 10,
            ..ServeConfig::default()
        };
        let w = build(&cfg);
        let policy = ServePolicy {
            limits: RequestLimits {
                deadline: Some(Duration::ZERO),
                fuel: None,
            },
            ..ServePolicy::default()
        };
        let (run, registry) = serve(&w, ExecutorConfig::with_workers(4), &policy);
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
        let cancel = Budget::unlimited();
        cancel.cancel();
        let policy = ServePolicy {
            cancel: Some(&cancel),
            ..ServePolicy::default()
        };
        let (run, _) = serve(&w, ExecutorConfig::with_workers(2), &policy);
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
        assert_eq!(q.pop(), Some((1, 1)), "high lane drains first");
        assert_eq!(q.pop(), Some((0, 0)));
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
        assert!(
            q.push(0, Priority::Normal),
            "first push fits without waiting"
        );
        assert_eq!(waits.get(), 0);
        std::thread::scope(|scope| {
            let q = &q;
            scope.spawn(move || {
                assert!(
                    q.push(1, Priority::Normal),
                    "blocked push completes once a slot frees"
                );
            });
            // Deterministic rendezvous: the counter ticks *before* the
            // producer parks, so spinning on it cannot miss the wait.
            while waits.get() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(q.pop(), Some((0, 0)));
            assert_eq!(q.pop(), Some((1, 0)));
        });
        assert_eq!(waits.get(), 1, "exactly one producer waited");
    }

    /// Delegating provider that parks every table call until the run's
    /// first request has been shed — pinning the executor saturated so the
    /// shed path is exercised deterministically.
    struct GateProvider<'a> {
        inner: PictureSystem<'a>,
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
        let registry = Arc::new(Registry::new());
        let sys = GateProvider {
            inner: system(&w, &registry),
            release_when: registry.counter("serve.outcome.shed"),
            released: std::sync::atomic::AtomicBool::new(false),
        };
        let run = run_schedule(
            &w,
            &sys,
            EngineConfig::default(),
            &registry,
            &ExecutorConfig {
                workers: 1,
                queue_depth: 1,
            },
            &ServePolicy {
                admission: AdmissionConfig {
                    shed_when_full: true,
                    brownout: None,
                },
                ..ServePolicy::default()
            },
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
        let policy = ServePolicy {
            admission: AdmissionConfig {
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
            ..ServePolicy::default()
        };
        let (run, registry) = serve(&w, ExecutorConfig::with_workers(2), &policy);
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
        let (reference, _) = serve(&w, ExecutorConfig::with_workers(0), &ServePolicy::default());
        let lanes = |r: usize| [Priority::High, Priority::Normal][r % 2];
        let policy = ServePolicy {
            admission: AdmissionConfig {
                shed_when_full: false,
                brownout: Some(BrownoutConfig {
                    watermark: usize::MAX,
                    k: 1,
                    fuel: Some(0),
                }),
            },
            priority: Some(&lanes),
            ..ServePolicy::default()
        };
        let (run, registry) = serve(&w, ExecutorConfig::with_workers(3), &policy);
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
