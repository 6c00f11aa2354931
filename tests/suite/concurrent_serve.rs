//! Concurrent serving executor suite: bit-identity across worker counts.
//!
//! The executor's contract is that concurrency changes *throughput*,
//! never *answers*: for every worker count the classified reports of
//! `run_schedule` (fault-free and under chaos) must be bit-identical to
//! an inline run (`workers: 0`), in original schedule order. On
//! top of ordering, the suite proves the singleflight layer's claim — a
//! hot-key miss storm performs exactly the work of one sequential pass —
//! and the cache-counter split invariant
//! `hits + misses + coalesced == lookups` under concurrency.
//!
//! Chaos runs disable the cross-query cache: with caching on, whether a
//! request's atomic fetch reaches the (fault-injecting) provider depends
//! on which request populated the cache first, which is scheduling-
//! dependent under concurrency. With the cache off and per-worker-thread
//! epochs, every request's fault exposure is a pure function of its
//! schedule slot — replayable at any worker count.

use simvid_core::{AtomicProvider, Engine, EngineConfig};
use simvid_obs::Registry;
use simvid_picture::{CacheConfig, PictureSystem, ScoringConfig};
use simvid_resilience::{FaultPlan, FaultyProvider, RetryPolicy};
use simvid_workload::serve::{
    self, ExecutorConfig, RequestOutcome, ScheduleRun, ServeConfig, ServePolicy, ServeWorkload,
};
use std::sync::Arc;

const WORKER_COUNTS: &[usize] = &[2, 4, 8];

fn small_cfg() -> ServeConfig {
    ServeConfig {
        shots: 24,
        requests: 40,
        ..ServeConfig::default()
    }
}

/// Serves `w` through `provider` on `workers` workers with `policy`.
fn serve<P: AtomicProvider>(
    w: &ServeWorkload,
    provider: &P,
    registry: &Arc<Registry>,
    workers: usize,
    policy: &ServePolicy<'_>,
) -> ScheduleRun {
    serve::run_schedule(
        w,
        provider,
        EngineConfig::default(),
        registry,
        &ExecutorConfig::with_workers(workers),
        policy,
    )
}

fn warm_system<'a>(w: &'a ServeWorkload, registry: &Arc<Registry>) -> PictureSystem<'a> {
    PictureSystem::with_registry(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::default(),
        registry.clone(),
    )
}

#[test]
fn plain_results_bit_identical_across_worker_counts() {
    let w = serve::build(&small_cfg());
    let registry = Arc::new(Registry::new());
    let sys = warm_system(&w, &registry);
    let sequential = serve(&w, &sys, &registry, 0, &ServePolicy::default());
    assert_eq!(sequential.count(RequestOutcome::Ok), w.schedule.len());
    for &workers in WORKER_COUNTS {
        let registry = Arc::new(Registry::new());
        let sys = warm_system(&w, &registry);
        let run = serve(&w, &sys, &registry, workers, &ServePolicy::default());
        assert_eq!(
            run.reports, sequential.reports,
            "{workers}-worker results must be bit-identical to sequential"
        );
        assert_eq!(
            run.entries_pruned, sequential.entries_pruned,
            "{workers}-worker pruning totals must match sequential"
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("serve.requests"),
            Some(w.schedule.len() as u64)
        );
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
        assert_eq!(
            snap.counter("serve.outcome.ok"),
            Some(w.schedule.len() as u64),
            "outcome counters must be exact at {workers} workers"
        );
        assert_eq!(snap.counter("serve.outcome.degraded"), Some(0));
        assert_eq!(snap.counter("serve.outcome.failed"), Some(0));
    }
}

/// Hot enough that the 40-request schedule reliably exercises retries,
/// give-ups (degradation) and panics (failure) — same plan as the chaos
/// suite.
fn hot_plan() -> FaultPlan {
    FaultPlan {
        error_rate: 0.35,
        panic_rate: 0.05,
        ..FaultPlan::chaos_default()
    }
}

fn aggressive_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    }
}

#[test]
fn chaos_epoch_reports_identical_across_worker_counts() {
    let w = serve::build(&small_cfg());
    // One fault world per worker count: cache disabled, so each request's
    // fault exposure is a pure function of its slot, and the evaluating
    // thread pinned to the slot's epoch, so every provider call of the
    // request sees it.
    let chaos = |workers: usize| {
        let registry = Arc::new(Registry::new());
        let sys =
            PictureSystem::with_cache(&w.tree, ScoringConfig::default(), CacheConfig::disabled());
        let faulty = FaultyProvider::with_registry(sys, hot_plan(), aggressive_policy(), &registry);
        let pin = |r: usize| faulty.set_thread_epoch(r as u64 + 1);
        let policy = ServePolicy {
            before_request: Some(&pin),
            ..ServePolicy::default()
        };
        let run = serve(&w, &faulty, &registry, workers, &policy);
        // An inline run pinned the calling thread itself.
        faulty.clear_thread_epoch();
        run
    };
    let sequential = chaos(0);
    assert!(
        sequential.count(RequestOutcome::Ok) < w.schedule.len(),
        "the plan must be hot enough to matter"
    );
    assert!(
        sequential.count(RequestOutcome::Degraded) + sequential.count(RequestOutcome::Failed) > 0,
        "the plan must degrade or fail some requests"
    );
    for &workers in WORKER_COUNTS {
        assert_eq!(
            chaos(workers).reports,
            sequential.reports,
            "{workers}-worker chaos reports must replay the sequential world \
             (outcomes, rankings, bounds and reasons, byte for byte)"
        );
    }
}

#[test]
fn hot_query_storm_performs_exactly_one_computation() {
    const WORKERS: usize = 8;
    const REQUESTS: usize = 32;
    let mut w = serve::build(&small_cfg());
    // Every slot asks the same hot query: a cold cache turns the schedule
    // head into a miss storm on one key set.
    w.schedule = vec![0; REQUESTS];
    // How much atomic work one request needs, measured sequentially.
    let baseline_registry = Arc::new(Registry::new());
    let baseline_sys = warm_system(&w, &baseline_registry);
    let baseline_engine = Engine::with_registry(
        &baseline_sys,
        &w.tree,
        EngineConfig::default(),
        baseline_registry.clone(),
    );
    let expected = baseline_engine
        .top_k_closed(&w.queries[0], w.depth(), w.k)
        .expect("hot query evaluates");
    let single_pass_misses = baseline_sys.cache_stats().misses;
    assert!(single_pass_misses > 0);
    // The storm: all workers hammer the key from a cold cache.
    let registry = Arc::new(Registry::new());
    let sys = warm_system(&w, &registry);
    let run = serve(&w, &sys, &registry, WORKERS, &ServePolicy::default());
    for report in &run.reports {
        assert_eq!(report.ranked, expected);
    }
    let stats = sys.cache_stats();
    assert_eq!(
        stats.misses, single_pass_misses,
        "the storm must compute each atomic unit exactly once \
         (singleflight): {REQUESTS} requests, {} misses",
        stats.misses
    );
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced,
        stats.lookups,
        "every lookup classifies as exactly one of hit/miss/coalesced"
    );
    // Waiters that arrived while the leader computed are coalesced; the
    // rest are plain hits. Either way nobody recomputed.
    assert_eq!(
        stats.lookups - stats.misses,
        stats.hits + stats.coalesced,
        "all non-leader lookups were served without recomputation"
    );
}

#[test]
fn counter_split_invariant_holds_over_a_full_concurrent_schedule() {
    let w = serve::build(&small_cfg());
    let registry = Arc::new(Registry::new());
    let sys = warm_system(&w, &registry);
    let _ = serve(&w, &sys, &registry, 4, &ServePolicy::default());
    let stats = sys.cache_stats();
    assert!(stats.lookups > 0);
    assert_eq!(
        stats.hits + stats.misses + stats.coalesced,
        stats.lookups,
        "hits {} + misses {} + coalesced {} must equal lookups {}",
        stats.hits,
        stats.misses,
        stats.coalesced,
        stats.lookups
    );
    // The registry's counter is the cache's own.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("cache.coalesced"),
        Some(stats.coalesced as u64)
    );
}
