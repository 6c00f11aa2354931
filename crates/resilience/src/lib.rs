//! Fault injection and retry/backoff for the serving path.
//!
//! The serving north star is heavy traffic against a backend that *will*
//! misbehave: transient errors, latency spikes, the occasional panic. This
//! crate wraps any [`AtomicProvider`] in a [`FaultyProvider`] that injects
//! such faults **deterministically** — every fault decision is a pure
//! function of `(plan seed, epoch, call key, attempt)` — and retries
//! transient failures under a [`RetryPolicy`] before giving up with a
//! typed [`ProviderError`].
//!
//! Determinism is the load-bearing property: the same call may be made
//! once (memoized) or several times (memo off, or concurrently served
//! requests interleaving on one provider), and a fault schedule keyed on
//! global call order would diverge between the two. Content-addressed
//! decisions make the injected world a function of *what* is asked, not
//! *when*, so chaos runs are bit-reproducible across memo settings and
//! worker counts — which is what lets the chaos suite assert outcome
//! equality.

pub mod replica;

pub use replica::{
    failover_order, Admission, BreakerConfig, BreakerState, CircuitBreaker, HealthTracker,
    HedgePolicy, ReplicaSetHealth,
};

use simvid_core::engine::{AtomicProvider, CacheStats, SeqContext};
use simvid_core::{ProviderError, SimilarityTable, ValueTable};
use simvid_htl::{AtomicUnit, AttrFn};
use simvid_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread fault-epoch override (see
    /// [`FaultyProvider::set_thread_epoch`]).
    static THREAD_EPOCH: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// A deterministic fault to inject into one provider call attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the attempt with a transient error (retryable).
    Transient,
    /// Panic mid-call (the engine captures it as a typed `WorkerPanic`).
    Panic,
    /// Sleep for the plan's latency before answering (trips per-call
    /// timeouts when one is configured).
    Delay(Duration),
}

/// A seeded schedule of injected faults.
///
/// [`FaultPlan::decide`] maps `(epoch, call key, attempt)` to at most one
/// [`Fault`] via seeded hashing — no interior state, no call ordering. Two
/// providers built from the same plan inject identical faults for
/// identical requests, regardless of thread interleaving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule; different seeds give independent runs.
    pub seed: u64,
    /// Probability an attempt fails with a transient error.
    pub error_rate: f64,
    /// Probability an attempt panics mid-call.
    pub panic_rate: f64,
    /// Probability an attempt is delayed by `latency`.
    pub latency_rate: f64,
    /// The injected latency for delayed attempts.
    pub latency: Duration,
}

impl FaultPlan {
    /// A plan that injects nothing — the fault-free control run.
    #[must_use]
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            error_rate: 0.0,
            panic_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::ZERO,
        }
    }

    /// The chaos-mode default used by the chaos suite:
    /// 15% transient errors and 2% panics per attempt (comfortably above
    /// the acceptance floor of 10% / 1%), no injected latency so runs stay
    /// fast and wall-clock-independent.
    #[must_use]
    pub fn chaos_default() -> FaultPlan {
        FaultPlan {
            seed: 0xC4A05,
            error_rate: 0.15,
            panic_rate: 0.02,
            latency_rate: 0.0,
            latency: Duration::ZERO,
        }
    }

    /// The fault injected into `attempt` of the call identified by `key`
    /// in `epoch`, if any. Pure: same inputs, same answer, forever.
    ///
    /// Draws are checked in severity order — panic, then transient error,
    /// then delay — from independent hash streams, so e.g. `panic_rate`
    /// does not eat into `error_rate`.
    #[must_use]
    pub fn decide(&self, epoch: u64, key: &str, attempt: u32) -> Option<Fault> {
        if self.panic_rate > 0.0 && self.draw(epoch, key, attempt, 1) < self.panic_rate {
            return Some(Fault::Panic);
        }
        if self.error_rate > 0.0 && self.draw(epoch, key, attempt, 2) < self.error_rate {
            return Some(Fault::Transient);
        }
        if self.latency_rate > 0.0 && self.draw(epoch, key, attempt, 3) < self.latency_rate {
            return Some(Fault::Delay(self.latency));
        }
        None
    }

    /// A uniform draw in `[0, 1)` from the hash stream `salt`.
    fn draw(&self, epoch: u64, key: &str, attempt: u32, salt: u64) -> f64 {
        // FNV-1a over all decision inputs, then a splitmix64 finalizer for
        // avalanche (FNV alone correlates nearby attempts/epochs).
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&self.seed.to_le_bytes());
        eat(&epoch.to_le_bytes());
        eat(key.as_bytes());
        eat(&attempt.to_le_bytes());
        eat(&salt.to_le_bytes());
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // 53 high bits -> uniform double in [0, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Retry discipline for provider calls: bounded attempts, a deterministic
/// exponential backoff schedule, and an optional per-call timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call (1 = no retries). 0 is treated as 1.
    pub max_attempts: u32,
    /// Backoff before retry `r` (0-based) is `backoff_base << r`, capped.
    /// Zero disables sleeping entirely — right for tests and benchmarks.
    pub backoff_base: Duration,
    /// Upper bound of the backoff schedule.
    pub backoff_cap: Duration,
    /// If set, an attempt whose wall-clock time exceeds this is counted as
    /// timed out and treated like a transient failure (retried, then given
    /// up on). Wall-clock-dependent, so chaos determinism runs leave it
    /// unset.
    pub call_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            call_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// The pause before 0-based retry `retry`: `backoff_base * 2^retry`,
    /// saturating at `backoff_cap`.
    #[must_use]
    pub fn backoff(&self, retry: u32) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let scaled = self
            .backoff_base
            .checked_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX))
            .unwrap_or(self.backoff_cap);
        scaled.min(self.backoff_cap.max(self.backoff_base))
    }
}

/// An [`AtomicProvider`] wrapper that injects the faults of a [`FaultPlan`]
/// and retries transient failures under a [`RetryPolicy`].
///
/// The retry loop and the fault schedule live in the *same* wrapper on
/// purpose: the attempt index feeding [`FaultPlan::decide`] is local to
/// one logical call, so a repeated call of the same subformula replays
/// the identical attempt sequence and reaches the identical outcome —
/// stacking a retrying wrapper over a separately-stateful fault wrapper
/// would not.
///
/// Per-request accounting hangs off an *epoch*: the serving layer bumps
/// [`FaultyProvider::set_epoch`] before each request, which re-keys the
/// fault schedule and lets [`FaultyProvider::faults_in_epoch`] identify
/// the requests that ran fault-free (whose results must be bit-identical
/// to a fault-free run).
pub struct FaultyProvider<P: AtomicProvider> {
    inner: P,
    plan: FaultPlan,
    policy: RetryPolicy,
    epoch: AtomicU64,
    faults_by_epoch: Mutex<HashMap<u64, u64>>,
    calls: Arc<Counter>,
    transient_faults: Arc<Counter>,
    panic_faults: Arc<Counter>,
    delay_faults: Arc<Counter>,
    retries: Arc<Counter>,
    giveups: Arc<Counter>,
    timeouts: Arc<Counter>,
}

impl<P: AtomicProvider> FaultyProvider<P> {
    /// Wraps `inner` under `plan` with the default [`RetryPolicy`] and a
    /// private metrics registry.
    pub fn new(inner: P, plan: FaultPlan) -> FaultyProvider<P> {
        FaultyProvider::with_registry(
            inner,
            plan,
            RetryPolicy::default(),
            &Arc::new(Registry::new()),
        )
    }

    /// Wraps `inner` with explicit retry policy and a shared registry for
    /// the `resilience.*` counters (faults injected by kind, retries,
    /// give-ups, timeouts).
    pub fn with_registry(
        inner: P,
        plan: FaultPlan,
        policy: RetryPolicy,
        registry: &Arc<Registry>,
    ) -> FaultyProvider<P> {
        FaultyProvider {
            inner,
            plan,
            policy,
            epoch: AtomicU64::new(0),
            faults_by_epoch: Mutex::new(HashMap::new()),
            calls: registry.counter("resilience.calls"),
            transient_faults: registry.counter("resilience.faults.transient"),
            panic_faults: registry.counter("resilience.faults.panic"),
            delay_faults: registry.counter("resilience.faults.delay"),
            retries: registry.counter("resilience.retries"),
            giveups: registry.counter("resilience.giveups"),
            timeouts: registry.counter("resilience.timeouts"),
        }
    }

    /// The wrapped provider.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Re-keys the fault schedule for a new request. The serving layer
    /// calls this with the request index before each request.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// Pins the fault epoch for the **calling thread**, overriding the
    /// global epoch set by [`FaultyProvider::set_epoch`]. The concurrent
    /// serving executor pins each worker to the epoch of the request it is
    /// evaluating, so interleaved requests keep independent, deterministic
    /// fault schedules — a global epoch would bleed one request's schedule
    /// into another's mid-flight.
    ///
    /// The override is thread-local and process-wide (shared by every
    /// `FaultyProvider`). The engine evaluates each request on the calling
    /// thread, so every call of the request sees the pinned epoch.
    pub fn set_thread_epoch(&self, epoch: u64) {
        THREAD_EPOCH.set(Some(epoch));
    }

    /// Clears the calling thread's epoch override, returning it to the
    /// global epoch.
    pub fn clear_thread_epoch(&self) {
        THREAD_EPOCH.set(None);
    }

    /// The current epoch: the calling thread's override if one is pinned,
    /// otherwise the global epoch.
    pub fn epoch(&self) -> u64 {
        THREAD_EPOCH
            .get()
            .unwrap_or_else(|| self.epoch.load(Ordering::Relaxed))
    }

    /// How many faults were injected while `epoch` was current. Zero means
    /// the epoch's request observed a pristine provider — its results must
    /// be bit-identical to a fault-free run. (Repeated calls — memo off,
    /// or concurrent requests on one epoch — re-inject their faults, so
    /// nonzero counts depend on how the calls were made; the zero/nonzero
    /// distinction does not.)
    pub fn faults_in_epoch(&self, epoch: u64) -> u64 {
        self.faults_by_epoch
            .lock()
            .expect("fault accounting lock")
            .get(&epoch)
            .copied()
            .unwrap_or(0)
    }

    fn record_fault(&self, epoch: u64, kind: &Fault) {
        match kind {
            Fault::Transient => self.transient_faults.inc(),
            Fault::Panic => self.panic_faults.inc(),
            Fault::Delay(_) => self.delay_faults.inc(),
        }
        *self
            .faults_by_epoch
            .lock()
            .expect("fault accounting lock")
            .entry(epoch)
            .or_insert(0) += 1;
    }

    /// One logical provider call: injects the planned faults per attempt,
    /// retries transient failures (injected, inherited from `inner`, or
    /// timed out) with deterministic backoff, and gives up with a typed
    /// error once attempts are exhausted. Inner `Permanent` errors pass
    /// straight through — retrying cannot fix a malformed unit.
    fn faulted_call<T>(
        &self,
        key: &str,
        inner_call: impl Fn() -> Result<T, ProviderError>,
    ) -> Result<T, ProviderError> {
        let epoch = self.epoch();
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0u32;
        loop {
            self.calls.inc();
            if attempt > 0 {
                let pause = self.policy.backoff(attempt - 1);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            let started = Instant::now();
            let fault = self.plan.decide(epoch, key, attempt);
            if let Some(kind) = &fault {
                self.record_fault(epoch, kind);
            }
            let outcome: Result<T, ProviderError> = match fault {
                Some(Fault::Panic) => {
                    panic!("injected panic: {key} (epoch {epoch}, attempt {attempt})")
                }
                Some(Fault::Transient) => Err(ProviderError::Transient(format!(
                    "injected transient fault: {key} (epoch {epoch}, attempt {attempt})"
                ))),
                Some(Fault::Delay(d)) => {
                    std::thread::sleep(d);
                    inner_call()
                }
                None => inner_call(),
            };
            let outcome = match (outcome, self.policy.call_timeout) {
                (Ok(_), Some(limit)) if started.elapsed() > limit => {
                    self.timeouts.inc();
                    Err(ProviderError::Transient(format!(
                        "call exceeded {limit:?}: {key}"
                    )))
                }
                (other, _) => other,
            };
            match outcome {
                Ok(v) => return Ok(v),
                Err(e @ ProviderError::Permanent(_)) => return Err(e),
                Err(ProviderError::Transient(why)) => {
                    attempt += 1;
                    if attempt >= max_attempts {
                        self.giveups.inc();
                        return Err(ProviderError::Transient(format!(
                            "gave up after {max_attempts} attempts: {why}"
                        )));
                    }
                    self.retries.inc();
                }
            }
        }
    }

    /// The content-addressed identity of an atomic-table call.
    fn table_key(unit: &AtomicUnit, ctx: SeqContext) -> String {
        format!("at:{}@{}:{}..{}", unit.formula, ctx.depth, ctx.lo, ctx.hi)
    }

    /// The content-addressed identity of a value-table call.
    fn value_key(func: &AttrFn, ctx: SeqContext) -> String {
        format!("vt:{}@{}:{}..{}", func.attr, ctx.depth, ctx.lo, ctx.hi)
    }
}

impl<P: AtomicProvider> AtomicProvider for FaultyProvider<P> {
    fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable> {
        // The infallible legacy path bypasses injection — the engine only
        // calls the `try_` methods, and external infallible callers have
        // nowhere for an injected error to go.
        self.inner.atomic_table(unit, ctx)
    }

    fn try_atomic_table(
        &self,
        unit: &AtomicUnit,
        ctx: SeqContext,
    ) -> Result<Arc<SimilarityTable>, ProviderError> {
        let key = Self::table_key(unit, ctx);
        self.faulted_call(&key, || self.inner.try_atomic_table(unit, ctx))
    }

    fn atomic_max(&self, unit: &AtomicUnit) -> f64 {
        // Maxima must stay exact under chaos: the degraded answers' upper
        // bounds (and the pruning schedule) are built from them.
        self.inner.atomic_max(unit)
    }

    fn value_table(&self, func: &AttrFn, ctx: SeqContext) -> ValueTable {
        self.inner.value_table(func, ctx)
    }

    fn try_value_table(&self, func: &AttrFn, ctx: SeqContext) -> Result<ValueTable, ProviderError> {
        let key = Self::value_key(func, ctx);
        self.faulted_call(&key, || self.inner.try_value_table(func, ctx))
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_core::SimilarityList;
    use simvid_htl::parse;

    /// A provider answering a fixed one-entry list, optionally failing
    /// transiently for the first `flaky_calls` invocations.
    struct FixedInner {
        flaky_calls: Mutex<u32>,
    }

    impl FixedInner {
        fn solid() -> FixedInner {
            FixedInner {
                flaky_calls: Mutex::new(0),
            }
        }

        fn flaky(n: u32) -> FixedInner {
            FixedInner {
                flaky_calls: Mutex::new(n),
            }
        }
    }

    impl AtomicProvider for FixedInner {
        fn atomic_table(&self, _unit: &AtomicUnit, _ctx: SeqContext) -> Arc<SimilarityTable> {
            Arc::new(SimilarityTable::from_list(
                SimilarityList::from_tuples(vec![(1, 2, 1.0)], 1.0).unwrap(),
            ))
        }

        fn try_atomic_table(
            &self,
            unit: &AtomicUnit,
            ctx: SeqContext,
        ) -> Result<Arc<SimilarityTable>, ProviderError> {
            let mut left = self.flaky_calls.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                return Err(ProviderError::Transient("inner backend hiccup".into()));
            }
            drop(left);
            Ok(self.atomic_table(unit, ctx))
        }

        fn atomic_max(&self, _unit: &AtomicUnit) -> f64 {
            1.0
        }

        fn value_table(&self, _func: &AttrFn, _ctx: SeqContext) -> ValueTable {
            ValueTable::default()
        }
    }

    fn unit() -> AtomicUnit {
        simvid_htl::atomic_units(&parse("p()").unwrap())
            .pop()
            .unwrap()
    }

    fn ctx() -> SeqContext {
        SeqContext {
            depth: 1,
            lo: 0,
            hi: 8,
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_inputs() {
        let plan = FaultPlan {
            seed: 7,
            error_rate: 0.3,
            panic_rate: 0.05,
            latency_rate: 0.1,
            latency: Duration::from_millis(1),
        };
        for epoch in 0..50 {
            for attempt in 0..4 {
                let a = plan.decide(epoch, "at:p()@1:0..8", attempt);
                let b = plan.decide(epoch, "at:p()@1:0..8", attempt);
                assert_eq!(a, b, "decision must be reproducible");
            }
        }
        // A different seed induces a different schedule somewhere.
        let other = FaultPlan { seed: 8, ..plan };
        let differs = (0..200)
            .any(|e| plan.decide(e, "at:p()@1:0..8", 0) != other.decide(e, "at:p()@1:0..8", 0));
        assert!(differs, "seeds must matter");
        // Empirical rates land near the configured ones.
        let faults = (0..10_000)
            .filter(|&e| plan.decide(e, "k", 0).is_some())
            .count();
        let expected = 10_000.0 * (0.3 + 0.05 + 0.1);
        assert!(
            (faults as f64) > expected * 0.7 && (faults as f64) < expected * 1.3,
            "fault count {faults} far from expectation {expected}"
        );
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::quiet(99);
        for e in 0..1000 {
            assert_eq!(plan.decide(e, "anything", 0), None);
        }
    }

    #[test]
    fn always_failing_plan_gives_up_with_counters() {
        let registry = Arc::new(Registry::new());
        let plan = FaultPlan {
            error_rate: 1.0,
            ..FaultPlan::quiet(1)
        };
        let p = FaultyProvider::with_registry(
            FixedInner::solid(),
            plan,
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            &registry,
        );
        p.set_epoch(5);
        let err = p.try_atomic_table(&unit(), ctx()).unwrap_err();
        assert!(err.is_transient());
        assert!(err.to_string().contains("gave up after 3 attempts"));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("resilience.retries"), Some(2));
        assert_eq!(snap.counter("resilience.giveups"), Some(1));
        assert_eq!(snap.counter("resilience.faults.transient"), Some(3));
        assert_eq!(p.faults_in_epoch(5), 3);
        assert_eq!(p.faults_in_epoch(4), 0);
    }

    #[test]
    fn inner_transient_failures_are_retried_to_success() {
        let registry = Arc::new(Registry::new());
        let p = FaultyProvider::with_registry(
            FixedInner::flaky(2),
            FaultPlan::quiet(0),
            RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::default()
            },
            &registry,
        );
        let table = p.try_atomic_table(&unit(), ctx()).unwrap();
        assert_eq!(table.rows.len(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("resilience.retries"), Some(2));
        assert_eq!(snap.counter("resilience.giveups"), Some(0));
        // No *injected* faults: the hiccups were the inner backend's.
        assert_eq!(p.faults_in_epoch(0), 0);
    }

    #[test]
    fn injected_panic_is_deterministic_and_catchable() {
        let plan = FaultPlan {
            panic_rate: 1.0,
            ..FaultPlan::quiet(3)
        };
        let p = FaultyProvider::new(FixedInner::solid(), plan);
        p.set_epoch(9);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.try_atomic_table(&unit(), ctx());
        }))
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("injected panic") && msg.contains("epoch 9"),
            "{msg}"
        );
        assert_eq!(p.faults_in_epoch(9), 1, "fault recorded before the panic");
    }

    #[test]
    fn backoff_schedule_doubles_to_the_cap() {
        let policy = RetryPolicy {
            max_attempts: 5,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            call_timeout: None,
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(1));
        assert_eq!(policy.backoff(1), Duration::from_millis(2));
        assert_eq!(policy.backoff(2), Duration::from_millis(4));
        assert_eq!(policy.backoff(3), Duration::from_millis(4));
        // Zero base disables sleeping regardless of the cap.
        let nosleep = RetryPolicy::default();
        assert_eq!(nosleep.backoff(7), Duration::ZERO);
    }

    #[test]
    fn injected_latency_trips_the_call_timeout() {
        let registry = Arc::new(Registry::new());
        let plan = FaultPlan {
            latency_rate: 1.0,
            latency: Duration::from_millis(20),
            ..FaultPlan::quiet(11)
        };
        let p = FaultyProvider::with_registry(
            FixedInner::solid(),
            plan,
            RetryPolicy {
                max_attempts: 2,
                call_timeout: Some(Duration::from_millis(1)),
                ..RetryPolicy::default()
            },
            &registry,
        );
        let err = p.try_atomic_table(&unit(), ctx()).unwrap_err();
        assert!(err.is_transient());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("resilience.timeouts"), Some(2));
        assert_eq!(snap.counter("resilience.faults.delay"), Some(2));
        assert_eq!(snap.counter("resilience.giveups"), Some(1));
    }

    #[test]
    fn permanent_inner_errors_skip_retries() {
        struct Rejecting;
        impl AtomicProvider for Rejecting {
            fn atomic_table(&self, _u: &AtomicUnit, _c: SeqContext) -> Arc<SimilarityTable> {
                unreachable!("only try_atomic_table is exercised")
            }
            fn try_atomic_table(
                &self,
                _u: &AtomicUnit,
                _c: SeqContext,
            ) -> Result<Arc<SimilarityTable>, ProviderError> {
                Err(ProviderError::Permanent("malformed unit".into()))
            }
            fn atomic_max(&self, _u: &AtomicUnit) -> f64 {
                1.0
            }
            fn value_table(&self, _f: &AttrFn, _c: SeqContext) -> ValueTable {
                ValueTable::default()
            }
        }
        let registry = Arc::new(Registry::new());
        let p = FaultyProvider::with_registry(
            Rejecting,
            FaultPlan::quiet(0),
            RetryPolicy::default(),
            &registry,
        );
        let err = p.try_atomic_table(&unit(), ctx()).unwrap_err();
        assert!(matches!(err, ProviderError::Permanent(_)));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("resilience.retries"), Some(0));
        assert_eq!(snap.counter("resilience.giveups"), Some(0));
    }
}
