//! The cross-query atomic-result cache.
//!
//! The ROADMAP's serving workload asks the same handful of popular queries
//! over and over; the dominant cost is recompiling and rescoring their
//! atomic units against the level index. This module keeps a bounded,
//! thread-safe LRU cache of both artifacts:
//!
//! * **scored tables**, keyed by the atomic unit's interned
//!   [`FormulaId`] plus the exact [`SeqContext`] it was scored on — the
//!   same keying discipline as the engine's per-evaluation memo, which
//!   stays intra-query; this cache is the cross-query layer above it;
//! * **compiled queries** (including compile *errors*, so a malformed unit
//!   is diagnosed once, not re-parsed on every call), keyed by the
//!   [`FormulaId`] alone — compilation is context-free.
//!
//! Keying by interned id instead of the printed formula means a lookup
//! costs a structural hash of the (tiny) formula on first intern and a
//! `Copy` of a `u64` afterwards — no `String` allocation per call.
//!
//! Results are handed out as [`Arc`]s: hits never copy table rows, and the
//! cache stays sound because scored tables are immutable. Correctness does
//! not depend on the cache at all — eviction (or a capacity of zero) only
//! costs recomputation, which is what the eviction test in the serve suite
//! pins down.

use crate::query::{AtomicQuery, QueryError};
use simvid_core::{CacheStats, SeqContext, SimilarityTable};
use simvid_htl::FormulaId;
use simvid_obs::{Counter, Gauge, Registry, RegistrySubscriber, Tracer};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// Configuration of the atomic-result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of scored atomic tables kept. `0` disables caching
    /// entirely (every request recompiles and rescores — the pre-cache
    /// behaviour, useful as a baseline).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 1024 }
    }
}

impl CacheConfig {
    /// A cache bounded to `capacity` scored tables.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> CacheConfig {
        CacheConfig { capacity }
    }

    /// A disabled cache (capacity zero).
    #[must_use]
    pub fn disabled() -> CacheConfig {
        CacheConfig { capacity: 0 }
    }

    /// Whether the cache stores anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }
}

/// A small LRU map: recency is tracked by stamping entries and lazily
/// discarding stale queue slots, so touches are O(1) amortised without an
/// intrusive list (the workspace vendors no LRU crate).
struct Lru<K, V> {
    capacity: usize,
    map: HashMap<K, (V, u64)>,
    queue: VecDeque<(u64, K)>,
    tick: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            capacity,
            map: HashMap::new(),
            queue: VecDeque::new(),
            tick: 0,
        }
    }

    fn touch(&mut self, key: &K) -> u64 {
        self.tick += 1;
        self.queue.push_back((self.tick, key.clone()));
        // Stale stamps pile up one per touch; compact before the queue
        // outgrows the live set by more than a constant factor.
        if self.queue.len() > 2 * self.map.len().max(self.capacity) + 16 {
            let map = &self.map;
            self.queue
                .retain(|(stamp, k)| map.get(k).is_some_and(|(_, live)| live == stamp));
        }
        self.tick
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn get(&mut self, key: &K) -> Option<V> {
        if !self.map.contains_key(key) {
            return None;
        }
        let stamp = self.touch(key);
        let slot = self.map.get_mut(key).expect("checked above");
        slot.1 = stamp;
        Some(slot.0.clone())
    }

    /// Inserts a value, returning the values displaced by the insert: the
    /// old value when the key was already present, plus any entries
    /// evicted to stay within capacity. Returning the values themselves
    /// (not a count) lets the caller release whatever it accounts per
    /// entry — resident bytes, in the table cache's case.
    fn insert(&mut self, key: K, value: V) -> Displaced<V> {
        let mut out = Displaced {
            replaced: None,
            evicted: Vec::new(),
        };
        if self.capacity == 0 {
            out.replaced = Some(value);
            return out;
        }
        let stamp = self.touch(&key);
        out.replaced = self.map.insert(key, (value, stamp)).map(|(v, _)| v);
        while self.map.len() > self.capacity {
            let Some((stamp, k)) = self.queue.pop_front() else {
                break;
            };
            // A stale stamp means the entry was touched again later; only
            // the slot matching its live stamp evicts it.
            if self.map.get(&k).is_some_and(|(_, live)| *live == stamp) {
                let (v, _) = self.map.remove(&k).expect("checked above");
                out.evicted.push(v);
            }
        }
        out
    }
}

/// What an [`Lru::insert`] pushed out of the map.
struct Displaced<V> {
    /// The previous value under the inserted key, if any (also set when
    /// capacity is zero and the insert itself was refused).
    replaced: Option<V>,
    /// Entries dropped to get back under capacity, oldest first.
    evicted: Vec<V>,
}

/// Key of a scored atomic table: interned formula id + the exact
/// sequence context it was scored on.
type TableKey = (FormulaId, u8, u32, u32);

/// A singleflight slot: the first thread to miss on a key installs one and
/// computes; concurrent requesters for the same key wait on it instead of
/// recomputing. The slot lives in [`AtomicCache::inflight`] only while the
/// computation runs — completed tables are served from the LRU.
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    /// The leader is still computing.
    Running,
    /// The leader finished; the table is also in the LRU by now, but
    /// waiters take it straight from the slot (the LRU entry may already
    /// have been evicted under churn).
    Ready(Arc<SimilarityTable>),
    /// The leader's compute failed. The error is handed to every waiter
    /// and **never cached** — type-erased so `try_table_with` stays
    /// generic over its error type.
    Failed(Arc<dyn Any + Send + Sync>),
    /// The leader panicked; waiters elect a new leader and recompute.
    Abandoned,
}

/// The bounded, `Sync` cache shared by every query a
/// [`crate::PictureSystem`] serves.
///
/// All counters live in a [`Registry`] under the `cache.*` namespace:
/// `cache.lookups` counts every table request, split exactly into
/// `cache.hits` + `cache.misses` + `cache.coalesced` (a coalesced lookup
/// waited on a concurrent in-flight computation of the same key — neither
/// a plain hit nor a miss); `cache.evictions` counts capacity evictions,
/// the `cache.tables_resident` and `cache.bytes_resident` gauges track
/// what is currently held, and the `cache.span.compile` /
/// `cache.span.score` / `cache.span.coalesce_wait` histograms time the
/// work a miss triggers and the time waiters spend blocked on it.
///
/// Lock order: `inflight` before `tables` — the singleflight path holds
/// the in-flight map while re-probing the LRU; nothing acquires them the
/// other way round.
pub(crate) struct AtomicCache {
    config: CacheConfig,
    tables: Mutex<Lru<TableKey, Arc<SimilarityTable>>>,
    compiled: Mutex<Lru<FormulaId, Arc<Result<AtomicQuery, QueryError>>>>,
    inflight: Mutex<HashMap<TableKey, Arc<Flight>>>,
    lookups: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    coalesced: Arc<Counter>,
    evictions: Arc<Counter>,
    tables_resident: Arc<Gauge>,
    bytes_resident: Arc<Gauge>,
    tracer: Tracer,
}

impl AtomicCache {
    pub(crate) fn new(config: CacheConfig, registry: &Arc<Registry>) -> AtomicCache {
        AtomicCache {
            config,
            tables: Mutex::new(Lru::new(config.capacity)),
            // Compiled queries are tiny next to scored tables; a handful
            // of slots per table slot keeps popular formulas compiled even
            // when their windows churn the table cache.
            compiled: Mutex::new(Lru::new(config.capacity)),
            inflight: Mutex::new(HashMap::new()),
            lookups: registry.counter("cache.lookups"),
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            coalesced: registry.counter("cache.coalesced"),
            evictions: registry.counter("cache.evictions"),
            tables_resident: registry.gauge("cache.tables_resident"),
            bytes_resident: registry.gauge("cache.bytes_resident"),
            tracer: RegistrySubscriber::tracer(
                registry.clone(),
                "cache",
                &["score", "compile", "coalesce_wait"],
            ),
        }
    }

    pub(crate) fn config(&self) -> CacheConfig {
        self.config
    }

    /// Number of scored tables currently resident — the warm state the
    /// live-ingestion layer accounts as retained or evicted when a
    /// snapshot swap drops or keeps this cache.
    pub(crate) fn resident_tables(&self) -> usize {
        self.tables.lock().expect("table cache lock").len()
    }

    /// The scored table for `(id, ctx)`, computing and caching it on
    /// a miss. Hit/miss counters cover exactly this path.
    pub(crate) fn table_with(
        &self,
        id: FormulaId,
        ctx: SeqContext,
        compute: impl FnOnce() -> SimilarityTable,
    ) -> Arc<SimilarityTable> {
        let result: Result<_, std::convert::Infallible> =
            self.try_table_with(id, ctx, || Ok(compute()));
        match result {
            Ok(table) => table,
            Err(never) => match never {},
        }
    }

    /// Fallible twin of [`AtomicCache::table_with`] for the resilient
    /// serving path: a compute that fails is **never** cached, so an
    /// injected or transient backend error cannot poison the cross-query
    /// cache — the next request recomputes and stores the real table.
    ///
    /// Concurrent misses on the same key **singleflight**: the first
    /// thread installs an in-flight slot and computes; later arrivals
    /// block on the slot (counted as `coalesced`, neither hit nor miss)
    /// and share the leader's table — or its error, which propagates to
    /// every waiter without occupying a cache slot. A leader that panics
    /// abandons the slot; waiters elect a new leader and recompute, so a
    /// poisoned compute never strands the key. Exactly one of
    /// hits/misses/coalesced is counted per lookup, keeping
    /// `hits + misses + coalesced == lookups` exact even under storms.
    pub(crate) fn try_table_with<E: Clone + Send + Sync + 'static>(
        &self,
        id: FormulaId,
        ctx: SeqContext,
        compute: impl FnOnce() -> Result<SimilarityTable, E>,
    ) -> Result<Arc<SimilarityTable>, E> {
        self.lookups.inc();
        if !self.config.is_enabled() {
            // A disabled cache keeps the pre-cache baseline semantics:
            // every request recomputes — no dedup, no coalescing.
            self.misses.inc();
            let _score = self.tracer.span("score");
            return Ok(Arc::new(compute()?));
        }
        let key: TableKey = (id, ctx.depth, ctx.lo, ctx.hi);
        // Fast path: a completed table in the LRU.
        if let Some(hit) = self.tables.lock().expect("atomic cache lock").get(&key) {
            self.hits.inc();
            return Ok(hit);
        }
        enum Role {
            Done(Arc<SimilarityTable>),
            Leader(Arc<Flight>),
            Waiter(Arc<Flight>),
        }
        let mut compute = Some(compute);
        // A lookup is classified at its first decisive event — plain hit,
        // leader election, or the start of a coalesce wait — and never
        // reclassified, even if an abandoned flight later promotes the
        // waiter to leader.
        let mut counted_coalesced = false;
        loop {
            let role = {
                let mut inflight = self.inflight.lock().expect("inflight map lock");
                // Re-probe the LRU under the in-flight lock: a computation
                // that resolved between the fast path and here must not be
                // repeated.
                if let Some(hit) = self.tables.lock().expect("atomic cache lock").get(&key) {
                    Role::Done(hit)
                } else if let Some(flight) = inflight.get(&key) {
                    Role::Waiter(flight.clone())
                } else {
                    let flight = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        done: Condvar::new(),
                    });
                    inflight.insert(key, flight.clone());
                    Role::Leader(flight)
                }
            };
            match role {
                Role::Done(table) => {
                    if !counted_coalesced {
                        self.hits.inc();
                    }
                    return Ok(table);
                }
                Role::Leader(flight) => {
                    if !counted_coalesced {
                        // Counted before the compute so a panicking
                        // compute still leaves the counter split exact.
                        self.misses.inc();
                    }
                    let compute = compute.take().expect("a lookup leads at most once");
                    return self.lead(key, &flight, compute);
                }
                Role::Waiter(flight) => {
                    if !counted_coalesced {
                        self.coalesced.inc();
                        counted_coalesced = true;
                    }
                    let _wait = self.tracer.span("coalesce_wait");
                    let mut state = flight.state.lock().expect("flight state lock");
                    while matches!(*state, FlightState::Running) {
                        state = flight.done.wait(state).expect("flight state lock");
                    }
                    match &*state {
                        FlightState::Running => unreachable!("wait loop exits only when resolved"),
                        FlightState::Ready(table) => return Ok(table.clone()),
                        FlightState::Failed(err) => {
                            if let Some(err) = err.downcast_ref::<E>() {
                                return Err(err.clone());
                            }
                            // A foreign error type (impossible for a
                            // provider that instantiates one `E` per key,
                            // but not enforced by these types): recompute.
                        }
                        // The leader panicked: loop to elect a new leader.
                        FlightState::Abandoned => {}
                    }
                }
            }
        }
    }

    /// Runs the leader side of a singleflight: computes, publishes the
    /// table into the LRU, and resolves the flight. The flight is resolved
    /// on **every** exit path — a drop guard marks it [`FlightState::Abandoned`]
    /// and wakes waiters if the compute panics.
    fn lead<E: Clone + Send + Sync + 'static>(
        &self,
        key: TableKey,
        flight: &Arc<Flight>,
        compute: impl FnOnce() -> Result<SimilarityTable, E>,
    ) -> Result<Arc<SimilarityTable>, E> {
        struct Resolve<'a> {
            cache: &'a AtomicCache,
            key: TableKey,
            flight: &'a Flight,
            outcome: Option<FlightState>,
        }
        impl Drop for Resolve<'_> {
            fn drop(&mut self) {
                // Runs during unwind when the compute panicked, so recover
                // from (impossible in practice) poisoning instead of
                // risking a double panic.
                self.cache
                    .inflight
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .remove(&self.key);
                let mut state = self
                    .flight
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                *state = self.outcome.take().unwrap_or(FlightState::Abandoned);
                self.flight.done.notify_all();
            }
        }
        let mut resolve = Resolve {
            cache: self,
            key,
            flight,
            outcome: None,
        };
        let computed = {
            let _score = self.tracer.span("score");
            compute()
        };
        match computed {
            Ok(table) => {
                let table = Arc::new(table);
                self.tables_resident.add(1);
                self.bytes_resident.add(table.approx_bytes() as i64);
                let displaced = self
                    .tables
                    .lock()
                    .expect("atomic cache lock")
                    .insert(key, table.clone());
                self.evictions.add(displaced.evicted.len() as u64);
                for dropped in displaced.evicted.iter().chain(displaced.replaced.as_ref()) {
                    self.tables_resident.sub(1);
                    self.bytes_resident.sub(dropped.approx_bytes() as i64);
                }
                resolve.outcome = Some(FlightState::Ready(table.clone()));
                Ok(table)
            }
            Err(e) => {
                // Never cached: only the flight's current waiters see the
                // error; the next lookup recomputes.
                resolve.outcome = Some(FlightState::Failed(Arc::new(e.clone())));
                Err(e)
            }
        }
    }

    /// The compiled form of the formula interned as `id`, compiling (once)
    /// on a miss. Errors are cached too: a malformed unit panics
    /// identically on every use without being re-compiled each time.
    pub(crate) fn compiled_with(
        &self,
        id: FormulaId,
        compile: impl FnOnce() -> Result<AtomicQuery, QueryError>,
    ) -> Arc<Result<AtomicQuery, QueryError>> {
        if !self.config.is_enabled() {
            let _compile = self.tracer.span("compile");
            return Arc::new(compile());
        }
        if let Some(hit) = self.compiled.lock().expect("compiled cache lock").get(&id) {
            return hit;
        }
        let compiled = {
            let _compile = self.tracer.span("compile");
            Arc::new(compile())
        };
        self.compiled
            .lock()
            .expect("compiled cache lock")
            .insert(id, compiled.clone());
        compiled
    }

    /// The lookup/hit/miss/coalesced/eviction counters, as a thin view
    /// over the registry's `cache.*` counters.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.get() as usize,
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
            coalesced: self.coalesced.get() as usize,
            evictions: self.evictions.get() as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(src: &str) -> FormulaId {
        FormulaId::of(&simvid_htl::parse(src).expect("parse"))
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        assert!(lru.insert(1, 10).evicted.is_empty());
        assert!(lru.insert(2, 20).evicted.is_empty());
        assert_eq!(lru.get(&1), Some(10)); // 1 is now most recent
        assert_eq!(lru.insert(3, 30).evicted, vec![20]); // evicts 2
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
    }

    #[test]
    fn lru_reinsert_returns_replaced_value() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        assert_eq!(lru.insert(1, 10).replaced, None);
        let displaced = lru.insert(1, 11);
        assert_eq!(displaced.replaced, Some(10));
        assert!(displaced.evicted.is_empty());
        assert_eq!(lru.get(&1), Some(11));
    }

    #[test]
    fn lru_zero_capacity_stores_nothing() {
        let mut lru: Lru<u32, u32> = Lru::new(0);
        // The refused value comes back as `replaced` so callers can
        // release whatever they accounted for it.
        assert_eq!(lru.insert(1, 10).replaced, Some(10));
        assert_eq!(lru.get(&1), None);
    }

    #[test]
    fn lru_queue_stays_bounded_under_repeated_touches() {
        let mut lru: Lru<u32, u32> = Lru::new(4);
        for i in 0..4 {
            lru.insert(i, i);
        }
        for _ in 0..10_000 {
            for i in 0..4 {
                assert_eq!(lru.get(&i), Some(i));
            }
        }
        assert!(
            lru.queue.len() <= 2 * 4 + 17,
            "stale queue slots must be compacted, got {}",
            lru.queue.len()
        );
    }

    #[test]
    fn cache_counts_hits_misses_and_evictions() {
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::with_capacity(1), &registry);
        let ctx = |lo| SeqContext {
            depth: 1,
            lo,
            hi: 10,
        };
        let table = || SimilarityTable::new(Vec::new(), Vec::new(), 1.0);
        cache.table_with(fid("p()"), ctx(0), table);
        cache.table_with(fid("p()"), ctx(0), table);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        cache.table_with(fid("p()"), ctx(5), table); // different window: miss + eviction
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().evictions, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(1));
        assert_eq!(snap.counter("cache.evictions"), Some(1));
    }

    #[test]
    fn resident_gauges_track_insertions_and_evictions() {
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::with_capacity(2), &registry);
        let ctx = |lo| SeqContext {
            depth: 1,
            lo,
            hi: 10,
        };
        let table = || SimilarityTable::new(Vec::new(), Vec::new(), 1.0);
        let per_table = table().approx_bytes() as i64;
        cache.table_with(fid("p()"), ctx(0), table);
        cache.table_with(fid("p()"), ctx(1), table);
        let tables = registry.gauge("cache.tables_resident");
        let bytes = registry.gauge("cache.bytes_resident");
        assert_eq!(tables.get(), 2);
        assert_eq!(bytes.get(), 2 * per_table);
        // A third window evicts one table: residency must not grow.
        cache.table_with(fid("p()"), ctx(2), table);
        assert_eq!(tables.get(), 2);
        assert_eq!(bytes.get(), 2 * per_table);
    }

    #[test]
    fn miss_compute_is_timed_under_cache_span_score() {
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::with_capacity(4), &registry);
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 10,
        };
        let table = || SimilarityTable::new(Vec::new(), Vec::new(), 1.0);
        cache.table_with(fid("p()"), ctx, table); // miss: timed
        cache.table_with(fid("p()"), ctx, table); // hit: not timed
        let snap = registry.snapshot();
        match snap.get("cache.span.score") {
            Some(simvid_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("expected score span histogram, got {other:?}"),
        }
    }

    #[test]
    fn failed_compute_is_never_cached() {
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::with_capacity(4), &registry);
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 10,
        };
        let err: Result<Arc<SimilarityTable>, String> =
            cache.try_table_with(fid("p()"), ctx, || Err("backend down".to_owned()));
        assert_eq!(err.unwrap_err(), "backend down");
        // The failure must not occupy a slot or any residency accounting.
        assert_eq!(registry.gauge("cache.tables_resident").get(), 0);
        assert_eq!(registry.gauge("cache.bytes_resident").get(), 0);
        // The next call recomputes (a second miss, no hit) and the real
        // table is stored and served from cache afterwards.
        let ok: Result<_, String> = cache.try_table_with(fid("p()"), ctx, || {
            Ok(SimilarityTable::new(Vec::new(), Vec::new(), 1.0))
        });
        assert!(ok.is_ok());
        let hit: Result<_, String> =
            cache.try_table_with(fid("p()"), ctx, || panic!("must be served from cache"));
        assert!(hit.is_ok());
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(registry.gauge("cache.tables_resident").get(), 1);
    }

    #[test]
    fn panicking_compute_leaves_cache_usable() {
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::with_capacity(4), &registry);
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 10,
        };
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.table_with(fid("p()"), ctx, || panic!("injected compute panic"))
        }));
        assert!(attempt.is_err());
        // The compute runs outside the lock, so the panic poisons nothing:
        // the cache still answers, and no phantom residency was recorded.
        assert_eq!(registry.gauge("cache.tables_resident").get(), 0);
        assert_eq!(registry.gauge("cache.bytes_resident").get(), 0);
        let table = cache.table_with(fid("p()"), ctx, || {
            SimilarityTable::new(Vec::new(), Vec::new(), 1.0)
        });
        assert_eq!(table.max, 1.0);
        assert_eq!(registry.gauge("cache.tables_resident").get(), 1);
    }

    #[test]
    fn hot_key_miss_storm_coalesces_to_one_computation() {
        const WORKERS: usize = 8;
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::with_capacity(4), &registry);
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 10,
        };
        let id = fid("p()");
        let computations = std::sync::atomic::AtomicUsize::new(0);
        let coalesced = registry.counter("cache.coalesced");
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    cache.table_with(id, ctx, || {
                        computations.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        // Hold the flight open until every other worker has
                        // registered as a coalesced waiter, so the storm
                        // overlaps deterministically even on one CPU. The
                        // deadline turns a scheduler pathology into an
                        // assertion failure rather than a hang.
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(30);
                        while coalesced.get() < (WORKERS - 1) as u64
                            && std::time::Instant::now() < deadline
                        {
                            std::thread::yield_now();
                        }
                        SimilarityTable::new(Vec::new(), Vec::new(), 1.0)
                    });
                });
            }
        });
        assert_eq!(
            computations.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "singleflight must compute the hot key exactly once"
        );
        let stats = cache.stats();
        assert_eq!(stats.lookups, WORKERS);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(
            stats.coalesced,
            WORKERS - 1,
            "every non-leader must coalesce onto the flight"
        );
        assert_eq!(stats.hits + stats.misses + stats.coalesced, stats.lookups);
    }

    #[test]
    fn failed_compute_propagates_to_every_waiter_uncached() {
        const WORKERS: usize = 4;
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::with_capacity(4), &registry);
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 10,
        };
        let id = fid("p()");
        let coalesced = registry.counter("cache.coalesced");
        let mut outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    scope.spawn(|| {
                        cache
                            .try_table_with(id, ctx, || {
                                let deadline =
                                    std::time::Instant::now() + std::time::Duration::from_secs(30);
                                while coalesced.get() < (WORKERS - 1) as u64
                                    && std::time::Instant::now() < deadline
                                {
                                    std::thread::yield_now();
                                }
                                Err("backend down".to_owned())
                            })
                            .map(|_| ())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        outcomes.sort();
        assert_eq!(
            outcomes,
            vec![Err("backend down".to_owned()); WORKERS],
            "the leader's error must reach every coalesced waiter"
        );
        // Never cached: no residency, and the next lookup recomputes.
        assert_eq!(registry.gauge("cache.tables_resident").get(), 0);
        let ok: Result<_, String> = cache.try_table_with(id, ctx, || {
            Ok(SimilarityTable::new(Vec::new(), Vec::new(), 1.0))
        });
        assert!(ok.is_ok());
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.coalesced, WORKERS - 1);
        assert_eq!(stats.hits + stats.misses + stats.coalesced, stats.lookups);
    }

    #[test]
    fn abandoned_flight_elects_new_leader() {
        const WAITERS: usize = 3;
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::with_capacity(4), &registry);
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 10,
        };
        let id = fid("p()");
        let coalesced = registry.counter("cache.coalesced");
        let tables: Vec<Arc<SimilarityTable>> = std::thread::scope(|scope| {
            // The panicking leader holds the flight until all waiters have
            // coalesced, then unwinds; one waiter must take over and
            // compute the real table for the rest.
            scope.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.table_with(id, ctx, || {
                        let deadline =
                            std::time::Instant::now() + std::time::Duration::from_secs(30);
                        while coalesced.get() < WAITERS as u64
                            && std::time::Instant::now() < deadline
                        {
                            std::thread::yield_now();
                        }
                        panic!("injected leader panic")
                    })
                }));
            });
            let handles: Vec<_> = (0..WAITERS)
                .map(|_| {
                    scope.spawn(|| {
                        cache.table_with(id, ctx, || {
                            SimilarityTable::new(Vec::new(), Vec::new(), 1.0)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(tables.len(), WAITERS);
        for t in &tables {
            assert_eq!(t.max, 1.0);
        }
        let stats = cache.stats();
        // One increment per lookup even across the abandon/re-elect path.
        assert_eq!(stats.lookups, 1 + WAITERS);
        assert_eq!(stats.hits + stats.misses + stats.coalesced, stats.lookups);
        assert_eq!(registry.gauge("cache.tables_resident").get(), 1);
    }

    #[test]
    fn disabled_cache_always_recomputes() {
        let registry = Arc::new(Registry::new());
        let cache = AtomicCache::new(CacheConfig::disabled(), &registry);
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 10,
        };
        let calls = std::sync::atomic::AtomicUsize::new(0);
        for _ in 0..3 {
            cache.table_with(fid("p()"), ctx, || {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                SimilarityTable::new(Vec::new(), Vec::new(), 1.0)
            });
        }
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(registry.gauge("cache.bytes_resident").get(), 0);
    }
}
