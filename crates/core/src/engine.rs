//! The recursive evaluation engine for extended conjunctive formulas.
//!
//! The engine walks the formula structure (§3): atomic units go to the
//! picture retrieval system (an [`AtomicProvider`]); `∧` and `until`
//! combine tables by natural join with the corresponding list algorithm;
//! `next`/`eventually` map lists row-wise; existential quantifiers collapse
//! table columns by point-wise max; freeze quantifiers join with value
//! tables; level modal operators descend the video hierarchy, evaluating
//! the subformula on each segment's descendant sequence and reading the
//! value at its first element.

use crate::budget::Budget;
use crate::memo::MemoCache;
use crate::plan::{Node, Op, Plan};
use crate::topk::{top_k, DegradedAnswer, RankedSegment, TopKAnswer};
use crate::valuetable::freeze_join;
use crate::{
    list, prune, EngineError, Interval, ProviderError, Row, SimilarityList, SimilarityTable,
    ValueTable,
};
use simvid_htl::{AtomicUnit, AttrFn, Formula, FormulaClass, LevelSpec};
use simvid_model::VideoTree;
use simvid_obs::{Counter, Registry, RegistrySubscriber, Tracer};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

/// The proper sequence a formula is being evaluated on: the segments at
/// depth `depth` with 0-based positions `lo..hi` within the level sequence.
/// Similarity lists over this context use local 1-based positions
/// `1..=(hi-lo)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqContext {
    /// 0-based depth in the hierarchy.
    pub depth: u8,
    /// First position (inclusive) within the level sequence.
    pub lo: u32,
    /// One past the last position.
    pub hi: u32,
}

impl SeqContext {
    /// Number of segments in the sequence.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// Whether the sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }
}

/// Source of similarity tables for atomic units — the picture retrieval
/// system of the paper's architecture (Figure 1).
///
/// Evaluation itself is sequential, but providers must be [`Sync`]: a
/// serving pool shares one provider (and its cross-query cache) among the
/// engines of concurrently served requests.
pub trait AtomicProvider: Sync {
    /// The similarity table of a non-temporal atomic unit over the given
    /// sequence, with positions numbered 1-based relative to `ctx.lo`.
    ///
    /// Returned behind an [`Arc`] so caching providers can hand out the
    /// stored table by reference count instead of deep-cloning rows on
    /// every hit.
    fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable>;

    /// Fallible variant of [`AtomicProvider::atomic_table`] — the call the
    /// engine actually makes. The default delegates to the infallible
    /// method, so existing providers need not change; providers that can
    /// fail (a remote backend, a fault-injection wrapper, a provider that
    /// validates its units) override this to surface a [`ProviderError`]
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ProviderError::Transient`] for failures worth retrying upstream,
    /// [`ProviderError::Permanent`] for calls that can never succeed.
    fn try_atomic_table(
        &self,
        unit: &AtomicUnit,
        ctx: SeqContext,
    ) -> Result<Arc<SimilarityTable>, ProviderError> {
        Ok(self.atomic_table(unit, ctx))
    }

    /// The maximum similarity of an atomic unit (a function of the unit
    /// only; needed when a sequence yields no rows at all).
    fn atomic_max(&self, unit: &AtomicUnit) -> f64;

    /// The value table of an attribute function over the given sequence
    /// (for freeze quantifiers).
    fn value_table(&self, func: &AttrFn, ctx: SeqContext) -> ValueTable;

    /// Fallible variant of [`AtomicProvider::value_table`], mirroring
    /// [`AtomicProvider::try_atomic_table`].
    ///
    /// # Errors
    ///
    /// As [`AtomicProvider::try_atomic_table`].
    fn try_value_table(&self, func: &AttrFn, ctx: SeqContext) -> Result<ValueTable, ProviderError> {
        Ok(self.value_table(func, ctx))
    }

    /// Counters of the provider's cross-query atomic-result cache, if it
    /// keeps one. Cache-less providers report zeros. Unlike per-evaluation
    /// work counters, these accumulate over the provider's lifetime — the
    /// cache exists precisely to span queries.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// A borrowed provider is a provider: decorators such as a fault-injection
/// wrapper can then sit over a provider they do not own.
impl<P: AtomicProvider + ?Sized> AtomicProvider for &P {
    fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable> {
        (**self).atomic_table(unit, ctx)
    }

    fn try_atomic_table(
        &self,
        unit: &AtomicUnit,
        ctx: SeqContext,
    ) -> Result<Arc<SimilarityTable>, ProviderError> {
        (**self).try_atomic_table(unit, ctx)
    }

    fn atomic_max(&self, unit: &AtomicUnit) -> f64 {
        (**self).atomic_max(unit)
    }

    fn value_table(&self, func: &AttrFn, ctx: SeqContext) -> ValueTable {
        (**self).value_table(func, ctx)
    }

    fn try_value_table(&self, func: &AttrFn, ctx: SeqContext) -> Result<ValueTable, ProviderError> {
        (**self).try_value_table(func, ctx)
    }

    fn cache_stats(&self) -> CacheStats {
        (**self).cache_stats()
    }
}

/// Counters of a cross-query atomic-result cache (see
/// [`AtomicProvider::cache_stats`]).
///
/// Every lookup is classified exactly once, so
/// `hits + misses + coalesced == lookups` holds at any quiescent point —
/// including under concurrent miss storms.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total atomic-table requests (`hits + misses + coalesced`).
    pub lookups: usize,
    /// Atomic-table requests answered from the cache.
    pub hits: usize,
    /// Atomic-table requests that had to be computed (and were cached).
    pub misses: usize,
    /// Requests that waited on a concurrent in-flight computation of the
    /// same key (singleflight coalescing) instead of recomputing —
    /// neither a plain hit (the work was not yet done) nor a miss (this
    /// requester did no work).
    pub coalesced: usize,
    /// Cached results evicted to respect the capacity bound.
    pub evictions: usize,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// The minimum fractional similarity the left side of `until` must
    /// reach to count as satisfied (the paper's unspecified "threshold").
    pub until_threshold: f64,
    /// How conjunctions combine similarities (the paper's Sum by default;
    /// the alternatives realise the conclusion's "other similarity
    /// functions" ablation).
    pub conjunction: crate::ConjunctionSemantics,
    /// Whether subformula evaluations are memoized (common-subexpression
    /// elimination keyed by interned subformula + sequence context).
    pub memoize: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            until_threshold: 0.5,
            conjunction: crate::ConjunctionSemantics::Sum,
            memoize: true,
        }
    }
}

/// Work counters for complexity validation.
///
/// A per-evaluation view: the engine counts each top-level evaluation's
/// work locally and flushes it into its [`Registry`] (namespace
/// `engine.*`) once at the end, so [`Engine::stats`] reports exactly this
/// engine's last evaluation even when other engines share the registry.
/// Use [`Engine::registry`] for the cumulative counters and the
/// per-operator span histograms.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Atomic tables fetched from the provider.
    pub atomic_fetches: usize,
    /// Table joins performed.
    pub joins: usize,
    /// Similarity-list entries fed into list algorithms.
    pub entries_processed: usize,
    /// Level-modal descents into child sequences.
    pub level_descents: usize,
    /// Subformula evaluations answered from the memo cache.
    pub memo_hits: usize,
    /// Subformula evaluations that had to be computed (and were cached).
    pub memo_misses: usize,
    /// Similarity-list entries dropped or skipped by upper-bound pruning
    /// (only [`Engine::top_k_closed`] prunes; plain evaluation reports 0).
    pub entries_pruned: usize,
    /// Counters of the provider's cross-query atomic cache. Cumulative
    /// over the provider's lifetime, not reset per evaluation.
    pub atomic_cache: CacheStats,
}

/// The work of one top-level evaluation, counted in plain integers behind
/// the engine's own (uncontended) lock and flushed into the registry once
/// at its end. The lock only keeps `Engine` `Sync`, so engines can be
/// shared by reference across threads; evaluation itself is sequential.
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    atomic_fetches: u64,
    joins: u64,
    entries_processed: u64,
    level_descents: u64,
    memo_hits: u64,
    memo_misses: u64,
    prune_examined: u64,
    entries_pruned: u64,
    threshold_updates: u64,
}

/// The engine's span names, hottest first: their `engine.span.*`
/// histograms are resolved when the handles are.
const ENGINE_SPANS: [&str; 5] = [
    "atomic_fetch",
    "eval",
    "join",
    "eventually_sweep",
    "until_sweep",
];

/// The engine's metric handles in one [`Registry`] (namespace
/// `engine.*`): nine work counters and the span subscriber with its five
/// pre-registered histograms.
///
/// Resolving them takes 14 registry lookups, each under the registry's
/// lock and each allocating the metric name. A corpus builds one engine
/// per video per request, so it resolves the handles once per registry
/// and shares them ([`Engine::with_handles`]); registry counters stay
/// cumulative over the registry's lifetime.
#[derive(Debug)]
pub struct EngineHandles {
    registry: Arc<Registry>,
    tracer: Tracer,
    atomic_fetches: Arc<Counter>,
    joins: Arc<Counter>,
    entries_processed: Arc<Counter>,
    level_descents: Arc<Counter>,
    memo_hits: Arc<Counter>,
    memo_misses: Arc<Counter>,
    prune_examined: Arc<Counter>,
    entries_pruned: Arc<Counter>,
    threshold_updates: Arc<Counter>,
}

impl EngineHandles {
    /// Registers (or finds) every `engine.*` metric in `registry`.
    #[must_use]
    pub fn new(registry: Arc<Registry>) -> Arc<EngineHandles> {
        Arc::new(EngineHandles {
            tracer: RegistrySubscriber::tracer(registry.clone(), "engine", &ENGINE_SPANS),
            atomic_fetches: registry.counter("engine.atomic_fetches"),
            joins: registry.counter("engine.joins"),
            entries_processed: registry.counter("engine.entries_processed"),
            level_descents: registry.counter("engine.level_descents"),
            memo_hits: registry.counter("engine.memo.hits"),
            memo_misses: registry.counter("engine.memo.misses"),
            prune_examined: registry.counter("engine.prune.entries_examined"),
            entries_pruned: registry.counter("engine.prune.entries_pruned"),
            threshold_updates: registry.counter("engine.prune.threshold_updates"),
            registry,
        })
    }

    /// The registry the handles report into.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Adds one evaluation's work to the cumulative counters: one atomic
    /// add per non-zero counter.
    fn flush(&self, w: &Work) {
        for (counter, n) in [
            (&self.atomic_fetches, w.atomic_fetches),
            (&self.joins, w.joins),
            (&self.entries_processed, w.entries_processed),
            (&self.level_descents, w.level_descents),
            (&self.memo_hits, w.memo_hits),
            (&self.memo_misses, w.memo_misses),
            (&self.prune_examined, w.prune_examined),
            (&self.entries_pruned, w.entries_pruned),
            (&self.threshold_updates, w.threshold_updates),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Per-call evaluation controls threaded through the engine's recursion:
/// the request [`Budget`], whether this call runs the memo (see
/// [`Engine::memo_runs`]) and, for resilient top-`k` calls, a slot where
/// the pruned-conjunction path deposits salvageable partial state before
/// returning a degradable error.
#[derive(Clone, Copy)]
struct Ctl<'c> {
    budget: &'c Budget,
    memo: bool,
    salvage: Option<&'c RefCell<Option<Salvage>>>,
}

/// The shared budget behind [`Ctl::UNLIMITED`] (a `static`, because
/// `Budget` is interior-mutable and so cannot be borrowed from a const).
static UNLIMITED_BUDGET: Budget = Budget::unlimited();

impl Ctl<'_> {
    /// Controls that never interrupt, never memoize and never salvage —
    /// the non-resilient public entry points set `memo` per plan.
    const UNLIMITED: Ctl<'static> = Ctl {
        budget: &UNLIMITED_BUDGET,
        memo: false,
        salvage: None,
    };
}

/// Partial conjunction state captured when the pruned top-`k` path is
/// interrupted, from which a sound [`DegradedAnswer`] is assembled.
#[derive(Debug, Clone)]
struct Salvage {
    /// Running schedule-order sum over the conjuncts evaluated so far,
    /// restricted to segments still able to reach the top-`k`. Each value
    /// is a lower bound on the segment's true similarity.
    partial: Option<Arc<SimilarityList>>,
    /// Sum of the maxima of the conjuncts not yet folded in (including the
    /// one that failed): what the unevaluated remainder can still add.
    remaining: f64,
    /// Sound upper bound for segments *not* in `partial`: they were either
    /// never covered (true value ≤ `remaining`) or pruned by a τ cut (true
    /// value < τ + margin ≤ this). Always ≥ `remaining`.
    gap_bound: f64,
}

/// Renders a captured panic payload (`&str` or `String`) for the typed
/// [`EngineError::WorkerPanic`]. Deterministic for deterministic payloads,
/// which keeps injected-panic outcomes replayable.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// Runs `work`, converting a panic into [`EngineError::WorkerPanic`].
fn catch_eval<T>(work: impl FnOnce() -> Result<T, EngineError>) -> Result<T, EngineError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(r) => r,
        Err(payload) => Err(EngineError::WorkerPanic(panic_message(payload))),
    }
}

/// An owned table out of a shared one: moves when this was the only
/// reference, otherwise clones — and a table clone is shallow since rows
/// share their lists by [`Arc`], so only small row headers are copied.
fn unshare_table(t: Arc<SimilarityTable>) -> SimilarityTable {
    Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone())
}

/// An owned list out of a shared one (same move-or-clone contract as
/// [`unshare_table`]; the clone here does copy entries, so it is reserved
/// for public API boundaries that promise owned values).
fn unshare_list(l: Arc<SimilarityList>) -> SimilarityList {
    Arc::try_unwrap(l).unwrap_or_else(|shared| (*shared).clone())
}

/// Evaluates extended conjunctive HTL formulas over one video.
///
/// Engines are cheap: the metric handles are shared ([`EngineHandles`]),
/// and the per-engine state is the memo plus the work counts.
/// Formulas are compiled into a [`Plan`] first; a caller evaluating one
/// query on many videos plans once and calls [`Engine::top_k_plan`] on
/// each video's engine.
pub struct Engine<'a, P: AtomicProvider> {
    provider: &'a P,
    tree: &'a VideoTree,
    config: EngineConfig,
    handles: Arc<EngineHandles>,
    work: Mutex<Work>,
    memo: MemoCache,
}

impl<'a, P: AtomicProvider> Engine<'a, P> {
    /// Creates an engine with default configuration.
    pub fn new(provider: &'a P, tree: &'a VideoTree) -> Self {
        Engine::with_config(provider, tree, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration and a private
    /// metrics registry (see [`Engine::with_registry`] to share one).
    pub fn with_config(provider: &'a P, tree: &'a VideoTree, config: EngineConfig) -> Self {
        Engine::with_registry(provider, tree, config, Arc::new(Registry::new()))
    }

    /// Creates an engine reporting its `engine.*` metrics (work counters
    /// and per-operator span histograms) into a shared registry — e.g.
    /// the registry a benchmark run snapshots. Resolves the
    /// metric handles on every call; use [`Engine::with_handles`] when
    /// building many engines on one registry.
    pub fn with_registry(
        provider: &'a P,
        tree: &'a VideoTree,
        config: EngineConfig,
        registry: Arc<Registry>,
    ) -> Self {
        Engine::with_handles(provider, tree, config, EngineHandles::new(registry))
    }

    /// Creates an engine reporting through already-resolved metric
    /// handles — no registry lookup.
    pub fn with_handles(
        provider: &'a P,
        tree: &'a VideoTree,
        config: EngineConfig,
        handles: Arc<EngineHandles>,
    ) -> Self {
        Engine {
            provider,
            tree,
            config,
            handles,
            work: Mutex::new(Work::default()),
            memo: MemoCache::new(),
        }
    }

    /// The metrics registry this engine reports into. Counters there are
    /// cumulative over the registry's lifetime (unlike the per-evaluation
    /// [`EvalStats`] view) and span histograms carry per-operator
    /// latencies; snapshot it for machine-readable observability.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.handles.registry
    }

    /// Work counters of this engine's last top-level evaluation call, plus
    /// the provider's (lifetime-cumulative) atomic-cache counters.
    pub fn stats(&self) -> EvalStats {
        let w = self.work_done();
        EvalStats {
            atomic_fetches: w.atomic_fetches as usize,
            joins: w.joins as usize,
            entries_processed: w.entries_processed as usize,
            level_descents: w.level_descents as usize,
            memo_hits: w.memo_hits as usize,
            memo_misses: w.memo_misses as usize,
            entries_pruned: w.entries_pruned as usize,
            atomic_cache: self.provider.cache_stats(),
        }
    }

    /// Adds to this evaluation's local work counts.
    fn tally(&self, count: impl FnOnce(&mut Work)) {
        count(&mut self.work.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// The work counted since the last top-level call began.
    fn work_done(&self) -> Work {
        *self.work.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a top-level call on `plan` runs the memo: memoization is on
    /// and some subformula occurs twice in the plan. Within one call a memo
    /// key (node id, window) can only repeat if a node id repeats —
    /// level-modal descents evaluate their body on disjoint child windows —
    /// so without a repeated id the memo would be filled and probed but
    /// never hit. Skipping it costs no lock, no hash and no map per video.
    fn memo_runs(&self, plan: &Plan) -> bool {
        self.config.memoize && plan.repeats_subformula()
    }

    /// Runs one top-level evaluation: fresh work counts (and a fresh memo
    /// when `ctl` runs it), the `eval` span around `run`, and one flush of
    /// the counts into the registry afterwards (whatever `run` returned).
    fn top_level<T>(&self, ctl: Ctl<'_>, run: impl FnOnce() -> T) -> T {
        self.tally(|w| *w = Work::default());
        if ctl.memo {
            self.memo.clear();
        }
        let out = {
            let _eval = self.handles.tracer.span("eval");
            run()
        };
        self.handles.flush(&self.work_done());
        out
    }

    /// The full sequence of segments at `depth`.
    fn level_context(&self, depth: u8) -> SeqContext {
        SeqContext {
            depth,
            lo: 0,
            hi: self.tree.level_sequence(depth).len() as u32,
        }
    }

    /// Evaluates `f` over the full sequence of segments at `depth`,
    /// producing a similarity table (rows = evaluations of free variables).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedFormula`] if `f` is not extended
    /// conjunctive (or simpler); [`EngineError::BadLevel`] on bad level
    /// modalities; [`EngineError::WorkerPanic`] if the provider panicked.
    pub fn eval_at_level(&self, f: &Formula, depth: u8) -> Result<SimilarityTable, EngineError> {
        let plan = Plan::new(f);
        check_class(&plan)?;
        self.eval_plan(&plan, depth)
    }

    /// Evaluates `f` over the full sequence at `depth` *without* the
    /// formula-class gate: free object variables are allowed and surface
    /// as binding columns of the result table. Negations outside atomic
    /// units still fail during evaluation. Useful for inspecting the
    /// intermediate similarity tables of a query's subformulas.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedFormula`] on operators outside the
    /// engine's algebra; [`EngineError::BadLevel`] on bad level
    /// modalities; [`EngineError::WorkerPanic`] if the provider panicked.
    pub fn eval_open_at_level(
        &self,
        f: &Formula,
        depth: u8,
    ) -> Result<SimilarityTable, EngineError> {
        self.eval_plan(&Plan::new(f), depth)
    }

    fn eval_plan(&self, plan: &Plan, depth: u8) -> Result<SimilarityTable, EngineError> {
        let ctx = self.level_context(depth);
        let ctl = Ctl {
            memo: self.memo_runs(plan),
            ..Ctl::UNLIMITED
        };
        self.top_level(ctl, || catch_eval(|| self.eval(plan.root(), ctx, ctl)))
            .map(unshare_table)
    }

    /// Evaluates a *closed* `f` over the full sequence at `depth`, returning
    /// the similarity list of the sequence's segments.
    ///
    /// # Errors
    ///
    /// As [`Engine::eval_at_level`], plus if free variables remain.
    pub fn eval_closed_at_level(
        &self,
        f: &Formula,
        depth: u8,
    ) -> Result<SimilarityList, EngineError> {
        let t = self.eval_at_level(f, depth)?;
        if !t.obj_cols.is_empty() || !t.attr_cols.is_empty() {
            return Err(EngineError::UnsupportedFormula(format!(
                "free variables remain: {:?} {:?}",
                t.obj_cols, t.attr_cols
            )));
        }
        Ok(unshare_list(t.into_closed_list()))
    }

    /// Retrieves the top-`k` segments of a *closed* formula over the full
    /// sequence at `depth`, pruning work with a running `k`-th-best
    /// threshold τ derived from the `(actual, max)` similarity semantics:
    ///
    /// * **Conjunctions** (under the paper's Sum semantics) evaluate their
    ///   conjuncts in ascending maximum-similarity order; after each one,
    ///   any segment whose accumulated value plus the *remaining* maxima
    ///   cannot reach τ is dropped before the next merge. Final values are
    ///   then recombined following the formula's own `∧`-tree shape, so
    ///   floating-point sums associate exactly as in [`Engine::eval_at_level`].
    /// * **`eventually`** stops its suffix-max sweep after `k` covered
    ///   positions (the output is non-increasing).
    /// * **`until`** skips reach entries dominated by `h`'s own `k`-th
    ///   best value.
    /// * Everything else falls back to full evaluation.
    ///
    /// The result is *identical* — values bit-for-bit — to
    /// `top_k(&engine.eval_closed_at_level(f, depth)?, k)`; pruning only
    /// skips entries that provably cannot surface in the top-`k`. Skipped
    /// work is reported in [`EvalStats::entries_pruned`].
    ///
    /// Plans `f` and calls [`Engine::top_k_plan`].
    ///
    /// # Errors
    ///
    /// As [`Engine::eval_closed_at_level`].
    pub fn top_k_closed(
        &self,
        f: &Formula,
        depth: u8,
        k: usize,
    ) -> Result<Vec<RankedSegment>, EngineError> {
        self.top_k_plan(&Plan::new(f), depth, k)
    }

    /// [`Engine::top_k_closed`] on an already planned formula — the call a
    /// corpus makes once per video with one plan per request.
    ///
    /// # Errors
    ///
    /// As [`Engine::top_k_closed`].
    pub fn top_k_plan(
        &self,
        plan: &Plan,
        depth: u8,
        k: usize,
    ) -> Result<Vec<RankedSegment>, EngineError> {
        match self.top_k_plan_resilient(plan, depth, k, &Budget::unlimited())? {
            TopKAnswer::Complete(ranked) => Ok(ranked),
            // With an unlimited budget, degradation can only come from a
            // failing provider or a captured panic; without a resilient
            // caller to hand the partial answer to, surface the cause.
            TopKAnswer::Degraded(d) => Err(d.reason),
        }
    }

    /// Resilient top-`k` retrieval: like [`Engine::top_k_closed`], but the
    /// evaluation honours a request [`Budget`] (deadline, fuel,
    /// cancellation) and *degrades instead of failing* when interrupted.
    ///
    /// On a budget violation, a provider that gave up after retries, or a
    /// captured panic, the call returns
    /// [`TopKAnswer::Degraded`] carrying the ranking accumulated so far
    /// (each value a *lower* bound on the segment's true similarity) plus
    /// per-interval *upper* bounds on every unresolved segment — sound by
    /// the paper's `(actual, max)` semantics, since a formula's `max` is a
    /// function of the formula alone. Fault-free evaluations take exactly
    /// the [`Engine::top_k_closed`] code path, so their rankings are
    /// bit-identical to it.
    ///
    /// Panics (from the provider or the engine itself) are captured with
    /// `catch_unwind` at this boundary and surfaced as
    /// [`EngineError::WorkerPanic`] inside the degraded answer — a
    /// panicking provider call can no longer tear down the process.
    ///
    /// # Errors
    ///
    /// Non-degradable errors only: formula-class rejection
    /// ([`EngineError::UnsupportedFormula`], [`EngineError::BadLevel`]) and
    /// permanent provider rejection ([`EngineError::ProviderRejected`]).
    pub fn top_k_closed_resilient(
        &self,
        f: &Formula,
        depth: u8,
        k: usize,
        budget: &Budget,
    ) -> Result<TopKAnswer, EngineError> {
        self.top_k_plan_resilient(&Plan::new(f), depth, k, budget)
    }

    /// [`Engine::top_k_closed_resilient`] on an already planned formula.
    ///
    /// # Errors
    ///
    /// As [`Engine::top_k_closed_resilient`].
    pub fn top_k_plan_resilient(
        &self,
        plan: &Plan,
        depth: u8,
        k: usize,
        budget: &Budget,
    ) -> Result<TopKAnswer, EngineError> {
        check_class(plan)?;
        if k == 0 {
            self.tally(|w| *w = Work::default());
            return Ok(TopKAnswer::Complete(Vec::new()));
        }
        let ctx = self.level_context(depth);
        let slot: RefCell<Option<Salvage>> = RefCell::new(None);
        let ctl = Ctl {
            budget,
            memo: self.memo_runs(plan),
            salvage: Some(&slot),
        };
        let result = self.top_level(ctl, || {
            catch_eval(|| self.top_k_list(plan.root(), ctx, k, ctl))
        });
        match result {
            Ok(out) => Ok(TopKAnswer::Complete(top_k(&out, k))),
            Err(reason) if reason.is_degradable() => {
                let salvage = slot.take();
                Ok(TopKAnswer::Degraded(self.degraded_answer(
                    plan.root(),
                    ctx,
                    k,
                    reason,
                    salvage,
                )))
            }
            Err(e) => Err(e),
        }
    }

    /// Assembles a sound [`DegradedAnswer`] from whatever the interrupted
    /// evaluation salvaged.
    fn degraded_answer(
        &self,
        root: &Node,
        ctx: SeqContext,
        k: usize,
        reason: EngineError,
        salvage: Option<Salvage>,
    ) -> DegradedAnswer {
        let n = ctx.len();
        let (ranked_so_far, unresolved_upper_bounds) = match salvage {
            Some(s) => {
                let partial = s
                    .partial
                    .unwrap_or_else(|| Arc::new(SimilarityList::empty(0.0)));
                let bounds = bounds_from_partial(&partial, n, s.remaining, s.gap_bound);
                (top_k(&partial, k), bounds)
            }
            // Nothing salvaged: no positions resolved; every segment is
            // bounded by the formula's own maximum similarity.
            None => {
                let bounds = if n == 0 {
                    Vec::new()
                } else {
                    vec![(Interval::new(1, n), self.node_max(root))]
                };
                (Vec::new(), bounds)
            }
        };
        DegradedAnswer {
            ranked_so_far,
            unresolved_upper_bounds,
            reason,
        }
    }

    /// A list whose top-`k` equals the top-`k` of the full evaluation of
    /// `node` (positions outside the top-`k` may be missing or lowered).
    fn top_k_list(
        &self,
        node: &Node,
        ctx: SeqContext,
        k: usize,
        ctl: Ctl<'_>,
    ) -> Result<Arc<SimilarityList>, EngineError> {
        match &node.op {
            // Pure conjunctions are a single atomic unit; only impure ones
            // plan as `And` and decompose into independently evaluated
            // conjuncts the threshold can prune between.
            Op::And(..) if self.config.conjunction == crate::ConjunctionSemantics::Sum => {
                self.conjunction_top_k(node, ctx, k, ctl)
            }
            Op::Eventually(g) => {
                let inner = self.closed_list(g, ctx, ctl)?;
                let _sweep = self.handles.tracer.span("eventually_sweep");
                let (out, skipped) = prune::eventually_top_k(&inner, k);
                self.tally(|w| {
                    w.prune_examined += inner.len() as u64;
                    w.entries_pruned += skipped as u64;
                });
                Ok(Arc::new(out))
            }
            Op::Until(g, h) => {
                let tg = self.eval(g, ctx, ctl)?;
                let th = self.eval(h, ctx, ctl)?;
                self.note_join(&tg, &th);
                let lg = closed_table_list(&tg)?;
                let lh = closed_table_list(&th)?;
                let _sweep = self.handles.tracer.span("until_sweep");
                let (out, skipped) = prune::until_top_k(&lg, &lh, self.config.until_threshold, k);
                self.tally(|w| {
                    w.prune_examined += (lg.len() + lh.len()) as u64;
                    w.entries_pruned += skipped as u64;
                });
                Ok(Arc::new(out))
            }
            _ => self.closed_list(node, ctx, ctl),
        }
    }

    /// The threshold-pruned conjunction path: bounds run over a cheap
    /// running sum in ascending-max schedule order, exact values are
    /// recomputed over the surviving segments in the formula's own tree
    /// order (f64 addition is commutative but not associative — only the
    /// tree-shaped recombination is bit-identical to `eval`).
    fn conjunction_top_k(
        &self,
        node: &Node,
        ctx: SeqContext,
        k: usize,
        ctl: Ctl<'_>,
    ) -> Result<Arc<SimilarityList>, EngineError> {
        let mut conjuncts: Vec<&Node> = Vec::new();
        flatten_and(node, &mut conjuncts);
        let maxes: Vec<f64> = conjuncts.iter().map(|g| self.node_max(g)).collect();
        // Ascending maximum similarity: the upper bound on what the still
        // unevaluated conjuncts can add shrinks as fast as possible, so τ
        // starts biting early. Ties keep formula order (stable).
        let mut order: Vec<usize> = (0..conjuncts.len()).collect();
        order.sort_by(|&a, &b| {
            maxes[a]
                .partial_cmp(&maxes[b])
                .expect("maxima are finite")
                .then(a.cmp(&b))
        });
        // When the schedule is the identity and the `∧`-tree is a
        // left-deep chain, the running partial sums associate exactly like
        // `eval`'s tree joins — the partial IS the final result, and the
        // recombination pass (a full second round of joins) is skipped.
        let schedule_is_tree =
            order.iter().enumerate().all(|(s, &i)| s == i) && and_chain_is_left_deep(node);
        let mut lists: Vec<Option<Arc<SimilarityList>>> = vec![None; conjuncts.len()];
        // Segments still able to reach the top-k (`None` = all of them).
        let mut alive: Option<Vec<Interval>> = None;
        let mut partial: Option<Arc<SimilarityList>> = None;
        let mut remaining: f64 = maxes.iter().sum();
        // Sound bound for segments cut by a τ prune: a pruned segment's
        // true value is < τ + margin of the cut that dropped it, and τ only
        // grows across steps, so the latest cut bounds them all.
        let mut tau_bound: f64 = 0.0;
        // Deposits the partial state for a degraded answer before a
        // degradable failure propagates; the failed conjunct's maximum is
        // still inside `remaining` at every failure point below.
        let salvage = |partial: &Option<Arc<SimilarityList>>, remaining: f64, tau_bound: f64| {
            if let Some(slot) = ctl.salvage {
                *slot.borrow_mut() = Some(Salvage {
                    partial: partial.clone(),
                    remaining,
                    gap_bound: remaining.max(tau_bound),
                });
            }
        };
        for (step, &i) in order.iter().enumerate() {
            if let Err(e) = ctl.budget.check() {
                salvage(&partial, remaining, tau_bound);
                return Err(e);
            }
            // Panics inside a conjunct (an injected fault, a provider bug)
            // are caught here so the partial sums of earlier conjuncts
            // survive into the degraded answer.
            let li = match catch_eval(|| self.closed_list(conjuncts[i], ctx, ctl)) {
                Ok(li) => li,
                Err(e) => {
                    if e.is_degradable() {
                        salvage(&partial, remaining, tau_bound);
                    }
                    return Err(e);
                }
            };
            remaining -= maxes[i];
            self.tally(|w| w.prune_examined += li.len() as u64);
            let li = match &alive {
                None => li,
                Some(spans) => {
                    let restricted = li.restrict_to(spans);
                    self.tally(|w| {
                        w.entries_pruned += li.len().saturating_sub(restricted.len()) as u64;
                    });
                    Arc::new(restricted)
                }
            };
            let last = step + 1 == order.len();
            if !last || schedule_is_tree {
                let sum = match &partial {
                    None => Arc::clone(&li),
                    Some(prev) => {
                        self.note_list_join(prev, &li);
                        Arc::new(list::and(prev, &li))
                    }
                };
                // τ = k-th best running sum. Running sums are lower bounds
                // on final values (every conjunct contributes ≥ 0), so τ
                // never exceeds the true k-th best. A segment survives iff
                // value + remaining maxima can still reach τ; the margin
                // absorbs the ULP-level difference between schedule-order
                // and tree-order sums so near-ties are never lost. The
                // last step skips the cut — nothing follows to save.
                let sum = if last {
                    sum
                } else {
                    let tau = prune::kth_largest_value(&sum, k);
                    let cut = tau - remaining;
                    if tau > 0.0 && cut > 0.0 {
                        let margin = 1e-9 + 1e-12 * tau.abs();
                        tau_bound = tau_bound.max(tau + margin);
                        let spans: Vec<Interval> = sum
                            .entries()
                            .iter()
                            .filter(|e| e.act + margin >= cut)
                            .map(|e| e.iv)
                            .collect();
                        let restricted = sum.restrict_to(&spans);
                        self.tally(|w| {
                            w.entries_pruned += sum.len().saturating_sub(restricted.len()) as u64;
                            w.threshold_updates += 1;
                        });
                        alive = Some(spans);
                        Arc::new(restricted)
                    } else {
                        sum
                    }
                };
                partial = Some(sum);
            }
            lists[i] = Some(li);
        }
        if schedule_is_tree {
            return Ok(partial.expect("a conjunction has at least two conjuncts"));
        }
        // Exact values for the survivors: restrict every conjunct to the
        // final alive set and recombine along the formula's And tree.
        let leaves: Vec<Arc<SimilarityList>> = lists
            .into_iter()
            .map(|l| {
                let l = l.expect("every conjunct evaluated");
                match &alive {
                    None => l,
                    Some(spans) => Arc::new(l.restrict_to(spans)),
                }
            })
            .collect();
        let mut iter = leaves.into_iter();
        let out = self.combine_and_tree(node, &mut iter);
        debug_assert!(iter.next().is_none(), "leaf count matches tree");
        Ok(out)
    }

    /// Recombines per-conjunct lists following the `∧`-tree of `node`,
    /// consuming one leaf list per non-`And` node in formula order.
    fn combine_and_tree(
        &self,
        node: &Node,
        leaves: &mut std::vec::IntoIter<Arc<SimilarityList>>,
    ) -> Arc<SimilarityList> {
        match &node.op {
            Op::And(g, h) => {
                let a = self.combine_and_tree(g, leaves);
                let b = self.combine_and_tree(h, leaves);
                self.note_list_join(&a, &b);
                Arc::new(list::and(&a, &b))
            }
            _ => leaves.next().expect("one list per conjunct"),
        }
    }

    /// Evaluates a closed subformula straight to its similarity list.
    fn closed_list(
        &self,
        node: &Node,
        ctx: SeqContext,
        ctl: Ctl<'_>,
    ) -> Result<Arc<SimilarityList>, EngineError> {
        let t = self.eval(node, ctx, ctl)?;
        closed_table_list(&t)
    }

    /// Evaluates `f` on the whole video — the one-element sequence holding
    /// the root (§2.3's satisfaction by a video). The resulting similarity
    /// is the value at position 1.
    ///
    /// # Errors
    ///
    /// As [`Engine::eval_closed_at_level`].
    pub fn eval_video(&self, f: &Formula) -> Result<crate::Sim, EngineError> {
        let l = self.eval_closed_at_level(f, 0)?;
        Ok(l.sim_at(1))
    }

    /// The maximum similarity of `f` (a function of the formula only).
    #[must_use]
    pub fn formula_max(&self, f: &Formula) -> f64 {
        self.node_max(Plan::new(f).root())
    }

    fn node_max(&self, node: &Node) -> f64 {
        match &node.op {
            Op::Unit(unit) => self.provider.atomic_max(unit),
            Op::And(g, h) => self.node_max(g) + self.node_max(h),
            Op::Until(_, h) => self.node_max(h),
            Op::Not(g)
            | Op::Next(g)
            | Op::Eventually(g)
            | Op::Exists(_, g)
            | Op::Freeze { body: g, .. }
            | Op::AtLevel { body: g, .. } => self.node_max(g),
        }
    }

    /// Evaluates one plan node, answering from the memo cache when the
    /// call runs it and the same (interned subformula, context) pair has
    /// been computed before. Failed evaluations are never stored. The memo
    /// key is the node's pre-interned id, so a lookup costs one hash of
    /// four integers.
    fn eval(
        &self,
        node: &Node,
        ctx: SeqContext,
        ctl: Ctl<'_>,
    ) -> Result<Arc<SimilarityTable>, EngineError> {
        if !ctl.memo {
            return self.eval_uncached(node, ctx, ctl);
        }
        let key = MemoCache::key(node.id, ctx);
        if let Some(hit) = self.memo.lookup(&key) {
            self.tally(|w| w.memo_hits += 1);
            return Ok(hit);
        }
        self.tally(|w| w.memo_misses += 1);
        let out = self.eval_uncached(node, ctx, ctl)?;
        self.memo.store(key, Arc::clone(&out));
        Ok(out)
    }

    fn eval_uncached(
        &self,
        node: &Node,
        ctx: SeqContext,
        ctl: Ctl<'_>,
    ) -> Result<Arc<SimilarityTable>, EngineError> {
        // One unit of fuel per uncached subformula evaluation: every
        // operator boundary passes through here, so deadline/cancellation
        // checks ride along at zero extra traversal cost.
        ctl.budget.consume(1)?;
        match &node.op {
            Op::Unit(unit) => {
                self.tally(|w| w.atomic_fetches += 1);
                let _fetch = self.handles.tracer.span("atomic_fetch");
                let t = self.provider.try_atomic_table(unit, ctx)?;
                // `ensure_closed_row` only rewrites empty closed tables; the
                // shared table passes through untouched otherwise.
                if t.is_closed() && t.rows.is_empty() {
                    return Ok(Arc::new(unshare_table(t).ensure_closed_row()));
                }
                Ok(t)
            }
            Op::And(g, h) => {
                let tg = self.eval(g, ctx, ctl)?;
                let th = self.eval(h, ctx, ctl)?;
                self.note_join(&tg, &th);
                let sem = self.config.conjunction;
                let _join = self.handles.tracer.span("join");
                Ok(Arc::new(tg.join(&th, tg.max + th.max, move |a, b| {
                    list::and_with(a, b, sem)
                })))
            }
            Op::Until(g, h) => {
                let tg = self.eval(g, ctx, ctl)?;
                let th = self.eval(h, ctx, ctl)?;
                self.note_join(&tg, &th);
                let theta = self.config.until_threshold;
                let _sweep = self.handles.tracer.span("until_sweep");
                Ok(Arc::new(
                    tg.join(&th, th.max, |a, b| list::until(a, b, theta)),
                ))
            }
            Op::Next(g) => {
                let t = self.eval(g, ctx, ctl)?;
                let max = t.max;
                Ok(Arc::new(unshare_table(t).map_lists(max, list::next)))
            }
            Op::Eventually(g) => {
                let t = self.eval(g, ctx, ctl)?;
                let max = t.max;
                let _sweep = self.handles.tracer.span("eventually_sweep");
                Ok(Arc::new(unshare_table(t).map_lists(max, list::eventually)))
            }
            Op::Exists(var, g) => {
                let t = self.eval(g, ctx, ctl)?;
                Ok(Arc::new(unshare_table(t).project_out_obj(var)))
            }
            Op::Freeze { var, func, body } => {
                let t = self.eval(body, ctx, ctl)?;
                let vt = self.provider.try_value_table(func, ctx)?;
                Ok(Arc::new(freeze_join(&t, &vt, var)))
            }
            Op::AtLevel {
                spec,
                body,
                obj_cols,
                attr_cols,
            } => self.eval_at_level_modal(spec, body, (obj_cols, attr_cols), ctx, ctl),
            Op::Not(_) => Err(EngineError::UnsupportedFormula(
                "negation outside atomic units".into(),
            )),
        }
    }

    /// Evaluates `at <spec> level g` on `ctx`. `cols` are `g`'s free
    /// object and attribute variables, the result columns when no segment
    /// of `ctx` has descendants at the target level.
    fn eval_at_level_modal(
        &self,
        spec: &LevelSpec,
        g: &Node,
        cols: (&[String], &[String]),
        ctx: SeqContext,
        ctl: Ctl<'_>,
    ) -> Result<Arc<SimilarityTable>, EngineError> {
        let target = match spec {
            LevelSpec::Next => ctx.depth + 1,
            LevelSpec::Number(n) => n
                .checked_sub(1)
                .ok_or_else(|| EngineError::BadLevel("level numbers start at 1".into()))?,
            LevelSpec::Named(name) => self
                .tree
                .level_by_name(name)
                .ok_or_else(|| EngineError::BadLevel(format!("no level named `{name}`")))?,
        };
        if target <= ctx.depth {
            return Err(EngineError::BadLevel(format!(
                "level {} does not lie below the current level {}",
                target + 1,
                ctx.depth + 1
            )));
        }
        let gmax = self.node_max(g);
        let seq = self.tree.level_sequence(ctx.depth);
        let mut out: Option<SimilarityTable> = None;
        // (binding, entries) accumulated across parents; entries arrive in
        // ascending position order because parents are visited in order.
        type Acc = Vec<(
            Vec<simvid_model::ObjectId>,
            Vec<crate::AttrRange>,
            Vec<(u32, f64)>,
        )>;
        let mut acc: Acc = Vec::new();
        for (local0, &parent) in seq[ctx.lo as usize..ctx.hi as usize].iter().enumerate() {
            // Each parent with descendants is a proper sequence of its own.
            let Some((lo, hi)) = self.tree.descendant_span(parent, target) else {
                continue;
            };
            if lo == hi {
                continue;
            }
            let local_pos = local0 as u32 + 1;
            self.tally(|w| w.level_descents += 1);
            let sub = self.eval(
                g,
                SeqContext {
                    depth: target,
                    lo,
                    hi,
                },
                ctl,
            )?;
            for row in &sub.rows {
                // The modal operator reads the value at the *first* segment
                // of the descendant sequence.
                let v = row.list.value_at(1);
                if v <= 0.0 {
                    continue;
                }
                match acc
                    .iter_mut()
                    .find(|(objs, ranges, _)| *objs == row.objs && *ranges == row.ranges)
                {
                    Some((_, _, entries)) => entries.push((local_pos, v)),
                    None => acc.push((row.objs.clone(), row.ranges.clone(), vec![(local_pos, v)])),
                }
            }
            if out.is_none() {
                out = Some(SimilarityTable::new(
                    sub.obj_cols.clone(),
                    sub.attr_cols.clone(),
                    gmax,
                ));
            }
        }
        // No parent had descendants: the columns come from the plan.
        let mut out =
            out.unwrap_or_else(|| SimilarityTable::new(cols.0.to_vec(), cols.1.to_vec(), gmax));
        for (objs, ranges, entries) in acc {
            let list = SimilarityList::from_tuples(
                entries.into_iter().map(|(p, v)| (p, p, v)).collect(),
                gmax,
            )
            .expect("positions are distinct and ascending");
            out.push_row(Row {
                objs,
                ranges,
                list: Arc::new(list),
            });
        }
        Ok(Arc::new(out.ensure_closed_row()))
    }

    fn note_join(&self, a: &SimilarityTable, b: &SimilarityTable) {
        let entries = a.rows.iter().map(|r| r.list.len()).sum::<usize>()
            + b.rows.iter().map(|r| r.list.len()).sum::<usize>();
        self.tally(|w| {
            w.joins += 1;
            w.entries_processed += entries as u64;
        });
    }

    /// Like [`Engine::note_join`], for the pruned paths that merge bare
    /// lists instead of tables.
    fn note_list_join(&self, a: &SimilarityList, b: &SimilarityList) {
        self.tally(|w| {
            w.joins += 1;
            w.entries_processed += (a.len() + b.len()) as u64;
        });
    }
}

/// Rejects formulas outside the extended conjunctive class.
fn check_class(plan: &Plan) -> Result<(), EngineError> {
    if plan.class() == FormulaClass::General {
        return Err(EngineError::UnsupportedFormula(
            "contains negation of temporal structure, unbound variables, or a non-prefix \
             existential quantifier with temporal scope"
                .into(),
        ));
    }
    Ok(())
}

/// Extracts the similarity list of a closed-formula table, or errors when
/// free variables remain. The common single-row case shares the row's
/// list by reference count.
fn closed_table_list(t: &SimilarityTable) -> Result<Arc<SimilarityList>, EngineError> {
    if !t.obj_cols.is_empty() || !t.attr_cols.is_empty() {
        return Err(EngineError::UnsupportedFormula(format!(
            "free variables remain: {:?} {:?}",
            t.obj_cols, t.attr_cols
        )));
    }
    Ok(match t.rows.len() {
        0 => Arc::new(SimilarityList::empty(t.max)),
        1 => Arc::clone(&t.rows[0].list),
        _ => {
            let lists: Vec<&SimilarityList> = t.rows.iter().map(|r| &*r.list).collect();
            Arc::new(list::max_merge_many(&lists))
        }
    })
}

/// Upper bounds for a degraded answer from a salvaged partial sum: listed
/// segments are bounded by their accumulated value plus what the remaining
/// conjuncts can add; the gaps between them (never covered, or dropped by
/// a τ cut) by `gap_bound`. The output covers `1..=n` with disjoint,
/// sorted intervals.
fn bounds_from_partial(
    partial: &SimilarityList,
    n: u32,
    remaining: f64,
    gap_bound: f64,
) -> Vec<(Interval, f64)> {
    let mut out = Vec::new();
    let mut next: u32 = 1;
    for e in partial.entries() {
        if e.iv.beg > next {
            out.push((Interval::new(next, e.iv.beg - 1), gap_bound));
        }
        out.push((e.iv, e.act + remaining));
        next = e.iv.end + 1;
    }
    if next <= n {
        out.push((Interval::new(next, n), gap_bound));
    }
    out
}

/// Flattens a chain of `And` nodes into its conjuncts, in formula order.
/// Pure conjunctions are single unit leaves in the plan, so the
/// decomposition matches what `eval` hands the atomic provider.
fn flatten_and<'p>(node: &'p Node, out: &mut Vec<&'p Node>) {
    match &node.op {
        Op::And(g, h) => {
            flatten_and(g, out);
            flatten_and(h, out);
        }
        _ => out.push(node),
    }
}

/// Whether the `And` chain of `node` is left-deep, i.e. flattening it
/// visits conjuncts in the same association order as a left-to-right fold.
fn and_chain_is_left_deep(node: &Node) -> bool {
    match &node.op {
        // The right child must be a flatten leaf, not itself an `And`.
        Op::And(g, h) => !matches!(h.op, Op::And(..)) && and_chain_is_left_deep(g),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::parse;
    use simvid_model::{AttrValue, VideoBuilder};

    /// A provider that serves fixed lists keyed by the unit's interned
    /// [`FormulaId`] (fixture sources are parsed and interned up front),
    /// slicing to the requested window.
    struct FixtureProvider {
        tables: Vec<(simvid_htl::FormulaId, SimilarityList)>,
    }

    impl FixtureProvider {
        fn new(entries: Vec<(&str, SimilarityList)>) -> Self {
            FixtureProvider {
                tables: entries
                    .into_iter()
                    .map(|(k, v)| {
                        let f = parse(k).expect("fixture key parses");
                        (simvid_htl::FormulaId::of(&f), v)
                    })
                    .collect(),
            }
        }

        fn lookup(&self, f: &Formula) -> Option<&SimilarityList> {
            let id = simvid_htl::FormulaId::of(f);
            self.tables.iter().find(|(k, _)| *k == id).map(|(_, v)| v)
        }
    }

    impl AtomicProvider for FixtureProvider {
        fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable> {
            let list = self
                .lookup(&unit.formula)
                .map(|l| l.slice_window(ctx.lo + 1, ctx.hi))
                .unwrap_or_else(|| SimilarityList::empty(1.0));
            Arc::new(SimilarityTable::from_list(list))
        }

        fn atomic_max(&self, unit: &AtomicUnit) -> f64 {
            self.lookup(&unit.formula).map_or(1.0, SimilarityList::max)
        }

        fn value_table(&self, _func: &AttrFn, _ctx: SeqContext) -> ValueTable {
            ValueTable::default()
        }
    }

    fn sl(tuples: Vec<(u32, u32, f64)>, max: f64) -> SimilarityList {
        SimilarityList::from_tuples(tuples, max).unwrap()
    }

    /// A flat 50-shot video (like the Casablanca setup).
    fn flat_video(n: usize) -> simvid_model::VideoTree {
        let mut b = VideoBuilder::new("flat");
        b.set_level_names(["video", "shot"]);
        for i in 0..n {
            b.leaf(format!("shot{i}"));
        }
        b.finish().unwrap()
    }

    #[test]
    fn query1_pipeline_matches_paper_tables() {
        // Query 1: Man-Woman and eventually Moving-Train.
        let provider = FixtureProvider::new(vec![
            (
                "MW()",
                sl(
                    vec![
                        (1, 4, 2.595),
                        (6, 6, 1.26),
                        (8, 8, 1.26),
                        (10, 44, 1.26),
                        (47, 49, 6.26),
                    ],
                    6.26,
                ),
            ),
            ("MT()", sl(vec![(9, 9, 9.787)], 9.787)),
        ]);
        let tree = flat_video(50);
        let engine = Engine::new(&provider, &tree);
        let f = parse("MW() and eventually MT()").unwrap();
        let out = engine.eval_closed_at_level(&f, 1).unwrap();
        crate::list::assert_tuples_approx(
            &out.to_tuples(),
            &[
                (1, 4, 12.382),
                (5, 5, 9.787),
                (6, 6, 11.047),
                (7, 7, 9.787),
                (8, 8, 11.047),
                (9, 9, 9.787),
                (10, 44, 1.26),
                (47, 49, 6.26),
            ],
        );
        assert_eq!(out.max(), 6.26 + 9.787);
        let stats = engine.stats();
        assert_eq!(stats.atomic_fetches, 2);
        assert_eq!(stats.joins, 1);
    }

    #[test]
    fn memoization_elides_repeated_subformulas() {
        let provider = FixtureProvider::new(vec![("p()", sl(vec![(1, 4, 1.0), (8, 9, 0.5)], 1.0))]);
        let tree = flat_video(10);
        // `p() and eventually p()` evaluates `p()` twice over the same
        // window: the second occurrence must come from the memo.
        let f = parse("p() and eventually p()").unwrap();
        let memoized = Engine::new(&provider, &tree);
        let out = memoized.eval_closed_at_level(&f, 1).unwrap();
        let stats = memoized.stats();
        assert_eq!(stats.atomic_fetches, 1, "second p() fetch is a cache hit");
        assert!(stats.memo_hits >= 1);
        assert!(stats.memo_misses >= 2);
        // Memoization must not change the result.
        let plain = Engine::with_config(
            &provider,
            &tree,
            EngineConfig {
                memoize: false,
                ..EngineConfig::default()
            },
        );
        let expected = plain.eval_closed_at_level(&f, 1).unwrap();
        assert_eq!(plain.stats().atomic_fetches, 2);
        assert_eq!(plain.stats().memo_hits, 0);
        assert_eq!(out, expected);
    }

    #[test]
    fn general_formulas_rejected() {
        let provider = FixtureProvider::new(vec![]);
        let tree = flat_video(3);
        let engine = Engine::new(&provider, &tree);
        let f = parse("not eventually p()").unwrap();
        assert!(matches!(
            engine.eval_at_level(&f, 1),
            Err(EngineError::UnsupportedFormula(_))
        ));
    }

    #[test]
    fn level_modal_reads_first_child() {
        // 2 scenes with 3 and 2 shots; p() holds at shots 1 and 4 (the
        // first shots of each scene) and at shot 2.
        let mut b = VideoBuilder::new("v");
        b.set_level_names(["video", "scene", "shot"]);
        b.child("scene0");
        for i in 0..3 {
            b.leaf(format!("s0.{i}"));
        }
        b.up();
        b.child("scene1");
        for i in 0..2 {
            b.leaf(format!("s1.{i}"));
        }
        b.up();
        let tree = b.finish().unwrap();
        let provider = FixtureProvider::new(vec![("p()", sl(vec![(1, 2, 1.0), (4, 4, 0.5)], 1.0))]);
        let engine = Engine::new(&provider, &tree);
        let f = parse("at shot level p()").unwrap();
        // Evaluated on the scene sequence: scene 1's first shot is global
        // shot 1 (value 1.0), scene 2's first shot is global shot 4 (0.5).
        let out = engine.eval_closed_at_level(&f, 1).unwrap();
        assert_eq!(out.to_tuples(), vec![(1, 1, 1.0), (2, 2, 0.5)]);
        assert_eq!(engine.stats().level_descents, 2);
    }

    #[test]
    fn level_modal_temporal_inside() {
        // `at shot level (p() until q())` per scene: windows are local.
        let mut b = VideoBuilder::new("v");
        b.set_level_names(["video", "scene", "shot"]);
        b.child("scene0");
        for i in 0..3 {
            b.leaf(format!("s0.{i}"));
        }
        b.up();
        b.child("scene1");
        for i in 0..3 {
            b.leaf(format!("s1.{i}"));
        }
        b.up();
        let tree = b.finish().unwrap();
        // Globally: p on shots 1..5, q on shot 6 only.
        let provider = FixtureProvider::new(vec![
            ("p()", sl(vec![(1, 5, 1.0)], 1.0)),
            ("q()", sl(vec![(6, 6, 2.0)], 2.0)),
        ]);
        let engine = Engine::new(&provider, &tree);
        let f = parse("at shot level (p() until q())").unwrap();
        let out = engine.eval_closed_at_level(&f, 1).unwrap();
        // Scene 1 (shots 1-3): q never inside, p-run cannot reach shot 6
        // across the scene boundary -> first shot value 0.
        // Scene 2 (shots 4-6 local 1-3): local p on 1..2, q at local 3 ->
        // until holds at local 1 with 2.0.
        assert_eq!(out.to_tuples(), vec![(2, 2, 2.0)]);
    }

    #[test]
    fn bad_level_names_error() {
        let provider = FixtureProvider::new(vec![]);
        let tree = flat_video(3);
        let engine = Engine::new(&provider, &tree);
        assert!(matches!(
            engine.eval_at_level(&parse("at nowhere level p()").unwrap(), 1),
            Err(EngineError::BadLevel(_))
        ));
        // `at level 1` from level 1 does not descend.
        assert!(matches!(
            engine.eval_at_level(&parse("at level 1 p()").unwrap(), 0),
            Err(EngineError::BadLevel(_))
        ));
    }

    #[test]
    fn eval_video_scores_the_root() {
        let provider =
            FixtureProvider::new(vec![("type = \"western\"", sl(vec![(1, 1, 1.0)], 1.0))]);
        let mut b = VideoBuilder::new("v");
        b.segment_attr("type", AttrValue::from("western"));
        b.leaf("shot");
        let tree = b.finish().unwrap();
        let engine = Engine::new(&provider, &tree);
        let sim = engine
            .eval_video(&parse("type = \"western\"").unwrap())
            .unwrap();
        assert!(sim.is_exact());
    }

    #[test]
    fn exists_collapse_takes_max_over_bindings() {
        // Simulate a provider with free-variable rows via a custom impl.
        struct TwoBindings;
        impl AtomicProvider for TwoBindings {
            fn atomic_table(&self, unit: &AtomicUnit, _ctx: SeqContext) -> Arc<SimilarityTable> {
                let mut t = SimilarityTable::new(
                    unit.free_objs.iter().map(|v| v.0.clone()).collect(),
                    vec![],
                    2.0,
                );
                t.push_row(Row {
                    objs: vec![simvid_model::ObjectId(1)],
                    ranges: vec![],
                    list: Arc::new(sl(vec![(1, 2, 1.0)], 2.0)),
                });
                t.push_row(Row {
                    objs: vec![simvid_model::ObjectId(2)],
                    ranges: vec![],
                    list: Arc::new(sl(vec![(2, 3, 2.0)], 2.0)),
                });
                Arc::new(t)
            }
            fn atomic_max(&self, _unit: &AtomicUnit) -> f64 {
                2.0
            }
            fn value_table(&self, _f: &AttrFn, _c: SeqContext) -> ValueTable {
                ValueTable::default()
            }
        }
        let tree = flat_video(3);
        let engine = Engine::new(&TwoBindings, &tree);
        let f = parse("exists x . eventually p(x)").unwrap();
        let out = engine.eval_closed_at_level(&f, 1).unwrap();
        // eventually per binding: o1 -> [1,2]=1.0; o2 -> [1,3]=2.0; max.
        assert_eq!(out.to_tuples(), vec![(1, 3, 2.0)]);
    }

    /// Delegates to an inner [`FixtureProvider`], panicking on units whose
    /// printed formula matches `panic_on` and failing transiently on those
    /// matching `fail_on`.
    struct MisbehavingProvider {
        inner: FixtureProvider,
        panic_on: Option<String>,
        fail_on: Option<String>,
    }

    impl AtomicProvider for MisbehavingProvider {
        fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable> {
            self.inner.atomic_table(unit, ctx)
        }

        fn try_atomic_table(
            &self,
            unit: &AtomicUnit,
            ctx: SeqContext,
        ) -> Result<Arc<SimilarityTable>, ProviderError> {
            let key = unit.formula.to_string();
            if self.panic_on.as_deref() == Some(key.as_str()) {
                panic!("injected provider panic on {key}");
            }
            if self.fail_on.as_deref() == Some(key.as_str()) {
                return Err(ProviderError::Transient(format!("backend down for {key}")));
            }
            Ok(self.inner.atomic_table(unit, ctx))
        }

        fn atomic_max(&self, unit: &AtomicUnit) -> f64 {
            self.inner.atomic_max(unit)
        }

        fn value_table(&self, func: &AttrFn, ctx: SeqContext) -> ValueTable {
            self.inner.value_table(func, ctx)
        }
    }

    /// A 6-scene × 4-shot video with two fixture predicates, shared by the
    /// resilience tests below.
    fn scenes_fixture() -> (simvid_model::VideoTree, FixtureProvider) {
        let mut b = VideoBuilder::new("v");
        b.set_level_names(["video", "scene", "shot"]);
        for s in 0..6 {
            b.child(format!("scene{s}"));
            for i in 0..4 {
                b.leaf(format!("s{s}.{i}"));
            }
            b.up();
        }
        let tree = b.finish().unwrap();
        let provider = FixtureProvider::new(vec![
            ("p()", sl(vec![(1, 9, 1.0), (13, 22, 0.7)], 1.0)),
            (
                "q()",
                sl(vec![(3, 3, 2.0), (11, 16, 1.5), (24, 24, 2.0)], 2.0),
            ),
        ]);
        (tree, provider)
    }

    #[test]
    fn span_worker_panic_surfaces_as_typed_error() {
        // A provider panic inside a level-modal descent must come back
        // from the plain (non-resilient) entry point as `Err(WorkerPanic)`,
        // not unwind through the caller.
        let (tree, inner) = scenes_fixture();
        let provider = MisbehavingProvider {
            inner,
            panic_on: Some("q()".into()),
            fail_on: None,
        };
        let engine = Engine::new(&provider, &tree);
        let f = parse("at shot level (p() until q())").unwrap();
        match engine.eval_closed_at_level(&f, 1) {
            Err(EngineError::WorkerPanic(msg)) => {
                assert!(msg.contains("injected provider panic"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn pair_worker_panic_surfaces_as_typed_error() {
        // A panic in either branch of a binary operator surfaces as the
        // same typed error — test both sides.
        let (tree, _) = scenes_fixture();
        for panicking in ["p()", "q()"] {
            let (_, inner) = scenes_fixture();
            let provider = MisbehavingProvider {
                inner,
                panic_on: Some(panicking.into()),
                fail_on: None,
            };
            let engine = Engine::new(&provider, &tree);
            let f = parse("(at shot level p()) and (at shot level q())").unwrap();
            match engine.eval_closed_at_level(&f, 1) {
                Err(EngineError::WorkerPanic(msg)) => {
                    assert!(msg.contains("injected provider panic"), "{msg}");
                }
                other => panic!("expected WorkerPanic for {panicking}, got {other:?}"),
            }
        }
    }

    #[test]
    fn resilient_catches_sequential_panics_too() {
        let (tree, inner) = scenes_fixture();
        let provider = MisbehavingProvider {
            inner,
            panic_on: Some("q()".into()),
            fail_on: None,
        };
        let engine = Engine::new(&provider, &tree);
        let f = parse("at shot level (p() until q())").unwrap();
        let answer = engine
            .top_k_closed_resilient(&f, 1, 3, &Budget::unlimited())
            .unwrap();
        match answer {
            TopKAnswer::Degraded(d) => {
                assert!(matches!(d.reason, EngineError::WorkerPanic(_)));
                assert!(d.ranked_so_far.is_empty());
                // Nothing salvaged: one whole-range bound at formula max.
                assert_eq!(d.unresolved_upper_bounds.len(), 1);
                assert_eq!(d.unresolved_upper_bounds[0].0, Interval::new(1, 6));
            }
            TopKAnswer::Complete(_) => panic!("panic must degrade the answer"),
        }
    }

    #[test]
    fn zero_deadline_degrades_immediately() {
        let provider = FixtureProvider::new(vec![("p()", sl(vec![(1, 4, 1.0)], 1.0))]);
        let tree = flat_video(10);
        let engine = Engine::new(&provider, &tree);
        let f = parse("p() and eventually p()").unwrap();
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let answer = engine.top_k_closed_resilient(&f, 1, 3, &budget).unwrap();
        match answer {
            TopKAnswer::Degraded(d) => {
                assert_eq!(d.reason, EngineError::DeadlineExceeded);
                // Every position is bounded by the formula's maximum.
                for pos in 1..=10 {
                    let bound = d.bound_for(pos).expect("whole range covered");
                    assert!(bound >= 2.0 - 1e-12, "bound {bound} below formula max");
                }
            }
            TopKAnswer::Complete(_) => panic!("expired deadline must degrade"),
        }
    }

    #[test]
    fn exhausted_fuel_degrades_with_sound_bounds() {
        let provider = FixtureProvider::new(vec![
            ("a()", sl(vec![(1, 4, 1.0), (7, 8, 0.5)], 1.0)),
            ("b()", sl(vec![(2, 5, 2.0)], 2.0)),
            ("c()", sl(vec![(1, 1, 3.0), (4, 6, 2.5)], 3.0)),
        ]);
        let tree = flat_video(10);
        let engine = Engine::new(&provider, &tree);
        // Impure conjuncts, so the pruned conjunction path decomposes
        // them instead of handing the whole formula to the provider as one
        // pure unit.
        let f = parse("a() and (eventually b()) and (eventually c())").unwrap();
        let truth = engine.eval_closed_at_level(&f, 1).unwrap();
        // Enough fuel for the first conjunct or two, not the whole query.
        for fuel in 0..8 {
            let budget = Budget::unlimited().with_fuel(fuel);
            let answer = engine.top_k_closed_resilient(&f, 1, 5, &budget).unwrap();
            let TopKAnswer::Degraded(d) = answer else {
                continue; // enough fuel after all
            };
            assert_eq!(d.reason, EngineError::BudgetExhausted, "fuel {fuel}");
            // Soundness: every true value respects the certified bounds,
            // and salvaged actuals never exceed the truth.
            for pos in 1..=10u32 {
                let truth_v = truth.value_at(pos);
                let bound = d.bound_for(pos).unwrap_or(0.0);
                assert!(
                    truth_v <= bound + 1e-9,
                    "fuel {fuel} pos {pos}: true {truth_v} exceeds bound {bound}"
                );
            }
            for r in &d.ranked_so_far {
                assert!(
                    r.sim.act <= truth.value_at(r.pos) + 1e-9,
                    "fuel {fuel} pos {}: partial {} above true {}",
                    r.pos,
                    r.sim.act,
                    truth.value_at(r.pos)
                );
            }
        }
    }

    #[test]
    fn transient_conjunct_failure_salvages_partial_ranking() {
        let inner = FixtureProvider::new(vec![
            ("a()", sl(vec![(1, 4, 1.0), (7, 8, 0.5)], 1.0)),
            ("b()", sl(vec![(2, 5, 2.0)], 2.0)),
            ("c()", sl(vec![(1, 1, 3.0), (4, 6, 2.5)], 3.0)),
        ]);
        let tree = flat_video(10);
        // Ground truth from the same fixtures without the failure.
        let truth_engine = Engine::new(&inner, &tree);
        // Impure conjuncts so the conjunction decomposes (see above).
        let f = parse("a() and (eventually b()) and (eventually c())").unwrap();
        let truth = truth_engine.eval_closed_at_level(&f, 1).unwrap();
        // `eventually c()` has the largest maximum, so the ascending-max
        // schedule evaluates the other conjuncts first: their sum must be
        // salvaged.
        let provider = MisbehavingProvider {
            inner: FixtureProvider::new(vec![
                ("a()", sl(vec![(1, 4, 1.0), (7, 8, 0.5)], 1.0)),
                ("b()", sl(vec![(2, 5, 2.0)], 2.0)),
                ("c()", sl(vec![(1, 1, 3.0), (4, 6, 2.5)], 3.0)),
            ]),
            panic_on: None,
            fail_on: Some("c()".into()),
        };
        let engine = Engine::new(&provider, &tree);
        let answer = engine
            .top_k_closed_resilient(&f, 1, 5, &Budget::unlimited())
            .unwrap();
        let TopKAnswer::Degraded(d) = answer else {
            panic!("failing conjunct must degrade the answer");
        };
        assert!(matches!(d.reason, EngineError::ProviderGaveUp(_)));
        // a() + b() resolved: position 2 carries 1.0 + 2.0 = 3.0.
        assert!(!d.ranked_so_far.is_empty(), "partial ranking salvaged");
        let at2 = d
            .ranked_so_far
            .iter()
            .find(|r| r.pos == 2)
            .expect("position 2 in partial");
        assert!((at2.sim.act - 3.0).abs() < 1e-12);
        // Soundness against the fault-free truth.
        for pos in 1..=10u32 {
            let truth_v = truth.value_at(pos);
            let bound = d.bound_for(pos).unwrap_or(0.0);
            assert!(
                truth_v <= bound + 1e-9,
                "pos {pos}: true {truth_v} exceeds bound {bound}"
            );
        }
        // And the plain (non-resilient) entry surfaces the same cause.
        assert!(matches!(
            engine.top_k_closed(&f, 1, 5),
            Err(EngineError::ProviderGaveUp(_))
        ));
    }

    #[test]
    fn cancellation_stops_evaluation() {
        let provider = FixtureProvider::new(vec![("p()", sl(vec![(1, 4, 1.0)], 1.0))]);
        let tree = flat_video(10);
        let engine = Engine::new(&provider, &tree);
        let budget = Budget::unlimited();
        budget.cancel();
        let f = parse("p() and eventually p()").unwrap();
        let answer = engine.top_k_closed_resilient(&f, 1, 3, &budget).unwrap();
        match answer {
            TopKAnswer::Degraded(d) => assert_eq!(d.reason, EngineError::Cancelled),
            TopKAnswer::Complete(_) => panic!("cancelled request must degrade"),
        }
    }

    #[test]
    fn resilient_fault_free_matches_top_k_closed() {
        let (tree, provider) = scenes_fixture();
        let engine = Engine::new(&provider, &tree);
        for query in [
            "at shot level (p() until q())",
            "(at shot level p()) and (at shot level q())",
            "eventually at shot level q()",
        ] {
            let f = parse(query).unwrap();
            let plain = engine.top_k_closed(&f, 1, 4).unwrap();
            let resilient = engine
                .top_k_closed_resilient(&f, 1, 4, &Budget::unlimited())
                .unwrap();
            match resilient {
                TopKAnswer::Complete(ranked) => assert_eq!(ranked, plain, "{query}"),
                TopKAnswer::Degraded(_) => panic!("fault-free run degraded: {query}"),
            }
        }
    }
}
