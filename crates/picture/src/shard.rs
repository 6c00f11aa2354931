//! Sharded multi-video retrieval: hash partitioning plus scatter-gather
//! top-`k`.
//!
//! The paper's similarity model decomposes per video — indices, similarity
//! lists and engines are all per-video state — which makes the corpus
//! embarrassingly partitionable. [`ShardedVideoDb`] hash-partitions a
//! [`VideoStore`] into `S` shards with a stable [`ShardId`] assignment;
//! each shard evaluates a query on its own videos (through the pruned
//! [`Engine::top_k_closed`] path, with per-video atomic caches and
//! singleflight intact) and emits a ranked [`ShardStream`]; the merge
//! coordinator ([`simvid_core::merge_shard_streams`]) then runs the
//! threshold algorithm across the streams, stopping as soon as the k-th
//! best score dominates every shard's remaining upper bound.
//!
//! Results are **bit-identical** to the unsharded path for every shard
//! count: streams are sorted by the corpus-wide total order
//! ([`simvid_core::global_rank`]), so the merge is exactly the k-prefix of
//! the global sort the flat scan would produce. The
//! [`ShardedVideoDb::top_k_unsharded`] oracle makes that property directly
//! testable (and CI-gateable via `results_digest`).
//!
//! A shard whose provider fails with a *degradable* error (a provider
//! that gave up after retries, a budget violation, a captured panic)
//! degrades the answer instead of sinking it: the merge runs over the
//! surviving shards and the result carries the failed shard ids plus a
//! sound upper bound on anything the failed shards could have contributed
//! (see [`ShardedDegraded`]).

use crate::{CacheConfig, PictureSystem, ScoringConfig};
use simvid_core::{
    merge_shard_streams, AtomicProvider, Budget, Engine, EngineConfig, EngineError, EngineHandles,
    MergeStats, Plan, ShardHit, ShardStream, TopKAnswer,
};
use simvid_htl::{classify, normalize_for_engine, Formula, FormulaClass};
use simvid_model::{CorpusEpoch, VideoId, VideoStore, VideoTree};
use simvid_obs::{Counter, Histogram, Registry};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Stable identifier of one shard of a partitioned video store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The shard a video belongs to, out of `shards` total.
///
/// The assignment is a pure function of the video id (FNV-1a over its
/// little-endian bytes, reduced mod `shards`) — stable across processes,
/// platforms and runs, so a video never migrates unless the shard count
/// itself changes.
///
/// # Panics
///
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(video: VideoId, shards: u32) -> ShardId {
    assert!(shards > 0, "shard count must be positive");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in video.0.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ShardId((h % u64::from(shards)) as u32)
}

/// One video of a shard: its tree plus the provider that answers atomic
/// queries on it (persistent, so atomic caches warm up across requests).
struct ShardMember<'a, P> {
    video: VideoId,
    tree: &'a VideoTree,
    provider: P,
}

/// One shard: a stable id, the videos hashed into it, and its
/// `shard.<id>.eval_seconds` histogram.
struct Shard<'a, P> {
    id: ShardId,
    members: Vec<ShardMember<'a, P>>,
    eval_seconds: Arc<Histogram>,
}

/// The metric handles a corpus resolves once per registry and uses on
/// every request: the engine's, and the gather step's `shard.*` counters.
pub(crate) struct CorpusHandles {
    pub(crate) engine: Arc<EngineHandles>,
    ok: Arc<Counter>,
    failed: Arc<Counter>,
    candidates_pruned: Arc<Counter>,
    early_terminated: Arc<Counter>,
}

impl CorpusHandles {
    pub(crate) fn new(registry: Arc<Registry>) -> Arc<CorpusHandles> {
        Arc::new(CorpusHandles {
            ok: registry.counter("shard.outcome.ok"),
            failed: registry.counter("shard.outcome.failed"),
            candidates_pruned: registry.counter("shard.candidates_pruned"),
            early_terminated: registry.counter("shard.early_terminated"),
            engine: EngineHandles::new(registry),
        })
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        self.engine.registry()
    }

    /// Merges per-shard evaluation outcomes into a [`ShardedAnswer`],
    /// counting shard outcomes (`shard.outcome.ok` / `shard.outcome.failed`)
    /// and coordinator savings (`shard.candidates_pruned`,
    /// `shard.early_terminated`). Every corpus type gathers here, so a
    /// request is accounted identically wherever its shards ran.
    pub(crate) fn gather(
        &self,
        per_shard: Vec<(ShardId, Result<ShardStream, EngineError>)>,
        k: usize,
    ) -> Result<ShardedAnswer, EngineError> {
        let mut streams: Vec<ShardStream> = Vec::with_capacity(per_shard.len());
        let mut failed: Vec<(ShardId, String)> = Vec::new();
        for (id, outcome) in per_shard {
            match outcome {
                Ok(stream) => {
                    self.ok.inc();
                    streams.push(stream);
                }
                Err(e) if e.is_degradable() => {
                    self.failed.inc();
                    failed.push((id, e.to_string()));
                }
                Err(e) => return Err(e),
            }
        }
        // The formula-level maximum similarity is video-independent — in
        // particular, independent of the corpus epoch — so any surviving
        // hit's `max` bounds anything a failed shard could have
        // contributed. No surviving hit → no certificate → infinity.
        let missing_bound = streams
            .iter()
            .find_map(|s| s.hits.first().map(|h| h.sim.max))
            .unwrap_or(f64::INFINITY);
        let (ranked, merge) = merge_shard_streams(&streams, k);
        self.candidates_pruned.add(merge.candidates_pruned);
        self.early_terminated.add(merge.early_terminated);
        if failed.is_empty() {
            Ok(ShardedAnswer::Complete(ShardedTopK { ranked, merge }))
        } else {
            Ok(ShardedAnswer::Degraded(ShardedDegraded {
                ranked,
                merge,
                failed,
                missing_bound,
            }))
        }
    }
}

/// Evaluates one plan on each `(video, tree, provider)` member, with one
/// engine per video built on the shared `handles`, and collects every
/// member's top-`k` into a shard stream. A degraded member answer
/// surfaces as its reason: a shard stream must be exact.
pub(crate) fn eval_members<'m, P: AtomicProvider + 'm>(
    shard: ShardId,
    members: impl Iterator<Item = (VideoId, &'m VideoTree, &'m P)>,
    plan: &Plan,
    (depth, k): (u8, usize),
    engine_cfg: EngineConfig,
    handles: &Arc<EngineHandles>,
    budget: &Budget,
) -> Result<ShardStream, EngineError> {
    let mut hits: Vec<ShardHit> = Vec::new();
    for (video, tree, provider) in members {
        if depth >= tree.depth() {
            continue;
        }
        let engine = Engine::with_handles(provider, tree, engine_cfg, Arc::clone(handles));
        match engine.top_k_plan_resilient(plan, depth, k, budget)? {
            TopKAnswer::Complete(ranked) => {
                hits.extend(ranked.into_iter().map(|seg| ShardHit {
                    video,
                    pos: seg.pos,
                    sim: seg.sim,
                }));
            }
            TopKAnswer::Degraded(d) => return Err(d.reason),
        }
    }
    Ok(ShardStream::new(shard.0, hits))
}

/// The complete scatter-gather answer: the corpus-wide top-`k` plus the
/// merge accounting (how much shard work the threshold condition saved).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTopK {
    /// The global top-`k`, in [`simvid_core::global_rank`] order —
    /// bit-identical to the unsharded path.
    pub ranked: Vec<ShardHit>,
    /// Coordinator accounting for this request.
    pub merge: MergeStats,
}

/// A sound partial answer over the surviving shards when one or more
/// shards failed with a degradable error.
///
/// Soundness: every listed hit is exact (shards evaluate exactly, only
/// coverage is lost), and any hit a failed shard could have contributed
/// has actual similarity at most [`ShardedDegraded::missing_bound`] — the
/// formula-level maximum similarity, which depends only on the query, not
/// the video.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedDegraded {
    /// The top-`k` over the surviving shards, in global rank order.
    pub ranked: Vec<ShardHit>,
    /// Coordinator accounting over the surviving streams.
    pub merge: MergeStats,
    /// The shards that failed, with the rendered reason.
    pub failed: Vec<(ShardId, String)>,
    /// Sound upper bound on the actual similarity of any hit the failed
    /// shards could have contributed. [`f64::INFINITY`] when no surviving
    /// hit pinned down the formula maximum (trivially sound).
    pub missing_bound: f64,
}

/// The outcome of one scatter-gather top-`k` request.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardedAnswer {
    /// Every shard answered; the ranking is exact and complete.
    Complete(ShardedTopK),
    /// At least one shard failed degradably; the ranking covers the
    /// surviving shards with a sound bound on what is missing.
    Degraded(ShardedDegraded),
}

impl ShardedAnswer {
    /// The ranked hits, complete or partial.
    #[must_use]
    pub fn ranked(&self) -> &[ShardHit] {
        match self {
            ShardedAnswer::Complete(t) => &t.ranked,
            ShardedAnswer::Degraded(d) => &d.ranked,
        }
    }

    /// Whether every shard contributed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, ShardedAnswer::Complete(_))
    }

    /// The coordinator accounting, whichever way the request resolved.
    #[must_use]
    pub fn merge_stats(&self) -> MergeStats {
        match self {
            ShardedAnswer::Complete(t) => t.merge,
            ShardedAnswer::Degraded(d) => d.merge,
        }
    }
}

/// A hash-partitioned video store with scatter-gather top-`k` retrieval.
///
/// Generic over the per-video provider so the serving stack can wrap
/// providers (fault injection, instrumentation) without this crate
/// depending on them — see [`ShardedVideoDb::map_providers`].
pub struct ShardedVideoDb<'a, P: AtomicProvider> {
    shards: Vec<Shard<'a, P>>,
    engine_cfg: EngineConfig,
    handles: Arc<CorpusHandles>,
    /// The corpus epoch the partition was built against. A frozen db
    /// serves this one epoch forever; the live layer builds a fresh
    /// snapshot per epoch instead of mutating one in place.
    epoch: CorpusEpoch,
}

impl<'a> ShardedVideoDb<'a, PictureSystem<'a>> {
    /// Partitions `store` into `shards` shards of [`PictureSystem`]s, one
    /// per video, all publishing into `registry`. Per-video atomic caches
    /// (and their singleflight coalescing) persist for the lifetime of
    /// the db, so repeated queries warm up exactly as in the unsharded
    /// serving path.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn partition(
        store: &'a VideoStore,
        shards: u32,
        scoring: &ScoringConfig,
        engine_cfg: EngineConfig,
        cache: CacheConfig,
        registry: Arc<Registry>,
    ) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let mut buckets: Vec<Shard<'a, PictureSystem<'a>>> = (0..shards)
            .map(|i| Shard {
                id: ShardId(i),
                members: Vec::new(),
                eval_seconds: registry.histogram(&format!("shard.{i}.eval_seconds")),
            })
            .collect();
        let epoch = store.epoch();
        for (video, tree) in store.iter() {
            let shard = shard_of(video, shards);
            buckets[shard.0 as usize].members.push(ShardMember {
                video,
                tree,
                provider: PictureSystem::with_registry(
                    tree,
                    scoring.clone(),
                    cache,
                    Arc::clone(&registry),
                )
                .with_provenance(epoch, 0),
            });
        }
        ShardedVideoDb {
            shards: buckets,
            engine_cfg,
            handles: CorpusHandles::new(registry),
            epoch,
        }
    }
}

impl<'a, P: AtomicProvider> ShardedVideoDb<'a, P> {
    /// Rewraps every per-video provider, preserving the partition. This is
    /// how the chaos harness injects faults: wrap each provider in a
    /// fault-injecting decorator, giving the victim shard an always-fail
    /// plan and the survivors a quiet one.
    #[must_use]
    pub fn map_providers<Q, F>(self, mut f: F) -> ShardedVideoDb<'a, Q>
    where
        Q: AtomicProvider,
        F: FnMut(ShardId, VideoId, P) -> Q,
    {
        let shards = self
            .shards
            .into_iter()
            .map(|s| Shard {
                id: s.id,
                members: s
                    .members
                    .into_iter()
                    .map(|m| ShardMember {
                        video: m.video,
                        tree: m.tree,
                        provider: f(s.id, m.video, m.provider),
                    })
                    .collect(),
                eval_seconds: s.eval_seconds,
            })
            .collect();
        ShardedVideoDb {
            shards,
            engine_cfg: self.engine_cfg,
            handles: self.handles,
            epoch: self.epoch,
        }
    }

    /// The corpus epoch this partition was built against.
    #[must_use]
    pub fn epoch(&self) -> CorpusEpoch {
        self.epoch
    }

    /// Visits every per-video provider (chaos harnesses use this to bump
    /// fault epochs between requests).
    pub fn for_each_provider(&self, mut f: impl FnMut(ShardId, VideoId, &P)) {
        for s in &self.shards {
            for m in &s.members {
                f(s.id, m.video, &m.provider);
            }
        }
    }

    /// Number of shards (fixed at partition time).
    #[must_use]
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard ids, in order.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.shards.iter().map(|s| s.id)
    }

    /// The videos assigned to `shard`, in store order.
    #[must_use]
    pub fn videos_in(&self, shard: ShardId) -> Vec<VideoId> {
        self.shards[shard.0 as usize]
            .members
            .iter()
            .map(|m| m.video)
            .collect()
    }

    /// The metrics registry shared by every shard.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        self.handles.registry()
    }

    /// Evaluates `query` on one shard and returns its ranked candidate
    /// stream: each member video's pruned top-`k` (at most `k` hits per
    /// video can reach the global top-`k`), sorted by the corpus-wide
    /// rank order. Evaluation wall time lands in the shard's
    /// `shard.<id>.eval_seconds` histogram.
    ///
    /// # Errors
    ///
    /// Any [`EngineError`] from a member evaluation; degradable errors
    /// mark the whole shard failed in [`ShardedVideoDb::gather`].
    pub fn eval_shard(
        &self,
        shard: ShardId,
        query: &Formula,
        depth: u8,
        k: usize,
    ) -> Result<ShardStream, EngineError> {
        self.eval_shard_budgeted(shard, query, depth, k, &Budget::unlimited())
    }

    /// [`ShardedVideoDb::eval_shard`] under a request [`Budget`]: member
    /// evaluations go through [`Engine::top_k_plan_resilient`] sharing
    /// one budget across the whole shard, and a budget violation surfaces
    /// as its typed error instead of a partial stream (a shard stream must
    /// be exact — soundness of the merge depends on it). With
    /// [`Budget::unlimited`] this is [`ShardedVideoDb::eval_shard`]. The
    /// replicated store uses the fuel cap to implement deterministic
    /// hedged reads.
    ///
    /// # Errors
    ///
    /// As [`ShardedVideoDb::eval_shard`], plus the degradable budget
    /// errors ([`EngineError::BudgetExhausted`],
    /// [`EngineError::DeadlineExceeded`], [`EngineError::Cancelled`]).
    pub fn eval_shard_budgeted(
        &self,
        shard: ShardId,
        query: &Formula,
        depth: u8,
        k: usize,
        budget: &Budget,
    ) -> Result<ShardStream, EngineError> {
        let normalized = normalize_query(query)?;
        let plan = Plan::new(normalized.as_ref());
        self.eval_planned(&self.shards[shard.0 as usize], &plan, depth, k, budget)
    }

    fn eval_planned(
        &self,
        shard: &Shard<'a, P>,
        plan: &Plan,
        depth: u8,
        k: usize,
        budget: &Budget,
    ) -> Result<ShardStream, EngineError> {
        let t0 = Instant::now();
        let members = shard.members.iter().map(|m| (m.video, m.tree, &m.provider));
        let stream = eval_members(
            shard.id,
            members,
            plan,
            (depth, k),
            self.engine_cfg,
            &self.handles.engine,
            budget,
        )?;
        shard.eval_seconds.record_duration(t0.elapsed());
        Ok(stream)
    }

    /// Merges per-shard evaluation outcomes into a [`ShardedAnswer`],
    /// counting shard outcomes (`shard.outcome.ok` / `shard.outcome.failed`)
    /// and coordinator savings (`shard.candidates_pruned`,
    /// `shard.early_terminated`) into the registry. Shared by the
    /// sequential scatter loop and the concurrent executor fan-out so a
    /// request is accounted identically wherever its shards ran.
    ///
    /// # Errors
    ///
    /// The first non-degradable shard error (a rejected query, a bad
    /// level): degrading cannot help, the request itself is malformed.
    pub fn gather(
        &self,
        per_shard: Vec<(ShardId, Result<ShardStream, EngineError>)>,
        k: usize,
    ) -> Result<ShardedAnswer, EngineError> {
        self.handles.gather(per_shard, k)
    }

    /// Scatter-gather top-`k`: evaluates `query` on every shard and
    /// merges the streams with the threshold algorithm. Complete answers
    /// are bit-identical to [`ShardedVideoDb::top_k_unsharded`].
    ///
    /// # Errors
    ///
    /// Non-degradable errors only; shard-level degradable failures
    /// resolve to [`ShardedAnswer::Degraded`] instead.
    pub fn top_k(
        &self,
        query: &Formula,
        depth: u8,
        k: usize,
    ) -> Result<ShardedAnswer, EngineError> {
        let normalized = normalize_query(query)?;
        let plan = Plan::new(normalized.as_ref());
        let unlimited = Budget::unlimited();
        let per_shard = self
            .shards
            .iter()
            .map(|s| (s.id, self.eval_planned(s, &plan, depth, k, &unlimited)))
            .collect();
        self.gather(per_shard, k)
    }

    /// The unsharded oracle: a flat scan over every video (same per-video
    /// pruned evaluation), one global sort, truncate at `k`. This is the
    /// reference the scatter-gather path must reproduce bit-identically.
    ///
    /// # Errors
    ///
    /// Any [`EngineError`] from a member evaluation — the oracle does not
    /// degrade.
    pub fn top_k_unsharded(
        &self,
        query: &Formula,
        depth: u8,
        k: usize,
    ) -> Result<Vec<ShardHit>, EngineError> {
        let normalized = normalize_query(query)?;
        let plan = Plan::new(normalized.as_ref());
        let members = self
            .shards
            .iter()
            .flat_map(|s| &s.members)
            .map(|m| (m.video, m.tree, &m.provider));
        // One stream over every video is already in global rank order.
        let mut hits = eval_members(
            ShardId(0),
            members,
            &plan,
            (depth, k),
            self.engine_cfg,
            &self.handles.engine,
            &Budget::unlimited(),
        )?
        .hits;
        hits.truncate(k);
        Ok(hits)
    }
}

/// Hoists inline quantifiers exactly as [`crate::VideoDatabase::retrieve`]
/// does, so naively-written queries reach the engine-supported class.
/// Shared with the live-ingestion store so both normalize identically.
pub(crate) fn normalize_query(query: &Formula) -> Result<NormalizedQuery<'_>, EngineError> {
    if classify(query) == FormulaClass::General {
        let (hoisted, _, after) = normalize_for_engine(query);
        if after == FormulaClass::General {
            return Err(EngineError::UnsupportedFormula(
                "sharded retrieval requires extended conjunctive formulas \
                 (even after quantifier hoisting)"
                    .into(),
            ));
        }
        Ok(NormalizedQuery::Owned(hoisted))
    } else {
        Ok(NormalizedQuery::Borrowed(query))
    }
}

pub(crate) enum NormalizedQuery<'q> {
    Borrowed(&'q Formula),
    Owned(Formula),
}

impl NormalizedQuery<'_> {
    pub(crate) fn as_ref(&self) -> &Formula {
        match self {
            NormalizedQuery::Borrowed(f) => f,
            NormalizedQuery::Owned(f) => f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::parse;
    use simvid_model::VideoBuilder;

    fn video(title: &str, gun_shots: &[bool]) -> VideoTree {
        let mut b = VideoBuilder::new(title);
        b.set_level_names(["video", "shot"]);
        for (i, &has) in gun_shots.iter().enumerate() {
            b.child(format!("shot{i}"));
            if has {
                let o = b.object(1, "person", None);
                b.relationship("holds_gun", [o]);
            } else {
                b.object(2, "horse", None);
            }
            b.up();
        }
        b.finish().unwrap()
    }

    fn store() -> VideoStore {
        let mut store = VideoStore::new();
        store.add(video("a", &[false, true, false, true]));
        store.add(video("b", &[true, true]));
        store.add(video("c", &[false, false, true]));
        store.add(video("d", &[true]));
        store.add(video("e", &[false, true, true]));
        store.add(video("f", &[true, false, true]));
        store
    }

    fn db(store: &VideoStore, shards: u32) -> ShardedVideoDb<'_, PictureSystem<'_>> {
        ShardedVideoDb::partition(
            store,
            shards,
            &ScoringConfig::default(),
            EngineConfig::default(),
            CacheConfig::default(),
            Arc::new(Registry::new()),
        )
    }

    #[test]
    fn shard_assignment_is_stable_and_total() {
        for shards in 1..=8 {
            for v in 0..64 {
                let s = shard_of(VideoId(v), shards);
                assert!(s.0 < shards);
                assert_eq!(s, shard_of(VideoId(v), shards), "assignment is pure");
            }
        }
        // The hash actually spreads: 64 videos over 4 shards leave no
        // shard empty.
        let mut seen = [false; 4];
        for v in 0..64 {
            seen[shard_of(VideoId(v), 4).0 as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn partition_covers_every_video_exactly_once() {
        let store = store();
        let db = db(&store, 3);
        let mut videos: Vec<VideoId> = db.shard_ids().flat_map(|s| db.videos_in(s)).collect();
        videos.sort();
        let mut want: Vec<VideoId> = store.iter().map(|(v, _)| v).collect();
        want.sort();
        assert_eq!(videos, want);
        for s in db.shard_ids() {
            for v in db.videos_in(s) {
                assert_eq!(shard_of(v, 3), s);
            }
        }
    }

    #[test]
    fn sharded_top_k_matches_unsharded_oracle_for_every_shard_count() {
        let store = store();
        let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
        for shards in 1..=6 {
            let db = db(&store, shards);
            for k in [0, 1, 3, 7, 100] {
                let oracle = db.top_k_unsharded(&q, 1, k).unwrap();
                let answer = db.top_k(&q, 1, k).unwrap();
                assert!(answer.is_complete());
                assert_eq!(answer.ranked(), &oracle[..], "shards={shards} k={k}");
            }
        }
    }

    #[test]
    fn merge_counters_account_for_savings() {
        let store = store();
        let db = db(&store, 4);
        let q = parse("exists x . holds_gun(x)").unwrap();
        let answer = db.top_k(&q, 1, 2).unwrap();
        let stats = answer.merge_stats();
        assert_eq!(stats.consumed, 2);
        assert!(stats.candidates_pruned > 0, "k=2 must leave candidates");
        let snap = db.registry().snapshot();
        assert_eq!(snap.counter("shard.outcome.ok"), Some(4));
        assert_eq!(
            snap.counter("shard.candidates_pruned"),
            Some(stats.candidates_pruned)
        );
    }

    #[test]
    fn general_queries_are_hoisted_or_rejected() {
        let store = store();
        let db = db(&store, 2);
        let hoistable = parse("true and (exists x . eventually holds_gun(x))").unwrap();
        assert!(db.top_k(&hoistable, 1, 5).is_ok());
        let hopeless = parse("not eventually (exists x . holds_gun(x))").unwrap();
        assert!(db.top_k(&hopeless, 1, 5).is_err());
    }
}
