//! Live corpus ingestion: epoch-versioned snapshots with incremental
//! invalidation.
//!
//! Every serving layer below this one assumes a frozen
//! [`VideoStore`]. [`LiveVideoDb`] lifts that restriction with
//! **snapshot isolation**: the store absorbs [`CorpusOp`] batches
//! atomically (each successful [`LiveVideoDb::apply`] advances the
//! [`CorpusEpoch`] by one), and every query runs against an immutable
//! [`LivePin`] — an `Arc`'d snapshot of the whole corpus at one epoch.
//! A query pinned before a batch sees the corpus entirely-before it;
//! one pinned after sees it entirely-after; scatter-gather can never mix
//! epochs because a snapshot *is* one epoch.
//!
//! A frozen corpus is a live one that never applies a batch: the shards,
//! the replicas and their breaker-gated failover (the `replica` module;
//! the breaker grid lives in the db, so it survives epochs) serve every
//! epoch alike.
//!
//! Invalidation is **incremental at per-video granularity**. Each live
//! video is a [`LiveMember`]: its tree (shared into snapshots) plus
//! `R` replica [`PictureSystem`]s whose atomic caches, memo state and
//! singleflight survive for as long as the member does. Applying a batch
//! builds the next snapshot *aside*, reusing the member `Arc` for every
//! untouched video — their warm caches carry over bit-for-bit — and
//! building fresh members (new cache generation, empty caches) only for
//! ingested and updated videos. Removed and replaced members simply drop
//! with the old snapshot once the last pinned query releases it. The
//! `cache.invalidation.evicted` / `cache.invalidation.retained` counters
//! account the warm tables destroyed vs. preserved by each swap, so "we
//! invalidate exactly the mutated videos" is measurable, not aspirational.
//!
//! Writes stay off the read path. Two locks split the state: a writer
//! mutex over the store and the generation counter serialises
//! [`LiveVideoDb::apply`], which stages, validates and builds
//! fresh members under it; a snapshot mutex over the published
//! `Arc<LiveSnapshot>` is held only to clone or swap that `Arc`.
//! [`LiveVideoDb::pin`] and [`LiveVideoDb::epoch`] take only the
//! snapshot lock, so they never wait behind a batch: mid-apply they see
//! the pre-batch epoch, and the batch publishes with one pointer swap.
//! The retired snapshot drops after both locks are released.
//!
//! Trees are shared, not copied. A [`VideoTree`] keeps its contents
//! behind one `Arc`, so the writer's store, a staged batch and every
//! member point at one tree per video; staging a batch copies one pointer
//! per video and `apply` costs O(touched videos).
//!
//! Memory follows the live corpus, not its history: the db keeps no log of
//! applied batches, so a removed or replaced video's tree drops with the
//! last snapshot that holds it. A caller that needs to rebuild past epochs
//! (a differential test) keeps its own [`simvid_model::CorpusLog`].
//!
//! Failure atomicity: a batch either commits in full or leaves the store
//! and snapshot untouched at the pre-batch epoch. The rebuild of
//! fresh members runs *before* anything is published, and an injected
//! fault (see [`LiveVideoDb::with_apply_faults`]) aborts the whole apply
//! with [`ApplyError::Injected`] — the chaos suite verifies digest
//! equality with an untouched store.
//!
//! Soundness under churn: a degraded answer's `missing_bound` is the
//! formula-level maximum similarity, which depends only on the query —
//! never on which videos exist — so the bound a pinned query reports is
//! sound at its own epoch regardless of batches applied concurrently.

use crate::replica::{Failover, FaultTarget};
use crate::shard::{eval_members, shard_of, CorpusHandles, PreparedQuery, ShardId, ShardedAnswer};
use crate::{CacheConfig, PictureSystem, ScoringConfig};
use simvid_core::{AtomicProvider, Budget, EngineConfig, EngineError, ShardHit, ShardStream};
use simvid_htl::Formula;
use simvid_model::{
    AppliedBatch, CorpusEpoch, CorpusError, CorpusOp, VideoId, VideoStore, VideoTree,
};
use simvid_obs::Registry;
use simvid_resilience::{
    failover_order, Fault, FaultPlan, FaultyProvider, HedgePolicy, RetryPolicy,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Topology and tuning of a [`LiveVideoDb`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Number of shards the corpus hash-partitions into.
    pub shards: u32,
    /// Number of replica [`PictureSystem`]s per video.
    pub replicas: u32,
    /// Similarity scoring configuration, shared by every provider.
    pub scoring: ScoringConfig,
    /// Engine configuration for per-member evaluations.
    pub engine: EngineConfig,
    /// Atomic-cache configuration per provider.
    pub cache: CacheConfig,
    /// Hedged reads: the fuel cap on a shard read's primary replica.
    pub hedge: HedgePolicy,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            shards: 1,
            replicas: 1,
            scoring: ScoringConfig::default(),
            engine: EngineConfig::default(),
            cache: CacheConfig::default(),
            hedge: HedgePolicy::disabled(),
        }
    }
}

/// One live video: its shared tree plus `R` replica providers. The
/// member — and with it every warm cache — is reused by reference across
/// snapshots until the video's content changes.
struct LiveMember {
    video: VideoId,
    /// Unique per (video, content) pair: a fresh member gets a fresh
    /// generation, so stale cached state is unreachable by construction.
    generation: u64,
    tree: VideoTree,
    replicas: Vec<PictureSystem<'static>>,
}

impl LiveMember {
    /// Warm scored tables across this member's replicas.
    fn resident_tables(&self) -> u64 {
        self.replicas
            .iter()
            .map(|p| p.resident_tables() as u64)
            .sum()
    }
}

/// The read faults of [`LiveVideoDb::with_read_faults`].
struct ReadFaults {
    plan: FaultPlan,
    policy: RetryPolicy,
    target: FaultTarget,
    registry: Arc<Registry>,
}

impl ReadFaults {
    /// `system` answering through the fault plan.
    fn wrap<'p>(
        &self,
        system: &'p PictureSystem<'static>,
    ) -> FaultyProvider<&'p PictureSystem<'static>> {
        FaultyProvider::with_registry(system, self.plan, self.policy, &self.registry)
    }
}

/// An immutable view of the whole corpus at one epoch.
struct LiveSnapshot {
    epoch: CorpusEpoch,
    replicas: u32,
    shards: Vec<Vec<Arc<LiveMember>>>,
}

/// Why [`LiveVideoDb::apply`] rejected a batch. Either way the store is
/// untouched: same contents, same snapshot, same (pre-batch) epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// Store validation rejected the batch (unknown or removed id).
    Rejected(CorpusError),
    /// An injected fault (chaos testing) aborted the snapshot rebuild
    /// before anything was published.
    Injected {
        /// The video whose member rebuild the fault landed on.
        video: VideoId,
        /// The injected fault, rendered.
        fault: String,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Rejected(e) => write!(f, "batch rejected: {e}"),
            ApplyError::Injected { video, fault } => {
                write!(
                    f,
                    "injected fault during apply of video {}: {fault}",
                    video.0
                )
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// The writer's state behind the writer lock: only `apply` mutates it,
/// and readers never take that lock.
struct Writer {
    store: VideoStore,
    next_generation: u64,
}

/// A mutable, epoch-versioned corpus serving scatter-gather top-`k` with
/// per-video incremental invalidation and replica failover. See the
/// module docs for the isolation and invalidation model.
pub struct LiveVideoDb {
    cfg: LiveConfig,
    /// The registry with the engine and gather metric handles resolved
    /// once, shared by every pin.
    handles: Arc<CorpusHandles>,
    /// The breaker grid and failover counters, shared by every pin.
    failover: Arc<Failover>,
    writer: Mutex<Writer>,
    /// The published snapshot. Held only to clone or swap the `Arc`.
    snapshot: Mutex<Arc<LiveSnapshot>>,
    evicted: Arc<simvid_obs::Counter>,
    retained: Arc<simvid_obs::Counter>,
    epoch_gauge: Arc<simvid_obs::Gauge>,
    apply_faults: Option<FaultPlan>,
    read_faults: Option<Arc<ReadFaults>>,
}

impl LiveVideoDb {
    /// Takes ownership of `store` (at whatever epoch it is at) and builds
    /// the initial snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards` or `cfg.replicas` is zero.
    #[must_use]
    pub fn new(store: VideoStore, cfg: LiveConfig, registry: Arc<Registry>) -> Self {
        assert!(cfg.shards > 0, "shard count must be positive");
        assert!(cfg.replicas > 0, "replica count must be positive");
        let (snapshot, next_generation) = build_snapshot(&cfg, &registry, &store);
        let epoch_gauge = registry.gauge("corpus.epoch");
        epoch_gauge.set(snapshot.epoch.0 as i64);
        LiveVideoDb {
            evicted: registry.counter("cache.invalidation.evicted"),
            retained: registry.counter("cache.invalidation.retained"),
            epoch_gauge,
            writer: Mutex::new(Writer {
                store,
                next_generation,
            }),
            snapshot: Mutex::new(Arc::new(snapshot)),
            failover: Arc::new(Failover::new(
                cfg.shards,
                cfg.replicas,
                cfg.hedge,
                &registry,
            )),
            cfg,
            handles: CorpusHandles::new(registry),
            apply_faults: None,
            read_faults: None,
        }
    }

    /// Arms fault injection inside [`LiveVideoDb::apply`]: before each
    /// fresh member is built, the plan is consulted with key
    /// `apply/v<id>` at the batch's target epoch. A returned fault aborts
    /// the whole batch pre-publication (all-or-nothing).
    #[must_use]
    pub fn with_apply_faults(mut self, plan: FaultPlan) -> Self {
        self.apply_faults = Some(plan);
        self
    }

    /// Arms fault injection on reads: every read of the replica providers
    /// `target` names wraps them in a [`FaultyProvider`] under `plan`,
    /// retrying per `policy` and counting into the db's registry. Reads of
    /// every other replica use the plain [`PictureSystem`], unwrapped.
    #[must_use]
    pub fn with_read_faults(
        mut self,
        plan: FaultPlan,
        policy: RetryPolicy,
        target: FaultTarget,
    ) -> Self {
        self.read_faults = Some(Arc::new(ReadFaults {
            plan,
            policy,
            target,
            registry: Arc::clone(self.handles.registry()),
        }));
        self
    }

    /// The metrics registry shared by every provider.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        self.handles.registry()
    }

    /// The serving topology and tuning.
    #[must_use]
    pub fn config(&self) -> &LiveConfig {
        &self.cfg
    }

    /// The current (head) corpus epoch: the epoch of the published
    /// snapshot. Never waits behind an in-progress [`LiveVideoDb::apply`].
    #[must_use]
    pub fn epoch(&self) -> CorpusEpoch {
        self.published().epoch
    }

    /// The published snapshot: an `Arc` clone under the snapshot lock,
    /// which no one holds for longer than a clone or a swap.
    fn published(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.snapshot.lock().expect("live snapshot lock"))
    }

    /// Pins the current snapshot: a cheap `Arc` clone under the snapshot
    /// lock, which an in-progress [`LiveVideoDb::apply`] does not hold.
    /// Queries on the pin see exactly the pinned epoch however many
    /// batches are applied concurrently.
    #[must_use]
    pub fn pin(&self) -> LivePin {
        LivePin {
            snapshot: self.published(),
            engine_cfg: self.cfg.engine,
            handles: Arc::clone(&self.handles),
            failover: Arc::clone(&self.failover),
            read_faults: self.read_faults.clone(),
        }
    }

    /// Applies a mutation batch atomically: validates it, rebuilds the
    /// affected members aside, and only then publishes the new snapshot
    /// and epoch with one pointer swap. Batches are serialised by the
    /// writer lock; readers ([`LiveVideoDb::pin`], [`LiveVideoDb::epoch`])
    /// never wait for one. Staging copies one `Arc` per video, so the
    /// cost is O(touched videos). Untouched videos keep their member —
    /// and every warm cache — by reference; `cache.invalidation.retained`
    /// accounts their surviving tables, `cache.invalidation.evicted` the
    /// tables dropped with updated/removed members.
    ///
    /// # Errors
    ///
    /// [`ApplyError::Rejected`] when validation fails and
    /// [`ApplyError::Injected`] when an armed [`FaultPlan`] fires; both
    /// leave the store at the pre-batch epoch with the old snapshot
    /// intact.
    pub fn apply(&self, ops: &[CorpusOp]) -> Result<AppliedBatch, ApplyError> {
        let mut writer = self.writer.lock().expect("live writer lock");
        let mut staged = writer.store.clone();
        let batch = staged.apply(ops).map_err(ApplyError::Rejected)?;
        let epoch = batch.epoch;

        // Only `apply` publishes, and it holds the writer lock, so this is
        // the snapshot the batch builds on.
        let current = self.published();
        let reuse: HashMap<u32, &Arc<LiveMember>> = current
            .shards
            .iter()
            .flatten()
            .map(|m| (m.video.0, m))
            .collect();
        let touched: HashSet<u32> = batch
            .invalidated()
            .chain(batch.ingested.iter().copied())
            .map(|v| v.0)
            .collect();

        let mut next_generation = writer.next_generation;
        let mut shards: Vec<Vec<Arc<LiveMember>>> =
            (0..self.cfg.shards).map(|_| Vec::new()).collect();
        let mut retained = 0u64;
        for (video, tree) in staged.iter() {
            let member = match reuse.get(&video.0) {
                Some(m) if !touched.contains(&video.0) => {
                    retained += m.resident_tables();
                    Arc::clone(m)
                }
                _ => {
                    if let Some(plan) = &self.apply_faults {
                        match plan.decide(epoch.0, &format!("apply/v{}", video.0), 0) {
                            Some(Fault::Delay(d)) => std::thread::sleep(d),
                            Some(f) => {
                                // Nothing published yet: store and
                                // snapshot are both pre-batch.
                                return Err(ApplyError::Injected {
                                    video,
                                    fault: format!("{f:?}"),
                                });
                            }
                            None => {}
                        }
                    }
                    let gen = next_generation;
                    next_generation += 1;
                    build_member(&self.cfg, self.registry(), video, tree.clone(), epoch, gen)
                }
            };
            shards[shard_of(video, self.cfg.shards).0 as usize].push(member);
        }
        let evicted: u64 = batch
            .invalidated()
            .filter_map(|v| reuse.get(&v.0))
            .map(|m| m.resident_tables())
            .sum();

        // Point of no return: commit the writer state, then publish the
        // snapshot with one pointer swap.
        writer.store = staged;
        writer.next_generation = next_generation;
        let next = Arc::new(LiveSnapshot {
            epoch,
            replicas: self.cfg.replicas,
            shards,
        });
        let retired = std::mem::replace(
            &mut *self.snapshot.lock().expect("live snapshot lock"),
            next,
        );
        self.evicted.add(evicted);
        self.retained.add(retained);
        self.epoch_gauge.set(epoch.0 as i64);
        drop(writer);
        // The retired snapshot (and with it any replaced member no pin
        // still holds) drops here, outside both locks.
        drop((current, retired));
        Ok(batch)
    }
}

/// Builds the snapshot of `store` at its epoch with fresh members, and
/// returns it with the next unused generation.
fn build_snapshot(
    cfg: &LiveConfig,
    registry: &Arc<Registry>,
    store: &VideoStore,
) -> (LiveSnapshot, u64) {
    let epoch = store.epoch();
    let mut generation = 0;
    let mut shards: Vec<Vec<Arc<LiveMember>>> = (0..cfg.shards).map(|_| Vec::new()).collect();
    for (video, tree) in store.iter() {
        let member = build_member(cfg, registry, video, tree.clone(), epoch, generation);
        generation += 1;
        shards[shard_of(video, cfg.shards).0 as usize].push(member);
    }
    let snapshot = LiveSnapshot {
        epoch,
        replicas: cfg.replicas,
        shards,
    };
    (snapshot, generation)
}

fn build_member(
    cfg: &LiveConfig,
    registry: &Arc<Registry>,
    video: VideoId,
    tree: VideoTree,
    epoch: CorpusEpoch,
    generation: u64,
) -> Arc<LiveMember> {
    let replicas = (0..cfg.replicas)
        .map(|_| {
            PictureSystem::shared(
                tree.clone(),
                cfg.scoring.clone(),
                cfg.cache,
                Arc::clone(registry),
            )
            .with_provenance(epoch, generation)
        })
        .collect();
    Arc::new(LiveMember {
        video,
        generation,
        tree,
        replicas,
    })
}

/// A pinned, immutable view of the corpus at one epoch. All retrieval
/// runs here; the pin keeps its snapshot (trees, providers, warm caches)
/// alive until dropped, so in-flight queries are never torn by an apply.
#[derive(Clone)]
pub struct LivePin {
    snapshot: Arc<LiveSnapshot>,
    engine_cfg: EngineConfig,
    handles: Arc<CorpusHandles>,
    failover: Arc<Failover>,
    read_faults: Option<Arc<ReadFaults>>,
}

impl LivePin {
    /// The epoch this pin serves.
    #[must_use]
    pub fn epoch(&self) -> CorpusEpoch {
        self.snapshot.epoch
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> u32 {
        self.snapshot.shards.len() as u32
    }

    /// Number of live videos in this snapshot.
    #[must_use]
    pub fn video_count(&self) -> usize {
        self.snapshot.shards.iter().map(Vec::len).sum()
    }

    /// The videos assigned to `shard`, in store order.
    #[must_use]
    pub fn videos_in(&self, shard: ShardId) -> Vec<VideoId> {
        self.snapshot.shards[shard.0 as usize]
            .iter()
            .map(|m| m.video)
            .collect()
    }

    /// The cache generation of a live video's member, or `None` if the
    /// video is absent from this snapshot. The generation changes exactly
    /// when the video's content does.
    #[must_use]
    pub fn generation_of(&self, video: VideoId) -> Option<u64> {
        self.member(video).map(|m| m.generation)
    }

    /// The primary-replica provider of a live video — the cache the
    /// singleflight storm tests probe directly.
    #[must_use]
    pub fn provider(&self, video: VideoId) -> Option<&PictureSystem<'static>> {
        self.member(video).map(|m| &m.replicas[0])
    }

    fn member(&self, video: VideoId) -> Option<&Arc<LiveMember>> {
        let shard = shard_of(video, self.shard_count());
        self.snapshot.shards[shard.0 as usize]
            .iter()
            .find(|m| m.video == video)
    }

    /// Evaluates `query` on one shard: normalizes and plans it, then reads
    /// the shard as [`LivePin::eval_shard_prepared`] does.
    ///
    /// # Errors
    ///
    /// As [`LivePin::eval_shard_prepared`], plus
    /// [`EngineError::UnsupportedFormula`] for a query outside the
    /// supported class.
    pub fn eval_shard(
        &self,
        shard: ShardId,
        query: &Formula,
        depth: u8,
        k: usize,
    ) -> Result<ShardStream, EngineError> {
        self.eval_shard_prepared(shard, &PreparedQuery::new(query)?, depth, k)
    }

    /// Evaluates a prepared query on one shard and returns its ranked
    /// candidate stream: each member video's pruned top-`k`, sorted by the
    /// corpus-wide rank order. The read walks the shard's replicas with
    /// breaker-gated failover and hedging, in the [`failover_order`]
    /// keyed by this pin's epoch mixed with the query's stable hash: on a
    /// frozen corpus different queries lead with different replicas, and
    /// one query keeps leading with the same one (cache locality over
    /// even load).
    ///
    /// # Errors
    ///
    /// Any non-degradable [`EngineError`], or the degradable
    /// [`EngineError::ReplicasExhausted`] when every replica of the shard
    /// failed or was denied by its breaker — [`LivePin::gather`] turns
    /// that into a sound degraded answer.
    pub fn eval_shard_prepared(
        &self,
        shard: ShardId,
        query: &PreparedQuery,
        depth: u8,
        k: usize,
    ) -> Result<ShardStream, EngineError> {
        let members = &self.snapshot.shards[shard.0 as usize];
        if members.is_empty() {
            // Nothing to read, so no replica to consult: an empty shard
            // answers the same whatever its breakers say.
            return Ok(ShardStream::new(shard.0, Vec::new()));
        }
        let rotation = self.snapshot.epoch.0 ^ query.key;
        let order = failover_order(rotation, shard.0, self.snapshot.replicas);
        self.failover.read(shard, &order, |r, budget| {
            let replica = members
                .iter()
                .map(|m| (m.video, &m.tree, &m.replicas[r as usize]));
            match &self.read_faults {
                Some(f) if f.target.covers(shard, r) => {
                    let faulty: Vec<_> = replica.map(|(v, t, p)| (v, t, f.wrap(p))).collect();
                    let faulty = faulty.iter().map(|(v, t, p)| (*v, *t, p));
                    self.eval_members(shard, faulty, query, (depth, k), budget)
                }
                _ => self.eval_members(shard, replica, query, (depth, k), budget),
            }
        })
    }

    /// [`eval_members`] with this pin's engine configuration and handles.
    fn eval_members<'m, P: AtomicProvider + 'm>(
        &self,
        shard: ShardId,
        members: impl Iterator<Item = (VideoId, &'m VideoTree, &'m P)>,
        query: &PreparedQuery,
        depth_k: (u8, usize),
        budget: &Budget,
    ) -> Result<ShardStream, EngineError> {
        let (cfg, handles) = (self.engine_cfg, &self.handles.engine);
        eval_members(shard, members, &query.plan, depth_k, cfg, handles, budget)
    }

    /// Merges per-shard outcomes into a [`ShardedAnswer`], counting shard
    /// outcomes (`shard.outcome.ok` / `shard.outcome.failed`) and
    /// coordinator savings (`shard.candidates_pruned`,
    /// `shard.early_terminated`). Shared by [`LivePin::top_k`] and any
    /// executor that scatters the shard reads itself, so a request is
    /// accounted identically wherever its shards ran.
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

    /// Scatter-gather top-`k` over this pin's epoch, with the query
    /// normalized and planned once for all shards and videos. Complete
    /// answers are bit-identical to [`LivePin::top_k_unsharded`] — and to
    /// any shard or replica count over the same store, the oracle property
    /// the corpus suites enforce.
    ///
    /// # Errors
    ///
    /// Non-degradable errors only; shard-level degradable failures
    /// resolve to [`ShardedAnswer::Degraded`].
    pub fn top_k(
        &self,
        query: &Formula,
        depth: u8,
        k: usize,
    ) -> Result<ShardedAnswer, EngineError> {
        let query = PreparedQuery::new(query)?;
        let per_shard = (0..self.shard_count())
            .map(|s| {
                let id = ShardId(s);
                (id, self.eval_shard_prepared(id, &query, depth, k))
            })
            .collect();
        self.gather(per_shard, k)
    }

    /// The unsharded oracle: a flat scan over every video's primary
    /// replica (same per-video pruned evaluation, no failover), one global
    /// sort, truncate at `k`. This is the reference the scatter-gather
    /// path must reproduce bit-identically.
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
        let query = PreparedQuery::new(query)?;
        let members = self
            .snapshot
            .shards
            .iter()
            .flatten()
            .map(|m| (m.video, &m.tree, &m.replicas[0]));
        // One stream over every video is already in global rank order.
        let unlimited = Budget::unlimited();
        let mut hits = self
            .eval_members(ShardId(0), members, &query, (depth, k), &unlimited)?
            .hits;
        hits.truncate(k);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::parse;
    use simvid_model::{CorpusLog, VideoBuilder};
    use std::collections::VecDeque;

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
        let mut s = VideoStore::new();
        s.add(video("a", &[false, true, false, true]));
        s.add(video("b", &[true, true]));
        s.add(video("c", &[false, false, true]));
        s.add(video("d", &[true]));
        s
    }

    fn live(shards: u32, replicas: u32) -> LiveVideoDb {
        LiveVideoDb::new(
            store(),
            LiveConfig {
                shards,
                replicas,
                ..LiveConfig::default()
            },
            Arc::new(Registry::new()),
        )
    }

    /// The 1-shard replay oracle: a fresh corpus over `s` that never
    /// applies a batch, scanned flat.
    fn frozen_answer(s: &VideoStore, q: &Formula, k: usize) -> Vec<ShardHit> {
        LiveVideoDb::new(s.clone(), LiveConfig::default(), Arc::new(Registry::new()))
            .pin()
            .top_k_unsharded(q, 1, k)
            .unwrap()
    }

    #[test]
    fn pinned_queries_match_frozen_store_before_any_mutation() {
        let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
        for shards in 1..=3 {
            for replicas in 1..=2 {
                let db = live(shards, replicas);
                let pin = db.pin();
                assert_eq!(pin.epoch(), CorpusEpoch(0));
                let got = db.pin().top_k(&q, 1, 5).unwrap();
                assert!(got.is_complete());
                assert_eq!(got.ranked(), &frozen_answer(&store(), &q, 5)[..]);
            }
        }
    }

    #[test]
    fn apply_swaps_snapshot_but_pinned_queries_keep_their_epoch() {
        let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
        let db = live(2, 1);
        let old_pin = db.pin();
        let before = old_pin.top_k(&q, 1, 10).unwrap();

        let ops = [
            CorpusOp::Remove(VideoId(1)),
            CorpusOp::Ingest(video("e", &[true, false, true])),
        ];
        let batch = db.apply(&ops).unwrap();
        assert_eq!(batch.epoch, CorpusEpoch(1));
        assert_eq!(db.epoch(), CorpusEpoch(1));

        // The old pin still answers at epoch 0, bit-identically.
        assert_eq!(old_pin.epoch(), CorpusEpoch(0));
        assert_eq!(old_pin.top_k(&q, 1, 10).unwrap(), before);

        // A fresh pin answers like a frozen partition of the store with
        // the batch applied.
        let pin = db.pin();
        assert_eq!(pin.epoch(), CorpusEpoch(1));
        let got = pin.top_k(&q, 1, 10).unwrap();
        let mut rebuilt = store();
        rebuilt.apply(&ops).unwrap();
        assert_eq!(got.ranked(), &frozen_answer(&rebuilt, &q, 10)[..]);
    }

    #[test]
    fn untouched_members_are_reused_and_mutated_ones_are_not() {
        let db = live(2, 1);
        let q = parse("exists x . holds_gun(x)").unwrap();
        // Warm the caches.
        db.pin().top_k(&q, 1, 5).unwrap();
        let before = db.pin();
        let gens: Vec<Option<u64>> = (0..4).map(|v| before.generation_of(VideoId(v))).collect();

        db.apply(&[CorpusOp::Update(VideoId(2), video("c2", &[true]))])
            .unwrap();
        let after = db.pin();
        for v in [0u32, 1, 3] {
            assert_eq!(
                after.generation_of(VideoId(v)),
                gens[v as usize],
                "untouched video {v} must keep its member"
            );
        }
        assert_ne!(after.generation_of(VideoId(2)), gens[2]);
        // Counters: something was retained (videos 0/1/3 were warm),
        // and the evicted count covers only video 2's tables.
        let snap = db.registry().snapshot();
        assert!(snap.counter("cache.invalidation.retained").unwrap_or(0) > 0);
        assert_eq!(snap.gauge("corpus.epoch"), Some(1));
    }

    /// Asserts that every member of the published snapshot holds the very
    /// tree `Arc` the writer's store holds for its video.
    fn assert_members_share_store_trees(db: &LiveVideoDb) {
        let writer = db.writer.lock().unwrap();
        let pin = db.pin();
        assert_eq!(pin.video_count(), writer.store.len());
        for (video, tree) in writer.store.iter() {
            let member = pin.member(video).expect("live video has a member");
            assert!(
                member.tree.ptr_eq(tree),
                "video {} must share the store's tree",
                video.0
            );
        }
    }

    #[test]
    fn members_share_the_store_trees_instead_of_copying_them() {
        // The caller's copy of the store shares them too: cloning a store
        // copies pointers only.
        let base = store();
        let db = LiveVideoDb::new(
            base.clone(),
            LiveConfig {
                shards: 2,
                replicas: 2,
                ..LiveConfig::default()
            },
            Arc::new(Registry::new()),
        );
        assert_members_share_store_trees(&db);
        for (video, tree) in base.iter() {
            assert!(db.pin().member(video).unwrap().tree.ptr_eq(tree));
        }

        let before = db.pin();
        db.apply(&[CorpusOp::Update(VideoId(2), video("c2", &[true]))])
            .unwrap();
        assert_members_share_store_trees(&db);
        let after = db.pin();
        for v in [0u32, 1, 3] {
            assert!(
                before
                    .member(VideoId(v))
                    .unwrap()
                    .tree
                    .ptr_eq(&after.member(VideoId(v)).unwrap().tree),
                "untouched video {v} keeps its tree across the apply"
            );
        }
    }

    #[test]
    fn rejected_and_faulted_batches_leave_the_pre_batch_epoch() {
        let q = parse("exists x . holds_gun(x)").unwrap();
        let db = live(2, 1);
        let before = db.pin().top_k(&q, 1, 10).unwrap();

        let err = db.apply(&[CorpusOp::Remove(VideoId(99))]).unwrap_err();
        assert!(matches!(err, ApplyError::Rejected(_)));
        assert_eq!(db.epoch(), CorpusEpoch(0));
        assert_eq!(db.pin().top_k(&q, 1, 10).unwrap(), before);

        // Injected fault: always-fire plan aborts the batch atomically.
        // The test keeps its own log of the committed batches.
        let db = live(2, 1).with_apply_faults(FaultPlan::chaos_default());
        let mut log = CorpusLog::starting_from(store());
        let mut aborted = false;
        for i in 0..16u32 {
            let ops = [CorpusOp::Ingest(video(&format!("n{i}"), &[true]))];
            match db.apply(&ops) {
                Ok(_) => log.record(&ops),
                Err(ApplyError::Injected { .. }) => {
                    aborted = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(aborted, "chaos plan should fire within 16 batches");
        // Whatever committed before the abort is consistent: the head
        // answers bit-identically to a rebuild from the committed batches.
        let head = db.epoch();
        assert_eq!(head, log.head_epoch());
        let rebuilt = log.replay_to(head);
        assert_eq!(
            db.pin().top_k(&q, 1, 10).unwrap().ranked(),
            &frozen_answer(&rebuilt, &q, 10)[..]
        );
    }

    /// Under balanced churn the db keeps only the live videos' trees
    /// alive: a removed video's tree drops with the last snapshot that
    /// held it, however many batches came before.
    #[test]
    fn removed_videos_do_not_outlive_their_last_snapshot() {
        let db = live(2, 1);
        let mut live_ids: VecDeque<u32> = (0..4).collect();
        let mut ingested = Vec::new();
        for i in 0..64u32 {
            let tree = video(&format!("n{i}"), &[i % 2 == 0, true]);
            ingested.push(tree.clone());
            let oldest = live_ids.pop_front().unwrap();
            let batch = db
                .apply(&[CorpusOp::Ingest(tree), CorpusOp::Remove(VideoId(oldest))])
                .unwrap();
            live_ids.extend(batch.ingested.iter().map(|v| v.0));
        }
        let live_count = db.pin().video_count();
        assert_eq!(live_count, 4);
        // A tree whose only handle is the test's own is no longer kept.
        let kept = ingested.iter().filter(|t| t.share_count() > 1).count();
        assert_eq!(
            kept, live_count,
            "trees kept alive for {live_count} live videos"
        );
    }
}
