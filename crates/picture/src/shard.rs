//! Scatter-gather top-`k` over a hash-partitioned corpus: the pieces every
//! shard read and every gather share.
//!
//! The paper's similarity model decomposes per video — indices, similarity
//! lists and engines are all per-video state — which makes the corpus
//! embarrassingly partitionable. [`crate::LiveVideoDb`] hash-partitions
//! its videos into `S` shards with a stable [`ShardId`] assignment
//! ([`shard_of`]); each shard evaluates a [`PreparedQuery`] on its own
//! videos (through the pruned [`Engine::top_k_plan_resilient`] path, with
//! per-video atomic caches and singleflight intact) and emits a ranked
//! [`ShardStream`]; the merge coordinator
//! ([`simvid_core::merge_shard_streams`]) then runs the threshold algorithm
//! across the streams, stopping as soon as the k-th best score dominates
//! every shard's remaining upper bound.
//!
//! Results are **bit-identical** to the unsharded path for every shard
//! count: streams are sorted by the corpus-wide total order
//! ([`simvid_core::global_rank`]), so the merge is exactly the k-prefix of
//! the global sort the flat scan would produce. The
//! [`crate::LivePin::top_k_unsharded`] oracle makes that property directly
//! testable (and CI-gateable via `results_digest`).
//!
//! A shard whose provider fails with a *degradable* error (a provider
//! that gave up after retries, a budget violation, a captured panic, every
//! replica exhausted) degrades the answer instead of sinking it: the merge
//! runs over the surviving shards and the result carries the failed shard
//! ids plus a sound upper bound on anything the failed shards could have
//! contributed (see [`ShardedDegraded`]).

use simvid_core::{
    merge_shard_streams, AtomicProvider, Budget, Engine, EngineConfig, EngineError, EngineHandles,
    MergeStats, Plan, ShardHit, ShardStream, TopKAnswer,
};
use simvid_htl::{classify, normalize_for_engine, Formula, FormulaClass, FormulaId};
use simvid_model::{VideoId, VideoTree};
use simvid_obs::{Counter, Registry};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

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
    /// `shard.early_terminated`); see [`crate::LivePin::gather`].
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

/// Hoists inline quantifiers to prefix form when that
/// (semantics-preservingly) brings a naively-written query into an
/// engine-supported class. Every multi-video entry point — the live
/// corpus and [`crate::VideoDatabase::retrieve`] — normalizes here.
pub(crate) fn normalize_query(query: &Formula) -> Result<Cow<'_, Formula>, EngineError> {
    if classify(query) == FormulaClass::General {
        let (hoisted, _, after) = normalize_for_engine(query);
        if after == FormulaClass::General {
            return Err(EngineError::UnsupportedFormula(
                "multi-video retrieval requires extended conjunctive formulas \
                 (even after quantifier hoisting)"
                    .into(),
            ));
        }
        Ok(Cow::Owned(hoisted))
    } else {
        Ok(Cow::Borrowed(query))
    }
}

/// A corpus query prepared once per request: normalized, compiled into a
/// [`Plan`] shared by every shard read and every video, and keyed for
/// replica rotation by the normalized query's [`FormulaId::stable_hash`]
/// (stable across runs, unlike the interned id).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub(crate) plan: Plan,
    pub(crate) key: u64,
}

impl PreparedQuery {
    /// Normalizes and plans `query`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedFormula`] when the query stays outside the
    /// extended conjunctive class even after quantifier hoisting.
    pub fn new(query: &Formula) -> Result<PreparedQuery, EngineError> {
        let normalized = normalize_query(query)?;
        Ok(PreparedQuery {
            plan: Plan::new(&normalized),
            key: FormulaId::stable_hash(&normalized),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LiveConfig, LiveVideoDb};
    use simvid_htl::parse;
    use simvid_model::{VideoBuilder, VideoStore};

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

    fn db(shards: u32) -> LiveVideoDb {
        LiveVideoDb::new(
            store(),
            LiveConfig {
                shards,
                ..LiveConfig::default()
            },
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
        let pin = db(3).pin();
        let mut videos: Vec<VideoId> = (0..pin.shard_count())
            .flat_map(|s| pin.videos_in(ShardId(s)))
            .collect();
        videos.sort();
        let mut want: Vec<VideoId> = store().iter().map(|(v, _)| v).collect();
        want.sort();
        assert_eq!(videos, want);
        for s in 0..pin.shard_count() {
            for v in pin.videos_in(ShardId(s)) {
                assert_eq!(shard_of(v, 3), ShardId(s));
            }
        }
    }

    #[test]
    fn sharded_top_k_matches_unsharded_oracle_for_every_shard_count() {
        let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
        for shards in 1..=6 {
            let pin = db(shards).pin();
            for k in [0, 1, 3, 7, 100] {
                let oracle = pin.top_k_unsharded(&q, 1, k).unwrap();
                let answer = pin.top_k(&q, 1, k).unwrap();
                assert!(answer.is_complete());
                assert_eq!(answer.ranked(), &oracle[..], "shards={shards} k={k}");
            }
        }
    }

    #[test]
    fn merge_counters_account_for_savings() {
        let db = db(4);
        let q = parse("exists x . holds_gun(x)").unwrap();
        let answer = db.pin().top_k(&q, 1, 2).unwrap();
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
        let pin = db(2).pin();
        let hoistable = parse("true and (exists x . eventually holds_gun(x))").unwrap();
        assert!(pin.top_k(&hoistable, 1, 5).is_ok());
        let hopeless = parse("not eventually (exists x . holds_gun(x))").unwrap();
        assert!(pin.top_k(&hopeless, 1, 5).is_err());
    }

    #[test]
    fn prepared_queries_key_rotation_on_structure_not_interning_order() {
        let a = PreparedQuery::new(&parse("exists x . holds_gun(x)").unwrap()).unwrap();
        let b = PreparedQuery::new(&parse("exists x . holds_gun(x)").unwrap()).unwrap();
        let c = PreparedQuery::new(&parse("exists x . person(x)").unwrap()).unwrap();
        assert_eq!(a.key, b.key);
        assert_ne!(a.key, c.key);
        // A hoisted query keys on its normalized form.
        let inline = PreparedQuery::new(&parse("true and (exists x . holds_gun(x))").unwrap());
        let hoisted = normalize_query(&parse("true and (exists x . holds_gun(x))").unwrap())
            .unwrap()
            .into_owned();
        assert_eq!(inline.unwrap().key, FormulaId::stable_hash(&hoisted));
    }
}
