//! The corpus serving workload: the multi-video twin of [`crate::serve`],
//! served by a sharded, replicated [`LiveVideoDb`].
//!
//! The corpus is a seeded set of random videos (one tree per video, same
//! generator as the single-video serving workload), the query pool and
//! Zipf-skewed request schedule are shared with [`crate::serve`], and each
//! request is a corpus-wide top-`k` answered by scatter-gather over a
//! pinned snapshot. Mutation batches ([`crate::churn`]) may sit at fixed
//! request positions; a frozen schedule is one with no batches.
//!
//! One runner, [`run_corpus`], drives every schedule. Between mutation
//! points it pins one snapshot and fans the segment's requests out as
//! `(request, shard)` tasks over the worker pool of [`crate::serve`]
//! (inline on the calling thread with `workers == 0`); whichever task
//! finishes the last shard of a request runs the merge coordinator for it.
//! At a mutation point the pool drains (a barrier), the batch applies, and
//! the next segment pins the new epoch. Answers come back slot-ordered and
//! bit-identical for every worker count, shard count and replica count,
//! because each request is answered at the same epoch either way and the
//! merge is deterministic.

use simvid_core::{EngineError, ShardStream};
use simvid_htl::Formula;
use simvid_model::{CorpusOp, VideoStore};
use simvid_picture::{
    CacheConfig, LiveConfig, LivePin, LiveVideoDb, PreparedQuery, ShardId, ShardedAnswer,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::serve::{gen_tree, query_pool, run_pool, zipf_schedule, ExecutorConfig, Priority};

/// Parameters of the corpus serving workload.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of videos in the base corpus (epoch 0).
    pub videos: u32,
    /// Shots per video (leaves of each two-level tree).
    pub shots: u32,
    /// Number of requests in the schedule.
    pub requests: usize,
    /// Skew of the query popularity distribution (see
    /// [`crate::serve::ServeConfig::zipf_exponent`]).
    pub zipf_exponent: f64,
    /// `k` of the corpus-wide top-`k` each request asks for.
    pub k: usize,
    /// Seed for the corpus, the schedule and the mutation batches.
    pub seed: u64,
    /// Per-video atomic-cache capacity.
    pub cache_capacity: usize,
    /// Shard count of the partition.
    pub shards: u32,
    /// Replica count per video.
    pub replicas: u32,
    /// Number of mutation batches, spread evenly over the schedule
    /// (`0` serves a frozen corpus).
    pub batches: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            videos: 8,
            shots: 60,
            requests: 120,
            zipf_exponent: 1.1,
            k: 10,
            seed: 97,
            cache_capacity: 1024,
            shards: 2,
            replicas: 1,
            batches: 0,
        }
    }
}

impl CorpusConfig {
    /// The serving topology of this workload: its shards, replicas and
    /// cache capacity, everything else at the default.
    #[must_use]
    pub fn live_config(&self) -> LiveConfig {
        LiveConfig {
            shards: self.shards,
            replicas: self.replicas,
            cache: CacheConfig::with_capacity(self.cache_capacity),
            ..LiveConfig::default()
        }
    }
}

/// A fully materialised corpus workload: the base corpus, the query pool
/// and schedule, and the mutation batches at their scheduled positions.
pub struct CorpusWorkload {
    /// The base corpus (epoch 0); hand it to [`LiveVideoDb::new`].
    pub store: VideoStore,
    /// The query pool, hottest first (same pool as [`crate::serve`]).
    pub queries: Vec<Formula>,
    /// The request schedule: `schedule[r]` indexes into `queries`.
    pub schedule: Vec<usize>,
    /// Mutation batches as `(position, ops)`: the batch applies *before*
    /// the request at `position`. Positions are non-decreasing; empty for
    /// a frozen corpus.
    pub batches: Vec<(usize, Vec<CorpusOp>)>,
    /// Top-`k` size of every request.
    pub k: usize,
}

impl CorpusWorkload {
    /// The depth requests are evaluated at (the shot level of every
    /// generated video).
    #[must_use]
    pub fn depth(&self) -> u8 {
        1
    }

    /// Requests before the first mutation — the prefix that must answer
    /// bit-identically to the frozen (epoch 0) store.
    #[must_use]
    pub fn mutation_free_prefix(&self) -> usize {
        self.batches
            .first()
            .map_or(self.schedule.len(), |(p, _)| *p)
    }
}

/// Builds the corpus workload. Deterministic in `cfg.seed`: video `i`
/// derives its generator seed from the base seed, the schedule is the one
/// [`crate::serve::build`] samples for the same seed, and the mutation
/// batches come from [`crate::churn::batches`].
#[must_use]
pub fn build_corpus(cfg: &CorpusConfig) -> CorpusWorkload {
    let mut store = VideoStore::new();
    for i in 0..cfg.videos {
        let seed = cfg
            .seed
            .wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        store.add(gen_tree(cfg.shots, seed));
    }
    let queries = query_pool();
    CorpusWorkload {
        store,
        schedule: zipf_schedule(queries.len(), cfg.requests, cfg.zipf_exponent, cfg.seed),
        queries,
        batches: crate::churn::batches(cfg),
        k: cfg.k,
    }
}

/// The outcome of driving one corpus schedule.
#[derive(Debug, Clone)]
pub struct CorpusRun {
    /// Per-request scatter-gather answers, in schedule order.
    pub answers: Vec<ShardedAnswer>,
    /// Per-request epochs: the epoch of the snapshot each request was
    /// answered against.
    pub epochs: Vec<u64>,
    /// Wall time of the whole schedule, mutation applies included.
    pub elapsed: Duration,
}

impl CorpusRun {
    /// How many requests resolved with every shard contributing.
    #[must_use]
    pub fn complete(&self) -> usize {
        self.answers.iter().filter(|a| a.is_complete()).count()
    }

    /// How many requests lost at least one shard.
    #[must_use]
    pub fn degraded(&self) -> usize {
        self.answers.len() - self.complete()
    }

    /// The epochs served, deduplicated in order.
    #[must_use]
    pub fn served_epochs(&self) -> Vec<u64> {
        let mut out = self.epochs.clone();
        out.dedup();
        out
    }
}

/// Drives the schedule through `db`: before each request, apply every
/// batch scheduled at or before its position; answer the requests between
/// mutation points against one pinned snapshot. Each pool query is
/// normalized and planned once for the whole run. Each segment fans out
/// as `(request, shard)` tasks over the worker pool of `exec`:
/// `exec.workers == 0` answers inline, one request at a time in shard
/// order; `workers >= 1` runs the tasks on that many threads fed by a
/// bounded queue of `exec.queue_depth`.
///
/// `serve.requests` and `serve.request_seconds` are recorded as in
/// [`crate::serve::run_schedule`], and so is the pool's per-worker
/// `serve.worker.<wid>.task_seconds` histogram (here one task is one
/// shard of one request); the db itself maintains the `shard.*`,
/// `replica.*` and `cache.invalidation.*` metrics.
///
/// # Panics
///
/// Panics if a scheduled batch is rejected (batches are valid by
/// construction) or a request fails non-degradably (the pool is fixed and
/// closed, so this indicates an engine bug). A panicking worker closes the
/// queue so the pool shuts down instead of deadlocking.
#[must_use]
pub fn run_corpus(w: &CorpusWorkload, db: &LiveVideoDb, exec: &ExecutorConfig) -> CorpusRun {
    let plans: Vec<PreparedQuery> = w
        .queries
        .iter()
        .map(|q| PreparedQuery::new(q).expect("pool query is supported"))
        .collect();
    let n = w.schedule.len();
    let start = Instant::now();
    let mut answers: Vec<ShardedAnswer> = Vec::with_capacity(n);
    let mut epochs: Vec<u64> = Vec::with_capacity(n);
    let mut bi = 0;
    let mut lo = 0;
    while lo < n {
        while bi < w.batches.len() && w.batches[bi].0 <= lo {
            db.apply(&w.batches[bi].1).expect("scheduled batch applies");
            bi += 1;
        }
        // All remaining batch positions are > lo, so the segment is
        // non-empty and every request in it serves the just-pinned epoch.
        let hi = w.batches.get(bi).map_or(n, |(p, _)| (*p).min(n));
        let segment = Segment {
            w,
            db,
            plans: &plans,
            pin: db.pin(),
            lo,
        };
        let served = segment.run(hi, exec);
        epochs.extend(std::iter::repeat_n(segment.pin.epoch().0, hi - lo));
        answers.extend(served);
        lo = hi;
    }
    while bi < w.batches.len() {
        db.apply(&w.batches[bi].1).expect("scheduled batch applies");
        bi += 1;
    }
    CorpusRun {
        answers,
        epochs,
        elapsed: start.elapsed(),
    }
}

/// The requests from `lo` on that one pinned snapshot answers.
struct Segment<'a> {
    w: &'a CorpusWorkload,
    db: &'a LiveVideoDb,
    plans: &'a [PreparedQuery],
    pin: LivePin,
    lo: usize,
}

impl Segment<'_> {
    /// Evaluates shard `s` of request `r` (a schedule index).
    fn eval(&self, r: usize, s: usize) -> Result<ShardStream, EngineError> {
        let plan = &self.plans[self.w.schedule[r]];
        self.pin
            .eval_shard_prepared(ShardId(s as u32), plan, self.w.depth(), self.w.k)
    }

    /// Fans requests `lo..hi` out as `(request, shard)` tasks over the
    /// worker pool; the task that finishes a request's last shard gathers
    /// the request.
    fn run(&self, hi: usize, exec: &ExecutorConfig) -> Vec<ShardedAnswer> {
        let registry = self.db.registry();
        let requests = registry.counter("serve.requests");
        let latency = registry.histogram("serve.request_seconds");
        let shards = self.pin.shard_count().max(1) as usize;
        let n = hi - self.lo;
        // Per-request scatter state: one stream slot per shard, a
        // countdown of shards still in flight, and the request's
        // first-task start time.
        type StreamSlot = Mutex<Option<Result<ShardStream, EngineError>>>;
        let streams: Vec<Vec<StreamSlot>> = (0..n)
            .map(|_| (0..shards).map(|_| Mutex::new(None)).collect())
            .collect();
        let remaining: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(shards)).collect();
        let started: Vec<Mutex<Option<Instant>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let mut gathered = run_pool(
            exec,
            registry,
            n * shards,
            |_| Priority::Normal,
            None,
            || (),
            |(), task, _| {
                let (i, s) = (task / shards, task % shards);
                started[i]
                    .lock()
                    .expect("request start lock")
                    .get_or_insert_with(Instant::now);
                let stream = self.eval(self.lo + i, s);
                *streams[i][s].lock().expect("stream slot lock") = Some(stream);
                if remaining[i].fetch_sub(1, Ordering::AcqRel) != 1 {
                    return None;
                }
                // Last shard of request `i`: gather it here.
                let per_shard = streams[i]
                    .iter()
                    .enumerate()
                    .map(|(si, slot)| {
                        let outcome = slot
                            .lock()
                            .expect("stream slot lock")
                            .take()
                            .expect("every shard slot resolves before gather");
                        (ShardId(si as u32), outcome)
                    })
                    .collect();
                let answer = self
                    .pin
                    .gather(per_shard, self.w.k)
                    .expect("corpus request evaluates");
                let t0 = started[i]
                    .lock()
                    .expect("request start lock")
                    .expect("request start recorded before gather");
                latency.record_duration(t0.elapsed());
                requests.inc();
                Some(answer)
            },
        );
        gathered
            .chunks_mut(shards)
            .map(|tasks| {
                tasks
                    .iter_mut()
                    .find_map(Option::take)
                    .expect("one shard task of every request gathers it")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_obs::Registry;
    use std::sync::Arc;

    fn config() -> CorpusConfig {
        CorpusConfig {
            videos: 5,
            shots: 12,
            requests: 24,
            ..CorpusConfig::default()
        }
    }

    fn live(w: &CorpusWorkload, cfg: &CorpusConfig) -> LiveVideoDb {
        LiveVideoDb::new(
            w.store.clone(),
            cfg.live_config(),
            Arc::new(Registry::new()),
        )
    }

    #[test]
    fn build_is_deterministic_in_seed() {
        let a = build_corpus(&config());
        let b = build_corpus(&config());
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.store.iter().count(), 5);
        assert!(a.batches.is_empty(), "no batches configured, none built");
        for ((_, ta), (_, tb)) in a.store.iter().zip(b.store.iter()) {
            assert_eq!(ta.segment_count(), tb.segment_count());
        }
    }

    /// Inline and pooled runs agree bit-for-bit at every shard count and
    /// replica count, and so do the replica counters that tell failovers
    /// apart (none, on a fault-free corpus).
    #[test]
    fn concurrent_fanout_is_bit_identical_to_sequential() {
        for shards in [1, 2, 4] {
            for replicas in [1, 2] {
                let cfg = CorpusConfig {
                    shards,
                    replicas,
                    ..config()
                };
                let w = build_corpus(&cfg);
                let db = live(&w, &cfg);
                let seq = run_corpus(&w, &db, &ExecutorConfig::with_workers(0));
                assert_eq!(seq.complete(), w.schedule.len());
                for workers in [1, 2, 4] {
                    let conc = run_corpus(&w, &db, &ExecutorConfig::with_workers(workers));
                    assert_eq!(
                        conc.answers, seq.answers,
                        "shards={shards} workers={workers}"
                    );
                }
                let snap = db.registry().snapshot();
                assert_eq!(snap.counter("replica.failover"), Some(0));
                assert_eq!(snap.counter("replica.exhausted"), Some(0));
            }
        }
    }

    #[test]
    fn sharded_schedule_matches_unsharded_oracle() {
        let cfg = config();
        let w = build_corpus(&cfg);
        for shards in [1, 3] {
            let db = live(
                &w,
                &CorpusConfig {
                    shards,
                    ..cfg.clone()
                },
            );
            let run = run_corpus(&w, &db, &ExecutorConfig::with_workers(0));
            assert_eq!(run.complete(), w.schedule.len());
            let pin = db.pin();
            for (answer, &q) in run.answers.iter().zip(&w.schedule) {
                let oracle = pin.top_k_unsharded(&w.queries[q], w.depth(), w.k).unwrap();
                assert_eq!(answer.ranked(), &oracle[..], "shards={shards}");
            }
        }
    }
}
