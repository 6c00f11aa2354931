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
//! points it pins one snapshot and answers the segment's requests against
//! it — inline with `workers == 0`, otherwise through the fixed worker
//! pool of [`crate::serve`] fanned out over `(request, shard)` tasks,
//! where whichever worker finishes the last shard of a request runs the
//! merge coordinator for it. At a mutation point the pool drains (a barrier), the batch
//! applies, and the next segment pins the new epoch. Answers come back
//! slot-ordered and bit-identical for every worker count, shard count and
//! replica count, because each request is answered at the same epoch
//! either way and the merge is deterministic.

use simvid_core::{EngineError, ShardStream};
use simvid_htl::Formula;
use simvid_model::{CorpusOp, VideoStore};
use simvid_picture::{
    CacheConfig, LiveConfig, LivePin, LiveVideoDb, PreparedQuery, ShardId, ShardedAnswer,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::randomvideo::{generate, VideoGenConfig};
use crate::serve::{BoundedQueue, CloseOnPanic, ExecutorConfig};

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

/// The tree generator every corpus video (base or mutated) comes from.
pub(crate) fn gen_tree(shots: u32, seed: u64) -> simvid_model::VideoTree {
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

/// Builds the corpus workload. Deterministic in `cfg.seed`: video `i`
/// derives its generator seed from the base seed, the schedule uses the
/// exact sampling of [`crate::serve::build`], and the mutation batches
/// come from [`crate::churn::batches`].
#[must_use]
pub fn build_corpus(cfg: &CorpusConfig) -> CorpusWorkload {
    let mut store = VideoStore::new();
    for i in 0..cfg.videos {
        let seed = cfg
            .seed
            .wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        store.add(gen_tree(cfg.shots, seed));
    }
    let single = crate::serve::build(&crate::serve::ServeConfig {
        shots: 1, // the tree is discarded; only the schedule matters
        requests: cfg.requests,
        zipf_exponent: cfg.zipf_exponent,
        k: cfg.k,
        seed: cfg.seed,
        ..crate::serve::ServeConfig::default()
    });
    CorpusWorkload {
        store,
        queries: single.queries,
        schedule: single.schedule,
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
/// normalized and planned once for the whole run. `exec.workers == 0`
/// answers inline, one request at a time in shard order; `workers >= 1`
/// fans each segment out as `(request, shard)` tasks over a pool of that
/// many threads fed by a bounded queue of `exec.queue_depth`.
///
/// `serve.requests` and `serve.request_seconds` are recorded as in the
/// single-video runners, and the pool adds one
/// `serve.worker.<wid>.shard_seconds` histogram per worker; the db itself
/// maintains the `shard.*`, `replica.*` and `cache.invalidation.*`
/// metrics.
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
        let served = if exec.workers == 0 {
            segment.run_inline(hi)
        } else {
            segment.run_pool(hi, exec)
        };
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

    /// Answers requests `lo..hi` one at a time, scattering each over the
    /// shards in shard order.
    fn run_inline(&self, hi: usize) -> Vec<ShardedAnswer> {
        let registry = self.db.registry();
        let requests = registry.counter("serve.requests");
        let latency = registry.histogram("serve.request_seconds");
        (self.lo..hi)
            .map(|r| {
                let t0 = Instant::now();
                let per_shard = (0..self.pin.shard_count() as usize)
                    .map(|s| (ShardId(s as u32), self.eval(r, s)))
                    .collect();
                let answer = self
                    .pin
                    .gather(per_shard, self.w.k)
                    .expect("corpus request evaluates");
                latency.record_duration(t0.elapsed());
                requests.inc();
                answer
            })
            .collect()
    }

    /// Fans requests `lo..hi` out as `(request, shard)` tasks over the
    /// worker pool; the worker that finishes a request's last shard
    /// gathers it into the request's slot.
    fn run_pool(&self, hi: usize, exec: &ExecutorConfig) -> Vec<ShardedAnswer> {
        let registry = self.db.registry();
        let requests = registry.counter("serve.requests");
        let latency = registry.histogram("serve.request_seconds");
        let queue = BoundedQueue::new(exec.queue_depth.max(1), registry);
        let shards = self.pin.shard_count().max(1) as usize;
        let n = hi - self.lo;
        // Per-request scatter state: one stream slot per shard, a
        // countdown of shards still in flight, the request's first-task
        // start time, and the gathered answer.
        type StreamSlot = Mutex<Option<Result<ShardStream, EngineError>>>;
        let streams: Vec<Vec<StreamSlot>> = (0..n)
            .map(|_| (0..shards).map(|_| Mutex::new(None)).collect())
            .collect();
        let remaining: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(shards)).collect();
        let started: Vec<Mutex<Option<Instant>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let answers: Vec<Mutex<Option<ShardedAnswer>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for wid in 0..exec.workers {
                let queue = &queue;
                let (streams, remaining, started, answers) =
                    (&streams, &remaining, &started, &answers);
                let (requests, latency) = (&requests, &latency);
                let worker_shards =
                    registry.histogram(&format!("serve.worker.{wid}.shard_seconds"));
                scope.spawn(move || {
                    let _guard = CloseOnPanic(queue);
                    while let Some(task) = queue.pop() {
                        let (i, s) = (task / shards, task % shards);
                        started[i]
                            .lock()
                            .expect("request start lock")
                            .get_or_insert_with(Instant::now);
                        let t0 = Instant::now();
                        let stream = self.eval(self.lo + i, s);
                        worker_shards.record_duration(t0.elapsed());
                        *streams[i][s].lock().expect("stream slot lock") = Some(stream);
                        if remaining[i].fetch_sub(1, Ordering::AcqRel) == 1 {
                            // Last shard of request `i`: gather on this worker.
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
                            *answers[i].lock().expect("answer slot lock") = Some(answer);
                        }
                    }
                });
            }
            for task in 0..n * shards {
                if !queue.push(task) {
                    break; // a worker panicked; the scope join re-panics below
                }
            }
            queue.close();
        });
        answers
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("answer slot lock")
                    .expect("every admitted request resolves")
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
