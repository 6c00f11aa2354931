//! Golden answers of the serving smoke workloads.
//!
//! Each smoke workload is seeded and the engine is bit-deterministic, so
//! the FNV-1a [`Digest`] of every ranked answer is pinned here: a change
//! to what any serving path returns, at any worker, shard or replica
//! count, fails a test. Beside the digests, the serve smoke keeps floors
//! on its cache hit rate and pruned entries per request, and the churn
//! smoke checks that invalidation stays per video. Nothing here is timed;
//! the repository benchmark (`perfbench/`, `BENCHMARK.json`) owns timing.

use simvid_core::{Engine, EngineConfig, ShardHit};
use simvid_obs::Registry;
use simvid_picture::{CacheConfig, LiveVideoDb, PictureSystem, ScoringConfig};
use simvid_tests::Digest;
use simvid_workload::serve::{self, ExecutorConfig, ServeConfig, ServeWorkload};
use simvid_workload::shard::{build_corpus, run_corpus, CorpusConfig, CorpusRun, CorpusWorkload};
use std::sync::Arc;

/// The serve smoke's answers, sequential and pooled alike.
const SERVE_DIGEST: &str = "f52956f6bb64d587";
/// The corpus smoke's answers at every shard, replica and worker count.
const CORPUS_DIGEST: &str = "83e42890caa6fbd4";
/// The churn smoke's answers, each with the epoch it was served at.
const CHURN_DIGEST: &str = "6815104673aca69c";
/// The churn smoke's answers before its first batch.
const CHURN_PREFIX_DIGEST: &str = "9da72fd137d1a4a6";

/// The serve smoke's recorded cache hit rate over a primed system:
/// 41 hits and 10 misses, priming included.
const SERVE_HIT_RATE: f64 = 41.0 / 51.0;
/// The serve smoke's recorded pruned entries per request: 4 over 30.
const SERVE_PRUNED_PER_REQUEST: f64 = 4.0 / 30.0;
/// A ratio fails below this share of its recorded value; the slack leaves
/// room for deliberate workload retunes.
const FLOOR: f64 = 0.8;

/// The serve smoke: 30 Zipf requests over one 40-shot video.
fn serve_smoke() -> ServeWorkload {
    serve::build(&ServeConfig {
        shots: 40,
        requests: 30,
        ..ServeConfig::default()
    })
}

/// A picture system over `w`'s video with `cache`, primed by one pass
/// over the query pool, as a steady-state server would be.
fn primed(w: &ServeWorkload, cache: CacheConfig) -> PictureSystem<'_> {
    let sys = PictureSystem::with_cache(&w.tree, ScoringConfig::default(), cache);
    {
        let engine = Engine::new(&sys, &w.tree);
        for q in &w.queries {
            engine
                .top_k_closed(q, w.depth(), w.k)
                .expect("pool query evaluates");
        }
    }
    sys
}

/// The serve smoke's cache hit rate (priming included) and pruned
/// entries per request on a primed system with `cache`.
fn serve_ratios(cache: CacheConfig) -> (f64, f64) {
    let w = serve_smoke();
    let sys = primed(&w, cache);
    let run = serve::run_schedule(&w, &Engine::new(&sys, &w.tree));
    let stats = sys.cache_stats();
    let lookups = (stats.hits + stats.misses).max(1);
    (
        stats.hits as f64 / lookups as f64,
        run.entries_pruned as f64 / run.results.len() as f64,
    )
}

#[test]
fn serve_smoke_answers_are_pinned_sequential_and_pooled() {
    let w = serve_smoke();
    let digest = |results: &[Vec<_>]| {
        results
            .iter()
            .fold(Digest::new(results.len()), |d, r| d.segments(r))
            .hex()
    };
    let sys = primed(&w, CacheConfig::default());
    let seq = serve::run_schedule(&w, &Engine::new(&sys, &w.tree));
    assert_eq!(digest(&seq.results), SERVE_DIGEST);

    let sys = primed(&w, CacheConfig::default());
    let pooled = serve::run_schedule_concurrent(
        &w,
        &sys,
        EngineConfig::default(),
        &Arc::new(Registry::new()),
        &ExecutorConfig::with_workers(2),
    );
    assert_eq!(digest(&pooled.results), SERVE_DIGEST);
}

#[test]
fn serve_smoke_keeps_its_cache_and_pruning_floors() {
    let (hit_rate, pruned) = serve_ratios(CacheConfig::default());
    assert!(
        hit_rate >= FLOOR * SERVE_HIT_RATE,
        "cache hit rate {hit_rate:.4} below the floor {:.4}",
        FLOOR * SERVE_HIT_RATE
    );
    assert!(
        pruned >= FLOOR * SERVE_PRUNED_PER_REQUEST,
        "pruned per request {pruned:.4} below the floor {:.4}",
        FLOOR * SERVE_PRUNED_PER_REQUEST
    );
}

/// The hit-rate floor has teeth: with the cache off, the serve smoke
/// falls below it.
#[test]
fn a_cache_disabled_serve_smoke_fails_the_hit_rate_floor() {
    let (hit_rate, _) = serve_ratios(CacheConfig::disabled());
    assert!(hit_rate < FLOOR * SERVE_HIT_RATE, "hit rate {hit_rate:.4}");
}

/// The corpus smoke: 30 Zipf requests over six 24-shot videos at
/// `shards` × `replicas`, with `batches` mutation batches.
fn corpus_smoke(shards: u32, replicas: u32, batches: usize) -> (CorpusWorkload, LiveVideoDb) {
    let cfg = CorpusConfig {
        videos: 6,
        shots: 24,
        requests: 30,
        shards,
        replicas,
        batches,
        ..CorpusConfig::default()
    };
    let w = build_corpus(&cfg);
    let db = LiveVideoDb::new(
        w.store.clone(),
        cfg.live_config(),
        Arc::new(Registry::new()),
    );
    (w, db)
}

/// The ranked hits of every answer of a run.
fn ranked(run: &CorpusRun) -> Vec<Vec<ShardHit>> {
    run.answers.iter().map(|a| a.ranked().to_vec()).collect()
}

fn hits_digest(results: &[Vec<ShardHit>]) -> String {
    results
        .iter()
        .fold(Digest::new(results.len()), |d, r| d.hits(r))
        .hex()
}

#[test]
fn corpus_smoke_answers_are_pinned_at_every_shard_and_worker_count() {
    for shards in [1, 2, 4] {
        let (w, db) = corpus_smoke(shards, 1, 0);
        let pin = db.pin();
        let unsharded: Vec<Vec<ShardHit>> = w
            .schedule
            .iter()
            .map(|&q| {
                pin.top_k_unsharded(&w.queries[q], w.depth(), w.k)
                    .expect("unsharded request evaluates")
            })
            .collect();
        for workers in [0, 2] {
            let run = run_corpus(&w, &db, &ExecutorConfig::with_workers(workers));
            assert_eq!(run.complete(), w.schedule.len());
            let got = ranked(&run);
            assert_eq!(got, unsharded, "shards={shards} workers={workers}");
            assert_eq!(
                hits_digest(&got),
                CORPUS_DIGEST,
                "shards={shards} workers={workers}"
            );
        }
        let early = db.registry().snapshot().counter("shard.early_terminated");
        assert!(
            early > Some(0),
            "shards={shards}: the merge never stopped early"
        );
    }
}

#[test]
fn replicated_corpus_smoke_keeps_the_answers_without_failover() {
    let (w, db) = corpus_smoke(2, 2, 0);
    for workers in [0, 2] {
        let run = run_corpus(&w, &db, &ExecutorConfig::with_workers(workers));
        assert_eq!(run.complete(), w.schedule.len());
        assert_eq!(
            hits_digest(&ranked(&run)),
            CORPUS_DIGEST,
            "workers={workers}"
        );
    }
    let snap = db.registry().snapshot();
    assert_eq!(snap.counter("replica.failover").unwrap_or(0), 0);
    assert_eq!(snap.counter("replica.hedges").unwrap_or(0), 0);
}

#[test]
fn churn_smoke_answers_are_pinned_and_invalidation_stays_per_video() {
    let (w, db) = corpus_smoke(2, 1, 2);
    // One pass over the pool warms every video, so the batches have warm
    // tables to keep or drop.
    let pin = db.pin();
    for q in &w.queries {
        pin.top_k(q, w.depth(), w.k)
            .expect("warm-up request evaluates");
    }
    drop(pin);
    let run = run_corpus(&w, &db, &ExecutorConfig::with_workers(0));
    assert_eq!(run.complete(), w.schedule.len());
    let digest = run
        .epochs
        .iter()
        .zip(&run.answers)
        .fold(Digest::new(run.answers.len()), |d, (&epoch, a)| {
            d.word(epoch).hits(a.ranked())
        });
    assert_eq!(digest.hex(), CHURN_DIGEST);

    // Before the first batch the live corpus answers like one that never
    // applies a batch.
    let prefix = w.mutation_free_prefix();
    let (_, frozen) = corpus_smoke(2, 1, 2);
    let frozen = frozen.pin();
    let frozen_prefix: Vec<Vec<ShardHit>> = w.schedule[..prefix]
        .iter()
        .map(|&q| {
            frozen
                .top_k(&w.queries[q], w.depth(), w.k)
                .expect("frozen request evaluates")
                .ranked()
                .to_vec()
        })
        .collect();
    assert_eq!(ranked(&run)[..prefix], frozen_prefix[..]);
    assert_eq!(hits_digest(&frozen_prefix), CHURN_PREFIX_DIGEST);

    // The batches dropped the mutated videos' tables and kept the rest.
    let snap = db.registry().snapshot();
    assert!(snap.counter("cache.invalidation.retained") > Some(0));
    assert!(snap.counter("cache.invalidation.evicted") > Some(0));
    assert!(snap.gauge("corpus.epoch") >= Some(1));

    // A pool of two workers on a twin corpus serves the same answers at
    // the same epochs.
    let (_, twin) = corpus_smoke(2, 1, 2);
    let pooled = run_corpus(&w, &twin, &ExecutorConfig::with_workers(2));
    assert_eq!(
        (&pooled.epochs, ranked(&pooled)),
        (&run.epochs, ranked(&run))
    );
}
