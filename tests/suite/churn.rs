//! Live-ingestion churn suite: the epoch-versioned incremental store
//! against the full-rebuild oracle.
//!
//! The mutation layer's contract is that incrementality changes *what is
//! recomputed*, never *answers*: after any interleaving of mutation
//! batches and queries, the live store's top-`k` must equal, bit for bit
//! (ranks, scores, ties), the 1-shard replay oracle — a from-scratch
//! rebuild of the corpus replayed to the same epoch — for every shard
//! count × replica count topology. On top of equivalence, the suite proves
//! the concurrency contracts: the churn schedule through the worker-pool
//! executor is bit-identical at every worker count (the full topology
//! sweep is the corpus matrix of `simvid_tests::corpus`, run by the
//! `sharded` and `replicated` suites), and a hot-key storm straddling an
//! invalidation recomputes the mutated video's tables exactly once (the
//! singleflight survives the generation bump).

use proptest::prelude::*;
use simvid_htl::parse;
use simvid_model::{CorpusOp, VideoId, VideoStore};
use simvid_obs::Registry;
use simvid_picture::{LiveConfig, LiveVideoDb};
use simvid_resilience::FaultPlan;
use simvid_tests::corpus::{batch_from, oracle_top_k, store_from, video};
use simvid_workload::serve::ExecutorConfig;
use simvid_workload::shard::{build_corpus, run_corpus, CorpusConfig};
use std::sync::Arc;
use std::time::Duration;

fn live(store: VideoStore, shards: u32, replicas: u32) -> LiveVideoDb {
    LiveVideoDb::new(
        store,
        LiveConfig {
            shards,
            replicas,
            ..LiveConfig::default()
        },
        Arc::new(Registry::new()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole oracle, property-tested: an arbitrary interleaving of
    /// mutation batches and queries over a seeded random corpus — before
    /// any mutation and after every batch, the incremental store's
    /// top-`k` equals a from-scratch rebuild at that epoch bit for bit,
    /// for every shard count in 1..=4 × replica count in 1..=2.
    #[test]
    fn incremental_store_matches_full_rebuild_after_every_batch(
        patterns in prop::collection::vec(prop::collection::vec(0u8..3, 1..6), 1..5),
        batch_seeds in prop::collection::vec(any::<u64>(), 1..4),
        k in 1usize..=12,
    ) {
        let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
        for shards in 1u32..=4 {
            for replicas in 1u32..=2 {
                let store = store_from(&patterns);
                let db = live(store, shards, replicas);
                let mut live_ids: Vec<u32> = (0..patterns.len() as u32).collect();
                let mut next_id = patterns.len() as u32;
                // Query at the base epoch, then after every batch.
                for (step, seed) in [None].into_iter().chain(batch_seeds.iter().map(Some)).enumerate() {
                    if let Some(&seed) = seed {
                        let mut rng = seed;
                        let ops = batch_from(&mut rng, &mut live_ids, &mut next_id);
                        db.apply(&ops).expect("generated batch is valid");
                    }
                    let oracle = oracle_top_k(&db.replay_to(db.epoch()), &q, k);
                    let pin = db.pin();
                    prop_assert_eq!(pin.epoch(), db.epoch());
                    let got = pin.top_k(&q, 1, k).unwrap();
                    prop_assert!(got.is_complete(), "fault-free query must not degrade");
                    prop_assert_eq!(
                        got.ranked(), &oracle[..],
                        "shards={} replicas={} step={}", shards, replicas, step
                    );
                    let _ = step;
                }
            }
        }
    }
}

/// The churn schedule of the corpus workload through the single runner
/// with mid-schedule mutations is bit-identical — epochs, answers and
/// replica counters — inline and at 1, 2, 4 and 8 workers.
#[test]
fn concurrent_churn_is_bit_identical_at_every_worker_count() {
    let cfg = CorpusConfig {
        videos: 5,
        shots: 12,
        requests: 24,
        batches: 3,
        shards: 2,
        replicas: 2,
        ..CorpusConfig::default()
    };
    let w = build_corpus(&cfg);
    let run = |workers| {
        let db = LiveVideoDb::new(
            w.store.clone(),
            cfg.live_config(),
            Arc::new(Registry::new()),
        );
        let run = run_corpus(&w, &db, &ExecutorConfig::with_workers(workers));
        let snap = db.registry().snapshot();
        let counters = (
            snap.counter("replica.failover"),
            snap.counter("replica.exhausted"),
        );
        (run, counters)
    };
    let (seq, seq_counters) = run(0);
    assert!(
        seq.served_epochs().len() > 1,
        "the schedule must cross at least one mutation"
    );
    for workers in [1usize, 2, 4, 8] {
        let (conc, counters) = run(workers);
        assert_eq!(
            conc.epochs, seq.epochs,
            "workers={workers}: epochs must align"
        );
        assert_eq!(conc.answers, seq.answers, "workers={workers}: answers");
        assert_eq!(
            counters, seq_counters,
            "workers={workers}: replica counters"
        );
    }
}

/// A hot-key storm straddling an invalidation: eight threads hammer the
/// just-mutated video's hottest query on the fresh snapshot. The fresh
/// member starts cold, so the storm's first arrival recomputes — and the
/// singleflight must make it *exactly once*: the storm's miss count
/// equals one cold evaluation's miss count, every other requester hits
/// the published table or coalesces onto the in-flight computation.
#[test]
fn hot_key_storm_across_invalidation_recomputes_the_mutated_video_once() {
    let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
    // A single-video corpus pins every cache key to the mutated video, so
    // the miss deltas below are exactly the affected member's recomputes.
    let patterns: Vec<Vec<u8>> = vec![vec![2, 1, 0, 2]];
    let target = VideoId(0);
    let new_pattern = vec![2u8, 2, 0, 1, 2];
    let new_tree = video("v0-updated", &new_pattern);

    // Fingerprint one cold evaluation of the *updated* tree: a scratch
    // store already carrying the new tree, queried once from cold.
    let scratch = live(store_from(std::slice::from_ref(&new_pattern)), 1, 1);
    let scratch_misses = scratch.registry().counter("cache.misses");
    let before = scratch_misses.get();
    let _ = scratch
        .pin()
        .top_k(&q, 1, 10)
        .expect("cold query evaluates");
    let cold_misses = scratch_misses.get() - before;
    assert!(cold_misses > 0, "a cold query must miss at least once");

    // The live store: warm the target, invalidate it, then storm the
    // fresh (cold) member from eight threads at once.
    let db = live(store_from(&patterns), 1, 1);
    let registry = Arc::clone(db.registry());
    let _ = db.pin().top_k(&q, 1, 10).expect("warm-up query evaluates");
    db.apply(&[CorpusOp::Update(target, new_tree)])
        .expect("update applies");
    let pin = db.pin();
    let (lookups, hits, misses, coalesced) = (
        registry.counter("cache.lookups"),
        registry.counter("cache.hits"),
        registry.counter("cache.misses"),
        registry.counter("cache.coalesced"),
    );
    let base = (lookups.get(), hits.get(), misses.get(), coalesced.get());
    const STORM: usize = 8;
    std::thread::scope(|scope| {
        for _ in 0..STORM {
            let (pin, q) = (&pin, &q);
            scope.spawn(move || {
                let answer = pin.top_k(q, 1, 10).expect("storm query evaluates");
                assert!(answer.is_complete());
            });
        }
    });
    let storm_misses = misses.get() - base.2;
    assert_eq!(
        storm_misses, cold_misses,
        "the invalidated video must be recomputed exactly once under the storm"
    );
    let storm_lookups = lookups.get() - base.0;
    let storm_hits = hits.get() - base.1;
    let storm_coalesced = coalesced.get() - base.3;
    assert_eq!(
        storm_lookups,
        storm_hits + storm_misses + storm_coalesced,
        "every storm lookup is exactly one of hit/miss/coalesced"
    );
    assert_eq!(
        storm_hits + storm_coalesced,
        storm_lookups - cold_misses,
        "every non-leader requester hits the published table or coalesces"
    );
}

/// Mutations must not disturb pinned history: a pin taken before a batch
/// keeps answering at its own epoch, bit-identical to the rebuild of that
/// epoch, even after the corpus has moved on.
#[test]
fn pinned_snapshots_answer_their_own_epoch_after_later_mutations() {
    let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
    let patterns: Vec<Vec<u8>> = vec![vec![2, 0, 1], vec![1, 1, 2], vec![2, 2]];
    let db = live(store_from(&patterns), 2, 1);
    let old_pin = db.pin();
    let old_epoch = old_pin.epoch();
    let old_oracle = oracle_top_k(&db.replay_to(old_epoch), &q, 10);
    db.apply(&[
        CorpusOp::Remove(VideoId(0)),
        CorpusOp::Ingest(video("i3", &[2, 2, 2])),
    ])
    .expect("batch applies");
    assert_ne!(db.epoch(), old_epoch, "the corpus moved on");
    let got = old_pin.top_k(&q, 1, 10).unwrap();
    assert!(got.is_complete());
    assert_eq!(
        got.ranked(),
        &old_oracle[..],
        "the old pin must keep serving its pinned epoch"
    );
}

/// Readers never wait on the writer: while an `apply` is stalled inside
/// its member rebuild (an injected 2 s delay), `pin()` and `epoch()`
/// return at once with the pre-batch epoch. Once the apply joins, both
/// report the new one.
#[test]
fn pin_and_epoch_do_not_wait_behind_an_in_progress_apply() {
    let patterns: Vec<Vec<u8>> = vec![vec![2, 0, 1], vec![1, 2]];
    let db = live(store_from(&patterns), 2, 1).with_apply_faults(FaultPlan {
        latency_rate: 1.0,
        latency: Duration::from_secs(2),
        ..FaultPlan::quiet(7)
    });
    let before = db.epoch();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| db.apply(&[CorpusOp::Ingest(video("slow", &[2, 2]))]));
        // Let the writer reach its stall before probing the readers.
        std::thread::sleep(Duration::from_millis(200));
        let mut probes = 0;
        while !handle.is_finished() && probes < 10 {
            let pin = db.pin();
            let epoch = db.epoch();
            if handle.is_finished() {
                break;
            }
            assert_eq!(pin.epoch(), before, "a mid-apply pin is pre-batch");
            assert_eq!(epoch, before, "a mid-apply epoch is pre-batch");
            probes += 1;
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(probes > 0, "the apply finished before any reader probed it");
        let batch = handle.join().unwrap().expect("delayed batch applies");
        assert_eq!(batch.epoch, before.next());
        assert_eq!(db.epoch(), batch.epoch);
        assert_eq!(db.pin().epoch(), batch.epoch);
    });
}
