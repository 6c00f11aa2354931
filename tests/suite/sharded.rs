//! Corpus scatter-gather suite: bit-identity with the unsharded oracle,
//! the threshold algorithm's early-termination invariant, and the
//! degraded-shard soundness contract.
//!
//! The partition's contract is that sharding changes *where* work runs,
//! never *answers*: for every shard count, replica count and worker count
//! the merged top-`k` must equal the 1-shard replay oracle's k-prefix
//! bit-for-bit, under adversarial score ties (the corpora here draw
//! similarities from a three-value alphabet, so most hits tie and only the
//! `global_rank` tie-break orders them). The topology sweep is the corpus
//! matrix of `simvid_tests::corpus`, shared with the `replicated` and
//! `churn` suites. On top of equivalence, the suite proves the
//! coordinator's stopping rule — a stream is abandoned only once the k-th
//! best score dominates its remaining upper bound — and the degraded
//! path's soundness: with a shard down, the answer is exactly the oracle
//! over the surviving videos, so every surviving ground-truth hit still
//! appears and every missing one is attributable to the failed shard below
//! the answer's missing-score bound.

use proptest::prelude::*;
use simvid_core::{global_rank, merge_shard_streams, ShardHit, ShardStream, Sim};
use simvid_htl::parse;
use simvid_model::VideoId;
use simvid_obs::Registry;
use simvid_picture::{LiveConfig, LiveVideoDb};
use simvid_tests::corpus::{check_matrix, oracle_top_k, store_from, World};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence, property-tested: any corpus, any shard
    /// count in 1..=8, one or two replicas, any `k`, under heavy ties —
    /// the scatter-gather answer is the 1-shard replay oracle's k-prefix,
    /// bit for bit.
    #[test]
    fn sharded_top_k_equals_unsharded_oracle(
        patterns in prop::collection::vec(prop::collection::vec(0u8..3, 1..12), 1..10),
        shards in 1u32..=8,
        replicas in 1u32..=2,
        k in 0usize..=24,
    ) {
        let store = store_from(&patterns);
        let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
        let oracle = oracle_top_k(&store, &q, k);
        let db = LiveVideoDb::new(
            store,
            LiveConfig { shards, replicas, ..LiveConfig::default() },
            Arc::new(Registry::new()),
        );
        let answer = db.pin().top_k(&q, 1, k).unwrap();
        prop_assert!(answer.is_complete(), "fault-free run must not degrade");
        prop_assert_eq!(answer.ranked(), &oracle[..], "shards={} replicas={} k={}", shards, replicas, k);
    }

    /// The coordinator's stopping rule, property-tested directly on the
    /// merge: early termination never fires while any stream's remaining
    /// upper bound exceeds the k-th best score. Each synthetic stream
    /// carries a distinct video id, so consumption per stream is
    /// recoverable from the output.
    #[test]
    fn early_termination_never_abandons_a_dominating_stream(
        specs in prop::collection::vec(prop::collection::vec(0u32..8, 0..10), 1..6),
        k in 1usize..=12,
    ) {
        let streams: Vec<ShardStream> = specs
            .iter()
            .enumerate()
            .map(|(i, acts)| {
                let hits = acts
                    .iter()
                    .enumerate()
                    .map(|(j, &a)| ShardHit {
                        video: VideoId(i as u32),
                        pos: j as u32,
                        sim: Sim::new(f64::from(a), 8.0),
                    })
                    .collect();
                ShardStream::new(i as u32, hits)
            })
            .collect();
        let (ranked, stats) = merge_shard_streams(&streams, k);
        // The output is the k-prefix of the global sort (ties broken by
        // video then position), independently recomputed.
        let mut all: Vec<ShardHit> = streams.iter().flat_map(|s| s.hits.clone()).collect();
        all.sort_by(global_rank);
        all.truncate(k);
        prop_assert_eq!(&ranked, &all);
        if ranked.len() < k {
            // Fewer than k hits exist: nothing may be left anywhere.
            for s in &streams {
                prop_assert!(s.remaining_bound(s.hits.len()).is_none());
                prop_assert_eq!(
                    ranked.iter().filter(|h| h.video == VideoId(s.shard)).count(),
                    s.hits.len(),
                    "short output must consume every stream fully"
                );
            }
            prop_assert_eq!(stats.early_terminated, 0);
        } else {
            let kth = ranked.last().unwrap().sim.act;
            let mut early = 0u64;
            for s in &streams {
                let consumed =
                    ranked.iter().filter(|h| h.video == VideoId(s.shard)).count();
                if let Some(bound) = s.remaining_bound(consumed) {
                    prop_assert!(
                        bound <= kth,
                        "stream {} abandoned while its bound {} beats the k-th score {}",
                        s.shard, bound, kth
                    );
                    early += 1;
                }
            }
            prop_assert_eq!(stats.early_terminated, early);
        }
    }
}

/// The stopping rule on a hand-built worst case: a stream whose second
/// element dominates the k-th score must keep being consumed, however
/// strong the other streams' heads are.
#[test]
fn merge_consumes_a_stream_while_its_bound_dominates() {
    let hit = |video: u32, pos: u32, act: f64| ShardHit {
        video: VideoId(video),
        pos,
        sim: Sim::new(act, 10.0),
    };
    // Stream 0 holds the top THREE hits; stream 1's head loses to all of
    // them. At k=3 the merge must take stream 0's entire prefix and
    // abandon stream 1 untouched — and may do so only because stream 1's
    // bound (5.0) no longer beats the k-th score (6.0).
    let streams = vec![
        ShardStream::new(
            0,
            vec![
                hit(0, 0, 9.0),
                hit(0, 1, 8.0),
                hit(0, 2, 6.0),
                hit(0, 3, 1.0),
            ],
        ),
        ShardStream::new(1, vec![hit(1, 0, 5.0), hit(1, 1, 4.0)]),
    ];
    let (ranked, stats) = merge_shard_streams(&streams, 3);
    let acts: Vec<f64> = ranked.iter().map(|h| h.sim.act).collect();
    assert_eq!(acts, vec![9.0, 8.0, 6.0]);
    assert!(ranked.iter().all(|h| h.video == VideoId(0)));
    // Both streams retained candidates (1.0 and 5.0), neither of which
    // beats the k-th score — only then is abandoning them legal.
    assert_eq!(stats.early_terminated, 2);
    assert_eq!(stats.candidates_pruned, 3);
}

/// Degraded-shard soundness end to end, at one replica per video (the
/// victim-shard chaos world): with shard 0's providers failing every call,
/// every request whose victim holds videos degrades (never aborts), names
/// exactly the victim, and answers exactly the oracle over the surviving
/// videos with the formula maximum as its missing-score bound — at every
/// shard count, worker count and epoch.
#[test]
fn degraded_answers_are_sound_over_surviving_shards() {
    let totals = check_matrix(World::ShardKill, 1..=4, &[1], &[0, 1, 2, 4, 8]);
    assert!(totals.exhausted > 0, "the victim shard was read and lost");
    assert_eq!(
        totals.failover, 0,
        "a single replica has nothing to fail over to"
    );
}

/// The fault-free matrix: the tie-heavy churn schedule through every
/// shard count 1..=4 × replica count 1..=2 × worker count 0/1/2/4/8
/// (0 answers inline) answers every request of every epoch exactly as the
/// 1-shard replay oracle does, and never fails over.
#[test]
fn concurrent_sharded_serving_is_bit_identical_across_configurations() {
    let totals = check_matrix(World::FaultFree, 1..=4, &[1, 2], &[0, 1, 2, 4, 8]);
    assert_eq!(totals.failover + totals.exhausted + totals.hedges, 0);
}
