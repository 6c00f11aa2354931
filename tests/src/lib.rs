//! Shared helpers for the cross-crate integration suite (the tests live in
//! `suite/`).

use simvid_core::{RankedSegment, ShardHit, SimilarityList};
use simvid_picture::ShardedAnswer;

/// FNV-1a (64-bit) over the bit patterns of served answers, fed one
/// little-endian `u64` word at a time. Equal answers hash equally on every
/// platform, so a digest pinned in a test catches any drift in what a
/// serving path returns. Every digest starts with the request count.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// A digest of `requests` answers.
    #[must_use]
    pub fn new(requests: usize) -> Digest {
        Digest(0xcbf2_9ce4_8422_2325).word(requests as u64)
    }

    /// Folds in one word.
    #[must_use]
    pub fn word(mut self, v: u64) -> Digest {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in a single-video ranking: its length, then each segment's
    /// position and similarity bits.
    #[must_use]
    pub fn segments(self, ranked: &[RankedSegment]) -> Digest {
        ranked
            .iter()
            .fold(self.word(ranked.len() as u64), |d, seg| {
                d.word(u64::from(seg.pos))
                    .word(seg.sim.act.to_bits())
                    .word(seg.sim.max.to_bits())
            })
    }

    /// Folds in a corpus ranking: its length, then each hit's video id,
    /// position and similarity bits.
    #[must_use]
    pub fn hits(self, ranked: &[ShardHit]) -> Digest {
        ranked
            .iter()
            .fold(self.word(ranked.len() as u64), |d, hit| {
                d.word(u64::from(hit.video.0))
                    .word(u64::from(hit.pos))
                    .word(hit.sim.act.to_bits())
                    .word(hit.sim.max.to_bits())
            })
    }

    /// Folds in a corpus answer: its ranking, then `0` if complete, or `1`,
    /// the `missing_bound` bits and the failed shard ids if degraded.
    #[must_use]
    pub fn answer(self, answer: &ShardedAnswer) -> Digest {
        let d = self.hits(answer.ranked());
        match answer {
            ShardedAnswer::Complete(_) => d.word(0),
            ShardedAnswer::Degraded(g) => g
                .failed
                .iter()
                .fold(d.word(1).word(g.missing_bound.to_bits()), |d, (s, _)| {
                    d.word(u64::from(s.0))
                }),
        }
    }

    /// The digest as 16 hex digits.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Asserts two lists are value-equal over positions `1..=n`.
#[track_caller]
pub fn assert_lists_agree(a: &SimilarityList, b: &SimilarityList, n: usize, what: &str) {
    let (da, db) = (a.to_dense(n), b.to_dense(n));
    for (i, (x, y)) in da.iter().zip(&db).enumerate() {
        assert!(
            (x - y).abs() < 1e-9,
            "{what}: disagreement at position {}: {x} vs {y}\n  a = {:?}\n  b = {:?}",
            i + 1,
            a.to_tuples(),
            b.to_tuples()
        );
    }
}

/// Asserts a tuple list equals the expectation within float tolerance.
#[track_caller]
pub fn assert_tuples(got: &[(u32, u32, f64)], want: &[(u32, u32, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: got {got:?}, want {want:?}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!((g.0, g.1), (w.0, w.1), "{what}: got {got:?}, want {want:?}");
        assert!(
            (g.2 - w.2).abs() < 1e-9,
            "{what}: value mismatch, got {got:?}, want {want:?}"
        );
    }
}

/// The corpus differential matrix: one tie-heavy churn workload through
/// every topology of a [`simvid_picture::LiveVideoDb`] — shard count ×
/// replica count × worker count × every epoch — under one fault world,
/// checked request by request against the 1-shard replay oracle.
pub mod corpus {
    use simvid_core::ShardHit;
    use simvid_htl::{parse, Formula};
    use simvid_model::{CorpusOp, VideoBuilder, VideoId, VideoStore, VideoTree};
    use simvid_obs::Registry;
    use simvid_picture::{
        shard_of, FaultTarget, LiveConfig, LiveVideoDb, ReplicaId, ShardId, ShardedAnswer,
    };
    use simvid_resilience::{FaultPlan, HedgePolicy, RetryPolicy};
    use simvid_workload::serve::ExecutorConfig;
    use simvid_workload::shard::{run_corpus, CorpusWorkload};
    use std::collections::HashMap;
    use std::sync::Arc;
    use std::time::Duration;

    /// A video whose shots follow `pattern`: `0` — no match at all, `1` —
    /// a person without a gun (partial match), `2` — an armed person (full
    /// match). Three similarity levels over many shots make ties the
    /// common case, which is exactly what the `global_rank` tie-break
    /// (video id, then position) must untangle identically on every path.
    #[must_use]
    pub fn video(title: &str, pattern: &[u8]) -> VideoTree {
        let mut b = VideoBuilder::new(title);
        b.set_level_names(["video", "shot"]);
        for (i, &kind) in pattern.iter().enumerate() {
            b.child(format!("shot{i}"));
            match kind {
                0 => {
                    b.object(2, "horse", None);
                }
                1 => {
                    b.object(1, "person", None);
                }
                _ => {
                    let o = b.object(1, "person", None);
                    b.relationship("holds_gun", [o]);
                }
            }
            b.up();
        }
        b.finish().unwrap()
    }

    /// A store of one [`video`] per pattern, ids in order.
    #[must_use]
    pub fn store_from(patterns: &[Vec<u8>]) -> VideoStore {
        let mut store = VideoStore::new();
        for (i, p) in patterns.iter().enumerate() {
            store.add(video(&format!("v{i}"), p));
        }
        store
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A deterministic 1–6 shot pattern from the seed stream.
    pub fn pattern_from(rng: &mut u64) -> Vec<u8> {
        let len = 1 + (splitmix(rng) % 6) as usize;
        (0..len).map(|_| (splitmix(rng) % 3) as u8).collect()
    }

    /// One valid mutation batch (1–3 ops) from the seed stream, mirroring
    /// the store's liveness rules via the `live`/`next_id` simulation:
    /// updates and removes pick live ids, removal keeps at least one video.
    pub fn batch_from(rng: &mut u64, live: &mut Vec<u32>, next_id: &mut u32) -> Vec<CorpusOp> {
        let op_count = 1 + (splitmix(rng) % 3) as usize;
        let mut ops = Vec::with_capacity(op_count);
        for _ in 0..op_count {
            match splitmix(rng) % 3 {
                1 if !live.is_empty() => {
                    let pick = live[(splitmix(rng) as usize) % live.len()];
                    let p = pattern_from(rng);
                    ops.push(CorpusOp::Update(
                        VideoId(pick),
                        video(&format!("u{pick}"), &p),
                    ));
                }
                2 if live.len() > 1 => {
                    let ix = (splitmix(rng) as usize) % live.len();
                    ops.push(CorpusOp::Remove(VideoId(live.swap_remove(ix))));
                }
                _ => {
                    let p = pattern_from(rng);
                    ops.push(CorpusOp::Ingest(video(&format!("i{next_id}"), &p)));
                    live.push(*next_id);
                    *next_id += 1;
                }
            }
        }
        ops
    }

    /// The 1-shard replay oracle: a fresh single-shard corpus over `store`
    /// that never applies a batch, scanned flat.
    #[must_use]
    pub fn oracle_top_k(store: &VideoStore, q: &Formula, k: usize) -> Vec<ShardHit> {
        LiveVideoDb::new(
            store.clone(),
            LiveConfig::default(),
            Arc::new(Registry::new()),
        )
        .pin()
        .top_k_unsharded(q, 1, k)
        .expect("oracle evaluates")
    }

    /// The tie-heavy churn workload of the matrix: eight videos, a pool of
    /// closed queries over the three similarity levels, 24 requests, and
    /// three mutation batches (four epochs).
    #[must_use]
    pub fn tie_heavy_workload() -> CorpusWorkload {
        let mut rng = 0x7133_4EA7_u64;
        let patterns: Vec<Vec<u8>> = (0..8).map(|_| pattern_from(&mut rng)).collect();
        let queries: Vec<Formula> = [
            "exists x . person(x) and holds_gun(x)",
            "exists x . holds_gun(x)",
            "exists x . person(x)",
            "eventually (exists x . holds_gun(x))",
            "exists x . horse(x)",
            "(exists x . person(x)) until (exists y . holds_gun(y))",
        ]
        .iter()
        .map(|q| parse(q).unwrap())
        .collect();
        let schedule: Vec<usize> = (0..24).map(|r| (r * 7 + r / 5) % queries.len()).collect();
        let mut live: Vec<u32> = (0..patterns.len() as u32).collect();
        let mut next_id = patterns.len() as u32;
        let batches = [6, 12, 18]
            .into_iter()
            .map(|position| (position, batch_from(&mut rng, &mut live, &mut next_id)))
            .collect();
        CorpusWorkload {
            store: store_from(&patterns),
            queries,
            schedule,
            batches,
            k: 7,
        }
    }

    /// A fault world of the matrix. The victim is always shard 0.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum World {
        /// No faults: every answer is complete and equals the oracle.
        FaultFree,
        /// Every replica of the victim shard fails every call: answers
        /// degrade to exactly the oracle over the surviving videos.
        ShardKill,
        /// Replica 0 of the victim shard fails every call: failover
        /// absorbs it, every answer equals the oracle.
        DeadReplica,
        /// Every primary read is capped at zero fuel and hedges: every
        /// answer equals the oracle.
        ZeroFuelHedge,
    }

    /// The replica counters of one run: equal at every worker count.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        /// `replica.failover`: reads served by a non-leading candidate.
        pub failover: u64,
        /// `replica.exhausted`: reads that ran out of replicas.
        pub exhausted: u64,
        /// `replica.hedges`: primaries abandoned after their fuel cap.
        pub hedges: u64,
    }

    /// Runs [`tie_heavy_workload`] through every `shards × replicas ×
    /// workers` topology under `world` (a fresh db per run) and checks:
    /// every answer against the 1-shard replay oracle of its epoch (for
    /// [`World::ShardKill`], of its epoch's surviving videos, with the
    /// failed shard and the `missing_bound` bits), the served epochs, and
    /// the replica counters, which must be equal at every worker count.
    /// Returns the counters summed over the topologies.
    ///
    /// # Panics
    ///
    /// On the first violated contract.
    pub fn check_matrix(
        world: World,
        shard_counts: impl IntoIterator<Item = u32>,
        replica_counts: &[u32],
        workers: &[usize],
    ) -> Counters {
        let w = tie_heavy_workload();
        // Every epoch's store: the base, then each batch applied in turn.
        let mut stores = vec![w.store.clone()];
        for (_, ops) in &w.batches {
            let mut next = stores[stores.len() - 1].clone();
            next.apply(ops).expect("generated batch is valid");
            stores.push(next);
        }
        let mut oracle: HashMap<(Option<u32>, u64, usize), Vec<ShardHit>> = HashMap::new();
        let mut expect = |victim_of: Option<u32>, epoch: u64, q: usize| {
            oracle
                .entry((victim_of, epoch, q))
                .or_insert_with(|| {
                    let mut store = stores[epoch as usize].clone();
                    if let Some(shards) = victim_of {
                        let doomed: Vec<CorpusOp> = store
                            .iter()
                            .map(|(v, _)| v)
                            .filter(|&v| shard_of(v, shards) == ShardId(0))
                            .map(CorpusOp::Remove)
                            .collect();
                        store.apply(&doomed).expect("removing live videos");
                    }
                    oracle_top_k(&store, &w.queries[q], w.k)
                })
                .clone()
        };
        let plan = FaultPlan {
            seed: 0xDEAD_BEEF,
            error_rate: 1.0,
            panic_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::ZERO,
        };
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let mut total = Counters::default();
        for shards in shard_counts {
            for &replicas in replica_counts {
                let mut seen: Option<Counters> = None;
                for &n in workers {
                    let topology =
                        format!("{world:?} shards={shards} replicas={replicas} workers={n}");
                    let cfg = LiveConfig {
                        shards,
                        replicas,
                        hedge: if world == World::ZeroFuelHedge {
                            HedgePolicy::with_fuel(0)
                        } else {
                            HedgePolicy::disabled()
                        },
                        ..LiveConfig::default()
                    };
                    let db = LiveVideoDb::new(w.store.clone(), cfg, Arc::new(Registry::new()));
                    let db = match world {
                        World::ShardKill => {
                            db.with_read_faults(plan, policy, FaultTarget::Shard(ShardId(0), None))
                        }
                        World::DeadReplica => db.with_read_faults(
                            plan,
                            policy,
                            FaultTarget::Shard(ShardId(0), Some(ReplicaId(0))),
                        ),
                        World::FaultFree | World::ZeroFuelHedge => db,
                    };
                    let run = run_corpus(&w, &db, &ExecutorConfig::with_workers(n));
                    let epochs: Vec<u64> = (0..w.schedule.len())
                        .map(|r| w.batches.iter().filter(|(p, _)| *p <= r).count() as u64)
                        .collect();
                    assert_eq!(run.epochs, epochs, "{topology}: served epochs");
                    for (r, answer) in run.answers.iter().enumerate() {
                        let (epoch, q) = (run.epochs[r], w.schedule[r]);
                        let victim_videos = stores[epoch as usize]
                            .iter()
                            .filter(|(v, _)| shard_of(*v, shards) == ShardId(0))
                            .count();
                        let what = format!("{topology} request={r} epoch={epoch}");
                        match (world, answer) {
                            (World::ShardKill, ShardedAnswer::Degraded(d)) if victim_videos > 0 => {
                                let want = expect(Some(shards), epoch, q);
                                assert_eq!(d.ranked, want, "{what}: surviving ranking");
                                assert_eq!(
                                    d.failed.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                                    vec![ShardId(0)],
                                    "{what}: exactly the victim failed"
                                );
                                let bound = want.first().map_or(f64::INFINITY, |h| h.sim.max);
                                assert_eq!(
                                    d.missing_bound.to_bits(),
                                    bound.to_bits(),
                                    "{what}: missing bound"
                                );
                            }
                            (World::ShardKill, _) if victim_videos > 0 => {
                                panic!("{what}: a dead shard with videos must degrade")
                            }
                            (_, ShardedAnswer::Complete(t)) => {
                                assert_eq!(t.ranked, expect(None, epoch, q), "{what}: ranking");
                            }
                            (_, ShardedAnswer::Degraded(d)) => {
                                panic!("{what}: unexpected degrade: {:?}", d.failed)
                            }
                        }
                    }
                    let snap = db.registry().snapshot();
                    let counters = Counters {
                        failover: snap.counter("replica.failover").unwrap_or(0),
                        exhausted: snap.counter("replica.exhausted").unwrap_or(0),
                        hedges: snap.counter("replica.hedges").unwrap_or(0),
                    };
                    match seen {
                        None => {
                            total.failover += counters.failover;
                            total.exhausted += counters.exhausted;
                            total.hedges += counters.hedges;
                            seen = Some(counters);
                        }
                        Some(first) => assert_eq!(
                            counters, first,
                            "{topology}: replica counters differ across worker counts"
                        ),
                    }
                }
            }
        }
        total
    }
}
