//! Corpus churn: the mutation batches of the corpus workload.
//!
//! [`batches`] derives a deterministic sequence of mutation batches —
//! `Ingest`/`Update`/`Remove` mixes, always leaving at least one live
//! video — scheduled at fixed request positions of a
//! [`crate::shard::CorpusWorkload`]. The corpus, query pool and schedule
//! are those of the frozen workload with the same seed, so the
//! mutation-free prefix of a churn run answers bit-identically to the
//! frozen corpus; [`crate::shard::run_corpus`] applies each batch at its
//! position, between pinned segments.

use simvid_model::{CorpusOp, VideoId};

use crate::serve::gen_tree;
use crate::shard::CorpusConfig;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `cfg.batches` mutation batches of the corpus workload, as
/// `(position, ops)` pairs spread evenly over the schedule. Deterministic
/// in `cfg.seed`: drawn from a private splitmix stream that simulates
/// store liveness, so every batch is valid by construction.
#[must_use]
pub fn batches(cfg: &CorpusConfig) -> Vec<(usize, Vec<CorpusOp>)> {
    let mut rng = cfg.seed ^ 0x6368_7572_6e5f_6f70; // "churn_op"
    let mut live: Vec<VideoId> = (0..cfg.videos).map(VideoId).collect();
    let mut next_id = cfg.videos;
    let mut batches: Vec<(usize, Vec<CorpusOp>)> = Vec::with_capacity(cfg.batches);
    for j in 0..cfg.batches {
        let position = (j + 1) * cfg.requests / (cfg.batches + 1);
        let op_count = 1 + (splitmix(&mut rng) % 3) as usize;
        let mut ops: Vec<CorpusOp> = Vec::with_capacity(op_count);
        for _ in 0..op_count {
            let roll = splitmix(&mut rng) % 3;
            match roll {
                1 if !live.is_empty() => {
                    let pick = live[(splitmix(&mut rng) as usize) % live.len()];
                    ops.push(CorpusOp::Update(
                        pick,
                        gen_tree(cfg.shots, splitmix(&mut rng)),
                    ));
                }
                2 if live.len() > 1 => {
                    let ix = (splitmix(&mut rng) as usize) % live.len();
                    let pick = live.swap_remove(ix);
                    ops.push(CorpusOp::Remove(pick));
                }
                _ => {
                    ops.push(CorpusOp::Ingest(gen_tree(cfg.shots, splitmix(&mut rng))));
                    live.push(VideoId(next_id));
                    next_id += 1;
                }
            }
        }
        batches.push((position, ops));
    }
    batches
}

#[cfg(test)]
mod tests {
    use crate::serve::ExecutorConfig;
    use crate::shard::{build_corpus, run_corpus, CorpusConfig, CorpusWorkload};
    use simvid_obs::Registry;
    use simvid_picture::LiveVideoDb;
    use std::sync::Arc;

    fn config() -> CorpusConfig {
        CorpusConfig {
            videos: 5,
            shots: 10,
            requests: 18,
            batches: 2,
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
    fn build_is_deterministic_and_batches_are_valid() {
        let cfg = config();
        let a = build_corpus(&cfg);
        let b = build_corpus(&cfg);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.batches.len(), b.batches.len());
        for ((pa, opa), (pb, opb)) in a.batches.iter().zip(&b.batches) {
            assert_eq!(pa, pb);
            assert_eq!(opa.len(), opb.len());
            for (x, y) in opa.iter().zip(opb) {
                assert_eq!(x.kind(), y.kind());
            }
        }
        // Every batch must apply cleanly in sequence.
        let mut store = a.store.clone();
        for (_, ops) in &a.batches {
            store.apply(ops).expect("generated batch is valid");
        }
        assert!(!store.is_empty(), "churn never empties the corpus");
    }

    #[test]
    fn sequential_run_advances_epochs() {
        let cfg = config();
        let w = build_corpus(&cfg);
        let db = live(&w, &cfg);
        let run = run_corpus(&w, &db, &ExecutorConfig::with_workers(0));
        assert_eq!(run.answers.len(), w.schedule.len());
        let epochs = run.served_epochs();
        assert!(epochs.len() > 1, "schedule crosses at least one mutation");
        assert!(epochs.windows(2).all(|w| w[0] < w[1]), "epochs increase");
        assert_eq!(run.complete(), w.schedule.len(), "no faults, no degrades");
    }

    #[test]
    fn concurrent_run_is_bit_identical_to_sequential() {
        let cfg = config();
        let w = build_corpus(&cfg);
        let seq = run_corpus(&w, &live(&w, &cfg), &ExecutorConfig::with_workers(0));
        for workers in [1, 2, 4] {
            let conc = run_corpus(&w, &live(&w, &cfg), &ExecutorConfig::with_workers(workers));
            assert_eq!(
                conc.epochs, seq.epochs,
                "workers={workers}: epochs must align"
            );
            assert_eq!(conc.answers, seq.answers, "workers={workers}");
        }
    }
}
