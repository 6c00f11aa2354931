//! Seeded inputs: corpora, query texts, request schedules, mutation
//! batches and §4.2 random lists. Everything here is a pure function of
//! the workload seed; the system under test only ever sees the results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simvid_core::SimilarityList;
use simvid_model::{CorpusOp, VideoId, VideoStore, VideoTree};
use simvid_workload::randomlists::{self, ListGenConfig};
use simvid_workload::randomvideo::{self, VideoGenConfig};

/// The serving query pool, hottest first. Every formula is closed, so
/// each request is a ranked corpus-wide top-`k`; together they exercise
/// conjunction pruning, `until`, `eventually`, `next` and attribute
/// comparisons.
pub const QUERY_POOL: [&str; 8] = [
    "exists x . person(x) and moving(x)",
    "(exists x . person(x)) until (exists y . horse(y))",
    "eventually (exists x . holds_gun(x))",
    "exists x . exists y . person(y) and near(x, y) and moving(x) and height(x) > 100",
    "exists x . person(x) and eventually (exists y . near(x, y))",
    "next (exists x . moving(x))",
    "exists x . height(x) > 150",
    "(exists x . moving(x)) and eventually (exists y . fires_at(y))",
];

/// The §4.2 list queries. Pure conjunctions are a single atomic unit in
/// the engine, so every query here has a temporal operator the list
/// kernels must evaluate.
pub const LIST_QUERIES: [&str; 4] = [
    "eventually P1()",
    "P1() until P2()",
    "P1() and next P2() and (P1() until P3())",
    "P1() and eventually (P2() until P3())",
];

/// The atomic predicates of [`LIST_QUERIES`], in list order.
pub const LIST_PREDICATES: [&str; 3] = ["P1()", "P2()", "P3()"];

/// Length of each client's pre-generated request schedule; a client that
/// outruns it wraps around.
pub const SCHEDULE_LEN: usize = 1 << 16;

/// Mixes a seed with a stream tag so that different inputs drawn from one
/// workload seed are independent.
fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn video_config(shots: u32) -> VideoGenConfig {
    VideoGenConfig {
        branching: vec![shots],
        object_count: 10,
        objects_per_leaf: 3.0,
        ..VideoGenConfig::default()
    }
}

/// A random two-level video (`video` → `shot`) of `shots` shots.
#[must_use]
pub fn video(seed: u64, shots: u32) -> VideoTree {
    randomvideo::generate(&video_config(shots), seed)
}

/// A corpus of `videos` random videos with `shots` shots each.
#[must_use]
pub fn corpus(seed: u64, videos: u32, shots: u32) -> VideoStore {
    let mut store = VideoStore::new();
    for i in 0..videos {
        store.add(video(derive(seed, 0x1000 + u64::from(i)), shots));
    }
    store
}

/// Requests per stratified block of a schedule.
const BLOCK: usize = 100;

/// One client's request schedule: indices into a pool of `pool` queries
/// with popularity ∝ `1 / (rank + 1)^exponent` (`0.0` is uniform).
///
/// The schedule is stratified: every block of [`BLOCK`] requests holds
/// each query in its rounded share, in seeded random order. The query mix
/// of a window is then the same on every seed and every run, so latency
/// quantiles do not move with sampling noise in the mix.
#[must_use]
pub fn schedule(seed: u64, client: usize, pool: usize, exponent: f64) -> Vec<usize> {
    let weights: Vec<f64> = (0..pool)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    // Largest-remainder rounding of each query's share of a block.
    let exact: Vec<f64> = weights.iter().map(|w| w / total * BLOCK as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = BLOCK - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    let block: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(q, &n)| std::iter::repeat_n(q, n))
        .collect();
    let mut rng = StdRng::seed_from_u64(derive(seed, 0x2000 + client as u64));
    let mut out = Vec::with_capacity(SCHEDULE_LEN);
    while out.len() < SCHEDULE_LEN {
        let mut b = block.clone();
        for i in (1..b.len()).rev() {
            b.swap(i, rng.gen_range(0..=i));
        }
        out.extend(b);
    }
    out.truncate(SCHEDULE_LEN);
    out
}

/// An endless, seeded stream of valid mutation batches of 1–3 ops each.
/// Ingests and removes are balanced around `target` live videos, so the
/// corpus size stays within a few videos of `target` however many
/// batches are drawn. Batch `i` depends only on the seed and `i`.
pub struct BatchGen {
    rng: StdRng,
    shots: u32,
    target: usize,
    live: Vec<VideoId>,
    next_id: u32,
}

impl BatchGen {
    /// A generator for a store whose live ids are `0..videos` (a store
    /// freshly built by [`corpus`]).
    #[must_use]
    pub fn new(seed: u64, videos: u32, shots: u32) -> BatchGen {
        BatchGen {
            rng: StdRng::seed_from_u64(derive(seed, 0x3000)),
            shots,
            target: videos as usize,
            live: (0..videos).map(VideoId).collect(),
            next_id: videos,
        }
    }

    /// Number of live videos after every batch drawn so far is applied.
    #[cfg(test)]
    #[must_use]
    pub fn live(&self) -> usize {
        self.live.len()
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Vec<CorpusOp> {
        let ops = self.rng.gen_range(1..=3usize);
        (0..ops)
            .map(|_| {
                let ingest = match self.live.len().cmp(&self.target) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => self.rng.gen_bool(0.5),
                };
                if ingest {
                    let seed = self.rng.gen::<u64>();
                    self.live.push(VideoId(self.next_id));
                    self.next_id += 1;
                    CorpusOp::Ingest(video(seed, self.shots))
                } else {
                    let ix = self.rng.gen_range(0..self.live.len());
                    CorpusOp::Remove(self.live.swap_remove(ix))
                }
            })
            .collect()
    }
}

/// The three §4.2 random lists over `n` shots (`randomlists` defaults:
/// about 10% of shots satisfy each predicate).
#[must_use]
pub fn paper_lists(seed: u64, n: u32) -> Vec<SimilarityList> {
    (0..LIST_PREDICATES.len() as u64)
        .map(|i| {
            randomlists::generate(
                &ListGenConfig::default().with_n(n),
                derive(seed, 0x4000 + i),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches(seed: u64, n: usize) -> String {
        let mut gen = BatchGen::new(seed, 16, 4);
        format!("{:?}", (0..n).map(|_| gen.next_batch()).collect::<Vec<_>>())
    }

    #[test]
    fn inputs_are_deterministic_in_the_seed_and_differ_across_seeds() {
        assert_eq!(schedule(7, 0, 8, 1.1), schedule(7, 0, 8, 1.1));
        assert_ne!(schedule(7, 0, 8, 1.1), schedule(8, 0, 8, 1.1));
        assert_ne!(schedule(7, 0, 8, 1.1), schedule(7, 1, 8, 1.1));
        assert_eq!(batches(7, 30), batches(7, 30));
        assert_ne!(batches(7, 30), batches(8, 30));
        let corpus_of = |seed| format!("{:?}", corpus(seed, 3, 5).iter().collect::<Vec<_>>());
        assert_eq!(corpus_of(7), corpus_of(7));
        assert_ne!(corpus_of(7), corpus_of(8));
        assert_eq!(paper_lists(7, 10_000), paper_lists(7, 10_000));
        assert_ne!(paper_lists(7, 10_000), paper_lists(8, 10_000));
    }

    #[test]
    fn every_schedule_block_holds_each_query_in_its_share() {
        for (exponent, head) in [(1.1, 40), (0.0, 13)] {
            let s = schedule(3, 0, 8, exponent);
            for block in s.chunks_exact(BLOCK) {
                let count = |q| block.iter().filter(|&&x| x == q).count();
                assert_eq!(count(0), head);
                assert!((0..8).all(|q| count(q) >= 1));
            }
        }
    }
}
