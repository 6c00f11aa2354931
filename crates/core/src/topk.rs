//! Top-`k` ranked retrieval.
//!
//! "Under our similarity based retrieval, the `k` top video segments that
//! have the highest similarity values with respect to the user query will
//! be retrieved; here, `k` may be a parameter specified by the user."

use crate::error::EngineError;
use crate::{Interval, SegPos, Sim, SimilarityList};
use simvid_model::VideoId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A retrieved segment with its similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedSegment {
    /// 1-based position within the queried sequence.
    pub pos: SegPos,
    /// The similarity value.
    pub sim: Sim,
}

/// The outcome of a resilient top-`k` evaluation: either the complete
/// ranking, or a [`DegradedAnswer`] when evaluation was interrupted.
#[derive(Debug, Clone, PartialEq)]
pub enum TopKAnswer {
    /// Evaluation finished; the ranking is exact.
    Complete(Vec<RankedSegment>),
    /// Evaluation was interrupted; a sound partial answer is returned.
    Degraded(DegradedAnswer),
}

impl TopKAnswer {
    /// The ranked segments, complete or partial.
    #[must_use]
    pub fn ranked(&self) -> &[RankedSegment] {
        match self {
            TopKAnswer::Complete(r) => r,
            TopKAnswer::Degraded(d) => &d.ranked_so_far,
        }
    }

    /// Whether the answer is the complete, exact ranking.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, TopKAnswer::Complete(_))
    }
}

/// A sound partial answer produced when evaluation is interrupted by a
/// budget violation, a provider give-up, or a captured panic.
///
/// The paper's similarity semantics assigns every segment an
/// `(actual, max)` pair where `max` depends only on the formula — so even
/// an interrupted evaluation can certify, per segment, an upper bound its
/// true similarity cannot exceed. `ranked_so_far` carries the partial
/// conjunction sums accumulated before the interruption (each segment's
/// true value is **at least** its listed `act`), and
/// `unresolved_upper_bounds` covers every segment position with a value its
/// true similarity is **at most**.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedAnswer {
    /// Partial ranking from the conjuncts evaluated before interruption,
    /// best-first. Each `act` is a lower bound on the true similarity.
    pub ranked_so_far: Vec<RankedSegment>,
    /// Disjoint, sorted intervals covering the whole sequence, each with a
    /// sound upper bound on the true similarity of its positions.
    pub unresolved_upper_bounds: Vec<(Interval, f64)>,
    /// Why evaluation stopped (always a degradable [`EngineError`]).
    pub reason: EngineError,
}

impl DegradedAnswer {
    /// The upper bound certified for position `pos`, if any interval covers
    /// it (positions outside every interval are bounded by zero).
    #[must_use]
    pub fn bound_for(&self, pos: SegPos) -> Option<f64> {
        self.unresolved_upper_bounds
            .iter()
            .find(|(iv, _)| iv.beg <= pos && pos <= iv.end)
            .map(|&(_, b)| b)
    }
}

/// The list's entries ranked by actual similarity, descending; ties keep
/// temporal order. This is the presentation format of the paper's result
/// tables (Table 4).
#[must_use]
pub fn rank_entries(list: &SimilarityList) -> Vec<(Interval, Sim)> {
    let mut ranked: Vec<(Interval, Sim)> = list
        .entries()
        .iter()
        .map(|e| (e.iv, Sim::new(e.act, list.max())))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.act
            .partial_cmp(&a.1.act)
            .expect("similarities are finite")
            .then(a.0.beg.cmp(&b.0.beg))
    });
    ranked
}

/// A heap element ordering entries by actual similarity descending, ties
/// by begin position ascending (temporal order) — the retrieval rank
/// order. `BinaryHeap` pops its greatest element, so "greater" means
/// "retrieved earlier".
struct HeapEntry {
    iv: Interval,
    act: f64,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.act == other.act && self.iv.beg == other.iv.beg
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.act
            .partial_cmp(&other.act)
            .expect("similarities are finite")
            .then(other.iv.beg.cmp(&self.iv.beg))
    }
}

/// The `k` segments with the highest similarity values (ties broken by
/// temporal order). Segments absent from the list have similarity zero and
/// are never returned.
///
/// Selection is heap-bounded: the entries are heapified in `O(n)` and only
/// as many are popped as the `k` positions require — `O(n + e log n)` for
/// the `e ≤ k` entries touched, instead of sorting all `n` entries.
#[must_use]
pub fn top_k(list: &SimilarityList, k: usize) -> Vec<RankedSegment> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<HeapEntry> = list
        .entries()
        .iter()
        .map(|e| HeapEntry {
            iv: e.iv,
            act: e.act,
        })
        .collect();
    let mut out = Vec::with_capacity(k.min(list.coverage() as usize));
    while let Some(entry) = heap.pop() {
        let sim = Sim::new(entry.act, list.max());
        for pos in entry.iv.beg..=entry.iv.end {
            if out.len() == k {
                return out;
            }
            out.push(RankedSegment { pos, sim });
        }
    }
    out
}

/// All segments whose *fractional* similarity reaches `threshold`, in
/// temporal order — the alternative retrieval mode for users who want a
/// quality floor rather than a count ("the user may not know exactly what
/// he/she wants", §1: sometimes the right `k` is "everything close
/// enough").
#[must_use]
pub fn retrieve_above(list: &SimilarityList, threshold: f64) -> Vec<RankedSegment> {
    let cut = threshold * list.max();
    let mut out = Vec::new();
    for e in list.entries() {
        if e.act + 1e-12 < cut {
            continue;
        }
        for pos in e.iv.beg..=e.iv.end {
            out.push(RankedSegment {
                pos,
                sim: Sim::new(e.act, list.max()),
            });
        }
    }
    out
}

/// A ranked candidate emitted by one shard of a partitioned video store:
/// a segment of a specific video together with its similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardHit {
    /// The video the segment belongs to.
    pub video: VideoId,
    /// 1-based position within that video's queried sequence.
    pub pos: SegPos,
    /// The similarity value.
    pub sim: Sim,
}

/// The corpus-wide retrieval rank order: actual similarity descending,
/// ties by video id ascending, then by position ascending. Every layer of
/// the sharded pipeline — per-shard streams, the merge coordinator, and
/// the unsharded oracle — sorts by exactly this comparator, which is what
/// makes scatter-gather retrieval bit-identical to a flat scan.
#[must_use]
pub fn global_rank(a: &ShardHit, b: &ShardHit) -> Ordering {
    b.sim
        .act
        .partial_cmp(&a.sim.act)
        .expect("similarities are finite")
        .then(a.video.cmp(&b.video))
        .then(a.pos.cmp(&b.pos))
}

/// One shard's ranked answer stream: its candidate hits sorted by
/// [`global_rank`]. Because the stream is sorted, the shard's remaining
/// upper bound after consuming a prefix is simply the `act` of the next
/// unconsumed hit — the certificate the threshold algorithm needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStream {
    /// Stable identifier of the shard that produced the stream.
    pub shard: u32,
    /// Candidate hits in [`global_rank`] order (enforced by [`ShardStream::new`]).
    pub hits: Vec<ShardHit>,
}

impl ShardStream {
    /// Builds a stream, sorting `hits` into [`global_rank`] order.
    #[must_use]
    pub fn new(shard: u32, mut hits: Vec<ShardHit>) -> Self {
        hits.sort_by(global_rank);
        ShardStream { shard, hits }
    }

    /// A sound upper bound on any hit this shard could still contribute
    /// once `consumed` hits have been taken from the stream head, or
    /// `None` when the stream is exhausted (bound is effectively zero).
    #[must_use]
    pub fn remaining_bound(&self, consumed: usize) -> Option<f64> {
        self.hits.get(consumed).map(|h| h.sim.act)
    }
}

/// Accounting for one scatter-gather merge, surfaced through the
/// `shard.*` observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Hits actually consumed from shard streams (equals the output
    /// length: the merge never pops a hit it does not emit).
    pub consumed: u64,
    /// Candidate hits shards produced that the coordinator never had to
    /// look at — the work the threshold condition saved downstream.
    pub candidates_pruned: u64,
    /// Streams abandoned while they still held candidates: the merge
    /// proved their remaining upper bound could not displace the k-th
    /// best score and terminated them early.
    pub early_terminated: u64,
    /// Streams fully drained before the merge finished.
    pub exhausted: u64,
}

/// A heap element for the scatter-gather merge: the current head of one
/// shard stream. `BinaryHeap` pops its greatest element, so "greater"
/// means "earlier in [`global_rank`] order".
struct MergeHead {
    hit: ShardHit,
    stream: usize,
    next: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        global_rank(&self.hit, &other.hit) == Ordering::Equal
    }
}

impl Eq for MergeHead {}

impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        // `global_rank` returns Less for the better-ranked hit (sort
        // ascending = best first); the heap wants the best hit greatest.
        global_rank(&other.hit, &self.hit)
    }
}

/// Merges ranked per-shard streams into the corpus-wide top `k` with the
/// threshold algorithm: repeatedly take the best stream head, and stop as
/// soon as `k` hits are emitted — at which point the k-th best score
/// dominates every remaining stream head, i.e. every shard's remaining
/// upper bound (the streams are sorted, so no shard can still produce a
/// hit that outranks its own head).
///
/// The output is bit-identical to sorting the concatenation of all
/// streams by [`global_rank`] and truncating at `k`, because each stream
/// is itself sorted by that total order.
#[must_use]
pub fn merge_shard_streams(streams: &[ShardStream], k: usize) -> (Vec<ShardHit>, MergeStats) {
    let total: u64 = streams.iter().map(|s| s.hits.len() as u64).sum();
    let mut stats = MergeStats::default();
    if k == 0 {
        stats.candidates_pruned = total;
        stats.early_terminated = streams.iter().filter(|s| !s.hits.is_empty()).count() as u64;
        stats.exhausted = streams.iter().filter(|s| s.hits.is_empty()).count() as u64;
        return (Vec::new(), stats);
    }
    let mut heap: BinaryHeap<MergeHead> = streams
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            s.hits.first().map(|&hit| MergeHead {
                hit,
                stream: i,
                next: 1,
            })
        })
        .collect();
    stats.exhausted = (streams.len() - heap.len()) as u64;
    let mut out = Vec::with_capacity(k.min(total as usize));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(head.hit);
        match streams[head.stream].hits.get(head.next) {
            Some(&hit) => heap.push(MergeHead {
                hit,
                stream: head.stream,
                next: head.next + 1,
            }),
            None => stats.exhausted += 1,
        }
    }
    stats.consumed = out.len() as u64;
    stats.candidates_pruned = total - stats.consumed;
    stats.early_terminated = heap.len() as u64;
    // Threshold-algorithm certificate: termination is only sound while
    // the k-th best emitted score is at least every abandoned stream's
    // remaining upper bound. The heap invariant guarantees this; the
    // debug assertion documents (and, under `cargo test`, enforces) it.
    debug_assert!(out.last().is_none_or(|kth| {
        heap.iter()
            .all(|head| global_rank(kth, &head.hit) != Ordering::Greater)
    }));
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimilarityList {
        SimilarityList::from_tuples(
            vec![
                (1, 4, 12.382),
                (5, 5, 9.787),
                (6, 6, 11.047),
                (8, 8, 11.047),
                (10, 44, 1.26),
            ],
            16.047,
        )
        .unwrap()
    }

    #[test]
    fn rank_orders_by_value_then_position() {
        let ranked = rank_entries(&sample());
        let order: Vec<(u32, f64)> = ranked.iter().map(|(iv, s)| (iv.beg, s.act)).collect();
        assert_eq!(
            order,
            vec![
                (1, 12.382),
                (6, 11.047),
                (8, 11.047),
                (5, 9.787),
                (10, 1.26)
            ]
        );
    }

    #[test]
    fn top_k_expands_intervals_in_rank_order() {
        let top = top_k(&sample(), 6);
        let positions: Vec<u32> = top.iter().map(|r| r.pos).collect();
        assert_eq!(positions, vec![1, 2, 3, 4, 6, 8]);
        assert_eq!(top[0].sim.act, 12.382);
    }

    #[test]
    fn top_k_never_returns_zero_similarity() {
        let l = SimilarityList::from_tuples(vec![(3, 3, 1.0)], 2.0).unwrap();
        let top = top_k(&l, 10);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].pos, 3);
    }

    #[test]
    fn top_zero_is_empty() {
        assert!(top_k(&sample(), 0).is_empty());
    }

    #[test]
    fn top_k_breaks_similarity_ties_in_temporal_order() {
        // Three entries share the maximal similarity; a fourth sits below.
        // Ties must expand earliest-interval-first, and a `k` cutting into
        // the middle of an interval truncates mid-interval: [5,9] expands
        // 5, 6 and stops, and neither [12,12] (tied, later) nor the
        // lower-valued [1,3] may jump the queue once the tied block
        // exhausts `k`.
        let l = SimilarityList::from_tuples(
            vec![(1, 3, 1.5), (5, 9, 2.0), (12, 12, 2.0), (20, 21, 2.0)],
            2.0,
        )
        .unwrap();
        let positions: Vec<u32> = top_k(&l, 2).iter().map(|r| r.pos).collect();
        assert_eq!(positions, vec![5, 6]);
        let positions: Vec<u32> = top_k(&l, 7).iter().map(|r| r.pos).collect();
        assert_eq!(positions, vec![5, 6, 7, 8, 9, 12, 20]);
        let positions: Vec<u32> = top_k(&l, 10).iter().map(|r| r.pos).collect();
        assert_eq!(positions, vec![5, 6, 7, 8, 9, 12, 20, 21, 1, 2]);
    }

    #[test]
    fn heap_selection_matches_sort_based_expansion() {
        // Oracle: expand rank_entries (full sort) and truncate at k.
        let lists = vec![
            sample(),
            SimilarityList::from_tuples(
                vec![
                    (1, 3, 1.0),
                    (4, 4, 3.0),
                    (6, 9, 1.0),
                    (11, 11, 3.0),
                    (13, 20, 2.0),
                ],
                3.0,
            )
            .unwrap(),
            SimilarityList::empty(1.0),
        ];
        for l in &lists {
            for k in 0..=(l.coverage() as usize + 2) {
                let oracle: Vec<RankedSegment> = rank_entries(l)
                    .into_iter()
                    .flat_map(|(iv, sim)| {
                        (iv.beg..=iv.end).map(move |pos| RankedSegment { pos, sim })
                    })
                    .take(k)
                    .collect();
                assert_eq!(top_k(l, k), oracle, "k={k}");
            }
        }
    }

    fn hit(video: u32, pos: SegPos, act: f64) -> ShardHit {
        ShardHit {
            video: VideoId(video),
            pos,
            sim: Sim::new(act, 10.0),
        }
    }

    #[test]
    fn merge_matches_global_sort_oracle() {
        // Adversarial ties: equal scores across shards must resolve by
        // (video asc, pos asc) exactly as a flat global sort would.
        let streams = vec![
            ShardStream::new(0, vec![hit(0, 3, 7.0), hit(0, 1, 7.0), hit(2, 5, 2.0)]),
            ShardStream::new(1, vec![hit(1, 9, 7.0), hit(3, 2, 6.5), hit(1, 1, 1.0)]),
            ShardStream::new(2, vec![]),
        ];
        let mut oracle: Vec<ShardHit> = streams.iter().flat_map(|s| s.hits.clone()).collect();
        oracle.sort_by(global_rank);
        for k in 0..=oracle.len() + 2 {
            let (merged, stats) = merge_shard_streams(&streams, k);
            let mut want = oracle.clone();
            want.truncate(k);
            assert_eq!(merged, want, "k={k}");
            assert_eq!(stats.consumed, merged.len() as u64);
            assert_eq!(stats.candidates_pruned, 6 - merged.len() as u64);
        }
    }

    #[test]
    fn merge_counts_early_terminated_and_exhausted_streams() {
        let streams = vec![
            ShardStream::new(0, vec![hit(0, 1, 9.0), hit(0, 2, 8.0)]),
            ShardStream::new(1, vec![hit(1, 1, 1.0)]),
            ShardStream::new(2, vec![]),
        ];
        // k=2 drains nothing but shard 0's prefix: shard 1 is abandoned
        // with its candidate unread, the empty shard counts as exhausted.
        let (merged, stats) = merge_shard_streams(&streams, 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(stats.early_terminated, 1);
        assert_eq!(stats.exhausted, 2);
        assert_eq!(stats.candidates_pruned, 1);
        // k large enough drains everything.
        let (_, stats) = merge_shard_streams(&streams, 10);
        assert_eq!(stats.early_terminated, 0);
        assert_eq!(stats.exhausted, 3);
        assert_eq!(stats.candidates_pruned, 0);
    }

    #[test]
    fn merge_never_abandons_a_stream_whose_bound_beats_the_kth_score() {
        // Shard 1's head (8.5) outranks shard 0's second hit (8.0): the
        // coordinator must consume it before terminating, even though
        // shard 0 alone could have filled k=2.
        let streams = vec![
            ShardStream::new(0, vec![hit(0, 1, 9.0), hit(0, 2, 8.0)]),
            ShardStream::new(1, vec![hit(1, 4, 8.5), hit(1, 5, 0.5)]),
        ];
        let (merged, stats) = merge_shard_streams(&streams, 2);
        let kth = merged.last().unwrap();
        assert_eq!((kth.video, kth.sim.act), (VideoId(1), 8.5));
        for s in &streams {
            let consumed = merged.iter().filter(|h| {
                s.hits
                    .iter()
                    .any(|sh| global_rank(sh, h) == std::cmp::Ordering::Equal)
            });
            if let Some(bound) = s.remaining_bound(consumed.count()) {
                assert!(bound <= kth.sim.act, "abandoned bound {bound} beats k-th");
            }
        }
        // Both streams still hold candidates when the merge stops.
        assert_eq!(stats.early_terminated, 2);
    }

    #[test]
    fn retrieve_above_applies_a_fraction_floor() {
        let l = sample(); // max 16.047
        let hits = retrieve_above(&l, 0.6); // cut = 9.6282
                                            // Intervals [1,4] (12.382), [5,5] (9.787), [6,6] and [8,8] (11.047).
        let positions: Vec<u32> = hits.iter().map(|r| r.pos).collect();
        assert_eq!(positions, vec![1, 2, 3, 4, 5, 6, 8]);
        // Threshold zero returns every listed segment, in temporal order.
        let all = retrieve_above(&l, 0.0);
        assert_eq!(all.len(), l.coverage() as usize);
        // Threshold above every fraction returns nothing.
        assert!(retrieve_above(&l, 0.99).is_empty());
    }
}
