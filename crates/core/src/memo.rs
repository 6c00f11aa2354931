//! Memoization of subformula evaluations.
//!
//! The engine's recursion treats the query as a tree, but queries are
//! DAGs in practice: the same subformula often occurs several times
//! (`g ∧ eventually g`, repeated atomic units, shared level-modal
//! blocks). The memo layer caches every evaluated [`SimilarityTable`]
//! keyed by the subformula's interned [`FormulaId`] plus the exact
//! [`SeqContext`] it was evaluated on, turning repeated subformulas into
//! O(1) lookups — common-subexpression elimination over the formula DAG.
//!
//! Hits are zero-copy: values are stored and handed out as
//! `Arc<SimilarityTable>`, so a hit is a reference-count bump, not a deep
//! clone of rows and lists. Evaluation is sequential, so one map behind
//! one uncontended lock serves the whole query; the lock only makes the
//! engine shareable by reference across threads.

use crate::{SeqContext, SimilarityTable};
use simvid_htl::FormulaId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// A memo key: the subformula's interned id plus the sequence context it
/// was evaluated on. Two occurrences of a subformula hit the same entry
/// exactly when they are structurally equal and run over the same segment
/// window.
pub type MemoKey = (FormulaId, u8, u32, u32);

/// Physical entries (live + stale) above which a logical
/// [`clear`](MemoCache::clear) also reclaims memory by dropping the map.
/// Below it, stale rows are left in place and filtered by generation —
/// clears between the top-level evaluations of a serving loop become O(1).
const PHYSICAL_CLEAR_THRESHOLD: usize = 4096;

/// A cache of evaluated similarity tables.
///
/// Entries are **generation-tagged**: each value carries the cache
/// generation it was stored under, and [`clear`](MemoCache::clear) bumps
/// the generation instead of walking the map. A stale entry is invisible
/// to [`lookup`](MemoCache::lookup) the instant the generation moves — the
/// same invalidate-by-tag discipline the live-ingestion layer uses for
/// per-video caches — and physical memory is reclaimed lazily once enough
/// stale rows pile up.
#[derive(Debug, Default)]
pub struct MemoCache {
    inner: Mutex<Memo>,
}

#[derive(Debug, Default)]
struct Memo {
    /// Values with the generation they were stored under.
    map: HashMap<MemoKey, (u64, Arc<SimilarityTable>)>,
    /// Current generation; entries tagged with an older one are stale.
    generation: u64,
    /// Live (current-generation) entries: the empty fast path skips
    /// hashing while nothing is live.
    live: usize,
}

impl MemoCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> MemoCache {
        MemoCache::default()
    }

    /// The key of an evaluation of the subformula interned as `id` on
    /// `ctx`. The engine's plan interns every node once per request, so
    /// building a key is four copies.
    #[must_use]
    pub fn key(id: FormulaId, ctx: SeqContext) -> MemoKey {
        (id, ctx.depth, ctx.lo, ctx.hi)
    }

    fn memo(&self) -> MutexGuard<'_, Memo> {
        self.inner.lock().expect("memo lock")
    }

    /// The cached table for a key, if present and current-generation. A
    /// hit bumps a reference count; the table itself is never copied.
    #[must_use]
    pub fn lookup(&self, key: &MemoKey) -> Option<Arc<SimilarityTable>> {
        let memo = self.memo();
        if memo.live == 0 {
            return None;
        }
        memo.map
            .get(key)
            .and_then(|(g, t)| (*g == memo.generation).then(|| Arc::clone(t)))
    }

    /// Stores an evaluated table under the current generation. Later
    /// stores for the same key win (they hold the same value: evaluation
    /// is deterministic).
    pub fn store(&self, key: MemoKey, table: Arc<SimilarityTable>) {
        let mut memo = self.memo();
        let gen = memo.generation;
        // A new key or an overwritten stale row is one more live entry.
        if memo
            .map
            .insert(key, (gen, table))
            .is_none_or(|(g, _)| g != gen)
        {
            memo.live += 1;
        }
    }

    /// Number of live cached evaluations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.memo().live
    }

    /// Whether the cache holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current generation, bumped once per [`clear`](MemoCache::clear).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.memo().generation
    }

    /// Invalidates every cached entry by advancing the generation — O(1)
    /// unless enough stale rows have accumulated to be worth dropping, in
    /// which case the map is physically cleared too.
    pub fn clear(&self) {
        let mut memo = self.memo();
        memo.generation += 1;
        memo.live = 0;
        if memo.map.len() > PHYSICAL_CLEAR_THRESHOLD {
            memo.map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimilarityList;

    #[test]
    fn lookup_returns_stored_tables() {
        let cache = MemoCache::new();
        let f = simvid_htl::parse("p()").expect("parse");
        let key = MemoCache::key(
            FormulaId::of(&f),
            SeqContext {
                depth: 1,
                lo: 0,
                hi: 50,
            },
        );
        assert!(cache.lookup(&key).is_none());
        let table = Arc::new(SimilarityTable::from_list(
            SimilarityList::from_tuples(vec![(1, 3, 1.0)], 2.0).unwrap(),
        ));
        cache.store(key, Arc::clone(&table));
        assert_eq!(cache.lookup(&key).as_deref(), Some(&*table));
        assert_eq!(cache.len(), 1);
        // A different window is a different key.
        assert!(cache
            .lookup(&MemoCache::key(
                FormulaId::of(&f),
                SeqContext {
                    depth: 1,
                    lo: 0,
                    hi: 10
                }
            ))
            .is_none());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn hits_share_storage_instead_of_cloning() {
        let cache = MemoCache::new();
        let f = simvid_htl::parse("q()").expect("parse");
        let key = MemoCache::key(
            FormulaId::of(&f),
            SeqContext {
                depth: 1,
                lo: 0,
                hi: 9,
            },
        );
        let table = Arc::new(SimilarityTable::from_list(
            SimilarityList::from_tuples(vec![(1, 1, 0.5)], 1.0).unwrap(),
        ));
        cache.store(key, Arc::clone(&table));
        let hit = cache.lookup(&key).expect("hit");
        assert!(Arc::ptr_eq(&hit, &table));
    }

    #[test]
    fn empty_fast_path_stays_consistent_across_clear() {
        let cache = MemoCache::new();
        let f = simvid_htl::parse("r()").expect("parse");
        let key = MemoCache::key(
            FormulaId::of(&f),
            SeqContext {
                depth: 2,
                lo: 5,
                hi: 7,
            },
        );
        let table = Arc::new(SimilarityTable::from_list(
            SimilarityList::from_tuples(vec![(2, 4, 1.5)], 2.0).unwrap(),
        ));
        // Overwrites keep the count at one entry.
        cache.store(key, Arc::clone(&table));
        cache.store(key, table);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.lookup(&key).is_none());
    }

    #[test]
    fn clear_is_a_generation_bump_and_stores_resurrect() {
        let cache = MemoCache::new();
        let f = simvid_htl::parse("s()").expect("parse");
        let key = MemoCache::key(
            FormulaId::of(&f),
            SeqContext {
                depth: 1,
                lo: 0,
                hi: 3,
            },
        );
        let table = Arc::new(SimilarityTable::from_list(
            SimilarityList::from_tuples(vec![(1, 2, 1.0)], 1.0).unwrap(),
        ));
        assert_eq!(cache.generation(), 0);
        cache.store(key, Arc::clone(&table));
        cache.clear();
        assert_eq!(cache.generation(), 1);
        // The stale row (still physically present below the reclamation
        // threshold) is invisible.
        assert!(cache.lookup(&key).is_none());
        assert!(cache.is_empty());
        // Re-storing under the new generation makes it live again.
        cache.store(key, Arc::clone(&table));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key).is_some());
    }
}
