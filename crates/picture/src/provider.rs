//! [`PictureSystem`]: the public facade and [`AtomicProvider`] impl.

use crate::cache::AtomicCache;
use crate::index::LevelIndex;
use crate::query::{AtomicQuery, QueryError};
use crate::score::score_window;
use crate::{CacheConfig, ScoringConfig};
use simvid_core::{
    AtomicProvider, CacheStats, Interval, ProviderError, SeqContext, SimilarityList,
    SimilarityTable, ValueRow, ValueTable,
};
use simvid_htl::{AtomicUnit, AttrFn, Formula, FormulaId};
use simvid_model::{AttrValue, CorpusEpoch, ObjectId, VideoTree};
use simvid_obs::Registry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// How a [`PictureSystem`] holds its video: borrowed from a frozen
/// [`simvid_model::VideoStore`] (the classic build-time path) or shared
/// by an O(1) tree clone (the live-ingestion path, where snapshots
/// outlive any one borrow of the mutable store).
enum TreeHandle<'a> {
    Borrowed(&'a VideoTree),
    Shared(VideoTree),
}

impl TreeHandle<'_> {
    fn tree(&self) -> &VideoTree {
        match self {
            TreeHandle::Borrowed(t) => t,
            TreeHandle::Shared(t) => t,
        }
    }
}

/// The picture retrieval system over one video: index-backed similarity
/// scoring of atomic (non-temporal) queries, with a cross-query LRU cache
/// of compiled queries and scored tables (see [`CacheConfig`]).
///
/// The index and result caches are behind [`Mutex`]es (and hand out
/// [`Arc`]s) so the system is [`Sync`], as every [`AtomicProvider`] must
/// be: concurrently served requests share one system and its caches.
pub struct PictureSystem<'a> {
    tree: TreeHandle<'a>,
    config: ScoringConfig,
    indices: Mutex<HashMap<u8, Arc<LevelIndex>>>,
    cache: AtomicCache,
    registry: Arc<Registry>,
    /// The corpus epoch this system was built against (0 for frozen
    /// stores). Stamped so snapshot layers can assert they never mix
    /// epochs within one query.
    epoch: CorpusEpoch,
    /// The cache generation of the (video, content) pair this system
    /// serves. Live ingestion builds a fresh system — fresh generation,
    /// empty caches — whenever a video's content changes, so stale tables
    /// are unreachable by construction.
    generation: u64,
}

impl<'a> PictureSystem<'a> {
    /// Creates a picture system for a video with the default cache
    /// configuration; indices are built lazily per level and cached.
    #[must_use]
    pub fn new(tree: &'a VideoTree, config: ScoringConfig) -> Self {
        PictureSystem::with_cache(tree, config, CacheConfig::default())
    }

    /// Creates a picture system with an explicit atomic-cache
    /// configuration ([`CacheConfig::disabled`] restores the uncached
    /// behaviour). Metrics go to a private registry; use
    /// [`PictureSystem::with_registry`] to share one.
    #[must_use]
    pub fn with_cache(tree: &'a VideoTree, config: ScoringConfig, cache: CacheConfig) -> Self {
        PictureSystem::with_registry(tree, config, cache, Arc::new(Registry::new()))
    }

    /// Creates a picture system publishing its `cache.*` metrics (lookup
    /// counters, residency gauges, compile/score timing spans) into the
    /// given [`Registry`] — typically the one shared with the engine, so
    /// one snapshot covers the whole stack.
    #[must_use]
    pub fn with_registry(
        tree: &'a VideoTree,
        config: ScoringConfig,
        cache: CacheConfig,
        registry: Arc<Registry>,
    ) -> Self {
        PictureSystem {
            tree: TreeHandle::Borrowed(tree),
            config,
            indices: Mutex::new(HashMap::new()),
            cache: AtomicCache::new(cache, &registry),
            registry,
            epoch: CorpusEpoch(0),
            generation: 0,
        }
    }

    /// Creates a picture system that *shares* its video (a [`VideoTree`]
    /// clone copies a pointer) instead of borrowing it — the
    /// live-ingestion path, where an
    /// epoch snapshot must keep the tree alive independently of the
    /// mutable store it came from.
    #[must_use]
    pub fn shared(
        tree: VideoTree,
        config: ScoringConfig,
        cache: CacheConfig,
        registry: Arc<Registry>,
    ) -> PictureSystem<'static> {
        PictureSystem {
            tree: TreeHandle::Shared(tree),
            config,
            indices: Mutex::new(HashMap::new()),
            cache: AtomicCache::new(cache, &registry),
            registry,
            epoch: CorpusEpoch(0),
            generation: 0,
        }
    }

    /// Stamps the corpus epoch and cache generation this system was built
    /// against (both default to 0, the frozen-store convention).
    #[must_use]
    pub fn with_provenance(mut self, epoch: CorpusEpoch, generation: u64) -> Self {
        self.epoch = epoch;
        self.generation = generation;
        self
    }

    /// The corpus epoch this system was built against.
    #[must_use]
    pub fn corpus_epoch(&self) -> CorpusEpoch {
        self.epoch
    }

    /// The cache generation of this system's (video, content) pair.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The metrics registry this system records into.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The video this system serves.
    #[must_use]
    pub fn tree(&self) -> &VideoTree {
        self.tree.tree()
    }

    /// Number of scored tables currently resident in the atomic-result
    /// cache — the "warm cache" the invalidation counters account for.
    #[must_use]
    pub fn resident_tables(&self) -> usize {
        self.cache.resident_tables()
    }

    /// The atomic-cache configuration in effect.
    #[must_use]
    pub fn cache_config(&self) -> CacheConfig {
        self.cache.config()
    }

    /// Hit/miss/eviction counters of the atomic-result cache, cumulative
    /// over this system's lifetime.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The compiled form of a pure formula, answered from the compiled
    /// cache when a structurally equal formula was compiled before. Errors
    /// are cached alongside successes.
    fn compiled(&self, f: &Formula) -> Arc<Result<AtomicQuery, QueryError>> {
        self.cache
            .compiled_with(FormulaId::of(f), || AtomicQuery::compile(f, &self.config))
    }

    /// The compiled form of an atomic unit, keyed on the id the unit
    /// carries — no re-interning on the per-video hot path.
    fn compiled_unit(&self, unit: &AtomicUnit) -> Arc<Result<AtomicQuery, QueryError>> {
        self.cache.compiled_with(unit.id, || {
            AtomicQuery::compile(&unit.formula, &self.config)
        })
    }

    /// The (cached) index for a level.
    fn index(&self, depth: u8) -> Arc<LevelIndex> {
        self.indices
            .lock()
            .expect("index cache lock")
            .entry(depth)
            .or_insert_with(|| Arc::new(LevelIndex::build(self.tree.tree(), depth)))
            .clone()
    }

    /// Evaluates a pure (non-temporal) formula over the full sequence of
    /// segments at `depth`.
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn query(&self, f: &Formula, depth: u8) -> Result<SimilarityTable, QueryError> {
        let compiled = self.compiled(f);
        let q = compiled.as_ref().as_ref().map_err(Clone::clone)?;
        let ix = self.index(depth);
        let n = ix.len;
        Ok(score_window(self.tree.tree(), &ix, depth, 0, n, q))
    }

    /// Evaluates a *closed* pure formula at `depth` and returns its
    /// similarity list over the level's segments.
    ///
    /// # Errors
    ///
    /// See [`QueryError`]; additionally if free variables remain.
    pub fn query_closed(&self, f: &Formula, depth: u8) -> Result<SimilarityList, QueryError> {
        let t = self.query(f, depth)?;
        if !t.obj_cols.is_empty() || !t.attr_cols.is_empty() {
            return Err(QueryError::BadAttrPredicate(
                "closed query expected (free variables remain)".into(),
            ));
        }
        Ok(Arc::try_unwrap(t.into_closed_list()).unwrap_or_else(|shared| (*shared).clone()))
    }
}

impl AtomicProvider for PictureSystem<'_> {
    /// # Panics
    ///
    /// Panics if the unit fails to compile (malformed attribute predicate
    /// or too many variables); validate queries with
    /// [`AtomicQuery::compile`] first when handling untrusted input. The
    /// compile runs (and its error is cached) once per distinct formula —
    /// repeated uses of the same malformed unit re-raise the cached error
    /// without recompiling.
    fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable> {
        let compiled = self.compiled_unit(unit);
        let q = compiled
            .as_ref()
            .as_ref()
            .unwrap_or_else(|e| panic!("invalid atomic unit `{}`: {e}", unit.formula));
        // The cache's shared `Arc` goes straight to the engine: hits are a
        // reference-count bump, and the engine clones (shallowly — rows
        // share their lists) only if it needs to mutate.
        self.cache.table_with(unit.id, ctx, || {
            let ix = self.index(ctx.depth);
            score_window(self.tree.tree(), &ix, ctx.depth, ctx.lo, ctx.hi, q)
        })
    }

    /// Fallible twin of [`AtomicProvider::atomic_table`], used by the
    /// engine's resilient serving path: a unit that fails to compile comes
    /// back as [`ProviderError::Permanent`] (retrying cannot fix a
    /// malformed formula) instead of panicking, and the scored table goes
    /// through the cache's fallible `try_table_with` path so an error
    /// never occupies a cache slot.
    fn try_atomic_table(
        &self,
        unit: &AtomicUnit,
        ctx: SeqContext,
    ) -> Result<Arc<SimilarityTable>, ProviderError> {
        let compiled = self.compiled_unit(unit);
        let q = match compiled.as_ref() {
            Ok(q) => q,
            Err(e) => {
                return Err(ProviderError::Permanent(format!(
                    "invalid atomic unit `{}`: {e}",
                    unit.formula
                )))
            }
        };
        self.cache
            .try_table_with::<ProviderError>(unit.id, ctx, || {
                let ix = self.index(ctx.depth);
                Ok(score_window(
                    self.tree.tree(),
                    &ix,
                    ctx.depth,
                    ctx.lo,
                    ctx.hi,
                    q,
                ))
            })
    }

    fn atomic_max(&self, unit: &AtomicUnit) -> f64 {
        self.compiled_unit(unit)
            .as_ref()
            .as_ref()
            .unwrap_or_else(|e| panic!("invalid atomic unit `{}`: {e}", unit.formula))
            .max
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn value_table(&self, func: &AttrFn, ctx: SeqContext) -> ValueTable {
        let tree = self.tree.tree();
        let mut builder = ValueTableBuilder::new(match &func.of {
            Some(v) => vec![v.0.clone()],
            None => Vec::new(),
        });
        for p in ctx.lo..ctx.hi {
            let Some(meta) = tree.meta_at(ctx.depth, p) else {
                continue;
            };
            let local = p - ctx.lo + 1;
            match &func.of {
                None => {
                    if let Some(v) = meta.segment_attr(&func.attr) {
                        builder.add(vec![], v.clone(), local);
                    }
                }
                Some(_) => {
                    for inst in &meta.objects {
                        let value = match func.attr.as_str() {
                            "type" | "class" => tree
                                .object_info(inst.id)
                                .map(|i| AttrValue::from(i.class.clone())),
                            "name" => tree
                                .object_info(inst.id)
                                .and_then(|i| i.name.clone())
                                .map(AttrValue::from),
                            attr => inst.attr(attr).cloned(),
                        };
                        if let Some(v) = value {
                            builder.add(vec![inst.id], v, local);
                        }
                    }
                }
            }
        }
        builder.finish()
    }
}

/// A hashable stand-in for [`AttrValue`] agreeing with
/// [`AttrValue::sem_eq`]: ints and floats compare numerically (so both map
/// through the `f64` bit pattern, with `-0.0` normalised to `0.0`), while
/// strings and booleans hash as themselves. `NaN` has no key — `sem_eq`
/// never equates it with anything, so a `NaN` value always starts its own
/// row, exactly like the linear scan did.
#[derive(PartialEq, Eq, Hash)]
enum ValueKey {
    Num(u64),
    Str(String),
    Bool(bool),
}

impl ValueKey {
    fn of(value: &AttrValue) -> Option<ValueKey> {
        match value {
            AttrValue::Int(_) | AttrValue::Float(_) => {
                let f = value.as_f64().expect("numeric");
                if f.is_nan() {
                    return None;
                }
                let f = if f == 0.0 { 0.0 } else { f }; // -0.0 == 0.0 under sem_eq
                Some(ValueKey::Num(f.to_bits()))
            }
            AttrValue::Str(s) => Some(ValueKey::Str(s.clone())),
            AttrValue::Bool(b) => Some(ValueKey::Bool(*b)),
        }
    }
}

/// Builds a [`ValueTable`] with an `O(1)` per-position row lookup instead
/// of a linear scan over the rows: rows are indexed by `(objs, value)`.
/// Output row order stays first-encounter order, as before.
struct ValueTableBuilder {
    table: ValueTable,
    index: HashMap<(Vec<ObjectId>, ValueKey), usize>,
}

impl ValueTableBuilder {
    fn new(obj_cols: Vec<String>) -> ValueTableBuilder {
        ValueTableBuilder {
            table: ValueTable::new(obj_cols),
            index: HashMap::new(),
        }
    }

    /// Adds position `pos` to the row for `(objs, value)`, extending the
    /// row's last span when adjacent. Positions arrive in ascending order.
    fn add(&mut self, objs: Vec<ObjectId>, value: AttrValue, pos: u32) {
        let row = match ValueKey::of(&value) {
            Some(key) => match self.index.entry((objs.clone(), key)) {
                std::collections::hash_map::Entry::Occupied(e) => Some(*e.get()),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(self.table.rows.len());
                    None
                }
            },
            None => None, // NaN matches no existing row
        };
        match row {
            Some(i) => {
                let spans = &mut self.table.rows[i].spans;
                match spans.last_mut() {
                    Some(span) if span.end + 1 == pos => span.end = pos,
                    Some(span) if span.end >= pos => {}
                    _ => spans.push(Interval::new(pos, pos)),
                }
            }
            None => self.table.rows.push(ValueRow {
                objs,
                value,
                spans: vec![Interval::new(pos, pos)],
            }),
        }
    }

    fn finish(self) -> ValueTable {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_core::Engine;
    use simvid_htl::parse;
    use simvid_model::VideoBuilder;

    /// Frames with a plane climbing then descending: heights 100, 250, 200.
    fn flight() -> VideoTree {
        let mut b = VideoBuilder::new("flight");
        b.set_level_names(["video", "frame"]);
        for (i, h) in [(0, 100i64), (1, 250), (2, 200)] {
            b.child(format!("frame{i}"));
            let plane = b.object(9, "airplane", None);
            b.object_attr(plane, "height", AttrValue::Int(h));
            b.up();
        }
        b.finish().unwrap()
    }

    #[test]
    fn value_table_groups_constant_runs() {
        let mut b = VideoBuilder::new("t");
        b.set_level_names(["video", "frame"]);
        for h in [5i64, 5, 7, 5] {
            b.child(format!("f{h}"));
            let o = b.object(1, "ball", None);
            b.object_attr(o, "height", AttrValue::Int(h));
            b.up();
        }
        let tree = b.finish().unwrap();
        let sys = PictureSystem::new(&tree, ScoringConfig::default());
        let vt = sys.value_table(
            &AttrFn {
                attr: "height".into(),
                of: Some(simvid_htl::ObjVar("z".into())),
            },
            SeqContext {
                depth: 1,
                lo: 0,
                hi: 4,
            },
        );
        assert_eq!(vt.obj_cols, vec!["z"]);
        assert_eq!(vt.rows.len(), 2);
        let five = vt
            .rows
            .iter()
            .find(|r| r.value.sem_eq(&AttrValue::Int(5)))
            .unwrap();
        assert_eq!(five.spans, vec![Interval::new(1, 2), Interval::new(4, 4)]);
        let seven = vt
            .rows
            .iter()
            .find(|r| r.value.sem_eq(&AttrValue::Int(7)))
            .unwrap();
        assert_eq!(seven.spans, vec![Interval::new(3, 3)]);
    }

    #[test]
    fn formula_c_end_to_end() {
        // Paper formula (C): a plane appears, later the same plane is
        // higher.
        let tree = flight();
        let sys = PictureSystem::new(&tree, ScoringConfig::default());
        let engine = Engine::new(&sys, &tree);
        let f = parse(
            "exists z . present(z) and type(z) = \"airplane\" and \
             [h := height(z)] eventually (present(z) and height(z) > h)",
        )
        .unwrap();
        let out = engine.eval_closed_at_level(&f, 1).unwrap();
        // Frame 1 (h=100): later 250 > 100 — full match (max similarity).
        // Frame 2 (h=250): nothing higher follows — partial only.
        // Frame 3 (h=200): last frame — partial only.
        let max = out.max();
        assert!(out.value_at(1) >= max - 1e-9, "frame 1 is an exact match");
        assert!(out.value_at(2) < max);
        assert!(out.value_at(3) < max);
        assert!(out.value_at(2) > 0.0, "partial match still scores");
    }

    #[test]
    fn bad_scoring_weights_are_permanent_errors() {
        let tree = flight();
        let unit = AtomicUnit::of(&parse("exists z . present(z) and height(z) > 150").unwrap());
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 3,
        };
        for bad in [-1.0, f64::NAN] {
            let config = ScoringConfig {
                default_weight: bad,
                ..ScoringConfig::default()
            };
            let sys = PictureSystem::new(&tree, config);
            match sys.try_atomic_table(&unit, ctx) {
                Err(ProviderError::Permanent(msg)) => {
                    assert!(msg.contains("must be positive"), "got: {msg}");
                }
                other => panic!("expected Permanent weight error, got {other:?}"),
            }
        }
    }

    #[test]
    fn try_atomic_table_reports_compile_errors_as_permanent() {
        let tree = flight();
        let sys = PictureSystem::new(&tree, ScoringConfig::default());
        // A temporal formula is not a valid atomic unit (`NotPure`); the
        // infallible path panics on it, the fallible one must not.
        let f = parse("eventually present(z)").unwrap();
        let unit = AtomicUnit {
            id: FormulaId::of(&f),
            formula: f,
            free_objs: vec![simvid_htl::ObjVar("z".into())],
            free_attrs: Vec::new(),
        };
        let ctx = SeqContext {
            depth: 1,
            lo: 0,
            hi: 3,
        };
        match sys.try_atomic_table(&unit, ctx) {
            Err(ProviderError::Permanent(msg)) => {
                assert!(msg.contains("invalid atomic unit"), "got: {msg}");
            }
            other => panic!("expected Permanent compile error, got {other:?}"),
        }
        // A valid unit still scores through the same fallible path.
        let ok = AtomicUnit::of(&parse("exists z . present(z)").unwrap());
        let table = sys.try_atomic_table(&ok, ctx).unwrap();
        assert!(table.max > 0.0);
    }

    #[test]
    fn query_closed_rejects_free_variables() {
        let tree = flight();
        let sys = PictureSystem::new(&tree, ScoringConfig::default());
        let f = parse("present(z)").unwrap();
        assert!(sys.query_closed(&f, 1).is_err());
        let closed = parse("exists z . present(z)").unwrap();
        assert_eq!(
            sys.query_closed(&closed, 1).unwrap().to_tuples(),
            vec![(1, 3, 1.0)]
        );
    }

    #[test]
    fn weighted_scoring_reproduces_chosen_values() {
        // Weights engineered as for the Casablanca Man-Woman predicate.
        let cfg = ScoringConfig::default()
            .with_weight("person", 0.5)
            .with_weight("sex", 0.26)
            .with_weight("near", 3.665);
        let mut b = VideoBuilder::new("t");
        b.set_level_names(["video", "shot"]);
        b.child("s");
        let m = b.object(1, "person", None);
        b.object_attr(m, "sex", AttrValue::from("male"));
        let w = b.object(2, "person", None);
        b.object_attr(w, "sex", AttrValue::from("female"));
        b.relationship("near", [m, w]);
        b.up();
        let tree = b.finish().unwrap();
        let sys = PictureSystem::new(&tree, cfg);
        let f = parse(
            "exists x . exists y . person(x) and person(y) and \
             sex(x) = \"male\" and sex(y) = \"female\" and near(x, y)",
        )
        .unwrap();
        let l = sys.query_closed(&f, 1).unwrap();
        // 0.5 + 0.5 + 0.26 + 0.26 + 3.665 = 5.185... wait: sex weights are
        // both 0.26; total = 0.5*2 + 0.26*2 + 3.665.
        let expect = 0.5 * 2.0 + 0.26 * 2.0 + 3.665;
        assert!((l.value_at(1) - expect).abs() < 1e-9);
        assert!((l.max() - expect).abs() < 1e-9);
    }
}
