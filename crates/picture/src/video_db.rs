//! Multi-video retrieval: one query across a whole video database.
//!
//! §3.1: "For the present, we assume that we only have a single video;
//! multiple videos can be handled by using two numbers one of which gives
//! the video id and the other gives the id of the video segment within the
//! video." This module provides that layer: each video is evaluated
//! independently (indices and similarity lists are per video) and the
//! results are merged into one global top-*k* ranking.

use crate::shard::normalize_query;
use crate::{PictureSystem, ScoringConfig};
use simvid_core::{rank_entries, Engine, EngineConfig, EngineError, Sim};
use simvid_htl::Formula;
use simvid_model::{SegmentId, VideoId, VideoStore};

/// One retrieved segment of one video.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The video.
    pub video: VideoId,
    /// The segment within the video.
    pub segment: SegmentId,
    /// 1-based position within the queried level sequence.
    pub pos: u32,
    /// The similarity value.
    pub sim: Sim,
}

/// Which level of each video a query runs on.
#[derive(Debug, Clone)]
pub enum QueryLevel {
    /// A named level ("shot", "frame", …); videos lacking the name are
    /// skipped.
    Named(String),
    /// A 0-based depth; videos shallower than this are skipped.
    Depth(u8),
    /// The deepest level of each video.
    Leaves,
}

/// A video database: a store plus shared scoring and engine configuration.
pub struct VideoDatabase<'a> {
    store: &'a VideoStore,
    scoring: ScoringConfig,
    engine_cfg: EngineConfig,
}

impl<'a> VideoDatabase<'a> {
    /// Wraps a store with default configurations.
    #[must_use]
    pub fn new(store: &'a VideoStore) -> Self {
        VideoDatabase {
            store,
            scoring: ScoringConfig::default(),
            engine_cfg: EngineConfig::default(),
        }
    }

    /// Sets the scoring weights; builder style.
    #[must_use]
    pub fn with_scoring(mut self, scoring: ScoringConfig) -> Self {
        self.scoring = scoring;
        self
    }

    /// Sets the engine configuration; builder style.
    #[must_use]
    pub fn with_engine_config(mut self, cfg: EngineConfig) -> Self {
        self.engine_cfg = cfg;
        self
    }

    /// Evaluates a closed extended-conjunctive query on every video at the
    /// requested level and returns the global top-`k` segments, ranked by
    /// actual similarity (ties: video id, then temporal order).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedFormula`] for general-class or open
    /// formulas; [`EngineError::BadLevel`] if a level modality inside the
    /// query misresolves.
    pub fn retrieve(
        &self,
        query: &Formula,
        level: &QueryLevel,
        k: usize,
    ) -> Result<Vec<Hit>, EngineError> {
        // Users often write quantifiers inline; hoist them to prefix form.
        let query = normalize_query(query)?;
        let mut hits: Vec<Hit> = Vec::new();
        for (vid, tree) in self.store.iter() {
            let depth = match level {
                QueryLevel::Named(name) => match tree.level_by_name(name) {
                    Some(d) => d,
                    None => continue,
                },
                QueryLevel::Depth(d) => {
                    if *d >= tree.depth() {
                        continue;
                    }
                    *d
                }
                QueryLevel::Leaves => tree.leaf_level(),
            };
            let system = PictureSystem::new(tree, self.scoring.clone());
            let engine = Engine::with_config(&system, tree, self.engine_cfg);
            let list = engine.eval_closed_at_level(&query, depth)?;
            let seq = tree.level_sequence(depth);
            for (iv, sim) in rank_entries(&list) {
                for pos in iv.beg..=iv.end {
                    hits.push(Hit {
                        video: vid,
                        segment: seq[pos as usize - 1],
                        pos,
                        sim,
                    });
                }
            }
        }
        hits.sort_by(|a, b| {
            b.sim
                .act
                .partial_cmp(&a.sim.act)
                .expect("similarities are finite")
                .then(a.video.cmp(&b.video))
                .then(a.pos.cmp(&b.pos))
        });
        hits.truncate(k);
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_htl::parse;
    use simvid_model::VideoBuilder;

    fn video_with_shots(title: &str, gun_shots: &[bool]) -> simvid_model::VideoTree {
        let mut b = VideoBuilder::new(title);
        b.set_level_names(["video", "shot"]);
        for (i, &has) in gun_shots.iter().enumerate() {
            b.child(format!("shot{i}"));
            if has {
                let o = b.object(1, "person", None);
                b.relationship("holds_gun", [o]);
            } else {
                b.object(2, "horse", None);
            }
            b.up();
        }
        b.finish().unwrap()
    }

    #[test]
    fn unsupported_queries_are_rejected_with_a_readable_reason() {
        let mut store = VideoStore::new();
        store.add(video_with_shots("a", &[true]));
        let db = VideoDatabase::new(&store);
        let q = parse("not eventually (exists x . holds_gun(x))").unwrap();
        let err = db.retrieve(&q, &QueryLevel::Leaves, 5).unwrap_err();
        assert_eq!(
            err.to_string(),
            "formula not in the extended conjunctive class: multi-video retrieval \
             requires extended conjunctive formulas (even after quantifier hoisting)"
        );
    }

    #[test]
    fn retrieval_merges_and_ranks_across_videos() {
        let mut store = VideoStore::new();
        let v0 = store.add(video_with_shots("a", &[false, true, false]));
        let v1 = store.add(video_with_shots("b", &[true, true]));
        let db = VideoDatabase::new(&store);
        let q = parse("exists x . person(x) and holds_gun(x)").unwrap();
        let hits = db
            .retrieve(&q, &QueryLevel::Named("shot".into()), 10)
            .unwrap();
        // Three exact matches; ties break by video id then position.
        assert_eq!(hits.len(), 3);
        assert_eq!((hits[0].video, hits[0].pos), (v0, 2));
        assert_eq!((hits[1].video, hits[1].pos), (v1, 1));
        assert_eq!((hits[2].video, hits[2].pos), (v1, 2));
        assert!(hits.iter().all(|h| h.sim.is_exact()));
        // Segment ids resolve into the right trees.
        let tree = store.video(v0);
        assert_eq!(tree.node(hits[0].segment).label(), "shot1");
    }

    #[test]
    fn k_truncates_globally() {
        let mut store = VideoStore::new();
        store.add(video_with_shots("a", &[true, true, true]));
        store.add(video_with_shots("b", &[true]));
        let db = VideoDatabase::new(&store);
        let q = parse("exists x . holds_gun(x)").unwrap();
        let hits = db.retrieve(&q, &QueryLevel::Leaves, 2).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn videos_without_the_level_are_skipped() {
        let mut store = VideoStore::new();
        store.add(video_with_shots("flat", &[true]));
        // A deep video with different level names.
        let mut b = VideoBuilder::new("deep");
        b.set_level_names(["video", "scene", "frame"]);
        b.child("scene");
        b.child("frame");
        let o = b.object(1, "person", None);
        b.relationship("holds_gun", [o]);
        b.up();
        b.up();
        let deep = store.add(b.finish().unwrap());
        let db = VideoDatabase::new(&store);
        let q = parse("exists x . holds_gun(x)").unwrap();
        let hits = db
            .retrieve(&q, &QueryLevel::Named("frame".into()), 10)
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].video, deep);
        // Depth(2) only exists in the deep video.
        let hits = db.retrieve(&q, &QueryLevel::Depth(2), 10).unwrap();
        assert_eq!(hits.len(), 1);
        // Leaves hits both.
        let hits = db.retrieve(&q, &QueryLevel::Leaves, 10).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn general_queries_rejected() {
        let mut store = VideoStore::new();
        store.add(video_with_shots("a", &[true]));
        let db = VideoDatabase::new(&store);
        let q = parse("not eventually (exists x . holds_gun(x))").unwrap();
        assert!(db.retrieve(&q, &QueryLevel::Leaves, 5).is_err());
    }

    #[test]
    fn inline_quantifiers_are_hoisted_automatically() {
        let mut store = VideoStore::new();
        store.add(video_with_shots("a", &[false, true]));
        let db = VideoDatabase::new(&store);
        // Written naively with a non-prefix temporal-scope quantifier:
        // General as parsed, type (2) after hoisting.
        let q = parse("true and (exists x . eventually holds_gun(x))").unwrap();
        assert_eq!(simvid_htl::classify(&q), simvid_htl::FormulaClass::General);
        let hits = db.retrieve(&q, &QueryLevel::Leaves, 5).unwrap();
        assert_eq!(hits.len(), 2, "both shots can reach the gun shot");
    }
}
