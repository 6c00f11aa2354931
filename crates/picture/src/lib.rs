//! Similarity-based picture retrieval — the substrate the paper's video
//! retrieval system is built on (the systems of Sistla & Yu, VLDB '95, and
//! Aslandogan et al., ICDE '95, reimplemented from their published
//! descriptions).
//!
//! The picture system answers *atomic* (non-temporal) queries on the
//! meta-data of individual video segments, returning **similarity tables**:
//! for each evaluation of the query's free object variables (and each range
//! of its free attribute variables), the list of segments with non-zero
//! similarity.
//!
//! Similarity is a weighted partial match: each conjunct of the query
//! carries a weight (configurable per predicate via [`ScoringConfig`]); a
//! binding's actual similarity at a segment is the sum of the weights of
//! the satisfied conjuncts, and the maximum similarity is the sum of all
//! weights. Existential quantifiers inside the query are maximised over
//! jointly. Candidate segments come from inverted indices over the
//! meta-data (presence, classes, relationships, attributes), so segments
//! that cannot match any conjunct are never touched.
//!
//! [`PictureSystem`] implements [`simvid_core::AtomicProvider`], plugging
//! directly into the video retrieval engine.
//!
//! # Example
//!
//! ```
//! use simvid_model::VideoBuilder;
//! use simvid_picture::{PictureSystem, ScoringConfig};
//! use simvid_htl::parse;
//!
//! let mut b = VideoBuilder::new("demo");
//! b.set_level_names(["video", "shot"]);
//! b.child("shot0");
//! let man = b.object(1, "person", Some("Rick"));
//! let woman = b.object(2, "person", Some("Ilsa"));
//! b.relationship("near", [man, woman]);
//! b.up();
//! b.leaf("shot1");
//! let tree = b.finish().unwrap();
//!
//! let system = PictureSystem::new(&tree, ScoringConfig::default());
//! let f = parse("exists x . exists y . person(x) and person(y) and near(x, y)").unwrap();
//! let table = system.query(&f, 1).unwrap();
//! assert_eq!(table.rows.len(), 1);
//! // Shot 1 matches fully: 3 conjuncts of weight 1.
//! assert_eq!(table.rows[0].list.to_tuples(), vec![(1, 1, 3.0)]);
//! ```

mod cache;
mod config;
mod index;
mod live;
mod provider;
mod query;
mod replica;
mod score;
mod shard;
mod video_db;

pub use cache::CacheConfig;
pub use config::ScoringConfig;
pub use index::LevelIndex;
pub use live::{ApplyError, LiveConfig, LivePin, LiveVideoDb};
pub use provider::PictureSystem;
pub use query::{AtomicQuery, Conjunct, ConjunctKind, QueryError};
pub use replica::{FaultTarget, ReplicaId};
pub use shard::{shard_of, PreparedQuery, ShardId, ShardedAnswer, ShardedDegraded, ShardedTopK};
pub use video_db::{Hit, QueryLevel, VideoDatabase};
