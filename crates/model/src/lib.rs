//! Hierarchical video data model for similarity-based video retrieval.
//!
//! This crate implements the data model of Sistla, Yu & Venkatasubrahmanian,
//! *Similarity Based Retrieval of Videos* (ICDE 1997), §2.1:
//!
//! * A video is a **tree of video segments**. Each level of the tree is a
//!   temporally ordered sequence of segments that decomposes the level above
//!   (video → sub-plots → scenes → shots → frames). All leaves lie at the
//!   same depth.
//! * Every segment carries **meta-data** in an extended E-R style: the
//!   objects present in the segment, their per-segment attribute values,
//!   named relationships among objects, and segment-level attributes
//!   (title, type, …).
//! * Objects have globally unique [`ObjectId`]s: the *same* object appearing
//!   in different segments carries the same id (the paper assumes object
//!   tracking makes this possible).
//!
//! The model is deliberately independent of any query language; the
//! `simvid-picture`, `simvid-htl` and `simvid-core` crates build retrieval
//! on top of it.
//!
//! # Example
//!
//! ```
//! use simvid_model::{VideoBuilder, AttrValue};
//!
//! let mut b = VideoBuilder::new("demo");
//! b.set_level_names(["video", "shot"]);
//! b.segment_attr("type", AttrValue::from("western"));
//! for i in 0..3 {
//!     b.child(format!("shot{i}"));
//!     let hero = b.object(1, "person", Some("John Wayne"));
//!     b.object_attr(hero, "mood", AttrValue::from("calm"));
//!     b.up();
//! }
//! let video = b.finish().unwrap();
//! assert_eq!(video.leaf_level(), 1);
//! assert_eq!(video.level_sequence(1).len(), 3);
//! ```

mod builder;
mod error;
mod ids;
mod meta;
mod object;
mod store;
mod tree;
mod value;

pub use builder::VideoBuilder;
pub use error::ModelError;
pub use ids::{Level, ObjectId, SegmentId, VideoId};
pub use meta::{Relationship, SegmentMeta};
pub use object::{ObjectInfo, ObjectInstance};
pub use store::{
    AppliedBatch, CorpusEpoch, CorpusError, CorpusLog, CorpusOp, GlobalSegmentRef, VideoStore,
};
pub use tree::{SegmentRef, VideoTree};
pub use value::AttrValue;
