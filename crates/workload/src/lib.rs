//! Datasets and workload generators for the reproduction:
//!
//! * [`casablanca`] — a synthetic stand-in for the paper's real test video
//!   ("The Making of Casablanca", 50 shots after cut detection). The
//!   meta-data and scoring weights are crafted so that the picture
//!   retrieval system emits **exactly** the similarity tables the paper
//!   prints (Tables 1 and 2), making every downstream number (Tables 3
//!   and 4) reproducible end to end.
//! * [`randomlists`] — seeded random similarity lists matching the §4.2
//!   setup ("randomly generated data … about one tenth of these shots
//!   satisfy the atomic predicates").
//! * [`randomvideo`] — seeded random video hierarchies with meta-data, for
//!   end-to-end and differential testing.
//! * [`gulfwar`] — the §2.1 Gulf-war hierarchy (sub-plots → scenes →
//!   shots) with the narrative queries that motivate the level modal
//!   operators.
//! * [`queries`] — the paper's example formulas (A), (B), (C), Query 1 and
//!   the performance-comparison formulas.
//! * [`serve`] — a repeated-traffic serving workload (Zipf-skewed top-`k`
//!   requests over a fixed query pool), for the cross-query cache, with
//!   its one runner and the worker pool every runner here serves through.
//! * [`shard`] — the same traffic over a multi-video corpus served by a
//!   sharded, replicated `LiveVideoDb`, with [`churn`]'s mutation batches
//!   optionally interleaved; one runner drives it.

pub mod casablanca;
pub mod churn;
pub mod gulfwar;
pub mod queries;
pub mod randomlists;
pub mod randomtables;
pub mod randomvideo;
pub mod serve;
pub mod shard;
