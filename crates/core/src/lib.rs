//! Similarity-based retrieval of videos — the core algorithms of Sistla,
//! Yu & Venkatasubrahmanian, *Similarity Based Retrieval of Videos*
//! (ICDE 1997), §2.5 and §3.
//!
//! The heart of the paper is a **similarity semantics** for HTL: for each
//! video segment and formula, a pair `(a, m)` with `a ≤ m` — the actual and
//! maximum similarity — whose ratio `a/m` is the *fractional similarity*.
//! Retrieval returns the top-`k` segments by similarity.
//!
//! The efficient representation is the **similarity list**
//! ([`SimilarityList`]): a sorted list of disjoint segment-id intervals
//! `[beg, end]` with their actual similarity values (ids absent from the
//! list have similarity zero). This crate implements:
//!
//! * the interval-list algebra: conjunction (sum-merge, `O(l₁+l₂)`),
//!   `next` (shift), `until` (the backward merge of §3.1, `O(l₁+l₂)`),
//!   `eventually` (suffix max), and k-way max-merge (`O(l log m)`) for
//!   collapsing existential quantifiers — see [`list`];
//! * **similarity tables** ([`SimilarityTable`]) for type (2) and
//!   conjunctive formulas: one row per object-variable evaluation (plus
//!   attribute-variable ranges), combined by natural join — see [`table`];
//! * **value tables** ([`ValueTable`]) and the freeze-quantifier join for
//!   full conjunctive formulas — see [`valuetable`];
//! * the recursive [`Engine`] that evaluates any extended conjunctive HTL
//!   formula over a [`simvid_model::VideoTree`], delegating atomic units to
//!   an [`AtomicProvider`] (the picture retrieval system);
//! * top-`k` ranked retrieval ([`topk`]).
//!
//! # Example: the paper's Figure 2
//!
//! ```
//! use simvid_core::{SimilarityList, list};
//!
//! // L1 (the `g` of `g until h`), already thresholded: values irrelevant.
//! let l1 = SimilarityList::from_tuples(vec![(25, 100, 1.0), (200, 250, 1.0)], 1.0).unwrap();
//! let l2 = SimilarityList::from_tuples(
//!     vec![(10, 50, 10.0), (55, 60, 15.0), (90, 110, 12.0), (125, 175, 10.0)],
//!     20.0,
//! )
//! .unwrap();
//! let out = list::until(&l1, &l2, 0.0);
//! assert_eq!(
//!     out.to_tuples(),
//!     vec![(10, 24, 10.0), (25, 60, 15.0), (61, 110, 12.0), (125, 175, 10.0)]
//! );
//! ```

pub mod budget;
pub mod engine;
mod error;
mod interval;
pub mod list;
pub mod memo;
mod plan;
pub mod prune;
mod range;
mod sim;
pub mod table;
pub mod topk;
pub mod valuetable;

pub use budget::Budget;
pub use engine::{
    AtomicProvider, CacheStats, Engine, EngineConfig, EngineHandles, EvalStats, SeqContext,
};
pub use error::{EngineError, ProviderError};
pub use interval::{Interval, SegPos};
pub use list::{ConjunctionSemantics, SimilarityList};
pub use memo::{MemoCache, MemoKey};
pub use plan::Plan;
pub use range::AttrRange;
pub use sim::Sim;
pub use table::{Row, SimilarityTable};
pub use topk::{
    global_rank, merge_shard_streams, rank_entries, retrieve_above, top_k, DegradedAnswer,
    MergeStats, RankedSegment, ShardHit, ShardStream, TopKAnswer,
};
pub use valuetable::{ValueRow, ValueTable};
