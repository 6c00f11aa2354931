//! A collection of videos, as held by a video database.
//!
//! Beyond the frozen-corpus store of §3.1, this module carries the
//! **mutation layer** used by live ingestion: a [`VideoStore`] is now an
//! epoch-versioned collection that absorbs batches of [`CorpusOp`]s
//! (`Ingest`/`Update`/`Remove`) atomically, and a [`CorpusLog`] records
//! those batches so any historical epoch can be rebuilt from scratch —
//! the oracle that the incremental serving stack is differentially
//! tested against.
//!
//! Two invariants keep the rest of the stack simple:
//!
//! * **Ids are never reused.** Removal leaves a tombstone; a later ingest
//!   gets a fresh id. A persisted-and-reloaded store therefore can never
//!   collide a re-added video with cached state for a removed one.
//! * **Batches are all-or-nothing.** `apply` validates the whole batch
//!   against the store *before* mutating anything; a rejected batch
//!   leaves the store bit-identical to its pre-batch state, epoch
//!   included.

use crate::{SegmentId, VideoId, VideoTree};
use serde::{DeError, Deserialize, Serialize, Value};

/// Reference to one segment of one video in a store.
///
/// The retrieval algorithms handle multiple videos "by using two numbers,
/// one of which gives the video id and the other the id of the video segment
/// within the video" (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GlobalSegmentRef {
    /// The video.
    pub video: VideoId,
    /// The segment within that video.
    pub segment: SegmentId,
}

/// A monotonically increasing version of the corpus. Epoch 0 is the store
/// as first built; every applied mutation batch advances it by one.
///
/// Snapshots, picture systems and in-flight queries are stamped with the
/// epoch they were built against, so "never mix epochs" is checkable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CorpusEpoch(pub u64);

impl std::fmt::Display for CorpusEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl CorpusEpoch {
    /// The epoch after this one.
    #[must_use]
    pub fn next(self) -> CorpusEpoch {
        CorpusEpoch(self.0 + 1)
    }
}

/// One corpus mutation.
#[derive(Debug, Clone)]
pub enum CorpusOp {
    /// Add a new video; it receives the next fresh id.
    Ingest(VideoTree),
    /// Replace the content of an existing (live) video, keeping its id.
    Update(VideoId, VideoTree),
    /// Remove a live video. Its id becomes a tombstone and is never reused.
    Remove(VideoId),
}

impl CorpusOp {
    /// A short tag for logs and fault keys.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            CorpusOp::Ingest(_) => "ingest",
            CorpusOp::Update(..) => "update",
            CorpusOp::Remove(_) => "remove",
        }
    }
}

/// Why a mutation batch was rejected. Rejection is all-or-nothing: the
/// store is untouched, still at its pre-batch epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusError {
    /// `Update`/`Remove` named an id that was never allocated.
    UnknownVideo(VideoId),
    /// `Update`/`Remove` named an id that is (or becomes, earlier in the
    /// same batch) a tombstone.
    Removed(VideoId),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::UnknownVideo(v) => write!(f, "unknown video id {}", v.0),
            CorpusError::Removed(v) => write!(f, "video id {} is removed", v.0),
        }
    }
}

impl std::error::Error for CorpusError {}

/// Receipt for one applied batch: the epoch it produced plus the ids it
/// touched, in batch order. The serving layer uses the touched set to
/// invalidate exactly the affected videos' caches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedBatch {
    /// The epoch the store is at after this batch.
    pub epoch: CorpusEpoch,
    /// Ids allocated for `Ingest` ops.
    pub ingested: Vec<VideoId>,
    /// Ids whose content was replaced by `Update` ops.
    pub updated: Vec<VideoId>,
    /// Ids tombstoned by `Remove` ops.
    pub removed: Vec<VideoId>,
}

impl AppliedBatch {
    /// All ids whose cached state must be invalidated: updated and removed
    /// videos. (Ingested videos have no prior cached state.)
    pub fn invalidated(&self) -> impl Iterator<Item = VideoId> + '_ {
        self.updated.iter().chain(self.removed.iter()).copied()
    }
}

/// An in-memory collection of [`VideoTree`]s.
///
/// Slots are `Option` so removal tombstones an id instead of shifting
/// later videos down: ids handed out by [`add`](VideoStore::add) stay
/// stable for the life of the store (and across JSON round-trips).
///
/// A [`VideoTree`] clone copies one pointer, so `clone()` copies one
/// pointer per slot and every clone — a staged batch, a [`CorpusLog`]
/// base, a serving snapshot — shares the trees rather than copying them.
#[derive(Debug, Clone, Default)]
pub struct VideoStore {
    slots: Vec<Option<VideoTree>>,
    epoch: u64,
}

impl VideoStore {
    /// Empty store at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        VideoStore::default()
    }

    /// Adds a video and returns its id. This is construction-time
    /// population: it does not advance the epoch (use
    /// [`apply`](VideoStore::apply) with [`CorpusOp::Ingest`] once the
    /// store is live).
    pub fn add(&mut self, video: VideoTree) -> VideoId {
        let id = VideoId(self.slots.len() as u32);
        self.slots.push(Some(video));
        id
    }

    /// Looks up a video. Panics on a foreign or removed id.
    #[must_use]
    pub fn video(&self, id: VideoId) -> &VideoTree {
        self.slots[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("video id {} is removed", id.0))
    }

    /// Looks up a video if the id is in range and not removed.
    #[must_use]
    pub fn get(&self, id: VideoId) -> Option<&VideoTree> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Whether `id` names a live (allocated, not removed) video.
    #[must_use]
    pub fn contains(&self, id: VideoId) -> bool {
        self.get(id).is_some()
    }

    /// Number of live videos.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Number of ids ever allocated, tombstones included. The next
    /// ingested video receives `VideoId(slot_count)`.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store has no live videos.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The corpus epoch: 0 as built, +1 per applied batch.
    #[must_use]
    pub fn epoch(&self) -> CorpusEpoch {
        CorpusEpoch(self.epoch)
    }

    /// Iterates over all live videos with their ids. Cloning a yielded
    /// tree shares it rather than copying it.
    pub fn iter(&self) -> impl Iterator<Item = (VideoId, &VideoTree)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (VideoId(i as u32), v)))
    }

    /// Applies a mutation batch atomically and advances the epoch.
    ///
    /// The whole batch is validated first (against a simulated view in
    /// which earlier ops in the batch have already taken effect); only a
    /// fully valid batch mutates the store. On error the store is
    /// untouched — same contents, same epoch. An empty batch is valid and
    /// still advances the epoch (every `apply` call is one epoch).
    pub fn apply(&mut self, ops: &[CorpusOp]) -> Result<AppliedBatch, CorpusError> {
        // Phase 1: validate against simulated liveness.
        let mut live: Vec<bool> = self.slots.iter().map(Option::is_some).collect();
        for op in ops {
            match op {
                CorpusOp::Ingest(_) => live.push(true),
                CorpusOp::Update(id, _) => match live.get(id.0 as usize) {
                    None => return Err(CorpusError::UnknownVideo(*id)),
                    Some(false) => return Err(CorpusError::Removed(*id)),
                    Some(true) => {}
                },
                CorpusOp::Remove(id) => match live.get_mut(id.0 as usize) {
                    None => return Err(CorpusError::UnknownVideo(*id)),
                    Some(l @ true) => *l = false,
                    Some(false) => return Err(CorpusError::Removed(*id)),
                },
            }
        }
        // Phase 2: apply. Cannot fail.
        let mut batch = AppliedBatch::default();
        for op in ops {
            match op {
                CorpusOp::Ingest(tree) => {
                    let id = VideoId(self.slots.len() as u32);
                    self.slots.push(Some(tree.clone()));
                    batch.ingested.push(id);
                }
                CorpusOp::Update(id, tree) => {
                    self.slots[id.0 as usize] = Some(tree.clone());
                    batch.updated.push(*id);
                }
                CorpusOp::Remove(id) => {
                    self.slots[id.0 as usize] = None;
                    batch.removed.push(*id);
                }
            }
        }
        self.epoch += 1;
        batch.epoch = CorpusEpoch(self.epoch);
        Ok(batch)
    }
}

// Manual serde impls: the vendored derive has no `#[serde(default)]`, and
// pre-ingestion snapshots on disk have shape `{"videos": [tree, ...]}` with
// no `epoch` and no nulls. Tombstones serialize as `null` array slots
// (`Option`'s encoding), and a missing/null `epoch` reads as 0, so old
// files load unchanged.
impl Serialize for VideoStore {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (String::from("videos"), self.slots.to_value()),
            (String::from("epoch"), self.epoch.to_value()),
        ])
    }
}

impl Deserialize for VideoStore {
    fn from_value(v: &Value) -> Result<VideoStore, DeError> {
        let Value::Object(fields) = v else {
            return Err(DeError::custom(format!(
                "expected object for VideoStore, got {}",
                v.kind()
            )));
        };
        let slots = Vec::<Option<VideoTree>>::from_value(serde::field(fields, "videos"))?;
        let epoch = match serde::field(fields, "epoch") {
            Value::Null => 0,
            e => u64::from_value(e)?,
        };
        Ok(VideoStore { slots, epoch })
    }
}

/// A replayable history of corpus mutations: a base store plus every
/// applied batch, in order.
///
/// The log is the **rebuild oracle** for the incremental serving stack:
/// [`replay_to`](CorpusLog::replay_to) reconstructs the store at any
/// recorded epoch from scratch, and differential tests assert the
/// incremental store answers bit-identically to a fresh build over the
/// replayed store.
#[derive(Debug, Clone, Default)]
pub struct CorpusLog {
    base: VideoStore,
    batches: Vec<Vec<CorpusOp>>,
}

impl CorpusLog {
    /// A log whose history starts at `base` (typically the store as first
    /// built, before any live mutation).
    #[must_use]
    pub fn starting_from(base: VideoStore) -> CorpusLog {
        CorpusLog {
            base,
            batches: Vec::new(),
        }
    }

    /// The epoch of the base store.
    #[must_use]
    pub fn base_epoch(&self) -> CorpusEpoch {
        self.base.epoch()
    }

    /// The epoch after every recorded batch.
    #[must_use]
    pub fn head_epoch(&self) -> CorpusEpoch {
        CorpusEpoch(self.base.epoch + self.batches.len() as u64)
    }

    /// Number of recorded batches.
    #[must_use]
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// Records a batch that was (successfully) applied to the live store.
    /// The caller is responsible for only recording batches that `apply`
    /// accepted; replay re-validates and surfaces any divergence.
    pub fn record(&mut self, ops: &[CorpusOp]) {
        self.batches.push(ops.to_vec());
    }

    /// Applies a batch to `store` and records it on success — the
    /// convenience path that keeps store and log in lock-step.
    pub fn apply(
        &mut self,
        store: &mut VideoStore,
        ops: &[CorpusOp],
    ) -> Result<AppliedBatch, CorpusError> {
        let batch = store.apply(ops)?;
        self.record(ops);
        Ok(batch)
    }

    /// Rebuilds the store at `epoch` from scratch: clone the base, replay
    /// every batch up to and including the one that produced `epoch`.
    ///
    /// # Panics
    /// Panics if `epoch` is outside `[base_epoch, head_epoch]`.
    #[must_use]
    pub fn replay_to(&self, epoch: CorpusEpoch) -> VideoStore {
        assert!(
            epoch >= self.base_epoch() && epoch <= self.head_epoch(),
            "epoch {epoch} outside recorded history [{}, {}]",
            self.base_epoch(),
            self.head_epoch(),
        );
        let mut store = self.base.clone();
        let n = (epoch.0 - self.base.epoch) as usize;
        for ops in &self.batches[..n] {
            store
                .apply(ops)
                .expect("recorded batch must replay cleanly");
        }
        store
    }

    /// Rebuilds the store at the head epoch.
    #[must_use]
    pub fn replay_head(&self) -> VideoStore {
        self.replay_to(self.head_epoch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VideoBuilder;

    fn tiny(title: &str) -> VideoTree {
        let mut b = VideoBuilder::new(title);
        b.leaf("shot");
        b.finish().unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let mut s = VideoStore::new();
        assert!(s.is_empty());
        let a = s.add(tiny("a"));
        let b = s.add(tiny("b"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.video(a).title(), "a");
        assert_eq!(s.video(b).title(), "b");
        assert!(s.get(VideoId(99)).is_none());
        assert_eq!(s.epoch(), CorpusEpoch(0));
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut s = VideoStore::new();
        s.add(tiny("x"));
        s.add(tiny("y"));
        let titles: Vec<&str> = s.iter().map(|(_, v)| v.title()).collect();
        assert_eq!(titles, vec!["x", "y"]);
    }

    #[test]
    fn clone_shares_every_tree() {
        let mut s = VideoStore::new();
        let a = s.add(tiny("a"));
        s.add(tiny("b"));
        s.apply(&[CorpusOp::Remove(a), CorpusOp::Ingest(tiny("c"))])
            .unwrap();
        let c = s.clone();
        assert_eq!(c.slot_count(), s.slot_count());
        assert!(!c.contains(a), "the tombstone is cloned as a tombstone");
        let pairs: Vec<_> = s.iter().zip(c.iter()).collect();
        assert_eq!(pairs.len(), s.len());
        for ((id, tree), (cid, ctree)) in pairs {
            assert_eq!(id, cid);
            assert!(tree.ptr_eq(ctree), "video {} was copied", id.0);
        }
    }

    #[test]
    fn apply_and_record_share_the_callers_tree() {
        let mut s = VideoStore::new();
        let a = s.add(tiny("a"));
        let mut log = CorpusLog::starting_from(s.clone());
        let ingest = tiny("b");
        let update = tiny("a2");
        let ops = [
            CorpusOp::Ingest(ingest.clone()),
            CorpusOp::Update(a, update.clone()),
        ];
        let batch = log.apply(&mut s, &ops).unwrap();
        let b = batch.ingested[0];
        // The store slots, the logged batch and the caller's trees all
        // point at one copy of each video's contents.
        assert!(s.video(b).ptr_eq(&ingest));
        assert!(s.video(a).ptr_eq(&update));
        let [CorpusOp::Ingest(logged_b), CorpusOp::Update(_, logged_a)] = &log.batches[0][..]
        else {
            panic!("the log records the batch as given");
        };
        assert!(logged_b.ptr_eq(&ingest));
        assert!(logged_a.ptr_eq(&update));
        // Replay shares them too.
        assert!(log.replay_head().video(b).ptr_eq(&ingest));
    }

    #[test]
    fn global_refs_order_lexicographically() {
        let r1 = GlobalSegmentRef {
            video: VideoId(0),
            segment: SegmentId(5),
        };
        let r2 = GlobalSegmentRef {
            video: VideoId(1),
            segment: SegmentId(0),
        };
        assert!(r1 < r2);
    }

    #[test]
    fn apply_advances_epoch_and_allocates_fresh_ids() {
        let mut s = VideoStore::new();
        let a = s.add(tiny("a"));
        let batch = s
            .apply(&[
                CorpusOp::Ingest(tiny("b")),
                CorpusOp::Remove(a),
                CorpusOp::Ingest(tiny("c")),
            ])
            .unwrap();
        assert_eq!(batch.epoch, CorpusEpoch(1));
        assert_eq!(batch.ingested, vec![VideoId(1), VideoId(2)]);
        assert_eq!(batch.removed, vec![a]);
        assert_eq!(s.epoch(), CorpusEpoch(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.slot_count(), 3);
        assert!(!s.contains(a));
        // Ids are never reused: a post-removal ingest gets a fresh id.
        let batch = s.apply(&[CorpusOp::Ingest(tiny("d"))]).unwrap();
        assert_eq!(batch.ingested, vec![VideoId(3)]);
        assert_eq!(batch.epoch, CorpusEpoch(2));
    }

    #[test]
    fn update_replaces_content_in_place() {
        let mut s = VideoStore::new();
        let a = s.add(tiny("a"));
        s.apply(&[CorpusOp::Update(a, tiny("a2"))]).unwrap();
        assert_eq!(s.video(a).title(), "a2");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn rejected_batch_is_all_or_nothing() {
        let mut s = VideoStore::new();
        let a = s.add(tiny("a"));
        let before = format!("{s:?}");
        // Second op is invalid (removes a tombstone created by the first);
        // the first op must not have taken effect either.
        let err = s
            .apply(&[CorpusOp::Remove(a), CorpusOp::Remove(a)])
            .unwrap_err();
        assert_eq!(err, CorpusError::Removed(a));
        assert_eq!(format!("{s:?}"), before);
        assert_eq!(s.epoch(), CorpusEpoch(0));
        assert!(s.contains(a));
        // Unknown ids are rejected outright.
        let err = s
            .apply(&[CorpusOp::Ingest(tiny("x")), CorpusOp::Remove(VideoId(9))])
            .unwrap_err();
        assert_eq!(err, CorpusError::UnknownVideo(VideoId(9)));
        assert_eq!(s.slot_count(), 1);
    }

    #[test]
    fn batch_sees_its_own_earlier_ops() {
        let mut s = VideoStore::new();
        let a = s.add(tiny("a"));
        // Update after remove within one batch is invalid.
        let err = s
            .apply(&[CorpusOp::Remove(a), CorpusOp::Update(a, tiny("z"))])
            .unwrap_err();
        assert_eq!(err, CorpusError::Removed(a));
        // Removing a video ingested earlier in the same batch is valid.
        s.apply(&[CorpusOp::Ingest(tiny("b")), CorpusOp::Remove(VideoId(1))])
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.slot_count(), 2);
    }

    #[test]
    fn log_replays_every_epoch() {
        let mut s = VideoStore::new();
        s.add(tiny("a"));
        s.add(tiny("b"));
        let mut log = CorpusLog::starting_from(s.clone());
        log.apply(&mut s, &[CorpusOp::Remove(VideoId(0))]).unwrap();
        log.apply(
            &mut s,
            &[
                CorpusOp::Ingest(tiny("c")),
                CorpusOp::Update(VideoId(1), tiny("b2")),
            ],
        )
        .unwrap();
        assert_eq!(log.head_epoch(), CorpusEpoch(2));
        assert_eq!(log.batch_count(), 2);

        let at0 = log.replay_to(CorpusEpoch(0));
        assert_eq!(at0.len(), 2);
        assert_eq!(at0.epoch(), CorpusEpoch(0));

        let at1 = log.replay_to(CorpusEpoch(1));
        assert_eq!(at1.len(), 1);
        assert!(!at1.contains(VideoId(0)));

        let at2 = log.replay_head();
        assert_eq!(at2.epoch(), s.epoch());
        assert_eq!(at2.len(), 2);
        assert_eq!(at2.video(VideoId(1)).title(), "b2");
        assert_eq!(at2.video(VideoId(2)).title(), "c");
    }

    #[test]
    #[should_panic(expected = "outside recorded history")]
    fn replay_past_head_panics() {
        let log = CorpusLog::starting_from(VideoStore::new());
        let _ = log.replay_to(CorpusEpoch(1));
    }

    #[test]
    fn serde_round_trips_tombstones_and_epoch() {
        let mut s = VideoStore::new();
        let a = s.add(tiny("a"));
        s.add(tiny("b"));
        s.apply(&[CorpusOp::Remove(a), CorpusOp::Ingest(tiny("c"))])
            .unwrap();
        let v = s.to_value();
        let back = VideoStore::from_value(&v).unwrap();
        assert_eq!(back.epoch(), s.epoch());
        assert_eq!(back.slot_count(), s.slot_count());
        assert!(!back.contains(a));
        assert_eq!(back.video(VideoId(2)).title(), "c");
    }

    #[test]
    fn old_epochless_json_loads_at_epoch_zero() {
        let mut s = VideoStore::new();
        s.add(tiny("a"));
        // Simulate a pre-ingestion snapshot: only a `videos` field.
        let Value::Object(fields) = s.to_value() else {
            panic!("store serializes as object")
        };
        let old = Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k == "videos")
                .collect::<Vec<_>>(),
        );
        let back = VideoStore::from_value(&old).unwrap();
        assert_eq!(back.epoch(), CorpusEpoch(0));
        assert_eq!(back.len(), 1);
    }
}
