//! The hierarchy tree of video segments, stored as columns.
//!
//! Segment ids are assigned in construction order and the builder's cursor
//! is a stack, so the ids are a preorder of the tree: a segment's first
//! child, if it has one, is the next id, and each level's temporal sequence
//! lists that level's segments in id order. Sealing relies on this to
//! derive positions, level sequences and child offsets in one pass each.

use crate::{Level, ModelError, ObjectId, ObjectInfo, SegmentId, SegmentMeta};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Marks "no parent" (the root) and "no metadata" in the id-indexed columns.
const NONE: u32 = u32::MAX;

/// The deepest level a segment may sit at, so that [`VideoTree::depth`], a
/// count of levels, fits in a `u8`.
const MAX_LEVEL: u8 = u8::MAX - 1;

/// What every segment without metadata reads: empty metadata costs no
/// storage.
static EMPTY_META: SegmentMeta = SegmentMeta {
    objects: Vec::new(),
    relationships: Vec::new(),
    attrs: BTreeMap::new(),
};

/// The per-segment columns a [`crate::VideoBuilder`] writes, indexed by
/// segment id.
#[derive(Debug, Default)]
pub(crate) struct Columns {
    /// Parent id, or `NONE` for the root.
    parent: Vec<u32>,
    /// Depth (root = 0).
    level: Vec<u8>,
    /// Every label, concatenated. Segment `i`'s label ends at
    /// `label_end[i]` and starts where segment `i - 1`'s ends.
    labels: String,
    label_end: Vec<u32>,
    /// Index into `metas`, or `NONE` for empty metadata.
    meta_slot: Vec<u32>,
    /// The non-empty metadata, in the order segments first got some.
    metas: Vec<SegmentMeta>,
}

impl Columns {
    /// Columns holding only the root segment.
    pub(crate) fn with_root(label: &str) -> Columns {
        let mut cols = Columns::default();
        cols.push(NONE, Level::ROOT, label);
        cols
    }

    fn push(&mut self, parent: u32, level: Level, label: &str) -> SegmentId {
        let id = u32::try_from(self.parent.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("a video holds fewer than 2^32 - 1 segments");
        self.parent.push(parent);
        self.level.push(level.0);
        self.labels.push_str(label);
        self.label_end.push(
            u32::try_from(self.labels.len()).expect("a video's labels total less than 4 GiB"),
        );
        self.meta_slot.push(NONE);
        SegmentId(id)
    }

    /// Appends a child of `parent` as the next id, one level below it.
    /// Panics if `parent` is at [`MAX_LEVEL`].
    pub(crate) fn push_child(&mut self, parent: SegmentId, label: &str) -> SegmentId {
        let level = self.level(parent);
        assert!(level.0 < MAX_LEVEL, "a video has at most 255 levels");
        self.push(parent.0, level.child(), label)
    }

    fn level(&self, id: SegmentId) -> Level {
        Level(self.level[id.0 as usize])
    }

    fn label(&self, id: SegmentId) -> &str {
        let i = id.0 as usize;
        let start = if i == 0 { 0 } else { self.label_end[i - 1] };
        &self.labels[start as usize..self.label_end[i] as usize]
    }

    fn meta(&self, id: SegmentId) -> &SegmentMeta {
        match self.meta_slot[id.0 as usize] {
            NONE => &EMPTY_META,
            slot => &self.metas[slot as usize],
        }
    }

    /// The metadata of `id` for writing; the first write gives it a slot.
    pub(crate) fn meta_mut(&mut self, id: SegmentId) -> &mut SegmentMeta {
        let slot = &mut self.meta_slot[id.0 as usize];
        if *slot == NONE {
            *slot = self.metas.len() as u32;
            self.metas.push(SegmentMeta::new());
        }
        &mut self.metas[*slot as usize]
    }

    fn len(&self) -> usize {
        self.parent.len()
    }
}

/// A single video: a tree of segments with uniform leaf depth, plus the
/// registry of tracked objects appearing anywhere in the video.
///
/// A sealed tree is immutable, so its contents sit behind one [`Arc`]:
/// `clone()` copies a pointer, and a store, a mutation log, a batch and
/// every serving snapshot holding the same video share one copy. The
/// contents are columns indexed by segment id (parent, level, position,
/// label, metadata) plus per-level sequences and child offsets;
/// [`VideoTree::node`] returns a [`SegmentRef`] view onto them. The JSON
/// form lists one object per segment (see the `Serialize` impl).
#[derive(Debug, Clone)]
pub struct VideoTree {
    data: Arc<TreeData>,
}

/// The contents of a [`VideoTree`].
#[derive(Debug)]
pub(crate) struct TreeData {
    title: String,
    /// Optional level names, indexed by depth ("video", "scene", "shot", …).
    level_names: Vec<Option<String>>,
    objects: BTreeMap<ObjectId, ObjectInfo>,
    cols: Columns,
    /// 0-based position of each segment within its level's sequence.
    pos: Vec<u32>,
    /// Per-level temporal sequences of segment ids.
    levels: Vec<Vec<SegmentId>>,
    /// Child offsets of each non-leaf level, indexed by position: the
    /// children of the segment at position `p` of level `d` are
    /// `levels[d + 1][child_offsets[d][p]..child_offsets[d][p + 1]]`.
    child_offsets: Vec<Vec<u32>>,
}

impl TreeData {
    /// Validates structural invariants and derives the positions, level
    /// sequences and child offsets. Called by [`crate::VideoBuilder::finish`]
    /// and when reading JSON.
    pub(crate) fn seal(
        title: String,
        level_names: Vec<Option<String>>,
        objects: BTreeMap<ObjectId, ObjectInfo>,
        cols: Columns,
    ) -> Result<VideoTree, ModelError> {
        // Relationship arguments must be registered objects.
        for meta in &cols.metas {
            for rel in &meta.relationships {
                if let Some(&arg) = rel.args.iter().find(|a| !objects.contains_key(a)) {
                    return Err(ModelError::UnknownObject(arg));
                }
            }
        }
        let n = cols.len();
        let Some(&leaf) = cols.level.iter().max() else {
            return Err(ModelError::EmptyVideo);
        };
        // Uniform leaf depth. In preorder, a segment is a leaf exactly when
        // the next id is not its child.
        let has_child = |i: usize| cols.parent.get(i + 1) == Some(&(i as u32));
        if (0..n).any(|i| !has_child(i) && cols.level[i] != leaf) {
            return Err(ModelError::NonUniformLeafDepth);
        }
        let mut widths = vec![0usize; usize::from(leaf) + 1];
        for &l in &cols.level {
            widths[usize::from(l)] += 1;
        }
        let mut levels: Vec<Vec<SegmentId>> =
            widths.iter().map(|&w| Vec::with_capacity(w)).collect();
        let mut pos = Vec::with_capacity(n);
        for (i, &l) in cols.level.iter().enumerate() {
            let seq = &mut levels[usize::from(l)];
            pos.push(seq.len() as u32);
            seq.push(SegmentId(i as u32));
        }
        // Children of consecutive segments are consecutive one level down,
        // so counting each segment's children and summing gives offsets.
        let mut child_offsets: Vec<Vec<u32>> = widths[..usize::from(leaf)]
            .iter()
            .map(|&w| vec![0; w + 1])
            .collect();
        for &p in &cols.parent[1..] {
            let p = p as usize;
            child_offsets[usize::from(cols.level[p])][pos[p] as usize + 1] += 1;
        }
        for offsets in &mut child_offsets {
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
        }
        Ok(VideoTree {
            data: Arc::new(TreeData {
                title,
                level_names,
                objects,
                cols,
                pos,
                levels,
                child_offsets,
            }),
        })
    }

    /// `id`'s span at its own level, then at each level below, found by
    /// walking its first and last children down the child offsets.
    fn spans(&self, id: SegmentId) -> impl Iterator<Item = (u32, u32)> + '_ {
        let p = self.pos[id.0 as usize];
        let mut below = self.child_offsets[usize::from(self.cols.level(id).0)..].iter();
        std::iter::successors(Some((p, p + 1)), move |&(lo, hi)| {
            below
                .next()
                .map(|offsets| (offsets[lo as usize], offsets[hi as usize]))
        })
    }

    fn span(&self, id: SegmentId, depth: u8) -> Option<(u32, u32)> {
        let below = depth.checked_sub(self.cols.level(id).0)?;
        self.spans(id).nth(usize::from(below))
    }

    fn descendants(&self, id: SegmentId, depth: u8) -> &[SegmentId] {
        match self.span(id, depth) {
            Some((lo, hi)) => &self.levels[usize::from(depth)][lo as usize..hi as usize],
            None => &[],
        }
    }
}

/// One segment of a [`VideoTree`]: a copyable view onto the tree's
/// columns, returned by [`VideoTree::node`].
#[derive(Clone, Copy)]
pub struct SegmentRef<'a> {
    tree: &'a TreeData,
    id: SegmentId,
}

impl<'a> SegmentRef<'a> {
    /// This segment's id.
    #[must_use]
    pub fn id(self) -> SegmentId {
        self.id
    }

    /// Parent segment, `None` for the root.
    #[must_use]
    pub fn parent(self) -> Option<SegmentId> {
        match self.tree.cols.parent[self.id.0 as usize] {
            NONE => None,
            p => Some(SegmentId(p)),
        }
    }

    /// Children in temporal order.
    #[must_use]
    pub fn children(self) -> &'a [SegmentId] {
        match self.level().0.checked_add(1) {
            Some(below) => self.tree.descendants(self.id, below),
            None => &[],
        }
    }

    /// Depth of this segment (root = `Level(0)`).
    #[must_use]
    pub fn level(self) -> Level {
        self.tree.cols.level(self.id)
    }

    /// Human-readable label ("scene 3", "bombing of airfields", …).
    #[must_use]
    pub fn label(self) -> &'a str {
        self.tree.cols.label(self.id)
    }

    /// Meta-data describing the segment contents.
    #[must_use]
    pub fn meta(self) -> &'a SegmentMeta {
        self.tree.cols.meta(self.id)
    }

    /// 0-based position within this segment's level sequence.
    #[must_use]
    pub fn position(self) -> u32 {
        self.tree.pos[self.id.0 as usize]
    }
}

impl fmt::Debug for SegmentRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentRef")
            .field("id", &self.id)
            .field("level", &self.level())
            .field("label", &self.label())
            .finish()
    }
}

// The JSON form is one object per segment, as when segments were stored
// as such objects; the derived fields (`children`, `pos`, `spans`,
// `levels`) are written out and checked on reading.
impl Serialize for VideoTree {
    fn to_value(&self) -> Value {
        let t = &*self.data;
        let nodes = (0..t.cols.len() as u32)
            .map(|i| {
                let s = self.node(SegmentId(i));
                Value::Object(vec![
                    ("id".into(), s.id().to_value()),
                    ("parent".into(), s.parent().to_value()),
                    ("children".into(), s.children().to_value()),
                    ("level".into(), s.level().to_value()),
                    ("label".into(), s.label().to_value()),
                    ("meta".into(), s.meta().to_value()),
                    ("pos".into(), s.position().to_value()),
                    (
                        "spans".into(),
                        t.spans(s.id()).collect::<Vec<_>>().to_value(),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("title".into(), t.title.to_value()),
            ("nodes".into(), Value::Array(nodes)),
            ("level_names".into(), t.level_names.to_value()),
            ("objects".into(), t.objects.to_value()),
            ("levels".into(), t.levels.to_value()),
        ])
    }
}

/// The JSON form of a [`VideoTree`].
#[derive(Deserialize)]
struct TreeRecord {
    title: String,
    nodes: Vec<NodeRecord>,
    level_names: Vec<Option<String>>,
    objects: BTreeMap<ObjectId, ObjectInfo>,
    levels: Vec<Vec<SegmentId>>,
}

/// The JSON form of one segment.
#[derive(Deserialize)]
struct NodeRecord {
    id: SegmentId,
    parent: Option<SegmentId>,
    children: Vec<SegmentId>,
    level: Level,
    label: String,
    meta: SegmentMeta,
    pos: u32,
    spans: Vec<(u32, u32)>,
}

// Reading replays the segments through the builder's cursor, in id order,
// so a file whose parent links are not a preorder is rejected; the stored
// derived fields must then match the sealed tree's.
impl Deserialize for VideoTree {
    fn from_value(v: &Value) -> Result<VideoTree, DeError> {
        let mut rec = TreeRecord::from_value(v)?;
        let bad = |i: usize, what: &str| DeError::custom(format!("segment {i}: {what}"));
        let Some(root) = rec.nodes.first() else {
            return Err(DeError::custom(ModelError::EmptyVideo.to_string()));
        };
        let mut cols = Columns::with_root(&root.label);
        let mut cursor = vec![SegmentId(0)];
        for (i, n) in rec.nodes.iter_mut().enumerate() {
            if n.id.0 as usize != i {
                return Err(bad(i, "ids must be 0, 1, 2, … in order"));
            }
            let id = match (i, n.parent) {
                (0, None) => n.id,
                (0, Some(_)) => return Err(bad(i, "the root has a parent")),
                (_, None) => return Err(bad(i, "a second root")),
                (_, Some(p)) => {
                    while cursor.last().is_some_and(|&top| top != p) {
                        cursor.pop();
                    }
                    if cursor.is_empty() {
                        return Err(bad(i, "parent is not an ancestor of the previous segment"));
                    }
                    if cols.level(p).0 == MAX_LEVEL {
                        return Err(bad(i, "deeper than 255 levels"));
                    }
                    let id = cols.push_child(p, &n.label);
                    cursor.push(id);
                    id
                }
            };
            if n.meta != EMPTY_META {
                *cols.meta_mut(id) = std::mem::take(&mut n.meta);
            }
        }
        let tree = TreeData::seal(rec.title, rec.level_names, rec.objects, cols)
            .map_err(|e| DeError::custom(e.to_string()))?;
        for (i, n) in rec.nodes.iter().enumerate() {
            let s = tree.node(n.id);
            if n.level != s.level()
                || n.children != s.children()
                || n.pos != s.position()
                || !n.spans.iter().copied().eq(tree.data.spans(n.id))
            {
                return Err(bad(
                    i,
                    "stored level, children, pos or spans disagree with the parents",
                ));
            }
        }
        if rec.levels != tree.data.levels {
            return Err(DeError::custom(
                "stored level sequences disagree with the parents",
            ));
        }
        Ok(tree)
    }
}

impl VideoTree {
    /// Whether `self` and `other` share one copy of their contents (one is
    /// a clone of the other).
    #[must_use]
    pub fn ptr_eq(&self, other: &VideoTree) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// How many handles share this tree's contents, `self` included. A
    /// caller holding the only handle knows nothing else keeps the tree
    /// alive.
    #[must_use]
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// The video's title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.data.title
    }

    /// The root segment (the whole video).
    #[must_use]
    pub fn root(&self) -> SegmentRef<'_> {
        self.node(SegmentId(0))
    }

    /// Looks up a segment by id. Panics on an id not from this tree.
    #[must_use]
    pub fn node(&self, id: SegmentId) -> SegmentRef<'_> {
        assert!(
            (id.0 as usize) < self.data.cols.len(),
            "segment {id} is not in this tree"
        );
        SegmentRef {
            tree: &self.data,
            id,
        }
    }

    /// Number of levels in the hierarchy (root counts as one).
    #[must_use]
    pub fn depth(&self) -> u8 {
        self.data.levels.len() as u8
    }

    /// The deepest level (where the frames / atomic segments live).
    #[must_use]
    pub fn leaf_level(&self) -> u8 {
        self.depth() - 1
    }

    /// The temporal sequence of all segments at a level (0-based depth).
    ///
    /// Returns an empty slice for a depth beyond the tree.
    #[must_use]
    pub fn level_sequence(&self, depth: u8) -> &[SegmentId] {
        self.data
            .levels
            .get(usize::from(depth))
            .map_or(&[], Vec::as_slice)
    }

    /// Name of a level, if one was assigned ("scene", "shot", …).
    #[must_use]
    pub fn level_name(&self, depth: u8) -> Option<&str> {
        self.data
            .level_names
            .get(usize::from(depth))
            .and_then(|n| n.as_deref())
    }

    /// Finds the depth of a named level (case-insensitive).
    #[must_use]
    pub fn level_by_name(&self, name: &str) -> Option<u8> {
        self.data.level_names.iter().enumerate().find_map(|(d, n)| {
            n.as_deref()
                .filter(|n| n.eq_ignore_ascii_case(name))
                .map(|_| d as u8)
        })
    }

    /// The contiguous range of positions (0-based, half-open) that the
    /// descendants of `id` occupy within the sequence of level `depth`.
    /// Costs one step per level between the two.
    ///
    /// Returns `None` if `depth` is above the node's level or the node has
    /// no descendants that deep.
    #[must_use]
    pub fn descendant_span(&self, id: SegmentId, depth: u8) -> Option<(u32, u32)> {
        self.data.span(self.node(id).id, depth)
    }

    /// The descendants of `id` at `depth`, in temporal order.
    #[must_use]
    pub fn descendants_at_level(&self, id: SegmentId, depth: u8) -> &[SegmentId] {
        self.data.descendants(self.node(id).id, depth)
    }

    /// 1-based temporal position of a segment within its level sequence, as
    /// used by the retrieval algorithms (the paper numbers segments from 1).
    #[must_use]
    pub fn position_at_level(&self, id: SegmentId) -> u32 {
        self.node(id).position() + 1
    }

    /// Registry information about an object.
    #[must_use]
    pub fn object_info(&self, id: ObjectId) -> Option<&ObjectInfo> {
        self.data.objects.get(&id)
    }

    /// All object ids known to this video, in ascending order.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.data.objects.keys().copied()
    }

    /// All objects with registry info, in ascending id order.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, &ObjectInfo)> + '_ {
        self.data.objects.iter().map(|(k, v)| (*k, v))
    }

    /// Total number of segments in the video.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.data.cols.len()
    }

    /// Convenience: meta-data of the segment at a 0-based position within a
    /// level sequence.
    #[must_use]
    pub fn meta_at(&self, depth: u8, pos: u32) -> Option<&SegmentMeta> {
        self.level_sequence(depth)
            .get(pos as usize)
            .map(|&id| self.data.cols.meta(id))
    }
}

#[cfg(test)]
mod tests {
    use crate::{AttrValue, VideoBuilder};

    /// Builds a 3-level tree: root -> 2 scenes -> (3, 2) shots.
    fn sample() -> crate::VideoTree {
        let mut b = VideoBuilder::new("t");
        b.set_level_names(["video", "scene", "shot"]);
        b.child("scene0");
        for i in 0..3 {
            b.child(format!("shot0.{i}"));
            b.up();
        }
        b.up();
        b.child("scene1");
        for i in 0..2 {
            b.child(format!("shot1.{i}"));
            b.up();
        }
        b.up();
        b.finish().unwrap()
    }

    #[test]
    fn level_sequences_have_expected_sizes() {
        let t = sample();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.level_sequence(0).len(), 1);
        assert_eq!(t.level_sequence(1).len(), 2);
        assert_eq!(t.level_sequence(2).len(), 5);
        assert_eq!(t.level_sequence(3).len(), 0);
    }

    #[test]
    fn level_sequence_is_temporal() {
        let t = sample();
        let labels: Vec<&str> = t
            .level_sequence(2)
            .iter()
            .map(|&id| t.node(id).label())
            .collect();
        assert_eq!(
            labels,
            vec!["shot0.0", "shot0.1", "shot0.2", "shot1.0", "shot1.1"]
        );
    }

    #[test]
    fn descendant_spans_are_contiguous() {
        let t = sample();
        let scenes = t.level_sequence(1).to_vec();
        assert_eq!(t.descendant_span(scenes[0], 2), Some((0, 3)));
        assert_eq!(t.descendant_span(scenes[1], 2), Some((3, 5)));
        assert_eq!(t.descendant_span(t.root().id(), 2), Some((0, 5)));
        assert_eq!(t.descendant_span(t.root().id(), 1), Some((0, 2)));
        // A node spans itself at its own level.
        assert_eq!(t.descendant_span(scenes[1], 1), Some((1, 2)));
        // Above its own level: None.
        assert_eq!(t.descendant_span(scenes[1], 0), None);
    }

    #[test]
    fn positions_are_one_based() {
        let t = sample();
        let shots = t.level_sequence(2).to_vec();
        assert_eq!(t.position_at_level(shots[0]), 1);
        assert_eq!(t.position_at_level(shots[4]), 5);
    }

    #[test]
    fn level_names_resolve_case_insensitively() {
        let t = sample();
        assert_eq!(t.level_by_name("Scene"), Some(1));
        assert_eq!(t.level_by_name("SHOT"), Some(2));
        assert_eq!(t.level_by_name("frame"), None);
        assert_eq!(t.level_name(1), Some("scene"));
    }

    #[test]
    fn non_uniform_leaf_depth_rejected() {
        let mut b = VideoBuilder::new("bad");
        b.child("scene");
        b.child("shot");
        b.up();
        b.up();
        b.child("lonely-scene-leaf");
        b.up();
        assert!(matches!(
            b.finish(),
            Err(crate::ModelError::NonUniformLeafDepth)
        ));
    }

    #[test]
    fn two_level_video_positions() {
        let mut b = VideoBuilder::new("flat");
        for i in 0..50 {
            b.child(format!("shot{i}"));
            b.segment_attr("idx", AttrValue::Int(i));
            b.up();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.level_sequence(1).len(), 50);
        let id10 = t.level_sequence(1)[9];
        assert_eq!(t.position_at_level(id10), 10);
        assert_eq!(
            t.meta_at(1, 9).unwrap().segment_attr("idx"),
            Some(&AttrValue::Int(9))
        );
    }

    #[test]
    fn descendants_at_level_slices() {
        let t = sample();
        let root = t.root().id();
        assert_eq!(t.descendants_at_level(root, 2).len(), 5);
        let scene1 = t.level_sequence(1)[1];
        let d = t.descendants_at_level(scene1, 2);
        assert_eq!(d.len(), 2);
        assert_eq!(t.node(d[0]).label(), "shot1.0");
    }

    #[test]
    fn the_deepest_tree_counts_its_levels_in_a_u8() {
        let mut b = VideoBuilder::new("deep");
        for d in 1..=254 {
            b.child(format!("d{d}"));
        }
        let t = b.finish().unwrap();
        assert_eq!(t.depth(), 255);
        assert_eq!(t.leaf_level(), 254);
        assert_eq!(t.descendant_span(t.root().id(), 254), Some((0, 1)));
    }

    #[test]
    #[should_panic(expected = "at most 255 levels")]
    fn a_256th_level_is_refused() {
        let mut b = VideoBuilder::new("too deep");
        for d in 1..=255 {
            b.child(format!("d{d}"));
        }
    }
}
