//! The hierarchy tree of video segments.

use crate::{Level, ModelError, ObjectId, ObjectInfo, SegmentId, SegmentMeta};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One node of the hierarchy: a video segment at some level, its children at
/// the next level, and its meta-data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SegmentNode {
    /// Arena id of this node.
    pub id: SegmentId,
    /// Parent node, `None` for the root.
    pub parent: Option<SegmentId>,
    /// Children in temporal order.
    pub children: Vec<SegmentId>,
    /// Depth of this node (root = `Level(0)`).
    pub level: Level,
    /// Human-readable label ("scene 3", "bombing of airfields", …).
    pub label: String,
    /// Meta-data describing the segment contents.
    pub meta: SegmentMeta,
    /// 0-based position of this node within the temporal sequence of *all*
    /// nodes at its level.
    pub(crate) pos: u32,
    /// For each depth `d >= level`, the half-open range of positions the
    /// descendants of this node occupy within level `d`'s sequence.
    /// Indexed by `d - level.0`.
    pub(crate) spans: Vec<(u32, u32)>,
}

impl SegmentNode {
    /// 0-based position within this node's level sequence.
    #[must_use]
    pub fn position(&self) -> u32 {
        self.pos
    }
}

/// A single video: a tree of segments with uniform leaf depth, plus the
/// registry of tracked objects appearing anywhere in the video.
///
/// A sealed tree is immutable, so its contents sit behind one [`Arc`]:
/// `clone()` copies a pointer, and a store, a mutation log, a batch and
/// every serving snapshot holding the same video share one copy. The
/// JSON form is the contents' own (see the `Serialize` impl).
#[derive(Debug, Clone)]
pub struct VideoTree {
    data: Arc<TreeData>,
}

/// The contents of a [`VideoTree`].
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct TreeData {
    pub(crate) title: String,
    pub(crate) nodes: Vec<SegmentNode>,
    /// Optional level names, indexed by depth ("video", "scene", "shot", …).
    pub(crate) level_names: Vec<Option<String>>,
    pub(crate) objects: BTreeMap<ObjectId, ObjectInfo>,
    /// Per-level temporal sequences of node ids.
    pub(crate) levels: Vec<Vec<SegmentId>>,
}

// Serde forwards to the contents, so the JSON shape and bytes are those
// of the plain struct the tree used to be.
impl Serialize for VideoTree {
    fn to_value(&self) -> Value {
        self.data.to_value()
    }
}

impl Deserialize for VideoTree {
    fn from_value(v: &Value) -> Result<VideoTree, DeError> {
        TreeData::from_value(v).map(|data| VideoTree {
            data: Arc::new(data),
        })
    }
}

impl TreeData {
    /// Validates structural invariants and computes the derived level
    /// sequences and span tables. Called by [`crate::VideoBuilder::finish`].
    pub(crate) fn seal(mut self) -> Result<VideoTree, ModelError> {
        if self.nodes.is_empty() {
            return Err(ModelError::EmptyVideo);
        }
        // Uniform leaf depth.
        let leaf_depths: Vec<u8> = self
            .nodes
            .iter()
            .filter(|n| n.children.is_empty())
            .map(|n| n.level.0)
            .collect();
        let max_depth = *leaf_depths.iter().max().expect("non-empty");
        if leaf_depths.iter().any(|&d| d != max_depth) {
            return Err(ModelError::NonUniformLeafDepth);
        }
        // Level sequences by DFS (children already temporally ordered).
        let mut levels: Vec<Vec<SegmentId>> = vec![Vec::new(); usize::from(max_depth) + 1];
        let mut stack = vec![SegmentId(0)];
        // Iterative DFS preserving child order.
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = stack.pop() {
            order.push(id);
            let node = &self.nodes[id.0 as usize];
            for &c in node.children.iter().rev() {
                stack.push(c);
            }
        }
        for id in order {
            let depth = self.nodes[id.0 as usize].level.0 as usize;
            let pos = levels[depth].len() as u32;
            self.nodes[id.0 as usize].pos = pos;
            levels[depth].push(id);
        }
        // Spans bottom-up: leaves span themselves; internal nodes span the
        // union of their children's spans (children are contiguous because
        // the DFS assigns level positions in temporal order).
        let ids_by_depth_desc: Vec<SegmentId> = {
            let mut v: Vec<SegmentId> = (0..self.nodes.len() as u32).map(SegmentId).collect();
            v.sort_by(|a, b| {
                self.nodes[b.0 as usize]
                    .level
                    .cmp(&self.nodes[a.0 as usize].level)
            });
            v
        };
        for id in ids_by_depth_desc {
            let (level, pos, children) = {
                let n = &self.nodes[id.0 as usize];
                (n.level.0, n.pos, n.children.clone())
            };
            let mut spans = vec![(pos, pos + 1)];
            if !children.is_empty() {
                let depth_below = max_depth - level;
                for d in 1..=depth_below {
                    let mut lo = u32::MAX;
                    let mut hi = 0u32;
                    for &c in &children {
                        let cn = &self.nodes[c.0 as usize];
                        let idx = usize::from(d - 1);
                        if idx < cn.spans.len() {
                            let (clo, chi) = cn.spans[idx];
                            lo = lo.min(clo);
                            hi = hi.max(chi);
                        }
                    }
                    if lo == u32::MAX {
                        break;
                    }
                    spans.push((lo, hi));
                }
            }
            self.nodes[id.0 as usize].spans = spans;
        }
        self.levels = levels;
        Ok(VideoTree {
            data: Arc::new(self),
        })
    }
}

impl VideoTree {
    /// Whether `self` and `other` share one copy of their contents (one is
    /// a clone of the other).
    #[must_use]
    pub fn ptr_eq(&self, other: &VideoTree) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The video's title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.data.title
    }

    /// The root segment (the whole video).
    #[must_use]
    pub fn root(&self) -> &SegmentNode {
        &self.data.nodes[0]
    }

    /// Looks up a node by id. Panics on an id not from this tree.
    #[must_use]
    pub fn node(&self, id: SegmentId) -> &SegmentNode {
        &self.data.nodes[id.0 as usize]
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
    ///
    /// Returns `None` if `depth` is above the node's level or the node has
    /// no descendants that deep.
    #[must_use]
    pub fn descendant_span(&self, id: SegmentId, depth: u8) -> Option<(u32, u32)> {
        let node = self.node(id);
        if depth < node.level.0 {
            return None;
        }
        node.spans.get(usize::from(depth - node.level.0)).copied()
    }

    /// The descendants of `id` at `depth`, in temporal order.
    #[must_use]
    pub fn descendants_at_level(&self, id: SegmentId, depth: u8) -> &[SegmentId] {
        match self.descendant_span(id, depth) {
            Some((lo, hi)) => &self.level_sequence(depth)[lo as usize..hi as usize],
            None => &[],
        }
    }

    /// 1-based temporal position of a segment within its level sequence, as
    /// used by the retrieval algorithms (the paper numbers segments from 1).
    #[must_use]
    pub fn position_at_level(&self, id: SegmentId) -> u32 {
        self.node(id).pos + 1
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
        self.data.nodes.len()
    }

    /// Convenience: meta-data of the segment at a 0-based position within a
    /// level sequence.
    #[must_use]
    pub fn meta_at(&self, depth: u8, pos: u32) -> Option<&SegmentMeta> {
        self.level_sequence(depth)
            .get(pos as usize)
            .map(|&id| &self.node(id).meta)
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
            .map(|&id| t.node(id).label.as_str())
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
        assert_eq!(t.descendant_span(t.root().id, 2), Some((0, 5)));
        assert_eq!(t.descendant_span(t.root().id, 1), Some((0, 2)));
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
        let root = t.root().id;
        assert_eq!(t.descendants_at_level(root, 2).len(), 5);
        let scene1 = t.level_sequence(1)[1];
        let d = t.descendants_at_level(scene1, 2);
        assert_eq!(d.len(), 2);
        assert_eq!(t.node(d[0]).label, "shot1.0");
    }
}
