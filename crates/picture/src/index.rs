//! Inverted indices over one level's meta-data.

use simvid_model::{ObjectId, VideoTree};
use std::collections::HashMap;

/// Inverted indices over the segments of one hierarchy level, used to find
/// candidate segments for an atomic query without scanning everything.
/// Positions are 0-based within the level sequence.
#[derive(Debug, Default)]
pub struct LevelIndex {
    /// Object id → positions where it appears.
    pub presence: HashMap<ObjectId, Vec<u32>>,
    /// Object class → object ids of that class.
    pub class_objects: HashMap<String, Vec<ObjectId>>,
    /// Object name → object id.
    pub name_objects: HashMap<String, Vec<ObjectId>>,
    /// Relationship name → positions where one is recorded.
    pub rel_by_name: HashMap<String, Vec<u32>>,
    /// Object-attribute name → positions where some object carries it.
    pub obj_attr_segments: HashMap<String, Vec<u32>>,
    /// Segment-attribute name → positions where the segment carries it.
    pub seg_attr_segments: HashMap<String, Vec<u32>>,
    /// Number of segments at this level.
    pub len: u32,
}

fn push_unique(v: &mut Vec<u32>, pos: u32) {
    if v.last() != Some(&pos) {
        v.push(pos);
    }
}

impl LevelIndex {
    /// Builds the indices for the segments at `depth` of `tree`.
    #[must_use]
    pub fn build(tree: &VideoTree, depth: u8) -> LevelIndex {
        let mut ix = LevelIndex {
            len: tree.level_sequence(depth).len() as u32,
            ..LevelIndex::default()
        };
        for (oid, info) in tree.objects() {
            ix.class_objects
                .entry(info.class.clone())
                .or_default()
                .push(oid);
            if let Some(name) = &info.name {
                ix.name_objects.entry(name.clone()).or_default().push(oid);
            }
        }
        for (pos0, &seg) in tree.level_sequence(depth).iter().enumerate() {
            let pos = pos0 as u32;
            let meta = tree.node(seg).meta();
            for inst in &meta.objects {
                push_unique(ix.presence.entry(inst.id).or_default(), pos);
                for attr in inst.attrs.keys() {
                    push_unique(ix.obj_attr_segments.entry(attr.clone()).or_default(), pos);
                }
            }
            for rel in &meta.relationships {
                push_unique(ix.rel_by_name.entry(rel.name.clone()).or_default(), pos);
            }
            for attr in meta.attrs.keys() {
                push_unique(ix.seg_attr_segments.entry(attr.clone()).or_default(), pos);
            }
        }
        ix
    }

    /// Positions where any object of the given class appears.
    #[must_use]
    pub fn class_positions(&self, class: &str) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .class_objects
            .get(class)
            .into_iter()
            .flatten()
            .filter_map(|oid| self.presence.get(oid))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simvid_model::{AttrValue, VideoBuilder};

    fn sample() -> simvid_model::VideoTree {
        let mut b = VideoBuilder::new("t");
        b.set_level_names(["video", "shot"]);
        b.child("s0");
        let a = b.object(1, "person", Some("Rick"));
        b.object_attr(a, "mood", AttrValue::from("wry"));
        b.up();
        b.child("s1");
        let a2 = b.object(1, "person", Some("Rick"));
        let t = b.object(2, "train", None);
        b.relationship("boards", [a2, t]);
        b.segment_attr("location", AttrValue::from("station"));
        b.up();
        b.leaf("s2");
        b.finish().unwrap()
    }

    #[test]
    fn presence_index_lists_positions() {
        let tree = sample();
        let ix = LevelIndex::build(&tree, 1);
        assert_eq!(ix.presence[&ObjectId(1)], vec![0, 1]);
        assert_eq!(ix.presence[&ObjectId(2)], vec![1]);
        assert_eq!(ix.len, 3);
    }

    #[test]
    fn class_and_name_indices() {
        let tree = sample();
        let ix = LevelIndex::build(&tree, 1);
        assert_eq!(ix.class_objects["person"], vec![ObjectId(1)]);
        assert_eq!(ix.name_objects["Rick"], vec![ObjectId(1)]);
        assert_eq!(ix.class_positions("person"), vec![0, 1]);
        assert_eq!(ix.class_positions("train"), vec![1]);
        assert!(ix.class_positions("dog").is_empty());
    }

    #[test]
    fn relationship_and_attribute_indices() {
        let tree = sample();
        let ix = LevelIndex::build(&tree, 1);
        assert_eq!(ix.rel_by_name["boards"], vec![1]);
        assert_eq!(ix.obj_attr_segments["mood"], vec![0]);
        assert_eq!(ix.seg_attr_segments["location"], vec![1]);
    }

    #[test]
    fn root_level_index() {
        let tree = sample();
        let ix = LevelIndex::build(&tree, 0);
        assert_eq!(ix.len, 1);
        assert!(ix.presence.is_empty());
    }
}
