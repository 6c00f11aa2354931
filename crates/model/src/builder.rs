//! Stack-based builder for [`VideoTree`]s.

use crate::tree::{Columns, TreeData};
use crate::{
    AttrValue, ModelError, ObjectId, ObjectInfo, ObjectInstance, Relationship, SegmentId,
    SegmentMeta, VideoTree,
};
use std::collections::BTreeMap;

/// Builds a [`VideoTree`] incrementally, maintaining a cursor into the tree.
///
/// The builder starts positioned at the root. [`VideoBuilder::child`] pushes
/// a new child of the current segment and descends into it;
/// [`VideoBuilder::up`] returns to the parent. Meta-data mutators
/// ([`VideoBuilder::object`], [`VideoBuilder::segment_attr`], …) always apply
/// to the current segment.
///
/// Each call writes the tree's columns directly: a segment costs one
/// parent, one level and one label end, its label's bytes in a shared
/// arena, and metadata storage only once a mutator gives it some.
#[derive(Debug)]
pub struct VideoBuilder {
    title: String,
    cols: Columns,
    level_names: Vec<Option<String>>,
    objects: BTreeMap<ObjectId, ObjectInfo>,
    stack: Vec<SegmentId>,
}

impl VideoBuilder {
    /// Starts a new video with the given title; the cursor is at the root.
    pub fn new(title: impl Into<String>) -> Self {
        let title = title.into();
        VideoBuilder {
            cols: Columns::with_root(&title),
            title,
            level_names: Vec::new(),
            objects: BTreeMap::new(),
            stack: vec![SegmentId(0)],
        }
    }

    /// Names the levels from the root down ("video", "scene", "shot", …).
    pub fn set_level_names<S: Into<String>>(&mut self, names: impl IntoIterator<Item = S>) {
        self.level_names = names.into_iter().map(|s| Some(s.into())).collect();
    }

    /// Current segment id (where meta-data mutators apply).
    #[must_use]
    pub fn current(&self) -> SegmentId {
        *self.stack.last().expect("stack never empty")
    }

    fn current_meta_mut(&mut self) -> &mut SegmentMeta {
        let id = self.current();
        self.cols.meta_mut(id)
    }

    /// Appends a new child to the current segment and descends into it.
    /// Returns the new segment's id.
    ///
    /// # Panics
    ///
    /// If the child would sit 255 levels below the root: a video has at
    /// most 255 levels.
    pub fn child(&mut self, label: impl Into<String>) -> SegmentId {
        let id = self.cols.push_child(self.current(), &label.into());
        self.stack.push(id);
        id
    }

    /// Appends a child and immediately returns to the current segment.
    /// Convenient for leaves.
    pub fn leaf(&mut self, label: impl Into<String>) -> SegmentId {
        let id = self.child(label);
        self.up();
        id
    }

    /// Moves the cursor back to the parent segment. No-op at the root.
    pub fn up(&mut self) {
        if self.stack.len() > 1 {
            self.stack.pop();
        }
    }

    /// Registers an object (id, class, optional name) and records its
    /// appearance in the current segment. If the object was registered
    /// before, the class/name must not conflict — the first registration
    /// wins and later calls just add the appearance.
    pub fn object(&mut self, id: u64, class: impl Into<String>, name: Option<&str>) -> ObjectId {
        let oid = ObjectId(id);
        self.objects
            .entry(oid)
            .or_insert_with(|| ObjectInfo::new(class, name));
        self.current_meta_mut()
            .objects
            .push(ObjectInstance::new(oid));
        oid
    }

    /// Sets an attribute of an object's appearance in the current segment.
    /// The object must already appear in the current segment.
    pub fn object_attr(&mut self, id: ObjectId, attr: impl Into<String>, value: AttrValue) {
        let seg = self.current();
        match self
            .cols
            .meta_mut(seg)
            .objects
            .iter_mut()
            .find(|o| o.id == id)
        {
            Some(inst) => {
                inst.attrs.insert(attr.into(), value);
            }
            None => panic!("object {id} does not appear in segment {seg}"),
        }
    }

    /// Sets a segment-level attribute of the current segment.
    pub fn segment_attr(&mut self, attr: impl Into<String>, value: AttrValue) {
        self.current_meta_mut().attrs.insert(attr.into(), value);
    }

    /// Records a relationship among objects in the current segment.
    pub fn relationship(
        &mut self,
        name: impl Into<String>,
        args: impl IntoIterator<Item = ObjectId>,
    ) {
        self.current_meta_mut()
            .relationships
            .push(Relationship::new(name, args));
    }

    /// Finishes construction: validates the structure and computes the
    /// derived level sequences, positions and child offsets.
    ///
    /// # Errors
    ///
    /// [`ModelError::NonUniformLeafDepth`] if leaves do not all lie at the
    /// same depth, [`ModelError::UnknownObject`] if a relationship references
    /// an object never registered.
    pub fn finish(self) -> Result<VideoTree, ModelError> {
        TreeData::seal(self.title, self.level_names, self.objects, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_objects_and_relationships() {
        let mut b = VideoBuilder::new("t");
        b.child("shot1");
        let john = b.object(1, "person", Some("John Wayne"));
        let bandit = b.object(2, "person", None);
        b.relationship("fires_at", [john, bandit]);
        b.object_attr(john, "holding", AttrValue::from("gun"));
        b.up();
        let t = b.finish().unwrap();
        let shot = t.level_sequence(1)[0];
        let meta = t.node(shot).meta();
        assert!(meta.has_relationship("fires_at", &[john, bandit]));
        assert_eq!(
            meta.object_attr(john, "holding"),
            Some(&AttrValue::from("gun"))
        );
        assert_eq!(
            t.object_info(john).unwrap().name.as_deref(),
            Some("John Wayne")
        );
        assert_eq!(t.object_info(bandit).unwrap().class, "person");
    }

    #[test]
    fn same_object_across_segments_keeps_identity() {
        let mut b = VideoBuilder::new("t");
        b.child("shot1");
        let o = b.object(7, "airplane", None);
        b.up();
        b.child("shot2");
        let o2 = b.object(7, "ignored-class", None);
        b.up();
        let t = b.finish().unwrap();
        assert_eq!(o, o2);
        // First registration wins.
        assert_eq!(t.object_info(o).unwrap().class, "airplane");
        // Appears in both shots.
        let shots = t.level_sequence(1).to_vec();
        assert!(t.node(shots[0]).meta().contains_object(o));
        assert!(t.node(shots[1]).meta().contains_object(o));
    }

    #[test]
    fn relationship_with_unknown_object_rejected() {
        let mut b = VideoBuilder::new("t");
        b.child("shot1");
        // Manually inject an unregistered id through the public API surface:
        // relationship() does not register, so this must fail at finish().
        b.relationship("near", [ObjectId(99)]);
        b.up();
        assert!(matches!(
            b.finish(),
            Err(ModelError::UnknownObject(ObjectId(99)))
        ));
    }

    #[test]
    #[should_panic(expected = "does not appear")]
    fn object_attr_on_absent_object_panics() {
        let mut b = VideoBuilder::new("t");
        b.child("shot1");
        b.object_attr(ObjectId(5), "x", AttrValue::Int(1));
    }

    #[test]
    fn up_at_root_is_noop() {
        let mut b = VideoBuilder::new("t");
        b.up();
        b.up();
        let root = b.current();
        assert_eq!(root, SegmentId(0));
        b.child("s");
        b.up();
        let t = b.finish().unwrap();
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn leaf_convenience() {
        let mut b = VideoBuilder::new("t");
        b.child("scene");
        b.leaf("shot-a");
        b.leaf("shot-b");
        assert_eq!(b.current(), SegmentId(1)); // still at the scene
        b.up();
        let t = b.finish().unwrap();
        assert_eq!(t.level_sequence(2).len(), 2);
    }
}
