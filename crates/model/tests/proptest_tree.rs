//! Structural invariants of randomly shaped video trees: level sequences
//! partition the nodes, descendant spans are consistent with parent-child
//! edges, and positions are dense and 1-based. A second family builds
//! ragged trees with mixed empty and non-empty metadata and checks every
//! segment accessor against a naive reference kept beside the builder
//! calls, and that the JSON form round-trips byte for byte.

use proptest::prelude::*;
use simvid_model::{
    AttrValue, ObjectId, ObjectInstance, Relationship, SegmentId, SegmentMeta, VideoBuilder,
    VideoTree,
};

/// Builds a tree from a random shape: `shape[d]` gives, per node at depth
/// `d`, its child count (uniform per level so leaves stay at one depth).
fn build(shape: &[u8]) -> VideoTree {
    fn go(b: &mut VideoBuilder, shape: &[u8], depth: usize) {
        let Some(&fanout) = shape.get(depth) else {
            return;
        };
        for i in 0..fanout.max(1) {
            b.child(format!("n{depth}.{i}"));
            go(b, shape, depth + 1);
            b.up();
        }
    }
    let mut b = VideoBuilder::new("shape");
    go(&mut b, shape, 0);
    b.finish().expect("uniform shapes are valid")
}

fn shape() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(1u8..4, 1..4)
}

/// What the reference knows of one segment, recorded at its builder calls.
struct RefNode {
    parent: Option<SegmentId>,
    children: Vec<SegmentId>,
    level: u8,
    label: String,
    meta: SegmentMeta,
}

/// A ragged tree of uniform leaf depth `depth`: each internal segment takes
/// its child count from `fanouts` and each segment its metadata choice from
/// `metas`, both read cyclically. Returns the tree and the reference, in id
/// order.
fn build_ragged(depth: u8, fanouts: &[u8], metas: &[u8]) -> (VideoTree, Vec<RefNode>) {
    struct Gen<'a> {
        b: VideoBuilder,
        nodes: Vec<RefNode>,
        fanouts: std::iter::Cycle<std::slice::Iter<'a, u8>>,
        metas: std::iter::Cycle<std::slice::Iter<'a, u8>>,
        depth: u8,
    }
    impl Gen<'_> {
        /// Gives the current segment `choice`'s metadata, in the builder
        /// and in the reference.
        fn meta(&mut self, choice: u8) {
            let id = self.b.current();
            let meta = &mut self.nodes[id.0 as usize].meta;
            let oid = u64::from(id.0 % 5);
            match choice % 4 {
                0 => {}
                1 => {
                    self.b.segment_attr("k", AttrValue::Int(i64::from(id.0)));
                    meta.attrs
                        .insert("k".into(), AttrValue::Int(i64::from(id.0)));
                }
                2 => {
                    let o = self.b.object(oid, "thing", None);
                    self.b
                        .object_attr(o, "h", AttrValue::Float(f64::from(id.0)));
                    meta.objects.push(
                        ObjectInstance::new(ObjectId(oid))
                            .with_attr("h", AttrValue::Float(f64::from(id.0))),
                    );
                }
                _ => {
                    let o = self.b.object(oid, "thing", Some("named"));
                    self.b.relationship("r", [o]);
                    meta.objects.push(ObjectInstance::new(ObjectId(oid)));
                    meta.relationships
                        .push(Relationship::new("r", [ObjectId(oid)]));
                }
            }
        }

        /// Builds the current segment's subtree. Even metadata choices are
        /// written before the children, odd ones after them.
        fn subtree(&mut self) {
            let id = self.b.current();
            let level = self.nodes[id.0 as usize].level;
            let choice = *self.metas.next().unwrap();
            let before = choice.is_multiple_of(2);
            if before {
                self.meta(choice);
            }
            if level < self.depth {
                for i in 0..*self.fanouts.next().unwrap() {
                    let label = format!("n{}.{i}", id.0);
                    let c = self.b.child(label.clone());
                    assert_eq!(c.0 as usize, self.nodes.len(), "ids are dense");
                    self.nodes[id.0 as usize].children.push(c);
                    self.nodes.push(RefNode {
                        parent: Some(id),
                        children: Vec::new(),
                        level: level + 1,
                        label,
                        meta: SegmentMeta::new(),
                    });
                    self.subtree();
                    self.b.up();
                }
            }
            if !before {
                self.meta(choice);
            }
        }
    }
    let mut g = Gen {
        b: VideoBuilder::new("ragged"),
        nodes: vec![RefNode {
            parent: None,
            children: Vec::new(),
            level: 0,
            label: "ragged".into(),
            meta: SegmentMeta::new(),
        }],
        fanouts: fanouts.iter().cycle(),
        metas: metas.iter().cycle(),
        depth,
    };
    g.subtree();
    (g.b.finish().expect("uniform leaf depth"), g.nodes)
}

/// The reference's temporal order of each level: a depth-first walk.
fn reference_levels(nodes: &[RefNode]) -> Vec<Vec<SegmentId>> {
    fn walk(nodes: &[RefNode], id: SegmentId, levels: &mut Vec<Vec<SegmentId>>) {
        let level = usize::from(nodes[id.0 as usize].level);
        if levels.len() <= level {
            levels.resize(level + 1, Vec::new());
        }
        levels[level].push(id);
        for &c in &nodes[id.0 as usize].children {
            walk(nodes, c, levels);
        }
    }
    let mut levels = Vec::new();
    walk(nodes, SegmentId(0), &mut levels);
    levels
}

/// The reference's descendants of `id` at `depth`.
fn reference_descendants(nodes: &[RefNode], id: SegmentId, depth: u8, out: &mut Vec<SegmentId>) {
    let n = &nodes[id.0 as usize];
    if n.level == depth {
        out.push(id);
    } else if n.level < depth {
        for &c in &n.children {
            reference_descendants(nodes, c, depth, out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn level_sequences_partition_the_tree(s in shape()) {
        let t = build(&s);
        let mut seen = 0usize;
        for d in 0..t.depth() {
            seen += t.level_sequence(d).len();
            // Expected width: product of fanouts above.
            let width: usize = s[..usize::from(d)].iter().map(|&f| f as usize).product();
            prop_assert_eq!(t.level_sequence(d).len(), width);
        }
        prop_assert_eq!(seen, t.segment_count());
    }

    #[test]
    fn positions_are_dense_and_one_based(s in shape()) {
        let t = build(&s);
        for d in 0..t.depth() {
            for (i, &id) in t.level_sequence(d).iter().enumerate() {
                prop_assert_eq!(t.position_at_level(id), i as u32 + 1);
            }
        }
    }

    #[test]
    fn descendant_spans_match_recursive_children(s in shape()) {
        let t = build(&s);
        // For every node and every deeper level, the span must equal the
        // positions of the descendants found by walking children.
        fn descendants(t: &VideoTree, id: SegmentId, depth: u8, out: &mut Vec<SegmentId>) {
            let node = t.node(id);
            if node.level().0 == depth {
                out.push(id);
                return;
            }
            for &c in node.children() {
                descendants(t, c, depth, out);
            }
        }
        for d in 0..t.depth() {
            for &id in t.level_sequence(d) {
                for target in d..t.depth() {
                    let mut walked = Vec::new();
                    descendants(&t, id, target, &mut walked);
                    let via_span = t.descendants_at_level(id, target);
                    prop_assert_eq!(via_span, walked.as_slice(), "node {} level {}", id, target);
                }
            }
        }
    }

    #[test]
    fn spans_are_contiguous_and_nested(s in shape()) {
        let t = build(&s);
        let leaf = t.leaf_level();
        // Sibling spans at the leaf level tile the parent's span in order.
        for d in 0..leaf {
            for &id in t.level_sequence(d) {
                let node = t.node(id);
                let Some((plo, phi)) = t.descendant_span(id, leaf) else { continue };
                let mut cursor = plo;
                for &c in node.children() {
                    let (clo, chi) = t.descendant_span(c, leaf).expect("child has leaves");
                    prop_assert_eq!(clo, cursor, "gap before child of {}", id);
                    cursor = chi;
                }
                prop_assert_eq!(cursor, phi, "children do not tile parent {}", id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn accessors_match_a_reference_of_the_builder_calls(
        depth in 1u8..4,
        fanouts in prop::collection::vec(1u8..4, 1..12),
        metas in prop::collection::vec(0u8..8, 1..12),
    ) {
        let (t, nodes) = build_ragged(depth, &fanouts, &metas);
        let levels = reference_levels(&nodes);
        prop_assert_eq!(t.segment_count(), nodes.len());
        prop_assert_eq!(usize::from(t.depth()), levels.len());
        for (d, seq) in levels.iter().enumerate() {
            prop_assert_eq!(t.level_sequence(d as u8), seq.as_slice());
        }
        for (i, n) in nodes.iter().enumerate() {
            let id = SegmentId(i as u32);
            let s = t.node(id);
            prop_assert_eq!(s.id(), id);
            prop_assert_eq!(s.parent(), n.parent);
            prop_assert_eq!(s.children(), n.children.as_slice());
            prop_assert_eq!(s.level().0, n.level);
            prop_assert_eq!(s.label(), n.label.as_str());
            prop_assert_eq!(s.meta(), &n.meta);
            let pos = levels[usize::from(n.level)].iter().position(|&x| x == id).unwrap();
            prop_assert_eq!(s.position() as usize, pos);
            prop_assert_eq!(t.meta_at(n.level, pos as u32), Some(&n.meta));
            for target in 0..=t.depth() {
                let mut below = Vec::new();
                reference_descendants(&nodes, id, target, &mut below);
                let want = below.first().map(|first| {
                    let seq = &levels[usize::from(target)];
                    let lo = seq.iter().position(|x| x == first).unwrap() as u32;
                    (lo, lo + below.len() as u32)
                });
                prop_assert_eq!(t.descendant_span(id, target), want, "{} at depth {}", id, target);
            }
        }
    }

    #[test]
    fn json_round_trips_byte_for_byte(
        depth in 1u8..4,
        fanouts in prop::collection::vec(1u8..4, 1..12),
        metas in prop::collection::vec(0u8..8, 1..12),
    ) {
        let (t, _) = build_ragged(depth, &fanouts, &metas);
        let json = serde_json::to_string(&t).unwrap();
        let back: VideoTree = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }
}
