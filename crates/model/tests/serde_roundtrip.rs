//! JSON (de)serialisation round trips for the whole model — the on-disk
//! format the `videoql` shell loads and saves.

use simvid_model::{AttrValue, VideoBuilder, VideoStore, VideoTree};

fn rich_video() -> VideoTree {
    let mut b = VideoBuilder::new("serde-demo");
    b.set_level_names(["video", "scene", "shot"]);
    b.segment_attr("type", AttrValue::from("western"));
    b.segment_attr("year", AttrValue::Int(1997));
    b.child("scene0");
    b.child("shot0");
    let john = b.object(1, "person", Some("John Wayne"));
    let horse = b.object(2, "horse", None);
    b.object_attr(john, "mood", AttrValue::from("stoic"));
    b.object_attr(horse, "speed", AttrValue::Float(12.5));
    b.relationship("rides", [john, horse]);
    b.up();
    b.child("shot1");
    b.object(1, "person", Some("John Wayne"));
    b.up();
    b.up();
    b.child("scene1");
    b.child("shot2");
    b.segment_attr("night", AttrValue::Bool(true));
    b.up();
    b.up();
    b.finish().unwrap()
}

#[test]
fn video_tree_round_trips_through_json() {
    let v = rich_video();
    let json = serde_json::to_string(&v).unwrap();
    let back: VideoTree = serde_json::from_str(&json).unwrap();
    assert_eq!(back.title(), v.title());
    assert_eq!(back.depth(), v.depth());
    assert_eq!(back.segment_count(), v.segment_count());
    // Structure, positions, spans survive.
    for depth in 0..v.depth() {
        assert_eq!(
            v.level_sequence(depth).len(),
            back.level_sequence(depth).len(),
            "level {depth} width"
        );
    }
    let shot0 = v.level_sequence(2)[0];
    let shot0b = back.level_sequence(2)[0];
    assert_eq!(v.node(shot0).meta(), back.node(shot0b).meta());
    assert_eq!(
        v.descendant_span(v.root().id(), 2),
        back.descendant_span(back.root().id(), 2)
    );
    assert_eq!(back.level_by_name("shot"), Some(2));
    assert_eq!(
        back.object_info(simvid_model::ObjectId(1))
            .unwrap()
            .name
            .as_deref(),
        Some("John Wayne")
    );
}

#[test]
fn video_store_round_trips_through_json() {
    let mut store = VideoStore::new();
    store.add(rich_video());
    store.add(rich_video());
    let json = serde_json::to_string_pretty(&store).unwrap();
    let back: VideoStore = serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), 2);
    for ((_, a), (_, b)) in store.iter().zip(back.iter()) {
        assert_eq!(a.title(), b.title());
        assert_eq!(a.segment_count(), b.segment_count());
    }
}

#[test]
fn attr_values_serialise_distinctly() {
    // Int(1) and Float(1.0) must stay distinguishable on disk.
    let i = serde_json::to_string(&AttrValue::Int(1)).unwrap();
    let f = serde_json::to_string(&AttrValue::Float(1.0)).unwrap();
    assert_ne!(i, f);
    let back_i: AttrValue = serde_json::from_str(&i).unwrap();
    let back_f: AttrValue = serde_json::from_str(&f).unwrap();
    assert_eq!(back_i, AttrValue::Int(1));
    assert_eq!(back_f, AttrValue::Float(1.0));
}

#[test]
fn tree_json_with_inconsistent_structure_is_rejected() {
    let json = serde_json::to_string(&rich_video()).unwrap();
    assert!(serde_json::from_str::<VideoTree>(&json).is_ok());
    // Segment ids are a preorder: a parent must be an open ancestor.
    let reparented = json.replace(r#""id":3,"parent":1"#, r#""id":3,"parent":4"#);
    // Positions, spans and level sequences are derived from the parents.
    let reordered = json.replace(r#""levels":[[0],[1,4],"#, r#""levels":[[0],[4,1],"#);
    for bad in [reparented, reordered] {
        assert_ne!(bad, json, "the tampering must apply");
        assert!(serde_json::from_str::<VideoTree>(&bad).is_err());
    }
}
