//! Persistence: retrieval behaves identically on a store that has been
//! serialised to JSON and loaded back (the `videoql` save/load path),
//! including stores that have absorbed live mutation batches — epoch and
//! tombstones survive the round trip, and a reloaded store never reuses
//! a removed id.

use simvid_htl::parse;
use simvid_model::{CorpusEpoch, CorpusOp, VideoId, VideoStore, VideoTree};
use simvid_picture::{QueryLevel, VideoDatabase};
use simvid_workload::casablanca;
use simvid_workload::randomvideo::{generate, VideoGenConfig};

fn round_trip(store: &VideoStore) -> VideoStore {
    let json = serde_json::to_string(store).expect("serialises");
    serde_json::from_str(&json).expect("deserialises")
}

#[test]
fn casablanca_results_survive_round_trip() {
    let mut store = VideoStore::new();
    store.add(casablanca::video());
    let back = round_trip(&store);

    let q = casablanca::query1();
    let level = QueryLevel::Named("shot".into());
    let before = VideoDatabase::new(&store)
        .with_scoring(casablanca::weights())
        .retrieve(&q, &level, 20)
        .unwrap();
    let after = VideoDatabase::new(&back)
        .with_scoring(casablanca::weights())
        .retrieve(&q, &level, 20)
        .unwrap();
    assert_eq!(before.len(), after.len());
    for (a, b) in before.iter().zip(&after) {
        assert_eq!((a.video, a.pos), (b.video, b.pos));
        assert!((a.sim.act - b.sim.act).abs() < 1e-12);
    }
}

#[test]
fn exact_semantics_survive_round_trip_on_random_videos() {
    for seed in 0..4u64 {
        let tree = generate(
            &VideoGenConfig {
                branching: vec![3, 4],
                ..VideoGenConfig::default()
            },
            seed,
        );
        let json = serde_json::to_string(&tree).unwrap();
        let back: VideoTree = serde_json::from_str(&json).unwrap();
        for src in [
            "at shot level eventually (exists x . moving(x))",
            "at next level (exists x . person(x))",
            "type = \"western\"",
        ] {
            let f = parse(src).unwrap();
            assert_eq!(
                simvid_htl::satisfies_video(&tree, &f),
                simvid_htl::satisfies_video(&back, &f),
                "seed {seed}, `{src}`"
            );
        }
    }
}

fn random_tree(seed: u64) -> VideoTree {
    generate(
        &VideoGenConfig {
            branching: vec![4],
            ..VideoGenConfig::default()
        },
        seed,
    )
}

#[test]
fn mutated_store_survives_round_trip_with_epoch_and_tombstones() {
    let mut store = VideoStore::new();
    store.add(casablanca::video());
    let filler = store.add(random_tree(1));
    let doomed = store.add(random_tree(2));
    store
        .apply(&[
            CorpusOp::Ingest(random_tree(3)),
            CorpusOp::Update(filler, random_tree(4)),
        ])
        .unwrap();
    store.apply(&[CorpusOp::Remove(doomed)]).unwrap();
    assert_eq!(store.epoch(), CorpusEpoch(2));

    let back = round_trip(&store);
    assert_eq!(back.epoch(), store.epoch(), "epoch must survive reload");
    assert_eq!(back.slot_count(), store.slot_count());
    assert_eq!(back.len(), store.len());
    assert!(!back.contains(doomed), "tombstone must survive reload");

    // Retrieval over the reloaded store is bit-identical.
    let q = casablanca::query1();
    let level = QueryLevel::Named("shot".into());
    let before = VideoDatabase::new(&store)
        .with_scoring(casablanca::weights())
        .retrieve(&q, &level, 20)
        .unwrap();
    let after = VideoDatabase::new(&back)
        .with_scoring(casablanca::weights())
        .retrieve(&q, &level, 20)
        .unwrap();
    assert_eq!(before.len(), after.len());
    for (a, b) in before.iter().zip(&after) {
        assert_eq!((a.video, a.pos), (b.video, b.pos));
        assert!((a.sim.act - b.sim.act).abs() < 1e-12);
        assert!(a.video != doomed, "removed videos must never be retrieved");
    }
}

#[test]
fn reloaded_store_never_reuses_a_removed_id() {
    let mut store = VideoStore::new();
    store.add(random_tree(10));
    let removed = store.add(random_tree(11));
    store.apply(&[CorpusOp::Remove(removed)]).unwrap();

    // Reload, then keep ingesting: the fresh id must come from the slot
    // counter (which counts tombstones), not from the hole left by the
    // removal — otherwise any state cached under the old id would be
    // silently attributed to the new video.
    let mut back = round_trip(&store);
    let batch = back.apply(&[CorpusOp::Ingest(random_tree(12))]).unwrap();
    let fresh = batch.ingested[0];
    assert_ne!(fresh, removed, "reload must not resurrect a removed id");
    assert_eq!(fresh, VideoId(store.slot_count() as u32));
    assert!(back.contains(fresh));
    assert!(!back.contains(removed), "the tombstone outlives the reload");

    // And a second round trip preserves the post-reload mutation too.
    let again = round_trip(&back);
    assert_eq!(again.epoch(), back.epoch());
    assert_eq!(again.slot_count(), back.slot_count());
    assert!(!again.contains(removed));
}

#[test]
fn json_is_stable_across_double_round_trip() {
    let mut store = VideoStore::new();
    store.add(casablanca::video());
    let once = serde_json::to_string(&round_trip(&store)).unwrap();
    let twice = serde_json::to_string(&round_trip(&round_trip(&store))).unwrap();
    assert_eq!(once, twice);
}

fn one_shot(title: &str) -> VideoTree {
    let mut b = simvid_model::VideoBuilder::new(title);
    b.set_level_names(["video", "shot"]);
    b.child("s0");
    let o = b.object(1, "person", None);
    b.relationship("holds_gun", [o]);
    b.up();
    b.finish().unwrap()
}

/// Golden bytes of the on-disk format: a small store that has absorbed
/// two batches (one tombstone, epoch 2). Any change to how a
/// `VideoStore` is held in memory must leave this encoding untouched.
#[test]
fn mutated_store_json_bytes_are_pinned() {
    let mut store = VideoStore::new();
    let a = store.add(one_shot("a"));
    store.add(one_shot("b"));
    store
        .apply(&[CorpusOp::Ingest(one_shot("c")), CorpusOp::Remove(a)])
        .unwrap();
    store
        .apply(&[CorpusOp::Update(VideoId(1), one_shot("b2"))])
        .unwrap();
    let json = serde_json::to_string(&store).unwrap();
    let golden = concat!(
        r#"{"videos":[null,"#,
        r#"{"title":"b2","nodes":["#,
        r#"{"id":0,"parent":null,"children":[1],"level":0,"label":"b2","#,
        r#""meta":{"objects":[],"relationships":[],"attrs":{}},"pos":0,"spans":[[0,1],[0,1]]},"#,
        r#"{"id":1,"parent":0,"children":[],"level":1,"label":"s0","#,
        r#""meta":{"objects":[{"id":1,"attrs":{}}],"relationships":[{"name":"holds_gun","args":[1]}],"attrs":{}},"#,
        r#""pos":0,"spans":[[0,1]]}],"#,
        r#""level_names":["video","shot"],"objects":{"1":{"class":"person","name":null}},"levels":[[0],[1]]},"#,
        r#"{"title":"c","nodes":["#,
        r#"{"id":0,"parent":null,"children":[1],"level":0,"label":"c","#,
        r#""meta":{"objects":[],"relationships":[],"attrs":{}},"pos":0,"spans":[[0,1],[0,1]]},"#,
        r#"{"id":1,"parent":0,"children":[],"level":1,"label":"s0","#,
        r#""meta":{"objects":[{"id":1,"attrs":{}}],"relationships":[{"name":"holds_gun","args":[1]}],"attrs":{}},"#,
        r#""pos":0,"spans":[[0,1]]}],"#,
        r#""level_names":["video","shot"],"objects":{"1":{"class":"person","name":null}},"levels":[[0],[1]]}"#,
        r#"],"epoch":2}"#,
    );
    assert_eq!(json, golden);
    assert_eq!(serde_json::to_string(&round_trip(&store)).unwrap(), json);
}
