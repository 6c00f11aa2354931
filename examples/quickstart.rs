//! Quickstart: build a tiny video, pose an HTL query, retrieve the top
//! matching shots.
//!
//! ```sh
//! cargo run -p simvid-examples --bin quickstart
//! ```

use simvid_core::{top_k, Engine};
use simvid_examples::print_list;
use simvid_htl::{classify, parse};
use simvid_model::VideoBuilder;
use simvid_picture::{PictureSystem, ScoringConfig};

fn main() {
    // 1. Model a short western: five shots with objects and relationships.
    let mut b = VideoBuilder::new("quickstart-western");
    b.set_level_names(["video", "shot"]);
    b.segment_attr("type", "western".into());

    b.child("ride-in");
    let john = b.object(1, "person", Some("John Wayne"));
    b.object(2, "horse", None);
    b.up();

    b.child("standoff");
    b.object(1, "person", Some("John Wayne"));
    let bandit = b.object(3, "bandit", None);
    b.relationship("holds_gun", [john]);
    b.relationship("holds_gun", [bandit]);
    b.up();

    b.child("shootout");
    b.object(1, "person", Some("John Wayne"));
    b.object(3, "bandit", None);
    b.relationship("fires_at", [john, bandit]);
    b.up();

    b.child("aftermath");
    b.object(3, "bandit", None);
    b.relationship("on_floor", [bandit]);
    b.up();

    b.child("sunset");
    b.object(1, "person", Some("John Wayne"));
    b.up();

    let video = b.finish().expect("valid video");

    // 2. An HTL query: John Wayne shoots a bandit (paper formula (B),
    //    simplified). Temporal operators walk the shot sequence.
    let query = parse(
        "exists x . exists y . \
         (person(x) and name(x) = \"John Wayne\" and bandit(y) and \
          holds_gun(x) and holds_gun(y)) \
         and eventually (fires_at(x, y) and eventually on_floor(y))",
    )
    .expect("query parses");
    println!("query: {query}");
    println!("class: {:?}\n", classify(&query));

    // 3. Evaluate with similarity semantics over the shot level.
    let system = PictureSystem::new(&video, ScoringConfig::default());
    let engine = Engine::new(&system, &video);
    let result = engine
        .eval_closed_at_level(&query, 1)
        .expect("query evaluates");
    print_list("similarity of every shot:", &result);

    // 4. Retrieve the top-k shots.
    println!("top 3 shots:");
    for hit in top_k(&result, 3) {
        let shot = video.level_sequence(1)[hit.pos as usize - 1];
        println!(
            "  shot {} ({}): similarity {:.2} of {:.2}",
            hit.pos,
            video.node(shot).label(),
            hit.sim.act,
            hit.sim.max
        );
    }
}
