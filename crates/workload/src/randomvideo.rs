//! Seeded random video hierarchies with meta-data, for end-to-end and
//! differential testing of the retrieval engines.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simvid_model::{AttrValue, ObjectId, VideoBuilder, VideoTree};

/// Parameters of the random video generator.
#[derive(Debug, Clone)]
pub struct VideoGenConfig {
    /// Children per node, per level below the root: e.g. `[3, 4]` builds
    /// root → 3 scenes → 4 shots each.
    pub branching: Vec<u32>,
    /// Size of the object cast.
    pub object_count: u64,
    /// Object classes to draw from.
    pub classes: Vec<&'static str>,
    /// Unary/binary relationship names to sprinkle.
    pub relationships: Vec<&'static str>,
    /// Per-object attributes (integer-valued) to sprinkle.
    pub attrs: Vec<&'static str>,
    /// Expected objects per leaf segment.
    pub objects_per_leaf: f64,
}

impl Default for VideoGenConfig {
    fn default() -> Self {
        VideoGenConfig {
            branching: vec![4, 5],
            object_count: 8,
            classes: vec!["person", "airplane", "train", "horse"],
            relationships: vec!["holds_gun", "fires_at", "near", "moving"],
            attrs: vec!["height", "speed"],
            objects_per_leaf: 2.0,
        }
    }
}

/// Generates a random video. Deterministic in the seed.
#[must_use]
pub fn generate(cfg: &VideoGenConfig, seed: u64) -> VideoTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = VideoBuilder::new(format!("random-video-{seed}"));
    // Name levels from the bottom of the conventional hierarchy so the
    // deepest level is always a recognisable "shot"/"frame" name.
    let scheme = ["video", "plot", "scene", "shot", "frame"];
    let depth = cfg.branching.len() + 1;
    let mut names: Vec<String> = scheme[scheme.len() - depth.min(scheme.len() - 1)..]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    names.insert(0, "video".to_owned());
    names.truncate(depth);
    b.set_level_names(names);
    b.segment_attr(
        "type",
        AttrValue::from(
            *["western", "news", "documentary"]
                .get(seed as usize % 3)
                .unwrap(),
        ),
    );
    build_level(&mut b, &mut rng, cfg, 0);
    b.finish().expect("generated tree is well formed")
}

fn build_level(b: &mut VideoBuilder, rng: &mut StdRng, cfg: &VideoGenConfig, depth: usize) {
    let Some(&fanout) = cfg.branching.get(depth) else {
        // Leaf: populate meta-data.
        populate_leaf(b, rng, cfg);
        return;
    };
    for i in 0..fanout {
        b.child(format!("d{depth}.{i}"));
        build_level(b, rng, cfg, depth + 1);
        b.up();
    }
}

fn populate_leaf(b: &mut VideoBuilder, rng: &mut StdRng, cfg: &VideoGenConfig) {
    let p_obj = (cfg.objects_per_leaf / cfg.object_count as f64).min(1.0);
    let mut present: Vec<ObjectId> = Vec::new();
    for oid in 1..=cfg.object_count {
        if rng.gen_bool(p_obj) {
            let class = cfg.classes[oid as usize % cfg.classes.len()];
            let name = (oid % 2 == 1).then(|| format!("obj{oid}"));
            let id = b.object(oid, class, name.as_deref());
            present.push(id);
            for attr in &cfg.attrs {
                if rng.gen_bool(0.7) {
                    b.object_attr(id, *attr, AttrValue::Int(rng.gen_range(0..500)));
                }
            }
        }
    }
    for rel in &cfg.relationships {
        if present.is_empty() {
            break;
        }
        if rng.gen_bool(0.3) {
            let a = present[rng.gen_range(0..present.len())];
            if rng.gen_bool(0.5) {
                b.relationship(*rel, [a]);
            } else {
                let c = present[rng.gen_range(0..present.len())];
                b.relationship(*rel, [a, c]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = VideoGenConfig::default();
        let a = generate(&cfg, 11);
        let b = generate(&cfg, 11);
        assert_eq!(a.segment_count(), b.segment_count());
        // Same leaf meta everywhere.
        for (x, y) in a.level_sequence(2).iter().zip(b.level_sequence(2)) {
            assert_eq!(a.node(*x).meta(), b.node(*y).meta());
        }
    }

    #[test]
    fn respects_branching() {
        let cfg = VideoGenConfig {
            branching: vec![2, 3, 4],
            ..VideoGenConfig::default()
        };
        let t = generate(&cfg, 3);
        assert_eq!(t.depth(), 4);
        assert_eq!(t.level_sequence(1).len(), 2);
        assert_eq!(t.level_sequence(2).len(), 6);
        assert_eq!(t.level_sequence(3).len(), 24);
        assert_eq!(t.level_by_name("shot"), Some(3));
    }

    #[test]
    fn leaves_carry_objects_somewhere() {
        let t = generate(&VideoGenConfig::default(), 5);
        let leaf_depth = t.leaf_level();
        let total_objects: usize = t
            .level_sequence(leaf_depth)
            .iter()
            .map(|&s| t.node(s).meta().objects.len())
            .sum();
        assert!(
            total_objects > 0,
            "random video should not be empty of objects"
        );
    }
}
