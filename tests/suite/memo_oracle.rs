//! The memo oracle: determinism of evaluation under every execution
//! strategy.
//!
//! The engine evaluates one query sequentially; what varies is the memo
//! layer and, in serving, how many requests run in parallel — each on its
//! own engine, all sharing one provider and its cache. Neither may change
//! a result: memoized evaluation and parallel requests must be
//! *bit-identical* to un-memoized evaluation on one thread — on the
//! paper's Casablanca fixture, on random hierarchical videos and on random
//! lists. The hash-partitioned join must match the old nested-loop join
//! row for row on random similarity tables.

use proptest::prelude::*;
use simvid_core::{
    list, AtomicProvider, Engine, EngineConfig, Row, SeqContext, SimilarityList, SimilarityTable,
    ValueTable,
};
use simvid_htl::{parse, AtomicUnit, AttrFn, Formula};
use simvid_picture::{PictureSystem, ScoringConfig};
use simvid_workload::randomtables::{generate as generate_table, TableGenConfig};
use simvid_workload::randomvideo::{generate as generate_video, VideoGenConfig};
use simvid_workload::{casablanca, randomlists};
use std::sync::Arc;

/// Every engine configuration under test: the un-memoized baseline first,
/// then the memo layer on.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let plain = EngineConfig {
        memoize: false,
        ..EngineConfig::default()
    };
    vec![
        ("plain", plain),
        (
            "memoized",
            EngineConfig {
                memoize: true,
                ..plain
            },
        ),
    ]
}

/// Queries over random hierarchical videos: quantifiers, `until` and a
/// level modal.
const RANDOM_VIDEO_QUERIES: [&str; 3] = [
    "exists x . person(x) and eventually (exists y . near(x, y))",
    "(exists x . moving(x)) until (exists y . holds_gun(y))",
    "at level 3 ((exists x . person(x)) until (exists y . horse(y)))",
];

fn random_video(seed: u64) -> simvid_model::VideoTree {
    let cfg = VideoGenConfig {
        branching: vec![5, 6],
        ..VideoGenConfig::default()
    };
    generate_video(&cfg, seed)
}

#[test]
fn casablanca_query1_is_identical_under_every_config() {
    let tree = casablanca::video();
    let sys = PictureSystem::new(&tree, casablanca::weights());
    let mut baseline: Option<SimilarityList> = None;
    for (name, cfg) in configs() {
        let engine = Engine::with_config(&sys, &tree, cfg);
        let out = engine
            .eval_closed_at_level(&casablanca::query1(), 1)
            .unwrap();
        match &baseline {
            None => {
                simvid_tests::assert_tuples(
                    &out.to_tuples(),
                    casablanca::QUERY1_LIST,
                    "query 1 without the memo",
                );
                baseline = Some(out);
            }
            Some(b) => assert_eq!(&out, b, "config `{name}` diverged from plain"),
        }
    }
}

#[test]
fn random_videos_are_identical_under_every_config() {
    for seed in 0..4u64 {
        let tree = random_video(seed);
        let sys = PictureSystem::new(&tree, ScoringConfig::default());
        for src in RANDOM_VIDEO_QUERIES {
            let f = parse(src).unwrap();
            let mut baseline: Option<SimilarityList> = None;
            for (name, cfg) in configs() {
                let engine = Engine::with_config(&sys, &tree, cfg);
                let out = engine.eval_closed_at_level(&f, 1).unwrap();
                match &baseline {
                    None => baseline = Some(out),
                    Some(b) => {
                        assert_eq!(&out, b, "seed {seed}, `{src}`: config `{name}` diverged");
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_requests_sharing_a_provider_are_identical_to_one_thread() {
    let tree = random_video(3);
    let queries: Vec<Formula> = RANDOM_VIDEO_QUERIES
        .iter()
        .map(|q| parse(q).unwrap())
        .collect();
    let expected: Vec<SimilarityList> = {
        let sys = PictureSystem::new(&tree, ScoringConfig::default());
        let engine = Engine::new(&sys, &tree);
        queries
            .iter()
            .map(|f| engine.eval_closed_at_level(f, 1).unwrap())
            .collect()
    };
    // One cold cached system shared by four threads, each with its own
    // engine and its own query order, released together so cache misses,
    // hits and coalesced waits interleave.
    const THREADS: usize = 4;
    let shared = PictureSystem::new(&tree, ScoringConfig::default());
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (shared, tree, queries, expected) = (&shared, &tree, &queries, &expected);
            let start = &start;
            scope.spawn(move || {
                let engine = Engine::new(shared, tree);
                start.wait();
                for i in 0..queries.len() {
                    let q = (i + t) % queries.len();
                    let out = engine.eval_closed_at_level(&queries[q], 1).unwrap();
                    assert_eq!(out, expected[q], "thread {t}: `{}` diverged", queries[q]);
                }
            });
        }
    });
}

/// A provider serving two fixed random lists for `P1()` / `P2()`, sliced
/// to the requested window.
struct TwoLists {
    p1: SimilarityList,
    p2: SimilarityList,
}

impl AtomicProvider for TwoLists {
    fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable> {
        let l = match unit.formula.to_string().as_str() {
            "P1()" => &self.p1,
            _ => &self.p2,
        };
        Arc::new(SimilarityTable::from_list(
            l.slice_window(ctx.lo + 1, ctx.hi),
        ))
    }

    fn atomic_max(&self, unit: &AtomicUnit) -> f64 {
        match unit.formula.to_string().as_str() {
            "P1()" => self.p1.max(),
            _ => self.p2.max(),
        }
    }

    fn value_table(&self, _f: &AttrFn, _c: SeqContext) -> ValueTable {
        ValueTable::default()
    }
}

#[test]
fn random_list_workloads_are_identical_under_every_config() {
    // A scene/shot hierarchy over random shot-level lists, so the
    // level-modal descents, both binary operators and the memo all engage
    // (`P1()` repeats in the query).
    let scenes = 24u32;
    let shots_per_scene = 40u32;
    let n = scenes * shots_per_scene;
    let mut b = simvid_model::VideoBuilder::new("random");
    b.set_level_names(["video", "scene", "shot"]);
    for s in 0..scenes {
        b.child(format!("scene{s}"));
        for i in 0..shots_per_scene {
            b.leaf(format!("s{s}.{i}"));
        }
        b.up();
    }
    let tree = b.finish().unwrap();
    let lists = randomlists::ListGenConfig::default().with_n(n);
    let provider = TwoLists {
        p1: randomlists::generate(&lists, 7),
        p2: randomlists::generate(&lists, 8),
    };
    let f: Formula =
        parse("(at shot level (P1() until P2())) and eventually at shot level (P1() until P2())")
            .unwrap();
    let mut baseline: Option<SimilarityList> = None;
    for (name, cfg) in configs() {
        let engine = Engine::with_config(&provider, &tree, cfg);
        let out = engine.eval_closed_at_level(&f, 1).unwrap();
        match &baseline {
            None => baseline = Some(out),
            Some(b) => assert_eq!(&out, b, "config `{name}` diverged from plain"),
        }
    }
}

/// The old O(n·m) nested-loop natural join, kept verbatim as the oracle
/// for the hash-partitioned implementation.
fn nested_loop_join(
    t1: &SimilarityTable,
    t2: &SimilarityTable,
    max: f64,
    combine: impl Fn(&SimilarityList, &SimilarityList) -> SimilarityList,
) -> SimilarityTable {
    let shared_objs: Vec<(usize, usize)> = t1
        .obj_cols
        .iter()
        .enumerate()
        .filter_map(|(i, c)| t2.obj_col(c).map(|j| (i, j)))
        .collect();
    let other_only_objs: Vec<usize> = (0..t2.obj_cols.len())
        .filter(|j| !t1.obj_cols.contains(&t2.obj_cols[*j]))
        .collect();
    let shared_attrs: Vec<(usize, usize)> = t1
        .attr_cols
        .iter()
        .enumerate()
        .filter_map(|(i, c)| t2.attr_col(c).map(|j| (i, j)))
        .collect();
    let other_only_attrs: Vec<usize> = (0..t2.attr_cols.len())
        .filter(|j| !t1.attr_cols.contains(&t2.attr_cols[*j]))
        .collect();
    let mut obj_cols = t1.obj_cols.clone();
    obj_cols.extend(other_only_objs.iter().map(|&j| t2.obj_cols[j].clone()));
    let mut attr_cols = t1.attr_cols.clone();
    attr_cols.extend(other_only_attrs.iter().map(|&j| t2.attr_cols[j].clone()));
    let mut out = SimilarityTable::new(obj_cols, attr_cols, max);
    for r1 in &t1.rows {
        'pair: for r2 in &t2.rows {
            for &(i, j) in &shared_objs {
                if r1.objs[i] != r2.objs[j] {
                    continue 'pair;
                }
            }
            let mut ranges = r1.ranges.clone();
            for &(i, j) in &shared_attrs {
                match r1.ranges[i].intersect(&r2.ranges[j]) {
                    Some(r) => ranges[i] = r,
                    None => continue 'pair,
                }
            }
            let mut objs = r1.objs.clone();
            objs.extend(other_only_objs.iter().map(|&j| r2.objs[j]));
            ranges.extend(other_only_attrs.iter().map(|&j| r2.ranges[j].clone()));
            out.rows.push(Row {
                objs,
                ranges,
                list: Arc::new(combine(&r1.list, &r2.list)),
            });
        }
    }
    out
}

fn table_config(cols: Vec<String>, rows: usize, universe: u64) -> TableGenConfig {
    TableGenConfig {
        cols,
        rows,
        universe,
        ..TableGenConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_join_equals_nested_loop_join(
        seed1 in any::<u64>(),
        seed2 in any::<u64>(),
        rows1 in 0usize..8,
        rows2 in 0usize..8,
        universe in 1u64..5,
        shape in 0usize..3,
    ) {
        // Shapes: shared column subset, disjoint columns (cross product),
        // identical columns.
        let (c1, c2): (Vec<String>, Vec<String>) = match shape {
            0 => (vec!["x".into(), "y".into()], vec!["y".into(), "z".into()]),
            1 => (vec!["x".into()], vec!["z".into()]),
            _ => (vec!["x".into(), "y".into()], vec!["x".into(), "y".into()]),
        };
        let t1 = generate_table(&table_config(c1, rows1, universe), seed1);
        let t2 = generate_table(&table_config(c2, rows2, universe), seed2);
        let max = t1.max + t2.max;
        let fast = t1.join(&t2, max, list::and);
        let oracle = nested_loop_join(&t1, &t2, max, list::and);
        prop_assert_eq!(fast, oracle);
    }
}
