//! The observability layer across the whole stack.
//!
//! Work counters are part of the engine's deterministic contract: the
//! same query over the same data must report the same counts no matter
//! how evaluation is scheduled across threads. Timing histograms are
//! explicitly *not* deterministic, which is why [`Snapshot::deterministic`]
//! exists — these tests pin down that split, plus the serve-layer
//! histogram accounting and the snapshot's JSON rendering contract.

use simvid_core::{
    AtomicProvider, Engine, EngineConfig, SeqContext, SimilarityList, SimilarityTable, ValueTable,
};
use simvid_htl::{parse, AtomicUnit, AttrFn};
use simvid_obs::{MetricValue, Registry, Snapshot};
use simvid_picture::{CacheConfig, PictureSystem, ScoringConfig};
use simvid_workload::randomlists;
use simvid_workload::serve::{self, ServeConfig};
use std::sync::Arc;

/// A provider serving two fixed random lists for `P1()` / `P2()`, sliced
/// to the requested window (no caching, so engine counters are the only
/// metrics in play).
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

fn scene_workload() -> (simvid_model::VideoTree, TwoLists) {
    let scenes = 12u32;
    let shots_per_scene = 30u32;
    let mut b = simvid_model::VideoBuilder::new("obs");
    b.set_level_names(["video", "scene", "shot"]);
    for s in 0..scenes {
        b.child(format!("scene{s}"));
        for i in 0..shots_per_scene {
            b.leaf(format!("s{s}.{i}"));
        }
        b.up();
    }
    let tree = b.finish().unwrap();
    let lists = randomlists::ListGenConfig::default().with_n(scenes * shots_per_scene);
    let provider = TwoLists {
        p1: randomlists::generate(&lists, 7),
        p2: randomlists::generate(&lists, 8),
    };
    (tree, provider)
}

#[test]
fn counters_are_identical_across_sequential_and_parallel_engines() {
    let (tree, provider) = scene_workload();
    let f =
        parse("(at shot level (P1() until P2())) and eventually at shot level (P1() until P2())")
            .unwrap();
    let cfg = EngineConfig {
        memoize: false,
        ..EngineConfig::default()
    };
    const RUNS: usize = 4;
    // One engine evaluating the query RUNS times on this thread...
    let sequential: Snapshot = {
        let registry = Arc::new(Registry::new());
        let engine = Engine::with_registry(&provider, &tree, cfg, registry.clone());
        for _ in 0..RUNS {
            engine.eval_closed_at_level(&f, 1).unwrap();
        }
        registry.snapshot()
    };
    // ...against RUNS engines on parallel threads sharing one registry,
    // released together so their counter updates interleave.
    let parallel: Snapshot = {
        let registry = Arc::new(Registry::new());
        let start = std::sync::Barrier::new(RUNS);
        std::thread::scope(|scope| {
            for _ in 0..RUNS {
                let (provider, tree, f, start) = (&provider, &tree, &f, &start);
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let engine = Engine::with_registry(provider, tree, cfg, registry);
                    start.wait();
                    engine.eval_closed_at_level(f, 1).unwrap();
                });
            }
        });
        registry.snapshot()
    };
    // Counts are scheduling-independent; only the timing histograms (which
    // `deterministic()` excludes) may differ between the two runs.
    assert_eq!(
        sequential.deterministic(),
        parallel.deterministic(),
        "engine work counters must not depend on which threads evaluated"
    );
    assert!(
        sequential
            .deterministic()
            .iter()
            .any(|(name, v)| name == "engine.entries_processed" && *v > 0),
        "the workload must actually exercise the engine"
    );
}

#[test]
fn eval_stats_count_only_this_engines_work_on_a_shared_registry() {
    let (tree, provider) = scene_workload();
    let f = parse("(at shot level (P1() until P2())) and eventually at shot level P1()").unwrap();
    let registry = Arc::new(Registry::new());
    let a = Engine::with_registry(&provider, &tree, EngineConfig::default(), registry.clone());
    let b = Engine::with_registry(&provider, &tree, EngineConfig::default(), registry.clone());
    a.top_k_closed(&f, 1, 5).unwrap();
    let own = a.stats();
    assert!(own.atomic_fetches > 0 && own.entries_processed > 0);
    // Another engine's evaluation on the same registry must not leak into
    // A's per-evaluation view...
    b.top_k_closed(&f, 1, 5).unwrap();
    assert_eq!(a.stats(), own, "A reports B's work as its own");
    assert_eq!(b.stats(), own, "same query, same work");
    // ...while the registry's cumulative counters hold both.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("engine.atomic_fetches"),
        Some(2 * own.atomic_fetches as u64)
    );
    assert_eq!(
        snap.counter("engine.prune.entries_pruned"),
        Some(2 * own.entries_pruned as u64)
    );
}

#[test]
fn serve_histogram_count_matches_request_count() {
    let cfg = ServeConfig {
        shots: 20,
        requests: 25,
        ..ServeConfig::default()
    };
    let w = serve::build(&cfg);
    let registry = Arc::new(Registry::new());
    let sys = PictureSystem::with_registry(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::default(),
        registry.clone(),
    );
    let engine = Engine::with_registry(&sys, &w.tree, EngineConfig::default(), registry.clone());
    let run = serve::run_schedule(&w, &engine);
    assert_eq!(run.results.len(), 25);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.requests"), Some(25));
    match snap.get("serve.request_seconds") {
        Some(MetricValue::Histogram(h)) => {
            assert_eq!(h.count, 25, "one latency sample per request");
            assert!(h.sum >= 0.0);
        }
        other => panic!("expected serve latency histogram, got {other:?}"),
    }
    // The shared registry carries all three namespaces after a serve run.
    for name in ["engine.atomic_fetches", "cache.misses", "serve.requests"] {
        assert!(
            snap.get(name).is_some(),
            "metric `{name}` missing from the shared registry"
        );
    }
}

#[test]
fn snapshot_json_is_valid_json() {
    let cfg = ServeConfig {
        shots: 15,
        requests: 10,
        ..ServeConfig::default()
    };
    let w = serve::build(&cfg);
    let registry = Arc::new(Registry::new());
    let sys = PictureSystem::with_registry(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::default(),
        registry.clone(),
    );
    let engine = Engine::with_registry(&sys, &w.tree, EngineConfig::default(), registry.clone());
    let _ = serve::run_schedule(&w, &engine);
    let text = registry.snapshot().to_json();
    let doc: serde_json::Value =
        serde_json::from_str(&text).expect("snapshot JSON must parse back");
    let serde_json::Value::Object(fields) = doc else {
        panic!("snapshot JSON must be an object");
    };
    let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    assert!(
        matches!(get("serve.requests"), Some(serde_json::Value::Int(10))),
        "serve.requests must render as the number 10"
    );
    match get("serve.request_seconds") {
        Some(serde_json::Value::Object(h)) => {
            assert!(h.iter().any(|(k, _)| k == "p95"), "histogram has quantiles");
            assert!(h.iter().any(|(k, _)| k == "buckets"));
        }
        other => panic!("expected histogram object, got {other:?}"),
    }
}
