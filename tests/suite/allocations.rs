//! Allocation-regression guards over the serving hot path, cold picture
//! scoring and video tree construction.
//!
//! The zero-copy work (interned formula keys, `Arc`-shared tables and
//! lists, galloping kernels with exact reservations) only stays won if a
//! change that quietly reintroduces per-call cloning fails CI. This test
//! binary installs a counting global allocator — confined to this binary,
//! so no production code path ever sees it — and asserts an upper bound on
//! heap allocations per warm serve query and per video of a warm corpus
//! query, and on the live heap bytes and allocations per shot of a built
//! video tree.
//!
//! The bound is deliberately generous (roughly 2× the measured value at
//! the time of writing) so it only trips on structural regressions — a
//! reintroduced deep clone or per-call key formatting — and not on small
//! legitimate drifts. Update it consciously when the hot path changes
//! shape; `docs/performance.md` describes how.

use simvid_core::Engine;
use simvid_htl::parse;
use simvid_model::{VideoBuilder, VideoStore};
use simvid_obs::Registry;
use simvid_picture::{CacheConfig, LiveConfig, LiveVideoDb, PictureSystem, ScoringConfig};
use simvid_workload::randomvideo::{generate as generate_video, VideoGenConfig};
use simvid_workload::serve;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Counts allocations (and reallocations) and the change in live heap
/// bytes while armed; delegates all real work to the system allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

/// Records one allocation call that changes the live heap by `delta` bytes.
fn record(allocation: bool, delta: i64) {
    if ARMED.load(Ordering::Relaxed) {
        if allocation {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(true, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(true, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(true, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(false, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by each test for its whole body: the counter is process-wide, so
/// a concurrently running test would otherwise add its allocations.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Runs `work` with the counter armed and returns its result, the
/// allocations it made and the heap bytes it left live.
fn count_footprint<T>(work: impl FnOnce() -> T) -> (T, u64, i64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = work();
    ARMED.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

/// Runs `work` with the counter armed and returns the allocations it made.
fn count_allocations(work: impl FnOnce()) -> u64 {
    count_footprint(work).1
}

/// Upper bound on heap allocations per warm serve-smoke query, averaged
/// over the pool. Measured ≈ 55/query when introduced; the bound leaves
/// ~2× headroom for legitimate drift while still catching a reintroduced
/// per-row table clone (which multiplies the count, not nudges it).
const MAX_ALLOCATIONS_PER_QUERY: u64 = 128;

#[test]
fn warm_serve_queries_stay_under_allocation_budget() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    // The serve-smoke shape: a flat 40-shot video and the serving layer's
    // standard query pool, with the cross-query cache enabled and primed.
    let tree = generate_video(
        &VideoGenConfig {
            branching: vec![40],
            ..VideoGenConfig::default()
        },
        42,
    );
    let sys = PictureSystem::with_cache(&tree, ScoringConfig::default(), CacheConfig::default());
    let engine = Engine::new(&sys, &tree);
    let pool = serve::query_pool();
    let depth = tree.leaf_level();

    // Prime: every atomic unit scored once, every formula compiled once.
    for f in &pool {
        let _ = engine.top_k_closed(f, depth, 10).unwrap();
    }
    assert!(
        sys.cache_stats().misses > 0,
        "priming must populate the cross-query cache"
    );

    // Measure a warm round: every query answered from shared cached
    // tables, so the remaining allocations are join/prune outputs only.
    const ROUNDS: u64 = 3;
    let allocations = count_allocations(|| {
        for _ in 0..ROUNDS {
            for f in &pool {
                let _ = engine.top_k_closed(f, depth, 10).unwrap();
            }
        }
    });
    let queries = ROUNDS * pool.len() as u64;
    let per_query = allocations / queries;
    assert!(
        per_query <= MAX_ALLOCATIONS_PER_QUERY,
        "warm serve queries allocate too much: {per_query}/query \
         (budget {MAX_ALLOCATIONS_PER_QUERY}; total {allocations} over {queries} queries). \
         A jump here usually means a deep clone or per-call key allocation \
         crept back into the hot path — see docs/performance.md."
    );
    // Guard the guard: a broken counter that never counts would pass any
    // budget trivially.
    assert!(
        allocations > 0,
        "the counting allocator must observe the workload"
    );
}

/// Upper bound on heap allocations for one cold `PictureSystem::query` of
/// the two-variable conjunction below over a 64-shot video, counting the
/// compile and the level index build. The branch-and-bound scorer measured
/// 620 when introduced; the odometer it replaced made 10 506 (a
/// `String`-keyed `Env` per joint binding and a clone of it per conjunct).
/// The bound leaves ~2× headroom.
const MAX_COLD_SCORE_ALLOCATIONS: u64 = 1_250;

#[test]
fn cold_two_variable_scoring_stays_under_allocation_budget() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    // The benchmark's video shape: 64 shots, 10 objects, ~3 per shot.
    let tree = generate_video(
        &VideoGenConfig {
            branching: vec![64],
            object_count: 10,
            objects_per_leaf: 3.0,
            ..VideoGenConfig::default()
        },
        7,
    );
    let f =
        parse("exists x . exists y . person(y) and near(x, y) and moving(x) and height(x) > 100")
            .unwrap();
    let depth = tree.leaf_level();
    let sys = PictureSystem::new(&tree, ScoringConfig::default());
    let mut rows = 0;
    let allocations = count_allocations(|| {
        rows = sys.query(&f, depth).unwrap().rows.len();
    });
    assert_eq!(rows, 1, "a closed query scores one row");
    assert!(
        allocations <= MAX_COLD_SCORE_ALLOCATIONS,
        "cold scoring allocates too much: {allocations} allocations \
         (budget {MAX_COLD_SCORE_ALLOCATIONS}). A jump here usually means \
         per-binding environments or clones crept back into the scorer."
    );
    assert!(
        allocations > 0,
        "the counting allocator must observe the workload"
    );
}

/// Upper bound on heap allocations per video per warm corpus query: a
/// `LivePin::top_k` over a 2-shard live corpus, averaged over the serve
/// pool and the videos. The corpus plans each query once and builds each
/// video's engine on shared metric handles, and no pool query repeats a
/// subformula, so no engine fills a memo map: measured 17 per video
/// (18 while every engine still filled a memo that never hit). Before
/// shared handles, every video's engine re-resolved its 14 `engine.*`
/// metrics by name and re-derived the atomic units and memo keys per
/// node: 74 per video. The bound leaves ~2× headroom.
const MAX_CORPUS_ALLOCATIONS_PER_VIDEO: u64 = 34;

#[test]
fn warm_corpus_queries_stay_under_allocation_budget_per_video() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    const VIDEOS: u64 = 8;
    let mut store = VideoStore::new();
    for seed in 0..VIDEOS {
        store.add(generate_video(
            &VideoGenConfig {
                branching: vec![16],
                object_count: 10,
                objects_per_leaf: 3.0,
                ..VideoGenConfig::default()
            },
            seed,
        ));
    }
    let db = LiveVideoDb::new(
        store,
        LiveConfig {
            shards: 2,
            ..LiveConfig::default()
        },
        Arc::new(Registry::new()),
    );
    let pool = serve::query_pool();
    let pin = db.pin();
    // Prime every video's caches with every query.
    for f in &pool {
        pin.top_k(f, 1, 10).unwrap();
    }
    const ROUNDS: u64 = 3;
    let allocations = count_allocations(|| {
        for _ in 0..ROUNDS {
            for f in &pool {
                pin.top_k(f, 1, 10).unwrap();
            }
        }
    });
    let per_video = allocations / (ROUNDS * pool.len() as u64 * VIDEOS);
    assert!(
        per_video <= MAX_CORPUS_ALLOCATIONS_PER_VIDEO,
        "warm corpus queries allocate too much: {per_video} per video per query \
         (budget {MAX_CORPUS_ALLOCATIONS_PER_VIDEO}; total {allocations}). A jump here \
         usually means per-video engine set-up or per-node planning crept back \
         into the scatter loop — see docs/performance.md."
    );
    assert!(
        allocations > 0,
        "the counting allocator must observe the workload"
    );
}

/// Upper bounds per shot for a flat 10^5-leaf tree built through
/// `VideoBuilder`, counting the caller's label `String` (built in one
/// allocation: `format!` would grow its buffer once more for these
/// labels). The columnar tree measured 35.5 live bytes and 1.001
/// allocations per shot when introduced: the label's bytes are copied into
/// one shared arena and every column grows by doubling. The tree of
/// `SegmentNode` structs it replaced held 246.7 bytes and made 2.0
/// allocations per shot: a 168-byte node in one arena, plus a heap label
/// and a heap span list of one allocation each.
const MAX_TREE_BYTES_PER_SHOT: f64 = 64.0;
const MAX_TREE_ALLOCATIONS_PER_SHOT: f64 = 1.1;

#[test]
fn flat_tree_stays_under_footprint_budget_per_shot() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
    const SHOTS: u32 = 100_000;
    let (tree, allocations, live) = count_footprint(|| {
        let mut b = VideoBuilder::new("flat");
        b.set_level_names(["video", "shot"]);
        for i in 0..SHOTS {
            let mut label = String::with_capacity(8);
            write!(label, "s{i}").unwrap();
            b.leaf(label);
        }
        b.finish().unwrap()
    });
    assert_eq!(tree.level_sequence(1).len(), SHOTS as usize);
    let bytes = live as f64 / f64::from(SHOTS);
    let per_shot = allocations as f64 / f64::from(SHOTS);
    assert!(
        bytes <= MAX_TREE_BYTES_PER_SHOT,
        "a built tree holds {bytes:.1} live heap bytes per shot \
         (budget {MAX_TREE_BYTES_PER_SHOT}); see docs/performance.md"
    );
    assert!(
        per_shot <= MAX_TREE_ALLOCATIONS_PER_SHOT,
        "building a tree makes {per_shot:.3} allocations per shot \
         (budget {MAX_TREE_ALLOCATIONS_PER_SHOT}, one of them the caller's label)"
    );
    // Guard the guard: the caller's labels alone are one allocation each.
    assert!(
        per_shot >= 1.0,
        "the counting allocator must observe the build"
    );
}
