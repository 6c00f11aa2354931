//! Benchmark harness shared by the Criterion benches and the `repro`
//! binary that regenerates every table and figure of the paper.

use serde::Serialize;
use simvid_core::ShardHit;
use simvid_core::{
    list, top_k, AtomicProvider, Engine, EngineConfig, Interval, RankedSegment, SeqContext,
    SimilarityList, SimilarityTable, ValueTable,
};
use simvid_htl::{parse, AtomicUnit, AttrFn, Formula, FormulaId};
use simvid_model::{CorpusEpoch, VideoBuilder, VideoTree};
use simvid_obs::Registry;
use simvid_picture::{
    shard_of, CacheConfig, FaultTarget, LiveConfig, LivePin, LiveVideoDb, PictureSystem, ReplicaId,
    ScoringConfig, ShardId, ShardedAnswer,
};
use simvid_relal::{translate, Database};
use simvid_resilience::{FaultPlan, FaultyProvider, RetryPolicy};
use simvid_workload::randomlists::{generate, ListGenConfig};
use simvid_workload::serve::{self, ExecutorConfig, RequestLimits, RequestOutcome, ServeConfig};
use simvid_workload::shard::{build_corpus, run_corpus, CorpusConfig, CorpusWorkload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `until` threshold used throughout the evaluation.
pub const THETA: f64 = 0.5;

/// The sizes of the paper's Tables 5 and 6.
pub const PAPER_SIZES: &[u32] = &[10_000, 50_000, 100_000];

/// The paper's measured seconds for Table 5 (`P1 ∧ P2`) — `(size, direct,
/// sql)`. (The 10000-row direct time is partially illegible in the
/// scanned paper; the legible rows are kept for shape comparison.)
pub const PAPER_TABLE5: &[(u32, Option<f64>, Option<f64>)] = &[
    (10_000, None, None),
    (50_000, None, None),
    (100_000, None, None),
];

/// The paper's measured seconds for Table 6 (`P1 until P2`).
pub const PAPER_TABLE6: &[(u32, Option<f64>, Option<f64>)] = &[
    (10_000, Some(1.46), Some(42.14)),
    (50_000, Some(7.35), Some(99.72)),
    (100_000, Some(14.97), Some(134.63)),
];

/// One measured row of a performance table.
#[derive(Debug, Clone, Serialize)]
pub struct PerfRow {
    /// Sequence length (number of shots).
    pub n: u32,
    /// Direct-algorithm wall time.
    pub direct: Duration,
    /// SQL-baseline wall time (script execution only, inputs preloaded).
    pub sql: Duration,
    /// Entries in each input list.
    pub input_entries: (usize, usize),
    /// Entries in the output list.
    pub output_entries: usize,
}

impl PerfRow {
    /// SQL time over direct time.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.sql.as_secs_f64() / self.direct.as_secs_f64().max(1e-12)
    }
}

/// The two inputs of a performance measurement.
#[must_use]
pub fn workload_lists(n: u32, seed: u64) -> (SimilarityList, SimilarityList) {
    let cfg = ListGenConfig::default().with_n(n);
    (
        generate(&cfg, seed),
        generate(&cfg, seed ^ 0x9e37_79b9_7f4a_7c15),
    )
}

/// A third input for the complex formulas.
#[must_use]
pub fn third_list(n: u32, seed: u64) -> SimilarityList {
    let cfg = ListGenConfig::default().with_n(n);
    generate(&cfg, seed ^ 0x1234_5678_9abc_def0)
}

/// A database preloaded with the `numbers` table for sequences of length
/// `n`.
#[must_use]
pub fn prepared_db(n: u32) -> Database {
    let mut db = Database::new();
    translate::load_numbers(&mut db, n).expect("numbers table loads");
    db
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// A provider serving fixed similarity lists keyed by the atomic unit's
/// interned [`FormulaId`] (entries arrive as source strings `P1()`,
/// `P2()`, …, parsed and interned once at construction), sliced to the
/// requested window — the engine-level analogue of the raw list workloads.
pub struct ListProvider {
    lists: Vec<(FormulaId, SimilarityList)>,
}

impl ListProvider {
    /// Wraps `(predicate, list)` pairs; each predicate source is parsed
    /// and interned up front so lookups compare `Copy` ids, not strings.
    ///
    /// # Panics
    ///
    /// Panics if a predicate source fails to parse.
    #[must_use]
    pub fn new(lists: Vec<(String, SimilarityList)>) -> ListProvider {
        ListProvider {
            lists: lists
                .into_iter()
                .map(|(src, l)| {
                    let f = parse(&src).unwrap_or_else(|e| panic!("bad workload key `{src}`: {e}"));
                    (FormulaId::of(&f), l)
                })
                .collect(),
        }
    }

    fn lookup(&self, f: &Formula) -> &SimilarityList {
        let id = FormulaId::of(f);
        self.lists
            .iter()
            .find(|(k, _)| *k == id)
            .map(|(_, l)| l)
            .unwrap_or_else(|| panic!("no workload list for `{f}`"))
    }
}

impl AtomicProvider for ListProvider {
    fn atomic_table(&self, unit: &AtomicUnit, ctx: SeqContext) -> Arc<SimilarityTable> {
        let l = self.lookup(&unit.formula);
        Arc::new(SimilarityTable::from_list(
            l.slice_window(ctx.lo + 1, ctx.hi),
        ))
    }

    fn atomic_max(&self, unit: &AtomicUnit) -> f64 {
        self.lookup(&unit.formula).max()
    }

    fn value_table(&self, _f: &AttrFn, _c: SeqContext) -> ValueTable {
        ValueTable::default()
    }
}

/// A scene/shot hierarchy: root → `scenes` scenes → `shots_per_scene`
/// shots each, so level modals descend into one sequence per scene.
#[must_use]
pub fn scene_tree(scenes: u32, shots_per_scene: u32) -> VideoTree {
    let mut b = VideoBuilder::new("bench");
    b.set_level_names(["video", "scene", "shot"]);
    for s in 0..scenes {
        b.child(format!("scene{s}"));
        for i in 0..shots_per_scene {
            b.leaf(format!("s{s}.{i}"));
        }
        b.up();
    }
    b.finish().expect("bench tree builds")
}

/// Shots per scene in the engine-mode workload.
pub const SHOTS_PER_SCENE: u32 = 250;

/// The engine-mode workload: an `n`-shot video split into scenes plus a
/// provider serving Table 5/6-shaped random lists for `P1()` and `P2()`.
#[must_use]
pub fn memo_workload(n: u32, seed: u64) -> (VideoTree, ListProvider) {
    let scenes = n.div_ceil(SHOTS_PER_SCENE).max(1);
    let tree = scene_tree(scenes, SHOTS_PER_SCENE);
    let (p1, p2) = workload_lists(scenes * SHOTS_PER_SCENE, seed);
    let provider = ListProvider::new(vec![("P1()".into(), p1), ("P2()".into(), p2)]);
    (tree, provider)
}

/// The engine-mode query: the level-modal block descends into every
/// scene, and its repetition under `eventually` is a whole-subtree memo
/// hit.
#[must_use]
pub fn memo_query() -> Formula {
    parse("(at shot level (P1() until P2())) and eventually at shot level (P1() until P2())")
        .expect("workload query parses")
}

/// One row of the engine execution-mode comparison: the same query with
/// the memo layer off and on.
#[derive(Debug, Clone, Serialize)]
pub struct EngineModeRow {
    /// Total shot count.
    pub n: u32,
    /// Un-memoized wall time.
    pub plain: Duration,
    /// Wall time with the memo layer on.
    pub memoized: Duration,
}

impl EngineModeRow {
    /// Un-memoized time over memoized time.
    #[must_use]
    pub fn memo_speedup(&self) -> f64 {
        self.plain.as_secs_f64() / self.memoized.as_secs_f64().max(1e-12)
    }
}

/// Measures the engine-mode comparison for one workload size, asserting
/// along the way that both modes produce identical results.
#[must_use]
pub fn measure_engine_modes(n: u32, seed: u64) -> EngineModeRow {
    let (tree, provider) = memo_workload(n, seed);
    let query = memo_query();
    // Best of several runs: each top-level eval redoes the full work (the
    // engine resets stats and memo per call), and the minimum filters out
    // scheduler noise at millisecond scales.
    let run = |cfg: EngineConfig| {
        let engine = Engine::with_config(&provider, &tree, cfg);
        let mut best: Option<(SimilarityList, Duration)> = None;
        for _ in 0..5 {
            let (out, d) = time(|| {
                engine
                    .eval_closed_at_level(&query, 1)
                    .expect("workload query evaluates")
            });
            if best.as_ref().is_none_or(|(_, b)| d < *b) {
                best = Some((out, d));
            }
        }
        best.expect("at least one run")
    };
    let (plain_out, plain) = run(EngineConfig {
        memoize: false,
        ..EngineConfig::default()
    });
    let (memo_out, memoized) = run(EngineConfig::default());
    assert_eq!(plain_out, memo_out, "memoized evaluation diverged");
    EngineModeRow { n, plain, memoized }
}

/// Formats the engine execution-mode table.
#[must_use]
pub fn format_engine_mode_table(title: &str, rows: &[EngineModeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>8}  {:>10}  {:>10}  {:>8}",
        "Size", "Plain (s)", "Memo (s)", "Memo ×"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8}  {:>10.4}  {:>10.4}  {:>8.2}",
            r.n,
            r.plain.as_secs_f64(),
            r.memoized.as_secs_f64(),
            r.memo_speedup(),
        );
    }
    out
}

/// Measures `P1 ∧ P2` both ways (Table 5). The SQL measurement excludes
/// input loading, matching the paper's methodology ("the time required is
/// the time for executing the sequence of SQL queries generated on the
/// similarity tables of P1 and P2"); the direct measurement covers the
/// merge itself (the inputs arrive sorted from the picture system).
#[must_use]
pub fn measure_conjunction(n: u32, seed: u64) -> PerfRow {
    let (a, b) = workload_lists(n, seed);
    let (direct_out, direct) = time(|| list::and(&a, &b));
    let mut db = prepared_db(n);
    translate::load_list(&mut db, "p1", &a).expect("load p1");
    translate::load_list(&mut db, "p2", &b).expect("load p2");
    let script = translate::conjunction_script("p1", "p2", "out_conj");
    let (_, sql) = time(|| db.execute_script(&script).expect("sql conjunction runs"));
    let sql_out = translate::read_list(&db, "out_conj", a.max() + b.max()).expect("read output");
    assert_lists_equal(&direct_out, &sql_out, n);
    PerfRow {
        n,
        direct,
        sql,
        input_entries: (a.len(), b.len()),
        output_entries: direct_out.len(),
    }
}

/// Measures `P1 until P2` both ways (Table 6).
#[must_use]
pub fn measure_until(n: u32, seed: u64) -> PerfRow {
    let (g, h) = workload_lists(n, seed);
    let (direct_out, direct) = time(|| list::until(&g, &h, THETA));
    let mut db = prepared_db(n);
    translate::load_list(&mut db, "p1", &g).expect("load p1");
    translate::load_list(&mut db, "p2", &h).expect("load p2");
    let cut = THETA * g.max() - 1e-12;
    let script = translate::until_script("p1", "p2", "out_until", cut);
    let (_, sql) = time(|| db.execute_script(&script).expect("sql until runs"));
    let sql_out = translate::read_list(&db, "out_until", h.max()).expect("read output");
    assert_lists_equal(&direct_out, &sql_out, n);
    PerfRow {
        n,
        direct,
        sql,
        input_entries: (g.len(), h.len()),
        output_entries: direct_out.len(),
    }
}

/// Measures `(P1 ∧ P2) until P3` both ways (the first "more complex
/// formula" of §4.2).
#[must_use]
pub fn measure_complex1(n: u32, seed: u64) -> PerfRow {
    let (p1, p2) = workload_lists(n, seed);
    let p3 = third_list(n, seed);
    let (direct_out, direct) = time(|| {
        let conj = list::and(&p1, &p2);
        list::until(&conj, &p3, THETA)
    });
    let mut db = prepared_db(n);
    translate::load_list(&mut db, "p1", &p1).expect("load p1");
    translate::load_list(&mut db, "p2", &p2).expect("load p2");
    translate::load_list(&mut db, "p3", &p3).expect("load p3");
    let cut = THETA * (p1.max() + p2.max()) - 1e-12;
    let script = format!(
        "{}\n{}",
        translate::conjunction_script("p1", "p2", "c12"),
        translate::until_script("c12", "p3", "out_cx1", cut)
    );
    let (_, sql) = time(|| db.execute_script(&script).expect("sql complex1 runs"));
    let sql_out = translate::read_list(&db, "out_cx1", p3.max()).expect("read output");
    assert_lists_equal(&direct_out, &sql_out, n);
    PerfRow {
        n,
        direct,
        sql,
        input_entries: (p1.len() + p2.len(), p3.len()),
        output_entries: direct_out.len(),
    }
}

/// Measures `P1 ∧ eventually (P2 until P3)` both ways (the second complex
/// formula).
#[must_use]
pub fn measure_complex2(n: u32, seed: u64) -> PerfRow {
    let (p1, p2) = workload_lists(n, seed);
    let p3 = third_list(n, seed);
    let (direct_out, direct) = time(|| {
        let u = list::until(&p2, &p3, THETA);
        let ev = list::eventually(&u);
        list::and(&p1, &ev)
    });
    let mut db = prepared_db(n);
    translate::load_list(&mut db, "p1", &p1).expect("load p1");
    translate::load_list(&mut db, "p2", &p2).expect("load p2");
    translate::load_list(&mut db, "p3", &p3).expect("load p3");
    let cut = THETA * p2.max() - 1e-12;
    let script = format!(
        "{}\n{}\n{}",
        translate::until_script("p2", "p3", "u23", cut),
        translate::eventually_script("u23", "ev23"),
        translate::conjunction_script("p1", "ev23", "out_cx2")
    );
    let (_, sql) = time(|| db.execute_script(&script).expect("sql complex2 runs"));
    let sql_out = translate::read_list(&db, "out_cx2", p1.max() + p3.max()).expect("read output");
    assert_lists_equal(&direct_out, &sql_out, n);
    PerfRow {
        n,
        direct,
        sql,
        input_entries: (p1.len() + p2.len(), p3.len()),
        output_entries: direct_out.len(),
    }
}

/// One measurement of the serving workload: the same request schedule
/// against a cold (cache-disabled) and a warm (cache-enabled, primed)
/// retrieval system.
#[derive(Debug, Clone, Serialize)]
pub struct ServeRow {
    /// Shots in the served video.
    pub shots: u32,
    /// Requests in the schedule.
    pub requests: usize,
    /// Distinct queries the schedule touches.
    pub distinct_queries: usize,
    /// `k` of each top-`k` request.
    pub k: usize,
    /// Wall time of the schedule with the atomic cache disabled.
    pub cold: Duration,
    /// Wall time with the cache enabled and primed by one warm-up pass.
    pub warm: Duration,
    /// Atomic-cache hits across the warm run (priming included).
    pub cache_hits: usize,
    /// Atomic-cache misses across the warm run.
    pub cache_misses: usize,
    /// Entries pruned by the upper-bound top-`k` paths, summed over the
    /// warm schedule.
    pub entries_pruned: usize,
    /// FNV-1a digest over the bit patterns of every ranked answer. The
    /// engine guarantees bit-identical output across execution modes, so
    /// this is machine-stable — the bench gate compares it against the
    /// checked-in baseline to catch silent result drift.
    pub results_digest: String,
}

impl ServeRow {
    /// Cold time over warm time — the cross-query cache's throughput win.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(1e-12)
    }
}

/// FNV-1a (64-bit) over the bit patterns of every ranked segment: request
/// count, then per request its length and each segment's position and
/// similarity bits. Equal outputs hash equally on every platform.
#[must_use]
pub fn results_digest(results: &[Vec<RankedSegment>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(results.len() as u64);
    for request in results {
        eat(request.len() as u64);
        for seg in request {
            eat(u64::from(seg.pos));
            eat(seg.sim.act.to_bits());
            eat(seg.sim.max.to_bits());
        }
    }
    format!("{h:016x}")
}

/// Runs the serving workload cold and warm, asserting request-for-request
/// identical results, and reports both wall times. Metrics from the warm
/// (steady-state) system land in a private registry; use
/// [`measure_serve_with_registry`] to capture them.
#[must_use]
pub fn measure_serve(cfg: &ServeConfig) -> ServeRow {
    measure_serve_with_registry(cfg, &Arc::new(Registry::new()))
}

/// [`measure_serve`], publishing the warm run's metrics — `engine.*`
/// counters and spans, `cache.*` lookup/residency metrics, and the
/// `serve.*` request-latency histogram — into the given registry. The
/// cold run records into its own private registry so the shared snapshot
/// describes only steady-state serving.
#[must_use]
pub fn measure_serve_with_registry(cfg: &ServeConfig, registry: &Arc<Registry>) -> ServeRow {
    let w = serve::build(cfg);
    let depth = w.depth();
    let cold_sys =
        PictureSystem::with_cache(&w.tree, ScoringConfig::default(), CacheConfig::disabled());
    let cold_engine = Engine::new(&cold_sys, &w.tree);
    let cold_run = serve::run_schedule(&w, &cold_engine);
    let warm_sys = PictureSystem::with_registry(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::with_capacity(cfg.cache_capacity),
        registry.clone(),
    );
    let warm_engine = Engine::with_registry(
        &warm_sys,
        &w.tree,
        EngineConfig::default(),
        registry.clone(),
    );
    // Prime: one pass over the pool fills the cache, as a steady-state
    // server would be after its first few requests.
    for q in &w.queries {
        let _ = warm_engine
            .top_k_closed(q, depth, w.k)
            .expect("warm-up request evaluates");
    }
    let warm_run = serve::run_schedule(&w, &warm_engine);
    assert_eq!(
        cold_run.results, warm_run.results,
        "cached retrieval must be bit-identical to uncached"
    );
    let cache = warm_sys.cache_stats();
    ServeRow {
        shots: cfg.shots,
        requests: w.schedule.len(),
        distinct_queries: w.distinct_queries(),
        k: w.k,
        cold: cold_run.elapsed,
        warm: warm_run.elapsed,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        entries_pruned: warm_run.entries_pruned,
        results_digest: results_digest(&warm_run.results),
    }
}

/// Formats the serving-workload comparison.
#[must_use]
pub fn format_serve_table(title: &str, rows: &[ServeRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6}  {:>8}  {:>4}  {:>10}  {:>10}  {:>7}  {:>8}  {:>8}  {:>8}",
        "Shots", "Requests", "k", "Cold (s)", "Warm (s)", "Warm ×", "Hits", "Misses", "Pruned"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6}  {:>8}  {:>4}  {:>10.4}  {:>10.4}  {:>7.2}  {:>8}  {:>8}  {:>8}",
            r.shots,
            r.requests,
            r.k,
            r.cold.as_secs_f64(),
            r.warm.as_secs_f64(),
            r.speedup(),
            r.cache_hits,
            r.cache_misses,
            r.entries_pruned,
        );
    }
    out
}

/// One measurement of the concurrent serving executor at a fixed worker
/// count: the same warm schedule through the sequential loop and through
/// the worker pool — asserting bit-identical rankings — plus a cold
/// concurrent run that exercises the singleflight layer's miss-storm
/// coalescing.
#[derive(Debug, Clone, Serialize)]
pub struct ServeConcurrentRow {
    /// Shots in the served video.
    pub shots: u32,
    /// Requests in the schedule.
    pub requests: usize,
    /// `k` of each top-`k` request.
    pub k: usize,
    /// Worker threads in the executor pool.
    pub workers: usize,
    /// Capacity of the bounded request queue.
    pub queue_depth: usize,
    /// Wall time of the warm schedule through the sequential loop.
    pub sequential: Duration,
    /// Wall time of the warm schedule through the worker pool.
    pub concurrent: Duration,
    /// Wall time of the schedule through the pool with a cold cache —
    /// the miss storm the singleflight layer coalesces.
    pub cold_concurrent: Duration,
    /// Cold-run lookups that coalesced onto another worker's in-flight
    /// computation instead of recomputing (scheduling-dependent: can be
    /// zero on one CPU, approaches `workers - 1` per hot key under real
    /// concurrency).
    pub coalesced: u64,
    /// Whether the warm concurrent, cold concurrent, and sequential runs
    /// produced bit-identical rankings (always true — asserted — but
    /// recorded so the bench gate can double-check the artifact).
    pub digest_matches_sequential: bool,
    /// FNV-1a digest of the concurrent run's ranked answers; equal to the
    /// sequential serve digest for the same workload config.
    pub results_digest: String,
}

impl ServeConcurrentRow {
    /// Sequential time over concurrent time — the pool's throughput win.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.concurrent.as_secs_f64().max(1e-12)
    }
}

/// Runs the serving workload through the concurrent executor at the given
/// worker count and through the sequential loop, asserting bit-identical
/// results, and reports all wall times. The warm concurrent run's metrics
/// (per-worker latency histograms, `serve.queue_depth`,
/// `serve.inflight_coalesced`, `cache.*`) land in `registry`; the
/// sequential baseline and the cold run use private registries so the
/// shared snapshot describes only the steady-state pool.
///
/// # Panics
///
/// Panics if the concurrent results diverge from the sequential ones —
/// that would be an executor ordering bug, exactly what the bench gate
/// exists to catch.
#[must_use]
pub fn measure_serve_concurrent(
    cfg: &ServeConfig,
    workers: usize,
    registry: &Arc<Registry>,
) -> ServeConcurrentRow {
    let w = serve::build(cfg);
    let depth = w.depth();
    let exec = serve::ExecutorConfig::with_workers(workers);
    // Sequential warm baseline, private registry.
    let seq_sys = PictureSystem::with_cache(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::with_capacity(cfg.cache_capacity),
    );
    let seq_engine = Engine::new(&seq_sys, &w.tree);
    for q in &w.queries {
        let _ = seq_engine
            .top_k_closed(q, depth, w.k)
            .expect("warm-up request evaluates");
    }
    let seq_run = serve::run_schedule(&w, &seq_engine);
    // Cold concurrent: every worker starts against an empty cache, so the
    // schedule head is a miss storm the singleflight layer must coalesce.
    let cold_registry = Arc::new(Registry::new());
    let cold_sys = PictureSystem::with_registry(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::with_capacity(cfg.cache_capacity),
        cold_registry.clone(),
    );
    let cold_run = serve::run_schedule_concurrent(
        &w,
        &cold_sys,
        EngineConfig::default(),
        &cold_registry,
        &exec,
    );
    let coalesced = cold_registry
        .snapshot()
        .counter("serve.inflight_coalesced")
        .unwrap_or(0);
    // Warm concurrent: primed cache, metrics into the shared registry.
    let warm_sys = PictureSystem::with_registry(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::with_capacity(cfg.cache_capacity),
        registry.clone(),
    );
    let prime_engine = Engine::with_registry(
        &warm_sys,
        &w.tree,
        EngineConfig::default(),
        registry.clone(),
    );
    for q in &w.queries {
        let _ = prime_engine
            .top_k_closed(q, depth, w.k)
            .expect("warm-up request evaluates");
    }
    let warm_run =
        serve::run_schedule_concurrent(&w, &warm_sys, EngineConfig::default(), registry, &exec);
    assert_eq!(
        warm_run.results, seq_run.results,
        "concurrent serving must be bit-identical to sequential"
    );
    assert_eq!(
        cold_run.results, seq_run.results,
        "cold concurrent serving must be bit-identical to sequential"
    );
    ServeConcurrentRow {
        shots: cfg.shots,
        requests: w.schedule.len(),
        k: w.k,
        workers: exec.workers,
        queue_depth: exec.queue_depth,
        sequential: seq_run.elapsed,
        concurrent: warm_run.elapsed,
        cold_concurrent: cold_run.elapsed,
        coalesced,
        digest_matches_sequential: true,
        results_digest: results_digest(&warm_run.results),
    }
}

/// Formats the concurrent-executor scaling comparison.
#[must_use]
pub fn format_serve_concurrent_table(title: &str, rows: &[ServeConcurrentRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>7}  {:>8}  {:>10}  {:>10}  {:>10}  {:>7}  {:>9}  {:>6}",
        "Workers", "Requests", "Seq (s)", "Conc (s)", "Cold (s)", "Conc ×", "Coalesced", "Digest"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>7}  {:>8}  {:>10.4}  {:>10.4}  {:>10.4}  {:>7.2}  {:>9}  {:>6}",
            r.workers,
            r.requests,
            r.sequential.as_secs_f64(),
            r.concurrent.as_secs_f64(),
            r.cold_concurrent.as_secs_f64(),
            r.speedup(),
            r.coalesced,
            if r.digest_matches_sequential {
                "match"
            } else {
                "DRIFT"
            },
        );
    }
    out
}

/// One measurement of the chaos serving mode: the request schedule runs
/// fault-free for ground truth, then replays through a [`FaultyProvider`]
/// injecting the given [`FaultPlan`], and every per-request outcome is
/// checked against the resilience contract.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    /// Shots in the served video.
    pub shots: u32,
    /// Requests in the schedule.
    pub requests: usize,
    /// `k` of each top-`k` request.
    pub k: usize,
    /// Seed of the fault plan.
    pub fault_seed: u64,
    /// Per-attempt transient-error probability of the plan.
    pub error_rate: f64,
    /// Per-attempt panic probability of the plan.
    pub panic_rate: f64,
    /// Attempts allowed per provider call.
    pub max_attempts: u32,
    /// Requests that resolved with the complete ranking.
    pub ok: usize,
    /// Requests that degraded to a partial ranking with sound bounds.
    pub degraded: usize,
    /// Requests that failed (captured worker panic).
    pub failed: usize,
    /// Transient faults injected across the run.
    pub injected_transient: u64,
    /// Panics injected across the run.
    pub injected_panics: u64,
    /// Retries spent recovering from transient faults.
    pub retries: u64,
    /// Provider calls that exhausted their retry allowance.
    pub giveups: u64,
    /// Requests whose epoch saw no injected fault at all.
    pub fault_free_requests: usize,
    /// Whether every fault-free request resolved `Ok` with a ranking
    /// bit-identical to the ground-truth run.
    pub fault_free_matches: bool,
    /// Whether every degraded answer's upper bounds cover the true
    /// similarity of every ground-truth top-`k` segment.
    pub bounds_sound: bool,
    /// [`results_digest`] of the fault-free ground-truth run (the same
    /// digest the serve section gates on).
    pub fault_free_digest: String,
    /// Wall time of the chaos replay.
    pub elapsed: Duration,
}

/// The sound upper bound a report carries for position `pos`, if any.
fn report_bound_at(bounds: &[(Interval, f64)], pos: u32) -> Option<f64> {
    bounds
        .iter()
        .find(|(iv, _)| iv.beg <= pos && pos <= iv.end)
        .map(|(_, b)| *b)
}

/// Runs the serving schedule under chaos and checks the resilience
/// contract request by request:
///
/// * the schedule never aborts — every request resolves to a classified
///   outcome (`ok` + `degraded` + `failed` = `requests`);
/// * a request whose epoch saw zero injected faults must produce the
///   bit-identical ranking of the fault-free ground-truth run;
/// * a degraded answer's upper bounds must dominate the true similarity
///   of every ground-truth top-`k` segment (no true answer is ever
///   certifiably excluded).
///
/// Resilience counters (`resilience.*`) and outcome counters
/// (`serve.outcome.*`) land in `registry`.
#[must_use]
pub fn measure_chaos(
    cfg: &ServeConfig,
    plan: FaultPlan,
    policy: RetryPolicy,
    registry: &Arc<Registry>,
) -> ChaosRow {
    let w = serve::build(cfg);
    // Ground truth: the plain serving path, fault-free.
    let truth_sys = PictureSystem::with_cache(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::with_capacity(cfg.cache_capacity),
    );
    let truth_engine = Engine::new(&truth_sys, &w.tree);
    let truth = serve::run_schedule(&w, &truth_engine);
    // Chaos replay: same schedule, injected faults, per-request epochs.
    let chaos_sys = PictureSystem::with_cache(
        &w.tree,
        ScoringConfig::default(),
        CacheConfig::with_capacity(cfg.cache_capacity),
    );
    let faulty = FaultyProvider::with_registry(chaos_sys, plan, policy, registry);
    let engine = Engine::with_registry(&faulty, &w.tree, EngineConfig::default(), registry.clone());
    let run = serve::run_schedule_resilient(&w, &engine, RequestLimits::default(), |r| {
        faulty.set_epoch(r as u64 + 1)
    });
    assert_eq!(run.reports.len(), w.schedule.len(), "schedule never aborts");
    let mut fault_free_requests = 0;
    let mut fault_free_matches = true;
    let mut bounds_sound = true;
    for (r, report) in run.reports.iter().enumerate() {
        if faulty.faults_in_epoch(r as u64 + 1) == 0 {
            fault_free_requests += 1;
            fault_free_matches &=
                report.outcome == RequestOutcome::Ok && report.ranked == truth.results[r];
        }
        if report.outcome == RequestOutcome::Degraded {
            for seg in &truth.results[r] {
                let covered = report_bound_at(&report.upper_bounds, seg.pos)
                    .is_some_and(|b| b >= seg.sim.act - 1e-6);
                bounds_sound &= covered;
            }
        }
    }
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    ChaosRow {
        shots: cfg.shots,
        requests: run.reports.len(),
        k: w.k,
        fault_seed: plan.seed,
        error_rate: plan.error_rate,
        panic_rate: plan.panic_rate,
        max_attempts: policy.max_attempts,
        ok: run.count(RequestOutcome::Ok),
        degraded: run.count(RequestOutcome::Degraded),
        failed: run.count(RequestOutcome::Failed),
        injected_transient: counter("resilience.faults.transient"),
        injected_panics: counter("resilience.faults.panic"),
        retries: counter("resilience.retries"),
        giveups: counter("resilience.giveups"),
        fault_free_requests,
        fault_free_matches,
        bounds_sound,
        fault_free_digest: results_digest(&truth.results),
        elapsed: run.elapsed,
    }
}

/// Formats the chaos-mode summary.
#[must_use]
pub fn format_chaos_table(title: &str, rows: &[ChaosRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>8}  {:>4}  {:>8}  {:>4}  {:>8}  {:>6}  {:>8}  {:>7}  {:>10}  {:>6}",
        "Requests",
        "Ok",
        "Degraded",
        "Fail",
        "Injected",
        "Panics",
        "Retries",
        "Giveups",
        "Fault-free",
        "Sound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8}  {:>4}  {:>8}  {:>4}  {:>8}  {:>6}  {:>8}  {:>7}  {:>10}  {:>6}",
            r.requests,
            r.ok,
            r.degraded,
            r.failed,
            r.injected_transient,
            r.injected_panics,
            r.retries,
            r.giveups,
            format!("{}/{}", r.fault_free_requests, r.requests),
            if r.fault_free_matches && r.bounds_sound {
                "yes"
            } else {
                "NO"
            },
        );
    }
    out
}

/// FNV-1a (64-bit) over the bit patterns of every sharded ranked answer:
/// request count, then per request its length and each hit's video id,
/// position and similarity bits — the multi-video twin of
/// [`results_digest`]. Scatter-gather retrieval is bit-identical to the
/// unsharded scan, so this digest is equal for every shard count.
#[must_use]
pub fn sharded_results_digest(results: &[Vec<ShardHit>]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(results.len() as u64);
    for request in results {
        eat(request.len() as u64);
        for hit in request {
            eat(u64::from(hit.video.0));
            eat(u64::from(hit.pos));
            eat(hit.sim.act.to_bits());
            eat(hit.sim.max.to_bits());
        }
    }
    format!("{h:016x}")
}

/// One measurement of the sharded scatter-gather serving path at a fixed
/// shard count: the schedule through the sequential scatter loop, through
/// the concurrent `(request, shard)` executor fan-out, and through the
/// unsharded oracle scan — all three asserted bit-identical.
#[derive(Debug, Clone, Serialize)]
pub struct ServeShardedRow {
    /// Videos in the corpus.
    pub videos: u32,
    /// Shots per video.
    pub shots: u32,
    /// Requests in the schedule.
    pub requests: usize,
    /// `k` of each corpus-wide top-`k` request.
    pub k: usize,
    /// Shard count of the partition.
    pub shards: u32,
    /// Worker threads of the concurrent fan-out.
    pub workers: usize,
    /// Wall time of the schedule through the sequential scatter loop.
    pub sequential: Duration,
    /// Wall time through the concurrent `(request, shard)` fan-out.
    pub concurrent: Duration,
    /// Wall time of the unsharded oracle scan over the same schedule.
    pub unsharded: Duration,
    /// Shard candidates the merge coordinator never consumed across the
    /// measured runs (threshold-algorithm savings).
    pub candidates_pruned: u64,
    /// Shard streams abandoned early by the coordinator across the
    /// measured runs.
    pub early_terminated: u64,
    /// Whether the sharded rankings were bit-identical to the unsharded
    /// oracle (always true — asserted — but recorded so the bench gate
    /// can double-check the artifact).
    pub digest_matches_unsharded: bool,
    /// [`sharded_results_digest`] of the per-request rankings; equal
    /// across shard counts and equal to the unsharded scan's digest.
    pub results_digest: String,
}

impl ServeShardedRow {
    /// Unsharded time over sequential scatter time — the per-shard
    /// pruning win (or overhead) of the partition.
    #[must_use]
    pub fn scatter_speedup(&self) -> f64 {
        self.unsharded.as_secs_f64() / self.sequential.as_secs_f64().max(1e-12)
    }
}

/// A corpus over `w`'s base store with `cfg`'s topology, publishing into
/// `registry`.
fn corpus_db(w: &CorpusWorkload, cfg: &CorpusConfig, registry: &Arc<Registry>) -> LiveVideoDb {
    LiveVideoDb::new(w.store.clone(), cfg.live_config(), Arc::clone(registry))
}

/// One pass over the pool fills the per-video atomic caches, as a
/// steady-state server would be after its first few requests.
fn prime(db: &LiveVideoDb, w: &CorpusWorkload) {
    let pin = db.pin();
    for q in &w.queries {
        let _ = pin
            .top_k(q, w.depth(), w.k)
            .expect("warm-up corpus request evaluates");
    }
}

/// The ranked hits of every answer of a run.
fn ranked(answers: &[ShardedAnswer]) -> Vec<Vec<ShardHit>> {
    answers.iter().map(|a| a.ranked().to_vec()).collect()
}

/// The schedule through the flat unsharded scan of a fault-free corpus:
/// the ground truth every sharded answer is checked against.
fn unsharded_truth(w: &CorpusWorkload, pin: &LivePin) -> Vec<Vec<ShardHit>> {
    w.schedule
        .iter()
        .map(|&q| {
            pin.top_k_unsharded(&w.queries[q], w.depth(), w.k)
                .expect("unsharded request evaluates")
        })
        .collect()
}

/// Runs the corpus workload at `cfg.shards` shards through the inline
/// scatter loop, the concurrent `(request, shard)` executor fan-out of
/// `workers` threads, and the unsharded oracle, asserting
/// request-for-request bit-identical rankings. The `shard.*` counters land
/// in `registry`.
///
/// # Panics
///
/// Panics if any run's rankings diverge, or if any request fails — the
/// workload is fault-free, so either indicates a coordinator bug (exactly
/// what the CI corpus gate exists to catch).
#[must_use]
pub fn measure_serve_sharded(
    cfg: &CorpusConfig,
    workers: usize,
    registry: &Arc<Registry>,
) -> ServeShardedRow {
    let w = build_corpus(cfg);
    let db = corpus_db(&w, cfg, registry);
    prime(&db, &w);
    let pruned_ctr = registry.counter("shard.candidates_pruned");
    let early_ctr = registry.counter("shard.early_terminated");
    let (pruned_before, early_before) = (pruned_ctr.get(), early_ctr.get());
    // Unsharded oracle: the flat scan the sharded paths must reproduce.
    let (oracle, unsharded_elapsed) = time(|| unsharded_truth(&w, &db.pin()));
    let seq = run_corpus(&w, &db, &ExecutorConfig::with_workers(0));
    let exec = ExecutorConfig::with_workers(workers);
    let conc = run_corpus(&w, &db, &exec);
    assert_eq!(seq.complete(), w.schedule.len(), "fault-free run degraded");
    let seq_ranked = ranked(&seq.answers);
    assert_eq!(
        seq_ranked, oracle,
        "sharded retrieval must be bit-identical to the unsharded scan"
    );
    assert_eq!(
        ranked(&conc.answers),
        seq_ranked,
        "concurrent fan-out must be bit-identical to the sequential scatter"
    );
    ServeShardedRow {
        videos: cfg.videos,
        shots: cfg.shots,
        requests: w.schedule.len(),
        k: w.k,
        shards: cfg.shards,
        workers: exec.workers,
        sequential: seq.elapsed,
        concurrent: conc.elapsed,
        unsharded: unsharded_elapsed,
        candidates_pruned: pruned_ctr.get() - pruned_before,
        early_terminated: early_ctr.get() - early_before,
        digest_matches_unsharded: true,
        results_digest: sharded_results_digest(&seq_ranked),
    }
}

/// Formats the shard-count scaling comparison.
#[must_use]
pub fn format_serve_sharded_table(title: &str, rows: &[ServeShardedRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6}  {:>8}  {:>7}  {:>10}  {:>10}  {:>10}  {:>8}  {:>8}  {:>6}",
        "Shards",
        "Requests",
        "Workers",
        "Flat (s)",
        "Scat (s)",
        "Conc (s)",
        "Pruned",
        "EarlyTrm",
        "Digest"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6}  {:>8}  {:>7}  {:>10.4}  {:>10.4}  {:>10.4}  {:>8}  {:>8}  {:>6}",
            r.shards,
            r.requests,
            r.workers,
            r.unsharded.as_secs_f64(),
            r.sequential.as_secs_f64(),
            r.concurrent.as_secs_f64(),
            r.candidates_pruned,
            r.early_terminated,
            if r.digest_matches_unsharded {
                "match"
            } else {
                "DRIFT"
            },
        );
    }
    out
}

/// One measurement of the degraded-shard serving mode: one shard's
/// providers are forced to fail every call, and every request must
/// degrade to a sound answer over the surviving shards.
#[derive(Debug, Clone, Serialize)]
pub struct ShardChaosRow {
    /// Videos in the corpus.
    pub videos: u32,
    /// Requests in the schedule.
    pub requests: usize,
    /// `k` of each request.
    pub k: usize,
    /// Shard count of the partition.
    pub shards: u32,
    /// The shard forced to fail.
    pub victim_shard: u32,
    /// Videos assigned to the victim shard.
    pub victim_videos: usize,
    /// Requests that resolved complete (expected zero: the victim fails
    /// every call).
    pub ok: usize,
    /// Requests that degraded to a surviving-shards answer.
    pub degraded: usize,
    /// Failed shards per request, maximised over the schedule (the
    /// contract expects exactly 1 — the victim and only the victim).
    pub failed_per_request: usize,
    /// Whether every degraded answer names exactly the victim shard.
    pub failed_shard_is_victim: bool,
    /// Whether every ground-truth top-`k` hit is either present in the
    /// degraded answer or attributable to the victim shard with actual
    /// similarity at most the answer's `missing_bound`.
    pub bounds_sound: bool,
    /// Provider calls that exhausted their retry allowance (all on the
    /// victim shard).
    pub giveups: u64,
    /// Retry attempts burned across the schedule before the victim's
    /// calls gave up.
    pub retries: u64,
    /// The largest finite `missing_bound` any degraded answer carried for
    /// the victim shard — the ceiling on what the lost shard could have
    /// contributed. `None` when no degraded answer had surviving hits to
    /// bound against.
    pub missing_bound: Option<f64>,
    /// Wall time of the degraded schedule.
    pub elapsed: Duration,
}

/// The fault world of the chaos sections: every provider call fails, and
/// gives up after two attempts.
fn always_fail() -> (FaultPlan, RetryPolicy) {
    let plan = FaultPlan {
        seed: 0x5AD_C4A05,
        error_rate: 1.0,
        panic_rate: 0.0,
        latency_rate: 0.0,
        latency: Duration::ZERO,
    };
    let policy = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    };
    (plan, policy)
}

/// The first shard holding at least one video: the chaos victim.
fn victim_shard(pin: &LivePin) -> ShardId {
    (0..pin.shard_count())
        .map(ShardId)
        .find(|&s| !pin.videos_in(s).is_empty())
        .expect("corpus is non-empty")
}

/// Checks the degraded answers of a chaos run against ground truth: every
/// truth hit is either present verbatim, or belongs to the victim shard and
/// is dominated by the answer's `missing_bound`. Returns whether all were
/// sound and the largest finite bound carried.
fn degraded_bounds(
    answers: &[ShardedAnswer],
    truth: &[Vec<ShardHit>],
    shards: u32,
    victim: ShardId,
) -> (bool, Option<f64>) {
    let mut sound = true;
    let mut largest: Option<f64> = None;
    for (answer, truth_ranked) in answers.iter().zip(truth) {
        let ShardedAnswer::Degraded(d) = answer else {
            continue;
        };
        if d.missing_bound.is_finite() {
            largest = Some(largest.map_or(d.missing_bound, |m| m.max(d.missing_bound)));
        }
        for hit in truth_ranked {
            let present = d.ranked.iter().any(|h| {
                h.video == hit.video
                    && h.pos == hit.pos
                    && h.sim.act.to_bits() == hit.sim.act.to_bits()
            });
            let excused =
                shard_of(hit.video, shards) == victim && hit.sim.act <= d.missing_bound + 1e-6;
            sound &= present || excused;
        }
    }
    (sound, largest)
}

/// Runs the corpus schedule with one shard forced to fail (per-call
/// transient-error probability 1.0 — every provider call on the victim
/// gives up after retries, until its breaker opens and skips it) and
/// checks the degraded-shard contract request by request:
///
/// * the schedule never aborts — every request resolves;
/// * every request degrades (the victim holds at least one video and
///   every pool query touches its providers), naming exactly the victim;
/// * the answer over the surviving shards is sound: every ground-truth
///   top-`k` hit either appears verbatim, or belongs to the victim shard
///   and is dominated by the answer's `missing_bound`.
///
/// The victim is the first shard with at least one video. `shard.*`,
/// `replica.*` and `resilience.*` counters land in `registry`; the row
/// records this run's retries and give-ups as deltas, since other
/// sections may share the registry.
#[must_use]
pub fn measure_shard_chaos(cfg: &CorpusConfig, registry: &Arc<Registry>) -> ShardChaosRow {
    let w = build_corpus(cfg);
    let shards = cfg.shards;
    // Ground truth: a pristine corpus, fault-free, on a scratch registry.
    let pristine = corpus_db(&w, cfg, &Arc::new(Registry::new())).pin();
    let truth = unsharded_truth(&w, &pristine);
    let victim = victim_shard(&pristine);
    let victim_videos = pristine.videos_in(victim).len();
    let (plan, policy) = always_fail();
    let db = corpus_db(&w, cfg, registry).with_read_faults(
        plan,
        policy,
        FaultTarget::Shard(victim, None),
    );
    let retries = registry.counter("resilience.retries");
    let giveups = registry.counter("resilience.giveups");
    let (r0, g0) = (retries.get(), giveups.get());
    let run = run_corpus(&w, &db, &ExecutorConfig::with_workers(0));
    let (retries, giveups) = (retries.get() - r0, giveups.get() - g0);
    assert_eq!(run.answers.len(), w.schedule.len(), "schedule never aborts");
    let mut failed_per_request = 0usize;
    let mut failed_shard_is_victim = true;
    for answer in &run.answers {
        match answer {
            // The victim answers nothing, so a complete answer means the
            // contract is broken unless the victim was empty.
            ShardedAnswer::Complete(_) => failed_shard_is_victim &= victim_videos == 0,
            ShardedAnswer::Degraded(d) => {
                failed_per_request = failed_per_request.max(d.failed.len());
                failed_shard_is_victim &= d.failed.len() == 1 && d.failed[0].0 == victim;
            }
        }
    }
    let (bounds_sound, missing_bound) = degraded_bounds(&run.answers, &truth, shards, victim);
    ShardChaosRow {
        videos: cfg.videos,
        requests: run.answers.len(),
        k: w.k,
        shards,
        victim_shard: victim.0,
        victim_videos,
        ok: run.complete(),
        degraded: run.degraded(),
        failed_per_request,
        failed_shard_is_victim,
        bounds_sound,
        giveups,
        retries,
        missing_bound,
        elapsed: run.elapsed,
    }
}

/// Formats the degraded-shard summary.
#[must_use]
pub fn format_shard_chaos_table(title: &str, rows: &[ShardChaosRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>8}  {:>6}  {:>6}  {:>4}  {:>8}  {:>12}  {:>7}  {:>8}  {:>7}  {:>6}",
        "Requests",
        "Shards",
        "Victim",
        "Ok",
        "Degraded",
        "Failed/req",
        "Retries",
        "Giveups",
        "Bound",
        "Sound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8}  {:>6}  {:>6}  {:>4}  {:>8}  {:>12}  {:>7}  {:>8}  {:>7}  {:>6}",
            r.requests,
            r.shards,
            format!("s{} ({}v)", r.victim_shard, r.victim_videos),
            r.ok,
            r.degraded,
            r.failed_per_request,
            r.retries,
            r.giveups,
            r.missing_bound
                .map_or_else(|| "-".to_string(), |b| format!("{b:.3}")),
            if r.failed_shard_is_victim && r.bounds_sound {
                "yes"
            } else {
                "NO"
            },
        );
    }
    out
}

/// One measurement of the replicated scatter-gather serving path at a
/// fixed `(shards, replicas)` topology: the schedule through the
/// sequential failover loop and through the concurrent `(request, shard)`
/// executor fan-out, both asserted bit-identical to the single-replica
/// scatter over the same corpus.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReplicatedRow {
    /// Videos in the corpus.
    pub videos: u32,
    /// Shots per video.
    pub shots: u32,
    /// Requests in the schedule.
    pub requests: usize,
    /// `k` of each corpus-wide top-`k` request.
    pub k: usize,
    /// Shard count of the partition.
    pub shards: u32,
    /// Replicas per shard.
    pub replicas: u32,
    /// Worker threads of the concurrent fan-out.
    pub workers: usize,
    /// Wall time through the sequential failover scatter loop.
    pub sequential: Duration,
    /// Wall time through the concurrent `(request, shard)` fan-out.
    pub concurrent: Duration,
    /// Shard reads served by a non-leading failover candidate (zero in
    /// this fault-free measurement — asserted).
    pub failover: u64,
    /// Hedged primary reads (zero with hedging disabled).
    pub hedges: u64,
    /// Whether the replicated rankings were bit-identical to the plain
    /// sharded scatter (always true — asserted — but recorded so the
    /// bench gate can double-check the artifact).
    pub digest_matches_sharded: bool,
    /// [`sharded_results_digest`] of the per-request rankings; equal to
    /// the single-replica digest for every replica count.
    pub results_digest: String,
}

/// Runs the corpus workload at `cfg.replicas` replicas per video — inline
/// and through the concurrent executor fan-out of `workers` threads — and
/// asserts both bit-identical to the single-replica corpus. Replication is
/// a pure availability construct: with no faults injected, the leading
/// failover candidate serves every read and the rankings cannot move. The
/// `replica.*` breaker gauges and counters land in `registry`.
///
/// # Panics
///
/// Panics if any run's rankings diverge or any request degrades — both
/// coordinator bugs the CI corpus gate exists to catch.
#[must_use]
pub fn measure_serve_replicated(
    cfg: &CorpusConfig,
    workers: usize,
    registry: &Arc<Registry>,
) -> ServeReplicatedRow {
    let w = build_corpus(cfg);
    // The single-replica reference the replicated corpus must reproduce.
    let single = CorpusConfig {
        replicas: 1,
        ..cfg.clone()
    };
    let reference = run_corpus(
        &w,
        &corpus_db(&w, &single, &Arc::new(Registry::new())),
        &ExecutorConfig::with_workers(0),
    );
    let db = corpus_db(&w, cfg, registry);
    prime(&db, &w);
    let seq = run_corpus(&w, &db, &ExecutorConfig::with_workers(0));
    let exec = ExecutorConfig::with_workers(workers);
    let conc = run_corpus(&w, &db, &exec);
    assert_eq!(seq.complete(), w.schedule.len(), "fault-free run degraded");
    let seq_ranked = ranked(&seq.answers);
    assert_eq!(
        seq_ranked,
        ranked(&reference.answers),
        "replicated retrieval must be bit-identical to the single-replica corpus"
    );
    assert_eq!(
        ranked(&conc.answers),
        seq_ranked,
        "concurrent fan-out must be bit-identical to the sequential scatter"
    );
    let snap = registry.snapshot();
    ServeReplicatedRow {
        videos: cfg.videos,
        shots: cfg.shots,
        requests: w.schedule.len(),
        k: w.k,
        shards: cfg.shards,
        replicas: cfg.replicas,
        workers: exec.workers,
        sequential: seq.elapsed,
        concurrent: conc.elapsed,
        failover: snap.counter("replica.failover").unwrap_or(0),
        hedges: snap.counter("replica.hedges").unwrap_or(0),
        digest_matches_sharded: true,
        results_digest: sharded_results_digest(&seq_ranked),
    }
}

/// Formats the replica-topology scaling comparison.
#[must_use]
pub fn format_serve_replicated_table(title: &str, rows: &[ServeReplicatedRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6}  {:>4}  {:>8}  {:>7}  {:>10}  {:>10}  {:>8}  {:>6}  {:>6}",
        "Shards",
        "Repl",
        "Requests",
        "Workers",
        "Seq (s)",
        "Conc (s)",
        "Failover",
        "Hedges",
        "Digest"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6}  {:>4}  {:>8}  {:>7}  {:>10.4}  {:>10.4}  {:>8}  {:>6}  {:>6}",
            r.shards,
            r.replicas,
            r.requests,
            r.workers,
            r.sequential.as_secs_f64(),
            r.concurrent.as_secs_f64(),
            r.failover,
            r.hedges,
            if r.digest_matches_sharded {
                "match"
            } else {
                "DRIFT"
            },
        );
    }
    out
}

/// One replica-chaos scenario: a fault world injected into the replicated
/// store and the contract the answers must still satisfy.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaChaosRow {
    /// Which replicas were killed: `"replica"` (one replica of the victim
    /// shard always fails) or `"shard"` (every replica of it does).
    pub scenario: String,
    /// Videos in the corpus.
    pub videos: u32,
    /// Requests in the schedule.
    pub requests: usize,
    /// `k` of each request.
    pub k: usize,
    /// Shard count of the partition.
    pub shards: u32,
    /// Replicas per shard.
    pub replicas: u32,
    /// The shard whose replica(s) were killed.
    pub victim_shard: u32,
    /// Requests that resolved complete.
    pub ok: usize,
    /// Requests that degraded (every replica of some shard exhausted).
    pub degraded: usize,
    /// Shard reads served by a non-leading failover candidate.
    pub failover: u64,
    /// Retry attempts burned against the dead replica(s).
    pub retries: u64,
    /// Provider calls that exhausted their retry allowance.
    pub giveups: u64,
    /// Whether the rankings were bit-identical to a fault-free sharded
    /// run of the same schedule (the single-replica-kill contract; the
    /// whole-shard kill records `false` — it degrades by design).
    pub digest_matches_fault_free: bool,
    /// Whether every answer — kind, ranking, and `missing_bound` bits —
    /// matched the single-replica corpus under the same fault world (the
    /// whole-shard-kill contract; vacuously true for the replica kill,
    /// which never degrades).
    pub matches_sharded_degraded: bool,
    /// Whether every ground-truth top-`k` hit was either present or
    /// attributable to the victim shard under the answer's
    /// `missing_bound` (as in [`ShardChaosRow`]).
    pub bounds_sound: bool,
    /// The largest finite `missing_bound` across the degraded answers,
    /// if any.
    pub missing_bound: Option<f64>,
    /// Wall time of the chaos schedule.
    pub elapsed: Duration,
}

/// Runs the replicated schedule under two fault worlds and checks the
/// failover contracts request by request:
///
/// * **`"replica"`** — replica 0 of the victim shard fails every call.
///   Failover must absorb it completely: zero degraded answers, rankings
///   bit-identical to a fault-free run, and `failover > 0` (the
///   query-keyed rotation makes the dead replica lead some reads).
/// * **`"shard"`** — every replica of the victim fails. Every request
///   must degrade exactly as the single-replica corpus does under the same
///   fault world: same surviving rankings, same `missing_bound` bits —
///   replication exhausted collapses to the one-replica sound degraded
///   answer, nothing weaker.
///
/// The victim is the first shard with at least one video. `replica.*`
/// and `resilience.*` counters land in `registry` (the row records
/// per-scenario deltas).
#[must_use]
pub fn measure_replica_chaos(cfg: &CorpusConfig, registry: &Arc<Registry>) -> Vec<ReplicaChaosRow> {
    let w = build_corpus(cfg);
    let shards = cfg.shards;
    let (plan, policy) = always_fail();
    let inline = ExecutorConfig::with_workers(0);
    let single = CorpusConfig {
        replicas: 1,
        ..cfg.clone()
    };
    // Fault-free single-replica reference: the rankings the replica kill
    // must reproduce, the ground truth the shard kill is bounded against.
    let fault_free_db = corpus_db(&w, &single, &Arc::new(Registry::new()));
    let victim = victim_shard(&fault_free_db.pin());
    let fault_free_digest =
        sharded_results_digest(&ranked(&run_corpus(&w, &fault_free_db, &inline).answers));
    let truth = unsharded_truth(&w, &fault_free_db.pin());
    let failover_ctr = registry.counter("replica.failover");
    let retries_ctr = registry.counter("resilience.retries");
    let giveups_ctr = registry.counter("resilience.giveups");
    let mut rows = Vec::with_capacity(2);

    // Scenario "replica": one dead replica, failover absorbs it.
    let db = corpus_db(&w, cfg, registry).with_read_faults(
        plan,
        policy,
        FaultTarget::Shard(victim, Some(ReplicaId(0))),
    );
    let (f0, r0, g0) = (failover_ctr.get(), retries_ctr.get(), giveups_ctr.get());
    let run = run_corpus(&w, &db, &inline);
    rows.push(ReplicaChaosRow {
        scenario: "replica".to_string(),
        videos: cfg.videos,
        requests: run.answers.len(),
        k: w.k,
        shards,
        replicas: cfg.replicas,
        victim_shard: victim.0,
        ok: run.complete(),
        degraded: run.degraded(),
        failover: failover_ctr.get() - f0,
        retries: retries_ctr.get() - r0,
        giveups: giveups_ctr.get() - g0,
        digest_matches_fault_free: sharded_results_digest(&ranked(&run.answers))
            == fault_free_digest,
        matches_sharded_degraded: true,
        bounds_sound: true,
        missing_bound: None,
        elapsed: run.elapsed,
    });

    // Scenario "shard": the whole replica set of the victim dies. The
    // reference: the single-replica corpus under the same fault world.
    let whole_shard = FaultTarget::Shard(victim, None);
    let reference = run_corpus(
        &w,
        &corpus_db(&w, &single, &Arc::new(Registry::new())).with_read_faults(
            plan,
            policy,
            whole_shard,
        ),
        &inline,
    );
    let db = corpus_db(&w, cfg, registry).with_read_faults(plan, policy, whole_shard);
    let (f0, r0, g0) = (failover_ctr.get(), retries_ctr.get(), giveups_ctr.get());
    let run = run_corpus(&w, &db, &inline);
    let mut matches_sharded_degraded = run.answers.len() == reference.answers.len();
    for (answer, reference_answer) in run.answers.iter().zip(&reference.answers) {
        matches_sharded_degraded &= answer.ranked() == reference_answer.ranked();
        match (answer, reference_answer) {
            (ShardedAnswer::Complete(_), ShardedAnswer::Complete(_)) => {}
            (ShardedAnswer::Degraded(d), ShardedAnswer::Degraded(e)) => {
                matches_sharded_degraded &= d.missing_bound.to_bits() == e.missing_bound.to_bits()
                    && d.failed.len() == e.failed.len();
            }
            _ => matches_sharded_degraded = false,
        }
    }
    let (bounds_sound, missing_bound) = degraded_bounds(&run.answers, &truth, shards, victim);
    rows.push(ReplicaChaosRow {
        scenario: "shard".to_string(),
        videos: cfg.videos,
        requests: run.answers.len(),
        k: w.k,
        shards,
        replicas: cfg.replicas,
        victim_shard: victim.0,
        ok: run.complete(),
        degraded: run.degraded(),
        failover: failover_ctr.get() - f0,
        retries: retries_ctr.get() - r0,
        giveups: giveups_ctr.get() - g0,
        digest_matches_fault_free: false,
        matches_sharded_degraded,
        bounds_sound,
        missing_bound,
        elapsed: run.elapsed,
    });
    rows
}

/// Formats the replica-chaos contract summary.
#[must_use]
pub fn format_replica_chaos_table(title: &str, rows: &[ReplicaChaosRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>8}  {:>8}  {:>6}  {:>4}  {:>6}  {:>4}  {:>8}  {:>8}  {:>7}  {:>7}  {:>6}",
        "Scenario",
        "Requests",
        "Shards",
        "Repl",
        "Victim",
        "Ok",
        "Degraded",
        "Failover",
        "Giveups",
        "Bound",
        "OK?"
    );
    for r in rows {
        let ok = match r.scenario.as_str() {
            "replica" => r.degraded == 0 && r.digest_matches_fault_free && r.failover > 0,
            _ => r.ok == 0 && r.matches_sharded_degraded && r.bounds_sound,
        };
        let _ = writeln!(
            out,
            "{:>8}  {:>8}  {:>6}  {:>4}  {:>6}  {:>4}  {:>8}  {:>8}  {:>7}  {:>7}  {:>6}",
            r.scenario,
            r.requests,
            r.shards,
            r.replicas,
            format!("s{}", r.victim_shard),
            r.ok,
            r.degraded,
            r.failover,
            r.giveups,
            r.missing_bound
                .map_or_else(|| "-".to_string(), |b| format!("{b:.3}")),
            if ok { "yes" } else { "NO" },
        );
    }
    out
}

/// One measurement of upper-bound-pruned top-`k` against the unpruned
/// oracle (full evaluation followed by [`top_k`]).
#[derive(Debug, Clone, Serialize)]
pub struct PrunedTopkRow {
    /// Sequence length.
    pub n: u32,
    /// Top-`k` size.
    pub k: usize,
    /// Wall time of the pruned `top_k_closed` path.
    pub pruned: Duration,
    /// Wall time of full evaluation + `top_k`.
    pub baseline: Duration,
    /// List entries processed by the pruned path.
    pub pruned_entries: usize,
    /// List entries the pruned path dropped via upper bounds.
    pub entries_pruned: usize,
    /// List entries processed by the baseline.
    pub baseline_entries: usize,
}

/// A flat `n`-shot video (depth 1 = the shots), for list-level workloads.
#[must_use]
pub fn flat_tree(n: u32) -> VideoTree {
    let mut b = VideoBuilder::new("bench-flat");
    b.set_level_names(["video", "shot"]);
    for i in 0..n {
        b.leaf(format!("s{i}"));
    }
    b.finish().expect("flat tree builds")
}

/// Measures `P1 ∧ next P2 ∧ (P1 until P3)` top-`k` with and without
/// upper-bound pruning, asserting identical retrieved segments. (The
/// conjunction must be impure — a pure one is a single atomic unit and
/// leaves the engine nothing to prune between.) The lists are denser than
/// the Table 5/6 workload (35% coverage instead of 10%): pruning pays off
/// when conjuncts overlap often enough that the top-`k` is dominated by
/// multi-conjunct sums, which is exactly the regime this measures.
#[must_use]
pub fn measure_pruned_topk(n: u32, seed: u64, k: usize) -> PrunedTopkRow {
    let cfg = ListGenConfig {
        coverage: 0.35,
        ..ListGenConfig::default().with_n(n)
    };
    let p1 = generate(&cfg, seed);
    let p2 = generate(&cfg, seed ^ 0x9e37_79b9_7f4a_7c15);
    let p3 = generate(&cfg, seed ^ 0x1234_5678_9abc_def0);
    let provider = ListProvider::new(vec![
        ("P1()".into(), p1),
        ("P2()".into(), p2),
        ("P3()".into(), p3),
    ]);
    let tree = flat_tree(n);
    let engine = Engine::new(&provider, &tree);
    let query = parse("P1() and next P2() and (P1() until P3())").expect("pruning query parses");
    let (pruned_out, pruned) = time(|| engine.top_k_closed(&query, 1, k).expect("pruned top-k"));
    let pruned_stats = engine.stats();
    let (baseline_list, baseline) = time(|| {
        engine
            .eval_closed_at_level(&query, 1)
            .expect("baseline eval")
    });
    let baseline_stats = engine.stats();
    let baseline_out = top_k(&baseline_list, k);
    assert_eq!(
        pruned_out, baseline_out,
        "pruned top-k must match the unpruned oracle"
    );
    PrunedTopkRow {
        n,
        k,
        pruned,
        baseline,
        pruned_entries: pruned_stats.entries_processed,
        entries_pruned: pruned_stats.entries_pruned,
        baseline_entries: baseline_stats.entries_processed,
    }
}

/// Formats the pruned-top-`k` comparison.
#[must_use]
pub fn format_pruned_table(title: &str, rows: &[PrunedTopkRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>8}  {:>5}  {:>11}  {:>13}  {:>10}  {:>9}  {:>12}",
        "Size", "k", "Pruned (s)", "Baseline (s)", "Entries", "Dropped", "Base entries"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8}  {:>5}  {:>11.4}  {:>13.4}  {:>10}  {:>9}  {:>12}",
            r.n,
            r.k,
            r.pruned.as_secs_f64(),
            r.baseline.as_secs_f64(),
            r.pruned_entries,
            r.entries_pruned,
            r.baseline_entries,
        );
    }
    out
}

/// One measurement of a merge kernel on a skewed list pair.
///
/// The engine's sweeps switch from the linear two-pointer walk to a
/// galloping (exponential-search) walk when one operand is much shorter
/// than the other; this row times one kernel at one skew and digests its
/// output so the bench gate can assert the galloping path stays
/// bit-identical across commits.
#[derive(Debug, Clone, Serialize)]
pub struct KernelRow {
    /// Kernel under test: `and`, `and_weakest`, `and_product`,
    /// `max_merge`, `until`, or `eventually`.
    pub kernel: String,
    /// Entries in the short operand (`eventually` has only this one).
    pub short_entries: usize,
    /// Entries in the long operand.
    pub long_entries: usize,
    /// Timed iterations.
    pub iters: u32,
    /// Total wall time over all iterations.
    pub time: Duration,
    /// FNV-1a digest over the output's interval entries (position and
    /// similarity bit patterns) — machine-stable, compared by the gate.
    pub output_digest: String,
}

impl KernelRow {
    /// Mean time of one kernel invocation.
    #[must_use]
    pub fn per_call(&self) -> Duration {
        self.time / self.iters.max(1)
    }
}

/// FNV-1a (64-bit) over a similarity list's entries: length, then each
/// entry's bounds and the bit patterns of its similarity and maximum.
#[must_use]
pub fn list_digest(l: &SimilarityList) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(l.len() as u64);
    eat(l.max().to_bits());
    for (beg, end, sim) in l.to_tuples() {
        eat(u64::from(beg));
        eat(u64::from(end));
        eat(sim.to_bits());
    }
    format!("{h:016x}")
}

/// Times every merge kernel on a deterministic skewed pair (a sparse
/// probe list against a dense long list — the shape that triggers the
/// galloping path) plus `eventually` on the long list alone.
///
/// Output digests are deterministic: the workload generator is seeded and
/// the kernels are required to be bit-identical to their linear oracles,
/// so the digest only changes if a kernel's semantics change.
#[must_use]
pub fn measure_kernels(smoke: bool, seed: u64) -> Vec<KernelRow> {
    let n: u32 = if smoke { 20_000 } else { 100_000 };
    let iters: u32 = if smoke { 50 } else { 200 };
    let long = generate(
        &ListGenConfig {
            n,
            coverage: 0.4,
            mean_run: 3.0,
            max_sim: 2.0,
        },
        seed,
    );
    let short = generate(
        &ListGenConfig {
            n,
            coverage: 0.001,
            mean_run: 2.0,
            max_sim: 1.0,
        },
        seed.wrapping_add(1),
    );
    let mut rows = Vec::new();
    let mut run = |kernel: &str, f: &dyn Fn() -> SimilarityList| {
        let out = f(); // warm-up + digest source
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        rows.push(KernelRow {
            kernel: kernel.to_owned(),
            short_entries: short.len(),
            long_entries: long.len(),
            iters,
            time: start.elapsed(),
            output_digest: list_digest(&out),
        });
    };
    run("and", &|| list::and(&short, &long));
    run("and_weakest", &|| {
        list::and_with(
            &short,
            &long,
            simvid_core::ConjunctionSemantics::WeakestLink,
        )
    });
    run("and_product", &|| {
        list::and_with(&short, &long, simvid_core::ConjunctionSemantics::Product)
    });
    run("max_merge", &|| list::max_merge(&short, &long));
    run("until", &|| list::until(&long, &short, THETA));
    run("eventually", &|| list::eventually(&long));
    rows
}

/// Formats the kernel microbenchmark table.
#[must_use]
pub fn format_kernel_table(title: &str, rows: &[KernelRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>12}  {:>8}  {:>8}  {:>12}  {:>18}",
        "Kernel", "Short", "Long", "Per call", "Output digest"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>12}  {:>8}  {:>8}  {:>10.2}µs  {:>18}",
            r.kernel,
            r.short_entries,
            r.long_entries,
            r.per_call().as_secs_f64() * 1e6,
            r.output_digest,
        );
    }
    out
}

/// Machine-readable context for a benchmark run: code revision, available
/// cores, workload sizes and cache configuration.
#[must_use]
pub fn bench_meta() -> serde_json::Value {
    let mut m = serde_json::Map::new();
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let val = |v: &dyn serde::Serialize| v.to_value();
    m.insert("git_rev".into(), serde_json::Value::Str(rev));
    m.insert(
        "available_parallelism".into(),
        val(&std::thread::available_parallelism().map_or(1, usize::from)),
    );
    m.insert("paper_sizes".into(), val(&PAPER_SIZES));
    let serve = ServeConfig::default();
    let mut s = serde_json::Map::new();
    s.insert("shots".into(), val(&serve.shots));
    s.insert("requests".into(), val(&serve.requests));
    s.insert("zipf_exponent".into(), val(&serve.zipf_exponent));
    s.insert("k".into(), val(&serve.k));
    s.insert("cache_capacity".into(), val(&serve.cache_capacity));
    m.insert("serve_config".into(), val(&s));
    val(&m)
}

/// Asserts the two engines agree (the paper: "Both approaches produced
/// identical final values as well as identical intermediate similarity
/// tables"). Sampled densely.
fn assert_lists_equal(direct: &SimilarityList, sql: &SimilarityList, n: u32) {
    let (a, b) = (direct.to_dense(n as usize), sql.to_dense(n as usize));
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert!(
            (x - y).abs() < 1e-9,
            "direct and SQL disagree at position {}: {} vs {}",
            i + 1,
            x,
            y
        );
    }
}

/// Formats a performance table in the paper's layout.
#[must_use]
pub fn format_perf_table(
    title: &str,
    rows: &[PerfRow],
    paper: &[(u32, Option<f64>, Option<f64>)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>8}  {:>12}  {:>12}  {:>8}  {:>14}  {:>11}",
        "Size", "Direct (s)", "SQL (s)", "SQL/Dir", "Paper Dir (s)", "Paper SQL"
    );
    for row in rows {
        let paper_row = paper.iter().find(|(n, _, _)| *n == row.n);
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.2}"),
            None => "-".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:>8}  {:>12.4}  {:>12.4}  {:>8.1}  {:>14}  {:>11}",
            row.n,
            row.direct.as_secs_f64(),
            row.sql.as_secs_f64(),
            row.speedup(),
            fmt_opt(paper_row.and_then(|(_, d, _)| *d)),
            fmt_opt(paper_row.and_then(|(_, _, s)| *s)),
        );
    }
    out
}

/// Formats a similarity list in the paper's result-table layout.
#[must_use]
pub fn format_list_table(title: &str, tuples: &[(u32, u32, f64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>9}  {:>7}  {:>16}",
        "Start-id", "End-id", "Similarity-value"
    );
    for (b, e, a) in tuples {
        let _ = writeln!(out, "{b:>9}  {e:>7}  {a:>16.3}");
    }
    out
}

/// FNV-1a (64-bit) over a churn run: the serving epoch of each request is
/// folded in before its ranked hits, so the digest pins both *what* every
/// request answered and *at which corpus version* it answered — the churn
/// twin of [`sharded_results_digest`]. Equal for the sequential and
/// concurrent runners at every worker count, and equal to a from-scratch
/// rebuild replayed to each served epoch.
#[must_use]
pub fn churn_results_digest(results: &[(u64, Vec<ShardHit>)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(results.len() as u64);
    for (epoch, request) in results {
        eat(*epoch);
        eat(request.len() as u64);
        for hit in request {
            eat(u64::from(hit.video.0));
            eat(u64::from(hit.pos));
            eat(hit.sim.act.to_bits());
            eat(hit.sim.max.to_bits());
        }
    }
    format!("{h:016x}")
}

/// One measurement of the live-ingestion serving path: a Zipf schedule
/// interleaved with mutation batches through [`run_corpus`], inline and
/// concurrently, oracle-checked request-for-request against a
/// from-scratch rebuild at every served epoch, with the warm-cache
/// retention of each incremental invalidation recorded.
#[derive(Debug, Clone, Serialize)]
pub struct ServeChurnRow {
    /// Videos in the base corpus (epoch 0).
    pub videos: u32,
    /// Shots per video.
    pub shots: u32,
    /// Requests in the schedule.
    pub requests: usize,
    /// `k` of each corpus-wide top-`k` request.
    pub k: usize,
    /// Shard count of the live partition.
    pub shards: u32,
    /// Replica count per video.
    pub replicas: u32,
    /// Mutation batches applied during the schedule.
    pub batches: usize,
    /// Worker threads of the concurrent fan-out.
    pub workers: usize,
    /// Distinct corpus epochs the schedule served.
    pub epochs: usize,
    /// Wall time of the sequential runner, applies included.
    pub sequential: Duration,
    /// Wall time of the concurrent runner, applies included.
    pub concurrent: Duration,
    /// Cached tables dropped by mutations (`cache.invalidation.evicted`):
    /// resident tables of exactly the updated/removed videos.
    pub evicted: u64,
    /// Cached tables that survived mutations
    /// (`cache.invalidation.retained`): resident tables of every video a
    /// batch did not touch — the incremental-invalidation win.
    pub retained: u64,
    /// Whether every request was bit-identical to a from-scratch rebuild
    /// of the corpus at its served epoch (asserted, recorded for the
    /// bench gate).
    pub digest_matches_rebuild: bool,
    /// Whether the concurrent runner matched the sequential runner
    /// epoch-for-epoch and bit-for-bit (asserted, recorded).
    pub digest_matches_sequential: bool,
    /// Whether the mutation-free prefix matched a frozen partition of the
    /// untouched base store (asserted, recorded).
    pub prefix_matches_frozen: bool,
    /// [`churn_results_digest`] of the sequential run.
    pub results_digest: String,
    /// [`sharded_results_digest`] of the mutation-free prefix — equal to
    /// the same prefix served by a frozen epoch-0 partition.
    pub prefix_digest: String,
}

impl ServeChurnRow {
    /// Fraction of cached tables that survived the schedule's mutations:
    /// `retained / (retained + evicted)`, the warm-cache retention ratio.
    #[must_use]
    pub fn retention_ratio(&self) -> f64 {
        let total = self.retained + self.evicted;
        if total == 0 {
            return 1.0;
        }
        self.retained as f64 / total as f64
    }
}

/// Runs the churn workload (`cfg.batches > 0`) inline and through the
/// concurrent executor of `workers` threads, asserting three bit-identity
/// contracts: every request matches a **from-scratch rebuild** of the
/// corpus replayed to its served epoch; the concurrent run matches the
/// inline run epoch-for-epoch; and the mutation-free prefix matches a
/// frozen corpus over the untouched base store. The
/// `cache.invalidation.{evicted,retained}` deltas of the inline run land
/// in the row.
///
/// # Panics
///
/// Panics if any contract fails or any request errors — the workload is
/// fault-free, so either indicates an invalidation bug (exactly what the
/// CI churn gate exists to catch).
#[must_use]
pub fn measure_serve_churn(
    cfg: &CorpusConfig,
    workers: usize,
    registry: &Arc<Registry>,
) -> ServeChurnRow {
    let w = build_corpus(cfg);
    let depth = w.depth();
    let db = corpus_db(&w, cfg, registry);
    // Prime: the retention counters measure a steady-state server, not a
    // cold one.
    prime(&db, &w);
    let evicted_ctr = registry.counter("cache.invalidation.evicted");
    let retained_ctr = registry.counter("cache.invalidation.retained");
    let (evicted_before, retained_before) = (evicted_ctr.get(), retained_ctr.get());
    let seq = run_corpus(&w, &db, &ExecutorConfig::with_workers(0));
    let evicted = evicted_ctr.get() - evicted_before;
    let retained = retained_ctr.get() - retained_before;
    assert_eq!(seq.complete(), w.schedule.len(), "fault-free run degraded");
    let seq_pairs: Vec<(u64, Vec<ShardHit>)> = seq
        .epochs
        .iter()
        .copied()
        .zip(ranked(&seq.answers))
        .collect();

    // Oracle: a from-scratch rebuild (a 1-shard corpus over the replayed
    // store, scanned flat) at every epoch the schedule served, on a
    // scratch registry so the serving counters stay attributable to the
    // live path.
    let scratch = Arc::new(Registry::new());
    let rebuilt: Vec<(u64, LivePin)> = seq
        .served_epochs()
        .into_iter()
        .map(|e| {
            let store = db.replay_to(CorpusEpoch(e));
            let oracle = LiveVideoDb::new(store, LiveConfig::default(), Arc::clone(&scratch));
            (e, oracle.pin())
        })
        .collect();
    for (r, (epoch, hits)) in seq_pairs.iter().enumerate() {
        let oracle = rebuilt
            .iter()
            .find(|(e, _)| e == epoch)
            .expect("every served epoch has a rebuild")
            .1
            .top_k_unsharded(&w.queries[w.schedule[r]], depth, w.k)
            .expect("rebuild oracle evaluates");
        assert_eq!(
            hits, &oracle,
            "request {r} at epoch {epoch} must match a from-scratch rebuild"
        );
    }

    // The mutation-free prefix against a frozen corpus over the base
    // store that never applies a batch.
    let prefix = w.mutation_free_prefix();
    let frozen = corpus_db(&w, cfg, &scratch).pin();
    let prefix_ranked: Vec<Vec<ShardHit>> = w.schedule[..prefix]
        .iter()
        .map(|&q| {
            frozen
                .top_k(&w.queries[q], depth, w.k)
                .expect("frozen prefix request evaluates")
                .ranked()
                .to_vec()
        })
        .collect();
    let seq_prefix: Vec<Vec<ShardHit>> =
        seq_pairs[..prefix].iter().map(|(_, h)| h.clone()).collect();
    assert_eq!(
        seq_prefix, prefix_ranked,
        "the mutation-free prefix must match the untouched frozen store"
    );

    // Concurrent twin on its own live store (same base, fresh caches and
    // registry), bit-identical at the configured worker count.
    let conc_db = corpus_db(&w, cfg, &Arc::new(Registry::new()));
    prime(&conc_db, &w);
    let exec = ExecutorConfig::with_workers(workers.max(1));
    let conc = run_corpus(&w, &conc_db, &exec);
    assert_eq!(
        (conc.epochs, ranked(&conc.answers)),
        (seq.epochs.clone(), ranked(&seq.answers)),
        "concurrent churn must be bit-identical to the sequential runner"
    );

    ServeChurnRow {
        videos: cfg.videos,
        shots: cfg.shots,
        requests: w.schedule.len(),
        k: w.k,
        shards: cfg.shards,
        replicas: cfg.replicas,
        batches: w.batches.len(),
        workers: exec.workers,
        epochs: seq.served_epochs().len(),
        sequential: seq.elapsed,
        concurrent: conc.elapsed,
        evicted,
        retained,
        digest_matches_rebuild: true,
        digest_matches_sequential: true,
        prefix_matches_frozen: true,
        results_digest: churn_results_digest(&seq_pairs),
        prefix_digest: sharded_results_digest(&prefix_ranked),
    }
}

/// Formats the live-ingestion churn comparison.
#[must_use]
pub fn format_serve_churn_table(title: &str, rows: &[ServeChurnRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6}  {:>4}  {:>8}  {:>6}  {:>10}  {:>10}  {:>8}  {:>8}  {:>7}  {:>6}",
        "Shards",
        "Repl",
        "Requests",
        "Epochs",
        "Seq (s)",
        "Conc (s)",
        "Evicted",
        "Retained",
        "Retain%",
        "Oracle"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6}  {:>4}  {:>8}  {:>6}  {:>10.4}  {:>10.4}  {:>8}  {:>8}  {:>6.1}%  {:>6}",
            r.shards,
            r.replicas,
            r.requests,
            r.epochs,
            r.sequential.as_secs_f64(),
            r.concurrent.as_secs_f64(),
            r.evicted,
            r.retained,
            100.0 * r.retention_ratio(),
            if r.digest_matches_rebuild && r.digest_matches_sequential && r.prefix_matches_frozen {
                "match"
            } else {
                "DRIFT"
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurements_agree_and_run() {
        let row = measure_conjunction(2_000, 1);
        assert_eq!(row.n, 2_000);
        assert!(row.output_entries > 0);
        let row = measure_until(2_000, 2);
        assert!(row.output_entries > 0);
    }

    #[test]
    fn complex_formulas_agree() {
        let r1 = measure_complex1(1_000, 3);
        assert!(r1.direct <= r1.sql, "direct should not be slower than SQL");
        let _r2 = measure_complex2(1_000, 4);
    }

    #[test]
    fn engine_modes_agree_and_run() {
        let row = measure_engine_modes(2_000, 5);
        assert_eq!(row.n, 2_000);
        let s = format_engine_mode_table("Engine modes", &[row]);
        assert!(s.contains("2000"));
    }

    #[test]
    fn chaos_contract_holds_on_a_small_schedule() {
        let cfg = ServeConfig {
            shots: 20,
            requests: 12,
            ..ServeConfig::default()
        };
        let registry = Arc::new(Registry::new());
        let row = measure_chaos(
            &cfg,
            FaultPlan::chaos_default(),
            RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            &registry,
        );
        assert_eq!(row.ok + row.degraded + row.failed, row.requests);
        assert!(row.fault_free_matches, "fault-free requests must match");
        assert!(row.bounds_sound, "degraded bounds must stay sound");
        assert!(
            row.injected_transient + row.injected_panics > 0,
            "the chaos plan must actually inject"
        );
        let s = format_chaos_table("Chaos", &[row]);
        assert!(s.contains("12"));
    }

    #[test]
    fn churn_contract_holds_on_a_small_schedule() {
        let cfg = CorpusConfig {
            videos: 4,
            shots: 10,
            requests: 12,
            batches: 2,
            ..CorpusConfig::default()
        };
        let registry = Arc::new(Registry::new());
        let row = measure_serve_churn(&cfg, 2, &registry);
        assert!(row.epochs > 1, "the schedule must cross a mutation");
        assert!(row.retained > 0, "untouched videos must keep warm caches");
        assert!(row.digest_matches_rebuild);
        let s = format_serve_churn_table("Churn", &[row]);
        assert!(s.contains("match"));
    }

    #[test]
    fn formatting_contains_values() {
        let rows = vec![measure_conjunction(500, 9)];
        let s = format_perf_table("Table 5", &rows, PAPER_TABLE5);
        assert!(s.contains("500"));
        let s = format_list_table("Table 1", &[(9, 9, 9.787)]);
        assert!(s.contains("9.787"));
    }
}
