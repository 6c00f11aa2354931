//! Benchmark harness shared by the Criterion benches and the `repro`
//! binary that regenerates every table and figure of the paper.

use serde::Serialize;
use simvid_core::{
    list, top_k, AtomicProvider, Engine, EngineConfig, SeqContext, SimilarityList, SimilarityTable,
    ValueTable,
};
use simvid_htl::{parse, AtomicUnit, AttrFn, Formula, FormulaId};
use simvid_model::{VideoBuilder, VideoTree};
use simvid_relal::{translate, Database};
use simvid_workload::randomlists::{generate, ListGenConfig};
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
/// output; the unit tests pin those digests, so the galloping path stays
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
    /// similarity bit patterns) — machine-stable, pinned by the tests.
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
/// cores and the paper's workload sizes.
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

    /// The merge kernels' outputs are pinned: a kernel whose output
    /// changes by one bit changes its digest.
    #[test]
    fn kernel_output_digests_are_pinned() {
        let digests: Vec<(String, String)> = measure_kernels(true, 42)
            .into_iter()
            .map(|r| (r.kernel, r.output_digest))
            .collect();
        let want = [
            ("and", "ed33e7d2533e31e4"),
            ("and_weakest", "93fb322c0897ff71"),
            ("and_product", "5cf9cb7b2be37072"),
            ("max_merge", "b636af9690662535"),
            ("until", "6aee995abea730ee"),
            ("eventually", "7cc376d1e68b4de5"),
        ];
        assert_eq!(digests, want.map(|(k, d)| (k.to_owned(), d.to_owned())));
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
