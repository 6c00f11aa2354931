//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [figure2|table1..table6|complex|ablation|memo|serve|
//!        serve_concurrent|serve_sharded|serve_replicated|serve_churn|
//!        topk|kernels|chaos|shard_chaos|replica_chaos|all]...
//!       [--json PATH] [--metrics [PATH]] [--smoke]
//!       [--cache-capacity N] [--workers N] [--shards N,M,...]
//!       [--replicas N,M,...] [--churn]
//! ```
//!
//! Several section names may be given at once (`repro serve topk --json out`)
//! to run just those sections into one results file.
//!
//! `--smoke` shrinks the `serve` and `topk` workloads to CI-sized smoke
//! runs.
//! `--cache-capacity` overrides the warm serving system's atomic-cache
//! capacity (`0` disables caching — the bench gate's synthetic
//! regression). `--workers` fixes the `serve_concurrent` section to one
//! worker count (default: a 1/2/4 scaling sweep) and sets the concurrent
//! fan-out width of the `serve_sharded` section (default 2). `--shards`
//! selects the shard counts of the `serve_sharded` sweep (default
//! `1,2,4`; every count must reproduce the unsharded digest
//! bit-identically) and implies the section when `serve` is requested.
//! `--replicas` selects the replica counts of the `serve_replicated`
//! sweep (default `2,3`; every topology must reproduce the single-replica
//! digest bit-identically) and likewise implies that section when
//! `serve` is requested; the sweep and the `replica_chaos` section run at
//! the first `--shards` count with survivors (≥ 2, default 2). `--churn`
//! implies the `serve_churn` section when `serve` is requested: the live
//! ingestion workload at the first `--shards`/`--replicas` counts,
//! oracle-checked against a from-scratch rebuild at every served epoch.
//! `--metrics` emits the shared metrics registry (`engine.*`, `cache.*`,
//! `serve.*`, `shard.*`) as JSON to stdout, or to a file when a path is
//! given.
//!
//! `-` as the `--json` or `--metrics` path means stdout. Whenever stdout
//! carries JSON, all human-readable output routes to stderr, so
//! `repro all --json - | jq .` is valid; with both on stdout the metrics
//! are embedded in the results document under `"metrics"` to keep it a
//! single JSON value.

use simvid_bench::{
    bench_meta, format_chaos_table, format_engine_mode_table, format_kernel_table,
    format_list_table, format_perf_table, format_pruned_table, format_replica_chaos_table,
    format_serve_churn_table, format_serve_concurrent_table, format_serve_replicated_table,
    format_serve_sharded_table, format_serve_table, format_shard_chaos_table, measure_chaos,
    measure_complex1, measure_complex2, measure_conjunction, measure_engine_modes, measure_kernels,
    measure_pruned_topk, measure_replica_chaos, measure_serve_churn, measure_serve_concurrent,
    measure_serve_replicated, measure_serve_sharded, measure_serve_with_registry,
    measure_shard_chaos, measure_until, EngineModeRow, PerfRow, PAPER_SIZES, PAPER_TABLE5,
    PAPER_TABLE6, THETA,
};
use simvid_core::{list, rank_entries, ConjunctionSemantics, Engine, EngineConfig, SimilarityList};
use simvid_obs::Registry;
use simvid_picture::PictureSystem;
use simvid_workload::casablanca;
use simvid_workload::serve::ServeConfig;
use simvid_workload::shard::CorpusConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Whether stdout is reserved for machine-readable JSON (`--json -` or
/// `--metrics` without a file path).
static STDOUT_RESERVED: AtomicBool = AtomicBool::new(false);

/// Prints human-readable progress: to stdout normally, to stderr when
/// stdout is reserved for JSON.
macro_rules! progress {
    ($($t:tt)*) => {{
        if STDOUT_RESERVED.load(Ordering::Relaxed) {
            eprintln!($($t)*);
        } else {
            println!($($t)*);
        }
    }};
}

fn casablanca_lists() -> (SimilarityList, SimilarityList) {
    let tree = casablanca::video();
    let sys = PictureSystem::new(&tree, casablanca::weights());
    let mt = sys
        .query_closed(&casablanca::moving_train(), 1)
        .expect("moving-train query")
        .coalesce();
    let mw = sys
        .query_closed(&casablanca::man_woman(), 1)
        .expect("man-woman query")
        .coalesce();
    (mt, mw)
}

fn figure2() {
    let l1 = SimilarityList::from_tuples(vec![(25, 100, 1.0), (200, 250, 1.0)], 1.0).unwrap();
    let l2 = SimilarityList::from_tuples(
        vec![
            (10, 50, 10.0),
            (55, 60, 15.0),
            (90, 110, 12.0),
            (125, 175, 10.0),
        ],
        20.0,
    )
    .unwrap();
    let out = list::until(&l1, &l2, THETA);
    progress!("Figure 2: the `until` list algorithm on the paper's example\n");
    progress!(
        "{}",
        format_list_table("Input L1 (g, after thresholding):", &l1.to_tuples())
    );
    progress!("{}", format_list_table("Input L2 (h):", &l2.to_tuples()));
    progress!(
        "{}",
        format_list_table("Output (g until h):", &out.to_tuples())
    );
    progress!("Paper's output: [10 24](10 20) [25 60](15 20) [61 110](12 20) [125 175](10 20)\n");
}

fn table1() {
    let (mt, _) = casablanca_lists();
    progress!(
        "{}",
        format_list_table(
            "Table 1. Moving-Train (from crafted meta-data)",
            &mt.to_tuples()
        )
    );
    progress!(
        "{}",
        format_list_table("Paper's Table 1:", casablanca::TABLE1_MOVING_TRAIN)
    );
}

fn table2() {
    let (_, mw) = casablanca_lists();
    progress!(
        "{}",
        format_list_table(
            "Table 2. Man-Woman (from crafted meta-data)",
            &mw.to_tuples()
        )
    );
    progress!(
        "{}",
        format_list_table("Paper's Table 2:", casablanca::TABLE2_MAN_WOMAN)
    );
}

fn table3() {
    let (mt, _) = casablanca_lists();
    let ev = list::eventually(&mt);
    progress!(
        "{}",
        format_list_table(
            "Table 3. Result of eventually Moving-Train",
            &ev.to_tuples()
        )
    );
    progress!(
        "{}",
        format_list_table("Paper's Table 3:", casablanca::TABLE3_EVENTUALLY)
    );
}

fn table4() {
    // Full pipeline: engine over the crafted video, ranked like the paper.
    let tree = casablanca::video();
    let sys = PictureSystem::new(&tree, casablanca::weights());
    let engine = Engine::new(&sys, &tree);
    let out = engine
        .eval_closed_at_level(&casablanca::query1(), 1)
        .expect("query 1 evaluates");
    let ranked: Vec<(u32, u32, f64)> = rank_entries(&out)
        .into_iter()
        .map(|(iv, sim)| (iv.beg, iv.end, sim.act))
        .collect();
    progress!(
        "{}",
        format_list_table(
            "Table 4. Final result of Query 1 (Man-Woman and eventually Moving-Train), ranked",
            &ranked
        )
    );
    progress!(
        "{}",
        format_list_table("Paper's Table 4:", casablanca::TABLE4_QUERY1_RANKED)
    );
}

fn ablation() {
    // The conclusion's future work: "investigate other similarity
    // functions, other than the fractional similarity function". Query 1 on
    // the Casablanca data under three conjunction semantics.
    let tree = casablanca::video();
    let sys = PictureSystem::new(&tree, casablanca::weights());
    progress!("Ablation: Query 1 rankings under alternative conjunction semantics\n");
    for sem in [
        ConjunctionSemantics::Sum,
        ConjunctionSemantics::WeakestLink,
        ConjunctionSemantics::Product,
    ] {
        let engine = Engine::with_config(
            &sys,
            &tree,
            EngineConfig {
                conjunction: sem,
                ..EngineConfig::default()
            },
        );
        let out = engine
            .eval_closed_at_level(&casablanca::query1(), 1)
            .expect("query 1 evaluates");
        let ranked: Vec<(u32, u32, f64)> = rank_entries(&out)
            .into_iter()
            .map(|(iv, sim)| (iv.beg, iv.end, sim.act))
            .collect();
        progress!(
            "{}",
            format_list_table(&format!("{sem:?} semantics:"), &ranked)
        );
    }
    progress!(
        "Sum (the paper's) rewards strong one-sided matches; weakest-link and\n\
         product discard segments that miss a conjunct entirely.\n"
    );
}

fn perf(
    title: &str,
    paper: &[(u32, Option<f64>, Option<f64>)],
    measure: impl Fn(u32, u64) -> PerfRow,
) -> Vec<PerfRow> {
    let rows: Vec<PerfRow> = PAPER_SIZES.iter().map(|&n| measure(n, 42)).collect();
    progress!("{}", format_perf_table(title, &rows, paper));
    rows
}

fn memo_modes() -> Vec<EngineModeRow> {
    let rows: Vec<EngineModeRow> = PAPER_SIZES
        .iter()
        .map(|&n| measure_engine_modes(n, 42))
        .collect();
    progress!(
        "{}",
        format_engine_mode_table(
            "Engine memo layer on the Table 5-6 workloads (off vs on)",
            &rows
        )
    );
    rows
}

fn serve_bench(
    smoke: bool,
    cache_capacity: Option<usize>,
    registry: &Arc<Registry>,
) -> Vec<simvid_bench::ServeRow> {
    let mut cfg = if smoke {
        ServeConfig {
            shots: 40,
            requests: 30,
            ..ServeConfig::default()
        }
    } else {
        ServeConfig::default()
    };
    if let Some(capacity) = cache_capacity {
        cfg.cache_capacity = capacity;
    }
    let rows = vec![measure_serve_with_registry(&cfg, registry)];
    progress!(
        "{}",
        format_serve_table(
            "Serving workload: repeated top-k traffic, cold (no cache) vs \
             warm (cross-query atomic cache)",
            &rows
        )
    );
    progress!(
        "Serve metrics (warm steady-state, priming included):\n{}",
        registry.snapshot().render_text()
    );
    rows
}

fn serve_concurrent_bench(
    smoke: bool,
    cache_capacity: Option<usize>,
    workers: Option<usize>,
    registry: &Arc<Registry>,
) -> Vec<simvid_bench::ServeConcurrentRow> {
    let mut cfg = if smoke {
        ServeConfig {
            shots: 40,
            requests: 30,
            ..ServeConfig::default()
        }
    } else {
        ServeConfig::default()
    };
    if let Some(capacity) = cache_capacity {
        cfg.cache_capacity = capacity;
    }
    let worker_counts: Vec<usize> = match workers {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 4],
    };
    let rows: Vec<_> = worker_counts
        .iter()
        .map(|&n| measure_serve_concurrent(&cfg, n, registry))
        .collect();
    progress!(
        "{}",
        format_serve_concurrent_table(
            "Concurrent serving executor: warm schedule through the worker \
             pool vs the sequential loop, digest-checked bit-identical",
            &rows
        )
    );
    rows
}

/// The corpus workload of the sharded, replicated, churn and corpus chaos
/// sections, at `shards` × `replicas`.
fn corpus_config(smoke: bool, shards: u32, replicas: u32) -> CorpusConfig {
    let base = if smoke {
        CorpusConfig {
            videos: 6,
            shots: 24,
            requests: 30,
            ..CorpusConfig::default()
        }
    } else {
        CorpusConfig::default()
    };
    CorpusConfig {
        shards,
        replicas,
        ..base
    }
}

fn serve_sharded_bench(
    smoke: bool,
    shard_counts: &[u32],
    workers: Option<usize>,
    registry: &Arc<Registry>,
) -> Vec<simvid_bench::ServeShardedRow> {
    let workers = workers.unwrap_or(2).max(1);
    let rows: Vec<_> = shard_counts
        .iter()
        .map(|&s| measure_serve_sharded(&corpus_config(smoke, s, 1), workers, registry))
        .collect();
    progress!(
        "{}",
        format_serve_sharded_table(
            "Sharded serving: scatter-gather top-k vs the unsharded scan, \
             digest-checked bit-identical at every shard count",
            &rows
        )
    );
    rows
}

/// The shard count the replicated and chaos sections run at: degrading
/// (and surviving a shard kill) needs survivors, so prefer the first count
/// ≥ 2 from the requested sweep.
fn replicated_shards(shard_counts: &[u32]) -> u32 {
    shard_counts.iter().copied().find(|&s| s >= 2).unwrap_or(2)
}

fn serve_replicated_bench(
    smoke: bool,
    shard_counts: &[u32],
    replica_counts: &[u32],
    workers: Option<usize>,
    registry: &Arc<Registry>,
) -> Vec<simvid_bench::ServeReplicatedRow> {
    let shards = replicated_shards(shard_counts);
    let workers = workers.unwrap_or(2).max(1);
    let rows: Vec<_> = replica_counts
        .iter()
        .map(|&r| measure_serve_replicated(&corpus_config(smoke, shards, r), workers, registry))
        .collect();
    progress!(
        "{}",
        format_serve_replicated_table(
            "Replicated serving: breaker-gated failover scatter-gather vs \
             the single-replica corpus, digest-checked bit-identical at \
             every replica count",
            &rows
        )
    );
    rows
}

fn replica_chaos_bench(
    smoke: bool,
    shard_counts: &[u32],
    replica_counts: &[u32],
    registry: &Arc<Registry>,
) -> Vec<simvid_bench::ReplicaChaosRow> {
    let shards = replicated_shards(shard_counts);
    let replicas = replica_counts
        .iter()
        .copied()
        .find(|&r| r >= 2)
        .unwrap_or(2);
    let rows = measure_replica_chaos(&corpus_config(smoke, shards, replicas), registry);
    progress!(
        "{}",
        format_replica_chaos_table(
            "Replica chaos: one dead replica is absorbed by failover \
             (bit-identical answers); a whole dead shard degrades exactly \
             as the single-replica corpus does",
            &rows
        )
    );
    rows
}

fn shard_chaos_bench(
    smoke: bool,
    shard_counts: &[u32],
    registry: &Arc<Registry>,
) -> Vec<simvid_bench::ShardChaosRow> {
    let shards = replicated_shards(shard_counts);
    let rows = vec![measure_shard_chaos(
        &corpus_config(smoke, shards, 1),
        registry,
    )];
    progress!(
        "{}",
        format_shard_chaos_table(
            "Degraded sharded serving: one shard forced to fail, answers \
             degrade to the surviving shards with a sound missing-score bound",
            &rows
        )
    );
    rows
}

fn serve_churn_bench(
    smoke: bool,
    shard_counts: &[u32],
    replica_counts: &[u32],
    workers: Option<usize>,
    registry: &Arc<Registry>,
) -> Vec<simvid_bench::ServeChurnRow> {
    let shards = shard_counts.first().copied().unwrap_or(2).max(1);
    let replicas = replica_counts.first().copied().unwrap_or(1).max(1);
    let cfg = CorpusConfig {
        batches: if smoke { 2 } else { 3 },
        ..corpus_config(smoke, shards, replicas)
    };
    let workers = workers.unwrap_or(2).max(1);
    let rows = vec![measure_serve_churn(&cfg, workers, registry)];
    progress!(
        "{}",
        format_serve_churn_table(
            "Live ingestion churn: epoch-versioned snapshots under mutation, \
             oracle-checked bit-identical against a from-scratch rebuild at \
             every served epoch",
            &rows
        )
    );
    rows
}

fn chaos_bench(smoke: bool, registry: &Arc<Registry>) -> Vec<simvid_bench::ChaosRow> {
    let cfg = if smoke {
        ServeConfig {
            shots: 40,
            requests: 30,
            ..ServeConfig::default()
        }
    } else {
        ServeConfig::default()
    };
    // Two attempts per call keeps retry give-ups (the degraded path)
    // frequent enough to show up even in the 30-request smoke schedule.
    let policy = simvid_resilience::RetryPolicy {
        max_attempts: 2,
        ..simvid_resilience::RetryPolicy::default()
    };
    let rows = vec![measure_chaos(
        &cfg,
        simvid_resilience::FaultPlan::chaos_default(),
        policy,
        registry,
    )];
    progress!(
        "{}",
        format_chaos_table(
            "Chaos serving mode: the schedule replayed under injected faults \
             (transient errors + panics), outcomes classified per request",
            &rows
        )
    );
    rows
}

fn kernels_bench(smoke: bool) -> Vec<simvid_bench::KernelRow> {
    let rows = measure_kernels(smoke, 42);
    progress!(
        "{}",
        format_kernel_table(
            "Merge kernels on a skewed pair (sparse probe vs dense list): \
             galloping sweeps, digest-gated against the checked-in baseline",
            &rows
        )
    );
    rows
}

fn topk_bench(smoke: bool) -> Vec<simvid_bench::PrunedTopkRow> {
    let (sizes, ks): (&[u32], &[usize]) = if smoke {
        (&[2_000], &[10])
    } else {
        (PAPER_SIZES, &[1, 10, 100])
    };
    let mut rows = Vec::new();
    for &n in sizes {
        for &k in ks {
            rows.push(measure_pruned_topk(n, 42, k));
        }
    }
    progress!(
        "{}",
        format_pruned_table(
            "Upper-bound-pruned top-k (P1 and next P2 and (P1 until P3)) \
             vs full evaluation + top-k",
            &rows
        )
    );
    rows
}

const SECTIONS: &[&str] = &[
    "figure2",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "complex",
    "ablation",
    "memo",
    "serve",
    "serve_concurrent",
    "serve_sharded",
    "serve_replicated",
    "serve_churn",
    "topk",
    "kernels",
    "chaos",
    "shard_chaos",
    "replica_chaos",
    "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sections: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut metrics_target: Option<String> = None;
    let mut cache_capacity: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut shards: Option<Vec<u32>> = None;
    let mut replicas: Option<Vec<u32>> = None;
    let mut smoke = false;
    let mut churn = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json_path = args.get(i + 1).cloned();
                i += 2;
            }
            "--cache-capacity" => {
                cache_capacity = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 2;
            }
            "--workers" => {
                workers = args.get(i + 1).and_then(|v| v.parse().ok());
                i += 2;
            }
            "--shards" => {
                shards = args.get(i + 1).map(|v| {
                    v.split(',')
                        .filter_map(|s| s.trim().parse::<u32>().ok())
                        .filter(|&s| s > 0)
                        .collect()
                });
                i += 2;
            }
            "--replicas" => {
                replicas = args.get(i + 1).map(|v| {
                    v.split(',')
                        .filter_map(|s| s.trim().parse::<u32>().ok())
                        .filter(|&s| s > 0)
                        .collect()
                });
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--churn" => {
                churn = true;
                i += 1;
            }
            // `--metrics` takes an optional path: a following token that
            // is neither a flag nor a section name. Bare `--metrics`
            // means stdout.
            "--metrics" => match args.get(i + 1) {
                Some(v) if !v.starts_with("--") && !SECTIONS.contains(&v.as_str()) => {
                    metrics_target = Some(v.clone());
                    i += 2;
                }
                _ => {
                    metrics_target = Some("-".into());
                    i += 1;
                }
            },
            s if !s.starts_with("--") => {
                sections.push(s.to_string());
                i += 1;
            }
            _ => i += 1,
        }
    }
    if sections.is_empty() {
        sections.push("all".into());
    }
    let unknown: Vec<&str> = sections
        .iter()
        .map(String::as_str)
        .filter(|s| !SECTIONS.contains(s))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "repro: unknown section(s): {}\nknown sections: {}",
            unknown.join(", "),
            SECTIONS.join(", ")
        );
        std::process::exit(2);
    }
    let json_to_stdout = json_path.as_deref() == Some("-");
    let metrics_to_stdout = metrics_target.as_deref() == Some("-");
    if json_to_stdout || metrics_to_stdout {
        STDOUT_RESERVED.store(true, Ordering::Relaxed);
    }
    let wants = |s: &str| sections.iter().any(|w| w == s || w == "all");
    // The shared registry: sections that serve live traffic publish their
    // engine/cache/serve metrics here.
    let registry = Arc::new(Registry::new());
    let mut json = serde_json::Map::new();

    if wants("figure2") {
        figure2();
    }
    if wants("table1") {
        table1();
    }
    if wants("table2") {
        table2();
    }
    if wants("table3") {
        table3();
    }
    if wants("table4") {
        table4();
    }
    if wants("table5") {
        let rows = perf(
            "Table 5. Performance, P1 and P2 (direct vs SQL-based)",
            PAPER_TABLE5,
            measure_conjunction,
        );
        json.insert("table5".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("table6") {
        let rows = perf(
            "Table 6. Performance, P1 until P2 (direct vs SQL-based)",
            PAPER_TABLE6,
            measure_until,
        );
        json.insert("table6".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("ablation") {
        ablation();
    }
    if wants("complex") {
        let rows = perf("Extra (§4.2): (P1 and P2) until P3", &[], measure_complex1);
        json.insert("complex1".into(), serde_json::to_value(&rows).unwrap());
        let rows = perf(
            "Extra (§4.2): P1 and eventually (P2 until P3)",
            &[],
            measure_complex2,
        );
        json.insert("complex2".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("memo") {
        let rows = memo_modes();
        json.insert("memo".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("serve") {
        let rows = serve_bench(smoke, cache_capacity, &registry);
        json.insert("serve".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("serve_concurrent") {
        let rows = serve_concurrent_bench(smoke, cache_capacity, workers, &registry);
        json.insert(
            "serve_concurrent".into(),
            serde_json::to_value(&rows).unwrap(),
        );
    }
    // `--shards` alongside `serve` implies the sharded section, so the CI
    // gate's `repro serve --smoke --shards 1,2,4` spelling just works.
    if wants("serve_sharded") || (wants("serve") && shards.is_some()) {
        let counts = shards.clone().unwrap_or_else(|| vec![1, 2, 4]);
        let counts = if counts.is_empty() {
            vec![1, 2, 4]
        } else {
            counts
        };
        let rows = serve_sharded_bench(smoke, &counts, workers, &registry);
        json.insert("serve_sharded".into(), serde_json::to_value(&rows).unwrap());
    }
    // Likewise `--replicas` alongside `serve` implies the replicated
    // section, so `repro serve --smoke --shards 2 --replicas 2` works.
    if wants("serve_replicated") || (wants("serve") && replicas.is_some()) {
        let shard_counts = shards.clone().unwrap_or_else(|| vec![2]);
        let replica_counts = replicas.clone().unwrap_or_else(|| vec![2, 3]);
        let replica_counts = if replica_counts.is_empty() {
            vec![2, 3]
        } else {
            replica_counts
        };
        let rows =
            serve_replicated_bench(smoke, &shard_counts, &replica_counts, workers, &registry);
        json.insert(
            "serve_replicated".into(),
            serde_json::to_value(&rows).unwrap(),
        );
    }
    // `--churn` alongside `serve` implies the churn section, so the CI
    // gate's `repro serve --smoke --churn` spelling just works.
    if wants("serve_churn") || (wants("serve") && churn) {
        let shard_counts = shards.clone().unwrap_or_else(|| vec![2]);
        let replica_counts = replicas.clone().unwrap_or_else(|| vec![1]);
        let rows = serve_churn_bench(smoke, &shard_counts, &replica_counts, workers, &registry);
        json.insert("serve_churn".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("topk") {
        let rows = topk_bench(smoke);
        json.insert("topk".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("kernels") {
        let rows = kernels_bench(smoke);
        json.insert("kernels".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("chaos") {
        let rows = chaos_bench(smoke, &registry);
        json.insert("chaos".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("shard_chaos") {
        let counts = shards.clone().unwrap_or_else(|| vec![2]);
        let rows = shard_chaos_bench(smoke, &counts, &registry);
        json.insert("shard_chaos".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("replica_chaos") {
        let shard_counts = shards.unwrap_or_else(|| vec![2]);
        let replica_counts = replicas.unwrap_or_else(|| vec![2]);
        let rows = replica_chaos_bench(smoke, &shard_counts, &replica_counts, &registry);
        json.insert("replica_chaos".into(), serde_json::to_value(&rows).unwrap());
    }

    let metrics_json = || -> serde_json::Value {
        serde_json::from_str(&registry.snapshot().to_json())
            .expect("registry snapshot renders valid JSON")
    };
    // Both documents on stdout would not parse as one JSON value; embed
    // the metrics into the results instead.
    let embed_metrics = json_to_stdout && metrics_to_stdout;
    if let Some(path) = json_path {
        json.insert("meta".into(), bench_meta());
        if embed_metrics {
            json.insert("metrics".into(), metrics_json());
        }
        let text = serde_json::to_string_pretty(&json).unwrap();
        if json_to_stdout {
            println!("{text}");
        } else {
            std::fs::write(&path, text).expect("write json results");
            progress!("wrote machine-readable results to {path}");
        }
    }
    if let Some(target) = metrics_target {
        if !embed_metrics {
            let text = serde_json::to_string_pretty(&metrics_json()).unwrap();
            if metrics_to_stdout {
                println!("{text}");
            } else {
                std::fs::write(&target, text).expect("write metrics json");
                progress!("wrote metrics to {target}");
            }
        }
    }
}
