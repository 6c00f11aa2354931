//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [figure2|table1..table6|complex|ablation|memo|topk|kernels|all]...
//!       [--json PATH] [--smoke]
//! ```
//!
//! Several section names may be given at once (`repro topk kernels --json
//! out`) to run just those sections into one results file. `--smoke`
//! shrinks the `topk` and `kernels` workloads to CI-sized runs.
//!
//! `-` as the `--json` path means stdout; all human-readable output then
//! routes to stderr, so `repro all --json - | jq .` is valid.
//!
//! An unknown section, an unknown flag or a missing `--json` path is a
//! usage error: exit status 2, usage on stderr, nothing run or written.
//!
//! Serving throughput and latency are not measured here: the repository
//! benchmark (`perfbench/`, `BENCHMARK.json`) owns timing, and the serving
//! answers are pinned by the `serving_golden` test suite.

use simvid_bench::{
    bench_meta, format_engine_mode_table, format_kernel_table, format_list_table,
    format_perf_table, format_pruned_table, measure_complex1, measure_complex2,
    measure_conjunction, measure_engine_modes, measure_kernels, measure_pruned_topk, measure_until,
    EngineModeRow, PerfRow, PAPER_SIZES, PAPER_TABLE5, PAPER_TABLE6, THETA,
};
use simvid_core::{list, rank_entries, ConjunctionSemantics, Engine, EngineConfig, SimilarityList};
use simvid_picture::PictureSystem;
use simvid_workload::casablanca;
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether stdout is reserved for machine-readable JSON (`--json -`).
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

fn kernels_bench(smoke: bool) -> Vec<simvid_bench::KernelRow> {
    let rows = measure_kernels(smoke, 42);
    progress!(
        "{}",
        format_kernel_table(
            "Merge kernels on a skewed pair (sparse probe vs dense list): \
             galloping sweeps (output digests pinned by the bench unit tests)",
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
    "figure2", "table1", "table2", "table3", "table4", "table5", "table6", "complex", "ablation",
    "memo", "topk", "kernels", "all",
];

/// Reports a usage error and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!(
        "repro: {msg}\nusage: repro [SECTION]... [--json PATH] [--smoke]\nknown sections: {}",
        SECTIONS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut sections: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) if !path.starts_with("--") => json_path = Some(path),
                _ => usage_error("--json needs a path (`-` for stdout)"),
            },
            "--smoke" => smoke = true,
            flag if flag.starts_with('-') && flag != "-" => {
                usage_error(&format!("unknown flag: {flag}"));
            }
            _ => sections.push(arg),
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
        usage_error(&format!("unknown section(s): {}", unknown.join(", ")));
    }
    let json_to_stdout = json_path.as_deref() == Some("-");
    if json_to_stdout {
        STDOUT_RESERVED.store(true, Ordering::Relaxed);
    }
    let wants = |s: &str| sections.iter().any(|w| w == s || w == "all");
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
    if wants("topk") {
        let rows = topk_bench(smoke);
        json.insert("topk".into(), serde_json::to_value(&rows).unwrap());
    }
    if wants("kernels") {
        let rows = kernels_bench(smoke);
        json.insert("kernels".into(), serde_json::to_value(&rows).unwrap());
    }
    if let Some(path) = json_path {
        json.insert("meta".into(), bench_meta());
        let text = serde_json::to_string_pretty(&json).unwrap();
        if json_to_stdout {
            println!("{text}");
        } else {
            std::fs::write(&path, text).expect("write json results");
            progress!("wrote machine-readable results to {path}");
        }
    }
}
