//! Upper-bound-pruned top-`k` retrieval against the unpruned oracle (full
//! evaluation, then ranking) on random lists. Serving latency and
//! throughput are timed by the repository benchmark (`perfbench/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simvid_bench::{flat_tree, ListProvider};
use simvid_core::{top_k, Engine};
use simvid_htl::parse;
use simvid_workload::randomlists::{generate, ListGenConfig};

fn pruned_topk(c: &mut Criterion) {
    let n = 50_000u32;
    let cfg = ListGenConfig {
        coverage: 0.35,
        ..ListGenConfig::default().with_n(n)
    };
    let provider = ListProvider::new(vec![
        ("P1()".into(), generate(&cfg, 42)),
        ("P2()".into(), generate(&cfg, 43)),
        ("P3()".into(), generate(&cfg, 44)),
    ]);
    let tree = flat_tree(n);
    let engine = Engine::new(&provider, &tree);
    let query = parse("P1() and next P2() and (P1() until P3())").unwrap();
    let mut g = c.benchmark_group("pruned_topk");
    for k in [1usize, 10, 100] {
        g.bench_with_input(BenchmarkId::new("pruned", k), &k, |b, &k| {
            b.iter(|| engine.top_k_closed(&query, 1, k).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("baseline", k), &k, |b, &k| {
            b.iter(|| top_k(&engine.eval_closed_at_level(&query, 1).unwrap(), k));
        });
    }
    g.finish();
}

criterion_group!(benches, pruned_topk);
criterion_main!(benches);
