//! Benchmarks of the memoizing evaluation engine: memoization on/off over
//! a level-modal query, and the hash-partitioned table join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simvid_bench::{memo_query, memo_workload};
use simvid_core::{list, Engine, EngineConfig};
use simvid_workload::randomtables::{generate, TableGenConfig};

const N: u32 = 50_000;
const SEED: u64 = 42;

fn memoization(c: &mut Criterion) {
    let (tree, provider) = memo_workload(N, SEED);
    let query = memo_query();
    let mut g = c.benchmark_group("memoization");
    for (name, memoize) in [("off", false), ("on", true)] {
        let cfg = EngineConfig {
            memoize,
            ..EngineConfig::default()
        };
        g.bench_with_input(BenchmarkId::new("memo", name), &cfg, |b, cfg| {
            let engine = Engine::with_config(&provider, &tree, *cfg);
            b.iter(|| engine.eval_closed_at_level(&query, 1).unwrap());
        });
    }
    g.finish();
}

fn hash_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash_join");
    for rows in [8usize, 64, 256] {
        let cfg = TableGenConfig {
            cols: vec!["x".into(), "y".into()],
            rows,
            universe: rows as u64,
            ..TableGenConfig::default()
        };
        let cfg2 = TableGenConfig {
            cols: vec!["y".into(), "z".into()],
            ..cfg.clone()
        };
        let t1 = generate(&cfg, SEED);
        let t2 = generate(&cfg2, SEED + 1);
        g.bench_with_input(BenchmarkId::new("rows", rows), &(t1, t2), |b, (t1, t2)| {
            b.iter(|| t1.join(t2, t1.max + t2.max, list::and));
        });
    }
    g.finish();
}

criterion_group!(benches, memoization, hash_join);
criterion_main!(benches);
