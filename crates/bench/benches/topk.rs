//! Criterion bench for Figures 21–22: top-k query runtime for k ∈ {1, 3, 5}.
//!
//! Paper shape: runtime grows only mildly with k for every algorithm; Greedy
//! remains the fastest and TGEN stays below APP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use std::hint::black_box;

fn bench_topk(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let queries = default_workload(&dataset, 2122);
    let query = queries.first().cloned().expect("workload is non-empty");
    let alpha = default_tgen_alpha(&dataset, &queries);
    let algorithms = [
        ("APP", Algorithm::App(AppParams::default())),
        ("TGEN", Algorithm::Tgen(TgenParams { alpha })),
        ("Greedy", Algorithm::Greedy(GreedyParams::default())),
    ];

    let mut group = c.benchmark_group("fig21_topk_ny");
    group.sample_size(10);
    for k in [1usize, 3, 5] {
        for (name, algorithm) in &algorithms {
            group.bench_with_input(BenchmarkId::new(*name, k), &k, |b, &k| {
                let request = QueryRequest::new(&query, algorithm.clone()).top_k(k);
                b.iter(|| black_box(engine.execute(&request).unwrap()));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
