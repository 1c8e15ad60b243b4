//! Criterion bench for Figures 7–8: APP runtime as the scaling parameter α varies.
//!
//! Paper shape: runtime decreases as α grows (coarser scaling → fewer tuples),
//! while result quality stays nearly flat (checked by the `experiments` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use std::hint::black_box;

fn bench_app_alpha(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let queries = default_workload(&dataset, 78);
    let query = queries.first().cloned().expect("workload is non-empty");

    let mut group = c.benchmark_group("fig7_app_vs_alpha");
    group.sample_size(10);
    for alpha in [0.01, 0.1, 0.5, 0.9] {
        group.bench_with_input(BenchmarkId::from_parameter(alpha), &alpha, |b, &alpha| {
            let algorithm = Algorithm::App(AppParams {
                alpha,
                ..AppParams::default()
            });
            let request = QueryRequest::new(&query, algorithm);
            b.iter(|| black_box(engine.execute(&request).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_app_alpha);
criterion_main!(benches);
