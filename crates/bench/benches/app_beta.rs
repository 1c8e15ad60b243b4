//! Criterion bench for Figures 11–12: APP runtime as the binary-search
//! parameter β varies.
//!
//! Paper shape: larger β terminates the quota binary search earlier, so
//! runtime (and accuracy) decrease as β grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use std::hint::black_box;

fn bench_app_beta(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let queries = default_workload(&dataset, 1112);
    let query = queries.first().cloned().expect("workload is non-empty");

    let mut group = c.benchmark_group("fig11_app_vs_beta");
    group.sample_size(10);
    for beta in [0.001, 0.01, 0.1, 0.9] {
        group.bench_with_input(BenchmarkId::from_parameter(beta), &beta, |b, &beta| {
            let algorithm = Algorithm::App(AppParams {
                beta,
                ..AppParams::default()
            });
            let request = QueryRequest::new(&query, algorithm);
            b.iter(|| black_box(engine.execute(&request).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_app_beta);
criterion_main!(benches);
