//! Criterion bench for Figures 9–10: TGEN runtime as its scaling parameter α varies.
//!
//! Paper shape: runtime falls sharply as α grows because each node's explored
//! tuple array shrinks (the bound is `N_max·⌊|V_Q|/α⌋`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use std::hint::black_box;

fn bench_tgen_alpha(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let queries = default_workload(&dataset, 910);
    let query = queries.first().cloned().expect("workload is non-empty");
    let base = default_tgen_alpha(&dataset, &queries);

    let mut group = c.benchmark_group("fig9_tgen_vs_alpha");
    group.sample_size(10);
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let alpha = (base * factor).max(0.05);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{factor}x")),
            &alpha,
            |b, &alpha| {
                let algorithm = Algorithm::Tgen(TgenParams { alpha });
                let request = QueryRequest::new(&query, algorithm);
                b.iter(|| black_box(engine.execute(&request).unwrap()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_tgen_alpha);
criterion_main!(benches);
