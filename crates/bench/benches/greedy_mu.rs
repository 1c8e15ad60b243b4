//! Criterion bench for Figures 13–14: Greedy runtime as µ varies.
//!
//! Paper shape: runtime is essentially flat in µ (the parameter only changes
//! which frontier node is picked, not how much work each step does) and two to
//! three orders of magnitude below APP/TGEN.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use std::hint::black_box;

fn bench_greedy_mu(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let queries = default_workload(&dataset, 1314);
    let query = queries.first().cloned().expect("workload is non-empty");

    let mut group = c.benchmark_group("fig13_greedy_vs_mu");
    group.sample_size(20);
    for mu in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        group.bench_with_input(BenchmarkId::from_parameter(mu), &mu, |b, &mu| {
            let algorithm = Algorithm::Greedy(GreedyParams { mu });
            let request = QueryRequest::new(&query, algorithm);
            b.iter(|| black_box(engine.execute(&request).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_greedy_mu);
criterion_main!(benches);
