//! Ablation bench: APP with the GW/Garg-style k-MST oracle versus the
//! density-greedy oracle (DESIGN.md §6 "k-MST oracle" design choice).
//!
//! Expected shape: the density oracle is noticeably faster; the GW oracle
//! produces candidate trees closer to the paper's algorithm and (as the
//! `experiments` binary reports) slightly better regions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use lcmsr_core::kmst::KMstSolverKind;
use lcmsr_core::prelude::*;
use std::hint::black_box;

fn bench_kmst_ablation(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let queries = default_workload(&dataset, 4242);
    let query = queries.first().cloned().expect("workload is non-empty");

    let mut group = c.benchmark_group("ablation_kmst_oracle");
    group.sample_size(10);
    for (name, kind) in [
        ("garg-gw", KMstSolverKind::Garg),
        ("density", KMstSolverKind::Density),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &kind, |b, &kind| {
            let algorithm = Algorithm::App(AppParams {
                solver: kind,
                ..AppParams::default()
            });
            let request = QueryRequest::new(&query, algorithm);
            b.iter(|| black_box(engine.execute(&request).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kmst_ablation);
criterion_main!(benches);
