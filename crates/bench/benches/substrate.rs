//! Substrate micro-benchmarks: keyword scoring against the indexing layer
//! the paper's Section 3 describes (grid + per-cell inverted lists, here one
//! flat CSR) — the object→node weight computation that precedes every query.
//!
//! These do not correspond to a single figure; they quantify the fixed
//! per-query indexing cost that all three algorithms share.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use std::hint::black_box;

fn bench_node_weights(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let queries = default_workload(&dataset, 999);
    let query = queries.first().cloned().expect("workload is non-empty");

    let mut group = c.benchmark_group("substrate_node_weights");
    group.sample_size(20);
    for keywords in [1usize, 3, 5] {
        let kws: Vec<String> = query
            .keywords
            .iter()
            .cycle()
            .take(keywords)
            .cloned()
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(keywords), &kws, |b, kws| {
            b.iter(|| {
                black_box(
                    dataset
                        .collection
                        .node_weights_for_keywords(kws, &query.region_of_interest),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_node_weights);
criterion_main!(benches);
