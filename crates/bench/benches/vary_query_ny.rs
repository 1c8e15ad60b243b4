//! Criterion bench for Figure 15: runtime of APP, TGEN and Greedy on the
//! NY-like dataset while varying the query arguments (number of keywords, ∆, Λ).
//!
//! Paper shape: all runtimes grow with each argument; Greedy ≪ TGEN < APP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use std::hint::black_box;

fn algorithms(
    dataset: &lcmsr_datagen::Dataset,
    queries: &[LcmsrQuery],
) -> Vec<(&'static str, Algorithm)> {
    let alpha = default_tgen_alpha(dataset, queries);
    vec![
        ("APP", Algorithm::App(AppParams::default())),
        ("TGEN", Algorithm::Tgen(TgenParams { alpha })),
        ("Greedy", Algorithm::Greedy(GreedyParams::default())),
    ]
}

fn bench_vary_keywords(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let defaults = dataset.default_query_params(15);
    let mut group = c.benchmark_group("fig15a_ny_vs_keywords");
    group.sample_size(10);
    for keywords in [1usize, 3, 5] {
        let queries = make_workload(
            &dataset,
            1,
            keywords,
            defaults.area_km2,
            defaults.delta_km,
            150 + keywords as u64,
        );
        let Some(query) = queries.first().cloned() else {
            continue;
        };
        for (name, algorithm) in algorithms(&dataset, &queries) {
            group.bench_with_input(
                BenchmarkId::new(name, keywords),
                &algorithm,
                |b, algorithm| {
                    let request = QueryRequest::new(&query, algorithm.clone());
                    b.iter(|| black_box(engine.execute(&request).unwrap()));
                },
            );
        }
    }
    group.finish();
}

fn bench_vary_delta(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let defaults = dataset.default_query_params(16);
    let mut group = c.benchmark_group("fig15c_ny_vs_delta");
    group.sample_size(10);
    for factor in [0.8f64, 1.0, 1.2] {
        let delta = defaults.delta_km * factor;
        let queries = make_workload(
            &dataset,
            1,
            defaults.num_keywords,
            defaults.area_km2,
            delta,
            161,
        );
        let Some(query) = queries.first().cloned() else {
            continue;
        };
        for (name, algorithm) in algorithms(&dataset, &queries) {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{factor}dx")),
                &algorithm,
                |b, algorithm| {
                    let request = QueryRequest::new(&query, algorithm.clone());
                    b.iter(|| black_box(engine.execute(&request).unwrap()));
                },
            );
        }
    }
    group.finish();
}

fn bench_vary_area(c: &mut Criterion) {
    let dataset = ny_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let defaults = dataset.default_query_params(17);
    let mut group = c.benchmark_group("fig15e_ny_vs_area");
    group.sample_size(10);
    for factor in [0.75f64, 1.0, 1.25] {
        let area = defaults.area_km2 * factor;
        let queries = make_workload(
            &dataset,
            1,
            defaults.num_keywords,
            area,
            defaults.delta_km,
            171,
        );
        let Some(query) = queries.first().cloned() else {
            continue;
        };
        for (name, algorithm) in algorithms(&dataset, &queries) {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{factor}ax")),
                &algorithm,
                |b, algorithm| {
                    let request = QueryRequest::new(&query, algorithm.clone());
                    b.iter(|| black_box(engine.execute(&request).unwrap()));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_vary_keywords,
    bench_vary_delta,
    bench_vary_area
);
criterion_main!(benches);
