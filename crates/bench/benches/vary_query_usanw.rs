//! Criterion bench for Figure 16: runtime of APP, TGEN and Greedy on the
//! USANW-like dataset while varying the query arguments.
//!
//! Paper shape: same trends as Figure 15 (runtime grows with every argument;
//! Greedy ≪ TGEN < APP) on the sparser, larger-extent network.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcmsr_bench::*;
use lcmsr_core::prelude::*;
use std::hint::black_box;

fn bench_usanw_vary_keywords(c: &mut Criterion) {
    let dataset = usanw_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let defaults = dataset.default_query_params(165);
    let mut group = c.benchmark_group("fig16a_usanw_vs_keywords");
    group.sample_size(10);
    for keywords in [1usize, 3, 5] {
        let queries = make_workload(
            &dataset,
            1,
            keywords,
            defaults.area_km2,
            defaults.delta_km,
            250 + keywords as u64,
        );
        let Some(query) = queries.first().cloned() else {
            continue;
        };
        let alpha = default_tgen_alpha(&dataset, &queries);
        let algorithms = [
            (
                "APP",
                Algorithm::App(AppParams {
                    alpha: 0.1,
                    ..AppParams::default()
                }),
            ),
            ("TGEN", Algorithm::Tgen(TgenParams { alpha })),
            ("Greedy", Algorithm::Greedy(GreedyParams { mu: 0.4 })),
        ];
        for (name, algorithm) in algorithms {
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

fn bench_usanw_vary_delta(c: &mut Criterion) {
    let dataset = usanw_dataset(scale_from_env());
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let defaults = dataset.default_query_params(166);
    let mut group = c.benchmark_group("fig16c_usanw_vs_delta");
    group.sample_size(10);
    for factor in [0.85f64, 1.0, 1.15] {
        let delta = defaults.delta_km * factor;
        let queries = make_workload(
            &dataset,
            1,
            defaults.num_keywords,
            defaults.area_km2,
            delta,
            261,
        );
        let Some(query) = queries.first().cloned() else {
            continue;
        };
        let alpha = default_tgen_alpha(&dataset, &queries);
        let algorithms = [
            (
                "APP",
                Algorithm::App(AppParams {
                    alpha: 0.1,
                    ..AppParams::default()
                }),
            ),
            ("TGEN", Algorithm::Tgen(TgenParams { alpha })),
            ("Greedy", Algorithm::Greedy(GreedyParams { mu: 0.4 })),
        ];
        for (name, algorithm) in algorithms {
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

criterion_group!(benches, bench_usanw_vary_keywords, bench_usanw_vary_delta);
criterion_main!(benches);
