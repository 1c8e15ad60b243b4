//! Accuracy / efficiency comparison over a query workload — a miniature of the
//! paper's Section 7.2.2: run APP, TGEN and Greedy over a generated workload
//! and report average runtime and the relative accuracy ratio against TGEN
//! (the paper's measure, since exact answers are infeasible at scale).
//!
//! Run with: `cargo run --release --example compare_algorithms`

use lcmsr::prelude::*;
use std::time::Instant;

fn main() {
    let dataset = Dataset::build(DatasetConfig::tiny(11));
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    println!("network : {}", dataset.network.stats());

    // A workload of queries following the paper's generation procedure.
    let mut params = dataset.default_query_params(23);
    params.num_queries = 12;
    params.num_keywords = 3;
    let queries = dataset.queries(&params);
    println!(
        "workload: {} queries, {} keywords each, Λ = {:.1} km², ∆ = {:.1} km\n",
        queries.len(),
        params.num_keywords,
        params.area_km2,
        params.delta_km
    );

    let algorithms = [
        ("APP", Algorithm::App(AppParams::default())),
        ("TGEN", Algorithm::Tgen(TgenParams { alpha: 5.0 })),
        ("Greedy", Algorithm::Greedy(GreedyParams::default())),
    ];

    // Collect weights per algorithm per query to compute the relative ratio.
    let mut weights: Vec<Vec<f64>> = vec![Vec::new(); algorithms.len()];
    let mut runtimes: Vec<f64> = vec![0.0; algorithms.len()];
    for query in &queries {
        let lcmsr_query = LcmsrQuery::new(query.keywords.clone(), query.delta, query.rect)
            .expect("generated queries are valid");
        for (i, (_, algorithm)) in algorithms.iter().enumerate() {
            let started = Instant::now();
            let result = engine
                .execute(&QueryRequest::new(&lcmsr_query, algorithm.clone()))
                .expect("query runs");
            runtimes[i] += started.elapsed().as_secs_f64() * 1_000.0;
            weights[i].push(result.best().map_or(0.0, |r| r.weight));
        }
    }

    // Relative ratio vs. TGEN (index 1), averaged over queries — the paper's metric.
    println!(
        "{:<8} {:>14} {:>20}",
        "algo", "avg time (ms)", "ratio vs TGEN (%)"
    );
    for (i, (name, _)) in algorithms.iter().enumerate() {
        let mut ratio_sum = 0.0;
        let mut counted = 0usize;
        for (candidate, reference) in weights[i].iter().zip(&weights[1]) {
            if *reference > 0.0 {
                ratio_sum += (candidate / reference).min(1.5) * 100.0;
                counted += 1;
            }
        }
        let avg_ratio = if counted > 0 {
            ratio_sum / counted as f64
        } else {
            0.0
        };
        println!(
            "{:<8} {:>14.2} {:>20.1}",
            name,
            runtimes[i] / queries.len() as f64,
            avg_ratio
        );
    }
    println!("\nExpected shape (paper §7.2.2): TGEN is the accuracy reference (100%),");
    println!("APP stays above ~90%, Greedy falls well below; Greedy is the fastest.");
}
