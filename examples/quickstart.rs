//! Quickstart: build a tiny synthetic city, index its points of interest, and
//! answer one LCMSR query with all three algorithms.
//!
//! Run with: `cargo run --release --example quickstart`

use lcmsr::prelude::*;

fn main() {
    // 1. Build a small synthetic data set (a Manhattan-style grid with
    //    clustered points of interest) — stands in for the paper's New York
    //    data; see DESIGN.md §4.
    let dataset = Dataset::build(DatasetConfig::tiny(42));
    println!("network : {}", dataset.network.stats());
    println!(
        "objects : {} indexed, {} distinct keywords",
        dataset.collection.len(),
        dataset.collection.keyword_count()
    );

    // 2. Formulate an LCMSR query: keywords, a walking budget Q.∆, and the
    //    region of interest Q.Λ (here: the whole city).
    let roi = dataset.network.bounding_rect().unwrap();
    let query =
        LcmsrQuery::new(["restaurant", "cafe"], 1_200.0, roi).expect("query arguments are valid");
    println!(
        "\nquery   : keywords {:?}, ∆ = {} m, Λ = {:.1} km²",
        query.keywords,
        query.delta,
        query.region_of_interest.area_km2()
    );

    // 3. Answer it with each algorithm and compare.
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let algorithms = vec![
        Algorithm::App(AppParams::default()),
        Algorithm::Tgen(TgenParams { alpha: 10.0 }),
        Algorithm::Greedy(GreedyParams::default()),
    ];
    println!(
        "\n{:<8} {:>10} {:>12} {:>8} {:>12}",
        "algo", "weight", "length (m)", "PoIs", "time (ms)"
    );
    for algorithm in &algorithms {
        let result = engine
            .execute(&QueryRequest::new(&query, algorithm.clone()))
            .expect("query runs");
        match result.best() {
            Some(region) => println!(
                "{:<8} {:>10.4} {:>12.1} {:>8} {:>12.2}",
                algorithm.name(),
                region.weight,
                region.length,
                region.node_count(),
                result.stats.elapsed_ms()
            ),
            None => println!("{:<8} (no relevant region found)", algorithm.name()),
        }
    }
}
