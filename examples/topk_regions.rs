//! Top-k LCMSR exploration (Section 6.2): return several alternative regions so
//! the user can choose between neighbourhoods.
//!
//! Run with: `cargo run --release --example topk_regions`

use lcmsr::prelude::*;

fn main() {
    let dataset = Dataset::build(DatasetConfig::tiny(3));
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);

    let roi = dataset.network.bounding_rect().unwrap();
    let query = LcmsrQuery::new(["bar", "pub", "nightclub"], 1_000.0, roi).unwrap();
    println!(
        "query: {:?}, ∆ = {} m, Λ = {:.1} km²\n",
        query.keywords,
        query.delta,
        roi.area_km2()
    );

    let k = 3;
    for algorithm in [
        Algorithm::Tgen(TgenParams { alpha: 5.0 }),
        Algorithm::App(AppParams::default()),
        Algorithm::Greedy(GreedyParams::default()),
    ] {
        let result = engine
            .execute(&QueryRequest::new(&query, algorithm.clone()).top_k(k))
            .expect("query runs");
        println!(
            "=== {} (top-{k}) — {:.2} ms ===",
            algorithm.name(),
            result.stats.elapsed_ms()
        );
        if result.regions.is_empty() {
            println!("  no relevant region found\n");
            continue;
        }
        for (rank, region) in result.regions.iter().enumerate() {
            println!(
                "  #{} weight {:.4}, length {:.0} m, {} road nodes",
                rank + 1,
                region.weight,
                region.length,
                region.node_count()
            );
        }
        println!();
    }

    // TGEN's default α (400, tuned for the paper's city-scale graphs) is far
    // coarser than this tiny network: every scaled weight floors to zero.
    // Top-k must still return regions and its #1 must agree with the
    // single-region query.
    let coarse = Algorithm::Tgen(TgenParams::default());
    let single = engine
        .execute(&QueryRequest::new(&query, coarse.clone()))
        .expect("query runs");
    let top = engine
        .execute(&QueryRequest::new(&query, coarse.clone()).top_k(k))
        .expect("query runs");
    println!(
        "=== TGEN with default α = {} (coarse scaling) ===",
        TgenParams::default().alpha
    );
    match (single.best(), top.regions.first()) {
        (Some(s), Some(t)) => println!(
            "  single best weight {:.4} | top-1 weight {:.4} ({} alternatives returned)",
            s.weight,
            t.weight,
            top.regions.len()
        ),
        _ => println!(
            "  single: {:?}, top-k: {} regions — INCONSISTENT",
            single.best().is_some(),
            top.regions.len()
        ),
    }
}
