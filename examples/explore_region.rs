//! The paper's motivating scenario (Figures 1 and 17–19): a user standing in a
//! dense downtown wants a compact, walkable region with many cafes and
//! restaurants.  We run the same query with TGEN, APP and Greedy and print the
//! regions' contents so their shapes and qualities can be compared — the
//! analogue of the qualitative Bronx example in Section 7.4.
//!
//! Run with: `cargo run --release --example explore_region`

use lcmsr::prelude::*;

fn main() {
    // A denser NY-like city than the quickstart (small scale keeps this fast).
    let dataset = Dataset::build(DatasetConfig::ny(NetworkScale::Small, 7));
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    println!("network : {}", dataset.network.stats());

    // Focus the search on a "downtown" window around one of the planted
    // restaurant/cafe clusters so the region of interest is realistic.
    let center = dataset
        .clusters
        .iter()
        .find(|c| {
            let term = CATEGORIES[c.category];
            term == "restaurant" || term == "cafe" || term == "coffee"
        })
        .map_or_else(
            || dataset.network.bounding_rect().unwrap().center(),
            |c| c.point,
        );
    let roi = Rect::centered_square(center, 3_000.0); // a 3 km × 3 km downtown
    let query = LcmsrQuery::new(["cafe", "restaurant"], 2_000.0, roi).unwrap();
    println!(
        "query   : {:?}, ∆ = {} m, Λ = {:.1} km² around ({:.0}, {:.0})",
        query.keywords,
        query.delta,
        roi.area_km2(),
        center.x,
        center.y
    );

    let algorithms = vec![
        Algorithm::Tgen(TgenParams { alpha: 25.0 }),
        Algorithm::App(AppParams::default()),
        Algorithm::Greedy(GreedyParams::default()),
    ];
    for algorithm in &algorithms {
        let result = engine
            .execute(&QueryRequest::new(&query, algorithm.clone()))
            .expect("query runs");
        println!("\n=== {} ===", algorithm.name());
        let Some(region) = result.best() else {
            println!("no relevant region found");
            continue;
        };
        // Count the actual points of interest inside the region and the
        // categories they carry — the paper reports "N objects with weight W".
        let mut poi_count = 0usize;
        let mut category_hits: std::collections::BTreeMap<&str, usize> = Default::default();
        for &node in &region.nodes {
            for &obj in dataset.collection.objects_at(node) {
                let object = dataset.collection.object(obj).unwrap();
                let relevant = query.keywords.iter().any(|k| object.contains_term(k));
                if relevant {
                    poi_count += 1;
                    for k in &query.keywords {
                        if object.contains_term(k) {
                            *category_hits.entry(k.as_str()).or_default() += 1;
                        }
                    }
                }
            }
        }
        println!(
            "region  : {} road nodes, {} segments, {:.0} m of streets",
            region.node_count(),
            region.edges.len(),
            region.length
        );
        println!(
            "content : {} relevant PoIs, total relevance weight {:.3}",
            poi_count, region.weight
        );
        for (term, count) in &category_hits {
            println!("          {count} × \"{term}\"");
        }
        println!("stats   : {}", result.stats);
    }
}
