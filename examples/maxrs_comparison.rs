//! LCMSR vs MaxRS (Section 7.5 / Figure 20): compare the network-aware LCMSR
//! region against the classical fixed-rectangle maximum-range-sum region.
//!
//! The paper's human annotators preferred LCMSR on 90 % of queries because
//! MaxRS rectangles cut across blocks and their objects need not be connected
//! by streets.  This example reproduces the comparison procedure with an
//! automatic quality proxy (see DESIGN.md §4): the MaxRS result's objects are
//! connected with a minimum spanning tree in the road-network metric, that
//! length becomes the LCMSR `∆`, and the two regions are compared on relevance
//! weight and street connectivity.
//!
//! Run with: `cargo run --release --example maxrs_comparison`

use lcmsr::prelude::*;

fn main() {
    let dataset = Dataset::build(DatasetConfig::tiny(99));
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    println!("network : {}", dataset.network.stats());

    let mut params = dataset.default_query_params(55);
    params.num_queries = 10;
    params.num_keywords = 2;
    let queries = dataset.queries(&params);

    let mut lcmsr_preferred = 0usize;
    let mut compared = 0usize;
    println!(
        "\n{:>3} {:>28} {:>10} {:>10} {:>12} {:>9}",
        "q#", "keywords", "MaxRS w", "LCMSR w", "MaxRS conn.", "winner"
    );
    for (i, generated) in queries.iter().enumerate() {
        let query =
            LcmsrQuery::new(generated.keywords.clone(), generated.delta, generated.rect).unwrap();
        // The paper uses a 500 m × 500 m MaxRS rectangle.
        let Ok(Some(maxrs)) = engine.run_maxrs(&query, 500.0, 500.0) else {
            continue;
        };
        let delta = maxrs.connecting_length.unwrap_or(query.delta).max(250.0);
        let lcmsr_query =
            LcmsrQuery::new(generated.keywords.clone(), delta, generated.rect).unwrap();
        let request = QueryRequest::new(&lcmsr_query, Algorithm::Tgen(TgenParams { alpha: 5.0 }));
        let lcmsr_weight = engine
            .execute(&request)
            .expect("query runs")
            .best()
            .map_or(0.0, |r| r.weight);
        let lcmsr_better = !maxrs.connected_in_network || lcmsr_weight >= maxrs.weight * 0.98;
        if lcmsr_better {
            lcmsr_preferred += 1;
        }
        compared += 1;
        println!(
            "{:>3} {:>28} {:>10.4} {:>10.4} {:>12} {:>9}",
            i + 1,
            generated.keywords.join(" "),
            maxrs.weight,
            lcmsr_weight,
            maxrs.connected_in_network,
            if lcmsr_better { "LCMSR" } else { "MaxRS" }
        );
    }
    if compared > 0 {
        println!(
            "\nLCMSR preferred on {}/{} comparable queries ({:.0}%); the paper's annotators preferred it on 90%.",
            lcmsr_preferred,
            compared,
            100.0 * lcmsr_preferred as f64 / compared as f64
        );
    }
}
