//! Cross-crate substrate tests: DIMACS round trips of synthetic networks,
//! index-vs-direct scoring consistency, and query-graph construction on
//! generated data.

use lcmsr::geotext::vsm::QueryVector;
use lcmsr::prelude::*;
use lcmsr::roadnet::dimacs::{parse_dimacs, to_dimacs_strings, WeightUnit};

mod common;
use common::*;

#[test]
fn synthetic_network_round_trips_through_dimacs() {
    let network = ny_like(NetworkScale::Tiny, 13).unwrap();
    let (gr, co) = to_dimacs_strings(&network);
    let reloaded = parse_dimacs(&gr, &co, WeightUnit::Meters).unwrap();
    assert_eq!(reloaded.node_count(), network.node_count());
    assert_eq!(reloaded.edge_count(), network.edge_count());
    // Edge lengths survive up to the integer rounding of the DIMACS format.
    for e in network.edges().iter().take(200) {
        let l = reloaded.length(reloaded.edge_between(e.a, e.b).unwrap());
        assert!((l - e.length.round().max(1.0)).abs() < 1e-9);
    }
}

#[test]
fn grid_index_scoring_matches_direct_vsm_scoring() {
    let dataset = Dataset::build(DatasetConfig::tiny(19));
    let collection = &dataset.collection;
    let rect = dataset.network.bounding_rect().unwrap().expanded(100.0);
    let keywords = ["restaurant", "coffee", "bar"];
    let weights = collection.node_weights_for_keywords(&keywords, &rect);
    let query = QueryVector::new(collection.vocabulary(), &keywords);
    // Recompute each scored object's relevance directly from Equation 1.
    for &(object_id, score) in weights.by_object() {
        let object = collection.object(object_id).unwrap();
        let direct = query.score_object(object);
        assert!(
            (direct - score).abs() < 1e-9,
            "object {object_id}: index {score} vs direct {direct}"
        );
    }
    // And every node weight is the sum of its objects' scores.
    for &(node, w) in weights.by_node() {
        let sum: f64 = collection
            .objects_at(node)
            .iter()
            .filter_map(|&o| weights.object_score(o))
            .sum();
        assert!((sum - w).abs() < 1e-9);
    }
}

#[test]
fn query_graph_respects_the_region_of_interest() {
    let dataset = Dataset::build(DatasetConfig::tiny(23));
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let full = dataset.network.bounding_rect().unwrap();
    let half = Rect::new(full.min_x, full.min_y, full.center().x, full.max_y);
    let query = LcmsrQuery::new(["restaurant"], 800.0, half).unwrap();
    let graph = engine.prepare(&query, 0.5).unwrap();
    assert!(graph.node_count() < dataset.network.node_count());
    for v in graph.node_indices() {
        assert!(half.contains(&dataset.network.point(graph.global_node(v))));
    }
    // Scaled weights follow Lemma 5: no node exceeds ⌊|V_Q|/α⌋.
    let bound = graph.scaled_weight_lower_bound();
    for v in graph.node_indices() {
        assert!(graph.scaled_weight(v) <= bound);
    }
}

#[test]
fn generated_workloads_are_answerable() {
    let dataset = Dataset::build(DatasetConfig::tiny(29));
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let mut params = dataset.default_query_params(3);
    params.num_queries = 6;
    params.num_keywords = 2;
    let queries = dataset.queries(&params);
    assert_eq!(queries.len(), 6);
    let mut answered = 0;
    for q in queries {
        let query = LcmsrQuery::new(q.keywords.clone(), q.delta, q.rect).unwrap();
        let result = run1(&engine, &query, &Algorithm::Greedy(GreedyParams::default())).unwrap();
        if result.best().is_some() {
            answered += 1;
        }
    }
    // The generator guarantees every query area contains relevant objects, so
    // the vast majority must be answerable (boundary effects may lose a couple).
    assert!(
        answered >= 4,
        "only {answered} of 6 queries produced regions"
    );
}

#[test]
fn object_ratings_are_available_for_alternative_scoring() {
    // Section 2 allows scoring by rating/popularity instead of text relevance;
    // the substrate must expose ratings for that use.
    let dataset = Dataset::build(DatasetConfig::tiny(31));
    let with_rating = dataset
        .collection
        .objects()
        .iter()
        .filter(|o| o.rating.is_some())
        .count();
    assert_eq!(with_rating, dataset.collection.len());
}
