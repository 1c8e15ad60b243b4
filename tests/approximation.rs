//! Approximation-quality tests: on small query regions the exact solver is
//! feasible, so APP's (5+ε) guarantee (Theorem 4) and the empirical accuracy
//! ordering of the paper can be verified directly, including with
//! property-based random instances.

use lcmsr::core::engine::{Algorithm, LcmsrEngine};
use lcmsr::core::{AppParams, GreedyParams, LcmsrQuery, TgenParams};
use lcmsr::geotext::{GeoTextObject, ObjectCollection};
use lcmsr::roadnet::{GraphBuilder, NodeId, Point, Rect, RoadNetwork};
use proptest::prelude::*;

mod common;
use common::*;

/// Builds a `side × side` grid road network with `spacing`-metre blocks and a
/// restaurant placed at each node listed in `restaurant_nodes` (index into the
/// row-major grid).
fn grid_world(
    side: usize,
    spacing: f64,
    restaurant_nodes: &[usize],
) -> (RoadNetwork, ObjectCollection) {
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for y in 0..side {
        for x in 0..side {
            ids.push(b.add_node(Point::new(x as f64 * spacing, y as f64 * spacing)));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let i = y * side + x;
            if x + 1 < side {
                b.add_edge(ids[i], ids[i + 1], spacing).unwrap();
            }
            if y + 1 < side {
                b.add_edge(ids[i], ids[i + side], spacing).unwrap();
            }
        }
    }
    let network = b.build().unwrap();
    let objects: Vec<GeoTextObject> = restaurant_nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let p = network.point(NodeId((node % (side * side)) as u32));
            // Offset slightly so several objects on one node stay distinct points.
            GeoTextObject::from_keywords(i as u64, Point::new(p.x + 1.0, p.y + 1.0), ["restaurant"])
        })
        .collect();
    let collection = ObjectCollection::build(&network, objects, spacing.max(50.0)).unwrap();
    (network, collection)
}

fn whole(network: &RoadNetwork) -> Rect {
    network.bounding_rect().unwrap().expanded(10.0)
}

#[test]
fn app_meets_its_theoretical_guarantee_on_small_instances() {
    // 4×4 grid (16 nodes) keeps the exact solver fast.
    let placements: Vec<Vec<usize>> = vec![
        vec![0, 1, 2, 5, 10, 15],
        vec![0, 3, 12, 15],
        vec![5, 6, 9, 10],
        vec![0, 1, 4, 5, 2, 8, 7, 13],
    ];
    for restaurants in placements {
        let (network, collection) = grid_world(4, 100.0, &restaurants);
        let engine = LcmsrEngine::new(&network, &collection);
        for delta in [150.0, 300.0, 500.0] {
            let query = LcmsrQuery::new(["restaurant"], delta, whole(&network)).unwrap();
            let exact = run1(&engine, &query, &Algorithm::Exact)
                .unwrap()
                .best()
                .cloned()
                .expect("exact optimum exists");
            let params = AppParams::default();
            let app = run1(&engine, &query, &Algorithm::App(params))
                .unwrap()
                .best()
                .cloned()
                .expect("APP returns a region");
            assert!(app.length <= delta + 1e-6);
            // Theorem 4: weight ≥ (1−α)/(5+5β) of the optimum.
            let bound = (1.0 - params.alpha) / (5.0 + 5.0 * params.beta);
            assert!(
                app.weight >= bound * exact.weight - 1e-9,
                "APP weight {} below the (5+ε) bound {} of optimum {}",
                app.weight,
                bound * exact.weight,
                exact.weight
            );
            // In practice APP does far better; flag egregious regressions.
            assert!(
                app.weight >= 0.5 * exact.weight,
                "APP weight {} is under half the optimum {}",
                app.weight,
                exact.weight
            );
        }
    }
}

#[test]
fn tgen_is_at_least_as_accurate_as_greedy_on_average() {
    let placements: Vec<Vec<usize>> = vec![
        vec![0, 1, 2, 3, 6, 9, 12],
        vec![0, 5, 10, 15, 1, 6, 11],
        vec![2, 3, 6, 7, 8, 12],
    ];
    let mut tgen_total = 0.0;
    let mut greedy_total = 0.0;
    for restaurants in placements {
        let (network, collection) = grid_world(4, 100.0, &restaurants);
        let engine = LcmsrEngine::new(&network, &collection);
        let query = LcmsrQuery::new(["restaurant"], 350.0, whole(&network)).unwrap();
        let exact = run1(&engine, &query, &Algorithm::Exact)
            .unwrap()
            .best()
            .cloned()
            .unwrap();
        let tgen = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 0.5 }))
            .unwrap()
            .best()
            .cloned()
            .unwrap();
        let greedy = run1(&engine, &query, &Algorithm::Greedy(GreedyParams::default()))
            .unwrap()
            .best()
            .cloned()
            .unwrap();
        // Nothing may exceed the optimum.
        assert!(tgen.weight <= exact.weight + 1e-9);
        assert!(greedy.weight <= exact.weight + 1e-9);
        tgen_total += tgen.weight;
        greedy_total += greedy.weight;
    }
    assert!(
        tgen_total + 1e-9 >= greedy_total,
        "TGEN total {tgen_total} must be at least Greedy total {greedy_total}"
    );
}

#[test]
fn tgen_with_fine_scaling_matches_exact_on_tiny_instances() {
    let (network, collection) = grid_world(3, 100.0, &[0, 1, 3, 4, 8]);
    let engine = LcmsrEngine::new(&network, &collection);
    for delta in [100.0, 200.0, 300.0, 450.0] {
        let query = LcmsrQuery::new(["restaurant"], delta, whole(&network)).unwrap();
        let exact = run1(&engine, &query, &Algorithm::Exact)
            .unwrap()
            .best()
            .cloned()
            .unwrap();
        let tgen = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 0.1 }))
            .unwrap()
            .best()
            .cloned()
            .unwrap();
        assert!(
            (tgen.weight - exact.weight).abs() < 1e-6,
            "∆={delta}: TGEN {} vs exact {}",
            tgen.weight,
            exact.weight
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random placements on a 4×4 grid: all algorithms stay feasible, none
    /// exceeds the exact optimum, and APP honours its approximation bound.
    #[test]
    fn randomized_instances_respect_bounds(
        restaurants in collection::btree_set(0usize..16, 2..9),
        delta_blocks in 1usize..6,
    ) {
        let restaurants: Vec<usize> = restaurants.into_iter().collect();
        let (network, collection) = grid_world(4, 100.0, &restaurants);
        let engine = LcmsrEngine::new(&network, &collection);
        let delta = delta_blocks as f64 * 100.0;
        let query = LcmsrQuery::new(["restaurant"], delta, whole(&network)).unwrap();
        let exact = run1(&engine, &query, &Algorithm::Exact).unwrap().best().cloned().unwrap();
        let params = AppParams::default();
        let bound = (1.0 - params.alpha) / (5.0 + 5.0 * params.beta);

        let app = run1(&engine, &query, &Algorithm::App(params)).unwrap().best().cloned().unwrap();
        prop_assert!(app.length <= delta + 1e-6);
        prop_assert!(app.weight <= exact.weight + 1e-9);
        prop_assert!(app.weight >= bound * exact.weight - 1e-9);

        let tgen = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 0.5 }))
            .unwrap()
            .best().cloned()
            .unwrap();
        prop_assert!(tgen.length <= delta + 1e-6);
        prop_assert!(tgen.weight <= exact.weight + 1e-9);

        let greedy = run1(&engine, &query, &Algorithm::Greedy(GreedyParams::default()))
            .unwrap()
            .best().cloned()
            .unwrap();
        prop_assert!(greedy.length <= delta + 1e-6);
        prop_assert!(greedy.weight <= exact.weight + 1e-9);
    }
}
