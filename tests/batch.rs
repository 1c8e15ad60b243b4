//! Concurrent execution tests: `execute` called from scoped threads on one
//! engine, sharing its workspace pool, must match a sequential loop of
//! `execute` calls — same regions, same weights, same lengths, in input
//! order — no matter how many threads run the batch, and the prepare/solve
//! split of `RunStats` must be consistent.

use lcmsr::core::engine::{Algorithm, LcmsrEngine};
use lcmsr::core::{AppParams, GreedyParams, LcmsrQuery, TgenParams};
use lcmsr::geotext::{GeoTextObject, ObjectCollection};
use lcmsr::prelude::{Dataset, DatasetConfig};
use lcmsr::roadnet::{GraphBuilder, NodeId, Point, Rect, RoadNetwork};
use proptest::prelude::*;

mod common;
use common::*;

/// Builds a `side × side` grid road network with `spacing`-metre blocks and a
/// restaurant at each listed node (index into the row-major grid).
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
            GeoTextObject::from_keywords(i as u64, Point::new(p.x + 1.0, p.y + 1.0), ["restaurant"])
        })
        .collect();
    let collection = ObjectCollection::build(&network, objects, spacing.max(50.0)).unwrap();
    (network, collection)
}

fn whole(network: &RoadNetwork) -> Rect {
    network.bounding_rect().unwrap().expanded(10.0)
}

/// Compares batched results against sequential `execute` calls, demanding exact
/// equality of the regions (node sets, edge sets, bitwise weights and
/// lengths).  The batch is executed `rounds` times on the same engine, so the
/// engine's workspace pool hands the same recycled workspaces (arenas,
/// builders, epoch maps) to consecutive batches — every round must still be
/// bit-identical.
fn assert_batches_match_sequential(
    engine: &LcmsrEngine<'_>,
    queries: &[LcmsrQuery],
    algorithm: &Algorithm,
    workers: usize,
    rounds: usize,
) {
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| run1(engine, q, algorithm).expect("sequential run").regions)
        .collect();
    for round in 0..rounds {
        let batched = batch1_with(engine, queries, algorithm, workers).expect("batch must succeed");
        assert_eq!(batched.len(), queries.len());
        for (i, (expect, batch_result)) in sequential.iter().zip(&batched).enumerate() {
            assert_eq!(
                expect,
                &batch_result.regions,
                "{} query {i} diverged under {workers} workers in round {round}",
                algorithm.name()
            );
        }
    }
}

fn assert_batch_matches_sequential(
    engine: &LcmsrEngine<'_>,
    queries: &[LcmsrQuery],
    algorithm: &Algorithm,
    workers: usize,
) {
    assert_batches_match_sequential(engine, queries, algorithm, workers, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Determinism under concurrency: random instances and random ∆s produce
    /// identical regions whether run sequentially or batched over 4 workers.
    #[test]
    fn batch_results_are_identical_to_sequential_runs(
        restaurants in collection::btree_set(0usize..25, 2..10),
        delta_blocks in 1usize..7,
    ) {
        let restaurants: Vec<usize> = restaurants.into_iter().collect();
        let (network, collection) = grid_world(5, 100.0, &restaurants);
        let engine = LcmsrEngine::new(&network, &collection);
        let delta = delta_blocks as f64 * 100.0;
        let roi = whole(&network);
        let sw = Rect::new(-10.0, -10.0, 210.0, 210.0);
        let queries: Vec<LcmsrQuery> = vec![
            LcmsrQuery::new(["restaurant"], delta, roi).unwrap(),
            LcmsrQuery::new(["restaurant"], delta * 0.5, roi).unwrap(),
            LcmsrQuery::new(["restaurant"], delta, sw).unwrap(),
            LcmsrQuery::new(["bakery"], delta, roi).unwrap(),
            LcmsrQuery::new(["restaurant", "bakery"], delta * 1.5, roi).unwrap(),
            LcmsrQuery::new(["restaurant"], delta * 2.0, sw).unwrap(),
        ];
        // Three consecutive batches on one engine: the workspace pool recycles
        // the workers' arenas and builders across batches, and every round
        // must stay bit-identical to the sequential reference.
        for algorithm in [
            Algorithm::App(AppParams::default()),
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            assert_batches_match_sequential(&engine, &queries, &algorithm, 4, 3);
        }
    }
}

#[test]
fn large_batch_on_the_synthetic_dataset_matches_sequential() {
    let dataset = Dataset::build(DatasetConfig::tiny(23));
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let mut params = dataset.default_query_params(11);
    params.num_queries = 40;
    params.num_keywords = 2;
    let queries: Vec<LcmsrQuery> = dataset
        .queries(&params)
        .into_iter()
        .map(|q| LcmsrQuery::new(q.keywords, q.delta, q.rect).unwrap())
        .collect();
    assert!(
        queries.len() >= 32,
        "need a real batch, got {}",
        queries.len()
    );
    for algorithm in [
        Algorithm::Tgen(TgenParams { alpha: 5.0 }),
        Algorithm::Greedy(GreedyParams::default()),
    ] {
        for workers in [1, 3, 4, 8] {
            assert_batch_matches_sequential(&engine, &queries, &algorithm, workers);
        }
    }
}

#[test]
fn topk_batches_match_sequential_topk() {
    let (network, collection) = grid_world(5, 100.0, &[0, 1, 2, 7, 12, 18, 24]);
    let engine = LcmsrEngine::new(&network, &collection);
    let roi = whole(&network);
    let queries: Vec<LcmsrQuery> = (1..=8)
        .map(|i| LcmsrQuery::new(["restaurant"], i as f64 * 75.0, roi).unwrap())
        .collect();
    for algorithm in [
        Algorithm::App(AppParams::default()),
        Algorithm::Tgen(TgenParams { alpha: 1.0 }),
        Algorithm::Greedy(GreedyParams::default()),
    ] {
        let batched = batchk_with(&engine, &queries, &algorithm, 3, 4).unwrap();
        for (query, batch_result) in queries.iter().zip(&batched) {
            let sequential = runk(&engine, query, &algorithm, 3).unwrap();
            assert_eq!(
                sequential.regions,
                batch_result.regions,
                "{}",
                algorithm.name()
            );
        }
    }
}

#[test]
fn batch_stats_split_prepare_and_solve_consistently() {
    let (network, collection) = grid_world(5, 100.0, &[0, 1, 5, 6, 12, 17, 23]);
    let engine = LcmsrEngine::new(&network, &collection);
    let roi = whole(&network);
    let queries: Vec<LcmsrQuery> = (1..=32)
        .map(|i| LcmsrQuery::new(["restaurant"], 100.0 + (i % 6) as f64 * 80.0, roi).unwrap())
        .collect();
    let results = batch1_with(
        &engine,
        &queries,
        &Algorithm::Tgen(TgenParams { alpha: 1.0 }),
        4,
    )
    .unwrap();
    for result in &results {
        let s = &result.stats;
        assert!(
            s.prepare_time + s.solve_time <= s.elapsed,
            "prepare {:?} + solve {:?} must not exceed elapsed {:?}",
            s.prepare_time,
            s.solve_time,
            s.elapsed
        );
        assert_eq!(
            s.queue_time,
            std::time::Duration::ZERO,
            "direct batch paths never queue"
        );
        assert_eq!(s.algorithm, "TGEN");
        assert!(s.nodes_in_region > 0);
    }
    // The one-shot paths report zero queue wait too — only a serving
    // front-end's scheduler fills queue_time in.
    let single = run1(
        &engine,
        &queries[0],
        &Algorithm::Tgen(TgenParams { alpha: 1.0 }),
    )
    .unwrap();
    assert_eq!(single.stats.queue_time, std::time::Duration::ZERO);
    assert!(single.stats.prepare_time + single.stats.solve_time <= single.stats.elapsed);
    let topk = runk(
        &engine,
        &queries[0],
        &Algorithm::Tgen(TgenParams { alpha: 1.0 }),
        2,
    )
    .unwrap();
    assert_eq!(topk.stats.queue_time, std::time::Duration::ZERO);
    assert!(topk.stats.prepare_time + topk.stats.solve_time <= topk.stats.elapsed);
}
