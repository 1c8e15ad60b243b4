//! End-to-end integration tests: synthetic dataset → index → query workload →
//! all three LCMSR algorithms, checking the invariants the paper's evaluation
//! relies on (feasibility, accuracy ordering, runtime sanity).

use lcmsr::prelude::*;

mod common;
use common::*;

fn dataset() -> Dataset {
    Dataset::build(DatasetConfig::tiny(17))
}

fn workload(dataset: &Dataset, n: usize, keywords: usize, seed: u64) -> Vec<LcmsrQuery> {
    let mut params = dataset.default_query_params(seed);
    params.num_queries = n;
    params.num_keywords = keywords;
    dataset
        .queries(&params)
        .into_iter()
        .map(|q| LcmsrQuery::new(q.keywords, q.delta, q.rect).unwrap())
        .collect()
}

#[test]
fn every_algorithm_returns_feasible_connected_regions() {
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let queries = workload(&dataset, 6, 3, 5);
    assert!(!queries.is_empty());
    let algorithms = vec![
        Algorithm::App(AppParams::default()),
        Algorithm::Tgen(TgenParams { alpha: 5.0 }),
        Algorithm::Greedy(GreedyParams::default()),
    ];
    for query in &queries {
        let view = RegionView::new(&dataset.network, query.region_of_interest);
        for algorithm in &algorithms {
            let result = run1(&engine, query, algorithm).expect("query must run");
            let Some(region) = result.best() else {
                continue; // a workload query may have sparse areas for some keywords
            };
            // Length constraint.
            assert!(
                region.length <= query.delta + 1e-6,
                "{} violated ∆: {} > {}",
                algorithm.name(),
                region.length,
                query.delta
            );
            // All nodes inside Q.Λ.
            for &node in &region.nodes {
                assert!(
                    query
                        .region_of_interest
                        .contains(&dataset.network.point(node)),
                    "{} returned a node outside Q.Λ",
                    algorithm.name()
                );
            }
            // Connectivity via the returned edges.
            assert!(
                view.is_connected_region(&region.nodes, &region.edges),
                "{} returned a disconnected region",
                algorithm.name()
            );
            // Region weight equals the sum of its nodes' query weights.
            let weights = dataset
                .collection
                .node_weights_for_keywords(&query.keywords, &query.region_of_interest);
            let recomputed: f64 = region.nodes.iter().map(|&n| weights.weight(n)).sum();
            assert!(
                (recomputed - region.weight).abs() < 1e-6,
                "{} weight mismatch: {} vs {}",
                algorithm.name(),
                region.weight,
                recomputed
            );
        }
    }
}

#[test]
fn accuracy_ordering_matches_the_paper() {
    // Paper §7.2.2: TGEN has the best accuracy, APP stays above ~90 % of TGEN,
    // Greedy is clearly worse on average.  We check the averages over a small
    // workload (individual queries may deviate).
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let queries = workload(&dataset, 8, 3, 29);
    let mut sums = [0.0f64; 3];
    let mut counted = 0usize;
    for query in &queries {
        let tgen = run1(&engine, query, &Algorithm::Tgen(TgenParams { alpha: 5.0 }))
            .unwrap()
            .best()
            .cloned()
            .map_or(0.0, |r| r.weight);
        if tgen <= 0.0 {
            continue;
        }
        let app = run1(&engine, query, &Algorithm::App(AppParams::default()))
            .unwrap()
            .best()
            .cloned()
            .map_or(0.0, |r| r.weight);
        let greedy = run1(&engine, query, &Algorithm::Greedy(GreedyParams::default()))
            .unwrap()
            .best()
            .cloned()
            .map_or(0.0, |r| r.weight);
        sums[0] += tgen;
        sums[1] += app;
        sums[2] += greedy;
        counted += 1;
    }
    assert!(counted >= 4, "workload produced too few answerable queries");
    let [tgen_avg, app_avg, greedy_avg] = sums.map(|s| s / counted as f64);
    assert!(
        app_avg >= 0.6 * tgen_avg,
        "APP avg {app_avg} vs TGEN {tgen_avg}"
    );
    assert!(
        greedy_avg <= tgen_avg + 1e-9,
        "Greedy avg {greedy_avg} should not beat TGEN {tgen_avg}"
    );
}

#[test]
fn growing_delta_never_hurts_the_result() {
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let roi = dataset.network.bounding_rect().unwrap();
    let mut previous = 0.0;
    for delta in [300.0, 600.0, 1_200.0, 2_400.0] {
        let query = LcmsrQuery::new(["restaurant"], delta, roi).unwrap();
        let weight = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 5.0 }))
            .unwrap()
            .best()
            .cloned()
            .map_or(0.0, |r| r.weight);
        assert!(
            weight + 1e-9 >= previous,
            "weight decreased from {previous} to {weight} when ∆ grew to {delta}"
        );
        previous = weight;
    }
    assert!(previous > 0.0);
}

#[test]
fn growing_the_region_of_interest_never_hurts() {
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let full = dataset.network.bounding_rect().unwrap();
    let center = full.center();
    let mut previous = 0.0;
    for side in [800.0, 1_600.0, 3_200.0, full.width().max(full.height())] {
        let roi = Rect::centered_square(center, side);
        let query = LcmsrQuery::new(["cafe", "coffee"], 900.0, roi).unwrap();
        let weight = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 5.0 }))
            .unwrap()
            .best()
            .cloned()
            .map_or(0.0, |r| r.weight);
        assert!(
            weight + 1e-9 >= previous,
            "weight decreased from {previous} to {weight} when Λ grew to {side} m"
        );
        previous = weight;
    }
}

#[test]
fn statistics_reflect_the_work_done() {
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let roi = dataset.network.bounding_rect().unwrap();
    let query = LcmsrQuery::new(["restaurant", "pizza"], 1_000.0, roi).unwrap();

    let app = run1(&engine, &query, &Algorithm::App(AppParams::default())).unwrap();
    assert_eq!(app.stats.algorithm, "APP");
    assert!(app.stats.nodes_in_region > 0);
    assert!(app.stats.kmst_calls > 0, "APP must call the k-MST oracle");

    let tgen = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 5.0 })).unwrap();
    assert!(tgen.stats.tuples_generated > 0, "TGEN must generate tuples");

    let greedy = run1(&engine, &query, &Algorithm::Greedy(GreedyParams::default())).unwrap();
    assert!(
        greedy.stats.greedy_steps > 0,
        "Greedy must expand at least once"
    );
    // The paper's headline efficiency ordering: Greedy is the fastest by far.
    assert!(greedy.stats.elapsed <= app.stats.elapsed * 4);
}

#[test]
fn usanw_like_dataset_also_answers_queries() {
    let dataset = Dataset::build(DatasetConfig::usanw(NetworkScale::Tiny, 9));
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let mut params = dataset.default_query_params(31);
    params.num_queries = 4;
    let queries = dataset.queries(&params);
    let mut answered = 0;
    for q in queries {
        let query = LcmsrQuery::new(q.keywords, q.delta, q.rect).unwrap();
        let result = run1(&engine, &query, &Algorithm::Tgen(TgenParams { alpha: 5.0 })).unwrap();
        if let Some(region) = result.best() {
            assert!(region.length <= query.delta + 1e-6);
            answered += 1;
        }
    }
    assert!(answered > 0, "no USANW-like query produced a region");
}
