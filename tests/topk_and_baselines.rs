//! Integration tests for the top-k extension (Section 6.2) and the MaxRS
//! comparison procedure (Section 7.5 / Figure 20).

use lcmsr::prelude::*;

mod common;
use common::*;

fn dataset() -> Dataset {
    Dataset::build(DatasetConfig::tiny(41))
}

#[test]
fn topk_regions_are_feasible_distinct_and_ordered() {
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let roi = dataset.network.bounding_rect().unwrap();
    let query = LcmsrQuery::new(["restaurant", "cafe"], 900.0, roi).unwrap();
    for algorithm in [
        Algorithm::App(AppParams::default()),
        Algorithm::Tgen(TgenParams { alpha: 5.0 }),
        Algorithm::Greedy(GreedyParams::default()),
    ] {
        for k in [1usize, 3, 5] {
            let result = runk(&engine, &query, &algorithm, k).unwrap();
            assert!(result.regions.len() <= k);
            for region in &result.regions {
                assert!(region.length <= 900.0 + 1e-6, "{}", algorithm.name());
                assert!(region.weight > 0.0);
            }
            for pair in result.regions.windows(2) {
                assert!(
                    pair[0].weight + 1e-9 >= pair[1].weight,
                    "{}: top-k not ordered",
                    algorithm.name()
                );
                assert_ne!(pair[0].nodes, pair[1].nodes, "{}", algorithm.name());
            }
        }
    }
}

#[test]
fn top1_matches_the_single_region_query_for_tgen() {
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let roi = dataset.network.bounding_rect().unwrap();
    let query = LcmsrQuery::new(["bakery", "dessert"], 700.0, roi).unwrap();
    let algorithm = Algorithm::Tgen(TgenParams { alpha: 5.0 });
    let single = run1(&engine, &query, &algorithm).unwrap().best().cloned();
    let top = runk(&engine, &query, &algorithm, 1).unwrap().regions;
    match (single, top.first()) {
        (Some(s), Some(t)) => {
            assert!((s.weight - t.weight).abs() < 1e-9);
            assert_eq!(s.nodes, t.nodes);
        }
        (None, None) => {}
        (s, t) => panic!(
            "single {:?} vs top-1 {:?} disagree",
            s.is_some(),
            t.is_some()
        ),
    }
}

#[test]
fn topk_runtime_grows_mildly_with_k() {
    // Figures 21–22 show all algorithms slowing only slightly as k grows; here
    // we only check that k = 5 is not catastrophically slower than k = 1.
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let roi = dataset.network.bounding_rect().unwrap();
    let query = LcmsrQuery::new(["restaurant"], 900.0, roi).unwrap();
    let algorithm = Algorithm::Tgen(TgenParams { alpha: 5.0 });
    let t1 = runk(&engine, &query, &algorithm, 1).unwrap().stats.elapsed;
    let t5 = runk(&engine, &query, &algorithm, 5).unwrap().stats.elapsed;
    assert!(
        t5 < t1 * 20 + std::time::Duration::from_millis(50),
        "top-5 ({t5:?}) is unreasonably slower than top-1 ({t1:?})"
    );
}

#[test]
fn maxrs_baseline_and_section_75_comparison() {
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let roi = dataset.network.bounding_rect().unwrap();
    // Use a common category so the rectangle has something to cover.
    let query = LcmsrQuery::new(["restaurant"], 1_000.0, roi).unwrap();
    let maxrs = engine
        .run_maxrs(&query, 500.0, 500.0)
        .unwrap()
        .expect("the tiny dataset has restaurants");
    assert!(!maxrs.objects.is_empty());
    assert!(maxrs.weight > 0.0);
    assert_eq!(maxrs.objects.len(), maxrs.result.covered.len());
    // Every covered object really is inside the 500 m × 500 m rectangle.
    for &obj in &maxrs.objects {
        let o = dataset.collection.object(obj).unwrap();
        assert!((o.point.x - maxrs.result.center.x).abs() <= 250.0 + 1e-6);
        assert!((o.point.y - maxrs.result.center.y).abs() <= 250.0 + 1e-6);
    }

    // The Section 7.5 procedure: use the MaxRS region's connecting length as the
    // LCMSR ∆ and compare the regions.
    if let Some(connecting) = maxrs.connecting_length {
        let delta = connecting.max(200.0);
        let lcmsr_query = LcmsrQuery::new(["restaurant"], delta, roi).unwrap();
        let lcmsr = run1(
            &engine,
            &lcmsr_query,
            &Algorithm::Tgen(TgenParams { alpha: 5.0 }),
        )
        .unwrap()
        .best()
        .cloned()
        .expect("LCMSR region exists when MaxRS found objects");
        // The LCMSR region is connected by construction and network-aware; its
        // weight should be competitive with the rectangle's content.
        assert!(lcmsr.weight >= 0.5 * maxrs.weight);
        let view = RegionView::new(&dataset.network, roi);
        assert!(view.is_connected_region(&lcmsr.nodes, &lcmsr.edges));
    }
}

#[test]
fn maxrs_with_unmatched_keywords_returns_none() {
    let dataset = dataset();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let roi = dataset.network.bounding_rect().unwrap();
    let query = LcmsrQuery::new(["zeppelin-hangar"], 1_000.0, roi).unwrap();
    assert!(engine.run_maxrs(&query, 500.0, 500.0).unwrap().is_none());
}
