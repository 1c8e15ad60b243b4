//! Cross-algorithm invariant property tests on small random instances.
//!
//! On instances small enough for the exact solver to enumerate, the
//! guaranteed relations between the algorithms must hold for every random
//! object placement and budget:
//!
//! * **Exact dominates every heuristic** in collected weight (it enumerates
//!   all feasible connected regions): `Exact ≥ APP`, `Exact ≥ TGEN`,
//!   `Exact ≥ Greedy`.  (No pairwise order among the heuristics themselves
//!   is a theorem — APP's (5+ε) guarantee does not place it above Greedy on
//!   a given instance — so none is asserted.)
//! * **Top-k lists are sorted and duplicate-free**: ranked by the shared
//!   quality order (scaled weight desc, weight desc, length asc) with
//!   pairwise-distinct node sets — strictness comes from distinctness: two
//!   entries may tie on measures, never on identity.
//! * **Budget feasibility**: every region any algorithm returns — single or
//!   top-k — satisfies `length ≤ Q.∆ + ε`.
//!
//! On the golden tiny-NY workload, APP's `kmst_calls` counts exactly the
//! k-MST oracle probes of its quota search.

use lcmsr::core::app::run_app;
use lcmsr::core::engine::{Algorithm, LcmsrEngine};
use lcmsr::core::topk::topk_app;
use lcmsr::core::{
    AppParams, CancelToken, GreedyParams, LcmsrQuery, TgenParams, TraceCollector, TupleArena,
};
use lcmsr::datagen::prelude::NetworkScale;
use lcmsr::geotext::{GeoTextObject, ObjectCollection};
use lcmsr::roadnet::{GraphBuilder, NodeId, Point, RoadNetwork};
use lcmsr_bench::{golden_workload, ny_dataset};
use proptest::prelude::*;

mod common;
use common::*;

/// A `side × side` grid network (100 m blocks) hosting a restaurant at each
/// node of `restaurants` and a cafe at each node of `cafes` (both indices
/// into the row-major grid), so node weights vary across the instance.
fn grid_world(
    side: usize,
    restaurants: &[usize],
    cafes: &[usize],
) -> (RoadNetwork, ObjectCollection) {
    let spacing = 100.0;
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
    let mut objects = Vec::new();
    let mut oid = 0u64;
    for &node in restaurants {
        let p = network.point(NodeId((node % (side * side)) as u32));
        objects.push(GeoTextObject::from_keywords(
            oid,
            Point::new(p.x + 1.0, p.y + 1.0),
            ["restaurant"],
        ));
        oid += 1;
    }
    for &node in cafes {
        let p = network.point(NodeId((node % (side * side)) as u32));
        objects.push(GeoTextObject::from_keywords(
            oid,
            Point::new(p.x + 2.0, p.y + 2.0),
            ["cafe"],
        ));
        oid += 1;
    }
    let collection = ObjectCollection::build(&network, objects, 50.0).unwrap();
    (network, collection)
}

fn heuristics() -> [Algorithm; 3] {
    [
        Algorithm::Tgen(TgenParams { alpha: 0.5 }),
        Algorithm::App(AppParams::default()),
        Algorithm::Greedy(GreedyParams::default()),
    ]
}

/// Shared quality order on result regions (scaled weight desc, weight desc,
/// length asc) — the engine-facing mirror of `RegionTuple::cmp_quality`.
fn ranks_not_worse(a: &lcmsr::core::region::Region, b: &lcmsr::core::region::Region) -> bool {
    match a.scaled_weight.cmp(&b.scaled_weight) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => match a.weight.partial_cmp(&b.weight).unwrap() {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => a.length <= b.length + 1e-12,
        },
    }
}

/// `kmst_calls` — perfbench's `app.kmst_calls` and the wire's
/// `stats.kmst_calls` — is one oracle probe per binary-search step plus one
/// per step that also probed `(1+β)·X`.  Top-k runs the same search, so it
/// reports the same count.
#[test]
fn kmst_calls_count_exactly_the_oracle_probes() {
    let dataset = ny_dataset(NetworkScale::Tiny);
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    let params = AppParams::default();
    let none = CancelToken::none();
    let mut total = 0;
    for query in golden_workload(&dataset) {
        let graph = engine.prepare(&query, params.alpha).unwrap();
        let mut arena = TupleArena::new();
        let single = run_app(
            &graph,
            &mut arena,
            &params,
            &none,
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let beta_probes = single.trace.iter().filter(|s| s.x_beta > 0).count();
        assert_eq!(
            single.kmst_calls,
            (single.trace.len() + beta_probes) as u64,
            "{query:?}"
        );
        let top3 = topk_app(
            &graph,
            &mut arena,
            &params,
            3,
            &none,
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        assert_eq!(top3.kmst_calls, single.kmst_calls, "{query:?}");
        total += single.kmst_calls;
    }
    assert!(total > 0, "the workload must probe the oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random 4×4 instances with mixed restaurant/cafe placements: the exact
    /// optimum is an upper bound for every heuristic, every returned region
    /// is feasible, and top-k lists are sorted with distinct node sets.
    #[test]
    fn exact_bounds_heuristics_and_topk_lists_are_sound(
        restaurants in collection::btree_set(0usize..16, 1..8),
        cafes in collection::btree_set(0usize..16, 1..6),
        delta_blocks in 1usize..8,
    ) {
        let restaurants: Vec<usize> = restaurants.into_iter().collect();
        let cafes: Vec<usize> = cafes.into_iter().collect();
        let (network, collection) = grid_world(4, &restaurants, &cafes);
        let engine = LcmsrEngine::new(&network, &collection);
        let delta = delta_blocks as f64 * 100.0;
        let roi = network.bounding_rect().unwrap().expanded(10.0);
        let query = LcmsrQuery::new(["restaurant", "cafe"], delta, roi).unwrap();

        let exact = run1(&engine, &query, &Algorithm::Exact)
            .expect("16 nodes is within the exact solver's limit")
            .best().cloned()
            .expect("relevant objects exist");
        prop_assert!(exact.length <= delta + 1e-9, "Exact must respect Q.∆");

        for algorithm in heuristics() {
            let result = run1(&engine, &query, &algorithm).unwrap();
            let region = result
                .best()
                .unwrap_or_else(|| panic!("{} found no region", algorithm.name()));
            // Budget feasibility for the single result.
            prop_assert!(
                region.length <= delta + 1e-9,
                "{}: length {} exceeds ∆ {delta}",
                algorithm.name(),
                region.length
            );
            // The exact optimum bounds every heuristic's collected weight.
            prop_assert!(
                region.weight <= exact.weight + 1e-9,
                "{} collected {} > exact optimum {}",
                algorithm.name(),
                region.weight,
                exact.weight
            );
        }

        // Top-k soundness for all four algorithms.
        for algorithm in [
            Algorithm::Exact,
            Algorithm::Tgen(TgenParams { alpha: 0.5 }),
            Algorithm::App(AppParams::default()),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            let topk = runk(&engine, &query, &algorithm, 4).unwrap();
            for r in &topk.regions {
                prop_assert!(
                    r.length <= delta + 1e-9,
                    "{} top-k region infeasible",
                    algorithm.name()
                );
                prop_assert!(!r.nodes.is_empty());
            }
            for w in topk.regions.windows(2) {
                prop_assert!(
                    ranks_not_worse(&w[0], &w[1]),
                    "{} top-k out of order: ({}, {}, {}) before ({}, {}, {})",
                    algorithm.name(),
                    w[0].scaled_weight, w[0].weight, w[0].length,
                    w[1].scaled_weight, w[1].weight, w[1].length
                );
            }
            for i in 0..topk.regions.len() {
                for j in (i + 1)..topk.regions.len() {
                    prop_assert!(
                        topk.regions[i].nodes != topk.regions[j].nodes,
                        "{} top-k returned a duplicate node set",
                        algorithm.name()
                    );
                }
            }
            // The top-k head never beats the exact single optimum.
            if let Some(head) = topk.regions.first() {
                prop_assert!(head.weight <= exact.weight + 1e-9);
            }
        }
    }

    /// The exact top-1 equals the exact single answer, and the heuristics'
    /// top-1 matches their own single answer — the shared-quality-order
    /// contract that makes a top-1 request a drop-in for a single-region one.
    #[test]
    fn top1_agrees_with_the_single_answer(
        restaurants in collection::btree_set(0usize..16, 2..8),
        delta_blocks in 1usize..6,
    ) {
        let restaurants: Vec<usize> = restaurants.into_iter().collect();
        let (network, collection) = grid_world(4, &restaurants, &[]);
        let engine = LcmsrEngine::new(&network, &collection);
        let delta = delta_blocks as f64 * 100.0;
        let roi = network.bounding_rect().unwrap().expanded(10.0);
        let query = LcmsrQuery::new(["restaurant"], delta, roi).unwrap();
        for algorithm in [
            Algorithm::Exact,
            Algorithm::Tgen(TgenParams { alpha: 0.5 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            let single = run1(&engine, &query, &algorithm).unwrap().best().cloned();
            let top1 = runk(&engine, &query, &algorithm, 1).unwrap().regions;
            match (&single, top1.first()) {
                (Some(s), Some(t)) => prop_assert_eq!(s, t, "{} top-1 ≠ single", algorithm.name()),
                (None, None) => {}
                (s, t) => panic!("{}: single {s:?} vs top1 {t:?}", algorithm.name()),
            }
        }
    }
}
