//! Exploration-session integration tests: the response cache must be
//! invisible in the answers.  Whatever mix of cold runs, cache-mode misses
//! and cache hits a session produces, every step's regions are
//! bit-identical to a cacheless engine — and the cache's bookkeeping (LRU
//! eviction, epoch invalidation) only ever changes *when* the engine
//! recomputes, never *what* it answers.

use lcmsr::core::engine::{Algorithm, LcmsrEngine, QueryRequest, QueryWorkspace};
use lcmsr::core::{GreedyParams, LcmsrQuery, TgenParams};
use lcmsr::geotext::{GeoTextObject, ObjectCollection};
use lcmsr::roadnet::{GraphBuilder, NodeId, Point, Rect, RoadNetwork};
use proptest::prelude::*;

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

/// Bit-exact region fingerprint: Debug's shortest-roundtrip float rendering
/// distinguishes every bit pattern, `-0.0` included.
fn print_regions(outcome: &lcmsr::core::engine::QueryOutcome) -> String {
    format!("{:?}", outcome.regions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The cache's invariant, end to end: a random pan/zoom trace answered
    /// three ways — cold (cache off), in a cache-mode session (misses on one
    /// workspace), and replayed over the warm cache (hits) — produces three
    /// bit-identical answer streams.
    #[test]
    fn session_steps_replay_bit_identically(
        restaurants in collection::btree_set(0usize..36, 3..12),
        delta_blocks in 2usize..7,
        moves in collection::vec((0i8..3, 0i8..3, 1u8..4), 2..7),
    ) {
        let restaurants: Vec<usize> = restaurants.into_iter().collect();
        let (network, collection) = grid_world(6, 100.0, &restaurants);
        let engine = LcmsrEngine::new(&network, &collection);
        let delta = delta_blocks as f64 * 100.0;

        // A viewport walk over the grid: each move pans by a fraction of the
        // view and/or rescales it, so successive rects overlap by varying
        // amounts.
        let mut rect = Rect::new(-10.0, -10.0, 330.0, 330.0);
        let mut queries = vec![LcmsrQuery::new(["restaurant"], delta, rect).unwrap()];
        for &(dx, dy, scale) in &moves {
            let (w, h) = (rect.width(), rect.height());
            let f = 0.2;
            let shifted = Rect::new(
                rect.min_x + f64::from(dx - 1) * f * w,
                rect.min_y + f64::from(dy - 1) * f * h,
                rect.max_x + f64::from(dx - 1) * f * w,
                rect.max_y + f64::from(dy - 1) * f * h,
            );
            let factor = 0.5 + f64::from(scale) * 0.25; // 0.75 / 1.0 / 1.25
            rect = Rect::centered(shifted.center(), shifted.width() * factor, shifted.height() * factor);
            // The walk stays over the populated grid: clamp the center back
            // when a step would leave every restaurant behind.
            if rect.max_x < 0.0 || rect.min_x > 520.0 || rect.max_y < 0.0 || rect.min_y > 520.0 {
                rect = Rect::centered(Point::new(260.0, 260.0), rect.width(), rect.height());
            }
            queries.push(LcmsrQuery::new(["restaurant"], delta, rect).unwrap());
        }

        for algorithm in [
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::Greedy(GreedyParams::default()),
        ] {
            engine.response_cache().clear();
            // Cold reference: cache off, pooled workspaces.
            let mut cold = Vec::new();
            for q in &queries {
                let outcome = engine
                    .execute(&QueryRequest::new(q, algorithm.clone()))
                    .expect("cold step");
                prop_assert!(!outcome.stats.cache);
                cold.push(print_regions(&outcome));
            }
            // Session pass: one workspace, cache on — mostly misses; a walk
            // that revisits a viewport exactly hits, which is the point.
            let mut ws = QueryWorkspace::new();
            for (q, expect) in queries.iter().zip(&cold) {
                let outcome = engine
                    .execute_with(&mut ws, &QueryRequest::new(q, algorithm.clone()).cache(true))
                    .expect("session step");
                prop_assert!(outcome.stats.cache);
                prop_assert_eq!(&print_regions(&outcome), expect);
            }
            // Replay pass: the whole trace again — every step a cache hit,
            // still bit-identical.
            for (q, expect) in queries.iter().zip(&cold) {
                let outcome = engine
                    .execute_with(&mut ws, &QueryRequest::new(q, algorithm.clone()).cache(true))
                    .expect("replay step");
                prop_assert!(outcome.stats.cache_hit, "replay must hit: {:?}", outcome.stats);
                prop_assert_eq!(&print_regions(&outcome), expect);
            }
        }
    }
}

#[test]
fn eviction_keeps_the_cache_bounded_and_lru() {
    let (network, collection) = grid_world(5, 100.0, &[0, 3, 7, 12, 18, 24]);
    let engine = LcmsrEngine::new(&network, &collection).with_cache_limits(2, usize::MAX);
    let roi = network.bounding_rect().unwrap().expanded(10.0);
    let algorithm = Algorithm::Tgen(TgenParams { alpha: 1.0 });
    let q = |delta: f64| LcmsrQuery::new(["restaurant"], delta, roi).unwrap();
    let run = |query: &LcmsrQuery| {
        engine
            .execute(&QueryRequest::new(query, algorithm.clone()).cache(true))
            .expect("cached run")
            .stats
    };
    let (q1, q2, q3) = (q(150.0), (q(250.0)), q(350.0));
    assert!(!run(&q1).cache_hit);
    assert!(!run(&q2).cache_hit);
    assert!(run(&q1).cache_hit, "both entries fit");
    // q1 is now the most recently used; inserting q3 must evict q2.
    assert!(!run(&q3).cache_hit);
    assert_eq!(engine.response_cache().len(), 2, "capacity is a hard bound");
    assert!(run(&q1).cache_hit, "recently used entry survives eviction");
    assert!(!run(&q2).cache_hit, "least recently used entry was evicted");
}

#[test]
fn epoch_bump_invalidates_cached_responses_and_sessions() {
    let (network, collection) = grid_world(5, 100.0, &[1, 6, 8, 13, 17, 22]);
    let engine = LcmsrEngine::new(&network, &collection);
    let algorithm = Algorithm::Greedy(GreedyParams::default());
    let rect_a = Rect::new(-10.0, -10.0, 310.0, 310.0);
    let rect_b = Rect::new(40.0, -10.0, 360.0, 310.0); // A panned east
    let qa = LcmsrQuery::new(["restaurant"], 300.0, rect_a).unwrap();
    let qb = LcmsrQuery::new(["restaurant"], 300.0, rect_b).unwrap();
    let mut ws = QueryWorkspace::new();
    let run = |query: &LcmsrQuery, ws: &mut QueryWorkspace| {
        engine
            .execute_with(ws, &QueryRequest::new(query, algorithm.clone()).cache(true))
            .expect("cached run")
    };

    // Warm up: A and B miss, A replays as a hit.
    let cold_a = print_regions(&run(&qa, &mut ws));
    let cold_b = print_regions(&run(&qb, &mut ws));
    let hit_a = run(&qa, &mut ws);
    assert!(hit_a.stats.cache_hit);

    // Declare the dataset changed: every cached response is now stale.
    engine.bump_dataset_epoch();
    let stale_a = run(&qa, &mut ws);
    assert!(
        stale_a.stats.cache_stale && !stale_a.stats.cache_hit,
        "a stale entry must be recomputed, not replayed: {:?}",
        stale_a.stats
    );
    assert_eq!(
        print_regions(&stale_a),
        cold_a,
        "same dataset bits, so the recomputed answer still matches"
    );
    // The recompute re-primed the cache at the new epoch.
    assert!(run(&qa, &mut ws).stats.cache_hit);
    let stale_b = run(&qb, &mut ws);
    assert!(stale_b.stats.cache_stale, "{:?}", stale_b.stats);
    assert_eq!(print_regions(&stale_b), cold_b);
    // One stale lookup per pre-bump entry: A's and B's (the recomputes
    // above).
    assert_eq!(engine.response_cache().stale(), 2);
}
