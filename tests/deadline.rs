//! Deadline-aware anytime execution (PR 6): the unified `QueryRequest` API
//! must honour deadlines without ever *changing* a result it had time to
//! compute.
//!
//! Three contracts pin the design:
//!
//! * **No-perturbation** — a deadline generous enough that the run finishes
//!   before it fires produces a bit-identical result to a no-deadline run
//!   (the inert-token property, checked property-style across random
//!   instances and all four algorithms),
//! * **Anytime** — a deadline the solver cannot meet still yields a *usable*
//!   answer: `partial: true`, the cause attributed, and any returned region
//!   feasible (within budget, inside the query rectangle),
//! * **Promptness** — a deadlined run returns within the deadline plus a
//!   small slack (the cooperative poll points are dense enough to matter).

use lcmsr::core::engine::{Algorithm, LcmsrEngine, QueryRequest};
use lcmsr::core::prelude::PartialCause;
use lcmsr::core::{AppParams, Deadline, GreedyParams, LcmsrQuery, TgenParams};
use lcmsr::geotext::{GeoTextObject, ObjectCollection};
use lcmsr::roadnet::{GraphBuilder, NodeId, Point, Rect, RoadNetwork};
use proptest::prelude::*;
use std::time::{Duration, Instant};

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

/// Exhaustive bitwise equality between two optional regions.
fn assert_identical(
    a: Option<&lcmsr::core::Region>,
    b: Option<&lcmsr::core::Region>,
    context: &str,
) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.nodes, y.nodes, "{context}: node sets differ");
            assert_eq!(x.edges, y.edges, "{context}: edge sets differ");
            assert_eq!(
                x.weight.to_bits(),
                y.weight.to_bits(),
                "{context}: weights differ"
            );
            assert_eq!(
                x.length.to_bits(),
                y.length.to_bits(),
                "{context}: lengths differ"
            );
        }
        _ => panic!("{context}: one run found a region, the other did not"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Inert-token property: a run that finishes before its deadline fires is
    /// bit-identical to a run with no deadline at all — polling a disarmed
    /// (or armed-but-unfired) token must not perturb any tie-break, ordering,
    /// or accumulation anywhere in the solve phase.
    #[test]
    fn runs_finishing_before_the_deadline_are_bit_identical(
        restaurants in collection::btree_set(0usize..16, 2..10),
        delta_blocks in 1usize..6,
    ) {
        // A 4×4 grid keeps the instance inside Exact's 20-node limit while
        // still exercising every algorithm's full solve phase.
        let restaurants: Vec<usize> = restaurants.into_iter().collect();
        let (network, collection) = grid_world(4, 100.0, &restaurants);
        let engine = LcmsrEngine::new(&network, &collection);
        let delta = delta_blocks as f64 * 100.0;
        let query = LcmsrQuery::new(["restaurant"], delta, whole(&network)).unwrap();
        for algorithm in [
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::App(AppParams::default()),
            Algorithm::Greedy(GreedyParams::default()),
            Algorithm::Exact,
        ] {
            let free = engine
                .execute(&QueryRequest::new(&query, algorithm.clone()))
                .unwrap();
            // A one-hour deadline never fires inside a 16-node solve.
            let deadlined = engine
                .execute(
                    &QueryRequest::new(&query, algorithm.clone())
                        .deadline(Deadline::after(Duration::from_secs(3600))),
                )
                .unwrap();
            assert!(!free.stats.partial);
            assert!(
                !deadlined.stats.partial,
                "{}: a 1-hour deadline must not fire",
                algorithm.name()
            );
            assert_identical(free.best(), deadlined.best(), algorithm.name());
        }
    }
}

/// An already-expired deadline on the Exact enumeration returns the
/// best-so-far incumbent promptly: partial, attributed, feasible, and well
/// within the deadline + 25% promptness envelope (generous absolute slack
/// covers the prepare phase and scheduler noise on shared runners).
#[test]
fn tight_deadline_interrupts_exact_with_a_feasible_partial() {
    // 4×4 grid = 16 nodes, inside the Exact node limit but 2^16 masks deep.
    let all: Vec<usize> = (0..16).collect();
    let (network, collection) = grid_world(4, 100.0, &all);
    let engine = LcmsrEngine::new(&network, &collection);
    let query = LcmsrQuery::new(["restaurant"], 600.0, whole(&network)).unwrap();

    let started = Instant::now();
    let result = engine
        .execute(
            &QueryRequest::new(&query, Algorithm::Exact).deadline(Deadline::after(Duration::ZERO)),
        )
        .unwrap();
    let elapsed = started.elapsed();

    assert!(result.stats.partial, "an expired deadline must interrupt");
    assert_eq!(
        result.stats.partial_cause,
        Some(PartialCause::DeadlineExceeded)
    );
    assert_eq!(result.stats.deadline, Some(Duration::ZERO));
    // Promptness: the poll stride bounds the overshoot; allow wide absolute
    // slack so the test never flakes on loaded CI machines.
    assert!(
        elapsed < Duration::from_millis(250),
        "interrupted Exact took {elapsed:?}"
    );
    // Anytime: whatever came back must be feasible.
    if let Some(region) = result.best() {
        assert!(region.length <= 600.0 + 1e-9);
        assert!(!region.nodes.is_empty());
    }
    // The full run dominates (or matches) any interrupted incumbent.
    let full = run1(&engine, &query, &Algorithm::Exact).unwrap();
    let full_weight = full.best().map_or(0.0, |r| r.weight);
    let partial_weight = result.best().map_or(0.0, |r| r.weight);
    assert!(full_weight >= partial_weight - 1e-12);
}

/// The same anytime contract for TGEN on a larger instance: an expired
/// deadline stops the edge enumeration at its next poll point and the
/// incumbents returned are feasible.
#[test]
fn tight_deadline_interrupts_tgen_with_a_feasible_partial() {
    let all: Vec<usize> = (0..400).collect();
    let (network, collection) = grid_world(20, 100.0, &all);
    let engine = LcmsrEngine::new(&network, &collection);
    let query = LcmsrQuery::new(["restaurant"], 1200.0, whole(&network)).unwrap();

    let started = Instant::now();
    let result = engine
        .execute(
            &QueryRequest::new(&query, Algorithm::Tgen(TgenParams { alpha: 1.0 }))
                .deadline(Deadline::after(Duration::ZERO)),
        )
        .unwrap();
    let elapsed = started.elapsed();

    assert!(result.stats.partial);
    assert_eq!(
        result.stats.partial_cause,
        Some(PartialCause::DeadlineExceeded)
    );
    assert!(
        elapsed < Duration::from_millis(500),
        "interrupted TGEN took {elapsed:?}"
    );
    if let Some(region) = result.best() {
        assert!(region.length <= 1200.0 + 1e-9);
    }
}

/// Deadlines ride through the batched path too: each member of a batch
/// carries its own deadline, so one doomed member reports partial while its
/// siblings run to completion and stay bit-identical to solo runs.
#[test]
fn batched_members_honour_their_own_deadlines() {
    let restaurants: Vec<usize> = vec![0, 1, 5, 6, 12, 17, 23];
    let (network, collection) = grid_world(5, 100.0, &restaurants);
    let engine = LcmsrEngine::new(&network, &collection);
    let roi = whole(&network);
    let tgen = Algorithm::Tgen(TgenParams { alpha: 1.0 });
    let q1 = LcmsrQuery::new(["restaurant"], 300.0, roi).unwrap();
    let q2 = LcmsrQuery::new(["restaurant"], 500.0, roi).unwrap();

    let requests = vec![
        QueryRequest::new(&q1, tgen.clone()),
        QueryRequest::new(&q2, tgen.clone()).deadline(Deadline::after(Duration::ZERO)),
    ];
    let results = engine.execute_batch_with(&requests, 2).unwrap();

    assert!(
        !results[0].stats.partial,
        "undeadlined member stays complete"
    );
    assert!(results[1].stats.partial, "doomed member reports partial");
    let solo = run1(&engine, &q1, &tgen).unwrap();
    assert_identical(solo.best(), results[0].best(), "undeadlined member");
}
