//! Arena-recycling and workspace-pool correctness tests.
//!
//! The solve phase stores every region tuple's node/edge sets in a
//! `TupleArena` whose blocks are free-listed and epoch-cleared between
//! queries.  These tests drive the arena's public surface with random
//! interleavings of alloc / merge / free / reset against a shadow model (no
//! live handle may ever alias another's storage), and pin the engine's pooled
//! workspaces to the exact results of fresh Vec-free workspaces — the tier-1
//! golden fixtures (Figure-2 optimum, synthetic-dataset regions) anchor the
//! absolute values.

use lcmsr::core::arena::{IdSetHandle, TupleArena};
use lcmsr::core::engine::{Algorithm, LcmsrEngine, QueryWorkspace};
use lcmsr::core::region::RegionTuple;
use lcmsr::core::{AppParams, GreedyParams, LcmsrQuery, TgenParams};
use lcmsr::prelude::{Dataset, DatasetConfig};
use proptest::prelude::*;

mod common;
use common::*;

/// One random arena operation, drawn as raw integers and interpreted below.
type Op = (u32, u32, u32);

fn apply_ops(ops: &[Op]) {
    let mut arena = TupleArena::new();
    // Shadow model: every live handle with its expected contents.  Handles in
    // the model are single-owner by construction (merges copy), so freeing
    // any of them is legal.
    let mut live: Vec<(IdSetHandle, Vec<u32>)> = Vec::new();
    for (step, &(op, a, b)) in ops.iter().enumerate() {
        match op % 12 {
            0..=4 => {
                // Alloc a fresh strictly-sorted set of 0..6 ids.
                let len = b % 6;
                let ids: Vec<u32> = (0..len).map(|k| a % 997 + k * 5).collect();
                let h = arena.alloc(&ids);
                live.push((h, ids));
            }
            5 | 6 => {
                // Merge two disjoint live sets.
                if live.len() >= 2 {
                    let i = a as usize % live.len();
                    let j = b as usize % live.len();
                    if i != j && !arena.intersects(live[i].0, live[j].0) {
                        let h = arena.merge(live[i].0, live[j].0);
                        let mut ids = live[i].1.clone();
                        ids.extend_from_slice(&live[j].1);
                        ids.sort_unstable();
                        live.push((h, ids));
                    }
                }
            }
            7 => {
                // Insert one fresh id into a live set.
                if !live.is_empty() {
                    let i = a as usize % live.len();
                    let extra = 100_000 + b; // outside the alloc id range
                    let h = arena.insert_one(live[i].0, extra);
                    let mut ids = live[i].1.clone();
                    ids.push(extra);
                    ids.sort_unstable();
                    live.push((h, ids));
                }
            }
            8..=9 => {
                // Free a random live handle.
                if !live.is_empty() {
                    let i = a as usize % live.len();
                    let (h, _) = live.swap_remove(i);
                    arena.free(h);
                }
            }
            _ => {
                // Epoch clear ("between queries"): every handle dies at once.
                arena.reset();
                live.clear();
            }
        }
        // Every live handle must still read back exactly its own contents —
        // any free-list aliasing or bump-pointer corruption shows up here.
        for (h, expect) in &live {
            assert_eq!(
                arena.get(*h),
                expect.as_slice(),
                "live handle aliased at step {step}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaved build/recycle cycles never alias live handles.
    #[test]
    fn random_alloc_free_reset_interleavings_never_alias(
        ops in collection::vec((0u32..12, 0u32..100_000, 0u32..100_000), 20..250),
    ) {
        apply_ops(&ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Region-tuple combines over a shared arena behave like owned sets: the
    /// combined tuple reads the sorted union while the sources stay intact,
    /// and discarding an unshared combine rolls its storage back fully.
    #[test]
    fn combine_and_free_round_trips(
        seeds in collection::btree_set(0u32..64, 2..10),
    ) {
        let mut arena = TupleArena::new();
        let tuples: Vec<RegionTuple> = seeds
            .iter()
            .map(|&v| RegionTuple::singleton(&mut arena, v, f64::from(v), u64::from(v)))
            .collect();
        let floor = arena.storage_len();
        let mut chain = vec![];
        let mut acc = tuples[0];
        for (i, t) in tuples.iter().enumerate().skip(1) {
            acc = acc.combine(t, i as u32, 1.0, &mut arena);
            chain.push(acc);
        }
        let expect: Vec<u32> = seeds.iter().copied().collect();
        prop_assert_eq!(acc.nodes(&arena), expect.as_slice());
        prop_assert_eq!(acc.edge_count(), seeds.len() - 1);
        for (t, &v) in tuples.iter().zip(seeds.iter()) {
            prop_assert_eq!(t.nodes(&arena), &[v]);
        }
        // Free the chain in reverse creation order: pure stack discipline must
        // return the arena to its pre-combine footprint.  (Intermediates alias
        // nothing here: each was consumed only by the next combine, which
        // copies, and the singletons stay live.)
        for t in chain.into_iter().rev() {
            t.free(&mut arena);
        }
        prop_assert_eq!(arena.storage_len(), floor, "stack-ordered frees must fully roll back");
    }
}

/// Builds a small grid world with restaurants at the given node indices.
fn grid_world(
    restaurants: &[usize],
) -> (
    lcmsr::roadnet::RoadNetwork,
    lcmsr::geotext::ObjectCollection,
) {
    use lcmsr::geotext::{GeoTextObject, ObjectCollection};
    use lcmsr::roadnet::{GraphBuilder, Point};
    let side = 5usize;
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for y in 0..side {
        for x in 0..side {
            ids.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let i = y * side + x;
            if x + 1 < side {
                b.add_edge(ids[i], ids[i + 1], 100.0).unwrap();
            }
            if y + 1 < side {
                b.add_edge(ids[i], ids[i + side], 100.0).unwrap();
            }
        }
    }
    let network = b.build().unwrap();
    let objects: Vec<GeoTextObject> = restaurants
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let p = network.point(lcmsr::roadnet::NodeId((node % (side * side)) as u32));
            GeoTextObject::from_keywords(i as u64, Point::new(p.x + 1.0, p.y + 1.0), ["restaurant"])
        })
        .collect();
    let collection = ObjectCollection::build(&network, objects, 100.0).unwrap();
    (network, collection)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A pooled engine answering a random interleaved query stream is
    /// bit-identical to fresh per-query workspaces for every algorithm —
    /// arena epochs and recycled builders must never leak across queries.
    #[test]
    fn pooled_workspaces_match_fresh_workspaces_on_random_instances(
        restaurants in collection::btree_set(0usize..25, 2..9),
        delta_blocks in 1usize..7,
    ) {
        let restaurants: Vec<usize> = restaurants.into_iter().collect();
        let (network, collection) = grid_world(&restaurants);
        let engine = LcmsrEngine::new(&network, &collection);
        let roi = network.bounding_rect().unwrap().expanded(10.0);
        let delta = delta_blocks as f64 * 100.0;
        let queries = [
            LcmsrQuery::new(["restaurant"], delta, roi).unwrap(),
            LcmsrQuery::new(["restaurant"], delta * 1.5, roi).unwrap(),
            LcmsrQuery::new(["bakery"], delta, roi).unwrap(),
            LcmsrQuery::new(["restaurant"], delta * 0.5, roi).unwrap(),
        ];
        let algorithms = [
            Algorithm::Tgen(TgenParams { alpha: 1.0 }),
            Algorithm::App(AppParams::default()),
            Algorithm::Greedy(GreedyParams::default()),
        ];
        for round in 0..3 {
            for (i, query) in queries.iter().enumerate() {
                let algorithm = &algorithms[(round + i) % algorithms.len()];
                let pooled = run1(&engine, query, algorithm).unwrap();
                let fresh = run1_with(&engine, &mut QueryWorkspace::new(), query, algorithm)
                    .unwrap();
                prop_assert_eq!(pooled.regions, fresh.regions);
            }
        }
    }
}

/// Golden fixture on the tiny synthetic dataset: one pooled engine answering
/// the workload three times over must reproduce, bit for bit, the regions a
/// fresh engine (fresh pool, fresh arenas) computes per query.
#[test]
fn pooled_engine_is_bit_identical_on_the_synthetic_dataset() {
    let dataset = Dataset::build(DatasetConfig::tiny(7));
    let mut params = dataset.default_query_params(3);
    params.num_queries = 12;
    let queries: Vec<LcmsrQuery> = dataset
        .queries(&params)
        .into_iter()
        .map(|q| LcmsrQuery::new(q.keywords, q.delta, q.rect).unwrap())
        .collect();
    let algorithm = Algorithm::Tgen(TgenParams { alpha: 5.0 });
    let reference: Vec<_> = queries
        .iter()
        .map(|q| {
            let fresh_engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
            run1(&fresh_engine, q, &algorithm).unwrap().regions
        })
        .collect();
    let engine = LcmsrEngine::new(&dataset.network, &dataset.collection);
    for round in 0..3 {
        for (q, expect) in queries.iter().zip(&reference) {
            let got = run1(&engine, q, &algorithm).unwrap().regions;
            assert_eq!(&got, expect, "round {round} diverged");
        }
    }
    assert_eq!(
        engine.workspace_pool().idle_count(),
        1,
        "the whole stream reused one pooled workspace"
    );
}
