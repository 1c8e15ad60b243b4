//! The flat prepare phase against a naive reference scorer.
//!
//! The collection scores a query by walking the postings of the grid cells
//! covering `Q.Λ` into dense per-slot scratch.  The reference here knows
//! nothing of cells, slots or postings: it loops over every indexed object,
//! keeps those inside the rectangle (`Rect::contains`), and sums
//! `w_{Q.ψ,t} · wto(t)` (`wto(t) = tf_weight / object_norm`, Equation 2) in
//! query-term order, then adds each object's score to its node in ascending
//! object-id order.  Random objects and keywords (repeated keywords give
//! `tf > 1`) are scored with random rectangles that straddle cell edges, hold
//! no nodes or lie outside the extent, and with unknown and zero-IDF query
//! terms.  Compared bit for bit (`f64::to_bits`):
//!
//! * the keyword scores — cold and through one reused `NodeWeights`;
//! * the prepared [`QueryGraph`]: per-node (global id, weight bits, scaled
//!   weight) in CSR order plus every edge with its length bits.
//!
//! A second case runs at sizes where the prepare path's orderings cross
//! many words and digits: a 20 × 20 grid, over 64 scored objects with ids
//! spread over the whole `u64` range, and views of over 64 nodes between
//! views of one to 81 nodes.  Its expected graph comes from a brute-force
//! filter over every node and edge of the network, not from `RegionView` or
//! `QueryGraph::build`.  It runs once with sequential node and edge ids and
//! once with shuffled ones, so every view's members spread over a wide id
//! band and the reused workspace rebases its member table from view to
//! view.  That table gives the query graph its local ids; the brute-force
//! filter finds them by its own binary search.

use lcmsr::core::engine::LcmsrEngine;
use lcmsr::core::prelude::{QueryGraph, QueryWorkspace};
use lcmsr::core::LcmsrQuery;
use lcmsr::geotext::collection::NodeWeights;
use lcmsr::geotext::vsm::{object_norm, tf_weight};
use lcmsr::geotext::{GeoTextObject, ObjectCollection, ObjectId, QueryVector};
use lcmsr::roadnet::generator::SplitRng;
use lcmsr::roadnet::subgraph::RegionView;
use lcmsr::roadnet::{GraphBuilder, NodeId, Point, Rect, RoadNetwork};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SIDE: usize = 6;
const SPACING: f64 = 100.0;
const KEYWORDS: [&str; 4] = ["restaurant", "cafe", "museum", "bar"];
/// Query keyword index naming a term no object carries.
const UNKNOWN: usize = KEYWORDS.len();
/// Side of the larger grid, in nodes.
const WIDE_SIDE: usize = 20;

/// A `side × side` grid network with `SPACING`-metre blocks.
fn square_grid(side: usize) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    let mut ids = Vec::new();
    for y in 0..side {
        for x in 0..side {
            ids.push(b.add_node(Point::new(x as f64 * SPACING, y as f64 * SPACING)));
        }
    }
    for y in 0..side {
        for x in 0..side {
            let i = y * side + x;
            if x + 1 < side {
                b.add_edge(ids[i], ids[i + 1], SPACING).unwrap();
            }
            if y + 1 < side {
                b.add_edge(ids[i], ids[i + side], SPACING).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// `(id, score bits)` pairs of a node or object list.
fn bits<K: Copy>(entries: &[(K, f64)]) -> Vec<(K, u64)> {
    entries.iter().map(|&(k, w)| (k, w.to_bits())).collect()
}

/// Per-object and per-node scores, both ascending by id.
type Scores = (Vec<(ObjectId, f64)>, Vec<(NodeId, f64)>);

/// Per-object and per-node scores computed without the index.
fn naive_scores(collection: &ObjectCollection, query: &QueryVector, rect: &Rect) -> Scores {
    let mut by_object = Vec::new();
    if query.norm > 0.0 {
        for object in collection.objects() {
            if !rect.contains(&object.point) {
                continue;
            }
            let mut partial = 0.0;
            for term in &query.terms {
                if term.weight == 0.0 {
                    continue;
                }
                if let Some(&tf) = object.terms.get(&term.text) {
                    partial += term.weight * (tf_weight(tf) / object_norm(object));
                }
            }
            let score = partial / query.norm;
            if score > 0.0 {
                by_object.push((object.id, score));
            }
        }
    }
    by_object.sort_by_key(|&(id, _)| id);
    let mut by_node = BTreeMap::new();
    for &(id, score) in &by_object {
        let node = collection.node_of(id).expect("scored object is indexed");
        *by_node.entry(node).or_insert(0.0) += score;
    }
    (by_object, by_node.into_iter().collect())
}

/// Per-node (global id, weight bits, scaled weight) in CSR order plus
/// per-edge (a, b, length bits).
type GraphFingerprint = (Vec<(u32, u64, u64)>, Vec<(u32, u32, u64)>);

/// Bit-exact content of a prepared query graph (CSR node order + edges).
fn graph_fingerprint(graph: &QueryGraph) -> GraphFingerprint {
    let nodes = graph
        .node_indices()
        .map(|v| {
            (
                graph.global_node(v).0,
                graph.weight(v).to_bits(),
                graph.scaled_weight(v),
            )
        })
        .collect();
    let edges = graph
        .edges()
        .iter()
        .map(|e| (e.a, e.b, e.length.to_bits()))
        .collect();
    (nodes, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random objects, keywords and rectangles: the flat scorer's node and
    /// object scores and the prepared query graph are bit-identical to the
    /// naive reference.
    #[test]
    fn flat_scorer_matches_the_naive_reference(
        objects in collection::vec(
            (-150.0f64..650.0, -150.0f64..650.0, collection::vec(0usize..KEYWORDS.len(), 1..4)),
            1..80,
        ),
        keywords in collection::vec(0usize..UNKNOWN + 1, 1..4),
        zeroed_term in 0usize..6,
        rect_cells in collection::vec((0usize..SIDE + 2, 0usize..SIDE + 2, 1usize..SIDE, 1usize..SIDE), 1..5),
        shift_third in 0usize..3,
        delta_blocks in 1usize..7,
    ) {
        let network = square_grid(SIDE);
        let objects: Vec<GeoTextObject> = objects
            .iter()
            .enumerate()
            .map(|(id, (x, y, words))| {
                GeoTextObject::from_keywords(
                    id as u64,
                    Point::new(*x, *y),
                    words.iter().map(|&w| KEYWORDS[w]),
                )
            })
            .collect();
        // Half-block cells: rect borders on, between or just past nodes
        // straddle cell edges.
        let collection = ObjectCollection::build(&network, objects, SPACING / 2.0).unwrap();
        let engine = LcmsrEngine::new(&network, &collection);

        let words: Vec<&str> = keywords
            .iter()
            .map(|&k| KEYWORDS.get(k).copied().unwrap_or("spaceship"))
            .collect();
        let mut query = collection.query_vector(&words);
        // A known term whose IDF weight is forced to zero contributes nothing.
        if let Some(term) = query.terms.get_mut(zeroed_term) {
            if term.id.is_some() {
                term.weight = 0.0;
                query.norm = query.terms.iter().map(|t| t.weight * t.weight).sum::<f64>().sqrt();
            }
        }

        let shift = [0.0, SPACING / 2.0, SPACING / 10.0][shift_third];
        let mut rects: Vec<Rect> = rect_cells
            .iter()
            .map(|&(x0, y0, w, h)| {
                Rect::new(
                    x0 as f64 * SPACING - shift,
                    y0 as f64 * SPACING - shift,
                    (x0 + w) as f64 * SPACING + shift,
                    (y0 + h) as f64 * SPACING + shift,
                )
            })
            .collect();
        // A node-free rect (nodes sit on multiples of SPACING), one clear of
        // the extent, and the whole extent.
        rects.push(Rect::new(110.0, 110.0, 190.0, 190.0));
        rects.push(Rect::new(2_000.0, -50.0, 2_100.0, 50.0));
        rects.push(Rect::new(-200.0, -200.0, 700.0, 700.0));

        let delta = delta_blocks as f64 * SPACING;
        let mut reused = NodeWeights::default();
        let mut workspace = QueryWorkspace::new();
        for rect in &rects {
            let (want_objects, want_nodes) = naive_scores(&collection, &query, rect);
            collection.node_weights_into(&query, rect, &mut reused);
            prop_assert_eq!(bits(reused.by_object()), bits(&want_objects), "objects at {:?}", rect);
            prop_assert_eq!(bits(reused.by_node()), bits(&want_nodes), "nodes at {:?}", rect);

            // The engine's prepared graph equals one built from the reference
            // weights; a rect with no node fails the same way on both paths.
            let lcmsr_query = LcmsrQuery::new(words.clone(), delta, *rect).unwrap();
            let got = match engine.prepare_with(&mut workspace, &lcmsr_query, 0.5) {
                Ok(g) => {
                    let fp = graph_fingerprint(&g);
                    engine.release(&mut workspace, g);
                    Ok(fp)
                }
                Err(e) => Err(format!("{e:?}")),
            };
            let engine_query = collection.query_vector(&words);
            let (_, reference_nodes) = naive_scores(&collection, &engine_query, rect);
            let view = RegionView::new(&network, *rect);
            let reference = NodeWeights::from_node_weights(reference_nodes.iter().copied());
            let expected = QueryGraph::build(&view, &reference, delta, 0.5)
                .map(|g| graph_fingerprint(&g))
                .map_err(|e| format!("{e:?}"));
            prop_assert_eq!(&got, &expected, "query graph at {:?}", rect);
            if let Ok((nodes, _)) = &got {
                let reference: BTreeMap<NodeId, f64> = reference_nodes.into_iter().collect();
                for &(node, weight, _) in nodes {
                    let want = reference.get(&NodeId(node)).copied().unwrap_or(0.0).max(0.0);
                    prop_assert_eq!(weight, want.to_bits(), "node {} weight at {:?}", node, rect);
                }
            }
        }
    }
}

/// The prepared graph's fingerprint computed without the index, the view
/// or the builder: every node inside `rect` by ascending id, weighted from
/// the reference scores and scaled by `θ = α·σ_max/|V_Q|`, `⌊σ_v/θ⌋`, and
/// every edge with both endpoints inside, by ascending id.
fn brute_force_graph(
    network: &RoadNetwork,
    reference_nodes: &[(NodeId, f64)],
    rect: &Rect,
    alpha: f64,
) -> GraphFingerprint {
    let reference: BTreeMap<NodeId, f64> = reference_nodes.iter().copied().collect();
    let inside: Vec<NodeId> = network
        .node_ids()
        .filter(|&n| rect.contains(&network.point(n)))
        .collect();
    let weights: Vec<f64> = inside
        .iter()
        .map(|n| reference.get(n).copied().unwrap_or(0.0).max(0.0))
        .collect();
    let sigma_max = weights.iter().fold(0.0f64, |a, &b| a.max(b));
    let theta = alpha * sigma_max / inside.len() as f64;
    let nodes = inside
        .iter()
        .zip(&weights)
        .map(|(n, &w)| {
            let scaled = if sigma_max > 0.0 {
                (w / theta + 1e-9).floor() as u64
            } else {
                0
            };
            (n.0, w.to_bits(), scaled)
        })
        .collect();
    let local = |n: NodeId| inside.binary_search(&n).ok().map(|i| i as u32);
    let edges = network
        .edge_ids()
        .filter_map(|e| {
            let edge = network.edge(e);
            Some((local(edge.a)?, local(edge.b)?, edge.length.to_bits()))
        })
        .collect();
    (nodes, edges)
}

/// A `side × side` grid like [`square_grid`] whose node and edge ids are
/// handed out in shuffled order, so the members of a rectangle spread over
/// the whole id range instead of one band of rows.  Every edge has its own
/// length.
fn shuffled_grid(side: usize, seed: u64) -> RoadNetwork {
    let mut rng = SplitRng::new(seed);
    let mut shuffled = |n: usize| {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        order
    };
    let mut b = GraphBuilder::new();
    let mut at = vec![NodeId(0); side * side];
    for cell in shuffled(side * side) {
        let (x, y) = (cell % side, cell / side);
        at[cell] = b.add_node(Point::new(x as f64 * SPACING, y as f64 * SPACING));
    }
    let mut pairs = Vec::new();
    for i in 0..side * side {
        if i % side + 1 < side {
            pairs.push((i, i + 1));
        }
        if i + side < side * side {
            pairs.push((i, i + side));
        }
    }
    for k in shuffled(pairs.len()) {
        let (i, j) = pairs[k];
        b.add_edge(at[i], at[j], SPACING + k as f64).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Over 64 scored objects with wide ids, on a grid with sequential ids
    /// and on one with shuffled ids, one workspace reused over views from
    /// one node to the whole grid: the scores match the naive reference, and
    /// the prepared graph matches a brute-force filter of the network.
    #[test]
    fn prepare_at_scale_matches_a_brute_force_reference(
        shuffle_seed in 0u64..1_000_000,
        objects in collection::vec(
            (-50.0f64..1_950.0, -50.0f64..1_950.0, collection::vec(0usize..KEYWORDS.len(), 1..4)),
            120..300,
        ),
        keywords in collection::vec(0usize..KEYWORDS.len(), 1..4),
        // A view of over 64 nodes, then one of one to 81 nodes.
        rect_cells in collection::vec(
            (
                (0usize..WIDE_SIDE - 9, 0usize..WIDE_SIDE - 9, 9usize..WIDE_SIDE, 9usize..WIDE_SIDE),
                (0usize..WIDE_SIDE, 0usize..WIDE_SIDE, 0usize..9, 0usize..9),
            ),
            2..4,
        ),
    ) {
        // An odd multiplier permutes u64, so the ids stay unique while they
        // spread over the whole range.
        let objects: Vec<GeoTextObject> = objects
            .iter()
            .enumerate()
            .map(|(i, (x, y, words))| {
                GeoTextObject::from_keywords(
                    (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    Point::new(*x, *y),
                    words.iter().map(|&w| KEYWORDS[w]),
                )
            })
            .collect();
        let rect_of = |(x0, y0, w, h): (usize, usize, usize, usize)| {
            Rect::new(
                x0 as f64 * SPACING - 10.0,
                y0 as f64 * SPACING - 10.0,
                (x0 + w).min(WIDE_SIDE) as f64 * SPACING + 10.0,
                (y0 + h).min(WIDE_SIDE) as f64 * SPACING + 10.0,
            )
        };
        let words: Vec<&str> = keywords.iter().map(|&k| KEYWORDS[k]).collect();
        let extent = Rect::new(-100.0, -100.0, 2_000.0, 2_000.0);
        // (keywords, rectangle, whether the view holds over 64 nodes)
        let mut cases = vec![(KEYWORDS.to_vec(), extent, true)];
        for &(large, small) in &rect_cells {
            cases.push((words.clone(), rect_of(large), true));
            cases.push((words.clone(), rect_of(small), false));
        }
        for network in [square_grid(WIDE_SIDE), shuffled_grid(WIDE_SIDE, shuffle_seed)] {
            let collection =
                ObjectCollection::build(&network, objects.clone(), SPACING * 1.5).unwrap();
            let engine = LcmsrEngine::new(&network, &collection);
            let mut workspace = QueryWorkspace::new();
            let mut reused = NodeWeights::default();
            for (i, (words, rect, large)) in cases.iter().enumerate() {
                let query = collection.query_vector(words);
                let (want_objects, want_nodes) = naive_scores(&collection, &query, rect);
                if i == 0 {
                    // Every object carries a query keyword and lies inside.
                    prop_assert!(want_objects.len() > 64);
                    prop_assert_eq!(want_objects.len(), collection.len());
                }
                collection.node_weights_into(&query, rect, &mut reused);
                prop_assert_eq!(bits(reused.by_object()), bits(&want_objects), "objects at {:?}", rect);
                prop_assert_eq!(bits(reused.by_node()), bits(&want_nodes), "nodes at {:?}", rect);

                let delta = 6.0 * SPACING;
                let lcmsr_query = LcmsrQuery::new(words.clone(), delta, *rect).unwrap();
                let graph = engine.prepare_with(&mut workspace, &lcmsr_query, 0.5).unwrap();
                let got = graph_fingerprint(&graph);
                engine.release(&mut workspace, graph);
                if *large {
                    prop_assert!(got.0.len() > 64, "{} nodes at {:?}", got.0.len(), rect);
                }
                let expected = brute_force_graph(&network, &want_nodes, rect, 0.5);
                prop_assert_eq!(&got, &expected, "query graph at {:?}", rect);
            }
        }
    }
}
