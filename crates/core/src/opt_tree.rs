//! `findOptTree`: extracting the best feasible region from a candidate tree
//! (Section 4.2.3 of the paper).
//!
//! Finding the region with the largest scaled weight and length ≤ `Q.∆` inside
//! a tree is NP-hard (Theorem 3, knapsack reduction), but because node weights
//! are scaled integers a pseudo-polynomial dynamic program works: every node
//! keeps a *region tuple array* — a Pareto frontier holding, per scaled
//! weight, the shortest region rooted at that node (Definition 5, justified
//! by Lemma 6; cross-weight dominance per [`TupleArray`]) — and arrays are
//! combined bottom-up by peeling leaves (Lemma 7).  Frontier lengths are
//! monotone, so each leaf tuple confines its scan of the parent array to the
//! `partition_point` prefix that keeps the combination within `Q.∆`;
//! infeasible pairs are counted, never materialised.
//!
//! Tuples live in the caller's [`TupleArena`]; a combination that is neither
//! the new best nor enters the parent's array is rolled straight back.
//! Entries *evicted* from an array by a dominating insert are not freed —
//! they may be shared with the best tracker or other arrays; the per-query
//! arena reset reclaims them.

use crate::arena::TupleArena;
use crate::cancel::CancelToken;
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;
use crate::trace::TraceCollector;
use crate::tuple_array::{BestTracker, TupleArray};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Result of the tree DP: the best feasible region plus every node's final
/// tuple array (used by the top-k extension).
#[derive(Debug, Clone)]
pub struct OptTreeResult {
    /// The feasible region with the largest scaled weight, if any node of the
    /// tree lies within the length budget (single nodes always do).
    pub best: Option<RegionTuple>,
    /// Final tuple arrays, keyed by local node id (ordered for deterministic
    /// traversal in the top-k path).
    pub arrays: BTreeMap<u32, TupleArray>,
    /// Number of region tuples materialised (for statistics).
    pub tuples_generated: u64,
    /// Combine pairs skipped by the length-budget `partition_point` without
    /// being materialised.
    pub pruned_pairs: u64,
    /// Whether the DP stopped early at a cancellation poll point; `best` is
    /// then the best-so-far incumbent over the leaves peeled so far.
    pub interrupted: bool,
}

impl OptTreeResult {
    /// Aggregate frontier counters over the final arrays, in the shape
    /// [`crate::stats::RunStats`] reports: total resident tuples, the largest
    /// single array, and dominance evictions.
    pub fn frontier_stats(&self) -> (u64, u64, u64) {
        let total: u64 = self.arrays.values().map(|a| a.len() as u64).sum();
        let peak = self
            .arrays
            .values()
            .map(|a| a.len() as u64)
            .max()
            .unwrap_or(0);
        let evictions: u64 = self
            .arrays
            .values()
            .map(TupleArray::dominance_evictions)
            .sum();
        (total, peak, evictions)
    }
}

/// Runs the `findOptTree` dynamic program over the candidate tree `tree`
/// (a [`RegionTuple`] whose nodes/edges form a tree in `graph`), returning the
/// best feasible region under the graph's length constraint `Q.∆`.
///
/// `ctl` is polled once per peeled leaf; when it fires the DP stops and
/// returns its incumbent with `interrupted: true`.  Each peeled leaf records
/// a `peel_leaf` span into `tracer` (one predicted branch when disabled).
pub fn find_opt_tree(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    tree: &RegionTuple,
    ctl: &CancelToken,
    tracer: &mut TraceCollector,
) -> OptTreeResult {
    let delta = graph.delta();
    // Materialise the tree's id sets so the arena stays free for tuple
    // allocation inside the loops (the candidate tree is small).
    let tree_nodes: Vec<u32> = tree.nodes(arena).to_vec();
    let tree_edges: Vec<u32> = tree.edges(arena).to_vec();
    let m = tree_nodes.len();
    let mut best = BestTracker::new();
    let mut tuples_generated = 0u64;
    let mut pruned_pairs = 0u64;
    let mut interrupted = false;

    // All per-node DP state lives in flat vectors indexed by the node's
    // position in the (sorted) tree node list; `tree_pos` translates a local
    // graph id into that dense index.
    let tree_pos = |v: u32| -> u32 {
        tree_nodes
            .binary_search(&v)
            .expect("tree edge endpoint must be a tree node") as u32
    };

    // Initialise every node's array with the single-node region (line 3–4).
    let mut arrays: Vec<TupleArray> = Vec::with_capacity(m);
    for &v in &tree_nodes {
        let singleton = RegionTuple::singleton(arena, v, graph.weight(v), graph.scaled_weight(v));
        best.update(&singleton);
        let mut arr = TupleArray::new();
        arr.insert_if_better(singleton);
        arrays.push(arr);
        tuples_generated += 1;
    }
    let into_result = |best: BestTracker,
                       arrays: Vec<TupleArray>,
                       tuples_generated: u64,
                       pruned_pairs: u64,
                       interrupted: bool| {
        let arrays: BTreeMap<u32, TupleArray> = tree_nodes.iter().copied().zip(arrays).collect();
        OptTreeResult {
            best: best.into_best(),
            arrays,
            tuples_generated,
            pruned_pairs,
            interrupted,
        }
    };
    if m <= 1 {
        return into_result(best, arrays, tuples_generated, pruned_pairs, interrupted);
    }

    // Tree adjacency restricted to the candidate tree's edges, in tree positions.
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); m];
    for &e in &tree_edges {
        let edge = graph.edge(e);
        let pa = tree_pos(edge.a);
        let pb = tree_pos(edge.b);
        adj[pa as usize].push((pb, e));
        adj[pb as usize].push((pa, e));
    }
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut removed = vec![false; m];

    // Leaf queue (nodes with exactly one remaining neighbour), lines 5–12.
    let mut queue: VecDeque<u32> = (0..m as u32).filter(|&p| degree[p as usize] == 1).collect();
    let mut remaining = m;
    // Per-step snapshots (handle copies), hoisted for reuse.
    let mut v_tuples: Vec<RegionTuple> = Vec::new();
    let mut parent_tuples: Vec<RegionTuple> = Vec::new();

    while remaining > 1 {
        // Deadline poll, once per peeled leaf: the incumbent in `best` is a
        // valid anytime answer between peels.
        if ctl.is_cancelled() {
            interrupted = true;
            break;
        }
        let Some(p) = queue.pop_front() else { break };
        if removed[p as usize] || degree[p as usize] != 1 {
            continue;
        }
        // The single remaining neighbour acts as p's parent.
        let Some(&(parent, edge)) = adj[p as usize].iter().find(|(n, _)| !removed[*n as usize])
        else {
            break;
        };
        let edge_length = graph.edge(edge).length;
        let span = tracer.start("peel_leaf");
        let tuples_before = tuples_generated;
        // Combine every region rooted at p with every feasible region rooted
        // at the parent.  Both snapshots keep the frontier order (length
        // ascending), so the feasible parent partners of each leaf tuple form
        // a prefix, and once a leaf tuple's prefix is empty every longer leaf
        // tuple's is too.
        v_tuples.clear();
        v_tuples.extend(arrays[p as usize].iter().copied());
        parent_tuples.clear();
        parent_tuples.extend(arrays[parent as usize].iter().copied());
        let parent_array = &mut arrays[parent as usize];
        for (vi, tv) in v_tuples.iter().enumerate() {
            let feasible = parent_tuples
                .partition_point(|tp| tp.length + tv.length + edge_length <= delta + 1e-9);
            pruned_pairs += (parent_tuples.len() - feasible) as u64;
            if feasible == 0 {
                pruned_pairs += ((v_tuples.len() - vi - 1) * parent_tuples.len()) as u64;
                break;
            }
            for tp in &parent_tuples[..feasible] {
                let combined = tp.combine(tv, edge, edge_length, arena);
                debug_assert!(combined.length <= delta + 1e-9);
                tuples_generated += 1;
                let became_best = best.update(&combined);
                let inserted = parent_array.insert_if_better(combined);
                if !became_best && !inserted {
                    // Rejected by every consumer — single owner, roll back.
                    combined.free(arena);
                }
            }
        }
        tracer.end_with(
            span,
            &[
                ("node", u64::from(tree_nodes[p as usize])),
                ("tuples", tuples_generated - tuples_before),
            ],
        );
        // Remove p from the tree.
        removed[p as usize] = true;
        remaining -= 1;
        degree[parent as usize] = degree[parent as usize].saturating_sub(1);
        if degree[parent as usize] == 1 {
            queue.push_back(parent);
        }
    }

    into_result(best, arrays, tuples_generated, pruned_pairs, interrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::query_graph::test_support::figure2_query_graph;

    /// Builds a candidate tree covering the whole Figure-2 graph: a spanning
    /// tree chosen by hand — v1-v2 (1.0), v2-v6 (1.6), v6-v5 (1.5), v5-v4 (2.8),
    /// v2-v3 (3.1); total length 10.0.
    fn spanning_tree_of_figure2(qg: &QueryGraph, arena: &mut TupleArena) -> RegionTuple {
        let find_edge = |a: u32, b: u32| -> u32 {
            qg.neighbors(a)
                .iter()
                .copied()
                .find(|&(n, _)| n == b)
                .map(|(_, e)| e)
                .unwrap()
        };
        let mut edges = vec![
            find_edge(0, 1),
            find_edge(1, 5),
            find_edge(5, 4),
            find_edge(4, 3),
            find_edge(1, 2),
        ];
        let nodes = vec![0, 1, 2, 3, 4, 5];
        let length: f64 = edges.iter().map(|&e| qg.edge(e).length).sum();
        let weight: f64 = nodes.iter().map(|&v| qg.weight(v)).sum();
        let scaled: u64 = nodes.iter().map(|&v| qg.scaled_weight(v)).sum();
        edges.sort_unstable();
        RegionTuple::from_parts(arena, length, weight, scaled, &nodes, &edges)
    }

    #[test]
    fn finds_the_papers_optimal_region_for_delta_6() {
        // With Q.∆ = 6 the optimal region of the running example is
        // {v2, v4, v5, v6} with weight 1.1 and length 5.9 — and that region is
        // contained in our spanning tree, so the DP must find it.
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let tree = spanning_tree_of_figure2(&qg, &mut arena);
        let result = find_opt_tree(
            &qg,
            &mut arena,
            &tree,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        );
        let best = result.best.unwrap();
        assert_eq!(best.scaled, 110);
        assert!((best.weight - 1.1).abs() < 1e-9);
        assert!((best.length - 5.9).abs() < 1e-9);
        assert_eq!(best.nodes(&arena), &[1, 3, 4, 5]);
        assert!(result.tuples_generated > 6);
        assert_eq!(result.arrays.len(), 6);
    }

    #[test]
    fn small_delta_returns_best_single_node() {
        let (_n, qg) = figure2_query_graph(0.5, 0.15);
        let mut arena = TupleArena::new();
        let tree = spanning_tree_of_figure2(&qg, &mut arena);
        let result = find_opt_tree(
            &qg,
            &mut arena,
            &tree,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        );
        let best = result.best.unwrap();
        assert_eq!(best.node_count(), 1);
        assert_eq!(best.scaled, 40);
    }

    #[test]
    fn large_delta_keeps_the_whole_tree() {
        let (_n, qg) = figure2_query_graph(100.0, 0.15);
        let mut arena = TupleArena::new();
        let tree = spanning_tree_of_figure2(&qg, &mut arena);
        let result = find_opt_tree(
            &qg,
            &mut arena,
            &tree,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        );
        let best = result.best.unwrap();
        assert_eq!(best.node_count(), 6);
        assert_eq!(best.scaled, 170);
        assert!((best.length - 10.0).abs() < 1e-9);
    }

    #[test]
    fn every_stored_tuple_is_feasible_or_a_singleton() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let tree = spanning_tree_of_figure2(&qg, &mut arena);
        let result = find_opt_tree(
            &qg,
            &mut arena,
            &tree,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        );
        for arr in result.arrays.values() {
            for t in arr.iter() {
                assert!(
                    t.length <= qg.delta() + 1e-9 || t.node_count() == 1,
                    "infeasible multi-node tuple stored: {t:?}"
                );
                // Measures are internally consistent.
                let w: f64 = t.nodes(&arena).iter().map(|&v| qg.weight(v)).sum();
                assert!((w - t.weight).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_node_tree_is_handled() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let tree = RegionTuple::singleton(&mut arena, 2, qg.weight(2), qg.scaled_weight(2));
        let result = find_opt_tree(
            &qg,
            &mut arena,
            &tree,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        );
        assert_eq!(result.best.unwrap().nodes(&arena), &[2]);
    }

    #[test]
    fn path_tree_example_from_figure_6() {
        // Figure 6: a 3-node star/path with v1(20)-4-v2(20), v1(20)-5-v3(40).
        // Under ∆ = 10 all combinations are feasible and the best has scaled 80.
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        let mut b = GraphBuilder::new();
        let v1 = b.add_node(Point::new(0.0, 0.0));
        let v2 = b.add_node(Point::new(4.0, 0.0));
        let v3 = b.add_node(Point::new(0.0, 5.0));
        b.add_edge(v1, v2, 4.0).unwrap();
        b.add_edge(v1, v3, 5.0).unwrap();
        let network = b.build().unwrap();
        let weights =
            NodeWeights::from_node_weights([(NodeId(0), 0.2), (NodeId(1), 0.2), (NodeId(2), 0.4)]);
        let view = RegionView::whole(&network);
        // α chosen so weights scale 100× (θ = 0.004·... we pick α = 0.03:
        // θ = 0.03·0.4/3 = 0.004 → scaled weights 50/50/100).  To match the
        // figure's 20/20/40 use α = 0.075: θ = 0.01.
        let qg = QueryGraph::build(&view, &weights, 10.0, 0.075).unwrap();
        assert_eq!(qg.scaled_weight(0), 20);
        assert_eq!(qg.scaled_weight(2), 40);
        let mut arena = TupleArena::new();
        let tree = RegionTuple::from_parts(&mut arena, 9.0, 0.8, 80, &[0, 1, 2], &[0, 1]);
        let result = find_opt_tree(
            &qg,
            &mut arena,
            &tree,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        );
        let best = result.best.unwrap();
        assert_eq!(best.scaled, 80);
        assert_eq!(best.node_count(), 3);
        // The v1 array should now contain entries for 20 (itself), 40 (v1+v2),
        // 60 (v1+v3) and 80 (all three) — as walked through in Example 5.
        let v1_array = &result.arrays[&0];
        assert!(v1_array.get(20).is_some());
        assert!(v1_array.get(40).is_some());
        assert!(v1_array.get(60).is_some());
        assert!(v1_array.get(80).is_some());
    }
}
