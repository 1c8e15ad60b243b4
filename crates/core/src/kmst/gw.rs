//! Goemans–Williamson primal–dual moat growing for the (unrooted)
//! prize-collecting Steiner tree problem, followed by strong pruning.
//!
//! This is the engine behind the Garg-style k-MST oracle: given per-node
//! prizes `π_v` (in the same unit as edge lengths), the growth phase produces a
//! forest and the pruning phase extracts, from the best component, a tree whose
//! prize-minus-cost trade-off is locally optimal.  Larger prizes keep more
//! nodes; the quota search in [`super::garg`] exploits this monotone behaviour.
//!
//! The implementation is the classical event-driven formulation: clusters of
//! nodes grow "moats" uniformly while they are active; an edge whose moats meet
//! merges two clusters; a cluster whose total prize is exhausted deactivates.
//! Each iteration scans all edges to find the next event, giving `O(n·m)`
//! worst-case time — adequate for query-region subgraphs, which is where it runs.

use crate::arena::TupleArena;
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;

const EPS: f64 = 1e-9;

/// Result of one GW growth + pruning run.
#[derive(Debug, Clone)]
pub struct PcstResult {
    /// The pruned tree (local node/edge ids) as a region tuple.
    pub tree: RegionTuple,
    /// Number of event-loop iterations performed (for statistics).
    pub iterations: usize,
}

/// Union-find with path compression.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
        rb
    }
}

/// Runs GW moat growing with the given per-node prizes and returns the pruned
/// tree of the best component (allocated in `arena`).
///
/// `prizes` must have one entry per local node.  The returned tree always
/// contains at least one node (the best single node when nothing larger pays off).
pub fn pcst(graph: &QueryGraph, arena: &mut TupleArena, prizes: &[f64]) -> PcstResult {
    let n = graph.node_count();
    assert_eq!(prizes.len(), n, "one prize per node required");
    let mut uf = UnionFind::new(n);
    // moat[v]: total dual grown around node v (depth of moats containing v).
    let mut moat = vec![0.0f64; n];
    // Per cluster root: remaining potential and activity flag.
    let mut remaining: Vec<f64> = prizes.to_vec();
    let mut active: Vec<bool> = prizes.iter().map(|&p| p > EPS).collect();
    let mut forest_edges: Vec<u32> = Vec::new();
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        if iterations > 4 * n + 16 {
            break; // safety net; cannot happen with consistent events
        }
        // Find the next event.
        let mut best_dt = f64::INFINITY;
        enum Event {
            Edge(u32),
            Deactivate(u32),
            None,
        }
        let mut event = Event::None;
        // Edge events.
        for (idx, e) in graph.edges().iter().enumerate() {
            let ra = uf.find(e.a);
            let rb = uf.find(e.b);
            if ra == rb {
                continue;
            }
            let rate = (active[ra as usize] as u32 + active[rb as usize] as u32) as f64;
            if rate == 0.0 {
                continue;
            }
            let slack = e.length - moat[e.a as usize] - moat[e.b as usize];
            let dt = (slack / rate).max(0.0);
            if dt < best_dt - EPS {
                best_dt = dt;
                event = Event::Edge(idx as u32);
            }
        }
        // Cluster deactivation events.
        for v in 0..n as u32 {
            let r = uf.find(v);
            if r != v {
                continue; // only roots carry cluster state
            }
            if active[r as usize] {
                let dt = remaining[r as usize].max(0.0);
                if dt < best_dt - EPS {
                    best_dt = dt;
                    event = Event::Deactivate(r);
                }
            }
        }
        if matches!(event, Event::None) || !best_dt.is_finite() {
            break;
        }
        // Advance time by best_dt: grow moats of nodes in active clusters and
        // spend the active clusters' potential.
        if best_dt > 0.0 {
            for v in 0..n as u32 {
                let r = uf.find(v);
                if active[r as usize] {
                    moat[v as usize] += best_dt;
                }
            }
            for r in 0..n as u32 {
                if uf.find(r) == r && active[r as usize] {
                    remaining[r as usize] -= best_dt;
                }
            }
        }
        // Apply the event.
        match event {
            Event::Edge(idx) => {
                let e = graph.edge(idx);
                let ra = uf.find(e.a);
                let rb = uf.find(e.b);
                if ra == rb {
                    continue;
                }
                let merged_remaining =
                    remaining[ra as usize].max(0.0) + remaining[rb as usize].max(0.0);
                let new_root = uf.union(ra, rb);
                let other = if new_root == ra { rb } else { ra };
                remaining[new_root as usize] = merged_remaining;
                remaining[other as usize] = 0.0;
                active[new_root as usize] = merged_remaining > EPS;
                active[other as usize] = false;
                forest_edges.push(idx);
            }
            Event::Deactivate(r) => {
                active[r as usize] = false;
                remaining[r as usize] = 0.0;
            }
            Event::None => unreachable!(),
        }
        // Stop early when no active cluster remains.
        let any_active = (0..n as u32).any(|v| uf.find(v) == v && active[v as usize]);
        if !any_active {
            break;
        }
    }

    let tree = extract_best_pruned_tree(graph, arena, prizes, &forest_edges);
    PcstResult { tree, iterations }
}

/// From the GW forest, picks the component with the largest pruned value and
/// strong-prunes it: subtrees whose total prize does not pay for their
/// connecting edge are cut.
fn extract_best_pruned_tree(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    prizes: &[f64],
    forest_edges: &[u32],
) -> RegionTuple {
    let n = graph.node_count();
    // Forest adjacency.
    let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for &e in forest_edges {
        let edge = graph.edge(e);
        adj[edge.a as usize].push((edge.b, e));
        adj[edge.b as usize].push((edge.a, e));
    }
    let mut visited = vec![false; n];
    let mut best: Option<(RegionTuple, f64)> = None;
    for start in 0..n as u32 {
        if visited[start as usize] {
            continue;
        }
        // Collect the component.
        let mut component = Vec::new();
        let mut stack = vec![start];
        visited[start as usize] = true;
        while let Some(v) = stack.pop() {
            component.push(v);
            for &(u, _) in &adj[v as usize] {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    stack.push(u);
                }
            }
        }
        // Root the component at its highest-prize node and strong-prune.
        let root = *component
            .iter()
            .max_by(|&&a, &&b| {
                prizes[a as usize]
                    .partial_cmp(&prizes[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap();
        let pruned = strong_prune(graph, arena, prizes, &adj, root);
        let candidate_value: f64 = pruned
            .nodes(arena)
            .iter()
            .map(|&v| prizes[v as usize])
            .sum::<f64>()
            - pruned.length;
        let best_value = best.as_ref().map_or(f64::NEG_INFINITY, |(_, v)| *v);
        if candidate_value > best_value {
            // The displaced tree has a single owner here — recycle it.
            if let Some((old, _)) = best.replace((pruned, candidate_value)) {
                old.free(arena);
            }
        } else {
            pruned.free(arena);
        }
    }
    best.map_or_else(
        || {
            // Degenerate case (no nodes): cannot happen because QueryGraph is non-empty.
            RegionTuple::singleton(arena, 0, graph.weight(0), graph.scaled_weight(0))
        },
        |(t, _)| t,
    )
}

/// Strong pruning: rooted DP keeping a child subtree only when its net worth
/// exceeds the cost of the edge connecting it.  Returns the pruned tree
/// containing `root` as a region tuple with graph weights.
fn strong_prune(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    prizes: &[f64],
    adj: &[Vec<(u32, u32)>],
    root: u32,
) -> RegionTuple {
    // Iterative post-order over the tree rooted at `root`.
    let n = graph.node_count();
    let mut parent: Vec<Option<(u32, u32)>> = vec![None; n]; // (parent node, edge)
    let mut order = Vec::new();
    let mut stack = vec![root];
    let mut seen = vec![false; n];
    seen[root as usize] = true;
    while let Some(v) = stack.pop() {
        order.push(v);
        for &(u, e) in &adj[v as usize] {
            if !seen[u as usize] {
                seen[u as usize] = true;
                parent[u as usize] = Some((v, e));
                stack.push(u);
            }
        }
    }
    // net[v] = prize(v) + Σ_{kept children} (net[c] − cost(v,c)); kept[c] records the decision.
    let mut net = vec![0.0f64; n];
    let mut kept_edge = vec![false; graph.edge_count()];
    for &v in order.iter().rev() {
        net[v as usize] = prizes[v as usize];
    }
    for &v in order.iter().rev() {
        if let Some((p, e)) = parent[v as usize] {
            let gain = net[v as usize] - graph.edge(e).length;
            if gain > EPS {
                net[p as usize] += gain;
                kept_edge[e as usize] = true;
            }
        }
    }
    // Collect the nodes reachable from root through kept edges.
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    let mut length = 0.0;
    let mut stack = vec![root];
    let mut included = vec![false; n];
    included[root as usize] = true;
    while let Some(v) = stack.pop() {
        nodes.push(v);
        for &(u, e) in &adj[v as usize] {
            // Only descend child edges (u's parent is v) that were kept.
            if parent[u as usize] == Some((v, e)) && kept_edge[e as usize] && !included[u as usize]
            {
                included[u as usize] = true;
                edges.push(e);
                length += graph.edge(e).length;
                stack.push(u);
            }
        }
    }
    nodes.sort_unstable();
    edges.sort_unstable();
    let weight: f64 = nodes.iter().map(|&v| graph.weight(v)).sum();
    let scaled: u64 = nodes.iter().map(|&v| graph.scaled_weight(v)).sum();
    RegionTuple::from_parts(arena, length, weight, scaled, &nodes, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmst::validate_tree;
    use crate::query_graph::test_support::figure2_query_graph;

    #[test]
    fn zero_prizes_give_a_singleton() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let prizes = vec![0.0; qg.node_count()];
        let result = pcst(&qg, &mut arena, &prizes);
        assert_eq!(result.tree.node_count(), 1);
        assert_eq!(result.tree.edge_count(), 0);
    }

    #[test]
    fn huge_prizes_span_the_whole_graph() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let prizes = vec![1000.0; qg.node_count()];
        let result = pcst(&qg, &mut arena, &prizes);
        assert_eq!(result.tree.node_count(), qg.node_count());
        assert_eq!(result.tree.edge_count(), qg.node_count() - 1);
        validate_tree(&qg, &arena, &result.tree);
        // A spanning tree of Figure 2 cannot be longer than the total edge length.
        let total: f64 = qg.edges().iter().map(|e| e.length).sum();
        assert!(result.tree.length < total);
    }

    #[test]
    fn moderate_prizes_keep_the_profitable_cluster() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        // Prize 2.0 at v1, v2, v6 (local 0, 1, 5) which form a cheap triangle
        // (edges 1.0 and 1.6), tiny prizes elsewhere: the expensive far nodes
        // should be pruned away.
        let mut arena = TupleArena::new();
        let mut prizes = vec![0.01; qg.node_count()];
        prizes[0] = 2.0;
        prizes[1] = 2.0;
        prizes[5] = 2.0;
        let result = pcst(&qg, &mut arena, &prizes);
        validate_tree(&qg, &arena, &result.tree);
        assert!(result.tree.contains_node(0, &arena));
        assert!(result.tree.contains_node(1, &arena));
        assert!(result.tree.contains_node(5, &arena));
        assert!(result.tree.node_count() <= 4, "far nodes should be pruned");
    }

    #[test]
    fn prizes_proportional_to_scaled_weights_behave_monotonically() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let base: Vec<f64> = (0..qg.node_count() as u32)
            .map(|v| qg.scaled_weight(v) as f64)
            .collect();
        let mut arena = TupleArena::new();
        let mut previous_scaled = 0;
        for lambda in [0.0001, 0.01, 0.05, 0.2, 1.0] {
            let prizes: Vec<f64> = base.iter().map(|&b| b * lambda).collect();
            let result = pcst(&qg, &mut arena, &prizes);
            validate_tree(&qg, &arena, &result.tree);
            // The kept scaled weight should not decrease as λ grows.
            assert!(
                result.tree.scaled >= previous_scaled,
                "λ={lambda}: scaled {} < previous {previous_scaled}",
                result.tree.scaled
            );
            previous_scaled = result.tree.scaled;
        }
        assert_eq!(previous_scaled, qg.total_scaled_weight());
    }

    #[test]
    fn result_tree_is_always_valid_on_a_line_graph() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64 * 10.0, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 10.0).unwrap();
        }
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights([(NodeId(0), 1.0), (NodeId(5), 1.0)]);
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &weights, 100.0, 0.5).unwrap();
        let mut arena = TupleArena::new();
        for lambda in [0.1, 1.0, 10.0, 60.0] {
            let prizes: Vec<f64> = (0..qg.node_count() as u32)
                .map(|v| qg.scaled_weight(v) as f64 * lambda)
                .collect();
            let r = pcst(&qg, &mut arena, &prizes);
            validate_tree(&qg, &arena, &r.tree);
        }
        // With a very large λ the tree must connect both prize nodes across the
        // zero-weight middle nodes (a Steiner-style connection).
        let prizes: Vec<f64> = (0..qg.node_count() as u32)
            .map(|v| qg.scaled_weight(v) as f64 * 100.0)
            .collect();
        let r = pcst(&qg, &mut arena, &prizes);
        assert_eq!(r.tree.node_count(), 6);
        assert!((r.tree.length - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one prize per node")]
    fn wrong_prize_length_panics() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let _ = pcst(&qg, &mut TupleArena::new(), &[1.0, 2.0]);
    }
}
