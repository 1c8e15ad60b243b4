//! Graph traversal: connected components and Dijkstra shortest distances.

use crate::graph::RoadNetwork;
use crate::node::NodeId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Connected components of the graph; each component is a list of node ids.
/// Components are returned largest first.
pub fn connected_components(graph: &RoadNetwork) -> Vec<Vec<NodeId>> {
    let mut visited = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for start in graph.node_ids() {
        if visited[start.index()] {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = VecDeque::new();
        visited[start.index()] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            comp.push(v);
            for &(n, _) in graph.neighbors(v) {
                if !visited[n.index()] {
                    visited[n.index()] = true;
                    queue.push_back(n);
                }
            }
        }
        components.push(comp);
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    components
}

/// Entry in the Dijkstra priority queue.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that the BinaryHeap (max-heap) pops the smallest distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of a single-source shortest-distance computation.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    dist: Vec<f64>,
}

impl ShortestPaths {
    /// Network distance from the source to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }
}

/// Dijkstra's algorithm from `source` over the nodes for which `allowed`
/// returns true.  All edge lengths must be non-negative, which the builder
/// guarantees.
pub fn dijkstra(
    graph: &RoadNetwork,
    source: NodeId,
    allowed: impl Fn(NodeId) -> bool,
) -> ShortestPaths {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut heap = BinaryHeap::new();
    if allowed(source) {
        dist[source.index()] = 0.0;
        heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
    }
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if d > dist[v.index()] {
            continue;
        }
        for &(u, e) in graph.neighbors(v) {
            if !allowed(u) {
                continue;
            }
            let nd = d + graph.length(e);
            if nd < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    ShortestPaths { dist }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::geo::Point;

    fn line_graph(n: usize) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 1.0).unwrap();
        }
        b.build().unwrap()
    }

    fn figure2() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        b.add_edge(v[0], v[1], 1.0).unwrap();
        b.add_edge(v[1], v[2], 3.1).unwrap();
        b.add_edge(v[2], v[3], 5.0).unwrap();
        b.add_edge(v[3], v[4], 2.8).unwrap();
        b.add_edge(v[4], v[5], 1.5).unwrap();
        b.add_edge(v[5], v[0], 3.2).unwrap();
        b.add_edge(v[1], v[5], 1.6).unwrap();
        b.add_edge(v[2], v[4], 3.4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn connected_components_of_disconnected_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let d = b.add_node(Point::new(10.0, 0.0));
        let e = b.add_node(Point::new(11.0, 0.0));
        let f = b.add_node(Point::new(12.0, 0.0));
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(d, e, 1.0).unwrap();
        b.add_edge(e, f, 1.0).unwrap();
        let g = b.build().unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3); // largest first
        assert_eq!(comps[1].len(), 2);
    }

    #[test]
    fn dijkstra_on_line_graph() {
        let g = line_graph(5);
        let sp = dijkstra(&g, NodeId(0), |_| true);
        assert_eq!(sp.distance(NodeId(4)), Some(4.0));
    }

    #[test]
    fn dijkstra_finds_shortest_route_in_figure2() {
        let g = figure2();
        let sp = dijkstra(&g, NodeId(0), |_| true);
        // v1 -> v2 -> v6: 1.0 + 1.6 = 2.6, shorter than the direct 3.2 edge.
        assert!((sp.distance(NodeId(5)).unwrap() - 2.6).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_unreachable_returns_none() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let _lonely = b.add_node(Point::new(5.0, 5.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, 1.0).unwrap();
        let g = b.build().unwrap();
        let sp = dijkstra(&g, a, |_| true);
        assert!(sp.distance(NodeId(1)).is_none());
    }

    #[test]
    fn dijkstra_with_restriction_avoids_blocked_nodes() {
        let g = figure2();
        // Block v2 (index 1): v1 to v6 must use the direct 3.2 edge.
        let sp = dijkstra(&g, NodeId(0), |n| n != NodeId(1));
        assert!((sp.distance(NodeId(5)).unwrap() - 3.2).abs() < 1e-12);
    }
}
