//! The road-network graph (Definition 1: `G = (V, E, τ, λ)`).
//!
//! [`RoadNetwork`] is an immutable, validated graph built by
//! [`crate::builder::GraphBuilder`].  Nodes and edges live in flat vectors and
//! adjacency is stored in a CSR-style offset table so neighbourhood scans are
//! cache friendly even on networks with millions of nodes.

use crate::edge::{EdgeId, RoadEdge};
use crate::geo::{Point, Rect};
use crate::node::{NodeId, RoadNode};
use crate::spatial::NodeGrid;
use serde::{Deserialize, Serialize};

/// An immutable undirected road-network graph with spatial node positions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<RoadNode>,
    edges: Vec<RoadEdge>,
    /// CSR offsets: adjacency of node `i` is `adj[adj_offsets[i]..adj_offsets[i+1]]`.
    adj_offsets: Vec<u32>,
    /// Flattened adjacency entries: (neighbour node, connecting edge).
    adj: Vec<(NodeId, EdgeId)>,
    /// Uniform spatial grid over node locations; `Q.Λ` extraction and
    /// [`RoadNetwork::nearest_node`] query it, so their cost tracks the cells
    /// they touch, not `|V|`.
    node_grid: NodeGrid,
}

impl RoadNetwork {
    /// Assembles a network from already-validated parts.
    ///
    /// This is crate-internal; external users go through
    /// [`crate::builder::GraphBuilder`] which performs validation.
    pub(crate) fn from_parts(nodes: Vec<RoadNode>, edges: Vec<RoadEdge>) -> Self {
        let n = nodes.len();
        let mut degree = vec![0u32; n];
        for e in &edges {
            degree[e.a.index()] += 1;
            degree[e.b.index()] += 1;
        }
        let mut adj_offsets = Vec::with_capacity(n + 1);
        adj_offsets.push(0u32);
        let mut acc = 0u32;
        for d in &degree {
            acc += d;
            adj_offsets.push(acc);
        }
        let mut cursor: Vec<u32> = adj_offsets[..n].to_vec();
        let mut adj = vec![(NodeId(0), EdgeId(0)); edges.len() * 2];
        for e in &edges {
            let ia = e.a.index();
            adj[cursor[ia] as usize] = (e.b, e.id);
            cursor[ia] += 1;
            let ib = e.b.index();
            adj[cursor[ib] as usize] = (e.a, e.id);
            cursor[ib] += 1;
        }
        let node_grid = NodeGrid::build(&nodes);
        RoadNetwork {
            nodes,
            edges,
            adj_offsets,
            adj,
            node_grid,
        }
    }

    /// The spatial grid bucketing node ids by cell (built once at
    /// construction).  Prepare-phase consumers use it to confine node
    /// gathering to a query rectangle's cell cover.
    pub fn node_grid(&self) -> &NodeGrid {
        &self.node_grid
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges (road segments) in the network.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &RoadNode {
        &self.nodes[id.index()]
    }

    /// Returns the edge with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> &RoadEdge {
        &self.edges[id.index()]
    }

    /// Location of a node (the spatial mapping λ).
    pub fn point(&self, id: NodeId) -> Point {
        self.nodes[id.index()].point
    }

    /// Length of an edge (the distance function τ).
    pub fn length(&self, id: EdgeId) -> f64 {
        self.edges[id.index()].length
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[RoadNode] {
        &self.nodes
    }

    /// All edges, in id order.
    pub fn edges(&self) -> &[RoadEdge] {
        &self.edges
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Neighbours of `node` as `(neighbour, edge)` pairs.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, EdgeId)] {
        let i = node.index();
        let start = self.adj_offsets[i] as usize;
        let end = self.adj_offsets[i + 1] as usize;
        &self.adj[start..end]
    }

    /// Degree (number of incident road segments) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).len()
    }

    /// Finds the edge connecting `a` and `b`, if any.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.neighbors(a)
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, e)| *e)
    }

    /// Total length of all road segments in the network, in metres.
    pub fn total_length(&self) -> f64 {
        self.edges.iter().map(|e| e.length).sum()
    }

    /// The shortest road-segment length in the network (`d_min` in the paper's
    /// complexity analysis), or `None` for an edgeless network.
    pub fn min_edge_length(&self) -> Option<f64> {
        self.edges
            .iter()
            .map(|e| e.length)
            .fold(None, |acc, l| match acc {
                None => Some(l),
                Some(m) => Some(m.min(l)),
            })
    }

    /// The longest road-segment length (`τ_max` used by the Greedy algorithm).
    pub fn max_edge_length(&self) -> Option<f64> {
        self.edges
            .iter()
            .map(|e| e.length)
            .fold(None, |acc, l| match acc {
                None => Some(l),
                Some(m) => Some(m.max(l)),
            })
    }

    /// Bounding rectangle of all node locations, or `None` for an empty network.
    pub fn bounding_rect(&self) -> Option<Rect> {
        Rect::bounding(self.nodes.iter().map(|n| n.point))
    }

    /// Node ids whose location falls inside `rect` (boundary inclusive), in
    /// ascending id order.  Served from the node grid: only the rectangle's
    /// cell cover is visited, not the whole node table.
    pub fn nodes_in_rect(&self, rect: &Rect) -> Vec<NodeId> {
        let mut out = Vec::new();
        if let Some(cover) = self.node_grid.cover(rect) {
            self.node_grid.candidates_in_cover(&cover, &mut out);
            out.retain(|id| rect.contains(&self.nodes[id.index()].point));
            out.sort_unstable();
        }
        out
    }

    /// The node nearest to `p` by Euclidean distance, the lower id on a
    /// tie, or `None` for an empty network.  Answered by a ring search over
    /// the node grid, so the cost tracks the cells around `p`, not `|V|`.
    pub fn nearest_node(&self, p: &Point) -> Option<NodeId> {
        self.node_grid.nearest(&self.nodes, p)
    }

    /// Summary statistics of the network, useful for logging and experiments.
    pub fn stats(&self) -> NetworkStats {
        let n = self.node_count();
        let m = self.edge_count();
        let avg_degree = if n == 0 {
            0.0
        } else {
            2.0 * m as f64 / n as f64
        };
        let avg_edge_length = if m == 0 {
            0.0
        } else {
            self.total_length() / m as f64
        };
        NetworkStats {
            nodes: n,
            edges: m,
            avg_degree,
            avg_edge_length,
            total_length: self.total_length(),
            bounding_rect: self.bounding_rect(),
        }
    }
}

/// Aggregate statistics describing a road network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Average node degree.
    pub avg_degree: f64,
    /// Average road-segment length in metres.
    pub avg_edge_length: f64,
    /// Total road length in metres.
    pub total_length: f64,
    /// Bounding rectangle of the node locations.
    pub bounding_rect: Option<Rect>,
}

impl std::fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes, {} edges, avg degree {:.2}, avg segment {:.1} m, total {:.1} km",
            self.nodes,
            self.edges,
            self.avg_degree,
            self.avg_edge_length,
            self.total_length / 1000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// Builds the 6-node example graph of Figure 2 in the paper.
    pub(crate) fn figure2_graph() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        // Coordinates are arbitrary but distinct; lengths follow Figure 2.
        let v1 = b.add_node(Point::new(0.0, 2.0));
        let v2 = b.add_node(Point::new(2.0, 3.0));
        let v3 = b.add_node(Point::new(4.0, 3.0));
        let v4 = b.add_node(Point::new(5.0, 1.0));
        let v5 = b.add_node(Point::new(3.0, 0.0));
        let v6 = b.add_node(Point::new(1.5, 1.0));
        b.add_edge(v1, v2, 1.0).unwrap();
        b.add_edge(v2, v3, 3.1).unwrap();
        b.add_edge(v3, v4, 5.0).unwrap();
        b.add_edge(v4, v5, 2.8).unwrap();
        b.add_edge(v5, v6, 1.5).unwrap();
        b.add_edge(v6, v1, 3.2).unwrap();
        b.add_edge(v2, v6, 1.6).unwrap();
        b.add_edge(v3, v5, 3.4).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn figure2_graph_has_expected_shape() {
        let g = figure2_graph();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.degree(NodeId(1)), 3); // v2 connects v1, v3, v6
        assert_eq!(
            g.edge_between(NodeId(0), NodeId(1)).map(|e| g.length(e)),
            Some(1.0)
        );
        assert!(g.edge_between(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = figure2_graph();
        for e in g.edges() {
            assert!(g
                .neighbors(e.a)
                .iter()
                .any(|(n, id)| *n == e.b && *id == e.id));
            assert!(g
                .neighbors(e.b)
                .iter()
                .any(|(n, id)| *n == e.a && *id == e.id));
        }
    }

    #[test]
    fn length_extremes_and_total() {
        let g = figure2_graph();
        assert_eq!(g.min_edge_length(), Some(1.0));
        assert_eq!(g.max_edge_length(), Some(5.0));
        let total: f64 = g.edges().iter().map(|e| e.length).sum();
        assert!((g.total_length() - total).abs() < 1e-12);
    }

    #[test]
    fn nodes_in_rect_filters_by_location() {
        let g = figure2_graph();
        let rect = Rect::new(0.0, 0.0, 2.0, 3.0);
        let inside = g.nodes_in_rect(&rect);
        assert!(inside.contains(&NodeId(0)));
        assert!(inside.contains(&NodeId(1)));
        assert!(inside.contains(&NodeId(5)));
        assert!(!inside.contains(&NodeId(3)));
    }

    #[test]
    fn nearest_node_finds_closest() {
        let g = figure2_graph();
        assert_eq!(g.nearest_node(&Point::new(0.1, 2.1)), Some(NodeId(0)));
        assert_eq!(g.nearest_node(&Point::new(5.0, 1.0)), Some(NodeId(3)));
    }

    /// The order `nearest_node` must follow: least squared distance, then
    /// lowest id, found by scanning every node.
    fn nearest_by_scan(g: &RoadNetwork, p: &Point) -> Option<NodeId> {
        g.nodes()
            .iter()
            .map(|n| (n.point.distance_sq(p), n.id))
            .min_by(|a, b| a.partial_cmp(b).expect("finite probe"))
            .map(|(_, id)| id)
    }

    fn assert_nearest_matches_scan(g: &RoadNetwork, probes: &[Point]) {
        for p in probes {
            assert_eq!(g.nearest_node(p), nearest_by_scan(g, p), "probe {p:?}");
        }
    }

    fn network_of(points: &[(f64, f64)]) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for &(x, y) in points {
            b.add_node(Point::new(x, y));
        }
        b.build().unwrap()
    }

    /// An `n × n` lattice of nodes `spacing` apart, ids row-major.
    fn lattice(n: usize, spacing: f64) -> RoadNetwork {
        let points: Vec<(f64, f64)> = (0..n * n)
            .map(|i| ((i % n) as f64 * spacing, (i / n) as f64 * spacing))
            .collect();
        network_of(&points)
    }

    #[test]
    fn nearest_node_matches_a_linear_scan_on_a_lattice() {
        let g = lattice(8, 50.0);
        assert_nearest_matches_scan(
            &g,
            &[
                Point::new(0.0, 0.0),
                Point::new(351.0, 349.0),
                Point::new(123.4, 222.2),
                Point::new(-50.0, -50.0),
                Point::new(1000.0, 1000.0),
                Point::new(175.0, 25.0),
                Point::new(-400.0, 120.0),
                Point::new(120.0, 5000.0),
            ],
        );
    }

    #[test]
    fn nearest_node_matches_a_linear_scan_on_random_probes() {
        // Deterministic pseudo-random probes over a non-uniform network.
        let g = network_of(&[
            (0.0, 0.0),
            (13.0, 94.0),
            (205.0, 33.0),
            (87.0, 187.0),
            (300.0, 300.0),
            (150.0, 150.0),
            (40.0, 260.0),
            (270.0, 120.0),
        ]);
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 20) as f64 % 400.0 - 50.0
        };
        let probes: Vec<Point> = (0..200).map(|_| Point::new(next(), next())).collect();
        assert_nearest_matches_scan(&g, &probes);
    }

    #[test]
    fn nearest_node_maps_points_in_input_order() {
        let g = lattice(4, 100.0);
        let points = [
            Point::new(10.0, 10.0),
            Point::new(290.0, 290.0),
            // Equidistant from nodes 1 and 2: the lower id wins.
            Point::new(150.0, 0.0),
        ];
        let mapped: Vec<NodeId> = points.iter().filter_map(|p| g.nearest_node(p)).collect();
        assert_eq!(mapped, vec![NodeId(0), NodeId(15), NodeId(1)]);
    }

    #[test]
    fn nearest_node_breaks_ties_by_lowest_id() {
        // Coincident nodes: the lowest of them wins wherever the probe is.
        let g = network_of(&[(9.0, 9.0), (5.0, 5.0), (5.0, 5.0), (5.0, 5.0), (0.0, 0.0)]);
        assert_eq!(g.nearest_node(&Point::new(5.0, 5.0)), Some(NodeId(1)));
        assert_eq!(g.nearest_node(&Point::new(4.0, 6.0)), Some(NodeId(1)));
        assert_nearest_matches_scan(&g, &[Point::new(7.0, 7.0), Point::new(2.5, 2.5)]);

        // 32 nodes over [0, 400]² make a 2 × 2 grid of 200 m cells.  The
        // probe's own cell holds node 1 at 50 m; node 0 sits on the next
        // cell's edge, also at 50 m, exactly the distance to that cell.
        let mut points = vec![(200.0, 100.0), (100.0, 100.0), (0.0, 0.0)];
        points.resize(32, (400.0, 400.0));
        let g = network_of(&points);
        assert_eq!(g.node_grid().dimensions(), (2, 2));
        assert_eq!(g.node_grid().cell_size(), 200.0);
        assert_eq!(g.nearest_node(&Point::new(150.0, 100.0)), Some(NodeId(0)));
        // Probes on the cell boundaries.
        assert_nearest_matches_scan(
            &g,
            &[
                Point::new(200.0, 200.0),
                Point::new(200.0, 0.0),
                Point::new(0.0, 200.0),
                Point::new(200.0, 100.0),
                Point::new(400.0, 200.0),
                Point::new(200.0, 400.0),
            ],
        );
    }

    #[test]
    fn nearest_node_matches_a_linear_scan_on_cell_boundaries() {
        let g = lattice(9, 37.0);
        let grid = g.node_grid();
        let (cols, rows) = grid.dimensions();
        let cell = grid.cell_size();
        let mut probes = Vec::new();
        for c in 0..=cols {
            for r in 0..=rows {
                let (x, y) = (f64::from(c) * cell, f64::from(r) * cell);
                probes.extend([Point::new(x, y), Point::new(x, y + cell / 2.0)]);
            }
        }
        assert_nearest_matches_scan(&g, &probes);
    }

    #[test]
    fn nearest_node_handles_degenerate_extents() {
        let collinear: Vec<(f64, f64)> = (0..50).map(|i| (f64::from(i) * 10.0, 0.0)).collect();
        let g = network_of(&collinear);
        assert_nearest_matches_scan(
            &g,
            &[
                Point::new(-5.0, 0.0),
                Point::new(105.0, 3.0),
                Point::new(251.0, -40.0),
                Point::new(700.0, 0.0),
            ],
        );
        assert_eq!(g.nearest_node(&Point::new(105.0, 3.0)), Some(NodeId(10)));

        let single = network_of(&[(3.0, 4.0)]);
        for p in [
            Point::new(3.0, 4.0),
            Point::new(-100.0, 50.0),
            Point::new(1e6, -1e6),
        ] {
            assert_eq!(single.nearest_node(&p), Some(NodeId(0)));
        }
    }

    #[test]
    fn stats_report_consistent_numbers() {
        let g = figure2_graph();
        let s = g.stats();
        assert_eq!(s.nodes, 6);
        assert_eq!(s.edges, 8);
        assert!((s.avg_degree - 16.0 / 6.0).abs() < 1e-12);
        assert!(s.bounding_rect.is_some());
        assert!(s.to_string().contains("6 nodes"));
    }

    #[test]
    fn empty_network_edge_cases() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.bounding_rect().is_none());
        assert!(g.min_edge_length().is_none());
        assert!(g.nearest_node(&Point::new(0.0, 0.0)).is_none());
        assert_eq!(g.stats().avg_degree, 0.0);
    }
}
