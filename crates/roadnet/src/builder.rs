//! Incremental, validating construction of [`RoadNetwork`]s.

use crate::edge::{EdgeId, RoadEdge};
use crate::error::{Result, RoadNetError};
use crate::geo::Point;
use crate::graph::RoadNetwork;
use crate::node::{NodeId, RoadNode};
use std::collections::HashMap;

/// Builder that accumulates nodes and edges, validates them, and produces an
/// immutable [`RoadNetwork`].
///
/// The builder
/// * assigns dense node/edge ids,
/// * rejects self-loops, non-finite coordinates and non-positive lengths, and
/// * deduplicates parallel edges keeping the shortest one (real road data sets
///   such as DIMACS contain both directions of each arc and occasional
///   duplicates).
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<RoadNode>,
    edges: Vec<RoadEdge>,
    /// Maps normalised endpoint pairs to the edge index, for deduplication.
    edge_index: HashMap<(NodeId, NodeId), usize>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-allocated capacity for `nodes` nodes and
    /// `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            edge_index: HashMap::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (deduplicated) edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node at `point` and returns its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(RoadNode::new(id, point));
        id
    }

    /// Adds an undirected road segment of the given length between `a` and `b`.
    ///
    /// If an edge between the two nodes already exists, the shorter length is
    /// kept and the existing edge id is returned.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, length: f64) -> Result<EdgeId> {
        if a.index() >= self.nodes.len() {
            return Err(RoadNetError::UnknownNode { node: a.0 });
        }
        if b.index() >= self.nodes.len() {
            return Err(RoadNetError::UnknownNode { node: b.0 });
        }
        if a == b {
            return Err(RoadNetError::SelfLoop { node: a.0 });
        }
        if !(length.is_finite() && length > 0.0) {
            return Err(RoadNetError::InvalidLength {
                a: a.0,
                b: b.0,
                length,
            });
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&idx) = self.edge_index.get(&key) {
            if length < self.edges[idx].length {
                self.edges[idx].length = length;
            }
            return Ok(self.edges[idx].id);
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(RoadEdge::new(id, a, b, length));
        self.edge_index.insert(key, id.index());
        Ok(id)
    }

    /// Adds an edge whose length is the Euclidean distance between its endpoints.
    pub fn add_edge_euclidean(&mut self, a: NodeId, b: NodeId) -> Result<EdgeId> {
        if a.index() >= self.nodes.len() {
            return Err(RoadNetError::UnknownNode { node: a.0 });
        }
        if b.index() >= self.nodes.len() {
            return Err(RoadNetError::UnknownNode { node: b.0 });
        }
        let length = self.nodes[a.index()]
            .point
            .distance(&self.nodes[b.index()].point);
        self.add_edge(a, b, length)
    }

    /// Validates all accumulated data and produces the immutable network.
    pub fn build(self) -> Result<RoadNetwork> {
        for n in &self.nodes {
            if !n.point.is_finite() {
                return Err(RoadNetError::InvalidCoordinate { node: n.id.0 });
            }
        }
        Ok(RoadNetwork::from_parts(self.nodes, self.edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_network() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let d = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, d, 1.0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn rejects_unknown_nodes_self_loops_and_bad_lengths() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        assert!(matches!(
            b.add_edge(a, NodeId(9), 1.0),
            Err(RoadNetError::UnknownNode { node: 9 })
        ));
        assert!(matches!(
            b.add_edge(a, a, 1.0),
            Err(RoadNetError::SelfLoop { .. })
        ));
        assert!(matches!(
            b.add_edge(a, c, 0.0),
            Err(RoadNetError::InvalidLength { .. })
        ));
        assert!(matches!(
            b.add_edge(a, c, f64::NAN),
            Err(RoadNetError::InvalidLength { .. })
        ));
        assert!(matches!(
            b.add_edge(a, c, -2.0),
            Err(RoadNetError::InvalidLength { .. })
        ));
    }

    #[test]
    fn deduplicates_parallel_edges_keeping_shortest() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let e1 = b.add_edge(a, c, 5.0).unwrap();
        let e2 = b.add_edge(c, a, 3.0).unwrap();
        assert_eq!(e1, e2);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.length(e1), 3.0);
    }

    #[test]
    fn euclidean_edge_uses_node_distance() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(3.0, 4.0));
        let e = b.add_edge_euclidean(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.length(e), 5.0);
    }

    #[test]
    fn rejects_non_finite_coordinates_on_build() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(f64::INFINITY, 0.0));
        assert!(matches!(
            b.build(),
            Err(RoadNetError::InvalidCoordinate { node: 0 })
        ));
    }

    #[test]
    fn with_capacity_builds_identically() {
        let mut b = GraphBuilder::with_capacity(10, 10);
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, 1.0).unwrap();
        assert_eq!(b.node_count(), 2);
        assert_eq!(b.edge_count(), 1);
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 2);
    }
}
