//! Road-network nodes.
//!
//! Each node is a location on the network (Definition 1 in the paper): a road
//! junction, a dead end, or the point a geo-textual object maps to.  What a
//! node stands for is not stored; only its id and location are.

use crate::geo::Point;
use serde::{Deserialize, Serialize};

/// Identifier of a node in a [`crate::graph::RoadNetwork`].
///
/// Node ids are dense indices assigned by the builder, so they can be used
/// directly to index per-node arrays.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a usize suitable for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A node of the road network: its id and spatial location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoadNode {
    /// Identifier of the node.
    pub id: NodeId,
    /// Planar location of the node (metres, e.g. UTM).
    pub point: Point,
}

impl RoadNode {
    /// Creates a node at the given location.
    pub fn new(id: NodeId, point: Point) -> Self {
        RoadNode { id, point }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_conversions() {
        let id = NodeId::from(5u32);
        assert_eq!(id.index(), 5);
        assert_eq!(NodeId::from(5usize), id);
        assert_eq!(id.to_string(), "v5");
    }

    #[test]
    fn node_ids_order_by_value() {
        let mut ids = vec![NodeId(3), NodeId(1), NodeId(2)];
        ids.sort();
        assert_eq!(ids, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }
}
