//! Synthetic road networks standing in for the paper's data sets.
//!
//! The paper evaluates on the DIMACS New York road network (264 346 nodes,
//! 733 846 arcs) and a north-west USA network (1 207 945 nodes, 2 840 208
//! arcs).  Neither can be redistributed here, so this module synthesises
//! networks with the same *structural* character at configurable scale:
//!
//! * [`ny_like`] — a dense Manhattan-style perturbed grid (short blocks,
//!   degree ≈ 3–4, compact extent);
//! * [`usanw_like`] — a sparse region of scattered towns (ring-and-spoke
//!   clusters) connected by long highway segments, covering a much larger
//!   extent with lower density.
//!
//! Both are deterministic given a seed, and `lcmsr-roadnet`'s DIMACS reader can
//! load the real files instead when they are available.

use lcmsr_roadnet::builder::GraphBuilder;
use lcmsr_roadnet::generator::{
    connect_components, perturbed_grid, radial_network, GridParams, RadialParams,
};
use lcmsr_roadnet::geo::Point;
use lcmsr_roadnet::graph::RoadNetwork;
use lcmsr_roadnet::node::NodeId;
use lcmsr_roadnet::Result;

/// Size presets for synthetic networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkScale {
    /// A few hundred nodes — unit tests and doc examples.
    Tiny,
    /// A few thousand nodes — integration tests.
    Small,
    /// Tens of thousands of nodes — benchmark harness default.
    Medium,
    /// Towards the paper's scale (hundreds of thousands of nodes); slow to build.
    Large,
    /// Past the paper's NY scale (a million nodes); the continent-scale tier
    /// exercised by `bench/benches/scale.rs` and the CI `scale-smoke` job.
    Huge,
}

impl NetworkScale {
    /// Approximate target node count of the preset.
    pub fn target_nodes(self) -> usize {
        match self {
            NetworkScale::Tiny => 400,
            NetworkScale::Small => 4_000,
            NetworkScale::Medium => 25_000,
            NetworkScale::Large => 250_000,
            NetworkScale::Huge => 1_000_000,
        }
    }
}

/// Generates a New-York-like network: a dense perturbed grid with ~120 m blocks.
pub fn ny_like(scale: NetworkScale, seed: u64) -> Result<RoadNetwork> {
    let target = scale.target_nodes();
    let side = (target as f64).sqrt().round() as usize;
    let params = GridParams {
        cols: side.max(4),
        rows: side.max(4),
        spacing: 120.0,
        jitter: 0.18,
        drop_probability: 0.08,
        diagonal_probability: 0.04,
        seed,
    };
    let grid = perturbed_grid(&params)?;
    connect_components(grid)
}

/// Generates a north-west-USA-like network: `towns × towns` ring-and-spoke
/// towns on a coarse lattice, linked by long highway edges, giving a sparser
/// network over a much larger extent than [`ny_like`].
pub fn usanw_like(scale: NetworkScale, seed: u64) -> Result<RoadNetwork> {
    let target = scale.target_nodes();
    // Each town has 1 + rings*spokes nodes; choose town count and size so the
    // total is close to the target.
    let (towns_per_side, rings, spokes) = match scale {
        NetworkScale::Tiny => (2, 4, 8),
        NetworkScale::Small => (4, 6, 10),
        NetworkScale::Medium => (7, 8, 12),
        NetworkScale::Large => (16, 12, 20),
        // 1024 towns * (1 + 24*40) ≈ 984k nodes, plus highway lattice.
        NetworkScale::Huge => (32, 24, 40),
    };
    let town_spacing = 8_000.0; // 8 km between town centres
    let mut builder = GraphBuilder::new();
    let mut town_centers: Vec<Vec<NodeId>> = Vec::new();
    let mut town_seed = seed;
    for ty in 0..towns_per_side {
        let mut row_centers = Vec::new();
        for tx in 0..towns_per_side {
            town_seed = town_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let town = radial_network(&RadialParams {
                rings,
                spokes,
                ring_spacing: 250.0,
                seed: town_seed,
            })?;
            let offset = Point::new(tx as f64 * town_spacing, ty as f64 * town_spacing);
            // Copy the town into the combined builder, remembering the id offset.
            let base = builder.node_count() as u32;
            for n in town.nodes() {
                builder.add_node(Point::new(n.point.x + offset.x, n.point.y + offset.y));
            }
            for e in town.edges() {
                builder.add_edge(NodeId(base + e.a.0), NodeId(base + e.b.0), e.length)?;
            }
            // The town centre is the first node of the radial network.
            row_centers.push(NodeId(base));
        }
        town_centers.push(row_centers);
    }
    // Highways between adjacent towns (grid lattice over town centres).
    for ty in 0..towns_per_side {
        for tx in 0..towns_per_side {
            if tx + 1 < towns_per_side {
                builder.add_edge_euclidean(town_centers[ty][tx], town_centers[ty][tx + 1])?;
            }
            if ty + 1 < towns_per_side {
                builder.add_edge_euclidean(town_centers[ty][tx], town_centers[ty + 1][tx])?;
            }
        }
    }
    let network = builder.build()?;
    debug_assert!(network.node_count() > 0);
    // Sanity: the preset should land within a factor of a few of the target.
    let _ = target;
    connect_components(network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcmsr_roadnet::traversal::connected_components;

    #[test]
    fn scale_targets_are_increasing() {
        assert!(NetworkScale::Tiny.target_nodes() < NetworkScale::Small.target_nodes());
        assert!(NetworkScale::Small.target_nodes() < NetworkScale::Medium.target_nodes());
        assert!(NetworkScale::Medium.target_nodes() < NetworkScale::Large.target_nodes());
        assert!(NetworkScale::Large.target_nodes() < NetworkScale::Huge.target_nodes());
        assert!(NetworkScale::Huge.target_nodes() >= 1_000_000);
    }

    #[test]
    fn ny_like_tiny_is_connected_and_dense() {
        let g = ny_like(NetworkScale::Tiny, 7).unwrap();
        assert!(
            g.node_count() >= 350 && g.node_count() <= 500,
            "nodes {}",
            g.node_count()
        );
        assert_eq!(connected_components(&g).len(), 1);
        let stats = g.stats();
        assert!(stats.avg_degree > 2.5, "avg degree {}", stats.avg_degree);
        // Manhattan-style blocks: average segment roughly 100-200 m.
        assert!(stats.avg_edge_length > 80.0 && stats.avg_edge_length < 250.0);
    }

    #[test]
    fn ny_like_is_deterministic() {
        let a = ny_like(NetworkScale::Tiny, 42).unwrap();
        let b = ny_like(NetworkScale::Tiny, 42).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let c = ny_like(NetworkScale::Tiny, 43).unwrap();
        let identical = a.node_count() == c.node_count()
            && a.edge_count() == c.edge_count()
            && a.nodes()
                .iter()
                .zip(c.nodes())
                .all(|(x, y)| x.point == y.point);
        assert!(!identical);
    }

    #[test]
    fn usanw_like_tiny_is_connected_and_sparser() {
        let g = usanw_like(NetworkScale::Tiny, 3).unwrap();
        assert!(g.node_count() > 100, "nodes {}", g.node_count());
        assert_eq!(connected_components(&g).len(), 1);
        let ny = ny_like(NetworkScale::Tiny, 3).unwrap();
        // USANW covers a much larger extent than NY at similar node counts.
        let usanw_area = g.bounding_rect().unwrap().area();
        let ny_area = ny.bounding_rect().unwrap().area();
        assert!(usanw_area > ny_area * 2.0);
    }

    #[test]
    fn usanw_like_small_has_multiple_towns() {
        let g = usanw_like(NetworkScale::Small, 9).unwrap();
        // 16 towns * (1 + 6*10) = 976 nodes.
        assert!(g.node_count() >= 900, "nodes {}", g.node_count());
        assert_eq!(connected_components(&g).len(), 1);
        // Highways exist: some edges are much longer than town streets.
        assert!(g.max_edge_length().unwrap() > 2_000.0);
    }
}
