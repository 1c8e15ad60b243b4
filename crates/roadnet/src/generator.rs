//! Low-level synthetic road-network generators.
//!
//! These produce the topological "raw material" that `lcmsr-datagen` shapes
//! into the NY-like and USANW-like data sets.  They are deterministic given a
//! seed and only depend on a small internal xorshift PRNG so the substrate
//! crate stays dependency-free.

use crate::builder::GraphBuilder;
use crate::error::Result;
use crate::geo::Point;
use crate::graph::RoadNetwork;
use crate::node::NodeId;

/// A tiny deterministic xorshift64* PRNG used by the generators.
///
/// Not cryptographic; adequate for producing varied synthetic topologies.
#[derive(Debug, Clone)]
pub struct SplitRng {
    state: u64,
}

impl SplitRng {
    /// Creates a generator from a seed; a zero seed is remapped to a constant.
    pub fn new(seed: u64) -> Self {
        SplitRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// Parameters controlling [`perturbed_grid`].
#[derive(Debug, Clone)]
pub struct GridParams {
    /// Number of grid columns.
    pub cols: usize,
    /// Number of grid rows.
    pub rows: usize,
    /// Nominal spacing between adjacent intersections, in metres.
    pub spacing: f64,
    /// Fraction of the spacing used as random jitter on node positions (0 disables).
    pub jitter: f64,
    /// Probability of removing an interior grid edge, creating irregular blocks.
    pub drop_probability: f64,
    /// Probability of adding a diagonal shortcut edge within a block.
    pub diagonal_probability: f64,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for GridParams {
    fn default() -> Self {
        GridParams {
            cols: 32,
            rows: 32,
            spacing: 120.0,
            jitter: 0.15,
            drop_probability: 0.08,
            diagonal_probability: 0.05,
            seed: 42,
        }
    }
}

/// Generates a Manhattan-style perturbed grid network.
///
/// Node positions are jittered, a fraction of edges is dropped (keeping the
/// network connected by restoring edges when a drop would disconnect the
/// affected corner), and occasional diagonals model cut-through streets.
pub fn perturbed_grid(params: &GridParams) -> Result<RoadNetwork> {
    let mut rng = SplitRng::new(params.seed);
    let mut builder =
        GraphBuilder::with_capacity(params.cols * params.rows, params.cols * params.rows * 2);
    let mut ids = vec![Vec::with_capacity(params.cols); params.rows];
    for (r, row_ids) in ids.iter_mut().enumerate() {
        for c in 0..params.cols {
            let jitter_x = rng.range_f64(-1.0, 1.0) * params.jitter * params.spacing;
            let jitter_y = rng.range_f64(-1.0, 1.0) * params.jitter * params.spacing;
            let p = Point::new(
                c as f64 * params.spacing + jitter_x,
                r as f64 * params.spacing + jitter_y,
            );
            row_ids.push(builder.add_node(p));
        }
    }
    // Track degree so we never drop an edge that would isolate a node.
    let mut degree = vec![0usize; params.cols * params.rows];
    let mut planned: Vec<(NodeId, NodeId)> = Vec::new();
    for r in 0..params.rows {
        for c in 0..params.cols {
            if c + 1 < params.cols {
                planned.push((ids[r][c], ids[r][c + 1]));
            }
            if r + 1 < params.rows {
                planned.push((ids[r][c], ids[r + 1][c]));
            }
        }
    }
    for &(a, b) in &planned {
        degree[a.index()] += 1;
        degree[b.index()] += 1;
    }
    for (a, b) in planned {
        let droppable = degree[a.index()] > 1 && degree[b.index()] > 1;
        if droppable && rng.next_f64() < params.drop_probability {
            degree[a.index()] -= 1;
            degree[b.index()] -= 1;
            continue;
        }
        builder.add_edge_euclidean(a, b)?;
    }
    // Occasional diagonals.
    for r in 0..params.rows.saturating_sub(1) {
        for c in 0..params.cols.saturating_sub(1) {
            if rng.next_f64() < params.diagonal_probability {
                if rng.next_f64() < 0.5 {
                    builder.add_edge_euclidean(ids[r][c], ids[r + 1][c + 1])?;
                } else {
                    builder.add_edge_euclidean(ids[r][c + 1], ids[r + 1][c])?;
                }
            }
        }
    }
    builder.build()
}

/// Parameters controlling [`radial_network`].
#[derive(Debug, Clone)]
pub struct RadialParams {
    /// Number of concentric rings.
    pub rings: usize,
    /// Number of radial spokes.
    pub spokes: usize,
    /// Distance between consecutive rings, in metres.
    pub ring_spacing: f64,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for RadialParams {
    fn default() -> Self {
        RadialParams {
            rings: 8,
            spokes: 12,
            ring_spacing: 300.0,
            seed: 7,
        }
    }
}

/// Generates a ring-and-spoke ("European town") network: a centre node,
/// concentric rings connected along spokes, with slight radial jitter.
pub fn radial_network(params: &RadialParams) -> Result<RoadNetwork> {
    let mut rng = SplitRng::new(params.seed);
    let mut builder = GraphBuilder::new();
    let center = builder.add_node(Point::new(0.0, 0.0));
    let mut previous_ring: Vec<NodeId> = vec![center; params.spokes];
    for ring in 1..=params.rings {
        let radius = ring as f64 * params.ring_spacing * rng.range_f64(0.95, 1.05);
        let mut this_ring = Vec::with_capacity(params.spokes);
        for s in 0..params.spokes {
            let angle = s as f64 / params.spokes as f64 * std::f64::consts::TAU
                + rng.range_f64(-0.02, 0.02);
            let p = Point::new(radius * angle.cos(), radius * angle.sin());
            let id = builder.add_node(p);
            this_ring.push(id);
        }
        for s in 0..params.spokes {
            // Connect along the spoke (towards the centre ring below).
            builder.add_edge_euclidean(previous_ring[s], this_ring[s])?;
            // Connect around the ring.
            let next = (s + 1) % params.spokes;
            builder.add_edge_euclidean(this_ring[s], this_ring[next])?;
        }
        previous_ring = this_ring;
    }
    builder.build()
}

/// Connects the connected components of a network by adding the shortest
/// straight-line edges between component representatives until one component
/// remains.  Returns the (possibly unchanged) connected network.
pub fn connect_components(network: RoadNetwork) -> Result<RoadNetwork> {
    use crate::traversal::connected_components;
    let comps = connected_components(&network);
    if comps.len() <= 1 {
        return Ok(network);
    }
    let mut builder =
        GraphBuilder::with_capacity(network.node_count(), network.edge_count() + comps.len());
    for n in network.nodes() {
        builder.add_node(n.point);
    }
    for e in network.edges() {
        builder.add_edge(e.a, e.b, e.length)?;
    }
    // Greedily connect each component to the largest one via the closest node pair.
    let main = &comps[0];
    for other in comps.iter().skip(1) {
        let mut best: Option<(NodeId, NodeId, f64)> = None;
        for &a in main.iter().step_by(1 + main.len() / 512) {
            for &b in other.iter().step_by(1 + other.len() / 512) {
                let d = network.point(a).distance(&network.point(b));
                if best.map_or(true, |(_, _, bd)| d < bd) {
                    best = Some((a, b, d));
                }
            }
        }
        if let Some((a, b, d)) = best {
            builder.add_edge(a, b, d.max(1.0))?;
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::connected_components;

    #[test]
    fn split_rng_is_deterministic_and_in_range() {
        let mut a = SplitRng::new(123);
        let mut b = SplitRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitRng::new(5);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&y));
            assert!(r.below(10) < 10);
        }
        assert_eq!(SplitRng::new(0).state, SplitRng::new(0).state);
    }

    #[test]
    fn perturbed_grid_has_expected_size_and_is_mostly_connected() {
        let params = GridParams {
            cols: 10,
            rows: 10,
            seed: 1,
            ..GridParams::default()
        };
        let g = perturbed_grid(&params).unwrap();
        assert_eq!(g.node_count(), 100);
        assert!(g.edge_count() > 120, "edges = {}", g.edge_count());
        let comps = connected_components(&g);
        // Dropping never isolates a node; the largest component dominates.
        assert!(comps[0].len() >= 95, "largest component {}", comps[0].len());
    }

    #[test]
    fn perturbed_grid_is_deterministic_per_seed() {
        let params = GridParams {
            cols: 6,
            rows: 6,
            seed: 99,
            ..GridParams::default()
        };
        let g1 = perturbed_grid(&params).unwrap();
        let g2 = perturbed_grid(&params).unwrap();
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        for (a, b) in g1.nodes().iter().zip(g2.nodes()) {
            assert_eq!(a.point, b.point);
        }
        let other = perturbed_grid(&GridParams {
            seed: 100,
            cols: 6,
            rows: 6,
            ..GridParams::default()
        })
        .unwrap();
        // A different seed should change at least the geometry.
        let same_geometry = g1
            .nodes()
            .iter()
            .zip(other.nodes())
            .all(|(a, b)| a.point == b.point);
        assert!(!same_geometry);
    }

    #[test]
    fn grid_without_jitter_or_drops_is_regular() {
        let params = GridParams {
            cols: 5,
            rows: 4,
            spacing: 100.0,
            jitter: 0.0,
            drop_probability: 0.0,
            diagonal_probability: 0.0,
            seed: 3,
        };
        let g = perturbed_grid(&params).unwrap();
        assert_eq!(g.node_count(), 20);
        // 4*(5-1) horizontal + 5*(4-1) vertical = 16 + 15 = 31 edges.
        assert_eq!(g.edge_count(), 31);
        assert_eq!(connected_components(&g).len(), 1);
        assert!((g.min_edge_length().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn radial_network_is_connected() {
        let g = radial_network(&RadialParams::default()).unwrap();
        assert_eq!(g.node_count(), 1 + 8 * 12);
        assert_eq!(connected_components(&g).len(), 1);
    }

    #[test]
    fn connect_components_merges_everything() {
        let params = GridParams {
            cols: 12,
            rows: 12,
            drop_probability: 0.35,
            seed: 17,
            ..GridParams::default()
        };
        let g = perturbed_grid(&params).unwrap();
        let connected = connect_components(g).unwrap();
        assert_eq!(connected_components(&connected).len(), 1);
    }
}
