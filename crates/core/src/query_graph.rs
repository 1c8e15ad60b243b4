//! The query graph: the subgraph induced by `Q.Λ` with per-node query weights
//! and their integer scalings.
//!
//! All LCMSR algorithms operate on this structure.  Nodes and edges are
//! re-indexed into dense *local* ids (`u32`) so per-node state can live in flat
//! vectors even when the underlying network has millions of nodes; results are
//! translated back to global [`NodeId`]/[`EdgeId`]s when a [`crate::region::Region`]
//! is produced.  Local node `i` is node `i` of the [`RegionView`] the graph was
//! built from.
//!
//! The weight scaling of Section 4.1 is built in: `θ = α·σ_max/|V_Q|` and
//! `σ̂_v = ⌊σ_v/θ⌋` (Example 2 / Theorem 2).

use crate::error::{LcmsrError, Result};
use lcmsr_geotext::collection::NodeWeights;
use lcmsr_roadnet::edge::EdgeId;
use lcmsr_roadnet::node::NodeId;
use lcmsr_roadnet::subgraph::RegionView;

/// A local edge of the query graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QgEdge {
    /// First endpoint (local node id).
    pub a: u32,
    /// Second endpoint (local node id).
    pub b: u32,
    /// Road-segment length in metres.
    pub length: f64,
    /// The corresponding global edge id.
    pub global: EdgeId,
}

impl QgEdge {
    /// Given one endpoint, returns the other.
    #[inline]
    pub fn other(&self, from: u32) -> u32 {
        if from == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// The query graph: `Q.Λ`-restricted topology plus per-node weights `σ_v` and
/// scaled weights `σ̂_v`.
///
/// Adjacency is stored as a flat CSR (compressed sparse row) structure —
/// `adj_offsets[v]..adj_offsets[v+1]` indexes the `(neighbour, edge)` pairs of
/// node `v` inside one contiguous `adj_entries` array — so neighbour scans are
/// cache-friendly and the whole graph is a handful of flat allocations that a
/// [`QueryGraphBuilder`] can recycle across queries.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    node_ids: Vec<NodeId>,
    edges: Vec<QgEdge>,
    /// CSR row offsets into `adj_entries`; length `node_count() + 1`.
    adj_offsets: Vec<u32>,
    /// CSR payload: `(neighbour, edge)` pairs, grouped by source node.
    adj_entries: Vec<(u32, u32)>,
    weights: Vec<f64>,
    scaled: Vec<u64>,
    theta: f64,
    alpha: f64,
    delta: f64,
    sigma_max: f64,
}

impl QueryGraph {
    /// An empty shell whose vectors seed a builder's first build.  Not a
    /// valid graph on its own (the CSR invariant `adj_offsets.len() ==
    /// node_count() + 1` does not hold), which is why this is private:
    /// [`QueryGraphBuilder::build`] populates every field before returning.
    fn empty() -> Self {
        QueryGraph {
            node_ids: Vec::new(),
            edges: Vec::new(),
            adj_offsets: Vec::new(),
            adj_entries: Vec::new(),
            weights: Vec::new(),
            scaled: Vec::new(),
            theta: 0.0,
            alpha: 0.0,
            delta: 0.0,
            sigma_max: 0.0,
        }
    }

    /// Builds the query graph from a region view, the per-node query weights,
    /// the length constraint `delta` (metres) and the scaling parameter `alpha`.
    ///
    /// `alpha` must be positive; the paper uses values below 1 for APP and
    /// values in the hundreds for TGEN.
    ///
    /// This is the one-shot entry point; batched callers should hold a
    /// [`QueryGraphBuilder`] and let it recycle allocations across queries.
    pub fn build(
        view: &RegionView<'_>,
        node_weights: &NodeWeights,
        delta: f64,
        alpha: f64,
    ) -> Result<Self> {
        QueryGraphBuilder::new().build(view, node_weights, delta, alpha)
    }

    /// Recomputes the integer scaling with a new `alpha` (θ = α·σ_max/|V_Q|,
    /// σ̂_v = ⌊σ_v/θ⌋).  Used because APP and TGEN employ very different α values.
    pub fn rescale(&mut self, alpha: f64) -> Result<()> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(LcmsrError::InvalidParameter {
                name: "alpha",
                value: alpha,
                expected: "a positive finite number",
            });
        }
        self.alpha = alpha;
        self.theta = if self.sigma_max > 0.0 {
            alpha * self.sigma_max / self.node_count() as f64
        } else {
            0.0
        };
        let theta = self.theta;
        self.scaled.clear();
        self.scaled.extend(self.weights.iter().map(|&w| {
            // A zero weight, most of a view's nodes, scales to 0 without the
            // division: `(0.0 / θ + 1e-9).floor()` is 0.
            if theta > 0.0 && w != 0.0 {
                // A tiny epsilon guards against 0.4/0.2 = 1.999999… style
                // floating-point artefacts at exact multiples of θ.
                (w / theta + 1e-9).floor() as u64
            } else {
                0
            }
        }));
        Ok(())
    }

    /// Number of nodes in the query region (`|V_Q|`).
    pub fn node_count(&self) -> usize {
        self.node_ids.len()
    }

    /// Number of edges in the query region (`|E_Q|`).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The length constraint `Q.∆` in metres.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The scaling parameter α currently in effect.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The scaling factor θ = α·σ_max/|V_Q| (0 when no node is relevant).
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The maximum original node weight σ_max in the query region.
    pub fn sigma_max(&self) -> f64 {
        self.sigma_max
    }

    /// The original weight σ_v of a local node.
    #[inline]
    pub fn weight(&self, node: u32) -> f64 {
        self.weights[node as usize]
    }

    /// The scaled weight σ̂_v of a local node.
    #[inline]
    pub fn scaled_weight(&self, node: u32) -> u64 {
        self.scaled[node as usize]
    }

    /// The global id of a local node.
    #[inline]
    pub fn global_node(&self, node: u32) -> NodeId {
        self.node_ids[node as usize]
    }

    /// The local edges.
    pub fn edges(&self) -> &[QgEdge] {
        &self.edges
    }

    /// A local edge by id.
    #[inline]
    pub fn edge(&self, edge: u32) -> &QgEdge {
        &self.edges[edge as usize]
    }

    /// Neighbours of a local node as `(neighbour, edge)` pairs (a slice of the
    /// flat CSR adjacency array).
    #[inline]
    pub fn neighbors(&self, node: u32) -> &[(u32, u32)] {
        let start = self.adj_offsets[node as usize] as usize;
        let end = self.adj_offsets[node as usize + 1] as usize;
        &self.adj_entries[start..end]
    }

    /// Iterator over all local node ids.
    pub fn node_indices(&self) -> impl Iterator<Item = u32> {
        0..self.node_ids.len() as u32
    }

    /// Number of nodes with a positive weight (the "relevant" nodes).
    pub fn relevant_node_count(&self) -> usize {
        self.weights.iter().filter(|&&w| w > 0.0).count()
    }

    /// Sum of all scaled node weights in the query region.
    pub fn total_scaled_weight(&self) -> u64 {
        self.scaled.iter().sum()
    }

    /// The node with the largest original weight, or `None` when no node is relevant.
    pub fn max_weight_node(&self) -> Option<u32> {
        if self.sigma_max <= 0.0 {
            return None;
        }
        self.node_indices().max_by(|&a, &b| {
            self.weights[a as usize]
                .partial_cmp(&self.weights[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// The maximum edge length in the query region (`τ_max`), or 0 for an edgeless region.
    pub fn max_edge_length(&self) -> f64 {
        self.edges.iter().map(|e| e.length).fold(0.0, f64::max)
    }

    /// Lower bound `⌊|V_Q|/α⌋` of Lemma 5 (equal to the maximum scaled node weight).
    pub fn scaled_weight_lower_bound(&self) -> u64 {
        (self.node_count() as f64 / self.alpha).floor() as u64
    }

    /// Upper bound `|V_Q|·⌊|V_Q|/α⌋` of Lemma 5.
    pub fn scaled_weight_upper_bound(&self) -> u64 {
        self.node_count() as u64 * self.scaled_weight_lower_bound()
    }
}

/// Reusable workspace for building [`QueryGraph`]s.
///
/// The builder keeps no node-id map: a graph's local node ids are the
/// [`RegionView`]'s, so the view's member table resolves every edge endpoint
/// in O(1).  What it keeps across calls are the vectors backing the graph: a
/// pooled `QueryGraph` donates them to the next build via
/// [`QueryGraphBuilder::recycle`].  Repeated `build`/`recycle` cycles over the
/// same network therefore allocate near-zero once the buffers have grown to
/// the workload's high-water mark.  Each [`crate::engine::QueryWorkspace`]
/// owns one builder.
#[derive(Debug, Clone, Default)]
pub struct QueryGraphBuilder {
    /// CSR fill cursors (reused between builds).
    cursor: Vec<u32>,
    /// Recycled graph whose allocations seed the next build.
    pool: Option<QueryGraph>,
}

impl QueryGraphBuilder {
    /// Creates an empty builder; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a spent graph's allocations to the pool for the next build.
    pub fn recycle(&mut self, graph: QueryGraph) {
        self.pool = Some(graph);
    }

    /// Builds a query graph (see [`QueryGraph::build`]), reusing this
    /// builder's scratch space and any pooled allocations.
    pub fn build(
        &mut self,
        view: &RegionView<'_>,
        node_weights: &NodeWeights,
        delta: f64,
        alpha: f64,
    ) -> Result<QueryGraph> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(LcmsrError::InvalidParameter {
                name: "alpha",
                value: alpha,
                expected: "a positive finite number",
            });
        }
        if !(delta.is_finite() && delta > 0.0) {
            return Err(LcmsrError::InvalidDelta { delta });
        }
        if view.node_count() == 0 {
            return Err(LcmsrError::EmptyQueryRegion);
        }
        let graph = view.graph();
        let n = view.node_count();

        let mut qg = self.pool.take().unwrap_or_else(QueryGraph::empty);
        qg.node_ids.clear();
        qg.edges.clear();
        qg.adj_offsets.clear();
        qg.adj_entries.clear();
        qg.weights.clear();
        qg.scaled.clear();

        qg.node_ids.extend_from_slice(view.nodes());
        // One merge walk: view nodes and weighted nodes are both id-sorted.
        let mut weighted = node_weights.by_node().iter().peekable();
        qg.weights.extend(qg.node_ids.iter().map(|&id| {
            while weighted.next_if(|&&(node, _)| node < id).is_some() {}
            weighted
                .next_if(|&&(node, _)| node == id)
                .map_or(0.0, |&(_, w)| w.max(0.0))
        }));
        qg.sigma_max = qg.weights.iter().fold(0.0f64, |a, &b| a.max(b));
        qg.delta = delta;

        // Local edges plus CSR degree counts in one pass.  `node_ids` copies
        // the view's node list, so the view's member table gives each
        // endpoint's local id.
        let local = |id: NodeId| {
            view.local_index(id)
                .expect("view edge endpoint inside the view") as u32
        };
        qg.adj_offsets.resize(n + 1, 0);
        qg.edges.reserve(view.edge_count());
        for &eid in view.edges() {
            let e = graph.edge(eid);
            let (a, b) = (local(e.a), local(e.b));
            qg.edges.push(QgEdge {
                a,
                b,
                length: e.length,
                global: eid,
            });
            qg.adj_offsets[a as usize + 1] += 1;
            qg.adj_offsets[b as usize + 1] += 1;
        }
        for i in 1..=n {
            qg.adj_offsets[i] += qg.adj_offsets[i - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&qg.adj_offsets[..n]);
        qg.adj_entries.resize(2 * qg.edges.len(), (0, 0));
        for (le, edge) in qg.edges.iter().enumerate() {
            let ca = &mut self.cursor[edge.a as usize];
            qg.adj_entries[*ca as usize] = (edge.b, le as u32);
            *ca += 1;
            let cb = &mut self.cursor[edge.b as usize];
            qg.adj_entries[*cb as usize] = (edge.a, le as u32);
            *cb += 1;
        }

        qg.rescale(alpha)?;
        Ok(qg)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures: the Figure-2 graph of the paper with its node weights.

    use super::*;
    use lcmsr_geotext::collection::NodeWeights;
    use lcmsr_roadnet::builder::GraphBuilder;
    use lcmsr_roadnet::geo::Point;
    use lcmsr_roadnet::graph::RoadNetwork;

    /// Builds the example graph of Figure 2 (6 nodes, 8 edges).  The figure
    /// prints the weight multiset {0.2, 0.2, 0.2, 0.3, 0.4, 0.4}; we assign
    /// v1=0.2, v2=0.2, v3=0.4, v4=0.4, v5=0.3, v6=0.2, the assignment under
    /// which the text's worked example holds: with Q.∆ = 6 the optimal region
    /// is R.V = {v2, v4, v5, v6} with weight 1.1 and length 5.9, and no other
    /// feasible region reaches weight 1.1.
    pub fn figure2() -> (RoadNetwork, NodeWeights) {
        let mut b = GraphBuilder::new();
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
        let network = b.build().unwrap();
        let values = [0.2, 0.2, 0.4, 0.4, 0.3, 0.2];
        let weights = NodeWeights::from_node_weights(
            values
                .iter()
                .enumerate()
                .map(|(i, &w)| (NodeId(i as u32), w)),
        );
        (network, weights)
    }

    /// Query graph over the whole Figure-2 graph with the given ∆ and α.
    pub fn figure2_query_graph(delta: f64, alpha: f64) -> (RoadNetwork, QueryGraph) {
        let (network, weights) = figure2();
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &weights, delta, alpha).unwrap();
        (network, qg)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn builds_local_topology() {
        let (_network, qg) = figure2_query_graph(6.0, 0.15);
        assert_eq!(qg.node_count(), 6);
        assert_eq!(qg.edge_count(), 8);
        assert_eq!(qg.delta(), 6.0);
        // v2 (local 1) connects to v1, v3, v6.
        assert_eq!(qg.neighbors(1).len(), 3);
        // Local ids follow the view's id-sorted node list.
        let globals: Vec<NodeId> = qg.node_indices().map(|v| qg.global_node(v)).collect();
        assert_eq!(globals, (0..6).map(NodeId).collect::<Vec<_>>());
        assert_eq!(qg.max_edge_length(), 5.0);
        let min = qg
            .edges()
            .iter()
            .map(|e| e.length)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min, 1.0);
    }

    #[test]
    fn scaling_matches_example_2() {
        // Example 2: α = 0.15, whole graph → θ = 0.15·0.4/6 = 0.01, i.e. weights
        // are scaled 100×.
        let (_network, qg) = figure2_query_graph(6.0, 0.15);
        assert!((qg.theta() - 0.01).abs() < 1e-12);
        assert_eq!(qg.scaled_weight(1), 20); // v2: 0.2 → 20
        assert_eq!(qg.scaled_weight(2), 40); // v3: 0.4 → 40
        assert_eq!(qg.scaled_weight(4), 30); // v5: 0.3 → 30
        assert!((qg.sigma_max() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rescale_changes_granularity() {
        let (_network, mut qg) = figure2_query_graph(6.0, 0.15);
        let fine = qg.scaled_weight(2);
        qg.rescale(3.0).unwrap();
        let coarse = qg.scaled_weight(2);
        assert!(coarse < fine);
        assert_eq!(qg.alpha(), 3.0);
        // θ = 3·0.4/6 = 0.2 → v3 (0.4) scales to 2, v5 (0.3) to 1, v2 (0.2) to 1.
        assert_eq!(coarse, 2);
        assert_eq!(qg.scaled_weight(4), 1);
        assert_eq!(qg.scaled_weight(1), 1);
        assert!(qg.rescale(0.0).is_err());
        assert!(qg.rescale(f64::NAN).is_err());
    }

    #[test]
    fn scaled_weights_never_exceed_originals_over_theta() {
        let (_network, qg) = figure2_query_graph(6.0, 0.5);
        for v in qg.node_indices() {
            let sigma = qg.weight(v);
            let scaled = qg.scaled_weight(v) as f64;
            // σ_v − θ < θ·σ̂_v ≤ σ_v (the inequality used in Theorem 2); the
            // tolerance absorbs the tiny flooring epsilon.
            assert!(qg.theta() * scaled <= sigma + 1e-6);
            assert!(sigma - qg.theta() < qg.theta() * scaled + 1e-6);
        }
    }

    #[test]
    fn lemma5_bounds() {
        let (_network, qg) = figure2_query_graph(6.0, 0.15);
        // ⌊|V_Q|/α⌋ = ⌊6/0.15⌋ = 40, which equals the max scaled node weight.
        assert_eq!(qg.scaled_weight_lower_bound(), 40);
        assert_eq!(qg.scaled_weight_upper_bound(), 240);
        let max_scaled = qg
            .node_indices()
            .map(|v| qg.scaled_weight(v))
            .max()
            .unwrap();
        assert_eq!(max_scaled, qg.scaled_weight_lower_bound());
    }

    #[test]
    fn helper_accessors() {
        let (_network, qg) = figure2_query_graph(6.0, 0.15);
        assert_eq!(qg.relevant_node_count(), 6);
        let total: f64 = qg.node_indices().map(|v| qg.weight(v)).sum();
        assert!((total - 1.7).abs() < 1e-12);
        assert!(qg.total_scaled_weight() >= 160);
        // Max-weight node is v3 or v4 (both 0.4).
        let m = qg.max_weight_node().unwrap();
        assert!(m == 2 || m == 3);
        let e = qg.edge(0);
        assert_eq!(e.other(e.a), e.b);
        assert_eq!(e.other(e.b), e.a);
    }

    #[test]
    fn zero_weight_region_has_zero_theta() {
        let (network, _) = figure2();
        let view = RegionView::whole(&network);
        let empty_weights = NodeWeights::default();
        let qg = QueryGraph::build(&view, &empty_weights, 5.0, 0.5).unwrap();
        assert_eq!(qg.theta(), 0.0);
        assert_eq!(qg.sigma_max(), 0.0);
        assert!(qg.max_weight_node().is_none());
        assert!(qg.node_indices().all(|v| qg.scaled_weight(v) == 0));
        assert_eq!(qg.relevant_node_count(), 0);
    }

    #[test]
    fn csr_adjacency_matches_edge_list() {
        let (_network, qg) = figure2_query_graph(6.0, 0.15);
        for v in qg.node_indices() {
            // A node's row holds one entry per edge that touches it.
            let touching = qg.edges().iter().filter(|e| e.a == v || e.b == v).count();
            assert_eq!(qg.neighbors(v).len(), touching);
            for &(u, e) in qg.neighbors(v) {
                let edge = qg.edge(e);
                assert!(edge.a == v || edge.b == v);
                assert_eq!(edge.other(v), u);
            }
        }
        // Handshake: total CSR entries = 2·|E_Q|.
        let total: usize = qg.node_indices().map(|v| qg.neighbors(v).len()).sum();
        assert_eq!(total, 2 * qg.edge_count());
    }

    #[test]
    fn builder_reuse_produces_identical_graphs() {
        let (network, weights) = figure2();
        let view = RegionView::whole(&network);
        let mut builder = QueryGraphBuilder::new();
        for (delta, alpha) in [(6.0, 0.15), (2.0, 0.5), (10.0, 3.0), (6.0, 0.15)] {
            let fresh = QueryGraph::build(&view, &weights, delta, alpha).unwrap();
            let reused = builder.build(&view, &weights, delta, alpha).unwrap();
            assert_eq!(fresh.node_count(), reused.node_count());
            assert_eq!(fresh.edge_count(), reused.edge_count());
            for v in fresh.node_indices() {
                assert_eq!(fresh.neighbors(v), reused.neighbors(v));
                assert_eq!(fresh.weight(v), reused.weight(v));
                assert_eq!(fresh.scaled_weight(v), reused.scaled_weight(v));
                assert_eq!(fresh.global_node(v), reused.global_node(v));
            }
            assert_eq!(fresh.edges(), reused.edges());
            assert_eq!(fresh.theta(), reused.theta());
            builder.recycle(reused);
        }
    }

    #[test]
    fn builder_rejects_invalid_input_like_the_one_shot_path() {
        let (network, weights) = figure2();
        let view = RegionView::whole(&network);
        let mut builder = QueryGraphBuilder::new();
        assert!(builder.build(&view, &weights, 5.0, 0.0).is_err());
        assert!(builder.build(&view, &weights, -1.0, 0.5).is_err());
        // The builder still works after rejecting bad parameters.
        assert!(builder.build(&view, &weights, 5.0, 0.5).is_ok());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let (network, weights) = figure2();
        let view = RegionView::whole(&network);
        assert!(matches!(
            QueryGraph::build(&view, &weights, 5.0, 0.0),
            Err(LcmsrError::InvalidParameter { name: "alpha", .. })
        ));
        assert!(matches!(
            QueryGraph::build(&view, &weights, -1.0, 0.5),
            Err(LcmsrError::InvalidDelta { .. })
        ));
        let empty_view =
            RegionView::new(&network, lcmsr_roadnet::geo::Rect::new(1e6, 1e6, 2e6, 2e6));
        assert!(matches!(
            QueryGraph::build(&empty_view, &weights, 5.0, 0.5),
            Err(LcmsrError::EmptyQueryRegion)
        ));
    }
}
