//! Exact LCMSR solver for small query graphs.
//!
//! Answering LCMSR is NP-hard (Theorem 1), so exact answers are only practical
//! on small instances.  This solver enumerates every node subset of the query
//! region, keeps those whose induced subgraph is connected, connects each with
//! its minimum spanning tree (the cheapest edge set realising that node set as
//! a region) and returns the feasible subset of maximum weight.
//!
//! The solver exists to *validate* the approximation algorithms: integration
//! and property tests compare APP, TGEN and Greedy against it on graphs with up
//! to [`ExactSolver::NODE_LIMIT`] nodes.

use crate::arena::TupleArena;
use crate::cancel::CancelToken;
use crate::error::{LcmsrError, Result};
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;
use crate::trace::TraceCollector;
use lcmsr_roadnet::epoch::EpochMap;
use std::cmp::Ordering;

/// How many subset masks the exact enumeration processes between two polls of
/// the cancellation token.  A power of two so the check compiles to a mask.
const CANCEL_POLL_STRIDE: u32 = 256;

/// Exhaustive-enumeration LCMSR solver.
#[derive(Debug, Clone, Default)]
pub struct ExactSolver;

impl ExactSolver {
    /// Maximum number of nodes the solver will enumerate (2^n subsets).
    pub const NODE_LIMIT: usize = 20;

    /// Creates a solver.
    pub fn new() -> Self {
        ExactSolver
    }

    /// Finds the optimal region (maximum weight, length ≤ `Q.∆`), or `None`
    /// when no node carries a positive weight.
    ///
    /// When `ctl` fires mid-enumeration the solver stops at the next poll
    /// stride and returns its incumbent — the best region over every subset
    /// enumerated so far — with [`ExactOutcome::interrupted`] set.  The
    /// incumbent is always feasible; it just may not be the true optimum.
    pub fn solve(
        &self,
        graph: &QueryGraph,
        arena: &mut TupleArena,
        ctl: &CancelToken,
        tracer: &mut TraceCollector,
    ) -> Result<ExactOutcome> {
        let mut best: Option<RegionTuple> = None;
        let interrupted = self.enumerate(graph, arena, ctl, tracer, |arena, candidate| {
            let better = match &best {
                None => true,
                Some(b) => {
                    candidate.weight > b.weight + 1e-12
                        || ((candidate.weight - b.weight).abs() <= 1e-12
                            && candidate.length < b.length)
                }
            };
            // Every enumerated tuple has a single owner, so losers recycle.
            if better {
                if let Some(old) = best.replace(candidate) {
                    old.free(arena);
                }
            } else {
                candidate.free(arena);
            }
        })?;
        Ok(ExactOutcome { best, interrupted })
    }

    /// Enumerates the `k` best *distinct node sets* (every subset of `Q.Λ` is
    /// a distinct node set, so no deduplication is needed), ordered by the
    /// shared quality order [`RegionTuple::cmp_quality`] — the same total
    /// order the approximation algorithms' top-k paths use, so exact top-k
    /// results are directly comparable to theirs.
    pub fn solve_topk(
        &self,
        graph: &QueryGraph,
        arena: &mut TupleArena,
        k: usize,
        ctl: &CancelToken,
        tracer: &mut TraceCollector,
    ) -> Result<ExactTopK> {
        let mut top: Vec<RegionTuple> = Vec::with_capacity(k.min(64));
        let mut feasible_enumerated = 0u64;
        if k == 0 {
            // Still validate the graph-size limit for a consistent API.
            if graph.sigma_max() > 0.0 && graph.node_count() > Self::NODE_LIMIT {
                return Err(LcmsrError::GraphTooLargeForExact {
                    nodes: graph.node_count(),
                    limit: Self::NODE_LIMIT,
                });
            }
            return Ok(ExactTopK {
                tuples: top,
                feasible_enumerated,
                interrupted: false,
            });
        }
        let interrupted = self.enumerate(graph, arena, ctl, tracer, |arena, candidate| {
            feasible_enumerated += 1;
            let pos = top.partition_point(|t| t.cmp_quality(&candidate) != Ordering::Greater);
            if pos < k {
                top.insert(pos, candidate);
                if top.len() > k {
                    // The pushed-out tuple is exclusively ours — recycle it.
                    top.pop().expect("len > k").free(arena);
                }
            } else {
                candidate.free(arena);
            }
        })?;
        Ok(ExactTopK {
            tuples: top,
            feasible_enumerated,
            interrupted,
        })
    }

    /// Runs the subset enumeration, invoking `visit` for every feasible
    /// (connected, length ≤ `Q.∆`) region tuple.  Each visited tuple is owned
    /// by the callback alone, which may free it.  Returns `true` when the
    /// cancellation token fired and the enumeration stopped early.
    ///
    /// Each poll stride ([`CANCEL_POLL_STRIDE`] masks) records a `mask_chunk`
    /// span with a `feasible` attr into `tracer`.
    fn enumerate(
        &self,
        graph: &QueryGraph,
        arena: &mut TupleArena,
        ctl: &CancelToken,
        tracer: &mut TraceCollector,
        mut visit: impl FnMut(&mut TupleArena, RegionTuple),
    ) -> Result<bool> {
        let n = graph.node_count();
        if graph.sigma_max() <= 0.0 {
            // No relevant node: the answer is empty regardless of the graph size.
            return Ok(false);
        }
        if n > Self::NODE_LIMIT {
            return Err(LcmsrError::GraphTooLargeForExact {
                nodes: n,
                limit: Self::NODE_LIMIT,
            });
        }
        let delta = graph.delta();
        let mut mst = MstScratch::new(n);
        // Enumerate all non-empty node subsets.
        let mut chunk = tracer.start("mask_chunk");
        let mut chunk_feasible = 0u64;
        for mask in 1u32..(1u32 << n) {
            // Poll coarsely: one clock read per stride of 2^n masks; a trace
            // span covers the same stride.
            if mask % CANCEL_POLL_STRIDE == 0 {
                tracer.end_with(chunk, &[("feasible", chunk_feasible)]);
                chunk_feasible = 0;
                if ctl.is_cancelled() {
                    return Ok(true);
                }
                chunk = tracer.start("mask_chunk");
            }
            let nodes: Vec<u32> = (0..n as u32).filter(|&v| mask & (1 << v) != 0).collect();
            let Some((edges, length)) = induced_mst(graph, &nodes, &mut mst) else {
                continue; // the induced subgraph is disconnected
            };
            if length > delta + 1e-9 {
                continue;
            }
            let weight: f64 = nodes.iter().map(|&v| graph.weight(v)).sum();
            let scaled: u64 = nodes.iter().map(|&v| graph.scaled_weight(v)).sum();
            let tuple = RegionTuple::from_parts(arena, length, weight, scaled, &nodes, &edges);
            chunk_feasible += 1;
            visit(arena, tuple);
        }
        tracer.end_with(chunk, &[("feasible", chunk_feasible)]);
        Ok(false)
    }
}

/// Result of [`ExactSolver::solve`].
#[derive(Debug, Clone)]
pub struct ExactOutcome {
    /// The best feasible region found (`None` when no node carries a positive
    /// weight, or when an interrupt fired before any feasible subset was
    /// enumerated).
    pub best: Option<RegionTuple>,
    /// Whether the enumeration stopped early on cancellation; `best` is then
    /// the incumbent, not necessarily the optimum.
    pub interrupted: bool,
}

/// Result of [`ExactSolver::solve_topk`].
#[derive(Debug, Clone)]
pub struct ExactTopK {
    /// The `k` best distinct feasible regions, best first
    /// ([`RegionTuple::cmp_quality`] order).
    pub tuples: Vec<RegionTuple>,
    /// Number of feasible regions enumerated (reported as `tuples_generated`).
    pub feasible_enumerated: u64,
    /// Whether the enumeration stopped early on cancellation.
    pub interrupted: bool,
}

/// Dense scratch for the per-subset MST: an O(1)-clear membership table and
/// a union-find array over the query graph's local node ids, reused across
/// all `2^n` subsets instead of re-hashing per subset.
struct MstScratch {
    parent: Vec<u32>,
    members: EpochMap,
    candidates: Vec<u32>,
}

impl MstScratch {
    fn new(n: usize) -> Self {
        MstScratch {
            parent: vec![0; n],
            members: EpochMap::new(),
            candidates: Vec::new(),
        }
    }
}

/// Minimum spanning tree of the subgraph induced by `nodes`.
/// Returns `None` when the induced subgraph is not connected.
fn induced_mst(
    graph: &QueryGraph,
    nodes: &[u32],
    scratch: &mut MstScratch,
) -> Option<(Vec<u32>, f64)> {
    if nodes.len() == 1 {
        return Some((Vec::new(), 0.0));
    }
    scratch.members.begin();
    for &v in nodes {
        scratch.members.insert(v as usize, v);
        scratch.parent[v as usize] = v;
    }
    // Collect induced edges sorted by length (Kruskal).
    scratch.candidates.clear();
    for &v in nodes {
        for &(u, e) in graph.neighbors(v) {
            if u > v && scratch.members.contains(u as usize) {
                scratch.candidates.push(e);
            }
        }
    }
    scratch.candidates.sort_by(|&x, &y| {
        graph
            .edge(x)
            .length
            .partial_cmp(&graph.edge(y).length)
            .unwrap_or(Ordering::Equal)
    });
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let next = parent[cur as usize];
            parent[cur as usize] = root;
            cur = next;
        }
        root
    }
    let mut edges = Vec::new();
    let mut length = 0.0;
    let mut merged = 0;
    for &e in &scratch.candidates {
        let edge = graph.edge(e);
        let ra = find(&mut scratch.parent, edge.a);
        let rb = find(&mut scratch.parent, edge.b);
        if ra != rb {
            scratch.parent[ra as usize] = rb;
            edges.push(e);
            length += edge.length;
            merged += 1;
            if merged == nodes.len() - 1 {
                break;
            }
        }
    }
    if merged == nodes.len() - 1 {
        edges.sort_unstable();
        Some((edges, length))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::test_support::figure2_query_graph;

    /// A path of `NODE_LIMIT + 1` weighted nodes 1 m apart: one node over
    /// the limit.
    fn oversized_query_graph() -> QueryGraph {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        let n = ExactSolver::NODE_LIMIT + 1;
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        for pair in ids.windows(2) {
            b.add_edge(pair[0], pair[1], 1.0).unwrap();
        }
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights((0..n).map(|i| (NodeId(i as u32), 0.5)));
        let view = RegionView::whole(&network);
        QueryGraph::build(&view, &weights, 5.0, 0.5).unwrap()
    }

    fn solve_best(qg: &QueryGraph, arena: &mut TupleArena) -> Option<RegionTuple> {
        ExactSolver::new()
            .solve(
                qg,
                arena,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap()
            .best
    }

    #[test]
    fn finds_the_papers_optimum_on_figure2() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let best = solve_best(&qg, &mut arena).unwrap();
        assert!((best.weight - 1.1).abs() < 1e-9);
        assert!((best.length - 5.9).abs() < 1e-9);
        assert_eq!(best.nodes(&arena), &[1, 3, 4, 5]);
    }

    #[test]
    fn optimum_is_monotone_in_delta() {
        let mut previous = 0.0;
        for delta in [0.5, 1.5, 3.0, 4.5, 6.0, 8.0, 12.0, 20.0] {
            let (_n, qg) = figure2_query_graph(delta, 0.15);
            let mut arena = TupleArena::new();
            let best = solve_best(&qg, &mut arena).unwrap();
            assert!(best.length <= delta + 1e-9);
            assert!(
                best.weight + 1e-12 >= previous,
                "optimum decreased when ∆ grew to {delta}"
            );
            previous = best.weight;
        }
        // With a huge ∆ the whole graph is optimal.
        let (_n, qg) = figure2_query_graph(100.0, 0.15);
        let mut arena = TupleArena::new();
        let best = solve_best(&qg, &mut arena).unwrap();
        assert!((best.weight - 1.7).abs() < 1e-9);
    }

    #[test]
    fn topk_enumerates_distinct_regions_in_quality_order() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let top = ExactSolver::new()
            .solve_topk(
                &qg,
                &mut arena,
                5,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
        assert_eq!(top.tuples.len(), 5);
        assert!(top.feasible_enumerated >= 5);
        // Best-first under the shared quality order, all feasible, all distinct.
        for w in top.tuples.windows(2) {
            assert_ne!(w[0].cmp_quality(&w[1]), Ordering::Greater);
            assert!(!w[0].same_nodes(&w[1], &arena));
        }
        for t in &top.tuples {
            assert!(t.length <= 6.0 + 1e-9);
        }
        // The head is the true optimum (weight 1.1 — on this instance the
        // scaled and original orders agree).
        assert!((top.tuples[0].weight - 1.1).abs() < 1e-9);
        // The runner-up is strictly worse than the optimum.
        assert!(top.tuples[1].scaled <= top.tuples[0].scaled);
    }

    #[test]
    fn topk_with_k_exceeding_candidates_returns_them_all() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        // Two nodes, one edge too long to combine: exactly 2 feasible regions.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        b.add_edge(a, c, 10.0).unwrap();
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights([(NodeId(0), 0.9), (NodeId(1), 0.3)]);
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &weights, 5.0, 0.5).unwrap();
        let mut arena = TupleArena::new();
        let top = ExactSolver::new()
            .solve_topk(
                &qg,
                &mut arena,
                10,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
        assert_eq!(top.tuples.len(), 2);
        assert_eq!(top.feasible_enumerated, 2);
        assert!((top.tuples[0].weight - 0.9).abs() < 1e-12);
        assert!((top.tuples[1].weight - 0.3).abs() < 1e-12);
    }

    #[test]
    fn topk_zero_k_and_irrelevant_graphs_are_empty() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::subgraph::RegionView;
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        assert!(ExactSolver::new()
            .solve_topk(
                &qg,
                &mut arena,
                0,
                &CancelToken::none(),
                &mut TraceCollector::disabled()
            )
            .unwrap()
            .tuples
            .is_empty());
        let (network, _) = crate::query_graph::test_support::figure2();
        let view = RegionView::whole(&network);
        let qg0 = QueryGraph::build(&view, &NodeWeights::default(), 5.0, 0.5).unwrap();
        assert!(ExactSolver::new()
            .solve_topk(
                &qg0,
                &mut arena,
                3,
                &CancelToken::none(),
                &mut TraceCollector::disabled()
            )
            .unwrap()
            .tuples
            .is_empty());
        // The size limit still applies for k = 0 on a relevant graph.
        assert!(ExactSolver::new()
            .solve_topk(
                &oversized_query_graph(),
                &mut arena,
                0,
                &CancelToken::none(),
                &mut TraceCollector::disabled()
            )
            .is_err());
    }

    #[test]
    fn topk_head_agrees_with_solve_when_orders_coincide() {
        // On Figure 2 with α = 0.15 the scaled weights are exact multiples of
        // the originals, so cmp_quality and the true-weight order agree and
        // solve_topk(…, 1) must reproduce solve().
        for delta in [1.0, 3.0, 6.0, 12.0] {
            let (_n, qg) = figure2_query_graph(delta, 0.15);
            let mut arena = TupleArena::new();
            let single = solve_best(&qg, &mut arena).unwrap();
            let top = ExactSolver::new()
                .solve_topk(
                    &qg,
                    &mut arena,
                    1,
                    &CancelToken::none(),
                    &mut TraceCollector::disabled(),
                )
                .unwrap();
            assert_eq!(top.tuples.len(), 1);
            assert!(top.tuples[0].same_nodes(&single, &arena));
        }
    }

    #[test]
    fn rejects_oversized_graphs() {
        assert!(matches!(
            ExactSolver::new().solve(
                &oversized_query_graph(),
                &mut TupleArena::new(),
                &CancelToken::none(),
                &mut TraceCollector::disabled()
            ),
            Err(LcmsrError::GraphTooLargeForExact {
                nodes: 21,
                limit: 20
            })
        ));
    }

    #[test]
    fn returns_none_without_relevant_nodes() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::subgraph::RegionView;
        let (network, _) = crate::query_graph::test_support::figure2();
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &NodeWeights::default(), 5.0, 0.5).unwrap();
        assert!(ExactSolver::new()
            .solve(
                &qg,
                &mut TupleArena::new(),
                &CancelToken::none(),
                &mut TraceCollector::disabled()
            )
            .unwrap()
            .best
            .is_none());
    }

    #[test]
    fn single_positive_node_is_the_optimum_when_isolated() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        b.add_edge(a, c, 10.0).unwrap();
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights([(NodeId(0), 0.9), (NodeId(1), 0.3)]);
        let view = RegionView::whole(&network);
        // ∆ smaller than the connecting edge: only single nodes are feasible.
        let qg = QueryGraph::build(&view, &weights, 5.0, 0.5).unwrap();
        let mut arena = TupleArena::new();
        let best = solve_best(&qg, &mut arena).unwrap();
        assert_eq!(best.node_count(), 1);
        assert!((best.weight - 0.9).abs() < 1e-12);
    }

    #[test]
    fn prefers_shorter_region_among_equal_weights() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        // Path a - b - c where only a and b are weighted: {a,b} and {a,b,c}
        // have the same weight, the shorter {a,b} must win.
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(2.0, 0.0));
        b.add_edge(n0, n1, 1.0).unwrap();
        b.add_edge(n1, n2, 1.0).unwrap();
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights([(NodeId(0), 0.5), (NodeId(1), 0.5)]);
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &weights, 10.0, 0.5).unwrap();
        let mut arena = TupleArena::new();
        let best = solve_best(&qg, &mut arena).unwrap();
        assert_eq!(best.nodes(&arena), &[0, 1]);
        assert!((best.length - 1.0).abs() < 1e-12);
    }
}
