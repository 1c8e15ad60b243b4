//! Node-weighted k-MST oracles.
//!
//! APP (Section 4) relies on a solver for the *node-weighted k minimum spanning
//! tree* problem: given integer node weights and a weight quota `X`, find the
//! tree with the smallest total edge length whose nodes have total weight at
//! least `X`.  The paper adopts Garg's 3-approximation, which is built on the
//! Goemans–Williamson primal–dual technique for constrained forest problems.
//!
//! This module provides the [`KMstSolver`] trait and two implementations:
//!
//! * [`garg::GargKMst`] — the default; runs the GW prize-collecting
//!   Steiner-tree primal–dual ([`gw`]) with per-node prizes `λ·σ̂_v` and
//!   bisects `λ` until the quota is met, mirroring the structure of Garg's
//!   algorithm (see README.md § "Substitutions"),
//! * [`density::DensityKMst`] — a fast multi-root greedy used as an ablation
//!   baseline and as a fallback.

pub mod density;
pub mod garg;
pub mod gw;

use crate::arena::TupleArena;
use crate::cancel::CancelToken;
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;
use crate::trace::TraceCollector;

/// A solver for the node-weighted k-MST problem on a query graph.
pub trait KMstSolver {
    /// Returns a tree (as a region tuple) whose total *scaled* node weight is at
    /// least `quota`, with total edge length as small as the solver can manage.
    /// The tree's node/edge sets are allocated in `arena` and stay live until
    /// the arena is reset.
    ///
    /// Returns `None` when no tree in the query graph can reach the quota
    /// (i.e. the quota exceeds the total scaled weight of the graph).
    ///
    /// Solvers poll `ctl` at their outer iteration boundaries (λ-bisection
    /// steps, candidate roots) and, once it fires, return the best
    /// quota-meeting tree found so far — or `None` when none has been found
    /// yet.  Callers detect the interruption through the token itself.
    ///
    /// The same boundaries record spans into `tracer` (λ-bisection iterations,
    /// candidate roots); a disabled collector costs one predicted branch, like
    /// the inert token.
    fn solve(
        &mut self,
        graph: &QueryGraph,
        arena: &mut TupleArena,
        quota: u64,
        ctl: &CancelToken,
        tracer: &mut TraceCollector,
    ) -> Option<RegionTuple>;

    /// Human-readable solver name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Number of times the underlying optimisation routine ran (for statistics).
    fn invocations(&self) -> u64;
}

/// Which k-MST oracle APP should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KMstSolverKind {
    /// GW primal–dual with λ-bisection (Garg-style); the default.
    #[default]
    Garg,
    /// Multi-root density greedy (fast ablation baseline).
    Density,
}

/// Instantiates a boxed solver of the requested kind.
pub fn make_solver(kind: KMstSolverKind) -> Box<dyn KMstSolver> {
    match kind {
        KMstSolverKind::Garg => Box::new(garg::GargKMst::new()),
        KMstSolverKind::Density => Box::new(density::DensityKMst::new()),
    }
}

/// Checks that a tuple returned by a solver is a valid tree in the graph:
/// connected, edge endpoints inside the node set, |E| = |V| − 1, and measures
/// consistent with the graph.  Used by tests for every solver.
#[cfg(test)]
pub(crate) fn validate_tree(graph: &QueryGraph, arena: &TupleArena, tree: &RegionTuple) {
    use std::collections::{BTreeMap, BTreeSet, VecDeque};
    let nodes = tree.nodes(arena);
    let edges = tree.edges(arena);
    assert!(!nodes.is_empty(), "tree has no nodes");
    assert_eq!(edges.len() + 1, nodes.len(), "a tree must have |V|-1 edges");
    let node_set: BTreeSet<u32> = nodes.iter().copied().collect();
    assert_eq!(node_set.len(), nodes.len(), "duplicate nodes");
    let mut adj: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut length = 0.0;
    for &e in edges {
        let edge = graph.edge(e);
        assert!(node_set.contains(&edge.a) && node_set.contains(&edge.b));
        adj.entry(edge.a).or_default().push(edge.b);
        adj.entry(edge.b).or_default().push(edge.a);
        length += edge.length;
    }
    assert!((length - tree.length).abs() < 1e-6, "length mismatch");
    let weight: f64 = nodes.iter().map(|&v| graph.weight(v)).sum();
    assert!((weight - tree.weight).abs() < 1e-6, "weight mismatch");
    let scaled: u64 = nodes.iter().map(|&v| graph.scaled_weight(v)).sum();
    assert_eq!(scaled, tree.scaled, "scaled weight mismatch");
    // Connectivity.
    let mut seen = BTreeSet::new();
    let mut q = VecDeque::new();
    seen.insert(nodes[0]);
    q.push_back(nodes[0]);
    while let Some(v) = q.pop_front() {
        if let Some(ns) = adj.get(&v) {
            for &n in ns {
                if seen.insert(n) {
                    q.push_back(n);
                }
            }
        }
    }
    assert_eq!(seen.len(), nodes.len(), "tree is not connected");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_solver_returns_requested_kind() {
        assert_eq!(make_solver(KMstSolverKind::Garg).name(), "garg-gw");
        assert_eq!(make_solver(KMstSolverKind::Density).name(), "density");
        assert_eq!(KMstSolverKind::default(), KMstSolverKind::Garg);
    }
}
