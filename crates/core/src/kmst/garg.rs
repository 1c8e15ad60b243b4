//! Garg-style quota search on top of the GW primal–dual.
//!
//! Garg's 3-approximation for k-MST runs the Goemans–Williamson
//! prize-collecting algorithm with a uniform per-unit prize `λ` and searches
//! for the `λ` at which the collected weight reaches the quota.  We do the same
//! for the node-weighted variant used by APP: prizes are `λ·σ̂_v` and `λ` is
//! bisected until the pruned GW tree's scaled weight reaches the quota, keeping
//! the smallest such tree.  Every GW run of the search shares one prize buffer
//! and one [`GwScratch`].

use super::gw::{pcst, GwScratch};
use crate::arena::TupleArena;
use crate::cancel::CancelToken;
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;
use crate::trace::TraceCollector;

/// Number of λ-bisection steps.
const DEFAULT_LAMBDA_STEPS: usize = 14;
/// Maximum number of doublings when searching for an upper λ bound.
const MAX_DOUBLINGS: usize = 24;

/// The GW/Garg-style node-weighted k-MST oracle.
#[derive(Debug, Default)]
pub struct GargKMst {
    /// The current λ's per-node prizes.
    prizes: Vec<f64>,
    scratch: GwScratch,
    invocations: u64,
}

impl GargKMst {
    /// Creates a solver.
    pub fn new() -> Self {
        Self::default()
    }

    fn tree_for_lambda(
        &mut self,
        graph: &QueryGraph,
        arena: &mut TupleArena,
        lambda: f64,
    ) -> RegionTuple {
        self.prizes.clear();
        self.prizes
            .extend((0..graph.node_count() as u32).map(|v| graph.scaled_weight(v) as f64 * lambda));
        pcst(graph, arena, &self.prizes, &mut self.scratch).tree
    }

    /// The best single node as a degenerate tree (used for quota 0 or tiny quotas).
    fn best_singleton(graph: &QueryGraph, arena: &mut TupleArena) -> RegionTuple {
        let v = graph
            .node_indices()
            .max_by_key(|&v| graph.scaled_weight(v))
            .unwrap_or(0);
        RegionTuple::singleton(arena, v, graph.weight(v), graph.scaled_weight(v))
    }

    /// Returns a tree (as a region tuple) whose total *scaled* node weight is
    /// at least `quota`, with total edge length as small as the search can
    /// manage.  The tree's node/edge sets are allocated in `arena` and stay
    /// live until the arena is reset.
    ///
    /// Returns `None` when no tree in the query graph can reach the quota
    /// (i.e. the quota exceeds the total scaled weight of the graph).
    ///
    /// The search polls `ctl` before every λ-doubling and λ-bisection step
    /// and, once it fires, returns the best quota-meeting tree found so far —
    /// or `None` when none has been found yet.  Callers detect the
    /// interruption through the token itself.
    ///
    /// The same steps record `lambda_double` and `lambda_step` spans into
    /// `tracer`; a disabled collector costs one predicted branch, like the
    /// inert token.
    pub fn solve(
        &mut self,
        graph: &QueryGraph,
        arena: &mut TupleArena,
        quota: u64,
        ctl: &CancelToken,
        tracer: &mut TraceCollector,
    ) -> Option<RegionTuple> {
        self.invocations += 1;
        let best_single = Self::best_singleton(graph, arena);
        if quota == 0 || best_single.scaled >= quota {
            return Some(best_single);
        }
        if graph.total_scaled_weight() < quota {
            return None;
        }
        // Establish an upper λ bound that reaches the quota.
        let total_length: f64 = graph.edges().iter().map(|e| e.length).sum();
        let mut lambda_hi = (total_length.max(1.0) / quota.max(1) as f64).max(1e-6);
        let mut hi_tree = self.tree_for_lambda(graph, arena, lambda_hi);
        let mut doublings = 0;
        while hi_tree.scaled < quota && doublings < MAX_DOUBLINGS {
            if ctl.is_cancelled() {
                // No quota-meeting tree yet; nothing partial to hand back.
                return None;
            }
            let span = tracer.start("lambda_double");
            lambda_hi *= 2.0;
            hi_tree = self.tree_for_lambda(graph, arena, lambda_hi);
            doublings += 1;
            tracer.end_with(span, &[("scaled", hi_tree.scaled)]);
        }
        if hi_tree.scaled < quota {
            // GW pruning kept less than the quota even with huge prizes (can
            // happen when the graph is disconnected inside Q.Λ and no single
            // component reaches the quota).
            return None;
        }
        // Bisect λ keeping the smallest tree that meets the quota.
        let mut lo = 0.0f64;
        let mut best = hi_tree;
        let mut hi = lambda_hi;
        for _ in 0..DEFAULT_LAMBDA_STEPS {
            // `best` already meets the quota — on cancellation, stop
            // tightening and return it as-is.
            if ctl.is_cancelled() {
                break;
            }
            let mid = (lo + hi) / 2.0;
            if mid <= lo || mid >= hi {
                break;
            }
            let span = tracer.start("lambda_step");
            let tree = self.tree_for_lambda(graph, arena, mid);
            let meets = tree.scaled >= quota;
            if meets {
                if tree.length < best.length
                    || (tree.length <= best.length + 1e-12 && tree.scaled > best.scaled)
                {
                    best = tree;
                }
                hi = mid;
            } else {
                lo = mid;
            }
            tracer.end_with(
                span,
                &[("scaled", tree.scaled), ("meets_quota", meets as u64)],
            );
        }
        Some(best)
    }

    /// Number of [`solve`](Self::solve) calls so far (APP's `kmst_calls`).
    pub fn invocations(&self) -> u64 {
        self.invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmst::validate_tree;
    use crate::query_graph::test_support::figure2_query_graph;

    #[test]
    fn quota_zero_returns_best_singleton() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let mut solver = GargKMst::new();
        let t = solver
            .solve(
                &qg,
                &mut arena,
                0,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.scaled, 40); // a 0.4-weight node scaled 100×
        assert_eq!(solver.invocations(), 1);
    }

    #[test]
    fn unreachable_quota_returns_none() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let total = qg.total_scaled_weight();
        let mut arena = TupleArena::new();
        let mut solver = GargKMst::new();
        assert!(solver
            .solve(
                &qg,
                &mut arena,
                total + 1,
                &CancelToken::none(),
                &mut TraceCollector::disabled()
            )
            .is_none());
        assert!(solver
            .solve(
                &qg,
                &mut arena,
                total,
                &CancelToken::none(),
                &mut TraceCollector::disabled()
            )
            .is_some());
    }

    #[test]
    fn returned_trees_meet_the_quota_and_are_valid() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let mut solver = GargKMst::new();
        for quota in [10u64, 40, 70, 90, 110, 130, 150, 170] {
            let t = solver
                .solve(
                    &qg,
                    &mut arena,
                    quota,
                    &CancelToken::none(),
                    &mut TraceCollector::disabled(),
                )
                .unwrap_or_else(|| panic!("quota {quota} should be attainable"));
            assert!(t.scaled >= quota, "quota {quota}, got {}", t.scaled);
            validate_tree(&qg, &arena, &t);
        }
    }

    #[test]
    fn larger_quotas_produce_longer_trees() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let mut solver = GargKMst::new();
        let small = solver
            .solve(
                &qg,
                &mut arena,
                40,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
        let large = solver
            .solve(
                &qg,
                &mut arena,
                150,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
        assert!(large.length >= small.length);
        assert!(large.node_count() >= small.node_count());
    }

    #[test]
    fn tree_length_is_reasonable_for_known_instance() {
        // Figure 2 with quota 110 (the example optimal region's scaled weight):
        // the optimum connects {v2,v4,v5,v6} with length 5.9; a 3-approximation
        // style oracle should stay within a small constant factor.
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let mut solver = GargKMst::new();
        let t = solver
            .solve(
                &qg,
                &mut arena,
                110,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
        assert!(t.scaled >= 110);
        assert!(
            t.length <= 3.0 * 5.9 + 1e-9,
            "length {} exceeds 3x the optimum",
            t.length
        );
    }

    #[test]
    fn same_tree_after_an_arena_reset_and_on_another_arena() {
        // Reusing one solver, and so one GW scratch, after an arena reset or
        // with a different arena must give the same valid tree, allocated in
        // the arena it was given.
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut solver = GargKMst::new();
        let mut arena = TupleArena::new();
        let solve = |solver: &mut GargKMst, arena: &mut TupleArena| {
            solver
                .solve(
                    &qg,
                    arena,
                    110,
                    &CancelToken::none(),
                    &mut TraceCollector::disabled(),
                )
                .unwrap()
        };
        let first = solve(&mut solver, &mut arena);
        validate_tree(&qg, &arena, &first);
        let first_nodes: Vec<u32> = first.nodes(&arena).to_vec();

        arena.reset();
        let after_reset = solve(&mut solver, &mut arena);
        validate_tree(&qg, &arena, &after_reset);
        assert_eq!(after_reset.nodes(&arena), first_nodes.as_slice());

        let mut other = TupleArena::new();
        let cross = solve(&mut solver, &mut other);
        validate_tree(&qg, &other, &cross);
        assert_eq!(cross.nodes(&other), first_nodes.as_slice());
    }
}
