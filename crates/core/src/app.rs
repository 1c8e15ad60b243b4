//! The APP approximation algorithm (Section 4.2, Algorithm 1).
//!
//! APP answers an LCMSR query in three steps:
//!
//! 1. scale node weights into integers (`θ = α·σ_max/|V_Q|`, built into
//!    [`QueryGraph`]),
//! 2. binary-search a node-weight quota `X` against a 3-approximate
//!    node-weighted k-MST oracle: find `X` such that the tree returned for `X`
//!    has length ≤ 3·Q.∆ while the tree for `(1+β)·X` is longer than 3·Q.∆
//!    (Lemmas 4 and 5, Function `binarySearch`),
//! 3. run the `findOptTree` dynamic program on the candidate tree to extract
//!    the best feasible region (Section 4.2.3).
//!
//! The overall approximation ratio is `(5 + ε)` (Theorem 4).

use crate::arena::TupleArena;
use crate::cancel::CancelToken;
use crate::error::{LcmsrError, Result};
use crate::kmst::garg::GargKMst;
use crate::opt_tree::find_opt_tree;
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;
use crate::trace::TraceCollector;
use serde::{Deserialize, Serialize};

/// Tuning parameters of APP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppParams {
    /// Scaling parameter α (paper default 0.5 on NY, 0.1 on USANW).
    pub alpha: f64,
    /// Binary-search parameter β (paper default 0.1).
    pub beta: f64,
}

impl Default for AppParams {
    fn default() -> Self {
        AppParams {
            alpha: 0.5,
            beta: 0.1,
        }
    }
}

impl AppParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(LcmsrError::InvalidParameter {
                name: "alpha",
                value: self.alpha,
                expected: "a positive finite number",
            });
        }
        if !(self.beta.is_finite() && self.beta > 0.0) {
            return Err(LcmsrError::InvalidParameter {
                name: "beta",
                value: self.beta,
                expected: "a positive finite number",
            });
        }
        Ok(())
    }
}

/// One step of the quota binary search — the rows of Table 1 in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinarySearchStep {
    /// Step counter (1-based).
    pub step: usize,
    /// Lower bound `L` before the step.
    pub lower: u64,
    /// Upper bound `U` before the step.
    pub upper: u64,
    /// The probed quota `X`.
    pub x: u64,
    /// Length of the tree returned for quota `X` (`None` if the quota is unattainable).
    pub tc_length: Option<f64>,
    /// The probed quota `(1+β)·X` (0 when not probed in this step).
    pub x_beta: u64,
    /// Length of the tree returned for quota `(1+β)·X` (`None` if not probed or unattainable).
    pub tprime_length: Option<f64>,
}

/// Outcome of one APP run.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// The best feasible region found (local tuple), if any node is relevant.
    pub best: Option<RegionTuple>,
    /// The binary-search trace (Table 1).
    pub trace: Vec<BinarySearchStep>,
    /// Number of k-MST oracle invocations.
    pub kmst_calls: u64,
    /// Tuples materialised by `findOptTree` (0 when the tree was already feasible).
    pub dp_tuples: u64,
    /// Combine pairs `findOptTree` skipped via the frontier's length-budget
    /// `partition_point` (0 when the tree was already feasible).
    pub dp_pruned_pairs: u64,
    /// Tuples resident across the candidate tree's final arrays.
    pub frontier_tuples: u64,
    /// Largest single tuple array of the candidate tree.
    pub frontier_peak: u64,
    /// Array entries evicted by dominating inserts during the DP.
    pub dominance_evictions: u64,
    /// Whether any stage (binary search or DP) stopped early on cancellation.
    /// `best` is then the best feasible incumbent found before the interrupt.
    pub interrupted: bool,
}

/// Cap on the quota probes of [`binary_search`]: a `u64` quota range halves
/// down to one value in 64 steps.
const MAX_SEARCH_STEPS: usize = 64;

/// Runs the quota binary search of Function `binarySearch` (Section 4.2.2),
/// returning the candidate tree and the trace.
///
/// Following Lemma 4, tree lengths are compared against `3·Q.∆` because the
/// oracle is a 3-approximation.
pub fn binary_search(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    solver: &mut GargKMst,
    beta: f64,
    ctl: &CancelToken,
    tracer: &mut TraceCollector,
) -> (Option<RegionTuple>, Vec<BinarySearchStep>, bool) {
    let mut trace = Vec::new();
    let three_delta = 3.0 * graph.delta();
    let mut lower = graph.scaled_weight_lower_bound().max(1);
    let mut upper = graph.scaled_weight_upper_bound().max(lower + 1);
    // The best (largest-quota) tree observed whose length stays within 3·Q.∆.
    let mut best_feasible: Option<RegionTuple> = None;

    for step in 1..=MAX_SEARCH_STEPS {
        if upper <= lower {
            break;
        }
        // Poll once per probe; the oracle also polls internally, so an expiry
        // mid-solve surfaces here at the latest on the next probe.
        if ctl.is_cancelled() {
            return (best_feasible, trace, true);
        }
        let x = lower + (upper - lower) / 2;
        let span = tracer.start("bisect_step");
        tracer.attr(span, "x", x);
        let tc = solver.solve(graph, arena, x, ctl, tracer);
        let tc_length = tc.as_ref().map(|t| t.length);
        let mut entry = BinarySearchStep {
            step,
            lower,
            upper,
            x,
            tc_length,
            x_beta: 0,
            tprime_length: None,
        };
        match tc {
            None => {
                // Quota unattainable: treat as "too large".
                upper = x;
                trace.push(entry);
                tracer.end(span);
            }
            Some(tree) if tree.length > three_delta => {
                upper = x;
                trace.push(entry);
                tracer.end(span);
            }
            Some(tree) => {
                // Feasible under 3∆ — remember it, then probe (1+β)·X.
                if best_feasible
                    .as_ref()
                    .map_or(true, |b| tree.scaled > b.scaled)
                {
                    best_feasible = Some(tree);
                }
                let x_beta = (((x as f64) * (1.0 + beta)).ceil() as u64).max(x + 1);
                entry.x_beta = x_beta;
                let tprime = solver.solve(graph, arena, x_beta, ctl, tracer);
                entry.tprime_length = tprime.as_ref().map(|t| t.length);
                let stop = match &tprime {
                    None => true,
                    Some(t) => t.length > three_delta,
                };
                trace.push(entry);
                tracer.end_with(span, &[("x_beta", x_beta)]);
                if stop {
                    return (Some(tree), trace, false);
                }
                if x == lower {
                    // Cannot tighten further with integer quotas.
                    break;
                }
                lower = x;
            }
        }
        if upper.saturating_sub(lower) <= 1 {
            break;
        }
    }
    (best_feasible, trace, false)
}

/// Runs APP on a prepared query graph.
///
/// The graph must have been built (or rescaled) with the same `alpha` as
/// `params.alpha`; [`crate::engine::LcmsrEngine`] takes care of this.
pub fn run_app(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    params: &AppParams,
    ctl: &CancelToken,
    tracer: &mut TraceCollector,
) -> Result<AppOutcome> {
    params.validate()?;
    if graph.sigma_max() <= 0.0 {
        // No relevant object in Q.Λ — the query has no answer.
        return Ok(AppOutcome {
            best: None,
            trace: Vec::new(),
            kmst_calls: 0,
            dp_tuples: 0,
            dp_pruned_pairs: 0,
            frontier_tuples: 0,
            frontier_peak: 0,
            dominance_evictions: 0,
            interrupted: false,
        });
    }
    let mut solver = GargKMst::new();
    let (candidate, trace, search_interrupted) =
        binary_search(graph, arena, &mut solver, params.beta, ctl, tracer);
    let kmst_calls = solver.invocations();
    let Some(candidate) = candidate else {
        // Fall back to the best single node (always feasible).
        let v = graph
            .max_weight_node()
            .expect("σ_max > 0, so some node is relevant");
        let best = RegionTuple::singleton(arena, v, graph.weight(v), graph.scaled_weight(v));
        return Ok(AppOutcome {
            best: Some(best),
            trace,
            kmst_calls,
            dp_tuples: 0,
            dp_pruned_pairs: 0,
            frontier_tuples: 0,
            frontier_peak: 0,
            dominance_evictions: 0,
            interrupted: search_interrupted,
        });
    };
    // Algorithm 1, line 3: when the candidate tree already satisfies Q.∆ it is
    // returned directly; otherwise findOptTree extracts the best sub-region.
    if candidate.length < graph.delta() {
        return Ok(AppOutcome {
            best: Some(candidate),
            trace,
            kmst_calls,
            dp_tuples: 0,
            dp_pruned_pairs: 0,
            frontier_tuples: 0,
            frontier_peak: 0,
            dominance_evictions: 0,
            interrupted: search_interrupted,
        });
    }
    let span = tracer.start("find_opt_tree");
    let dp = find_opt_tree(graph, arena, &candidate, ctl, tracer);
    tracer.end_with(
        span,
        &[("tuples", dp.tuples_generated), ("pruned", dp.pruned_pairs)],
    );
    let (frontier_tuples, frontier_peak, dominance_evictions) = dp.frontier_stats();
    Ok(AppOutcome {
        best: dp.best,
        trace,
        kmst_calls,
        dp_tuples: dp.tuples_generated,
        dp_pruned_pairs: dp.pruned_pairs,
        frontier_tuples,
        frontier_peak,
        dominance_evictions,
        interrupted: search_interrupted || dp.interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::test_support::figure2_query_graph;

    #[test]
    fn params_validation() {
        assert!(AppParams::default().validate().is_ok());
        assert!(AppParams {
            alpha: 0.0,
            ..AppParams::default()
        }
        .validate()
        .is_err());
        assert!(AppParams {
            beta: -0.1,
            ..AppParams::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn app_finds_a_near_optimal_region_on_figure2() {
        // Exact optimum for ∆ = 6 is weight 1.1 ({v2,v4,v5,v6}).
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_app(
            &qg,
            &mut arena,
            &AppParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let best = outcome.best.expect("a region must be found");
        assert!(best.length <= 6.0 + 1e-9, "length {}", best.length);
        // Theorem 4 guarantees ≥ (1-α)/(5+5β)·opt ≈ 0.17; in practice APP does
        // far better on this instance — require at least half the optimum.
        assert!(best.weight >= 0.55, "weight {}", best.weight);
        assert!(outcome.kmst_calls > 0);
        assert!(!outcome.trace.is_empty());
    }

    #[test]
    fn app_respects_the_length_constraint_for_various_deltas() {
        for delta in [1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 20.0] {
            let (_n, qg) = figure2_query_graph(delta, 0.5);
            let mut arena = TupleArena::new();
            let outcome = run_app(
                &qg,
                &mut arena,
                &AppParams::default(),
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
            let best = outcome.best.expect("region expected");
            assert!(
                best.length <= delta + 1e-9,
                "delta {delta}: produced length {}",
                best.length
            );
            assert!(best.weight > 0.0);
        }
    }

    #[test]
    fn app_with_huge_delta_collects_everything() {
        let (_n, qg) = figure2_query_graph(1000.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_app(
            &qg,
            &mut arena,
            &AppParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let best = outcome.best.unwrap();
        assert_eq!(best.node_count(), 6);
        assert!((best.weight - 1.7).abs() < 1e-9);
    }

    #[test]
    fn app_on_irrelevant_query_returns_none() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::subgraph::RegionView;
        let (network, _) = crate::query_graph::test_support::figure2();
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &NodeWeights::default(), 5.0, 0.5).unwrap();
        let mut arena = TupleArena::new();
        let outcome = run_app(
            &qg,
            &mut arena,
            &AppParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        assert!(outcome.best.is_none());
        assert_eq!(outcome.kmst_calls, 0);
    }

    #[test]
    fn trace_is_consistent_with_lemma_4() {
        let (_n, qg) = figure2_query_graph(2.0, 0.15);
        let params = AppParams::default();
        let mut arena = TupleArena::new();
        let outcome = run_app(
            &qg,
            &mut arena,
            &params,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        // APP's trace is the binary search's; run the search alone for its
        // candidate tree.
        let (tree, trace, _) = binary_search(
            &qg,
            &mut TupleArena::new(),
            &mut GargKMst::new(),
            params.beta,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        );
        assert_eq!(trace, outcome.trace);
        let three_delta = 3.0 * qg.delta();
        for step in &trace {
            assert!(step.lower <= step.x && step.x <= step.upper);
            if step.x_beta > 0 {
                assert!(step.x_beta > step.x);
                // (1+β)X was only probed because TC satisfied the 3∆ bound.
                assert!(step.tc_length.unwrap() <= three_delta + 1e-9);
            }
        }
        // The last probed step (if it stopped the search) has T'C longer than 3∆
        // or unattainable.
        if let Some(last) = trace.last() {
            if last.x_beta > 0 {
                if let Some(l) = last.tprime_length {
                    assert!(l > three_delta - 1e-9 || tree.is_some());
                }
            }
        }
    }

    /// A 3-node path of 10-m edges with unit weights, built with α = 3
    /// (θ = 1, so L = 1 and U = 3) and ∆ = 100 m.
    fn unit_path_query_graph() -> QueryGraph {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..3)
            .map(|i| b.add_node(Point::new(i as f64 * 10.0, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 10.0).unwrap();
        }
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights((0..3).map(|v| (NodeId(v), 1.0)));
        QueryGraph::build(&RegionView::whole(&network), &weights, 100.0, 3.0).unwrap()
    }

    #[test]
    fn binary_search_alone_returns_a_tree_within_3_delta_or_none() {
        let (_n, figure2) = figure2_query_graph(3.0, 0.15);
        // On the path the one step probes X = 2; both X and (1+β)X = 3 are
        // met within 3∆, so the quota range closes and the search falls
        // through to its best feasible tree.
        let path = unit_path_query_graph();
        for (qg, falls_through) in [(&figure2, false), (&path, true)] {
            let mut arena = TupleArena::new();
            let mut solver = GargKMst::new();
            let (tree, trace, interrupted) = binary_search(
                qg,
                &mut arena,
                &mut solver,
                0.1,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            );
            assert!(!trace.is_empty());
            assert!(!interrupted);
            if let Some(t) = &tree {
                assert!(t.length <= 3.0 * qg.delta() + 1e-9);
            }
            if falls_through {
                let last = trace.last().unwrap();
                assert_eq!(
                    (trace.len(), last.lower, last.upper, last.x, last.x_beta),
                    (1, 1, 3, 2, 3)
                );
                assert_eq!(last.tprime_length, Some(20.0));
                let t = tree.expect("the fall-through keeps the best feasible tree");
                assert!(t.scaled >= last.x);
            }
        }
    }
}
