//! The Greedy algorithm (Section 6.1).
//!
//! Greedy seeds the explored region `R_C` with the node of largest weight in
//! `Q.Λ` and repeatedly adds the frontier node with the best ranking score
//!
//! ```text
//! ρ(v_i) = µ · (1 − τ(v_i, v_j)/τ_max) + (1 − µ) · σ_{v_i}/σ_max
//! ```
//!
//! where `v_j ∈ R_C` is the node `v_i` connects to, `τ_max` is the maximum
//! road-segment length in `Q.Λ` and `σ_max` the maximum node weight.  The
//! expansion stops when no remaining candidate fits within `Q.∆`.
//!
//! Note on the formula: the paper's text prints `σ_{v_j}` (the already-included
//! endpoint) in the second term; since that value is identical for every
//! candidate reached through the same tree node it cannot rank candidates, so —
//! consistent with the prose ("taking into account both the node weight and the
//! road segment length" of the *candidate*) — we use the candidate's weight
//! `σ_{v_i}`.  README.md § "Substitutions" records this reading.

use crate::arena::TupleArena;
use crate::cancel::CancelToken;
use crate::error::{LcmsrError, Result};
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;
use crate::trace::TraceCollector;
use serde::{Deserialize, Serialize};

/// Tuning parameters of Greedy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GreedyParams {
    /// Trade-off µ between road-segment length (µ) and node weight (1 − µ).
    /// The paper tunes µ = 0.2 on NY and µ = 0.4 on USANW.
    pub mu: f64,
}

impl Default for GreedyParams {
    fn default() -> Self {
        GreedyParams { mu: 0.2 }
    }
}

impl GreedyParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.mu.is_finite() && (0.0..=1.0).contains(&self.mu)) {
            return Err(LcmsrError::InvalidParameter {
                name: "mu",
                value: self.mu,
                expected: "a value in [0, 1]",
            });
        }
        Ok(())
    }
}

/// Outcome of one Greedy run.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// The region grown greedily, if any node is relevant.
    pub best: Option<RegionTuple>,
    /// Number of expansion steps performed.
    pub steps: u64,
    /// Whether the expansion stopped early at a cancellation poll point;
    /// `best` is then the (always feasible) region grown so far.
    pub interrupted: bool,
}

/// Runs Greedy on a prepared query graph, seeding at the maximum-weight node.
///
/// `ctl` is polled once per expansion step; when it fires the expansion stops
/// and the region grown so far (always feasible) is returned with
/// `interrupted: true`.  Each expansion round records a `greedy_round` span
/// into `tracer` (one predicted branch when disabled).
pub fn run_greedy(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    params: &GreedyParams,
    ctl: &CancelToken,
    tracer: &mut TraceCollector,
) -> Result<GreedyOutcome> {
    run_greedy_excluding(graph, arena, params, &[], ctl, tracer)
}

/// Runs Greedy but seeds at the maximum-weight node *not* contained in
/// `excluded` (used by the top-k extension, Section 6.2).  Nodes in `excluded`
/// may still be absorbed during expansion; only the seed choice is restricted.
pub fn run_greedy_excluding(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    params: &GreedyParams,
    excluded: &[u32],
    ctl: &CancelToken,
    tracer: &mut TraceCollector,
) -> Result<GreedyOutcome> {
    params.validate()?;
    let delta = graph.delta();
    let sigma_max = graph.sigma_max();
    if sigma_max <= 0.0 {
        return Ok(GreedyOutcome {
            best: None,
            steps: 0,
            interrupted: false,
        });
    }
    let excluded_set: std::collections::BTreeSet<u32> = excluded.iter().copied().collect();
    // Seed: the largest-weight node outside the excluded set.  The weight
    // test goes first, so only relevant nodes probe the set.
    let seed = graph
        .node_indices()
        .filter(|&v| graph.weight(v) > 0.0)
        .filter(|v| !excluded_set.contains(v))
        .max_by(|&a, &b| {
            graph
                .weight(a)
                .partial_cmp(&graph.weight(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    let Some(seed) = seed else {
        return Ok(GreedyOutcome {
            best: None,
            steps: 0,
            interrupted: false,
        });
    };
    let tau_max = graph.max_edge_length().max(f64::MIN_POSITIVE);
    let n = graph.node_count();
    let mut in_region = vec![false; n];
    in_region[seed as usize] = true;
    let mut region =
        RegionTuple::singleton(arena, seed, graph.weight(seed), graph.scaled_weight(seed));
    let mut steps = 0u64;
    let mut interrupted = false;

    loop {
        // Deadline poll, once per expansion step: the region grown so far is
        // always feasible, so it is a valid anytime answer.
        if ctl.is_cancelled() {
            interrupted = true;
            break;
        }
        let span = tracer.start("greedy_round");
        // Gather frontier candidates: nodes adjacent to the region, with the
        // shortest connecting edge for each.
        let mut best_candidate: Option<(u32, u32, f64, f64)> = None; // (node, edge, edge_len, score)
        for &v in region.nodes(arena) {
            for &(u, e) in graph.neighbors(v) {
                if in_region[u as usize] {
                    continue;
                }
                let edge_len = graph.edge(e).length;
                if region.length + edge_len > delta + 1e-9 {
                    continue; // adding this node would violate Q.∆
                }
                let score = params.mu * (1.0 - edge_len / tau_max)
                    + (1.0 - params.mu) * graph.weight(u) / sigma_max;
                let better = match &best_candidate {
                    None => true,
                    Some((_, _, best_len, best_score)) => {
                        score > *best_score + 1e-12
                            || ((score - best_score).abs() <= 1e-12 && edge_len < *best_len)
                    }
                };
                if better {
                    best_candidate = Some((u, e, edge_len, score));
                }
            }
        }
        let Some((u, e, edge_len, _)) = best_candidate else {
            tracer.end(span);
            break; // no candidate fits within Q.∆
        };
        let grown = region.extend(
            u,
            graph.weight(u),
            graph.scaled_weight(u),
            e,
            edge_len,
            arena,
        );
        // The superseded region is purely local to this loop — recycle it.
        region.free(arena);
        region = grown;
        in_region[u as usize] = true;
        steps += 1;
        tracer.end_with(span, &[("node", u64::from(u))]);
        if steps as usize > n {
            break; // safety net; cannot add more nodes than exist
        }
    }

    Ok(GreedyOutcome {
        best: Some(region),
        steps,
        interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::query_graph::test_support::figure2_query_graph;

    #[test]
    fn params_validation() {
        assert!(GreedyParams::default().validate().is_ok());
        assert!(GreedyParams { mu: -0.1 }.validate().is_err());
        assert!(GreedyParams { mu: 1.5 }.validate().is_err());
        assert!(GreedyParams { mu: f64::NAN }.validate().is_err());
        assert!(GreedyParams { mu: 0.0 }.validate().is_ok());
        assert!(GreedyParams { mu: 1.0 }.validate().is_ok());
    }

    #[test]
    fn grows_a_feasible_region_from_the_heaviest_node() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_greedy(
            &qg,
            &mut arena,
            &GreedyParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let region = outcome.best.unwrap();
        assert!(region.length <= 6.0 + 1e-9);
        assert!(region.weight > 0.0);
        // The seed (a 0.4-weight node) must be in the region.
        assert!(region
            .nodes(&arena)
            .iter()
            .any(|&v| qg.weight(v) >= 0.4 - 1e-12));
        assert!(outcome.steps >= 1);
    }

    #[test]
    fn respects_delta_across_settings() {
        for delta in [0.5, 1.0, 3.0, 6.0, 10.0, 50.0] {
            for mu in [0.0, 0.2, 0.5, 0.8, 1.0] {
                let (_n, qg) = figure2_query_graph(delta, 0.15);
                let mut arena = TupleArena::new();
                let outcome = run_greedy(
                    &qg,
                    &mut arena,
                    &GreedyParams { mu },
                    &CancelToken::none(),
                    &mut TraceCollector::disabled(),
                )
                .unwrap();
                let region = outcome.best.unwrap();
                assert!(
                    region.length <= delta + 1e-9,
                    "∆={delta}, µ={mu}: length {}",
                    region.length
                );
            }
        }
    }

    #[test]
    fn tiny_delta_returns_the_seed_alone() {
        let (_n, qg) = figure2_query_graph(0.1, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_greedy(
            &qg,
            &mut arena,
            &GreedyParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let region = outcome.best.unwrap();
        assert_eq!(region.node_count(), 1);
        assert_eq!(outcome.steps, 0);
        assert!((region.weight - 0.4).abs() < 1e-12);
    }

    #[test]
    fn huge_delta_eventually_covers_the_component() {
        let (_n, qg) = figure2_query_graph(1000.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_greedy(
            &qg,
            &mut arena,
            &GreedyParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let region = outcome.best.unwrap();
        assert_eq!(region.node_count(), 6);
        assert!((region.weight - 1.7).abs() < 1e-9);
    }

    #[test]
    fn greedy_is_usually_worse_than_or_equal_to_the_optimum() {
        // For ∆ = 6 the optimum is 1.1; Greedy must not exceed it (it returns a
        // feasible region) and typically falls short.
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_greedy(
            &qg,
            &mut arena,
            &GreedyParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        assert!(outcome.best.unwrap().weight <= 1.1 + 1e-9);
    }

    #[test]
    fn irrelevant_query_returns_none() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::subgraph::RegionView;
        let (network, _) = crate::query_graph::test_support::figure2();
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &NodeWeights::default(), 5.0, 0.5).unwrap();
        let mut arena = TupleArena::new();
        let outcome = run_greedy(
            &qg,
            &mut arena,
            &GreedyParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        assert!(outcome.best.is_none());
    }

    #[test]
    fn excluding_the_best_seed_changes_the_region() {
        let (_n, qg) = figure2_query_graph(2.0, 0.15);
        let mut arena = TupleArena::new();
        let first = run_greedy(
            &qg,
            &mut arena,
            &GreedyParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap()
        .best
        .unwrap();
        let first_nodes: Vec<u32> = first.nodes(&arena).to_vec();
        let second = run_greedy_excluding(
            &qg,
            &mut arena,
            &GreedyParams::default(),
            &first_nodes,
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap()
        .best
        .unwrap();
        // The second region is seeded elsewhere.
        assert!(!first.same_nodes(&second, &arena));
    }

    #[test]
    fn seed_is_the_last_heaviest_node_outside_the_excluded_set() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;
        // A 6-node path with 10 m edges; nodes 0, 2 and 3 tie at the top
        // weight and node 5 weighs nothing.
        let mut b = GraphBuilder::new();
        let ids: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(Point::new(f64::from(i) * 10.0, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 10.0).unwrap();
        }
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights(
            [0.5, 0.2, 0.5, 0.5, 0.1, 0.0]
                .into_iter()
                .enumerate()
                .map(|(i, w)| (NodeId(i as u32), w)),
        );
        let view = RegionView::whole(&network);
        // ∆ below one edge: the region is the seed alone.
        let qg = QueryGraph::build(&view, &weights, 5.0, 0.5).unwrap();
        let mut arena = TupleArena::new();
        for (excluded, seed) in [
            (&[][..], Some(3)),
            (&[3][..], Some(2)),
            (&[5, 3, 1][..], Some(2)),
            (&[2, 3][..], Some(0)),
            (&[3, 0, 2][..], Some(1)),
            (&[0, 1, 2, 3][..], Some(4)),
            (&[0, 1, 2, 3, 4][..], None),
        ] {
            let outcome = run_greedy_excluding(
                &qg,
                &mut arena,
                &GreedyParams::default(),
                excluded,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
            let nodes = outcome.best.map(|r| r.nodes(&arena).to_vec());
            assert_eq!(nodes, seed.map(|s| vec![s]), "excluding {excluded:?}");
        }
    }

    #[test]
    fn mu_extremes_still_produce_valid_regions() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let weight_only = run_greedy(
            &qg,
            &mut arena,
            &GreedyParams { mu: 0.0 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap()
        .best
        .unwrap();
        let length_only = run_greedy(
            &qg,
            &mut arena,
            &GreedyParams { mu: 1.0 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap()
        .best
        .unwrap();
        assert!(weight_only.length <= 6.0 + 1e-9);
        assert!(length_only.length <= 6.0 + 1e-9);
    }
}
