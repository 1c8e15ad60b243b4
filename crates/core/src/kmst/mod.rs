//! The node-weighted k-MST oracle.
//!
//! APP (Section 4) relies on a solver for the *node-weighted k minimum spanning
//! tree* problem: given integer node weights and a weight quota `X`, find the
//! tree with the smallest total edge length whose nodes have total weight at
//! least `X`.  The paper adopts Garg's 3-approximation, which is built on the
//! Goemans–Williamson primal–dual technique for constrained forest problems.
//!
//! [`garg::GargKMst`] is that oracle: it runs the GW prize-collecting
//! Steiner-tree primal–dual ([`gw`]) with per-node prizes `λ·σ̂_v` and bisects
//! `λ` until the quota is met, mirroring the structure of Garg's algorithm
//! (see README.md § "Substitutions").  APP's `3·Q.∆` test (Lemma 4) and its
//! `(5+ε)` bound (Theorem 4) both assume this 3-approximation, so it is the
//! only oracle.

pub mod garg;
pub mod gw;

/// Checks that a tuple returned by the oracle or by one GW run is a valid
/// tree in the graph: connected, edge endpoints inside the node set,
/// |E| = |V| − 1, and measures consistent with the graph.  Used by the
/// [`garg`] and [`gw`] tests.
#[cfg(test)]
pub(crate) fn validate_tree(
    graph: &crate::query_graph::QueryGraph,
    arena: &crate::arena::TupleArena,
    tree: &crate::region::RegionTuple,
) {
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
