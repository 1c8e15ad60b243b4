//! Regions and region tuples (Definitions 2 and 4 of the paper).
//!
//! Algorithms work with [`RegionTuple`]s in the query graph's *local* node and
//! edge ids; the final answer is translated into a [`Region`] carrying global
//! [`NodeId`]/[`EdgeId`]s plus the region's length, weight and scaled weight.
//!
//! Since PR 3 a tuple's node/edge sets live in a [`TupleArena`] — the tuple
//! itself is a 32-byte `Copy` struct of measures plus two `(offset, len)`
//! handles, so the combine loops of TGEN and `findOptTree` move no id data
//! when they enumerate, clone or rank tuples.  Only [`Region`], the public
//! result type, still owns its id vectors.

use crate::arena::{IdSetHandle, TupleArena};
use crate::query_graph::QueryGraph;
use lcmsr_roadnet::edge::EdgeId;
use lcmsr_roadnet::node::NodeId;
use serde::{Deserialize, Serialize};

/// A region tuple `T = (l, s, ŝ, V, E)` (Definition 4): total length, original
/// weight, scaled weight, node set and edge set — in local query-graph ids,
/// with the sets stored in a [`TupleArena`].
///
/// Copying a tuple copies the handles, not the sets; all set-touching
/// operations take the arena that owns the tuple's storage.  There is no
/// `PartialEq`: compare measures directly and node sets via
/// [`RegionTuple::same_nodes`].
#[derive(Debug, Clone, Copy)]
pub struct RegionTuple {
    /// Total length of all road segments in the region, metres.
    pub length: f64,
    /// Original (unscaled) total weight.
    pub weight: f64,
    /// Scaled total weight.
    pub scaled: u64,
    /// Local node ids, kept sorted (arena handle).
    node_set: IdSetHandle,
    /// Local edge ids, kept sorted (arena handle).
    edge_set: IdSetHandle,
}

impl RegionTuple {
    /// The single-node region `({v}, ∅)`.
    pub fn singleton(arena: &mut TupleArena, node: u32, weight: f64, scaled: u64) -> Self {
        RegionTuple {
            length: 0.0,
            weight,
            scaled,
            node_set: arena.alloc(&[node]),
            edge_set: IdSetHandle::EMPTY,
        }
    }

    /// Builds a tuple from explicit measures and sorted id slices (used by the
    /// exact solver, the k-MST oracles and tests).
    pub fn from_parts(
        arena: &mut TupleArena,
        length: f64,
        weight: f64,
        scaled: u64,
        nodes: &[u32],
        edges: &[u32],
    ) -> Self {
        RegionTuple {
            length,
            weight,
            scaled,
            node_set: arena.alloc(nodes),
            edge_set: arena.alloc(edges),
        }
    }

    /// The sorted local node ids.
    #[inline]
    pub fn nodes<'a>(&self, arena: &'a TupleArena) -> &'a [u32] {
        arena.get(self.node_set)
    }

    /// The sorted local edge ids.
    #[inline]
    pub fn edges<'a>(&self, arena: &'a TupleArena) -> &'a [u32] {
        arena.get(self.edge_set)
    }

    /// Number of nodes in the region (no arena needed — it is the handle's length).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_set.len()
    }

    /// Number of edges in the region.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_set.len()
    }

    /// The node-set handle (diagnostics/aliasing tests).
    pub fn node_handle(&self) -> IdSetHandle {
        self.node_set
    }

    /// The edge-set handle (diagnostics/aliasing tests).
    pub fn edge_handle(&self) -> IdSetHandle {
        self.edge_set
    }

    /// Whether this tuple and `other` describe the same node set.
    pub fn same_nodes(&self, other: &RegionTuple, arena: &TupleArena) -> bool {
        arena.same_ids(self.node_set, other.node_set)
    }

    /// Returns the tuple's two set blocks to the arena.  The caller must be
    /// the sole owner of this tuple's storage (see the [`crate::arena`] module
    /// docs) — solvers only free candidates that were never shared.
    pub fn free(self, arena: &mut TupleArena) {
        // Edges were allocated after nodes by every constructor, so freeing
        // them first lets both blocks roll the bump pointer back when the
        // tuple sits at the top of the slab.
        arena.free(self.edge_set);
        arena.free(self.node_set);
    }

    /// The total quality order shared by every ranking consumer
    /// (`BestTracker::update`, TGEN's top list, the top-k ranking):
    /// larger scaled weight first, then larger *original* weight (equal
    /// scaled weights only differ through the scaling's floor), then shorter
    /// length.  `Ordering::Less` means `self` ranks before (is better than)
    /// `other`, so sorting with this comparator lists the best tuple first.
    /// Keeping a single comparator is what guarantees a top-1 request agrees
    /// with the single-region request.
    pub fn cmp_quality(&self, other: &Self) -> std::cmp::Ordering {
        other
            .scaled
            .cmp(&self.scaled)
            .then_with(|| {
                other
                    .weight
                    .partial_cmp(&self.weight)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .then_with(|| {
                self.length
                    .partial_cmp(&other.length)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// Whether the region contains the local node `v`.
    pub fn contains_node(&self, v: u32, arena: &TupleArena) -> bool {
        self.nodes(arena).binary_search(&v).is_ok()
    }

    /// Whether this region and `other` share at least one node (Lemma 9 check).
    /// Both node lists are sorted, so this is a linear merge.
    pub fn shares_nodes(&self, other: &RegionTuple, arena: &TupleArena) -> bool {
        arena.intersects(self.node_set, other.node_set)
    }

    /// Combines this region with a node-disjoint region `other` via the edge
    /// `edge` of length `edge_length` (the edge's endpoints must lie one in each
    /// region, which the caller guarantees).
    pub fn combine(
        &self,
        other: &RegionTuple,
        edge: u32,
        edge_length: f64,
        arena: &mut TupleArena,
    ) -> RegionTuple {
        debug_assert!(
            !self.shares_nodes(other, arena),
            "combine requires disjoint regions"
        );
        let node_set = arena.merge(self.node_set, other.node_set);
        let edge_set = arena.merge_plus(self.edge_set, other.edge_set, edge);
        RegionTuple {
            length: self.length + other.length + edge_length,
            weight: self.weight + other.weight,
            scaled: self.scaled + other.scaled,
            node_set,
            edge_set,
        }
    }

    /// Extends the region by a single new node `node` (weights given) through
    /// `edge` of length `edge_length`.
    pub fn extend(
        &self,
        node: u32,
        node_weight: f64,
        node_scaled: u64,
        edge: u32,
        edge_length: f64,
        arena: &mut TupleArena,
    ) -> RegionTuple {
        debug_assert!(!self.contains_node(node, arena));
        let node_set = arena.insert_one(self.node_set, node);
        let edge_set = arena.insert_one(self.edge_set, edge);
        RegionTuple {
            length: self.length + edge_length,
            weight: self.weight + node_weight,
            scaled: self.scaled + node_scaled,
            node_set,
            edge_set,
        }
    }
}

/// A result region in global ids, with its aggregate measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Global node ids of the region, sorted.
    pub nodes: Vec<NodeId>,
    /// Global edge ids of the region, sorted.
    pub edges: Vec<EdgeId>,
    /// Total length of the region's road segments, metres.
    pub length: f64,
    /// Total weight (query relevance) of the region.
    pub weight: f64,
    /// Total scaled weight of the region under the scaling used by the algorithm.
    pub scaled_weight: u64,
}

impl Region {
    /// Builds the global region corresponding to a local tuple.
    pub fn from_tuple(graph: &QueryGraph, arena: &TupleArena, tuple: &RegionTuple) -> Self {
        let mut nodes: Vec<NodeId> = tuple
            .nodes(arena)
            .iter()
            .map(|&v| graph.global_node(v))
            .collect();
        nodes.sort_unstable();
        let mut edges: Vec<EdgeId> = tuple
            .edges(arena)
            .iter()
            .map(|&e| graph.edge(e).global)
            .collect();
        edges.sort_unstable();
        Region {
            nodes,
            edges,
            length: tuple.length,
            weight: tuple.weight,
            scaled_weight: tuple.scaled,
        }
    }

    /// Number of nodes in the region.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the region is empty (no nodes).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether the region satisfies the length constraint `delta`.
    pub fn is_feasible(&self, delta: f64) -> bool {
        self.length <= delta + 1e-9
    }
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "region[{} nodes, {} edges, length {:.1} m, weight {:.4}]",
            self.nodes.len(),
            self.edges.len(),
            self.length,
            self.weight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::test_support::figure2_query_graph;

    #[test]
    fn singleton_tuple() {
        let mut arena = TupleArena::new();
        let t = RegionTuple::singleton(&mut arena, 3, 0.4, 40);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.length, 0.0);
        assert!(t.contains_node(3, &arena));
        assert!(!t.contains_node(2, &arena));
        assert!(t.edges(&arena).is_empty());
        assert_eq!(t.edge_count(), 0);
    }

    #[test]
    fn shares_nodes_detects_overlap() {
        let mut arena = TupleArena::new();
        let a = RegionTuple::from_parts(&mut arena, 0.0, 0.0, 0, &[1, 3, 5], &[]);
        let b = RegionTuple::from_parts(&mut arena, 0.0, 0.0, 0, &[2, 4, 6], &[]);
        let c = RegionTuple::from_parts(&mut arena, 0.0, 0.0, 0, &[0, 5, 9], &[]);
        assert!(!a.shares_nodes(&b, &arena));
        assert!(a.shares_nodes(&c, &arena));
        assert!(c.shares_nodes(&a, &arena));
        assert!(!b.shares_nodes(&c, &arena));
        assert!(a.same_nodes(&a, &arena));
        assert!(!a.same_nodes(&b, &arena));
    }

    #[test]
    fn combine_merges_measures_and_sets() {
        let mut arena = TupleArena::new();
        let a = RegionTuple::singleton(&mut arena, 1, 0.3, 30);
        let b = RegionTuple::singleton(&mut arena, 5, 0.4, 40);
        let c = a.combine(&b, 6, 1.6, &mut arena);
        assert_eq!(c.nodes(&arena), &[1, 5]);
        assert_eq!(c.edges(&arena), &[6]);
        assert!((c.length - 1.6).abs() < 1e-12);
        assert!((c.weight - 0.7).abs() < 1e-12);
        assert_eq!(c.scaled, 70);
        // Combining larger disjoint regions keeps sets sorted.
        let d = RegionTuple::singleton(&mut arena, 0, 0.2, 20);
        let e = c.combine(&d, 0, 1.0, &mut arena);
        assert_eq!(e.nodes(&arena), &[0, 1, 5]);
        assert_eq!(e.edges(&arena), &[0, 6]);
    }

    #[test]
    fn extend_adds_one_node() {
        let mut arena = TupleArena::new();
        let a = RegionTuple::singleton(&mut arena, 2, 0.4, 40);
        let b = a.extend(3, 0.2, 20, 2, 5.0, &mut arena);
        assert_eq!(b.nodes(&arena), &[2, 3]);
        assert_eq!(b.edges(&arena), &[2]);
        assert!((b.length - 5.0).abs() < 1e-12);
        assert!((b.weight - 0.6).abs() < 1e-12);
        assert_eq!(b.scaled, 60);
    }

    #[test]
    fn free_returns_an_unshared_tuple_to_the_arena() {
        let mut arena = TupleArena::new();
        let a = RegionTuple::singleton(&mut arena, 1, 0.3, 30);
        let b = RegionTuple::singleton(&mut arena, 5, 0.4, 40);
        let before = arena.storage_len();
        let c = a.combine(&b, 6, 1.6, &mut arena);
        assert!(arena.storage_len() > before);
        c.free(&mut arena);
        assert_eq!(
            arena.storage_len(),
            before,
            "a discarded top-of-slab combine rolls fully back"
        );
        // Sources are untouched.
        assert_eq!(a.nodes(&arena), &[1]);
        assert_eq!(b.nodes(&arena), &[5]);
    }

    #[test]
    fn region_example_of_definition_4() {
        // Example 3: R.V = {v2, v4, v5, v6}, R.E = {(v2,v6),(v6,v5),(v5,v4)} at
        // 100× scaling gives T = (5.9, 1.1, 110, …).
        let (_network, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        // Build the tuple by combining singletons along the edges.
        let v2 = RegionTuple::singleton(&mut arena, 1, qg.weight(1), qg.scaled_weight(1));
        let v6 = RegionTuple::singleton(&mut arena, 5, qg.weight(5), qg.scaled_weight(5));
        let v5 = RegionTuple::singleton(&mut arena, 4, qg.weight(4), qg.scaled_weight(4));
        let v4 = RegionTuple::singleton(&mut arena, 3, qg.weight(3), qg.scaled_weight(3));
        // Find local edge ids for (v2,v6), (v6,v5), (v5,v4).
        let find_edge = |a: u32, b: u32| -> (u32, f64) {
            let (_, e) = qg
                .neighbors(a)
                .iter()
                .copied()
                .find(|&(n, _)| n == b)
                .unwrap();
            (e, qg.edge(e).length)
        };
        let (e26, l26) = find_edge(1, 5);
        let (e65, l65) = find_edge(5, 4);
        let (e54, l54) = find_edge(4, 3);
        let t26 = v2.combine(&v6, e26, l26, &mut arena);
        let t265 = t26.combine(&v5, e65, l65, &mut arena);
        let t = t265.combine(&v4, e54, l54, &mut arena);
        assert!((t.length - 5.9).abs() < 1e-9);
        assert!((t.weight - 1.1).abs() < 1e-9);
        assert_eq!(t.scaled, 110);
        let region = Region::from_tuple(&qg, &arena, &t);
        assert_eq!(region.node_count(), 4);
        assert_eq!(region.edges.len(), 3);
        assert!(region.is_feasible(6.0));
        assert!(!region.is_feasible(5.0));
        assert!(!region.is_empty());
        assert!(region.to_string().contains("4 nodes"));
    }
}
