//! Query-region views of a road network.
//!
//! An LCMSR query restricts processing to the rectangular region of interest
//! `Q.Λ`.  [`RegionView`] extracts the nodes of the network inside such a
//! rectangle together with the induced edges, and maps each member to its
//! dense local id.  The LCMSR algorithms do not walk the view: they run on
//! the query graph built from it, which takes its nodes, edges and local ids
//! from the view.  Both lists are in ascending id order, which answers depend
//! on; a presence bitmap over the touched id band restores that order in
//! linear time (see [`crate::order`]).

use crate::edge::EdgeId;
use crate::epoch::EpochMap;
use crate::geo::Rect;
use crate::graph::RoadNetwork;
use crate::node::NodeId;
use crate::order::IdBitmap;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Reusable scratch buffers for building [`RegionView`]s.
///
/// Extracting `Q.Λ` needs a node list, an edge list, a node→local-id table
/// and a bitmap that puts both lists in id order.  The table is the only
/// node-id map of a query: the query graph built from the view resolves its
/// edge endpoints through it too.  A long-lived scratch lets successive
/// queries over the same network reuse all four:
/// [`RegionView::new_reusing`] takes the buffers out of the scratch and
/// [`RegionView::recycle`] puts them back, so a steady stream of views
/// performs no per-query allocation once the buffers have grown to size.
/// The table and the bitmap span the widest id band a view touched, not the
/// network.
#[derive(Debug, Clone, Default)]
pub struct RegionScratch {
    members: EpochMap,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    order: IdBitmap,
}

impl RegionScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current size of the node-membership epoch table, in entries.  Exposed
    /// so scale benches and regression tests can evidence that prepare-phase
    /// memory tracks the query rectangle's cell cover (the touched node-id
    /// band), not the network size.
    pub fn member_table_len(&self) -> usize {
        self.members.table_len()
    }
}

/// A view of the subgraph of a [`RoadNetwork`] induced by the nodes inside a
/// rectangle (the paper's `Q.Λ`).
///
/// The view borrows the underlying network; node and edge ids are the global
/// ids of the parent network so that results can be interpreted without
/// translation.
#[derive(Debug, Clone)]
pub struct RegionView<'g> {
    graph: &'g RoadNetwork,
    /// Nodes inside the rectangle, sorted by id.
    nodes: Vec<NodeId>,
    /// Edges with both endpoints inside the rectangle, sorted by id.
    edges: Vec<EdgeId>,
    /// Maps a member node's global index to its position in `nodes`
    /// (the view's dense local id); cleared in O(1) when recycled.
    members: EpochMap,
}

impl<'g> RegionView<'g> {
    /// Creates the view of `graph` induced by the nodes located inside `rect`.
    pub fn new(graph: &'g RoadNetwork, rect: Rect) -> Self {
        Self::new_reusing(graph, rect, &mut RegionScratch::new())
    }

    /// Like [`RegionView::new`], but reuses the buffers held by `scratch`
    /// (see [`RegionScratch`]).  Return them with [`RegionView::recycle`].
    ///
    /// Cost is proportional to the rectangle's grid cell cover and to the
    /// id bands it touches, not to the network: nodes are gathered from
    /// [`crate::spatial::NodeGrid`] buckets, induced edges from member
    /// adjacency, both lists are put in id order by a presence bitmap over
    /// their id band, and the membership table is epoch-rebased at the
    /// smallest member id so it spans the touched id band only.
    pub fn new_reusing(graph: &'g RoadNetwork, rect: Rect, scratch: &mut RegionScratch) -> Self {
        let mut members = std::mem::take(&mut scratch.members);
        let mut nodes = std::mem::take(&mut scratch.nodes);
        nodes.clear();
        let mut edges = std::mem::take(&mut scratch.edges);
        edges.clear();

        // Gather member nodes from the rect's cell cover.  Grid buckets are
        // keyed by cell, so the concatenation is not id sorted; the bitmap
        // restores the view invariant (ids are unique — every node lives in
        // exactly one cell).
        if let Some(cover) = graph.node_grid().cover(&rect) {
            graph.node_grid().candidates_in_cover(&cover, &mut nodes);
            nodes.retain(|&id| rect.contains(&graph.point(id)));
            scratch.order.sort_unique(&mut nodes, |id| id.0, NodeId);
        }

        // Membership table rebased at the smallest member id: its size tracks
        // the touched id band, not the id-space prefix below it.
        members.begin_at(nodes.first().map_or(0, |id| id.index()));
        for (i, &id) in nodes.iter().enumerate() {
            members.insert(id.index(), i as u32);
        }

        // Induced edges from member adjacency (each in-view edge is pushed
        // once, from its smaller endpoint) instead of a scan over every edge
        // of the network.
        for &a in &nodes {
            for &(b, e) in graph.neighbors(a) {
                if a < b && members.contains(b.index()) {
                    edges.push(e);
                }
            }
        }
        // Adjacency order is per-endpoint, not global: the bitmap restores
        // the edge-id order a whole-network filter produces (ids are unique,
        // as each edge is pushed once).
        scratch.order.sort_unique(&mut edges, |id| id.0, EdgeId);

        RegionView {
            graph,
            nodes,
            edges,
            members,
        }
    }

    /// Returns the view's buffers to `scratch` so the next
    /// [`RegionView::new_reusing`] call can reuse them.
    pub fn recycle(self, scratch: &mut RegionScratch) {
        scratch.members = self.members;
        scratch.nodes = self.nodes;
        scratch.edges = self.edges;
    }

    /// A view containing the whole network (`Q.Λ` = entire space).
    pub fn whole(graph: &'g RoadNetwork) -> Self {
        let rect = graph
            .bounding_rect()
            .unwrap_or_else(|| Rect::new(0.0, 0.0, 0.0, 0.0))
            .expanded(1.0);
        Self::new(graph, rect)
    }

    /// The underlying network.
    pub fn graph(&self) -> &'g RoadNetwork {
        self.graph
    }

    /// Nodes inside the view, sorted by id (`V_Q` in the paper).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Edges fully inside the view, sorted by id (`E_Q` in the paper).
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of nodes inside the view (`|V_Q|`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges inside the view (`|E_Q|`).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether `node` belongs to the view.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(node.index())
    }

    /// Position of `node` in [`RegionView::nodes`], if it lies in the view —
    /// an O(1) table lookup.  Dense per-view state (distances, weights, …)
    /// can live in flat vectors indexed by this local id even when the
    /// network has millions of nodes.
    #[inline]
    pub fn local_index(&self, node: NodeId) -> Option<usize> {
        self.members.get(node.index()).map(|i| i as usize)
    }

    /// Checks whether the given node set is connected within the view using
    /// only the given edges.  Used to validate result regions.
    pub fn is_connected_region(&self, nodes: &[NodeId], edges: &[EdgeId]) -> bool {
        if nodes.is_empty() {
            return false;
        }
        if nodes.len() == 1 {
            return edges.is_empty();
        }
        // Adjacency restricted to the provided edges.
        let node_set: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
        let mut adj: std::collections::HashMap<NodeId, Vec<NodeId>> =
            std::collections::HashMap::new();
        for &e in edges {
            let edge = self.graph.edge(e);
            if !node_set.contains(&edge.a) || !node_set.contains(&edge.b) {
                return false;
            }
            adj.entry(edge.a).or_default().push(edge.b);
            adj.entry(edge.b).or_default().push(edge.a);
        }
        let mut seen: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
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
        seen.len() == nodes.len()
    }

    /// Dijkstra from `source` restricted to the view, with every per-node
    /// array sized `|V_Q|` rather than `|V|`: the cost of a call depends only
    /// on the view's size, not on how large the surrounding network is (the
    /// property the MaxRS comparison of Section 7.5 relies on).
    ///
    /// Returns distances indexed by [`RegionView::local_index`].  A source
    /// outside the view yields a result with every node unreachable.
    pub fn distances_from(&self, source: NodeId) -> ViewDistances {
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut settled = 0usize;
        let mut heap: BinaryHeap<ViewHeapEntry> = BinaryHeap::new();
        if let Some(src) = self.local_index(source) {
            dist[src] = 0.0;
            heap.push(ViewHeapEntry {
                dist: 0.0,
                local: src as u32,
            });
        }
        while let Some(ViewHeapEntry { dist: d, local }) = heap.pop() {
            if d > dist[local as usize] {
                continue;
            }
            settled += 1;
            let v = self.nodes[local as usize];
            for &(u, e) in self.graph.neighbors(v) {
                let Some(lu) = self.local_index(u) else {
                    continue;
                };
                let nd = d + self.graph.length(e);
                if nd < dist[lu] {
                    dist[lu] = nd;
                    heap.push(ViewHeapEntry {
                        dist: nd,
                        local: lu as u32,
                    });
                }
            }
        }
        ViewDistances { dist, settled }
    }
}

/// Entry in the view-restricted Dijkstra priority queue (local node ids).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ViewHeapEntry {
    dist: f64,
    local: u32,
}

impl Eq for ViewHeapEntry {}

impl Ord for ViewHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that the BinaryHeap (max-heap) pops the smallest distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.local.cmp(&self.local))
    }
}

impl PartialOrd for ViewHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Result of [`RegionView::distances_from`]: shortest-path distances in local
/// (view) node indices, plus the number of nodes the search settled — a
/// machine-independent measure of the work performed, used by regression
/// tests to pin the cost to `|V_Q|`.
#[derive(Debug, Clone)]
pub struct ViewDistances {
    dist: Vec<f64>,
    settled: usize,
}

impl ViewDistances {
    /// Distance to the node at local index `local`, or `None` if unreachable.
    pub fn by_local(&self, local: usize) -> Option<f64> {
        let d = self.dist[local];
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }

    /// Number of local slots (equals the view's node count).
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// Whether the view had no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// Number of nodes settled by the search (≤ the view's node count).
    pub fn settled(&self) -> usize {
        self.settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::geo::Point;

    /// A 4x4 grid graph with unit spacing.
    fn grid4() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                ids.push(b.add_node(Point::new(x as f64, y as f64)));
            }
        }
        for y in 0..4 {
            for x in 0..4 {
                let i = y * 4 + x;
                if x < 3 {
                    b.add_edge(ids[i], ids[i + 1], 1.0).unwrap();
                }
                if y < 3 {
                    b.add_edge(ids[i], ids[i + 4], 1.0).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn whole_view_covers_everything() {
        let g = grid4();
        let v = RegionView::whole(&g);
        assert_eq!(v.node_count(), 16);
        assert_eq!(v.edge_count(), 24);
        assert!(v.contains(NodeId(0)));
    }

    #[test]
    fn rect_view_restricts_nodes_and_edges() {
        let g = grid4();
        // Lower-left 2x2 corner.
        let v = RegionView::new(&g, Rect::new(-0.5, -0.5, 1.5, 1.5));
        assert_eq!(v.node_count(), 4);
        assert_eq!(v.edge_count(), 4);
        assert!(v.contains(NodeId(0)));
        assert!(!v.contains(NodeId(15)));
    }

    #[test]
    fn empty_view_has_no_nodes_or_edges() {
        let g = grid4();
        let v = RegionView::new(&g, Rect::new(100.0, 100.0, 101.0, 101.0));
        assert_eq!(v.node_count(), 0);
        assert!(v.nodes().is_empty());
        assert!(v.edges().is_empty());
    }

    #[test]
    fn thin_view_keeps_one_row_and_its_edges() {
        let g = grid4();
        // A thin rectangle around row y = 0: its four nodes and the three
        // edges between them, nothing of the rows above.
        let v = RegionView::new(&g, Rect::new(-0.5, -0.5, 3.5, 0.5));
        assert_eq!(v.nodes(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let row: Vec<EdgeId> = (0..3)
            .map(|x| g.edge_between(NodeId(x), NodeId(x + 1)).unwrap())
            .collect();
        assert_eq!(v.edges(), &row[..]);
    }

    #[test]
    fn is_connected_region_validates_results() {
        let g = grid4();
        let v = RegionView::whole(&g);
        let e01 = g.edge_between(NodeId(0), NodeId(1)).unwrap();
        let e12 = g.edge_between(NodeId(1), NodeId(2)).unwrap();
        assert!(v.is_connected_region(&[NodeId(0), NodeId(1), NodeId(2)], &[e01, e12]));
        // Missing connecting edge → not connected.
        assert!(!v.is_connected_region(&[NodeId(0), NodeId(1), NodeId(2)], &[e01]));
        // Single node with no edges is a valid (degenerate) region.
        assert!(v.is_connected_region(&[NodeId(5)], &[]));
        // Empty region is not valid.
        assert!(!v.is_connected_region(&[], &[]));
        // Edge endpoint outside the node set → invalid.
        assert!(!v.is_connected_region(&[NodeId(0)], &[e01]));
    }

    #[test]
    fn boundary_nodes_are_included() {
        let g = grid4();
        let v = RegionView::new(&g, Rect::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(v.node_count(), 4);
    }

    #[test]
    fn reused_scratch_builds_identical_views() {
        let g = grid4();
        let mut scratch = RegionScratch::new();
        for rect in [
            Rect::new(-0.5, -0.5, 1.5, 1.5),
            Rect::new(0.5, 0.5, 3.5, 3.5),
            Rect::new(-0.5, -0.5, 3.5, 3.5),
            Rect::new(100.0, 100.0, 101.0, 101.0),
        ] {
            let fresh = RegionView::new(&g, rect);
            let reused = RegionView::new_reusing(&g, rect, &mut scratch);
            assert_eq!(fresh.nodes(), reused.nodes());
            assert_eq!(fresh.edges(), reused.edges());
            for n in g.node_ids() {
                assert_eq!(fresh.contains(n), reused.contains(n));
                assert_eq!(fresh.local_index(n), reused.local_index(n));
            }
            reused.recycle(&mut scratch);
        }
    }

    #[test]
    fn membership_table_is_sized_by_touched_nodes_not_network() {
        // A 4x4 grid plus a 2000-node appendage with higher node ids: a view
        // over the grid corner must size its epoch table by the touched node
        // ids (≤ 16 here), not pay 8 bytes per node of the whole network —
        // the PR 2 one-shot regression ROADMAP recorded.
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                ids.push(b.add_node(Point::new(x as f64, y as f64)));
            }
        }
        for y in 0..4 {
            for x in 0..4 {
                let i = y * 4 + x;
                if x < 3 {
                    b.add_edge(ids[i], ids[i + 1], 1.0).unwrap();
                }
                if y < 3 {
                    b.add_edge(ids[i], ids[i + 4], 1.0).unwrap();
                }
            }
        }
        let mut prev = ids[15];
        for k in 0..2000 {
            let n = b.add_node(Point::new(100.0 + k as f64, 100.0));
            b.add_edge(prev, n, 1.0).unwrap();
            prev = n;
        }
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 2016);

        let mut scratch = RegionScratch::new();
        let v = RegionView::new_reusing(&g, Rect::new(-0.5, -0.5, 1.5, 1.5), &mut scratch);
        assert_eq!(v.node_count(), 4);
        v.recycle(&mut scratch);
        assert!(
            scratch.members.table_len() <= 16,
            "epoch table grew to {} entries for a 4-node view of a 2016-node network",
            scratch.members.table_len()
        );
        // The ordering bitmap too: the view's node and edge ids (< 24) span
        // one word, against 32 for the network's node ids.
        assert_eq!(
            scratch.order.word_len(),
            1,
            "ordering bitmap grew past the touched id band"
        );
    }

    #[test]
    fn membership_table_is_sized_by_the_touched_id_band_even_for_high_ids() {
        // A view over nodes carrying the *highest* ids of the network: the
        // lazy high-water bound alone would size the table to the whole id
        // range; the offset rebase keeps it at the band width.
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                ids.push(b.add_node(Point::new(x as f64, y as f64)));
            }
        }
        let mut prev = ids[15];
        for k in 0..2000 {
            let n = b.add_node(Point::new(100.0 + k as f64, 100.0));
            b.add_edge(prev, n, 1.0).unwrap();
            prev = n;
        }
        let g = b.build().unwrap();
        // Nodes at x = 2090..=2099 are ids 2006..=2015, the network's last ten.
        let mut scratch = RegionScratch::new();
        let v = RegionView::new_reusing(&g, Rect::new(2089.5, 99.0, 2099.5, 101.0), &mut scratch);
        assert_eq!(v.node_count(), 10);
        assert_eq!(v.edge_count(), 9);
        v.recycle(&mut scratch);
        assert!(
            scratch.member_table_len() <= 10,
            "epoch table grew to {} entries for a 10-node band at the top of the id space",
            scratch.member_table_len()
        );
        // Its node ids 2006..=2015 and edge ids 1991..=1999 each span one
        // bitmap word.
        assert_eq!(
            scratch.order.word_len(),
            1,
            "ordering bitmap grew past the touched id band"
        );
    }

    #[test]
    fn views_of_a_shuffled_network_match_a_brute_force_filter() {
        // A 17x17 grid with diagonals whose node and edge ids are shuffled,
        // so a rectangle's ids spread over wide bands that cross many bitmap
        // words.  One reused scratch serves every rectangle.
        const SIDE: usize = 17;
        let mut rng = crate::generator::SplitRng::new(2014);
        let mut shuffled = |n: usize| {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.below(i + 1));
            }
            order
        };
        let cells = shuffled(SIDE * SIDE);
        let mut b = GraphBuilder::new();
        let mut at = vec![NodeId(0); SIDE * SIDE];
        for &cell in &cells {
            at[cell] = b.add_node(Point::new((cell % SIDE) as f64, (cell / SIDE) as f64));
        }
        let mut pairs = Vec::new();
        for y in 0..SIDE {
            for x in 0..SIDE {
                let i = y * SIDE + x;
                if x + 1 < SIDE {
                    pairs.push((i, i + 1));
                }
                if y + 1 < SIDE {
                    pairs.push((i, i + SIDE));
                }
                if x + 1 < SIDE && y + 1 < SIDE && (x + y) % 3 == 0 {
                    pairs.push((i, i + SIDE + 1));
                }
            }
        }
        for k in shuffled(pairs.len()) {
            let (i, j) = pairs[k];
            b.add_edge(at[i], at[j], 1.0).unwrap();
        }
        let g = b.build().unwrap();

        let mut rng = crate::generator::SplitRng::new(7);
        let mut scratch = RegionScratch::new();
        for _ in 0..300 {
            let (x0, x1) = (rng.range_f64(-2.0, 18.0), rng.range_f64(-2.0, 18.0));
            let (y0, y1) = (rng.range_f64(-2.0, 18.0), rng.range_f64(-2.0, 18.0));
            let rect = Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1));
            let inside = |n: NodeId| rect.contains(&g.point(n));
            let want_nodes: Vec<NodeId> = g.node_ids().filter(|&n| inside(n)).collect();
            let want_edges: Vec<EdgeId> = g
                .edge_ids()
                .filter(|&e| inside(g.edge(e).a) && inside(g.edge(e).b))
                .collect();
            let v = RegionView::new_reusing(&g, rect, &mut scratch);
            assert_eq!(v.nodes(), &want_nodes[..], "nodes of {rect:?}");
            assert_eq!(v.edges(), &want_edges[..], "edges of {rect:?}");
            for (i, &n) in want_nodes.iter().enumerate() {
                assert_eq!(v.local_index(n), Some(i));
            }
            v.recycle(&mut scratch);
        }
    }

    #[test]
    fn local_index_matches_node_positions() {
        let g = grid4();
        let v = RegionView::new(&g, Rect::new(-0.5, -0.5, 1.5, 1.5));
        for (i, &n) in v.nodes().iter().enumerate() {
            assert_eq!(v.local_index(n), Some(i));
        }
        assert_eq!(v.local_index(NodeId(15)), None);
    }

    #[test]
    fn view_distances_match_restricted_dijkstra() {
        let g = grid4();
        let rect = Rect::new(-0.5, -0.5, 2.5, 2.5); // 3x3 corner
        let v = RegionView::new(&g, rect);
        let inside = |n: NodeId| v.contains(n);
        let full = crate::traversal::dijkstra(&g, NodeId(0), inside);
        let local = v.distances_from(NodeId(0));
        assert_eq!(local.len(), v.node_count());
        assert!(!local.is_empty());
        for (i, &n) in v.nodes().iter().enumerate() {
            assert_eq!(full.distance(n), local.by_local(i));
        }
        // A source outside the view reaches nothing.
        let outside = v.distances_from(NodeId(15));
        assert!((0..v.node_count()).all(|i| outside.by_local(i).is_none()));
        assert_eq!(outside.settled(), 0);
    }

    #[test]
    fn view_distance_cost_is_independent_of_outside_nodes() {
        // The same 2x2 region carved out of a 4x4 grid and out of a network
        // with a long appendage of nodes outside the rectangle must settle the
        // same number of nodes.
        let small = grid4();
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                ids.push(b.add_node(Point::new(x as f64, y as f64)));
            }
        }
        for y in 0..4 {
            for x in 0..4 {
                let i = y * 4 + x;
                if x < 3 {
                    b.add_edge(ids[i], ids[i + 1], 1.0).unwrap();
                }
                if y < 3 {
                    b.add_edge(ids[i], ids[i + 4], 1.0).unwrap();
                }
            }
        }
        // 500 extra nodes trailing away from the region.
        let mut prev = ids[15];
        for k in 0..500 {
            let n = b.add_node(Point::new(10.0 + k as f64, 10.0));
            b.add_edge(prev, n, 1.0).unwrap();
            prev = n;
        }
        let large = b.build().unwrap();

        let rect = Rect::new(-0.5, -0.5, 1.5, 1.5);
        let vs = RegionView::new(&small, rect);
        let vl = RegionView::new(&large, rect);
        assert_eq!(vs.node_count(), vl.node_count());
        let ds = vs.distances_from(NodeId(0));
        let dl = vl.distances_from(NodeId(0));
        assert_eq!(ds.settled(), dl.settled());
        assert!(ds.settled() <= vs.node_count());
        assert_eq!(ds.len(), dl.len(), "arrays sized to |V_Q|, not |V|");
        for i in 0..ds.len() {
            assert_eq!(ds.by_local(i), dl.by_local(i));
        }
    }
}
