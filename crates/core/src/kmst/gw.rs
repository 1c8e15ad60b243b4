//! Goemans–Williamson primal–dual moat growing for the (unrooted)
//! prize-collecting Steiner tree problem, followed by strong pruning.
//!
//! This is the engine behind the Garg-style k-MST oracle: given per-node
//! prizes `π_v` (in the same unit as edge lengths), the growth phase produces a
//! forest and the pruning phase extracts, from the best component, a tree whose
//! prize-minus-cost trade-off is locally optimal.  Larger prizes keep more
//! nodes; the quota search in [`super::garg`] exploits this monotone behaviour.
//!
//! The implementation is the classical event-driven formulation: clusters of
//! nodes grow "moats" uniformly while they are active; an edge whose moats meet
//! merges two clusters; a cluster whose total prize is exhausted deactivates.
//!
//! # Cost model
//!
//! A run makes at most `4n + 16` event-loop iterations, one per merge or
//! deactivation (~72 on the tiny NY query graphs).  An iteration costs
//! O(edges with an active endpoint not yet found internal + active roots +
//! boundary members of active clusters), plus one load per 64 edges:
//!
//! * every node carries its cluster's label, so an edge's two clusters are
//!   two loads; a merge relabels the absorbed cluster by walking its
//!   circular member list;
//! * the edge scan walks a set of armed edges, one bit per edge, in
//!   ascending edge index.  It disarms the edges a merge made internal for
//!   good (clusters never split), and *parks* the edges whose two clusters
//!   are both inactive: at rate 0 they cannot win the event;
//! * a cluster becomes active only at a merge, so only a merge that leaves
//!   an active cluster re-arms parked edges: it walks the members of each
//!   side that was inactive and re-arms their edges not found internal;
//! * a node whose edges have all been found internal is spliced out of its
//!   cluster's member list by the next walk that passes it, so moat growth,
//!   relabelling and re-arming walk only a cluster's root and its boundary
//!   members;
//! * deactivation candidates and moat growth come from the sorted list of
//!   active roots, so inactive clusters cost nothing there.
//!
//! Extraction is O(n + forest edges) plus sorting each pruned component's
//! nodes.  All working memory lives in a [`GwScratch`] that the caller keeps
//! across runs ([`super::garg::GargKMst`] keeps one for its whole quota
//! search), so a warm run allocates nothing but the winning tree's id sets
//! in the arena.
//!
//! # Exactness contract
//!
//! A run makes the same decisions with the same f64 operations as the
//! textbook loop over a union-find (kept as the test reference below), so
//! its trees are bit-identical:
//!
//! * labels and moats are exact for every node with a live edge (one not
//!   yet found internal), and no other node's label or moat is read: only
//!   the edge scan and a merge read them, and only at a live edge's
//!   endpoints.  Extraction reads forest edges and prizes;
//! * a node's label is the root the union-find's `find` would return: a
//!   merge along edge `e` makes the cluster of `e.b` the root;
//! * edge events are scanned in ascending edge index and win on
//!   `dt < best_dt − EPS`, with `slack = len − moat[a] − moat[b]` and
//!   `dt = (slack / rate).max(0)`; deactivations follow in ascending root id
//!   under the same rule.  Every edge the scan skips is internal or has two
//!   inactive clusters, and the reference skips those too;
//! * time advances by `moat[v] += dt` for each node of an active cluster
//!   that has a live edge (and for its root), and by `remaining[r] −= dt`
//!   for each active root, and a merge leaves
//!   `rem[a].max(0) + rem[b].max(0)` on the new root;
//! * extraction keeps each node's forest neighbours in forest-edge order, so
//!   every DFS pops in the same order and each component gets the same root
//!   (the last highest prize in DFS order); a tree's length is summed in
//!   DFS order, and its value, weight and scaled weight over its sorted
//!   nodes.

use crate::arena::TupleArena;
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;

const EPS: f64 = 1e-9;
/// The `(parent, edge)` entry of a pruned component's root.
const NO_PARENT: (u32, u32) = (u32::MAX, u32::MAX);

/// Result of one GW growth + pruning run.
#[derive(Debug, Clone)]
pub struct PcstResult {
    /// The pruned tree (local node/edge ids) as a region tuple.
    pub tree: RegionTuple,
    /// Number of event-loop iterations performed (for statistics).
    pub iterations: usize,
}

/// The next event of the growth loop.
enum Event {
    /// Two clusters' moats meet on this edge.
    Edge(u32),
    /// This active root's potential runs out.
    Deactivate(u32),
}

/// Forest adjacency in CSR form: node `v`'s `(neighbour, edge)` pairs are
/// `entries[offsets[v]..offsets[v + 1]]`, in forest-edge order.
#[derive(Debug, Default)]
struct Forest {
    offsets: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

impl Forest {
    fn build(&mut self, graph: &QueryGraph, forest_edges: &[u32]) {
        let n = graph.node_count();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &e in forest_edges {
            let edge = graph.edge(e);
            self.offsets[edge.a as usize] += 1;
            self.offsets[edge.b as usize] += 1;
        }
        // Inclusive prefix sums make `offsets[v]` the end of v's row; filling
        // each row backwards from its end, over the edges in reverse, leaves
        // it in forest-edge order and `offsets[v]` at its start.
        for v in 1..n {
            self.offsets[v] += self.offsets[v - 1];
        }
        self.offsets[n] = 2 * forest_edges.len() as u32;
        self.entries.clear();
        self.entries.resize(2 * forest_edges.len(), (0, 0));
        for &e in forest_edges.iter().rev() {
            let edge = graph.edge(e);
            for (from, to) in [(edge.b, edge.a), (edge.a, edge.b)] {
                let slot = &mut self.offsets[from as usize];
                *slot -= 1;
                self.entries[*slot as usize] = (to, e);
            }
        }
    }

    #[inline]
    fn neighbours(&self, v: u32) -> &[(u32, u32)] {
        &self.entries[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }
}

/// Working memory of [`pcst`], reused across runs.  Every run sizes it to
/// its graph, so one scratch serves query graphs of any size.
#[derive(Debug, Default)]
pub struct GwScratch {
    /// Per node: the root of its cluster (exact while the node has a live
    /// edge).
    label: Vec<u32>,
    /// Per node: the next member of its cluster, in a circular list of the
    /// root and the members that may still have a live edge.
    next: Vec<u32>,
    /// Per node: total dual grown around it (depth of moats containing it;
    /// exact while the node has a live edge).
    moat: Vec<f64>,
    /// Per node: its live edges, those not yet found internal to a cluster.
    live_degree: Vec<u32>,
    /// Per cluster root: remaining potential.
    remaining: Vec<f64>,
    /// Per cluster root: whether its moat grows.
    active: Vec<bool>,
    /// The roots with `active` set, ascending.
    active_roots: Vec<u32>,
    /// One bit per edge: the edges the next scan visits.  A live edge is
    /// unarmed only while it is parked between two inactive clusters.
    armed: Vec<u64>,
    /// Per edge: found internal to a cluster, so never armed again.
    dead: Vec<bool>,
    /// Edges that merged two clusters, in merge order.
    forest_edges: Vec<u32>,
    forest: Forest,
    /// Per node: visited by the component walk.
    visited: Vec<bool>,
    /// Per node: `(parent, edge)` towards its pruned component's root.
    parent: Vec<(u32, u32)>,
    /// Per node: prize plus the gains of its kept children.
    net: Vec<f64>,
    /// Per node: whether pruning keeps it under its parent.
    kept: Vec<bool>,
    stack: Vec<u32>,
    component: Vec<u32>,
    /// Pruning DFS pop order.
    order: Vec<u32>,
    /// The last pruned tree: sorted nodes, edges in DFS order.
    nodes: Vec<u32>,
    edges: Vec<u32>,
    /// The best pruned tree so far, same layout.
    best_nodes: Vec<u32>,
    best_edges: Vec<u32>,
}

/// Runs GW moat growing with the given per-node prizes and returns the pruned
/// tree of the best component (allocated in `arena`), using `scratch` for
/// every intermediate.
///
/// `prizes` must have one entry per local node.  The returned tree always
/// contains at least one node (the best single node when nothing larger pays off).
pub fn pcst(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    prizes: &[f64],
    scratch: &mut GwScratch,
) -> PcstResult {
    assert_eq!(
        prizes.len(),
        graph.node_count(),
        "one prize per node required"
    );
    let iterations = scratch.grow(graph, prizes);
    let tree = scratch.extract_best_pruned_tree(graph, arena, prizes);
    PcstResult { tree, iterations }
}

/// Visits `root` and each other member of its circular list that has a live
/// edge, in list order, and splices out the members that have none: no one
/// reads their label or moat again.
fn walk_members(next: &mut [u32], live_degree: &[u32], root: u32, mut visit: impl FnMut(u32)) {
    visit(root);
    let (mut prev, mut v) = (root, next[root as usize]);
    while v != root {
        let after = next[v as usize];
        if live_degree[v as usize] == 0 {
            next[prev as usize] = after;
        } else {
            visit(v);
            prev = v;
        }
        v = after;
    }
}

impl GwScratch {
    /// The growth phase: leaves the forest in `forest_edges` and returns the
    /// number of event-loop iterations.
    fn grow(&mut self, graph: &QueryGraph, prizes: &[f64]) -> usize {
        let n = graph.node_count();
        let edges = graph.edges();
        self.label.clear();
        self.label.extend(0..n as u32);
        self.next.clear();
        self.next.extend(0..n as u32);
        self.moat.clear();
        self.moat.resize(n, 0.0);
        self.live_degree.clear();
        self.live_degree
            .extend((0..n as u32).map(|v| graph.neighbors(v).len() as u32));
        self.remaining.clear();
        self.remaining.extend_from_slice(prizes);
        self.active.clear();
        self.active.extend(prizes.iter().map(|&p| p > EPS));
        self.active_roots.clear();
        self.active_roots
            .extend((0..n as u32).filter(|&v| self.active[v as usize]));
        self.armed.clear();
        self.armed.resize(edges.len().div_ceil(64), u64::MAX);
        let padding = 64 * self.armed.len() - edges.len();
        if let Some(last) = self.armed.last_mut() {
            *last >>= padding;
        }
        self.dead.clear();
        self.dead.resize(edges.len(), false);
        self.forest_edges.clear();
        let mut iterations = 0usize;

        loop {
            iterations += 1;
            if iterations > 4 * n + 16 {
                break; // safety net; cannot happen with consistent events
            }
            // Find the next event: edges first, in ascending index.
            let mut best_dt = f64::INFINITY;
            let mut event = None;
            let (label, active, moat) = (&self.label, &self.active, &self.moat);
            for (word_index, word) in self.armed.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let bit = bits & bits.wrapping_neg();
                    bits ^= bit;
                    let idx = (word_index * 64) as u32 + bit.trailing_zeros();
                    let e = &edges[idx as usize];
                    let (ra, rb) = (label[e.a as usize], label[e.b as usize]);
                    if ra == rb {
                        // Internal for good: clusters never split.
                        *word ^= bit;
                        self.dead[idx as usize] = true;
                        self.live_degree[e.a as usize] -= 1;
                        self.live_degree[e.b as usize] -= 1;
                        continue;
                    }
                    let rate = (active[ra as usize] as u32 + active[rb as usize] as u32) as f64;
                    if rate == 0.0 {
                        // Parked until a merge activates one of its clusters.
                        *word ^= bit;
                        continue;
                    }
                    let slack = e.length - moat[e.a as usize] - moat[e.b as usize];
                    let dt = (slack / rate).max(0.0);
                    if dt < best_dt - EPS {
                        best_dt = dt;
                        event = Some(Event::Edge(idx));
                    }
                }
            }
            // Cluster deactivation events, in ascending root id.
            for &r in &self.active_roots {
                let dt = self.remaining[r as usize].max(0.0);
                if dt < best_dt - EPS {
                    best_dt = dt;
                    event = Some(Event::Deactivate(r));
                }
            }
            let Some(event) = event.filter(|_| best_dt.is_finite()) else {
                break;
            };
            // Advance time by best_dt: grow the moats of active clusters'
            // members that have a live edge, and spend their potential.
            if best_dt > 0.0 {
                for &r in &self.active_roots {
                    walk_members(&mut self.next, &self.live_degree, r, |v| {
                        self.moat[v as usize] += best_dt;
                    });
                    self.remaining[r as usize] -= best_dt;
                }
            }
            // Apply the event.
            match event {
                Event::Edge(idx) => {
                    let e = graph.edge(idx);
                    let ra = self.label[e.a as usize];
                    let rb = self.label[e.b as usize];
                    let merged_remaining =
                        self.remaining[ra as usize].max(0.0) + self.remaining[rb as usize].max(0.0);
                    if merged_remaining > EPS {
                        // The merged cluster grows, so the edges an inactive
                        // side parked can fire again.
                        for side in [ra, rb] {
                            if !self.active[side as usize] {
                                self.unpark(graph, side);
                            }
                        }
                    }
                    // `rb` absorbs `ra`: relabel ra's members, then splice
                    // the two circular member lists.
                    walk_members(&mut self.next, &self.live_degree, ra, |v| {
                        self.label[v as usize] = rb;
                    });
                    self.next.swap(ra as usize, rb as usize);
                    self.remaining[rb as usize] = merged_remaining;
                    self.remaining[ra as usize] = 0.0;
                    self.set_active(rb, merged_remaining > EPS);
                    self.set_active(ra, false);
                    self.forest_edges.push(idx);
                }
                Event::Deactivate(r) => {
                    self.set_active(r, false);
                    self.remaining[r as usize] = 0.0;
                }
            }
            // Stop early when no active cluster remains.
            if self.active_roots.is_empty() {
                break;
            }
        }
        iterations
    }

    /// Re-arms every edge of `root`'s cluster not yet found internal.
    fn unpark(&mut self, graph: &QueryGraph, root: u32) {
        let (armed, dead) = (&mut self.armed, &self.dead);
        walk_members(&mut self.next, &self.live_degree, root, |v| {
            for &(_, e) in graph.neighbors(v) {
                if !dead[e as usize] {
                    armed[e as usize / 64] |= 1 << (e % 64);
                }
            }
        });
    }

    /// Sets a root's activity flag, keeping `active_roots` sorted.
    fn set_active(&mut self, r: u32, on: bool) {
        if self.active[r as usize] == on {
            return;
        }
        self.active[r as usize] = on;
        match self.active_roots.binary_search(&r) {
            Ok(at) => {
                self.active_roots.remove(at);
            }
            Err(at) => self.active_roots.insert(at, r),
        }
    }

    /// From the GW forest, picks the component with the largest pruned value
    /// and strong-prunes it: subtrees whose total prize does not pay for
    /// their connecting edge are cut.  Only the winner reaches the arena.
    fn extract_best_pruned_tree(
        &mut self,
        graph: &QueryGraph,
        arena: &mut TupleArena,
        prizes: &[f64],
    ) -> RegionTuple {
        let n = graph.node_count();
        self.forest.build(graph, &self.forest_edges);
        self.visited.clear();
        self.visited.resize(n, false);
        self.parent.clear();
        self.parent.resize(n, NO_PARENT);
        self.net.resize(n, 0.0);
        self.kept.resize(n, false);
        // (value, length) of the tree in `best_nodes`/`best_edges`.
        let mut best: Option<(f64, f64)> = None;
        for start in 0..n as u32 {
            if self.visited[start as usize] {
                continue;
            }
            // Collect the component.
            self.component.clear();
            self.stack.push(start);
            self.visited[start as usize] = true;
            while let Some(v) = self.stack.pop() {
                self.component.push(v);
                for &(u, _) in self.forest.neighbours(v) {
                    if !self.visited[u as usize] {
                        self.visited[u as usize] = true;
                        self.stack.push(u);
                    }
                }
            }
            // Root the component at its highest-prize node and strong-prune.
            let root = *self
                .component
                .iter()
                .max_by(|&&a, &&b| {
                    prizes[a as usize]
                        .partial_cmp(&prizes[b as usize])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap();
            let length = self.strong_prune(graph, prizes, root);
            let value = self.nodes.iter().map(|&v| prizes[v as usize]).sum::<f64>() - length;
            if value > best.map_or(f64::NEG_INFINITY, |(best_value, _)| best_value) {
                best = Some((value, length));
                std::mem::swap(&mut self.nodes, &mut self.best_nodes);
                std::mem::swap(&mut self.edges, &mut self.best_edges);
            }
        }
        let Some((_, length)) = best else {
            // Degenerate case (no nodes): cannot happen because QueryGraph is non-empty.
            return RegionTuple::singleton(arena, 0, graph.weight(0), graph.scaled_weight(0));
        };
        self.best_edges.sort_unstable();
        let weight: f64 = self.best_nodes.iter().map(|&v| graph.weight(v)).sum();
        let scaled: u64 = self
            .best_nodes
            .iter()
            .map(|&v| graph.scaled_weight(v))
            .sum();
        RegionTuple::from_parts(
            arena,
            length,
            weight,
            scaled,
            &self.best_nodes,
            &self.best_edges,
        )
    }

    /// Strong pruning: rooted DP keeping a child subtree only when its net
    /// worth exceeds the cost of the edge connecting it.  Leaves the pruned
    /// tree containing `root` in `nodes` (sorted) and `edges`, and returns its
    /// length.
    fn strong_prune(&mut self, graph: &QueryGraph, prizes: &[f64], root: u32) -> f64 {
        // Iterative pre-order over the tree rooted at `root`; a forest has no
        // cycles, so every neighbour but the parent is an unseen child.
        self.order.clear();
        self.stack.push(root);
        while let Some(v) = self.stack.pop() {
            self.order.push(v);
            self.net[v as usize] = prizes[v as usize];
            let up = self.parent[v as usize].0;
            for &(u, e) in self.forest.neighbours(v) {
                if u != up {
                    self.parent[u as usize] = (v, e);
                    self.stack.push(u);
                }
            }
        }
        // net[v] = prize(v) + Σ_{kept children} (net[c] − cost(v,c)).
        for &v in self.order.iter().rev() {
            let (p, e) = self.parent[v as usize];
            if p != NO_PARENT.0 {
                let gain = self.net[v as usize] - graph.edge(e).length;
                let keep = gain > EPS;
                if keep {
                    self.net[p as usize] += gain;
                }
                self.kept[v as usize] = keep;
            }
        }
        // Collect the nodes reachable from root through kept edges.
        self.nodes.clear();
        self.edges.clear();
        let mut length = 0.0;
        self.stack.push(root);
        while let Some(v) = self.stack.pop() {
            self.nodes.push(v);
            for &(u, e) in self.forest.neighbours(v) {
                // Only descend child edges (u's parent is v) that were kept.
                if self.parent[u as usize] == (v, e) && self.kept[u as usize] {
                    self.edges.push(e);
                    length += graph.edge(e).length;
                    self.stack.push(u);
                }
            }
        }
        self.nodes.sort_unstable();
        length
    }
}

/// The textbook loop over a union-find that [`pcst`] replaced, kept verbatim
/// as the reference its exactness contract is tested against.
#[cfg(test)]
mod reference {
    use super::{PcstResult, EPS};
    use crate::arena::TupleArena;
    use crate::query_graph::QueryGraph;
    use crate::region::RegionTuple;

    /// Union-find with path compression.
    struct UnionFind {
        parent: Vec<u32>,
    }

    impl UnionFind {
        fn new(n: usize) -> Self {
            UnionFind {
                parent: (0..n as u32).collect(),
            }
        }

        fn find(&mut self, x: u32) -> u32 {
            let mut root = x;
            while self.parent[root as usize] != root {
                root = self.parent[root as usize];
            }
            let mut cur = x;
            while self.parent[cur as usize] != root {
                let next = self.parent[cur as usize];
                self.parent[cur as usize] = root;
                cur = next;
            }
            root
        }

        fn union(&mut self, a: u32, b: u32) -> u32 {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra != rb {
                self.parent[ra as usize] = rb;
            }
            rb
        }
    }

    /// Runs GW moat growing with the given per-node prizes and returns the pruned
    /// tree of the best component (allocated in `arena`).
    ///
    /// `prizes` must have one entry per local node.  The returned tree always
    /// contains at least one node (the best single node when nothing larger pays off).
    pub fn pcst(graph: &QueryGraph, arena: &mut TupleArena, prizes: &[f64]) -> PcstResult {
        let n = graph.node_count();
        assert_eq!(prizes.len(), n, "one prize per node required");
        let mut uf = UnionFind::new(n);
        // moat[v]: total dual grown around node v (depth of moats containing v).
        let mut moat = vec![0.0f64; n];
        // Per cluster root: remaining potential and activity flag.
        let mut remaining: Vec<f64> = prizes.to_vec();
        let mut active: Vec<bool> = prizes.iter().map(|&p| p > EPS).collect();
        let mut forest_edges: Vec<u32> = Vec::new();
        let mut iterations = 0usize;

        loop {
            iterations += 1;
            if iterations > 4 * n + 16 {
                break; // safety net; cannot happen with consistent events
            }
            // Find the next event.
            let mut best_dt = f64::INFINITY;
            enum Event {
                Edge(u32),
                Deactivate(u32),
                None,
            }
            let mut event = Event::None;
            // Edge events.
            for (idx, e) in graph.edges().iter().enumerate() {
                let ra = uf.find(e.a);
                let rb = uf.find(e.b);
                if ra == rb {
                    continue;
                }
                let rate = (active[ra as usize] as u32 + active[rb as usize] as u32) as f64;
                if rate == 0.0 {
                    continue;
                }
                let slack = e.length - moat[e.a as usize] - moat[e.b as usize];
                let dt = (slack / rate).max(0.0);
                if dt < best_dt - EPS {
                    best_dt = dt;
                    event = Event::Edge(idx as u32);
                }
            }
            // Cluster deactivation events.
            for v in 0..n as u32 {
                let r = uf.find(v);
                if r != v {
                    continue; // only roots carry cluster state
                }
                if active[r as usize] {
                    let dt = remaining[r as usize].max(0.0);
                    if dt < best_dt - EPS {
                        best_dt = dt;
                        event = Event::Deactivate(r);
                    }
                }
            }
            if matches!(event, Event::None) || !best_dt.is_finite() {
                break;
            }
            // Advance time by best_dt: grow moats of nodes in active clusters and
            // spend the active clusters' potential.
            if best_dt > 0.0 {
                for v in 0..n as u32 {
                    let r = uf.find(v);
                    if active[r as usize] {
                        moat[v as usize] += best_dt;
                    }
                }
                for r in 0..n as u32 {
                    if uf.find(r) == r && active[r as usize] {
                        remaining[r as usize] -= best_dt;
                    }
                }
            }
            // Apply the event.
            match event {
                Event::Edge(idx) => {
                    let e = graph.edge(idx);
                    let ra = uf.find(e.a);
                    let rb = uf.find(e.b);
                    if ra == rb {
                        continue;
                    }
                    let merged_remaining =
                        remaining[ra as usize].max(0.0) + remaining[rb as usize].max(0.0);
                    let new_root = uf.union(ra, rb);
                    let other = if new_root == ra { rb } else { ra };
                    remaining[new_root as usize] = merged_remaining;
                    remaining[other as usize] = 0.0;
                    active[new_root as usize] = merged_remaining > EPS;
                    active[other as usize] = false;
                    forest_edges.push(idx);
                }
                Event::Deactivate(r) => {
                    active[r as usize] = false;
                    remaining[r as usize] = 0.0;
                }
                Event::None => unreachable!(),
            }
            // Stop early when no active cluster remains.
            let any_active = (0..n as u32).any(|v| uf.find(v) == v && active[v as usize]);
            if !any_active {
                break;
            }
        }

        let tree = extract_best_pruned_tree(graph, arena, prizes, &forest_edges);
        PcstResult { tree, iterations }
    }

    /// From the GW forest, picks the component with the largest pruned value and
    /// strong-prunes it: subtrees whose total prize does not pay for their
    /// connecting edge are cut.
    fn extract_best_pruned_tree(
        graph: &QueryGraph,
        arena: &mut TupleArena,
        prizes: &[f64],
        forest_edges: &[u32],
    ) -> RegionTuple {
        let n = graph.node_count();
        // Forest adjacency.
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for &e in forest_edges {
            let edge = graph.edge(e);
            adj[edge.a as usize].push((edge.b, e));
            adj[edge.b as usize].push((edge.a, e));
        }
        let mut visited = vec![false; n];
        let mut best: Option<(RegionTuple, f64)> = None;
        for start in 0..n as u32 {
            if visited[start as usize] {
                continue;
            }
            // Collect the component.
            let mut component = Vec::new();
            let mut stack = vec![start];
            visited[start as usize] = true;
            while let Some(v) = stack.pop() {
                component.push(v);
                for &(u, _) in &adj[v as usize] {
                    if !visited[u as usize] {
                        visited[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
            // Root the component at its highest-prize node and strong-prune.
            let root = *component
                .iter()
                .max_by(|&&a, &&b| {
                    prizes[a as usize]
                        .partial_cmp(&prizes[b as usize])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap();
            let pruned = strong_prune(graph, arena, prizes, &adj, root);
            let candidate_value: f64 = pruned
                .nodes(arena)
                .iter()
                .map(|&v| prizes[v as usize])
                .sum::<f64>()
                - pruned.length;
            let best_value = best.as_ref().map_or(f64::NEG_INFINITY, |(_, v)| *v);
            if candidate_value > best_value {
                // The displaced tree has a single owner here — recycle it.
                if let Some((old, _)) = best.replace((pruned, candidate_value)) {
                    old.free(arena);
                }
            } else {
                pruned.free(arena);
            }
        }
        best.map_or_else(
            || {
                // Degenerate case (no nodes): cannot happen because QueryGraph is non-empty.
                RegionTuple::singleton(arena, 0, graph.weight(0), graph.scaled_weight(0))
            },
            |(t, _)| t,
        )
    }

    /// Strong pruning: rooted DP keeping a child subtree only when its net worth
    /// exceeds the cost of the edge connecting it.  Returns the pruned tree
    /// containing `root` as a region tuple with graph weights.
    fn strong_prune(
        graph: &QueryGraph,
        arena: &mut TupleArena,
        prizes: &[f64],
        adj: &[Vec<(u32, u32)>],
        root: u32,
    ) -> RegionTuple {
        // Iterative post-order over the tree rooted at `root`.
        let n = graph.node_count();
        let mut parent: Vec<Option<(u32, u32)>> = vec![None; n]; // (parent node, edge)
        let mut order = Vec::new();
        let mut stack = vec![root];
        let mut seen = vec![false; n];
        seen[root as usize] = true;
        while let Some(v) = stack.pop() {
            order.push(v);
            for &(u, e) in &adj[v as usize] {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    parent[u as usize] = Some((v, e));
                    stack.push(u);
                }
            }
        }
        // net[v] = prize(v) + Σ_{kept children} (net[c] − cost(v,c)); kept[c] records the decision.
        let mut net = vec![0.0f64; n];
        let mut kept_edge = vec![false; graph.edge_count()];
        for &v in order.iter().rev() {
            net[v as usize] = prizes[v as usize];
        }
        for &v in order.iter().rev() {
            if let Some((p, e)) = parent[v as usize] {
                let gain = net[v as usize] - graph.edge(e).length;
                if gain > EPS {
                    net[p as usize] += gain;
                    kept_edge[e as usize] = true;
                }
            }
        }
        // Collect the nodes reachable from root through kept edges.
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        let mut length = 0.0;
        let mut stack = vec![root];
        let mut included = vec![false; n];
        included[root as usize] = true;
        while let Some(v) = stack.pop() {
            nodes.push(v);
            for &(u, e) in &adj[v as usize] {
                // Only descend child edges (u's parent is v) that were kept.
                if parent[u as usize] == Some((v, e))
                    && kept_edge[e as usize]
                    && !included[u as usize]
                {
                    included[u as usize] = true;
                    edges.push(e);
                    length += graph.edge(e).length;
                    stack.push(u);
                }
            }
        }
        nodes.sort_unstable();
        edges.sort_unstable();
        let weight: f64 = nodes.iter().map(|&v| graph.weight(v)).sum();
        let scaled: u64 = nodes.iter().map(|&v| graph.scaled_weight(v)).sum();
        RegionTuple::from_parts(arena, length, weight, scaled, &nodes, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmst::validate_tree;
    use crate::query_graph::test_support::figure2_query_graph;

    #[test]
    fn zero_prizes_give_a_singleton() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let mut scratch = GwScratch::default();
        let prizes = vec![0.0; qg.node_count()];
        let result = pcst(&qg, &mut arena, &prizes, &mut scratch);
        assert_eq!(result.tree.node_count(), 1);
        assert_eq!(result.tree.edge_count(), 0);
    }

    #[test]
    fn huge_prizes_span_the_whole_graph() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let mut scratch = GwScratch::default();
        let prizes = vec![1000.0; qg.node_count()];
        let result = pcst(&qg, &mut arena, &prizes, &mut scratch);
        assert_eq!(result.tree.node_count(), qg.node_count());
        assert_eq!(result.tree.edge_count(), qg.node_count() - 1);
        validate_tree(&qg, &arena, &result.tree);
        // A spanning tree of Figure 2 cannot be longer than the total edge length.
        let total: f64 = qg.edges().iter().map(|e| e.length).sum();
        assert!(result.tree.length < total);
    }

    #[test]
    fn moderate_prizes_keep_the_profitable_cluster() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        // Prize 2.0 at v1, v2, v6 (local 0, 1, 5) which form a cheap triangle
        // (edges 1.0 and 1.6), tiny prizes elsewhere: the expensive far nodes
        // should be pruned away.
        let mut arena = TupleArena::new();
        let mut scratch = GwScratch::default();
        let mut prizes = vec![0.01; qg.node_count()];
        prizes[0] = 2.0;
        prizes[1] = 2.0;
        prizes[5] = 2.0;
        let result = pcst(&qg, &mut arena, &prizes, &mut scratch);
        validate_tree(&qg, &arena, &result.tree);
        assert!(result.tree.contains_node(0, &arena));
        assert!(result.tree.contains_node(1, &arena));
        assert!(result.tree.contains_node(5, &arena));
        assert!(result.tree.node_count() <= 4, "far nodes should be pruned");
    }

    #[test]
    fn prizes_proportional_to_scaled_weights_behave_monotonically() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let base: Vec<f64> = (0..qg.node_count() as u32)
            .map(|v| qg.scaled_weight(v) as f64)
            .collect();
        let mut arena = TupleArena::new();
        let mut scratch = GwScratch::default();
        let mut previous_scaled = 0;
        for lambda in [0.0001, 0.01, 0.05, 0.2, 1.0] {
            let prizes: Vec<f64> = base.iter().map(|&b| b * lambda).collect();
            let result = pcst(&qg, &mut arena, &prizes, &mut scratch);
            validate_tree(&qg, &arena, &result.tree);
            // The kept scaled weight should not decrease as λ grows.
            assert!(
                result.tree.scaled >= previous_scaled,
                "λ={lambda}: scaled {} < previous {previous_scaled}",
                result.tree.scaled
            );
            previous_scaled = result.tree.scaled;
        }
        assert_eq!(previous_scaled, qg.total_scaled_weight());
    }

    #[test]
    fn result_tree_is_always_valid_on_a_line_graph() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new(i as f64 * 10.0, 0.0)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], 10.0).unwrap();
        }
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights([(NodeId(0), 1.0), (NodeId(5), 1.0)]);
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &weights, 100.0, 0.5).unwrap();
        let mut arena = TupleArena::new();
        let mut scratch = GwScratch::default();
        for lambda in [0.1, 1.0, 10.0, 60.0] {
            let prizes: Vec<f64> = (0..qg.node_count() as u32)
                .map(|v| qg.scaled_weight(v) as f64 * lambda)
                .collect();
            let r = pcst(&qg, &mut arena, &prizes, &mut scratch);
            validate_tree(&qg, &arena, &r.tree);
        }
        // With a very large λ the tree must connect both prize nodes across the
        // zero-weight middle nodes (a Steiner-style connection).
        let prizes: Vec<f64> = (0..qg.node_count() as u32)
            .map(|v| qg.scaled_weight(v) as f64 * 100.0)
            .collect();
        let r = pcst(&qg, &mut arena, &prizes, &mut scratch);
        assert_eq!(r.tree.node_count(), 6);
        assert!((r.tree.length - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one prize per node")]
    fn wrong_prize_length_panics() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let _ = pcst(
            &qg,
            &mut TupleArena::new(),
            &[1.0, 2.0],
            &mut GwScratch::default(),
        );
    }

    /// splitmix64: a seeded generator for the differential test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.range(0, items.len() - 1)]
        }
    }

    /// A random query graph with `n` nodes, integer edge lengths from
    /// {1, 2, 3, 5} (so moats meet in exact ties), connected or not, and
    /// integer node weights with zeros and repeats.  Returns the graph and
    /// each node's base prize (its weight).
    fn random_graph(rng: &mut Rng, n: usize) -> (QueryGraph, Vec<f64>) {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(Point::new((i % 7) as f64 * 10.0, (i / 7) as f64 * 10.0)))
            .collect();
        let lengths = [1.0, 2.0, 3.0, 5.0];
        if n > 1 {
            let connected = rng.next() % 2 == 0;
            if connected {
                for v in 1..n {
                    let u = rng.range(0, v - 1);
                    b.add_edge(ids[u], ids[v], rng.pick(&lengths)).unwrap();
                }
            }
            let extra = rng.range(0, n);
            for _ in 0..extra {
                let (u, v) = (rng.range(0, n - 1), rng.range(0, n - 1));
                if u != v {
                    b.add_edge(ids[u], ids[v], rng.pick(&lengths)).unwrap();
                }
            }
        }
        let network = b.build().unwrap();
        let base: Vec<f64> = (0..n)
            .map(|_| rng.pick(&[0.0, 0.0, 1.0, 2.0, 3.0, 5.0]))
            .collect();
        let weights = NodeWeights::from_node_weights(
            base.iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0.0)
                .map(|(v, &w)| (NodeId(v as u32), w)),
        );
        let qg = QueryGraph::build(&RegionView::whole(&network), &weights, 100.0, 0.5).unwrap();
        let base = (0..n as u32)
            .map(|v| base[qg.global_node(v).index()])
            .collect();
        (qg, base)
    }

    /// Runs [`pcst`] and the union-find reference on `graphs` random graphs
    /// of `lo..=hi` nodes at seven prize scales, and asserts that every run
    /// agrees bit for bit, iteration count included.  One scratch serves
    /// every run, and the sizes alternate between the range's upper and
    /// lower halves, so no run can lean on what another size left.
    fn assert_matches_the_reference(seed: u64, graphs: usize, lo: usize, hi: usize) {
        let mut rng = Rng(seed);
        let mid = (lo + hi) / 2;
        let mut scratch = GwScratch::default();
        let (mut arena, mut reference_arena) = (TupleArena::new(), TupleArena::new());
        for i in 0..graphs {
            let n = if i % 2 == 0 {
                rng.range(mid + 1, hi)
            } else {
                rng.range(lo, mid)
            };
            let (qg, base) = random_graph(&mut rng, n);
            for lambda in [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0] {
                let prizes: Vec<f64> = base.iter().map(|&p| p * lambda).collect();
                let got = pcst(&qg, &mut arena, &prizes, &mut scratch);
                let want = reference::pcst(&qg, &mut reference_arena, &prizes);
                let context = format!("graph {i} (n = {n}), λ = {lambda}");
                assert_eq!(got.iterations, want.iterations, "{context}");
                assert_eq!(
                    got.tree.nodes(&arena),
                    want.tree.nodes(&reference_arena),
                    "{context}"
                );
                assert_eq!(
                    got.tree.edges(&arena),
                    want.tree.edges(&reference_arena),
                    "{context}"
                );
                assert_eq!(
                    got.tree.length.to_bits(),
                    want.tree.length.to_bits(),
                    "{context}"
                );
                assert_eq!(
                    got.tree.weight.to_bits(),
                    want.tree.weight.to_bits(),
                    "{context}"
                );
                assert_eq!(got.tree.scaled, want.tree.scaled, "{context}");
            }
            arena.reset();
            reference_arena.reset();
        }
    }

    #[test]
    fn matches_the_union_find_reference_bit_for_bit() {
        assert_matches_the_reference(0x6777_2014, 1_200, 1, 40);
    }

    /// Graphs of up to ~600 edges span up to ten words of the armed-edge
    /// set, and their zero-prize nodes keep edges parked across many merges.
    #[test]
    #[ignore = "slow in debug; run with --release -- --ignored"]
    fn matches_the_union_find_reference_on_graphs_of_65_to_300_nodes() {
        assert_matches_the_reference(0x6777_2015, 200, 65, 300);
    }
}
