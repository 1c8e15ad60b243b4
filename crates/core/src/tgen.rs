//! The TGEN (tuple generation) heuristic (Section 5, Algorithm 2).
//!
//! TGEN generalises the `findOptTree` dynamic program from a tree to the whole
//! scaled query graph: nodes are visited in breadth-first order, every edge is
//! processed exactly once, and each node keeps an *explored region tuple array*
//! (Definition 6) holding, per scaled weight, the shortest feasible region
//! seen that contains the node.  Combining regions across an edge skips pairs
//! that share nodes (Lemma 9 — such a combination would contain a cycle and
//! can never be optimal).  Because only one tuple per (node, scaled weight)
//! pair is kept, enumeration is polynomial but the optimum may be missed —
//! TGEN is a heuristic, empirically the most accurate of the three
//! algorithms.
//!
//! The edge-combine loop is the hottest code in the whole system.  Each
//! node's array is an [`ExploredArray`] — flat sorted `Vec`, per-scaled
//! pruning only; cross-weight Pareto dominance is *unsound* here because
//! Lemma 9's disjointness check breaks the dominator-substitution argument
//! (see the [`crate::tuple_array`] docs for the measured counterexample).
//!
//! For each edge `(vi, vj)` the loop copies `vi`'s array (the left snapshot)
//! and sorts one reused copy of `vj`'s array by `(length, scaled)` (the
//! right snapshot), so for each left-hand tuple the feasible partners
//! (`l_i + l_j + edge ≤ Q.∆`) form a `partition_point` prefix and no
//! infeasible pair is ever looked at.  Scaled weights are distinct within an
//! array, so that sort has one result.  Scanning partners in length order
//! instead of scaled order is output-neutral: combinations of one left tuple
//! have pairwise-distinct scaled weights (the right array holds one tuple
//! per scaled weight), so no quality tie — and therefore no tie-break —
//! exists inside a reordered group, while groups themselves stay in scaled
//! order.
//!
//! Lemma 9 skips a pair that shares a node.  Each array entry carries a
//! 64-bit node signature beside its tuple: bit `v % 64` is set for each node
//! `v`, and a combination's signature is the OR of its parts'.  Without
//! reading the arena, signatures with no common bit prove the pair disjoint,
//! and a common bit that only one node of the view sets proves the pair
//! shares that node.  Only common bits that several nodes set (views of more
//! than 64 nodes) fall back to the walk over both sorted node lists.
//!
//! A generated tuple's sets are merged into the [`TupleArena`] only when
//! something keeps it.  Its measures come from the pair, as the same f64
//! sums [`RegionTuple::combine`] evaluates, and the keepers are asked in
//! turn, none of them changed by the asking: first the top list, then the
//! array of each unprocessed node of the pair.  The best tracker needs no
//! question of its own, because its tuple heads the top list.  On the
//! tiny-NY benchmark workload about half of all generated tuples are kept
//! by nothing, and a query allocates half the arena blocks it used to.  A
//! kept tuple goes into the arrays at once.  That is exactly what offering each
//! edge's new tuples to the arrays after the edge did: the combine scan
//! reads only the two snapshots, and a node is marked processed only after
//! all of its edges, so each array receives the same inserts in the same
//! order, and the keep-test answers what the deferred insert would have
//! returned.
//!
//! The unit tests keep that merge-everything loop as `reference` and check
//! `run_tgen` against it bit for bit on random graphs.  They also keep the
//! older loop over the pre-frontier
//! [`NaiveTupleArray`](crate::tuple_array::NaiveTupleArray), which
//! materialised every pair and rolled the infeasible ones back.

use crate::arena::TupleArena;
use crate::cancel::CancelToken;
use crate::error::{LcmsrError, Result};
use crate::query_graph::QueryGraph;
use crate::region::RegionTuple;
use crate::trace::TraceCollector;
use crate::tuple_array::{BestTracker, ExploredArray, ExploredEntry};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Tuning parameters of TGEN.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TgenParams {
    /// Scaling parameter α.  TGEN needs a much coarser scaling than APP
    /// (paper default 400 on NY, 300 on USANW) to keep tuple arrays small.
    pub alpha: f64,
}

impl Default for TgenParams {
    fn default() -> Self {
        TgenParams { alpha: 400.0 }
    }
}

impl TgenParams {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(LcmsrError::InvalidParameter {
                name: "alpha",
                value: self.alpha,
                expected: "a positive finite number",
            });
        }
        Ok(())
    }
}

/// Outcome of one TGEN run.
#[derive(Debug, Clone)]
pub struct TgenOutcome {
    /// The best feasible region found, if any node is relevant.
    pub best: Option<RegionTuple>,
    /// All feasible tuples generated, ordered by the shared quality order
    /// ([`RegionTuple::cmp_quality`]: decreasing scaled weight, then
    /// decreasing original weight, then increasing length; used by the top-k
    /// extension); capped to `TOP_LIMIT` distinct node sets.
    pub top_tuples: Vec<RegionTuple>,
    /// Number of edges processed.
    pub edges_processed: u64,
    /// Number of region tuples generated: every feasible node-disjoint
    /// combination plus the per-node singletons, whether or not anything kept
    /// it (only kept tuples are merged into the arena).
    pub tuples_generated: u64,
    /// Combine pairs skipped by the frontier's length-budget `partition_point`
    /// without being looked at.
    pub pruned_pairs: u64,
    /// Tuples resident across all per-node arrays when the run finished.
    pub frontier_tuples: u64,
    /// Largest single per-node array observed at the end of the run.
    pub frontier_peak: u64,
    /// Array entries evicted by dominating inserts across the run (for TGEN:
    /// same-scaled Lemma 6 replacements; `findOptTree` additionally evicts
    /// across scaled weights).
    pub dominance_evictions: u64,
    /// Whether the run stopped early at a cancellation poll point; `best` and
    /// `top_tuples` then hold the best-so-far incumbents, every one of them
    /// still feasible (budget pruning never admits an infeasible tuple).
    pub interrupted: bool,
}

/// Maximum number of distinct top tuples retained for top-k extraction.
const TOP_LIMIT: usize = 64;

/// Runs TGEN on a prepared query graph (which must already be scaled with the
/// TGEN α; [`crate::engine::LcmsrEngine`] takes care of this).  All tuples —
/// including those in the returned outcome — live in `arena`.
///
/// `ctl` is polled once per enumerated edge; when it fires the run stops and
/// returns its incumbents with `interrupted: true`.  The inert token costs a
/// predicted branch per edge and perturbs nothing.  Each combine round (one
/// enumerated edge) records a `combine_edge` span with `tuples`/`pruned`
/// attrs into `tracer` — same inert discipline as the token.
pub fn run_tgen(
    graph: &QueryGraph,
    arena: &mut TupleArena,
    params: &TgenParams,
    ctl: &CancelToken,
    tracer: &mut TraceCollector,
) -> Result<TgenOutcome> {
    params.validate()?;
    let delta = graph.delta();
    let n = graph.node_count();
    let mut best = BestTracker::new();
    let mut top: Vec<RegionTuple> = Vec::new();
    let mut edges_processed = 0u64;
    let mut tuples_generated = 0u64;
    let mut pruned_pairs = 0u64;
    let mut interrupted = false;

    if graph.sigma_max() <= 0.0 {
        return Ok(TgenOutcome {
            best: None,
            top_tuples: Vec::new(),
            edges_processed: 0,
            tuples_generated: 0,
            pruned_pairs: 0,
            frontier_tuples: 0,
            frontier_peak: 0,
            dominance_evictions: 0,
            interrupted: false,
        });
    }

    // Explored tuple arrays, one per node, initialised with the node itself.
    let mut arrays: Vec<ExploredArray> = Vec::with_capacity(n);
    for v in 0..n as u32 {
        let mut arr = ExploredArray::new();
        let singleton = RegionTuple::singleton(arena, v, graph.weight(v), graph.scaled_weight(v));
        best.update(&singleton);
        offer_top(&mut top, &singleton, arena);
        // A singleton's node signature is its node's bit, `v % 64`.
        arr.insert_if_better(singleton, 1 << (v & 63));
        arrays.push(arr);
    }
    tuples_generated += n as u64;

    let mut node_processed = vec![false; n];
    let mut edge_visited = vec![false; graph.edge_count()];
    let mut enqueued = vec![false; n];
    // Signature bits that two or more nodes of the view set.  A common bit
    // outside this mask stands for one node, which both tuples then hold.
    let shared_bits: u64 = match n {
        0..=64 => 0,
        65..=127 => (1 << (n - 64)) - 1,
        _ => u64::MAX,
    };
    // Per-edge snapshots (entry copies), hoisted out of the loops so the
    // steady state allocates nothing: the left endpoint's array as stored,
    // and the right endpoint's sorted by (length, scaled), the shape the
    // budget `partition_point` needs.  The scaled tie-break keeps
    // equal-length runs in canonical array order, so the scan stays
    // deterministic.
    let mut left: Vec<ExploredEntry> = Vec::new();
    let mut right: Vec<ExploredEntry> = Vec::new();

    // Outer loop: cover every connected component of Q.Λ (lines 2–4).
    'components: for start in 0..n as u32 {
        if node_processed[start as usize] || enqueued[start as usize] {
            continue;
        }
        let mut queue = VecDeque::new();
        queue.push_back(start);
        enqueued[start as usize] = true;
        // Breadth-first edge enumeration (lines 5–14).
        while let Some(vi) = queue.pop_front() {
            for &(vj, e) in graph.neighbors(vi) {
                if edge_visited[e as usize] {
                    continue;
                }
                // Deadline poll, once per edge: the incumbent in `best` (and
                // the top list) is a valid anytime answer at every boundary.
                if ctl.is_cancelled() {
                    interrupted = true;
                    break 'components;
                }
                edge_visited[e as usize] = true;
                edges_processed += 1;
                let edge_length = graph.edge(e).length;
                if edge_length > delta + 1e-9 {
                    continue; // line 8: the edge alone already violates Q.∆
                }
                if !enqueued[vj as usize] {
                    enqueued[vj as usize] = true;
                    queue.push_back(vj);
                }
                let span = tracer.start("combine_edge");
                let tuples_before = tuples_generated;
                let pruned_before = pruned_pairs;
                // Combine every region containing vi with every feasible
                // region containing vj.
                left.clear();
                left.extend_from_slice(arrays[vi as usize].entries());
                right.clear();
                right.extend_from_slice(arrays[vj as usize].entries());
                right.sort_unstable_by(|a, b| {
                    a.tuple
                        .length
                        .partial_cmp(&b.tuple.length)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.tuple.scaled.cmp(&b.tuple.scaled))
                });
                for l in &left {
                    let ti = &l.tuple;
                    // Lengths ascend along the snapshot, so the partners that
                    // keep `l_i + l_j + edge ≤ ∆` form a prefix, found by
                    // binary search.
                    let feasible = right.partition_point(|r| {
                        ti.length + r.tuple.length + edge_length <= delta + 1e-9
                    });
                    pruned_pairs += (right.len() - feasible) as u64;
                    for r in &right[..feasible] {
                        let tj = &r.tuple;
                        // Lemma 9: a pair sharing a node would close a cycle.
                        let common = l.signature & r.signature;
                        if common != 0 && (common & !shared_bits != 0 || ti.shares_nodes(tj, arena))
                        {
                            continue;
                        }
                        tuples_generated += 1;
                        let candidate = RegionTuple::measures(
                            ti.length + tj.length + edge_length,
                            ti.weight + tj.weight,
                            ti.scaled + tj.scaled,
                        );
                        // Merge only what the top list or an array keeps,
                        // asking the cheap one first.  The best tracker needs
                        // no question of its own: its tuple heads the top
                        // list, so whatever beats it enters that list.  The
                        // right tuple's nodes go first: they lie around vj,
                        // where arrays are younger and keep more often.
                        let kept = may_enter_top(&top, &candidate)
                            || tj.nodes(arena).iter().chain(ti.nodes(arena)).any(|&v| {
                                !node_processed[v as usize]
                                    && arrays[v as usize]
                                        .would_keep(candidate.scaled, candidate.length)
                            });
                        if !kept {
                            debug_assert!(best.best().is_some_and(|b| {
                                candidate.cmp_quality(b) != std::cmp::Ordering::Less
                            }));
                            continue;
                        }
                        let combined = ti.combine(tj, e, edge_length, arena);
                        debug_assert_eq!(
                            combined.cmp_quality(&candidate),
                            std::cmp::Ordering::Equal
                        );
                        debug_assert!(combined.length <= delta + 1e-9);
                        best.update(&combined);
                        offer_top(&mut top, &combined, arena);
                        // Update the arrays of the unprocessed nodes contained
                        // in the new tuple (lines 12–14).
                        let signature = l.signature | r.signature;
                        for &v in combined.nodes(arena) {
                            if !node_processed[v as usize] {
                                arrays[v as usize].insert_if_better(combined, signature);
                            }
                        }
                    }
                }
                tracer.end_with(
                    span,
                    &[
                        ("edge", u64::from(e)),
                        ("tuples", tuples_generated - tuples_before),
                        ("pruned", pruned_pairs - pruned_before),
                    ],
                );
            }
            // All incident edges of vi have been processed; its array is no
            // longer needed (later tuples containing vi skip it).
            node_processed[vi as usize] = true;
        }
    }

    let frontier_tuples: u64 = arrays.iter().map(|a| a.len() as u64).sum();
    let frontier_peak = arrays.iter().map(|a| a.len() as u64).max().unwrap_or(0);
    let dominance_evictions: u64 = arrays.iter().map(ExploredArray::replacements).sum();
    Ok(TgenOutcome {
        best: best.into_best(),
        top_tuples: top,
        edges_processed,
        tuples_generated,
        pruned_pairs,
        frontier_tuples,
        frontier_peak,
        dominance_evictions,
        interrupted,
    })
}

/// Whether [`offer_top`] can keep a candidate with these measures: it carries
/// weight, and the list has room or its last entry ranks strictly after it.
/// A duplicate node set can still be dropped by `offer_top`'s scan.
fn may_enter_top(top: &[RegionTuple], candidate: &RegionTuple) -> bool {
    // Filter on the original weight, not the scaled one: under a coarse
    // scaling (α > |V_Q|) every scaled weight floors to 0 even though relevant
    // regions exist, and rejecting scaled == 0 would leave the top list empty
    // while `BestTracker` still reports a single-query best.
    candidate.weight > 0.0
        && top.get(TOP_LIMIT - 1).map_or(true, |last| {
            last.cmp_quality(candidate) == std::cmp::Ordering::Greater
        })
}

/// Maintains the bounded list of best tuples (distinct node sets), ordered by
/// the shared quality order ([`RegionTuple::cmp_quality`], the same total
/// order as `BestTracker::update`), so the head of the list is always the
/// single-query best.
///
/// The list is kept sorted at all times, so a candidate is placed by binary
/// search, and a candidate that would fall off the end is rejected before
/// any duplicate scan.  A duplicate node set always has the *same* scaled
/// weight (an exact integer sum over the node set), so the duplicate scan is
/// confined to the equal-scaled run around the insertion point rather than
/// the whole list.
fn offer_top(top: &mut Vec<RegionTuple>, candidate: &RegionTuple, arena: &TupleArena) {
    if !may_enter_top(top, candidate) {
        return;
    }
    // First index whose tuple ranks strictly after the candidate; entries
    // before it rank better-or-equal (matching the stable push-then-sort
    // order the previous implementation produced).
    let pos = top.partition_point(|t| t.cmp_quality(candidate) != std::cmp::Ordering::Greater);
    debug_assert!(pos < TOP_LIMIT);
    // Duplicate scan over the equal-scaled run.  Backward: a duplicate there
    // ranks better-or-equal, so the candidate is dropped.  Forward: a
    // duplicate there ranks strictly worse, so it is replaced.
    let mut i = pos;
    while i > 0 && top[i - 1].scaled == candidate.scaled {
        i -= 1;
        if top[i].same_nodes(candidate, arena) {
            return;
        }
    }
    let mut j = pos;
    while j < top.len() && top[j].scaled == candidate.scaled {
        if top[j].same_nodes(candidate, arena) {
            top.remove(j);
            top.insert(pos, *candidate);
            return;
        }
        j += 1;
    }
    top.insert(pos, *candidate);
    if top.len() > TOP_LIMIT {
        top.truncate(TOP_LIMIT);
    }
}

/// The loop [`run_tgen`] replaced, kept verbatim (apart from the lone-edge
/// length tolerance) as the reference its bit-identity is tested against: it
/// merges every generated tuple into the arena and offers each edge's new
/// tuples to the node arrays after the edge, over arrays that re-sort a
/// node's right snapshot only when a content version says it changed.
#[cfg(test)]
mod reference {
    use super::{offer_top, TgenOutcome, TgenParams};
    use crate::arena::TupleArena;
    use crate::cancel::CancelToken;
    use crate::error::Result;
    use crate::query_graph::QueryGraph;
    use crate::region::RegionTuple;
    use crate::trace::TraceCollector;
    use crate::tuple_array::BestTracker;
    use std::collections::VecDeque;

    /// The explored array the loop ran over: one minimum-length tuple per
    /// scaled weight, plus a version bumped on every content change.
    #[derive(Default)]
    struct Array {
        by_scaled: Vec<RegionTuple>,
        replacements: u64,
        version: u64,
    }

    impl Array {
        fn len(&self) -> usize {
            self.by_scaled.len()
        }

        fn insert_if_better(&mut self, tuple: RegionTuple) -> bool {
            match self
                .by_scaled
                .binary_search_by(|t| t.scaled.cmp(&tuple.scaled))
            {
                Ok(i) => {
                    if self.by_scaled[i].length <= tuple.length {
                        return false;
                    }
                    self.by_scaled[i] = tuple;
                    self.replacements += 1;
                    self.version += 1;
                    true
                }
                Err(i) => {
                    self.by_scaled.insert(i, tuple);
                    self.version += 1;
                    true
                }
            }
        }

        fn iter(&self) -> impl Iterator<Item = &RegionTuple> {
            self.by_scaled.iter()
        }

        fn version(&self) -> u64 {
            self.version
        }
    }

    pub(super) fn run_tgen(
        graph: &QueryGraph,
        arena: &mut TupleArena,
        params: &TgenParams,
        ctl: &CancelToken,
        tracer: &mut TraceCollector,
    ) -> Result<TgenOutcome> {
        params.validate()?;
        let delta = graph.delta();
        let n = graph.node_count();
        let mut best = BestTracker::new();
        let mut top: Vec<RegionTuple> = Vec::new();
        let mut edges_processed = 0u64;
        let mut tuples_generated = 0u64;
        let mut pruned_pairs = 0u64;
        let mut interrupted = false;

        if graph.sigma_max() <= 0.0 {
            return Ok(TgenOutcome {
                best: None,
                top_tuples: Vec::new(),
                edges_processed: 0,
                tuples_generated: 0,
                pruned_pairs: 0,
                frontier_tuples: 0,
                frontier_peak: 0,
                dominance_evictions: 0,
                interrupted: false,
            });
        }

        // Explored tuple arrays, one per node, initialised with the node itself.
        let mut arrays: Vec<Array> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut arr = Array::default();
            let singleton =
                RegionTuple::singleton(arena, v, graph.weight(v), graph.scaled_weight(v));
            best.update(&singleton);
            offer_top(&mut top, &singleton, arena);
            arr.insert_if_better(singleton);
            arrays.push(arr);
        }
        tuples_generated += n as u64;

        let mut node_processed = vec![false; n];
        let mut edge_visited = vec![false; graph.edge_count()];
        let mut enqueued = vec![false; n];
        // Per-edge snapshot of the left endpoint array (handle copies), hoisted
        // out of the loops so the steady state allocates nothing.
        let mut left: Vec<RegionTuple> = Vec::new();
        let mut new_tuples: Vec<RegionTuple> = Vec::new();
        // Per-node right snapshots re-sorted by (length, scaled): the shape the
        // budget `partition_point` needs; the scaled tie-break keeps equal-length
        // runs in canonical array order so the scan stays deterministic.  Each
        // snapshot is stamped with the array's content version and rebuilt only
        // when the array changed since it was last sorted — a node of degree d
        // whose array stays quiet pays one sort instead of d.  `u64::MAX` marks
        // "never built" (a live version starts at 0 and only increments).
        let mut right_by_len: Vec<Vec<RegionTuple>> = vec![Vec::new(); n];
        let mut right_version: Vec<u64> = vec![u64::MAX; n];

        // Outer loop: cover every connected component of Q.Λ (lines 2–4).
        'components: for start in 0..n as u32 {
            if node_processed[start as usize] || enqueued[start as usize] {
                continue;
            }
            let mut queue = VecDeque::new();
            queue.push_back(start);
            enqueued[start as usize] = true;
            // Breadth-first edge enumeration (lines 5–14).
            while let Some(vi) = queue.pop_front() {
                for &(vj, e) in graph.neighbors(vi) {
                    if edge_visited[e as usize] {
                        continue;
                    }
                    // Deadline poll, once per edge: the incumbent in `best` (and
                    // the top list) is a valid anytime answer at every boundary.
                    if ctl.is_cancelled() {
                        interrupted = true;
                        break 'components;
                    }
                    edge_visited[e as usize] = true;
                    edges_processed += 1;
                    let edge_length = graph.edge(e).length;
                    if edge_length > delta + 1e-9 {
                        continue; // line 8: the edge alone already violates Q.∆
                    }
                    if !enqueued[vj as usize] {
                        enqueued[vj as usize] = true;
                        queue.push_back(vj);
                    }
                    let span = tracer.start("combine_edge");
                    let tuples_before = tuples_generated;
                    let pruned_before = pruned_pairs;
                    // Combine every region containing vi with every feasible
                    // region containing vj.
                    left.clear();
                    left.extend(arrays[vi as usize].iter().copied());
                    if right_version[vj as usize] != arrays[vj as usize].version() {
                        let snapshot = &mut right_by_len[vj as usize];
                        snapshot.clear();
                        snapshot.extend(arrays[vj as usize].iter().copied());
                        snapshot.sort_unstable_by(|a, b| {
                            a.length
                                .partial_cmp(&b.length)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then_with(|| a.scaled.cmp(&b.scaled))
                        });
                        right_version[vj as usize] = arrays[vj as usize].version();
                    }
                    let right_by_len = &right_by_len[vj as usize];
                    new_tuples.clear();
                    for ti in &left {
                        // Lengths ascend along the permutation, so the partners
                        // that keep `l_i + l_j + edge ≤ ∆` form a prefix — the
                        // same comparison the materialise-then-check loop used,
                        // hoisted into a binary search.  Pairs beyond the prefix
                        // are pruned without touching the arena.
                        let feasible = right_by_len.partition_point(|tj| {
                            ti.length + tj.length + edge_length <= delta + 1e-9
                        });
                        pruned_pairs += (right_by_len.len() - feasible) as u64;
                        for tj in &right_by_len[..feasible] {
                            if ti.shares_nodes(tj, arena) {
                                continue; // Lemma 9: would close a cycle
                            }
                            let combined = ti.combine(tj, e, edge_length, arena);
                            debug_assert!(combined.length <= delta + 1e-9);
                            tuples_generated += 1;
                            best.update(&combined);
                            offer_top(&mut top, &combined, arena);
                            new_tuples.push(combined);
                        }
                    }
                    // Update the arrays of the unprocessed nodes contained in each
                    // new tuple (lines 12–14).
                    for t in &new_tuples {
                        for &v in t.nodes(arena) {
                            if node_processed[v as usize] {
                                continue;
                            }
                            arrays[v as usize].insert_if_better(*t);
                        }
                    }
                    tracer.end_with(
                        span,
                        &[
                            ("edge", u64::from(e)),
                            ("tuples", tuples_generated - tuples_before),
                            ("pruned", pruned_pairs - pruned_before),
                        ],
                    );
                }
                // All incident edges of vi have been processed; its array is no
                // longer needed (later tuples containing vi skip it).
                node_processed[vi as usize] = true;
            }
        }

        let frontier_tuples: u64 = arrays.iter().map(|a| a.len() as u64).sum();
        let frontier_peak = arrays.iter().map(|a| a.len() as u64).max().unwrap_or(0);
        let dominance_evictions: u64 = arrays.iter().map(|a| a.replacements).sum();
        Ok(TgenOutcome {
            best: best.into_best(),
            top_tuples: top,
            edges_processed,
            tuples_generated,
            pruned_pairs,
            frontier_tuples,
            frontier_peak,
            dominance_evictions,
            interrupted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::query_graph::test_support::figure2_query_graph;
    use crate::tuple_array::NaiveTupleArray;

    /// The PR 3/4 TGEN combine loop over [`NaiveTupleArray`]s: per-scaled-
    /// weight pruning only, every combination materialised first and rolled
    /// back when infeasible.  The reference `run_tgen` is checked against.
    fn run_tgen_baseline(
        graph: &QueryGraph,
        arena: &mut TupleArena,
        params: &TgenParams,
    ) -> Result<TgenOutcome> {
        params.validate()?;
        let delta = graph.delta();
        let n = graph.node_count();
        let mut best = BestTracker::new();
        let mut top: Vec<RegionTuple> = Vec::new();
        let mut edges_processed = 0u64;
        let mut tuples_generated = 0u64;

        if graph.sigma_max() <= 0.0 {
            return Ok(TgenOutcome {
                best: None,
                top_tuples: Vec::new(),
                edges_processed: 0,
                tuples_generated: 0,
                pruned_pairs: 0,
                frontier_tuples: 0,
                frontier_peak: 0,
                dominance_evictions: 0,
                interrupted: false,
            });
        }

        let mut arrays: Vec<NaiveTupleArray> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut arr = NaiveTupleArray::new();
            let singleton =
                RegionTuple::singleton(arena, v, graph.weight(v), graph.scaled_weight(v));
            best.update(&singleton);
            offer_top(&mut top, &singleton, arena);
            arr.insert_if_better(singleton);
            arrays.push(arr);
        }
        tuples_generated += n as u64;

        let mut node_processed = vec![false; n];
        let mut edge_visited = vec![false; graph.edge_count()];
        let mut enqueued = vec![false; n];
        let mut left: Vec<RegionTuple> = Vec::new();
        let mut right: Vec<RegionTuple> = Vec::new();
        let mut new_tuples: Vec<RegionTuple> = Vec::new();

        for start in 0..n as u32 {
            if node_processed[start as usize] || enqueued[start as usize] {
                continue;
            }
            let mut queue = VecDeque::new();
            queue.push_back(start);
            enqueued[start as usize] = true;
            while let Some(vi) = queue.pop_front() {
                for &(vj, e) in graph.neighbors(vi) {
                    if edge_visited[e as usize] {
                        continue;
                    }
                    edge_visited[e as usize] = true;
                    edges_processed += 1;
                    let edge_length = graph.edge(e).length;
                    if edge_length > delta {
                        continue;
                    }
                    if !enqueued[vj as usize] {
                        enqueued[vj as usize] = true;
                        queue.push_back(vj);
                    }
                    left.clear();
                    left.extend(arrays[vi as usize].iter().copied());
                    right.clear();
                    right.extend(arrays[vj as usize].iter().copied());
                    new_tuples.clear();
                    for ti in &left {
                        for tj in &right {
                            if ti.shares_nodes(tj, arena) {
                                continue;
                            }
                            let combined = ti.combine(tj, e, edge_length, arena);
                            tuples_generated += 1;
                            if combined.length <= delta + 1e-9 {
                                best.update(&combined);
                                offer_top(&mut top, &combined, arena);
                                new_tuples.push(combined);
                            } else {
                                combined.free(arena);
                            }
                        }
                    }
                    for t in &new_tuples {
                        for &v in t.nodes(arena) {
                            if node_processed[v as usize] {
                                continue;
                            }
                            arrays[v as usize].insert_if_better(*t);
                        }
                    }
                }
                node_processed[vi as usize] = true;
            }
        }

        let frontier_tuples: u64 = arrays.iter().map(|a| a.len() as u64).sum();
        let frontier_peak = arrays.iter().map(|a| a.len() as u64).max().unwrap_or(0);
        Ok(TgenOutcome {
            best: best.into_best(),
            top_tuples: top,
            edges_processed,
            tuples_generated,
            pruned_pairs: 0,
            frontier_tuples,
            frontier_peak,
            dominance_evictions: 0,
            interrupted: false,
        })
    }

    #[test]
    fn params_validation() {
        assert!(TgenParams::default().validate().is_ok());
        assert!(TgenParams { alpha: 0.0 }.validate().is_err());
        assert!(TgenParams { alpha: f64::NAN }.validate().is_err());
    }

    #[test]
    fn finds_the_optimal_region_of_the_running_example() {
        // With a fine scaling TGEN finds the exact optimum of Figure 2 (∆ = 6):
        // {v2, v4, v5, v6}, weight 1.1, length 5.9.
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_tgen(
            &qg,
            &mut arena,
            &TgenParams { alpha: 0.15 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let best = outcome.best.unwrap();
        assert!((best.weight - 1.1).abs() < 1e-9, "weight {}", best.weight);
        assert!((best.length - 5.9).abs() < 1e-9);
        assert_eq!(best.nodes(&arena), &[1, 3, 4, 5]);
        assert_eq!(outcome.edges_processed, 8);
        assert!(outcome.tuples_generated > 8);
        assert!(outcome.frontier_tuples > 0);
        assert!(outcome.frontier_peak > 0);
    }

    #[test]
    fn respects_the_length_constraint() {
        for delta in [0.5, 1.0, 2.5, 4.0, 6.0, 9.0, 15.0] {
            let (_n, qg) = figure2_query_graph(delta, 0.15);
            let mut arena = TupleArena::new();
            let outcome = run_tgen(
                &qg,
                &mut arena,
                &TgenParams { alpha: 0.15 },
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap();
            let best = outcome.best.unwrap();
            assert!(
                best.length <= delta + 1e-9,
                "∆={delta}: length {}",
                best.length
            );
            for t in &outcome.top_tuples {
                assert!(t.length <= delta + 1e-9);
            }
        }
    }

    #[test]
    fn matches_the_baseline_loop_across_deltas_and_scalings() {
        // The frontier rewrite must leave the single best bit-identical to
        // the PR 3/4 loop, and never hold more array tuples.
        for delta in [0.5, 1.0, 2.5, 4.0, 6.0, 9.0, 15.0, 1000.0] {
            for alpha in [0.15, 0.5, 3.0, 100.0] {
                let (_n, qg) = figure2_query_graph(delta, alpha);
                let params = TgenParams { alpha };
                let mut arena = TupleArena::new();
                let frontier = run_tgen(
                    &qg,
                    &mut arena,
                    &params,
                    &CancelToken::none(),
                    &mut TraceCollector::disabled(),
                )
                .unwrap();
                let mut baseline_arena = TupleArena::new();
                let baseline = run_tgen_baseline(&qg, &mut baseline_arena, &params).unwrap();
                match (&frontier.best, &baseline.best) {
                    (None, None) => {}
                    (Some(f), Some(b)) => {
                        assert_eq!(f.scaled, b.scaled, "∆={delta} α={alpha}");
                        assert_eq!(f.weight.to_bits(), b.weight.to_bits());
                        assert_eq!(f.length.to_bits(), b.length.to_bits());
                        assert_eq!(f.nodes(&arena), b.nodes(&baseline_arena));
                        assert_eq!(f.edges(&arena), b.edges(&baseline_arena));
                    }
                    (f, b) => panic!("∆={delta} α={alpha}: frontier {f:?} vs baseline {b:?}"),
                }
                assert!(
                    frontier.frontier_tuples <= baseline.frontier_tuples,
                    "∆={delta} α={alpha}: frontier {} > naive {}",
                    frontier.frontier_tuples,
                    baseline.frontier_tuples
                );
                assert_eq!(frontier.edges_processed, baseline.edges_processed);
                // Dominance can only shrink the combine work: the frontier
                // loop never materialises more tuples than the baseline.
                assert!(frontier.tuples_generated <= baseline.tuples_generated);
            }
        }
    }

    #[test]
    fn budget_pruning_skips_infeasible_pairs_without_materialising() {
        // A tight ∆ makes many combinations infeasible; the frontier loop
        // must count them as pruned pairs instead of allocating and rolling
        // back (the arena sees only feasible products).
        let (_n, qg) = figure2_query_graph(3.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_tgen(
            &qg,
            &mut arena,
            &TgenParams { alpha: 0.15 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        assert!(outcome.pruned_pairs > 0, "tight ∆ must prune pairs");
        // Compare against the baseline: it materialises what we prune.
        let mut baseline_arena = TupleArena::new();
        let baseline =
            run_tgen_baseline(&qg, &mut baseline_arena, &TgenParams { alpha: 0.15 }).unwrap();
        assert!(baseline.tuples_generated > outcome.tuples_generated);
        let rollbacks =
            baseline_arena.stats().top_rollbacks + baseline_arena.stats().free_list_hits;
        assert!(
            rollbacks > 0,
            "the baseline pays for infeasible combinations with rollbacks"
        );
    }

    #[test]
    fn coarser_scaling_cannot_increase_accuracy() {
        let (_n, qg_fine) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let fine = run_tgen(
            &qg_fine,
            &mut arena,
            &TgenParams { alpha: 0.15 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap()
        .best
        .unwrap();
        let (_n, qg_coarse) = figure2_query_graph(6.0, 3.0);
        arena.reset();
        let coarse = run_tgen(
            &qg_coarse,
            &mut arena,
            &TgenParams { alpha: 3.0 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap()
        .best
        .unwrap();
        assert!(coarse.weight <= fine.weight + 1e-9);
    }

    #[test]
    fn irrelevant_query_returns_none() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::subgraph::RegionView;
        let (network, _) = crate::query_graph::test_support::figure2();
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &NodeWeights::default(), 5.0, 400.0).unwrap();
        let mut arena = TupleArena::new();
        let outcome = run_tgen(
            &qg,
            &mut arena,
            &TgenParams::default(),
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        assert!(outcome.best.is_none());
        assert!(outcome.top_tuples.is_empty());
        assert_eq!(outcome.frontier_tuples, 0);
    }

    #[test]
    fn huge_delta_collects_all_relevant_weight() {
        let (_n, qg) = figure2_query_graph(1000.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_tgen(
            &qg,
            &mut arena,
            &TgenParams { alpha: 0.15 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let best = outcome.best.unwrap();
        assert_eq!(best.node_count(), 6);
        assert!((best.weight - 1.7).abs() < 1e-9);
    }

    #[test]
    fn top_tuples_are_sorted_and_distinct() {
        let (_n, qg) = figure2_query_graph(6.0, 0.15);
        let mut arena = TupleArena::new();
        let outcome = run_tgen(
            &qg,
            &mut arena,
            &TgenParams { alpha: 0.15 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let top = &outcome.top_tuples;
        assert!(!top.is_empty());
        for w in top.windows(2) {
            assert!(
                w[0].scaled > w[1].scaled
                    || (w[0].scaled == w[1].scaled && w[0].length <= w[1].length + 1e-9)
            );
            assert!(!w[0].same_nodes(&w[1], &arena));
        }
        // The first entry is the overall best.
        assert_eq!(top[0].scaled, outcome.best.unwrap().scaled);
    }

    #[test]
    fn top_tuples_survive_a_scaling_that_floors_to_zero() {
        // With α far above |V_Q| every scaled weight is ⌊|V_Q|/α⌋ = 0 (Lemma 5);
        // the top list must still carry the relevant regions BestTracker sees,
        // so a top-1 request keeps agreeing with the single-query best.
        let (_n, qg) = figure2_query_graph(6.0, 100.0);
        assert_eq!(qg.scaled_weight_lower_bound(), 0);
        let mut arena = TupleArena::new();
        let outcome = run_tgen(
            &qg,
            &mut arena,
            &TgenParams { alpha: 100.0 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let best = outcome.best.expect("relevant nodes exist");
        assert!(best.weight > 0.0);
        let top = &outcome.top_tuples;
        assert!(!top.is_empty(), "scaled-0 tuples must not be discarded");
        assert!(top[0].same_nodes(&best, &arena));
        assert!((top[0].weight - best.weight).abs() < 1e-12);
    }

    #[test]
    fn a_lone_edge_within_the_length_tolerance_is_combined() {
        use crate::exact::ExactSolver;
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        // Every solver accepts a region up to ∆ + 1e-9 long, so an edge just
        // past ∆ but inside that tolerance joins its two nodes.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, 1.000_000_000_5).unwrap();
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights([(NodeId(0), 0.5), (NodeId(1), 0.5)]);
        let qg = QueryGraph::build(&RegionView::whole(&network), &weights, 1.0, 0.1).unwrap();
        let mut arena = TupleArena::new();
        let exact = ExactSolver::new()
            .solve(
                &qg,
                &mut arena,
                &CancelToken::none(),
                &mut TraceCollector::disabled(),
            )
            .unwrap()
            .best
            .unwrap();
        let tgen = run_tgen(
            &qg,
            &mut arena,
            &TgenParams { alpha: 0.1 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap()
        .best
        .unwrap();
        assert_eq!(exact.nodes(&arena), &[0, 1]);
        assert_eq!(tgen.nodes(&arena), exact.nodes(&arena));
        assert_eq!(tgen.edges(&arena), exact.edges(&arena));
        assert_eq!(tgen.weight.to_bits(), exact.weight.to_bits());
        assert_eq!(tgen.length.to_bits(), exact.length.to_bits());
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

    /// A random network on `n` nodes with its node weights.  Half the
    /// networks are a random spanning tree plus extra edges; the other half
    /// have random edges only, so isolated nodes and several components
    /// occur.  Edge lengths come from {1, 2, 3, 5}, so budget ties occur, and
    /// node weights from {0, 0, 1, 2, 3, 5}.
    fn random_network(
        rng: &mut Rng,
        n: usize,
    ) -> (
        lcmsr_roadnet::graph::RoadNetwork,
        lcmsr_geotext::collection::NodeWeights,
    ) {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;

        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_node(Point::new((i % 9) as f64 * 10.0, (i / 9) as f64 * 10.0)))
            .collect();
        let lengths = [1.0, 2.0, 3.0, 5.0];
        let tree = rng.next() % 2 == 0;
        if tree {
            for v in 1..n {
                let u = rng.range(0, v - 1);
                b.add_edge(ids[u], ids[v], rng.pick(&lengths)).unwrap();
            }
        }
        let extra = rng.range(0, if tree { n / 2 } else { n });
        for _ in 0..extra {
            let (u, v) = (rng.range(0, n - 1), rng.range(0, n - 1));
            if u != v {
                b.add_edge(ids[u], ids[v], rng.pick(&lengths)).unwrap();
            }
        }
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights((0..n).filter_map(|v| {
            let w: f64 = rng.pick(&[0.0, 0.0, 1.0, 2.0, 3.0, 5.0]);
            (w > 0.0).then_some((NodeId(v as u32), w))
        }));
        (network, weights)
    }

    fn assert_same_tuple(
        got: &RegionTuple,
        arena: &TupleArena,
        want: &RegionTuple,
        want_arena: &TupleArena,
        context: &str,
    ) {
        assert_eq!(got.scaled, want.scaled, "{context}");
        assert_eq!(got.weight.to_bits(), want.weight.to_bits(), "{context}");
        assert_eq!(got.length.to_bits(), want.length.to_bits(), "{context}");
        assert_eq!(got.nodes(arena), want.nodes(want_arena), "{context}");
        assert_eq!(got.edges(arena), want.edges(want_arena), "{context}");
    }

    #[test]
    fn matches_the_merge_everything_loop_bit_for_bit() {
        use lcmsr_roadnet::subgraph::RegionView;

        let mut rng = Rng(0x7467_656e_2014);
        let (mut arena, mut reference_arena) = (TupleArena::new(), TupleArena::new());
        let (mut allocs, mut reference_allocs) = (0u64, 0u64);
        let mut full_top_lists = 0;
        for i in 0..600 {
            // Mostly small graphs, where fine scalings stay cheap.  Every
            // eighth one has more than 64 nodes, so distinct nodes share a
            // signature bit and the shared-node walk must decide; every
            // sixteenth has more than 127, so every bit is shared.
            let n = match i % 16 {
                7 => rng.range(65, 127),
                15 => rng.range(128, 160),
                _ => rng.range(1, 40),
            };
            let (network, weights) = random_network(&mut rng, n);
            let view = RegionView::whole(&network);
            let deltas: &[f64] = if n > 64 {
                &[2.0, 4.0]
            } else {
                &[0.5, 3.0, 6.0, 9.0]
            };
            // Fine to coarse: α = 4n floors every scaled weight to 0, and
            // α = n/2 leaves two or three scaled units, so ties abound.
            let alphas: &[f64] = if n > 64 {
                &[4.0, n as f64 / 2.0, 4.0 * n as f64]
            } else {
                &[0.5, 2.0, n as f64 / 2.0, 4.0 * n as f64]
            };
            for &delta in deltas {
                for &alpha in alphas {
                    let qg = QueryGraph::build(&view, &weights, delta, alpha).unwrap();
                    let params = TgenParams { alpha };
                    let context = format!("graph {i} (n = {n}), ∆ = {delta}, α = {alpha}");
                    arena.reset();
                    reference_arena.reset();
                    let (before, reference_before) =
                        (arena.stats().allocs, reference_arena.stats().allocs);
                    let got = run_tgen(
                        &qg,
                        &mut arena,
                        &params,
                        &CancelToken::none(),
                        &mut TraceCollector::disabled(),
                    )
                    .unwrap();
                    let want = reference::run_tgen(
                        &qg,
                        &mut reference_arena,
                        &params,
                        &CancelToken::none(),
                        &mut TraceCollector::disabled(),
                    )
                    .unwrap();
                    match (&got.best, &want.best) {
                        (None, None) => {}
                        (Some(g), Some(w)) => {
                            assert_same_tuple(g, &arena, w, &reference_arena, &context);
                        }
                        (g, w) => panic!("{context}: best {g:?} vs {w:?}"),
                    }
                    assert_eq!(got.top_tuples.len(), want.top_tuples.len(), "{context}");
                    for (g, w) in got.top_tuples.iter().zip(&want.top_tuples) {
                        assert_same_tuple(g, &arena, w, &reference_arena, &context);
                    }
                    full_top_lists += usize::from(got.top_tuples.len() == TOP_LIMIT);
                    assert_eq!(got.tuples_generated, want.tuples_generated, "{context}");
                    assert_eq!(got.pruned_pairs, want.pruned_pairs, "{context}");
                    assert_eq!(got.edges_processed, want.edges_processed, "{context}");
                    assert_eq!(got.frontier_tuples, want.frontier_tuples, "{context}");
                    assert_eq!(got.frontier_peak, want.frontier_peak, "{context}");
                    assert_eq!(
                        got.dominance_evictions, want.dominance_evictions,
                        "{context}"
                    );
                    assert!(!got.interrupted && !want.interrupted, "{context}");
                    let used = arena.stats().allocs - before;
                    let reference_used = reference_arena.stats().allocs - reference_before;
                    assert!(
                        used <= reference_used,
                        "{context}: {used} > {reference_used} blocks"
                    );
                    allocs += used;
                    reference_allocs += reference_used;
                }
            }
        }
        assert!(
            allocs < reference_allocs,
            "{allocs} blocks, the merge-everything loop {reference_allocs}"
        );
        assert!(full_top_lists > 0, "some runs must fill the top list");
    }

    #[test]
    fn disconnected_query_regions_are_fully_explored() {
        use lcmsr_geotext::collection::NodeWeights;
        use lcmsr_roadnet::builder::GraphBuilder;
        use lcmsr_roadnet::geo::Point;
        use lcmsr_roadnet::node::NodeId;
        use lcmsr_roadnet::subgraph::RegionView;

        // Two disjoint 2-node components; the right one is heavier.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let d = b.add_node(Point::new(100.0, 0.0));
        let e = b.add_node(Point::new(101.0, 0.0));
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(d, e, 1.0).unwrap();
        let network = b.build().unwrap();
        let weights = NodeWeights::from_node_weights([
            (NodeId(0), 0.1),
            (NodeId(1), 0.1),
            (NodeId(2), 0.5),
            (NodeId(3), 0.5),
        ]);
        let view = RegionView::whole(&network);
        let qg = QueryGraph::build(&view, &weights, 5.0, 0.1).unwrap();
        let mut arena = TupleArena::new();
        let outcome = run_tgen(
            &qg,
            &mut arena,
            &TgenParams { alpha: 0.1 },
            &CancelToken::none(),
            &mut TraceCollector::disabled(),
        )
        .unwrap();
        let best = outcome.best.unwrap();
        assert_eq!(
            best.nodes(&arena),
            &[2, 3],
            "the heavier component must win"
        );
        assert!((best.weight - 1.0).abs() < 1e-9);
        assert_eq!(outcome.edges_processed, 2);
    }
}
