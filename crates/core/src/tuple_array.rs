//! Region tuple arrays (Definitions 5 and 6 of the paper), stored as strict
//! Pareto frontiers.
//!
//! A tuple array keeps, for each scaled weight value `S`, the region tuple
//! with the smallest length among all enumerated regions having scaled weight
//! `S` (Lemma 6 justifies this dominance pruning inside `findOptTree`).
//! Since PR 5 `findOptTree`'s arrays extend the pruning *across* scaled
//! weights: the two sides of a tree-DP combine are node-disjoint by
//! construction (a peeled subtree vs the rest of the tree), so a tuple with
//! scaled weight `S1 ≥ S2` and length `L1 ≤ L2` can stand in for `(S2, L2)`
//! in every combination — any feasible combination the dominated tuple would
//! have joined has a counterpart through the dominator with at least the same
//! scaled weight and at most the same length.  [`TupleArray`] therefore
//! stores only the strict frontier: **scaled weight strictly increasing,
//! length strictly increasing**.  TGEN's whole-graph arrays must *not* apply
//! cross-weight dominance (Lemma 9's disjointness check breaks the
//! substitution argument — see [`ExploredArray`]); they share the flat
//! sorted-`Vec` layout but prune per scaled weight only.
//!
//! The frontier is a flat sorted `Vec`.  Insertion binary-searches the scaled
//! weight; a dominated candidate is rejected by a single comparison against
//! its successor, and an accepted candidate evicts the (contiguous, possibly
//! empty) run of predecessors it newly dominates.  Because lengths increase
//! along the frontier, a consumer with a residual length budget `B` can
//! confine its scan to the prefix `length ≤ B` via `partition_point` — TGEN's
//! combine loop uses exactly this to skip infeasible pairs without
//! materialising them.
//!
//! **Interaction with ranking (`cmp_quality`).**  Dominance only ever
//! discards a tuple whose scaled weight is *strictly lower* than its
//! dominator's, or one with the same scaled weight but a longer-or-equal
//! region — the same per-scaled-weight rule the pre-frontier array already
//! applied.  In the strictly-lower case the discarded tuple ranks strictly
//! worse under the shared quality order (scaled weight is its primary key),
//! so the single best region read off an array is unchanged.  Top-k
//! consumers, which enumerate arrays for *runners-up*, no longer see
//! dominated-but-distinct node sets at all — the chosen behaviour, pinned by
//! the committed golden-region suite (`tests/golden_regions.rs`): a
//! dominated region is never reported because a no-worse region over the
//! same budget always is.
//!
//! Tuples are arena-backed handle structs (`Copy`), so storing, replacing and
//! iterating entries moves no id data.  Evicted and replaced entries are
//! *not* returned to the arena — the same tuple is routinely stored in
//! several node arrays at once, so individual entries have no single owner;
//! the workspace arena reclaims everything between queries.

use crate::region::RegionTuple;

/// A strict Pareto frontier of region tuples: scaled weight strictly
/// increasing, length strictly increasing.  Iteration — and therefore every
/// tie-break that depends on tuple enumeration order downstream — is
/// deterministic run-to-run; batched execution relies on this to return
/// byte-identical results to sequential execution.
#[derive(Debug, Clone, Default)]
pub struct TupleArray {
    frontier: Vec<RegionTuple>,
    /// Entries removed by a dominating insert (cumulative; diagnostics).
    evictions: u64,
    /// Candidates rejected because an entry already dominated them
    /// (cumulative; diagnostics).
    rejects: u64,
}

impl TupleArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuples on the frontier.
    pub fn len(&self) -> usize {
        self.frontier.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.frontier.is_empty()
    }

    /// The stored tuple with scaled weight exactly `s`, if one survives on
    /// the frontier.
    pub fn get(&self, s: u64) -> Option<&RegionTuple> {
        self.frontier
            .binary_search_by(|t| t.scaled.cmp(&s))
            .ok()
            .map(|i| &self.frontier[i])
    }

    /// Inserts `tuple` unless an entry already dominates it (scaled weight ≥
    /// and length ≤), evicting every entry the candidate newly dominates.
    /// Returns true when the array changed.  Ties keep the incumbent: a
    /// candidate with the same scaled weight and the same length as a stored
    /// entry is rejected, matching the pre-frontier first-wins rule.
    pub fn insert_if_better(&mut self, tuple: RegionTuple) -> bool {
        // First entry with scaled weight ≥ the candidate's.  Lengths increase
        // along the frontier, so this entry carries the minimum length among
        // all entries that could dominate the candidate — one comparison
        // decides rejection.
        let idx = self.frontier.partition_point(|t| t.scaled < tuple.scaled);
        if let Some(t) = self.frontier.get(idx) {
            if t.length <= tuple.length {
                self.rejects += 1;
                return false;
            }
        }
        // The candidate survives.  Predecessors with length ≥ the candidate's
        // have strictly smaller scaled weight and are now dominated; they form
        // a contiguous run ending at `idx` (lengths increase), possibly
        // extended by an equal-scaled (longer) incumbent at `idx` itself.
        let mut start = idx;
        while start > 0 && self.frontier[start - 1].length >= tuple.length {
            start -= 1;
        }
        let end = if self
            .frontier
            .get(idx)
            .is_some_and(|t| t.scaled == tuple.scaled)
        {
            idx + 1
        } else {
            idx
        };
        self.evictions += (end - start) as u64;
        if start < end {
            self.frontier[start] = tuple;
            self.frontier.drain(start + 1..end);
        } else {
            self.frontier.insert(start, tuple);
        }
        debug_assert!(self
            .frontier
            .windows(2)
            .all(|w| w[0].scaled < w[1].scaled && w[0].length < w[1].length));
        true
    }

    /// Iterates over the frontier in ascending scaled-weight (and therefore
    /// ascending length) order.
    pub fn iter(&self) -> impl Iterator<Item = &RegionTuple> {
        self.frontier.iter()
    }

    /// The frontier as a slice (ascending scaled weight and length) — the
    /// shape budget-pruned consumers `partition_point` over.
    pub fn as_slice(&self) -> &[RegionTuple] {
        &self.frontier
    }

    /// The stored tuple with the largest scaled weight.  The frontier keeps
    /// exactly one (minimum-length) tuple per scaled weight, so this is the
    /// paper's best-of-array with its tie-breaking rule built in.
    pub fn best(&self) -> Option<&RegionTuple> {
        self.frontier.last()
    }

    /// Drains the array, returning the frontier tuples in ascending
    /// scaled-weight order.
    pub fn into_tuples(self) -> Vec<RegionTuple> {
        self.frontier
    }

    /// Entries evicted by dominating inserts since construction.
    pub fn dominance_evictions(&self) -> u64 {
        self.evictions
    }

    /// Candidates rejected as dominated since construction.
    pub fn dominated_rejects(&self) -> u64 {
        self.rejects
    }
}

/// TGEN's *explored region tuple array* (Definition 6): one minimum-length
/// tuple per distinct scaled weight on a flat sorted `Vec`, binary-search
/// insert, **no cross-weight dominance**.
///
/// TGEN cannot use the Pareto-frontier [`TupleArray`]: its combine loop runs
/// over the whole query graph, where Lemma 9 skips partners that share nodes.
/// A dominating tuple may share nodes with a partner its dominated victim is
/// disjoint from, so evicting the victim loses combinations the dominator
/// cannot stand in for — on the golden tiny-NY workload, applying cross-weight
/// dominance to TGEN's arrays regressed 2 of 32 single-query answers (e.g.
/// q08: scaled weight 484 → 466).  Inside `findOptTree` the two sides of a
/// combine are node-disjoint *by construction* (peeled subtree vs rest of the
/// tree — there is no shares-nodes check to interfere), which is why the
/// frontier is sound there and only there.  This analysis is pinned by
/// `tests/golden_regions.rs`.
///
/// Iteration is ascending scaled weight, bit-compatible with the `BTreeMap`
/// array PRs 2–4 used; the flat layout is what the combine loop's snapshots
/// and the per-edge length-sorted permutation for budget pruning index into.
#[derive(Debug, Clone, Default)]
pub struct ExploredArray {
    by_scaled: Vec<RegionTuple>,
    /// Entries replaced by a same-scaled shorter tuple (Lemma 6 pruning;
    /// cumulative, diagnostics).
    replacements: u64,
    /// Bumped on every content change; snapshot caches (TGEN's per-edge
    /// length-sorted right snapshot) compare it to skip rebuild+re-sort when
    /// the array is unchanged since the last snapshot.
    version: u64,
}

impl ExploredArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct scaled-weight entries.
    pub fn len(&self) -> usize {
        self.by_scaled.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.by_scaled.is_empty()
    }

    /// The stored tuple for scaled weight `s`, if any.
    pub fn get(&self, s: u64) -> Option<&RegionTuple> {
        self.by_scaled
            .binary_search_by(|t| t.scaled.cmp(&s))
            .ok()
            .map(|i| &self.by_scaled[i])
    }

    /// Inserts `tuple` if no tuple with the same scaled weight exists or the
    /// existing one is longer.  Returns true when the array changed.
    pub fn insert_if_better(&mut self, tuple: RegionTuple) -> bool {
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

    /// Iterates over the stored tuples in ascending scaled-weight order.
    pub fn iter(&self) -> impl Iterator<Item = &RegionTuple> {
        self.by_scaled.iter()
    }

    /// The array as a slice in ascending scaled-weight order.
    pub fn as_slice(&self) -> &[RegionTuple] {
        &self.by_scaled
    }

    /// The stored tuple with the largest scaled weight (one tuple per scaled
    /// weight, so the paper's tie-break is built in).
    pub fn best(&self) -> Option<&RegionTuple> {
        self.by_scaled.last()
    }

    /// Drains the array, returning all tuples in ascending scaled-weight order.
    pub fn into_tuples(self) -> Vec<RegionTuple> {
        self.by_scaled
    }

    /// Entries replaced by same-scaled shorter tuples since construction.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Content version: changes exactly when the array's contents change.
    /// Starts at 0 for an empty array.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The pre-frontier tuple array (PRs 2–4): one minimum-length tuple per
/// distinct scaled weight, no cross-weight dominance, kept in a `BTreeMap`.
///
/// Retained as the **reference model**: `tgen`'s unit tests drive the PR 3/4
/// combine loop with it and check `run_tgen`'s results, array sizes and tuple
/// counts against that real predecessor, and the shadow-model proptests in
/// `tests/tuple_frontier.rs` check the frontier against this model plus a
/// post-hoc dominance filter.
#[derive(Debug, Clone, Default)]
pub struct NaiveTupleArray {
    by_scaled: std::collections::BTreeMap<u64, RegionTuple>,
}

impl NaiveTupleArray {
    /// Creates an empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct scaled-weight entries.
    pub fn len(&self) -> usize {
        self.by_scaled.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.by_scaled.is_empty()
    }

    /// The stored tuple for scaled weight `s`, if any.
    pub fn get(&self, s: u64) -> Option<&RegionTuple> {
        self.by_scaled.get(&s)
    }

    /// Inserts `tuple` if no tuple with the same scaled weight exists or the
    /// existing one is longer.  Returns true when the array changed.
    pub fn insert_if_better(&mut self, tuple: RegionTuple) -> bool {
        match self.by_scaled.get(&tuple.scaled) {
            Some(existing) if existing.length <= tuple.length => false,
            _ => {
                self.by_scaled.insert(tuple.scaled, tuple);
                true
            }
        }
    }

    /// Iterates over the stored tuples in ascending scaled-weight order.
    pub fn iter(&self) -> impl Iterator<Item = &RegionTuple> {
        self.by_scaled.values()
    }

    /// The stored tuples that survive the cross-weight dominance filter, in
    /// ascending scaled-weight order — what a [`TupleArray`] fed the same
    /// inserts must hold (up to tie-breaks on *which* equal-measure tuple
    /// survives, which insertion order decides in both structures).
    pub fn pareto_filtered(&self) -> Vec<RegionTuple> {
        let mut kept: Vec<RegionTuple> = Vec::new();
        let mut best_len = f64::INFINITY;
        for t in self.by_scaled.values().rev() {
            if t.length < best_len {
                kept.push(*t);
                best_len = t.length;
            }
        }
        kept.reverse();
        kept
    }
}

/// Keeps the overall best tuple(s) seen so far across the whole run.
///
/// `update` applies the shared quality order ([`RegionTuple::cmp_quality`]):
/// larger scaled weight wins; among equal scaled weights the larger original
/// weight wins, then the shorter region.
///
/// The tracker holds a handle copy of the winning tuple, so callers must not
/// free a tuple after offering it (solvers only free candidates that were
/// rejected by *every* consumer).
#[derive(Debug, Clone, Default)]
pub struct BestTracker {
    best: Option<RegionTuple>,
}

impl BestTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The best tuple so far, if any.
    pub fn best(&self) -> Option<&RegionTuple> {
        self.best.as_ref()
    }

    /// Takes ownership of the best tuple.
    pub fn into_best(self) -> Option<RegionTuple> {
        self.best
    }

    /// Offers a candidate; keeps it when it beats the current best under the
    /// shared quality order ([`RegionTuple::cmp_quality`]: larger scaled
    /// weight, then larger original weight, then shorter length — refining the
    /// paper's tie-breaking without changing the scaled-weight objective).
    /// Returns true when the candidate became the new best.
    pub fn update(&mut self, candidate: &RegionTuple) -> bool {
        let better = match &self.best {
            None => true,
            Some(current) => candidate.cmp_quality(current) == std::cmp::Ordering::Less,
        };
        if better {
            self.best = Some(*candidate);
        }
        better
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::TupleArena;

    fn tuple(arena: &mut TupleArena, scaled: u64, length: f64, node: u32) -> RegionTuple {
        RegionTuple::from_parts(arena, length, scaled as f64 / 100.0, scaled, &[node], &[])
    }

    #[test]
    fn insert_keeps_min_length_per_scaled_weight() {
        let mut arena = TupleArena::new();
        let mut arr = TupleArray::new();
        assert!(arr.is_empty());
        let t = tuple(&mut arena, 10, 5.0, 1);
        assert!(arr.insert_if_better(t));
        let t = tuple(&mut arena, 10, 6.0, 2);
        assert!(!arr.insert_if_better(t), "longer tuple rejected");
        let t = tuple(&mut arena, 10, 4.0, 3);
        assert!(arr.insert_if_better(t), "shorter tuple accepted");
        let t = tuple(&mut arena, 20, 9.0, 4);
        assert!(arr.insert_if_better(t));
        assert_eq!(arr.len(), 2);
        assert_eq!(arr.get(10).unwrap().length, 4.0);
        assert!(arr.get(15).is_none());
        assert_eq!(arr.iter().count(), 2);
        assert_eq!(arr.into_tuples().len(), 2);
    }

    #[test]
    fn equal_length_does_not_replace() {
        let mut arena = TupleArena::new();
        let mut arr = TupleArray::new();
        let t = tuple(&mut arena, 5, 2.0, 1);
        assert!(arr.insert_if_better(t));
        let t = tuple(&mut arena, 5, 2.0, 9);
        assert!(!arr.insert_if_better(t));
        assert_eq!(arr.get(5).unwrap().nodes(&arena), &[1]);
        assert_eq!(arr.dominated_rejects(), 1);
    }

    #[test]
    fn dominated_candidates_are_rejected_across_weights() {
        let mut arena = TupleArena::new();
        let mut arr = TupleArray::new();
        let t = tuple(&mut arena, 20, 3.0, 1);
        assert!(arr.insert_if_better(t));
        // Lower scaled weight, longer: dominated.
        let t = tuple(&mut arena, 10, 4.0, 2);
        assert!(!arr.insert_if_better(t));
        // Lower scaled weight, equal length: dominated.
        let t = tuple(&mut arena, 10, 3.0, 3);
        assert!(!arr.insert_if_better(t));
        // Lower scaled weight, strictly shorter: survives below the dominator.
        let t = tuple(&mut arena, 10, 1.0, 4);
        assert!(arr.insert_if_better(t));
        assert_eq!(arr.len(), 2);
        assert_eq!(arr.dominated_rejects(), 2);
        let scaled: Vec<u64> = arr.iter().map(|t| t.scaled).collect();
        assert_eq!(scaled, vec![10, 20]);
    }

    #[test]
    fn dominating_insert_evicts_the_whole_run() {
        let mut arena = TupleArena::new();
        let mut arr = TupleArray::new();
        for (s, l, n) in [(5, 1.0, 1), (10, 2.0, 2), (15, 3.0, 3), (20, 9.0, 4)] {
            let t = tuple(&mut arena, s, l, n);
            assert!(arr.insert_if_better(t));
        }
        assert_eq!(arr.len(), 4);
        // (18, 1.5) dominates (10, 2.0) and (15, 3.0) but not (5, 1.0) or
        // the heavier (20, 9.0).
        let t = tuple(&mut arena, 18, 1.5, 5);
        assert!(arr.insert_if_better(t));
        let scaled: Vec<u64> = arr.iter().map(|t| t.scaled).collect();
        assert_eq!(scaled, vec![5, 18, 20]);
        assert_eq!(arr.dominance_evictions(), 2);
        // Equal-scaled replacement also counts as an eviction and keeps the
        // frontier strict.
        let t = tuple(&mut arena, 18, 1.2, 6);
        assert!(arr.insert_if_better(t));
        assert_eq!(arr.get(18).unwrap().nodes(&arena), &[6]);
        assert_eq!(arr.dominance_evictions(), 3);
        let lengths: Vec<f64> = arr.iter().map(|t| t.length).collect();
        assert_eq!(lengths, vec![1.0, 1.2, 9.0]);
    }

    #[test]
    fn eviction_run_can_cover_the_whole_array() {
        let mut arena = TupleArena::new();
        let mut arr = TupleArray::new();
        for (s, l, n) in [(5, 2.0, 1), (10, 3.0, 2), (15, 4.0, 3)] {
            let t = tuple(&mut arena, s, l, n);
            arr.insert_if_better(t);
        }
        let t = tuple(&mut arena, 40, 1.0, 9);
        assert!(arr.insert_if_better(t));
        assert_eq!(arr.len(), 1);
        assert_eq!(arr.best().unwrap().nodes(&arena), &[9]);
        assert_eq!(arr.dominance_evictions(), 3);
    }

    #[test]
    fn best_prefers_scaled_weight_then_length() {
        let mut arena = TupleArena::new();
        let mut arr = TupleArray::new();
        let t = tuple(&mut arena, 10, 1.0, 1);
        arr.insert_if_better(t);
        let t = tuple(&mut arena, 30, 9.0, 2);
        arr.insert_if_better(t);
        let t = tuple(&mut arena, 20, 0.5, 3);
        arr.insert_if_better(t);
        assert_eq!(arr.best().unwrap().scaled, 30);
        assert!(TupleArray::new().best().is_none());
    }

    #[test]
    fn as_slice_exposes_the_budget_pruning_shape() {
        let mut arena = TupleArena::new();
        let mut arr = TupleArray::new();
        for (s, l, n) in [(5, 1.0, 1), (10, 2.0, 2), (15, 5.0, 3), (20, 9.0, 4)] {
            let t = tuple(&mut arena, s, l, n);
            arr.insert_if_better(t);
        }
        let slice = arr.as_slice();
        // Lengths ascend, so a residual budget carves a prefix.
        let within = slice.partition_point(|t| t.length <= 4.0);
        assert_eq!(within, 2);
        assert!(slice[..within].iter().all(|t| t.length <= 4.0));
        assert!(slice[within..].iter().all(|t| t.length > 4.0));
    }

    #[test]
    fn naive_model_matches_frontier_on_a_handwritten_sequence() {
        let mut arena = TupleArena::new();
        let mut frontier = TupleArray::new();
        let mut naive = NaiveTupleArray::new();
        let inserts = [
            (10, 5.0, 1),
            (10, 4.0, 2),
            (20, 9.0, 3),
            (15, 2.0, 4),
            (15, 2.0, 5),
            (5, 2.5, 6),
            (30, 1.0, 7),
        ];
        for (s, l, n) in inserts {
            let t = tuple(&mut arena, s, l, n);
            frontier.insert_if_better(t);
            naive.insert_if_better(t);
        }
        let filtered = naive.pareto_filtered();
        assert_eq!(frontier.len(), filtered.len());
        for (a, b) in frontier.iter().zip(&filtered) {
            assert_eq!(a.scaled, b.scaled);
            assert_eq!(a.length.to_bits(), b.length.to_bits());
            assert!(a.same_nodes(b, &arena));
        }
        assert_eq!(frontier.best().unwrap().scaled, 30);
        assert_eq!(naive.len(), 5, "naive keeps one entry per scaled weight");
        assert!(naive.get(20).is_some());
        assert!(!naive.is_empty());
        assert_eq!(naive.iter().count(), 5);
    }

    #[test]
    fn explored_version_changes_exactly_with_the_contents() {
        let mut arena = TupleArena::new();
        let mut arr = ExploredArray::new();
        assert_eq!(arr.version(), 0);
        let t = tuple(&mut arena, 10, 5.0, 1);
        assert!(arr.insert_if_better(t));
        assert_eq!(arr.version(), 1, "insert bumps the version");
        let t = tuple(&mut arena, 10, 6.0, 2);
        assert!(!arr.insert_if_better(t));
        assert_eq!(arr.version(), 1, "rejected insert leaves the version alone");
        let t = tuple(&mut arena, 10, 4.0, 3);
        assert!(arr.insert_if_better(t));
        assert_eq!(
            arr.version(),
            2,
            "same-scaled replacement bumps the version"
        );
        let t = tuple(&mut arena, 20, 9.0, 4);
        assert!(arr.insert_if_better(t));
        assert_eq!(arr.version(), 3);
    }

    #[test]
    fn best_tracker_orders_candidates() {
        let mut arena = TupleArena::new();
        let mut tracker = BestTracker::new();
        assert!(tracker.best().is_none());
        let t = tuple(&mut arena, 10, 5.0, 1);
        assert!(tracker.update(&t));
        let t = tuple(&mut arena, 9, 1.0, 2);
        assert!(!tracker.update(&t), "lower weight never wins");
        let t = tuple(&mut arena, 10, 6.0, 3);
        assert!(!tracker.update(&t), "same weights, longer loses");
        let t = tuple(&mut arena, 10, 4.0, 4);
        assert!(tracker.update(&t), "same weights, shorter wins");
        // Equal scaled weight but larger original weight wins regardless of length.
        let heavier = RegionTuple::from_parts(&mut arena, 9.0, 0.2, 10, &[8], &[]);
        assert!(tracker.update(&heavier));
        let t = tuple(&mut arena, 11, 9.0, 5);
        assert!(tracker.update(&t));
        assert_eq!(tracker.best().unwrap().scaled, 11);
        assert_eq!(tracker.into_best().unwrap().nodes(&arena), &[5]);
    }
}
