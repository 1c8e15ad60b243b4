//! [`TupleArena`]: slab storage for region-tuple node/edge id sets.
//!
//! The solve phase (TGEN's edge-combine loops, `findOptTree`, the k-MST
//! oracle) creates and discards large numbers of [`crate::region::RegionTuple`]s,
//! each carrying a sorted node set and a sorted edge set.  Storing those sets
//! as owned `Vec<u32>`s made every combine, clone and top-list offer a pair of
//! heap allocations; the arena replaces them with `(offset, len)` handles into
//! one contiguous `u32` slab:
//!
//! * **allocation** is a bump at the end of the slab, or the reuse of an
//!   exact-size block from a per-length free list,
//! * **cloning a tuple** is a `Copy` of its handles — no id data moves,
//! * **freeing** returns a block to the free list (or shrinks the slab when
//!   the block sits at the top, the common case for a candidate that is
//!   created and immediately discarded),
//! * **epoch clearing** ([`TupleArena::reset`]) invalidates everything in
//!   O(free-list buckets) between queries while keeping all capacity, so a
//!   steady stream of queries over one workspace allocates near-zero.
//!
//! # Safety contract (no `unsafe`, but a logical one)
//!
//! Handles are plain indices, so the arena cannot detect stale use on its
//! own.  Two rules keep them sound, and the solvers follow them:
//!
//! 1. [`TupleArena::free`] may only be called on a handle with a **single
//!    owner** — typically a tuple that was just created and rejected before
//!    anyone else saw it.  Tuples stored in shared structures (tuple arrays,
//!    best trackers, top lists) are never freed individually; they are
//!    reclaimed wholesale by `reset`.
//! 2. `reset` must only run between queries, when no handle from the previous
//!    query is live.
//!
//! The `tests/arena_pool.rs` proptests drive random interleavings of
//! alloc/merge/free/reset against a shadow model to check that live handles
//! never alias.

/// Handle to a sorted id set stored in a [`TupleArena`].
///
/// A handle is `Copy` and 8 bytes; the empty set is `{offset: 0, len: 0}` and
/// owns no storage.  Handle equality is *identity* (same storage), not set
/// equality — compare contents via [`TupleArena::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSetHandle {
    offset: u32,
    len: u32,
}

impl IdSetHandle {
    /// The empty set (no backing storage).
    pub const EMPTY: IdSetHandle = IdSetHandle { offset: 0, len: 0 };

    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Start of the block in the arena's slab (for diagnostics/tests).
    #[inline]
    pub fn offset(&self) -> u32 {
        self.offset
    }
}

/// Counters describing an arena's activity.  Cumulative since construction —
/// [`TupleArena::reset`] does *not* clear them (it only counts as a reset) —
/// cheap to keep, and handy for benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Blocks handed out (bump or free-list).
    pub allocs: u64,
    /// Allocations served from a free list instead of growing the slab.
    pub free_list_hits: u64,
    /// Blocks returned by [`TupleArena::free`] that shrank the slab in place
    /// (the freed block sat at the top — pure stack discipline).
    pub top_rollbacks: u64,
    /// Epoch clears performed.
    pub resets: u64,
}

/// Slab allocator for the sorted `u32` id sets of region tuples.
///
/// See the module docs for the design and the (logical) safety contract.
#[derive(Debug, Clone, Default)]
pub struct TupleArena {
    /// The slab.  Live blocks and free-listed blocks are disjoint.
    data: Vec<u32>,
    /// `free[len]` holds offsets of freed blocks of exactly `len` ids.
    free: Vec<Vec<u32>>,
    stats: ArenaStats,
}

impl TupleArena {
    /// Creates an empty arena; the slab grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Invalidates every handle and reclaims the whole slab in one step while
    /// keeping all capacity.  Call between queries, never while handles from
    /// the current query are live.
    pub fn reset(&mut self) {
        self.data.clear();
        for bucket in &mut self.free {
            bucket.clear();
        }
        self.stats.resets += 1;
    }

    /// The ids of a set, in ascending order.
    #[inline]
    pub fn get(&self, handle: IdSetHandle) -> &[u32] {
        &self.data[handle.offset as usize..(handle.offset + handle.len) as usize]
    }

    /// Copies `ids` (which must be sorted ascending) into the arena.
    pub fn alloc(&mut self, ids: &[u32]) -> IdSetHandle {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let handle = self.alloc_block(ids.len());
        let start = handle.offset as usize;
        self.data[start..start + ids.len()].copy_from_slice(ids);
        handle
    }

    /// Returns a block to the free list.  The caller must be the handle's
    /// only owner (see the module docs); the empty set is a no-op.
    pub fn free(&mut self, handle: IdSetHandle) {
        if handle.len == 0 {
            return;
        }
        let end = (handle.offset + handle.len) as usize;
        if end == self.data.len() {
            // The block sits at the top of the slab: shrink instead of
            // free-listing, keeping the bump pointer tight for the common
            // create-then-discard pattern of the combine loops.
            self.data.truncate(handle.offset as usize);
            self.stats.top_rollbacks += 1;
            return;
        }
        let len = handle.len as usize;
        if self.free.len() <= len {
            self.free.resize_with(len + 1, Vec::new);
        }
        self.free[len].push(handle.offset);
    }

    /// Merges two sorted sets into a newly allocated sorted set.
    /// The sets must be disjoint (region tuples only merge disjoint sets).
    pub fn merge(&mut self, a: IdSetHandle, b: IdSetHandle) -> IdSetHandle {
        let dst = self.alloc_block(a.len() + b.len());
        let (mut i, mut j, mut o) = (a.offset as usize, b.offset as usize, dst.offset as usize);
        let (ae, be) = (i + a.len(), j + b.len());
        while i < ae && j < be {
            let (av, bv) = (self.data[i], self.data[j]);
            if av <= bv {
                self.data[o] = av;
                i += 1;
            } else {
                self.data[o] = bv;
                j += 1;
            }
            o += 1;
        }
        while i < ae {
            self.data[o] = self.data[i];
            i += 1;
            o += 1;
        }
        while j < be {
            self.data[o] = self.data[j];
            j += 1;
            o += 1;
        }
        dst
    }

    /// Merges two sorted sets plus one extra id (contained in neither) into a
    /// newly allocated sorted set — the shape of a region combine, which
    /// unions two edge sets with the connecting edge.
    pub fn merge_plus(&mut self, a: IdSetHandle, b: IdSetHandle, extra: u32) -> IdSetHandle {
        let dst = self.alloc_block(a.len() + b.len() + 1);
        let (mut i, mut j, mut o) = (a.offset as usize, b.offset as usize, dst.offset as usize);
        let (ae, be) = (i + a.len(), j + b.len());
        // Plain two-pointer merge of `a` and `b`, with `extra` spliced in the
        // moment the merge stream passes its sorted position.
        let mut pending = Some(extra);
        while i < ae || j < be {
            let next = if i < ae && (j >= be || self.data[i] <= self.data[j]) {
                let v = self.data[i];
                i += 1;
                v
            } else {
                let v = self.data[j];
                j += 1;
                v
            };
            if pending.is_some_and(|x| x < next) {
                self.data[o] = pending.take().expect("checked above");
                o += 1;
            }
            self.data[o] = next;
            o += 1;
        }
        if let Some(x) = pending {
            self.data[o] = x;
        }
        dst
    }

    /// Copies a sorted set with one extra id (not already contained) inserted
    /// at its sorted position — the shape of a single-node region extension.
    pub fn insert_one(&mut self, a: IdSetHandle, extra: u32) -> IdSetHandle {
        let dst = self.alloc_block(a.len() + 1);
        let (mut i, mut o) = (a.offset as usize, dst.offset as usize);
        let ae = i + a.len();
        while i < ae && self.data[i] < extra {
            self.data[o] = self.data[i];
            i += 1;
            o += 1;
        }
        self.data[o] = extra;
        o += 1;
        while i < ae {
            self.data[o] = self.data[i];
            i += 1;
            o += 1;
        }
        dst
    }

    /// Whether two sorted sets share at least one id (linear merge scan).
    pub fn intersects(&self, a: IdSetHandle, b: IdSetHandle) -> bool {
        let (mut i, mut j) = (a.offset as usize, b.offset as usize);
        let (ae, be) = (i + a.len(), j + b.len());
        while i < ae && j < be {
            match self.data[i].cmp(&self.data[j]) {
                std::cmp::Ordering::Equal => return true,
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        false
    }

    /// Whether two sets hold the same ids (identity fast path, then contents).
    pub fn same_ids(&self, a: IdSetHandle, b: IdSetHandle) -> bool {
        if a.len != b.len {
            return false;
        }
        a.offset == b.offset || self.get(a) == self.get(b)
    }

    /// Number of `u32` slots currently in the slab (live + free-listed).
    pub fn storage_len(&self) -> usize {
        self.data.len()
    }

    /// Slab capacity in `u32` slots (the high-water mark survives resets).
    pub fn storage_capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Hands out a block of `len` slots: exact-size free-list reuse first,
    /// bump growth otherwise.  Contents are unspecified until written.
    fn alloc_block(&mut self, len: usize) -> IdSetHandle {
        if len == 0 {
            return IdSetHandle::EMPTY;
        }
        self.stats.allocs += 1;
        if let Some(bucket) = self.free.get_mut(len) {
            if let Some(offset) = bucket.pop() {
                self.stats.free_list_hits += 1;
                return IdSetHandle {
                    offset,
                    len: len as u32,
                };
            }
        }
        let offset = self.data.len();
        // Handles address the slab with u32 offsets; past that the cast would
        // wrap and alias live blocks — fail loudly instead (a query would
        // need a ~16 GiB slab to get here).
        assert!(
            offset + len <= u32::MAX as usize,
            "TupleArena slab exceeded u32 addressing ({offset} + {len} slots)"
        );
        self.data.resize(offset + len, 0);
        IdSetHandle {
            offset: offset as u32,
            len: len as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_get_roundtrip() {
        let mut arena = TupleArena::new();
        let a = arena.alloc(&[1, 4, 9]);
        let b = arena.alloc(&[2, 3]);
        let e = arena.alloc(&[]);
        assert_eq!(arena.get(a), &[1, 4, 9]);
        assert_eq!(arena.get(b), &[2, 3]);
        assert_eq!(arena.get(e), &[] as &[u32]);
        assert_eq!(a.len(), 3);
        assert!(e.is_empty());
        assert_eq!(arena.storage_len(), 5);
    }

    #[test]
    fn merge_produces_sorted_union() {
        let mut arena = TupleArena::new();
        let a = arena.alloc(&[1, 5, 8]);
        let b = arena.alloc(&[2, 6, 9, 11]);
        let m = arena.merge(a, b);
        assert_eq!(arena.get(m), &[1, 2, 5, 6, 8, 9, 11]);
        // Sources are untouched.
        assert_eq!(arena.get(a), &[1, 5, 8]);
        assert_eq!(arena.get(b), &[2, 6, 9, 11]);
        let e = IdSetHandle::EMPTY;
        let m2 = arena.merge(m, e);
        assert_eq!(arena.get(m2), arena.get(m).to_vec().as_slice());
    }

    #[test]
    fn merge_plus_and_insert_one_place_the_extra_correctly() {
        let mut arena = TupleArena::new();
        let a = arena.alloc(&[1, 5]);
        let b = arena.alloc(&[3, 9]);
        for extra in [0, 2, 4, 7, 10] {
            let m = arena.merge_plus(a, b, extra);
            let mut expect = vec![1, 3, 5, 9, extra];
            expect.sort_unstable();
            assert_eq!(arena.get(m), expect.as_slice(), "extra {extra}");
        }
        for extra in [0, 3, 6] {
            let s = arena.insert_one(a, extra);
            let mut expect = vec![1, 5, extra];
            expect.sort_unstable();
            assert_eq!(arena.get(s), expect.as_slice(), "extra {extra}");
        }
        let e = arena.insert_one(IdSetHandle::EMPTY, 7);
        assert_eq!(arena.get(e), &[7]);
    }

    #[test]
    fn intersects_and_same_ids() {
        let mut arena = TupleArena::new();
        let a = arena.alloc(&[1, 3, 5]);
        let b = arena.alloc(&[2, 4, 6]);
        let c = arena.alloc(&[0, 5, 9]);
        let a2 = arena.alloc(&[1, 3, 5]);
        assert!(!arena.intersects(a, b));
        assert!(arena.intersects(a, c));
        assert!(arena.intersects(c, a));
        assert!(arena.same_ids(a, a));
        assert!(arena.same_ids(a, a2));
        assert!(!arena.same_ids(a, b));
        assert!(!arena.same_ids(a, IdSetHandle::EMPTY));
        assert!(arena.same_ids(IdSetHandle::EMPTY, IdSetHandle::EMPTY));
    }

    #[test]
    fn free_at_top_shrinks_the_slab() {
        let mut arena = TupleArena::new();
        let a = arena.alloc(&[1, 2]);
        let b = arena.alloc(&[3, 4, 5]);
        assert_eq!(arena.storage_len(), 5);
        arena.free(b);
        assert_eq!(arena.storage_len(), 2, "top block rolls the bump back");
        assert_eq!(arena.stats().top_rollbacks, 1);
        assert_eq!(arena.get(a), &[1, 2]);
    }

    #[test]
    fn free_list_recycles_exact_sizes() {
        let mut arena = TupleArena::new();
        let a = arena.alloc(&[1, 2, 3]);
        let _guard = arena.alloc(&[9]); // keeps `a` off the top
        arena.free(a);
        let before = arena.storage_len();
        let b = arena.alloc(&[7, 8, 9]);
        assert_eq!(arena.storage_len(), before, "same-size block reused");
        assert_eq!(b.offset(), a.offset());
        assert_eq!(arena.get(b), &[7, 8, 9]);
        assert_eq!(arena.stats().free_list_hits, 1);
        // A different size cannot reuse the (now re-live) block.
        let c = arena.alloc(&[1, 2]);
        assert_ne!(c.offset(), b.offset());
    }

    #[test]
    fn reset_reclaims_everything_but_keeps_capacity() {
        let mut arena = TupleArena::new();
        for i in 0..100u32 {
            arena.alloc(&[i, i + 1000]);
        }
        let cap = arena.storage_capacity();
        assert!(cap >= 200);
        arena.reset();
        assert_eq!(arena.storage_len(), 0);
        assert_eq!(arena.storage_capacity(), cap, "capacity survives reset");
        assert_eq!(arena.stats().resets, 1);
        let a = arena.alloc(&[5]);
        assert_eq!(arena.get(a), &[5]);
    }

    #[test]
    fn randomised_alloc_free_never_aliases_live_blocks() {
        // Deterministic xorshift so the test needs no external crate.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut arena = TupleArena::new();
        // Model: live handles with their expected contents.
        let mut live: Vec<(IdSetHandle, Vec<u32>)> = Vec::new();
        for step in 0..4000u32 {
            match rng() % 10 {
                0..=4 => {
                    // Alloc a fresh sorted set.
                    let len = (rng() % 6) as u32;
                    let base = rng() as u32 % 1000;
                    let ids: Vec<u32> = (0..len).map(|k| base + k * 3).collect();
                    let h = arena.alloc(&ids);
                    live.push((h, ids));
                }
                5..=6 if live.len() >= 2 => {
                    // Merge two disjoint live sets (skip when they collide).
                    let i = (rng() as usize) % live.len();
                    let j = (rng() as usize) % live.len();
                    if i != j && !arena.intersects(live[i].0, live[j].0) {
                        let h = arena.merge(live[i].0, live[j].0);
                        let mut ids = live[i].1.clone();
                        ids.extend_from_slice(&live[j].1);
                        ids.sort_unstable();
                        live.push((h, ids));
                    }
                }
                7..=8 if !live.is_empty() => {
                    // Free a random live handle (single-owner by construction:
                    // merges copy, they do not share storage).
                    let i = (rng() as usize) % live.len();
                    let (h, _) = live.swap_remove(i);
                    arena.free(h);
                }
                9 if step % 97 == 0 => {
                    arena.reset();
                    live.clear();
                }
                _ => {}
            }
            for (h, expect) in &live {
                assert_eq!(arena.get(*h), expect.as_slice(), "step {step}");
            }
        }
        assert!(arena.stats().allocs > 0);
    }
}
