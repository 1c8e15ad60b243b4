//! [`EpochMap`]: a dense-keyed map with O(1) clearing and lazy sizing.
//!
//! Several hot paths (`Q.Λ` view membership, which also gives the query graph
//! its local node ids, and the exact solver's per-subset union-find) need a
//! map from dense `usize` keys — node indices — to small ids, rebuilt for
//! every query or subset.  Allocating or zeroing a network-sized table each
//! time defeats the purpose, so entries are stamped with the generation that
//! wrote them: bumping the generation counter invalidates every entry at
//! once, and the rare counter wrap-around is handled in one audited place
//! instead of being re-implemented per call site.
//!
//! The table is sized **lazily**: it grows (amortised, geometrically) to the
//! largest key actually inserted, not to the declared universe.  A one-shot
//! query over a small rectangle of a continent-scale network therefore pays
//! for the touched prefix of the node-id space only — not 8 bytes per node of
//! the whole network, the regression ROADMAP recorded after PR 2.  On top of
//! the lazy high-water bound, a generation can be **offset-rebased**
//! ([`EpochMap::begin_at`]): keys are stored relative to a caller-supplied
//! base, so a region whose nodes occupy a narrow id *band* anywhere in the id
//! space — including the highest ids of the network — costs table entries for
//! the band width only, not for the prefix up to it.  Callers that know the
//! smallest key of a generation up front (the `Q.Λ` view iterates sorted node
//! ids) pass it to `begin_at`; a key below the base is still handled
//! correctly via a one-off downward rebase.

/// A map from dense `usize` keys to `u32` values whose clear is O(1) and
/// whose backing table grows lazily with the keys actually inserted.
///
/// Call [`EpochMap::begin`] (or [`EpochMap::begin_at`] when the smallest key
/// of the generation is known) to start a new generation (clearing the map),
/// then [`EpochMap::insert`]/[`EpochMap::get`].  Lookups before the first
/// `begin`, and lookups beyond the table, return `None`.
#[derive(Debug, Clone, Default)]
pub struct EpochMap {
    /// Per-rebased-key `(stamp, value)`; the entry is live iff
    /// `stamp == epoch`.  Index `i` stores key `offset + i`.
    entries: Vec<(u32, u32)>,
    epoch: u32,
    /// Base subtracted from every key of the current generation.
    offset: usize,
}

impl EpochMap {
    /// Creates an empty map; the backing table grows on insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new generation, invalidating every entry.  Amortised O(1):
    /// the stamp reset on epoch wrap-around happens once per `u32::MAX`
    /// generations.  No storage is touched otherwise — the table grows only
    /// when [`EpochMap::insert`] actually reaches a new high-water key.
    pub fn begin(&mut self) {
        self.begin_at(0);
    }

    /// Starts a new generation whose keys are expected to be `>= offset`,
    /// sizing the backing table by the key *band* `offset..=max_key` instead
    /// of the prefix `0..=max_key`.  Keys below `offset` still work (a one-off
    /// downward rebase shifts the table), they just forfeit the band bound.
    pub fn begin_at(&mut self, offset: usize) {
        if self.epoch == u32::MAX {
            self.entries.iter_mut().for_each(|e| e.0 = 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.offset = offset;
    }

    /// Shifts the table so it is based at `new_offset < self.offset`, keeping
    /// every live entry addressable.  Cold path: only taken when a caller of
    /// [`EpochMap::begin_at`] underestimated its smallest key.
    fn rebase_down(&mut self, new_offset: usize) {
        let shift = self.offset - new_offset;
        let old_len = self.entries.len();
        self.entries.resize(old_len + shift, (0, 0));
        self.entries.rotate_right(shift);
        self.offset = new_offset;
    }

    /// Maps `key` to `value` in the current generation, growing the table to
    /// cover the key band if needed (geometric growth via `Vec`'s reserve).
    #[inline]
    pub fn insert(&mut self, key: usize, value: u32) {
        debug_assert!(self.epoch > 0, "EpochMap::begin must be called first");
        if key < self.offset {
            self.rebase_down(key);
        }
        let slot = key - self.offset;
        if slot >= self.entries.len() {
            self.entries.resize(slot + 1, (0, 0));
        }
        self.entries[slot] = (self.epoch, value);
    }

    /// The value of `key`, if it was inserted in the current generation.
    #[inline]
    pub fn get(&self, key: usize) -> Option<u32> {
        if self.epoch == 0 {
            return None;
        }
        match key
            .checked_sub(self.offset)
            .and_then(|slot| self.entries.get(slot))
        {
            Some(&(stamp, value)) if stamp == self.epoch => Some(value),
            _ => None,
        }
    }

    /// Whether `key` was inserted in the current generation.
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        self.get(key).is_some()
    }

    /// Current backing-table length — the high-water inserted key + 1, *not*
    /// the universe size (regression tests pin the lazy-sizing behaviour).
    pub fn table_len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generations_isolate_entries() {
        let mut m = EpochMap::new();
        assert!(!m.contains(0), "no entries before the first begin");
        m.begin();
        m.insert(1, 10);
        m.insert(3, 30);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get(3), Some(30));
        assert_eq!(m.get(0), None);
        assert_eq!(m.get(99), None, "never-inserted keys are absent");
        m.begin();
        assert_eq!(m.get(1), None, "a new generation clears old entries");
        m.insert(1, 11);
        assert_eq!(m.get(1), Some(11));
    }

    #[test]
    fn keys_can_grow_between_generations() {
        let mut m = EpochMap::new();
        m.begin();
        m.insert(1, 1);
        m.begin();
        m.insert(5, 5);
        assert_eq!(m.get(5), Some(5));
        assert_eq!(m.get(1), None);
    }

    #[test]
    fn table_is_sized_by_touched_keys_not_universe() {
        let mut m = EpochMap::new();
        m.begin();
        assert_eq!(m.table_len(), 0, "begin allocates nothing");
        m.insert(9, 1);
        assert_eq!(m.table_len(), 10, "grown to the high-water key + 1");
        m.insert(3, 2);
        assert_eq!(m.table_len(), 10, "smaller keys reuse the table");
        assert_eq!(m.get(9), Some(1));
        assert_eq!(m.get(3), Some(2));
        assert_eq!(m.get(1_000_000), None, "huge keys read as absent for free");
        m.begin();
        assert_eq!(m.table_len(), 10, "generations keep the table");
    }

    #[test]
    fn offset_rebasing_sizes_the_table_by_the_key_band() {
        let mut m = EpochMap::new();
        m.begin_at(1_000_000);
        m.insert(1_000_000, 1);
        m.insert(1_000_009, 2);
        assert_eq!(m.table_len(), 10, "band of 10 keys costs 10 entries");
        assert_eq!(m.get(1_000_000), Some(1));
        assert_eq!(m.get(1_000_009), Some(2));
        assert_eq!(m.get(1_000_004), None);
        assert_eq!(m.get(0), None, "keys below the base read as absent");
        assert!(!m.contains(999_999));
        // A plain begin() re-bases at zero for the next generation.
        m.begin();
        assert_eq!(m.get(1_000_000), None);
        m.insert(3, 30);
        assert_eq!(m.get(3), Some(30));
    }

    #[test]
    fn keys_below_the_base_trigger_a_correct_downward_rebase() {
        let mut m = EpochMap::new();
        m.begin_at(100);
        m.insert(100, 1);
        m.insert(105, 2);
        // Contract breach: a key below the declared base.  The table shifts
        // instead of corrupting or dropping entries.
        m.insert(97, 3);
        assert_eq!(m.get(100), Some(1));
        assert_eq!(m.get(105), Some(2));
        assert_eq!(m.get(97), Some(3));
        assert_eq!(m.get(98), None);
        assert_eq!(m.table_len(), 9, "rebased band is 97..=105");
    }

    #[test]
    fn epoch_wraparound_resets_all_stamps() {
        let mut m = EpochMap::new();
        m.begin();
        m.insert(0, 7);
        // Force the wrap path.
        m.epoch = u32::MAX;
        m.begin();
        assert_eq!(m.epoch, 1);
        assert_eq!(m.get(0), None, "pre-wrap entries must not resurface");
        m.insert(0, 8);
        assert_eq!(m.get(0), Some(8));
    }
}
