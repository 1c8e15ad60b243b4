//! Linear-time orderings of unique keys for the prepare path.
//!
//! Answers depend on id order: `Q.Λ`'s nodes and edges are listed by
//! ascending id, and a node's weight sums its objects' scores in ascending
//! object-id order.  Node, edge and object ids are unique, so two orderings
//! do the job in time linear in the keys and their range, without
//! comparisons:
//!
//! * `IdBitmap` orders unique `u32` ids.  It sets one bit per id, relative
//!   to the smallest, and reads the words back in order.  A call costs
//!   O(n + band / 64), where the band is the distance from the smallest id
//!   to the largest, and the bitmap spans the widest band seen so far.
//! * [`RadixSorter`] is a stable LSD radix sort of records by a `u64` key.
//!   Its pass count follows the range of the keys, so it also serves keys
//!   whose band has no useful bound, such as external object ids.  Sorting
//!   by object id and then, stably, by node gives `(node, object)` order.
//!
//! Both keep their buffers across calls, so a reused one allocates nothing
//! once grown.

/// A presence bitmap that orders unique `u32` ids.
///
/// The bitmap is zero between calls: a call clears each word it used as it
/// reads it back, and touches no word beyond its own id band.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdBitmap {
    /// Bit `i` of word `w` stands for id `lo + 64·w + i` during a call.
    words: Vec<u64>,
}

impl IdBitmap {
    /// Sorts `items` ascending by `id`, which must be unique among them.
    ///
    /// `id` gives an item's `u32` id and `from_id` rebuilds the item from
    /// it, so an item must carry nothing but its id.
    pub(crate) fn sort_unique<T: Copy>(
        &mut self,
        items: &mut [T],
        id: impl Fn(T) -> u32,
        from_id: impl Fn(u32) -> T,
    ) {
        if items.is_empty() {
            return;
        }
        let (lo, hi) = items.iter().fold((u32::MAX, 0), |(lo, hi), &item| {
            let k = id(item);
            (lo.min(k), hi.max(k))
        });
        let used = ((hi - lo) >> 6) as usize + 1;
        if self.words.len() < used {
            self.words.resize(used, 0);
        }
        let words = &mut self.words[..used];
        for &item in items.iter() {
            let bit = id(item) - lo;
            words[(bit >> 6) as usize] |= 1 << (bit & 63);
        }
        let mut out = 0;
        for (w, word) in words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            // `64·w ≤ hi − lo`, so the sum cannot overflow.
            let base = lo + ((w as u32) << 6);
            while bits != 0 {
                items[out] = from_id(base + bits.trailing_zeros());
                out += 1;
                bits &= bits - 1;
            }
        }
        debug_assert_eq!(out, items.len(), "ids must be unique");
    }

    /// Number of words the bitmap holds: the widest band seen, over 64.
    #[cfg(test)]
    pub(crate) fn word_len(&self) -> usize {
        self.words.len()
    }
}

/// Widest radix digit, in bits: 2 048 counters, which stay in L1.
const MAX_DIGIT_BITS: u32 = 11;

/// A stable LSD radix sort of `T` records by a `u64` key, with its scatter
/// buffer and counters kept for the next call.
///
/// A call makes `⌈b / 11⌉` passes, where `b` is the bit width of the spread
/// between the smallest and the largest key, with digits of equal width.
#[derive(Debug, Clone)]
pub struct RadixSorter<T> {
    /// Scatter target of each pass; swapped with the caller's vector.
    spare: Vec<T>,
    /// Per-digit counts, then each digit's next output position.
    counts: Vec<usize>,
}

impl<T> Default for RadixSorter<T> {
    fn default() -> Self {
        RadixSorter {
            spare: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl<T: Copy> RadixSorter<T> {
    /// Sorts `items` ascending by `key`, stably: records with equal keys
    /// keep their order.  `items` may come back in a different allocation,
    /// swapped with the sorter's buffer.
    pub fn sort_by_key(&mut self, items: &mut Vec<T>, key: impl Fn(&T) -> u64) {
        if items.len() < 2 {
            return;
        }
        let (lo, hi) = items.iter().fold((u64::MAX, 0), |(lo, hi), item| {
            let k = key(item);
            (lo.min(k), hi.max(k))
        });
        let bits = u64::BITS - (hi - lo).leading_zeros();
        if bits == 0 {
            return;
        }
        let passes = bits.div_ceil(MAX_DIGIT_BITS);
        let digit_bits = bits.div_ceil(passes);
        let mask = (1u64 << digit_bits) - 1;
        self.spare.clear();
        self.spare.extend_from_slice(items);
        for pass in 0..passes {
            let shift = pass * digit_bits;
            let digit = |item: &T| ((key(item) - lo) >> shift & mask) as usize;
            self.counts.clear();
            self.counts.resize(1 << digit_bits, 0);
            for item in items.iter() {
                self.counts[digit(item)] += 1;
            }
            let mut start = 0;
            for count in &mut self.counts {
                start += std::mem::replace(count, start);
            }
            for &item in items.iter() {
                let at = &mut self.counts[digit(&item)];
                self.spare[*at] = item;
                *at += 1;
            }
            std::mem::swap(items, &mut self.spare);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SplitRng;

    /// Orders `keys` with a fresh and a reused bitmap and checks both
    /// against `sort_unstable`.
    fn check_bitmap(keys: &[u32], reused: &mut IdBitmap) {
        let mut want = keys.to_vec();
        want.sort_unstable();
        for bitmap in [&mut IdBitmap::default(), reused] {
            let mut got = keys.to_vec();
            bitmap.sort_unique(&mut got, |k| k, |k| k);
            assert_eq!(got, want, "keys {keys:?}");
            assert!(bitmap.words.iter().all(|&w| w == 0), "bitmap left dirty");
        }
    }

    /// `count` distinct keys drawn from `lo..lo + span`, in random order.
    fn distinct_keys(rng: &mut SplitRng, lo: u32, span: u32, count: usize) -> Vec<u32> {
        let mut keys: Vec<u32> = (0..span).map(|i| lo + i).collect();
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i + 1));
        }
        keys.truncate(count);
        keys
    }

    #[test]
    fn bitmap_orders_empty_and_single_keys() {
        let mut bitmap = IdBitmap::default();
        check_bitmap(&[], &mut bitmap);
        assert_eq!(bitmap.word_len(), 0, "an empty call allocates nothing");
        check_bitmap(&[7], &mut bitmap);
        check_bitmap(&[u32::MAX], &mut bitmap);
        check_bitmap(&[0], &mut bitmap);
        assert_eq!(bitmap.word_len(), 1);
    }

    #[test]
    fn bitmap_orders_keys_at_word_edges() {
        let mut bitmap = IdBitmap::default();
        // Bits 63, 64 and 65 of the band: the last of one word, the first
        // two of the next.
        check_bitmap(&[65, 0, 64, 63], &mut bitmap);
        check_bitmap(&[1_000 + 64, 1_000 + 63, 1_000 + 65, 1_000], &mut bitmap);
        check_bitmap(&[63, 64, 65], &mut bitmap);
        check_bitmap(&[127, 128, 191, 192, 0], &mut bitmap);
        assert_eq!(bitmap.word_len(), 4, "band 0..=192 takes four words");
    }

    #[test]
    fn bitmap_orders_wide_bands_and_ids_near_the_top() {
        let mut rng = SplitRng::new(23);
        let mut bitmap = IdBitmap::default();
        for (lo, span, count) in [
            (0, 100, 100),
            (0, 5_000, 700),
            (123_456, 64 * 40 + 17, 1_000),
            (u32::MAX - 999, 1_000, 300),
            (u32::MAX - 63, 64, 64),
        ] {
            let keys = distinct_keys(&mut rng, lo, span, count);
            check_bitmap(&keys, &mut bitmap);
        }
        // The band's two ends, far apart, with the top id itself.
        check_bitmap(&[u32::MAX, u32::MAX - 200_000, u32::MAX - 64], &mut bitmap);
        // A narrow band far up reuses the words a wide one grew.
        let grown = bitmap.word_len();
        check_bitmap(&[u32::MAX - 3, u32::MAX - 1], &mut bitmap);
        assert_eq!(bitmap.word_len(), grown);
    }

    /// Sorts `records` by `key` and checks the result against a stable
    /// comparison sort.
    fn check_radix(records: &[(u64, u32)], key: impl Fn(&(u64, u32)) -> u64 + Copy) {
        let mut want = records.to_vec();
        want.sort_by_key(key);
        let mut sorter = RadixSorter::default();
        for _ in 0..2 {
            let mut got = records.to_vec();
            sorter.sort_by_key(&mut got, key);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn radix_sorts_empty_single_and_equal_keys() {
        check_radix(&[], |r| r.0);
        check_radix(&[(9, 0)], |r| r.0);
        check_radix(&[(5, 2), (5, 0), (5, 1)], |r| r.0);
        check_radix(&[(5, 2), (3, 0), (5, 0), (3, 1), (5, 1)], |r| r.0);
        check_radix(&[(u64::MAX, 0), (0, 1)], |r| r.0);
    }

    #[test]
    fn radix_sorts_wide_u64_ranges() {
        let mut rng = SplitRng::new(41);
        for (lo, mask, count) in [
            (0, 0xff, 300),
            (1 << 40, 0x3fff_ffff, 2_000),
            (0, u64::MAX, 1_500),
            (u64::MAX - 5_000, 0xfff, 900),
        ] {
            let records: Vec<(u64, u32)> = (0..count)
                .map(|i| (lo.saturating_add(rng.next_u64() & mask), i))
                .collect();
            check_radix(&records, |r| r.0);
        }
    }

    #[test]
    fn radix_keeps_object_order_among_equal_nodes() {
        // The scoring pass: records sorted by object id, then stably by
        // node, must come out in (node, object) order.
        let mut rng = SplitRng::new(7);
        let mut records: Vec<(u64, u32)> = (0..3_000u64)
            .map(|i| {
                (
                    i * 977 + (rng.next_u64() & 0xffff_ffff) * 4_096,
                    rng.below(90) as u32,
                )
            })
            .collect();
        let mut want = records.clone();
        want.sort_unstable_by_key(|&(object, node)| (node, object));
        let mut sorter = RadixSorter::default();
        sorter.sort_by_key(&mut records, |r| r.0);
        assert!(records.windows(2).all(|p| p[0].0 < p[1].0));
        sorter.sort_by_key(&mut records, |r| u64::from(r.1));
        assert_eq!(records, want);
    }
}
