//! Fixed-width bitmask sets over subtask and slot indices.
//!
//! The timing loop and the per-activation kernels in [`arena`](crate::arena)
//! track residency, needs-load, timed and pending-load sets as bitmasks of
//! `W` 64-bit words. With the one-word default every hot-loop set operation
//! — membership, insert, remove, union, iteration — is a single machine
//! instruction, and "are all dependencies timed?" is one `AND` against a
//! precomputed dependency mask instead of a walk over per-subtask heap data.
//!
//! The price is the width invariant: a `SlotMask<W>` holds indices
//! `0..64 × W` only. The invariant is validated once, when a schedule is
//! prepared — [`PreparedSchedule::new`](crate::PreparedSchedule::new)
//! rejects graphs wider than one word with
//! [`PrefetchError::ExceedsMaskWidth`](crate::PrefetchError), the one-shot
//! [`PrefetchProblem`](crate::PrefetchProblem) façade rejects graphs wider
//! than its fixed width the same way, and the simulation layer rejects
//! wider platforms before any worker starts — so the kernels themselves
//! never re-check it.

use std::fmt;

/// A set of indices in `0..`[`SlotMask::CAPACITY`] stored as `W` words
/// (one by default).
///
/// Semantically a `HashSet<usize>` restricted to small indices; every
/// operation is branch-free word arithmetic. Iteration yields indices in
/// ascending order (via trailing-zeros extraction, word by word), which is
/// exactly the "ascending subtask id" order the scheduling rules tie-break
/// on.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotMask<const W: usize = 1>([u64; W]);

impl<const W: usize> SlotMask<W> {
    /// Maximum number of distinct indices a mask can hold (`0..64 × W`).
    pub const CAPACITY: usize = W * u64::BITS as usize;

    /// The empty set.
    pub const EMPTY: Self = SlotMask([0; W]);

    /// Whether `count` indices fit the mask width — the invariant the
    /// preparation-time validators enforce before any kernel runs.
    #[inline]
    pub const fn fits(count: usize) -> bool {
        count <= Self::CAPACITY
    }

    /// The empty set (`const`-friendly alias of [`SlotMask::EMPTY`]).
    #[inline]
    pub const fn empty() -> Self {
        Self::EMPTY
    }

    /// The set `{0, 1, …, count-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`SlotMask::CAPACITY`].
    pub fn full(count: usize) -> Self {
        assert!(Self::fits(count), "{count} indices exceed the mask width");
        SlotMask(std::array::from_fn(|word| {
            match count.saturating_sub(word * 64) {
                0 => 0,
                bits if bits >= 64 => u64::MAX,
                bits => (1u64 << bits) - 1,
            }
        }))
    }

    /// The word holding `index` and its bit within that word. A one-word
    /// mask never computes a word index, so its operations stay single
    /// instructions.
    #[inline]
    fn locate(index: usize) -> (usize, u64) {
        debug_assert!(index < Self::CAPACITY, "index {index} exceeds mask width");
        let word = if W == 1 { 0 } else { index / 64 };
        (word, 1u64 << (index % 64))
    }

    /// Adds `index` to the set. Debug-asserts the width invariant; callers
    /// are behind the preparation-time validation.
    #[inline]
    pub fn insert(&mut self, index: usize) {
        let (word, bit) = Self::locate(index);
        self.0[word] |= bit;
    }

    /// Removes `index` from the set.
    #[inline]
    pub fn remove(&mut self, index: usize) {
        let (word, bit) = Self::locate(index);
        self.0[word] &= !bit;
    }

    /// Whether `index` is in the set.
    #[inline]
    pub fn contains(self, index: usize) -> bool {
        let (word, bit) = Self::locate(index);
        self.0[word] & bit != 0
    }

    /// Number of indices in the set (popcount).
    #[inline]
    pub fn len(self) -> usize {
        self.0.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&word| word == 0)
    }

    /// Empties the set in place.
    #[inline]
    pub fn clear(&mut self) {
        *self = Self::EMPTY;
    }

    /// The union of two sets.
    #[inline]
    pub fn union(self, other: Self) -> Self {
        SlotMask(std::array::from_fn(|w| self.0[w] | other.0[w]))
    }

    /// The intersection of two sets.
    #[inline]
    pub fn intersection(self, other: Self) -> Self {
        SlotMask(std::array::from_fn(|w| self.0[w] & other.0[w]))
    }

    /// The indices in `self` but not in `other`.
    #[inline]
    pub fn difference(self, other: Self) -> Self {
        SlotMask(std::array::from_fn(|w| self.0[w] & !other.0[w]))
    }

    /// Iterates the indices in ascending order.
    #[inline]
    pub fn iter(self) -> SlotMaskIter<W> {
        SlotMaskIter {
            words: self.0,
            word: 0,
        }
    }
}

impl SlotMask {
    /// A one-word mask over the raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        SlotMask([bits])
    }

    /// The raw bit pattern of a one-word mask.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0[0]
    }
}

impl<const W: usize> Default for SlotMask<W> {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl<const W: usize> FromIterator<usize> for SlotMask<W> {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut mask = Self::EMPTY;
        mask.extend(iter);
        mask
    }
}

impl<const W: usize> Extend<usize> for SlotMask<W> {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for index in iter {
            self.insert(index);
        }
    }
}

impl<const W: usize> IntoIterator for SlotMask<W> {
    type Item = usize;
    type IntoIter = SlotMaskIter<W>;

    fn into_iter(self) -> SlotMaskIter<W> {
        self.iter()
    }
}

impl<const W: usize> fmt::Debug for SlotMask<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending-order iterator over the indices of a [`SlotMask`]
/// (trailing-zeros extraction, one bit cleared per step).
#[derive(Debug, Clone)]
pub struct SlotMaskIter<const W: usize = 1> {
    words: [u64; W],
    /// The word iteration has reached; every lower word is exhausted.
    word: usize,
}

impl<const W: usize> Iterator for SlotMaskIter<W> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word < W {
            let bits = self.words[self.word];
            if bits != 0 {
                self.words[self.word] = bits & (bits - 1);
                return Some(self.word * 64 + bits.trailing_zeros() as usize);
            }
            self.word += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.words[self.word.min(W)..]
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for SlotMaskIter<W> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_semantics() {
        let mut m: SlotMask = SlotMask::empty();
        assert!(m.is_empty());
        m.insert(0);
        m.insert(63);
        m.insert(17);
        assert_eq!(m.len(), 3);
        assert!(m.contains(0) && m.contains(17) && m.contains(63));
        assert!(!m.contains(1));
        m.remove(17);
        assert!(!m.contains(17));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 63]);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn iteration_is_ascending() {
        let m: SlotMask = [5usize, 1, 40, 2, 63].into_iter().collect();
        let order: Vec<usize> = m.iter().collect();
        assert_eq!(order, vec![1, 2, 5, 40, 63]);
        assert_eq!(m.iter().len(), 5);
    }

    #[test]
    fn set_algebra() {
        let a: SlotMask = [0usize, 1, 2].into_iter().collect();
        let b: SlotMask = [2usize, 3].into_iter().collect();
        assert_eq!(a.union(b).iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(a.intersection(b).iter().collect::<Vec<_>>(), vec![2]);
        assert_eq!(a.difference(b).iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn full_and_fits_cover_the_boundaries() {
        assert!(SlotMask::<1>::fits(0));
        assert!(SlotMask::<1>::fits(64));
        assert!(!SlotMask::<1>::fits(65));
        assert_eq!(SlotMask::<1>::full(0), SlotMask::EMPTY);
        assert_eq!(SlotMask::<1>::full(64).len(), 64);
        assert_eq!(
            SlotMask::<1>::full(3).iter().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    #[should_panic(expected = "exceed the mask width")]
    fn full_rejects_oversized_counts() {
        let _ = SlotMask::<1>::full(65);
    }

    #[test]
    fn debug_formats_as_a_set() {
        let m: SlotMask = [1usize, 4].into_iter().collect();
        assert_eq!(format!("{m:?}"), "{1, 4}");
    }

    #[test]
    fn bits_round_trip() {
        let m: SlotMask = [0usize, 8, 63].into_iter().collect();
        assert_eq!(SlotMask::from_bits(m.bits()), m);
        let mut e: SlotMask = SlotMask::EMPTY;
        e.extend([3usize, 9]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn wide_masks_span_their_words_in_ascending_order() {
        assert_eq!(SlotMask::<4>::CAPACITY, 256);
        assert!(SlotMask::<4>::fits(256) && !SlotMask::<4>::fits(257));
        let mut m: SlotMask<4> = [200usize, 3, 64, 63, 255, 128].into_iter().collect();
        assert_eq!(m.len(), 6);
        assert!(m.contains(64) && m.contains(255) && !m.contains(65));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![3, 63, 64, 128, 200, 255]);
        assert_eq!(m.iter().len(), 6);
        m.remove(64);
        assert!(!m.contains(64));
        let full = SlotMask::<4>::full(130);
        assert_eq!(full.len(), 130);
        assert!(full.contains(129) && !full.contains(130));
        assert_eq!(
            m.difference(full).iter().collect::<Vec<_>>(),
            vec![200, 255]
        );
        assert_eq!(m.intersection(full).len(), 3);
        assert_eq!(m.union(full).len(), 132);
        assert_eq!(SlotMask::<4>::full(256).len(), 256);
        assert!(SlotMask::<4>::EMPTY.is_empty());
        assert_eq!(format!("{:?}", m.intersection(full)), "{3, 63, 128}");
    }
}
