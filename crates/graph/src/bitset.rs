//! A compact fixed-capacity bit set.
//!
//! Used for dense reachability closures over gate DAGs, where we need
//! thousands of sets of thousands of bits and `u64`-word OR is the whole
//! game.

/// A fixed-capacity set of `usize` indices backed by `u64` words.
///
/// # Examples
///
/// ```
/// use caqr_graph::BitSet;
///
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(99);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    /// Reuses `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.capacity = source.capacity;
    }
}

impl BitSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The number of indices this set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `index` into the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "bit index {index} out of range");
        let (w, b) = (index / 64, index % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Removes `index` from the set. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity`.
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < self.capacity, "bit index {index} out of range");
        let (w, b) = (index / 64, index % 64);
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        present
    }

    /// Returns `true` if `index` is in the set.
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.capacity {
            return false;
        }
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// The number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns `true` if `self` and `other` share at least one element.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// The number of elements of `self` that are not in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_len(&self, other: &BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Iterates over the indices in the set in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over set bits, produced by [`BitSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let b = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + b);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn remove() {
        let mut s = BitSet::new(10);
        s.insert(5);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn union_and_intersects() {
        let mut a = BitSet::new(200);
        let mut b = BitSet::new(200);
        a.insert(3);
        b.insert(150);
        assert!(!a.intersects(&b));
        a.union_with(&b);
        assert!(a.contains(150));
        assert!(a.intersects(&b));
    }

    #[test]
    fn iter_ascending() {
        let mut s = BitSet::new(300);
        for i in [7, 64, 65, 255, 0] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 7, 64, 65, 255]);
    }

    #[test]
    fn from_iterator() {
        let s: BitSet = [1usize, 5, 9].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert!(s.contains(9));
        assert!(!s.contains(10));
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(4);
        assert!(!s.contains(100));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    fn empty_capacity_zero() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn difference_len_counts_self_only() {
        let mut a = BitSet::new(100);
        a.extend([1, 5, 70, 99]);
        let mut b = BitSet::new(100);
        b.extend([5, 99, 42]);
        assert_eq!(a.difference_len(&b), 2);
        assert_eq!(b.difference_len(&a), 1);
        assert_eq!(a.difference_len(&a), 0);
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::new(70);
        s.insert(69);
        s.clear();
        assert!(s.is_empty());
    }
}
