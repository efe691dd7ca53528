//! Growable atom-index bitsets.
//!
//! The backchase enumerates subqueries of the universal plan as sets of
//! indices into a fixed candidate atom *pool*. Historically these sets were
//! `u128` masks, which silently capped the enumerable pool at 128 atoms and
//! forced a greedy fallback beyond it. [`AtomSet`] lifts that ceiling: a
//! word-array bitset with O(words) subset/union tests and ascending-index
//! iteration, usable as a hash-map key (canonical representation — no
//! trailing zero words — so `Eq`/`Hash` are structural).

use std::fmt;

const WORD_BITS: usize = 64;

/// A set of atom indices, stored as a growable bitset.
///
/// Invariant: `words` never ends in a zero word (canonical form), so derived
/// `PartialEq`/`Eq`/`Hash` compare set contents regardless of how the set was
/// built up.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct AtomSet {
    words: Vec<u64>,
}

impl AtomSet {
    /// The empty set.
    pub fn new() -> AtomSet {
        AtomSet { words: Vec::new() }
    }

    /// The singleton set `{i}`.
    pub fn singleton(i: usize) -> AtomSet {
        let mut s = AtomSet::new();
        s.insert(i);
        s
    }

    /// Build a set from indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(indices: I) -> AtomSet {
        let mut s = AtomSet::new();
        for i in indices {
            s.insert(i);
        }
        s
    }

    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }

    /// Insert index `i`. Returns `true` if it was not already present.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Remove index `i`. Returns `true` if it was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let present = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        self.trim();
        present
    }

    /// Is index `i` in the set?
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        self.words.get(w).map(|word| word & (1 << b) != 0).unwrap_or(false)
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Is `self ⊆ other`? O(words).
    pub fn is_subset_of(&self, other: &AtomSet) -> bool {
        if self.words.len() > other.words.len() {
            // Canonical form: a longer word array has a set bit beyond
            // `other`'s highest word.
            return false;
        }
        self.words.iter().zip(&other.words).all(|(a, b)| a & !b == 0)
    }

    /// Do `self` and `other` share no index? O(words).
    pub fn is_disjoint(&self, other: &AtomSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// The union `self ∪ other`. O(words).
    pub fn union(&self, other: &AtomSet) -> AtomSet {
        let (long, short) =
            if self.words.len() >= other.words.len() { (self, other) } else { (other, self) };
        let mut words = long.words.clone();
        for (w, s) in words.iter_mut().zip(&short.words) {
            *w |= s;
        }
        AtomSet { words }
    }

    /// `self` with `i` added (functional insert).
    pub fn with(&self, i: usize) -> AtomSet {
        let mut s = self.clone();
        s.insert(i);
        s
    }

    /// `self` with `i` removed (functional remove).
    pub fn without(&self, i: usize) -> AtomSet {
        let mut s = self.clone();
        s.remove(i);
        s
    }

    /// Iterate the indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * WORD_BITS + b)
            })
        })
    }
}

impl fmt::Debug for AtomSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for AtomSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> AtomSet {
        AtomSet::from_indices(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (xorshift), so the u128
    /// cross-checks cover many masks without a rand dependency.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn mask128(&mut self) -> u128 {
            (self.next() as u128) | ((self.next() as u128) << 64)
        }
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = AtomSet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(200));
        assert!(s.contains(3) && s.contains(200) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert!(s.remove(200));
        assert!(!s.remove(200));
        assert_eq!(s.len(), 1);
        assert!(!s.contains(200));
    }

    /// Canonical form: removing a high bit must restore structural equality
    /// with a set that never had it (hash-map key contract).
    #[test]
    fn canonical_form_after_removal() {
        let mut a = AtomSet::from_indices([1, 700]);
        a.remove(700);
        let b = AtomSet::singleton(1);
        assert_eq!(a, b);
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn subset_and_union_across_word_boundaries() {
        let small = AtomSet::from_indices([0, 63]);
        let large = AtomSet::from_indices([0, 63, 64, 129]);
        assert!(small.is_subset_of(&large));
        assert!(!large.is_subset_of(&small));
        assert_eq!(small.union(&large), large);
        // Canonical-form subset: a longer array never subsets a shorter one.
        assert!(!AtomSet::singleton(500).is_subset_of(&AtomSet::singleton(1)));
        assert!(small.is_disjoint(&AtomSet::from_indices([64, 129])));
        assert!(!AtomSet::from_indices([1, 129]).is_disjoint(&large));
    }

    #[test]
    fn iter_is_ascending() {
        let s = AtomSet::from_indices([129, 5, 64, 0, 63]);
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 5, 63, 64, 129]);
    }

    /// Roundtrip and operation agreement with a `u128` bit mask on pools of
    /// ≤ 128 atoms.
    #[test]
    fn agrees_with_u128_semantics_below_128_atoms() {
        let from_u128 =
            |mask: u128| -> AtomSet { (0..128).filter(|i| mask >> i & 1 != 0).collect() };
        let as_u128 = |s: &AtomSet| s.iter().fold(0u128, |mask, i| mask | 1 << i);
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        for _ in 0..200 {
            let a128 = rng.mask128();
            let b128 = rng.mask128();
            let a = from_u128(a128);
            let b = from_u128(b128);
            assert_eq!(as_u128(&a), a128);
            assert_eq!(a.len() as u32, a128.count_ones());
            assert_eq!(a.is_subset_of(&b), a128 & !b128 == 0);
            assert_eq!(a.is_disjoint(&b), a128 & b128 == 0);
            assert_eq!(as_u128(&a.union(&b)), a128 | b128);
            let idx = (rng.next() % 128) as usize;
            assert_eq!(a.contains(idx), a128 & (1 << idx) != 0);
            assert_eq!(as_u128(&a.with(idx)), a128 | (1 << idx));
            assert_eq!(as_u128(&a.without(idx)), a128 & !(1 << idx));
            let indices: Vec<usize> = a.iter().collect();
            let expect: Vec<usize> = (0..128).filter(|i| a128 & (1 << i) != 0).collect();
            assert_eq!(indices, expect);
        }
    }

    /// The whole point of the type: indices past 128 work.
    #[test]
    fn grows_past_128_atoms() {
        let s: AtomSet = (0..300).filter(|i| i % 3 == 0).collect();
        assert_eq!(s.len(), 100);
        assert!(s.contains(297) && !s.contains(298));
        let full: AtomSet = (0..300).collect();
        assert!(s.is_subset_of(&full));
        assert_eq!(s.union(&full), full);
    }
}
