//! FxHash-style multiplicative hashing for maps keyed by interned data.
//!
//! Every hot map in the engine — the symbolic instance's dedup sets and
//! column indexes, the closure shortcut's adjacency, the executor's join
//! tables, the navigation indexes — is keyed by one or a few tiny `Copy`
//! terms (interned `u32` pairs). SipHash's setup cost per key dominates such
//! probes, and a DoS-resistant hash buys nothing against keys the process
//! itself interned. This is the workspace's only non-default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher: one rotate-xor-multiply per written word.
#[derive(Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    fn write_i64(&mut self, n: i64) {
        self.mix(n as u64);
    }
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuild>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FxBuild::default().hash_one(t)
    }

    #[test]
    fn equal_keys_hash_equal_and_nearby_keys_differ() {
        let a = vec![Term::var("x"), Term::constant_int(1)];
        let b = vec![Term::var("x"), Term::constant_int(1)];
        let c = vec![Term::var("x"), Term::constant_int(2)];
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&a), hash_of(&c));
        // A `Vec<Term>` key is looked up through its slice form.
        assert_eq!(hash_of(&a), hash_of(&a.as_slice()));
    }

    #[test]
    fn maps_and_sets_behave_like_the_std_ones() {
        let mut m: FxHashMap<Term, usize> = FxHashMap::default();
        for i in 0..100 {
            *m.entry(Term::constant_int(i % 10)).or_default() += 1;
        }
        assert_eq!(m.len(), 10);
        assert!(m.values().all(|&n| n == 10));
        let s: FxHashSet<u32> = (0..50).chain(25..75).collect();
        assert_eq!(s.len(), 75);
    }
}
