//! An atom's argument list, stored in place.
//!
//! Almost every atom the system builds has at most four arguments: the GReX
//! navigation bases have one to three, and so do most views and relations
//! of the workloads (a specialized hub relation such as the star's `Rspec`
//! is the exception, with eight). [`Args`] keeps up to
//! [`Args::INLINE`] terms inside the atom itself, so copying such an atom —
//! a plan-cache hit copies every atom of the queries it instantiates — is a copy
//! of bytes, not an allocation. A longer list spills to one boxed slice.
//!
//! `Args` dereferences to `[Term]`, and its equality, order and hash are the
//! slice's: a set, map or sort over atoms behaves exactly as it did over
//! `Vec<Term>` arguments.

use crate::term::{Constant, Term};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Argument terms of an [`Atom`](crate::Atom): up to [`Args::INLINE`] terms
/// in place, more on the heap (see the module docs).
#[derive(Clone)]
pub struct Args(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` terms are the arguments; the rest are [`FILL`].
    Inline {
        len: u8,
        terms: [Term; Args::INLINE],
    },
    Spilled(Box<[Term]>),
}

/// What an unused inline slot holds. Never read: the slice ends before it.
const FILL: Term = Term::Const(Constant::Param(0));

impl Args {
    /// The most terms stored without a heap allocation.
    pub const INLINE: usize = 4;
}

impl Deref for Args {
    type Target = [Term];
    fn deref(&self) -> &[Term] {
        match &self.0 {
            Repr::Inline { len, terms } => &terms[..usize::from(*len)],
            Repr::Spilled(terms) => terms,
        }
    }
}

impl DerefMut for Args {
    fn deref_mut(&mut self) -> &mut [Term] {
        match &mut self.0 {
            Repr::Inline { len, terms } => &mut terms[..usize::from(*len)],
            Repr::Spilled(terms) => terms,
        }
    }
}

impl FromIterator<Term> for Args {
    fn from_iter<I: IntoIterator<Item = Term>>(iter: I) -> Args {
        let mut iter = iter.into_iter();
        let mut terms = [FILL; Args::INLINE];
        for (len, slot) in terms.iter_mut().enumerate() {
            match iter.next() {
                Some(t) => *slot = t,
                None => return Args(Repr::Inline { len: len as u8, terms }),
            }
        }
        let Some(fifth) = iter.next() else {
            return Args(Repr::Inline { len: Args::INLINE as u8, terms });
        };
        let mut spilled = Vec::with_capacity(Args::INLINE + 1 + iter.size_hint().0);
        spilled.extend_from_slice(&terms);
        spilled.push(fifth);
        spilled.extend(iter);
        Args(Repr::Spilled(spilled.into_boxed_slice()))
    }
}

impl From<Vec<Term>> for Args {
    /// A long list keeps the vector's buffer; a short one is copied in place.
    fn from(terms: Vec<Term>) -> Args {
        if terms.len() <= Args::INLINE {
            terms.into_iter().collect()
        } else {
            Args(Repr::Spilled(terms.into_boxed_slice()))
        }
    }
}

impl From<&[Term]> for Args {
    fn from(terms: &[Term]) -> Args {
        terms.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Term;
    type IntoIter = std::slice::Iter<'a, Term>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl PartialOrd for Args {
    fn partial_cmp(&self, other: &Args) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Args {
    fn cmp(&self, other: &Args) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for Args {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Predicate};
    use crate::fx::FxBuild;
    use proptest::prelude::*;
    use std::collections::hash_map::RandomState;
    use std::hash::BuildHasher;

    /// A term list of `len` terms drawn from a few variables, string and
    /// integer constants, so that lists often share prefixes and tie.
    fn terms(len: usize, rng: &mut TestRng) -> Vec<Term> {
        (0..len)
            .map(|_| match rng.next_u64() % 5 {
                0 => Term::var("args_x"),
                1 => Term::var("args_y"),
                2 => Term::constant_str("args_c"),
                3 => Term::constant_int(0),
                _ => Term::constant_int((rng.next_u64() % 3) as i64 - 1),
            })
            .collect()
    }

    fn spilled(args: &Args) -> bool {
        matches!(args.0, Repr::Spilled(_))
    }

    fn hashes<T: Hash + ?Sized>(value: &T, sip: &RandomState) -> (u64, u64) {
        (FxBuild::default().hash_one(value), sip.hash_one(value))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both constructors hold exactly the list, on both sides of the
        /// spill boundary, and equality, order and both hashers see the
        /// slice: atoms order and hash as `(predicate, Vec<Term>)` did.
        #[test]
        fn args_behave_as_their_slice(
            len_a in 0usize..10,
            len_b in 0usize..10,
            pred_b in 0usize..2,
            seed in 1u64..u64::MAX,
        ) {
            let mut rng = TestRng::new(seed);
            let (a, b) = (terms(len_a, &mut rng), terms(len_b, &mut rng));
            let (from_vec, collected) = (Args::from(a.clone()), a.iter().copied().collect::<Args>());
            prop_assert_eq!(&*from_vec, &a[..]);
            prop_assert_eq!(&*collected, &a[..]);
            prop_assert_eq!(Args::from(&a[..]), from_vec.clone());
            prop_assert_eq!(spilled(&from_vec), len_a > Args::INLINE);
            prop_assert_eq!(spilled(&collected), len_a > Args::INLINE);

            let other = Args::from(b.clone());
            prop_assert_eq!(from_vec == other, a == b);
            prop_assert_eq!(from_vec.cmp(&other), a.cmp(&b));
            let sip = RandomState::new();
            prop_assert_eq!(hashes(&collected, &sip), hashes(&a, &sip));
            prop_assert_eq!(hashes(&other, &sip), hashes(&b, &sip));

            let (p, q) = (Predicate::new("args_P"), Predicate::new(["args_P", "args_Q"][pred_b]));
            let (atom_a, atom_b) = (Atom::new(p, a.clone()), Atom::new(q, b.clone()));
            prop_assert_eq!(atom_a.cmp(&atom_b), (p, a.clone()).cmp(&(q, b.clone())));
            prop_assert_eq!(hashes(&atom_a, &sip), hashes(&(p, a), &sip));
        }
    }

    #[test]
    fn short_lists_stay_in_place() {
        assert_eq!(std::mem::size_of::<Term>(), 12);
        for len in 0..=Args::INLINE {
            let args: Args = (0..len as i64).map(Term::constant_int).collect();
            assert!(!spilled(&args), "{len} terms");
            assert_eq!(args.len(), len);
        }
        let mut long: Args = (0..9).map(Term::constant_int).collect();
        assert!(spilled(&long));
        long[8] = Term::var("args_z");
        assert_eq!(long[8], Term::var("args_z"));
        assert_eq!(long.iter().count(), 9);
    }
}
