//! Simultaneous renamings of variables and constants, and values renamed on
//! first read.
//!
//! A plan-cache hit serves a cached reformulation under the incoming
//! request's names: a [`Renaming`] maps the cached variables and constants
//! pairwise onto the request's. A request runs one query of the result, so
//! the large fields it does not run (the universal plan, the minimal
//! reformulations) are [`Renamed`] values: they share the cached value and
//! apply the renaming only if something reads them, at most once. A value
//! with no renaming (every cold result) reads its source directly.

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use crate::term::{Constant, Term, Variable};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A renaming of variables and of constants, applied simultaneously: every
/// term is looked up in the pairs exactly once, so `a→b, b→a` swaps the two
/// rather than cascading. A term no pair lists is left as it is.
#[derive(Debug, Default)]
pub struct Renaming {
    variables: Vec<(Variable, Variable)>,
    constants: Vec<(Constant, Constant)>,
}

impl Renaming {
    /// The renaming mapping each `from` of the pairs to its `to`.
    pub fn new(
        variables: Vec<(Variable, Variable)>,
        constants: Vec<(Constant, Constant)>,
    ) -> Renaming {
        Renaming { variables, constants }
    }

    /// Does the renaming list no pair (and so leave every term alone)?
    pub fn is_empty(&self) -> bool {
        self.variables.is_empty() && self.constants.is_empty()
    }

    /// The image of `t`. A renaming holds a handful of pairs: they are
    /// searched directly, not hashed.
    fn term(&self, t: Term) -> Term {
        fn image<T: Copy + PartialEq>(pairs: &[(T, T)], x: T) -> T {
            pairs.iter().find(|(from, _)| *from == x).map_or(x, |&(_, to)| to)
        }
        match t {
            Term::Var(v) => Term::Var(image(&self.variables, v)),
            Term::Const(c) => Term::Const(image(&self.constants, c)),
        }
    }
}

/// A value whose terms a [`Renaming`] can rewrite.
pub trait Rename {
    /// A copy of `self` with every term replaced by its image under
    /// `renaming`.
    fn rename(&self, renaming: &Renaming) -> Self;
}

impl Rename for ConjunctiveQuery {
    fn rename(&self, renaming: &Renaming) -> ConjunctiveQuery {
        let t = |term: &Term| renaming.term(*term);
        ConjunctiveQuery {
            name: self.name.clone(),
            head: self.head.iter().map(t).collect(),
            body: self
                .body
                .iter()
                .map(|a| Atom { predicate: a.predicate, args: a.args.iter().map(t).collect() })
                .collect(),
            inequalities: self.inequalities.iter().map(|(a, b)| (t(a), t(b))).collect(),
        }
    }
}

/// A reformulation with its cost: the cost does not depend on names.
impl<T: Rename> Rename for (T, f64) {
    fn rename(&self, renaming: &Renaming) -> (T, f64) {
        (self.0.rename(renaming), self.1)
    }
}

impl<T: Rename> Rename for Vec<T> {
    fn rename(&self, renaming: &Renaming) -> Vec<T> {
        self.iter().map(|x| x.rename(renaming)).collect()
    }
}

/// A shared `T` under a [`Renaming`], renamed on first read (see the module
/// docs). It dereferences to the renamed value; the first read computes it
/// and keeps it, so a value read twice is renamed once. A clone shares the
/// source and the renaming, and copies the renamed value if it was read.
#[derive(Clone)]
pub struct Renamed<T> {
    source: Arc<T>,
    /// `None` when the value is its source; never an empty renaming.
    renaming: Option<Arc<Renaming>>,
    renamed: OnceLock<T>,
}

impl<T> Renamed<T> {
    /// This value's source under `renaming`, sharing the source. Only a
    /// value that is its own source can be renamed: renamings are not
    /// composed.
    ///
    /// # Panics
    ///
    /// When `self` is already renamed.
    pub fn renamed(&self, renaming: &Arc<Renaming>) -> Renamed<T> {
        assert!(self.renaming.is_none(), "only an unrenamed value is renamed");
        Renamed {
            source: Arc::clone(&self.source),
            renaming: (!renaming.is_empty()).then(|| Arc::clone(renaming)),
            renamed: OnceLock::new(),
        }
    }
}

/// A value that is its own source: reading it renames nothing.
impl<T> From<T> for Renamed<T> {
    fn from(value: T) -> Renamed<T> {
        Renamed { source: Arc::new(value), renaming: None, renamed: OnceLock::new() }
    }
}

impl<T: Rename> Deref for Renamed<T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.renaming {
            None => &self.source,
            Some(renaming) => self.renamed.get_or_init(|| self.source.rename(renaming)),
        }
    }
}

impl<T: Rename + PartialEq> PartialEq for Renamed<T> {
    fn eq(&self, other: &Renamed<T>) -> bool {
        **self == **other
    }
}

impl<T: Rename + fmt::Debug> fmt::Debug for Renamed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: Rename + fmt::Display> fmt::Display for Renamed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl<'a, T> IntoIterator for &'a Renamed<Vec<T>>
where
    Vec<T>: Rename,
{
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A value that counts how often it was renamed.
    #[derive(Clone)]
    struct Counted(Arc<AtomicUsize>);

    impl Rename for Counted {
        fn rename(&self, _: &Renaming) -> Counted {
            self.0.fetch_add(1, Ordering::SeqCst);
            self.clone()
        }
    }

    fn swap_a_b() -> Arc<Renaming> {
        let (a, b) = (Constant::str("a"), Constant::str("b"));
        Arc::new(Renaming::new(vec![], vec![(a, b), (b, a)]))
    }

    fn counted() -> (Renamed<Counted>, Arc<AtomicUsize>) {
        let renames = Arc::new(AtomicUsize::new(0));
        (Counted(Arc::clone(&renames)).into(), renames)
    }

    #[test]
    fn an_unread_value_is_not_renamed() {
        let (cold, renames) = counted();
        let hit = cold.renamed(&swap_a_b());
        let _ = &*cold;
        drop(hit);
        assert_eq!(renames.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_value_read_twice_is_renamed_once() {
        let (cold, renames) = counted();
        let hit = cold.renamed(&swap_a_b());
        let _ = (&*hit, &*hit);
        assert_eq!(renames.load(Ordering::SeqCst), 1);
        // An empty renaming is no renaming at all.
        let _ = &*cold.renamed(&Arc::new(Renaming::default()));
        assert_eq!(renames.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_clone_of_an_unread_value_shares_its_source() {
        let (cold, renames) = counted();
        let hit = cold.renamed(&swap_a_b());
        let copy = hit.clone();
        assert!(Arc::ptr_eq(&hit.source, &cold.source) && Arc::ptr_eq(&copy.source, &cold.source));
        let _ = (&*hit, &*copy);
        assert_eq!(renames.load(Ordering::SeqCst), 2, "each clone renames for itself");
    }

    #[test]
    fn a_constant_swap_is_simultaneous() {
        let (a, b) = (Term::constant_str("a"), Term::constant_str("b"));
        let x = Term::var("x");
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![x])
            .with_atom(Atom::named("r", vec![x, a, b]))
            .with_inequality(a, b);
        let renamed = Renamed::from(vec![(q, 2.0)]).renamed(&swap_a_b());
        let (swapped, cost) = &renamed[0];
        assert_eq!(*swapped.body[0].args, [x, b, a]);
        assert_eq!((&swapped.head, &swapped.inequalities, *cost), (&vec![x], &vec![(b, a)], 2.0));
    }

    #[test]
    #[should_panic(expected = "only an unrenamed value is renamed")]
    fn a_renamed_value_is_not_renamed_again() {
        let (cold, _) = counted();
        let _ = cold.renamed(&swap_a_b()).renamed(&swap_a_b());
    }
}
