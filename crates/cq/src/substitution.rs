//! Substitutions (partial maps from variables to terms) and their application
//! to atoms, queries and constraints.

use crate::atom::Atom;
use crate::term::{Term, Variable};
use std::fmt;

/// A substitution `θ : Variable ⇀ Term`.
///
/// Substitutions are used both as *homomorphisms* (mapping the variables of a
/// constraint premise into the terms of a query body) and as *renamings* /
/// *unifiers* during the chase.
///
/// Backed by a flat `Vec` of unique `(variable, term)` pairs: the chase
/// builds and clones hundreds of thousands of small substitutions per
/// reformulation, and a vector (one allocation, memcpy clone, linear probes
/// over a handful of entries) is far cheaper there than a hash map.
/// Equality is *set* equality — binding insertion order does not matter.
#[derive(Clone, Default, Eq)]
pub struct Substitution {
    map: Vec<(Variable, Term)>,
}

impl PartialEq for Substitution {
    fn eq(&self, other: &Substitution) -> bool {
        self.map.len() == other.map.len() && self.map.iter().all(|(v, t)| other.get(*v) == Some(*t))
    }
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Substitution {
        Substitution { map: Vec::new() }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the substitution empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bind `v` to `t`. Returns `false` (and leaves the substitution
    /// unchanged) if `v` is already bound to a different term.
    pub fn bind(&mut self, v: Variable, t: Term) -> bool {
        match self.get(v) {
            Some(existing) => existing == t,
            None => {
                self.map.push((v, t));
                true
            }
        }
    }

    /// Forcefully (re)bind `v` to `t`.
    pub fn set(&mut self, v: Variable, t: Term) {
        match self.map.iter_mut().find(|(w, _)| *w == v) {
            Some(entry) => entry.1 = t,
            None => self.map.push((v, t)),
        }
    }

    /// Remove the binding of `v` (used by backtracking searches that extend a
    /// substitution in place and undo on failure).
    pub fn remove(&mut self, v: Variable) {
        if let Some(pos) = self.map.iter().position(|(w, _)| *w == v) {
            self.map.swap_remove(pos);
        }
    }

    /// Look up the binding of `v`.
    pub fn get(&self, v: Variable) -> Option<Term> {
        self.map.iter().find(|(w, _)| *w == v).map(|(_, t)| *t)
    }

    /// Is `v` bound?
    pub fn binds(&self, v: Variable) -> bool {
        self.map.iter().any(|(w, _)| *w == v)
    }

    /// Iterate over bindings.
    pub fn iter(&self) -> impl Iterator<Item = (Variable, Term)> + '_ {
        self.map.iter().copied()
    }

    /// Apply the substitution to a term. Unbound variables are left alone.
    pub fn apply_term(&self, t: Term) -> Term {
        match t {
            Term::Var(v) => self.get(v).unwrap_or(t),
            Term::Const(_) => t,
        }
    }

    /// Apply the substitution to a term, following chains of variable-to-variable
    /// bindings until a fixpoint (useful when the substitution is built by
    /// union-find style unification).
    pub fn apply_term_deep(&self, mut t: Term) -> Term {
        let mut steps = 0;
        loop {
            match t {
                Term::Var(v) => match self.get(v) {
                    Some(next) if next != t => {
                        t = next;
                        steps += 1;
                        if steps > self.map.len() + 1 {
                            return t; // cycle guard
                        }
                    }
                    _ => return t,
                },
                Term::Const(_) => return t,
            }
        }
    }

    /// Apply to an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        Atom { predicate: a.predicate, args: a.args.iter().map(|t| self.apply_term(*t)).collect() }
    }

    /// Apply (deeply) to an atom.
    pub fn apply_atom_deep(&self, a: &Atom) -> Atom {
        Atom {
            predicate: a.predicate,
            args: a.args.iter().map(|t| self.apply_term_deep(*t)).collect(),
        }
    }

    /// Apply to a slice of atoms.
    pub fn apply_atoms(&self, atoms: &[Atom]) -> Vec<Atom> {
        atoms.iter().map(|a| self.apply_atom(a)).collect()
    }

    /// Apply to a slice of terms.
    pub fn apply_terms(&self, terms: &[Term]) -> Vec<Term> {
        terms.iter().map(|t| self.apply_term(*t)).collect()
    }

    /// Compose: the result first applies `self`, then `other` to the result.
    pub fn then(&self, other: &Substitution) -> Substitution {
        let mut out = Substitution::new();
        for (v, t) in self.iter() {
            out.set(v, other.apply_term(t));
        }
        for (v, t) in other.iter() {
            if !out.binds(v) {
                out.set(v, t);
            }
        }
        out
    }

    /// Build a substitution from bindings of pairwise distinct variables, in
    /// one allocation and without the per-pair agreement check of
    /// [`Substitution::from_pairs`] — for callers whose variables are distinct
    /// by construction (the slots of a compiled join program).
    pub fn from_distinct<I: IntoIterator<Item = (Variable, Term)>>(pairs: I) -> Substitution {
        let map: Vec<(Variable, Term)> = pairs.into_iter().collect();
        debug_assert!(
            map.iter().enumerate().all(|(i, (v, _))| map[..i].iter().all(|(w, _)| w != v)),
            "from_distinct: a variable is bound twice"
        );
        Substitution { map }
    }

    /// Build a substitution from pairs; later pairs must agree with earlier ones.
    pub fn from_pairs<I: IntoIterator<Item = (Variable, Term)>>(pairs: I) -> Option<Substitution> {
        let mut s = Substitution::new();
        for (v, t) in pairs {
            if !s.bind(v, t) {
                return None;
            }
        }
        Some(s)
    }
}

impl fmt::Debug for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_by_key(|(v, _)| (v.name, v.index));
        write!(f, "{{")?;
        for (i, (v, t)) in entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ↦ {t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;

    fn v(n: &str) -> Variable {
        Variable::named(n)
    }

    #[test]
    fn bind_consistency() {
        let mut s = Substitution::new();
        assert!(s.bind(v("x"), Term::var("a")));
        assert!(s.bind(v("x"), Term::var("a")));
        assert!(!s.bind(v("x"), Term::var("b")));
        assert_eq!(s.get(v("x")), Some(Term::var("a")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn apply_to_atom() {
        let s = Substitution::from_pairs(vec![(v("x"), Term::constant_str("c"))]).unwrap();
        let a = Atom::named("R", vec![Term::var("x"), Term::var("y")]);
        let b = s.apply_atom(&a);
        assert_eq!(b.args[0], Term::constant_str("c"));
        assert_eq!(b.args[1], Term::var("y"));
    }

    #[test]
    fn deep_application_follows_chains() {
        let mut s = Substitution::new();
        s.set(v("x"), Term::var("y"));
        s.set(v("y"), Term::constant_int(7));
        assert_eq!(s.apply_term(Term::var("x")), Term::var("y"));
        assert_eq!(s.apply_term_deep(Term::var("x")), Term::constant_int(7));
    }

    #[test]
    fn deep_application_survives_cycles() {
        let mut s = Substitution::new();
        s.set(v("x"), Term::var("y"));
        s.set(v("y"), Term::var("x"));
        // Must terminate; either variable is acceptable.
        let out = s.apply_term_deep(Term::var("x"));
        assert!(out == Term::var("x") || out == Term::var("y"));
    }

    #[test]
    fn composition() {
        let s1 = Substitution::from_pairs(vec![(v("x"), Term::var("y"))]).unwrap();
        let s2 = Substitution::from_pairs(vec![(v("y"), Term::constant_int(3))]).unwrap();
        let s = s1.then(&s2);
        assert_eq!(s.apply_term(Term::var("x")), Term::constant_int(3));
        assert_eq!(s.apply_term(Term::var("y")), Term::constant_int(3));
    }

    #[test]
    fn from_distinct_keeps_every_binding() {
        let s = Substitution::from_distinct(vec![
            (v("x"), Term::var("a")),
            (v("y"), Term::constant_int(2)),
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(v("y")), Some(Term::constant_int(2)));
        assert_eq!(
            Some(s),
            Substitution::from_pairs(vec![
                (v("y"), Term::constant_int(2)),
                (v("x"), Term::var("a")),
            ])
        );
    }

    #[test]
    fn from_pairs_detects_conflicts() {
        let conflicting = vec![(v("x"), Term::constant_int(1)), (v("x"), Term::constant_int(2))];
        assert!(Substitution::from_pairs(conflicting).is_none());
    }

    #[test]
    fn debug_rendering_is_sorted() {
        let mut s = Substitution::new();
        s.set(v("b"), Term::constant_int(2));
        s.set(v("a"), Term::constant_int(1));
        assert_eq!(format!("{s:?}"), r#"{a ↦ "1", b ↦ "2"}"#);
    }
}
