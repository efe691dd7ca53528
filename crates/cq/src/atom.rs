//! Relational atoms and predicates.

use crate::symbol::{symbol, Symbol};
use crate::term::{Term, Variable};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A predicate (relation) name, e.g. `child`, `desc`, `patient`, `V3`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Predicate(pub u32);

impl Predicate {
    /// Intern a predicate name.
    pub fn new(name: &str) -> Predicate {
        Predicate(symbol(name).0)
    }

    /// The predicate name. Allocation-free (interned strings are `'static`).
    pub fn name(&self) -> &'static str {
        Symbol(self.0).as_str()
    }

    /// The underlying interned symbol.
    pub fn symbol(&self) -> Symbol {
        Symbol(self.0)
    }

    /// The name read by the GReX convention `base#document`
    /// (`child#case.xml`): the base name and the document the predicate
    /// refers to. A name without a `#` is its own base and has no document;
    /// whether the base is a navigation relation is the caller's question.
    pub fn grex(&self) -> (&'static str, Option<&'static str>) {
        let name = self.name();
        match name.split_once('#') {
            Some((base, document)) => (base, Some(document)),
            None => (name, None),
        }
    }
}

impl fmt::Debug for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl From<&str> for Predicate {
    fn from(s: &str) -> Predicate {
        Predicate::new(s)
    }
}

/// A relational atom `P(t1, ..., tn)`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Atom {
    /// The relation the atom ranges over.
    pub predicate: Predicate,
    /// The terms, one per column of the relation.
    pub args: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(predicate: Predicate, args: Vec<Term>) -> Atom {
        Atom { predicate, args }
    }

    /// Build an atom from a predicate name and terms.
    pub fn named(predicate: &str, args: Vec<Term>) -> Atom {
        Atom { predicate: Predicate::new(predicate), args }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// All variables appearing in the atom, in argument order (may repeat).
    pub fn variables(&self) -> impl Iterator<Item = Variable> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// Does the atom mention the variable?
    pub fn mentions(&self, v: Variable) -> bool {
        self.args.iter().any(|t| t.as_var() == Some(v))
    }

    /// True if no argument is a variable.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(Term::is_const)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.predicate)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Convenience macro-free builders for the GReX relations used pervasively in
/// tests and in the `mars-grex` crate.
pub mod builders {
    use super::*;

    /// `root(x)`
    pub fn root(x: Term) -> Atom {
        Atom::named("root", vec![x])
    }
    /// `el(x)`
    pub fn el(x: Term) -> Atom {
        Atom::named("el", vec![x])
    }
    /// `child(x, y)`
    pub fn child(x: Term, y: Term) -> Atom {
        Atom::named("child", vec![x, y])
    }
    /// `desc(x, y)`
    pub fn desc(x: Term, y: Term) -> Atom {
        Atom::named("desc", vec![x, y])
    }
    /// `tag(x, "t")`
    pub fn tag(x: Term, t: &str) -> Atom {
        Atom::named("tag", vec![x, Term::constant_str(t)])
    }
    /// `text(x, v)`
    pub fn text(x: Term, v: Term) -> Atom {
        Atom::named("text", vec![x, v])
    }
    /// `attr(x, "name", v)`
    pub fn attr(x: Term, name: &str, v: Term) -> Atom {
        Atom::named("attr", vec![x, Term::constant_str(name), v])
    }
    /// `id(x, i)`
    pub fn id(x: Term, i: Term) -> Atom {
        Atom::named("id", vec![x, i])
    }
}

#[cfg(test)]
mod tests {
    use super::builders::*;
    use super::*;
    use crate::term::Variable;

    #[test]
    fn predicate_interning() {
        assert_eq!(Predicate::new("child"), Predicate::new("child"));
        assert_ne!(Predicate::new("child"), Predicate::new("desc"));
        assert_eq!(Predicate::new("child").name(), "child");
    }

    #[test]
    fn atom_basics() {
        let a = Atom::named("R", vec![Term::var("x"), Term::constant_str("c")]);
        assert_eq!(a.arity(), 2);
        assert!(a.mentions(Variable::named("x")));
        assert!(!a.mentions(Variable::named("y")));
        assert!(!a.is_ground());
        let g = Atom::named("R", vec![Term::constant_int(1), Term::constant_str("c")]);
        assert!(g.is_ground());
    }

    #[test]
    fn atom_variables_in_order() {
        let a = Atom::named("S", vec![Term::var("x"), Term::constant_int(2), Term::var("y")]);
        let vars: Vec<_> = a.variables().collect();
        assert_eq!(vars, vec![Variable::named("x"), Variable::named("y")]);
    }

    #[test]
    fn atom_display() {
        let a = child(Term::var("p"), Term::var("c"));
        assert_eq!(format!("{a}"), "child(p, c)");
        let t = tag(Term::var("c"), "author");
        assert_eq!(format!("{t}"), "tag(c, \"author\")");
    }

    #[test]
    fn grex_builders() {
        assert_eq!(root(Term::var("r")).predicate.name(), "root");
        assert_eq!(el(Term::var("r")).arity(), 1);
        assert_eq!(desc(Term::var("a"), Term::var("b")).arity(), 2);
        assert_eq!(attr(Term::var("x"), "id", Term::var("v")).arity(), 3);
        assert_eq!(id(Term::var("x"), Term::var("i")).predicate.name(), "id");
        assert_eq!(text(Term::var("x"), Term::var("v")).predicate.name(), "text");
    }

    #[test]
    fn atoms_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(child(Term::var("x"), Term::var("y")));
        set.insert(child(Term::var("x"), Term::var("y")));
        assert_eq!(set.len(), 1);
    }
}
