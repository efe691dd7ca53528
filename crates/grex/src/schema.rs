//! The GReX schema of one document.
//!
//! Several documents (public and proprietary) take part in one reformulation
//! problem; the paper writes `GReX1`, `GReX2`, … for their encodings. Here the
//! GReX predicates are suffixed with the document name (`child#catalog.xml`,
//! spelled by [`NavBase::predicate`]), which keeps the encodings disjoint;
//! every crate reads them back through the one classifier,
//! [`Atom::navigation`](mars_cq::Atom::navigation).

use mars_cq::{Atom, NavBase, Predicate, Term};
use std::sync::OnceLock;

/// A GReX atom. Its one to three arguments are copied into the atom,
/// with no `Vec` built first.
fn atom(predicate: Predicate, args: &[Term]) -> Atom {
    Atom { predicate, args: args.into() }
}

/// The GReX relational schema of one document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrexSchema {
    /// Document name, e.g. `case.xml`.
    pub document: String,
    /// The eight predicates, in [`NavBase::ALL`] order, each spelled and
    /// interned on first use, not once per atom built.
    predicates: [OnceLock<Predicate>; 8],
}

impl GrexSchema {
    /// The schema of the given document.
    pub fn new(document: &str) -> GrexSchema {
        GrexSchema { document: document.to_string(), predicates: Default::default() }
    }

    /// The document's predicate of `base`: `root(x)`, `el(x)`, `child(x, y)`
    /// (y a child of x), `desc(x, y)` (y a descendant-or-self of x),
    /// `tag(x, t)`, `attr(x, n, v)`, `id(x, i)` and `text(x, v)`.
    pub fn predicate(&self, base: NavBase) -> Predicate {
        *self.predicates[base as usize].get_or_init(|| base.predicate(&self.document))
    }

    /// All eight GReX predicates of this document.
    pub fn all_predicates(&self) -> Vec<Predicate> {
        NavBase::ALL.map(|base| self.predicate(base)).to_vec()
    }

    /// Convenience atom builders.
    pub fn root_atom(&self, x: Term) -> Atom {
        atom(self.predicate(NavBase::Root), &[x])
    }
    /// `el(x)` atom.
    pub fn el_atom(&self, x: Term) -> Atom {
        atom(self.predicate(NavBase::El), &[x])
    }
    /// `child(x,y)` atom.
    pub fn child_atom(&self, x: Term, y: Term) -> Atom {
        atom(self.predicate(NavBase::Child), &[x, y])
    }
    /// `desc(x,y)` atom.
    pub fn desc_atom(&self, x: Term, y: Term) -> Atom {
        atom(self.predicate(NavBase::Desc), &[x, y])
    }
    /// `tag(x,"t")` atom.
    pub fn tag_atom(&self, x: Term, tag: &str) -> Atom {
        atom(self.predicate(NavBase::Tag), &[x, Term::constant_str(tag)])
    }
    /// `text(x,v)` atom.
    pub fn text_atom(&self, x: Term, v: Term) -> Atom {
        atom(self.predicate(NavBase::Text), &[x, v])
    }
    /// `attr(x,"n",v)` atom.
    pub fn attr_atom(&self, x: Term, name: &str, v: Term) -> Atom {
        atom(self.predicate(NavBase::Attr), &[x, Term::constant_str(name), v])
    }
    /// `id(x,i)` atom.
    pub fn id_atom(&self, x: Term, i: Term) -> Atom {
        atom(self.predicate(NavBase::Id), &[x, i])
    }

    /// Does the predicate belong to this document's GReX encoding?
    pub fn owns(&self, p: Predicate) -> bool {
        NavBase::ALL.iter().any(|&base| self.predicate(base) == p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_are_document_scoped() {
        let a = GrexSchema::new("case.xml");
        let b = GrexSchema::new("catalog.xml");
        assert_ne!(a.predicate(NavBase::Child), b.predicate(NavBase::Child));
        assert_eq!(a.all_predicates().len(), 8);
        assert!(a.owns(a.predicate(NavBase::Desc)));
        assert!(!a.owns(b.predicate(NavBase::Desc)));
        for base in NavBase::ALL {
            assert_eq!(a.predicate(base), base.predicate("case.xml"), "{base:?}");
        }
    }

    /// The schema's atoms read back as navigation of its document; other
    /// relations, suffixed or not, do not.
    #[test]
    fn base_name_and_document_extraction() {
        let s = GrexSchema::new("case.xml");
        let (x, y) = (Term::var("x"), Term::var("y"));
        assert_eq!(s.child_atom(x, y).navigation(), Some((NavBase::Child, "case.xml")));
        assert_eq!(s.tag_atom(x, "a").navigation(), Some((NavBase::Tag, "case.xml")));
        assert_eq!(Atom::named("drugPrice", vec![x, y]).navigation(), None);
        assert_eq!(Atom::named("V1#star", vec![x, y]).navigation(), None);
    }

    #[test]
    fn atom_builders() {
        let s = GrexSchema::new("d.xml");
        let a = s.tag_atom(Term::var("x"), "author");
        assert_eq!(a.predicate, s.predicate(NavBase::Tag));
        assert_eq!(a.args[1], Term::constant_str("author"));
        assert_eq!(s.attr_atom(Term::var("x"), "year", Term::var("v")).arity(), 3);
        assert_eq!(s.child_atom(Term::var("x"), Term::var("y")).arity(), 2);
        assert_eq!(s.root_atom(Term::var("r")).arity(), 1);
        assert_eq!(s.el_atom(Term::var("r")).arity(), 1);
        assert_eq!(s.id_atom(Term::var("r"), Term::var("i")).arity(), 2);
        assert_eq!(s.desc_atom(Term::var("r"), Term::var("d")).arity(), 2);
        assert_eq!(s.text_atom(Term::var("r"), Term::var("t")).arity(), 2);
    }
}
