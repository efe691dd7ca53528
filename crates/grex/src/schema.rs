//! The GReX schema of one document.
//!
//! Several documents (public and proprietary) take part in one reformulation
//! problem; the paper writes `GReX1`, `GReX2`, … for their encodings. Here the
//! GReX predicates are suffixed with the document name (`child#catalog.xml`,
//! spelled by [`NavBase::predicate`]), which keeps the encodings disjoint;
//! every crate reads them back through the one classifier,
//! [`Atom::navigation`](mars_cq::Atom::navigation).

use mars_cq::{Atom, NavBase, Predicate, Term};

/// A GReX atom. Its one to three arguments are copied into the atom,
/// with no `Vec` built first: `encode_document` makes one per fact.
fn atom(predicate: Predicate, args: &[Term]) -> Atom {
    Atom { predicate, args: args.into() }
}

/// The GReX relational schema of one document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GrexSchema {
    /// Document name, e.g. `case.xml`.
    pub document: String,
}

impl GrexSchema {
    /// The schema of the given document.
    pub fn new(document: &str) -> GrexSchema {
        GrexSchema { document: document.to_string() }
    }

    fn pred(&self, base: NavBase) -> Predicate {
        base.predicate(&self.document)
    }

    /// `root(x)` — x is the document's root element.
    pub fn root(&self) -> Predicate {
        self.pred(NavBase::Root)
    }
    /// `el(x)` — x is an element node.
    pub fn el(&self) -> Predicate {
        self.pred(NavBase::El)
    }
    /// `child(x, y)` — y is a child of x.
    pub fn child(&self) -> Predicate {
        self.pred(NavBase::Child)
    }
    /// `desc(x, y)` — y is a descendant-or-self of x.
    pub fn desc(&self) -> Predicate {
        self.pred(NavBase::Desc)
    }
    /// `tag(x, t)` — element x has tag t.
    pub fn tag(&self) -> Predicate {
        self.pred(NavBase::Tag)
    }
    /// `attr(x, n, v)` — element x has attribute n with value v.
    pub fn attr(&self) -> Predicate {
        self.pred(NavBase::Attr)
    }
    /// `id(x, i)` — element x has node identity i.
    pub fn id(&self) -> Predicate {
        self.pred(NavBase::Id)
    }
    /// `text(x, v)` — element x has text content v.
    pub fn text(&self) -> Predicate {
        self.pred(NavBase::Text)
    }

    /// All eight GReX predicates of this document.
    pub fn all_predicates(&self) -> Vec<Predicate> {
        NavBase::ALL.map(|base| self.pred(base)).to_vec()
    }

    /// Convenience atom builders.
    pub fn root_atom(&self, x: Term) -> Atom {
        atom(self.root(), &[x])
    }
    /// `el(x)` atom.
    pub fn el_atom(&self, x: Term) -> Atom {
        atom(self.el(), &[x])
    }
    /// `child(x,y)` atom.
    pub fn child_atom(&self, x: Term, y: Term) -> Atom {
        atom(self.child(), &[x, y])
    }
    /// `desc(x,y)` atom.
    pub fn desc_atom(&self, x: Term, y: Term) -> Atom {
        atom(self.desc(), &[x, y])
    }
    /// `tag(x,"t")` atom.
    pub fn tag_atom(&self, x: Term, tag: &str) -> Atom {
        atom(self.tag(), &[x, Term::constant_str(tag)])
    }
    /// `text(x,v)` atom.
    pub fn text_atom(&self, x: Term, v: Term) -> Atom {
        atom(self.text(), &[x, v])
    }
    /// `attr(x,"n",v)` atom.
    pub fn attr_atom(&self, x: Term, name: &str, v: Term) -> Atom {
        atom(self.attr(), &[x, Term::constant_str(name), v])
    }
    /// `id(x,i)` atom.
    pub fn id_atom(&self, x: Term, i: Term) -> Atom {
        atom(self.id(), &[x, i])
    }

    /// Does the predicate belong to this document's GReX encoding?
    pub fn owns(&self, p: Predicate) -> bool {
        self.all_predicates().contains(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_are_document_scoped() {
        let a = GrexSchema::new("case.xml");
        let b = GrexSchema::new("catalog.xml");
        assert_ne!(a.child(), b.child());
        assert_eq!(a.all_predicates().len(), 8);
        assert!(a.owns(a.desc()));
        assert!(!a.owns(b.desc()));
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
        assert_eq!(a.predicate, s.tag());
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
