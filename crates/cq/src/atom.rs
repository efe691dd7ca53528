//! Relational atoms and predicates.

use crate::args::Args;
use crate::symbol::{symbol, Symbol};
use crate::term::{Term, Variable};
use std::fmt;

/// A predicate (relation) name, e.g. `child`, `desc`, `patient`, `V3`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
}

/// A base of the GReX encoding of XML, `[root, el, child, desc, tag, attr,
/// id, text]`. A GReX navigation predicate is named `base#document`
/// (`child#case.xml`), so the encodings of several documents coexist in one
/// reformulation problem; [`Atom::navigation`] is the one place that reads a
/// predicate as navigation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NavBase {
    /// `root#d(n)` — the document's root element.
    Root,
    /// `el#d(n)` — every element.
    El,
    /// `child#d(p, c)` — parent/child edges between elements.
    Child,
    /// `desc#d(a, d)` — descendant-or-self pairs.
    Desc,
    /// `tag#d(n, t)` — an element's tag name.
    Tag,
    /// `attr#d(n, name, value)` — attribute entries.
    Attr,
    /// `id#d(n, n)` — node identity.
    Id,
    /// `text#d(n, v)` — an element's non-empty direct text.
    Text,
}

impl NavBase {
    /// The eight bases, in GReX order.
    pub const ALL: [NavBase; 8] = [
        NavBase::Root,
        NavBase::El,
        NavBase::Child,
        NavBase::Desc,
        NavBase::Tag,
        NavBase::Attr,
        NavBase::Id,
        NavBase::Text,
    ];

    /// The base's name, the part of a navigation predicate before the `#`.
    pub fn name(self) -> &'static str {
        match self {
            NavBase::Root => "root",
            NavBase::El => "el",
            NavBase::Child => "child",
            NavBase::Desc => "desc",
            NavBase::Tag => "tag",
            NavBase::Attr => "attr",
            NavBase::Id => "id",
            NavBase::Text => "text",
        }
    }

    /// Number of arguments of the base's relation.
    pub fn arity(self) -> usize {
        match self {
            NavBase::Root | NavBase::El => 1,
            NavBase::Child | NavBase::Desc | NavBase::Tag | NavBase::Id | NavBase::Text => 2,
            NavBase::Attr => 3,
        }
    }

    /// The base's predicate over `document`: `base#document`.
    pub fn predicate(self, document: &str) -> Predicate {
        Predicate::new(&format!("{}#{document}", self.name()))
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
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The relation the atom ranges over.
    pub predicate: Predicate,
    /// The terms, one per column of the relation; up to [`Args::INLINE`]
    /// of them are stored in the atom itself.
    pub args: Args,
}

impl Atom {
    /// Build an atom. A hot path that computes its terms builds the atom
    /// literally, collecting them straight into [`Args`].
    pub fn new(predicate: Predicate, args: Vec<Term>) -> Atom {
        Atom { predicate, args: args.into() }
    }

    /// Build an atom from a predicate name and terms.
    pub fn named(predicate: &str, args: Vec<Term>) -> Atom {
        Atom::new(Predicate::new(predicate), args)
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

    /// The atom as it is spelled, as a sort key: its predicate name, then
    /// its arguments' [`Term::spelling`]. Unlike the derived `Ord`, the
    /// order it gives does not depend on the order symbols were interned in.
    pub fn spelling(&self) -> (&'static str, Vec<(u8, &'static str, u32)>) {
        (self.predicate.name(), self.args.iter().map(Term::spelling).collect())
    }

    /// The atom read as GReX navigation: its base and document, when the
    /// predicate is `base#document` for a known base and the atom has the
    /// base's arity. Anything else — a name without a document, an unknown
    /// base, a known base at the wrong arity — matches no encoded fact and is
    /// an ordinary relation to every consumer: the backchase's pruning
    /// criteria, cost weights and closure shortcut, and the router.
    pub fn navigation(&self) -> Option<(NavBase, &'static str)> {
        let (base, document) = self.predicate.name().split_once('#')?;
        // The inverse of `NavBase::name`, as one string match: the router
        // and the navigation kernel classify every atom of every execution.
        let base = match base {
            "root" => NavBase::Root,
            "el" => NavBase::El,
            "child" => NavBase::Child,
            "desc" => NavBase::Desc,
            "tag" => NavBase::Tag,
            "attr" => NavBase::Attr,
            "id" => NavBase::Id,
            "text" => NavBase::Text,
            _ => return None,
        };
        (self.args.len() == base.arity()).then_some((base, document))
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

/// Macro-free builders of GReX navigation atoms over one fixed document,
/// [`DOCUMENT`](builders::DOCUMENT), for unit tests: `child(x, y)` is
/// `child#d.xml(x, y)`, so every consumer reads it as navigation.
pub mod builders {
    use super::*;

    /// The document every builder navigates.
    pub const DOCUMENT: &str = "d.xml";

    fn nav(base: NavBase, args: Vec<Term>) -> Atom {
        Atom::new(base.predicate(DOCUMENT), args)
    }

    /// `root(x)`
    pub fn root(x: Term) -> Atom {
        nav(NavBase::Root, vec![x])
    }
    /// `el(x)`
    pub fn el(x: Term) -> Atom {
        nav(NavBase::El, vec![x])
    }
    /// `child(x, y)`
    pub fn child(x: Term, y: Term) -> Atom {
        nav(NavBase::Child, vec![x, y])
    }
    /// `desc(x, y)`
    pub fn desc(x: Term, y: Term) -> Atom {
        nav(NavBase::Desc, vec![x, y])
    }
    /// `tag(x, "t")`
    pub fn tag(x: Term, t: &str) -> Atom {
        nav(NavBase::Tag, vec![x, Term::constant_str(t)])
    }
    /// `text(x, v)`
    pub fn text(x: Term, v: Term) -> Atom {
        nav(NavBase::Text, vec![x, v])
    }
    /// `attr(x, "name", v)`
    pub fn attr(x: Term, name: &str, v: Term) -> Atom {
        nav(NavBase::Attr, vec![x, Term::constant_str(name), v])
    }
    /// `id(x, i)`
    pub fn id(x: Term, i: Term) -> Atom {
        nav(NavBase::Id, vec![x, i])
    }
}

#[cfg(test)]
mod tests {
    use super::builders::*;
    use super::*;
    use crate::term::{Constant, Variable};

    /// The spelled order ignores the interning order: `spelling_b` is
    /// interned before `spelling_a`, so the derived order puts it first,
    /// and the spelled order does not.
    #[test]
    fn spelled_order_does_not_follow_interning() {
        let (b, a) = (Term::var("spelling_b"), Term::var("spelling_a"));
        let r = |x: Term| Atom::named("R", vec![Term::constant_str("c"), x]);
        assert!(b < a && r(b) < r(a), "interned first");
        assert!(r(a).spelling() < r(b).spelling());
        assert!(a.spelling() < Term::constant_str("a").spelling());
        assert!(Term::constant_str("z").spelling() < Term::Const(Constant::Param(0)).spelling());
        assert!(Atom::named("Q", vec![b]).spelling() < r(a).spelling(), "the predicate first");
    }

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
        assert_eq!(format!("{a}"), "child#d.xml(p, c)");
        let t = tag(Term::var("c"), "author");
        assert_eq!(format!("{t}"), "tag#d.xml(c, \"author\")");
    }

    #[test]
    fn grex_builders() {
        let (x, y) = (Term::var("x"), Term::var("y"));
        let built = [
            (root(x), NavBase::Root),
            (el(x), NavBase::El),
            (child(x, y), NavBase::Child),
            (desc(x, y), NavBase::Desc),
            (tag(x, "a"), NavBase::Tag),
            (attr(x, "id", y), NavBase::Attr),
            (id(x, y), NavBase::Id),
            (text(x, y), NavBase::Text),
        ];
        for (atom, base) in built {
            assert_eq!(atom.navigation(), Some((base, DOCUMENT)), "{atom}");
        }
    }

    /// The classifier accepts exactly `base#document` at the base's arity,
    /// and `NavBase::predicate` spells what it reads back, for every base.
    #[test]
    fn navigation_needs_a_known_base_a_document_and_the_arity() {
        for base in NavBase::ALL {
            let p = base.predicate("case.xml");
            assert_eq!(p.name(), format!("{}#case.xml", base.name()));
            let args = vec![Term::var("x"); base.arity()];
            assert_eq!(Atom::new(p, args.clone()).navigation(), Some((base, "case.xml")));
            // No document: a relation that happens to share the base's name.
            assert_eq!(Atom::named(base.name(), args.clone()).navigation(), None, "{base:?}");
            // A known base at the wrong arity matches no encoded fact.
            let mut wrong = args;
            wrong.push(Term::var("y"));
            assert_eq!(Atom::new(p, wrong).navigation(), None, "{base:?}");
        }
        let xy = vec![Term::var("x"), Term::var("y")];
        assert_eq!(Atom::named("sibling#case.xml", xy.clone()).navigation(), None);
        assert_eq!(Atom::named("V1#star", xy).navigation(), None);
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
