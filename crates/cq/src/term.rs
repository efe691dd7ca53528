//! Terms: variables and constants.
//!
//! A [`Term`] appears as an argument of an [`Atom`](crate::Atom). Constants
//! are interned strings (tag names, text values), the element nodes of
//! stored documents, or the parameters of a canonical block; the
//! distinction matters only for cost estimation and for executing
//! reformulations over actual storage.
//!
//! A node is typed, not spelled: [`Constant::Node`] holds its document's
//! interned name and its arena slot, so loading a document formats and
//! interns nothing per node. It still prints as `<document>/n<slot>`, and it
//! equals no string constant, that spelling included.

use crate::symbol::{symbol, Symbol};
use std::fmt;

/// A query variable.
///
/// Variables carry an interned base name plus a numeric *disambiguator*.
/// Fresh variables created during the chase reuse disambiguators so that the
/// same base name can be re-introduced without capture.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Variable {
    /// Interned base name, e.g. `x`.
    pub name: u32,
    /// Disambiguator; `0` for user-written variables.
    pub index: u32,
}

impl Variable {
    /// A variable with the given source-level name (disambiguator 0).
    pub fn named(name: &str) -> Variable {
        Variable { name: symbol(name).0, index: 0 }
    }

    /// A variable with an explicit disambiguator.
    pub fn with_index(name: &str, index: u32) -> Variable {
        Variable { name: symbol(name).0, index }
    }

    /// Render the variable, including the disambiguator when non-zero.
    pub fn display_name(&self) -> String {
        if self.index == 0 {
            Symbol(self.name).as_str().to_string()
        } else {
            format!("{}#{}", Symbol(self.name).as_str(), self.index)
        }
    }
}

impl fmt::Debug for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

/// A constant value. The derived order puts strings (by symbol id) before
/// nodes (by document symbol, then slot: document order within one
/// document), and nodes before parameters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Constant {
    /// Interned string constant (tag names, text values).
    Str(u32),
    /// Element `id` (its arena slot) of the document whose name is the
    /// symbol `doc`.
    Node {
        /// The document name's symbol id.
        doc: u32,
        /// The element's arena slot.
        id: u32,
    },
    /// Parameter `i` of a canonical block: the place of the `i`-th constant
    /// a request of the block's shape supplies. It equals no other constant,
    /// so nothing the chase and backchase prove depends on its value.
    Param(u32),
}

impl Constant {
    /// Intern a string constant.
    pub fn str(s: &str) -> Constant {
        Constant::Str(symbol(s).0)
    }

    /// Element `id` of the document whose name is `doc`.
    pub fn node(doc: Symbol, id: u32) -> Constant {
        Constant::Node { doc: doc.0, id }
    }

    /// Render the constant for display / SQL generation.
    pub fn render(&self) -> String {
        match self {
            Constant::Str(s) => Symbol(*s).as_str().to_string(),
            Constant::Node { doc, id } => format!("{}/n{id}", Symbol(*doc).as_str()),
            Constant::Param(i) => format!("?{i}"),
        }
    }
}

impl fmt::Debug for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Str(s) => write!(f, "\"{}\"", Symbol(*s).as_str()),
            Constant::Node { doc, id } => write!(f, "\"{}/n{id}\"", Symbol(*doc).as_str()),
            Constant::Param(i) => write!(f, "?{i}"),
        }
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A term: variable or constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable.
    Var(Variable),
    /// A constant.
    Const(Constant),
}

impl Term {
    /// Variable term from a name.
    pub fn var(name: &str) -> Term {
        Term::Var(Variable::named(name))
    }

    /// String-constant term.
    pub fn constant_str(s: &str) -> Term {
        Term::Const(Constant::str(s))
    }

    /// The string-constant term that spells `i` in decimal.
    pub fn constant_int(i: i64) -> Term {
        Term::constant_str(&i.to_string())
    }

    /// Is this term a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Is this term a constant?
    pub fn is_const(&self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<Variable> {
        match self {
            Term::Var(v) => Some(*v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if any.
    pub fn as_const(&self) -> Option<Constant> {
        match self {
            Term::Const(c) => Some(*c),
            Term::Var(_) => None,
        }
    }

    /// The term as it is spelled, as a sort key: variables before
    /// constants, a variable by its name and then its disambiguator, a
    /// string constant by its text, before every node, a node by its
    /// document's name and then its slot, before every parameter, and a
    /// parameter by number. The derived `Ord`
    /// compares interned symbols, so it follows whichever string the process
    /// happened to intern first; this key orders terms the same way in every
    /// process.
    pub fn spelling(&self) -> (u8, &'static str, u32) {
        match *self {
            Term::Var(v) => (0, Symbol(v.name).as_str(), v.index),
            Term::Const(Constant::Str(s)) => (1, Symbol(s).as_str(), 0),
            Term::Const(Constant::Node { doc, id }) => (2, Symbol(doc).as_str(), id),
            Term::Const(Constant::Param(i)) => (3, "", i),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

// Every kind holds at most two `u32`s beside its tag, and `Term` and
// `Option<Term>` encode their own variants in unused tag values: twelve bytes.
const _: () = assert!(std::mem::size_of::<Term>() == 12);
const _: () = assert!(std::mem::size_of::<Option<Term>>() == 12);

impl From<Variable> for Term {
    fn from(v: Variable) -> Term {
        Term::Var(v)
    }
}

impl From<Constant> for Term {
    fn from(c: Constant) -> Term {
        Term::Const(c)
    }
}

/// Generator of fresh variables, used by the chase when instantiating
/// existentially quantified conclusion variables.
#[derive(Debug, Clone)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// A generator whose fresh variables start at disambiguator `start`.
    pub fn new(start: u32) -> VarGen {
        VarGen { next: start.max(1) }
    }

    /// A generator guaranteed not to collide with any variable already used
    /// by the given terms.
    pub fn avoiding<'a, I: IntoIterator<Item = &'a Term>>(terms: I) -> VarGen {
        let mut max = 0;
        for t in terms {
            if let Term::Var(v) = t {
                max = max.max(v.index);
            }
        }
        VarGen { next: max + 1 }
    }

    /// A fresh variable derived from `base`.
    pub fn fresh(&mut self, base: Variable) -> Variable {
        let v = Variable { name: base.name, index: self.next };
        self.next += 1;
        v
    }
}

impl Default for VarGen {
    fn default() -> Self {
        VarGen::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_compare_by_name_and_index() {
        assert_eq!(Variable::named("x"), Variable::named("x"));
        assert_ne!(Variable::named("x"), Variable::named("y"));
        assert_ne!(Variable::named("x"), Variable::with_index("x", 3));
    }

    #[test]
    fn display_of_fresh_variables_has_disambiguator() {
        let v = Variable::with_index("u", 7);
        assert_eq!(v.display_name(), "u#7");
        assert_eq!(Variable::named("u").display_name(), "u");
    }

    #[test]
    fn constants() {
        assert_eq!(Constant::str("a"), Constant::str("a"));
        assert_ne!(Constant::str("a"), Constant::str("b"));
        assert_eq!(Term::constant_int(-1), Term::constant_str("-1"));
        assert_eq!(Constant::str("book").render(), "book");
        assert_eq!(Constant::Param(2).render(), "?2");
        assert_ne!(Constant::Param(0), Constant::str("?0"));
    }

    #[test]
    fn term_accessors() {
        let t = Term::var("x");
        assert!(t.is_var());
        assert!(!t.is_const());
        assert_eq!(t.as_var(), Some(Variable::named("x")));
        assert_eq!(t.as_const(), None);
        let c = Term::constant_str("5");
        assert!(c.is_const());
        assert_eq!(c.as_const(), Some(Constant::str("5")));
        assert_eq!(c.as_var(), None);
    }

    #[test]
    fn vargen_produces_distinct_variables() {
        let mut g = VarGen::default();
        let a = g.fresh(Variable::named("x"));
        let b = g.fresh(Variable::named("x"));
        assert_ne!(a, b);
        assert_eq!(a.name, b.name);
    }

    #[test]
    fn vargen_avoiding_skips_used_indices() {
        let terms = [
            Term::Var(Variable::with_index("x", 5)),
            Term::Var(Variable::named("y")),
            Term::constant_str("c"),
        ];
        let mut g = VarGen::avoiding(terms.iter());
        let f = g.fresh(Variable::named("z"));
        assert!(f.index > 5);
    }

    #[test]
    fn term_display() {
        assert_eq!(format!("{}", Term::var("a")), "a");
        assert_eq!(format!("{}", Term::constant_str("t")), "\"t\"");
        assert_eq!(format!("{}", Term::Const(Constant::Param(3))), "?3");
        let node = Term::Const(Constant::node(symbol("d.xml"), 7));
        assert_eq!(format!("{node}"), "\"d.xml/n7\"");
    }

    /// A node prints as the string constant `<document>/n<slot>` did, and
    /// equals no string, its own spelling included.
    #[test]
    fn nodes_are_typed_and_spelled_as_before() {
        let node = |doc: &str, id| Constant::node(symbol(doc), id);
        assert_eq!(node("shop.xml", 12).render(), "shop.xml/n12");
        assert_ne!(node("shop.xml", 12), Constant::str("shop.xml/n12"));
        assert_ne!(node("a.xml", 1), node("b.xml", 1));
        // Document order within a document; strings first, parameters after.
        assert!(node("shop.xml", 2) < node("shop.xml", 10));
        assert!(Constant::str("zzz") < node("shop.xml", 0));
        assert!(node("shop.xml", u32::MAX) < Constant::Param(0));
        let (a, b) = (Term::Const(node("shop.xml", 2)), Term::Const(node("shop.xml", 10)));
        assert!(a.spelling() < b.spelling());
        assert!(Term::constant_str("zzz").spelling() < a.spelling());
        assert!(b.spelling() < Term::Const(Constant::Param(0)).spelling());
    }
}
