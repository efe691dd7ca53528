//! Terms: variables and constants.
//!
//! A [`Term`] appears as an argument of an [`Atom`](crate::Atom). Constants
//! are either interned strings (tag names, text values) or integers; the
//! distinction matters only for cost estimation and for executing
//! reformulations over actual storage.

use crate::symbol::{symbol, Symbol};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A query variable.
///
/// Variables carry an interned base name plus a numeric *disambiguator*.
/// Fresh variables created during the chase reuse disambiguators so that the
/// same base name can be re-introduced without capture.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

    /// The base name symbol.
    pub fn name_symbol(&self) -> Symbol {
        Symbol(self.name)
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

/// A constant value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Constant {
    /// Interned string constant (tag names, text values, node labels).
    Str(u32),
    /// Integer constant.
    Int(i64),
}

impl Constant {
    /// Intern a string constant.
    pub fn str(s: &str) -> Constant {
        Constant::Str(symbol(s).0)
    }

    /// Integer constant.
    pub fn int(i: i64) -> Constant {
        Constant::Int(i)
    }

    /// Render the constant for display / SQL generation.
    pub fn render(&self) -> String {
        match self {
            Constant::Str(s) => Symbol(*s).as_str().to_string(),
            Constant::Int(i) => i.to_string(),
        }
    }
}

impl fmt::Debug for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Str(s) => write!(f, "\"{}\"", Symbol(*s).as_str()),
            Constant::Int(i) => write!(f, "{i}"),
        }
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A term: variable or constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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

    /// Integer-constant term.
    pub fn constant_int(i: i64) -> Term {
        Term::Const(Constant::Int(i))
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
    /// string constant by its text, before every integer. The derived `Ord`
    /// compares interned symbols, so it follows whichever string the process
    /// happened to intern first; this key orders terms the same way in every
    /// process.
    pub fn spelling(&self) -> (u8, &'static str, i64) {
        match *self {
            Term::Var(v) => (0, Symbol(v.name).as_str(), i64::from(v.index)),
            Term::Const(Constant::Str(s)) => (1, Symbol(s).as_str(), 0),
            Term::Const(Constant::Int(i)) => (2, "", i),
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

    /// A fresh variable with an explicit base name.
    pub fn fresh_named(&mut self, name: &str) -> Variable {
        let v = Variable::with_index(name, self.next);
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
        assert_ne!(Constant::str("1"), Constant::int(1));
        assert_eq!(Constant::int(1).render(), "1");
        assert_eq!(Constant::str("book").render(), "book");
    }

    #[test]
    fn term_accessors() {
        let t = Term::var("x");
        assert!(t.is_var());
        assert!(!t.is_const());
        assert_eq!(t.as_var(), Some(Variable::named("x")));
        assert_eq!(t.as_const(), None);
        let c = Term::constant_int(5);
        assert!(c.is_const());
        assert_eq!(c.as_const(), Some(Constant::Int(5)));
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
        assert_eq!(format!("{}", Term::constant_int(3)), "3");
    }
}
