//! # mars-cq — relational logic core for the MARS system
//!
//! This crate holds the data types of the relational framework that the
//! MARS system (Deutsch & Tannen, VLDB 2003) compiles XML publishing
//! problems into:
//!
//! * interned [`Symbol`]s, [`Term`]s, [`Atom`]s (their arguments an inline
//!   [`Args`] list) and [`ConjunctiveQuery`]s (with inequalities), plus
//!   [`AtomSet`] — the growable
//!   atom-index bitset the backchase enumerates subqueries with,
//! * the GReX vocabulary: the eight [`NavBase`]s of the XML encoding, and
//!   [`Atom::navigation`], the one classifier every crate asks whether an
//!   atom navigates a document,
//! * [`Substitution`]s,
//! * [`Ded`]s — *disjunctive embedded dependencies* — the constraint language
//!   used for relational integrity constraints, compiled XML integrity
//!   constraints (XICs) and compiled XQuery views.
//!
//! It evaluates nothing. The set-oriented chase and backchase of Section 3
//! live in `mars-chase`; the paper's old implementation (backtracking
//! homomorphism search, naive chase, chase-based containment), which the
//! engine is tested against, lives in `mars-oracle`, on which no product
//! crate depends.

#![deny(missing_docs)]

pub mod args;
pub mod atom;
pub mod atomset;
pub mod ded;
pub mod fx;
pub mod query;
pub mod substitution;
pub mod symbol;
pub mod term;

pub use args::Args;
pub use atom::{Atom, NavBase, Predicate};
pub use atomset::AtomSet;
pub use ded::{Conjunct, Ded};
pub use fx::{FxBuild, FxHashMap, FxHashSet, FxHasher};
pub use query::ConjunctiveQuery;
pub use substitution::Substitution;
pub use symbol::{symbol, symbol_name, Symbol};
pub use term::{Constant, Term, VarGen, Variable};

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn public_api_smoke() {
        let p = Predicate::new("R");
        let x = Variable::named("x");
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::Var(x)])
            .with_body(vec![Atom::new(p, vec![Term::Var(x), Term::constant_str("a")])]);
        assert_eq!(q.body.len(), 1);
        assert_eq!(q.head.len(), 1);
    }
}
