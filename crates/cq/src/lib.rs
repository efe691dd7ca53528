//! # mars-cq — relational logic core for the MARS system
//!
//! This crate implements the relational framework that the MARS system
//! (Deutsch & Tannen, VLDB 2003) compiles XML publishing problems into:
//!
//! * interned [`Symbol`]s, [`Term`]s, [`Atom`]s and [`ConjunctiveQuery`]s
//!   (with inequalities), plus [`AtomSet`] — the growable
//!   atom-index bitset the backchase enumerates subqueries with,
//! * [`Ded`]s — *disjunctive embedded dependencies* — the constraint language
//!   used for relational integrity constraints, compiled XML integrity
//!   constraints (XICs) and compiled XQuery views,
//! * homomorphism search between atom sets ([`homomorphism`]),
//! * the **naive chase** ([`chase`]) — a direct, per-homomorphism
//!   implementation corresponding to the original C&B prototype that the
//!   paper uses as its baseline ("old implementation"),
//! * containment, equivalence and tableau minimization under constraints
//!   ([`containment`]).
//!
//! The scalable join-tree based chase of Section 3.1 of the paper lives in
//! the `mars-chase` crate; it shares all data types defined here. The last
//! three items above are the paper's old implementation and the oracle the
//! engine is tested against: no product path calls them (`mars-chase`
//! evaluates premises, blocked tests and containment mappings through its
//! own compiled join kernel).

#![deny(missing_docs)]

pub mod atom;
pub mod atomset;
pub mod chase;
pub mod containment;
pub mod ded;
pub mod fx;
pub mod homomorphism;
pub mod query;
pub mod substitution;
pub mod symbol;
pub mod term;

pub use atom::{Atom, Predicate};
pub use atomset::AtomSet;
pub use chase::{naive_chase, ChaseBudget, ChaseOutcome, ChaseTree};
pub use containment::{contained_in, equivalent, minimize, ContainmentOptions, ContainmentTarget};
pub use ded::{Conjunct, Ded};
pub use fx::{FxBuild, FxHashMap, FxHashSet, FxHasher};
pub use homomorphism::{
    extend_to_conclusion, find_all_homomorphisms, find_homomorphism, AtomIndex,
};
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
