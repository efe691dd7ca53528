//! Disjunctive embedded dependencies (DEDs).
//!
//! DEDs (introduced for MARS in Deutsch & Tannen, DBPL 2001) extend classical
//! embedded dependencies with disjunction and non-equalities. They uniformly
//! express:
//!
//! * relational integrity constraints (keys, foreign keys, inclusion deps),
//! * the built-in TIX constraints about the GReX encoding of XML,
//! * compiled XML integrity constraints (XICs),
//! * compiled LAV/GAV XQuery views (the `cV`/`bV` pairs of Section 2.3 and the
//!   Skolem-function constraints of Section 2.4).
//!
//! The general form is
//!
//! ```text
//! ∀x̄  premise(x̄)  →  ⋁_i  ∃ȳ_i  conclusion_i(x̄, ȳ_i)
//! ```
//!
//! where each `conclusion_i` is a conjunction of relational atoms and
//! equalities. An empty disjunction (no conclusions) denotes a denial
//! constraint (premise must never hold).

use crate::atom::{Atom, Predicate};
use crate::substitution::Substitution;
use crate::term::{Term, Variable};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// One disjunct of a DED conclusion: `∃ ȳ. atoms ∧ equalities`.
#[derive(Clone, PartialEq, Eq)]
pub struct Conjunct {
    /// Existentially quantified variables (those not bound by the premise).
    pub exists: Vec<Variable>,
    /// Conclusion atoms.
    pub atoms: Vec<Atom>,
    /// Conclusion equalities (`t = t'`); these make the DED an EGD component.
    pub equalities: Vec<(Term, Term)>,
}

impl Conjunct {
    /// A conjunct with atoms only.
    pub fn atoms(atoms: Vec<Atom>) -> Conjunct {
        Conjunct { exists: Vec::new(), atoms, equalities: Vec::new() }
    }

    /// A conjunct that only asserts equalities (EGD style).
    pub fn equalities(equalities: Vec<(Term, Term)>) -> Conjunct {
        Conjunct { exists: Vec::new(), atoms: Vec::new(), equalities }
    }

    /// Builder: add existential variables.
    pub fn with_exists(mut self, exists: Vec<Variable>) -> Conjunct {
        self.exists = exists;
        self
    }

    /// Builder: add equalities.
    pub fn with_equalities(mut self, eqs: Vec<(Term, Term)>) -> Conjunct {
        self.equalities = eqs;
        self
    }

    /// All variables mentioned in this conjunct.
    pub fn variables(&self) -> BTreeSet<Variable> {
        let mut out: BTreeSet<Variable> = self.atoms.iter().flat_map(|a| a.variables()).collect();
        for (a, b) in &self.equalities {
            if let Some(v) = a.as_var() {
                out.insert(v);
            }
            if let Some(v) = b.as_var() {
                out.insert(v);
            }
        }
        out
    }

    /// Apply a substitution to the non-existential part of the conjunct
    /// (existential variables must have been freshened first).
    pub fn apply(&self, s: &Substitution) -> Conjunct {
        Conjunct {
            exists: self.exists.clone(),
            atoms: s.apply_atoms(&self.atoms),
            equalities: self
                .equalities
                .iter()
                .map(|(a, b)| (s.apply_term(*a), s.apply_term(*b)))
                .collect(),
        }
    }
}

impl fmt::Debug for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.exists.is_empty() {
            write!(f, "∃")?;
            for (i, v) in self.exists.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ". ")?;
        }
        let mut first = true;
        for a in &self.atoms {
            if !first {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
            first = false;
        }
        for (a, b) in &self.equalities {
            if !first {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a} = {b}")?;
            first = false;
        }
        if first {
            write!(f, "⊤")?;
        }
        Ok(())
    }
}

/// A disjunctive embedded dependency.
#[derive(Clone, PartialEq, Eq)]
pub struct Ded {
    /// Name used for display and provenance tracking (e.g. `TIX.trans`, `cV`).
    pub name: String,
    /// Premise atoms (the ∀-quantified left-hand side).
    pub premise: Vec<Atom>,
    /// Premise inequality side conditions.
    pub premise_inequalities: Vec<(Term, Term)>,
    /// Disjunction of conclusions. Empty = denial constraint.
    pub conclusions: Vec<Conjunct>,
}

impl Ded {
    /// A simple tuple-generating dependency `premise → ∃ exists. atoms`.
    pub fn tgd(name: &str, premise: Vec<Atom>, exists: Vec<Variable>, atoms: Vec<Atom>) -> Ded {
        Ded {
            name: name.to_string(),
            premise,
            premise_inequalities: Vec::new(),
            conclusions: vec![Conjunct { exists, atoms, equalities: Vec::new() }],
        }
    }

    /// An equality-generating dependency `premise → t = t'`.
    pub fn egd(name: &str, premise: Vec<Atom>, a: Term, b: Term) -> Ded {
        Ded {
            name: name.to_string(),
            premise,
            premise_inequalities: Vec::new(),
            conclusions: vec![Conjunct::equalities(vec![(a, b)])],
        }
    }

    /// A general DED with several disjuncts.
    pub fn disjunctive(name: &str, premise: Vec<Atom>, conclusions: Vec<Conjunct>) -> Ded {
        Ded { name: name.to_string(), premise, premise_inequalities: Vec::new(), conclusions }
    }

    /// A denial constraint (`premise → false`).
    pub fn denial(name: &str, premise: Vec<Atom>) -> Ded {
        Ded {
            name: name.to_string(),
            premise,
            premise_inequalities: Vec::new(),
            conclusions: Vec::new(),
        }
    }

    /// Builder: add premise inequalities.
    pub fn with_premise_inequalities(mut self, ineqs: Vec<(Term, Term)>) -> Ded {
        self.premise_inequalities = ineqs;
        self
    }

    /// The universally quantified variables (those of the premise).
    pub fn universal_variables(&self) -> BTreeSet<Variable> {
        let mut out: BTreeSet<Variable> = self.premise.iter().flat_map(|a| a.variables()).collect();
        for (a, b) in &self.premise_inequalities {
            if let Some(v) = a.as_var() {
                out.insert(v);
            }
            if let Some(v) = b.as_var() {
                out.insert(v);
            }
        }
        out
    }

    /// Existential variables of each conclusion that are *not* premise-bound.
    /// (Conclusions may also redundantly list premise variables; these are
    /// filtered out.)
    pub fn existential_variables(&self, conjunct: &Conjunct) -> Vec<Variable> {
        let universal = self.universal_variables();
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for v in conjunct.variables() {
            if !universal.contains(&v) && seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// Is this a pure EGD (all conclusions are equalities only)?
    pub fn is_egd(&self) -> bool {
        !self.conclusions.is_empty()
            && self.conclusions.iter().all(|c| c.atoms.is_empty() && !c.equalities.is_empty())
    }

    /// Is this a pure (non-disjunctive) TGD?
    pub fn is_tgd(&self) -> bool {
        self.conclusions.len() == 1
            && self.conclusions[0].equalities.is_empty()
            && !self.conclusions[0].atoms.is_empty()
    }

    /// Is the dependency disjunctive (more than one conclusion)?
    pub fn is_disjunctive(&self) -> bool {
        self.conclusions.len() > 1
    }

    /// Is this a denial constraint?
    pub fn is_denial(&self) -> bool {
        self.conclusions.is_empty()
    }

    /// Predicates mentioned in the premise.
    pub fn premise_predicates(&self) -> BTreeSet<Predicate> {
        self.premise.iter().map(|a| a.predicate).collect()
    }

    /// Predicates mentioned in any conclusion.
    pub fn conclusion_predicates(&self) -> BTreeSet<Predicate> {
        self.conclusions.iter().flat_map(|c| c.atoms.iter().map(|a| a.predicate)).collect()
    }

    /// Maximum number of premise atoms; the paper notes that TIX constraints
    /// have at most 2 premise atoms, which keeps chase steps cheap.
    pub fn premise_size(&self) -> usize {
        self.premise.len()
    }
}

impl fmt::Debug for Ded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.name)?;
        for (i, a) in self.premise.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "{a}")?;
        }
        for (a, b) in &self.premise_inequalities {
            write!(f, " ∧ {a} ≠ {b}")?;
        }
        write!(f, " → ")?;
        if self.conclusions.is_empty() {
            write!(f, "⊥")?;
        }
        for (i, c) in self.conclusions.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{c:?}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Ded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The pair of DEDs that models a relational view defined by a conjunctive
/// query (Section 2.3 of the paper): `cV` states that the result of the
/// defining query is included in the view relation, `bV` the converse.
pub fn view_dependencies(
    view_name: &str,
    defining_query: &crate::query::ConjunctiveQuery,
) -> (Ded, Ded) {
    let view_pred = Predicate::new(view_name);
    let head_atom = Atom::new(view_pred, defining_query.head.clone());

    // cV: body → V(head)
    let c_v = Ded::tgd(
        &format!("c{view_name}"),
        defining_query.body.clone(),
        Vec::new(),
        vec![head_atom.clone()],
    );

    // bV: V(head) → ∃ (body vars not in head). body
    let head_vars: HashSet<Variable> = defining_query.head_variables().into_iter().collect();
    let exists: Vec<Variable> = {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for a in &defining_query.body {
            for v in a.variables() {
                if !head_vars.contains(&v) && seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    };
    let b_v =
        Ded::tgd(&format!("b{view_name}"), vec![head_atom], exists, defining_query.body.clone());
    (c_v, b_v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::builders::*;
    use crate::query::ConjunctiveQuery;

    fn v(n: &str) -> Variable {
        Variable::named(n)
    }
    fn t(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn tgd_and_egd_classification() {
        let base =
            Ded::tgd("base", vec![child(t("x"), t("y"))], vec![], vec![desc(t("x"), t("y"))]);
        assert!(base.is_tgd());
        assert!(!base.is_egd());
        assert!(!base.is_disjunctive());
        assert!(!base.is_denial());
        assert_eq!(base.premise_size(), 1);

        let key = Ded::egd(
            "key",
            vec![Atom::named("R", vec![t("k"), t("a")]), Atom::named("R", vec![t("k"), t("b")])],
            t("a"),
            t("b"),
        );
        assert!(key.is_egd());
        assert!(!key.is_tgd());
    }

    #[test]
    fn disjunctive_line_constraint() {
        // (line): desc(x,u) ∧ desc(y,u) → x=y ∨ desc(x,y) ∨ desc(y,x)
        let line = Ded::disjunctive(
            "line",
            vec![desc(t("x"), t("u")), desc(t("y"), t("u"))],
            vec![
                Conjunct::equalities(vec![(t("x"), t("y"))]),
                Conjunct::atoms(vec![desc(t("x"), t("y"))]),
                Conjunct::atoms(vec![desc(t("y"), t("x"))]),
            ],
        );
        assert!(line.is_disjunctive());
        assert_eq!(line.conclusions.len(), 3);
        assert_eq!(line.universal_variables().len(), 3);
    }

    #[test]
    fn denial_constraints() {
        let d = Ded::denial("no_self_child", vec![child(t("x"), t("x"))]);
        assert!(d.is_denial());
        assert_eq!(format!("{d}"), "[no_self_child] child#d.xml(x, x) → ⊥");
    }

    #[test]
    fn existential_variables_are_non_premise_conclusion_vars() {
        // ind: A(x,y) → ∃z B(y,z)
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![v("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let ex = ind.existential_variables(&ind.conclusions[0]);
        assert_eq!(ex, vec![v("z")]);
        let uni = ind.universal_variables();
        assert!(uni.contains(&v("x")) && uni.contains(&v("y")) && !uni.contains(&v("z")));
    }

    #[test]
    fn view_dependency_pair_matches_paper_example() {
        // V(x,z) :- A(x,y), B(y,z)
        let defq = ConjunctiveQuery::new("V").with_head(vec![t("x"), t("z")]).with_body(vec![
            Atom::named("A", vec![t("x"), t("y")]),
            Atom::named("B", vec![t("y"), t("z")]),
        ]);
        let (c_v, b_v) = view_dependencies("V", &defq);
        // cV: A(x,y) ∧ B(y,z) → V(x,z)
        assert_eq!(c_v.premise.len(), 2);
        assert_eq!(c_v.conclusions[0].atoms[0].predicate.name(), "V");
        assert!(c_v.conclusions[0].exists.is_empty());
        // bV: V(x,z) → ∃y A(x,y) ∧ B(y,z)
        assert_eq!(b_v.premise.len(), 1);
        assert_eq!(b_v.conclusions[0].exists, vec![v("y")]);
        assert_eq!(b_v.conclusions[0].atoms.len(), 2);
    }

    #[test]
    fn predicate_sets() {
        let base =
            Ded::tgd("base", vec![child(t("x"), t("y"))], vec![], vec![desc(t("x"), t("y"))]);
        assert!(base.premise_predicates().contains(&Predicate::new("child#d.xml")));
        assert!(base.conclusion_predicates().contains(&Predicate::new("desc#d.xml")));
    }

    #[test]
    fn conjunct_apply_substitution() {
        let c = Conjunct::atoms(vec![desc(t("x"), t("y"))]).with_equalities(vec![(t("x"), t("y"))]);
        let s = Substitution::from_pairs(vec![(v("x"), Term::constant_str("n1"))]).unwrap();
        let c2 = c.apply(&s);
        assert_eq!(c2.atoms[0].args[0], Term::constant_str("n1"));
        assert_eq!(c2.equalities[0].0, Term::constant_str("n1"));
    }

    #[test]
    fn premise_inequalities_tracked_in_universal_vars() {
        let d = Ded::tgd(
            "neq",
            vec![Atom::named("R", vec![t("x")])],
            vec![],
            vec![Atom::named("S", vec![t("x")])],
        )
        .with_premise_inequalities(vec![(t("x"), t("w"))]);
        assert!(d.universal_variables().contains(&v("w")));
    }
}
