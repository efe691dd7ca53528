//! Conjunctive queries (with inequalities).
//!
//! MARS compiles the navigation part of client XQueries (XBind queries) into
//! conjunctive queries over the GReX schema; views and subqueries of the
//! universal plan are conjunctive queries as well. Inequalities arise from
//! XQuery `where` clauses.

use crate::atom::{Atom, Predicate};
use crate::fx::FxHashSet;
use crate::substitution::Substitution;
use crate::term::{Term, Variable};
use std::collections::BTreeSet;
use std::fmt;

/// A conjunctive query with optional inequality side conditions:
///
/// `Q(head) :- body, t1 ≠ t1', ...`
#[derive(Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Query name (used for display, view naming and reformulation labels).
    pub name: String,
    /// Head (answer) terms. Constants are allowed.
    pub head: Vec<Term>,
    /// Body atoms (a conjunction).
    pub body: Vec<Atom>,
    /// Inequality side conditions.
    pub inequalities: Vec<(Term, Term)>,
}

impl ConjunctiveQuery {
    /// An empty query with the given name.
    pub fn new(name: &str) -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: name.to_string(),
            head: Vec::new(),
            body: Vec::new(),
            inequalities: Vec::new(),
        }
    }

    /// Builder: set the head.
    pub fn with_head(mut self, head: Vec<Term>) -> Self {
        self.head = head;
        self
    }

    /// Builder: set the body.
    pub fn with_body(mut self, body: Vec<Atom>) -> Self {
        self.body = body;
        self
    }

    /// Builder: add one atom.
    pub fn with_atom(mut self, atom: Atom) -> Self {
        self.body.push(atom);
        self
    }

    /// Builder: add an inequality.
    pub fn with_inequality(mut self, a: Term, b: Term) -> Self {
        self.inequalities.push((a, b));
        self
    }

    /// All variables of the query (head and body), deduplicated, in first-occurrence order.
    pub fn variables(&self) -> Vec<Variable> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        let mut push = |t: &Term| {
            if let Term::Var(v) = t {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
        };
        for t in &self.head {
            push(t);
        }
        for a in &self.body {
            for t in &a.args {
                push(t);
            }
        }
        for (a, b) in &self.inequalities {
            push(a);
            push(b);
        }
        out
    }

    /// The set of head variables.
    pub fn head_variables(&self) -> BTreeSet<Variable> {
        self.head.iter().filter_map(|t| t.as_var()).collect()
    }

    /// The set of predicates used in the body.
    pub fn predicates(&self) -> BTreeSet<Predicate> {
        self.body.iter().map(|a| a.predicate).collect()
    }

    /// Apply a substitution to head, body and inequalities.
    pub fn apply(&self, s: &Substitution) -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: self.name.clone(),
            head: s.apply_terms(&self.head),
            body: s.apply_atoms(&self.body),
            inequalities: self
                .inequalities
                .iter()
                .map(|(a, b)| (s.apply_term(*a), s.apply_term(*b)))
                .collect(),
        }
    }

    /// A *safe* query binds every head variable in the body.
    pub fn is_safe(&self) -> bool {
        let body_vars: FxHashSet<Variable> = self.body.iter().flat_map(|a| a.variables()).collect();
        self.head_variables().iter().all(|v| body_vars.contains(v))
    }

    /// Whether any inequality is trivially violated (same term on both sides)
    /// or trivially satisfied constants; used to detect unsatisfiable queries.
    pub fn has_contradictory_inequality(&self) -> bool {
        self.inequalities.iter().any(|(a, b)| a == b)
    }

    /// The sub-query induced by the body atoms at the given indices (same head).
    ///
    /// This is exactly the notion of *subquery of the universal plan* from the
    /// backchase phase (Section 2.3 of the paper).
    pub fn subquery(&self, atom_indices: &[usize]) -> ConjunctiveQuery {
        let body = atom_indices.iter().map(|&i| self.body[i].clone()).collect();
        self.subquery_with(body, format!("{}[{}]", self.name, atom_indices.len()))
    }

    /// The sub-query named `name` whose body is `body`, atoms of this
    /// query: the same head, and each inequality whose variables `body`
    /// mentions (one over a variable the body projects away is dropped).
    pub fn subquery_with(&self, body: Vec<Atom>, name: String) -> ConjunctiveQuery {
        let inequalities = if self.inequalities.is_empty() {
            Vec::new()
        } else {
            let vars: FxHashSet<Variable> = body.iter().flat_map(|a| a.variables()).collect();
            let bound = |t: &Term| t.as_var().is_none_or(|v| vars.contains(&v));
            self.inequalities.iter().filter(|(a, b)| bound(a) && bound(b)).copied().collect()
        };
        ConjunctiveQuery { name, head: self.head.clone(), body, inequalities }
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        for (a, b) in &self.inequalities {
            write!(f, ", {a} != {b}")?;
        }
        Ok(())
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::builders::*;

    fn sample() -> ConjunctiveQuery {
        // Bo(a) :- root(r), desc(r,d), child(d,c), tag(c,"author"), text(c,a)
        ConjunctiveQuery::new("Bo").with_head(vec![Term::var("a")]).with_body(vec![
            root(Term::var("r")),
            desc(Term::var("r"), Term::var("d")),
            child(Term::var("d"), Term::var("c")),
            tag(Term::var("c"), "author"),
            text(Term::var("c"), Term::var("a")),
        ])
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let q = sample();
        let names: Vec<String> = q.variables().iter().map(|v| v.display_name()).collect();
        assert_eq!(names, vec!["a", "r", "d", "c"]);
    }

    #[test]
    fn safety() {
        assert!(sample().is_safe());
        let unsafe_q = ConjunctiveQuery::new("U")
            .with_head(vec![Term::var("z")])
            .with_body(vec![root(Term::var("r"))]);
        assert!(!unsafe_q.is_safe());
    }

    #[test]
    fn predicates_and_joins() {
        let q = sample();
        let preds: Vec<&str> = q.predicates().iter().map(|p| p.name()).collect();
        assert!(preds.contains(&"child#d.xml"));
        assert!(preds.contains(&"root#d.xml"));
    }

    #[test]
    fn subquery_projects_inequalities() {
        let q = sample().with_inequality(Term::var("a"), Term::constant_str("x"));
        // Keep only atoms mentioning c and a: child, tag, text -> indices 2,3,4
        let s = q.subquery(&[2, 3, 4]);
        assert_eq!(s.body.len(), 3);
        assert_eq!(s.inequalities.len(), 1);
        // Dropping `text` removes variable a from the body, so the inequality
        // on `a` is dropped as well.
        let s2 = q.subquery(&[2, 3]);
        assert!(s2.inequalities.is_empty());
    }

    #[test]
    fn apply_substitution_to_query() {
        let q = sample();
        let s = Substitution::from_pairs(vec![(Variable::named("a"), Term::constant_str("Knuth"))])
            .unwrap();
        let q2 = q.apply(&s);
        assert_eq!(q2.head[0], Term::constant_str("Knuth"));
        assert!(q2.body[4].args.contains(&Term::constant_str("Knuth")));
    }

    #[test]
    fn contradictory_inequalities() {
        let q = sample().with_inequality(Term::var("a"), Term::var("a"));
        assert!(q.has_contradictory_inequality());
        assert!(!sample().has_contradictory_inequality());
    }

    #[test]
    fn display_format() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_body(vec![Atom::named("A", vec![Term::var("x"), Term::var("y")])])
            .with_inequality(Term::var("x"), Term::var("y"));
        assert_eq!(format!("{q}"), "Q(x) :- A(x, y), x != y");
    }
}
