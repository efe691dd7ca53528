//! Containment of conjunctive queries under DED constraints.
//!
//! `Q1 ⊆ Q2` under a set of dependencies Σ holds iff there is a containment
//! mapping from `Q2` into (every leaf of) the chase of `Q1` with Σ that is the
//! identity on the head. This is the classical chase-based containment test
//! the backchase's equivalence check is tested against; the engine's own
//! check is `mars_chase::maps_into` over the chase's resident instances.

use crate::chase::{naive_chase, ChaseBudget};
use crate::homomorphism::{find_homomorphism, AtomIndex};
use mars_cq::{ConjunctiveQuery, Ded, Substitution, Term};

/// Options controlling the containment test.
#[derive(Clone, Debug, Default)]
pub struct ContainmentOptions {
    /// Budget for the chases performed inside the test.
    pub budget: ChaseBudget,
}

impl ContainmentOptions {
    /// Options with a small budget (for unit tests).
    pub fn small() -> ContainmentOptions {
        ContainmentOptions { budget: ChaseBudget::small() }
    }
}

/// Build the initial substitution pairing `sub_query`'s head with the target
/// head positionally. Returns `None` if heads are incompatible (different
/// arity or mismatched constants).
fn head_alignment(sub_query: &ConjunctiveQuery, target_head: &[Term]) -> Option<Substitution> {
    if sub_query.head.len() != target_head.len() {
        return None;
    }
    let mut s = Substitution::new();
    for (a, b) in sub_query.head.iter().zip(target_head.iter()) {
        match a {
            Term::Var(v) => {
                if !s.bind(*v, *b) {
                    return None;
                }
            }
            Term::Const(_) => {
                if a != b {
                    return None;
                }
            }
        }
    }
    Some(s)
}

/// Does a containment mapping from `from` into the body of `into` exist, that
/// maps `from`'s head onto `into`'s head positionally?
pub fn containment_mapping(
    from: &ConjunctiveQuery,
    into: &ConjunctiveQuery,
) -> Option<Substitution> {
    ContainmentTarget::new(into).mapping_from(from)
}

/// A query prepared as the *target* of repeated containment tests: the
/// per-predicate atom index is built once instead of per call.
pub struct ContainmentTarget {
    head: Vec<Term>,
    index: AtomIndex,
}

impl ContainmentTarget {
    /// Prepare `into` as a containment target.
    pub fn new(into: &ConjunctiveQuery) -> ContainmentTarget {
        ContainmentTarget { head: into.head.clone(), index: AtomIndex::new(&into.body) }
    }

    /// Containment mapping from `from` into this target (head-preserving).
    ///
    /// When `from`'s head equals the target's head and every `from` atom
    /// occurs verbatim in the target body (checked through the per-predicate
    /// index), the identity is such a mapping and the homomorphism search is
    /// skipped — the common case for subqueries of a universal-plan branch
    /// checked against that same branch.
    pub fn mapping_from(&self, from: &ConjunctiveQuery) -> Option<Substitution> {
        if from.head == self.head && from.body.iter().all(|a| self.index.contains_exact(a)) {
            let mut identity = Substitution::new();
            for v in from.variables() {
                identity.set(v, Term::Var(v));
            }
            return Some(identity);
        }
        let init = head_alignment(from, &self.head)?;
        find_homomorphism(&from.body, &self.index, &init)
    }
}

/// `q1 ⊆ q2` under the dependencies `deds`.
///
/// The test chases `q1` and requires a containment mapping from `q2` into
/// **every** surviving leaf (for disjunctive dependencies). If the chase does
/// not terminate within the budget the test conservatively returns `false`.
pub fn contained_in(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    deds: &[Ded],
    opts: &ContainmentOptions,
) -> bool {
    if q1.head.len() != q2.head.len() {
        return false;
    }
    let tree = naive_chase(q1, deds, &opts.budget);
    if !tree.terminated() {
        return false;
    }
    if tree.leaves.is_empty() {
        // q1 is unsatisfiable under the constraints: contained in anything of
        // the same arity.
        return true;
    }
    tree.leaves.iter().all(|leaf| containment_mapping(q2, leaf).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::ded::view_dependencies;
    use mars_cq::{Atom, Variable};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn classic_containment_without_constraints() {
        // Q1(x) :- R(x,y), R(y,z)   ⊆   Q2(x) :- R(x,y)
        let q1 = ConjunctiveQuery::new("Q1").with_head(vec![t("x")]).with_body(vec![
            Atom::named("R", vec![t("x"), t("y")]),
            Atom::named("R", vec![t("y"), t("z")]),
        ]);
        let q2 = ConjunctiveQuery::new("Q2")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("R", vec![t("x"), t("y")])]);
        let opts = ContainmentOptions::small();
        assert!(contained_in(&q1, &q2, &[], &opts));
        assert!(!contained_in(&q2, &q1, &[], &opts));
    }

    #[test]
    fn head_arity_mismatch_is_not_contained() {
        let q1 = ConjunctiveQuery::new("Q1")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("R", vec![t("x")])]);
        let q2 = ConjunctiveQuery::new("Q2")
            .with_head(vec![t("x"), t("y")])
            .with_body(vec![Atom::named("R", vec![t("x")])]);
        assert!(!contained_in(&q1, &q2, &[], &ContainmentOptions::small()));
    }

    /// The Section 2.3 example: S(x) :- V(x,z) is equivalent to
    /// Q(x) :- A(x,y) under (ind), (cV), (bV).
    #[test]
    fn section_2_3_view_rewriting_equivalence() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("A", vec![t("x"), t("y")])]);
        let s = ConjunctiveQuery::new("S")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("V", vec![t("x"), t("z")])]);
        let ind = Ded::tgd(
            "ind",
            vec![Atom::named("A", vec![t("x"), t("y")])],
            vec![Variable::named("z")],
            vec![Atom::named("B", vec![t("y"), t("z")])],
        );
        let defq = ConjunctiveQuery::new("V").with_head(vec![t("x"), t("z")]).with_body(vec![
            Atom::named("A", vec![t("x"), t("y")]),
            Atom::named("B", vec![t("y"), t("z")]),
        ]);
        let (c_v, b_v) = view_dependencies("V", &defq);
        let deds = vec![ind, c_v, b_v];
        let opts = ContainmentOptions::small();
        assert!(contained_in(&q, &s, &deds, &opts) && contained_in(&s, &q, &deds, &opts));
        // Without (ind), Q is not contained in the rewriting (V requires a
        // B-fact that Q does not imply).
        let deds_no_ind = vec![deds[1].clone(), deds[2].clone()];
        assert!(!contained_in(&q, &s, &deds_no_ind, &opts));
    }

    #[test]
    fn containment_with_constant_heads() {
        let q1 = ConjunctiveQuery::new("Q1")
            .with_head(vec![Term::constant_str("k")])
            .with_body(vec![Atom::named("R", vec![Term::constant_str("k")])]);
        let q2 = ConjunctiveQuery::new("Q2")
            .with_head(vec![Term::constant_str("k")])
            .with_body(vec![Atom::named("R", vec![t("x")])]);
        let opts = ContainmentOptions::small();
        assert!(contained_in(&q1, &q2, &[], &opts));
        // Mismatched head constants are never contained.
        let q3 = ConjunctiveQuery::new("Q3")
            .with_head(vec![Term::constant_str("other")])
            .with_body(vec![Atom::named("R", vec![t("x")])]);
        assert!(!contained_in(&q1, &q3, &[], &opts));
    }

    #[test]
    fn unsatisfiable_query_is_contained_in_everything() {
        // Q1's body violates a denial constraint → chase fails all branches.
        let q1 = ConjunctiveQuery::new("Q1")
            .with_head(vec![t("x")])
            .with_body(vec![child(t("x"), t("x"))]);
        let q2 = ConjunctiveQuery::new("Q2")
            .with_head(vec![t("y")])
            .with_body(vec![Atom::named("Whatever", vec![t("y")])]);
        let denial = Ded::denial("no_self", vec![child(t("u"), t("u"))]);
        assert!(contained_in(&q1, &q2, &[denial], &ContainmentOptions::small()));
    }

    #[test]
    fn containment_mapping_respects_head() {
        // Q2(y) :- R(x,y) has no containment mapping into Q1(x) :- R(x,y)
        // because the head positions differ.
        let q1 = ConjunctiveQuery::new("Q1")
            .with_head(vec![t("x")])
            .with_body(vec![Atom::named("R", vec![t("x"), t("y")])]);
        let q2 = ConjunctiveQuery::new("Q2")
            .with_head(vec![t("y")])
            .with_body(vec![Atom::named("R", vec![t("x"), t("y")])]);
        assert!(containment_mapping(&q1, &q1).is_some());
        assert!(containment_mapping(&q2, &q1).is_none());
    }
}
