//! The backchase's cost model: a fixed weight per body atom.

use mars_cq::Atom;

/// Weight of a `child` atom.
const CHILD: f64 = 1.0;
/// Weight of a `desc` atom.
const DESC: f64 = 4.0;
/// Weight of any other atom.
const OTHER: f64 = 2.0;

/// The estimated cost of one body atom. A query costs the sum over its body,
/// so the model is additive — the backchase prices a candidate by folding
/// the pool's per-atom costs over its atom set — and **monotone**: a
/// subquery never costs more than the query it was taken from, which is all
/// the cost-based pruning of the backchase needs to never discard the optimum
/// (Section 2.3).
///
/// Navigation is weighted as backchase pruning criterion 1 (Section 3.2)
/// assumes: "in any reasonable cost model accessing the descendants of a
/// node is at least as expensive as accessing its children". GReX
/// predicates are matched with or without their `#document` suffix.
pub fn atom_cost(atom: &Atom) -> f64 {
    match atom.predicate.grex().0 {
        "child" => CHILD,
        "desc" => DESC,
        _ => OTHER,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{ConjunctiveQuery, Term};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    fn cost(q: &ConjunctiveQuery) -> f64 {
        q.body.iter().map(atom_cost).sum()
    }

    #[test]
    fn desc_costs_more_than_child() {
        assert!(atom_cost(&desc(t("x"), t("y"))) > atom_cost(&child(t("x"), t("y"))));
        let suffixed = Atom::named("desc#d.xml", vec![t("x"), t("y")]);
        assert_eq!(atom_cost(&suffixed), atom_cost(&desc(t("x"), t("y"))));
    }

    #[test]
    fn monotone_in_number_of_atoms() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x")]).with_body(vec![
            Atom::named("R", vec![t("x"), t("y")]),
            Atom::named("S", vec![t("y"), t("z")]),
            desc(t("x"), t("z")),
        ]);
        for k in 1..=q.body.len() {
            let idx: Vec<usize> = (0..k).collect();
            assert!(cost(&q.subquery(&idx)) <= cost(&q));
        }
    }

    /// Additivity: the costs of two disjoint subqueries sum to the cost of
    /// their union, so the backchase's per-candidate fold over the pool's
    /// atom costs prices every subquery exactly.
    #[test]
    fn atom_costs_sum_to_estimate() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x")]).with_body(vec![
            child(t("x"), t("y")),
            desc(t("y"), t("z")),
            Atom::named("V", vec![t("z")]),
        ]);
        assert_eq!(cost(&q), 7.0);
        assert_eq!(cost(&q.subquery(&[0, 2])) + cost(&q.subquery(&[1])), cost(&q));
    }
}
