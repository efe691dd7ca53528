//! The plug-in cost estimator interface and a simple weighted-atom model.

use mars_cq::{AtomSet, ConjunctiveQuery};

/// A plug-in cost estimator.
///
/// MARS only requires the model to be **monotone**: if `S` is a subquery of
/// `U` (its body atoms are a subset of `U`'s), then `estimate(S) <=
/// estimate(U)`. Under monotonicity the cost-based pruning of the backchase
/// (discard any subquery costing more than the best reformulation found so
/// far, together with all its superqueries) never discards the optimum.
pub trait CostEstimator: Send + Sync {
    /// Estimated cost of evaluating the query.
    fn estimate(&self, query: &ConjunctiveQuery) -> f64;

    /// For *additive* models, the per-atom cost contributions of `query`'s
    /// body: any subquery's cost is then the sum over its atoms, which lets
    /// the backchase fold a subset bitmask over precomputed weights instead
    /// of calling [`CostEstimator::estimate`] per candidate. Models whose
    /// cost is not a per-atom sum return `None` (the default) and the
    /// backchase falls back to a full estimate per candidate.
    fn atom_costs(&self, _query: &ConjunctiveQuery) -> Option<Vec<f64>> {
        None
    }

    /// A short human-readable name, used in experiment output.
    fn name(&self) -> &'static str {
        "cost-estimator"
    }
}

/// Fold precomputed per-atom costs ([`CostEstimator::atom_costs`]) over a
/// candidate atom set: the cost of the induced subquery under an additive
/// model. This is the backchase's per-candidate cost path — an O(words)
/// bitset iteration instead of a full estimate, for pools of any width (the
/// former `u128`-mask fold capped pools at 128 atoms).
pub fn fold_atom_costs(costs: &[f64], atoms: &AtomSet) -> f64 {
    atoms.iter().map(|i| costs[i]).sum()
}

/// A simple monotone model charging a fixed weight per body atom, with
/// navigation-aware weights: `desc` (descendant) atoms are charged more than
/// `child` atoms, reflecting the paper's observation (pruning criterion 1 in
/// Section 3.2) that "in any reasonable cost model accessing the descendants
/// of a node is at least as expensive as accessing its children".
#[derive(Clone, Debug)]
pub struct WeightedAtomEstimator {
    /// Weight of a `child` atom.
    pub child_weight: f64,
    /// Weight of a `desc` atom.
    pub desc_weight: f64,
    /// Weight of any other atom.
    pub default_weight: f64,
}

impl Default for WeightedAtomEstimator {
    fn default() -> Self {
        WeightedAtomEstimator { child_weight: 1.0, desc_weight: 4.0, default_weight: 2.0 }
    }
}

impl WeightedAtomEstimator {
    fn atom_cost(&self, a: &mars_cq::Atom) -> f64 {
        // GReX predicates carry a `#document` suffix.
        match a.predicate.grex().0 {
            "child" => self.child_weight,
            "desc" => self.desc_weight,
            _ => self.default_weight,
        }
    }
}

impl CostEstimator for WeightedAtomEstimator {
    fn estimate(&self, query: &ConjunctiveQuery) -> f64 {
        query.body.iter().map(|a| self.atom_cost(a)).sum()
    }

    fn atom_costs(&self, query: &ConjunctiveQuery) -> Option<Vec<f64>> {
        Some(query.body.iter().map(|a| self.atom_cost(a)).collect())
    }

    fn name(&self) -> &'static str {
        "weighted-atom"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{Atom, Term};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn desc_costs_more_than_child() {
        let est = WeightedAtomEstimator::default();
        let with_child = ConjunctiveQuery::new("C")
            .with_head(vec![t("x")])
            .with_body(vec![child(t("x"), t("y"))]);
        let with_desc = ConjunctiveQuery::new("D")
            .with_head(vec![t("x")])
            .with_body(vec![desc(t("x"), t("y"))]);
        assert!(est.estimate(&with_desc) > est.estimate(&with_child));
    }

    #[test]
    fn monotone_in_number_of_atoms() {
        let est = WeightedAtomEstimator::default();
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x")]).with_body(vec![
            Atom::named("R", vec![t("x"), t("y")]),
            Atom::named("S", vec![t("y"), t("z")]),
            desc(t("x"), t("z")),
        ]);
        for k in 1..=q.body.len() {
            let idx: Vec<usize> = (0..k).collect();
            let sub = q.subquery(&idx);
            assert!(est.estimate(&sub) <= est.estimate(&q));
        }
    }

    #[test]
    fn name_reported() {
        assert_eq!(WeightedAtomEstimator::default().name(), "weighted-atom");
    }

    /// The additivity contract of `atom_costs`: the per-atom costs of any
    /// query sum to its estimate, so an [`AtomSet`] fold over them equals a
    /// full estimate of the corresponding subquery.
    #[test]
    fn atom_costs_sum_to_estimate() {
        let est = WeightedAtomEstimator::default();
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("x")]).with_body(vec![
            child(t("x"), t("y")),
            desc(t("y"), t("z")),
            Atom::named("V", vec![t("z")]),
        ]);
        let costs = est.atom_costs(&q).expect("weighted-atom model is additive");
        assert_eq!(costs.len(), q.body.len());
        assert_eq!(costs.iter().sum::<f64>(), est.estimate(&q));
        // Per-subquery agreement, through the backchase's fold path.
        let sub = q.subquery(&[0, 2]);
        let set = AtomSet::from_indices([0, 2]);
        assert_eq!(fold_atom_costs(&costs, &set), est.estimate(&sub));
        assert_eq!(costs[0] + costs[2], est.estimate(&sub));
    }
}
