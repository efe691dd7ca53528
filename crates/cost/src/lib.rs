//! # mars-cost — cost estimation and backend routing for MARS
//!
//! The backchase phase of the C&B algorithm compares candidate reformulations
//! (subqueries of the universal plan) by estimated cost (Section 2.3 of the
//! paper). The paper asks one thing of the cost model: it must be
//! **monotone** — a subquery never costs more than a superquery over the
//! same data — so that the cost-based pruning of the backchase is guaranteed
//! to return the optimal minimal reformulation.
//!
//! This crate provides:
//!
//! * [`atom_cost`], the backchase's one cost model: a fixed weight per body
//!   atom (descendant navigation costlier than child navigation, as
//!   backchase pruning criterion 1 assumes), summed over a query — additive,
//!   hence monotone. An exhaustive backchase returns every minimal
//!   reformulation, so any other model can rank them afterwards,
//! * the [`StatisticsCatalog`] trait — the one statistics interface: shared
//!   read access to the exact per-relation counters (tuple counts,
//!   per-column distincts) that both the chase's symbolic instance and the
//!   storage layer maintain incrementally on insert,
//! * [`physical_plan`], the logical→physical compiler turning a conjunctive
//!   query into an executable operator tree (pruned scans with constant
//!   pushdown, statistics-ordered hash joins with chosen build sides,
//!   residual filters, project/distinct) — executed by `mars-storage`.
//!   Handed [`NavigationStatistics`], it plans the atoms over stored
//!   documents as one [`NavScan`] leaf run by native navigation, so one tree
//!   serves every route and [`PhysicalPlan::estimated_cost`] prices them all,
//! * [`route_query`], the backend router: prices the all-scans tree against
//!   the native one and returns a deterministic [`RoutingDecision`] whose
//!   [`Route`] names the cheaper tree's leaves — executed by
//!   `mars-storage`'s `BackendRouter`,
//! * [`plan_navigation`], the one orderer of native navigation: it picks the
//!   next navigation atom by estimated output cardinality given what is
//!   bound; the `NavScan` leaf stores that order and its price, and
//!   `mars-storage` compiles exactly it into its navigation kernel.

#![deny(missing_docs)]

pub mod estimator;
pub mod physical;
pub mod route;
pub mod stats;

pub use estimator::atom_cost;
pub use physical::{physical_plan, BuildSide, NavScan, Operand, PhysicalPlan, TableScan};
pub use route::{
    navigation_atom, plan_navigation, route_query, NavBase, NavOrder, NavigationStatistics, Route,
    RouteCosts, RoutingDecision,
};
pub use stats::StatisticsCatalog;

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::{Atom, ConjunctiveQuery, Term};

    #[test]
    fn default_estimators_are_monotone_on_subqueries() {
        let q = ConjunctiveQuery::new("Q").with_head(vec![Term::var("x")]).with_body(vec![
            Atom::named("R", vec![Term::var("x"), Term::var("y")]),
            Atom::named("S", vec![Term::var("y"), Term::var("z")]),
            Atom::named("T", vec![Term::var("z"), Term::var("w")]),
        ]);
        let cost = |q: &ConjunctiveQuery| q.body.iter().map(atom_cost).sum::<f64>();
        assert!(cost(&q.subquery(&[0, 1])) <= cost(&q));
    }
}
