//! # mars-cost — the storage planner of MARS
//!
//! The backchase picks the cheapest *reformulation* over the proprietary
//! schema; this crate decides how one runs on the stores that hold it. It
//! reads GReX navigation through `mars_cq`'s vocabulary (`NavBase`,
//! `Atom::navigation`) and provides:
//!
//! * the [`StatisticsCatalog`] trait: read access to the exact per-relation
//!   counters (tuple counts, per-column distincts) the relational store
//!   maintains,
//! * [`physical_plan`], the logical→physical compiler turning a conjunctive
//!   query into an executable operator tree (pruned scans with constant
//!   pushdown, statistics-ordered hash joins with chosen build sides,
//!   residual filters, project/distinct) — executed by `mars-storage`.
//!   Handed [`NavigationStatistics`], it plans the atoms over stored
//!   documents as one [`NavScan`] leaf run by native navigation, so one tree
//!   serves every route and [`PhysicalPlan::estimated_cost`] prices them all,
//! * [`route_query`], the backend router: prices the all-scans tree against
//!   the native one and returns a deterministic [`RoutingDecision`] whose
//!   [`Route`] names the cheaper tree's leaves and which keeps that tree —
//!   executed by `mars-storage`'s `BackendRouter`; [`route_forced`] keeps
//!   the tree of a requested route instead. A tree names the query's terms
//!   by [`Position`], so it runs every query of its shape. The native tree's
//!   `NavScan` leaf holds its atoms in the order the one orderer of native
//!   navigation chose (next the atom of smallest estimated output given
//!   what is bound, priced from each document's [`NavStats`]), and
//!   `mars-storage` compiles exactly that order into its navigation kernel.

#![deny(missing_docs)]

pub mod physical;
pub mod route;
pub mod stats;

pub use physical::{physical_plan, BuildSide, NavScan, Operand, PhysicalPlan, Position, TableScan};
pub use route::{
    route_forced, route_query, unheld_relation, NavStats, NavigationStatistics, Route, RouteCosts,
    RoutingDecision,
};
pub use stats::StatisticsCatalog;
