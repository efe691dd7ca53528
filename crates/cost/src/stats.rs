//! The statistics the physical planner reads off a relational store.
//!
//! `mars_storage::RelationalDatabase`, the one implementor, maintains exact
//! per-relation tuple counts on insert and counts per-column distincts on
//! first read; [`crate::physical`] and [`crate::route`] plan against this
//! trait, so their tests can hand them fixed numbers instead.
//!
//! All counters are **exact** (maintained on the insert path, never sampled)
//! and **advisory**: they steer plan shape and cost only — a wrong count
//! can produce a slow plan, never a wrong answer. Whether a relation is held
//! at all is not advisory: a zero count says "empty", and only
//! [`StatisticsCatalog::holds`] tells it from "absent". A relation the
//! store does not hold (a document whose encoding was never loaded, a view
//! never materialized) makes every route that scans it infeasible
//! ([`crate::route::unheld_relation`]), where scanning it as empty would
//! answer with no rows.

use mars_cq::Predicate;

/// Exact relation-level statistics of a tuple store. Methods take the
/// relation by [`Predicate`]; unknown relations report zero
/// tuples/distincts, and [`StatisticsCatalog::holds`] tells them from empty
/// ones.
pub trait StatisticsCatalog {
    /// Whether the store holds `relation`, empty or not.
    fn holds(&self, relation: Predicate) -> bool;

    /// Number of tuples currently stored in `relation` (0 if absent).
    fn tuple_count(&self, relation: Predicate) -> usize;

    /// Exact number of distinct values in column `col` of `relation`
    /// (0 for an absent relation or an out-of-arity column).
    fn distinct_in_column(&self, relation: Predicate, col: usize) -> usize;
}
