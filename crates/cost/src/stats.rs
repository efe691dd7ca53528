//! The shared statistics catalog: exact per-relation counters exposed by
//! every substrate that stores tuples.
//!
//! The chase grew these counters first — `mars_chase`'s symbolic instance
//! maintains tuple counts and exact per-column distinct counts incrementally
//! on insert. The storage layer stores its ground facts in the same
//! representation, so it maintains the same counters on insert/load. This
//! trait is the shared read interface: `mars_chase::SymbolicInstance` and
//! `mars_storage::RelationalDatabase` both implement it, and the physical
//! planner ([`crate::physical`]) plans against it without caring which
//! substrate is underneath.
//!
//! All counters are **exact** (maintained on the insert path, never sampled)
//! and **advisory**: they steer plan shape and cost only — a wrong statistic
//! can produce a slow plan, never a wrong answer.

use mars_cq::Predicate;

/// Exact relation-level statistics of a tuple store.
///
/// Implementors: `mars_chase::SymbolicInstance` (the chase's symbolic
/// instance `Inst(Q)`) and `mars_storage::RelationalDatabase` (materialized
/// ground facts). Methods take the relation by [`Predicate`]; unknown
/// relations report zero tuples/columns/distincts.
pub trait StatisticsCatalog {
    /// Number of tuples currently stored in `relation` (0 if absent).
    fn tuple_count(&self, relation: Predicate) -> usize;

    /// Arity of `relation` as observed from its tuples (0 if absent/empty).
    fn column_count(&self, relation: Predicate) -> usize;

    /// Exact number of distinct values in column `col` of `relation`
    /// (0 for an absent relation or an out-of-arity column).
    fn distinct_in_column(&self, relation: Predicate, col: usize) -> usize;
}
