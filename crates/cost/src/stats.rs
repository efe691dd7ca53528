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

    /// Distinct estimate for a composite key over `cols`: the maximum of the
    /// per-column distinct counts, clamped to `[1, tuple_count]`. A composite
    /// key has at least as many distinct values as its most selective column,
    /// so this conservative under-estimate errs toward predicting *more*
    /// matches (less selective), never fewer.
    fn distinct_for_columns(&self, relation: Predicate, cols: &[usize]) -> usize {
        cols.iter()
            .map(|&c| self.distinct_in_column(relation, c))
            .max()
            .unwrap_or(0)
            .clamp(1, self.tuple_count(relation).max(1))
    }

    /// Expected number of tuples matching one key over `cols` within a window
    /// of `window` tuples, assuming uniformly distributed keys:
    /// `⌈window / distinct(cols)⌉`.
    fn expected_matches(&self, relation: Predicate, cols: &[usize], window: usize) -> usize {
        window.div_ceil(self.distinct_for_columns(relation, cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A toy statistics source for trait-level tests.
    struct Fixed(HashMap<Predicate, (usize, Vec<usize>)>);

    impl StatisticsCatalog for Fixed {
        fn tuple_count(&self, relation: Predicate) -> usize {
            self.0.get(&relation).map(|(n, _)| *n).unwrap_or(0)
        }
        fn column_count(&self, relation: Predicate) -> usize {
            self.0.get(&relation).map(|(_, d)| d.len()).unwrap_or(0)
        }
        fn distinct_in_column(&self, relation: Predicate, col: usize) -> usize {
            self.0.get(&relation).and_then(|(_, d)| d.get(col)).copied().unwrap_or(0)
        }
    }

    fn fixture() -> Fixed {
        let mut m = HashMap::new();
        m.insert(Predicate::new("R"), (100, vec![100, 10]));
        m.insert(Predicate::new("S"), (0, vec![]));
        Fixed(m)
    }

    #[test]
    fn composite_distincts_take_the_max_and_clamp() {
        let s = fixture();
        let r = Predicate::new("R");
        assert_eq!(s.distinct_for_columns(r, &[0, 1]), 100);
        assert_eq!(s.distinct_for_columns(r, &[1]), 10);
        assert_eq!(s.expected_matches(r, &[1], 100), 10);
        // Absent relation: distincts clamp to 1, never 0 (no divide-by-zero).
        assert_eq!(s.distinct_for_columns(Predicate::new("missing"), &[0]), 1);
    }
}
