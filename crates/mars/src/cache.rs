//! The shape-keyed plan cache behind [`crate::MarsService`].
//!
//! Entries are keyed on `(shape key, dependency fingerprint)`:
//!
//! * the **shape key** ([`mars_xquery::shape_of`]) is the incoming query with
//!   variables alpha-renamed and non-reserved constants parameterized out, so
//!   arrivals of the same template with different constants share one entry;
//! * the **fingerprint** ([`crate::Mars::fingerprint`]) digests the compiled
//!   dependency set, the proprietary schema and the engine options, so a
//!   changed correspondence can never serve a stale plan — entries of an old
//!   fingerprint are unreachable by construction and are swept out by
//!   [`PlanCache::invalidate_except`].
//!
//! On a hit the cached [`BlockReformulation`] is **re-substituted**: the
//! stored entry's variables and constants are mapped pairwise onto the new
//! query's (both shapes list them in first-occurrence order, and equal shape
//! keys guarantee the lists align), every query in the result is rewritten in
//! one simultaneous pass, and nothing derived from them is kept beside them
//! (the SQL is rendered from the rewritten best query when asked for). The
//! service layer property-tests that this equals a cold reformulation byte
//! for byte.

use crate::result::BlockReformulation;
use mars_cq::{ConjunctiveQuery, Constant, Term, Variable};
use mars_xquery::QueryShape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Hit/miss/invalidation counters and the current entry count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a cold reformulation.
    pub misses: u64,
    /// Entries dropped because their fingerprint no longer matches.
    pub invalidations: u64,
    /// Cold results that were computed but **not** inserted because they were
    /// degraded (a budget cut them short). Cache hygiene rule: a degraded
    /// answer is never cached — the next arrival of the shape must get a real
    /// attempt.
    pub degraded_uncached: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// One cached reformulation: the shape it was stored under (whose
/// `variables`/`constants` lists drive re-substitution) and the result.
struct CachedEntry {
    shape: QueryShape,
    block: BlockReformulation,
}

/// A concurrent, shape-keyed reformulation cache (see the module docs).
#[derive(Default)]
pub struct PlanCache {
    entries: Mutex<HashMap<(String, u64), CachedEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    degraded_uncached: AtomicU64,
}

impl PlanCache {
    // A panic while this guard is held (say, inside `resubstitute` during a
    // lookup) leaves the map valid — every update is one insert or removal of
    // a finished entry — so a poisoned lock is recovered instead of turning
    // one failed request into an outage.
    fn entries(&self) -> MutexGuard<'_, HashMap<(String, u64), CachedEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Counters and entry count. The counters are monotone across the cache's
    /// lifetime; `entries` is the instantaneous resident count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            invalidations: self.invalidations.load(Ordering::SeqCst),
            degraded_uncached: self.degraded_uncached.load(Ordering::SeqCst),
            entries: self.entries().len(),
        }
    }

    /// Record that a cold result was withheld from the cache because it was
    /// degraded (see [`CacheStats::degraded_uncached`]).
    pub fn note_degraded_uncached(&self) {
        self.degraded_uncached.fetch_add(1, Ordering::SeqCst);
    }

    /// Look up a reformulation for `shape` under `fingerprint`. On a hit the
    /// stored result is re-substituted with `shape`'s variables and
    /// constants; on a miss `None` is returned and the miss is counted.
    pub fn lookup(&self, shape: &QueryShape, fingerprint: u64) -> Option<BlockReformulation> {
        let entries = self.entries();
        let entry = entries.get(&(shape.key.clone(), fingerprint));
        match entry {
            Some(e)
                if e.shape.variables.len() == shape.variables.len()
                    && e.shape.constants.len() == shape.constants.len() =>
            {
                let block = resubstitute(&e.block, &e.shape, shape);
                drop(entries);
                self.hits.fetch_add(1, Ordering::SeqCst);
                Some(block)
            }
            _ => {
                drop(entries);
                self.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Insert a reformulation computed cold for `shape` under `fingerprint`.
    /// First writer wins: a concurrent duplicate insert leaves the resident
    /// entry in place, so racing warm readers keep seeing one plan.
    pub fn insert(&self, shape: QueryShape, fingerprint: u64, block: BlockReformulation) {
        let mut entries = self.entries();
        entries.entry((shape.key.clone(), fingerprint)).or_insert(CachedEntry { shape, block });
    }

    /// Drop every entry whose fingerprint differs from `current` (the
    /// spec/dependency set changed). Dropped entries are counted as
    /// invalidations.
    pub fn invalidate_except(&self, current: u64) {
        let mut entries = self.entries();
        let before = entries.len();
        entries.retain(|(_, fp), _| *fp == current);
        let dropped = (before - entries.len()) as u64;
        drop(entries);
        self.invalidations.fetch_add(dropped, Ordering::SeqCst);
    }
}

/// Rewrite a cached reformulation from the shape it was stored under to the
/// shape of the incoming query: variables and constants are mapped pairwise
/// (position `i` of one list to position `i` of the other — both are in
/// first-occurrence order and the equal shape key guarantees alignment), and
/// every query is rewritten in one simultaneous pass. The SQL is re-rendered
/// from the rewritten best query so constant literals in `WHERE` clauses
/// track the substitution.
fn resubstitute(
    block: &BlockReformulation,
    stored: &QueryShape,
    incoming: &QueryShape,
) -> BlockReformulation {
    let vars: HashMap<Variable, Variable> = stored
        .variables
        .iter()
        .zip(incoming.variables.iter())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (Variable::named(a), Variable::named(b)))
        .collect();
    let consts: HashMap<Constant, Constant> = stored
        .constants
        .iter()
        .zip(incoming.constants.iter())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (Constant::str(a), Constant::str(b)))
        .collect();
    if vars.is_empty() && consts.is_empty() {
        return block.clone();
    }
    let q = |query: &ConjunctiveQuery| remap_query(query, &vars, &consts);
    let mut result = block.result.clone();
    result.universal_plan = q(&result.universal_plan);
    result.initial = result.initial.as_ref().map(&q);
    result.minimal = result.minimal.iter().map(|(m, c)| (q(m), *c)).collect();
    result.best = result.best.as_ref().map(|(b, c)| (q(b), *c));
    BlockReformulation {
        name: block.name.clone(),
        compiled: q(&block.compiled),
        result,
        // Routing depends on the query shape and the store statistics, not
        // on the constants a shape abstracts over — replay it verbatim.
        route: block.route.clone(),
        duration: block.duration,
    }
}

/// One simultaneous pass: every term is looked up in both maps exactly once,
/// so `a→b, b→a` swaps correctly rather than cascading.
fn remap_term(
    t: Term,
    vars: &HashMap<Variable, Variable>,
    consts: &HashMap<Constant, Constant>,
) -> Term {
    match t {
        Term::Var(v) => Term::Var(vars.get(&v).copied().unwrap_or(v)),
        Term::Const(c) => Term::Const(consts.get(&c).copied().unwrap_or(c)),
    }
}

fn remap_query(
    q: &ConjunctiveQuery,
    vars: &HashMap<Variable, Variable>,
    consts: &HashMap<Constant, Constant>,
) -> ConjunctiveQuery {
    let t = |term: &Term| remap_term(*term, vars, consts);
    ConjunctiveQuery {
        name: q.name.clone(),
        head: q.head.iter().map(&t).collect(),
        body: q
            .body
            .iter()
            .map(|a| mars_cq::Atom::new(a.predicate, a.args.iter().map(&t).collect()))
            .collect(),
        inequalities: q.inequalities.iter().map(|(a, b)| (t(a), t(b))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_chase::{CbStatistics, ReformulationResult};
    use mars_cq::Atom;
    use std::time::Duration;

    fn shape(key: &str, vars: &[&str], consts: &[&str]) -> QueryShape {
        QueryShape {
            key: key.to_string(),
            constants: consts.iter().map(|s| s.to_string()).collect(),
            variables: vars.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// `Q(x) :- r(x, c0, c1)` as a full block reformulation.
    fn block(c0: &str, c1: &str) -> BlockReformulation {
        let q = ConjunctiveQuery::new("Q").with_head(vec![Term::var("x")]).with_atom(Atom::named(
            "r",
            vec![Term::var("x"), Term::constant_str(c0), Term::constant_str(c1)],
        ));
        BlockReformulation {
            name: "Q".to_string(),
            compiled: q.clone(),
            result: ReformulationResult {
                universal_plan: q.clone(),
                initial: Some(q.clone()),
                minimal: vec![(q.clone(), 1.0)],
                best: Some((q, 1.0)),
                stats: CbStatistics::default(),
            },
            route: None,
            duration: Duration::default(),
        }
    }

    #[test]
    fn stats_count_hits_misses_and_invalidations() {
        let cache = PlanCache::new();
        let s = shape("k", &["x"], &["a", "b"]);
        assert!(cache.lookup(&s, 1).is_none());
        cache.insert(s.clone(), 1, block("a", "b"));
        assert!(cache.lookup(&s, 1).is_some());
        assert!(cache.lookup(&s, 2).is_none(), "a different fingerprint is a different key");
        cache.invalidate_except(2);
        assert!(cache.lookup(&s, 1).is_none(), "the old-fingerprint entry is gone");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn first_writer_wins_on_duplicate_insert() {
        let cache = PlanCache::new();
        let s = shape("k", &["x"], &["a", "b"]);
        cache.insert(s.clone(), 1, block("a", "b"));
        cache.insert(s.clone(), 1, block("other", "values"));
        let hit = cache.lookup(&s, 1).unwrap();
        assert!(hit.sql().unwrap().contains('a'), "the first entry stayed resident");
        assert_eq!(cache.stats().entries, 1);
    }

    /// Re-substitution maps stored constants to incoming constants pairwise
    /// and simultaneously: swapping two constants must not cascade
    /// (`a→b` then `b→a` applied in sequence would collapse both to `a`).
    #[test]
    fn resubstitution_is_simultaneous() {
        let cache = PlanCache::new();
        cache.insert(shape("k", &["x"], &["a", "b"]), 1, block("a", "b"));
        let swapped = cache.lookup(&shape("k", &["x"], &["b", "a"]), 1).unwrap();
        let atom = &swapped.compiled.body[0];
        assert_eq!(atom.args[1], Term::constant_str("b"));
        assert_eq!(atom.args[2], Term::constant_str("a"));
        // Every result field and the SQL rendering track the substitution.
        let cold = block("b", "a");
        assert_eq!(
            format!("{}", swapped.result.universal_plan),
            format!("{}", cold.result.universal_plan)
        );
        assert_eq!(swapped.sql(), cold.sql());
    }

    /// A request that panics under the cache's lock poisons the mutex; the
    /// cache must keep serving (the service catches the panic and moves on).
    #[test]
    fn a_poisoned_lock_is_recovered() {
        let cache = PlanCache::new();
        let s = shape("k", &["x"], &["a", "b"]);
        cache.insert(s.clone(), 1, block("a", "b"));
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.entries.lock().unwrap();
                    panic!("a request dies holding the plan cache lock");
                })
                .join()
        });
        assert!(panicked.is_err() && cache.entries.is_poisoned());

        assert_eq!(cache.stats().entries, 1);
        assert!(cache.lookup(&s, 1).is_some());
        cache.insert(shape("other", &["x"], &["a", "b"]), 1, block("a", "b"));
        assert_eq!(cache.stats().entries, 2);
        cache.invalidate_except(2);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn arity_mismatch_is_treated_as_a_miss() {
        let cache = PlanCache::new();
        cache.insert(shape("k", &["x"], &["a", "b"]), 1, block("a", "b"));
        assert!(
            cache.lookup(&shape("k", &["x"], &["a"]), 1).is_none(),
            "an entry whose parameter list cannot align is never re-substituted"
        );
    }
}
