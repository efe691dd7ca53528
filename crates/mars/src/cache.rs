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
//! Entries are nested by fingerprint, then by shape key, so a lookup probes
//! with the borrowed key and copies nothing on a miss.
//!
//! On a hit the cached [`BlockReformulation`] is **re-substituted**: the
//! stored entry's variables and constants are mapped pairwise onto the new
//! query's (both shapes list them in first-occurrence order, and equal shape
//! keys guarantee the lists align), and the hit is built from the cached
//! block in one pass, every query rewritten simultaneously as it is copied.
//! Nothing derived from the queries is kept beside them (the SQL is rendered
//! from the rewritten best query when asked for). The service layer
//! property-tests that this equals a cold reformulation byte for byte.

use crate::result::BlockReformulation;
use mars_chase::ReformulationResult;
use mars_cq::{Atom, ConjunctiveQuery, Constant, Term, Variable};
use mars_xquery::QueryShape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

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

/// One cached reformulation: the variables and constants of the shape it
/// was stored under (they drive re-substitution) and the result.
struct CachedEntry {
    variables: Vec<String>,
    constants: Vec<String>,
    block: BlockReformulation,
}

/// The cached entries by fingerprint, then by shape key.
type Entries = HashMap<u64, HashMap<String, CachedEntry>>;

/// A concurrent, shape-keyed reformulation cache (see the module docs).
#[derive(Default)]
pub struct PlanCache {
    entries: Mutex<Entries>,
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
    fn entries(&self) -> MutexGuard<'_, Entries> {
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
            entries: self.entries().values().map(HashMap::len).sum(),
        }
    }

    /// Record that a cold result was withheld from the cache because it was
    /// degraded (see [`CacheStats::degraded_uncached`]).
    pub fn note_degraded_uncached(&self) {
        self.degraded_uncached.fetch_add(1, Ordering::SeqCst);
    }

    /// Look up a reformulation for `shape` under `fingerprint`. On a hit the
    /// stored result is re-substituted with `shape`'s variables and
    /// constants, and its `duration` is zero: the time spent producing the
    /// hit is the caller's to measure. On a miss `None` is returned and the
    /// miss is counted.
    pub fn lookup(&self, shape: &QueryShape, fingerprint: u64) -> Option<BlockReformulation> {
        let entries = self.entries();
        let entry = entries.get(&fingerprint).and_then(|shapes| shapes.get(&shape.key));
        match entry {
            Some(e)
                if e.variables.len() == shape.variables.len()
                    && e.constants.len() == shape.constants.len() =>
            {
                let block = resubstitute(e, shape);
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
        let QueryShape { key, constants, variables } = shape;
        let mut entries = self.entries();
        let shapes = entries.entry(fingerprint).or_default();
        shapes.entry(key).or_insert(CachedEntry { variables, constants, block });
    }

    /// Drop every entry whose fingerprint differs from `current` (the
    /// spec/dependency set changed). Dropped entries are counted as
    /// invalidations.
    pub fn invalidate_except(&self, current: u64) {
        let mut entries = self.entries();
        let mut dropped = 0;
        entries.retain(|fp, shapes| {
            if *fp != current {
                dropped += shapes.len() as u64;
            }
            *fp == current
        });
        drop(entries);
        self.invalidations.fetch_add(dropped, Ordering::SeqCst);
    }
}

/// Rewrite a cached reformulation from the shape it was stored under to the
/// shape of the incoming query: variables and constants are mapped pairwise
/// (position `i` of one list to position `i` of the other — both are in
/// first-occurrence order and the equal shape key guarantees alignment), and
/// the hit is built from the cached block in one pass, each query rewritten
/// as it is copied. The SQL is re-rendered from the rewritten best query so
/// constant literals in `WHERE` clauses track the substitution.
fn resubstitute(entry: &CachedEntry, incoming: &QueryShape) -> BlockReformulation {
    // A handful of pairs: searched directly, not hashed.
    let vars: Vec<(Variable, Variable)> = entry
        .variables
        .iter()
        .zip(&incoming.variables)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (Variable::named(a), Variable::named(b)))
        .collect();
    let consts: Vec<(Constant, Constant)> = entry
        .constants
        .iter()
        .zip(&incoming.constants)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (Constant::str(a), Constant::str(b)))
        .collect();
    let q = |query: &ConjunctiveQuery| remap_query(query, &vars, &consts);
    let (block, result) = (&entry.block, &entry.block.result);
    BlockReformulation {
        name: block.name.clone(),
        compiled: q(&block.compiled),
        result: ReformulationResult {
            universal_plan: q(&result.universal_plan),
            initial: result.initial.as_ref().map(&q),
            minimal: result.minimal.iter().map(|(m, c)| (q(m), *c)).collect(),
            best: result.best.as_ref().map(|(b, c)| (q(b), *c)),
            stats: result.stats.clone(),
        },
        // Routing depends on the query shape and the store statistics, not
        // on the constants a shape abstracts over — replay it verbatim.
        route: block.route.clone(),
        duration: Duration::ZERO,
    }
}

/// One simultaneous pass: every term is looked up in the pairs exactly
/// once, so `a→b, b→a` swaps correctly rather than cascading.
fn remap_term(t: Term, vars: &[(Variable, Variable)], consts: &[(Constant, Constant)]) -> Term {
    fn image<T: Copy + PartialEq>(pairs: &[(T, T)], x: T) -> T {
        pairs.iter().find(|(from, _)| *from == x).map_or(x, |&(_, to)| to)
    }
    match t {
        Term::Var(v) => Term::Var(image(vars, v)),
        Term::Const(c) => Term::Const(image(consts, c)),
    }
}

fn remap_query(
    q: &ConjunctiveQuery,
    vars: &[(Variable, Variable)],
    consts: &[(Constant, Constant)],
) -> ConjunctiveQuery {
    let t = |term: &Term| remap_term(*term, vars, consts);
    ConjunctiveQuery {
        name: q.name.clone(),
        head: q.head.iter().map(&t).collect(),
        body: q
            .body
            .iter()
            .map(|a| Atom::new(a.predicate, a.args.iter().map(&t).collect()))
            .collect(),
        inequalities: q.inequalities.iter().map(|(a, b)| (t(a), t(b))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_chase::CbStatistics;

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
