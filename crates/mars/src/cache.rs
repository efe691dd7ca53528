//! The shape-keyed plan cache behind [`crate::MarsService`].
//!
//! Entries are keyed on the **shape key** ([`mars_xquery::shape_of`]): the
//! incoming query with variables alpha-renamed and non-reserved constants
//! parameterized out, so arrivals of the same template with different
//! constants share one entry. A lookup probes with the borrowed key and
//! copies nothing on a miss.
//!
//! One cache serves one system: every entry was reformulated against the
//! system its [`crate::MarsService`] wraps, and replacing that system
//! ([`crate::MarsService::replace`], which holds the service exclusively)
//! drops every entry ([`PlanCache::clear`]), so a changed correspondence
//! can never serve a stale plan.
//!
//! On a hit the cached [`BlockReformulation`] is **re-substituted**: the
//! stored entry's variables and constants are mapped pairwise onto the new
//! query's (both shapes list them in first-occurrence order, and equal shape
//! keys guarantee the lists align) by one [`Renaming`]. The hit renames only
//! the queries a request runs: the compiled query and the initial and best
//! reformulations. The universal plan and the minimal reformulations, the
//! large fields, are shared with the entry together with the renaming, and
//! are renamed only if something reads them ([`mars_cq::Renamed`]).
//! Entries are shared handles: a hit takes one under the cache's lock and
//! renames after releasing it, so concurrent hits run side by side.
//! One thing derived from the queries is kept beside them: a routed entry's
//! [`RoutingDecision`](mars_cost::RoutingDecision) holds the physical tree
//! its cold request planned. The tree names the query's terms by position,
//! so a hit shares it, unrenamed, and runs it with its own renamed best
//! query; it is built once per shape and frozen at the statistics of the
//! request that missed, as the route is, and [`PlanCache::clear`] drops it
//! with its entry. The SQL is rendered from the renamed best query when
//! asked for. The service layer property-tests that every field of a hit
//! equals a cold reformulation byte for byte.

use crate::result::BlockReformulation;
use mars_chase::ReformulationResult;
use mars_cq::{symbol, Constant, Rename, Renaming, Variable};
use mars_xquery::QueryShape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Hit/miss/invalidation counters and the current entry count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a cold reformulation.
    pub misses: u64,
    /// Entries dropped because the system they were reformulated against
    /// was replaced.
    pub invalidations: u64,
    /// Cold results that were computed but **not** inserted because they were
    /// degraded (a budget cut them short). Cache hygiene rule: a degraded
    /// answer is never cached — the next arrival of the shape must get a real
    /// attempt.
    pub degraded_uncached: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// One cached reformulation: its shape's variables and constants, interned
/// beside their spellings (they drive re-substitution), and the result.
struct CachedEntry {
    variables: Vec<(&'static str, Variable)>,
    constants: Vec<(&'static str, Constant)>,
    block: BlockReformulation,
}

/// Each of `names` interned by `intern`, beside its spelling.
fn interned<T>(names: Vec<&str>, intern: fn(&str) -> T) -> Vec<(&'static str, T)> {
    names.into_iter().map(|name| (symbol(name).as_str(), intern(name))).collect()
}

/// The stored terms whose spelling differs from the incoming name, each with that name interned.
fn differing<T: Copy>(stored: &[(&str, T)], names: &[&str], intern: fn(&str) -> T) -> Vec<(T, T)> {
    let pairs = stored.iter().zip(names).filter(|((spelling, _), name)| spelling != *name);
    pairs.map(|(&(_, from), name)| (from, intern(name))).collect()
}

/// The cached entries by shape key. An entry is shared: a hit takes a
/// handle under the lock and re-substitutes after releasing it.
type Entries = HashMap<String, Arc<CachedEntry>>;

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
    // The guard is held only to probe, insert or clear: a hit re-substitutes
    // after releasing it, so concurrent hits do not serialize on the renaming.
    // Every update is one insert or removal of a finished entry, so a panic
    // while a guard is held leaves the map valid, and a poisoned lock is
    // recovered instead of turning one failed request into an outage.
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
            entries: self.entries().len(),
        }
    }

    /// Record that a cold result was withheld from the cache because it was
    /// degraded (see [`CacheStats::degraded_uncached`]).
    pub fn note_degraded_uncached(&self) {
        self.degraded_uncached.fetch_add(1, Ordering::SeqCst);
    }

    /// Look up a reformulation for `shape`. On a hit the stored result is
    /// re-substituted with `shape`'s variables and constants, outside the
    /// cache's lock, and its `duration` is zero: the time spent producing the
    /// hit is the caller's to measure. On a miss `None` is returned and the
    /// miss is counted.
    pub fn lookup(&self, shape: &QueryShape<'_>) -> Option<BlockReformulation> {
        let entry = self.entries().get(&shape.key).cloned().filter(|e| {
            e.variables.len() == shape.variables.len() && e.constants.len() == shape.constants.len()
        });
        match entry {
            Some(e) => {
                let block = resubstitute(&e, shape);
                self.hits.fetch_add(1, Ordering::SeqCst);
                Some(block)
            }
            None => {
                self.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Insert a reformulation computed cold for `shape`. First writer wins:
    /// a concurrent duplicate insert leaves the resident entry in place, so
    /// racing warm readers keep seeing one plan.
    pub fn insert(&self, shape: QueryShape<'_>, block: BlockReformulation) {
        let variables = interned(shape.variables, Variable::named);
        let constants = interned(shape.constants, Constant::str);
        self.entries()
            .entry(shape.key)
            .or_insert_with(|| Arc::new(CachedEntry { variables, constants, block }));
    }

    /// Drop every entry (the system they were reformulated against was
    /// replaced). Dropped entries are counted as invalidations.
    pub fn clear(&self) {
        let dropped = std::mem::take(&mut *self.entries()).len();
        self.invalidations.fetch_add(dropped as u64, Ordering::SeqCst);
    }
}

/// Rewrite a cached reformulation from the shape it was stored under to the
/// shape of the incoming query. Variables and constants are mapped pairwise
/// (position `i` of one list to position `i` of the other — both are in
/// first-occurrence order and the equal shape key guarantees alignment) by
/// one [`Renaming`]. The queries a request runs — the compiled query, the
/// initial and the best reformulation, which [`best_or_initial`] picks from
/// — are renamed here. The universal plan and the minimal set share the
/// entry's with that renaming and are renamed only if read. The SQL is
/// rendered from the renamed best query when asked for, so constant
/// literals in `WHERE` clauses track the substitution.
///
/// [`best_or_initial`]: ReformulationResult::best_or_initial
fn resubstitute(entry: &CachedEntry, incoming: &QueryShape<'_>) -> BlockReformulation {
    let renaming = Arc::new(Renaming::new(
        differing(&entry.variables, &incoming.variables, Variable::named),
        differing(&entry.constants, &incoming.constants, Constant::str),
    ));
    let (block, result) = (&entry.block, &entry.block.result);
    BlockReformulation {
        name: block.name.clone(),
        compiled: block.compiled.rename(&renaming),
        result: ReformulationResult {
            universal_plan: result.universal_plan.renamed(&renaming),
            initial: result.initial.as_ref().map(|q| q.rename(&renaming)),
            minimal: result.minimal.renamed(&renaming),
            best: result.best.as_ref().map(|best| best.rename(&renaming)),
            stats: Arc::clone(&result.stats),
        },
        // Routing depends on the query shape and the store statistics, not
        // on the constants a shape abstracts over — replay it verbatim, with
        // the tree it priced, which names terms by position.
        route: block.route.clone(),
        duration: Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::{Atom, ConjunctiveQuery, Term};

    fn shape<'q>(key: &str, vars: &[&'q str], consts: &[&'q str]) -> QueryShape<'q> {
        QueryShape { key: key.to_string(), constants: consts.to_vec(), variables: vars.to_vec() }
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
                universal_plan: q.clone().into(),
                initial: Some(q.clone()),
                minimal: vec![(q.clone(), 1.0)].into(),
                best: Some((q, 1.0)),
                stats: Arc::default(),
            },
            route: None,
            duration: Duration::default(),
        }
    }

    #[test]
    fn stats_count_hits_misses_and_invalidations() {
        let cache = PlanCache::new();
        let s = shape("k", &["x"], &["a", "b"]);
        assert!(cache.lookup(&s).is_none());
        cache.insert(s.clone(), block("a", "b"));
        assert!(cache.lookup(&s).is_some());
        cache.clear();
        assert!(cache.lookup(&s).is_none(), "the cleared entry is gone");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn first_writer_wins_on_duplicate_insert() {
        let cache = PlanCache::new();
        let s = shape("k", &["x"], &["a", "b"]);
        cache.insert(s.clone(), block("a", "b"));
        cache.insert(s.clone(), block("other", "values"));
        let hit = cache.lookup(&s).unwrap();
        assert!(hit.sql().unwrap().contains('a'), "the first entry stayed resident");
        assert_eq!(cache.stats().entries, 1);
    }

    /// Re-substitution maps stored constants to incoming constants pairwise
    /// and simultaneously: swapping two constants must not cascade
    /// (`a→b` then `b→a` applied in sequence would collapse both to `a`).
    #[test]
    fn resubstitution_is_simultaneous() {
        let cache = PlanCache::new();
        cache.insert(shape("k", &["x"], &["a", "b"]), block("a", "b"));
        let swapped = cache.lookup(&shape("k", &["x"], &["b", "a"])).unwrap();
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

    /// A hit did no chase or backchase work: it shares the statistics of
    /// the cold run its entry holds instead of copying them.
    #[test]
    fn hits_share_their_entry_statistics() {
        let cache = PlanCache::new();
        cache.insert(shape("k", &["x"], &["a", "b"]), block("a", "b"));
        let first = cache.lookup(&shape("k", &["y"], &["c", "d"])).unwrap();
        let second = cache.lookup(&shape("k", &["z"], &["e", "f"])).unwrap();
        assert!(Arc::ptr_eq(&first.result.stats, &second.result.stats));
    }

    /// A request that panics under the cache's lock poisons the mutex; the
    /// cache must keep serving (the service catches the panic and moves on).
    #[test]
    fn a_poisoned_lock_is_recovered() {
        let cache = PlanCache::new();
        let s = shape("k", &["x"], &["a", "b"]);
        cache.insert(s.clone(), block("a", "b"));
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
        assert!(cache.lookup(&s).is_some());
        cache.insert(shape("other", &["x"], &["a", "b"]), block("a", "b"));
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    /// Hits rewrite outside the lock: threads hitting one entry at once
    /// with their own constants each get those constants back, and every
    /// lookup is counted as a hit.
    #[test]
    fn concurrent_hits_each_get_their_own_constants() {
        const THREADS: usize = 4;
        const LOOKUPS: usize = 50;
        let cache = PlanCache::new();
        cache.insert(shape("k", &["x"], &["a", "b"]), block("a", "b"));
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..LOOKUPS {
                        let (c0, c1) = (format!("t{thread}_{i}"), format!("u{thread}"));
                        let hit = cache.lookup(&shape("k", &["x"], &[&c0, &c1])).unwrap();
                        assert_eq!(hit.sql(), block(&c0, &c1).sql());
                        assert_eq!(
                            *hit.compiled.body[0].args,
                            [Term::var("x"), Term::constant_str(&c0), Term::constant_str(&c1)]
                        );
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, (THREADS * LOOKUPS) as u64);
        assert_eq!((stats.misses, stats.entries), (0, 1));
    }

    #[test]
    fn arity_mismatch_is_treated_as_a_miss() {
        let cache = PlanCache::new();
        cache.insert(shape("k", &["x"], &["a", "b"]), block("a", "b"));
        assert!(
            cache.lookup(&shape("k", &["x"], &["a"])).is_none(),
            "an entry whose parameter list cannot align is never re-substituted"
        );
    }
}
