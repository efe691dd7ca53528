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
//! An entry is the reformulation of its shape's **canonical block**
//! ([`QueryShape::canonical`]): its queries name variables `v0, v1, …` and
//! hold parameters ([`Constant::Param`]) where a request holds its
//! constants, so one entry serves every request of its shape and nothing is
//! renamed. A hit **instantiates** the entry (`instantiate`): the queries
//! a request runs, the initial and the best reformulation, get parameter
//! `i` replaced by the request's `i`-th constant; the compiled query, the
//! universal plan, the minimal reformulations and the statistics are the
//! entry's, shared. Entries are shared handles: a hit takes one under the
//! cache's lock and instantiates it after releasing the lock, so concurrent
//! hits run side by side.
//! One thing derived from the queries is kept beside them: a routed entry's
//! [`RoutingDecision`](mars_cost::RoutingDecision) holds the physical tree
//! its cold request planned. The tree names the query's terms by position,
//! so a hit runs it with its own instantiated best query; it is built once
//! per shape and frozen at the statistics of the request that missed, as
//! the route is, and [`PlanCache::clear`] drops it with its entry. The
//! service answers a miss with the same instantiation, so a hit equals a
//! fresh service's cold answer to the same request byte for byte
//! (property-tested).

use crate::result::BlockReformulation;
use mars_chase::ReformulationResult;
use mars_cq::{ConjunctiveQuery, Constant, Term};
use mars_xquery::QueryShape;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// One cached reformulation of a canonical block, with the number of
/// parameters its shape has.
struct CachedEntry {
    parameters: usize,
    block: BlockReformulation,
}

/// The cached entries by shape key. An entry is shared: a hit takes a
/// handle under the lock and instantiates it after releasing it.
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
    // The guard is held only to probe, insert or clear: a hit instantiates
    // after releasing it, so concurrent hits do not serialize on the copy.
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

    /// Look up a reformulation for `shape`. On a hit the entry is
    /// instantiated with `shape`'s constants, outside the cache's lock; its
    /// `duration` is the cold run's, and the time spent producing the hit is
    /// the caller's to measure. On a miss `None` is returned and the miss is
    /// counted.
    pub fn lookup(&self, shape: &QueryShape<'_>) -> Option<BlockReformulation> {
        let entry = self.entries().get(&shape.key).cloned();
        match entry.filter(|e| e.parameters == shape.constants.len()) {
            Some(e) => {
                let block = instantiate(&e.block, &shape.constants);
                self.hits.fetch_add(1, Ordering::SeqCst);
                Some(block)
            }
            None => {
                self.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Insert `block`, the reformulation of `shape`'s canonical block. First
    /// writer wins: a concurrent duplicate insert leaves the resident entry
    /// in place, so racing warm readers keep seeing one plan.
    pub fn insert(&self, shape: QueryShape<'_>, block: BlockReformulation) {
        let parameters = shape.constants.len();
        self.entries()
            .entry(shape.key)
            .or_insert_with(|| Arc::new(CachedEntry { parameters, block }));
    }

    /// Drop every entry (the system they were reformulated against was
    /// replaced). Dropped entries are counted as invalidations.
    pub fn clear(&self) {
        let dropped = std::mem::take(&mut *self.entries()).len();
        self.invalidations.fetch_add(dropped as u64, Ordering::SeqCst);
    }
}

/// `block`, the reformulation of a canonical block, bound to a request's
/// `constants`: parameter `i` of the queries a request runs — the initial
/// and the best reformulation, which [`best_or_initial`] picks from — is
/// replaced by `constants[i]`, so the SQL and the executor see the
/// request's literals. Everything else, the duration included, is
/// `block`'s.
///
/// [`best_or_initial`]: ReformulationResult::best_or_initial
pub(crate) fn instantiate(block: &BlockReformulation, constants: &[&str]) -> BlockReformulation {
    let constants: Vec<Constant> = constants.iter().map(|c| Constant::str(c)).collect();
    let bind = |q: &ConjunctiveQuery| {
        let mut q = q.clone();
        let body = q.body.iter_mut().flat_map(|a| a.args.iter_mut());
        let inequalities = q.inequalities.iter_mut().flat_map(|(a, b)| [a, b]);
        for t in q.head.iter_mut().chain(body).chain(inequalities) {
            if let Term::Const(Constant::Param(i)) = *t {
                *t = Term::Const(constants[i as usize]);
            }
        }
        q
    };
    let result = &block.result;
    BlockReformulation {
        name: block.name.clone(),
        compiled: Arc::clone(&block.compiled),
        result: ReformulationResult {
            universal_plan: Arc::clone(&result.universal_plan),
            initial: result.initial.as_ref().map(bind),
            minimal: Arc::clone(&result.minimal),
            best: result.best.as_ref().map(|(q, cost)| (bind(q), *cost)),
            stats: Arc::clone(&result.stats),
        },
        // Routing depends on the query shape and the store statistics, not
        // on the constants a shape abstracts over: replay it verbatim, with
        // the tree it priced, which names terms by position.
        route: block.route.clone(),
        duration: block.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::Atom;
    use std::time::Duration;

    fn shape<'q>(key: &str, consts: &[&'q str]) -> QueryShape<'q> {
        QueryShape { key: key.to_string(), constants: consts.to_vec() }
    }

    /// Parameter `i` of a canonical block.
    fn param(i: u32) -> Term {
        Term::Const(Constant::Param(i))
    }

    /// `Q(x) :- r(x, c0, c1)` as a full block reformulation.
    fn block(c0: Term, c1: Term) -> BlockReformulation {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_atom(Atom::named("r", vec![Term::var("x"), c0, c1]));
        BlockReformulation {
            name: "Q".to_string(),
            compiled: q.clone().into(),
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

    /// The entry of shape `k`: the block over its two parameters.
    fn canonical() -> BlockReformulation {
        block(param(0), param(1))
    }

    /// The block a request with constants `c0` and `c1` runs.
    fn literal(c0: &str, c1: &str) -> BlockReformulation {
        block(Term::constant_str(c0), Term::constant_str(c1))
    }

    #[test]
    fn stats_count_hits_misses_and_invalidations() {
        let cache = PlanCache::new();
        let s = shape("k", &["a", "b"]);
        assert!(cache.lookup(&s).is_none());
        cache.insert(s.clone(), canonical());
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
        let s = shape("k", &["a", "b"]);
        cache.insert(s.clone(), canonical());
        cache.insert(s.clone(), literal("other", "values"));
        let hit = cache.lookup(&s).unwrap();
        assert_eq!(hit.sql(), literal("a", "b").sql(), "the first entry stayed resident");
        assert_eq!(cache.stats().entries, 1);
    }

    /// Instantiation replaces each parameter by its constant at once:
    /// constants `b, a` bind into the entry of a request that had `a, b`
    /// without either collapsing into the other.
    #[test]
    fn instantiation_is_simultaneous() {
        let cache = PlanCache::new();
        cache.insert(shape("k", &["a", "b"]), canonical());
        let swapped = cache.lookup(&shape("k", &["b", "a"])).unwrap();
        let (best, _) = swapped.result.best.as_ref().unwrap();
        let (a, b) = (Term::constant_str("a"), Term::constant_str("b"));
        assert_eq!(*best.body[0].args, [Term::var("x"), b, a]);
        // The queries a request runs and the SQL track the constants.
        let cold = literal("b", "a");
        assert_eq!(swapped.result.initial, cold.result.initial);
        assert_eq!(swapped.sql(), cold.sql());
    }

    /// A hit did no chase or backchase work: it shares the statistics of
    /// the cold run its entry holds instead of copying them, and the
    /// compiled query, universal plan and minimal set too, with their
    /// parameters.
    #[test]
    fn hits_share_their_entry_statistics() {
        let cache = PlanCache::new();
        cache.insert(shape("k", &["a", "b"]), canonical());
        let first = cache.lookup(&shape("k", &["c", "d"])).unwrap();
        let second = cache.lookup(&shape("k", &["e", "f"])).unwrap();
        let (a, b) = (&first.result, &second.result);
        assert!(Arc::ptr_eq(&a.stats, &b.stats));
        assert!(Arc::ptr_eq(&first.compiled, &second.compiled));
        assert!(Arc::ptr_eq(&a.universal_plan, &b.universal_plan));
        assert!(Arc::ptr_eq(&a.minimal, &b.minimal));
        assert_eq!(*first.compiled, *canonical().compiled);
    }

    /// A request that panics under the cache's lock poisons the mutex; the
    /// cache must keep serving (the service catches the panic and moves on).
    #[test]
    fn a_poisoned_lock_is_recovered() {
        let cache = PlanCache::new();
        let s = shape("k", &["a", "b"]);
        cache.insert(s.clone(), canonical());
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
        cache.insert(shape("other", &["a", "b"]), canonical());
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    /// Hits instantiate outside the lock: threads hitting one entry at once
    /// with their own constants each get those constants back, and every
    /// lookup is counted as a hit.
    #[test]
    fn concurrent_hits_each_get_their_own_constants() {
        const THREADS: usize = 4;
        const LOOKUPS: usize = 50;
        let cache = PlanCache::new();
        cache.insert(shape("k", &["a", "b"]), canonical());
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..LOOKUPS {
                        let (c0, c1) = (format!("t{thread}_{i}"), format!("u{thread}"));
                        let hit = cache.lookup(&shape("k", &[&c0, &c1])).unwrap();
                        assert_eq!(hit.sql(), literal(&c0, &c1).sql());
                        let (best, _) = hit.result.best.as_ref().unwrap();
                        assert_eq!(
                            *best.body[0].args,
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
        cache.insert(shape("k", &["a", "b"]), canonical());
        assert!(
            cache.lookup(&shape("k", &["a"])).is_none(),
            "an entry whose parameters the request cannot bind is never instantiated"
        );
    }
}
