//! Reformulation as a service: a [`Mars`] system behind a shape-keyed
//! [`PlanCache`].
//!
//! A deployed MARS instance is resident: the schema correspondence is
//! compiled once and then millions of client queries arrive against it, most
//! of them instances of a few templates that differ only in constants. The
//! service normalizes each arrival to its [`QueryShape`](mars_xquery::QueryShape)
//! (variables alpha-renamed, non-reserved constants parameterized out) and
//! answers repeats from the cache by re-substituting the fresh constants into
//! the cached reformulation — skipping the chase & backchase entirely. The
//! re-substituted warm answer is byte-identical to what a cold run would
//! produce (property-tested in `tests/property_based.rs`).
//!
//! Entries are scoped to the system's [fingerprint](Mars::fingerprint); use
//! [`MarsService::replace`] when the correspondence changes and the stale
//! entries are invalidated rather than served.
//!
//! The service is `Sync`: one instance can be shared across request threads
//! (`&MarsService` handles). A cold request reformulates on its own thread.
//!
//! # The degradation ladder
//!
//! Every request is survivable. Arrivals pass **admission** first: when a
//! bounded in-flight limit ([`MarsService::with_admission_limit`]) is
//! saturated the request is *shed* with a typed
//! [`MarsError::Overloaded`] — nothing queues forever. Admitted requests run
//! under a per-request [`ReformulationBudget`] (the service default or an
//! explicit one via [`MarsService::reformulate_xbind_with`]); budget
//! exhaustion *degrades* to the best reformulation found so far rather than
//! erroring. The whole request body runs inside `catch_unwind`, so a
//! poisoned request surfaces as [`MarsError::ReformulationPanicked`] instead
//! of killing sibling threads. Cache hygiene rule: **degraded or panicked
//! results are never inserted into the [`PlanCache`]** — a retry of the
//! shape gets a real attempt ([`CacheStats::degraded_uncached`] counts the
//! withheld inserts).
//!
//! The ladder is written once, in the private `serve`; the three public
//! entry points differ only in the budget they pass it and in whether they
//! hand it the stores to price a route against.

use crate::cache::{CacheStats, PlanCache};
use crate::error::MarsError;
use crate::result::{BlockReformulation, MarsResult};
use crate::system::Mars;
use mars_chase::ReformulationBudget;
use mars_storage::{RelationalDatabase, XmlStore};
use mars_xquery::{decorrelate, parse_xquery, shape_of, XBindQuery};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A fault-injection hook called at named pipeline points (`"lookup"` before
/// the cache probe, `"reformulate"` before a cold chase & backchase). The
/// hook runs *inside* the request's `catch_unwind` scope, so a hook that
/// panics or stalls exercises exactly the isolation a real fault would.
pub type FaultHook = Arc<dyn Fn(&str) + Send + Sync>;

/// Monotone request-outcome counters for one service instance. Every
/// admitted-or-shed arrival lands in exactly one bucket (degenerate-input
/// client errors excepted — those are the caller's bug, not service load).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests answered at full fidelity (warm hits included).
    pub served: u64,
    /// Requests answered by a budget-degraded reformulation.
    pub degraded: u64,
    /// Requests rejected at admission ([`MarsError::Overloaded`]).
    pub shed: u64,
    /// Requests that panicked mid-flight and were isolated
    /// ([`MarsError::ReformulationPanicked`]).
    pub panicked: u64,
}

/// RAII in-flight slot: decrements on drop, unwinding included, so a
/// panicking request can never leak its admission slot.
struct InFlightPermit<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for InFlightPermit<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A resident [`Mars`] system with a plan cache (see the module docs).
pub struct MarsService {
    mars: Mars,
    cache: PlanCache,
    fingerprint: u64,
    reserved: HashSet<String>,
    default_budget: ReformulationBudget,
    max_in_flight: usize,
    in_flight: AtomicUsize,
    served: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    panicked: AtomicU64,
    fault_hook: Option<FaultHook>,
}

impl MarsService {
    /// Wrap a compiled system. The fingerprint and the reserved-constant set
    /// (the constants [`shape_of`] must keep literal) are computed once here.
    pub fn new(mars: Mars) -> MarsService {
        let fingerprint = mars.fingerprint();
        let reserved = mars.reserved_constants();
        MarsService {
            mars,
            cache: PlanCache::new(),
            fingerprint,
            reserved,
            default_budget: ReformulationBudget::unbounded(),
            max_in_flight: 0,
            in_flight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            fault_hook: None,
        }
    }

    /// Builder: the budget applied to requests that do not carry their own
    /// (see [`MarsService::reformulate_xbind_with`]). Defaults to unbounded.
    pub fn with_default_budget(mut self, budget: ReformulationBudget) -> MarsService {
        self.default_budget = budget;
        self
    }

    /// Builder: bound concurrent in-flight requests. Arrivals beyond the
    /// limit are shed at admission with [`MarsError::Overloaded`]. `0`
    /// (the default) means unbounded.
    pub fn with_admission_limit(mut self, max_in_flight: usize) -> MarsService {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Builder: install a [`FaultHook`] (chaos testing; see the type docs).
    pub fn with_fault_hook(mut self, hook: FaultHook) -> MarsService {
        self.fault_hook = Some(hook);
        self
    }

    /// Request-outcome counters (see [`ServiceStats`]).
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            served: self.served.load(Ordering::SeqCst),
            degraded: self.degraded.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            panicked: self.panicked.load(Ordering::SeqCst),
        }
    }

    /// The wrapped system.
    pub fn mars(&self) -> &Mars {
        &self.mars
    }

    /// The fingerprint cache entries are currently scoped to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Swap in a rebuilt system (the schema correspondence or the options
    /// changed). The fingerprint and reserved constants are recomputed and
    /// every cache entry of the old fingerprint is invalidated.
    pub fn replace(&mut self, mars: Mars) {
        self.fingerprint = mars.fingerprint();
        self.reserved = mars.reserved_constants();
        self.mars = mars;
        self.cache.invalidate_except(self.fingerprint);
    }

    /// Reformulate one navigation block through the cache under the
    /// service's default budget: a shape hit re-substitutes the cached plan
    /// with this query's constants, a miss runs
    /// [`Mars::try_reformulate_xbind_budgeted`] cold. Non-degraded cold
    /// results are cached; degraded ones are not (module docs). Degenerate
    /// blocks surface the same [`MarsError`]s as the cold path.
    pub fn reformulate_xbind(&self, xbind: &XBindQuery) -> Result<BlockReformulation, MarsError> {
        self.serve(xbind, &self.default_budget, None)
    }

    /// [`MarsService::reformulate_xbind`] with an explicit per-request
    /// budget.
    pub fn reformulate_xbind_with(
        &self,
        xbind: &XBindQuery,
        budget: &ReformulationBudget,
    ) -> Result<BlockReformulation, MarsError> {
        self.serve(xbind, budget, None)
    }

    /// [`MarsService::reformulate_xbind`] with backend routing: the chosen
    /// reformulation ([`best_or_initial`], the query the caller will
    /// execute) is priced against the two stores — the relational store's
    /// exact statistics, the XML store's navigation statistics — and the
    /// route is cached *inside* the block, so a warm shape hit replays the
    /// cached decision byte-identically instead of re-pricing (the decision
    /// depends on the query shape and store statistics, not the constants).
    /// A warm hit cached by an unrouted entry point carries no route and is
    /// priced on the fly, without rewriting the cache entry; a block whose
    /// reformulation produced no executable query carries none.
    ///
    /// [`best_or_initial`]: mars_chase::ReformulationResult::best_or_initial
    ///
    /// # Errors
    ///
    /// The same ladder as [`MarsService::reformulate_xbind_with`]:
    /// [`MarsError::Overloaded`] on admission, degenerate-input errors, and
    /// [`MarsError::ReformulationPanicked`] from panic isolation.
    pub fn reformulate_xbind_routed(
        &self,
        xbind: &XBindQuery,
        db: &RelationalDatabase,
        xml: &XmlStore,
    ) -> Result<BlockReformulation, MarsError> {
        self.serve(xbind, &self.default_budget, Some((db, xml)))
    }

    /// The one request body — the full degradation ladder: admission (shed
    /// on overload), panic isolation, cache lookup, budgeted anytime
    /// reformulation on a miss, and the never-cache-degraded rule. With
    /// `stores`, a block that carries no route yet (a cold result, or a hit
    /// cached unrouted) is priced against them before it is cached or
    /// returned.
    fn serve(
        &self,
        xbind: &XBindQuery,
        budget: &ReformulationBudget,
        stores: Option<(&RelationalDatabase, &XmlStore)>,
    ) -> Result<BlockReformulation, MarsError> {
        let start = Instant::now();
        let _permit = self.admit()?;
        let routed = |mut block: BlockReformulation| {
            if let (None, Some((db, xml))) = (&block.route, stores) {
                block.route = block
                    .result
                    .best_or_initial()
                    .map(|best| mars_cost::route_query(best, db, xml));
            }
            block
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &self.fault_hook {
                hook("lookup");
            }
            let shape = shape_of(xbind, &self.reserved);
            if let Some(hit) = self.cache.lookup(&shape, self.fingerprint) {
                // A hit took this request's time, not the cold run's.
                let mut hit = routed(hit);
                hit.duration = start.elapsed();
                return Ok(hit);
            }
            if let Some(hook) = &self.fault_hook {
                hook("reformulate");
            }
            let block = routed(self.mars.try_reformulate_xbind_budgeted(xbind, budget)?);
            if block.is_degraded() {
                self.cache.note_degraded_uncached();
            } else {
                self.cache.insert(shape, self.fingerprint, block.clone());
            }
            Ok(block)
        }));
        match outcome {
            Ok(Ok(block)) => {
                if block.is_degraded() {
                    self.degraded.fetch_add(1, Ordering::SeqCst);
                } else {
                    self.served.fetch_add(1, Ordering::SeqCst);
                }
                Ok(block)
            }
            // Degenerate-input client errors bump no outcome counter: they
            // are the caller's bug, not service load.
            Ok(Err(e)) => Err(e),
            Err(_) => {
                self.panicked.fetch_add(1, Ordering::SeqCst);
                Err(MarsError::ReformulationPanicked { block: xbind.name.clone() })
            }
        }
    }

    /// Take an in-flight slot or shed. The permit's `Drop` releases the slot
    /// even when the request unwinds.
    fn admit(&self) -> Result<InFlightPermit<'_>, MarsError> {
        let prev = self.in_flight.fetch_add(1, Ordering::SeqCst);
        let permit = InFlightPermit { counter: &self.in_flight };
        if self.max_in_flight > 0 && prev >= self.max_in_flight {
            drop(permit);
            self.shed.fetch_add(1, Ordering::SeqCst);
            return Err(MarsError::Overloaded { limit: self.max_in_flight });
        }
        Ok(permit)
    }

    /// Reformulate a full client XQuery (text) through the cache: parse,
    /// decorrelate, and run every navigation block through
    /// [`MarsService::reformulate_xbind`]. Atomless blocks (decorrelation
    /// produces one for constant-only return templates) bypass the cache and
    /// the degenerate-input checks — they are legitimate there, not client
    /// errors.
    pub fn reformulate_xquery(
        &self,
        xquery: &str,
        default_document: &str,
    ) -> Result<MarsResult, MarsError> {
        let ast = parse_xquery(xquery)?;
        let dec = decorrelate(&ast, default_document);
        let start = Instant::now();
        let mut blocks = Vec::with_capacity(dec.blocks.len());
        for b in &dec.blocks {
            if b.atoms.is_empty() {
                blocks.push(self.mars.reformulate_xbind(b));
            } else {
                blocks.push(self.reformulate_xbind(b)?);
            }
        }
        Ok(MarsResult { decorrelated: dec, blocks, total: start.elapsed() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SchemaCorrespondence;
    use mars_grex::ViewDef;
    use mars_xml::parse_path;
    use mars_xquery::{XBindAtom, XBindTerm};

    fn correspondence() -> SchemaCorrespondence {
        let body =
            XBindQuery::new("PubMap").with_head(&["t", "a"]).with_atom(XBindAtom::Relational {
                relation: "bookRel".to_string(),
                args: vec![XBindTerm::var("t"), XBindTerm::var("a")],
            });
        let gav = ViewDef::xml_flat("PubMap", body, "bib.xml", "book", &["title", "author"]);
        let lav_body = XBindQuery::new("AuthorsMap")
            .with_head(&["a"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "bib.xml".to_string(),
                path: parse_path("//book").unwrap(),
                var: "b".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./author/text()").unwrap(),
                source: "b".to_string(),
                var: "a".to_string(),
            });
        let lav = ViewDef::relational("authorsCache", lav_body);
        SchemaCorrespondence {
            public_documents: vec!["bib.xml".to_string()],
            gav_views: vec![gav],
            lav_views: vec![lav],
            proprietary_relations: vec!["bookRel".to_string()],
            ..Default::default()
        }
    }

    fn title_filter(title: &str) -> XBindQuery {
        XBindQuery::new("Client")
            .with_head(&["a"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "bib.xml".to_string(),
                path: parse_path("//book").unwrap(),
                var: "b".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./title/text()").unwrap(),
                source: "b".to_string(),
                var: "t".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./author/text()").unwrap(),
                source: "b".to_string(),
                var: "a".to_string(),
            })
            .with_atom(XBindAtom::Eq(XBindTerm::var("t"), XBindTerm::str(title)))
    }

    /// The service is shared by reference across request threads.
    #[test]
    fn service_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<MarsService>();
    }

    /// The second arrival of a template (same shape, different constant) is a
    /// cache hit whose SQL carries the *new* constant.
    #[test]
    fn constants_only_repeat_is_a_hit_with_fresh_constants() {
        let service = MarsService::new(Mars::new(correspondence()));
        let cold = service.reformulate_xbind(&title_filter("First Title")).unwrap();
        assert!(cold.sql().unwrap().contains("First Title"));
        let warm = service.reformulate_xbind(&title_filter("Second Title")).unwrap();
        assert!(warm.sql().unwrap().contains("Second Title"));
        assert!(!warm.sql().unwrap().contains("First Title"));
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    /// A hit reports the time the request spent producing it, not the
    /// duration of the cold run that filled the entry.
    #[test]
    fn a_hit_reports_its_own_duration() {
        let service = MarsService::new(Mars::new(correspondence()));
        service.reformulate_xbind(&title_filter("First Title")).unwrap();
        let start = Instant::now();
        let warm = service.reformulate_xbind(&title_filter("Second Title")).unwrap();
        let wall = start.elapsed();
        assert_eq!(service.cache_stats().hits, 1);
        assert!(warm.duration <= wall, "a hit of {wall:?} reported {:?}", warm.duration);
    }

    /// Degenerate inputs surface the structured errors of the cold path and
    /// are never cached.
    #[test]
    fn degenerate_blocks_error_and_are_not_cached() {
        let service = MarsService::new(Mars::new(correspondence()));
        let empty = XBindQuery::new("E").with_head(&["x"]);
        assert!(matches!(service.reformulate_xbind(&empty), Err(MarsError::EmptyBlock { .. })));
        assert_eq!(service.cache_stats().entries, 0);
    }

    /// Replacing the system invalidates entries scoped to the old
    /// fingerprint; the next arrival reformulates cold against the new one.
    #[test]
    fn replace_invalidates_stale_plans() {
        let mut service = MarsService::new(Mars::new(correspondence()));
        service.reformulate_xbind(&title_filter("T")).unwrap();
        assert_eq!(service.cache_stats().entries, 1);
        let old_fp = service.fingerprint();

        let mut changed = correspondence();
        changed.proprietary_relations.push("extraRel".to_string());
        service.replace(Mars::new(changed));
        assert_ne!(service.fingerprint(), old_fp);
        let stats = service.cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.invalidations, 1);
        // The template still reformulates — cold, under the new fingerprint.
        let again = service.reformulate_xbind(&title_filter("T")).unwrap();
        assert!(again.result.has_reformulation());
        assert_eq!(service.cache_stats().entries, 1);
    }

    /// A saturated admission limit sheds the excess arrival with a typed
    /// `Overloaded` error and counts it; the admitted request completes
    /// normally once released. The blocking hook makes the overlap
    /// deterministic.
    #[test]
    fn admission_limit_sheds_with_typed_overload() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let armed = AtomicBool::new(true);
        let hook: FaultHook = Arc::new(move |point: &str| {
            // Block only the first request at "lookup"; later arrivals
            // (the post-release capacity check) must pass through.
            if point == "lookup" && armed.swap(false, Ordering::SeqCst) {
                entered_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
        });
        let service = MarsService::new(Mars::new(correspondence()))
            .with_admission_limit(1)
            .with_fault_hook(hook);
        std::thread::scope(|s| {
            let first = s.spawn(|| service.reformulate_xbind(&title_filter("A")));
            entered_rx.recv().unwrap(); // the first request holds its slot
            let shed = service.reformulate_xbind(&title_filter("B"));
            assert!(matches!(shed, Err(MarsError::Overloaded { limit: 1 })));
            release_tx.send(()).unwrap();
            assert!(first.join().unwrap().is_ok());
        });
        let stats = service.service_stats();
        assert_eq!((stats.served, stats.shed), (1, 1));
        // The shed request computed nothing and its slot was released.
        assert_eq!(service.cache_stats().entries, 1);
        let after = service.reformulate_xbind(&title_filter("C"));
        assert!(after.is_ok(), "capacity is available again after the permits dropped");
    }

    /// A panic mid-request is isolated: the caller gets a typed error,
    /// nothing is cached for the shape, and the next arrival gets a real
    /// (successful) attempt.
    #[test]
    fn panics_are_isolated_and_never_cached() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let poison = Arc::new(AtomicBool::new(true));
        let armed = poison.clone();
        let hook: FaultHook = Arc::new(move |point: &str| {
            if point == "reformulate" && armed.swap(false, Ordering::SeqCst) {
                panic!("injected chaos panic");
            }
        });
        let service = MarsService::new(Mars::new(correspondence())).with_fault_hook(hook);
        let poisoned = service.reformulate_xbind(&title_filter("T"));
        assert!(matches!(poisoned, Err(MarsError::ReformulationPanicked { .. })));
        assert_eq!(service.cache_stats().entries, 0);
        assert_eq!(service.service_stats().panicked, 1);
        // The retry gets a real attempt — and is cached this time.
        let retry = service.reformulate_xbind(&title_filter("T")).unwrap();
        assert!(retry.result.has_reformulation());
        assert_eq!(service.cache_stats().entries, 1);
        assert_eq!(service.service_stats().served, 1);
    }

    /// Cache hygiene: a degraded cold result is withheld from the cache (and
    /// counted), a later sane-budget arrival of the same shape recomputes
    /// and *is* cached, and the arrival after that is a warm hit.
    #[test]
    fn degraded_results_are_never_cached() {
        use std::time::Duration;
        let service = MarsService::new(Mars::new(correspondence()))
            .with_default_budget(ReformulationBudget::unbounded().with_deadline(Duration::ZERO));
        let degraded = service.reformulate_xbind(&title_filter("T")).unwrap();
        assert!(degraded.is_degraded(), "a zero deadline must degrade");
        let cache = service.cache_stats();
        assert_eq!((cache.entries, cache.degraded_uncached), (0, 1));
        assert_eq!(service.service_stats().degraded, 1);

        let sane = ReformulationBudget::unbounded();
        let recomputed = service.reformulate_xbind_with(&title_filter("T"), &sane).unwrap();
        assert!(!recomputed.is_degraded());
        assert!(recomputed.result.has_reformulation());
        assert_eq!(service.cache_stats().entries, 1);

        let warm = service.reformulate_xbind_with(&title_filter("T"), &sane).unwrap();
        assert!(!warm.is_degraded());
        assert_eq!(service.cache_stats().hits, 1);
        assert_eq!(service.service_stats().served, 2);
    }

    /// The full-XQuery service path parses, caches per block, and reports
    /// parse errors as `MarsError`.
    #[test]
    fn xquery_path_goes_through_the_cache() {
        let service = MarsService::new(Mars::new(correspondence()));
        let text = "for $b in //book $a in $b/author/text() return <writer>$a</writer>";
        let cold = service.reformulate_xquery(text, "bib.xml").unwrap();
        assert_eq!(cold.blocks.len(), 1);
        let warm = service.reformulate_xquery(text, "bib.xml").unwrap();
        assert!(warm.blocks[0].result.has_reformulation());
        assert!(service.cache_stats().hits >= 1);
        assert!(matches!(
            service.reformulate_xquery("for $b in", "bib.xml"),
            Err(MarsError::Parse(_))
        ));
    }
}
