//! Regression tests for the shared-compilation and shared-index contracts:
//! a `Mars` instance (and the `ChaseBackchase` engine inside it) compiles
//! its dependency set exactly once, at construction — reformulating any
//! number of query blocks, running any number of back-chase candidates,
//! never recompiles — and premise evaluation over a symbolic instance reuses
//! the instance's persistent per-predicate column indexes instead of
//! rebuilding hash tables per evaluation.
//!
//! These tests live in their own integration-test binary because they assert
//! exact deltas of process-wide counters (`mars_chase::compilation_count`,
//! `mars_chase::index_build_count`); sharing a binary with other tests that
//! build engines concurrently would make the deltas racy. For the same
//! reason the tests *within* this binary serialize themselves on
//! [`COUNTER_LOCK`] — libtest runs them on parallel threads by default.

use mars_system::chase::{compilation_count, index_build_count};
use mars_system::mars::{Mars, MarsOptions, SchemaCorrespondence};
use mars_system::workloads::star::StarConfig;
use mars_system::xml::parse_path;
use mars_system::xquery::{XBindAtom, XBindQuery};
use std::sync::Mutex;

/// Serializes the tests of this binary: each one measures exact deltas of
/// the global compilation counter, so two running concurrently would see
/// each other's compilations.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// A small publishing scenario: a proprietary table published as a document
/// through a GAV view, plus a LAV cache of the author list.
fn correspondence() -> SchemaCorrespondence {
    let case_body =
        XBindQuery::new("PubMap").with_head(&["t", "a"]).with_atom(XBindAtom::Relational {
            relation: "bookRel".to_string(),
            args: vec![
                mars_system::xquery::XBindTerm::var("t"),
                mars_system::xquery::XBindTerm::var("a"),
            ],
        });
    let gav = mars_system::grex::ViewDef::xml_flat(
        "PubMap",
        case_body,
        "bib.xml",
        "book",
        &["title", "author"],
    );
    SchemaCorrespondence {
        public_documents: vec!["bib.xml".to_string()],
        gav_views: vec![gav],
        proprietary_relations: vec!["bookRel".to_string()],
        ..Default::default()
    }
}

#[test]
fn multi_block_reformulation_compiles_dependencies_once() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    let before = compilation_count();
    let mars = Mars::new(correspondence());
    let after_build = compilation_count();
    assert_eq!(after_build - before, 1, "building Mars compiles the dependency set exactly once");

    // A two-block client XQuery (nested FLWR decorrelates into two XBind
    // blocks), plus an extra standalone block: several chases, many
    // back-chase candidates — zero further compilations.
    let nested = r#"<result>
        for $a in distinct(//author/text())
        return
          <item>
            <writer>$a</writer>
            {for $b in //book
                 $a1 in $b/author/text()
             where $a = $a1
             return $b}
          </item>
      </result>"#;
    let result = mars.reformulate_xquery(nested, "bib.xml").expect("parses");
    assert!(result.blocks.len() >= 2, "expected a multi-block query, got {}", result.blocks.len());

    let extra = XBindQuery::new("Extra")
        .with_head(&["t", "a"])
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
        });
    let block = mars.reformulate_xbind(&extra);
    assert!(block.result.has_reformulation());

    assert_eq!(
        compilation_count() - after_build,
        0,
        "no public API caller may recompile dependencies per chase or per block"
    );
}

/// The per-predicate index contract: evaluating the same conjunction again
/// over an unchanged — or grown-by-insert — instance must not rebuild any
/// hash index (the instance's persistent column indexes are built once and
/// maintained incrementally, by inserts and EGD rewrites alike).
#[test]
fn premise_evaluation_reuses_instance_indexes() {
    use mars_system::chase::{evaluate_bindings, satisfiable, SymbolicInstance};
    use mars_system::cq::{Atom, ConjunctiveQuery, Substitution, Term};

    let _serial = COUNTER_LOCK.lock().unwrap();
    let t = Term::var;
    let mut body = Vec::new();
    for i in 0..12 {
        body.push(Atom::named("R", vec![t(&format!("a{i}")), t(&format!("a{}", i + 1))]));
        body.push(Atom::named("L", vec![t(&format!("a{i}"))]));
    }
    let mut inst = SymbolicInstance::from_query(&ConjunctiveQuery::new("Q").with_body(body));
    let premise = vec![
        Atom::named("R", vec![t("x"), t("y")]),
        Atom::named("R", vec![t("y"), t("z")]),
        Atom::named("L", vec![t("x")]),
    ];

    let before = index_build_count();
    let first = evaluate_bindings(&premise, &[], &inst, &Substitution::new());
    assert!(!first.is_empty());
    let after_first = index_build_count();
    assert!(after_first > before, "the first evaluation builds the needed indexes");

    // Re-evaluating (bulk and semijoin) builds nothing.
    let again = evaluate_bindings(&premise, &[], &inst, &Substitution::new());
    assert_eq!(again.len(), first.len());
    assert!(satisfiable(&premise, &[], &inst, &Substitution::new()));
    assert_eq!(
        index_build_count(),
        after_first,
        "repeated evaluation must reuse the persistent indexes, not rebuild them"
    );

    // Inserting maintains the indexes incrementally — still no rebuild, and
    // the new tuple is visible through them.
    inst.insert_atom(&Atom::named("R", vec![t("a12"), t("a13")]));
    let grown = evaluate_bindings(&premise, &[], &inst, &Substitution::new());
    assert_eq!(grown.len(), first.len() + 1);
    assert_eq!(
        index_build_count(),
        after_first,
        "inserts must update the indexes in place, not rebuild them"
    );
}

/// The title-filter client query with a per-request key constant: the
/// arrival pattern of a resident service (one template, many constants).
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
        .with_atom(XBindAtom::Eq(
            mars_system::xquery::XBindTerm::var("t"),
            mars_system::xquery::XBindTerm::str(title),
        ))
}

/// The plan-cache stats contract: constants-only repeats of a template hit
/// the cache, a structurally different query misses, and the counters in
/// `PlanCache::stats()` (surfaced as `MarsService::cache_stats()`) say so.
#[test]
fn plan_cache_counts_hits_and_misses() {
    use mars_system::mars::MarsService;

    let _serial = COUNTER_LOCK.lock().unwrap();
    let service = MarsService::new(Mars::new(correspondence()));
    let cold = service.reformulate_xbind(&title_filter("alpha")).expect("reformulates");
    assert!(cold.result.has_reformulation());
    for key in ["beta", "gamma", "delta"] {
        let warm = service.reformulate_xbind(&title_filter(key)).expect("reformulates");
        assert!(warm.sql().expect("sql").contains(key), "hit carries the fresh constant");
    }
    // A structurally different template (no filter) is its own shape.
    let other = title_filter("unused");
    let other = XBindQuery { atoms: other.atoms[..3].to_vec(), ..other };
    service.reformulate_xbind(&other).expect("reformulates");

    let stats = service.cache_stats();
    assert_eq!(stats.hits, 3, "three constants-only repeats");
    assert_eq!(stats.misses, 2, "two distinct shapes reformulated cold");
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.invalidations, 0);
}

/// Fingerprint invalidation: replacing the system with one built from a
/// changed correspondence strands every cached plan — the service counts
/// the invalidations and reformulates the next arrival cold.
#[test]
fn plan_cache_invalidates_on_fingerprint_change() {
    use mars_system::mars::MarsService;

    let _serial = COUNTER_LOCK.lock().unwrap();
    let mut service = MarsService::new(Mars::new(correspondence()));
    service.reformulate_xbind(&title_filter("alpha")).expect("reformulates");
    let old_fingerprint = service.fingerprint();
    assert_eq!(service.cache_stats().entries, 1);

    let mut changed = correspondence();
    changed.proprietary_relations.push("auditLog".to_string());
    service.replace(Mars::new(changed));
    assert_ne!(service.fingerprint(), old_fingerprint, "the dependency set changed");

    let stats = service.cache_stats();
    assert_eq!(stats.entries, 0, "stale plans are dropped, not served");
    assert_eq!(stats.invalidations, 1);

    let again = service.reformulate_xbind(&title_filter("alpha")).expect("reformulates");
    assert!(again.result.has_reformulation(), "cold reformulation under the new fingerprint");
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
}

/// Concurrent warm access is deterministic: every thread hammering the same
/// shared service gets, for each request constant, output identical to every
/// other thread's and to a cold single-threaded reformulation.
#[test]
fn concurrent_warm_cache_access_is_deterministic() {
    use mars_system::mars::MarsService;

    let _serial = COUNTER_LOCK.lock().unwrap();
    let service = MarsService::new(Mars::new(correspondence()));
    service.reformulate_xbind(&title_filter("warmup")).expect("reformulates");

    let keys = ["k-one", "k-two", "k-three"];
    let per_thread: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    keys.iter()
                        .map(|k| {
                            let block =
                                service.reformulate_xbind(&title_filter(k)).expect("reformulates");
                            format!(
                                "{} | {:?} | {}",
                                block.result.universal_plan,
                                block.result.minimal,
                                block.sql().as_deref().unwrap_or("-")
                            )
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).collect()
    });
    for other in &per_thread[1..] {
        assert_eq!(&per_thread[0], other, "all threads must observe identical warm plans");
    }

    // And the warm plans are exactly what a cold system computes.
    let cold = Mars::new(correspondence());
    for (i, k) in keys.iter().enumerate() {
        let block = cold.try_reformulate_xbind(&title_filter(k)).expect("reformulates");
        let rendered = format!(
            "{} | {:?} | {}",
            block.result.universal_plan,
            block.result.minimal,
            block.sql().as_deref().unwrap_or("-")
        );
        assert_eq!(per_thread[0][i], rendered, "warm output differs from cold for {k}");
    }
}

/// Cache hygiene under budgets: a degraded (best-so-far) result is never
/// inserted into the plan cache — `CacheStats::degraded_uncached` counts it
/// instead — so a later within-budget arrival of the same shape is computed
/// cold, cached, and serves all subsequent warm traffic.
#[test]
fn degraded_results_never_poison_the_plan_cache() {
    use mars_system::mars::{MarsService, ReformulationBudget};
    use std::time::Duration;

    let _serial = COUNTER_LOCK.lock().unwrap();
    let service = MarsService::new(Mars::new(correspondence()));

    // A zero deadline degrades to the universal-plan floor on the cold path.
    let strangled = ReformulationBudget::unbounded().with_deadline(Duration::ZERO);
    let degraded = service
        .reformulate_xbind_with(&title_filter("alpha"), &strangled)
        .expect("degraded, not an error");
    assert!(degraded.is_degraded(), "a zero deadline must cut something");
    let stats = service.cache_stats();
    assert_eq!(stats.entries, 0, "degraded plans are never cached");
    assert_eq!(stats.degraded_uncached, 1);

    // The same shape within budget: no stale hit is possible (nothing was
    // cached), so it reformulates cold — and this one is cached.
    let healthy = service.reformulate_xbind(&title_filter("beta")).expect("reformulates");
    assert!(!healthy.is_degraded());
    assert!(healthy.result.has_reformulation());
    let stats = service.cache_stats();
    assert_eq!((stats.entries, stats.hits, stats.misses), (1, 0, 2));

    // Third arrival: a warm hit off the healthy entry, carrying its constant.
    let warm = service.reformulate_xbind(&title_filter("gamma")).expect("reformulates");
    assert!(!warm.is_degraded());
    assert!(warm.sql().expect("sql").contains("gamma"));
    let stats = service.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.degraded_uncached, 1, "hygiene counter unmoved by healthy traffic");
    let served = service.service_stats();
    assert_eq!((served.served, served.degraded), (2, 1));
}

/// The routed entry point — the one that executes — runs the same ladder:
/// under the service's default budget a routed request degrades, is counted
/// and is withheld from the cache exactly like an unrouted one; without the
/// budget the same shape is served routed, cached, and the warm hit replays
/// the cached route.
#[test]
fn routed_requests_run_under_the_default_budget() {
    use mars_system::mars::{MarsService, ReformulationBudget};
    use mars_system::storage::{RelationalDatabase, XmlStore};
    use std::time::Duration;

    let _serial = COUNTER_LOCK.lock().unwrap();
    let (db, xml) = (RelationalDatabase::new(), XmlStore::new());
    let strangled = MarsService::new(Mars::new(correspondence()))
        .with_default_budget(ReformulationBudget::unbounded().with_deadline(Duration::ZERO));
    let degraded = strangled
        .reformulate_xbind_routed(&title_filter("alpha"), &db, &xml)
        .expect("degraded, not an error");
    assert!(degraded.is_degraded(), "a zero default deadline must cut the routed request too");
    let stats = strangled.cache_stats();
    assert_eq!((stats.entries, stats.degraded_uncached), (0, 1));
    assert_eq!(strangled.service_stats().degraded, 1);

    let service = MarsService::new(Mars::new(correspondence()));
    let cold =
        service.reformulate_xbind_routed(&title_filter("alpha"), &db, &xml).expect("reformulates");
    assert!(!cold.is_degraded());
    let cold_route = cold.route.as_ref().expect("the routed entry point prices the plan");
    let warm =
        service.reformulate_xbind_routed(&title_filter("beta"), &db, &xml).expect("reformulates");
    let stats = service.cache_stats();
    assert_eq!((stats.entries, stats.hits, stats.misses), (1, 1, 1));
    assert_eq!(warm.route.as_ref().expect("replayed").to_string(), cold_route.to_string());
    assert_eq!(service.service_stats().served, 2);
}

/// The cache outranks the budget in the degradation ladder: once a healthy
/// plan is cached, even a zero-deadline arrival of the same shape is served
/// warm and undegraded — budgets only bite on the cold path.
#[test]
fn warm_hits_survive_a_zero_budget() {
    use mars_system::mars::{MarsService, ReformulationBudget};
    use std::time::Duration;

    let _serial = COUNTER_LOCK.lock().unwrap();
    let service = MarsService::new(Mars::new(correspondence()));
    service.reformulate_xbind(&title_filter("alpha")).expect("cold healthy run");

    let strangled = ReformulationBudget::unbounded().with_deadline(Duration::ZERO);
    let warm = service.reformulate_xbind_with(&title_filter("beta"), &strangled).expect("warm run");
    assert!(!warm.is_degraded(), "warm traffic must not degrade under any budget");
    assert!(warm.sql().expect("sql").contains("beta"));
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.degraded_uncached), (1, 0));
    assert_eq!(service.service_stats().served, 2);
}

#[test]
fn star_reformulation_reuses_the_engine_compilation() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    let cfg = StarConfig::figure5(4);
    let before = compilation_count();
    let mars = cfg.mars(MarsOptions::specialized().exhaustive());
    let after_build = compilation_count();
    assert_eq!(after_build - before, 1);

    // The exhaustive star backchase runs hundreds of candidate back-chases;
    // every one must reuse the shared compilation.
    let block = mars.reformulate_xbind(&cfg.client_query());
    assert_eq!(block.result.minimal.len(), 1 << cfg.nv);
    assert_eq!(compilation_count() - after_build, 0, "back-chases must not recompile");
    // The funnel of this run, counter for counter, is pinned by
    // `tests/golden/funnels/star-nc4-exhaustive.txt`.
}

/// Warm plan-cache hits replay the cached routing decision byte-identically:
/// the cold routed request prices the best reformulation against both stores
/// and caches the decision inside the block, so the warm hit carries the same
/// rendered decision without re-pricing.
#[test]
fn warm_plan_cache_hits_replay_the_cached_route() {
    use mars_system::mars::MarsService;
    use mars_system::workloads::scenarios::Scenario;

    let _serial = COUNTER_LOCK.lock().unwrap();
    let scenario = Scenario::matrix()
        .into_iter()
        .find(|s| s.name() == "chain-skewed-r0")
        .expect("the matrix contains the navigation-heavy chain point");
    let (xml, db) = scenario.populate(8, 7);
    let service = MarsService::new(scenario.mars());

    let cold = service
        .reformulate_xbind_routed(&scenario.client_query(), &db, &xml)
        .expect("reformulates");
    let cold_route = cold.route.as_ref().expect("the routed entry point prices the plan");

    let warm = service
        .reformulate_xbind_routed(&scenario.client_query(), &db, &xml)
        .expect("reformulates");
    let warm_route = warm.route.as_ref().expect("the warm hit still carries a route");

    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "second arrival is a shape hit");
    assert_eq!(
        cold_route.to_string(),
        warm_route.to_string(),
        "the warm hit must replay the cached decision byte-identically"
    );
    // The navigation-heavy point routes to the XML backend — the cached
    // decision preserves that, it does not fall back to a default.
    assert!(cold_route.to_string().starts_with("route=xml"), "{cold_route}");
}

/// Fingerprint invalidation strands cached routes along with cached plans:
/// after `replace()` with a changed correspondence, the stale route is
/// dropped and the next routed arrival re-prices cold under the new system.
#[test]
fn fingerprint_invalidation_drops_cached_routes() {
    use mars_system::mars::MarsService;
    use mars_system::workloads::scenarios::Scenario;

    let _serial = COUNTER_LOCK.lock().unwrap();
    let scenario = Scenario::matrix()
        .into_iter()
        .find(|s| s.name() == "chain-skewed-r0")
        .expect("the matrix contains the navigation-heavy chain point");
    let (xml, db) = scenario.populate(8, 7);
    let mut service = MarsService::new(scenario.mars());

    service.reformulate_xbind_routed(&scenario.client_query(), &db, &xml).expect("reformulates");
    assert_eq!(service.cache_stats().entries, 1);
    let old_fingerprint = service.fingerprint();

    let mut changed = scenario.correspondence();
    changed.proprietary_relations.push("auditLog".to_string());
    service.replace(Mars::new(changed));
    assert_ne!(service.fingerprint(), old_fingerprint, "the dependency set changed");
    let stats = service.cache_stats();
    assert_eq!(
        (stats.entries, stats.invalidations),
        (0, 1),
        "stale plans and their routes are dropped, not served"
    );

    let again = service
        .reformulate_xbind_routed(&scenario.client_query(), &db, &xml)
        .expect("re-prices cold under the new fingerprint");
    assert!(again.route.is_some(), "the cold path prices a fresh route");
    let stats = service.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
}
