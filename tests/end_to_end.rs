//! Cross-crate integration tests: the full MARS pipeline on the paper's
//! scenarios, checked for *semantic correctness* — the reformulated query
//! returns the same answers over the proprietary storage as the original
//! query over the published data.

use mars::{Mars, MarsOptions};
use mars_storage::{materialize_view, BackendRouter, RelationalDatabase, XmlStoreError};
use mars_workloads::{example11, star::StarConfig, xmark};
use std::collections::HashMap;

#[test]
fn star_reformulation_preserves_answers() {
    let cfg = StarConfig::figure5(3);
    let (xml, db) = cfg.populate(5, 4, 11);
    let mars = cfg.mars(MarsOptions::specialized());
    let block = mars.reformulate_xbind(&cfg.client_query());
    assert!(block.result.has_reformulation());

    let unreformulated = xml.eval_xbind(&cfg.client_query(), &HashMap::new()).unwrap();
    let best = block.result.best_or_initial().unwrap();
    let reformulated = db.query(best);
    assert_eq!(
        unreformulated.len(),
        reformulated.len(),
        "reformulated query must return the same number of answers"
    );
}

/// A specialization relation is a materialized view: a reformulation that
/// reads `Rspec` and the `S_ispec` fails with `NotLoaded` on stores that
/// never materialized them, instead of answering with no rows; an empty
/// extent answers with none.
#[test]
fn unmaterialized_specializations_are_not_loaded() {
    let cfg = StarConfig::figure5(3);
    let mars = cfg.mars(MarsOptions::specialized());
    let block = mars.reformulate_xbind(&cfg.corner_query(&[1, 2, 3]));
    let (best, _) = block.result.best.as_ref().expect("a best reformulation");
    let mut relations: Vec<&str> = best.body.iter().map(|a| a.predicate.name()).collect();
    relations.sort_unstable();
    assert_eq!(relations, ["Rspec", "S1spec", "S2spec", "S3spec"], "{best}");

    let (mut xml, db) = cfg.populate(20, 4, 11);
    let router = BackendRouter::new(&db, &xml);
    assert_eq!(router.execute(&router.plan(best)).unwrap().rows.len(), 20, "one row per hub");

    let mut views_only = RelationalDatabase::new();
    for l in 1..=cfg.nv {
        materialize_view(&cfg.view(l), &mut xml, &mut views_only).unwrap();
    }
    let router = BackendRouter::new(&views_only, &xml);
    match router.execute(&router.plan(best)) {
        Err(XmlStoreError::NotLoaded { predicate }) => assert_eq!(predicate.name(), "Rspec"),
        other => panic!("expected NotLoaded {{ Rspec }}, got {other:?}"),
    }

    // An empty extent is held: a star without hubs answers with no rows.
    let (xml, db) = cfg.populate(0, 4, 11);
    let router = BackendRouter::new(&db, &xml);
    assert!(router.execute(&router.plan(best)).unwrap().rows.is_empty());
}

#[test]
fn example_1_1_reformulates_and_executes() {
    let system = example11::mars();
    let (xml, mut db) = example11::populate(6);
    let block = system.reformulate_xbind(&example11::client_query());
    assert!(block.result.has_reformulation());
    // Mixed storage: reformulations may navigate the proprietary XML documents.
    // Load their GReX encodings so the relational engine can execute those atoms.
    for doc in xml.document_names() {
        db.load_facts(&mars_system::grex::encode_document(xml.document(&doc).unwrap()));
    }
    let best = block.result.best_or_initial().unwrap();
    let rows = db.query(best);
    assert!(!rows.is_empty(), "diagnosis-price associations must be returned: {best}");
}

/// Resuming back-chases from the memo must find exactly what chasing every
/// candidate from scratch finds: every minimal reformulation with its cost,
/// in discovery order, and the same best — on the exhaustive star at NC = 4
/// and on Example 1.1.
#[test]
fn memoized_and_scratch_backchase_agree_on_the_workloads() {
    let star = StarConfig::figure5(4);
    let cases = [
        (
            "star NC = 4",
            star.client_query(),
            Box::new(|o| star.mars(o)) as Box<dyn Fn(MarsOptions) -> Mars>,
            MarsOptions::specialized().exhaustive(),
        ),
        (
            "Example 1.1",
            example11::client_query(),
            Box::new(|o| Mars::with_options(example11::correspondence(), o)),
            MarsOptions::default(),
        ),
    ];
    for (name, query, build, options) in cases {
        let mut scratch_options = options.clone();
        scratch_options.cb.backchase.chase_cache_per_level = 0;
        let memo = build(options).try_reformulate_xbind(&query).expect("reformulates").result;
        let scratch =
            build(scratch_options).try_reformulate_xbind(&query).expect("reformulates").result;
        assert!(memo.stats.chase_cache_hits > 0, "{name}: the memo must be exercised");
        assert_eq!(scratch.stats.chase_cache_hits, 0, "{name}");
        assert!(!memo.minimal.is_empty(), "{name}");
        assert_eq!(memo.minimal, scratch.minimal, "{name}");
        assert_eq!(memo.best, scratch.best, "{name}");
    }
}

#[test]
fn xmark_suite_reformulates_within_budget() {
    let system = xmark::mars(true);
    for q in xmark::query_suite() {
        let block = system.reformulate_xbind(&q);
        assert!(block.result.has_reformulation(), "{} must be reformulable", q.name);
        assert!(
            block.duration.as_secs() < 30,
            "{} took unreasonably long: {:?}",
            q.name,
            block.duration
        );
    }
}
