//! The native navigation kernel on the router's XML route: key lookup and
//! whole-document scan over the chain and snowflake scenarios at scale 1000
//! (the `nav_mixed` tenants of `benchmark/`), and loading those documents.
//!
//! A lookup is seeded from the value index and must stay flat in the
//! document size; a scan reads the document once. Rows are checked against
//! the relational executor before timing, and each case asserts the
//! deterministic work counter (`nav_tuples`) at its pinned value and prints
//! it next to the estimate of the plan's `NavScan` leaf, which is in the
//! same unit: a change to the kernel that enumerates more or less fails
//! here, whatever the clock says.
//!
//! A load encodes the document into GReX facts, loads them into a
//! relational store, and builds the document's navigation index (a copy of
//! the document is stored each time): a tenant's set-up without generating
//! the document. The first load of each asserts how many symbols it
//! interns, between two fresh probe strings: its tags, texts, predicates
//! and name, and no node.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mars_cost::NavigationStatistics;
use mars_cq::{symbol, Substitution, Term};
use mars_grex::encode_document;
use mars_storage::{BackendRouter, RelationalDatabase, Route, XmlStore};
use mars_workloads::scenarios::Scenario;
use mars_xml::Document;

const SCALE: usize = 1000;
const SEED: u64 = 1;

/// Encode `doc`, load its facts, store it and build its index.
fn load(doc: &Document) -> (RelationalDatabase, XmlStore) {
    let mut db = RelationalDatabase::new();
    db.load_facts(&encode_document(doc));
    let mut xml = XmlStore::new();
    xml.add_document(doc.clone());
    xml.stats(&doc.name).expect("the document was just stored");
    (db, xml)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("navigation");
    g.sample_size(20);
    // (scenario, symbols its first load interns). The snowflake loads after
    // the chain, whose tags `K` and `B` it shares.
    for (name, symbols) in [("chain-uniform-r0", 4016), ("snowflake-skewed-r0", 7018)] {
        let scenario = Scenario::matrix().into_iter().find(|s| s.name() == name).unwrap();
        let doc = scenario.generate_document(SCALE, SEED);
        let before = symbol(&format!("navigation bench: before loading {name}")).0;
        load(&doc);
        let after = symbol(&format!("navigation bench: after loading {name}")).0;
        assert_eq!(after - before - 1, symbols, "{name}: symbols its first load interns");
        g.bench_with_input(BenchmarkId::new("load", name), &doc, |b, doc| b.iter(|| load(doc)));
    }
    // (scenario, lookup key, nav_tuples of the lookup and of the scan)
    for (name, key, work) in [
        ("chain-uniform-r0", "k1_500", [24, 22_003]),
        ("snowflake-skewed-r0", "k500", [44, 43_004]),
    ] {
        let scenario = Scenario::matrix().into_iter().find(|s| s.name() == name).unwrap();
        let (xml, db) = scenario.populate(SCALE, SEED);
        let router = BackendRouter::new(&db, &xml);
        let scan = scenario.navigation_query();
        let mut fixed = Substitution::new();
        fixed.set(scan.head[0].as_var().expect("the key heads the query"), Term::constant_str(key));
        for ((form, q), tuples) in
            [("lookup", scan.apply(&fixed)), ("scan", scan)].into_iter().zip(work)
        {
            let plan = router.plan_forced(&q, Route::Xml);
            let exec = router.execute(&plan).expect("the scenario document is stored");
            assert_eq!(exec.route, Route::Xml);
            assert_eq!(exec.rows, db.query(&q), "{name} {form}: routes must agree before timing");
            assert_eq!(exec.nav_tuples, tuples, "{name} {form}: the kernel's pinned work");
            println!(
                "{name} {form}: {} rows, nav_tuples {} (NavScan estimate {:.1})",
                exec.rows.len(),
                exec.nav_tuples,
                exec.estimated_cost
            );
            g.bench_with_input(BenchmarkId::new(form, name), &plan, |b, plan| {
                b.iter(|| router.execute(plan).expect("the scenario document is stored"))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
