//! A routed plan-cache hit executes what a cold request would.
//!
//! A hit replays its entry's routing decision, and with it the physical tree
//! the cold request planned, and runs that tree with its own query: fresh
//! constants, and every variable spelled differently. The tree names the
//! query's terms by position, so the rows must be those of a cold routed run
//! of the same request, on every route: the star NC 6 key lookup
//! (relational), a chain lookup over the document (xml) and Example 1.1
//! (mixed).

#[path = "common/star.rs"]
mod star;

use mars_system::cost::PhysicalPlan;
use mars_system::mars::{Mars, MarsOptions, MarsService};
use mars_system::storage::{BackendRouter, RelationalDatabase, Route, RoutedPlan, Row, XmlStore};
use mars_system::xquery::{XBindAtom, XBindQuery, XBindTerm};
use mars_workloads::{example11, scenarios::Scenario};
use star::{star_key_lookup, star_nc6, with_variables_renamed};
use std::sync::Arc;

/// Serve `request` through `service` routed against the stores, then execute
/// it: the route that ran, the rows, and the tree the decision holds.
fn serve(
    service: &MarsService,
    request: &XBindQuery,
    db: &RelationalDatabase,
    xml: &XmlStore,
) -> (Route, Vec<Row>, Arc<PhysicalPlan>) {
    let block = service.reformulate_xbind_routed(request, db, xml).expect("reformulates");
    let query = block.result.best_or_initial().expect("an executable query").clone();
    let decision = block.route.expect("a routed block carries its decision");
    let tree = Arc::clone(decision.tree.as_ref().expect("a query with a body has a tree"));
    let plan = RoutedPlan { query, decision };
    let executed = BackendRouter::new(db, xml).execute(&plan).expect("executes");
    (executed.route, executed.rows, tree)
}

/// Serve `first` cold, then `second` as a hit of the same service: the hit
/// runs the tree the first request planned, on `route`, and returns the rows
/// a cold routed run of `second` returns, which are not the first's.
fn hit_executes_the_cold_rows(
    system: impl Fn() -> Mars,
    (first, second): (XBindQuery, XBindQuery),
    (db, xml): (&RelationalDatabase, &XmlStore),
    route: Route,
) {
    let service = MarsService::new(system());
    let (first_route, first_rows, planned) = serve(&service, &first, db, xml);
    let (warm_route, warm_rows, ran) = serve(&service, &second, db, xml);
    assert_eq!(service.cache_stats().hits, 1, "the second request hits the first's entry");
    assert!(Arc::ptr_eq(&planned, &ran), "a hit runs the tree its entry keeps");

    let (cold_route, cold_rows, _) = serve(&MarsService::new(system()), &second, db, xml);
    assert_eq!([first_route, warm_route, cold_route], [route; 3]);
    assert!(!cold_rows.is_empty(), "the second request selects something");
    assert_eq!(warm_rows, cold_rows);
    assert_ne!(warm_rows, first_rows, "the hit runs with its own constants");
}

#[test]
fn a_relational_hit_executes_the_cold_rows() {
    let (xml, db) = star_nc6().populate(20, 4, 3);
    let requests = (star_key_lookup("k3", "first"), star_key_lookup("k11", "second"));
    let system = || star_nc6().mars(MarsOptions::specialized());
    hit_executes_the_cold_rows(system, requests, (&db, &xml), Route::Relational);
}

#[test]
fn an_xml_hit_executes_the_cold_rows() {
    let scenario = Scenario::matrix().into_iter().find(|s| s.name() == "chain-uniform-r0").unwrap();
    let (xml, db) = scenario.populate(8, 7);
    // Two keys the chain's first link holds: the head's first column.
    let keys: Vec<String> = db
        .query(&scenario.navigation_query())
        .iter()
        .map(|row| row[0].as_const().expect("ground answers").render())
        .collect();
    let (a, b) = (&keys[0], keys.last().unwrap());
    assert_ne!(a, b, "the chain holds two keys");
    let lookup = |key: &str, suffix: &str| {
        let filter = XBindAtom::Eq(XBindTerm::var("k1"), XBindTerm::str(key));
        with_variables_renamed(scenario.client_query().with_atom(filter), suffix)
    };
    let requests = (lookup(a, "first"), lookup(b, "second"));
    hit_executes_the_cold_rows(|| scenario.mars(), requests, (&db, &xml), Route::Xml);
}

#[test]
fn a_mixed_hit_executes_the_cold_rows() {
    let (xml, db) = example11::populate(4);
    let diagnosis = |diag: &str, suffix: &str| {
        let filter = XBindAtom::Eq(XBindTerm::var("diag"), XBindTerm::str(diag));
        with_variables_renamed(example11::client_query().with_atom(filter), suffix)
    };
    let requests = (diagnosis("flu", "first"), diagnosis("asthma", "second"));
    hit_executes_the_cold_rows(example11::mars, requests, (&db, &xml), Route::Mixed);
}
