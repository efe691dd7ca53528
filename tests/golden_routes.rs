//! Golden-file tests for backend routing decisions.
//!
//! Snapshots the rendered [`RoutingDecision`](mars_system::storage::RoutingDecision)
//! — chosen route plus the per-backend cost estimates — for the best
//! reformulation of every scenario-matrix point, of Example 1.1 (the one
//! mixed route) and of the XMark query suite over deterministically
//! populated stores. Router changes (the navigation cost model, the greedy
//! atom and join orders, which atoms a tree navigates) cannot silently flip
//! a route or shift an estimate: the routing layer steers *where* a query
//! runs, never what it returns (the differential suite in `property_based.rs`
//! pins byte-identical rows on every route), so a golden diff here is a
//! routing review, not a correctness one.
//!
//! # Regenerating the snapshots
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_routes
//! ```
//!
//! then review the diff under `tests/golden/routes/` like any other code
//! change. The estimates come from exact statistics of the populated stores,
//! so they are sensitive to the workload generators' scale and seed (pinned
//! below) and to the navigation cost model in `mars-cost`.

mod common;

use common::assert_matches_golden;
use mars::Mars;
use mars_system::storage::{BackendRouter, RelationalDatabase, Route, XmlStore};
use mars_system::xquery::XBindQuery;
use mars_workloads::scenarios::Scenario;
use mars_workloads::{example11, xmark};

/// Scale and seed for the snapshot stores — small enough to populate fast,
/// large enough that the per-backend estimates separate clearly.
const SCALE: usize = 8;
const SEED: u64 = 7;

/// One snapshot per scenario-matrix point: the auto route chosen for the
/// best reformulation, with every backend's estimate (or `infeasible`).
/// Then the same, with the rows, for Example 1.1 and the XMark suite.
///
/// Those two run after the matrix, in this function: a reformulation's body
/// is sorted by interned symbol, so whichever query first interns the
/// compiler's fresh variable names decides how equal-cost navigation atoms
/// are ordered, and with it their estimate.
#[test]
fn routing_decisions_are_stable_across_the_scenario_matrix() {
    let mut routed = Vec::new();
    for scenario in Scenario::matrix() {
        let block = scenario
            .mars()
            .try_reformulate_xbind(&scenario.client_query())
            .expect("scenario queries are well-formed");
        let best = block.result.best_or_initial().expect("every scenario has an executable query");
        let (xml, db) = scenario.populate(SCALE, SEED);
        let router = BackendRouter::new(&db, &xml);
        let plan = router.plan(best);
        assert_matches_golden(
            "tests/golden/routes",
            &format!("{}.route.txt", scenario.name()),
            &plan.decision.to_string(),
        );
        routed.push((scenario.view_backed(), plan.decision.route));
    }
    // Survives a golden regeneration: the router must actually route.
    assert!(routed.contains(&(false, Route::Xml)), "no navigation-heavy scenario went to XML");
    assert!(routed.contains(&(true, Route::Relational)), "no view-backed scenario went relational");

    // Example 1.1's best reformulation joins the cached document with the
    // `drugPrice` table: the only mixed route any workload takes.
    let (xml, db) = example11::populate(8);
    let example = route_and_rows(&example11::mars(), &example11::client_query(), &xml, &db);
    assert!(example.starts_with("route=mixed"), "{example}");
    assert_matches_golden("tests/golden/routes", "example11.route.txt", &example);

    // XMark, where Q4 navigates the document natively.
    let mars = xmark::mars(true);
    let (xml, db) = xmark::populate(12, 8, 10);
    for query in xmark::query_suite() {
        let actual = route_and_rows(&mars, &query, &xml, &db);
        let name = format!("xmark-{}.route.txt", query.name);
        assert_matches_golden("tests/golden/routes", &name, &actual);
    }
}

/// One snapshot per scenario-matrix point for its client query compiled to
/// pure navigation (`navigation_query`): the auto route with every backend's
/// estimate, and the rows it returns.
#[test]
fn navigation_queries_route_stably_across_the_scenario_matrix() {
    for scenario in Scenario::matrix() {
        let (xml, db) = scenario.populate(SCALE, SEED);
        let router = BackendRouter::new(&db, &xml);
        let plan = router.plan(&scenario.navigation_query());
        let rows = router.execute(&plan).expect("a navigation query executes").rows.len();
        assert_matches_golden(
            "tests/golden/routes",
            &format!("{}.navigation.route.txt", scenario.name()),
            &format!("{}\nrows {rows}\n", plan.decision.to_string().trim_end()),
        );
    }
}

/// The auto route of `query`'s best reformulation on `mars` over `xml` /
/// `db`, with every backend's estimate and the rows it returns.
fn route_and_rows(
    mars: &Mars,
    query: &XBindQuery,
    xml: &XmlStore,
    db: &RelationalDatabase,
) -> String {
    let block = mars.try_reformulate_xbind(query).expect("workload queries are well-formed");
    let best = block.result.best_or_initial().expect("every workload query has a plan");
    let router = BackendRouter::new(db, xml);
    let plan = router.plan(best);
    let rows = router.execute(&plan).expect("the documents are stored").rows.len();
    format!("{}\nrows {rows}\n", plan.decision.to_string().trim_end())
}
