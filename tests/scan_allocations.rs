//! How many allocations one execute of a scan-sized answer makes.
//!
//! The star NC 6 / NV 5 query over corners 1–4 that excludes one `B` of
//! corner 1 — the four-view shape of the benchmark's scan workload — runs
//! over 1 000 hubs as a join of four materialized views: three hash joins
//! of about 1 000 rows each, then the root `Distinct`. A join's table and
//! the `Distinct` allocate a fixed number of buffers whatever the number of
//! rows or keys, so the count is the result's rows plus a constant. The
//! same holds on the XML route, where the navigation kernel writes its rows
//! into one batch per enumerating step that expands: a key lookup over the
//! chain and snowflake scenarios allocates a constant, a scan its rows plus
//! a constant. The counting allocator (`common/counting.rs`) is this
//! binary's global allocator, which is why the test has a file of its own.

use mars_system::cost::PhysicalPlan;
use mars_system::cq::{Substitution, Term};
use mars_system::mars::{MarsOptions, MarsService};
use mars_system::storage::{BackendRouter, Route, RoutedPlan};
use mars_system::workloads::scenarios::Scenario;
use mars_system::workloads::star::StarConfig;
use mars_system::xquery::{XBindAtom, XBindTerm};

#[path = "common/counting.rs"]
mod counting;

use counting::counted;

/// The hash joins of a physical tree.
fn joins(plan: &PhysicalPlan) -> usize {
    match plan {
        PhysicalPlan::TableScan(_) | PhysicalPlan::NavScan(_) => 0,
        PhysicalPlan::HashJoin { left, right, .. } => 1 + joins(left) + joins(right),
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Distinct { input } => joins(input),
    }
}

#[test]
fn a_four_view_scan_allocates_per_row_not_per_key() {
    let config = StarConfig::figure5(6);
    let (xml, db) = config.populate(1_000, 40, 5);
    let service = MarsService::new(config.mars(MarsOptions::specialized()));
    let request = config
        .corner_query(&[1, 2, 3, 4])
        .with_atom(XBindAtom::Neq(XBindTerm::var("b1"), XBindTerm::str("b1_0")));
    let block = service.reformulate_xbind_routed(&request, &db, &xml).expect("routed");
    let query = block.result.best_or_initial().expect("an executable query").clone();
    let decision = block.route.expect("a routed decision");
    assert_eq!(decision.route, Route::Relational);
    let tree = decision.tree.as_deref().expect("a tree over the views");
    assert_eq!(joins(tree), 3, "four views, three joins:\n{query}");
    let plan = RoutedPlan { query, decision };
    // One execute first, so that any persistent column index the plan
    // probes exists before the counted one.
    let router = BackendRouter::new(&db, &xml);
    router.execute(&plan).expect("executes");

    let (executed, allocations) = counted(|| router.execute(&plan).expect("executes"));
    let rows = executed.rows.len() as u64;
    assert!(rows > 900, "{rows} rows: most hubs keep their row");
    println!("one execute of a {rows}-row scan: {allocations} allocations");
    assert!(allocations <= rows + 64, "{allocations} allocations for {rows} rows");
}

/// The `navigation` bench's cases: the key lookup and the whole-document
/// scan of the chain and snowflake scenarios at scale 1 000, seed 1, on the
/// XML route. A lookup's batches hold a row or two whatever the document's
/// size; a scan's result holds a `Row` per answer.
#[test]
fn xml_route_lookups_allocate_a_constant_and_scans_per_row() {
    for (name, key) in [("chain-uniform-r0", "k1_500"), ("snowflake-skewed-r0", "k500")] {
        let scenario = Scenario::matrix().into_iter().find(|s| s.name() == name).unwrap();
        let (xml, db) = scenario.populate(1_000, 1);
        let router = BackendRouter::new(&db, &xml);
        let scan = scenario.navigation_query();
        let mut fixed = Substitution::new();
        fixed.set(scan.head[0].as_var().expect("the key heads the query"), Term::constant_str(key));
        let lookup = scan.apply(&fixed);
        for (form, q, rows) in [("lookup", lookup, 1), ("scan", scan, 1_000)] {
            let plan = router.plan_forced(&q, Route::Xml);
            // One execute first: the document's index is built on first use.
            router.execute(&plan).expect("the scenario document is stored");
            let (executed, allocations) =
                counted(|| router.execute(&plan).expect("the scenario document is stored"));
            assert_eq!((executed.route, executed.rows.len()), (Route::Xml, rows), "{name} {form}");
            println!("{name} {form}: {allocations} allocations for {rows} rows");
            let bound = if rows == 1 { 24 } else { rows as u64 + 24 };
            assert!(allocations <= bound, "{name} {form}: {allocations} allocations");
        }
    }
}
