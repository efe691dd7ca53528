//! Golden-file tests for physical plan compilation.
//!
//! Snapshots the rendered physical plan ([`mars_cost::physical_plan`] via
//! `RelationalDatabase::plan`) for the chosen reformulations of the paper's
//! scenarios over deterministically populated stores, and the router's tree
//! for the two reformulations that navigate natively (planned with the XML
//! store's statistics, so their navigation atoms form a `NavScan` leaf), so
//! planner changes — join order, build-side choice, pruning, pushdown, the
//! navigation order — cannot silently alter plan shapes. The planner steers
//! cost only, never results (the executors are property-tested
//! byte-identical for any plan), so a golden diff here is a *performance*
//! review, not a correctness one.
//!
//! # Regenerating the snapshots
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_plans
//! ```
//!
//! then review the diff under `tests/golden/plans/` like any other code
//! change. The snapshots are sensitive to the chase's binding order (variable
//! names in the rendered plans) and to the workload generators' document
//! seeds (the `~N rows` estimates come from exact statistics of the populated
//! stores).

mod common;

use mars::MarsOptions;
use mars_system::cost::{physical_plan, Route};
use mars_system::cq::{Atom, ConjunctiveQuery, Term};
use mars_system::storage::RelationalDatabase;
use mars_workloads::{example11, star::StarConfig, xmark};

fn assert_matches_golden(name: &str, actual: &str) {
    common::assert_matches_golden("tests/golden/plans", name, actual);
}

/// The star's best reformulation planned over the populated views: the plan
/// must prune the unused specialization columns and pick build sides from the
/// materialized cardinalities.
#[test]
fn star_best_reformulation_plan_is_stable() {
    let cfg = StarConfig::figure5(3);
    let (_xml, db) = cfg.populate(5, 4, 17);
    let mars = cfg.mars(MarsOptions::specialized());
    let block = mars.reformulate_xbind(&cfg.client_query());
    let best = block.result.best_or_initial().expect("star query must reformulate");
    assert_matches_golden("star_nc3_best.plan.txt", &db.plan(best).display(best).to_string());
}

/// The star's initial (pre-minimization) reformulation plan over the same
/// store — a wider join whose order the statistics still drive.
#[test]
fn star_initial_reformulation_plan_is_stable() {
    let cfg = StarConfig::figure5(3);
    let (_xml, db) = cfg.populate(5, 4, 17);
    let mars = cfg.mars(MarsOptions::specialized());
    let block = mars.reformulate_xbind(&cfg.client_query());
    let initial =
        block.result.initial.as_ref().expect("star query must have an initial reformulation");
    assert_matches_golden(
        "star_nc3_initial.plan.txt",
        &db.plan(initial).display(initial).to_string(),
    );
}

/// Example 1.1's best reformulation planned over its populated stores.
#[test]
fn example_1_1_best_reformulation_plan_is_stable() {
    let (_xml, db) = example11::populate(4);
    let system = example11::mars();
    let block = system.reformulate_xbind(&example11::client_query());
    let best = block.result.best_or_initial().expect("example 1.1 must reformulate");
    assert_matches_golden("example11_best.plan.txt", &db.plan(best).display(best).to_string());
}

/// The router's tree for Example 1.1's best reformulation over the same
/// stores: the cached document's navigation as one `NavScan`, hash-joined
/// with the `drugPrice` scan — the mixed route.
#[test]
fn example_1_1_mixed_tree_is_stable() {
    let (xml, db) = example11::populate(4);
    let block = example11::mars().reformulate_xbind(&example11::client_query());
    let best = block.result.best_or_initial().expect("example 1.1 must reformulate");
    let tree = physical_plan(best, &db, Some(&xml));
    assert_eq!(Route::of(&tree), Route::Mixed);
    assert_matches_golden("example11_mixed.plan.txt", &tree.display(best).to_string());
}

/// The router's tree for XMark Q4's best reformulation: one `NavScan` under
/// the tail — the xml route.
#[test]
fn xmark_q4_native_tree_is_stable() {
    let (xml, db) = xmark::populate(12, 8, 10);
    let q4 = xmark::query_suite().into_iter().find(|q| q.name == "Q4_item_names").unwrap();
    let block = xmark::mars(true).reformulate_xbind(&q4);
    let best = block.result.best_or_initial().expect("Q4 must reformulate");
    let tree = physical_plan(best, &db, Some(&xml));
    assert_eq!(Route::of(&tree), Route::Xml);
    assert_matches_golden("xmark_q4_native.plan.txt", &tree.display(best).to_string());
}

/// A hand-written query over a skewed catalog, pinning all three planner
/// behaviors in one snapshot: the `'shipped'` constant is pushed into the
/// scan, the unused `day` column is pruned, and the selective `orders` side
/// is both joined first and chosen as the build side.
#[test]
fn pushdown_pruning_and_build_side_are_visible() {
    let mut db = RelationalDatabase::new();
    for (c, item, status, day) in [
        ("ann", "tea", "shipped", "mon"),
        ("ann", "mugs", "pending", "tue"),
        ("bob", "tea", "pending", "tue"),
        ("cal", "pens", "shipped", "wed"),
        ("dee", "ink", "pending", "thu"),
        ("dee", "tea", "pending", "fri"),
    ] {
        db.insert_strs("orders", &[c, item, status, day]);
    }
    for (c, region) in [("ann", "EU"), ("bob", "US"), ("cal", "US"), ("dee", "EU")] {
        db.insert_strs("customers", &[c, region]);
    }
    let q = ConjunctiveQuery::new("Q")
        .with_head(vec![Term::var("item"), Term::var("region")])
        .with_body(vec![
            Atom::named(
                "orders",
                vec![
                    Term::var("c"),
                    Term::var("item"),
                    Term::constant_str("shipped"),
                    Term::var("day"),
                ],
            ),
            Atom::named("customers", vec![Term::var("c"), Term::var("region")]),
        ])
        .with_inequality(Term::var("region"), Term::constant_str("EU"));
    assert_matches_golden("pushdown_demo.plan.txt", &db.plan(&q).display(&q).to_string());
    // The executed rows must agree with the naive evaluator regardless of
    // what the snapshot pinned.
    assert_eq!(db.query(&q), db.query_naive(&q));
    assert_eq!(db.query_strings(&q), vec![vec!["pens".to_string(), "US".to_string()]]);
}
