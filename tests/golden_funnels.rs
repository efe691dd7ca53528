//! Golden-file tests for the work a cold reformulation does.
//!
//! One snapshot per query that `mars-workloads` builds: the star client
//! query at NC = 4 and 5 (exhaustive and cost-pruned), star corner subsets
//! on an NC = 6 document, the XMark query suite, Example 1.1's client
//! query, and every scenario-matrix point's client query. Each file records
//! the backchase funnel (candidates handed to the checks, prefixes the
//! walk expanded to build them, extensions cut by cost, equivalence
//! checks, memoized resumes, dead-cone skips, extensions cut by pruning
//! criterion 4, minimal reformulations found, and the rounds and premise
//! evaluations of the back-chases, summed per check),
//! the chase to the universal plan (applied steps, rounds, premise rows,
//! universal-plan atoms), the column-index builds of the whole
//! reformulation (`CbStatistics::index_builds`: counted per thread, so
//! parallel tests cannot perturb them), and every minimal reformulation with its cost, the route
//! the router picks for it and the rows it returns on a small populated
//! store.
//!
//! Every counter here is deterministic, so an engine change that claims
//! "same search, same answers" leaves these files byte-identical, and one
//! that moves a counter shows which query moved, which counter and by how
//! much.
//!
//! # Regenerating the snapshots
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_funnels
//! ```
//!
//! then review the diff under `tests/golden/funnels/`.

mod common;

use common::assert_matches_golden;
use mars::{Mars, MarsOptions};
use mars_system::storage::{BackendRouter, RelationalDatabase, XmlStore};
use mars_system::xquery::XBindQuery;
use mars_workloads::scenarios::Scenario;
use mars_workloads::{example11, star::StarConfig, xmark};
use std::fmt::Write;

const DIR: &str = "tests/golden/funnels";

/// Reformulate `query` cold on `mars` and render its funnel, its chase and
/// its minimal reformulations as routed and executed over `xml` / `db`.
fn funnel(mars: &Mars, query: &XBindQuery, xml: &XmlStore, db: &RelationalDatabase) -> String {
    let block = mars.try_reformulate_xbind(query).expect("workload queries are well-formed");
    let (result, stats) = (&block.result, &block.result.stats);
    let mut out = String::new();
    let lines = [
        ("backchase.candidates_inspected", stats.candidates_inspected),
        ("backchase.prefixes_expanded", stats.prefixes_expanded),
        ("backchase.pruned_by_cost", stats.pruned_by_cost),
        ("backchase.equivalence_checks", stats.equivalence_checks),
        ("backchase.chase_cache_hits", stats.chase_cache_hits),
        ("backchase.dead_cone_skips", stats.containment_dead_cone_skips),
        ("backchase.implied_skips", stats.implied_skips),
        ("backchase.minimal_found", result.minimal.len()),
        ("backchase.chase_rounds", stats.backchase_chase_rounds),
        ("backchase.premise_evaluations", stats.backchase_premise_evaluations),
        ("chase.applied_steps", stats.chase.applied_steps),
        ("chase.rounds", stats.chase.rounds),
        ("chase.premise_rows", stats.chase.premise_rows),
        ("chase.universal_plan_atoms", stats.universal_plan_atoms),
        ("chase.index_builds", stats.index_builds),
    ];
    for (name, value) in lines {
        writeln!(out, "{name} {value}").unwrap();
    }
    writeln!(out, "degradation {:?}", stats.degradation).unwrap();
    let router = BackendRouter::new(db, xml);
    for (i, (reformulation, cost)) in result.minimal.iter().enumerate() {
        let plan = router.plan(reformulation);
        let rows = router.execute(&plan).expect("a reformulation executes").rows.len();
        writeln!(out, "\nminimal {i}: cost {cost}, route {}, rows {rows}", plan.decision.route)
            .unwrap();
        writeln!(out, "{reformulation}").unwrap();
    }
    out
}

#[test]
fn star_funnels_are_stable() {
    for nc in [4, 5] {
        let cfg = StarConfig::figure5(nc);
        let (xml, db) = cfg.populate(5, 4, 17);
        for (mode, options) in [
            ("exhaustive", MarsOptions::specialized().exhaustive()),
            ("pruned", MarsOptions::specialized()),
        ] {
            let actual = funnel(&cfg.mars(options), &cfg.client_query(), &xml, &db);
            assert_matches_golden(DIR, &format!("star-nc{nc}-{mode}.txt"), &actual);
        }
    }
}

/// The star templates of the benchmark's NC = 6 tenant, cost-pruned as it
/// runs them: at NV = 5 the smallest, a middle and the full corner set, and
/// the full set again at NV = 4, the tenant's other tuning.
#[test]
fn star_corner_template_funnels_are_stable() {
    for (nv, corners) in [
        (5, vec![1, 2]),
        (5, vec![1, 2, 3]),
        (5, vec![1, 2, 3, 4, 5, 6]),
        (4, vec![1, 2, 3, 4, 5, 6]),
    ] {
        let cfg = StarConfig { nc: 6, nv, proprietary_includes_document: true };
        let (xml, db) = cfg.populate(5, 4, 17);
        let actual =
            funnel(&cfg.mars(MarsOptions::specialized()), &cfg.corner_query(&corners), &xml, &db);
        let ids: String = corners.iter().map(usize::to_string).collect();
        assert_matches_golden(DIR, &format!("star-nc6-nv{nv}-c{ids}.txt"), &actual);
    }
}

#[test]
fn xmark_funnels_are_stable() {
    let mars = xmark::mars(true);
    let (xml, db) = xmark::populate(12, 8, 10);
    for query in xmark::query_suite() {
        let actual = funnel(&mars, &query, &xml, &db);
        assert_matches_golden(DIR, &format!("xmark-{}.txt", query.name), &actual);
    }
}

#[test]
fn example_1_1_funnel_is_stable() {
    let (xml, db) = example11::populate(4);
    let actual = funnel(&example11::mars(), &example11::client_query(), &xml, &db);
    assert_matches_golden(DIR, "example11.txt", &actual);
}

/// The scenario matrix at the scale and seed `golden_routes` uses.
#[test]
fn scenario_funnels_are_stable() {
    for scenario in Scenario::matrix() {
        let (xml, db) = scenario.populate(8, 7);
        let actual = funnel(&scenario.mars(), &scenario.client_query(), &xml, &db);
        assert_matches_golden(DIR, &format!("scenario-{}.txt", scenario.name()), &actual);
    }
}
