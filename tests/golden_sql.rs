//! Golden-file tests for SQL generation.
//!
//! Snapshots the SQL emitted for the chosen reformulation of the paper's
//! scenarios, so later cost-model or join-order changes cannot silently alter
//! the emitted SQL.
//!
//! # Regenerating the snapshots
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_sql
//! ```
//!
//! then review the diff under `tests/golden/` like any other code change.
//! The snapshots are sensitive to the chase's *binding order*: fresh
//! (existential) variables are numbered in the order chase steps fire, so an
//! engine change that reorders premise bindings renames variables throughout
//! the emitted SQL and the goldens must be regenerated. An engine change
//! that intentionally alters the order should regenerate them and say so in
//! its commit message.

mod common;

use mars::MarsOptions;
use mars_system::storage::sql_for_query;
use mars_workloads::{example11, star::StarConfig};

fn assert_matches_golden(name: &str, actual: &str) {
    common::assert_matches_golden("tests/golden", name, actual);
}

#[test]
fn example_1_1_best_reformulation_sql_is_stable() {
    let system = example11::mars();
    let block = system.reformulate_xbind(&example11::client_query());
    let best = block.result.best_or_initial().expect("example 1.1 must reformulate");
    assert_matches_golden("example11_best.sql", &sql_for_query(best).expect("safe query"));
}

#[test]
fn star_best_reformulation_sql_is_stable() {
    let cfg = StarConfig::figure5(3);
    let mars = cfg.mars(MarsOptions::specialized());
    let block = mars.reformulate_xbind(&cfg.client_query());
    let best = block.result.best_or_initial().expect("star query must reformulate");
    assert_matches_golden("star_nc3_best.sql", &sql_for_query(best).expect("safe query"));
}

#[test]
fn star_initial_reformulation_sql_is_stable() {
    let cfg = StarConfig::figure5(3);
    let mars = cfg.mars(MarsOptions::specialized());
    let block = mars.reformulate_xbind(&cfg.client_query());
    let initial =
        block.result.initial.as_ref().expect("star query must have an initial reformulation");
    assert_matches_golden("star_nc3_initial.sql", &sql_for_query(initial).expect("safe query"));
}
