//! Golden-file tests for the work each dependency does in a cold
//! reformulation.
//!
//! One snapshot per profiled query: the NC = 6, NV = 5 star over all six
//! corners (what the benchmark's cold templates run), Example 1.1's client
//! query and XMark Q2. Each lists, for the chase to the universal plan and
//! for the back-chases (summed per equivalence check), every dependency that
//! was evaluated, with its premise evaluations, the rows that left its
//! premise program and the chase steps it applied, sorted by evaluations. A
//! dependency evaluated that never fires is marked. Every count is
//! deterministic, so a change to which dependencies the chases run shows
//! here as a diff of named lines.
//!
//! # Regenerating the snapshots
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_dependencies
//! ```
//!
//! then review the diff under `tests/golden/dependencies/`.

mod common;

use common::assert_matches_golden;
use mars::{Mars, MarsOptions};
use mars_system::chase::DependencyWork;
use mars_system::xquery::XBindQuery;
use mars_workloads::{example11, star::StarConfig, xmark};
use std::fmt::Write;

const DIR: &str = "tests/golden/dependencies";

/// Reformulate `query` cold on `mars` and render the work of each
/// dependency: one section for the chase to the universal plan, one for the
/// back-chases.
fn dependency_profile(mars: &Mars, query: &XBindQuery) -> String {
    let block = mars.try_reformulate_xbind(query).expect("workload queries are well-formed");
    let stats = &block.result.stats;
    let deds = mars.dependencies();
    let mut out = String::new();
    let sections = [
        ("chase to the universal plan", &stats.chase.dependencies),
        ("back-chases, summed per check", &stats.backchase_dependencies),
    ];
    for (title, work) in sections {
        let mut rows: Vec<(&str, DependencyWork)> = work
            .iter()
            .enumerate()
            .filter(|(_, w)| w.evaluations > 0)
            .map(|(i, w)| (deds[i].name.as_str(), *w))
            .collect();
        rows.sort_by(|(a, x), (b, y)| y.evaluations.cmp(&x.evaluations).then(a.cmp(b)));
        writeln!(out, "# {title}: {} of {} dependencies evaluated", rows.len(), deds.len())
            .unwrap();
        writeln!(out, "evaluations premise_rows applied_steps dependency").unwrap();
        for (name, w) in rows {
            let mark = if w.applied_steps == 0 { " (never fires)" } else { "" };
            writeln!(
                out,
                "{:>11} {:>12} {:>13} {name}{mark}",
                w.evaluations, w.premise_rows, w.applied_steps
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

#[test]
fn star_dependency_profile_is_stable() {
    let star = StarConfig { nc: 6, nv: 5, proprietary_includes_document: true };
    let actual = dependency_profile(
        &star.mars(MarsOptions::specialized()),
        &star.corner_query(&[1, 2, 3, 4, 5, 6]),
    );
    assert_matches_golden(DIR, "star-nc6-nv5-c123456.txt", &actual);
}

#[test]
fn example_1_1_dependency_profile_is_stable() {
    let actual = dependency_profile(&example11::mars(), &example11::client_query());
    assert_matches_golden(DIR, "example11.txt", &actual);
}

#[test]
fn xmark_q2_dependency_profile_is_stable() {
    let q2 = xmark::query_suite()
        .into_iter()
        .find(|q| q.name == "Q2_sellers_with_city")
        .expect("XMark Q2 is in the suite");
    let actual = dependency_profile(&xmark::mars(true), &q2);
    assert_matches_golden(DIR, "xmark-Q2_sellers_with_city.txt", &actual);
}
