//! The native navigation kernel on the router's XML route: key lookup and
//! whole-document scan over the chain and snowflake scenarios at scale 1000
//! (the `nav_mixed` tenants of `benchmark/`).
//!
//! A lookup is seeded from the value index and must stay flat in the
//! document size; a scan reads the document once. Rows are checked against
//! the relational executor before timing, and each case asserts the
//! deterministic work counter (`nav_tuples`) at its pinned value and prints
//! it next to the estimate of the plan's `NavScan` leaf, which is in the
//! same unit: a change to the kernel that enumerates more or less fails
//! here, whatever the clock says.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mars_cq::{Substitution, Term};
use mars_storage::{BackendRouter, Route};
use mars_workloads::scenarios::Scenario;

const SCALE: usize = 1000;
const SEED: u64 = 1;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("navigation");
    g.sample_size(20);
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
