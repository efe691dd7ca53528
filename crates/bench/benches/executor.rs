//! Naive evaluator vs cost-based physical executor at growing table sizes.
//!
//! Both executors are byte-identical on results (property-tested in
//! `tests/property_based.rs`); this bench measures what the physical plan
//! layer buys — pushed-down constants, pruned scan columns and
//! statistics-ordered hash joins versus the chase's general binding
//! enumeration — on a skewed fact/dimension join at 1k, 10k and 100k fact
//! tuples, and on a point lookup of one fact by its unique `v` (a pushed-down
//! scan that probes the relation's persistent column index).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mars_cq::{Atom, ConjunctiveQuery, Term};
use mars_storage::RelationalDatabase;

/// `fact(k, v, tag, day)` with `n` rows (10% tagged `hot`) joined to
/// `dim(k, w)` with `n/10` rows; the query asks for the hot `(v, w)` pairs
/// and never touches `day`, so the planner gets a pushdown, a pruned column
/// and a genuinely smaller build side to find.
fn workload(n: usize) -> (RelationalDatabase, ConjunctiveQuery) {
    let mut db = RelationalDatabase::new();
    let dims = (n / 10).max(1);
    for i in 0..n {
        let tag = if i % 10 == 0 { "hot" } else { "cold" };
        db.insert_strs(
            "fact",
            &[&format!("k{}", i % dims), &format!("v{i}"), tag, &format!("d{}", i % 7)],
        );
    }
    for k in 0..dims {
        db.insert_strs("dim", &[&format!("k{k}"), &format!("w{}", k % 50)]);
    }
    let q = ConjunctiveQuery::new("hot_pairs")
        .with_head(vec![Term::var("v"), Term::var("w")])
        .with_body(vec![
            Atom::named(
                "fact",
                vec![Term::var("k"), Term::var("v"), Term::constant_str("hot"), Term::var("day")],
            ),
            Atom::named("dim", vec![Term::var("k"), Term::var("w")]),
        ]);
    (db, q)
}

/// The `k` of the one fact whose `v` is `v<n/2>`.
fn point_lookup(n: usize) -> ConjunctiveQuery {
    ConjunctiveQuery::new("point").with_head(vec![Term::var("k")]).with_atom(Atom::named(
        "fact",
        vec![
            Term::var("k"),
            Term::constant_str(&format!("v{}", n / 2)),
            Term::var("tag"),
            Term::var("day"),
        ],
    ))
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor");
    g.sample_size(10);
    for n in [1_000usize, 10_000, 100_000] {
        let (db, q) = workload(n);
        assert_eq!(db.query(&q), db.query_naive(&q), "executors must agree before timing");
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| b.iter(|| db.query_naive(&q)));
        g.bench_with_input(BenchmarkId::new("physical", n), &n, |b, _| b.iter(|| db.query(&q)));
        let point = point_lookup(n);
        assert_eq!(db.query(&point).len(), 1, "the lookup matches one fact");
        assert_eq!(db.query(&point), db.query_naive(&point), "executors must agree before timing");
        g.bench_with_input(BenchmarkId::new("point_naive", n), &n, |b, _| {
            b.iter(|| db.query_naive(&point))
        });
        g.bench_with_input(BenchmarkId::new("point_physical", n), &n, |b, _| {
            b.iter(|| db.query(&point))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
