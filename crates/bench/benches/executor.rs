//! Naive evaluator vs cost-based physical executor at growing table sizes.
//!
//! Both executors are byte-identical on results (property-tested in
//! `tests/property_based.rs`); this bench measures what the physical plan
//! layer buys — pushed-down constants, pruned scan columns and
//! statistics-ordered hash joins versus the chase's general binding
//! enumeration — on a skewed fact/dimension join at 1k, 10k and 100k fact
//! tuples, on a point lookup of one fact by its unique `v` (a pushed-down
//! scan that probes the relation's persistent column index), and on four
//! relations joined 1:1 on a key at 1k, 5k, 10k, 20k and 40k keys
//! (`key_join`: the view joins of a scan-sized star answer, three hash joins
//! and a `Distinct` over every key; `key_join_naive` is the naive evaluator
//! on the same join). The keys are symbols interned in order, so `key_join`
//! also shows whether the join's chained table spreads sequential ids: its
//! time per key should not rise with the key count.

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

/// `v1(k, b1)` … `v4(k, b4)`, each with one row per key `k0` … `k<n-1>`,
/// and the query joining all four on `k`: `n` rows of five columns.
fn key_join(n: usize) -> (RelationalDatabase, ConjunctiveQuery) {
    let mut db = RelationalDatabase::new();
    let mut q = ConjunctiveQuery::new("key_join").with_head(vec![Term::var("k")]);
    for v in 1..=4 {
        let relation = format!("v{v}");
        for i in 0..n {
            db.insert_strs(&relation, &[&format!("k{i}"), &format!("b{v}_{}", i % 40)]);
        }
        let b = Term::var(&format!("b{v}"));
        q.head.push(b);
        q = q.with_atom(Atom::named(&relation, vec![Term::var("k"), b]));
    }
    (db, q)
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
    for n in [1_000usize, 5_000, 10_000, 20_000, 40_000] {
        let (db, q) = key_join(n);
        let rows = db.query(&q);
        assert_eq!(rows.len(), n, "one row per key");
        assert_eq!(rows, db.query_naive(&q), "executors must agree before timing");
        g.bench_with_input(BenchmarkId::new("key_join", n), &n, |b, _| b.iter(|| db.query(&q)));
        g.bench_with_input(BenchmarkId::new("key_join_naive", n), &n, |b, _| {
            b.iter(|| db.query_naive(&q))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
