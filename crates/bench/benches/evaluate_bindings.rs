//! Join-level micro-benchmark: the full premise join over a symbolic
//! instance.
//!
//! Isolates `evaluate_bindings` from the end-to-end fig5 numbers so
//! join-level regressions are visible on their own. The scenario mirrors the
//! chase's hot path: a premise of a few atoms evaluated over an instance of
//! `n` tuples — the sizes sit on both sides of `SCAN_THRESHOLD`, so both the
//! filtered scan and the index probe are timed.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mars_chase::{evaluate_bindings, SymbolicInstance};
use mars_cq::{Atom, Substitution, Term};

fn t(n: &str) -> Term {
    Term::var(n)
}

/// A branchy instance: `n` R-edges forming chains of length 4 plus a unary
/// L-label per node.
fn instance(n: usize) -> SymbolicInstance {
    let mut inst = SymbolicInstance::new();
    for i in 0..n {
        let group = i / 4;
        let a = format!("n{}_{}", group, i % 4);
        let b = format!("n{}_{}", group, i % 4 + 1);
        inst.insert_atom(&Atom::named("R", vec![t(&a), t(&b)]));
        inst.insert_atom(&Atom::named("L", vec![t(&a)]));
    }
    inst
}

fn premise() -> Vec<Atom> {
    vec![
        Atom::named("R", vec![t("x"), t("y")]),
        Atom::named("R", vec![t("y"), t("z")]),
        Atom::named("L", vec![t("x")]),
    ]
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("evaluate_bindings");
    g.sample_size(20);
    for n in [8usize, 64, 256, 1024] {
        let inst = instance(n);
        let p = premise();
        g.bench_with_input(BenchmarkId::new("full_join", n), &n, |b, _| {
            b.iter(|| black_box(evaluate_bindings(&p, &[], &inst, &Substitution::new())))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
