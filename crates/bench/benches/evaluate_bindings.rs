//! Join-level micro-benchmarks: the premise join over a symbolic instance.
//!
//! Isolates the join kernel from the end-to-end fig5 numbers so join-level
//! regressions are visible on their own. Two groups:
//!
//! - `evaluate_bindings/full_join`: a premise of a few atoms evaluated over
//!   an instance of `n` tuples — the sizes sit on both sides of
//!   `SCAN_THRESHOLD`, so both the filtered scan and the index probe are
//!   timed (compile on the fly + run + one `Substitution` per binding).
//! - `unique_child`: the shape that dominates a back-chase — the compiled
//!   8-atom `unique_child` premises of the star configuration (`R_one_*`,
//!   `S*_one_*`: "an element has at most one such child") over the star
//!   NC = 6 universal plan (≈ 200 atoms, at fixpoint, so every binding is
//!   diagonal `n = m` and blocked). `fused` is what the chase calls (blocked
//!   test pushed into the join, nothing materialized); `bindings_then_blocked`
//!   is the same answer the long way round — every homomorphism as a
//!   `Substitution`, each then tested.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mars::MarsOptions;
use mars_chase::{evaluate_bindings, CompiledDed, JoinScratch, SymbolicInstance};
use mars_cq::{Atom, Substitution, Term};
use mars_workloads::star::StarConfig;

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

fn bench_unique_child(c: &mut Criterion) {
    let cfg = StarConfig::figure5(6);
    let mars = cfg.mars(MarsOptions::default());
    let plan = mars.reformulate_xbind(&cfg.client_query()).result.universal_plan;
    let inst = SymbolicInstance::from_query(&plan);
    let deds: Vec<CompiledDed> = mars
        .dependencies()
        .iter()
        .filter(|d| d.name.contains("_one_"))
        .map(CompiledDed::compile)
        .collect();
    let bindings: usize = deds.iter().map(|d| d.premise_bindings(&inst).len()).sum();
    assert!(!deds.is_empty() && bindings >= deds.len(), "every premise matches the plan");

    let mut g = c.benchmark_group("unique_child");
    g.sample_size(20);
    let label = format!("{}_deds_{}_atoms", deds.len(), inst.len());
    g.bench_function(&format!("fused/{label}"), |b| {
        let mut scratch = JoinScratch::default();
        b.iter(|| {
            let mut rows = 0usize;
            for d in &deds {
                let unblocked = d.unblocked_bindings(black_box(&inst), &mut scratch);
                assert!(unblocked.bindings.is_empty());
                rows += unblocked.premise_rows;
            }
            black_box(rows)
        })
    });
    g.bench_function(&format!("bindings_then_blocked/{label}"), |b| {
        let mut scratch = JoinScratch::default();
        b.iter(|| {
            let mut unblocked = 0usize;
            for d in &deds {
                let hs = d.premise_bindings(black_box(&inst));
                unblocked += hs.iter().filter(|h| !d.blocked(h, &inst, &mut scratch)).count();
            }
            assert_eq!(unblocked, 0);
        })
    });
    g.finish();
}

criterion_group!(benches, bench, bench_unique_child);
criterion_main!(benches);
