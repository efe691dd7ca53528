//! Containment hot-path micro-benchmarks (PR 8).
//!
//! Two groups:
//!
//! - `sibling_sweep`: the backchase inner loop — checking the original query
//!   against K sibling candidates that share a chased seed and differ in one
//!   fresh atom each. `instance` is what the backchase runs: each sibling is
//!   a clone of the seed's [`SymbolicInstance`] grown by its fresh atoms, and
//!   the original is tested against it where it lies ([`maps_into`]).
//!   `scratch` is the oracle's cost: a full
//!   [`ContainmentTarget`] per sibling from a rendered query.
//! - `find_all_homomorphisms`: enumeration cost over targets of growing
//!   redundancy (the in-place substitution/trail rewrite vs. the old
//!   clone-per-trial search is visible here as allocation volume).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mars_chase::{maps_into, SymbolicInstance};
use mars_cq::{Atom, ConjunctiveQuery, Substitution, Term};
use mars_oracle::{find_all_homomorphisms, AtomIndex, ContainmentTarget};

/// The probe query: a chain R0(x0,x1)..R{m-1}(x{m-1},xm) plus a marker atom
/// S(x0,xm) that only the sibling's fresh atom can satisfy.
fn probe(m: usize) -> ConjunctiveQuery {
    let mut body: Vec<Atom> = (0..m)
        .map(|i| {
            Atom::named(
                &format!("R{i}"),
                vec![Term::var(&format!("x{i}")), Term::var(&format!("x{}", i + 1))],
            )
        })
        .collect();
    body.push(Atom::named("S", vec![Term::var("x0"), Term::var(&format!("x{m}"))]));
    ConjunctiveQuery::new("probe")
        .with_head(vec![Term::var("x0"), Term::var(&format!("x{m}"))])
        .with_body(body)
}

/// The shared carried atoms of every sibling: `dup` parallel copies of the
/// chain (redundant storage), head anchored on copy 0's endpoints.
fn carried(m: usize, dup: usize) -> (Vec<Term>, Vec<Atom>) {
    let mut atoms = Vec::new();
    for j in 0..dup {
        for i in 0..m {
            atoms.push(Atom::named(
                &format!("R{i}"),
                vec![Term::var(&format!("y{j}_{i}")), Term::var(&format!("y{j}_{}", i + 1))],
            ));
        }
    }
    (vec![Term::var("y0_0"), Term::var(&format!("y0_{m}"))], atoms)
}

/// One fresh atom per sibling: the satisfying S plus k decoy copies of R0.
fn fresh_atoms(m: usize, k: usize) -> Vec<Atom> {
    let mut fresh = vec![Atom::named("S", vec![Term::var("y0_0"), Term::var(&format!("y0_{m}"))])];
    for d in 0..k % 3 {
        fresh.push(Atom::named(
            "R0",
            vec![Term::var(&format!("f{k}_{d}")), Term::var(&format!("g{k}_{d}"))],
        ));
    }
    fresh
}

fn bench_sibling_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("containment/sibling_sweep");
    let (m, dup, siblings) = (5usize, 4usize, 24usize);
    let q = probe(m);
    let (head, base) = carried(m, dup);

    g.bench_function(&format!("scratch/{siblings}"), |b| {
        b.iter(|| {
            let mut found = 0usize;
            for k in 0..siblings {
                let mut body = base.clone();
                body.extend(fresh_atoms(m, k));
                let target = ConjunctiveQuery::new("sib").with_head(head.clone()).with_body(body);
                found += ContainmentTarget::new(&target).mapping_from(&q).is_some() as usize;
            }
            assert_eq!(found, siblings);
        })
    });
    let seed = SymbolicInstance::from_query(&ConjunctiveQuery::new("seed").with_body(base.clone()));
    g.bench_function(&format!("instance/{siblings}"), |b| {
        b.iter(|| {
            let mut found = 0usize;
            for k in 0..siblings {
                let mut sibling = seed.clone();
                for atom in fresh_atoms(m, k) {
                    sibling.insert_atom(&atom);
                }
                found += maps_into(&q, &sibling, &head) as usize;
            }
            assert_eq!(found, siblings);
        })
    });
    g.finish();
}

fn bench_find_all(c: &mut Criterion) {
    let mut g = c.benchmark_group("containment/find_all_homomorphisms");
    let m = 4usize;
    let source: Vec<Atom> = (0..m)
        .map(|i| {
            Atom::named(
                &format!("R{i}"),
                vec![Term::var(&format!("x{i}")), Term::var(&format!("x{}", i + 1))],
            )
        })
        .collect();
    for dup in [2usize, 8, 32] {
        let (_, atoms) = carried(m, dup);
        let index = AtomIndex::from_atoms(atoms);
        g.bench_with_input(BenchmarkId::new("dup", dup), &dup, |b, &dup| {
            b.iter(|| {
                let all = find_all_homomorphisms(&source, &index, &Substitution::new(), None);
                assert_eq!(all.len(), dup);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sibling_sweep, bench_find_all);
criterion_main!(benches);
