//! What one memoized back-chase pays for the atoms it adds.
//!
//! - `backchase_resume/one_atom`: the star NC = 6 client query's best
//!   reformulation minus its last atom is chased once, as the backchase
//!   memoizes a candidate; each iteration resumes that chase with the last
//!   atom (`chase_resident_with_atoms_compiled`) and drops the result — the
//!   step a `cold_templates` round of `marsbench` takes ≈ 6 800 times.
//! - `backchase_resume/closure_after_edges`: the star NC = 6 universal plan
//!   with its `desc` relation closed; each iteration clones it, appends a
//!   chain of three `child` edges below one of its nodes and re-closes
//!   `desc` once with the depth-first closure, as a chase round does when
//!   a closure group's inputs changed. The clone and the appends (a map of
//!   handles, then the written relations copied) are timed too.
//! - `backchase_resume/reformulate_example11`: Example 1.1's client query
//!   reformulated cold, chase and backchase, as every `cold_templates`
//!   round of `marsbench` does twice. Its pool holds the `el` and `id`
//!   atoms the chase adds to the cached document's nodes, so this is the
//!   case pruning criterion 4 (a candidate holding an implied atom is never
//!   grown) is measured on.
//! - `backchase_resume/reformulate_star_corners`: the star corner template
//!   of `marsbench`'s NC = 6, NV = 5 tenant with every corner {1, …, 6},
//!   reformulated cold, cost-pruned: 143 back-chases, 111 of them resumed.
//!   Most levels check several candidates, so this is where the cost of a
//!   level's checks shows without `marsbench`.
//! - `backchase_resume/reformulate_star_c123`: the same tenant's corner
//!   set {1, 2, 3}, reformulated cold, cost-pruned: 7 back-chases. This is
//!   the shape of `marsbench`'s median `cold_templates` request, where
//!   building the candidates outweighed checking them while a breadth-first
//!   frontier held every legal subset (728 sets for 7 checks).
//! - `backchase_resume/scratch_star_345`: the best reformulation of the
//!   same tenant's corner set {3, 4, 5}, `V3 ⋈ V4 ⋈ V5`, back-chased from
//!   scratch, as the backchase checks a candidate no memo seed covers.
//!   Each view expansion brings a hub and its fields that the keys and
//!   the navigation EGDs then settle, so this is where the chase's round
//!   policy shows: the setup asserts the chase's round count.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mars::MarsOptions;
use mars_chase::{
    chase_resident_with_atoms_compiled, chase_to_resident_compiled, detect_closure_constraints,
    ChaseOptions, CompiledDeps, SymbolicInstance,
};
use mars_cq::{Atom, ConjunctiveQuery, NavBase, Term, Variable};
use mars_workloads::example11;
use mars_workloads::star::StarConfig;

fn bench_resume(c: &mut Criterion) {
    let cfg = StarConfig::figure5(6);
    let mars = cfg.mars(MarsOptions::specialized());
    let result = mars.reformulate_xbind(&cfg.client_query()).result;
    let (best, _) = result.best.expect("the star query has a reformulation");
    let deps = CompiledDeps::new(mars.dependencies());
    // Back-chases invent variables above every variable of the plan, as the
    // backchase arranges, so the resumed atom cannot collide with one.
    let above = result.universal_plan.variables().iter().map(|v| v.index).max().unwrap_or(0) + 1;
    let opts = ChaseOptions { min_fresh_index: above, ..ChaseOptions::default() };
    let (added, rest) = best.body.split_last().expect("a reformulation has atoms");
    let seed_query = ConjunctiveQuery { body: rest.to_vec(), ..best.clone() };
    let seed = chase_to_resident_compiled(&seed_query, &deps, &opts);
    assert!(seed.stats().completed() && !seed.is_empty(), "the seed is a completed chase");
    let atoms = seed.branches()[0].instance().len();

    let mut g = c.benchmark_group("backchase_resume");
    g.sample_size(50);
    g.bench_function(&format!("one_atom/nc6_{atoms}_atoms"), |b| {
        b.iter(|| {
            chase_resident_with_atoms_compiled(
                black_box(seed.branches()),
                std::slice::from_ref(added),
                &deps,
                &opts,
            )
        })
    });
    g.finish();
}

fn bench_closure(c: &mut Criterion) {
    let cfg = StarConfig::figure5(6);
    let mars = cfg.mars(MarsOptions::default());
    let plan = mars.reformulate_xbind(&cfg.client_query()).result.universal_plan;
    let closure = detect_closure_constraints(mars.dependencies());
    let close = |inst: &mut SymbolicInstance| -> usize {
        closure.groups.iter().map(|g| g.close(inst)).sum()
    };
    let mut closed = SymbolicInstance::from_query(&plan);
    close(&mut closed);
    // A chain of three new `child` edges below the target of one of the
    // plan's own `child` atoms.
    let below = plan
        .body
        .iter()
        .find(|a| matches!(a.navigation(), Some((NavBase::Child, _))))
        .expect("the plan navigates the document");
    let mut parent = below.args[1];
    let edges: Vec<Atom> = (0..3)
        .map(|i| {
            let node = Term::Var(Variable::with_index("appended", i));
            let edge = Atom::new(below.predicate, vec![parent, node]);
            parent = node;
            edge
        })
        .collect();

    let mut g = c.benchmark_group("backchase_resume");
    g.sample_size(50);
    g.bench_function(&format!("closure_after_edges/nc6_{}_atoms", closed.len()), |b| {
        b.iter(|| {
            let mut inst = black_box(&closed).clone();
            for edge in &edges {
                inst.insert_atom(edge);
            }
            let added = close(&mut inst);
            assert!(added > 0, "the appended edges extend the closure");
            inst
        })
    });
    g.finish();
}

fn bench_example11(c: &mut Criterion) {
    let mars = example11::mars();
    let query = example11::client_query();
    let mut g = c.benchmark_group("backchase_resume");
    g.sample_size(20);
    g.bench_function("reformulate_example11", |b| {
        b.iter(|| mars.reformulate_xbind(black_box(&query)))
    });
    g.finish();
}

fn bench_star_corners(c: &mut Criterion) {
    let cfg = StarConfig { nc: 6, nv: 5, proprietary_includes_document: true };
    let mars = cfg.mars(MarsOptions::specialized());
    let query = cfg.corner_query(&[1, 2, 3, 4, 5, 6]);
    let checks = mars.reformulate_xbind(&query).result.stats.equivalence_checks;
    assert_eq!(checks, 143, "the corner set's back-chases");
    let mut g = c.benchmark_group("backchase_resume");
    g.sample_size(20);
    g.bench_function("reformulate_star_corners", |b| {
        b.iter(|| mars.reformulate_xbind(black_box(&query)))
    });
    g.finish();
}

fn bench_star_c123(c: &mut Criterion) {
    let cfg = StarConfig { nc: 6, nv: 5, proprietary_includes_document: true };
    let mars = cfg.mars(MarsOptions::specialized());
    let query = cfg.corner_query(&[1, 2, 3]);
    let stats = mars.reformulate_xbind(&query).result.stats;
    assert_eq!(stats.equivalence_checks, 7, "the corner set's back-chases");
    assert_eq!(stats.candidates_inspected, 7, "the walk builds only the candidates it checks");
    let mut g = c.benchmark_group("backchase_resume");
    g.sample_size(50);
    g.bench_function("reformulate_star_c123", |b| {
        b.iter(|| mars.reformulate_xbind(black_box(&query)))
    });
    g.finish();
}

fn bench_scratch_backchase(c: &mut Criterion) {
    let cfg = StarConfig { nc: 6, nv: 5, proprietary_includes_document: true };
    let mars = cfg.mars(MarsOptions::specialized());
    let result = mars.reformulate_xbind(&cfg.corner_query(&[3, 4, 5])).result;
    let (best, _) = result.best.expect("the corner set has a reformulation");
    let mut views: Vec<&str> = best.body.iter().map(|a| a.predicate.name()).collect();
    views.sort_unstable();
    assert_eq!(views, ["V3", "V4", "V5"], "the best reformulation joins the three views");
    let deps = CompiledDeps::new(mars.dependencies());
    let opts = ChaseOptions::default();
    let back = chase_to_resident_compiled(&best, &deps, &opts);
    assert!(back.stats().completed() && !back.is_empty(), "the back-chase completes");
    // 18 while every TGD step ended its round.
    assert_eq!(back.stats().rounds, 3, "the back-chase's rounds");

    let mut g = c.benchmark_group("backchase_resume");
    g.sample_size(50);
    g.bench_function("scratch_star_345", |b| {
        b.iter(|| chase_to_resident_compiled(black_box(&best), &deps, &opts))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_resume,
    bench_closure,
    bench_example11,
    bench_star_corners,
    bench_star_c123,
    bench_scratch_backchase
);
criterion_main!(benches);
