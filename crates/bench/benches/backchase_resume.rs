//! What one memoized back-chase pays for the atoms it adds.
//!
//! - `backchase_resume/one_atom`: the star NC = 6 client query's best
//!   reformulation minus its last atom is chased once, as the backchase
//!   memoizes a candidate; each iteration resumes that chase with the last
//!   atom (`chase_resident_with_atoms_compiled`) and drops the result — the
//!   step a `cold_templates` round of `marsbench` takes ≈ 6 800 times.
//! - `backchase_resume/closure_after_edges`: the star NC = 6 universal plan
//!   with its `desc` relation closed; each iteration clones it, appends a
//!   chain of three `child` edges below one of its nodes and applies the
//!   closure shortcut once, from its watermark. The clone and the appends
//!   (a map of handles, then the written relations copied) are timed too.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mars::MarsOptions;
use mars_chase::shortcut::apply_closure_watermarked;
use mars_chase::{
    chase_resident_with_atoms_compiled, chase_to_resident_compiled, detect_closure_constraints,
    ChaseOptions, CompiledDeps, SymbolicInstance,
};
use mars_cq::{Atom, ConjunctiveQuery, NavBase, Term, Variable};
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
    assert!(seed.stats().completed && !seed.is_empty(), "the seed is a completed chase");
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
    let mut closed = SymbolicInstance::from_query(&plan);
    let mut marks = Vec::new();
    apply_closure_watermarked(&mut closed, &closure, &mut marks, 0);
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
            let mut marks = marks.clone();
            for edge in &edges {
                inst.insert_atom(edge);
            }
            let added = apply_closure_watermarked(&mut inst, &closure, &mut marks, 0);
            assert!(added > 0, "the appended edges extend the closure");
            inst
        })
    });
    g.finish();
}

criterion_group!(benches, bench_resume, bench_closure);
criterion_main!(benches);
