//! Property-based tests over the core data structures and algorithms.

use mars_oracle::{
    contained_in, find_all_homomorphisms, naive_chase, ChaseBudget, ContainmentOptions,
};
use mars_system::chase::{
    chase_to_resident_compiled, ChaseOptions, CompiledDeps, SymbolicInstance,
};
use mars_system::cq::{Atom, ConjunctiveQuery, Ded, Substitution, Term};
use proptest::prelude::*;

#[path = "common/star.rs"]
mod star;

use star::{star_key_lookup, star_nc6};

/// Generate a random chain query R0(x0,x1), R1(x1,x2), ... (bounded length).
fn chain_query(len: usize, shared_relation: bool) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new("chain").with_head(vec![Term::var("x0")]);
    for i in 0..len {
        let rel = if shared_relation { "R".to_string() } else { format!("R{i}") };
        q = q.with_atom(Atom::named(
            &rel,
            vec![Term::var(&format!("x{i}")), Term::var(&format!("x{}", i + 1))],
        ));
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every query is contained in itself (reflexivity of containment).
    #[test]
    fn containment_is_reflexive(len in 1usize..6, shared in proptest::bool::ANY) {
        let q = chain_query(len, shared);
        prop_assert!(contained_in(&q, &q, &[], &ContainmentOptions::small()));
    }

    /// A chain query is contained in every prefix of itself (projection).
    #[test]
    fn chains_are_contained_in_prefixes(len in 2usize..6) {
        let q = chain_query(len, false);
        let prefix = q.subquery(&(0..len - 1).collect::<Vec<_>>());
        prop_assert!(contained_in(&q, &prefix, &[], &ContainmentOptions::small()));
        prop_assert!(!contained_in(&prefix, &q, &[], &ContainmentOptions::small()));
    }

    /// The compiled join kernel finds exactly the homomorphisms the
    /// backtracking search finds — same set, and `satisfiable` agrees on
    /// emptiness — over targets on both sides of the scan/probe threshold
    /// (`SCAN_THRESHOLD` = 8 tuples), for patterns with constants, repeated
    /// variables within an atom, an optional non-empty initial binding and
    /// inequalities that become decidable at different join steps.
    #[test]
    fn bulk_and_backtracking_homomorphisms_agree(
        n_atoms in 1usize..21,
        pattern_len in 1usize..4,
        seed in 1u64..1_000_000,
    ) {
        let mut rng = TestRng::new(seed);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let node = |i: usize| if i == 4 { Term::constant_str("k") } else { Term::var(&format!("a{i}")) };
        let mut target_atoms = Vec::new();
        for i in 0..n_atoms {
            target_atoms.push(Atom::named("R", vec![node(i % 4), node((i + 1) % 5)]));
            if i % 3 == 0 {
                target_atoms.push(Atom::named("T", vec![node(i % 5), node(i % 5), node((i + 2) % 5)]));
            }
        }
        let target_q = ConjunctiveQuery::new("T").with_body(target_atoms);
        let inst = SymbolicInstance::from_query(&target_q);
        // The instance is a set: index its atoms, not the generated list.
        let index = mars_oracle::AtomIndex::new(&inst.atoms());

        // A chain over R, one atom of which may carry the constant, plus
        // optionally a T atom repeating a variable within the atom.
        let mut pattern = chain_query(pattern_len, true).body;
        if pick(2) == 0 {
            let at = pick(pattern_len);
            pattern[at].args[1] = Term::constant_str("k");
        }
        if pick(2) == 0 {
            let x = Term::var(&format!("x{}", pick(pattern_len + 1)));
            pattern.push(Atom::named("T", vec![Term::var("r"), Term::var("r"), x]));
        }
        let var = |i: usize| Term::var(&format!("x{i}"));
        let mut ineqs = Vec::new();
        for _ in 0..pick(3) {
            ineqs.push((var(pick(pattern_len + 1)), var(pick(pattern_len + 1))));
        }
        if pick(3) == 0 {
            ineqs.push((var(pick(pattern_len + 1)), Term::constant_str("k")));
        }
        let initial = if pick(2) == 0 {
            Substitution::new()
        } else {
            let x = format!("x{}", pick(pattern_len + 1));
            Substitution::from_pairs(vec![(mars_system::cq::Variable::named(&x), node(pick(5)))]).unwrap()
        };

        let bulk = mars_system::chase::evaluate_bindings(&pattern, &ineqs, &inst, &initial);
        let mut slow = find_all_homomorphisms(&pattern, &index, &initial, None);
        slow.retain(|h| ineqs.iter().all(|(a, b)| h.apply_term(*a) != h.apply_term(*b)));
        prop_assert_eq!(bulk.len(), slow.len());
        for h in &bulk {
            prop_assert!(slow.contains(h), "{:?} is not a homomorphism", h);
        }
        for (i, h) in bulk.iter().enumerate() {
            prop_assert!(!bulk[..i].contains(h), "{:?} is reported twice", h);
        }
        prop_assert_eq!(
            mars_system::chase::satisfiable(&pattern, &ineqs, &inst, &initial),
            !slow.is_empty()
        );
    }

    /// The backchase's `original → back-chase branch` confirm — `maps_into`
    /// over each resident branch's own instance, and its compiled-once form
    /// `ContainmentProgram` — answers exactly what the oracle answers on the
    /// rendered branch (`containment_mapping(source, &branch.to_query(..))`),
    /// for random small queries chased under a random subset of a view's
    /// dependencies, a key and a disjunctive dependency. The source is the
    /// chased query itself, a renamed copy, or a random body whose variables
    /// are named like the target's; its head may carry a constant, repeat a
    /// variable, or have one position more than the target's.
    #[test]
    fn kernel_confirm_agrees_with_containment_mapping(seed in 1u64..1_000_000) {
        use mars_system::chase::{maps_into, ContainmentProgram};
        use mars_oracle::containment_mapping;
        use mars_system::cq::ded::view_dependencies;
        use mars_system::cq::Conjunct;

        let mut rng = TestRng::new(seed);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let x = |i: usize| Term::var(&format!("x{i}"));
        let term = |i: usize| if i == 5 { Term::constant_str("k") } else { x(i) };

        let view = ConjunctiveQuery::new("V").with_head(vec![x(0), x(2)]).with_body(vec![
            Atom::named("A", vec![x(0), x(1)]),
            Atom::named("B", vec![x(1), x(2)]),
        ]);
        let (c_v, b_v) = view_dependencies("V", &view);
        let key = Ded::egd(
            "key",
            vec![Atom::named("A", vec![x(0), x(1)]), Atom::named("A", vec![x(0), x(2)])],
            x(1),
            x(2),
        );
        let split = Ded::disjunctive(
            "split",
            vec![Atom::named("B", vec![x(0), x(1)])],
            vec![
                Conjunct::atoms(vec![Atom::named("S", vec![x(0)])]),
                Conjunct::atoms(vec![Atom::named("T", vec![x(1)])]),
            ],
        );
        // The shim samples 24 seeds; each drives 16 rounds.
        for _ in 0..16 {
            let deds: Vec<Ded> =
                [&c_v, &b_v, &key, &split].into_iter().filter(|_| pick(3) != 0).cloned().collect();

            let mut random_query = |name: &str, relations: &[(&str, usize)]| {
                let mut q = ConjunctiveQuery::new(name);
                for _ in 0..1 + pick(4) {
                    let (rel, arity) = relations[pick(relations.len())];
                    q = q.with_atom(Atom::named(rel, (0..arity).map(|_| term(pick(6))).collect()));
                }
                q.with_head((0..1 + pick(2)).map(|_| term(pick(6))).collect())
            };
            let target = random_query("Q", &[("A", 2), ("B", 2)]);
            let unrelated = random_query("P", &[("A", 2), ("B", 2), ("V", 2), ("S", 1), ("T", 1)]);
            let source = match pick(4) {
                0 => target.clone(),
                1 => {
                    let renamed =
                        target.variables().into_iter().map(|v| (v, Term::var(&format!("y{}", v.name))));
                    target.apply(&Substitution::from_pairs(renamed).unwrap())
                }
                _ => unrelated,
            };
            let source = match pick(6) {
                0 => {
                    let mut longer = source.clone();
                    longer.head.push(x(0));
                    longer
                }
                1 => {
                    let repeated = vec![source.head[0]; target.head.len()];
                    source.with_head(repeated)
                }
                _ => source,
            };

            let back = chase_to_resident_compiled(
                &target,
                &CompiledDeps::new(&deds),
                &ChaseOptions::default(),
            );
            prop_assert!(back.stats().completed);
            let compiled_once = ContainmentProgram::new(&source);
            for branch in back.branches() {
                let rendered = branch.to_query("branch");
                let oracle = containment_mapping(&source, &rendered).is_some();
                let per_call = maps_into(&source, branch.instance(), branch.head());
                prop_assert_eq!(per_call, oracle, "{:?} into {:?}", source, rendered);
                let compiled = compiled_once.maps_into(branch.instance(), branch.head());
                prop_assert_eq!(compiled, oracle, "compiled {:?} into {:?}", source, rendered);
            }
        }
    }

    /// The chase's fused entry point — premise join with the blocked test
    /// inside it — returns exactly the premise bindings that are not blocked,
    /// in the order `premise_bindings` lists them, for pure-equality EGDs
    /// (one or two equalities, pushed into the join), TGDs with existentials,
    /// a conclusion mixing atoms with an equality on an existential, and a
    /// disjunctive dependency; and `blocked` agrees with the naive chase's
    /// extension check. Some instance variables share their names with
    /// premise variables on purpose.
    #[test]
    fn fused_unblocked_bindings_are_the_unblocked_premise_bindings(
        kind in 0usize..5,
        n_tuples in 1usize..15,
        seed in 1u64..1_000_000,
    ) {
        use mars_system::chase::{CompiledDed, JoinScratch};
        use mars_oracle::extend_to_conclusion;
        use mars_system::cq::{Conjunct, Variable};

        let mut rng = TestRng::new(seed);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let domain = [
            Term::var("a0"), Term::var("a1"), Term::var("a2"),
            Term::var("x0"), Term::var("x1"), Term::constant_str("c"),
        ];
        let mut inst = SymbolicInstance::new();
        for _ in 0..n_tuples {
            inst.insert_atom(&Atom::named("R", vec![domain[pick(6)], domain[pick(6)]]));
            inst.insert_atom(&Atom::named("S", vec![domain[pick(6)], domain[pick(6)]]));
            if pick(2) == 0 {
                inst.insert_atom(&Atom::named("U", vec![domain[pick(6)]]));
            }
        }
        let index = mars_oracle::AtomIndex::new(&inst.atoms());

        let x = |i: usize| Term::var(&format!("x{i}"));
        let mut premise = vec![
            Atom::named("R", vec![x(0), x(1)]),
            Atom::named(if pick(2) == 0 { "R" } else { "S" }, vec![x(pick(2)), x(2)]),
        ];
        if pick(2) == 0 {
            premise.push(Atom::named("S", vec![x(2), x(3)]));
        }
        if pick(3) == 0 {
            premise.push(Atom::named("U", vec![x(pick(3))]));
        }
        if pick(4) == 0 {
            premise.push(Atom::named("R", vec![Term::constant_str("c"), x(pick(3))]));
        }
        let z = Term::var("z");
        let tgd = Conjunct::atoms(vec![
            Atom::named("S", vec![x(1), z]),
            Atom::named("U", vec![z]),
        ]).with_exists(vec![Variable::named("z")]);
        let conclusions = match kind {
            0 => vec![Conjunct::equalities(vec![(x(1), x(2))])],
            1 => vec![Conjunct::equalities(vec![(x(1), x(2)), (x(pick(3)), domain[pick(6)])])],
            2 => vec![tgd],
            3 => vec![Conjunct::atoms(vec![Atom::named("R", vec![z, x(2)])])
                .with_exists(vec![Variable::named("z")])
                .with_equalities(vec![(z, x(0))])],
            _ => vec![tgd, Conjunct::equalities(vec![(x(0), x(2))])],
        };
        let mut ded = Ded::disjunctive("d", premise, conclusions);
        if pick(3) == 0 {
            ded = ded.with_premise_inequalities(vec![(x(0), x(1))]);
        }
        let compiled = CompiledDed::compile(&ded);

        let all = compiled.premise_bindings(&inst);
        let mut scratch = JoinScratch::default();
        let expected: Vec<Substitution> =
            all.iter().filter(|h| !compiled.blocked(h, &inst, &mut scratch)).cloned().collect();
        let fused = compiled.unblocked_bindings(&inst, &mut JoinScratch::default());
        let rows = fused.premise_rows;
        prop_assert_eq!(&fused.bindings, &expected, "{:?}", ded);
        prop_assert!(expected.len() <= rows && rows <= all.len());
        if kind >= 2 {
            prop_assert_eq!(rows, all.len(), "nothing is pushed into the join of {:?}", ded);
        }
        for h in &all {
            let oracle = ded.conclusions.iter().any(|c| extend_to_conclusion(c, h, &index));
            prop_assert_eq!(compiled.blocked(h, &inst, &mut scratch), oracle, "{:?} under {:?}", ded, h);
        }
    }

    /// The naive chase and the set-oriented chase produce universal plans of
    /// the same size for transitive-closure style constraints.
    #[test]
    fn naive_and_fast_chase_agree_on_closure(len in 1usize..5) {
        let q = chain_query(len, true);
        let deds = vec![
            Ded::tgd(
                "copy",
                vec![Atom::named("R", vec![Term::var("x"), Term::var("y")])],
                vec![],
                vec![Atom::named("S", vec![Term::var("x"), Term::var("y")])],
            ),
            Ded::tgd(
                "strans",
                vec![
                    Atom::named("S", vec![Term::var("x"), Term::var("y")]),
                    Atom::named("S", vec![Term::var("y"), Term::var("z")]),
                ],
                vec![],
                vec![Atom::named("S", vec![Term::var("x"), Term::var("z")])],
            ),
        ];
        let naive = naive_chase(&q, &deds, &ChaseBudget::small());
        let fast = chase_to_resident_compiled(&q, &CompiledDeps::new(&deds), &ChaseOptions::default());
        prop_assert!(naive.terminated());
        prop_assert!(fast.stats().completed);
        prop_assert_eq!(naive.single().unwrap().body.len(), fast.primary(&q.name).unwrap().body.len());
    }
}

/// A chase step binds an existential that a functional dependency already
/// determines to the existing term instead of inventing it. Under a random
/// subset of FD-shaped EGDs (a unique root, a key, a key-to-fields FD) and
/// TGDs whose existentials sit in determined columns — a root, a hub found
/// by its key, the hub's fields found by the hub, plus one existential
/// nothing determines — the set-oriented chase of a random query reaches a
/// universal plan head-preservingly homomorphically equivalent to the naive
/// chase's, both ways, and the two fail together when an FD forces two
/// constants equal. One seeded round per case; the totals show that both
/// outcomes are exercised.
#[test]
fn determined_existentials_chase_like_the_naive_chase() {
    use mars_oracle::containment_mapping;
    use mars_system::cq::{Conjunct, Variable};

    let t = Term::var;
    let a = |rel: &str, args: &[&str]| Atom::named(rel, args.iter().map(|n| t(n)).collect());
    let exists = |names: &[&str]| names.iter().map(|n| Variable::named(n)).collect::<Vec<_>>();
    let dependencies = [
        Ded::egd("root_unique", vec![a("Root", &["u"]), a("Root", &["w"])], t("u"), t("w")),
        Ded::egd("R_key", vec![a("R", &["u", "k"]), a("R", &["w", "k"])], t("u"), t("w")),
        Ded::disjunctive(
            "F_fd",
            vec![a("F", &["h", "p", "q"]), a("F", &["h", "r", "s"])],
            vec![Conjunct::equalities(vec![(t("p"), t("r")), (t("q"), t("s"))])],
        ),
        Ded::tgd(
            "bV",
            vec![a("V", &["k", "b"])],
            exists(&["h", "f"]),
            vec![a("R", &["h", "k"]), a("F", &["h", "f", "b"])],
        ),
        Ded::tgd(
            "below",
            vec![a("S", &["x", "y"])],
            exists(&["r"]),
            vec![a("Root", &["r"]), a("S2", &["r", "x"])],
        ),
        Ded::tgd(
            "fields",
            vec![a("R", &["h", "k"])],
            exists(&["f", "g"]),
            vec![a("F", &["h", "f", "g"])],
        ),
        Ded::tgd("hub", vec![a("U", &["x"])], exists(&["h"]), vec![a("R", &["h", "x"])]),
        Ded::tgd("free", vec![a("U", &["x"])], exists(&["z"]), vec![a("S2", &["z", "x"])]),
    ];
    let relations = [("Root", 1), ("R", 2), ("F", 3), ("F", 3), ("V", 2), ("S", 2), ("U", 1)];
    let pool = [t("x0"), t("x1"), t("x2"), Term::constant_str("c"), Term::constant_str("d")];
    let (mut clashes, mut merges_saved) = (0, 0);
    for seed in 1..=1024 {
        let mut rng = TestRng::new(seed);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let deds: Vec<Ded> = dependencies.iter().filter(|_| pick(4) != 0).cloned().collect();
        let mut q = ConjunctiveQuery::new("Q");
        for _ in 2..4 + pick(5) {
            let (rel, arity) = relations[pick(relations.len())];
            q = q.with_atom(Atom::named(rel, (0..arity).map(|_| pool[pick(pool.len())]).collect()));
        }
        let vars: Vec<Term> = q.variables().into_iter().map(Term::Var).collect();
        if !vars.is_empty() {
            q = q.with_head((0..1 + pick(2)).map(|_| vars[pick(vars.len())]).collect());
        }

        let naive = naive_chase(&q, &deds, &ChaseBudget::small());
        let fast =
            chase_to_resident_compiled(&q, &CompiledDeps::new(&deds), &ChaseOptions::default());
        assert!(naive.terminated() && fast.stats().completed, "seed {seed}: {q:?} under {deds:?}");
        assert_eq!(naive.leaves.is_empty(), fast.is_empty(), "seed {seed}: {q:?}");
        clashes += usize::from(fast.is_empty());
        merges_saved += usize::from(fast.stats().applied_steps < naive.steps);
        if let (Some(naive), [fast]) = (naive.single(), fast.branches()) {
            let fast = &fast.to_query(&q.name);
            assert!(containment_mapping(naive, fast).is_some(), "seed {seed}: {naive} into {fast}");
            assert!(containment_mapping(fast, naive).is_some(), "seed {seed}: {fast} into {naive}");
        }
    }
    assert!(clashes >= 10 && merges_saved >= 100, "{clashes} clashes, {merges_saved} saved");
}

/// Build a redundant-storage C&B engine over a length-`len` chain query:
/// every relation gets a stored proprietary copy when the corresponding bit
/// of `copy_mask` is set, and adjacent pairs additionally get a stored join
/// view when the bit of `join_mask` is set. Returns the engine and the
/// client query.
fn redundant_chain_engine(
    len: usize,
    copy_mask: u8,
    join_mask: u8,
) -> (mars_system::chase::ChaseBackchase, ConjunctiveQuery) {
    use mars_system::cq::ded::view_dependencies;
    use mars_system::cq::Predicate;
    use std::collections::HashSet;

    let q = chain_query(len, false);
    let mut deds = Vec::new();
    let mut proprietary: HashSet<Predicate> = HashSet::new();
    for i in 0..len {
        if copy_mask & (1 << i) != 0 {
            let name = format!("C{i}");
            let def = ConjunctiveQuery::new(&name)
                .with_head(vec![Term::var("a"), Term::var("b")])
                .with_body(vec![Atom::named(
                    &format!("R{i}"),
                    vec![Term::var("a"), Term::var("b")],
                )]);
            let (c, b) = view_dependencies(&name, &def);
            deds.push(c);
            deds.push(b);
            proprietary.insert(Predicate::new(&name));
        }
    }
    for i in 0..len.saturating_sub(1) {
        if join_mask & (1 << i) != 0 {
            let name = format!("J{i}");
            let def = ConjunctiveQuery::new(&name)
                .with_head(vec![Term::var("a"), Term::var("c")])
                .with_body(vec![
                    Atom::named(&format!("R{i}"), vec![Term::var("a"), Term::var("b")]),
                    Atom::named(&format!("R{}", i + 1), vec![Term::var("b"), Term::var("c")]),
                ]);
            let (c, b) = view_dependencies(&name, &def);
            deds.push(c);
            deds.push(b);
            proprietary.insert(Predicate::new(&name));
        }
    }
    (mars_system::chase::ChaseBackchase::new(deds, &[], proprietary), q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exhaustive and cost-pruned backchase agree on the cost of the best
    /// reformulation across randomized redundant-storage setups, and the
    /// exhaustive minimal set is an antichain (no reformulation is a
    /// subquery of another) — the completeness contract of Section 2.3.
    #[test]
    fn exhaustive_and_pruned_backchase_agree(
        len in 2usize..4,
        copy_mask in 0u8..16,
        join_mask in 0u8..8,
    ) {
        use mars_system::chase::{CbOptions, ReformulationBudget};

        let (engine, q) = redundant_chain_engine(len, copy_mask, join_mask);
        let unbounded = ReformulationBudget::unbounded();
        let exhaustive =
            engine.clone().with_options(CbOptions::exhaustive()).reformulate(&q, &unbounded);
        let pruned = engine.with_options(CbOptions::default()).reformulate(&q, &unbounded);

        prop_assert!(!exhaustive.stats.backchase_truncated);
        prop_assert_eq!(
            pruned.best.as_ref().map(|(_, c)| *c),
            exhaustive.best.as_ref().map(|(_, c)| *c),
            "cost pruning must preserve the optimum (copies {:b}, joins {:b})",
            copy_mask,
            join_mask
        );
        // Every pruned-run reformulation also appears in the exhaustive run.
        prop_assert!(pruned.minimal.len() <= exhaustive.minimal.len());
        // Antichain: no minimal reformulation is a subquery of another.
        for (i, (a, _)) in exhaustive.minimal.iter().enumerate() {
            for (j, (b, _)) in exhaustive.minimal.iter().enumerate() {
                if i != j {
                    let subquery = a.body.iter().all(|atom| b.body.contains(atom));
                    prop_assert!(
                        !subquery,
                        "{} is a subquery of {} (copies {:b}, joins {:b})",
                        a.name, b.name, copy_mask, join_mask
                    );
                }
            }
        }
    }
}

/// Monotone salt for service-cache properties: every generated request gets
/// constants never seen by the process before, so each query's constants
/// first-intern in occurrence order — the regime a resident service sees
/// (fresh client values arriving over time) and the one the byte-identity
/// contract of the plan cache is stated for.
static CONSTANT_SALT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

fn fresh_constant(tag: &str) -> String {
    format!("{tag}-{}", CONSTANT_SALT.fetch_add(1, std::sync::atomic::Ordering::SeqCst))
}

/// The publishing correspondence used across the service-cache properties:
/// a proprietary table published as `bib.xml` through a GAV view, plus a
/// LAV cache of the author list.
fn service_correspondence() -> mars_system::mars::SchemaCorrespondence {
    use mars_system::xquery::{XBindAtom, XBindQuery, XBindTerm};

    let gav_body =
        XBindQuery::new("PubMap").with_head(&["t", "a"]).with_atom(XBindAtom::Relational {
            relation: "bookRel".to_string(),
            args: vec![XBindTerm::var("t"), XBindTerm::var("a")],
        });
    let gav = mars_system::grex::ViewDef::xml_flat(
        "PubMap",
        gav_body,
        "bib.xml",
        "book",
        &["title", "author"],
    );
    let lav_body = XBindQuery::new("AuthorsMap")
        .with_head(&["a"])
        .with_atom(XBindAtom::AbsolutePath {
            document: "bib.xml".to_string(),
            path: mars_system::xml::parse_path("//book").unwrap(),
            var: "b".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: mars_system::xml::parse_path("./author/text()").unwrap(),
            source: "b".to_string(),
            var: "a".to_string(),
        });
    let lav = mars_system::grex::ViewDef::relational("authorsCache", lav_body);
    mars_system::mars::SchemaCorrespondence {
        public_documents: vec!["bib.xml".to_string()],
        gav_views: vec![gav],
        lav_views: vec![lav],
        proprietary_relations: vec!["bookRel".to_string()],
        ..Default::default()
    }
}

/// A client template: titles/authors of `bib.xml` filtered on the title
/// constant `c_title` and (when `filter_author`) on the author constant
/// `c_author`. Passing the same string for both is the implicit-equality-join
/// variant: one constant value, used twice.
fn service_request(
    c_title: &str,
    filter_author: bool,
    c_author: &str,
) -> mars_system::xquery::XBindQuery {
    use mars_system::xquery::{XBindAtom, XBindQuery, XBindTerm};

    let mut q = XBindQuery::new("Client")
        .with_head(&["t", "a"])
        .with_atom(XBindAtom::AbsolutePath {
            document: "bib.xml".to_string(),
            path: mars_system::xml::parse_path("//book").unwrap(),
            var: "b".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: mars_system::xml::parse_path("./title/text()").unwrap(),
            source: "b".to_string(),
            var: "t".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: mars_system::xml::parse_path("./author/text()").unwrap(),
            source: "b".to_string(),
            var: "a".to_string(),
        })
        .with_atom(XBindAtom::Eq(XBindTerm::var("t"), XBindTerm::str(c_title)));
    if filter_author {
        q = q.with_atom(XBindAtom::Eq(XBindTerm::var("a"), XBindTerm::str(c_author)));
    }
    q
}

/// Everything a client can observe of a block reformulation, rendered to
/// bytes (durations and wall-clock statistics excluded).
fn block_bytes(block: &mars_system::mars::BlockReformulation) -> String {
    format!(
        "compiled: {}\nuniversal: {}\ninitial: {:?}\nminimal: {:?}\nbest: {:?}\nsql: {:?}",
        block.compiled,
        block.result.universal_plan,
        block.result.initial.as_ref().map(|q| format!("{q}")),
        block.result.minimal.iter().map(|(q, c)| (format!("{q}"), *c)).collect::<Vec<_>>(),
        block.result.best.as_ref().map(|(q, c)| (format!("{q}"), *c)),
        block.sql()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The plan-cache re-substitution contract: a warm hit answered by
    /// re-substituting fresh constants into the cached plan is byte-identical
    /// to reformulating the same request cold on a fresh system — across
    /// single-filter and double-filter templates, including the
    /// same-constant-twice (implicit equality join) variant, and across star
    /// NC 6 / NV 5 key lookups whose variables are renamed per request (32
    /// minimal reformulations and the universal plan to re-substitute).
    #[test]
    fn warm_cache_hit_is_byte_identical_to_cold(
        filter_author in proptest::bool::ANY,
        join_constants in proptest::bool::ANY,
    ) {
        use mars_system::mars::{Mars, MarsOptions, MarsService};

        for star in [false, true] {
            let system = || {
                if star {
                    star_nc6().mars(MarsOptions::specialized())
                } else {
                    Mars::new(service_correspondence())
                }
            };
            let make_request = || {
                if star {
                    return star_key_lookup(&fresh_constant("key"), &fresh_constant("r"));
                }
                let title = fresh_constant("title");
                let author =
                    if join_constants { title.clone() } else { fresh_constant("author") };
                service_request(&title, filter_author, &author)
            };

            let service = MarsService::new(system());
            let first = make_request();
            service.reformulate_xbind(&first).expect("cold reformulation");

            let second = make_request();
            let warm = service.reformulate_xbind(&second).expect("warm reformulation");
            prop_assert!(service.cache_stats().hits >= 1, "the repeat must hit the cache");

            let cold = system().try_reformulate_xbind(&second).expect("cold reformulation");
            if star {
                prop_assert_eq!(cold.minimal_count(), 32);
            }
            prop_assert_eq!(block_bytes(&warm), block_bytes(&cold));
        }
    }

    /// Shape-key separation: the same constant twice (an implicit equality
    /// join between the two filters) must never be answered from the entry
    /// of the two-distinct-constants template, or vice versa — they are
    /// different queries with different answers.
    #[test]
    fn joined_and_distinct_constant_templates_never_share_an_entry(
        joined_first in proptest::bool::ANY,
    ) {
        use mars_system::mars::{Mars, MarsService};

        let joined = {
            let c = fresh_constant("key");
            service_request(&c, true, &c)
        };
        let distinct = service_request(&fresh_constant("key"), true, &fresh_constant("key"));
        let (a, b) = if joined_first { (&joined, &distinct) } else { (&distinct, &joined) };

        let service = MarsService::new(Mars::new(service_correspondence()));
        service.reformulate_xbind(a).expect("reformulates");
        service.reformulate_xbind(b).expect("reformulates");
        let stats = service.cache_stats();
        prop_assert_eq!(stats.hits, 0, "the two templates must not be conflated");
        prop_assert_eq!(stats.entries, 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The anytime contract of the budgeted engine. Chase & Backchase
    /// soundness says *every* rung of the degradation ladder — cost-optimal,
    /// initial, or the bare universal plan — is an equivalent rewriting of
    /// the client query, so a budget can only cost minimality, never
    /// correctness: for any budget (including a deadline of zero and a
    /// candidate ceiling of zero) the answer the budgeted run would serve is
    /// equivalent to the unbounded one under the compiled dependency theory,
    /// checked by containment in both directions. And whenever the run
    /// reports no degradation, the whole result is byte-identical to the
    /// unbounded one.
    #[test]
    fn budgeted_reformulation_is_equivalent_to_unbounded(
        use_deadline in proptest::bool::ANY,
        deadline_ms in 0u64..50,
        use_candidates in proptest::bool::ANY,
        max_candidates in 0usize..4,
        filter_author in proptest::bool::ANY,
    ) {
        use mars_system::mars::{Mars, ReformulationBudget};
        use std::time::Duration;

        let mut budget = ReformulationBudget::unbounded();
        if use_deadline {
            budget = budget.with_deadline(Duration::from_millis(deadline_ms));
        }
        if use_candidates {
            budget = budget.with_max_candidates(max_candidates);
        }

        let mars = Mars::new(service_correspondence());
        let request =
            service_request(&fresh_constant("title"), filter_author, &fresh_constant("author"));

        let unbounded = mars.try_reformulate_xbind(&request).expect("unbounded run");
        let budgeted = mars.try_reformulate_xbind_budgeted(&request, &budget).expect("budgeted run");

        // Compare the answer each run actually serves: best, else initial,
        // else the universal plan (the sound floor a zero budget falls to).
        let served_u =
            unbounded.result.best_or_initial().unwrap_or(&unbounded.result.universal_plan);
        let served_b =
            budgeted.result.best_or_initial().unwrap_or(&budgeted.result.universal_plan);
        let deds = mars.dependencies();
        let copts = ContainmentOptions::default();
        prop_assert!(
            contained_in(served_b, served_u, deds, &copts),
            "budgeted answer not contained in unbounded answer under the dependency theory\n\
             budgeted: {}\nunbounded: {}",
            served_b,
            served_u
        );
        prop_assert!(
            contained_in(served_u, served_b, deds, &copts),
            "unbounded answer not contained in budgeted answer under the dependency theory\n\
             unbounded: {}\nbudgeted: {}",
            served_u,
            served_b
        );

        // Determinism half of the contract: no degradation report means
        // nothing was cut, so the results must be byte-identical — and only
        // a real budget is ever allowed to degrade.
        if budgeted.degradation().is_none() {
            prop_assert_eq!(block_bytes(&budgeted), block_bytes(&unbounded));
        } else {
            prop_assert!(!budget.is_unbounded(), "an unbounded budget must never degrade");
        }
    }
}

// ---------------------------------------------------------------------------
// Physical executor: byte-identical to the naive evaluator and to the XML
// engine (the cross-backend agreement contract of the physical plan layer).
// ---------------------------------------------------------------------------

/// SplitMix-style mixer: the shim's strategies only sample integers, so the
/// random databases and queries below are derived from one sampled seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A random ground database (arities 1–3, values drawn from ten of the
/// twelve `VALUES`, so relations of every arity can outgrow the executor's
/// scan threshold and some constants match nothing) and a random query over
/// it — deliberately including cross products, duplicate variables,
/// repeated atoms, constants in bodies and heads, inequalities, and *unsafe*
/// heads (variables bound nowhere), so the agreement test covers every
/// operand kind the planner can emit.
fn random_db_and_query(
    seed: u64,
    relations: usize,
    rows: usize,
    atoms: usize,
) -> (mars_system::storage::RelationalDatabase, ConjunctiveQuery) {
    let mut s = seed;
    const VALUES: [&str; 12] =
        ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10", "O'Brien"];
    let mut db = mars_system::storage::RelationalDatabase::new();
    let arity = |r: usize| 1 + (r % 3);
    for r in 0..relations {
        for _ in 0..rows {
            let tuple: Vec<&str> =
                (0..arity(r)).map(|_| VALUES[(mix(&mut s) % 10) as usize]).collect();
            db.insert_strs(&format!("r{r}"), &tuple);
        }
    }
    let term = |s: &mut u64| {
        if mix(s) % 10 < 6 {
            Term::var(&format!("v{}", mix(s) % 5))
        } else {
            Term::constant_str(VALUES[(mix(s) % VALUES.len() as u64) as usize])
        }
    };
    let mut q = ConjunctiveQuery::new("rand");
    for _ in 0..atoms {
        let r = (mix(&mut s) % relations as u64) as usize;
        let args: Vec<Term> = (0..arity(r)).map(|_| term(&mut s)).collect();
        q = q.with_atom(Atom::named(&format!("r{r}"), args));
    }
    for _ in 0..(mix(&mut s) % 3) {
        q = q.with_inequality(term(&mut s), term(&mut s));
    }
    // Head of 1–3 terms; `v5` never occurs in bodies, so sampling it here
    // exercises the unbound-head (unsafe query) path.
    let head: Vec<Term> = (0..1 + mix(&mut s) % 3)
        .map(|_| if mix(&mut s).is_multiple_of(8) { Term::var("v5") } else { term(&mut s) })
        .collect();
    (db, q.with_head(head))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cost-based physical executor returns byte-identical rows to the
    /// naive bindings evaluator on arbitrary databases and queries — whatever
    /// join order, build side, pushdown or pruning the planner chose, and on
    /// both sides of the scan threshold, where a pushed-down scan turns into
    /// an index probe.
    #[test]
    fn physical_and_naive_executors_agree_on_random_queries(
        seed in 0u64..1_000_000,
        relations in 1usize..4,
        rows in 0usize..40,
        atoms in 1usize..5,
    ) {
        let (db, q) = random_db_and_query(seed, relations, rows, atoms);
        let physical = db.query(&q);
        prop_assert_eq!(&physical, &db.query_naive(&q), "executors diverged on {}", q);
        // The contract's ascending order, explicitly.
        let mut sorted = physical.clone();
        sorted.sort();
        prop_assert_eq!(physical, sorted);
    }

    /// Cross-backend agreement on the star workload: both relational
    /// executors run the best reformulation over the materialized views and
    /// must return the same answer set the naive XML engine computes for the
    /// unreformulated query over the published document.
    #[test]
    fn relational_executors_agree_with_the_xml_engine(
        nc in 2usize..4,
        hubs in 1usize..4,
        corner in 1usize..4,
        seed in 0u64..1000,
    ) {
        use mars_workloads::star::StarConfig;
        use std::collections::{BTreeSet, HashMap};

        let cfg = StarConfig::figure5(nc);
        let (xml, db) = cfg.populate(hubs, corner, seed);
        let mars = cfg.mars(mars_system::mars::MarsOptions::specialized());
        let block = mars.reformulate_xbind(&cfg.client_query());
        let best = block.result.best_or_initial().expect("star query must reformulate");

        prop_assert_eq!(db.query(best), db.query_naive(best));

        let head = cfg.client_query().head;
        let xml_rows: BTreeSet<Vec<String>> = xml
            .eval_xbind(&cfg.client_query(), &HashMap::new())
            .expect("star documents are stored")
            .iter()
            .map(|row| {
                head.iter()
                    .map(|v| row[v].as_str().expect("text binding").to_string())
                    .collect()
            })
            .collect();
        let rel_rows: BTreeSet<Vec<String>> = db.query_strings(best).into_iter().collect();
        prop_assert_eq!(xml_rows, rel_rows);
    }
}

// ---------------------------------------------------------------------------
// Backend routing: the cross-backend differential suite over the scenario
// matrix. Every route — auto, forced-relational (physical and naive), and
// forced-XML — must return byte-identical rows on every matrix point.
// ---------------------------------------------------------------------------

/// The best reformulation of every scenario-matrix point, computed once.
/// Reformulation depends only on the schema correspondence (never on data
/// scale or seed), so the routing tests below share one pass over the matrix.
fn matrix_reformulations() -> &'static Vec<(mars_workloads::scenarios::Scenario, ConjunctiveQuery)>
{
    use std::sync::OnceLock;
    static BEST: OnceLock<Vec<(mars_workloads::scenarios::Scenario, ConjunctiveQuery)>> =
        OnceLock::new();
    BEST.get_or_init(|| {
        mars_workloads::scenarios::Scenario::matrix()
            .into_iter()
            .map(|scenario| {
                let block = scenario
                    .mars()
                    .try_reformulate_xbind(&scenario.client_query())
                    .expect("scenario queries are well-formed");
                let best = block
                    .result
                    .best_or_initial()
                    .expect("every scenario has an executable query")
                    .clone();
                (scenario, best)
            })
            .collect()
    })
}

/// `q` with head position `i` fixed to `value` — what a client-side
/// `$v = "<value>"` filter compiles to.
fn with_head_constant(q: &ConjunctiveQuery, i: usize, value: &str) -> ConjunctiveQuery {
    let mut fixed = Substitution::new();
    fixed.set(q.head[i].as_var().expect("scenario heads are variables"), Term::constant_str(value));
    q.apply(&fixed)
}

/// Execute `best` on the auto route and on every forced route and assert the
/// rows identical; returns them. The forced-XML leg falls back to
/// `navigation` (the compiled navigation form of the same query) where
/// `best` is XML-infeasible.
fn assert_all_routes_agree(
    router: &mars_system::storage::BackendRouter<'_>,
    best: &ConjunctiveQuery,
    navigation: &ConjunctiveQuery,
    label: &str,
) -> Vec<mars_system::storage::Row> {
    use mars_system::storage::Route;

    let forced_rel = router.plan_forced(best, Route::Relational);
    let mut forced_xml = router.plan_forced(best, Route::Xml);
    if forced_xml.decision.route != Route::Xml {
        forced_xml = router.plan_forced(navigation, Route::Xml);
    }
    assert_eq!(forced_xml.decision.route, Route::Xml, "{label}: navigation runs on XML");
    let forced_mixed = router.plan_forced(best, Route::Mixed);

    let rows = router.execute(&router.plan(best)).expect("documents are stored").rows;
    for (route, plan) in
        [("relational", &forced_rel), ("xml", &forced_xml), ("mixed", &forced_mixed)]
    {
        let forced = router.execute(plan).expect("documents are stored");
        assert_eq!(rows, forced.rows, "{label}: auto and forced-{route} rows differ");
    }
    rows
}

/// Auto routing plus the forced ablations return identical rows on every
/// point of the scenario matrix — the differential contract routing rests
/// on — for the whole-document scan and, per head
/// variable, for a present constant, the hottest constant (the skewed
/// scenarios' hot row) and a constant no document holds: the key-lookup
/// shapes whose navigation plans are seeded from a value index.
#[test]
fn all_routes_return_identical_results() {
    use mars_system::storage::BackendRouter;
    use std::collections::HashMap;

    for (scenario, best) in matrix_reformulations() {
        let (xml, db) = scenario.populate(8, 7);
        let router = BackendRouter::new(&db, &xml);
        let navigation = scenario.navigation_query();
        let name = scenario.name();

        let rows = assert_all_routes_agree(&router, best, &navigation, &name);
        assert!(!rows.is_empty(), "{name}: scenario data must produce rows");

        for i in 0..best.head.len() {
            let column: Vec<String> =
                rows.iter().map(|r| r[i].as_const().expect("ground answers").render()).collect();
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for value in &column {
                *counts.entry(value).or_default() += 1;
            }
            let hot = column.iter().max_by_key(|v| (counts[v.as_str()], *v)).unwrap();
            for (kind, value) in [
                ("present", &column[column.len() / 2]),
                ("hot", hot),
                ("never-seen", &"none".to_string()),
            ] {
                let label = format!("{name}, head {i} = {kind} {value:?}");
                let found = assert_all_routes_agree(
                    &router,
                    &with_head_constant(best, i, value),
                    &with_head_constant(&navigation, i, value),
                    &label,
                );
                assert_eq!(
                    found.len(),
                    counts.get(value.as_str()).copied().unwrap_or(0),
                    "{label}"
                );
            }
        }
    }
}

/// The navigation work counter pins the planner without a wall clock: a key
/// lookup is seeded from the value index, so it enumerates the *same* number
/// of candidate tuples whatever the document size; a constant no document
/// holds dies at its first probe; only the whole-document scan grows, and
/// linearly.
#[test]
fn key_lookups_enumerate_scale_independent_work() {
    use mars_system::storage::{BackendRouter, Route};
    use mars_workloads::scenarios::Scenario;

    for (name, key) in [("chain-uniform-r0", "k1_7"), ("snowflake-skewed-r0", "k7")] {
        let scenario = Scenario::matrix().into_iter().find(|s| s.name() == name).unwrap();
        let scan = scenario.navigation_query();
        // (nav_tuples, rows) of `q` on the XML route at `scale`.
        let work = |q: &ConjunctiveQuery, scale: usize| {
            let (xml, db) = scenario.populate(scale, 7);
            let router = BackendRouter::new(&db, &xml);
            let exec = router.execute(&router.plan_forced(q, Route::Xml)).unwrap();
            assert_eq!(exec.route, Route::Xml);
            assert_eq!(exec.rows, db.query(q), "{name} at scale {scale}");
            (exec.nav_tuples, exec.rows.len())
        };

        let lookup = with_head_constant(&scan, 0, key);
        let (small, large) = (work(&lookup, 50), work(&lookup, 500));
        assert_eq!(small.1, 1, "{name}: {key} is a key");
        assert_eq!(small, large, "{name}: a key lookup must not depend on the document size");

        let miss = with_head_constant(&scan, 0, "never-seen");
        for scale in [50, 500] {
            let (tuples, rows) = work(&miss, scale);
            assert!(tuples <= 1 && rows == 0, "{name}: a miss enumerated {tuples} tuples");
        }

        let (small, large) = (work(&scan, 50), work(&scan, 500));
        assert_eq!((small.1, large.1), (50, 500), "{name}: one row per hub");
        let per_row = |(tuples, rows): (u64, usize)| tuples as f64 / rows as f64;
        assert!(
            (per_row(large) / per_row(small) - 1.0).abs() < 0.1,
            "{name}: a scan grows linearly, got {small:?} then {large:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The routed execution — whichever backend the router picked for the
    /// sampled scale and seed — agrees byte for byte with both relational
    /// executors (cost-based physical and naive bindings) running the same
    /// reformulation directly.
    #[test]
    fn routed_execution_agrees_with_both_executors(
        idx in 0usize..12,
        scale in 3usize..10,
        seed in 0u64..1000,
    ) {
        use mars_system::storage::BackendRouter;

        let points = matrix_reformulations();
        let (scenario, best) = &points[idx % points.len()];
        let (xml, db) = scenario.populate(scale, seed);
        let router = BackendRouter::new(&db, &xml);
        let routed = router.execute(&router.plan(best)).expect("documents are stored");
        prop_assert_eq!(
            &routed.rows,
            &db.query(best),
            "{}: routed ({:?}) and physical rows differ", scenario.name(), routed.route
        );
        prop_assert_eq!(
            &routed.rows,
            &db.query_naive(best),
            "{}: routed ({:?}) and naive rows differ", scenario.name(), routed.route
        );
    }

    /// The order navigation atoms are written in is cost only: any
    /// permutation of a navigation body — scan or key lookup — returns the
    /// rows the relational oracle returns for the original, and the estimate
    /// the execution reports is the cost `plan_navigation` gives the order
    /// the kernel ran (the kernel compiles that order, the router prices
    /// it).
    #[test]
    fn permuted_navigation_bodies_return_identical_rows(
        idx in 0usize..12,
        scale in 3usize..10,
        seed in 0u64..1000,
        lookup in proptest::bool::ANY,
        shuffle in 0u64..1_000_000,
    ) {
        use mars_system::cost::plan_navigation;
        use mars_system::storage::{BackendRouter, Route};

        let scenario = &matrix_reformulations()[idx].0;
        let (xml, db) = scenario.populate(scale, seed);
        let router = BackendRouter::new(&db, &xml);
        let mut q = scenario.navigation_query();
        if lookup {
            let key = db.query(&q)[0][0].as_const().expect("ground answers").render();
            q = with_head_constant(&q, 0, &key);
        }
        let reference = db.query(&q);

        let mut state = shuffle;
        let mut permuted = q.clone();
        for i in (1..permuted.body.len()).rev() {
            permuted.body.swap(i, (mix(&mut state) % (i as u64 + 1)) as usize);
        }
        let exec = router.execute(&router.plan_forced(&permuted, Route::Xml)).unwrap();
        prop_assert_eq!(exec.route, Route::Xml);
        prop_assert_eq!(&exec.rows, &reference, "{}: permuted body {}", scenario.name(), permuted);
        let order = plan_navigation(&permuted.body, &xml).expect("pure navigation");
        prop_assert_eq!(exec.estimated_cost, order.cost);
    }
}

/// The deterministic companion of `kernel_confirm_agrees_with_containment_mapping`
/// on the paper's star at NC = 4: for the initial reformulation, each of the
/// 16 minimal reformulations of an exhaustive run, and each of those minus
/// one atom (not a reformulation, by minimality), the candidate is chased
/// back and the kernel confirm of the original into every back-chase branch
/// — per call and compiled once — is the oracle's answer: `true` exactly for
/// the reformulations.
#[test]
fn star_back_chases_confirm_like_the_oracle() {
    use mars_oracle::containment_mapping;
    use mars_system::chase::{maps_into, ContainmentProgram};
    use mars_system::mars::MarsOptions;
    use mars_system::workloads::star::StarConfig;

    let cfg = StarConfig::figure5(4);
    let mars = cfg.mars(MarsOptions::specialized().exhaustive());
    let block = mars.reformulate_xbind(&cfg.client_query());
    assert_eq!(block.result.minimal.len(), 1 << cfg.nv);
    let deds = CompiledDeps::new(mars.dependencies());
    let original = &block.compiled;
    let compiled_once = ContainmentProgram::new(original);

    let mut candidates = vec![(block.result.initial.clone().expect("initial"), true)];
    for (minimal, _) in &block.result.minimal {
        candidates.push((minimal.clone(), true));
        for i in 0..minimal.body.len() {
            let mut smaller = minimal.clone();
            smaller.body.remove(i);
            candidates.push((smaller, false));
        }
    }
    let mut back_chases = 0;
    for (candidate, is_reformulation) in &candidates {
        if !candidate.is_safe() {
            continue;
        }
        let back = chase_to_resident_compiled(candidate, &deds, &ChaseOptions::default());
        assert!(back.stats().completed && !back.is_empty());
        back_chases += 1;
        for branch in back.branches() {
            let kernel = maps_into(original, branch.instance(), branch.head());
            let oracle = containment_mapping(original, &branch.to_query("back")).is_some();
            assert_eq!(kernel, oracle, "{candidate:?}");
            assert_eq!(compiled_once.maps_into(branch.instance(), branch.head()), oracle);
            assert_eq!(kernel, *is_reformulation, "{candidate:?}");
        }
    }
    assert!(back_chases > 1 + (1 << cfg.nv), "some shrunk candidates must stay safe");
}

// ---------------------------------------------------------------------------
// Views through the engine: the extent `materialize_view` stores is the
// answer of the compiled view body — the query `c_V` / `b_V` are built from —
// whatever evaluates it.
// ---------------------------------------------------------------------------

type StringRows = std::collections::BTreeSet<Vec<String>>;

/// The rows a view stored, read back from its relation or flat document.
fn stored_extent(
    view: &mars_system::grex::ViewDef,
    xml: &mars_system::storage::XmlStore,
    db: &mars_system::storage::RelationalDatabase,
) -> StringRows {
    match &view.output {
        mars_system::grex::ViewOutput::Relation { name } => {
            let columns: Vec<Term> =
                (0..view.body.head.len()).map(|i| Term::var(&format!("c{i}"))).collect();
            let scan = ConjunctiveQuery::new("Extent")
                .with_head(columns.clone())
                .with_atom(Atom::named(name, columns));
            db.query_strings(&scan).into_iter().collect()
        }
        mars_system::grex::ViewOutput::XmlFlat { document, .. } => {
            let doc = xml.document(document).expect("the view wrote its document");
            doc.child_elements(doc.root().expect("a flat document has a root"))
                .map(|row| doc.child_elements(row).map(|field| doc.text_of(field)).collect())
                .collect()
        }
    }
}

/// `db` plus the GReX encoding of every stored document: what the relational
/// route needs to answer a navigation body.
fn with_encoded_documents(
    db: &mars_system::storage::RelationalDatabase,
    xml: &mars_system::storage::XmlStore,
) -> mars_system::storage::RelationalDatabase {
    let mut facts = db.clone();
    for name in xml.document_names() {
        let doc = xml.document(&name).expect("a listed document is stored");
        facts.load_facts(&mars_system::grex::encode_document(doc));
    }
    facts
}

/// The compiled body of `view` answered by the relational executor over the
/// GReX facts of every stored document, printed the way an extent is stored:
/// a head column bound by a path ending in an element step holds node
/// constants (`<document>/n<arena slot>`) and prints as the element's text.
fn relational_answer(
    view: &mars_system::grex::ViewDef,
    xml: &mars_system::storage::XmlStore,
    db: &mars_system::storage::RelationalDatabase,
) -> StringRows {
    use mars_system::grex::{compile_xbind, CompileContext};
    use mars_system::xquery::XBindAtom;

    let body = &view.body;
    let element = |head: &String| {
        body.atoms.iter().any(|atom| match atom {
            XBindAtom::AbsolutePath { path, var, .. }
            | XBindAtom::RelativePath { path, var, .. } => var == head && !path.returns_value(),
            _ => false,
        })
    };
    let elements: Vec<bool> = body.head.iter().map(element).collect();
    let print = |(value, element): (String, &bool)| {
        if !element {
            return value;
        }
        let (document, slot) = value.rsplit_once("/n").expect("a node constant");
        let doc = xml.document(document).expect("the constant names its document");
        doc.text_of(mars_system::xml::NodeId(slot.parse().expect("an arena slot")))
    };
    let compiled = compile_xbind(&mut CompileContext::new(), body);
    let rows = with_encoded_documents(db, xml).query_strings(&compiled);
    rows.into_iter().map(|row| row.into_iter().zip(&elements).map(print).collect()).collect()
}

/// Materialize `views` in order over the stores and compare every extent
/// with (a) the oracle — the naive XBind interpreter, head-projected and
/// deduplicated — and (b) the relational executor running the compiled body
/// over the loaded GReX facts. The interpreter skips relational atoms, so a
/// body that has one is checked against (b) only.
fn assert_extents_agree(
    label: &str,
    mut xml: mars_system::storage::XmlStore,
    mut db: mars_system::storage::RelationalDatabase,
    views: &[mars_system::grex::ViewDef],
) {
    use mars_system::storage::Value;
    use mars_system::xquery::XBindAtom;

    for view in views {
        let stored = mars_system::storage::materialize_view(view, &mut xml, &mut db)
            .expect("the view's documents are stored");
        let extent = stored_extent(view, &xml, &db);
        assert_eq!(extent.len(), stored, "{label}/{}: stored rows are a set", view.name);
        assert!(!extent.is_empty(), "{label}/{}: the generated data matches the view", view.name);

        let relational = relational_answer(view, &xml, &db);
        assert_eq!(extent, relational, "{label}/{}: engine vs relational route", view.name);

        if view.body.atoms.iter().any(|a| matches!(a, XBindAtom::Relational { .. })) {
            continue;
        }
        let oracle: StringRows = xml
            .eval_xbind(&view.body, &std::collections::HashMap::new())
            .expect("the view's documents are stored")
            .iter()
            .map(|row| {
                let print = |v| match &row[v] {
                    Value::Str(s) => s.clone(),
                    Value::Node { document, node } => {
                        xml.document(document).unwrap().text_of(*node)
                    }
                };
                view.body.head.iter().map(print).collect()
            })
            .collect();
        assert_eq!(extent, oracle, "{label}/{}: engine vs oracle", view.name);
    }
}

/// Every view a correspondence defines, in materialization order: GAV
/// (publishing) views first — LAV views may read the documents they write —
/// then the specialization relations.
fn views_of(corr: &mars_system::mars::SchemaCorrespondence) -> Vec<mars_system::grex::ViewDef> {
    let views = corr.gav_views.iter().chain(&corr.lav_views).cloned();
    views.chain(corr.specializations.iter().map(|m| m.definition_view())).collect()
}

/// The engine against the oracle on every view the repository defines: the
/// star (NC 3, NV 2), XMark, Example 1.1 and every redundancy ≥ 1 point of
/// the scenario matrix, each with its specialization relations, over
/// generated documents. Every generated leaf carries text, so the oracle's
/// `text()` of an empty element (`""`, where GReX has no `text#d` fact and
/// the engine no binding) does not arise here; `materialize::tests` and the
/// property below cover it.
#[test]
fn view_extents_agree_with_the_oracle_and_the_relational_route() {
    use mars_system::storage::{RelationalDatabase, XmlStore};
    use mars_system::workloads::{example11, scenarios::Scenario, star::StarConfig, xmark};

    let over = |doc: mars_system::xml::Document| {
        let mut xml = XmlStore::new();
        xml.add_document(doc);
        (xml, RelationalDatabase::new())
    };
    for seed in 1..=3u64 {
        let star = StarConfig { nc: 3, nv: 2, proprietary_includes_document: true };
        let (xml, db) = over(star.generate_document(6, 4, seed));
        assert_extents_agree(&format!("star/{seed}"), xml, db, &views_of(&star.correspondence()));

        let (xml, db) = over(xmark::generate_document(8, 6, 7, seed));
        let views = views_of(&xmark::correspondence());
        assert_extents_agree(&format!("xmark/{seed}"), xml, db, &views);

        // Example 1.1 has no seeded generator: three sizes, populated (so the
        // patient tables exist) and materialized again over the result.
        let (xml, db) = example11::populate(4 + 3 * seed as usize);
        let views = views_of(&example11::correspondence());
        assert_extents_agree(&format!("example11/{seed}"), xml, db, &views);

        for scenario in Scenario::matrix().into_iter().filter(Scenario::view_backed) {
            let (xml, db) = over(scenario.generate_document(6, seed));
            let label = format!("{}/{seed}", scenario.name());
            assert_extents_agree(&label, xml, db, &views_of(&scenario.correspondence()));
        }
    }
}

/// Two small random documents — empty leaves, repeated and nested tags,
/// attributes — and a random view body of two to four path atoms over them,
/// with value joins (a text variable bound twice) and element-valued head
/// columns.
fn random_documents_and_view(
    seed: u64,
) -> (mars_system::storage::XmlStore, mars_system::grex::ViewDef) {
    use mars_system::grex::ViewDef;
    use mars_system::xml::{parse_path, Document, NodeId};
    use mars_system::xquery::{XBindAtom, XBindQuery};

    let mut s = seed;
    let mut pick = |n: usize| (mix(&mut s) % n as u64) as usize;
    const TAGS: [&str; 3] = ["a", "b", "c"];
    const TEXTS: [&str; 4] = ["", "1", "2", "x"];
    const DOCS: [&str; 2] = ["d1.xml", "d2.xml"];

    let mut xml = mars_system::storage::XmlStore::new();
    for name in DOCS {
        let mut doc = Document::new(name);
        let mut open: Vec<(NodeId, usize)> = vec![(doc.create_root(TAGS[pick(3)]), 0)];
        while let Some((parent, depth)) = open.pop() {
            for _ in 0..2 + pick(3) {
                let tag = TAGS[pick(3)];
                let child = if depth < 2 && pick(2) == 0 {
                    let child = doc.add_element(parent, tag);
                    open.push((child, depth + 1));
                    child
                } else {
                    doc.add_leaf(parent, tag, TEXTS[pick(4)])
                };
                if pick(2) == 0 {
                    doc.set_attribute(child, "k", TEXTS[1 + pick(3)]);
                }
            }
        }
        xml.add_document(doc);
    }

    // (variable, is an element) for everything bound so far.
    let mut bound: Vec<(String, bool)> = Vec::new();
    let mut body = XBindQuery::new("RandomView");
    for i in 0..2 + pick(3) {
        let elements: Vec<String> =
            bound.iter().filter(|(_, element)| *element).map(|(v, _)| v.clone()).collect();
        let fresh = format!("v{i}");
        if elements.is_empty() || pick(4) == 0 {
            let path = parse_path(&format!("//{}", TAGS[pick(3)])).unwrap();
            body = body.with_atom(XBindAtom::AbsolutePath {
                document: DOCS[pick(2)].to_string(),
                path,
                var: fresh.clone(),
            });
            bound.push((fresh, true));
            continue;
        }
        let tag = TAGS[pick(3)];
        let (path, element) = match pick(6) {
            0 => (format!("./{tag}"), true),
            1 => (format!(".//{tag}"), true),
            2 => ("./*".to_string(), true),
            3 => ("./@k".to_string(), false),
            4 => ("./text()".to_string(), false),
            _ => (format!("./{tag}/text()"), false),
        };
        // A string target is sometimes a string variable already bound: a
        // value join.
        let strings: Vec<String> =
            bound.iter().filter(|(_, element)| !*element).map(|(v, _)| v.clone()).collect();
        let var = if !element && !strings.is_empty() && pick(3) == 0 {
            strings[pick(strings.len())].clone()
        } else {
            bound.push((fresh.clone(), element));
            fresh
        };
        body = body.with_atom(XBindAtom::RelativePath {
            path: parse_path(&path).unwrap(),
            source: elements[pick(elements.len())].clone(),
            var,
        });
    }
    let names: Vec<&str> = (0..1 + pick(3)).map(|_| bound[pick(bound.len())].0.as_str()).collect();
    let body = body.with_head(&names);
    let tags: Vec<String> = (0..names.len()).map(|i| format!("f{i}")).collect();
    let tags: Vec<&str> = tags.iter().map(String::as_str).collect();
    let view = if pick(2) == 0 {
        ViewDef::relational("extent", body)
    } else {
        ViewDef::xml_flat("Extent", body, "extent.xml", "row", &tags)
    };
    (xml, view)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The constraints hold on what is stored: over random documents and
    /// random view bodies, the extent is the answer of the compiled body over
    /// `encode_document`'s facts, an element-valued column printed as the
    /// element's text.
    #[test]
    fn stored_extents_satisfy_their_constraints(seed in 0u64..u64::MAX) {
        use mars_system::storage::{materialize_view, RelationalDatabase};

        let (mut xml, view) = random_documents_and_view(seed);
        let mut db = RelationalDatabase::new();
        let expected = relational_answer(&view, &xml, &db);
        let stored = materialize_view(&view, &mut xml, &mut db).expect("both documents are stored");
        let extent = stored_extent(&view, &xml, &db);
        prop_assert_eq!(stored, extent.len(), "{}: stored rows are a set", view.body);
        prop_assert_eq!(extent, expected, "{}", view.body);
    }
}

/// Tokens of the three input languages (XML documents, XQuery, XPath), a
/// few multi-byte characters, and the pieces in between.
const FUZZ_TOKENS: &[&str] = &[
    "<",
    ">",
    "</",
    "/>",
    "<?",
    "?>",
    "<!--",
    "-->",
    "<![CDATA[",
    "]]>",
    "<!DOCTYPE",
    "&",
    "&amp;",
    "&lt;",
    "&#",
    "&#x",
    "&#65;",
    "&#x1F980;",
    "&#xD800;",
    ";",
    "=",
    "\"",
    "'",
    " ",
    "\n",
    "\t",
    "a",
    "R",
    "K",
    "x1",
    "_",
    "-",
    ".",
    ":",
    "for",
    "let",
    "where",
    "return",
    "in",
    "and",
    "or",
    "if",
    "then",
    "else",
    "some",
    "satisfies",
    "$",
    "$x",
    "$r",
    "//",
    "/",
    "..",
    "@",
    "@id",
    "*",
    "text()",
    "node()",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    ",",
    "!=",
    "<=",
    "document(",
    "\"d.xml\")",
    "0",
    "42",
    "-1",
    "::",
    "child::",
    "descendant::",
    "|",
    "é",
    "中",
    "🦀",
    "\u{0}",
];

/// Well-formed inputs of each language, to be cut short or spliced into.
const FUZZ_SEEDS: &[&str] = &[
    "<?xml version=\"1.0\"?><star><R id=\"r1\"><K>k&amp;1</K><!-- c --><A1>a</A1></R></star>",
    "for $r in //R, $k in $r/K/text() where $k = \"k1\" return <row><k>$k</k></row>",
    "for $c in document(\"case.xml\")//case return <a>{ for $d in $c/drug return $d/text() }</a>",
    "//R[@id]/A1/text()",
    "./name/first/text()",
];

/// One random input: tokens strung together, or a well-formed seed cut at
/// a random character or with a random token spliced in.
fn fuzz_input(rng: &mut TestRng) -> String {
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    match pick(3) {
        0 => (0..pick(24)).map(|_| FUZZ_TOKENS[pick(FUZZ_TOKENS.len())]).collect(),
        kind => {
            let seed = FUZZ_SEEDS[pick(FUZZ_SEEDS.len())];
            let cuts: Vec<usize> =
                seed.char_indices().map(|(i, _)| i).chain([seed.len()]).collect();
            let at = cuts[pick(cuts.len())];
            if kind == 1 {
                seed[..at].to_string()
            } else {
                format!("{}{}{}", &seed[..at], FUZZ_TOKENS[pick(FUZZ_TOKENS.len())], &seed[at..])
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three parsers that read client input answer every string with a
    /// value or an error, never a panic.
    #[test]
    fn parsers_never_panic_on_arbitrary_input(seed in 1u64..u64::MAX) {
        use mars_system::xml::{parse_document, parse_path};
        use mars_system::xquery::parse_xquery;
        use std::panic::catch_unwind;

        let mut rng = TestRng::new(seed);
        for _ in 0..256 {
            let input = fuzz_input(&mut rng);
            let input = input.as_str();
            prop_assert!(catch_unwind(|| parse_document("fuzz.xml", input)).is_ok(), "parse_document({input:?})");
            prop_assert!(catch_unwind(|| parse_xquery(input)).is_ok(), "parse_xquery({input:?})");
            prop_assert!(catch_unwind(|| parse_path(input)).is_ok(), "parse_path({input:?})");
        }
    }
}
