//! Set-oriented evaluation of a conjunction of atoms over a symbolic
//! instance.
//!
//! This is the workhorse of the new C&B implementation: constraint premises
//! (and conclusions, for the semijoin extension check) are evaluated over
//! `Inst(Q)` using hash joins with selections (constants, repeated variables)
//! pushed into the joins, producing *all* homomorphisms in bulk rather than
//! one backtracking search per candidate.
//!
//! Joins probe the instance's **persistent** per-predicate column indexes
//! ([`crate::instance::Relation::index`]): an index is built at most once per
//! (relation, column-set) and maintained incrementally on insert, so repeated
//! evaluations over a growing instance never rebuild hash tables.
//!
//! Whether one join step *scans* its relation or *probes* the hash index is
//! decided by the constant [`SCAN_THRESHOLD`]: a relation of at most that many
//! tuples is scanned with the selections applied inline, anything larger is
//! probed (building the index on first use). Both strategies enumerate
//! matching tuples in ascending tuple-index order, so the choice can never
//! change a result, only its cost — the agreement test against the
//! backtracking search of `mars-cq` covers relations on both sides of the
//! threshold.

use crate::instance::SymbolicInstance;
use mars_cq::{Atom, Substitution, Term, Variable};

/// A homomorphism produced by evaluation (bindings of the evaluated atoms'
/// variables to terms of the instance).
pub type Binding = Substitution;

/// Relations of at most this many tuples are joined by a filtered scan;
/// larger ones through the persistent column index. Below it, materializing
/// the key vector, hashing it and walking the posting list costs more than
/// inspecting every tuple inline.
pub const SCAN_THRESHOLD: usize = 8;

/// Choose an evaluation order for the atoms: start from the atom with the
/// most constants (most selective), then repeatedly pick an atom sharing a
/// variable with the already-ordered prefix (avoiding Cartesian products when
/// possible), preferring more constants.
///
/// Only the *set* of initially bound variables matters, so the order for a
/// fixed conjunction and binding shape can be computed once and reused —
/// [`crate::compiled::CompiledDed`] precompiles its premise order this way.
pub(crate) fn order_atoms(atoms: &[Atom], initially_bound: &[Variable]) -> Vec<usize> {
    let n = atoms.len();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    let mut bound: Vec<Variable> = initially_bound.to_vec();

    let const_count = |a: &Atom| a.args.iter().filter(|t| t.is_const()).count();

    while order.len() < n {
        let mut best: Option<usize> = None;
        let mut best_key = (false, 0usize);
        for (i, a) in atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let connected = order.is_empty() || a.variables().any(|v| bound.contains(&v));
            let key =
                (connected, const_count(a) + a.variables().filter(|v| bound.contains(v)).count());
            if best.is_none() || key > best_key {
                best = Some(i);
                best_key = key;
            }
        }
        let i = best.expect("atom available");
        used[i] = true;
        order.push(i);
        bound.extend(atoms[i].variables());
    }
    order
}

/// Columnar join state: a variable per column and flat term-vector rows.
///
/// Intermediate join results are kept *columnar* — a shared variable list
/// plus flat term-vector rows — and only surviving final rows are
/// materialized as [`Substitution`]s by the callers. Cloning a hash-map
/// substitution per intermediate row dominated the chase profile; the term
/// vectors make each extension a `Vec` push.
struct JoinState {
    vars: Vec<Variable>,
    rows: Vec<Vec<Term>>,
}

impl JoinState {
    /// The one-row state every join starts from: the initially bound
    /// variables as columns, the initial binding as the single row.
    fn new(initial: &Substitution) -> JoinState {
        let vars: Vec<Variable> = initial.iter().map(|(v, _)| v).collect();
        let rows = vec![vars.iter().map(|v| initial.get(*v).expect("initially bound")).collect()];
        JoinState { vars, rows }
    }
}

/// Extend the join state by one atom, scanning relations of at most
/// [`SCAN_THRESHOLD`] tuples and probing the column index of larger ones.
/// Returns `false` when the state has no surviving rows (missing or empty
/// relation, or no matches) — callers may then stop early; the variable
/// layout is left truncated, which is fine because empty states are never
/// materialized.
fn join_step(state: &mut JoinState, atom: &Atom, inst: &SymbolicInstance) -> bool {
    if state.rows.is_empty() {
        return false;
    }
    let Some(rel) = inst.relation_data(atom.predicate).filter(|rel| !rel.is_empty()) else {
        state.rows.clear();
        return false;
    };
    let tuples = rel.tuples();

    // Classify argument positions against the current column set.
    // Argument positions whose (fresh) variable becomes a new column.
    let mut new_positions: Vec<usize> = Vec::new();
    // Positions repeating a fresh variable first seen at an earlier
    // position of the same atom: the tuple must carry equal terms.
    let mut dup_positions: Vec<(usize, usize)> = Vec::new();
    // Hash-key columns of the persistent index (ascending positions) and
    // how to fill the probe key: a fixed constant or a row column.
    let mut key_cols: Vec<usize> = Vec::new();
    let mut key_sources: Vec<Result<Term, usize>> = Vec::new();
    for (i, arg) in atom.args.iter().enumerate() {
        match arg {
            Term::Const(_) => {
                key_cols.push(i);
                key_sources.push(Ok(*arg));
            }
            Term::Var(v) => {
                if let Some(col) = state.vars.iter().position(|w| w == v) {
                    key_cols.push(i);
                    key_sources.push(Err(col));
                } else if let Some(p) = atom.args[..i].iter().position(|w| w.as_var() == Some(*v)) {
                    dup_positions.push((i, p));
                } else {
                    new_positions.push(i);
                }
            }
        }
    }

    let rows = &state.rows;
    let mut next_rows: Vec<Vec<Term>> = Vec::new();
    // Extend one row by one matching tuple (dup filter applied here, key
    // filter by the callers below).
    let mut extend = |row: &Vec<Term>, ti: usize| {
        let tuple = &tuples[ti];
        for &(i, p) in &dup_positions {
            if tuple[i] != tuple[p] {
                return;
            }
        }
        let mut extended = Vec::with_capacity(row.len() + new_positions.len());
        extended.extend_from_slice(row);
        extended.extend(new_positions.iter().map(|&p| tuple[p]));
        next_rows.push(extended);
    };

    if key_cols.is_empty() {
        // No bound position: Cartesian extension.
        for row in rows {
            for ti in 0..tuples.len() {
                extend(row, ti);
            }
        }
    } else if tuples.len() <= SCAN_THRESHOLD {
        // Filtered scan of a small relation.
        for row in rows {
            'scan: for (ti, tuple) in tuples.iter().enumerate() {
                for (i, src) in key_cols.iter().zip(&key_sources) {
                    let want = match src {
                        Ok(c) => *c,
                        Err(col) => row[*col],
                    };
                    if tuple[*i] != want {
                        continue 'scan;
                    }
                }
                extend(row, ti);
            }
        }
    } else {
        // Probe the persistent index; posting lists are ascending tuple
        // indices — the same ascending enumeration the scan produces, which
        // is why the scan/probe choice is invisible in the results.
        let index = rel.index(&key_cols);
        let mut key: Vec<Term> = Vec::with_capacity(key_sources.len());
        for row in rows {
            key.clear();
            key.extend(key_sources.iter().map(|s| match s {
                Ok(c) => *c,
                Err(col) => row[*col],
            }));
            if let Some(matches) = index.get(&key) {
                for &ti in matches {
                    extend(row, ti);
                }
            }
        }
    }
    state.rows = next_rows;
    state.vars.extend(
        new_positions.iter().map(|&p| atom.args[p].as_var().expect("new slots are variables")),
    );
    !state.rows.is_empty()
}

/// Does a columnar row satisfy every inequality?
fn row_satisfies(vars: &[Variable], row: &[Term], ineqs: &[(Term, Term)]) -> bool {
    let value = |t: Term| -> Term {
        match t {
            Term::Var(v) => {
                vars.iter().position(|w| *w == v).map(|c| row[c]).unwrap_or(Term::Var(v))
            }
            Term::Const(_) => t,
        }
    };
    ineqs.iter().all(|(a, b)| value(*a) != value(*b))
}

/// Materialize columnar rows as [`Substitution`]s extending `initial`.
fn materialize(vars: &[Variable], rows: Vec<Vec<Term>>, initial: &Substitution) -> Vec<Binding> {
    rows.into_iter()
        .map(|row| {
            let mut s = initial.clone();
            for (v, t) in vars.iter().zip(&row) {
                s.set(*v, *t);
            }
            s
        })
        .collect()
}

/// Evaluate `atoms` (a conjunction) over `inst`, extending `initial`, and
/// filter the results by the inequalities. Returns every homomorphism.
pub fn evaluate_bindings(
    atoms: &[Atom],
    inequalities: &[(Term, Term)],
    inst: &SymbolicInstance,
    initial: &Substitution,
) -> Vec<Binding> {
    if atoms.is_empty() {
        // Only the initial binding, provided it satisfies the inequalities.
        let ok = inequalities.iter().all(|(a, b)| initial.apply_term(*a) != initial.apply_term(*b));
        return if ok { vec![initial.clone()] } else { Vec::new() };
    }
    let initially_bound: Vec<Variable> = initial.iter().map(|(v, _)| v).collect();
    let order = order_atoms(atoms, &initially_bound);
    evaluate_bindings_ordered(atoms, inequalities, inst, initial, &order)
}

/// The join core behind [`evaluate_bindings`], with the atom order already
/// chosen — the entry point for callers holding a precompiled order
/// ([`crate::compiled::CompiledDed::premise_bindings`]).
pub(crate) fn evaluate_bindings_ordered(
    atoms: &[Atom],
    inequalities: &[(Term, Term)],
    inst: &SymbolicInstance,
    initial: &Substitution,
    order: &[usize],
) -> Vec<Binding> {
    let mut state = JoinState::new(initial);
    for &ai in order {
        if !join_step(&mut state, &atoms[ai], inst) {
            break;
        }
    }
    let JoinState { vars, mut rows } = state;
    if !inequalities.is_empty() {
        rows.retain(|r| row_satisfies(&vars, r, inequalities));
    }
    materialize(&vars, rows, initial)
}

/// Semijoin-style existence check: is there at least one extension of
/// `initial` satisfying the atoms and inequalities?
///
/// This is the chase's *blocked* test, called once per premise binding —
/// by far the highest-volume entry point of this module — so unlike
/// [`evaluate_bindings`] it does not materialize anything: a backtracking
/// search over the (join-ordered) atoms binds variables in place and
/// returns at the first witness. Candidate tuples at each depth come from
/// a filtered scan (relations of at most [`SCAN_THRESHOLD`] tuples) or the
/// persistent column indexes, probed on the positions bound so far.
pub fn satisfiable(
    atoms: &[Atom],
    inequalities: &[(Term, Term)],
    inst: &SymbolicInstance,
    initial: &Substitution,
) -> bool {
    if atoms.is_empty() {
        return inequalities.iter().all(|(a, b)| initial.apply_term(*a) != initial.apply_term(*b));
    }
    let initially_bound: Vec<Variable> = initial.iter().map(|(v, _)| v).collect();
    let order = order_atoms(atoms, &initially_bound);
    satisfiable_ordered(atoms, inequalities, inst, initial.clone(), &order)
}

/// The search core behind [`satisfiable`], with the atom order already
/// chosen — the entry point for callers holding a precompiled order
/// ([`crate::compiled::CompiledConclusion::satisfied`], whose bound *set* is
/// known at compile time). The order only steers the search, never the
/// boolean answer, so a precompiled order is always sound.
pub(crate) fn satisfiable_ordered(
    atoms: &[Atom],
    inequalities: &[(Term, Term)],
    inst: &SymbolicInstance,
    initial: Substitution,
    order: &[usize],
) -> bool {
    if atoms.is_empty() {
        return inequalities.iter().all(|(a, b)| initial.apply_term(*a) != initial.apply_term(*b));
    }
    // The initial binding is taken by value: the highest-volume caller (the
    // blocked test) hands over a substitution it just built, so the search
    // mutates it in place instead of cloning a second time.
    let mut sub = initial;
    // One posting-list scratch buffer per depth: candidate tuple ids are
    // copied out of the index so no index borrow is held across recursion
    // (a deeper probe of the same relation may need to build a new index).
    let mut scratch: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
    satisfiable_from(order, 0, atoms, inequalities, inst, &mut sub, &mut scratch)
}

fn satisfiable_from(
    order: &[usize],
    depth: usize,
    atoms: &[Atom],
    inequalities: &[(Term, Term)],
    inst: &SymbolicInstance,
    sub: &mut Substitution,
    scratch: &mut [Vec<usize>],
) -> bool {
    if depth == order.len() {
        return inequalities.iter().all(|(a, b)| sub.apply_term(*a) != sub.apply_term(*b));
    }
    let atom = &atoms[order[depth]];
    let Some(rel) = inst.relation_data(atom.predicate) else {
        return false;
    };
    if rel.is_empty() {
        return false;
    }

    // Bound positions (constants and variables already bound) form the probe
    // key; the rest are free.
    let mut key_cols: Vec<usize> = Vec::new();
    let mut key: Vec<Term> = Vec::new();
    for (i, arg) in atom.args.iter().enumerate() {
        match arg {
            Term::Const(_) => {
                key_cols.push(i);
                key.push(*arg);
            }
            Term::Var(v) => {
                if let Some(t) = sub.get(*v) {
                    key_cols.push(i);
                    key.push(t);
                }
            }
        }
    }
    let (mine, rest) = scratch.split_first_mut().expect("scratch sized to the atom order");
    if key_cols.len() == atom.args.len() {
        // Fully bound: the key *is* the tuple — a set-membership test.
        return rel.contains(&key)
            && satisfiable_from(order, depth + 1, atoms, inequalities, inst, sub, rest);
    }
    mine.clear();
    if key_cols.is_empty() {
        mine.extend(0..rel.len());
    } else if rel.len() <= SCAN_THRESHOLD {
        // Filtered scan of a small relation.
        'scan: for (ti, tuple) in rel.tuples().iter().enumerate() {
            for (i, want) in key_cols.iter().zip(&key) {
                if tuple[*i] != *want {
                    continue 'scan;
                }
            }
            mine.push(ti);
        }
    } else {
        let index = rel.index(&key_cols);
        if let Some(matches) = index.get(&key) {
            mine.extend_from_slice(matches);
        }
    }

    'tuples: for &ti in mine.iter() {
        let tuple = &rel.tuples()[ti];
        // Match the free positions against the tuple, collecting the fresh
        // bindings this tuple would add (repeated fresh variables within the
        // atom must match equal terms; bound positions already matched via
        // the probe key).
        let mut added: Vec<(Variable, Term)> = Vec::new();
        for (i, arg) in atom.args.iter().enumerate() {
            if let Term::Var(v) = arg {
                if sub.binds(*v) {
                    continue;
                }
                if let Some((_, t)) = added.iter().find(|(w, _)| w == v) {
                    if *t != tuple[i] {
                        continue 'tuples;
                    }
                } else {
                    added.push((*v, tuple[i]));
                }
            }
        }
        for (v, t) in &added {
            sub.set(*v, *t);
        }
        if satisfiable_from(order, depth + 1, atoms, inequalities, inst, sub, rest) {
            return true;
        }
        for (v, _) in &added {
            sub.remove(*v);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{Atom, ConjunctiveQuery, Term};

    fn t(n: &str) -> Term {
        Term::var(n)
    }
    fn v(n: &str) -> Variable {
        Variable::named(n)
    }

    fn example_instance() -> SymbolicInstance {
        // Q(a,g) :- R(a,b), R(b,c), R(c,d), S(d,e), S(e,f), S(f,g)
        let q = ConjunctiveQuery::new("Q").with_head(vec![t("a"), t("g")]).with_body(vec![
            Atom::named("R", vec![t("a"), t("b")]),
            Atom::named("R", vec![t("b"), t("c")]),
            Atom::named("R", vec![t("c"), t("d")]),
            Atom::named("S", vec![t("d"), t("e")]),
            Atom::named("S", vec![t("e"), t("f")]),
            Atom::named("S", vec![t("f"), t("g")]),
        ]);
        SymbolicInstance::from_query(&q)
    }

    #[test]
    fn example_3_1_premise_evaluation() {
        // premise: R(x,y), R(y,z), S(z,u), S(u,v) — exactly one homomorphism.
        let premise = vec![
            Atom::named("R", vec![t("x"), t("y")]),
            Atom::named("R", vec![t("y"), t("z")]),
            Atom::named("S", vec![t("z"), t("u")]),
            Atom::named("S", vec![t("u"), t("v")]),
        ];
        let inst = example_instance();
        let res = evaluate_bindings(&premise, &[], &inst, &Substitution::new());
        assert_eq!(res.len(), 1);
        let h = &res[0];
        assert_eq!(h.get(v("x")), Some(t("b")));
        assert_eq!(h.get(v("v")), Some(t("f")));
    }

    #[test]
    fn constants_are_pushed_into_the_scan() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&tag(t("n1"), "author"));
        inst.insert_atom(&tag(t("n2"), "title"));
        inst.insert_atom(&tag(t("n3"), "author"));
        let res = evaluate_bindings(&[tag(t("x"), "author")], &[], &inst, &Substitution::new());
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn repeated_variables_in_one_atom() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&Atom::named("R", vec![t("a"), t("b")]));
        inst.insert_atom(&Atom::named("R", vec![t("c"), t("c")]));
        let res = evaluate_bindings(
            &[Atom::named("R", vec![t("x"), t("x")])],
            &[],
            &inst,
            &Substitution::new(),
        );
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].get(v("x")), Some(t("c")));
    }

    #[test]
    fn initial_bindings_restrict_results() {
        let inst = example_instance();
        let init = Substitution::from_pairs(vec![(v("x"), t("b"))]).unwrap();
        let res = evaluate_bindings(&[Atom::named("R", vec![t("x"), t("y")])], &[], &inst, &init);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].get(v("y")), Some(t("c")));
    }

    #[test]
    fn inequalities_filter_bindings() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&Atom::named("R", vec![t("a"), t("a")]));
        inst.insert_atom(&Atom::named("R", vec![t("a"), t("b")]));
        let atoms = vec![Atom::named("R", vec![t("x"), t("y")])];
        let all = evaluate_bindings(&atoms, &[], &inst, &Substitution::new());
        assert_eq!(all.len(), 2);
        let neq = evaluate_bindings(&atoms, &[(t("x"), t("y"))], &inst, &Substitution::new());
        assert_eq!(neq.len(), 1);
    }

    #[test]
    fn empty_atom_list_checks_only_inequalities() {
        let inst = SymbolicInstance::new();
        let init = Substitution::from_pairs(vec![(v("x"), t("a")), (v("y"), t("a"))]).unwrap();
        assert_eq!(evaluate_bindings(&[], &[], &inst, &init).len(), 1);
        assert!(evaluate_bindings(&[], &[(t("x"), t("y"))], &inst, &init).is_empty());
    }

    #[test]
    fn missing_relation_yields_no_bindings() {
        let inst = example_instance();
        let res = evaluate_bindings(
            &[Atom::named("Absent", vec![t("x")])],
            &[],
            &inst,
            &Substitution::new(),
        );
        assert!(res.is_empty());
        assert!(!satisfiable(
            &[Atom::named("Absent", vec![t("x")])],
            &[],
            &inst,
            &Substitution::new()
        ));
    }

    #[test]
    fn chain_evaluation_counts_paths() {
        // child chain n1->n2->n3->n4; pattern child(x,y),child(y,z) has 2 matches.
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&child(t("n1"), t("n2")));
        inst.insert_atom(&child(t("n2"), t("n3")));
        inst.insert_atom(&child(t("n3"), t("n4")));
        let res = evaluate_bindings(
            &[child(t("x"), t("y")), child(t("y"), t("z"))],
            &[],
            &inst,
            &Substitution::new(),
        );
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn disconnected_patterns_produce_cross_products() {
        let mut inst = SymbolicInstance::new();
        inst.insert_atom(&Atom::named("A", vec![t("a1")]));
        inst.insert_atom(&Atom::named("A", vec![t("a2")]));
        inst.insert_atom(&Atom::named("B", vec![t("b1")]));
        inst.insert_atom(&Atom::named("B", vec![t("b2")]));
        let res = evaluate_bindings(
            &[Atom::named("A", vec![t("x")]), Atom::named("B", vec![t("y")])],
            &[],
            &inst,
            &Substitution::new(),
        );
        assert_eq!(res.len(), 4);
    }

    /// Cross-check the set-oriented evaluator against the backtracking
    /// search of `mars-cq`, with relations on both sides of
    /// [`SCAN_THRESHOLD`]: a scanned step and a probed step must enumerate
    /// the same bindings, in ascending tuple-index order along the join
    /// order. The pattern has a constant key, a repeated fresh variable and
    /// an inequality.
    #[test]
    fn agrees_with_backtracking_homomorphism_search() {
        let pattern = vec![
            child(t("x"), t("y")),
            tag(t("y"), "a"),
            child(t("x"), t("z")),
            Atom::named("E", vec![t("z"), t("w"), t("w")]),
        ];
        let ineqs = vec![(t("y"), t("z"))];
        // (parents, children per parent, padding E tuples): `child` and
        // `tag` hold parents × children tuples, `E` that plus the padding.
        for (parents, per_parent, padding) in [(2, 3, 0), (2, 4, 0), (3, 3, 0), (2, 3, 5)] {
            let mut inst = SymbolicInstance::new();
            for i in 0..parents {
                for j in 0..per_parent {
                    let c = t(&format!("c{i}_{j}"));
                    inst.insert_atom(&child(t(&format!("p{i}")), c));
                    inst.insert_atom(&tag(c, if j % 2 == 0 { "a" } else { "b" }));
                    let other = if j % 2 == 0 { t("u") } else { t("v") };
                    inst.insert_atom(&Atom::named("E", vec![c, t("u"), other]));
                }
            }
            for k in 0..padding {
                inst.insert_atom(&Atom::named("E", vec![t(&format!("pad{k}")), t("q"), t("q")]));
            }
            let child_len = inst.relation_len(pattern[0].predicate);
            let e_len = inst.relation_len(pattern[3].predicate);
            assert_eq!(child_len, parents * per_parent);
            assert_eq!(e_len, child_len + padding);

            // The tuple index each join step chose, in join order.
            let order = order_atoms(&pattern, &[]);
            let trail = |h: &Binding| -> Vec<usize> {
                order
                    .iter()
                    .map(|&ai| {
                        let image = h.apply_atom(&pattern[ai]);
                        inst.relation(image.predicate)
                            .iter()
                            .position(|tuple| *tuple == image.args)
                            .expect("a binding maps every atom onto a tuple")
                    })
                    .collect()
            };

            let fast = evaluate_bindings(&pattern, &ineqs, &inst, &Substitution::new());
            let fast_trails: Vec<Vec<usize>> = fast.iter().map(&trail).collect();
            assert!(
                fast_trails.windows(2).all(|w| w[0] < w[1]),
                "child = {child_len}, E = {e_len}: bindings must come in ascending trail order"
            );

            let index = mars_cq::AtomIndex::new(&inst.atoms());
            let mut slow =
                mars_cq::find_all_homomorphisms(&pattern, &index, &Substitution::new(), None);
            slow.retain(|h| ineqs.iter().all(|(a, b)| h.apply_term(*a) != h.apply_term(*b)));
            slow.sort_by_key(&trail);
            assert_eq!(fast, slow, "child = {child_len}, E = {e_len}");
            // Per parent: ordered pairs of distinct "a"-tagged children.
            let tagged_a = per_parent.div_ceil(2);
            assert_eq!(fast.len(), parents * tagged_a * (tagged_a - 1));

            assert!(satisfiable(&pattern, &ineqs, &inst, &Substitution::new()));
            // `E` pairs equal terms only under "a"-tagged nodes.
            let mut unsat = pattern.clone();
            unsat.push(tag(t("z"), "b"));
            assert!(!satisfiable(&unsat, &ineqs, &inst, &Substitution::new()));
            assert!(evaluate_bindings(&unsat, &ineqs, &inst, &Substitution::new()).is_empty());
        }
    }

    #[test]
    fn satisfiable_probes_agree_with_full_evaluation() {
        let inst = example_instance();
        let premise =
            vec![Atom::named("R", vec![t("x"), t("y")]), Atom::named("S", vec![t("u"), t("w")])];
        assert!(satisfiable(&premise, &[], &inst, &Substitution::new()));
        // Fully bound membership path.
        let init = Substitution::from_pairs(vec![(v("x"), t("a")), (v("y"), t("b"))]).unwrap();
        assert!(satisfiable(&[Atom::named("R", vec![t("x"), t("y")])], &[], &inst, &init));
        let bad = Substitution::from_pairs(vec![(v("x"), t("a")), (v("y"), t("c"))]).unwrap();
        assert!(!satisfiable(&[Atom::named("R", vec![t("x"), t("y")])], &[], &inst, &bad));
        // Repeated free variable within an atom.
        let mut inst2 = SymbolicInstance::new();
        inst2.insert_atom(&Atom::named("R", vec![t("a"), t("b")]));
        assert!(!satisfiable(
            &[Atom::named("R", vec![t("x"), t("x")])],
            &[],
            &inst2,
            &Substitution::new()
        ));
        inst2.insert_atom(&Atom::named("R", vec![t("c"), t("c")]));
        assert!(satisfiable(
            &[Atom::named("R", vec![t("x"), t("x")])],
            &[],
            &inst2,
            &Substitution::new()
        ));
    }
}
