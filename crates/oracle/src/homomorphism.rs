//! Homomorphism search.
//!
//! A chase step of a query `Q` with a constraint `c` applies if there is a
//! homomorphism `h` from the premise of `c` into the body of `Q` that cannot
//! be extended to the conclusion of `c` (Section 3.1). This module provides a
//! direct backtracking implementation used by the naive chase and by the
//! containment checks; the scalable join-tree evaluation lives in
//! `mars-chase`.

use mars_cq::{Atom, Conjunct, Predicate, Substitution, Term, Variable};
use std::collections::HashMap;

/// A per-predicate index over a set of target atoms, to avoid scanning the
/// whole target body for every candidate source atom.
#[derive(Clone, Debug, Default)]
pub struct AtomIndex {
    by_pred: HashMap<Predicate, Vec<usize>>,
    atoms: Vec<Atom>,
}

impl AtomIndex {
    /// Build an index over the given atoms.
    pub fn new(atoms: &[Atom]) -> AtomIndex {
        AtomIndex::from_atoms(atoms.to_vec())
    }

    /// Build an index taking ownership of the atoms (no clone — the form the
    /// backchase uses when it assembles target atom lists straight from
    /// resident chase branches).
    pub fn from_atoms(atoms: Vec<Atom>) -> AtomIndex {
        let mut by_pred: HashMap<Predicate, Vec<usize>> = HashMap::new();
        for (i, a) in atoms.iter().enumerate() {
            by_pred.entry(a.predicate).or_default().push(i);
        }
        AtomIndex { by_pred, atoms }
    }

    /// All atoms in the index.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Candidate target atoms for a given predicate, ascending. A predicate
    /// with no bucket yields the shared empty slice — no allocation on the
    /// miss path (the homomorphism search hits it for every source predicate
    /// absent from the target).
    pub fn candidates(&self, p: Predicate) -> &[usize] {
        self.by_pred.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Add an atom to the index (used when a chase step extends the target).
    pub fn push(&mut self, atom: Atom) {
        let i = self.atoms.len();
        self.by_pred.entry(atom.predicate).or_default().push(i);
        self.atoms.push(atom);
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Does the index contain the exact (ground or variable-identical) atom?
    pub fn contains_exact(&self, atom: &Atom) -> bool {
        self.candidates(atom.predicate).iter().any(|&i| &self.atoms[i] == atom)
    }
}

/// Undo every binding made after `mark` was taken from the trail.
fn unwind(sub: &mut Substitution, trail: &mut Vec<Variable>, mark: usize) {
    while trail.len() > mark {
        let v = trail.pop().expect("trail entries above mark");
        sub.remove(v);
    }
}

/// Try to match `source` against `target_atom` by extending `sub` **in
/// place**; newly bound variables are pushed onto `trail`. Source constants
/// must equal target terms exactly; source variables bind to whatever target
/// term occupies the same position. On a mismatch the bindings this call made
/// are already undone when it returns `false`.
fn match_atom_in_place(
    source: &Atom,
    target_atom: &Atom,
    sub: &mut Substitution,
    trail: &mut Vec<Variable>,
) -> bool {
    if source.predicate != target_atom.predicate || source.arity() != target_atom.arity() {
        return false;
    }
    let mark = trail.len();
    for (s, t) in source.args.iter().zip(target_atom.args.iter()) {
        let ok = match s {
            Term::Const(_) => s == t,
            Term::Var(v) => match sub.get(*v) {
                Some(image) => image == *t,
                None => {
                    sub.set(*v, *t);
                    trail.push(*v);
                    true
                }
            },
        };
        if !ok {
            unwind(sub, trail, mark);
            return false;
        }
    }
    true
}

/// Order the source atoms for the backtracking search: greedily pick, at each
/// step, the atom with the fewest *unbound* variable arguments (its constants
/// and already-bound variables prune candidate matches), breaking ties by the
/// number of candidate target atoms for its predicate. The set of
/// homomorphisms is independent of the order, but a join-aware order avoids
/// the exponential backtracking that body order can hit on universal plans
/// (dozens of same-predicate navigation atoms).
fn plan_order(source: &[Atom], target: &AtomIndex, initial: &Substitution) -> Vec<usize> {
    let n = source.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let mut bound: std::collections::HashSet<Variable> = initial.iter().map(|(v, _)| v).collect();
    let mut order = Vec::with_capacity(n);
    let mut used = vec![false; n];
    for _ in 0..n {
        let mut best: Option<(usize, usize, usize)> = None; // (unbound, candidates, idx)
        for (i, a) in source.iter().enumerate() {
            if used[i] {
                continue;
            }
            let unbound =
                a.args.iter().filter(|t| matches!(t, Term::Var(v) if !bound.contains(v))).count();
            let cands = target.candidates(a.predicate).len();
            let key = (unbound, cands, i);
            if best.map(|b| key < b).unwrap_or(true) {
                best = Some(key);
            }
        }
        let (_, _, i) = best.expect("unused atom remains");
        used[i] = true;
        bound.extend(source[i].variables());
        order.push(i);
    }
    order
}

/// The immutable context of one backtracking search. The mutable state — a
/// **single** substitution extended in place plus the undo trail — travels as
/// `&mut` through the recursion: no per-node substitution clone is made, only
/// one clone per *reported* homomorphism.
struct SearchCtx<'a> {
    source: &'a [Atom],
    order: &'a [usize],
    target: &'a AtomIndex,
    limit: Option<usize>,
}

fn search(
    ctx: &SearchCtx<'_>,
    pos: usize,
    sub: &mut Substitution,
    trail: &mut Vec<Variable>,
    all: &mut Option<&mut Vec<Substitution>>,
    found_one: &mut Option<Substitution>,
) -> bool {
    if pos == ctx.source.len() {
        match all {
            Some(v) => {
                v.push(sub.clone());
                matches!(ctx.limit, Some(lim) if v.len() >= lim)
            }
            None => {
                *found_one = Some(sub.clone());
                true
            }
        }
    } else {
        let atom = &ctx.source[ctx.order[pos]];
        let mark = trail.len();
        for &i in ctx.target.candidates(atom.predicate) {
            if match_atom_in_place(atom, &ctx.target.atoms()[i], sub, trail) {
                let stop = search(ctx, pos + 1, sub, trail, all, found_one);
                unwind(sub, trail, mark);
                if stop {
                    return true;
                }
            }
        }
        false
    }
}

/// Shared driver behind the public entry points.
fn run_search(
    source: &[Atom],
    target: &AtomIndex,
    initial: &Substitution,
    mut all: Option<&mut Vec<Substitution>>,
    limit: Option<usize>,
) -> Option<Substitution> {
    let order = plan_order(source, target, initial);
    let ctx = SearchCtx { source, order: &order, target, limit };
    let mut sub = initial.clone();
    let mut trail: Vec<Variable> = Vec::new();
    let mut found_one = None;
    search(&ctx, 0, &mut sub, &mut trail, &mut all, &mut found_one);
    found_one
}

/// Find one homomorphism from `source` atoms into the indexed `target`,
/// extending the partial substitution `initial`.
pub fn find_homomorphism(
    source: &[Atom],
    target: &AtomIndex,
    initial: &Substitution,
) -> Option<Substitution> {
    run_search(source, target, initial, None, None)
}

/// Find all homomorphisms from `source` into `target` extending `initial`.
/// `limit` optionally caps the number of results. The enumeration extends a
/// single substitution in place (undo trail), cloning once per solution.
pub fn find_all_homomorphisms(
    source: &[Atom],
    target: &AtomIndex,
    initial: &Substitution,
    limit: Option<usize>,
) -> Vec<Substitution> {
    let mut out = Vec::new();
    run_search(source, target, initial, Some(&mut out), limit);
    out
}

/// Check whether the homomorphism `h` (from a DED premise into `target`)
/// extends to the given conclusion conjunct: there must exist a mapping of the
/// conjunct's existential variables into target terms such that all conclusion
/// atoms (under `h` + that mapping) are in `target` and all conclusion
/// equalities hold.
pub fn extend_to_conclusion(conjunct: &Conjunct, h: &Substitution, target: &AtomIndex) -> bool {
    // Work with the *unapplied* conclusion and carry `h` as the initial
    // (partial) substitution: premise variables are rigidly bound to their
    // images while genuinely existential conclusion variables stay free and
    // may be matched against any target term. (Applying `h` first and then
    // searching would wrongly treat target variables appearing in the image
    // as re-bindable.)
    let mut init = h.clone();

    // Equalities either resolve immediately (both sides premise-bound), force
    // a binding for a still-free existential variable, or fail the extension.
    for (a, b) in &conjunct.equalities {
        let ia = init.apply_term_deep(*a);
        let ib = init.apply_term_deep(*b);
        if ia == ib {
            continue;
        }
        if let Term::Var(v) = ia {
            if a.as_var() == Some(v) && !init.binds(v) {
                init.set(v, ib);
                continue;
            }
        }
        if let Term::Var(v) = ib {
            if b.as_var() == Some(v) && !init.binds(v) {
                init.set(v, ia);
                continue;
            }
        }
        return false;
    }

    if conjunct.atoms.is_empty() {
        return true;
    }
    find_homomorphism(&conjunct.atoms, target, &init).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;

    fn t(n: &str) -> Term {
        Term::var(n)
    }
    fn v(n: &str) -> Variable {
        Variable::named(n)
    }

    /// The running example of Section 3.1 (Example 3.1):
    /// Q(a,g) :- R(a,b), R(b,c), R(c,d), S(d,e), S(e,f), S(f,g)
    fn example_target() -> AtomIndex {
        AtomIndex::new(&[
            Atom::named("R", vec![t("a"), t("b")]),
            Atom::named("R", vec![t("b"), t("c")]),
            Atom::named("R", vec![t("c"), t("d")]),
            Atom::named("S", vec![t("d"), t("e")]),
            Atom::named("S", vec![t("e"), t("f")]),
            Atom::named("S", vec![t("f"), t("g")]),
        ])
    }

    #[test]
    fn example_3_1_homomorphism_found() {
        // premise of (c): R(x,y), R(y,z), S(z,u), S(u,v)
        let premise = vec![
            Atom::named("R", vec![t("x"), t("y")]),
            Atom::named("R", vec![t("y"), t("z")]),
            Atom::named("S", vec![t("z"), t("u")]),
            Atom::named("S", vec![t("u"), t("v")]),
        ];
        let target = example_target();
        let h = find_homomorphism(&premise, &target, &Substitution::new()).unwrap();
        // The only homomorphism is {x↦b, y↦c, z↦d, u↦e, v↦f}.
        assert_eq!(h.get(v("x")), Some(t("b")));
        assert_eq!(h.get(v("y")), Some(t("c")));
        assert_eq!(h.get(v("z")), Some(t("d")));
        assert_eq!(h.get(v("u")), Some(t("e")));
        assert_eq!(h.get(v("v")), Some(t("f")));
        let all = find_all_homomorphisms(&premise, &target, &Substitution::new(), None);
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn no_homomorphism_when_pattern_absent() {
        let premise = vec![Atom::named("T", vec![t("x")])];
        let target = example_target();
        assert!(find_homomorphism(&premise, &target, &Substitution::new()).is_none());
    }

    #[test]
    fn constants_must_match_exactly() {
        let target = AtomIndex::new(&[tag(t("n"), "author"), tag(t("m"), "title")]);
        let src_ok = vec![tag(t("x"), "author")];
        let src_bad = vec![tag(t("x"), "publisher")];
        assert!(find_homomorphism(&src_ok, &target, &Substitution::new()).is_some());
        assert!(find_homomorphism(&src_bad, &target, &Substitution::new()).is_none());
    }

    #[test]
    fn repeated_variables_force_equal_images() {
        // source: R(x,x) — target has R(a,b) and R(c,c)
        let target = AtomIndex::new(&[
            Atom::named("R", vec![t("a"), t("b")]),
            Atom::named("R", vec![t("c"), t("c")]),
        ]);
        let src = vec![Atom::named("R", vec![t("x"), t("x")])];
        let all = find_all_homomorphisms(&src, &target, &Substitution::new(), None);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].get(v("x")), Some(t("c")));
    }

    #[test]
    fn initial_bindings_are_respected() {
        let target = example_target();
        let src = vec![Atom::named("R", vec![t("x"), t("y")])];
        let init = Substitution::from_pairs(vec![(v("x"), t("b"))]).unwrap();
        let all = find_all_homomorphisms(&src, &target, &init, None);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].get(v("y")), Some(t("c")));
    }

    #[test]
    fn all_homomorphisms_counted() {
        // chain child(x1,x2), child(x2,x3) into a path of 4 nodes has 2 homs
        let target = AtomIndex::new(&[
            child(t("n1"), t("n2")),
            child(t("n2"), t("n3")),
            child(t("n3"), t("n4")),
        ]);
        let src = vec![child(t("x"), t("y")), child(t("y"), t("z"))];
        let all = find_all_homomorphisms(&src, &target, &Substitution::new(), None);
        assert_eq!(all.len(), 2);
        let limited = find_all_homomorphisms(&src, &target, &Substitution::new(), Some(1));
        assert_eq!(limited.len(), 1);
    }

    #[test]
    fn extension_check_blocks_applied_steps() {
        // After adding T(b,f), the constraint premise still maps but now
        // extends to the conclusion, so the step no longer applies.
        let mut target = example_target();
        let conclusion = Conjunct::atoms(vec![Atom::named("T", vec![t("x"), t("v")])]);
        let premise = vec![
            Atom::named("R", vec![t("x"), t("y")]),
            Atom::named("R", vec![t("y"), t("z")]),
            Atom::named("S", vec![t("z"), t("u")]),
            Atom::named("S", vec![t("u"), t("v")]),
        ];
        let h = find_homomorphism(&premise, &target, &Substitution::new()).unwrap();
        assert!(!extend_to_conclusion(&conclusion, &h, &target));
        target.push(Atom::named("T", vec![t("b"), t("f")]));
        assert!(extend_to_conclusion(&conclusion, &h, &target));
    }

    #[test]
    fn extension_with_existential_variable() {
        // ind: A(x,y) → ∃z B(y,z); target has A(a,b) and B(b,c): extension holds.
        let target = AtomIndex::new(&[
            Atom::named("A", vec![t("a"), t("b")]),
            Atom::named("B", vec![t("b"), t("c")]),
        ]);
        let premise = vec![Atom::named("A", vec![t("x"), t("y")])];
        let conclusion =
            Conjunct::atoms(vec![Atom::named("B", vec![t("y"), t("z")])]).with_exists(vec![v("z")]);
        let h = find_homomorphism(&premise, &target, &Substitution::new()).unwrap();
        assert!(extend_to_conclusion(&conclusion, &h, &target));

        // Without any B fact, it does not extend.
        let target2 = AtomIndex::new(&[Atom::named("A", vec![t("a"), t("b")])]);
        let h2 = find_homomorphism(&premise, &target2, &Substitution::new()).unwrap();
        assert!(!extend_to_conclusion(&conclusion, &h2, &target2));
    }

    #[test]
    fn extension_with_equality_conclusion() {
        // key EGD: R(k,a) ∧ R(k,b) → a = b
        let target = AtomIndex::new(&[
            Atom::named("R", vec![t("k"), t("x")]),
            Atom::named("R", vec![t("k"), t("y")]),
        ]);
        let premise =
            vec![Atom::named("R", vec![t("p"), t("q")]), Atom::named("R", vec![t("p"), t("r")])];
        let conclusion = Conjunct::equalities(vec![(t("q"), t("r"))]);
        // There is a homomorphism mapping q,r to distinct x,y: it does NOT
        // satisfy the equality, so the EGD step applies for that mapping.
        let all = find_all_homomorphisms(&premise, &target, &Substitution::new(), None);
        assert!(all.iter().any(|h| !extend_to_conclusion(&conclusion, h, &target)));
        // And there are also homomorphisms mapping q=r (both to x), which do satisfy it.
        assert!(all.iter().any(|h| extend_to_conclusion(&conclusion, h, &target)));
    }

    #[test]
    fn atom_index_operations() {
        let mut idx = AtomIndex::new(&[child(t("a"), t("b"))]);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        assert!(idx.contains_exact(&child(t("a"), t("b"))));
        assert!(!idx.contains_exact(&child(t("b"), t("a"))));
        idx.push(desc(t("a"), t("b")));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.candidates(Predicate::new("desc#d.xml")).len(), 1);
        assert!(idx.candidates(Predicate::new("tag#d.xml")).is_empty());
    }
}
