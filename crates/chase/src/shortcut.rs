//! Short-cutting the chase (Section 3.2).
//!
//! For the TIX constraints `(refl)`, `(base)` and `(trans)` the outcome of the
//! chase is known up front: it adds to the query exactly the `desc` atoms of
//! the reflexive-transitive closure of the `child`/`desc` atoms. Instead of
//! performing `O(n²)` individual chase steps, MARS jumps directly to the
//! result by computing the closure with a standard adjacency-based algorithm.
//! In the paper's stress test this cuts the chase of `//a/b/.../j` with TIX
//! from 2.6 s to 640 ms.
//!
//! The closure is applied at the start of every chase round, and a resumed
//! back-chase adds a handful of edges to a `desc` relation that is already
//! closed. Each group therefore keeps a watermark ([`ClosureInputMark`]):
//! the row ids its `child`, `desc` and `el` relations had handed out when
//! its closure last held, and the branch's rewrite epoch. Relations change
//! only by appending rows, or by an EGD rewrite, which bumps the epoch.
//! While the epoch holds, the closure **extends from the watermark**: each
//! `child`/`desc` edge `(u, v)` appended since adds `desc(a, d)` for every
//! `a ∈ {u} ∪ {a : desc(a, u)}` and `d ∈ {v} ∪ {d : desc(v, d)}`, read off
//! the closed `desc` relation through its column indexes, and each new
//! `el(x)` adds `desc(x, x)`. The depth-first closure over every node runs
//! only on a group's first application and on the first after a rewrite,
//! which changes rows where they stand.
//!
//! The constraints are recognized through the GReX vocabulary
//! ([`Atom::navigation`]): every navigation predicate names its document
//! (`child#case.xml`), so closure constraints are detected and applied *per
//! document*, and a constraint over relations that merely share a base's
//! name is an ordinary dependency.

use crate::instance::SymbolicInstance;
use mars_cq::{Atom, Ded, FxHashMap, FxHashSet, NavBase, Predicate, Term};

/// The closure constraints of one document.
#[derive(Clone, Debug, PartialEq)]
pub struct ClosureGroup {
    /// Document the group's predicates refer to.
    pub document: String,
    /// Index of the `(base)` constraint (`child(x,y) → desc(x,y)`).
    pub base: Option<usize>,
    /// Index of the `(trans)` constraint.
    pub trans: Option<usize>,
    /// Index of the `(refl)` constraint (`el(x) → desc(x,x)`).
    pub refl: Option<usize>,
    /// The group's `child` / `desc` / `el` predicates, interned once at
    /// detection — the shortcut runs several times per back-chase and must
    /// not format names and take the interner's lock each time.
    child: Predicate,
    desc: Predicate,
    el: Predicate,
}

/// All closure constraints detected in a dependency set, grouped by document.
#[derive(Clone, Debug, Default)]
pub struct ClosureConstraints {
    /// Per-document groups.
    pub groups: Vec<ClosureGroup>,
}

impl ClosureGroup {
    fn new(document: &str) -> ClosureGroup {
        ClosureGroup {
            child: NavBase::Child.predicate(document),
            desc: NavBase::Desc.predicate(document),
            el: NavBase::El.predicate(document),
            document: document.to_string(),
            base: None,
            trans: None,
            refl: None,
        }
    }

    /// The `desc` predicate this group's shortcut inserts into — the only
    /// relation the shortcut ever changes.
    pub fn desc_pred(&self) -> Predicate {
        self.desc
    }

    /// Snapshot of this group's closure *inputs* on `inst`: the row ids the
    /// `child`/`desc`/`el` relations have handed out, plus the branch rewrite
    /// epoch. While the epoch is unchanged the relations have only grown by
    /// appending, so the rows past a mark are exactly those added since.
    fn input_mark(&self, inst: &SymbolicInstance, rewrites: u64) -> ClosureInputMark {
        ClosureInputMark {
            child: inst.row_bound(self.child),
            desc: inst.row_bound(self.desc),
            el: inst.row_bound(self.el),
            rewrites,
        }
    }
}

/// Per-group watermark of the closure shortcut's input relations (see
/// `ClosureGroup::input_mark`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosureInputMark {
    child: usize,
    desc: usize,
    el: usize,
    rewrites: u64,
}

impl ClosureConstraints {
    /// Indices of all detected closure constraints.
    pub fn indices(&self) -> Vec<usize> {
        self.groups.iter().flat_map(|g| [g.base, g.trans, g.refl]).flatten().collect()
    }

    /// The input marks of every group on an instance already at closure
    /// fixpoint — the state a resumed chase seeds its branches with, so the
    /// first rounds extend the closure by the atoms the resume inserts.
    pub fn marks_at_fixpoint(
        &self,
        inst: &SymbolicInstance,
        rewrites: u64,
    ) -> Vec<ClosureInputMark> {
        self.groups.iter().map(|g| g.input_mark(inst, rewrites)).collect()
    }

    /// Were any closure constraints detected?
    pub fn any(&self) -> bool {
        !self.groups.is_empty()
    }

    fn group_mut(&mut self, doc: &str) -> &mut ClosureGroup {
        if let Some(pos) = self.groups.iter().position(|g| g.document == doc) {
            &mut self.groups[pos]
        } else {
            self.groups.push(ClosureGroup::new(doc));
            self.groups.last_mut().expect("just pushed")
        }
    }
}

/// The document of `a` when it is a `base` navigation atom over variables
/// only.
fn over_vars(a: &Atom, base: NavBase) -> Option<&'static str> {
    match a.navigation() {
        Some((b, document)) if b == base && a.args.iter().all(Term::is_var) => Some(document),
        _ => None,
    }
}

/// The conclusion atom of a dependency with one conclusion of one atom and
/// no equalities.
fn sole_conclusion(d: &Ded) -> Option<&Atom> {
    match d.conclusions.as_slice() {
        [c] if c.atoms.len() == 1 && c.equalities.is_empty() => Some(&c.atoms[0]),
        _ => None,
    }
}

/// `child(x,y) → desc(x,y)` (same document on both sides).
fn match_base(d: &Ded) -> Option<&'static str> {
    let ([p], Some(q)) = (d.premise.as_slice(), sole_conclusion(d)) else { return None };
    let doc = over_vars(p, NavBase::Child)?;
    (over_vars(q, NavBase::Desc)? == doc && p.args == q.args).then_some(doc)
}

/// `desc(x,y) ∧ desc(y,z) → desc(x,z)`.
fn match_trans(d: &Ded) -> Option<&'static str> {
    let ([p1, p2], Some(q)) = (d.premise.as_slice(), sole_conclusion(d)) else { return None };
    let doc = over_vars(p1, NavBase::Desc)?;
    let same = over_vars(p2, NavBase::Desc)? == doc && over_vars(q, NavBase::Desc)? == doc;
    let chained = p1.args[1] == p2.args[0] && q.args[0] == p1.args[0] && q.args[1] == p2.args[1];
    (same && chained).then_some(doc)
}

/// `el(x) → desc(x,x)`.
fn match_refl(d: &Ded) -> Option<&'static str> {
    let ([p], Some(q)) = (d.premise.as_slice(), sole_conclusion(d)) else { return None };
    let doc = over_vars(p, NavBase::El)?;
    (over_vars(q, NavBase::Desc)? == doc && q.args == [p.args[0], p.args[0]]).then_some(doc)
}

/// Structurally detect the `(base)`, `(trans)` and `(refl)` constraints in a
/// dependency set, grouped by document. Detection is purely syntactic, so
/// user-supplied equivalents are recognized too.
pub fn detect_closure_constraints(deds: &[Ded]) -> ClosureConstraints {
    let mut out = ClosureConstraints::default();
    for (i, d) in deds.iter().enumerate() {
        if let Some(doc) = match_base(d) {
            let g = out.group_mut(doc);
            if g.base.is_none() {
                g.base = Some(i);
            }
        } else if let Some(doc) = match_trans(d) {
            let g = out.group_mut(doc);
            if g.trans.is_none() {
                g.trans = Some(i);
            }
        } else if let Some(doc) = match_refl(d) {
            let g = out.group_mut(doc);
            if g.refl.is_none() {
                g.refl = Some(i);
            }
        }
    }
    out
}

/// Apply the closure shortcut for one group: add `desc` atoms for every pair
/// of terms connected by a path of `child`/`desc` edges, and `desc(x,x)` for
/// every `el(x)` when `(refl)` is present. Returns the number of atoms added.
fn apply_group(inst: &mut SymbolicInstance, group: &ClosureGroup) -> usize {
    // Nodes in first-seen tuple order, so the order `desc` atoms are inserted
    // in does not depend on a hasher.
    let mut adjacency: FxHashMap<Term, Vec<Term>> = FxHashMap::default();
    let mut nodes: Vec<Term> = Vec::new();
    let mut edge = |from: Term, to: Term| {
        for n in [from, to] {
            adjacency.entry(n).or_insert_with(|| {
                nodes.push(n);
                Vec::new()
            });
        }
        adjacency.get_mut(&from).expect("both ends were just added").push(to);
    };
    if group.base.is_some() || group.trans.is_some() {
        for row in inst.rows(group.child) {
            edge(row[0], row[1]);
        }
    }
    for row in inst.rows(group.desc) {
        edge(row[0], row[1]);
    }

    let mut added = 0usize;
    if group.trans.is_some() || group.base.is_some() {
        let mut seen: FxHashSet<Term> = FxHashSet::default();
        for &start in &nodes {
            seen.clear();
            let mut stack: Vec<Term> = adjacency[&start].clone();
            while let Some(next) = stack.pop() {
                if !seen.insert(next) {
                    continue;
                }
                added += usize::from(inst.insert(group.desc, &[start, next]));
                if group.trans.is_some() {
                    stack.extend(adjacency[&next].iter().copied());
                }
            }
        }
    }
    if group.refl.is_some() {
        let els: Vec<Term> = inst.rows(group.el).map(|row| row[0]).collect();
        for e in els {
            added += usize::from(inst.insert(group.desc, &[e, e]));
        }
    }
    added
}

/// Extend one group's closure from its watermark `mark`, taken in the
/// current rewrite epoch: `desc` is closed over the rows below the mark, so
/// each `child`/`desc` edge `(u, v)` appended since adds `desc(a, d)` for
/// every `a` in `u` and its `desc` ancestors and `d` in `v` and its `desc`
/// descendants, read off `desc` as it grows, and each new `el(x)` adds
/// `desc(x, x)`. Without `(trans)` a new `child` edge only becomes a `desc`
/// atom itself. Returns the number of atoms added.
fn extend_group(
    inst: &mut SymbolicInstance,
    group: &ClosureGroup,
    mark: &ClosureInputMark,
) -> usize {
    let mut added = 0;
    if group.base.is_some() || group.trans.is_some() {
        let mut edges: Vec<(Term, Term)> =
            inst.rows_from(group.child, mark.child).map(|row| (row[0], row[1])).collect();
        let child_edges = edges.len();
        if group.trans.is_some() {
            edges.extend(inst.rows_from(group.desc, mark.desc).map(|row| (row[0], row[1])));
        }
        let (mut above, mut below) = (Vec::new(), Vec::new());
        for (k, &(u, v)) in edges.iter().enumerate() {
            // A `child` edge `desc` already holds adds nothing: the closure
            // is closed over it, or it is a new `desc` edge still to come.
            if k < child_edges && inst.contains(group.desc, &[u, v]) {
                continue;
            }
            above.clear();
            below.clear();
            above.push(u);
            below.push(v);
            if let Some(desc) = inst.relation_data(group.desc).filter(|_| group.trans.is_some()) {
                desc.any_with_key(&[1], &[u], |row| {
                    if row[0] != u {
                        above.push(row[0]);
                    }
                    false
                });
                desc.any_with_key(&[0], &[v], |row| {
                    if row[1] != v {
                        below.push(row[1]);
                    }
                    false
                });
            }
            for &a in &above {
                for &d in &below {
                    added += usize::from(inst.insert(group.desc, &[a, d]));
                }
            }
        }
    }
    if group.refl.is_some() {
        let els: Vec<Term> = inst.rows_from(group.el, mark.el).map(|row| row[0]).collect();
        for e in els {
            added += usize::from(inst.insert(group.desc, &[e, e]));
        }
    }
    added
}

/// Apply the closure shortcut for every detected group, returning the total
/// number of `desc` atoms added. A group whose watermark in `marks` was
/// taken in the current rewrite epoch extends its closure by the rows
/// appended since (nothing at all when no input grew); any other group — on
/// its first application, or after an EGD rewrite changed rows where they
/// stand — is closed from scratch by the depth-first `apply_group`. `marks`
/// is updated in place to the post-application state; an empty vector means
/// "unknown".
pub fn apply_closure_watermarked(
    inst: &mut SymbolicInstance,
    closure: &ClosureConstraints,
    marks: &mut Vec<ClosureInputMark>,
    rewrites: u64,
) -> usize {
    let known = marks.len() == closure.groups.len();
    let mut added = 0;
    for (gi, g) in closure.groups.iter().enumerate() {
        added += match marks.get(gi) {
            Some(mark) if known && mark.rewrites == rewrites => extend_group(inst, g, mark),
            _ => apply_group(inst, g),
        };
    }
    *marks = closure.groups.iter().map(|g| g.input_mark(inst, rewrites)).collect();
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{Conjunct, ConjunctiveQuery, Substitution, Variable};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    /// The full (unmarked) application of every group.
    fn apply_closure(inst: &mut SymbolicInstance, closure: &ClosureConstraints) -> usize {
        closure.groups.iter().map(|g| apply_group(inst, g)).sum()
    }

    fn tix_core() -> Vec<Ded> {
        vec![
            Ded::tgd("base", vec![child(t("x"), t("y"))], vec![], vec![desc(t("x"), t("y"))]),
            Ded::tgd(
                "trans",
                vec![desc(t("x"), t("y")), desc(t("y"), t("z"))],
                vec![],
                vec![desc(t("x"), t("z"))],
            ),
            Ded::tgd("refl", vec![el(t("x"))], vec![], vec![desc(t("x"), t("x"))]),
        ]
    }

    fn doc_atom(base: &str, doc: &str, args: Vec<Term>) -> Atom {
        Atom::named(&format!("{base}#{doc}"), args)
    }

    /// The three constraints of one document form one group; the same
    /// shapes over relations that merely share the bases' names (no
    /// document) are ordinary dependencies.
    #[test]
    fn detection_finds_all_three() {
        let c = detect_closure_constraints(&tix_core());
        assert!(c.any());
        assert_eq!(c.groups.len(), 1);
        let g = &c.groups[0];
        assert_eq!(g.document, DOCUMENT);
        assert_eq!((g.base, g.trans, g.refl), (Some(0), Some(1), Some(2)));
        assert_eq!(c.indices().len(), 3);

        let bare = |a: &Atom| Atom::named(a.navigation().unwrap().0.name(), a.args.clone());
        let unsuffixed: Vec<Ded> = tix_core()
            .into_iter()
            .map(|d| {
                let conclusion = d.conclusions[0].atoms.iter().map(bare).collect();
                Ded::tgd(&d.name, d.premise.iter().map(bare).collect(), vec![], conclusion)
            })
            .collect();
        assert!(!detect_closure_constraints(&unsuffixed).any());
    }

    #[test]
    fn detection_groups_by_document() {
        let mut deds = Vec::new();
        for doc in ["a.xml", "b.xml"] {
            deds.push(Ded::tgd(
                &format!("base#{doc}"),
                vec![doc_atom("child", doc, vec![t("x"), t("y")])],
                vec![],
                vec![doc_atom("desc", doc, vec![t("x"), t("y")])],
            ));
            deds.push(Ded::tgd(
                &format!("trans#{doc}"),
                vec![
                    doc_atom("desc", doc, vec![t("x"), t("y")]),
                    doc_atom("desc", doc, vec![t("y"), t("z")]),
                ],
                vec![],
                vec![doc_atom("desc", doc, vec![t("x"), t("z")])],
            ));
        }
        let c = detect_closure_constraints(&deds);
        assert_eq!(c.groups.len(), 2);
        assert_eq!(c.indices().len(), 4);
    }

    #[test]
    fn detection_rejects_lookalikes_and_cross_document_mixtures() {
        let bogus = Ded::tgd(
            "nottrans",
            vec![desc(t("x"), t("y")), desc(t("y"), t("z"))],
            vec![],
            vec![desc(t("z"), t("x"))],
        );
        let disj = Ded::disjunctive(
            "notbase",
            vec![child(t("x"), t("y"))],
            vec![Conjunct::atoms(vec![desc(t("x"), t("y"))]), Conjunct::atoms(vec![el(t("x"))])],
        );
        // child of one document implying desc of another is NOT (base).
        let cross = Ded::tgd(
            "cross",
            vec![doc_atom("child", "a.xml", vec![t("x"), t("y")])],
            vec![],
            vec![doc_atom("desc", "b.xml", vec![t("x"), t("y")])],
        );
        let c = detect_closure_constraints(&[bogus, disj, cross]);
        assert!(!c.any());
    }

    #[test]
    fn closure_on_chain_matches_expected_count() {
        // chain of n child atoms ⇒ n(n+1)/2 desc atoms (paper, Section 3.2).
        let n = 6;
        let mut body = vec![root(t("x1"))];
        for i in 1..=n {
            body.push(child(t(&format!("x{i}")), t(&format!("x{}", i + 1))));
        }
        let q = ConjunctiveQuery::new("chain").with_body(body);
        let mut inst = SymbolicInstance::from_query(&q);
        let closure = detect_closure_constraints(&tix_core());
        let added = apply_closure(&mut inst, &closure);
        assert_eq!(added, n * (n + 1) / 2);
    }

    #[test]
    fn closure_is_applied_per_document() {
        let mut deds = Vec::new();
        for doc in ["a.xml", "b.xml"] {
            deds.push(Ded::tgd(
                &format!("base#{doc}"),
                vec![doc_atom("child", doc, vec![t("x"), t("y")])],
                vec![],
                vec![doc_atom("desc", doc, vec![t("x"), t("y")])],
            ));
            deds.push(Ded::tgd(
                &format!("trans#{doc}"),
                vec![
                    doc_atom("desc", doc, vec![t("x"), t("y")]),
                    doc_atom("desc", doc, vec![t("y"), t("z")]),
                ],
                vec![],
                vec![doc_atom("desc", doc, vec![t("x"), t("z")])],
            ));
        }
        let q = ConjunctiveQuery::new("two_docs").with_body(vec![
            doc_atom("child", "a.xml", vec![t("p"), t("q")]),
            doc_atom("child", "a.xml", vec![t("q"), t("r")]),
            doc_atom("child", "b.xml", vec![t("u"), t("v")]),
        ]);
        let mut inst = SymbolicInstance::from_query(&q);
        let closure = detect_closure_constraints(&deds);
        let added = apply_closure(&mut inst, &closure);
        // a.xml: pairs (p,q),(q,r),(p,r) = 3; b.xml: (u,v) = 1.
        assert_eq!(added, 4);
        assert!(inst.contains_atom(&doc_atom("desc", "a.xml", vec![t("p"), t("r")])));
        assert!(!inst.contains_atom(&doc_atom("desc", "b.xml", vec![t("p"), t("r")])));
    }

    #[test]
    fn refl_only_applies_to_el_nodes() {
        let q = ConjunctiveQuery::new("els").with_body(vec![el(t("e")), child(t("e"), t("f"))]);
        let mut inst = SymbolicInstance::from_query(&q);
        let closure = detect_closure_constraints(&tix_core());
        apply_closure(&mut inst, &closure);
        assert!(inst.contains_atom(&desc(t("e"), t("e"))));
        assert!(!inst.contains_atom(&desc(t("f"), t("f"))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Extending from the watermark closes `desc` to the set the
        /// depth-first closure computes from scratch, after every batch of
        /// appended `child` / `desc` / `el` facts — with an EGD rename
        /// between batches or not, for every subset of the three
        /// constraints — and `desc` never holds a duplicate.
        #[test]
        fn the_watermark_closure_is_the_closure_from_scratch(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
            let present = 1 + pick(7);
            let deds: Vec<Ded> = tix_core()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| present & (1 << i) != 0)
                .map(|(_, d)| d)
                .collect();
            let closure = detect_closure_constraints(&deds);
            let desc_p = closure.groups[0].desc_pred();
            let nodes = 2 + pick(11);
            let node = |i: usize| Term::Var(Variable::with_index("n", i as u32));
            let mut inst = SymbolicInstance::new();
            let mut facts: Vec<Atom> = Vec::new();
            let (mut marks, mut rewrites) = (Vec::new(), 0u64);
            for batch in 0..2 + pick(3) {
                if batch > 0 && pick(3) == 0 {
                    let (from, to) = (pick(nodes), pick(nodes));
                    if from != to {
                        let mut s = Substitution::new();
                        s.set(Variable::with_index("n", from as u32), node(to));
                        inst.apply_substitution(&s);
                        facts = facts.iter().map(|a| s.apply_atom(a)).collect();
                        rewrites += 1;
                    }
                }
                for _ in 0..1 + pick(6) {
                    let (x, y) = (node(pick(nodes)), node(pick(nodes)));
                    let fact = [child(x, y), desc(x, y), el(x)][pick(3)].clone();
                    inst.insert_atom(&fact);
                    facts.push(fact);
                }
                apply_closure_watermarked(&mut inst, &closure, &mut marks, rewrites);
                let mut scratch = SymbolicInstance::from_query(
                    &ConjunctiveQuery::new("facts").with_body(facts.clone()),
                );
                apply_closure(&mut scratch, &closure);
                let rows: Vec<&[Term]> = inst.rows(desc_p).collect();
                let set: HashSet<&[Term]> = rows.iter().copied().collect();
                prop_assert_eq!(set.len(), rows.len(), "desc holds no duplicate");
                prop_assert_eq!(set, scratch.rows(desc_p).collect::<HashSet<_>>(), "batch {}", batch);
            }
        }
    }

    #[test]
    fn no_closure_constraints_means_no_change() {
        let q = ConjunctiveQuery::new("q").with_body(vec![child(t("a"), t("b"))]);
        let mut inst = SymbolicInstance::from_query(&q);
        let added = apply_closure(&mut inst, &ClosureConstraints::default());
        assert_eq!(added, 0);
        assert_eq!(inst.len(), 1);
    }
}
