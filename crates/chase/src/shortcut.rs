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
//! Each group is one more slot of the chase's dirty flags
//! ([`crate::compiled::DedIndex`]), keyed on the relations its closure
//! reads (`ClosureGroup::inputs`). An insert into one of them, an EGD
//! rewrite of one, or a resumed back-chase inserting into one marks the
//! slot, and the chase re-closes a marked group with the depth-first
//! [`ClosureGroup::close`] at the start of its next round. A group whose
//! inputs did not change is skipped.
//!
//! The constraints are recognized through the GReX vocabulary
//! ([`Atom::navigation`]): every navigation predicate names its document
//! (`child#case.xml`), so closure constraints are detected and applied *per
//! document*, and a constraint over relations that merely share a base's
//! name is an ordinary dependency.

use crate::instance::SymbolicInstance;
use mars_cq::{Atom, Ded, FxHashMap, NavBase, Predicate, Term};

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

    /// The relations [`ClosureGroup::close`] reads: `child` under `(base)`,
    /// `desc` under `(trans)`, `el` under `(refl)`. The group's closure can
    /// change only when one of them does.
    pub(crate) fn inputs(&self) -> impl Iterator<Item = Predicate> {
        [(self.child, self.base), (self.desc, self.trans), (self.el, self.refl)]
            .into_iter()
            .filter_map(|(p, constraint)| constraint.map(|_| p))
    }

    /// Apply the closure shortcut: add `desc` atoms for every pair of terms
    /// connected by a path of `child` edges (under `(base)`) and `desc`
    /// edges (under `(trans)`), one edge long without `(trans)`, and
    /// `desc(x,x)` for every `el(x)` under `(refl)`. Returns the number of
    /// atoms added.
    pub fn close(&self, inst: &mut SymbolicInstance) -> usize {
        // Nodes numbered in first-seen tuple order, so the order `desc`
        // atoms are inserted in does not depend on a hasher.
        let mut number: FxHashMap<Term, usize> = FxHashMap::default();
        let mut nodes: Vec<Term> = Vec::new();
        let mut adjacency: Vec<Vec<usize>> = Vec::new();
        let mut edge = |from: Term, to: Term| {
            let [from, to] = [from, to].map(|n| {
                *number.entry(n).or_insert_with(|| {
                    nodes.push(n);
                    adjacency.push(Vec::new());
                    nodes.len() - 1
                })
            });
            adjacency[from].push(to);
        };
        if self.base.is_some() {
            for row in inst.rows(self.child) {
                edge(row[0], row[1]);
            }
        }
        if self.trans.is_some() {
            for row in inst.rows(self.desc) {
                edge(row[0], row[1]);
            }
        }

        let mut added = 0usize;
        // `seen[v] == s`: node `v` was already reached from node `s`.
        let mut seen = vec![usize::MAX; nodes.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (s, &start) in nodes.iter().enumerate() {
            stack.extend(&adjacency[s]);
            while let Some(v) = stack.pop() {
                if seen[v] == s {
                    continue;
                }
                seen[v] = s;
                added += usize::from(inst.insert(self.desc, &[start, nodes[v]]));
                if self.trans.is_some() {
                    stack.extend(&adjacency[v]);
                }
            }
        }
        if self.refl.is_some() {
            let els: Vec<Term> = inst.rows(self.el).map(|row| row[0]).collect();
            for e in els {
                added += usize::from(inst.insert(self.desc, &[e, e]));
            }
        }
        added
    }
}

impl ClosureConstraints {
    /// Indices of all detected closure constraints.
    pub fn indices(&self) -> Vec<usize> {
        self.groups.iter().flat_map(|g| [g.base, g.trans, g.refl]).flatten().collect()
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
    (over_vars(q, NavBase::Desc)? == doc && *q.args == [p.args[0], p.args[0]]).then_some(doc)
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

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::atom::builders::*;
    use mars_cq::{Conjunct, ConjunctiveQuery};

    fn t(n: &str) -> Term {
        Term::var(n)
    }

    /// The closure of every group.
    fn apply_closure(inst: &mut SymbolicInstance, closure: &ClosureConstraints) -> usize {
        closure.groups.iter().map(|g| g.close(inst)).sum()
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
        assert!(!c.groups.is_empty());
        assert_eq!(c.groups.len(), 1);
        let g = &c.groups[0];
        assert_eq!(g.document, DOCUMENT);
        assert_eq!((g.base, g.trans, g.refl), (Some(0), Some(1), Some(2)));
        assert_eq!(c.indices().len(), 3);

        let bare = |a: &Atom| Atom::named(a.navigation().unwrap().0.name(), a.args.to_vec());
        let unsuffixed: Vec<Ded> = tix_core()
            .into_iter()
            .map(|d| {
                let conclusion = d.conclusions[0].atoms.iter().map(bare).collect();
                Ded::tgd(&d.name, d.premise.iter().map(bare).collect(), vec![], conclusion)
            })
            .collect();
        assert!(detect_closure_constraints(&unsuffixed).groups.is_empty());
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
        assert!(c.groups.is_empty());
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

    /// Without `(base)`, a `child` edge is no `desc` edge: `(trans)` alone
    /// closes `desc` over its own edges.
    #[test]
    fn trans_alone_closes_desc_only() {
        let q = ConjunctiveQuery::new("q").with_body(vec![
            child(t("a"), t("b")),
            desc(t("b"), t("c")),
            desc(t("c"), t("d")),
        ]);
        let mut inst = SymbolicInstance::from_query(&q);
        let closure = detect_closure_constraints(&tix_core()[1..2]);
        assert_eq!(apply_closure(&mut inst, &closure), 1);
        assert!(inst.contains_atom(&desc(t("b"), t("d"))));
        assert!(!inst.contains_atom(&desc(t("a"), t("b"))));
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
