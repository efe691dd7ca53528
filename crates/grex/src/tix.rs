//! TIX — the built-in constraints that are True In XML (Section 2.2).
//!
//! The GReX relations are not independent: `desc` is the reflexive-transitive
//! closure of `child`, every element has at most one tag, all ancestors of an
//! element lie on one root-leaf path, and so on. TIX captures these facts as
//! DEDs; they are added to every reformulation problem, once per document.

use crate::schema::GrexSchema;
use mars_cq::{Conjunct, Ded, NavBase, Term, Variable};

fn t(n: &str) -> Term {
    Term::var(n)
}
fn v(n: &str) -> Variable {
    Variable::named(n)
}

/// The TIX constraints for one document's GReX encoding (13 constraints, as in
/// the paper).
pub fn tix_constraints(schema: &GrexSchema) -> Vec<Ded> {
    let d = &schema.document;
    let name = |base: &str| format!("TIX.{base}#{d}");
    let tag = |x, tag| mars_cq::Atom::new(schema.predicate(NavBase::Tag), vec![t(x), t(tag)]);
    vec![
        // (base)  child ⊆ desc
        Ded::tgd(
            &name("base"),
            vec![schema.child_atom(t("x"), t("y"))],
            vec![],
            vec![schema.desc_atom(t("x"), t("y"))],
        ),
        // (trans) desc is transitive
        Ded::tgd(
            &name("trans"),
            vec![schema.desc_atom(t("x"), t("y")), schema.desc_atom(t("y"), t("z"))],
            vec![],
            vec![schema.desc_atom(t("x"), t("z"))],
        ),
        // (refl)  desc is reflexive on element nodes
        Ded::tgd(
            &name("refl"),
            vec![schema.el_atom(t("x"))],
            vec![],
            vec![schema.desc_atom(t("x"), t("x"))],
        ),
        // (line)  all ancestors of an element are on the same root-leaf path
        Ded::disjunctive(
            &name("line"),
            vec![schema.desc_atom(t("x"), t("u")), schema.desc_atom(t("y"), t("u"))],
            vec![
                Conjunct::equalities(vec![(t("x"), t("y"))]),
                Conjunct::atoms(vec![schema.desc_atom(t("x"), t("y"))]),
                Conjunct::atoms(vec![schema.desc_atom(t("y"), t("x"))]),
            ],
        ),
        // Keys: an element has at most one tag / text / identity, and at most
        // one value per attribute name.
        Ded::egd(&name("tag_key"), vec![tag("x", "t1"), tag("x", "t2")], t("t1"), t("t2")),
        Ded::egd(
            &name("text_key"),
            vec![schema.text_atom(t("x"), t("t1")), schema.text_atom(t("x"), t("t2"))],
            t("t1"),
            t("t2"),
        ),
        Ded::egd(
            &name("id_key"),
            vec![schema.id_atom(t("x"), t("i1")), schema.id_atom(t("x"), t("i2"))],
            t("i1"),
            t("i2"),
        ),
        Ded::egd(
            &name("attr_key"),
            vec![
                mars_cq::Atom::new(schema.predicate(NavBase::Attr), vec![t("x"), t("n"), t("v1")]),
                mars_cq::Atom::new(schema.predicate(NavBase::Attr), vec![t("x"), t("n"), t("v2")]),
            ],
            t("v1"),
            t("v2"),
        ),
        // Node identity is injective: two elements with the same id are equal.
        Ded::egd(
            &name("id_injective"),
            vec![schema.id_atom(t("x"), t("i")), schema.id_atom(t("y"), t("i"))],
            t("x"),
            t("y"),
        ),
        // The root is unique.
        Ded::egd(
            &name("root_unique"),
            vec![schema.root_atom(t("x")), schema.root_atom(t("y"))],
            t("x"),
            t("y"),
        ),
        // Every element has at most one parent.
        Ded::egd(
            &name("parent_unique"),
            vec![schema.child_atom(t("x"), t("z")), schema.child_atom(t("y"), t("z"))],
            t("x"),
            t("y"),
        ),
        // child and root relate element nodes.
        Ded::tgd(
            &name("child_el"),
            vec![schema.child_atom(t("x"), t("y"))],
            vec![],
            vec![schema.el_atom(t("x")), schema.el_atom(t("y"))],
        ),
        // Every element has an identity.
        Ded::tgd(
            &name("el_id"),
            vec![schema.el_atom(t("x"))],
            vec![v("i")],
            vec![schema.id_atom(t("x"), t("i"))],
        ),
    ]
}

/// TIX without the disjunctive `(line)` constraint. `(line)` never fires on
/// the tree-shaped canonical instances produced by compiling path queries
/// (one of its disjuncts is always already satisfied), but evaluating its
/// premise is quadratic in the `desc` relation; the MARS facade therefore
/// chases with this core set by default and keeps the full set available for
/// callers that need it.
pub fn tix_constraints_core(schema: &GrexSchema) -> Vec<Ded> {
    tix_constraints(schema).into_iter().filter(|d| !d.name.starts_with("TIX.line")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_chase::{
        chase_to_resident_compiled, detect_closure_constraints, ChaseOptions, CompiledDeps,
    };
    use mars_cq::ConjunctiveQuery;

    #[test]
    fn thirteen_constraints_per_document() {
        let schema = GrexSchema::new("case.xml");
        let tix = tix_constraints(&schema);
        assert_eq!(tix.len(), 13);
        // All constraints mention only this document's predicates.
        for d in &tix {
            for p in d.premise_predicates().iter().chain(d.conclusion_predicates().iter()) {
                assert!(schema.owns(*p), "{p:?} not owned by {}", schema.document);
            }
        }
    }

    #[test]
    fn closure_constraints_are_detected_in_tix() {
        let schema = GrexSchema::new("case.xml");
        let tix = tix_constraints(&schema);
        let closure = detect_closure_constraints(&tix);
        assert!(!closure.groups.is_empty());
        assert_eq!(closure.indices().len(), 3);
        assert_eq!(closure.groups[0].document, "case.xml");
    }

    #[test]
    fn chasing_a_path_query_with_tix_terminates() {
        // //a/b : root(r), desc(r,n1), tag(n1,a), child(n1,n2), tag(n2,b)
        let s = GrexSchema::new("doc.xml");
        let q = ConjunctiveQuery::new("path").with_head(vec![Term::var("n2")]).with_body(vec![
            s.root_atom(Term::var("r")),
            s.desc_atom(Term::var("r"), Term::var("n1")),
            s.tag_atom(Term::var("n1"), "a"),
            s.child_atom(Term::var("n1"), Term::var("n2")),
            s.tag_atom(Term::var("n2"), "b"),
        ]);
        let tix = CompiledDeps::new(&tix_constraints(&s));
        let up = chase_to_resident_compiled(&q, &tix, &ChaseOptions::default());
        assert!(up.stats().completed(), "TIX chase must terminate");
        let plan = up.primary(&q.name).expect("a surviving branch");
        // The chase derived el facts, ids, reflexive/transitive desc facts.
        assert!(plan.body.len() > q.body.len());
        assert!(plan.body.iter().any(|a| a.predicate == s.predicate(NavBase::El)));
        assert!(plan.body.iter().any(|a| a.predicate == s.predicate(NavBase::Id)));
    }
}
