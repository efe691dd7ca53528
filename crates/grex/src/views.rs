//! Compilation of view definitions to DEDs (Sections 2.3 and 2.4).
//!
//! Views are the "direction-neutral" representation of the schema
//! correspondence: both GAV views (proprietary → public) and LAV views
//! (public → proprietary) are XBind-bodied queries whose output is either a
//! stored relation or a (virtual or materialized) XML document. Each view
//! compiles to a pair of inclusion DEDs (`cV`, `bV`); views that construct
//! XML additionally get the Skolem-function constraints of Section 2.4
//! (injectivity, functionality, and the structural constraints describing the
//! invented elements).

use crate::compile::{compile_xbind, CompileContext};
use crate::schema::GrexSchema;
use mars_cq::{Atom, Ded, Predicate, Term, Variable};
use mars_xquery::XBindQuery;
use std::collections::HashSet;

/// What a view materializes.
#[derive(Clone, Debug, PartialEq)]
pub enum ViewOutput {
    /// A stored relation; its columns are the view body's head variables.
    Relation {
        /// Relation name (this becomes a proprietary-schema predicate).
        name: String,
    },
    /// A (flat) XML document: one `row_tag` element per binding, with one leaf
    /// child per head variable carrying its value as text. This covers the
    /// XML dumps of relational data that the paper notes are the common case
    /// in XML publishing.
    XmlFlat {
        /// Name of the produced document.
        document: String,
        /// Tag of the per-binding element.
        row_tag: String,
        /// Tags of the per-column leaf elements (same arity as the view head).
        field_tags: Vec<String>,
    },
}

/// A view definition: a named XBind body plus an output description.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewDef {
    /// View name (used to name the generated constraints and Skolem graphs).
    pub name: String,
    /// The view body (navigation over the schema the view reads from).
    pub body: XBindQuery,
    /// What the view materializes.
    pub output: ViewOutput,
}

impl ViewDef {
    /// A view materializing a relation with the same name as the view.
    pub fn relational(name: &str, body: XBindQuery) -> ViewDef {
        ViewDef {
            name: name.to_string(),
            body,
            output: ViewOutput::Relation { name: name.to_string() },
        }
    }

    /// A view materializing a flat XML document.
    pub fn xml_flat(
        name: &str,
        body: XBindQuery,
        document: &str,
        row_tag: &str,
        field_tags: &[&str],
    ) -> ViewDef {
        ViewDef {
            name: name.to_string(),
            body,
            output: ViewOutput::XmlFlat {
                document: document.to_string(),
                row_tag: row_tag.to_string(),
                field_tags: field_tags.iter().map(|s| s.to_string()).collect(),
            },
        }
    }

    /// The proprietary predicates this view contributes (what reformulations
    /// over it will mention).
    pub fn output_predicates(&self) -> Vec<Predicate> {
        match &self.output {
            ViewOutput::Relation { name } => vec![Predicate::new(name)],
            ViewOutput::XmlFlat { document, .. } => GrexSchema::new(document).all_predicates(),
        }
    }
}

/// Compile a view into its DEDs.
pub fn compile_view(ctx: &mut CompileContext, view: &ViewDef) -> Vec<Ded> {
    let body = compile_xbind(ctx, &view.body);
    let body_exists = |head: &[Term]| -> Vec<Variable> {
        let head_vars: HashSet<Variable> = head.iter().filter_map(|t| t.as_var()).collect();
        let mut out = Vec::new();
        for a in &body.body {
            for v in a.variables() {
                if !head_vars.contains(&v) && !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    };

    match &view.output {
        ViewOutput::Relation { name } => {
            let head_atom = Atom::new(Predicate::new(name), body.head.clone());
            let c_v = Ded::tgd(
                &format!("c{}", view.name),
                body.body.clone(),
                Vec::new(),
                vec![head_atom.clone()],
            );
            let b_v = Ded::tgd(
                &format!("b{}", view.name),
                vec![head_atom],
                body_exists(&body.head),
                body.body.clone(),
            );
            vec![c_v, b_v]
        }
        ViewOutput::XmlFlat { document, row_tag, field_tags } => {
            assert_eq!(
                field_tags.len(),
                body.head.len(),
                "view {} output arity mismatch",
                view.name
            );
            let out_schema = GrexSchema::new(document);
            let skolem = Predicate::new(&format!("G_{}_{row_tag}", view.name));
            let row = Term::var("_row");
            let mut skolem_args = body.head.clone();
            skolem_args.push(row);
            let skolem_atom = Atom::new(skolem, skolem_args.clone());

            let mut deds = Vec::new();

            // cV: every binding of the body has an (invented) row element.
            deds.push(Ded::tgd(
                &format!("c{}", view.name),
                body.body.clone(),
                vec![Variable::named("_row")],
                vec![skolem_atom.clone()],
            ));

            // Structure of the invented elements: the row is a child of the
            // output root, tagged row_tag, with one leaf child per field whose
            // text is the bound value (constraints (8)/(9) of the paper).
            let mut structure_atoms = vec![
                out_schema.root_atom(Term::var("_root")),
                out_schema.child_atom(Term::var("_root"), row),
                out_schema.tag_atom(row, row_tag),
                out_schema.el_atom(row),
            ];
            let mut structure_exists = vec![Variable::named("_root")];
            for (i, tag) in field_tags.iter().enumerate() {
                let field = Term::var(&format!("_f{i}"));
                structure_exists.push(Variable::named(&format!("_f{i}")));
                structure_atoms.push(out_schema.child_atom(row, field));
                structure_atoms.push(out_schema.tag_atom(field, tag));
                structure_atoms.push(out_schema.text_atom(field, body.head[i]));
            }
            deds.push(Ded::tgd(
                &format!("{}_structure", view.name),
                vec![skolem_atom.clone()],
                structure_exists,
                structure_atoms,
            ));

            // Functionality: one row element per binding (constraint (6)).
            deds.push(Ded::egd(
                &format!("{}_functional", view.name),
                vec![
                    Atom::new(skolem, skolem_args.clone()),
                    Atom::new(skolem, {
                        let mut other = body.head.clone();
                        other.push(Term::var("_row2"));
                        other
                    }),
                ],
                row,
                Term::var("_row2"),
            ));

            // Injectivity: distinct bindings produce distinct rows
            // (constraint (5)) — expressed per column.
            for (i, _) in body.head.iter().enumerate() {
                if let Term::Var(v) = body.head[i] {
                    let mut other_head: Vec<Term> = body
                        .head
                        .iter()
                        .enumerate()
                        .map(|(j, t)| {
                            if j == i {
                                Term::Var(Variable::with_index(&format!("_o{j}"), 900))
                            } else {
                                *t
                            }
                        })
                        .collect();
                    other_head.push(row);
                    deds.push(Ded::egd(
                        &format!("{}_injective_{i}", view.name),
                        vec![
                            Atom::new(skolem, skolem_args.clone()),
                            Atom::new(skolem, other_head.clone()),
                        ],
                        Term::Var(v),
                        other_head[i],
                    ));
                }
            }

            // bV: every row element of the output document comes from a
            // binding of the body (the LAV direction used when answering
            // public-schema queries from the materialized document). The
            // premise navigates with `desc` so that client queries using the
            // descendant axis (`//row_tag`) match it directly; TIX's (base)
            // makes this equivalent to the child-based structure constraint.
            let mut row_premise = vec![
                out_schema.root_atom(Term::var("_root")),
                out_schema.desc_atom(Term::var("_root"), row),
                out_schema.tag_atom(row, row_tag),
            ];
            for (i, tag) in field_tags.iter().enumerate() {
                let field = Term::var(&format!("_f{i}"));
                row_premise.push(out_schema.child_atom(row, field));
                row_premise.push(out_schema.tag_atom(field, tag));
                row_premise.push(out_schema.text_atom(field, body.head[i]));
            }
            deds.push(Ded::tgd(
                &format!("b{}", view.name),
                row_premise,
                body_exists(&body.head),
                body.body.clone(),
            ));

            deds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::NavBase;
    use mars_xml::parse_path;
    use mars_xquery::XBindAtom;

    /// DrugPriceMap from Example 1.1: relational view of catalog.xml.
    fn drug_price_view() -> ViewDef {
        let body = XBindQuery::new("DrugPriceMap")
            .with_head(&["n", "p"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "catalog.xml".to_string(),
                path: parse_path("//drug").unwrap(),
                var: "d".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./name/text()").unwrap(),
                source: "d".to_string(),
                var: "n".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./price/text()").unwrap(),
                source: "d".to_string(),
                var: "p".to_string(),
            });
        ViewDef::relational("drugPrice", body)
    }

    #[test]
    fn relational_view_compiles_to_cv_bv_pair() {
        let view = drug_price_view();
        let mut ctx = CompileContext::new();
        let deds = compile_view(&mut ctx, &view);
        assert_eq!(deds.len(), 2);
        let c_v = &deds[0];
        let b_v = &deds[1];
        // cV: navigation atoms → drugPrice(n,p)
        assert!(c_v.premise.len() >= 7);
        assert_eq!(c_v.conclusions[0].atoms[0].predicate, Predicate::new("drugPrice"));
        // bV: drugPrice(n,p) → ∃ (navigation)
        assert_eq!(b_v.premise.len(), 1);
        assert!(!b_v.conclusions[0].exists.is_empty());
        assert_eq!(view.output_predicates(), vec![Predicate::new("drugPrice")]);
    }

    #[test]
    fn xml_flat_view_generates_skolem_constraints() {
        let body = XBindQuery::new("CacheMap").with_head(&["diag", "drug"]).with_atom(
            XBindAtom::Relational {
                relation: "caseAssoc".to_string(),
                args: vec![
                    mars_xquery::XBindTerm::var("diag"),
                    mars_xquery::XBindTerm::var("drug"),
                ],
            },
        );
        let view = ViewDef::xml_flat(
            "CacheEntry",
            body,
            "cacheEntry.xml",
            "entry",
            &["diagnosis", "drug"],
        );
        let mut ctx = CompileContext::new();
        let deds = compile_view(&mut ctx, &view);
        // cV + structure + functional + 2 injectivity + bV = 6
        assert_eq!(deds.len(), 6);
        let names: Vec<&str> = deds.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"cCacheEntry"));
        assert!(names.contains(&"CacheEntry_structure"));
        assert!(names.contains(&"CacheEntry_functional"));
        assert!(names.contains(&"bCacheEntry"));
        // The structure constraint mentions the output document's GReX schema.
        let out_schema = GrexSchema::new("cacheEntry.xml");
        let structure = deds.iter().find(|d| d.name == "CacheEntry_structure").unwrap();
        assert!(structure.conclusions[0]
            .atoms
            .iter()
            .any(|a| a.predicate == out_schema.predicate(NavBase::Text)));
        // The output predicates of an XML view are the document's GReX relations.
        assert_eq!(view.output_predicates().len(), 8);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn xml_flat_view_checks_field_arity() {
        let body = XBindQuery::new("V").with_head(&["a", "b"]).with_atom(XBindAtom::Relational {
            relation: "R".to_string(),
            args: vec![mars_xquery::XBindTerm::var("a"), mars_xquery::XBindTerm::var("b")],
        });
        let view = ViewDef::xml_flat("V", body, "v.xml", "row", &["only_one"]);
        let mut ctx = CompileContext::new();
        let _ = compile_view(&mut ctx, &view);
    }

    #[test]
    fn identity_gav_view_over_a_document() {
        // IdMap from Example 1.1: catalog.xml is published as itself. We model
        // it as an XmlFlat view over the drug/name/price rows for test purposes.
        let view = ViewDef::xml_flat(
            "IdMap",
            drug_price_view().body,
            "public_catalog.xml",
            "drug",
            &["name", "price"],
        );
        let mut ctx = CompileContext::new();
        let deds = compile_view(&mut ctx, &view);
        assert!(deds.len() >= 5);
        // The bV direction reads the published document and re-derives
        // proprietary navigation facts.
        let b_v = deds.iter().find(|d| d.name == "bIdMap").unwrap();
        let pub_schema = GrexSchema::new("public_catalog.xml");
        assert!(b_v.premise.iter().any(|a| a.predicate == pub_schema.predicate(NavBase::Child)));
        let prop_schema = GrexSchema::new("catalog.xml");
        assert!(b_v.conclusions[0]
            .atoms
            .iter()
            .any(|a| a.predicate == prop_schema.predicate(NavBase::Child)));
    }
}
