//! Specializing queries, views and XICs.
//!
//! Specialization replaces a *group* of XBind atoms — the atom binding an
//! entity element plus the relative atoms reading its inlined fields — by a
//! single relational atom over the specialization relation, exactly as the
//! verbose constraint (12) of the paper turns into the one-atom constraint
//! (13). Navigation that does not match any mapping (e.g. the `publisher`
//! part of the Section 5.1 example) is left untouched.

use crate::mapping::SpecializationMapping;
use mars_grex::ViewDef;
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm, Xic, XicConjunct};

/// Specialize the atoms of one query body.
fn specialize_atoms(atoms: &[XBindAtom], mappings: &[SpecializationMapping]) -> Vec<XBindAtom> {
    let mut consumed = vec![false; atoms.len()];
    let mut out: Vec<XBindAtom> = Vec::new();

    for (i, atom) in atoms.iter().enumerate() {
        if consumed[i] {
            continue;
        }
        // Try to match an entity atom.
        let matched = mappings.iter().find_map(|m| match atom {
            XBindAtom::AbsolutePath { document, path, var }
                if document == &m.document && path == &m.entity_path =>
            {
                Some((m, var.clone()))
            }
            _ => None,
        });
        let Some((mapping, entity_var)) = matched else {
            out.push(atom.clone());
            continue;
        };
        consumed[i] = true;

        // Collect field reads hanging off the entity variable.
        let mut columns: Vec<XBindTerm> = vec![XBindTerm::var(&entity_var)];
        for field in &mapping.fields {
            let mut bound: Option<String> = None;
            for (j, other) in atoms.iter().enumerate() {
                if consumed[j] {
                    continue;
                }
                if let XBindAtom::RelativePath { path, source, var } = other {
                    if source == &entity_var && path == &field.path {
                        bound = Some(var.clone());
                        consumed[j] = true;
                        break;
                    }
                }
            }
            // Unread columns get a canonical don't-care variable so the
            // specialized atom has the mapping's full arity.
            columns.push(XBindTerm::var(
                &bound.unwrap_or_else(|| format!("{entity_var}_{}", field.column)),
            ));
        }
        // Navigation the mapping does not cover (an attribute read, an
        // element-valued step) may still hang off the entity variable. The
        // entity's own navigation atom must then survive next to the
        // specialized atom: it both carries the constraint that the entity
        // lies on `entity_path` and anchors the document that the leftover
        // relative paths compile against.
        let leftover = atoms.iter().enumerate().any(|(j, other)| {
            !consumed[j]
                && matches!(other, XBindAtom::RelativePath { source, .. } if source == &entity_var)
        });
        if leftover {
            out.push(atom.clone());
        }
        out.push(XBindAtom::Relational { relation: mapping.relation.clone(), args: columns });
    }
    out
}

/// Specialize an XBind query (Figure 7: `CQ → CQ'`).
pub fn specialize_query(query: &XBindQuery, mappings: &[SpecializationMapping]) -> XBindQuery {
    let atoms = specialize_atoms(&query.atoms, mappings);
    XBindQuery {
        name: format!("{}_spec", query.name),
        head: query.head.clone(),
        atoms,
        distinct: query.distinct,
    }
}

/// Specialize a view definition (Figure 7: `∆ → spec(∆)`).
pub fn specialize_view(view: &ViewDef, mappings: &[SpecializationMapping]) -> ViewDef {
    ViewDef {
        name: view.name.clone(),
        body: {
            let mut b = specialize_query(&view.body, mappings);
            b.name = view.body.name.clone();
            b
        },
        output: view.output.clone(),
    }
}

/// Specialize an XIC.
pub fn specialize_xic(xic: &Xic, mappings: &[SpecializationMapping]) -> Xic {
    let premise = specialize_atoms(&xic.premise, mappings);
    let conclusions = xic
        .conclusions
        .iter()
        .map(|c| XicConjunct {
            exists: c.exists.clone(),
            atoms: specialize_atoms(&c.atoms, mappings),
            equalities: c.equalities.clone(),
        })
        .collect();
    Xic { name: format!("{}_spec", xic.name), premise, conclusions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::author_mapping;
    use mars_grex::{compile_xbind, CompileContext};
    use mars_xml::parse_path;

    /// The Section 5.1 query: authors living in a city where a publisher is
    /// located.
    fn section_5_1_query() -> XBindQuery {
        XBindQuery::new("Xb")
            .with_head(&["l"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "pubs.xml".to_string(),
                path: parse_path("//author").unwrap(),
                var: "id".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./name/last/text()").unwrap(),
                source: "id".to_string(),
                var: "l".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./address/city/text()").unwrap(),
                source: "id".to_string(),
                var: "c".to_string(),
            })
            .with_atom(XBindAtom::AbsolutePath {
                document: "pubs.xml".to_string(),
                path: parse_path("//publisher").unwrap(),
                var: "p".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./address/city/text()").unwrap(),
                source: "p".to_string(),
                var: "c".to_string(),
            })
    }

    #[test]
    fn section_5_1_query_specializes_only_the_author_part() {
        let q = section_5_1_query();
        let spec = specialize_query(&q, &[author_mapping()]);
        // The author entity + 2 field reads collapse into one Author atom;
        // the publisher navigation is untouched.
        assert_eq!(spec.atoms.len(), 3);
        assert!(matches!(&spec.atoms[0], XBindAtom::Relational { relation, args }
            if relation == "Author" && args.len() == 7));
        assert!(spec
            .atoms
            .iter()
            .any(|a| matches!(a, XBindAtom::AbsolutePath { var, .. } if var == "p")));
        // Field variables that were read keep their names.
        if let XBindAtom::Relational { args, .. } = &spec.atoms[0] {
            assert_eq!(args[2], XBindTerm::var("l")); // last
            assert_eq!(args[4], XBindTerm::var("c")); // city
        }
    }

    #[test]
    fn specialization_reduces_compiled_atom_count() {
        let q = section_5_1_query();
        let spec = specialize_query(&q, &[author_mapping()]);
        let mut ctx = CompileContext::new();
        let compiled_plain = compile_xbind(&mut ctx, &q);
        let compiled_spec = compile_xbind(&mut ctx, &spec);
        assert!(
            compiled_spec.body.len() + 8 <= compiled_plain.body.len(),
            "specialization must save many atoms: {} vs {}",
            compiled_spec.body.len(),
            compiled_plain.body.len()
        );
    }

    #[test]
    fn views_and_xics_are_specialized_consistently() {
        // The V(l,c) view of Section 5.1.
        let view_body = XBindQuery::new("Vbody")
            .with_head(&["l", "c"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "pubs.xml".to_string(),
                path: parse_path("//author").unwrap(),
                var: "id".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./name/last/text()").unwrap(),
                source: "id".to_string(),
                var: "l".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./address/city/text()").unwrap(),
                source: "id".to_string(),
                var: "c".to_string(),
            });
        let view = ViewDef::relational("V", view_body);
        let m = [author_mapping()];
        let sview = specialize_view(&view, &m);
        assert_eq!(sview.body.atoms.len(), 1);
        assert!(matches!(sview.output, mars_grex::ViewOutput::Relation { .. }));

        let xic =
            mars_xquery::Xic::exists_child("author_has_name", "pubs.xml", "//author", "./name")
                .unwrap();
        let sxic = specialize_xic(&xic, &m);
        // The premise //author(p) specializes to Author(p, ...).
        assert!(
            matches!(&sxic.premise[0], XBindAtom::Relational { relation, .. } if relation == "Author")
        );
    }

    /// Regression: navigation the mapping does not cover (here an attribute
    /// read) must keep the entity's own navigation atom next to the
    /// specialized atom — dropping it leaves the leftover relative path with
    /// no document anchor (it then compiles against a default document and
    /// never matches the instance).
    #[test]
    fn uncovered_navigation_keeps_the_entity_atom() {
        let q = XBindQuery::new("Q")
            .with_head(&["l", "ssn"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "pubs.xml".to_string(),
                path: parse_path("//author").unwrap(),
                var: "id".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./name/last/text()").unwrap(),
                source: "id".to_string(),
                var: "l".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: parse_path("./@ssn").unwrap(),
                source: "id".to_string(),
                var: "ssn".to_string(),
            });
        let spec = specialize_query(&q, &[author_mapping()]);
        // Entity nav atom + Author atom + the uncovered attribute read.
        assert_eq!(spec.atoms.len(), 3);
        assert!(spec.atoms.iter().any(
            |a| matches!(a, XBindAtom::AbsolutePath { var, document, .. } if var == "id" && document == "pubs.xml")
        ));
        assert!(spec
            .atoms
            .iter()
            .any(|a| matches!(a, XBindAtom::Relational { relation, .. } if relation == "Author")));
        assert!(spec
            .atoms
            .iter()
            .any(|a| matches!(a, XBindAtom::RelativePath { var, .. } if var == "ssn")));
    }

    #[test]
    fn queries_without_matching_entities_are_unchanged() {
        let q = XBindQuery::new("Q").with_head(&["x"]).with_atom(XBindAtom::AbsolutePath {
            document: "other.xml".to_string(),
            path: parse_path("//thing").unwrap(),
            var: "x".to_string(),
        });
        let spec = specialize_query(&q, &[author_mapping()]);
        assert_eq!(spec.atoms, q.atoms);
    }
}
