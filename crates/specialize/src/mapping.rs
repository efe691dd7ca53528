//! Specialization mappings: tree pattern → virtual relation.

use mars_xml::Path;

/// One inlined field of a specialization relation: a column name and the
/// relative path (from the entity element) whose value fills it.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldMapping {
    /// Column name in the specialization relation.
    pub column: String,
    /// Relative path from the entity element to the field value (must end in
    /// `text()` or an attribute step — Proposition 5.1's restriction).
    pub path: Path,
}

/// A specialization mapping in the style of Figure 6/7: instances of an
/// element type reached by `entity_path` become tuples
/// `Relation(id, pid, field_1, …, field_n)`.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecializationMapping {
    /// Name of the virtual relation (e.g. `Author`).
    pub relation: String,
    /// Document the entities live in.
    pub document: String,
    /// Absolute path reaching the entity elements (e.g. `//author`).
    pub entity_path: Path,
    /// Inlined fields.
    pub fields: Vec<FieldMapping>,
    /// Declares every field path single-valued per entity (each entity
    /// element has at most one value under each field path — the common case
    /// for DTD-style `<!ELEMENT R (K, A1, …)>` schemas). When set, the
    /// compiled correspondence carries the functional dependency
    /// `Rel(id, f…) ∧ Rel(id, g…) → f = g`, without which a chase that
    /// re-creates an entity from several sources (e.g. two materialized
    /// views over the same hub) cannot unify the duplicated field values and
    /// derives a cross-product of partially-equal tuples.
    pub single_valued: bool,
}

impl SpecializationMapping {
    /// Build a mapping; field paths are given as `(column, relative path)`
    /// strings.
    pub fn new(
        relation: &str,
        document: &str,
        entity_path: &str,
        fields: &[(&str, &str)],
    ) -> SpecializationMapping {
        SpecializationMapping {
            relation: relation.to_string(),
            document: document.to_string(),
            entity_path: mars_xml::parse_path(entity_path).expect("valid entity path"),
            fields: fields
                .iter()
                .map(|(c, p)| FieldMapping {
                    column: c.to_string(),
                    path: mars_xml::parse_path(p).expect("valid field path"),
                })
                .collect(),
            single_valued: false,
        }
    }

    /// Builder: declare every field single-valued per entity (see
    /// [`SpecializationMapping::single_valued`]).
    pub fn with_single_valued_fields(mut self) -> SpecializationMapping {
        self.single_valued = true;
        self
    }

    /// The arity of the specialization relation: `id` + one column per field.
    pub fn arity(&self) -> usize {
        1 + self.fields.len()
    }

    /// Check the restriction of Proposition 5.1: every field path is a chain
    /// of child steps ending in a value step (`text()` or attribute), so that
    /// specializing a query never requires chasing — plain pattern matching
    /// suffices and runs in PTIME.
    pub fn is_restricted(&self) -> bool {
        self.fields.iter().all(|f| {
            f.path.returns_value()
                && f.path.steps.iter().all(|s| {
                    matches!(
                        s,
                        mars_xml::Step::Child(_)
                            | mars_xml::Step::Text
                            | mars_xml::Step::Attribute(_)
                    )
                })
        })
    }

    /// The defining XBind body of the specialization relation:
    /// `Relation(id, f_0, …, f_n) :- entity_path ⇒ id, field paths ⇒ f_i`.
    /// Used both to compile the definitional constraints linking the relation
    /// to the navigation it abbreviates and to materialize the relation for
    /// execution.
    pub fn definition_body(&self) -> mars_xquery::XBindQuery {
        let mut body = mars_xquery::XBindQuery::new(&format!("{}_def", self.relation)).with_atom(
            mars_xquery::XBindAtom::AbsolutePath {
                document: self.document.clone(),
                path: self.entity_path.clone(),
                var: "id".to_string(),
            },
        );
        let mut head: Vec<String> = vec!["id".to_string()];
        for (i, f) in self.fields.iter().enumerate() {
            let var = format!("f{i}");
            body = body.with_atom(mars_xquery::XBindAtom::RelativePath {
                path: f.path.clone(),
                source: "id".to_string(),
                var: var.clone(),
            });
            head.push(var);
        }
        body.head = head;
        body
    }

    /// The specialization relation as a relational view over its document,
    /// ready for compilation or materialization.
    pub fn definition_view(&self) -> mars_grex::ViewDef {
        mars_grex::ViewDef::relational(&self.relation, self.definition_body())
    }

    /// The functional dependency `Rel(id, f…) ∧ Rel(id, g…) → f = g` for
    /// single-valued mappings, `None` otherwise.
    pub fn functional_dependency(&self) -> Option<mars_cq::Ded> {
        if !self.single_valued || self.fields.is_empty() {
            return None;
        }
        let id = mars_cq::Term::var("id");
        let fs: Vec<mars_cq::Term> =
            (0..self.fields.len()).map(|i| mars_cq::Term::var(&format!("f{i}"))).collect();
        let gs: Vec<mars_cq::Term> =
            (0..self.fields.len()).map(|i| mars_cq::Term::var(&format!("g{i}"))).collect();
        let mut left = vec![id];
        left.extend(fs.iter().copied());
        let mut right = vec![id];
        right.extend(gs.iter().copied());
        Some(mars_cq::Ded::disjunctive(
            &format!("{}_fd", self.relation),
            vec![
                mars_cq::Atom::named(&self.relation, left),
                mars_cq::Atom::named(&self.relation, right),
            ],
            vec![mars_cq::ded::Conjunct::equalities(
                fs.iter().copied().zip(gs.iter().copied()).collect(),
            )],
        ))
    }
}

/// The Figure 6 `Author` mapping, used in tests and documentation.
pub fn author_mapping() -> SpecializationMapping {
    SpecializationMapping::new(
        "Author",
        "pubs.xml",
        "//author",
        &[
            ("first", "./name/first/text()"),
            ("last", "./name/last/text()"),
            ("street", "./address/street/text()"),
            ("city", "./address/city/text()"),
            ("state", "./address/state/text()"),
            ("zip", "./address/zip/text()"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn author_mapping_matches_figure_6() {
        let m = author_mapping();
        assert_eq!(m.relation, "Author");
        assert_eq!(m.arity(), 7); // id + 6 fields
        assert!(m.is_restricted());
    }

    #[test]
    fn definition_body_reads_every_field() {
        let m = author_mapping();
        let body = m.definition_body();
        assert_eq!(body.head.len(), m.arity());
        assert_eq!(body.head[0], "id");
        assert_eq!(body.atoms.len(), 1 + m.fields.len());
        let view = m.definition_view();
        assert_eq!(view.name, "Author");
    }

    #[test]
    fn functional_dependency_requires_single_valued() {
        let m = author_mapping();
        assert!(m.functional_dependency().is_none(), "not declared single-valued");
        let m = m.with_single_valued_fields();
        let fd = m.functional_dependency().expect("single-valued mapping has an FD");
        assert_eq!(fd.premise.len(), 2);
        assert_eq!(fd.conclusions.len(), 1);
        assert_eq!(fd.conclusions[0].equalities.len(), m.fields.len());
        assert!(fd.conclusions[0].atoms.is_empty());
        // Both premise atoms share the id but differ in every field variable.
        assert_eq!(fd.premise[0].args[0], fd.premise[1].args[0]);
        for i in 1..=m.fields.len() {
            assert_ne!(fd.premise[0].args[i], fd.premise[1].args[i]);
        }
    }

    #[test]
    fn unrestricted_mappings_are_detected() {
        let m = SpecializationMapping::new(
            "Weird",
            "d.xml",
            "//entity",
            &[("deep", ".//anywhere/text()"), ("node", "./sub")],
        );
        assert!(!m.is_restricted());
    }
}
