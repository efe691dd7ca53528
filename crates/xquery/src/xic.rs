//! XML Integrity Constraints (XICs).
//!
//! XICs "have the same general form as DEDs, in which relational atoms are
//! replaced by predicates defined by XPath expressions" (Section 2.1). They
//! express keys, inclusion constraints (as in XML Schema) and more general
//! integrity constraints; `mars-grex` compiles them to relational DEDs over
//! the GReX schema.

use crate::xbind::{XBindAtom, XBindTerm};
use mars_xml::{parse_path, PathError};

/// One disjunct of an XIC conclusion.
#[derive(Clone, Debug, PartialEq)]
pub struct XicConjunct {
    /// Existentially quantified variables.
    pub exists: Vec<String>,
    /// Conclusion atoms (path or relational).
    pub atoms: Vec<XBindAtom>,
    /// Conclusion equalities.
    pub equalities: Vec<(XBindTerm, XBindTerm)>,
}

impl XicConjunct {
    /// A conjunct of atoms only.
    pub fn atoms(atoms: Vec<XBindAtom>) -> XicConjunct {
        XicConjunct { exists: Vec::new(), atoms, equalities: Vec::new() }
    }

    /// A conjunct of equalities only.
    pub fn equalities(equalities: Vec<(XBindTerm, XBindTerm)>) -> XicConjunct {
        XicConjunct { exists: Vec::new(), atoms: Vec::new(), equalities }
    }

    /// Builder: set the existential variables.
    pub fn with_exists(mut self, exists: &[&str]) -> XicConjunct {
        self.exists = exists.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// An XML integrity constraint: `∀ vars. premise → ⋁ conclusions`.
#[derive(Clone, Debug, PartialEq)]
pub struct Xic {
    /// Constraint name.
    pub name: String,
    /// Premise atoms.
    pub premise: Vec<XBindAtom>,
    /// Disjunction of conclusions (empty = denial).
    pub conclusions: Vec<XicConjunct>,
}

impl Xic {
    /// A general XIC.
    pub fn new(name: &str, premise: Vec<XBindAtom>, conclusions: Vec<XicConjunct>) -> Xic {
        Xic { name: name.to_string(), premise, conclusions }
    }

    /// Paper constraint (2): every element reached by `element_path` has a
    /// child reached by `child_path`. E.g. every `//person` has a `./ssn`.
    ///
    /// Returns the parse error of the offending path instead of panicking —
    /// these constructors sit on the public correspondence-building API, so a
    /// malformed path from a caller must surface as an error, not kill a
    /// resident service.
    pub fn exists_child(
        name: &str,
        document: &str,
        element_path: &str,
        child_path: &str,
    ) -> Result<Xic, PathError> {
        let premise = vec![XBindAtom::AbsolutePath {
            document: document.to_string(),
            path: parse_path(element_path)?,
            var: "p".to_string(),
        }];
        let conclusion = XicConjunct::atoms(vec![XBindAtom::RelativePath {
            path: parse_path(child_path)?,
            source: "p".to_string(),
            var: "s".to_string(),
        }])
        .with_exists(&["s"]);
        Ok(Xic::new(name, premise, vec![conclusion]))
    }

    /// Paper constraint (1): the value reached by `key_path` is a key for the
    /// elements reached by `element_path` — two elements sharing the key value
    /// are equal.
    pub fn key(
        name: &str,
        document: &str,
        element_path: &str,
        key_path: &str,
    ) -> Result<Xic, PathError> {
        let epath = parse_path(element_path)?;
        let kpath = parse_path(key_path)?;
        let premise = vec![
            XBindAtom::AbsolutePath {
                document: document.to_string(),
                path: epath.clone(),
                var: "p".to_string(),
            },
            XBindAtom::RelativePath {
                path: kpath.clone(),
                source: "p".to_string(),
                var: "s".to_string(),
            },
            XBindAtom::AbsolutePath {
                document: document.to_string(),
                path: epath,
                var: "q".to_string(),
            },
            XBindAtom::RelativePath { path: kpath, source: "q".to_string(), var: "s".to_string() },
        ];
        let conclusion = XicConjunct::equalities(vec![(XBindTerm::var("p"), XBindTerm::var("q"))]);
        Ok(Xic::new(name, premise, vec![conclusion]))
    }

    /// DTD-style single-occurrence constraint: every element reached by
    /// `element_path` has at most one child reached by `child_path` — two
    /// such children are the same node. (`<!ELEMENT R (K, A1)>`-style content
    /// models.) Without it, a chase that re-creates an entity's children from
    /// several sources (e.g. two view unfoldings over the same element)
    /// cannot unify the duplicated nodes and the instance grows with a
    /// cross-product of equivalent navigation patterns.
    pub fn unique_child(
        name: &str,
        document: &str,
        element_path: &str,
        child_path: &str,
    ) -> Result<Xic, PathError> {
        let cpath = parse_path(child_path)?;
        let premise = vec![
            XBindAtom::AbsolutePath {
                document: document.to_string(),
                path: parse_path(element_path)?,
                var: "p".to_string(),
            },
            XBindAtom::RelativePath {
                path: cpath.clone(),
                source: "p".to_string(),
                var: "n".to_string(),
            },
            XBindAtom::RelativePath { path: cpath, source: "p".to_string(), var: "m".to_string() },
        ];
        let conclusion = XicConjunct::equalities(vec![(XBindTerm::var("n"), XBindTerm::var("m"))]);
        Ok(Xic::new(name, premise, vec![conclusion]))
    }

    /// A foreign-key style inclusion: every value reached by `from_path`
    /// (under elements of `from_elements`) also appears under `to_path`
    /// (under elements of `to_elements`).
    pub fn inclusion(
        name: &str,
        document: &str,
        from_elements: &str,
        from_path: &str,
        to_elements: &str,
        to_path: &str,
    ) -> Result<Xic, PathError> {
        let premise = vec![
            XBindAtom::AbsolutePath {
                document: document.to_string(),
                path: parse_path(from_elements)?,
                var: "e".to_string(),
            },
            XBindAtom::RelativePath {
                path: parse_path(from_path)?,
                source: "e".to_string(),
                var: "v".to_string(),
            },
        ];
        let conclusion = XicConjunct::atoms(vec![
            XBindAtom::AbsolutePath {
                document: document.to_string(),
                path: parse_path(to_elements)?,
                var: "f".to_string(),
            },
            XBindAtom::RelativePath {
                path: parse_path(to_path)?,
                source: "f".to_string(),
                var: "v".to_string(),
            },
        ])
        .with_exists(&["f"]);
        Ok(Xic::new(name, premise, vec![conclusion]))
    }

    /// Is this a denial constraint?
    pub fn is_denial(&self) -> bool {
        self.conclusions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exists_child_matches_paper_constraint_2() {
        let xic = Xic::exists_child("person_has_ssn", "people.xml", "//person", "./ssn").unwrap();
        assert_eq!(xic.premise.len(), 1);
        assert_eq!(xic.conclusions.len(), 1);
        assert_eq!(xic.conclusions[0].exists, vec!["s"]);
        assert_eq!(xic.conclusions[0].atoms.len(), 1);
        assert!(!xic.is_denial());
    }

    #[test]
    fn key_matches_paper_constraint_1() {
        let xic = Xic::key("ssn_key", "people.xml", "//person", "./ssn").unwrap();
        assert_eq!(xic.premise.len(), 4);
        assert_eq!(xic.conclusions[0].equalities.len(), 1);
        assert!(xic.conclusions[0].atoms.is_empty());
    }

    #[test]
    fn unique_child_is_an_equality_constraint() {
        let xic = Xic::unique_child("R_one_K", "star.xml", "//R", "./K").unwrap();
        assert_eq!(xic.premise.len(), 3);
        assert_eq!(xic.conclusions.len(), 1);
        assert!(xic.conclusions[0].atoms.is_empty());
        assert_eq!(xic.conclusions[0].equalities, vec![(XBindTerm::var("n"), XBindTerm::var("m"))]);
    }

    #[test]
    fn inclusion_constraint_shape() {
        let xic = Xic::inclusion("fk_a1", "star.xml", "//R", "./A1/text()", "//S1", "./A/text()")
            .unwrap();
        assert_eq!(xic.premise.len(), 2);
        assert_eq!(xic.conclusions[0].atoms.len(), 2);
        assert_eq!(xic.conclusions[0].exists, vec!["f"]);
    }

    /// Regression: every convenience constructor used to `expect()` on path
    /// parsing, killing library callers on a malformed path. Each now
    /// returns the parse error.
    #[test]
    fn malformed_paths_are_errors_not_panics() {
        assert!(Xic::exists_child("x", "d.xml", "//per son", "./ssn").is_err());
        assert!(Xic::exists_child("x", "d.xml", "//person", "./s sn").is_err());
        assert!(Xic::key("x", "d.xml", "//@@", "./ssn").is_err());
        assert!(Xic::key("x", "d.xml", "//person", "").is_err());
        assert!(Xic::unique_child("x", "d.xml", "//R", "./K//").is_err());
        assert!(Xic::inclusion("x", "d.xml", "//R", "bad path", "//S", "./A").is_err());
        let err = Xic::unique_child("x", "d.xml", "//R", "./ /K").unwrap_err();
        assert!(!err.message.is_empty(), "the path error carries a message");
    }

    #[test]
    fn denial_constraints_have_no_conclusions() {
        let d = Xic::new(
            "forbidden",
            vec![XBindAtom::AbsolutePath {
                document: "d.xml".to_string(),
                path: parse_path("//secret").unwrap(),
                var: "x".to_string(),
            }],
            vec![],
        );
        assert!(d.is_denial());
    }
}
