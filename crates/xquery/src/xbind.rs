//! XBind queries.
//!
//! "Their general form is akin to conjunctive queries. Their head returns a
//! tuple of variables, and the body atoms can be purely relational or are
//! predicates defined by XPath expressions" (Section 2.1). Variables are
//! surface-level strings here; the compilation to `mars-cq` terms over the
//! GReX schema happens in `mars-grex`.

use mars_xml::Path;
use std::fmt;

/// A term of an XBind atom: a variable, a string constant, or a parameter
/// of a canonical block.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum XBindTerm {
    /// A query variable (without the `$` sign).
    Var(String),
    /// A string constant.
    Str(String),
    /// Parameter `i` of a canonical block ([`crate::QueryShape::canonical`]):
    /// the place of the shape's `i`-th constant. Parsing never produces one,
    /// and a service rejects a request that holds one.
    Param(u32),
}

impl XBindTerm {
    /// Variable constructor.
    pub fn var(name: &str) -> XBindTerm {
        XBindTerm::Var(name.to_string())
    }

    /// String-constant constructor.
    pub fn str(value: &str) -> XBindTerm {
        XBindTerm::Str(value.to_string())
    }

    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            XBindTerm::Var(v) => Some(v),
            XBindTerm::Str(_) | XBindTerm::Param(_) => None,
        }
    }
}

impl fmt::Display for XBindTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XBindTerm::Var(v) => write!(f, "{v}"),
            XBindTerm::Str(s) => write!(f, "\"{s}\""),
            XBindTerm::Param(i) => write!(f, "?{i}"),
        }
    }
}

/// One atom of an XBind query body.
#[derive(Clone, Debug, PartialEq)]
pub enum XBindAtom {
    /// Unary path predicate `[p](y)`: `p` is an absolute path over the given
    /// document and `y` is bound to each node/value it reaches.
    AbsolutePath {
        /// Document the path navigates (public-schema document name).
        document: String,
        /// The absolute path.
        path: Path,
        /// The bound variable.
        var: String,
    },
    /// Binary path predicate `[p](x, y)`: `y` is reachable from the node bound
    /// to `x` along the relative path `p`.
    RelativePath {
        /// The relative path.
        path: Path,
        /// Source (context) variable.
        source: String,
        /// Target variable.
        var: String,
    },
    /// Reference to the result of another (outer, decorrelated) XBind query:
    /// `Xbo(a)` in Example 2.1.
    QueryRef {
        /// Name of the referenced XBind query.
        name: String,
        /// Its head variables.
        vars: Vec<String>,
    },
    /// A purely relational atom (RDB-in-XML encodings, specialization
    /// relations, stored tables).
    Relational {
        /// Relation name.
        relation: String,
        /// Argument terms.
        args: Vec<XBindTerm>,
    },
    /// Equality side condition.
    Eq(XBindTerm, XBindTerm),
    /// Inequality side condition.
    Neq(XBindTerm, XBindTerm),
}

impl XBindAtom {
    /// Variables introduced (bound) by this atom.
    pub fn bound_vars(&self) -> Vec<&str> {
        match self {
            XBindAtom::AbsolutePath { var, .. } => vec![var],
            XBindAtom::RelativePath { var, .. } => vec![var],
            XBindAtom::QueryRef { vars, .. } => vars.iter().map(String::as_str).collect(),
            XBindAtom::Relational { args, .. } => args.iter().filter_map(|t| t.as_var()).collect(),
            XBindAtom::Eq(..) | XBindAtom::Neq(..) => Vec::new(),
        }
    }

    /// All variables mentioned by this atom.
    pub fn all_vars(&self) -> Vec<&str> {
        match self {
            XBindAtom::AbsolutePath { var, .. } => vec![var],
            XBindAtom::RelativePath { source, var, .. } => vec![source, var],
            XBindAtom::QueryRef { vars, .. } => vars.iter().map(String::as_str).collect(),
            XBindAtom::Relational { args, .. } => args.iter().filter_map(|t| t.as_var()).collect(),
            XBindAtom::Eq(a, b) | XBindAtom::Neq(a, b) => {
                [a, b].into_iter().filter_map(|t| t.as_var()).collect()
            }
        }
    }
}

impl fmt::Display for XBindAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XBindAtom::AbsolutePath { document, path, var } => {
                write!(f, "[{path}]@{document}({var})")
            }
            XBindAtom::RelativePath { path, source, var } => write!(f, "[{path}]({source}, {var})"),
            XBindAtom::QueryRef { name, vars } => write!(f, "{name}({})", vars.join(", ")),
            XBindAtom::Relational { relation, args } => {
                let rendered: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "{relation}({})", rendered.join(", "))
            }
            XBindAtom::Eq(a, b) => write!(f, "{a} = {b}"),
            XBindAtom::Neq(a, b) => write!(f, "{a} != {b}"),
        }
    }
}

/// A decorrelated XBind query.
#[derive(Clone, Debug, PartialEq)]
pub struct XBindQuery {
    /// Query name (e.g. `Xbo`, `Xbi`).
    pub name: String,
    /// Head variables.
    pub head: Vec<String>,
    /// Body atoms.
    pub atoms: Vec<XBindAtom>,
    /// Whether the bindings should be deduplicated (`distinct(...)`).
    pub distinct: bool,
}

impl XBindQuery {
    /// An empty XBind query.
    pub fn new(name: &str) -> XBindQuery {
        XBindQuery { name: name.to_string(), head: Vec::new(), atoms: Vec::new(), distinct: false }
    }

    /// Builder: set the head variables.
    pub fn with_head(mut self, head: &[&str]) -> XBindQuery {
        self.head = head.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Builder: add an atom.
    pub fn with_atom(mut self, atom: XBindAtom) -> XBindQuery {
        self.atoms.push(atom);
        self
    }

    /// Builder: mark the query as duplicate-eliminating.
    pub fn with_distinct(mut self) -> XBindQuery {
        self.distinct = true;
        self
    }

    /// All variables of the query in first-occurrence order.
    pub fn variables(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for v in &self.head {
            if !out.contains(v) {
                out.push(v.clone());
            }
        }
        for a in &self.atoms {
            for v in a.all_vars() {
                if !out.iter().any(|x| x == v) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }

    /// Is the query safe (every head variable bound by some atom)?
    pub fn is_safe(&self) -> bool {
        self.head.iter().all(|h| self.atoms.iter().any(|a| a.bound_vars().contains(&h.as_str())))
    }

    /// Does a term of the query stand for a parameter? Only a canonical
    /// block ([`crate::QueryShape::canonical`]) holds one.
    pub fn has_param(&self) -> bool {
        let param = |t: &XBindTerm| matches!(t, XBindTerm::Param(_));
        self.atoms.iter().any(|a| match a {
            XBindAtom::Relational { args, .. } => args.iter().any(param),
            XBindAtom::Eq(a, b) | XBindAtom::Neq(a, b) => param(a) || param(b),
            XBindAtom::AbsolutePath { .. }
            | XBindAtom::RelativePath { .. }
            | XBindAtom::QueryRef { .. } => false,
        })
    }
}

impl fmt::Display for XBindQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) :- ", self.name, self.head.join(", "))?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// Build the two XBind queries of Example 2.1 — used by tests and docs across
/// the workspace.
pub fn example_2_1() -> (XBindQuery, XBindQuery) {
    use mars_xml::parse_path;
    let xbo = XBindQuery::new("Xbo").with_head(&["a"]).with_distinct().with_atom(
        XBindAtom::AbsolutePath {
            document: "books.xml".to_string(),
            path: parse_path("//author/text()").unwrap(),
            var: "a".to_string(),
        },
    );
    let xbi = XBindQuery::new("Xbi")
        .with_head(&["a", "b", "a1", "t"])
        .with_atom(XBindAtom::QueryRef { name: "Xbo".to_string(), vars: vec!["a".to_string()] })
        .with_atom(XBindAtom::AbsolutePath {
            document: "books.xml".to_string(),
            path: parse_path("//book").unwrap(),
            var: "b".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./author/text()").unwrap(),
            source: "b".to_string(),
            var: "a1".to_string(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: parse_path("./title").unwrap(),
            source: "b".to_string(),
            var: "t".to_string(),
        })
        .with_atom(XBindAtom::Eq(XBindTerm::var("a"), XBindTerm::var("a1")));
    (xbo, xbi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_2_1_structure() {
        let (xbo, xbi) = example_2_1();
        assert_eq!(xbo.head, vec!["a"]);
        assert!(xbo.distinct);
        assert!(xbo.is_safe());

        assert_eq!(xbi.head, vec!["a", "b", "a1", "t"]);
        assert_eq!(xbi.atoms.len(), 5);
        assert!(xbi.is_safe());
        assert_eq!(xbi.variables(), vec!["a", "b", "a1", "t"]);
    }

    #[test]
    fn safety_detects_unbound_head_variables() {
        let q = XBindQuery::new("Bad")
            .with_head(&["x"])
            .with_atom(XBindAtom::Eq(XBindTerm::var("x"), XBindTerm::str("c")));
        assert!(!q.is_safe());
    }

    #[test]
    fn display_formats() {
        let (xbo, xbi) = example_2_1();
        let s = format!("{xbo}");
        assert!(s.starts_with("Xbo(a) :- "));
        assert!(s.contains("//author/text()"));
        let s2 = format!("{xbi}");
        assert!(s2.contains("Xbo(a)"));
        assert!(s2.contains("a = a1"));
    }

    #[test]
    fn relational_atoms_bind_their_variables() {
        let a = XBindAtom::Relational {
            relation: "drugPrice".to_string(),
            args: vec![XBindTerm::var("d"), XBindTerm::var("p"), XBindTerm::str("usd")],
        };
        assert_eq!(a.bound_vars(), vec!["d", "p"]);
    }

    #[test]
    fn term_accessors() {
        assert_eq!(XBindTerm::var("x").as_var(), Some("x"));
        assert_eq!(XBindTerm::str("s").as_var(), None);
        assert_eq!(format!("{}", XBindTerm::str("s")), "\"s\"");
    }
}
