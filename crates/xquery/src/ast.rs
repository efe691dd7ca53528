//! Abstract syntax of the XQuery fragment handled by the reproduction.
//!
//! The fragment covers what the paper's examples and the XMark-style workload
//! exercise: FLWR expressions with multiple `for` bindings, `where`
//! conjunctions of (in)equalities, element constructors with nested
//! (correlated) subqueries, `distinct(...)`, variable references and paths
//! rooted either at a document or at a variable.
//!
//! The tree borrows the query text: tags, variables, literals, documents and
//! paths are `&'a str` slices of it, and a path is [`PathText`], text the
//! parser checked against the XPath fragment. Decorrelation builds the owned
//! names and [`Path`]s of the XBind blocks from these slices, once each.

use mars_xml::{check_path, parse_path, Path, PathError};

/// A path as written in the query, checked against the XPath fragment by
/// the parser, the only maker of one. [`PathText::to_path`] parses it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathText<'a>(&'a str);

impl<'a> PathText<'a> {
    /// `text`, once [`check_path`] accepts it.
    pub(crate) fn checked(text: &'a str) -> Result<PathText<'a>, PathError> {
        check_path(text).map(|()| PathText(text))
    }

    /// The text, as written.
    pub fn as_str(&self) -> &'a str {
        self.0
    }

    /// The parsed path.
    pub fn to_path(&self) -> Path {
        parse_path(self.0).expect("the parser checked the path")
    }
}

/// The source of a `for` binding.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceExpr<'a> {
    /// An absolute path, optionally naming the document it navigates
    /// (`document("catalog.xml")//drug` or plain `//book`, which navigates
    /// the default document of the query).
    AbsolutePath {
        /// Explicit document, if `document("…")` was written.
        document: Option<&'a str>,
        /// The path.
        path: PathText<'a>,
    },
    /// A path starting from a previously bound variable (`$b/author/text()`).
    VarPath {
        /// The context variable (without `$`).
        var: &'a str,
        /// The path after the variable (`/author/text()`), which navigates
        /// from the variable's node.
        path: PathText<'a>,
    },
    /// A bare variable reference (`$a`).
    Var(&'a str),
}

/// One `for $v in source` binding. `distinct` is true when the source was
/// wrapped in `distinct(...)`.
#[derive(Clone, Debug, PartialEq)]
pub struct ForBinding<'a> {
    /// Bound variable (without `$`).
    pub var: &'a str,
    /// Source expression.
    pub source: SourceExpr<'a>,
    /// Whether duplicates are eliminated.
    pub distinct: bool,
}

/// An operand of a `where` comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand<'a> {
    /// A variable.
    Var(&'a str),
    /// A string literal.
    Str(&'a str),
}

/// A `where` condition.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition<'a> {
    /// `a = b`
    Eq(Operand<'a>, Operand<'a>),
    /// `a != b`
    Neq(Operand<'a>, Operand<'a>),
}

/// An XQuery expression, borrowing its names, literals and paths from the
/// query text.
#[derive(Clone, Debug, PartialEq)]
pub enum XQueryExpr<'a> {
    /// An element constructor `<tag> children </tag>`.
    Element {
        /// Tag of the constructed element.
        tag: &'a str,
        /// Content, in order.
        children: Vec<XQueryExpr<'a>>,
    },
    /// A FLWR block.
    Flwr {
        /// `for` bindings, in order.
        bindings: Vec<ForBinding<'a>>,
        /// Conjunction of `where` conditions.
        conditions: Vec<Condition<'a>>,
        /// The `return` expression.
        ret: Box<XQueryExpr<'a>>,
    },
    /// A variable reference in content position (`$a`).
    VarRef(&'a str),
    /// Literal text content.
    Literal(&'a str),
    /// A sequence of expressions (element content with several items).
    Sequence(Vec<XQueryExpr<'a>>),
}

impl<'a> XQueryExpr<'a> {
    /// Count the FLWR blocks in the expression (used to check decorrelation:
    /// one XBind query per block).
    pub fn flwr_count(&self) -> usize {
        match self {
            XQueryExpr::Flwr { ret, .. } => 1 + ret.flwr_count(),
            XQueryExpr::Element { children, .. } | XQueryExpr::Sequence(children) => {
                children.iter().map(XQueryExpr::flwr_count).sum()
            }
            XQueryExpr::VarRef(_) | XQueryExpr::Literal(_) => 0,
        }
    }

    /// All variables bound by `for` clauses anywhere in the expression.
    pub fn bound_variables(&self) -> Vec<&'a str> {
        let mut out = Vec::new();
        self.collect_bound(&mut out);
        out
    }

    fn collect_bound(&self, out: &mut Vec<&'a str>) {
        match self {
            XQueryExpr::Flwr { bindings, ret, .. } => {
                for b in bindings {
                    out.push(b.var);
                }
                ret.collect_bound(out);
            }
            XQueryExpr::Element { children, .. } | XQueryExpr::Sequence(children) => {
                for c in children {
                    c.collect_bound(out);
                }
            }
            XQueryExpr::VarRef(_) | XQueryExpr::Literal(_) => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn path(text: &str) -> PathText<'_> {
        PathText::checked(text).unwrap()
    }

    /// Hand-build the Example 2.1 query AST.
    pub(crate) fn example_2_1_ast() -> XQueryExpr<'static> {
        let inner = XQueryExpr::Flwr {
            bindings: vec![
                ForBinding {
                    var: "b",
                    source: SourceExpr::AbsolutePath { document: None, path: path("//book") },
                    distinct: false,
                },
                ForBinding {
                    var: "a1",
                    source: SourceExpr::VarPath { var: "b", path: path("/author/text()") },
                    distinct: false,
                },
                ForBinding {
                    var: "t",
                    source: SourceExpr::VarPath { var: "b", path: path("/title") },
                    distinct: false,
                },
            ],
            conditions: vec![Condition::Eq(Operand::Var("a"), Operand::Var("a1"))],
            ret: Box::new(XQueryExpr::VarRef("t")),
        };
        XQueryExpr::Element {
            tag: "result",
            children: vec![XQueryExpr::Flwr {
                bindings: vec![ForBinding {
                    var: "a",
                    source: SourceExpr::AbsolutePath {
                        document: None,
                        path: path("//author/text()"),
                    },
                    distinct: true,
                }],
                conditions: vec![],
                ret: Box::new(XQueryExpr::Element {
                    tag: "item",
                    children: vec![
                        XQueryExpr::Element {
                            tag: "writer",
                            children: vec![XQueryExpr::VarRef("a")],
                        },
                        inner,
                    ],
                }),
            }],
        }
    }

    #[test]
    fn flwr_counting_and_bound_variables() {
        let q = example_2_1_ast();
        assert_eq!(q.flwr_count(), 2);
        assert_eq!(q.bound_variables(), vec!["a", "b", "a1", "t"]);
    }

    #[test]
    fn only_checked_text_makes_a_path() {
        let p = path("/author/text()");
        assert_eq!(p.as_str(), "/author/text()");
        assert_eq!(p.to_path().to_string(), "/author/text()");
        let err = PathText::checked("//b//text()").unwrap_err();
        assert_eq!(err.message, "`//text()` is not supported");
    }

    #[test]
    fn literals_and_sequences() {
        let e = XQueryExpr::Sequence(vec![XQueryExpr::Literal("hello"), XQueryExpr::VarRef("x")]);
        assert_eq!(e.flwr_count(), 0);
        assert!(e.bound_variables().is_empty());
    }
}
