//! Decorrelation: XQuery = navigation part + tagging template.
//!
//! Following the sorted-outer-union approach (Section 2.1), each FLWR block of
//! the query becomes one decorrelated [`XBindQuery`]. An inner block's query
//! references the outer block's result (a `QueryRef` atom) and re-exports the
//! outer variables it uses, preserving the correlation between bindings
//! exactly as `Xbo`/`Xbi` do in Example 2.1. Element constructors and variable
//! references become the *tagging template*, which `mars-storage` uses to
//! assemble the XML result from the blocks' binding tables.

use crate::ast::{Condition, ForBinding, Operand, SourceExpr, XQueryExpr};
use crate::xbind::{XBindAtom, XBindQuery, XBindTerm};
use mars_xml::Path;

/// A node of the tagging template.
#[derive(Clone, Debug, PartialEq)]
pub enum TemplateNode {
    /// Construct an element with the given tag and children.
    Element {
        /// Tag name.
        tag: String,
        /// Children templates.
        children: Vec<TemplateNode>,
    },
    /// Emit the value bound to `var` by block `block`.
    VarText {
        /// Index of the XBind block binding the variable.
        block: usize,
        /// Variable name.
        var: String,
    },
    /// For each binding of block `block` (correlated with the enclosing
    /// block's bindings), instantiate the children.
    ForEach {
        /// Index of the XBind block iterated over.
        block: usize,
        /// Children templates instantiated per binding.
        children: Vec<TemplateNode>,
    },
    /// Literal text.
    Literal(String),
}

/// The tagging template of a query.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TaggingTemplate {
    /// Top-level template nodes.
    pub roots: Vec<TemplateNode>,
}

/// A decorrelated query: one XBind query per FLWR block plus the template.
#[derive(Clone, Debug, PartialEq)]
pub struct DecorrelatedQuery {
    /// The XBind blocks, outermost first. Block 0 may be a degenerate block
    /// with no atoms when the query has constant structure only.
    pub blocks: Vec<XBindQuery>,
    /// The tagging template referring to the blocks.
    pub template: TaggingTemplate,
}

impl DecorrelatedQuery {
    /// The navigation part: all non-degenerate blocks (what MARS reformulates).
    pub fn navigation(&self) -> Vec<&XBindQuery> {
        self.blocks.iter().filter(|b| !b.atoms.is_empty()).collect()
    }
}

struct Ctx<'d> {
    blocks: Vec<XBindQuery>,
    default_document: &'d str,
}

fn operand_to_term(op: &Operand<'_>) -> XBindTerm {
    match *op {
        Operand::Var(v) => XBindTerm::var(v),
        Operand::Str(s) => XBindTerm::str(s),
    }
}

/// Translate one FLWR block into an XBind query; returns the block index.
fn translate_flwr(
    ctx: &mut Ctx<'_>,
    bindings: &[ForBinding<'_>],
    conditions: &[Condition<'_>],
    parent: Option<usize>,
) -> usize {
    // Correlate with the parent block: import its head variables.
    let outer = parent.map(|p| &ctx.blocks[p]);
    let imported = outer.map_or(0, |o| o.head.len());
    let mut head: Vec<String> = Vec::with_capacity(imported + bindings.len());
    let mut atoms =
        Vec::with_capacity(usize::from(outer.is_some()) + bindings.len() + conditions.len());
    if let Some(outer) = outer {
        head.extend(outer.head.iter().cloned());
        atoms.push(XBindAtom::QueryRef { name: outer.name.clone(), vars: outer.head.clone() });
    }

    for b in bindings {
        atoms.push(match b.source {
            SourceExpr::AbsolutePath { document, path } => XBindAtom::AbsolutePath {
                document: document.unwrap_or(ctx.default_document).to_string(),
                path: path.to_path(),
                var: b.var.to_string(),
            },
            // The path after a variable navigates from the variable's node.
            SourceExpr::VarPath { var, path } => XBindAtom::RelativePath {
                path: Path::relative(path.to_path().steps),
                source: var.to_string(),
                var: b.var.to_string(),
            },
            SourceExpr::Var(v) => XBindAtom::Eq(XBindTerm::var(b.var), XBindTerm::var(v)),
        });
        head.push(b.var.to_string());
    }
    atoms.extend(conditions.iter().map(|c| match c {
        Condition::Eq(a, b) => XBindAtom::Eq(operand_to_term(a), operand_to_term(b)),
        Condition::Neq(a, b) => XBindAtom::Neq(operand_to_term(a), operand_to_term(b)),
    }));
    let name = format!("Xb{}", ctx.blocks.len());
    let distinct = bindings.iter().any(|b| b.distinct);
    ctx.blocks.push(XBindQuery { name, head, atoms, distinct });
    ctx.blocks.len() - 1
}

/// Translate a return/content expression into template nodes pushed onto
/// `out`, creating blocks for nested FLWRs. `block` is the index of the
/// enclosing block (providing the variables in scope).
fn translate_content(
    ctx: &mut Ctx<'_>,
    expr: &XQueryExpr<'_>,
    block: Option<usize>,
    out: &mut Vec<TemplateNode>,
) {
    match expr {
        XQueryExpr::Literal(s) => out.push(TemplateNode::Literal(s.to_string())),
        XQueryExpr::VarRef(v) => {
            out.push(TemplateNode::VarText { block: block.unwrap_or(0), var: v.to_string() })
        }
        XQueryExpr::Element { tag, children } => {
            let mut nodes = Vec::with_capacity(children.len());
            for c in children {
                translate_content(ctx, c, block, &mut nodes);
            }
            out.push(TemplateNode::Element { tag: tag.to_string(), children: nodes });
        }
        XQueryExpr::Sequence(items) => {
            for i in items {
                translate_content(ctx, i, block, out);
            }
        }
        XQueryExpr::Flwr { bindings, conditions, ret } => {
            let idx = translate_flwr(ctx, bindings, conditions, block);
            let mut children = Vec::with_capacity(1);
            translate_content(ctx, ret, Some(idx), &mut children);
            out.push(TemplateNode::ForEach { block: idx, children });
        }
    }
}

/// Decorrelate an XQuery into its navigation XBind queries and tagging
/// template. `default_document` names the public-schema document that
/// document-unqualified absolute paths navigate. Every name, literal and
/// path of the result is built once, from the borrowed tree.
pub fn decorrelate(query: &XQueryExpr<'_>, default_document: &str) -> DecorrelatedQuery {
    let mut ctx = Ctx { blocks: Vec::with_capacity(query.flwr_count()), default_document };
    let mut roots = Vec::with_capacity(1);
    translate_content(&mut ctx, query, None, &mut roots);
    DecorrelatedQuery { blocks: ctx.blocks, template: TaggingTemplate { roots } }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xquery;

    const EXAMPLE_2_1: &str = r#"<result>
        for $a in distinct(//author/text())
        return
          <item>
            <writer>$a</writer>
            {for $b in //book
                 $a1 in $b/author/text()
                 $t in $b/title
             where $a = $a1
             return $t}
          </item>
      </result>"#;

    #[test]
    fn example_2_1_produces_xbo_and_xbi() {
        let ast = parse_xquery(EXAMPLE_2_1).unwrap();
        let dec = decorrelate(&ast, "books.xml");
        assert_eq!(dec.blocks.len(), 2);

        // Outer block: Xb0(a) :- [//author/text()](a), distinct.
        let outer = &dec.blocks[0];
        assert_eq!(outer.head, vec!["a"]);
        assert!(outer.distinct);
        assert_eq!(outer.atoms.len(), 1);

        // Inner block: Xb1(a,b,a1,t) :- Xb0(a), [//book](b),
        //              [./author/text()](b,a1), [./title](b,t), a = a1.
        let inner = &dec.blocks[1];
        assert_eq!(inner.head, vec!["a", "b", "a1", "t"]);
        assert_eq!(inner.atoms.len(), 5);
        assert!(matches!(&inner.atoms[0], XBindAtom::QueryRef { name, vars }
            if name == "Xb0" && vars == &vec!["a".to_string()]));
        assert!(matches!(&inner.atoms[4], XBindAtom::Eq(a, b)
            if a == &XBindTerm::var("a") && b == &XBindTerm::var("a1")));
        assert!(inner.is_safe());
        assert_eq!(dec.navigation().len(), 2);
    }

    #[test]
    fn template_structure_references_blocks() {
        let ast = parse_xquery(EXAMPLE_2_1).unwrap();
        let dec = decorrelate(&ast, "books.xml");
        // <result> { foreach block0: <item><writer>{a}</writer> foreach block1: {t} </item> }
        assert_eq!(dec.template.roots.len(), 1);
        match &dec.template.roots[0] {
            TemplateNode::Element { tag, children } => {
                assert_eq!(tag, "result");
                match &children[0] {
                    TemplateNode::ForEach { block, children } => {
                        assert_eq!(*block, 0);
                        match &children[0] {
                            TemplateNode::Element { tag, children } => {
                                assert_eq!(tag, "item");
                                assert!(
                                    matches!(&children[0], TemplateNode::Element { tag, .. } if tag == "writer")
                                );
                                assert!(matches!(
                                    &children[1],
                                    TemplateNode::ForEach { block: 1, .. }
                                ));
                            }
                            other => panic!("unexpected template {other:?}"),
                        }
                    }
                    other => panic!("unexpected template {other:?}"),
                }
            }
            other => panic!("unexpected template {other:?}"),
        }
    }

    #[test]
    fn unqualified_paths_use_the_default_document() {
        let ast = parse_xquery("for $b in //book return <r>$b</r>").unwrap();
        let dec = decorrelate(&ast, "public.xml");
        match &dec.blocks[0].atoms[0] {
            XBindAtom::AbsolutePath { document, .. } => assert_eq!(document, "public.xml"),
            other => panic!("unexpected atom {other:?}"),
        }
    }

    #[test]
    fn document_qualified_paths_keep_their_document() {
        let ast =
            parse_xquery("for $d in document(\"catalog.xml\")//drug return <r>$d</r>").unwrap();
        let dec = decorrelate(&ast, "public.xml");
        match &dec.blocks[0].atoms[0] {
            XBindAtom::AbsolutePath { document, .. } => assert_eq!(document, "catalog.xml"),
            other => panic!("unexpected atom {other:?}"),
        }
    }

    #[test]
    fn constant_queries_have_no_navigation() {
        let ast = parse_xquery("<hello>world</hello>").unwrap();
        let dec = decorrelate(&ast, "d.xml");
        assert!(dec.blocks.is_empty());
        assert!(dec.navigation().is_empty());
        assert_eq!(dec.template.roots.len(), 1);
    }

    #[test]
    fn deeply_nested_blocks_chain_their_correlation() {
        let ast = parse_xquery(
            "for $a in //x return <o>{for $b in $a/y return <i>{for $c in $b/z return $c}</i>}</o>",
        )
        .unwrap();
        let dec = decorrelate(&ast, "d.xml");
        assert_eq!(dec.blocks.len(), 3);
        assert_eq!(dec.blocks[2].head, vec!["a", "b", "c"]);
        assert!(
            matches!(&dec.blocks[2].atoms[0], XBindAtom::QueryRef { name, .. } if name == "Xb1")
        );
    }
}
