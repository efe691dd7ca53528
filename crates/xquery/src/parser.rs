//! Recursive-descent parser for the XQuery fragment.
//!
//! Grammar (informal):
//!
//! ```text
//! expr        := element | flwr | '$'name | string-literal
//! element     := '<' tag '>' content* '</' tag '>'
//! content     := element | '{' expr '}' | '$'name | text
//! flwr        := 'for' binding (',' binding)* ('where' cond ('and' cond)*)? 'return' expr
//! binding     := '$'name 'in' source
//! source      := 'distinct' '(' source ')' | 'document' '(' string ')' path
//!              | path | '$'name path | '$'name
//! cond        := operand ('=' | '!=') operand
//! operand     := '$'name | string-literal
//! ```
//!
//! The parser slices the input: the tree it returns borrows every tag,
//! variable, literal and path from the query text, and allocates only its
//! own vectors and boxes. A path is checked against the XPath fragment here
//! ([`check_path`](mars_xml::check_path)) and parsed by decorrelation.

use crate::ast::{Condition, ForBinding, Operand, PathText, SourceExpr, XQueryExpr};
use std::fmt;

/// XQuery parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XQueryParseError {
    /// Byte offset.
    pub offset: usize,
    /// Message.
    pub message: String,
}

impl fmt::Display for XQueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XQuery parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XQueryParseError {}

struct P<'a> {
    input: &'a str,
    s: &'a [u8],
    pos: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, m: &str) -> Result<T, XQueryParseError> {
        Err(XQueryParseError { offset: self.pos, message: m.to_string() })
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.pos), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn starts(&self, kw: &str) -> bool {
        self.s[self.pos..].starts_with(kw.as_bytes())
    }

    fn keyword(&mut self, kw: &str) -> bool {
        self.ws();
        if self.starts(kw) {
            let after = self.pos + kw.len();
            let boundary = match self.s.get(after) {
                Some(c) => !c.is_ascii_alphanumeric() && *c != b'_',
                None => true,
            };
            if boundary || !kw.chars().all(|c| c.is_ascii_alphanumeric()) {
                self.pos = after;
                return true;
            }
        }
        false
    }

    fn expect(&mut self, tok: &str) -> Result<(), XQueryParseError> {
        self.ws();
        if self.starts(tok) {
            self.pos += tok.len();
            Ok(())
        } else {
            self.err(&format!("expected '{tok}'"))
        }
    }

    /// `input[start..self.pos]`. The parser steps over a non-ASCII byte only
    /// in a run that it ends at an ASCII byte or at the end of the input, so
    /// every position is a character boundary and the slice never panics.
    fn since(&self, start: usize) -> &'a str {
        &self.input[start..self.pos]
    }

    fn name(&mut self) -> Result<&'a str, XQueryParseError> {
        self.ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(self.since(start))
    }

    fn variable(&mut self) -> Result<&'a str, XQueryParseError> {
        self.expect("$")?;
        self.name()
    }

    fn string_literal(&mut self) -> Result<&'a str, XQueryParseError> {
        self.ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected string literal"),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                break;
            }
            self.pos += 1;
        }
        if self.peek() != Some(quote) {
            return self.err("unterminated string literal");
        }
        let out = self.since(start);
        self.pos += 1;
        Ok(out)
    }

    /// Read a path token: a maximal run of path characters, checked against
    /// the XPath fragment.
    fn path(&mut self) -> Result<PathText<'a>, XQueryParseError> {
        self.ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric()
                || matches!(c, b'/' | b'_' | b'-' | b'.' | b'@' | b'*' | b'(' | b')')
            {
                // Only the parentheses of `text()` belong to the path: stop at
                // any other '(' and at a ')' that does not close an empty pair
                // (so `distinct(//a/text())` leaves its final ')' unconsumed).
                if c == b'(' && !self.s[start..self.pos].ends_with(b"text") {
                    break;
                }
                if c == b')' && self.s.get(self.pos.wrapping_sub(1)) != Some(&b'(') {
                    break;
                }
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a path");
        }
        PathText::checked(self.since(start))
            .map_err(|e| XQueryParseError { offset: self.pos, message: e.message })
    }

    fn source(&mut self) -> Result<(SourceExpr<'a>, bool), XQueryParseError> {
        self.ws();
        if self.keyword("distinct") {
            self.expect("(")?;
            let (inner, _) = self.source()?;
            self.expect(")")?;
            return Ok((inner, true));
        }
        if self.keyword("document") {
            self.expect("(")?;
            let doc = self.string_literal()?;
            self.expect(")")?;
            let path = self.path()?;
            return Ok((SourceExpr::AbsolutePath { document: Some(doc), path }, false));
        }
        if self.peek() == Some(b'$') {
            let var = self.variable()?;
            // Optional trailing path.
            if self.peek() == Some(b'/') {
                let path = self.path()?;
                return Ok((SourceExpr::VarPath { var, path }, false));
            }
            return Ok((SourceExpr::Var(var), false));
        }
        let path = self.path()?;
        Ok((SourceExpr::AbsolutePath { document: None, path }, false))
    }

    fn operand(&mut self) -> Result<Operand<'a>, XQueryParseError> {
        self.ws();
        if self.peek() == Some(b'$') {
            Ok(Operand::Var(self.variable()?))
        } else {
            Ok(Operand::Str(self.string_literal()?))
        }
    }

    fn condition(&mut self) -> Result<Condition<'a>, XQueryParseError> {
        let left = self.operand()?;
        self.ws();
        if self.starts("!=") {
            self.pos += 2;
            Ok(Condition::Neq(left, self.operand()?))
        } else if self.peek() == Some(b'=') {
            self.pos += 1;
            Ok(Condition::Eq(left, self.operand()?))
        } else {
            self.err("expected '=' or '!='")
        }
    }

    fn flwr(&mut self) -> Result<XQueryExpr<'a>, XQueryParseError> {
        // 'for' has been consumed by the caller.
        let mut bindings = Vec::new();
        loop {
            let var = self.variable()?;
            self.ws();
            if !self.keyword("in") {
                return self.err("expected 'in'");
            }
            let (source, distinct) = self.source()?;
            bindings.push(ForBinding { var, source, distinct });
            self.ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
                continue;
            }
            // XQuery also allows juxtaposed `$x in ...` without comma, as in
            // the paper's Example 2.1 listing.
            self.ws();
            if self.peek() == Some(b'$') {
                continue;
            }
            break;
        }
        let mut conditions = Vec::new();
        if self.keyword("where") {
            loop {
                conditions.push(self.condition()?);
                if !self.keyword("and") {
                    break;
                }
            }
        }
        if !self.keyword("return") {
            return self.err("expected 'return'");
        }
        let ret = self.expr()?;
        Ok(XQueryExpr::Flwr { bindings, conditions, ret: Box::new(ret) })
    }

    fn element(&mut self) -> Result<XQueryExpr<'a>, XQueryParseError> {
        self.expect("<")?;
        let tag = self.name()?;
        self.ws();
        if self.starts("/>") {
            self.pos += 2;
            return Ok(XQueryExpr::Element { tag, children: Vec::new() });
        }
        self.expect(">")?;
        let mut children = Vec::new();
        loop {
            self.ws();
            if self.starts("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != tag {
                    return self.err(&format!("mismatched </{close}>, expected </{tag}>"));
                }
                self.expect(">")?;
                break;
            }
            // The paper writes FLWR blocks directly inside element
            // constructors without enclosing braces; accept that too.
            if self.starts("for")
                && matches!(self.s.get(self.pos + 3), Some(b' ' | b'\n' | b'\t' | b'\r'))
            {
                self.pos += 3;
                children.push(self.flwr()?);
                continue;
            }
            match self.peek() {
                Some(b'<') => children.push(self.element()?),
                Some(b'{') => {
                    self.pos += 1;
                    children.push(self.expr()?);
                    self.expect("}")?;
                }
                Some(b'$') => children.push(XQueryExpr::VarRef(self.variable()?)),
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if matches!(c, b'<' | b'{' | b'$') {
                            break;
                        }
                        self.pos += 1;
                    }
                    let text = self.since(start).trim();
                    if !text.is_empty() {
                        children.push(XQueryExpr::Literal(text));
                    }
                }
                None => return self.err("unexpected end of input in element"),
            }
        }
        Ok(XQueryExpr::Element { tag, children })
    }

    fn expr(&mut self) -> Result<XQueryExpr<'a>, XQueryParseError> {
        self.ws();
        if self.keyword("for") {
            return self.flwr();
        }
        match self.peek() {
            Some(b'<') => self.element(),
            Some(b'$') => Ok(XQueryExpr::VarRef(self.variable()?)),
            Some(b'"') | Some(b'\'') => Ok(XQueryExpr::Literal(self.string_literal()?)),
            _ => self.err("expected an expression"),
        }
    }
}

/// Parse an XQuery from the supported fragment. The tree borrows its names,
/// literals and paths from `input`.
pub fn parse_xquery(input: &str) -> Result<XQueryExpr<'_>, XQueryParseError> {
    let mut p = P { input, s: input.as_bytes(), pos: 0 };
    let e = p.expr()?;
    p.ws();
    if p.peek().is_some() {
        return p.err("trailing input after expression");
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact query Q of Example 2.1 (modulo whitespace).
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
    fn parse_example_2_1() {
        let q = parse_xquery(EXAMPLE_2_1).unwrap();
        assert_eq!(q.flwr_count(), 2);
        assert_eq!(q.bound_variables(), vec!["a", "b", "a1", "t"]);
        // Check the distinct flag and the nested structure.
        if let XQueryExpr::Element { tag, children } = &q {
            assert_eq!(*tag, "result");
            if let XQueryExpr::Flwr { bindings, conditions, ret } = &children[0] {
                assert!(bindings[0].distinct);
                assert!(conditions.is_empty());
                if let XQueryExpr::Element { tag, children } = ret.as_ref() {
                    assert_eq!(*tag, "item");
                    assert_eq!(children.len(), 2);
                } else {
                    panic!("return of outer block should be <item>");
                }
            } else {
                panic!("first child should be a FLWR");
            }
        } else {
            panic!("query should be an element constructor");
        }
    }

    #[test]
    fn the_tree_of_example_2_1_is_the_hand_built_one() {
        assert_eq!(parse_xquery(EXAMPLE_2_1).unwrap(), crate::ast::tests::example_2_1_ast());
    }

    #[test]
    fn the_tree_borrows_the_text() {
        let text = String::from(r#"for $x in $y/a/@b where $x = "é" return <r>ü $x</r>"#);
        let q = parse_xquery(&text).unwrap();
        let range = text.as_bytes().as_ptr_range();
        let borrowed = |s: &str| range.contains(&s.as_ptr());
        let XQueryExpr::Flwr { bindings, conditions, ret } = &q else { panic!("expected FLWR") };
        let SourceExpr::VarPath { var, path } = bindings[0].source else { panic!() };
        assert_eq!((bindings[0].var, var, path.as_str()), ("x", "y", "/a/@b"));
        assert!([bindings[0].var, var, path.as_str()].into_iter().all(borrowed));
        assert_eq!(conditions[0], Condition::Eq(Operand::Var("x"), Operand::Str("é")));
        let XQueryExpr::Element { tag, children } = ret.as_ref() else { panic!("expected <r>") };
        assert_eq!(children[0], XQueryExpr::Literal("ü"));
        assert!(borrowed(tag));
    }

    #[test]
    fn parse_document_function_and_where() {
        let q = parse_xquery(
            r#"for $d in document("catalog.xml")//drug
                   $p in $d/price/text()
               where $p != "0"
               return <cheap>$p</cheap>"#,
        )
        .unwrap();
        if let XQueryExpr::Flwr { bindings, conditions, .. } = &q {
            assert_eq!(bindings.len(), 2);
            match &bindings[0].source {
                SourceExpr::AbsolutePath { document, path } => {
                    assert_eq!(*document, Some("catalog.xml"));
                    assert_eq!(path.as_str(), "//drug");
                    assert_eq!(path.to_path().to_string(), "//drug");
                }
                other => panic!("unexpected source {other:?}"),
            }
            assert_eq!(conditions.len(), 1);
        } else {
            panic!("expected FLWR");
        }
    }

    #[test]
    fn parse_self_closing_and_literals() {
        let q = parse_xquery("<empty/>").unwrap();
        assert_eq!(q, XQueryExpr::Element { tag: "empty", children: vec![] });
        let q2 = parse_xquery("<greet>hello</greet>").unwrap();
        if let XQueryExpr::Element { children, .. } = q2 {
            assert_eq!(children, vec![XQueryExpr::Literal("hello")]);
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_xquery("for $x in").is_err());
        assert!(parse_xquery("<a><b></a>").is_err());
        assert!(parse_xquery("for $x //book return $x").is_err());
        assert!(parse_xquery("<a/>junk").is_err());
        let err = parse_xquery("for $x in //b where $x return $x").unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn multiple_where_conditions() {
        let q =
            parse_xquery("for $x in //a $y in //b where $x = $y and $x != \"z\" return <r>$x</r>")
                .unwrap();
        if let XQueryExpr::Flwr { conditions, .. } = q {
            assert_eq!(conditions.len(), 2);
        } else {
            panic!();
        }
    }
}
