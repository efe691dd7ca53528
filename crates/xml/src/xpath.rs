//! The XPath fragment used by MARS.
//!
//! XBind queries and XICs use predicates `[p](x, y)` defined by XPath
//! expressions (Section 2.1). The fragment needed by the paper consists of
//! child steps (`/name`), descendant steps (`//name`), wildcards (`*`),
//! `text()` and attribute steps (`@name`), either *absolute* (starting at the
//! document root) or *relative* (starting at a context node, written with a
//! leading `.`).

use crate::doc::{Document, NodeId};
use std::fmt;

/// A single navigation step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// `/name` — child element with the given tag.
    Child(String),
    /// `//name` — descendant element with the given tag.
    Descendant(String),
    /// `/*` — any child element.
    ChildAny,
    /// `//*` — any descendant element.
    DescendantAny,
    /// `/text()` — the concatenated text of the context node.
    Text,
    /// `/@name` — the value of the given attribute.
    Attribute(String),
}

/// A parsed XPath expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    /// True if the path starts at the document root (e.g. `//book`,
    /// `/catalog/drug`), false if it is relative to a context node
    /// (e.g. `./title`, `.//price`).
    pub absolute: bool,
    /// The steps, in order.
    pub steps: Vec<Step>,
}

impl Path {
    /// A relative path with the given steps.
    pub fn relative(steps: Vec<Step>) -> Path {
        Path { absolute: false, steps }
    }

    /// An absolute path with the given steps.
    pub fn absolute(steps: Vec<Step>) -> Path {
        Path { absolute: true, steps }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Is the path empty (`.`)?
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Does the path end in a value step (`text()` or attribute)?
    pub fn returns_value(&self) -> bool {
        matches!(self.steps.last(), Some(Step::Text) | Some(Step::Attribute(_)))
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.absolute {
            write!(f, ".")?;
        }
        for s in &self.steps {
            match s {
                Step::Child(n) => write!(f, "/{n}")?,
                Step::Descendant(n) => write!(f, "//{n}")?,
                Step::ChildAny => write!(f, "/*")?,
                Step::DescendantAny => write!(f, "//*")?,
                Step::Text => write!(f, "/text()")?,
                Step::Attribute(n) => write!(f, "/@{n}")?,
            }
        }
        Ok(())
    }
}

/// XPath parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error: {}", self.message)
    }
}

impl std::error::Error for PathError {}

/// Parse an XPath expression from the fragment described above.
pub fn parse_path(input: &str) -> Result<Path, PathError> {
    let (absolute, mut scanner) = scan(input)?;
    let mut steps = Vec::new();
    while let Some(step) = scanner.next_step()? {
        steps.push(step.to_step());
    }
    Ok(Path { absolute, steps })
}

/// Check that `input` is an XPath expression of the fragment, building
/// nothing: `check_path(input)` is `Ok` exactly when [`parse_path`] is, and
/// fails with the same error.
pub fn check_path(input: &str) -> Result<(), PathError> {
    let (_, mut scanner) = scan(input)?;
    while scanner.next_step()?.is_some() {}
    Ok(())
}

/// A step as written, borrowing its name from the path text.
enum RawStep<'a> {
    Child(&'a str),
    Descendant(&'a str),
    ChildAny,
    DescendantAny,
    Text,
    Attribute(&'a str),
}

impl RawStep<'_> {
    fn to_step(&self) -> Step {
        match *self {
            RawStep::Child(name) => Step::Child(name.to_string()),
            RawStep::Descendant(name) => Step::Descendant(name.to_string()),
            RawStep::ChildAny => Step::ChildAny,
            RawStep::DescendantAny => Step::DescendantAny,
            RawStep::Text => Step::Text,
            RawStep::Attribute(name) => Step::Attribute(name.to_string()),
        }
    }
}

/// The tokenizer of the fragment: the steps of a path not yet read.
struct Scanner<'a> {
    rest: &'a str,
    /// The next step has no leading `/`: the first step of a bare name.
    bare: bool,
    /// A value step (`text()`, `@name`) was read: it must be the last.
    ended: bool,
}

/// Start scanning `input`: whether the path is absolute, and its steps.
fn scan(input: &str) -> Result<(bool, Scanner<'_>), PathError> {
    let s = input.trim();
    if s.is_empty() {
        return Err(PathError { message: "empty path".to_string() });
    }
    Ok(if let Some(rest) = s.strip_prefix('.') {
        (false, Scanner { rest, bare: false, ended: false })
    } else if s.starts_with('/') {
        (true, Scanner { rest: s, bare: false, ended: false })
    } else {
        // A bare name like `book` is treated as a relative child step.
        (false, Scanner { rest: s, bare: true, ended: false })
    })
}

impl<'a> Scanner<'a> {
    /// The next step, or `None` at the end of the path.
    fn next_step(&mut self) -> Result<Option<RawStep<'a>>, PathError> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        if self.ended {
            let message = format!("no step may follow `text()` or `@attr`: '{}'", self.rest);
            return Err(PathError { message });
        }
        let descendant = if std::mem::take(&mut self.bare) {
            false
        } else if let Some(rest) = self.rest.strip_prefix("//") {
            self.rest = rest;
            true
        } else if let Some(rest) = self.rest.strip_prefix('/') {
            self.rest = rest;
            false
        } else {
            return Err(PathError { message: format!("expected '/' near '{}'", self.rest) });
        };
        let end = self.rest.find('/').unwrap_or(self.rest.len());
        let (token, rest) = self.rest.split_at(end);
        self.rest = rest;
        if token.is_empty() {
            return Err(PathError { message: "empty step".to_string() });
        }
        let step = if token == "text()" {
            if descendant {
                return Err(PathError { message: "`//text()` is not supported".to_string() });
            }
            self.ended = true;
            RawStep::Text
        } else if let Some(attr) = token.strip_prefix('@') {
            if descendant {
                return Err(PathError { message: "`//@attr` is not supported".to_string() });
            }
            if attr.is_empty() {
                return Err(PathError { message: "attribute step without a name".to_string() });
            }
            self.ended = true;
            RawStep::Attribute(attr)
        } else if token == "*" {
            if descendant {
                RawStep::DescendantAny
            } else {
                RawStep::ChildAny
            }
        } else if token.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.') {
            if descendant {
                RawStep::Descendant(token)
            } else {
                RawStep::Child(token)
            }
        } else {
            return Err(PathError { message: format!("unsupported step '{token}'") });
        };
        Ok(Some(step))
    }
}

/// A value produced by evaluating a path: either an element node or a string
/// (text content / attribute value).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PathValue {
    /// An element node.
    Node(NodeId),
    /// A string value.
    Text(String),
}

impl PathValue {
    /// The node inside, if any.
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            PathValue::Node(n) => Some(*n),
            PathValue::Text(_) => None,
        }
    }

    /// The string inside, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            PathValue::Text(s) => Some(s),
            PathValue::Node(_) => None,
        }
    }
}

/// Evaluate a path over a document. For absolute paths the context is the
/// root element; relative paths require `context` to be provided.
pub fn eval_path(doc: &Document, path: &Path, context: Option<NodeId>) -> Vec<PathValue> {
    let start: Vec<NodeId> = if path.absolute {
        doc.root().into_iter().collect()
    } else {
        context.into_iter().collect()
    };
    let mut current: Vec<PathValue> = start.into_iter().map(PathValue::Node).collect();
    for (si, step) in path.steps.iter().enumerate() {
        let mut next = Vec::new();
        for v in &current {
            let node = match v {
                PathValue::Node(n) => *n,
                // Value steps must be last; anything after them yields nothing.
                PathValue::Text(_) => continue,
            };
            match step {
                Step::Child(name) => {
                    // The first step of an absolute path also matches the root
                    // element itself (`/catalog/...` addresses the root tag).
                    if path.absolute && si == 0 && doc.node(node).tag() == Some(name.as_str()) {
                        next.push(PathValue::Node(node));
                    }
                    next.extend(doc.children_with_tag(node, name).map(PathValue::Node));
                }
                Step::ChildAny => {
                    next.extend(doc.child_elements(node).map(PathValue::Node));
                }
                Step::Descendant(name) => {
                    let pool = if path.absolute && si == 0 {
                        doc.descendants_or_self(node)
                    } else {
                        doc.descendants(node)
                    };
                    next.extend(
                        pool.filter(|n| doc.node(*n).tag() == Some(name.as_str()))
                            .map(PathValue::Node),
                    );
                }
                Step::DescendantAny => {
                    let pool = if path.absolute && si == 0 {
                        doc.descendants_or_self(node)
                    } else {
                        doc.descendants(node)
                    };
                    next.extend(pool.map(PathValue::Node));
                }
                Step::Text => {
                    next.push(PathValue::Text(doc.text_of(node)));
                }
                Step::Attribute(name) => {
                    if let Some(v) = doc.attribute(node, name) {
                        next.push(PathValue::Text(v.to_string()));
                    }
                }
            }
        }
        current = next;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;
    use proptest::prelude::*;

    fn books() -> Document {
        parse_document(
            "books.xml",
            r#"<bib>
                 <book year="1994"><title>TCP/IP</title><author>Stevens</author></book>
                 <book year="2000">
                   <title>Data on the Web</title>
                   <author>Abiteboul</author><author>Buneman</author><author>Suciu</author>
                 </book>
               </bib>"#,
        )
        .unwrap()
    }

    #[test]
    fn parse_various_paths() {
        assert_eq!(
            parse_path("//author/text()").unwrap(),
            Path::absolute(vec![Step::Descendant("author".into()), Step::Text])
        );
        assert_eq!(
            parse_path("./title").unwrap(),
            Path::relative(vec![Step::Child("title".into())])
        );
        assert_eq!(
            parse_path(".//price").unwrap(),
            Path::relative(vec![Step::Descendant("price".into())])
        );
        assert_eq!(
            parse_path("/bib/book/@year").unwrap(),
            Path::absolute(vec![
                Step::Child("bib".into()),
                Step::Child("book".into()),
                Step::Attribute("year".into())
            ])
        );
        assert_eq!(parse_path("book").unwrap(), Path::relative(vec![Step::Child("book".into())]));
        assert_eq!(parse_path(".").unwrap(), Path::relative(vec![]));
        assert_eq!(parse_path("//*").unwrap(), Path::absolute(vec![Step::DescendantAny]));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_path("").is_err());
        assert!(parse_path("//text()").is_err());
        assert!(parse_path("/a//@x").is_err());
        assert!(parse_path("/a/b[1]").is_err());
        assert!(parse_path("a//").is_err());
        assert!(parse_path("/a/@").is_err(), "an attribute step needs a name");
        for after_a_value in ["/a/@/b", "/a/@x/b", "/a/text()/b", "./text()/@x", "/a/@x/"] {
            assert!(parse_path(after_a_value).is_err(), "{after_a_value:?}");
        }
        for text in [
            "",
            ".x",
            "/",
            "a//",
            "//text()",
            "/a//@x",
            "/a/b[1]",
            "./title/text()",
            "/a/@",
            "/a/@/b",
            "/a/text()/b",
        ] {
            assert_eq!(check_path(text), parse_path(text).map(drop), "{text:?}");
        }
    }

    /// A string over the fragment's characters, `text`, and one non-ASCII
    /// letter, so that every error of the tokenizer is reachable.
    fn path_like(rng: &mut TestRng) -> String {
        const PIECES: [&str; 13] =
            ["/", "/", "//", ".", "@", "*", "(", ")", "text", "a", "bc", "_-", "é"];
        let len = rng.next_u64() % 9;
        (0..len).map(|_| PIECES[(rng.next_u64() % PIECES.len() as u64) as usize]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn check_path_agrees_with_parse_path(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            for _ in 0..16 {
                let text = path_like(&mut rng);
                prop_assert_eq!(check_path(&text), parse_path(&text).map(drop), "{:?}", text);
            }
        }
    }

    #[test]
    fn display_round_trip() {
        for p in ["//author/text()", "./title", ".//price", "/bib/book/@year", "//*"] {
            let parsed = parse_path(p).unwrap();
            assert_eq!(parse_path(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn eval_descendant_and_text() {
        let doc = books();
        let authors = eval_path(&doc, &parse_path("//author/text()").unwrap(), None);
        let names: Vec<&str> = authors.iter().filter_map(|v| v.as_text()).collect();
        assert_eq!(names, vec!["Stevens", "Abiteboul", "Buneman", "Suciu"]);
    }

    #[test]
    fn eval_relative_from_context() {
        let doc = books();
        let book_nodes = eval_path(&doc, &parse_path("//book").unwrap(), None);
        assert_eq!(book_nodes.len(), 2);
        let second = book_nodes[1].as_node().unwrap();
        let titles = eval_path(&doc, &parse_path("./title/text()").unwrap(), Some(second));
        assert_eq!(titles[0].as_text(), Some("Data on the Web"));
        let authors = eval_path(&doc, &parse_path("./author").unwrap(), Some(second));
        assert_eq!(authors.len(), 3);
    }

    #[test]
    fn eval_attributes_and_root_addressing() {
        let doc = books();
        let years = eval_path(&doc, &parse_path("/bib/book/@year").unwrap(), None);
        let ys: Vec<&str> = years.iter().filter_map(|v| v.as_text()).collect();
        assert_eq!(ys, vec!["1994", "2000"]);
        // Absolute root addressing: /bib matches the root element.
        let bib = eval_path(&doc, &parse_path("/bib").unwrap(), None);
        assert_eq!(bib.len(), 1);
    }

    #[test]
    fn eval_wildcards() {
        let doc = books();
        let all = eval_path(&doc, &parse_path("//*").unwrap(), None);
        assert_eq!(all.len(), doc.element_count()); // descendant-or-self of root
        let book_children = eval_path(&doc, &parse_path("/bib/book/*").unwrap(), None);
        assert_eq!(book_children.len(), 6);
    }

    #[test]
    fn relative_path_without_context_is_empty() {
        let doc = books();
        assert!(eval_path(&doc, &parse_path("./title").unwrap(), None).is_empty());
    }

    #[test]
    fn value_steps_are_terminal() {
        let doc = books();
        // A (nonsensical) path continuing after text() yields nothing rather
        // than panicking.
        let p = Path::absolute(vec![
            Step::Descendant("author".into()),
            Step::Text,
            Step::Child("x".into()),
        ]);
        assert!(eval_path(&doc, &p, None).is_empty());
    }
}
