//! A small hand-written XML parser.
//!
//! Supports the subset of XML needed by the reproduction: elements,
//! attributes, text content, comments and an optional XML declaration.
//! No namespaces, CDATA, processing instructions or DTD internal subsets —
//! none of the paper's documents need them.

use crate::doc::{unescape, Document, NodeId};
use std::fmt;

/// Parse error with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error occurred.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser { text: input, input: input.as_bytes(), pos: 0 }
    }

    fn error<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.to_string() })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                match self.input[self.pos..].windows(2).position(|w| w == b"?>") {
                    Some(rel) => self.pos += rel + 2,
                    None => return self.error("unterminated processing instruction"),
                }
            } else if self.starts_with("<!--") {
                match self.input[self.pos..].windows(3).position(|w| w == b"-->") {
                    Some(rel) => self.pos += rel + 3,
                    None => return self.error("unterminated comment"),
                }
            } else if self.starts_with("<!DOCTYPE") {
                match self.input[self.pos..].iter().position(|&b| b == b'>') {
                    Some(rel) => self.pos += rel + 1,
                    None => return self.error("unterminated DOCTYPE"),
                }
            } else {
                return Ok(());
            }
        }
    }

    fn read_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c == b':' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.error("expected a name");
        }
        Ok(&self.text[start..self.pos])
    }

    fn read_attribute(&mut self) -> Result<(&'a str, String), ParseError> {
        let name = self.read_name()?;
        self.skip_ws();
        if self.peek() != Some(b'=') {
            return self.error("expected '=' in attribute");
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.error("expected quoted attribute value"),
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
            return self.error("unterminated attribute value");
        }
        let value = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
        self.pos += 1;
        Ok((name, unescape(&value)))
    }

    /// Parse the root element and everything in it (after `<` has been seen
    /// at `self.pos`). The elements still open are a stack on the heap, so
    /// nesting costs no call stack.
    fn parse_root(&mut self, doc: &mut Document) -> Result<(), ParseError> {
        let mut open: Vec<OpenElement<'a>> = Vec::new();
        loop {
            // `self.pos` is at the `<` of a start tag.
            let parent = open.last().map(|open| open.node);
            open.extend(self.start_tag(doc, parent)?);
            // Content, up to the next start tag.
            loop {
                let Some(&OpenElement { node, tag, content }) = open.last() else {
                    return Ok(());
                };
                if self.starts_with("<!--") {
                    match self.input[self.pos..].windows(3).position(|w| w == b"-->") {
                        Some(rel) => self.pos += rel + 3,
                        None => return self.error("unterminated comment"),
                    }
                    continue;
                }
                if self.starts_with("</") {
                    self.pos += 2;
                    let close = self.read_name()?;
                    if close != tag {
                        return self
                            .error(&format!("mismatched closing tag: <{tag}> vs </{close}>"));
                    }
                    self.skip_ws();
                    if self.peek() != Some(b'>') {
                        return self.error("expected '>' in closing tag");
                    }
                    self.pos += 1;
                    open.pop();
                    continue;
                }
                match self.peek() {
                    Some(b'<') => break,
                    Some(_) => {
                        let start = self.pos;
                        while let Some(c) = self.peek() {
                            if c == b'<' {
                                break;
                            }
                            self.pos += 1;
                        }
                        let raw = &self.text[start..self.pos];
                        // Text that is the element's whole content is its
                        // value, whitespace included; beside elements or
                        // comments the surrounding whitespace is layout.
                        let whole = start == content && self.starts_with("</");
                        let text = unescape(if whole { raw } else { raw.trim() });
                        if !text.is_empty() {
                            doc.add_text(node, &text);
                        }
                    }
                    None => return self.error("unexpected end of input in element content"),
                }
            }
        }
    }

    /// Read the start tag at `self.pos` and add its element under `parent`
    /// (or as root). `None` for an empty-element tag (`<e/>`), which leaves
    /// nothing open.
    fn start_tag(
        &mut self,
        doc: &mut Document,
        parent: Option<NodeId>,
    ) -> Result<Option<OpenElement<'a>>, ParseError> {
        if self.peek() != Some(b'<') {
            return self.error("expected '<'");
        }
        self.pos += 1;
        let tag = self.read_name()?;
        let node = match parent {
            Some(p) => doc.add_element(p, tag),
            None => doc.create_root(tag),
        };
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return self.error("expected '>' after '/'");
                    }
                    self.pos += 1;
                    return Ok(None);
                }
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Some(OpenElement { node, tag, content: self.pos }));
                }
                Some(_) => {
                    let (name, value) = self.read_attribute()?;
                    doc.set_attribute(node, name, &value);
                }
                None => return self.error("unexpected end of input in tag"),
            }
        }
    }
}

/// An element whose end tag the parser has not reached yet.
#[derive(Clone, Copy)]
struct OpenElement<'a> {
    node: NodeId,
    tag: &'a str,
    /// Where its content starts.
    content: usize,
}

/// Parse an XML string into a [`Document`] with the given logical name.
///
/// Text that is all of an element's content (`<e> x </e>`) is kept verbatim,
/// so what [`Document::to_xml`] writes for a leaf reads back as written. Text
/// beside child elements or comments is trimmed, and dropped when nothing is
/// left: indentation is not content.
pub fn parse_document(name: &str, input: &str) -> Result<Document, ParseError> {
    let mut parser = Parser::new(input);
    let mut doc = Document::new(name);
    parser.skip_prolog()?;
    parser.skip_ws();
    if parser.peek().is_none() {
        return parser.error("empty document");
    }
    parser.parse_root(&mut doc)?;
    parser.skip_ws();
    // Trailing comments are allowed.
    let _ = parser.skip_prolog();
    parser.skip_ws();
    if parser.peek().is_some() {
        return parser.error("trailing content after root element");
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_document() {
        let xml = r#"<?xml version="1.0"?>
            <catalog>
              <drug id="d1"><name>aspirin</name><price>3</price></drug>
              <drug id="d2"><name>ibuprofen</name><price>5</price></drug>
            </catalog>"#;
        let doc = parse_document("catalog.xml", xml).unwrap();
        assert_eq!(doc.element_count(), 7);
        let root = doc.root().unwrap();
        assert_eq!(doc.node(root).tag(), Some("catalog"));
        let drugs: Vec<_> = doc.children_with_tag(root, "drug").collect();
        assert_eq!(drugs.len(), 2);
        assert_eq!(doc.attribute(drugs[0], "id"), Some("d1"));
        let name = doc.children_with_tag(drugs[1], "name").next().unwrap();
        assert_eq!(doc.text_of(name), "ibuprofen");
    }

    #[test]
    fn parse_self_closing_and_comments() {
        let xml = "<a><!-- note --><b/><c x='1'/></a><!-- trailing -->";
        let doc = parse_document("t", xml).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.child_elements(root).count(), 2);
        let c = doc.children_with_tag(root, "c").next().unwrap();
        assert_eq!(doc.attribute(c, "x"), Some("1"));
    }

    #[test]
    fn entities_are_unescaped() {
        let xml = "<note text=\"a&amp;b\">x &lt; y</note>";
        let doc = parse_document("t", xml).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.attribute(root, "text"), Some("a&b"));
        assert_eq!(doc.text_of(root), "x < y");
    }

    #[test]
    fn round_trip_parse_serialize_parse() {
        let xml = "<library><book year=\"1998\"><title>FoD</title><author>Abiteboul</author></book></library>";
        let doc = parse_document("lib", xml).unwrap();
        let out = doc.to_xml();
        let doc2 = parse_document("lib", &out).unwrap();
        assert_eq!(doc.element_count(), doc2.element_count());
        let r1 = doc.root().unwrap();
        let r2 = doc2.root().unwrap();
        assert_eq!(doc.node(r1).tag(), doc2.node(r2).tag());
    }

    #[test]
    fn error_on_mismatched_tags() {
        let err = parse_document("t", "<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
        assert!(err.to_string().contains("XML parse error"));
    }

    #[test]
    fn error_on_trailing_garbage() {
        assert!(parse_document("t", "<a/>junk").is_err());
    }

    #[test]
    fn error_on_empty_input() {
        assert!(parse_document("t", "   ").is_err());
    }

    #[test]
    fn error_on_unterminated_attribute() {
        assert!(parse_document("t", "<a x=\"1></a>").is_err());
        assert!(parse_document("t", "<a x=1></a>").is_err());
    }

    #[test]
    fn doctype_is_skipped() {
        let xml = "<!DOCTYPE catalog SYSTEM \"catalog.dtd\"><catalog/>";
        let doc = parse_document("t", xml).unwrap();
        assert_eq!(doc.node(doc.root().unwrap()).tag(), Some("catalog"));
    }

    #[test]
    fn deep_nesting_round_trips_on_a_test_thread() {
        const DEPTH: usize = 200_000;
        let xml = "<a>".repeat(DEPTH) + "x" + &"</a>".repeat(DEPTH);
        let doc = parse_document("deep.xml", &xml).unwrap();
        assert_eq!(doc.element_count(), DEPTH);
        let reparsed = parse_document("deep.xml", &doc.to_xml()).unwrap();
        assert!(reparsed == doc, "parse → to_xml → parse changes a deep document");
        let root = doc.root().unwrap();
        assert_eq!(doc.descendants(root).count(), DEPTH - 1);
    }
}
