//! Flat-arena XML document model.
//!
//! A [`Document`] keeps its whole tree in three growing buffers: one `Vec` of
//! small `Copy` node records, one `String` holding the content of every text
//! node back to back, and a table of the document's distinct element tags
//! (with a map from each tag to its index). A record names its tag by index
//! and its text by byte range, and links to its parent, first and last child
//! and next sibling by index; attributes, which few elements carry, sit in a
//! side table. Building a document is amortized pushes onto those buffers and
//! dropping it a handful of frees, whatever its size: XMLtape's records in one
//! buffer, addressed by offsets. Node handles ([`NodeId`]) are `Copy` and map
//! directly onto the GReX relational encoding (`el`, `child`, `desc`, `tag`,
//! `attr`, `id`, `text`).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Handle to a node in a [`Document`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Kind of a node, borrowed from its document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind<'a> {
    /// An element node.
    Element {
        /// The element's tag name.
        tag: &'a str,
    },
    /// A text node.
    Text {
        /// The text content.
        value: &'a str,
    },
}

/// A view of one node of a [`Document`], as [`Document::node`] returns it.
#[derive(Clone, Copy)]
pub struct Node<'a> {
    /// The node's kind (element or text).
    pub kind: NodeKind<'a>,
    /// Parent node (`None` for the document root element).
    pub parent: Option<NodeId>,
    /// Attributes (name → value), in insertion order; a text node has none.
    pub attributes: &'a [(String, String)],
    doc: &'a Document,
    first_child: u32,
}

impl<'a> Node<'a> {
    /// The tag name, if this is an element.
    pub fn tag(&self) -> Option<&'a str> {
        match self.kind {
            NodeKind::Element { tag } => Some(tag),
            NodeKind::Text { .. } => None,
        }
    }

    /// The text value, if this is a text node.
    pub fn text_value(&self) -> Option<&'a str> {
        match self.kind {
            NodeKind::Text { value } => Some(value),
            NodeKind::Element { .. } => None,
        }
    }

    /// Is this an element node?
    pub fn is_element(&self) -> bool {
        matches!(self.kind, NodeKind::Element { .. })
    }

    /// The children in document order.
    pub fn children(&self) -> Children<'a> {
        Children { doc: self.doc, next: self.first_child }
    }
}

/// Two nodes are equal when their kind, parent, attributes and children are.
impl PartialEq for Node<'_> {
    fn eq(&self, other: &Node<'_>) -> bool {
        self.kind == other.kind
            && self.parent == other.parent
            && self.attributes == other.attributes
            && self.children().eq(other.children())
    }
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.kind)
            .field("parent", &self.parent)
            .field("children", &self.children().collect::<Vec<_>>())
            .field("attributes", &self.attributes)
            .finish()
    }
}

/// The children of a node in document order, following the sibling links:
/// [`Node::children`].
#[derive(Clone)]
pub struct Children<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = link(self.next)?;
        self.next = self.doc.nodes[id.index()].next_sibling;
        Some(id)
    }
}

/// Descendant elements in document order: [`Document::descendants`] and
/// [`Document::descendants_or_self`].
#[derive(Clone)]
pub struct Descendants<'a> {
    doc: &'a Document,
    top: u32,
    next: u32,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while let Some(at) = link(self.next) {
            self.next = self.doc.preorder_successor(self.top, at.0);
            if self.doc.nodes[at.index()].is_element() {
                return Some(at);
            }
        }
        None
    }
}

/// The link a record holds where there is no parent, child or sibling, and an
/// element's attribute index while it has none.
const NONE: u32 = u32::MAX;

fn link(raw: u32) -> Option<NodeId> {
    (raw != NONE).then_some(NodeId(raw))
}

/// `len` as a record index or text offset. Both are `u32`, so a document holds
/// fewer than `u32::MAX` nodes and text bytes.
fn offset(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&at| at != NONE)
        .expect("a document addresses its nodes and text with u32 offsets")
}

/// One node of the arena.
#[derive(Clone, Copy, Debug)]
struct Record {
    content: Content,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
}

#[derive(Clone, Copy, Debug)]
enum Content {
    /// `tag` indexes the tag table, `attributes` the attribute table.
    Element { tag: u32, attributes: u32 },
    /// The text's byte range in the text buffer.
    Text { start: u32, end: u32 },
}

impl Record {
    fn is_element(&self) -> bool {
        matches!(self.content, Content::Element { .. })
    }
}

/// An XML document: an arena of nodes with a distinguished root element.
#[derive(Clone, Serialize, Deserialize)]
pub struct Document {
    /// Logical name of the document, e.g. `catalog.xml`.
    pub name: String,
    nodes: Vec<Record>,
    /// The content of every text node, back to back.
    text: String,
    /// The distinct element tags in order of first use.
    tags: Vec<Box<str>>,
    /// Each tag's index in `tags`.
    tag_ids: HashMap<Box<str>, u32>,
    /// The attribute lists of the elements that have any.
    attributes: Vec<Vec<(String, String)>>,
    root: Option<NodeId>,
}

/// A tag among a document's first few is found by comparing it with them,
/// which beats hashing it; most documents have no more.
const SCANNED_TAGS: usize = 8;

impl Document {
    /// An empty document with the given name.
    pub fn new(name: &str) -> Document {
        Document::with_capacity(name, 0)
    }

    /// An empty document with room for `nodes` nodes (elements + text nodes).
    pub fn with_capacity(name: &str, nodes: usize) -> Document {
        Document {
            name: name.to_string(),
            nodes: Vec::with_capacity(nodes),
            text: String::new(),
            tags: Vec::new(),
            tag_ids: HashMap::new(),
            attributes: Vec::new(),
            root: None,
        }
    }

    fn tag_index(&self, tag: &str) -> Option<u32> {
        let first =
            self.tags.iter().take(SCANNED_TAGS).zip(0..).find(|(known, _)| ***known == *tag);
        first.map(|(_, at)| at).or_else(|| self.tag_ids.get(tag).copied())
    }

    fn intern(&mut self, tag: &str) -> u32 {
        self.tag_index(tag).unwrap_or_else(|| {
            let at = offset(self.tags.len());
            self.tags.push(tag.into());
            self.tag_ids.insert(tag.into(), at);
            at
        })
    }

    /// Append a record as the last child of `parent`.
    fn push(&mut self, content: Content, parent: Option<NodeId>) -> NodeId {
        let id = offset(self.nodes.len());
        if let Some(parent) = parent {
            let record = &mut self.nodes[parent.index()];
            match std::mem::replace(&mut record.last_child, id) {
                NONE => record.first_child = id,
                last => self.nodes[last as usize].next_sibling = id,
            }
        }
        let parent = parent.map_or(NONE, |p| p.0);
        let (first_child, last_child, next_sibling) = (NONE, NONE, NONE);
        self.nodes.push(Record { content, parent, first_child, last_child, next_sibling });
        NodeId(id)
    }

    fn push_element(&mut self, tag: &str, parent: Option<NodeId>) -> NodeId {
        let tag = self.intern(tag);
        self.push(Content::Element { tag, attributes: NONE }, parent)
    }

    /// Create the root element; panics if a root already exists.
    pub fn create_root(&mut self, tag: &str) -> NodeId {
        assert!(self.root.is_none(), "document already has a root");
        let id = self.push_element(tag, None);
        self.root = Some(id);
        id
    }

    /// The root element.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Append a child element under `parent`.
    pub fn add_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        self.push_element(tag, Some(parent))
    }

    /// Append a text child under `parent`.
    pub fn add_text(&mut self, parent: NodeId, value: &str) -> NodeId {
        let start = offset(self.text.len());
        self.text.push_str(value);
        let end = offset(self.text.len());
        self.push(Content::Text { start, end }, Some(parent))
    }

    /// Append an element with a single text child (`<tag>value</tag>`),
    /// returning the element's id. This is the most common shape in the
    /// paper's examples (leaf fields like `<price>12</price>`).
    pub fn add_leaf(&mut self, parent: NodeId, tag: &str, value: &str) -> NodeId {
        let el = self.add_element(parent, tag);
        self.add_text(el, value);
        el
    }

    /// Set an attribute on an element; panics on a text node.
    pub fn set_attribute(&mut self, node: NodeId, name: &str, value: &str) {
        let Content::Element { attributes, .. } = &mut self.nodes[node.index()].content else {
            panic!("only an element carries attributes");
        };
        if *attributes == NONE {
            *attributes = offset(self.attributes.len());
            self.attributes.push(Vec::new());
        }
        let attrs = &mut self.attributes[*attributes as usize];
        if let Some(entry) = attrs.iter_mut().find(|(n, _)| n == name) {
            entry.1 = value.to_string();
        } else {
            attrs.push((name.to_string(), value.to_string()));
        }
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> Node<'_> {
        let record = &self.nodes[id.index()];
        let (kind, attributes) = match record.content {
            Content::Element { tag, attributes } => {
                (NodeKind::Element { tag: self.tag_at(tag) }, self.attributes_at(attributes))
            }
            Content::Text { start, end } => {
                (NodeKind::Text { value: self.text_at(start, end) }, &[][..])
            }
        };
        let (parent, first_child) = (link(record.parent), record.first_child);
        Node { kind, parent, attributes, doc: self, first_child }
    }

    /// Number of nodes (elements + text nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the document empty (no root)?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_element()).count()
    }

    /// All node ids in arena order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..).zip(&self.nodes).map(|(at, _)| NodeId(at))
    }

    /// Child elements of a node.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(id).children().filter(|c| self.nodes[c.index()].is_element())
    }

    /// Child elements with the given tag.
    pub fn children_with_tag<'a>(
        &'a self,
        id: NodeId,
        tag: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let wanted = self.tag_index(tag);
        self.node(id).children().filter(move |c| match self.nodes[c.index()].content {
            Content::Element { tag, .. } => wanted == Some(tag),
            Content::Text { .. } => false,
        })
    }

    /// The node after `at` in a preorder walk of `top`'s subtree, `NONE` past
    /// its end.
    fn preorder_successor(&self, top: u32, at: u32) -> u32 {
        let first_child = self.nodes[at as usize].first_child;
        if first_child != NONE {
            return first_child;
        }
        let mut at = at;
        while at != top {
            let record = &self.nodes[at as usize];
            if record.next_sibling != NONE {
                return record.next_sibling;
            }
            at = record.parent;
        }
        NONE
    }

    /// All descendant elements of a node (excluding the node itself), in
    /// document order.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, top: id.0, next: self.preorder_successor(id.0, id.0) }
    }

    /// The element `id` and its descendant elements, in document order.
    pub fn descendants_or_self(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, top: id.0, next: id.0 }
    }

    /// Concatenated text content of the node's direct text children.
    pub fn text_of(&self, id: NodeId) -> String {
        self.node(id).children().filter_map(|c| self.node(c).text_value()).collect()
    }

    /// Attribute value lookup.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.node(id).attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Deep-copy the subtree rooted at `source` (from `other`) under
    /// `parent` in this document. Returns the id of the copy. Used when
    /// materializing XQuery views that return deep copies of input elements.
    pub fn deep_copy_from(&mut self, other: &Document, source: NodeId, parent: NodeId) -> NodeId {
        let copy = self.copy_node(other, source, parent);
        // Walk the source in preorder; `to` is the copy of `from`.
        let (mut from, mut to) = (source, copy);
        loop {
            let first_child = other.nodes[from.index()].first_child;
            if let Some(child) = link(first_child) {
                (from, to) = (child, self.copy_node(other, child, to));
                continue;
            }
            loop {
                if from == source {
                    return copy;
                }
                let record = &other.nodes[from.index()];
                let up = NodeId(self.nodes[to.index()].parent);
                if let Some(sibling) = link(record.next_sibling) {
                    (from, to) = (sibling, self.copy_node(other, sibling, up));
                    break;
                }
                (from, to) = (NodeId(record.parent), up);
            }
        }
    }

    /// Append a copy of `other`'s node `source`, without its children.
    fn copy_node(&mut self, other: &Document, source: NodeId, parent: NodeId) -> NodeId {
        let src = other.node(source);
        match src.kind {
            NodeKind::Element { tag } => {
                let id = self.add_element(parent, tag);
                for (n, v) in src.attributes {
                    self.set_attribute(id, n, v);
                }
                id
            }
            NodeKind::Text { value } => self.add_text(parent, value),
        }
    }

    /// Serialize to XML text (no declaration, two-space indentation).
    ///
    /// One node per line, except that an element whose only child is a text
    /// node is written compactly as `<tag>text</tag>`, the text verbatim;
    /// [`parse_document`](crate::parse_document) reads that form back
    /// verbatim too. A text node with element siblings goes on a line of its
    /// own and reads back trimmed. Lines deeper than 64 levels are indented
    /// as the 64th.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_xml(&mut out).expect("writing to a String does not fail");
        out
    }

    /// Write what [`Document::to_xml`] returns into `out`, in one pass and
    /// without intermediate strings.
    ///
    /// # Errors
    ///
    /// Whatever `out` reports.
    pub fn write_xml(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let Some(root) = self.root else { return Ok(()) };
        // A preorder walk along the links: an element is closed when the walk
        // climbs out of it.
        let (mut at, mut depth) = (root.0, 0);
        'walk: loop {
            let record = &self.nodes[at as usize];
            if self.write_start(record, depth, out)? {
                (at, depth) = (record.first_child, depth + 1);
                continue;
            }
            while at != root.0 {
                let record = &self.nodes[at as usize];
                if record.next_sibling != NONE {
                    at = record.next_sibling;
                    continue 'walk;
                }
                (at, depth) = (record.parent, depth - 1);
                write_indent(out, depth)?;
                write_end_tag(out, self.tag_of(&self.nodes[at as usize]))?;
            }
            return Ok(());
        }
    }

    /// Write the line(s) a node opens with; `true` when its children follow
    /// on lines of their own and its end tag after them.
    fn write_start(
        &self,
        record: &Record,
        depth: usize,
        out: &mut impl fmt::Write,
    ) -> Result<bool, fmt::Error> {
        write_indent(out, depth)?;
        let (tag, attributes) = match record.content {
            Content::Text { start, end } => {
                write_escaped(out, self.text_at(start, end))?;
                out.write_char('\n')?;
                return Ok(false);
            }
            Content::Element { tag, attributes } => (self.tag_at(tag), attributes),
        };
        out.write_char('<')?;
        out.write_str(tag)?;
        for (n, v) in self.attributes_at(attributes) {
            out.write_char(' ')?;
            out.write_str(n)?;
            out.write_str("=\"")?;
            write_escaped(out, v)?;
            out.write_char('"')?;
        }
        if record.first_child == NONE {
            out.write_str("/>\n")?;
            return Ok(false);
        }
        match self.nodes[record.first_child as usize].content {
            // Compact form for leaf elements with a single text child.
            Content::Text { start, end } if record.first_child == record.last_child => {
                out.write_char('>')?;
                write_escaped(out, self.text_at(start, end))?;
                write_end_tag(out, tag)?;
                Ok(false)
            }
            _ => {
                out.write_str(">\n")?;
                Ok(true)
            }
        }
    }

    fn tag_at(&self, tag: u32) -> &str {
        &self.tags[tag as usize]
    }

    fn text_at(&self, start: u32, end: u32) -> &str {
        &self.text[start as usize..end as usize]
    }

    fn attributes_at(&self, attributes: u32) -> &[(String, String)] {
        match attributes {
            NONE => &[],
            at => &self.attributes[at as usize],
        }
    }

    /// The tag of an element record; the writer climbs only into elements.
    fn tag_of(&self, record: &Record) -> &str {
        match record.content {
            Content::Element { tag, .. } => self.tag_at(tag),
            Content::Text { .. } => "",
        }
    }
}

/// Two documents are equal when their names, roots and nodes are: every node
/// in arena order with its kind, tag or text, parent, children and attributes,
/// however the buffers behind them are laid out.
impl PartialEq for Document {
    fn eq(&self, other: &Document) -> bool {
        self.name == other.name
            && self.root == other.root
            && self.len() == other.len()
            && self.all_nodes().all(|id| self.node(id) == other.node(id))
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nodes: Vec<Node<'_>> = self.all_nodes().map(|id| self.node(id)).collect();
        f.debug_struct("Document")
            .field("name", &self.name)
            .field("root", &self.root)
            .field("nodes", &nodes)
            .finish()
    }
}

/// The indentation of the deepest lines: two spaces per level down to 64
/// levels and flat below, so the text of a deep document stays linear in its
/// size.
const INDENT: &str = match std::str::from_utf8(&[b' '; 128]) {
    Ok(spaces) => spaces,
    Err(_) => panic!("spaces are UTF-8"),
};

fn write_end_tag(out: &mut impl fmt::Write, tag: &str) -> fmt::Result {
    out.write_str("</")?;
    out.write_str(tag)?;
    out.write_str(">\n")
}

fn write_indent(out: &mut impl fmt::Write, depth: usize) -> fmt::Result {
    out.write_str(&INDENT[..(2 * depth).min(INDENT.len())])
}

/// Write `s` with `&`, `<`, `>` and `"` replaced by their entities: one scan,
/// the runs between specials copied as slices. The specials are ASCII, so
/// every cut falls on a character boundary.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        out.write_str(&s[copied..i])?;
        out.write_str(entity)?;
        copied = i + 1;
    }
    out.write_str(&s[copied..])
}

/// Escape XML special characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s).expect("writing to a String does not fail");
    out
}

/// Unescape XML entities produced by [`escape`].
pub fn unescape(s: &str) -> String {
    const ENTITIES: [(&str, char); 4] =
        [("&lt;", '<'), ("&gt;", '>'), ("&quot;", '"'), ("&amp;", '&')];
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('&') {
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let (entity, c) =
            ENTITIES.into_iter().find(|(e, _)| rest.starts_with(e)).unwrap_or(("&", '&'));
        out.push(c);
        rest = &rest[entity.len()..];
    }
    out.push_str(rest);
    out
}

/// The serializer and the escapers as they were before `write_xml`: an indent
/// string per node, four `replace` passes per value. Kept as the reference the
/// single-pass code is compared with.
#[cfg(test)]
mod reference {
    use super::{Document, NodeId, NodeKind};

    pub fn to_xml(doc: &Document) -> String {
        let mut out = String::new();
        if let Some(root) = doc.root() {
            write_node(doc, root, 0, &mut out);
        }
        out
    }

    fn write_node(doc: &Document, id: NodeId, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let node = doc.node(id);
        match &node.kind {
            NodeKind::Text { value } => {
                out.push_str(&indent);
                out.push_str(&escape(value));
                out.push('\n');
            }
            NodeKind::Element { tag } => {
                let children: Vec<NodeId> = node.children().collect();
                out.push_str(&indent);
                out.push('<');
                out.push_str(tag);
                for (n, v) in node.attributes {
                    out.push_str(&format!(" {n}=\"{}\"", escape(v)));
                }
                if children.is_empty() {
                    out.push_str("/>\n");
                    return;
                }
                // Compact form for leaf elements with a single text child.
                if children.len() == 1 {
                    if let Some(text) = doc.node(children[0]).text_value() {
                        out.push('>');
                        out.push_str(&escape(text));
                        out.push_str(&format!("</{tag}>\n"));
                        return;
                    }
                }
                out.push_str(">\n");
                for c in &children {
                    write_node(doc, *c, depth + 1, out);
                }
                out.push_str(&indent);
                out.push_str(&format!("</{tag}>\n"));
            }
        }
    }

    pub fn escape(s: &str) -> String {
        s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
    }

    pub fn unescape(s: &str) -> String {
        s.replace("&lt;", "<").replace("&gt;", ">").replace("&quot;", "\"").replace("&amp;", "&")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn catalog() -> Document {
        // <catalog><drug><name>aspirin</name><price>3</price></drug>
        //          <drug><name>ibuprofen</name><price>5</price></drug></catalog>
        let mut d = Document::new("catalog.xml");
        let root = d.create_root("catalog");
        for (name, price) in [("aspirin", "3"), ("ibuprofen", "5")] {
            let drug = d.add_element(root, "drug");
            d.add_leaf(drug, "name", name);
            d.add_leaf(drug, "price", price);
        }
        d
    }

    #[test]
    fn building_and_counting() {
        let d = catalog();
        assert_eq!(d.element_count(), 7);
        assert_eq!(d.len(), 11); // 7 elements + 4 text nodes
        assert!(!d.is_empty());
        let root = d.root().unwrap();
        assert_eq!(d.node(root).tag(), Some("catalog"));
        assert_eq!(d.child_elements(root).count(), 2);
    }

    #[test]
    fn text_and_attributes() {
        let mut d = catalog();
        let root = d.root().unwrap();
        let first_drug = d.child_elements(root).next().unwrap();
        let name = d.children_with_tag(first_drug, "name").next().unwrap();
        assert_eq!(d.text_of(name), "aspirin");
        d.set_attribute(first_drug, "id", "d1");
        assert_eq!(d.attribute(first_drug, "id"), Some("d1"));
        d.set_attribute(first_drug, "id", "d2");
        assert_eq!(d.attribute(first_drug, "id"), Some("d2"));
        assert_eq!(d.attribute(first_drug, "absent"), None);
    }

    #[test]
    fn descendants_are_in_document_order() {
        let d = catalog();
        let root = d.root().unwrap();
        let tags: Vec<&str> = d.descendants(root).filter_map(|n| d.node(n).tag()).collect();
        assert_eq!(tags, vec!["drug", "name", "price", "drug", "name", "price"]);
        assert_eq!(d.descendants_or_self(root).count(), 7);
    }

    #[test]
    fn parents_are_tracked() {
        let d = catalog();
        let root = d.root().unwrap();
        for c in d.child_elements(root) {
            assert_eq!(d.node(c).parent, Some(root));
        }
        assert_eq!(d.node(root).parent, None);
    }

    #[test]
    fn serialization_round_trips_structure() {
        let d = catalog();
        let xml = d.to_xml();
        assert!(xml.contains("<catalog>"));
        assert!(xml.contains("<name>aspirin</name>"));
        assert!(xml.contains("</catalog>"));
    }

    #[test]
    fn deep_copy_between_documents() {
        let src = catalog();
        let mut dst = Document::new("copy.xml");
        let root = dst.create_root("result");
        let first_drug = src.child_elements(src.root().unwrap()).next().unwrap();
        dst.deep_copy_from(&src, first_drug, root);
        assert_eq!(dst.element_count(), 4); // result + drug + name + price
        let drug = dst.child_elements(root).next().unwrap();
        assert_eq!(dst.node(drug).tag(), Some("drug"));
        let name = dst.children_with_tag(drug, "name").next().unwrap();
        assert_eq!(dst.text_of(name), "aspirin");
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a<b&c>\"d\""), "a&lt;b&amp;c&gt;&quot;d&quot;");
        assert_eq!(unescape(&escape("a<b&c>\"d\"")), "a<b&c>\"d\"");
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn double_root_panics() {
        let mut d = Document::new("x");
        d.create_root("a");
        d.create_root("b");
    }

    /// Text drawn from an alphabet heavy in what the escapers look for:
    /// specials, entity fragments, multi-byte characters, whitespace.
    fn awkward_text(rng: &mut TestRng) -> String {
        const PIECES: [&str; 16] = [
            "&", "<", ">", "\"", "'", "&amp;", "&lt;", "&gt", "&quot;", ";", "é", "→", "𝄞", " ",
            "\n", "ab",
        ];
        (0..rng.next_u64() % 8).map(|_| PIECES[(rng.next_u64() % 16) as usize]).collect()
    }

    /// A random tree: empty elements, text-only leaves, mixed content,
    /// attributes, a few tags reused at every depth.
    fn awkward_document(rng: &mut TestRng) -> Document {
        let mut doc = Document::new("random.xml");
        awkward_tree(rng, &mut doc);
        doc
    }

    fn awkward_tree(rng: &mut TestRng, tree: &mut impl Build) {
        let root = tree.root("root");
        let mut open = vec![root];
        for _ in 0..rng.next_u64() % 40 {
            let parent = open[(rng.next_u64() % open.len() as u64) as usize];
            match rng.next_u64() % 4 {
                0 => tree.text(parent, &awkward_text(rng)),
                1 => {
                    let name = ["k", "v"][(rng.next_u64() % 2) as usize];
                    tree.attribute(parent, name, &awkward_text(rng));
                }
                _ => {
                    open.push(tree.element(parent, ["a", "b", "c"][(rng.next_u64() % 3) as usize]))
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn write_xml_agrees_with_the_reference_serializer(seed in 0u64..u64::MAX) {
            let doc = awkward_document(&mut TestRng::new(seed));
            prop_assert_eq!(doc.to_xml(), reference::to_xml(&doc));
        }

        #[test]
        fn the_arena_agrees_with_a_child_list_per_node(seed in 0u64..u64::MAX) {
            let doc = awkward_document(&mut TestRng::new(seed));
            let mut model = Model::default();
            awkward_tree(&mut TestRng::new(seed), &mut model);
            prop_assert_eq!(doc.len(), model.kind.len());
            let elements = model.kind.iter().filter(|kind| kind.is_ok()).count();
            prop_assert_eq!(doc.element_count(), elements);
            for id in doc.all_nodes() {
                let (node, i) = (doc.node(id), id.index());
                let kind = node.tag().ok_or(node.text_value()).map_err(Option::unwrap_or_default);
                prop_assert_eq!(kind, model.kind[i].as_deref().map_err(String::as_str));
                prop_assert_eq!(node.parent, model.parent[i]);
                prop_assert_eq!(node.children().collect::<Vec<_>>(), model.children[i].clone());
                prop_assert_eq!(node.attributes, &model.attributes[i][..]);
                if !node.is_element() {
                    continue;
                }
                prop_assert_eq!(doc.text_of(id), model.text_of(id));
                let mut descendants = Vec::new();
                model.descendants(id, &mut descendants);
                prop_assert_eq!(doc.descendants(id).collect::<Vec<_>>(), descendants);
                for name in ["k", "v", "absent"] {
                    let expected = model.attributes[i].iter().find(|(n, _)| n == name);
                    prop_assert_eq!(doc.attribute(id, name), expected.map(|(_, v)| v.as_str()));
                }
            }
            prop_assert_eq!(doc.clone(), doc);
        }

        #[test]
        fn single_pass_escapers_agree_with_the_replace_chains(seed in 0u64..u64::MAX) {
            let text = awkward_text(&mut TestRng::new(seed));
            prop_assert_eq!(escape(&text), reference::escape(&text));
            prop_assert_eq!(unescape(&text), reference::unescape(&text));
            prop_assert_eq!(unescape(&escape(&text)), text);
        }
    }

    #[test]
    fn write_xml_reports_the_error_of_its_sink() {
        struct Full;
        impl fmt::Write for Full {
            fn write_str(&mut self, _: &str) -> fmt::Result {
                Err(fmt::Error)
            }
        }
        assert!(catalog().write_xml(&mut Full).is_err());
        assert!(Document::new("empty.xml").write_xml(&mut Full).is_ok());
    }

    #[test]
    fn every_tag_reads_back_and_a_repeated_tag_shares_its_entry() {
        let mut wide = Document::new("wide.xml");
        let root = wide.create_root("root");
        let tags: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
        for tag in tags.iter().chain(&tags) {
            wide.add_element(root, tag);
        }
        let written: Vec<&str> =
            wide.child_elements(root).filter_map(|c| wide.node(c).tag()).collect();
        assert_eq!(written, tags.iter().chain(&tags).map(String::as_str).collect::<Vec<_>>());
        assert_eq!(wide.tags.len(), 1 + 32);

        let mut long = Document::new("long.xml");
        let root = long.create_root("a");
        for i in 0..1000 {
            long.add_element(root, ["a", "b", "c"][i % 3]);
        }
        assert_eq!(long.tags.len(), 3);
        assert_eq!(long.children_with_tag(root, "c").count(), 333);
        assert_eq!(long.children_with_tag(root, "absent").count(), 0);
    }

    /// The tree as it was before the arena: a child list per node.
    #[derive(Default)]
    struct Model {
        /// `Ok(tag)` for an element, `Err(text)` for a text node.
        kind: Vec<Result<String, String>>,
        parent: Vec<Option<NodeId>>,
        children: Vec<Vec<NodeId>>,
        attributes: Vec<Vec<(String, String)>>,
    }

    impl Model {
        fn push(&mut self, kind: Result<String, String>, parent: Option<NodeId>) -> NodeId {
            let id = NodeId(self.kind.len() as u32);
            if let Some(p) = parent {
                self.children[p.index()].push(id);
            }
            self.kind.push(kind);
            self.parent.push(parent);
            self.children.push(Vec::new());
            self.attributes.push(Vec::new());
            id
        }

        fn text_of(&self, id: NodeId) -> String {
            let texts = self.children[id.index()]
                .iter()
                .filter_map(|c| self.kind[c.index()].as_ref().err());
            texts.map(String::as_str).collect()
        }

        fn descendants(&self, id: NodeId, out: &mut Vec<NodeId>) {
            for &c in &self.children[id.index()] {
                if self.kind[c.index()].is_ok() {
                    out.push(c);
                }
                self.descendants(c, out);
            }
        }
    }

    /// What builds a tree: a [`Document`], or the [`Model`] it is checked against.
    trait Build {
        fn root(&mut self, tag: &str) -> NodeId;
        fn element(&mut self, parent: NodeId, tag: &str) -> NodeId;
        fn text(&mut self, parent: NodeId, value: &str);
        fn attribute(&mut self, node: NodeId, name: &str, value: &str);
    }

    impl Build for Document {
        fn root(&mut self, tag: &str) -> NodeId {
            self.create_root(tag)
        }
        fn element(&mut self, parent: NodeId, tag: &str) -> NodeId {
            self.add_element(parent, tag)
        }
        fn text(&mut self, parent: NodeId, value: &str) {
            self.add_text(parent, value);
        }
        fn attribute(&mut self, node: NodeId, name: &str, value: &str) {
            self.set_attribute(node, name, value);
        }
    }

    impl Build for Model {
        fn root(&mut self, tag: &str) -> NodeId {
            self.push(Ok(tag.to_string()), None)
        }
        fn element(&mut self, parent: NodeId, tag: &str) -> NodeId {
            self.push(Ok(tag.to_string()), Some(parent))
        }
        fn text(&mut self, parent: NodeId, value: &str) {
            self.push(Err(value.to_string()), Some(parent));
        }
        fn attribute(&mut self, node: NodeId, name: &str, value: &str) {
            let attrs = &mut self.attributes[node.index()];
            match attrs.iter_mut().find(|(n, _)| n == name) {
                Some(entry) => entry.1 = value.to_string(),
                None => attrs.push((name.to_string(), value.to_string())),
            }
        }
    }
}
