//! Arena-based XML document model.
//!
//! Nodes live in a flat arena owned by the [`Document`]; tree edges are stored
//! as index vectors. This keeps node handles (`NodeId`) `Copy`, makes
//! descendant traversal cheap, and maps directly onto the GReX relational
//! encoding (`el`, `child`, `desc`, `tag`, `attr`, `id`, `text`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

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

/// Kind of a node.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An element node with a tag name, shared by every element of that
    /// tag in the document.
    Element {
        /// The element's tag name.
        tag: Arc<str>,
    },
    /// A text node.
    Text {
        /// The text content.
        value: String,
    },
}

/// A node in the arena.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// The node's kind (element or text).
    pub kind: NodeKind,
    /// Parent node (`None` for the document root element).
    pub parent: Option<NodeId>,
    /// Children in document order.
    pub children: Vec<NodeId>,
    /// Attributes (name → value), in insertion order.
    pub attributes: Vec<(String, String)>,
}

impl Node {
    fn element(tag: Arc<str>, parent: Option<NodeId>) -> Node {
        Node {
            kind: NodeKind::Element { tag },
            parent,
            children: Vec::new(),
            attributes: Vec::new(),
        }
    }

    fn text(value: &str, parent: Option<NodeId>) -> Node {
        Node {
            kind: NodeKind::Text { value: value.to_string() },
            parent,
            children: Vec::new(),
            attributes: Vec::new(),
        }
    }

    /// The tag name, if this is an element.
    pub fn tag(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Element { tag } => Some(tag),
            NodeKind::Text { .. } => None,
        }
    }

    /// The text value, if this is a text node.
    pub fn text_value(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Text { value } => Some(value),
            NodeKind::Element { .. } => None,
        }
    }

    /// Is this an element node?
    pub fn is_element(&self) -> bool {
        matches!(self.kind, NodeKind::Element { .. })
    }
}

/// An XML document: an arena of nodes with a distinguished root element.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Logical name of the document, e.g. `catalog.xml`.
    pub name: String,
    nodes: Vec<Node>,
    root: Option<NodeId>,
    /// The first [`SHARED_TAGS`] distinct element tags, in order of first use.
    /// A document has a handful, so an element costs a scan of this list and
    /// a reference count instead of a string of its own.
    tags: Vec<Arc<str>>,
}

/// How many distinct tags a document shares among its elements; an element
/// with a later tag owns its copy, so the scan per element stays bounded.
const SHARED_TAGS: usize = 32;

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
            root: None,
            tags: Vec::new(),
        }
    }

    fn intern(&mut self, tag: &str) -> Arc<str> {
        if let Some(known) = self.tags.iter().find(|known| known.as_ref() == tag) {
            return known.clone();
        }
        let shared: Arc<str> = Arc::from(tag);
        if self.tags.len() < SHARED_TAGS {
            self.tags.push(shared.clone());
        }
        shared
    }

    /// Create the root element; panics if a root already exists.
    pub fn create_root(&mut self, tag: &str) -> NodeId {
        assert!(self.root.is_none(), "document already has a root");
        let id = NodeId(self.nodes.len() as u32);
        let tag = self.intern(tag);
        self.nodes.push(Node::element(tag, None));
        self.root = Some(id);
        id
    }

    /// The root element.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Append a child element under `parent`.
    pub fn add_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let tag = self.intern(tag);
        self.nodes.push(Node::element(tag, Some(parent)));
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Append a text child under `parent`.
    pub fn add_text(&mut self, parent: NodeId, value: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::text(value, Some(parent)));
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Append an element with a single text child (`<tag>value</tag>`),
    /// returning the element's id. This is the most common shape in the
    /// paper's examples (leaf fields like `<price>12</price>`).
    pub fn add_leaf(&mut self, parent: NodeId, tag: &str, value: &str) -> NodeId {
        let el = self.add_element(parent, tag);
        self.add_text(el, value);
        el
    }

    /// Set an attribute on an element.
    pub fn set_attribute(&mut self, node: NodeId, name: &str, value: &str) {
        let attrs = &mut self.nodes[node.index()].attributes;
        if let Some(entry) = attrs.iter_mut().find(|(n, _)| n == name) {
            entry.1 = value.to_string();
        } else {
            attrs.push((name.to_string(), value.to_string()));
        }
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
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

    /// All node ids in document order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Child elements of a node.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.node(id).children.iter().copied().filter(|c| self.node(*c).is_element())
    }

    /// Child elements with the given tag.
    pub fn children_with_tag<'a>(
        &'a self,
        id: NodeId,
        tag: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.child_elements(id).filter(move |c| self.node(*c).tag() == Some(tag))
    }

    /// All descendant elements of a node (excluding the node itself), in
    /// document order.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.node(id).children.iter().rev().copied().collect();
        while let Some(next) = stack.pop() {
            if self.node(next).is_element() {
                out.push(next);
            }
            stack.extend(self.node(next).children.iter().rev().copied());
        }
        out
    }

    /// Descendant-or-self element set.
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = vec![id];
        out.extend(self.descendants(id));
        out
    }

    /// Concatenated text content of the node's direct text children.
    pub fn text_of(&self, id: NodeId) -> String {
        self.node(id).children.iter().filter_map(|c| self.node(*c).text_value()).collect()
    }

    /// Attribute value lookup.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.node(id).attributes.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Deep-copy the subtree rooted at `source` (from `other`) under
    /// `parent` in this document. Returns the id of the copy. Used when
    /// materializing XQuery views that return deep copies of input elements.
    pub fn deep_copy_from(&mut self, other: &Document, source: NodeId, parent: NodeId) -> NodeId {
        let src = other.node(source);
        let new_id = match &src.kind {
            NodeKind::Element { tag } => {
                let id = self.add_element(parent, tag);
                for (n, v) in &src.attributes {
                    self.set_attribute(id, n, v);
                }
                id
            }
            NodeKind::Text { value } => self.add_text(parent, value),
        };
        for child in &src.children {
            self.deep_copy_from(other, *child, new_id);
        }
        new_id
    }

    /// Serialize to XML text (no declaration, two-space indentation).
    ///
    /// One node per line, except that an element whose only child is a text
    /// node is written compactly as `<tag>text</tag>`, the text verbatim;
    /// [`parse_document`](crate::parse_document) reads that form back
    /// verbatim too. A text node with element siblings goes on a line of its
    /// own and reads back trimmed.
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
        match self.root {
            Some(root) => self.write_node(root, 0, out),
            None => Ok(()),
        }
    }

    fn write_node(&self, id: NodeId, depth: usize, out: &mut impl fmt::Write) -> fmt::Result {
        let node = self.node(id);
        write_indent(out, depth)?;
        let tag = match &node.kind {
            NodeKind::Text { value } => {
                write_escaped(out, value)?;
                return out.write_char('\n');
            }
            NodeKind::Element { tag } => tag,
        };
        out.write_char('<')?;
        out.write_str(tag)?;
        for (n, v) in &node.attributes {
            out.write_char(' ')?;
            out.write_str(n)?;
            out.write_str("=\"")?;
            write_escaped(out, v)?;
            out.write_char('"')?;
        }
        let only_text = match node.children.as_slice() {
            [] => return out.write_str("/>\n"),
            [only] => self.node(*only).text_value(),
            _ => None,
        };
        if let Some(text) = only_text {
            // Compact form for leaf elements with a single text child.
            out.write_char('>')?;
            write_escaped(out, text)?;
        } else {
            out.write_str(">\n")?;
            for c in &node.children {
                self.write_node(*c, depth + 1, out)?;
            }
            write_indent(out, depth)?;
        }
        out.write_str("</")?;
        out.write_str(tag)?;
        out.write_str(">\n")
    }
}

fn write_indent(out: &mut impl fmt::Write, depth: usize) -> fmt::Result {
    (0..depth).try_for_each(|_| out.write_str("  "))
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
                out.push_str(&indent);
                out.push('<');
                out.push_str(tag);
                for (n, v) in &node.attributes {
                    out.push_str(&format!(" {n}=\"{}\"", escape(v)));
                }
                if node.children.is_empty() {
                    out.push_str("/>\n");
                    return;
                }
                // Compact form for leaf elements with a single text child.
                if node.children.len() == 1 {
                    if let Some(text) = doc.node(node.children[0]).text_value() {
                        out.push('>');
                        out.push_str(&escape(text));
                        out.push_str(&format!("</{tag}>\n"));
                        return;
                    }
                }
                out.push_str(">\n");
                for c in &node.children {
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
        let desc = d.descendants(root);
        assert_eq!(desc.len(), 6);
        let tags: Vec<&str> = desc.iter().filter_map(|n| d.node(*n).tag()).collect();
        assert_eq!(tags, vec!["drug", "name", "price", "drug", "name", "price"]);
        assert_eq!(d.descendants_or_self(root).len(), 7);
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
        let root = doc.create_root("root");
        let mut open = vec![root];
        for _ in 0..rng.next_u64() % 40 {
            let parent = open[(rng.next_u64() % open.len() as u64) as usize];
            match rng.next_u64() % 4 {
                0 => {
                    doc.add_text(parent, &awkward_text(rng));
                }
                1 => {
                    let name = ["k", "v"][(rng.next_u64() % 2) as usize];
                    doc.set_attribute(parent, name, &awkward_text(rng));
                }
                _ => open
                    .push(doc.add_element(parent, ["a", "b", "c"][(rng.next_u64() % 3) as usize])),
            }
        }
        doc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn write_xml_agrees_with_the_reference_serializer(seed in 0u64..u64::MAX) {
            let doc = awkward_document(&mut TestRng::new(seed));
            prop_assert_eq!(doc.to_xml(), reference::to_xml(&doc));
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
    fn tags_are_shared_up_to_the_bound_and_owned_beyond_it() {
        let mut doc = Document::new("wide.xml");
        let root = doc.create_root("root");
        let tags: Vec<String> = (0..2 * SHARED_TAGS).map(|i| format!("t{i}")).collect();
        for tag in tags.iter().chain(&tags) {
            doc.add_element(root, tag);
        }
        assert_eq!(doc.tags.len(), SHARED_TAGS);
        let written: Vec<&str> =
            doc.child_elements(root).filter_map(|c| doc.node(c).tag()).collect();
        assert_eq!(written, tags.iter().chain(&tags).map(String::as_str).collect::<Vec<_>>());
        let shared = |i: usize| match &doc.nodes[i].kind {
            NodeKind::Element { tag } => Arc::strong_count(tag),
            NodeKind::Text { .. } => 0,
        };
        assert_eq!(shared(1), 3, "an early tag: the table and both of its elements");
        assert_eq!(shared(2 * SHARED_TAGS), 1, "a late tag: the element's own");
    }
}
