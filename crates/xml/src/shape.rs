//! Structural summaries ("shapes") of XML documents.
//!
//! Schema specialization (Section 5) "exploits regularity in the structure of
//! documents": highly-structured tree patterns (e.g. the `author` entity of
//! Figure 6) are modelled as tuples of a virtual relation. The inference of
//! these patterns needs a DTD-like structural description of the document;
//! [`XmlShape`] is that description, either written by hand (the domain
//! expert) or inferred from an instance ([`XmlShape::infer`], playing the role
//! of STORED / hybrid inlining).

use crate::doc::{Document, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How many times a child element may occur under its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Multiplicity {
    /// Exactly once in every instance seen.
    One,
    /// At most once.
    Optional,
    /// Any number of times.
    Many,
}

impl Multiplicity {
    /// Combine an observed count into the multiplicity.
    fn observe(self, count: usize) -> Multiplicity {
        match (self, count) {
            (Multiplicity::Many, _) | (_, 2..) => Multiplicity::Many,
            (Multiplicity::Optional, _) | (_, 0) => Multiplicity::Optional,
            (Multiplicity::One, 1) => Multiplicity::One,
        }
    }

    /// Is the child guaranteed to appear at most once (so it can be inlined
    /// into the parent's relation by hybrid inlining)?
    pub fn is_single(&self) -> bool {
        matches!(self, Multiplicity::One | Multiplicity::Optional)
    }
}

/// The shape of one element type.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShapeElement {
    /// Tag name.
    pub tag: String,
    /// Child element shapes with multiplicities, keyed by tag (ordered).
    pub children: BTreeMap<String, (ShapeElement, Multiplicity)>,
    /// Whether instances carry text content.
    pub has_text: bool,
    /// Attribute names observed.
    pub attributes: Vec<String>,
}

impl ShapeElement {
    /// A leaf element carrying text.
    pub fn leaf(tag: &str) -> ShapeElement {
        ShapeElement {
            tag: tag.to_string(),
            children: BTreeMap::new(),
            has_text: true,
            attributes: Vec::new(),
        }
    }

    /// An inner element (no text).
    pub fn inner(tag: &str) -> ShapeElement {
        ShapeElement {
            tag: tag.to_string(),
            children: BTreeMap::new(),
            has_text: false,
            attributes: Vec::new(),
        }
    }

    /// Builder: add a child shape.
    pub fn with_child(mut self, child: ShapeElement, mult: Multiplicity) -> ShapeElement {
        self.children.insert(child.tag.clone(), (child, mult));
        self
    }

    /// Is this a leaf (no element children)?
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Total number of element types in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.values().map(|(c, _)| c.size()).sum::<usize>()
    }

    /// Depth of the subtree.
    pub fn depth(&self) -> usize {
        1 + self.children.values().map(|(c, _)| c.depth()).max().unwrap_or(0)
    }

    /// The tags of children that occur at most once (inlineable by hybrid
    /// inlining) and of children that repeat.
    pub fn partition_children(&self) -> (Vec<&str>, Vec<&str>) {
        let mut single = Vec::new();
        let mut repeated = Vec::new();
        for (tag, (_, m)) in &self.children {
            if m.is_single() {
                single.push(tag.as_str());
            } else {
                repeated.push(tag.as_str());
            }
        }
        (single, repeated)
    }
}

/// The shape of a whole document.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct XmlShape {
    /// Document name the shape describes.
    pub document: String,
    /// Root element shape.
    pub root: ShapeElement,
}

impl XmlShape {
    /// Build a shape explicitly.
    pub fn new(document: &str, root: ShapeElement) -> XmlShape {
        XmlShape { document: document.to_string(), root }
    }

    /// Infer a shape from a document instance by merging the structure of all
    /// elements with the same tag (per parent-tag context).
    pub fn infer(doc: &Document) -> Option<XmlShape> {
        let root = doc.root()?;
        Some(XmlShape { document: doc.name.clone(), root: infer_element(doc, root) })
    }

    /// Find the shape of the element with the given tag, searching the whole
    /// shape tree (first match in depth-first order).
    pub fn find(&self, tag: &str) -> Option<&ShapeElement> {
        fn go<'a>(e: &'a ShapeElement, tag: &str) -> Option<&'a ShapeElement> {
            if e.tag == tag {
                return Some(e);
            }
            for (c, _) in e.children.values() {
                if let Some(found) = go(c, tag) {
                    return Some(found);
                }
            }
            None
        }
        go(&self.root, tag)
    }

    /// Total number of element types described.
    pub fn size(&self) -> usize {
        self.root.size()
    }
}

fn infer_element(doc: &Document, node: NodeId) -> ShapeElement {
    let element = doc.node(node);
    let mut shape = ShapeElement {
        tag: element.tag().unwrap_or("#text").to_string(),
        children: BTreeMap::new(),
        has_text: element
            .children()
            .any(|c| doc.node(c).text_value().is_some_and(|t| !t.is_empty())),
        attributes: element.attributes.iter().map(|(n, _)| n.clone()).collect(),
    };
    // Group children by tag, merging their shapes in document order and
    // counting them.
    let mut groups: BTreeMap<String, (ShapeElement, usize)> = BTreeMap::new();
    for c in doc.child_elements(node) {
        let child = infer_element(doc, c);
        let (merged, count) = match groups.remove(&child.tag) {
            Some((prev, count)) => (merge(prev, child), count + 1),
            None => (child, 1),
        };
        groups.insert(merged.tag.clone(), (merged, count));
    }
    for (ctag, (merged, count)) in groups {
        shape.children.insert(ctag, (merged, Multiplicity::One.observe(count)));
    }
    shape
}

fn merge(mut a: ShapeElement, b: ShapeElement) -> ShapeElement {
    a.has_text = a.has_text || b.has_text;
    for attr in b.attributes {
        if !a.attributes.contains(&attr) {
            a.attributes.push(attr);
        }
    }
    let b_tags: Vec<String> = b.children.keys().cloned().collect();
    for (tag, (bshape, bmult)) in b.children {
        match a.children.remove(&tag) {
            None => {
                // Present in one sibling but not another ⇒ at most optional.
                let m = match bmult {
                    Multiplicity::Many => Multiplicity::Many,
                    _ => Multiplicity::Optional,
                };
                a.children.insert(tag, (bshape, m));
            }
            Some((ashape, amult)) => {
                let m = match (amult, bmult) {
                    (Multiplicity::Many, _) | (_, Multiplicity::Many) => Multiplicity::Many,
                    (Multiplicity::Optional, _) | (_, Multiplicity::Optional) => {
                        Multiplicity::Optional
                    }
                    _ => Multiplicity::One,
                };
                a.children.insert(tag, (merge(ashape, bshape), m));
            }
        }
    }
    // Children of `a` not present in `b` occur zero times in some sibling:
    // downgrade "exactly once" to "optional".
    for (tag, (_, mult)) in a.children.iter_mut() {
        if !b_tags.contains(tag) && *mult == Multiplicity::One {
            *mult = Multiplicity::Optional;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    /// Figure 6 of the paper: author entities with name(first,last) and
    /// address(street,city,state,zip).
    fn author_shape() -> ShapeElement {
        ShapeElement::inner("author")
            .with_child(
                ShapeElement::inner("name")
                    .with_child(ShapeElement::leaf("first"), Multiplicity::One)
                    .with_child(ShapeElement::leaf("last"), Multiplicity::One),
                Multiplicity::One,
            )
            .with_child(
                ShapeElement::inner("address")
                    .with_child(ShapeElement::leaf("street"), Multiplicity::One)
                    .with_child(ShapeElement::leaf("city"), Multiplicity::One)
                    .with_child(ShapeElement::leaf("state"), Multiplicity::One)
                    .with_child(ShapeElement::leaf("zip"), Multiplicity::One),
                Multiplicity::One,
            )
    }

    #[test]
    fn explicit_shape_construction() {
        let author = author_shape();
        assert_eq!(author.size(), 9);
        assert_eq!(author.depth(), 3);
        assert!(!author.is_leaf());
        let (single, repeated) = author.partition_children();
        assert_eq!(single, vec!["address", "name"]);
        assert!(repeated.is_empty());
    }

    #[test]
    fn inference_from_regular_document() {
        let doc = parse_document(
            "authors.xml",
            r#"<authors>
                 <author><name><first>Alin</first><last>Deutsch</last></name>
                         <address><street>x</street><city>SD</city><state>CA</state><zip>1</zip></address></author>
                 <author><name><first>Val</first><last>Tannen</last></name>
                         <address><street>y</street><city>PH</city><state>PA</state><zip>2</zip></address></author>
               </authors>"#,
        )
        .unwrap();
        let shape = XmlShape::infer(&doc).unwrap();
        assert_eq!(shape.root.tag, "authors");
        let author = shape.find("author").unwrap();
        assert_eq!(author.size(), 9);
        // author repeats under authors.
        assert_eq!(shape.root.children["author"].1, Multiplicity::Many);
        // name occurs exactly once under author.
        assert_eq!(author.children["name"].1, Multiplicity::One);
        assert!(shape.find("city").unwrap().is_leaf());
        assert!(shape.find("nonexistent").is_none());
    }

    #[test]
    fn inference_detects_irregularity() {
        // Second drug has no notes: notes becomes Optional; note repeats: Many.
        let doc = parse_document(
            "catalog.xml",
            r#"<catalog>
                 <drug><name>a</name><notes><note>n1</note><note>n2</note></notes></drug>
                 <drug><name>b</name></drug>
               </catalog>"#,
        )
        .unwrap();
        let shape = XmlShape::infer(&doc).unwrap();
        let drug = shape.find("drug").unwrap();
        assert_eq!(drug.children["name"].1, Multiplicity::One);
        assert_eq!(drug.children["notes"].1, Multiplicity::Optional);
        let notes = shape.find("notes").unwrap();
        assert_eq!(notes.children["note"].1, Multiplicity::Many);
        let (single, repeated) = drug.partition_children();
        assert_eq!(single, vec!["name", "notes"]);
        assert!(repeated.is_empty());
    }

    #[test]
    fn attributes_and_text_are_recorded() {
        let doc = parse_document(
            "t.xml",
            r#"<items><item sku="1">widget</item><item sku="2" color="red">gadget</item></items>"#,
        )
        .unwrap();
        let shape = XmlShape::infer(&doc).unwrap();
        let item = shape.find("item").unwrap();
        assert!(item.has_text);
        assert!(item.attributes.contains(&"sku".to_string()));
        assert!(item.attributes.contains(&"color".to_string()));
    }

    #[test]
    fn infer_on_empty_document_is_none() {
        let d = Document::new("empty.xml");
        assert!(XmlShape::infer(&d).is_none());
    }

    #[test]
    fn multiplicity_observation_rules() {
        assert_eq!(Multiplicity::One.observe(1), Multiplicity::One);
        assert_eq!(Multiplicity::One.observe(0), Multiplicity::Optional);
        assert_eq!(Multiplicity::One.observe(3), Multiplicity::Many);
        assert_eq!(Multiplicity::Optional.observe(1), Multiplicity::Optional);
        assert_eq!(Multiplicity::Many.observe(1), Multiplicity::Many);
        assert!(Multiplicity::Optional.is_single());
        assert!(!Multiplicity::Many.is_single());
    }
}
