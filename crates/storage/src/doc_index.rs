//! The per-document navigation index of the native XML backend.
//!
//! One `DocIndex` lives in the [`XmlStore`](crate::XmlStore) beside each
//! document, built once on first use. It holds what the navigation kernel
//! ([`crate::navigation`]) needs to run a GReX atom without touching a string:
//! dense arena-indexed arrays for every element's node constant
//! ([`mars_grex::node_constant`], the identity the encoded facts use), tag term and
//! pre-interned direct text; the preorder numbering that turns descendant
//! enumeration into a slice and ancestry into two comparisons; and Fx-hashed
//! value indexes by tag, by text and by (tag, text). The same pass counts the
//! document's navigation statistics, so the planner reads them in O(1).

use crate::executor::Fx;
use mars_cq::Term;
use mars_grex::node_constant;
use mars_xml::{Children, Document, NodeId};
use std::collections::HashMap;

/// Rank of an arena slot that is not an element (a text node; every element
/// hangs off the root, so the walk reaches it).
const NO_RANK: u32 = u32::MAX;

/// Lookup structures and statistics of one stored document (see module docs).
#[derive(Clone, Debug)]
pub(crate) struct DocIndex {
    /// Node constant per arena slot (meaningful for elements only).
    node_term: Vec<Term>,
    /// Tag term per arena slot (meaningful for elements only).
    tag_term: Vec<Term>,
    /// Direct text per arena slot; `None` when empty (no `text#d` fact).
    text_term: Vec<Option<Term>>,
    /// Preorder rank among elements per arena slot ([`NO_RANK`] otherwise).
    rank: Vec<u32>,
    /// Per arena slot, one past the rank of the element's last descendant:
    /// its descendants-or-self are `preorder[rank..subtree_end]`.
    subtree_end: Vec<u32>,
    /// All elements in preorder.
    preorder: Vec<NodeId>,
    /// The element a node constant denotes — where bound constants and the
    /// mixed route's join values re-enter navigation.
    node_of: HashMap<Term, NodeId, Fx>,
    /// Elements by tag term, each bucket in preorder (so the descendants
    /// carrying a tag are a sub-slice found by binary search).
    by_tag: HashMap<Term, Vec<NodeId>, Fx>,
    /// Elements by text-value term — the value-join lookup that keeps
    /// key/pointer joins at one probe per binding.
    by_text: HashMap<Term, Vec<NodeId>, Fx>,
    /// Elements by (tag term, text-value term). On skewed data the plain
    /// by-text bucket of a hot key holds every pointer sharing the value;
    /// narrowing by tag first is the move the relational planner makes when
    /// it joins `tag` with `text` before the key join.
    by_tag_text: HashMap<(Term, Term), Vec<NodeId>, Fx>,
    /// Pre-interned (name, value) attribute entries of the elements that
    /// have any.
    attributes: HashMap<NodeId, Vec<(Term, Term)>, Fx>,
    descendant_pairs: usize,
    text_count: usize,
    attr_count: usize,
}

impl DocIndex {
    pub(crate) fn new(doc: &Document) -> DocIndex {
        let slots = doc.len();
        let placeholder = Term::constant_int(0);
        let mut index = DocIndex {
            node_term: vec![placeholder; slots],
            tag_term: vec![placeholder; slots],
            text_term: vec![None; slots],
            rank: vec![NO_RANK; slots],
            subtree_end: vec![0; slots],
            preorder: Vec::new(),
            node_of: HashMap::default(),
            by_tag: HashMap::default(),
            by_text: HashMap::default(),
            by_tag_text: HashMap::default(),
            attributes: HashMap::default(),
            descendant_pairs: 0,
            text_count: 0,
            attr_count: 0,
        };
        // Preorder walk with one child cursor per open element; an element is
        // closed (its subtree end fixed) when its cursor runs out.
        let mut open: Vec<(NodeId, Children<'_>)> = Vec::new();
        if let Some(root) = doc.root() {
            index.enter(doc, root);
            open.push((root, doc.node(root).children()));
        }
        while let Some((id, children)) = open.last_mut() {
            if let Some(child) = children.find(|c| doc.node(*c).is_element()) {
                index.enter(doc, child);
                open.push((child, doc.node(child).children()));
                continue;
            }
            let end = index.preorder.len() as u32;
            index.subtree_end[id.index()] = end;
            index.descendant_pairs += (end - index.rank[id.index()]) as usize;
            open.pop();
        }
        index
    }

    fn enter(&mut self, doc: &Document, id: NodeId) {
        let node = doc.node(id);
        let slot = id.index();
        let term = node_constant(&doc.name, id);
        let tag = Term::constant_str(node.tag().unwrap_or_default());
        self.rank[slot] = self.preorder.len() as u32;
        self.preorder.push(id);
        self.node_term[slot] = term;
        self.tag_term[slot] = tag;
        self.node_of.insert(term, id);
        self.by_tag.entry(tag).or_default().push(id);
        if !node.attributes.is_empty() {
            let entries = node.attributes.iter();
            let entries = entries.map(|(n, v)| (Term::constant_str(n), Term::constant_str(v)));
            self.attributes.insert(id, entries.collect());
            self.attr_count += node.attributes.len();
        }
        let text = doc.text_of(id);
        if !text.is_empty() {
            let value = Term::constant_str(&text);
            self.text_term[slot] = Some(value);
            self.text_count += 1;
            self.by_text.entry(value).or_default().push(id);
            self.by_tag_text.entry((tag, value)).or_default().push(id);
        }
    }

    /// The node constant of an element.
    pub(crate) fn node_term(&self, id: NodeId) -> Term {
        self.node_term[id.index()]
    }

    /// The tag term of an element.
    pub(crate) fn tag_term(&self, id: NodeId) -> Term {
        self.tag_term[id.index()]
    }

    /// The direct text of an element, if non-empty.
    pub(crate) fn text_term(&self, id: NodeId) -> Option<Term> {
        self.text_term[id.index()]
    }

    /// The (name, value) attribute entries of an element.
    pub(crate) fn attributes(&self, id: NodeId) -> &[(Term, Term)] {
        self.attributes.get(&id).map(Vec::as_slice).unwrap_or_default()
    }

    /// The element `t` denotes, if it is a node constant of this document.
    pub(crate) fn node_of(&self, t: Term) -> Option<NodeId> {
        self.node_of.get(&t).copied()
    }

    /// All elements, in preorder.
    pub(crate) fn elements(&self) -> &[NodeId] {
        &self.preorder
    }

    /// The descendants-or-self of `a`, in preorder.
    pub(crate) fn descendants_or_self(&self, a: NodeId) -> &[NodeId] {
        &self.preorder[self.rank[a.index()] as usize..self.subtree_end[a.index()] as usize]
    }

    /// The descendants-or-self of `a` carrying `tag`: a sub-slice of the tag
    /// bucket, so nothing outside the answer is enumerated.
    pub(crate) fn descendants_with_tag(&self, a: NodeId, tag: Term) -> &[NodeId] {
        let bucket = self.with_tag(tag);
        let (lo, hi) = (self.rank[a.index()], self.subtree_end[a.index()]);
        let from = bucket.partition_point(|e| self.rank[e.index()] < lo);
        let to = from + bucket[from..].partition_point(|e| self.rank[e.index()] < hi);
        &bucket[from..to]
    }

    /// Whether `d` is `a` or one of its descendants.
    pub(crate) fn is_descendant_or_self(&self, a: NodeId, d: NodeId) -> bool {
        let r = self.rank[d.index()];
        self.rank[a.index()] <= r && r < self.subtree_end[a.index()]
    }

    /// Elements carrying `tag`, in preorder.
    pub(crate) fn with_tag(&self, tag: Term) -> &[NodeId] {
        self.by_tag.get(&tag).map(Vec::as_slice).unwrap_or_default()
    }

    /// Elements whose direct text is `value`.
    pub(crate) fn with_text(&self, value: Term) -> &[NodeId] {
        self.by_text.get(&value).map(Vec::as_slice).unwrap_or_default()
    }

    /// Elements carrying `tag` whose direct text is `value`.
    pub(crate) fn with_tag_and_text(&self, tag: Term, value: Term) -> &[NodeId] {
        self.by_tag_text.get(&(tag, value)).map(Vec::as_slice).unwrap_or_default()
    }

    /// Descendant-or-self pairs (the `desc#d` cardinality).
    pub(crate) fn descendant_pairs(&self) -> usize {
        self.descendant_pairs
    }

    /// Elements with non-empty direct text (the `text#d` cardinality).
    pub(crate) fn text_count(&self) -> usize {
        self.text_count
    }

    /// Distinct direct-text values.
    pub(crate) fn distinct_text_values(&self) -> usize {
        self.by_text.len()
    }

    /// Attribute entries (the `attr#d` cardinality).
    pub(crate) fn attr_count(&self) -> usize {
        self.attr_count
    }
}
