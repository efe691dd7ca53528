//! The per-document navigation index of the native XML backend.
//!
//! One `DocIndex` lives in the [`XmlStore`](crate::XmlStore) beside each
//! document, built once on first use. It holds what the navigation kernel
//! ([`crate::navigation`]) needs to run a GReX atom without touching a string:
//! dense arena-indexed arrays for every element's tag term and pre-interned
//! direct text; the **parent array**, one `u32` per arena slot,
//! which `child` with a bound child and `desc` with a bound descendant walk
//! up without building a node view; the **child array**, every element's
//! element children as one contiguous slice, each child beside its tag
//! symbol, so `child` with a bound parent scans a slice instead of sibling
//! links through text nodes, and a fused tag is compared without a second
//! lookup; the preorder numbering that turns descendant enumeration into a
//! slice and ancestry into two comparisons; and value indexes by tag, by
//! text and by (tag, text), each one flat array of elements with an
//! Fx-hashed map from the key's interned symbol ids to a range of it.
//!
//! No node is stored, formatted or interned: an element's constant is the
//! typed [`Constant::Node`] of the document's symbol and its arena slot, as
//! in the encoded facts ([`mars_grex::node_constant`]).
//!
//! One preorder walk fills all of it, and the document's [`NavStats`]
//! record, so the planner reads it in O(1). Entering an element lays out
//! its child slice and sets its children's parents in the one pass over
//! its children that also finds its direct text, which is interned from the
//! document's own slice when one text node holds it.

use crate::executor::Fx;
use mars_cost::NavStats;
use mars_cq::{Constant, Symbol, Term};
use mars_xml::{Document, NodeId};
use std::collections::HashMap;
use std::hash::Hash;

/// Rank of an arena slot that is not an element (a text node; every element
/// hangs off the root, so the walk reaches it), and the parent of the root.
const NONE: u32 = u32::MAX;

/// Lookup structures and statistics of one stored document (see module docs).
#[derive(Clone, Debug)]
pub(crate) struct DocIndex {
    /// The document name's symbol: the `doc` of its node constants.
    document: Symbol,
    /// Tag term per arena slot (meaningful for elements only).
    tag_term: Vec<Term>,
    /// Direct text per arena slot; `None` when empty (no `text#d` fact).
    text_term: Vec<Option<Term>>,
    /// Parent per arena slot ([`NONE`] for the root).
    parent: Vec<u32>,
    /// Per arena slot, the element's element children: the range of
    /// `children` they occupy.
    child_range: Vec<(u32, u32)>,
    /// Every element's element children, each with its tag symbol, back to
    /// back, each element's in document order.
    children: Vec<(NodeId, u32)>,
    /// Preorder rank among elements per arena slot ([`NONE`] otherwise).
    rank: Vec<u32>,
    /// Per arena slot, one past the rank of the element's last descendant:
    /// its descendants-or-self are `preorder[rank..subtree_end]`.
    subtree_end: Vec<u32>,
    /// All elements in preorder.
    preorder: Vec<NodeId>,
    /// Elements by tag symbol, each bucket in preorder (so the descendants
    /// carrying a tag are a sub-slice found by binary search).
    by_tag: Buckets<u32>,
    /// Elements by text-value symbol — the value-join lookup that keeps
    /// key/pointer joins at one probe per binding.
    by_text: Buckets<u32>,
    /// Elements by (tag, text-value) symbols, packed into one word. On
    /// skewed data the plain by-text bucket of a hot key holds every pointer
    /// sharing the value; narrowing by tag first is the move the relational
    /// planner makes when it joins `tag` with `text` before the key join.
    by_tag_text: Buckets<u64>,
    /// Pre-interned (name, value) attribute entries of the elements that
    /// have any.
    attributes: HashMap<NodeId, Vec<(Term, Term)>, Fx>,
    /// The counters of the document's GReX encoding.
    stats: NavStats,
}

impl DocIndex {
    pub(crate) fn new(doc: &Document) -> DocIndex {
        let slots = doc.len();
        let placeholder = Term::Const(Constant::Param(0));
        let mut index = DocIndex {
            document: Symbol::intern(&doc.name),
            tag_term: vec![placeholder; slots],
            text_term: vec![None; slots],
            parent: vec![NONE; slots],
            child_range: vec![(0, 0); slots],
            children: Vec::new(),
            rank: vec![NONE; slots],
            subtree_end: vec![0; slots],
            preorder: Vec::new(),
            by_tag: Buckets::default(),
            by_text: Buckets::default(),
            by_tag_text: Buckets::default(),
            attributes: HashMap::default(),
            stats: NavStats::default(),
        };
        // Preorder walk with one cursor into `children` per open element; an
        // element is closed (its subtree end fixed) when its cursor runs out.
        let mut open: Vec<(NodeId, u32)> = Vec::new();
        let (mut text, mut texts) = (String::new(), Vec::new());
        if let Some(root) = doc.root() {
            index.enter(doc, root, &mut text, &mut texts);
            open.push((root, index.child_range[root.index()].0));
        }
        while let Some((id, cursor)) = open.last_mut() {
            if *cursor < index.child_range[id.index()].1 {
                let (child, _) = index.children[*cursor as usize];
                *cursor += 1;
                index.enter(doc, child, &mut text, &mut texts);
                open.push((child, index.child_range[child.index()].0));
                continue;
            }
            let end = index.preorder.len() as u32;
            index.subtree_end[id.index()] = end;
            index.stats.descendant_pairs += (end - index.rank[id.index()]) as usize;
            open.pop();
        }
        let tag = |n: NodeId| symbol(index.tag_term[n.index()]).expect("a tag is a string");
        for k in 0..index.children.len() {
            index.children[k].1 = tag(index.children[k].0);
        }
        index.by_tag = Buckets::new(index.preorder.iter().map(|&n| (tag(n), n)));
        index.by_text = Buckets::new(texts.iter().map(|&(_, text, n)| (text, n)));
        index.by_tag_text =
            Buckets::new(texts.iter().map(|&(tag, text, n)| (tag_text(tag, text), n)));
        index.stats.elements = index.preorder.len();
        index.stats.distinct_texts = index.by_text.ranges.len();
        index
    }

    /// Number element `id`, intern what it holds, lay out its element
    /// children, and list its (tag, text, element) symbols in `texts` when
    /// it has a direct text. `text` is scratch for a direct text split over
    /// several text nodes; a single one is interned from the document's own
    /// slice.
    fn enter(
        &mut self,
        doc: &Document,
        id: NodeId,
        text: &mut String,
        texts: &mut Vec<(u32, u32, NodeId)>,
    ) {
        let node = doc.node(id);
        let slot = id.index();
        let tag = Term::constant_str(node.tag().unwrap_or_default());
        self.rank[slot] = self.preorder.len() as u32;
        self.preorder.push(id);
        self.tag_term[slot] = tag;
        if !node.attributes.is_empty() {
            let entries = node.attributes.iter();
            let entries = entries.map(|(n, v)| (Term::constant_str(n), Term::constant_str(v)));
            self.attributes.insert(id, entries.collect());
            self.stats.attributes += node.attributes.len();
        }
        let start = self.children.len() as u32;
        let (mut first, mut pieces) = ("", 0);
        for child in node.children() {
            self.parent[child.index()] = id.0;
            let Some(value) = doc.node(child).text_value() else {
                self.children.push((child, NONE));
                continue;
            };
            pieces += 1;
            match pieces {
                1 => first = value,
                2 => {
                    text.clear();
                    text.push_str(first);
                    text.push_str(value);
                }
                _ => text.push_str(value),
            }
        }
        self.child_range[slot] = (start, self.children.len() as u32);
        let value = if pieces > 1 { text.as_str() } else { first };
        if !value.is_empty() {
            let value = Term::constant_str(value);
            self.text_term[slot] = Some(value);
            self.stats.texts += 1;
            let string = |t| symbol(t).expect("an interned string");
            texts.push((string(tag), string(value), id));
        }
    }

    /// The node constant of an element.
    pub(crate) fn node_term(&self, id: NodeId) -> Term {
        Term::Const(Constant::node(self.document, id.0))
    }

    /// The tag term of an element.
    pub(crate) fn tag_term(&self, id: NodeId) -> Term {
        self.tag_term[id.index()]
    }

    /// The direct text of an element, if non-empty.
    pub(crate) fn text_term(&self, id: NodeId) -> Option<Term> {
        self.text_term[id.index()]
    }

    /// The parent of an element, `None` for the root.
    pub(crate) fn parent(&self, id: NodeId) -> Option<NodeId> {
        let parent = self.parent[id.index()];
        (parent != NONE).then_some(NodeId(parent))
    }

    /// The element children of an element in document order, each with its
    /// tag symbol.
    pub(crate) fn children(&self, id: NodeId) -> &[(NodeId, u32)] {
        let (start, end) = self.child_range[id.index()];
        &self.children[start as usize..end as usize]
    }

    /// The (name, value) attribute entries of an element.
    pub(crate) fn attributes(&self, id: NodeId) -> &[(Term, Term)] {
        self.attributes.get(&id).map(Vec::as_slice).unwrap_or_default()
    }

    /// The node `t` names, if it is a node constant of this document: a
    /// document check only, enough for a term that a step over this index
    /// bound, which is always an element.
    pub(crate) fn node(&self, t: Term) -> Option<NodeId> {
        match t {
            Term::Const(Constant::Node { doc, id }) if doc == self.document.0 => Some(NodeId(id)),
            _ => None,
        }
    }

    /// The element `t` denotes, if it is a node constant of this document
    /// naming one: the check for a constant of a query.
    pub(crate) fn node_of(&self, t: Term) -> Option<NodeId> {
        self.node(t).filter(|n| self.rank.get(n.index()).is_some_and(|&r| r != NONE))
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
        symbol(tag).map_or(&[], |tag| self.by_tag.get(tag))
    }

    /// Elements whose direct text is `value`.
    pub(crate) fn with_text(&self, value: Term) -> &[NodeId] {
        symbol(value).map_or(&[], |value| self.by_text.get(value))
    }

    /// Elements carrying `tag` whose direct text is `value`.
    pub(crate) fn with_tag_and_text(&self, tag: Term, value: Term) -> &[NodeId] {
        match (symbol(tag), symbol(value)) {
            (Some(tag), Some(value)) => self.by_tag_text.get(tag_text(tag, value)),
            _ => &[],
        }
    }

    /// The document's navigation statistics.
    pub(crate) fn stats(&self) -> NavStats {
        self.stats
    }
}

/// The interned symbol of a string constant: what tags and texts are keyed
/// by. `None` for any other term, which no element carries.
pub(crate) fn symbol(t: Term) -> Option<u32> {
    match t {
        Term::Const(Constant::Str(s)) => Some(s),
        _ => None,
    }
}

/// The `by_tag_text` key of a tag and a text symbol.
fn tag_text(tag: u32, text: u32) -> u64 {
    (tag as u64) << 32 | text as u64
}

/// Elements grouped by a key: one flat array holding each key's elements
/// back to back, in the order they were listed, and the range of it each
/// key owns.
#[derive(Clone, Debug)]
struct Buckets<K> {
    ranges: HashMap<K, (u32, u32), Fx>,
    elements: Vec<NodeId>,
}

impl<K> Default for Buckets<K> {
    fn default() -> Self {
        Buckets { ranges: HashMap::default(), elements: Vec::new() }
    }
}

impl<K: Copy + Eq + Hash> Buckets<K> {
    /// Group `entries` by key: count each key's entries, give each key its
    /// range, then place every element at the end of its key's.
    fn new(entries: impl Iterator<Item = (K, NodeId)> + Clone) -> Buckets<K> {
        let mut ranges: HashMap<K, (u32, u32), Fx> = HashMap::default();
        for (key, _) in entries.clone() {
            ranges.entry(key).or_default().1 += 1;
        }
        let mut start = 0;
        for (begin, end) in ranges.values_mut() {
            (*begin, *end, start) = (start, start, start + *end);
        }
        let mut elements = vec![NodeId(0); start as usize];
        for (key, n) in entries {
            let range = ranges.get_mut(&key).expect("every key was counted");
            elements[range.1 as usize] = n;
            range.1 += 1;
        }
        Buckets { ranges, elements }
    }

    /// The elements listed under `key`, in their listed order.
    fn get(&self, key: K) -> &[NodeId] {
        self.ranges
            .get(&key)
            .map_or(&[], |&(start, end)| &self.elements[start as usize..end as usize])
    }
}
