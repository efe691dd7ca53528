//! Encoding of concrete documents as ground GReX facts.
//!
//! MARS never stores data this way (GReX is purely logical), but the
//! reproduction uses ground encodings in two places: the storage substrate
//! executes relational reformulations that mention GReX predicates of
//! proprietary XML documents, and the test suite checks that reformulations
//! return the same answers as the original queries.
//!
//! A node is the typed constant [`Constant::Node`]: its document's symbol,
//! resolved once per document, and its arena slot. Encoding a document
//! formats nothing per node and interns only its tags, texts and attribute
//! names and values; the schema's eight predicates are resolved once.

use crate::schema::GrexSchema;
use mars_cq::{symbol, Atom, Constant, Term};
use mars_xml::{Document, NodeId};

/// The identity of node `id` of `document`: the typed constant
/// [`Constant::Node`], printed `"<document>/n<k>"`. The encoded facts and
/// the native navigation index both name nodes this way, which is what lets
/// the two stores agree byte for byte.
pub fn node_constant(document: &str, id: NodeId) -> Term {
    Term::Const(Constant::node(symbol(document), id.0))
}

/// Encode a document into ground GReX atoms, nodes named by
/// [`node_constant`]. The atoms are written into one allocation of their
/// exact count.
pub fn encode_document(doc: &Document) -> Vec<Atom> {
    let schema = GrexSchema::new(&doc.name);
    let document = symbol(&doc.name);
    let node_const = |id: NodeId| Term::Const(Constant::node(document, id.0));

    let Some(root) = doc.root() else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(fact_count(doc));
    out.push(schema.root_atom(node_const(root)));

    for id in doc.all_nodes() {
        let node = doc.node(id);
        if !node.is_element() {
            continue;
        }
        let me = node_const(id);
        out.push(schema.el_atom(me));
        out.push(schema.id_atom(me, me));
        if let Some(tag) = node.tag() {
            out.push(schema.tag_atom(me, tag));
        }
        let text = doc.text_of(id);
        if !text.is_empty() {
            out.push(schema.text_atom(me, Term::constant_str(&text)));
        }
        for (name, value) in node.attributes {
            out.push(schema.attr_atom(me, name, Term::constant_str(value)));
        }
        for c in doc.child_elements(id) {
            out.push(schema.child_atom(me, node_const(c)));
        }
        // desc is reflexive-transitive (descendant-or-self).
        out.push(schema.desc_atom(me, me));
        for d in doc.descendants(id) {
            out.push(schema.desc_atom(me, node_const(d)));
        }
    }
    out
}

/// The number of facts [`encode_document`] writes for a document with a
/// root: the root fact, and per element its `el`, `id`, `tag` and reflexive
/// `desc` facts, a `child` fact unless it is the root, one `desc` fact per
/// element ancestor, a `text` fact when its direct text is not empty and an
/// `attr` fact per attribute. One pass over the arena, where a parent comes
/// before its children, counts every element's ancestors.
fn fact_count(doc: &Document) -> usize {
    let mut ancestors = vec![0; doc.len()];
    let mut facts = 1;
    for id in doc.all_nodes() {
        let node = doc.node(id);
        if !node.is_element() {
            continue;
        }
        let above = node.parent.map_or(0, |p| ancestors[p.index()] + 1);
        ancestors[id.index()] = above;
        let mut texts = node.children().filter_map(|c| doc.node(c).text_value());
        let text = texts.any(|t| !t.is_empty());
        facts += 4 + usize::from(node.parent.is_some()) + above;
        facts += usize::from(text) + node.attributes.len();
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::{NavBase, Predicate};
    use mars_xml::parse_document;

    fn sample() -> Document {
        parse_document(
            "catalog.xml",
            r#"<catalog>
                 <drug id="d1"><name>aspirin</name><price>3</price></drug>
                 <drug id="d2"><name>ibuprofen</name><price>5</price></drug>
               </catalog>"#,
        )
        .unwrap()
    }

    fn count(atoms: &[Atom], p: Predicate) -> usize {
        atoms.iter().filter(|a| a.predicate == p).count()
    }

    #[test]
    fn encoding_counts_match_document_structure() {
        let doc = sample();
        let atoms = encode_document(&doc);
        let s = GrexSchema::new("catalog.xml");
        assert_eq!(count(&atoms, s.predicate(NavBase::Root)), 1);
        assert_eq!(count(&atoms, s.predicate(NavBase::El)), 7);
        assert_eq!(count(&atoms, s.predicate(NavBase::Tag)), 7);
        assert_eq!(count(&atoms, s.predicate(NavBase::Child)), 6);
        // desc: per node, self + descendants: 7 + 6 (root) + 2*2 (drugs) + 0 = 17
        assert_eq!(count(&atoms, s.predicate(NavBase::Desc)), 17);
        assert_eq!(count(&atoms, s.predicate(NavBase::Text)), 4);
        assert_eq!(count(&atoms, s.predicate(NavBase::Attr)), 2);
        assert_eq!(count(&atoms, s.predicate(NavBase::Id)), 7);
    }

    /// The encoding is written into exactly the room reserved for it.
    #[test]
    fn encoding_reserves_its_exact_fact_count() {
        use mars_workloads::{scenarios::Scenario, star::StarConfig};
        let mut documents = vec![sample()];
        for scenario in Scenario::matrix().into_iter().filter(|s| s.redundancy == 0) {
            documents.push(scenario.generate_document(50, 1));
        }
        documents.push(StarConfig::figure5(4).generate_document(20, 5, 1));
        for doc in &documents {
            let atoms = encode_document(doc);
            assert_eq!(atoms.len(), atoms.capacity(), "{}", doc.name);
        }
    }

    #[test]
    fn encoding_is_ground() {
        let atoms = encode_document(&sample());
        assert!(atoms.iter().all(|a| a.is_ground()));
    }

    #[test]
    fn empty_document_encodes_to_nothing() {
        let doc = Document::new("empty.xml");
        assert!(encode_document(&doc).is_empty());
    }

    /// Every node of the encoding is its typed constant, spelled as the
    /// string constant `<document>/n<k>` was, and no text is a node.
    #[test]
    fn nodes_are_typed_constants() {
        let atoms = encode_document(&sample());
        let s = GrexSchema::new("catalog.xml");
        let root = node_constant("catalog.xml", NodeId(0));
        assert_eq!(root.to_string(), "\"catalog.xml/n0\"");
        assert!(atoms
            .iter()
            .any(|a| a.predicate == s.predicate(NavBase::Root) && a.args[0] == root));
        assert!(atoms
            .iter()
            .filter(|a| a.predicate == s.predicate(NavBase::El))
            .all(|a| matches!(a.args[0], Term::Const(Constant::Node { .. }))));
        assert!(atoms
            .iter()
            .filter(|a| a.predicate == s.predicate(NavBase::Text))
            .all(|a| matches!(a.args[1], Term::Const(Constant::Str(_)))));
    }

    #[test]
    fn text_values_appear_as_constants() {
        let atoms = encode_document(&sample());
        let s = GrexSchema::new("catalog.xml");
        assert!(atoms.iter().any(|a| a.predicate == s.predicate(NavBase::Text)
            && a.args[1] == Term::constant_str("aspirin")));
        assert!(atoms
            .iter()
            .any(|a| a.predicate == s.predicate(NavBase::Attr)
                && a.args[2] == Term::constant_str("d1")));
    }
}
