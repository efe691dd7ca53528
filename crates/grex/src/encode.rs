//! Encoding of concrete documents as ground GReX facts.
//!
//! MARS never stores data this way (GReX is purely logical), but the
//! reproduction uses ground encodings in two places: the storage substrate
//! executes relational reformulations that mention GReX predicates of
//! proprietary XML documents, and the test suite checks that reformulations
//! return the same answers as the original queries.

use crate::schema::GrexSchema;
use mars_cq::{Atom, Term};
use mars_xml::{Document, NodeId};

/// The identity of node `id` of `document`: the string constant
/// `"<document>/n<k>"`. The encoded facts and the native navigation index
/// both spell nodes this way, which is what lets the two stores agree byte
/// for byte.
pub fn node_constant(document: &str, id: NodeId) -> Term {
    Term::constant_str(&format!("{document}/n{}", id.0))
}

/// Encode a document into ground GReX atoms, nodes named by
/// [`node_constant`].
pub fn encode_document(doc: &Document) -> Vec<Atom> {
    let schema = GrexSchema::new(&doc.name);
    let mut out = Vec::new();
    let node_const = |id: NodeId| node_constant(&doc.name, id);

    let Some(root) = doc.root() else {
        return out;
    };
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

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::Predicate;
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
        assert_eq!(count(&atoms, s.root()), 1);
        assert_eq!(count(&atoms, s.el()), 7);
        assert_eq!(count(&atoms, s.tag()), 7);
        assert_eq!(count(&atoms, s.child()), 6);
        // desc: per node, self + descendants: 7 + 6 (root) + 2*2 (drugs) + 0 = 17
        assert_eq!(count(&atoms, s.desc()), 17);
        assert_eq!(count(&atoms, s.text()), 4);
        assert_eq!(count(&atoms, s.attr()), 2);
        assert_eq!(count(&atoms, s.id()), 7);
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

    #[test]
    fn text_values_appear_as_constants() {
        let atoms = encode_document(&sample());
        let s = GrexSchema::new("catalog.xml");
        assert!(atoms
            .iter()
            .any(|a| a.predicate == s.text() && a.args[1] == Term::constant_str("aspirin")));
        assert!(atoms
            .iter()
            .any(|a| a.predicate == s.attr() && a.args[2] == Term::constant_str("d1")));
    }
}
