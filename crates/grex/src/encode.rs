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
use mars_cq::{symbol, Atom, Constant, NavBase, Predicate, Term};
use mars_xml::{Document, NodeId};

/// The identity of node `id` of `document`: the typed constant
/// [`Constant::Node`], printed `"<document>/n<k>"`. The encoded facts and
/// the native navigation index both name nodes this way, which is what lets
/// the two stores agree byte for byte.
pub fn node_constant(document: &str, id: NodeId) -> Term {
    Term::Const(Constant::node(symbol(document), id.0))
}

/// A document's ground GReX encoding, held as its eight relations: one
/// row-major `Vec<Term>` per [`NavBase`], row `i` of a base of arity `k`
/// being the terms `i * k .. (i + 1) * k`. Nothing is allocated per fact,
/// so a store loads a relation as one slice
/// (`mars_storage::RelationalDatabase::load_facts`).
#[derive(Clone, Debug)]
pub struct GrexFacts {
    schema: GrexSchema,
    /// The rows of each base, in [`NavBase::ALL`] order.
    relations: [Vec<Term>; 8],
}

impl GrexFacts {
    /// The document's predicate of `base`.
    pub fn predicate(&self, base: NavBase) -> Predicate {
        self.schema.predicate(base)
    }

    /// The rows of `base`'s relation, back to back: `base.arity()` terms
    /// per row, in the order the encoding writes them.
    pub fn relation(&self, base: NavBase) -> &[Term] {
        &self.relations[base as usize]
    }

    /// Number of facts, over all eight relations.
    pub fn len(&self) -> usize {
        NavBase::ALL.iter().map(|&base| self.relation(base).len() / base.arity()).sum()
    }

    /// Does the encoding hold no fact (a document without a root)?
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(Vec::is_empty)
    }

    /// Every fact as an atom, relation by relation in [`NavBase::ALL`]
    /// order and each relation's rows in order: for tests and oracles,
    /// which read facts one at a time.
    pub fn atoms(&self) -> impl Iterator<Item = Atom> + '_ {
        NavBase::ALL.into_iter().flat_map(move |base| {
            let predicate = self.predicate(base);
            let rows = self.relation(base).chunks_exact(base.arity());
            rows.map(move |row| Atom { predicate, args: row.into() })
        })
    }

    /// Append a row to `base`'s relation, resolving its predicate on the
    /// first one.
    fn push(&mut self, base: NavBase, row: &[Term]) {
        self.schema.predicate(base);
        self.relations[base as usize].extend_from_slice(row);
    }
}

/// Encode a document into ground GReX facts, nodes named by
/// [`node_constant`]. Each relation is written into one allocation of its
/// exact row count, counted in one pass over the arena first.
///
/// Symbols are interned in one fixed order, which fixes their ids: the
/// document's name, then per element in arena order its tag, its direct
/// text and its attributes (each value before its name); a predicate at the
/// first fact of its relation (`tag#d` before the first tag, `text#d` after
/// the first text, `attr#d` between the first value and its name). A
/// tag's symbol is resolved once, at its first element, and an element
/// whose direct text is a single text node interns that node's text where
/// it lies.
pub fn encode_document(doc: &Document) -> GrexFacts {
    let schema = GrexSchema::new(&doc.name);
    let document = symbol(&doc.name);
    let node_const = |id: NodeId| Term::Const(Constant::node(document, id.0));

    let Some(root) = doc.root() else {
        return GrexFacts { schema, relations: Default::default() };
    };
    let counts = row_counts(doc);
    let relations =
        NavBase::ALL.map(|base| Vec::with_capacity(counts[base as usize] * base.arity()));
    let mut facts = GrexFacts { schema, relations };
    let mut tags: Vec<Option<Term>> = vec![None; doc.tag_count()];
    let mut joined = String::new();
    facts.push(NavBase::Root, &[node_const(root)]);

    for id in doc.all_nodes() {
        let Some(tag) = doc.tag_id(id) else {
            continue;
        };
        let node = doc.node(id);
        let me = node_const(id);
        facts.push(NavBase::El, &[me]);
        facts.push(NavBase::Id, &[me, me]);
        let tag = match tags[tag.index()] {
            Some(tag) => tag,
            None => {
                // `tag#d` is interned before the first tag.
                facts.schema.predicate(NavBase::Tag);
                let term = Term::constant_str(node.tag().expect("an element has a tag"));
                tags[tag.index()] = Some(term);
                term
            }
        };
        facts.push(NavBase::Tag, &[me, tag]);
        let mut texts = node.children().filter_map(|c| doc.node(c).text_value());
        let text = match (texts.next(), texts.next()) {
            (Some(only), None) => only,
            (Some(first), Some(second)) => {
                joined.clear();
                joined.extend([first, second].into_iter().chain(texts));
                &joined
            }
            (None, _) => "",
        };
        if !text.is_empty() {
            facts.push(NavBase::Text, &[me, Term::constant_str(text)]);
        }
        for (name, value) in node.attributes {
            // The value, `attr#d` on the first attribute, then the name.
            let value = Term::constant_str(value);
            facts.schema.predicate(NavBase::Attr);
            facts.push(NavBase::Attr, &[me, Term::constant_str(name), value]);
        }
        for c in doc.child_elements(id) {
            facts.push(NavBase::Child, &[me, node_const(c)]);
        }
        // desc is reflexive-transitive (descendant-or-self).
        facts.push(NavBase::Desc, &[me, me]);
        for d in doc.descendants(id) {
            facts.push(NavBase::Desc, &[me, node_const(d)]);
        }
    }
    facts
}

/// The number of rows [`encode_document`] writes into each relation of a
/// document with a root, in [`NavBase::ALL`] order: one `root` row, per
/// element its `el`, `id`, `tag` and reflexive `desc` rows, a `child` row
/// unless it is the root, one `desc` row per element ancestor, a `text` row
/// when its direct text is not empty and an `attr` row per attribute. One
/// pass over the arena, where a parent comes before its children, counts
/// every element's ancestors.
fn row_counts(doc: &Document) -> [usize; 8] {
    let mut ancestors = vec![0; doc.len()];
    let mut counts = [0; 8];
    let mut count = |base: NavBase, rows: usize| counts[base as usize] += rows;
    count(NavBase::Root, 1);
    for id in doc.all_nodes() {
        let node = doc.node(id);
        if !node.is_element() {
            continue;
        }
        let above = node.parent.map_or(0, |p| ancestors[p.index()] + 1);
        ancestors[id.index()] = above;
        let mut texts = node.children().filter_map(|c| doc.node(c).text_value());
        for base in [NavBase::El, NavBase::Id, NavBase::Tag] {
            count(base, 1);
        }
        count(NavBase::Desc, 1 + above);
        count(NavBase::Child, usize::from(node.parent.is_some()));
        count(NavBase::Text, usize::from(texts.any(|t| !t.is_empty())));
        count(NavBase::Attr, node.attributes.len());
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn count(facts: &GrexFacts, base: NavBase) -> usize {
        facts.relation(base).len() / base.arity()
    }

    #[test]
    fn encoding_counts_match_document_structure() {
        let facts = encode_document(&sample());
        assert_eq!(count(&facts, NavBase::Root), 1);
        assert_eq!(count(&facts, NavBase::El), 7);
        assert_eq!(count(&facts, NavBase::Tag), 7);
        assert_eq!(count(&facts, NavBase::Child), 6);
        // desc: per node, self + descendants: 7 + 6 (root) + 2*2 (drugs) + 0 = 17
        assert_eq!(count(&facts, NavBase::Desc), 17);
        assert_eq!(count(&facts, NavBase::Text), 4);
        assert_eq!(count(&facts, NavBase::Attr), 2);
        assert_eq!(count(&facts, NavBase::Id), 7);
        assert_eq!(facts.len(), 51);
        assert_eq!(facts.atoms().count(), 51);
        let s = GrexSchema::new("catalog.xml");
        for base in NavBase::ALL {
            let atoms = facts.atoms().filter(|a| a.predicate == s.predicate(base));
            assert_eq!(atoms.count(), count(&facts, base), "{base:?}");
        }
    }

    /// Each relation is written into exactly the room reserved for it.
    #[test]
    fn encoding_reserves_its_exact_fact_count() {
        use mars_workloads::{scenarios::Scenario, star::StarConfig};
        let mut documents = vec![sample()];
        for scenario in Scenario::matrix().into_iter().filter(|s| s.redundancy == 0) {
            documents.push(scenario.generate_document(50, 1));
        }
        documents.push(StarConfig::figure5(4).generate_document(20, 5, 1));
        for doc in &documents {
            let facts = encode_document(doc);
            for base in NavBase::ALL {
                let relation = &facts.relations[base as usize];
                assert_eq!(relation.len(), relation.capacity(), "{} {base:?}", doc.name);
            }
        }
    }

    /// An element's direct text is its text children joined, in order,
    /// whether it has one, several or none that is not empty.
    #[test]
    fn direct_text_joins_the_text_children() {
        let mut doc = Document::new("texts.xml");
        let root = doc.create_root("r");
        let one = doc.add_leaf(root, "a", "x");
        let two = doc.add_leaf(root, "a", "y");
        doc.add_element(two, "b");
        doc.add_text(two, "z");
        let blank = doc.add_leaf(root, "a", "");
        let facts = encode_document(&doc);
        let texts: Vec<Atom> =
            facts.atoms().filter(|a| a.predicate == facts.predicate(NavBase::Text)).collect();
        let expected = [(one, "x"), (two, "yz")].map(|(id, text)| Atom {
            predicate: facts.predicate(NavBase::Text),
            args: [node_constant("texts.xml", id), Term::constant_str(text)].as_slice().into(),
        });
        assert_eq!(texts, expected);
        assert!(texts.iter().all(|a| a.args[0] != node_constant("texts.xml", blank)));
    }

    /// Symbols are interned in the one order the encoding fixes (see
    /// [`encode_document`]), so their ids, and the order of a `Distinct`
    /// over them, do not depend on how the encoding is stored. The names
    /// are this test's own, so each is new to the interner.
    #[test]
    fn symbols_are_interned_in_the_encoding_order() {
        let doc = parse_document(
            "interning.xml",
            r#"<in_r in_n1="in_v1"><in_a>in_t1</in_a><in_b in_n2="in_v2">in_t2</in_b><in_a>in_t3</in_a></in_r>"#,
        )
        .unwrap();
        encode_document(&doc);
        let order = [
            "interning.xml",
            "root#interning.xml",
            "el#interning.xml",
            "id#interning.xml",
            "tag#interning.xml",
            "in_r",
            "in_v1",
            "attr#interning.xml",
            "in_n1",
            "child#interning.xml",
            "desc#interning.xml",
            "in_a",
            "in_t1",
            "text#interning.xml",
            "in_b",
            "in_t2",
            "in_v2",
            "in_n2",
            "in_t3",
        ];
        let ids: Vec<u32> = order.iter().map(|name| symbol(name).0).collect();
        assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "{order:?} got ids {ids:?}");
    }

    #[test]
    fn encoding_is_ground() {
        assert!(encode_document(&sample()).atoms().all(|a| a.is_ground()));
    }

    #[test]
    fn empty_document_encodes_to_nothing() {
        let facts = encode_document(&Document::new("empty.xml"));
        assert!(facts.is_empty());
        assert_eq!((facts.len(), facts.atoms().count()), (0, 0));
    }

    /// Every node of the encoding is its typed constant, spelled as the
    /// string constant `<document>/n<k>` was, and no text is a node.
    #[test]
    fn nodes_are_typed_constants() {
        let facts = encode_document(&sample());
        let root = node_constant("catalog.xml", NodeId(0));
        assert_eq!(root.to_string(), "\"catalog.xml/n0\"");
        assert_eq!(facts.relation(NavBase::Root), [root]);
        assert!(facts
            .relation(NavBase::El)
            .iter()
            .all(|t| matches!(t, Term::Const(Constant::Node { .. }))));
        assert!(facts
            .relation(NavBase::Text)
            .chunks_exact(2)
            .all(|row| matches!(row[1], Term::Const(Constant::Str(_)))));
    }

    #[test]
    fn text_values_appear_as_constants() {
        let facts = encode_document(&sample());
        let s = GrexSchema::new("catalog.xml");
        assert!(facts.atoms().any(|a| a.predicate == s.predicate(NavBase::Text)
            && a.args[1] == Term::constant_str("aspirin")));
        assert!(facts
            .atoms()
            .any(|a| a.predicate == s.predicate(NavBase::Attr)
                && a.args[2] == Term::constant_str("d1")));
    }
}
