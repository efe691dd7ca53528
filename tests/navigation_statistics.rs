//! The navigation statistics the planner prices native navigation with
//! (`NavigationStatistics`, served by `XmlStore`) are the cardinalities of
//! the facts the relational route scans: for every workload document, the
//! `NavStats` record equals the sizes of `el#d`, `desc#d`, `text#d` and
//! `attr#d` in `encode_document(d)` and the number of distinct `text#d`
//! values, and each bucket probe equals the count of its constant in
//! `tag#d` or `text#d`.

use mars_system::cost::{NavStats, NavigationStatistics};
use mars_system::cq::{Atom, Constant, NavBase, Term};
use mars_system::grex::encode_document;
use mars_system::storage::XmlStore;
use mars_system::workloads::scenarios::Scenario;
use mars_system::workloads::star::StarConfig;
use mars_system::workloads::{example11, xmark};
use mars_system::xml::Document;
use std::collections::BTreeMap;

/// The facts of `base` in `facts`, a document's encoding.
fn facts<'a>(facts: &'a [Atom], base: NavBase, document: &str) -> Vec<&'a Atom> {
    let predicate = base.predicate(document);
    facts.iter().filter(|a| a.predicate == predicate).collect()
}

/// How often each constant occurs as the second argument of `atoms`.
fn buckets(atoms: &[&Atom]) -> BTreeMap<String, (Constant, usize)> {
    let mut out = BTreeMap::new();
    for atom in atoms {
        let Term::Const(c) = atom.args[1] else { panic!("a ground fact: {atom}") };
        out.entry(c.to_string()).or_insert((c, 0)).1 += 1;
    }
    out
}

/// `doc`'s statistics, read from `store`, against its encoding. Returns the
/// record, so the caller can see what the documents cover.
fn assert_statistics_match_the_encoding(store: &XmlStore, doc: &Document) -> NavStats {
    let name = doc.name.as_str();
    let encoding: Vec<Atom> = encode_document(doc).atoms().collect();
    let count = |base| facts(&encoding, base, name).len();
    let texts = facts(&encoding, NavBase::Text, name);
    let text_values = buckets(&texts);
    let expected = NavStats {
        elements: count(NavBase::El),
        descendant_pairs: count(NavBase::Desc),
        texts: texts.len(),
        distinct_texts: text_values.len(),
        attributes: count(NavBase::Attr),
    };
    let stats = store.stats(name).expect("the document is stored");
    assert_eq!(stats, expected, "{name}: the record differs from the encoding");

    let tags = buckets(&facts(&encoding, NavBase::Tag, name));
    assert!(!tags.is_empty(), "{name} has elements");
    for (tag, &(c, n)) in &tags {
        assert_eq!(store.tag_count(name, c), n, "{name}: elements tagged {tag}");
    }
    // Every seventh text value, so large documents stay cheap.
    for (value, &(c, n)) in text_values.iter().step_by(7) {
        assert_eq!(store.text_value_count(name, c), n, "{name}: elements with text {value}");
    }
    let absent = Constant::str("a value no workload document holds");
    assert_eq!((store.tag_count(name, absent), store.text_value_count(name, absent)), (0, 0));
    stats
}

/// Every document of `store`, checked.
fn assert_store_matches_the_encoding(store: &XmlStore) -> Vec<NavStats> {
    let names = store.document_names();
    assert!(!names.is_empty());
    let doc = |name: &String| store.document(name).expect("a listed document");
    names.iter().map(|name| assert_statistics_match_the_encoding(store, doc(name))).collect()
}

fn stored(doc: Document) -> XmlStore {
    let mut store = XmlStore::new();
    store.add_document(doc);
    store
}

#[test]
fn the_star_document_counts_its_encoding() {
    let star = StarConfig::figure5(6).generate_document(12, 4, 7);
    assert_store_matches_the_encoding(&stored(star));
}

#[test]
fn the_xmark_document_counts_its_encoding() {
    let stats = assert_store_matches_the_encoding(&stored(xmark::generate_document(6, 8, 5, 42)));
    assert!(stats[0].attributes > 0, "XMark's people and items carry ids");
}

#[test]
fn the_chain_and_snowflake_documents_count_their_encodings() {
    // One document per schema and data shape; redundancy adds views only.
    for scenario in Scenario::matrix().into_iter().filter(|s| s.redundancy == 0) {
        let stats = assert_store_matches_the_encoding(&stored(scenario.generate_document(8, 3)));
        assert!(stats[0].texts > 0, "{}: the documents hold text", scenario.name());
    }
}

#[test]
fn example_1_1_documents_count_their_encodings() {
    // The catalog and the documents its views materialized.
    let (xml, _) = example11::populate(6);
    let stats = assert_store_matches_the_encoding(&xml);
    assert!(stats.len() >= 2, "the catalog and a materialized document");
}

#[test]
fn an_absent_document_has_no_record() {
    let store = XmlStore::new();
    assert_eq!(store.stats("absent.xml"), None);
    assert_eq!(store.tag_count("absent.xml", Constant::str("item")), 0);
}
