//! How many symbols loading a document interns.
//!
//! Loads the chain scenario at scale 1 000 the way `Scenario::populate`
//! does — generate, encode into GReX facts, load them, store the document —
//! and builds its navigation index, between two fresh probe strings. The
//! interner hands out ids in order, so the probes' ids bound the symbols
//! the load interned: its tags, texts and the document's eight predicates.
//! A node is a typed term (`Constant::Node`), so it interns nothing. The
//! test is its own binary, so no other test interns concurrently.

use mars_system::cost::NavigationStatistics;
use mars_system::cq::symbol;
use mars_system::grex::encode_document;
use mars_system::storage::{RelationalDatabase, XmlStore};
use mars_system::workloads::scenarios::Scenario;

#[test]
fn loading_the_chain_interns_its_tags_and_texts_only() {
    let chain = Scenario::matrix().into_iter().find(|s| s.name() == "chain-uniform-r0").unwrap();
    let before = symbol("load_symbols: before the load").0;
    let doc = chain.generate_document(1000, 1);
    let name = doc.name.clone();
    let mut db = RelationalDatabase::new();
    db.load_facts(&encode_document(&doc));
    let mut xml = XmlStore::new();
    xml.add_document(doc);
    let stats = xml.stats(&name).expect("the chain is stored");
    let after = symbol("load_symbols: after the load").0;
    // 3 000 keys and 1 000 payloads (every pointer is a key's text), 7 tags,
    // 8 predicates and the document's name; none of the 9 001 elements.
    assert_eq!(stats.elements, 9001);
    assert_eq!(after - before - 1, 4000 + 7 + 8 + 1, "symbols interned by loading the chain");
}
