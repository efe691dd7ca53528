//! Property tests of the XML substrate: parse/serialize round trips and
//! GReX encodings.

use mars_system::cq::NavBase;
use mars_system::grex::encode_document;
use mars_system::xml::{parse_document, Document, NodeId};
use proptest::prelude::*;

fn arbitrary_document(depth: u32, width: usize) -> Document {
    // Deterministic "arbitrary-ish" builder driven by the parameters.
    let mut doc = Document::new("gen.xml");
    let root = doc.create_root("root");
    let mut frontier = vec![root];
    for d in 0..depth {
        let mut next = Vec::new();
        for (i, &parent) in frontier.iter().enumerate() {
            for w in 0..width {
                let el = doc.add_element(parent, &format!("e{d}_{w}"));
                if (i + w) % 2 == 0 {
                    doc.add_text(el, &format!("text {d} {w}"));
                }
                if w == 0 {
                    doc.set_attribute(el, "k", &format!("{d}-{i}-{w}"));
                }
                next.push(el);
            }
        }
        frontier = next;
    }
    doc
}

/// Text heavy in what escaping and parsing could get wrong: the five special
/// characters, things that look like entities, multi-byte characters, and
/// whitespace at either end.
fn awkward_text(rng: &mut TestRng) -> String {
    const PIECES: [&str; 14] =
        ["&", "<", ">", "\"", "'", "&amp;", "&lt;", ";", "é", "→", "𝄞", " ", "\n", "ab"];
    (0..rng.next_u64() % 7).map(|_| PIECES[(rng.next_u64() % 14) as usize]).collect()
}

/// Elements are either interior (element children only) or leaves holding one
/// awkward text; any of them may carry awkward attribute values.
fn awkward_document(rng: &mut TestRng) -> Document {
    let mut doc = Document::new("awkward.xml");
    let root = doc.create_root("root");
    let mut interior = vec![root];
    for _ in 0..rng.next_u64() % 30 {
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        let el = doc.add_element(interior[below(interior.len())], ["a", "b", "c"][below(3)]);
        let (attributes, is_interior) = (below(3), below(3) == 0);
        for name in &["k", "v"][..attributes] {
            doc.set_attribute(el, name, &awkward_text(rng));
        }
        if is_interior {
            interior.push(el);
        } else {
            // An empty text is written `<e></e>` and read back as no text at all.
            doc.add_text(el, &(awkward_text(rng) + "."));
        }
    }
    doc
}

/// What an element says: its tag, its attributes, the text it holds.
#[derive(Debug, PartialEq)]
struct Element {
    tag: String,
    attributes: Vec<(String, String)>,
    text: String,
}

/// Every element in document order.
fn content(doc: &Document) -> Vec<Element> {
    let describe = |id: NodeId| Element {
        tag: doc.node(id).tag().unwrap_or_default().to_string(),
        attributes: doc.node(id).attributes.to_vec(),
        text: doc.text_of(id),
    };
    doc.descendants_or_self(doc.root().expect("a root")).map(describe).collect()
}

#[test]
fn leaf_text_is_read_back_verbatim_and_layout_is_not_content() {
    let text_children = |xml: &str| -> Vec<String> {
        let doc = parse_document("t.xml", xml).unwrap();
        let root = doc.node(doc.root().unwrap());
        root.children().filter_map(|c| doc.node(c).text_value().map(str::to_string)).collect()
    };
    // All of an element's content: kept as written, whitespace-only included.
    assert_eq!(text_children("<e> x </e>"), [" x "]);
    assert_eq!(text_children("<e>\n  x &amp; y\n</e>"), ["\n  x & y\n"]);
    assert_eq!(text_children("<e> </e>"), [" "]);
    assert!(text_children("<e></e>").is_empty());
    // Beside elements or comments: trimmed, and dropped when only layout.
    assert_eq!(text_children("<e> x <f/> y </e>"), ["x", "y"]);
    assert_eq!(text_children("<e> x <!-- c --></e>"), ["x"]);
    assert!(text_children("<e>\n  <f/>\n</e>").is_empty());
    assert!(text_children("<e>\n  <!-- c -->\n</e>").is_empty());

    let mut doc = Document::new("t.xml");
    let root = doc.create_root("e");
    doc.add_text(root, " x ");
    assert_eq!(doc.to_xml(), "<e> x </e>\n");
    assert_eq!(content(&parse_document("t.xml", &doc.to_xml()).unwrap()), content(&doc));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn special_characters_survive_the_round_trip(seed in 0u64..u64::MAX) {
        let doc = awkward_document(&mut TestRng::new(seed));
        let parsed = parse_document("awkward.xml", &doc.to_xml()).unwrap();
        prop_assert_eq!(content(&parsed), content(&doc));
        prop_assert_eq!(parsed.to_xml(), doc.to_xml());
    }

    #[test]
    fn serialize_parse_round_trip(depth in 0u32..4, width in 1usize..4) {
        let doc = arbitrary_document(depth, width);
        let text = doc.to_xml();
        let parsed = parse_document("gen.xml", &text).unwrap();
        prop_assert_eq!(parsed.element_count(), doc.element_count());
    }

    #[test]
    fn grex_encoding_counts_are_consistent(depth in 0u32..4, width in 1usize..4) {
        let doc = arbitrary_document(depth, width);
        let facts = encode_document(&doc);
        let schema = mars_system::grex::GrexSchema::new("gen.xml");
        let count = |base| facts.atoms().filter(|a| a.predicate == schema.predicate(base)).count();
        let (els, tags, childs) = (count(NavBase::El), count(NavBase::Tag), count(NavBase::Child));
        prop_assert_eq!(els, doc.element_count());
        prop_assert_eq!(tags, doc.element_count());
        prop_assert_eq!(childs, doc.element_count() - 1);
        prop_assert!(facts.atoms().all(|a| a.is_ground()));
    }
}
