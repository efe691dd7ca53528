//! Quickstart: publish a proprietary table as XML, pose an XQuery against the
//! published document, and let MARS reformulate it to SQL over the table.
//!
//! Run with `cargo run --example quickstart`.

use mars::{Mars, SchemaCorrespondence};
use mars_grex::ViewDef;
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm};

fn main() {
    // Proprietary storage: a relational table bookRel(title, author).
    // Published schema: bib.xml with one <book><title/><author/></book> per row.
    let publish_body =
        XBindQuery::new("PubMap").with_head(&["t", "a"]).with_atom(XBindAtom::Relational {
            relation: "bookRel".to_string(),
            args: vec![XBindTerm::var("t"), XBindTerm::var("a")],
        });
    let gav = ViewDef::xml_flat("PubMap", publish_body, "bib.xml", "book", &["title", "author"]);

    let correspondence = SchemaCorrespondence {
        public_documents: vec!["bib.xml".to_string()],
        gav_views: vec![gav],
        proprietary_relations: vec!["bookRel".to_string()],
        ..Default::default()
    };
    let mars = Mars::new(correspondence);

    // A client XQuery against the *published* document.
    let xquery = "for $b in //book $a in $b/author/text() $t in $b/title/text() \
                  return <entry><who>$a</who><what>$t</what></entry>";
    let result = mars.reformulate_xquery(xquery, "bib.xml").expect("parses");

    for block in &result.blocks {
        println!("navigation block {}:", block.name);
        println!("  compiled over GReX: {} atoms", block.compiled.body.len());
        // The SQL renders the best reformulation, or the initial one the
        // result falls back to when none was proved equivalent.
        match (&block.result.best, &block.result.initial) {
            (Some((best, _)), _) => println!("  best reformulation: {best}"),
            (None, Some(initial)) => {
                println!("  no reformulation proved equivalent; fell back to the initial one:");
                println!("  {initial}");
            }
            (None, None) => {
                println!("  no reformulation found");
                continue;
            }
        }
        println!("  as SQL:\n{}", block.sql().as_deref().unwrap_or("<none>"));
    }
    println!("total reformulation time: {:?}", result.total);
}
