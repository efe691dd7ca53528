//! Schema specialization (Section 5, Figures 6 and 7): specialize the
//! Section 5.1 query with Figure 6's hand-written `Author` mapping and
//! compare the size of the compiled queries with and without it.
//!
//! Run with `cargo run --example schema_specialization`.

use mars_grex::{compile_xbind, CompileContext};
use mars_specialize::mapping::author_mapping;
use mars_specialize::specialize_query;
use mars_xquery::{XBindAtom, XBindQuery};

fn main() {
    let mapping = author_mapping();
    assert!(mapping.is_restricted(), "Figure 6's mapping meets Proposition 5.1");
    println!("specialization mapping:");
    println!(
        "  {}({} columns) for {} entities",
        mapping.relation,
        mapping.arity(),
        mapping.entity_path
    );

    // The Section 5.1 query: last names of authors living in a publisher city.
    let query = XBindQuery::new("Xb")
        .with_head(&["l"])
        .with_atom(XBindAtom::AbsolutePath {
            document: "pubs.xml".into(),
            path: mars_xml::parse_path("//author").unwrap(),
            var: "id".into(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: mars_xml::parse_path("./name/last/text()").unwrap(),
            source: "id".into(),
            var: "l".into(),
        })
        .with_atom(XBindAtom::RelativePath {
            path: mars_xml::parse_path("./address/city/text()").unwrap(),
            source: "id".into(),
            var: "c".into(),
        })
        .with_atom(XBindAtom::AbsolutePath {
            document: "pubs.xml".into(),
            path: mars_xml::parse_path("//publisher/address/city/text()").unwrap(),
            var: "c".into(),
        });

    let mut ctx = CompileContext::new();
    let plain = compile_xbind(&mut ctx, &query);
    let specialized = specialize_query(&query, &[mapping]);
    let compiled_spec = compile_xbind(&mut ctx, &specialized);
    println!("compiled atoms without specialization: {}", plain.body.len());
    println!("compiled atoms with specialization:    {}", compiled_spec.body.len());
}
