//! How many allocations the front half of a request makes: parsing the
//! client XQuery and decorrelating it.
//!
//! The parsed tree borrows every tag, variable, literal and path from the
//! request text, so parsing allocates only the tree's vectors and boxes;
//! decorrelation then builds each owned name and path of the XBind blocks
//! and the template once. The counting allocator (`common/counting.rs`) is
//! this binary's global allocator, which is why the test has a file of its
//! own.

use mars_system::xquery::{decorrelate, parse_xquery};

#[path = "common/counting.rs"]
mod counting;

use counting::counted;

/// The marsbench star key lookup over all six corners, the request of
/// `warm_point`'s largest template.
const STAR_SIX_CORNER_LOOKUP: &str = "for $r in //R, $k in $r/K/text(), \
    $a1 in $r/A1/text(), $s1 in //S1, $sa1 in $s1/A/text(), $b1 in $s1/B/text(), \
    $a2 in $r/A2/text(), $s2 in //S2, $sa2 in $s2/A/text(), $b2 in $s2/B/text(), \
    $a3 in $r/A3/text(), $s3 in //S3, $sa3 in $s3/A/text(), $b3 in $s3/B/text(), \
    $a4 in $r/A4/text(), $s4 in //S4, $sa4 in $s4/A/text(), $b4 in $s4/B/text(), \
    $a5 in $r/A5/text(), $s5 in //S5, $sa5 in $s5/A/text(), $b5 in $s5/B/text(), \
    $a6 in $r/A6/text(), $s6 in //S6, $sa6 in $s6/A/text(), $b6 in $s6/B/text() \
    where $a1 = $sa1 and $a2 = $sa2 and $a3 = $sa3 and $a4 = $sa4 and $a5 = $sa5 \
    and $a6 = $sa6 and $k = \"k42\" return <row><k>$k</k><b1>$b1</b1><b2>$b2</b2>\
    <b3>$b3</b3><b4>$b4</b4><b5>$b5</b5><b6>$b6</b6></row>";

#[test]
fn the_front_half_allocates_each_owned_name_once() {
    let (ast, parse) = counted(|| parse_xquery(STAR_SIX_CORNER_LOOKUP).expect("the lookup parses"));
    let (dec, decorrelate) = counted(|| decorrelate(&ast, "star.xml"));
    assert_eq!((dec.blocks.len(), dec.blocks[0].atoms.len()), (1, 33));
    println!("parse_xquery: {parse} allocations; decorrelate: {decorrelate} allocations");

    // Parsing allocates the tree's vectors and boxes only: 26 bindings, 7
    // conditions, the return box and the constructors' child lists (214
    // while every token was copied into a `String`).
    assert!(parse <= 24, "{parse} allocations to parse the lookup");
    // Decorrelation owns what the blocks and the template keep: per path
    // atom its variables, document, step vector and step names, per
    // condition its two terms, per constructor its tag and children (197
    // while it cloned an owned tree and regrew every vector).
    assert!(decorrelate <= 180, "{decorrelate} allocations to decorrelate the lookup");
}
