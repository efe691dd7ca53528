//! Golden-file tests for the front half of a request: parsing a client
//! XQuery and decorrelating it into XBind blocks plus a tagging template.
//!
//! Each corpus query has one snapshot in `tests/golden/decorrelated/`: every
//! block's `Display`, head and `distinct` flag, then the template's `Debug`.
//! `parse_errors.txt` holds the offset and message of every malformed input
//! of [`MALFORMED`]. A change to the parser or to decorrelation that keeps
//! the output leaves them byte-identical.
//!
//! # Regenerating the snapshots
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_decorrelated
//! ```
//!
//! then review the diff under `tests/golden/decorrelated/`.

mod common;

use mars_system::xquery::{decorrelate, parse_xquery, DecorrelatedQuery};
use std::fmt::Write;

/// The query of Example 2.1, as the paper lists it: FLWR blocks directly
/// inside constructors, juxtaposed bindings, `distinct(…)`.
const EXAMPLE_2_1: &str = r#"<result>
    for $a in distinct(//author/text())
    return
      <item>
        <writer>$a</writer>
        {for $b in //book
             $a1 in $b/author/text()
             $t in $b/title
         where $a = $a1
         return $t}
      </item>
  </result>"#;

/// The marsbench star key lookup over all six corners (`warm_point`).
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

/// The client query of Example 1.1, as marsbench's `nav_mixed` writes it.
const EXAMPLE_1_1: &str = "for $c in document(\"case.xml\")//case, \
    $diag in $c/diagnosis/text(), $drug in $c/drug/text(), \
    $d in document(\"catalog.xml\")//drug, $drug2 in $d/name/text(), \
    $price in $d/price/text() where $drug = $drug2 \
    return <assoc><diagnosis>$diag</diagnosis><price>$price</price></assoc>";

/// `(snapshot name, query)`; unqualified paths navigate `books.xml`.
const CORPUS: &[(&str, &str)] = &[
    ("example-2-1", EXAMPLE_2_1),
    (
        "three-levels",
        "<out>{for $a in //x return <o>{for $b in $a/y return \
         <i>{for $c in $b/z, $d in $c/w/text() return <leaf>$d</leaf>}</i>}</o>}</out>",
    ),
    (
        "document",
        "for $d in document(\"catalog.xml\")//drug $p in $d/price/text() return <p>$p</p>",
    ),
    ("distinct", "for $n in distinct(//person/name/text()) return <name>$n</name>"),
    (
        "string-conditions",
        "for $b in //book, $t in $b/title/text(), $y in $b/@year \
         where $t = \"TCP/IP\" and $y != '2000' return <hit>$t</hit>",
    ),
    ("juxtaposed", "for $x in //a $y in $x/b $z in $y/c/text() where $x = $y return $z"),
    ("bare-name", "for $x in book return <r>$x</r>"),
    ("attribute", "for $b in //book, $y in $b/@year return <year>$y</year>"),
    ("wildcard", "for $e in //*, $c in $e/* return <e>$c</e>"),
    (
        "literal-text",
        "<greeting>hello, world <who>{for $p in //person return $p}</who> bye</greeting>",
    ),
    ("self-closing", "<doc><empty/>{for $x in //a return <hit/>}</doc>"),
    ("star-six-corner-lookup", STAR_SIX_CORNER_LOOKUP),
    ("example-1-1", EXAMPLE_1_1),
];

/// Malformed inputs whose errors are pinned: those of the parser's own unit
/// test, then a path error of each kind, an unterminated literal and a
/// mismatched closing tag.
const MALFORMED: &[&str] = &[
    "for $x in",
    "<a><b></a>",
    "for $x //book return $x",
    "<a/>junk",
    "for $x in //b where $x return $x",
    "for $x in //b//text() return $x",
    "for $x in $y//@a return $x",
    "for $x in //a*b return $x",
    "for $x in //b where $x = \"abc return $x",
    "<r>{for $x in //a return $x}</s>",
];

/// The blocks of a decorrelated query: per block its `Display`, head and
/// `distinct` flag.
fn render_blocks(dec: &DecorrelatedQuery) -> String {
    let mut out = String::new();
    for block in &dec.blocks {
        writeln!(out, "{block}").unwrap();
        writeln!(out, "head: {}", block.head.join(", ")).unwrap();
        writeln!(out, "distinct: {}\n", block.distinct).unwrap();
    }
    out
}

#[test]
fn decorrelated_corpus_matches_golden() {
    for (name, text) in CORPUS {
        let ast = parse_xquery(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let dec = decorrelate(&ast, "books.xml");
        let actual = format!("{}template:\n{:#?}\n", render_blocks(&dec), dec.template);
        common::assert_matches_golden("tests/golden/decorrelated", &format!("{name}.txt"), &actual);
    }
}

#[test]
fn parse_errors_match_golden() {
    let mut actual = String::new();
    for text in MALFORMED {
        let err = parse_xquery(text).expect_err(text);
        writeln!(actual, "{text}\n  at {}: {}", err.offset, err.message).unwrap();
    }
    common::assert_matches_golden("tests/golden/decorrelated", "parse_errors.txt", &actual);
}
