//! The front half of a request: parse the client XQuery into a tree that
//! borrows the text, then decorrelate it into XBind blocks and a tagging
//! template. Timed on the `marsbench` star key lookup over all six corners
//! (what every `warm_point` request of that template parses) and on the
//! paper's Example 2.1 (two correlated blocks). `parse` times the parser
//! alone, `parse_decorrelate` both steps, as a request runs them.
//!
//! The setup asserts that each query decorrelates to its snapshot in
//! `tests/golden/decorrelated/`.

use criterion::{criterion_group, criterion_main, Criterion};
use mars_xquery::{decorrelate, parse_xquery, DecorrelatedQuery};
use std::fmt::Write;

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

const EXAMPLE_2_1: &str = "<result> for $a in distinct(//author/text()) return \
    <item><writer>$a</writer> {for $b in //book $a1 in $b/author/text() $t in $b/title \
    where $a = $a1 return $t} </item> </result>";

/// `(name, query, golden snapshot)`.
const QUERIES: [(&str, &str, &str); 2] = [
    (
        "star_six_corner_lookup",
        STAR_SIX_CORNER_LOOKUP,
        include_str!("../../../tests/golden/decorrelated/star-six-corner-lookup.txt"),
    ),
    (
        "example_2_1",
        EXAMPLE_2_1,
        include_str!("../../../tests/golden/decorrelated/example-2-1.txt"),
    ),
];

/// The snapshot's rendering (`tests/golden_decorrelated.rs`): per block its
/// `Display`, head and `distinct` flag, then the template's `Debug`.
fn render(dec: &DecorrelatedQuery) -> String {
    let mut out = String::new();
    for block in &dec.blocks {
        writeln!(out, "{block}\nhead: {}\ndistinct: {}\n", block.head.join(", "), block.distinct)
            .unwrap();
    }
    writeln!(out, "template:\n{:#?}", dec.template).unwrap();
    out
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("front_half");
    for (name, text, golden) in QUERIES {
        let dec = decorrelate(&parse_xquery(text).expect("the query parses"), "books.xml");
        assert_eq!(render(&dec).trim(), golden.trim(), "{name} decorrelates to its golden");
        g.bench_function(&format!("parse/{name}"), |b| b.iter(|| parse_xquery(text)));
        g.bench_function(&format!("parse_decorrelate/{name}"), |b| {
            b.iter(|| decorrelate(&parse_xquery(text).expect("the query parses"), "books.xml"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
