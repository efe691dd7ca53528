//! How much the naive XBind evaluator allocates, and holds live at once, on
//! the benchmark's oracle inputs.
//!
//! `XmlStore::eval_blocks` is the output oracle of the end-to-end benchmark
//! and the unreformulated baseline of `experiments --savings`. It keeps one
//! binding map per intermediate row, so its peak live bytes follow the most
//! rows any atom leaves. Each `where` condition runs as soon as its
//! variables are bound, so a star's join conditions cut the rows before the
//! next corner multiplies them: the six-corner lookup peaks at 6 rows where
//! the full product of its bindings had 4 374, the snowflake scan at 144
//! where it had 20 736. The counting allocator
//! (`common/counting.rs`) is this binary's global allocator, which is why
//! the test has a file of its own.

use mars_system::storage::XmlStore;
use mars_system::workloads::scenarios::Scenario;
use mars_system::workloads::star::StarConfig;
use mars_system::xquery::{decorrelate, parse_xquery};

#[path = "common/counting.rs"]
mod counting;

use counting::{counted, peak_bytes};

/// The marsbench star key lookup over all six corners, the request of
/// `warm_point`'s largest template, for hub `k2`.
const STAR_SIX_CORNER_LOOKUP: &str = "for $r in //R, $k in $r/K/text(), \
    $a1 in $r/A1/text(), $s1 in //S1, $sa1 in $s1/A/text(), $b1 in $s1/B/text(), \
    $a2 in $r/A2/text(), $s2 in //S2, $sa2 in $s2/A/text(), $b2 in $s2/B/text(), \
    $a3 in $r/A3/text(), $s3 in //S3, $sa3 in $s3/A/text(), $b3 in $s3/B/text(), \
    $a4 in $r/A4/text(), $s4 in //S4, $sa4 in $s4/A/text(), $b4 in $s4/B/text(), \
    $a5 in $r/A5/text(), $s5 in //S5, $sa5 in $s5/A/text(), $b5 in $s5/B/text(), \
    $a6 in $r/A6/text(), $s6 in //S6, $sa6 in $s6/A/text(), $b6 in $s6/B/text() \
    where $a1 = $sa1 and $a2 = $sa2 and $a3 = $sa3 and $a4 = $sa4 and $a5 = $sa5 \
    and $a6 = $sa6 and $k = \"k2\" return <row><k>$k</k><b1>$b1</b1><b2>$b2</b2>\
    <b3>$b3</b3><b4>$b4</b4><b5>$b5</b5><b6>$b6</b6></row>";

/// The marsbench three-corner star scan, `nav_mixed`'s snowflake scan.
const SNOWFLAKE_SCAN: &str = "for $r in //R, $k in $r/K/text(), \
    $a1 in $r/A1/text(), $s1 in //S1, $sa1 in $s1/A/text(), $b1 in $s1/B/text(), \
    $a2 in $r/A2/text(), $s2 in //S2, $sa2 in $s2/A/text(), $b2 in $s2/B/text(), \
    $a3 in $r/A3/text(), $s3 in //S3, $sa3 in $s3/A/text(), $b3 in $s3/B/text() \
    where $a1 = $sa1 and $a2 = $sa2 and $a3 = $sa3 \
    return <row><k>$k</k><b1>$b1</b1><b2>$b2</b2><b3>$b3</b3></row>";

/// Evaluate `text`'s decorrelated blocks over `store`; returns the rows of
/// its one block with the allocations and the peak live bytes of
/// `eval_blocks`.
fn measure(store: &XmlStore, text: &str) -> (usize, u64, u64) {
    let query = decorrelate(&parse_xquery(text).expect("the request parses"), "star.xml");
    assert_eq!(query.blocks.len(), 1);
    let ((blocks, allocations), peak) =
        peak_bytes(|| counted(|| store.eval_blocks(&query.blocks).expect("star.xml is stored")));
    (blocks[&query.blocks[0].name].len(), allocations, peak)
}

#[test]
fn the_oracle_holds_the_rows_its_conditions_keep() {
    // `warm_point`'s oracle tenant: NC 6 / NV 5, 6 hubs, corner 3, seed 2.
    let mut star = XmlStore::new();
    star.add_document(StarConfig::figure5(6).generate_document(6, 3, 2));
    let (rows, allocations, peak) = measure(&star, STAR_SIX_CORNER_LOOKUP);
    println!("six-corner star lookup: {rows} row, {allocations} allocations, {peak} peak bytes");
    assert_eq!(rows, 1);
    // 1 765 allocations and 12 851 bytes; 1 231 631 and 18 483 740 while
    // the conditions ran after every binding.
    assert!(allocations <= 2_000, "{allocations} allocations for the lookup");
    assert!(peak <= 16 << 10, "{peak} peak bytes for the lookup");

    // `nav_mixed`'s oracle snowflake: scale 12, seed 2.
    let scenario = Scenario::matrix().into_iter().find(|s| s.name() == "snowflake-skewed-r0");
    let mut snowflake = XmlStore::new();
    snowflake.add_document(scenario.expect("a matrix scenario").generate_document(12, 2));
    let (rows, allocations, peak) = measure(&snowflake, SNOWFLAKE_SCAN);
    println!("snowflake scan: {rows} rows, {allocations} allocations, {peak} peak bytes");
    assert_eq!(rows, 12);
    // 19 958 allocations and 318 072 bytes; 2 171 799 and 45 665 000 while
    // the conditions ran after every binding.
    assert!(allocations <= 22_000, "{allocations} allocations for the scan");
    assert!(peak <= 384 << 10, "{peak} peak bytes for the scan");
}
