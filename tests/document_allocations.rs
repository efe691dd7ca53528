//! How many allocations tagging a result and dropping it makes.
//!
//! A tagged `Document` is three growing buffers (node records, text, tags),
//! so the count must not grow with the number of rows beyond those buffers'
//! doublings. The counting allocator (`common/counting.rs`) is this binary's
//! global allocator, which is why the test has a file of its own.

use mars_system::storage::{tag_results, Value, XmlStore};
use mars_system::xquery::{decorrelate, parse_xquery, DecorrelatedQuery};
use std::collections::HashMap;

#[path = "common/counting.rs"]
mod counting;

use counting::counted;

type Bindings = HashMap<String, Vec<HashMap<String, Value>>>;

/// The `tagging` bench's flat shape: one block, five printed values a row.
const FLAT: &str = "<result> for $r in //row $a in $r/a/text() $b in $r/b/text() \
    $c in $r/c/text() $d in $r/d/text() $e in $r/e/text() \
    return <row><a>$a</a><b>$b</b><c>$c</c><d>$d</d><e>$e</e></row> </result>";

fn flat(rows: usize) -> (DecorrelatedQuery, Bindings) {
    let query = decorrelate(&parse_xquery(FLAT).expect("the template parses"), "rows.xml");
    let cells = |i: usize| {
        [
            ("a", format!("k{i}")),
            ("b", format!("value {i}")),
            ("c", format!("{}", i * 7)),
            ("d", format!("R&D <{i}>")),
            ("e", "constant".to_string()),
        ]
    };
    let rows = (0..rows)
        .map(|i| cells(i).into_iter().map(|(var, text)| (var.to_string(), Value::Str(text))))
        .map(|row| row.collect())
        .collect();
    let name = query.blocks[0].name.clone();
    (query, HashMap::from([(name, rows)]))
}

/// Allocations made by tagging `rows` rows and dropping the result.
fn tag_and_drop(rows: usize) -> u64 {
    let (query, bindings) = flat(rows);
    let store = XmlStore::new();
    let ((), allocations) = counted(|| {
        let document = tag_results(&query, &bindings, &store, "result.xml");
        assert_eq!(document.len(), 2 + rows * 11, "two wrappers, and per row 6 elements, 5 texts");
        drop(document)
    });
    allocations
}

#[test]
fn tagging_allocates_independently_of_the_row_count() {
    let (thousand, two_thousand) = (tag_and_drop(1000), tag_and_drop(2000));
    println!("tag_results + drop: {thousand} allocations at 1000 rows, {two_thousand} at 2000");
    // Twice the rows make each of the three growing buffers double at most
    // once more.
    assert!(
        two_thousand <= thousand + 3,
        "{thousand} allocations at 1000 rows, {two_thousand} at 2000"
    );
    assert!(thousand < 100, "{thousand} allocations for 1000 rows");
}
