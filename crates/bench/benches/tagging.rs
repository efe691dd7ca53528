//! The output path: binding tables → `tag_results` → `Document::to_xml`.
//!
//! Two shapes. `flat` is what every `marsbench` template prints (one block,
//! 1000 rows × 5 printed values). `nested` is the paper's Example 2.1 shape
//! (200 parents × 20 children each, correlated on the parent's key), which no
//! `marsbench` template exercises: it is where matching child rows to parent
//! rows shows. `tag` times building the document and freeing it; `serialize`
//! times printing a resident one.

use criterion::{criterion_group, criterion_main, Criterion};
use mars_storage::{tag_results, Value, XmlStore};
use mars_xquery::{decorrelate, parse_xquery, DecorrelatedQuery};
use std::collections::HashMap;

type Bindings = HashMap<String, Vec<HashMap<String, Value>>>;

const FLAT: &str = "<result> for $r in //row $a in $r/a/text() $b in $r/b/text() \
    $c in $r/c/text() $d in $r/d/text() $e in $r/e/text() \
    return <row><a>$a</a><b>$b</b><c>$c</c><d>$d</d><e>$e</e></row> </result>";

const NESTED: &str = "<result> for $p in distinct(//parent/text()) return \
    <group><name>$p</name> {for $c in //child $p1 in $c/parent/text() $v in $c/v/text() \
    where $p = $p1 return <item>$v</item>} </group> </result>";

fn row(cells: &[(&str, String)]) -> HashMap<String, Value> {
    cells.iter().map(|(var, text)| (var.to_string(), Value::Str(text.clone()))).collect()
}

fn flat() -> (DecorrelatedQuery, Bindings) {
    let query = decorrelate(&parse_xquery(FLAT).expect("the template parses"), "rows.xml");
    let rows = (0..1000)
        .map(|i| {
            row(&[
                ("a", format!("k{i}")),
                ("b", format!("value {i}")),
                ("c", format!("{}", i * 7)),
                ("d", format!("R&D <{i}>")),
                ("e", "constant".to_string()),
            ])
        })
        .collect();
    let name = query.blocks[0].name.clone();
    (query, HashMap::from([(name, rows)]))
}

fn nested() -> (DecorrelatedQuery, Bindings) {
    let query = decorrelate(&parse_xquery(NESTED).expect("the template parses"), "groups.xml");
    let parents = (0..200).map(|p| row(&[("p", format!("p{p}"))])).collect();
    // Children arrive grouped by nothing in particular: round-robin over parents.
    let children = (0..200 * 20)
        .map(|i| row(&[("p", format!("p{}", i % 200)), ("v", format!("item {i}"))]))
        .collect();
    let (outer, inner) = (query.blocks[0].name.clone(), query.blocks[1].name.clone());
    (query, HashMap::from([(outer, parents), (inner, children)]))
}

fn bench(c: &mut Criterion) {
    let store = XmlStore::new();
    let mut g = c.benchmark_group("tagging");
    g.sample_size(30);
    for (shape, (query, bindings), innermost, printed) in
        [("flat", flat(), "<e>", 1000), ("nested", nested(), "<item>", 200 * 20)]
    {
        let document = tag_results(&query, &bindings, &store, "result.xml");
        let text = document.to_xml();
        assert_eq!(text.matches(innermost).count(), printed, "{shape}: every row is printed once");
        println!("{shape}: {} nodes, {} bytes", document.len(), text.len());
        g.bench_function(&format!("tag/{shape}"), |b| {
            b.iter(|| tag_results(&query, &bindings, &store, "result.xml"))
        });
        g.bench_function(&format!("serialize/{shape}"), |b| b.iter(|| document.to_xml()));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
