//! View materialization and result tagging.
//!
//! * [`materialize_view`] runs a view body over the stores and writes its
//!   output — a stored relation or a flat XML document — into the proprietary
//!   storage. This is the tuning step of the paper (materialized views,
//!   caches of previously answered queries such as `cacheEntry.xml`). The
//!   body runs as the query `compile_view` builds `c_V` / `b_V` from, on the
//!   [`BackendRouter`], and a stored relation holds the router's rows as
//!   they are: an element-valued column holds the element's
//!   `Constant::Node`, a value column its string. So what is stored
//!   satisfies what the chase assumes — the view constraints and the
//!   mappings' functional dependencies, such as a specialization relation's
//!   `id` determining its fields.
//! * [`tag_results`] assembles the XML result of a client query from the
//!   binding tables of its decorrelated blocks, following the sorted
//!   outer-union approach the paper adopts from XPeranto.

use crate::doc_index::symbol;
use crate::executor::{Chains, Fx};
use crate::relational::RelationalDatabase;
use crate::router::{BackendRouter, Route};
use crate::xml_engine::{Value, XmlStore, XmlStoreError};
use mars_cq::{symbol_name, Predicate, Symbol, Term};
use mars_grex::{compile_xbind, CompileContext, ViewDef, ViewOutput};
use mars_xml::{Document, NodeId, TagId};
use mars_xquery::{DecorrelatedQuery, TemplateNode, XBindAtom};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// Materialize a view: run its compiled body (the query `c_V` / `b_V` are
/// built from) through the [`BackendRouter`] — stored documents navigated
/// natively, relational atoms joined from `relational` — and write the rows,
/// a set in the router's order, into the relational database or as a new
/// document in the XML store. A head variable the body does not bind is
/// stored as the empty string. Returns the number of rows materialized.
///
/// # Errors
///
/// [`XmlStoreError::MissingDocument`] when the view body navigates a document
/// the store does not hold, and [`XmlStoreError::NodeInFlatView`] when a flat
/// XML view's row binds a field to an element, which a text field cannot hold.
pub fn materialize_view(
    view: &ViewDef,
    xml: &mut XmlStore,
    relational: &mut RelationalDatabase,
) -> Result<usize, XmlStoreError> {
    for atom in &view.body.atoms {
        if let XBindAtom::AbsolutePath { document, .. } = atom {
            if xml.document(document).is_none() {
                return Err(XmlStoreError::MissingDocument { document: document.clone() });
            }
        }
    }
    let router = BackendRouter::new(relational, xml);
    let query = compile_xbind(&mut CompileContext::new(), &view.body);
    let mut rows = router.execute(&router.plan_forced(&query, Route::Xml))?.rows;
    let empty = Term::constant_str("");
    for value in rows.iter_mut().flatten().filter(|value| value.is_var()) {
        *value = empty;
    }

    match &view.output {
        ViewOutput::Relation { name } => {
            // Held even when empty: a route may scan an empty extent, never
            // an absent one.
            let relation = Predicate::new(name);
            relational.inst.declare(relation);
            for row in &rows {
                relational.inst.insert(relation, row);
            }
        }
        ViewOutput::XmlFlat { document, row_tag, field_tags } => {
            let mut doc = Document::new(document);
            let root = doc.create_root(&format!("{row_tag}s"));
            for row in &rows {
                let row_el = doc.add_element(root, row_tag);
                for (tag, &value) in field_tags.iter().zip(row.iter()) {
                    let Some(value) = symbol(value) else {
                        return Err(XmlStoreError::NodeInFlatView {
                            document: document.clone(),
                            field: tag.clone(),
                        });
                    };
                    doc.add_leaf(row_el, tag, symbol_name(Symbol(value)));
                }
            }
            xml.add_document(doc);
        }
    }
    Ok(rows.len())
}

/// Assemble the XML result of a decorrelated query from the bindings of its
/// blocks (sorted outer union tagging).
///
/// A row binds variables of its block's head. A nested block's rows are
/// instantiated under the enclosing rows they agree with on every variable
/// the heads share, in row order; a variable one side leaves unbound agrees
/// with anything. The template's element tags are interned into the result
/// once per call, and every element appended by its tag id.
pub fn tag_results(
    query: &DecorrelatedQuery,
    blocks: &HashMap<String, Vec<HashMap<String, Value>>>,
    xml: &XmlStore,
    result_name: &str,
) -> Document {
    let mut doc = Document::new(result_name);
    let steps = compile(&query.template.roots, query, blocks, &mut Vec::new(), &mut doc);
    let (each, nested) = estimated_nodes(&steps);
    doc.reserve(1 + each + nested);
    let root = doc.create_root("xquery-result");
    Tagger { xml, doc: &mut doc, frames: Vec::new() }.instantiate(&steps, root);
    doc
}

type Binding = HashMap<String, Value>;

/// The tagging template compiled against one call's binding tables.
enum Step<'a> {
    Literal(&'a str),
    Element { tag: TagId, children: Vec<Step<'a>> },
    VarText(&'a str),
    ForEach { rows: &'a [Binding], correlation: Correlation<'a>, children: Vec<Step<'a>> },
}

/// How a block's rows find the enclosing rows they are instantiated under.
struct Correlation<'a> {
    /// The head variables the block shares with the blocks around it.
    key: Vec<&'a str>,
    /// The block's rows chained by the hash of their key values, and that
    /// hash of every row: a slot is confirmed by its head row's hash, so rows
    /// whose different keys share a hash share a chain, which
    /// [`Correlation::agrees`] sorts out. `None` when nothing can be looked
    /// up: the key is empty, or a row lacks a key variable and so agrees with
    /// any value of it.
    chains: Option<(Chains, Vec<u64>)>,
}

impl<'a> Correlation<'a> {
    fn new(key: Vec<&'a str>, rows: &[Binding]) -> Correlation<'a> {
        let mut correlation = Correlation { key, chains: None };
        if !correlation.key.is_empty() {
            correlation.chains = correlation.index(rows);
        }
        correlation
    }

    fn index(&self, rows: &[Binding]) -> Option<(Chains, Vec<u64>)> {
        let hashes: Vec<u64> =
            rows.iter().map(|row| self.hash(|var| row.get(var))).collect::<Option<_>>()?;
        let hash = |i: u32| hashes[i as usize];
        Some((Chains::new(rows.len(), hash, |head, i| hash(head) == hash(i)), hashes))
    }

    /// Fx hash of the key values `lookup` finds, `None` if one is unbound.
    fn hash<'v>(&self, lookup: impl Fn(&str) -> Option<&'v Value>) -> Option<u64> {
        let mut hasher = Fx::default().build_hasher();
        for var in &self.key {
            lookup(var)?.hash(&mut hasher);
        }
        Some(hasher.finish())
    }

    /// The rows that can agree with `frames`, in row order: the chain of
    /// their key's hash, or every row when nothing was chained or `frames`
    /// leave a key variable unbound.
    fn candidates<'c>(
        &'c self,
        frames: &[&Binding],
        rows: &[Binding],
    ) -> impl Iterator<Item = usize> + 'c {
        let chain = self.chains.as_ref().and_then(|(chains, hashes)| {
            let hash = self.hash(|var| bound(frames, var))?;
            Some(chains.matches(hash, move |head| hashes[head as usize] == hash))
        });
        let scan = if chain.is_none() { 0..rows.len() } else { 0..0 };
        scan.chain(chain.into_iter().flatten())
    }

    fn agrees(&self, frames: &[&Binding], row: &Binding) -> bool {
        self.key.iter().all(|var| match (bound(frames, var), row.get(*var)) {
            (Some(outer), Some(inner)) => outer == inner,
            _ => true,
        })
    }
}

/// The value of `var` in the innermost frame that binds it.
fn bound<'a>(frames: &[&'a Binding], var: &str) -> Option<&'a Value> {
    frames.iter().rev().find_map(|frame| frame.get(var))
}

/// Compile template nodes nested in blocks whose heads bind `visible`,
/// interning their element tags into `doc`.
fn compile<'a>(
    nodes: &'a [TemplateNode],
    query: &'a DecorrelatedQuery,
    blocks: &'a HashMap<String, Vec<Binding>>,
    visible: &mut Vec<&'a str>,
    doc: &mut Document,
) -> Vec<Step<'a>> {
    let mut steps = Vec::with_capacity(nodes.len());
    for node in nodes {
        steps.push(match node {
            TemplateNode::Literal(s) => Step::Literal(s),
            TemplateNode::VarText { var, .. } => Step::VarText(var),
            TemplateNode::Element { tag, children } => Step::Element {
                tag: doc.intern_tag(tag),
                children: compile(children, query, blocks, visible, doc),
            },
            TemplateNode::ForEach { block, children } => {
                let Some(block) = query.blocks.get(*block) else { continue };
                let rows = blocks.get(&block.name).map_or(&[][..], Vec::as_slice);
                let shared = block.head.iter().map(String::as_str).filter(|v| visible.contains(v));
                let correlation = Correlation::new(shared.collect(), rows);
                let outer = visible.len();
                visible.extend(block.head.iter().map(String::as_str));
                let children = compile(children, query, blocks, visible, doc);
                visible.truncate(outer);
                Step::ForEach { rows, correlation, children }
            }
        });
    }
    steps
}

/// Nodes one instantiation of `steps` adds outside nested blocks, and nodes
/// the nested blocks add if each of their rows is instantiated once.
fn estimated_nodes(steps: &[Step<'_>]) -> (usize, usize) {
    steps.iter().fold((0, 0), |(each, nested), step| match step {
        Step::Literal(_) | Step::VarText(_) => (each + 1, nested),
        Step::Element { children, .. } => {
            let (inner_each, inner_nested) = estimated_nodes(children);
            (each + 1 + inner_each, nested + inner_nested)
        }
        Step::ForEach { rows, children, .. } => {
            let (inner_each, inner_nested) = estimated_nodes(children);
            (each, nested + rows.len() * inner_each + inner_nested)
        }
    })
}

struct Tagger<'a> {
    xml: &'a XmlStore,
    doc: &'a mut Document,
    /// The rows of the enclosing blocks, outermost first.
    frames: Vec<&'a Binding>,
}

impl<'a> Tagger<'a> {
    fn instantiate(&mut self, steps: &'a [Step<'a>], parent: NodeId) {
        for step in steps {
            match step {
                Step::Literal(s) => {
                    self.doc.add_text(parent, s);
                }
                Step::Element { tag, children } => {
                    let el = self.doc.add_element_by_tag(parent, *tag);
                    self.instantiate(children, el);
                }
                Step::VarText(var) => match bound(&self.frames, var) {
                    Some(Value::Str(s)) => {
                        self.doc.add_text(parent, s);
                    }
                    // Empty when the store does not hold the binding's document.
                    Some(Value::Node { document, node }) => {
                        let element = self.xml.document(document).map(|d| d.text_of(*node));
                        self.doc.add_text(parent, &element.unwrap_or_default());
                    }
                    None => {}
                },
                Step::ForEach { rows, correlation, children } => {
                    for i in correlation.candidates(&self.frames, rows) {
                        if correlation.agrees(&self.frames, &rows[i]) {
                            self.frames.push(&rows[i]);
                            self.instantiate(children, parent);
                            self.frames.pop();
                        }
                    }
                }
            }
        }
    }
}

/// `tag_results` as it was before the compiled plan: one merged context map
/// per row, every child row tried against every parent row. Kept as the
/// reference the tagger is compared with.
#[cfg(test)]
mod reference {
    use super::{Binding, Value, XmlStore};
    use mars_xml::{Document, NodeId};
    use mars_xquery::{DecorrelatedQuery, TemplateNode};
    use std::collections::HashMap;

    pub fn tag_results(
        query: &DecorrelatedQuery,
        blocks: &HashMap<String, Vec<Binding>>,
        xml: &XmlStore,
        result_name: &str,
    ) -> Document {
        let mut doc = Document::new(result_name);
        let root = doc.create_root("xquery-result");
        for node in &query.template.roots {
            instantiate(node, query, blocks, xml, &mut doc, root, &HashMap::new());
        }
        doc
    }

    fn value_text(v: &Value, xml: &XmlStore) -> String {
        match v {
            Value::Str(s) => s.clone(),
            Value::Node { document, node } => {
                xml.document(document).map(|d| d.text_of(*node)).unwrap_or_default()
            }
        }
    }

    fn binding_matches(outer: &Binding, inner: &Binding) -> bool {
        outer.iter().all(|(k, v)| inner.get(k).map(|iv| iv == v).unwrap_or(true))
    }

    fn instantiate(
        node: &TemplateNode,
        query: &DecorrelatedQuery,
        blocks: &HashMap<String, Vec<Binding>>,
        xml: &XmlStore,
        doc: &mut Document,
        parent: NodeId,
        context: &Binding,
    ) {
        match node {
            TemplateNode::Literal(s) => {
                doc.add_text(parent, s);
            }
            TemplateNode::Element { tag, children } => {
                let el = doc.add_element(parent, tag);
                for c in children {
                    instantiate(c, query, blocks, xml, doc, el, context);
                }
            }
            TemplateNode::VarText { var, .. } => {
                if let Some(v) = context.get(var) {
                    doc.add_text(parent, &value_text(v, xml));
                }
            }
            TemplateNode::ForEach { block, children } => {
                let Some(block_query) = query.blocks.get(*block) else { return };
                let rows = blocks.get(&block_query.name).map(Vec::as_slice).unwrap_or(&[]);
                for row in rows {
                    if !binding_matches(context, row) {
                        continue;
                    }
                    let mut merged = context.clone();
                    for (k, v) in row {
                        merged.insert(k.clone(), v.clone());
                    }
                    for c in children {
                        instantiate(c, query, blocks, xml, doc, parent, &merged);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use mars_cq::{Atom, ConjunctiveQuery, Constant};
    use mars_xml::parse_document;
    use mars_xquery::{decorrelate, parse_xquery, TaggingTemplate, XBindQuery, XBindTerm};
    use proptest::prelude::*;

    fn catalog_store() -> XmlStore {
        let mut store = XmlStore::new();
        store.add_document(
            parse_document(
                "catalog.xml",
                r#"<catalog>
                     <drug><name>aspirin</name><price>3</price><notes><note>generic ok</note></notes></drug>
                     <drug><name>inhaler</name><price>25</price></drug>
                   </catalog>"#,
            )
            .unwrap(),
        );
        store
    }

    fn drug_price_view() -> ViewDef {
        let body = XBindQuery::new("DrugPriceMap")
            .with_head(&["n", "p"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "catalog.xml".to_string(),
                path: mars_xml::parse_path("//drug").unwrap(),
                var: "d".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: mars_xml::parse_path("./name/text()").unwrap(),
                source: "d".to_string(),
                var: "n".to_string(),
            })
            .with_atom(XBindAtom::RelativePath {
                path: mars_xml::parse_path("./price/text()").unwrap(),
                source: "d".to_string(),
                var: "p".to_string(),
            });
        ViewDef::relational("drugPrice", body)
    }

    #[test]
    fn materialize_relational_view_from_xml() {
        let mut xml = catalog_store();
        let mut db = RelationalDatabase::new();
        let rows = materialize_view(&drug_price_view(), &mut xml, &mut db).unwrap();
        assert_eq!(rows, 2);
        assert_eq!(db.cardinality("drugPrice"), 2);
    }

    #[test]
    fn materialize_xml_view_creates_a_document() {
        let mut xml = catalog_store();
        let mut db = RelationalDatabase::new();
        let view = ViewDef::xml_flat(
            "CacheEntry",
            drug_price_view().body,
            "cacheEntry.xml",
            "entry",
            &["name", "price"],
        );
        let rows = materialize_view(&view, &mut xml, &mut db).unwrap();
        assert_eq!(rows, 2);
        let doc = xml.document("cacheEntry.xml").expect("document materialized");
        assert_eq!(doc.children_with_tag(doc.root().unwrap(), "entry").count(), 2);
        assert!(doc.to_xml().contains("<price>25</price>"));
    }

    #[test]
    fn tagging_assembles_nested_results() {
        let mut store = XmlStore::new();
        store.add_document(
            parse_document(
                "books.xml",
                r#"<bib>
                     <book><title>TCP/IP</title><author>Stevens</author></book>
                     <book><title>Advanced TCP/IP</title><author>Stevens</author></book>
                     <book><title>Data on the Web</title><author>Abiteboul</author></book>
                   </bib>"#,
            )
            .unwrap(),
        );
        let ast = parse_xquery(
            r#"<result>
                 for $a in distinct(//author/text())
                 return <item><writer>$a</writer>
                   {for $b in //book $a1 in $b/author/text() $t in $b/title
                    where $a = $a1 return <title>$t</title>}
                 </item>
               </result>"#,
        )
        .unwrap();
        let dec = decorrelate(&ast, "books.xml");
        let blocks = store.eval_blocks(&dec.blocks).unwrap();
        let result = tag_results(&dec, &blocks, &store, "result.xml");
        let xml_text = result.to_xml();
        // Two writers, and Stevens' item groups both titles.
        assert_eq!(xml_text.matches("<writer>").count(), 2);
        assert_eq!(xml_text.matches("<title>").count(), 3);
        let stevens_idx = xml_text.find("Stevens").unwrap();
        let abiteboul_idx = xml_text.find("Abiteboul").unwrap();
        assert_ne!(stevens_idx, abiteboul_idx);
    }

    /// A template of up to three nested `ForEach` levels over up to three
    /// blocks whose heads are random subsets of four variables (so heads
    /// share some names and not others), with rows that leave head variables
    /// unbound, node and string values, absent and empty binding tables,
    /// `ForEach` over a block that does not exist and `VarText` of variables
    /// nothing binds.
    struct RandomTagging {
        rng: TestRng,
        blocks: usize,
    }

    impl RandomTagging {
        const VARS: [&'static str; 4] = ["x", "y", "z", "w"];

        fn below(&mut self, n: usize) -> usize {
            (self.rng.next_u64() % n as u64) as usize
        }

        fn value(&mut self) -> Value {
            match self.below(8) {
                0 => Value::Node { document: "d.xml".to_string(), node: NodeId(1) },
                1 => Value::Node { document: "d.xml".to_string(), node: NodeId(3) },
                2 => Value::Node { document: "missing.xml".to_string(), node: NodeId(0) },
                n => Value::Str(["1", "2", "a&b <c>", "\"é\" → 𝄞", ""][n - 3].to_string()),
            }
        }

        fn template(&mut self, loops: usize, depth: usize) -> Vec<TemplateNode> {
            (0..1 + self.below(3))
                .map(|_| match self.below(if depth < 4 { 6 } else { 2 }) {
                    0 => TemplateNode::Literal(["lit", "<&>"][self.below(2)].to_string()),
                    1 | 2 => TemplateNode::VarText {
                        block: 0,
                        var: Self::VARS[self.below(4)].to_string(),
                    },
                    3 | 4 if loops < 3 => TemplateNode::ForEach {
                        block: self.below(self.blocks + 1),
                        children: self.template(loops + 1, depth + 1),
                    },
                    _ => TemplateNode::Element {
                        tag: ["a", "b", "c"][self.below(3)].to_string(),
                        children: self.template(loops, depth + 1),
                    },
                })
                .collect()
        }

        fn generate(seed: u64) -> (DecorrelatedQuery, HashMap<String, Vec<Binding>>) {
            let mut g = RandomTagging { rng: TestRng::new(seed), blocks: 0 };
            g.blocks = 1 + g.below(3);
            let mut bindings = HashMap::new();
            let mut blocks = Vec::new();
            for b in 0..g.blocks {
                let mut block = XBindQuery::new(&format!("Xb{b}"));
                block.head = Self::VARS.iter().map(|v| v.to_string()).collect();
                block.head.retain(|_| g.below(2) == 0);
                if g.below(8) > 0 {
                    let mut rows = vec![Binding::new(); g.below(6)];
                    for row in &mut rows {
                        for var in &block.head {
                            if g.below(5) > 0 {
                                row.insert(var.clone(), g.value());
                            }
                        }
                    }
                    bindings.insert(block.name.clone(), rows);
                }
                blocks.push(block);
            }
            let template = TaggingTemplate { roots: g.template(0, 0) };
            (DecorrelatedQuery { blocks, template }, bindings)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn compiled_tagging_agrees_with_the_reference(seed in 0u64..u64::MAX) {
            let mut store = XmlStore::new();
            store.add_document(parse_document("d.xml", "<r><n>one &amp; two</n><n> é </n></r>").unwrap());
            let (query, bindings) = RandomTagging::generate(seed);
            let expected = reference::tag_results(&query, &bindings, &store, "result.xml");
            let tagged = tag_results(&query, &bindings, &store, "result.xml");
            prop_assert_eq!(&tagged, &expected);
            prop_assert_eq!(tagged.to_xml(), expected.to_xml());
        }
    }

    #[test]
    fn nested_results_over_evaluated_blocks_agree_with_the_reference() {
        let mut store = XmlStore::new();
        store.add_document(
            parse_document(
                "books.xml",
                "<bib><book><title>TCP/IP</title><author>Stevens</author></book>\
                 <book><title>Advanced TCP/IP</title><author>Stevens</author></book>\
                 <book><title>Data on the Web</title><author>Abiteboul</author></book></bib>",
            )
            .unwrap(),
        );
        let ast = parse_xquery(
            "<result> for $a in distinct(//author/text()) return <item><writer>$a</writer> \
             {for $b in //book $a1 in $b/author/text() $t in $b/title where $a = $a1 \
             return <title>$t</title>} </item> </result>",
        )
        .unwrap();
        let dec = decorrelate(&ast, "books.xml");
        let blocks = store.eval_blocks(&dec.blocks).unwrap();
        let tagged = tag_results(&dec, &blocks, &store, "result.xml");
        assert_eq!(tagged, reference::tag_results(&dec, &blocks, &store, "result.xml"));
        assert_eq!(tagged.to_xml().matches("<title>").count(), 3);
    }

    /// The rows a view stored, read back from its relation or flat document.
    fn stored_extent(view: &ViewDef, xml: &XmlStore, db: &RelationalDatabase) -> Vec<Vec<String>> {
        match &view.output {
            ViewOutput::Relation { name } => {
                let columns: Vec<Term> =
                    (0..view.body.head.len()).map(|i| Term::var(&format!("c{i}"))).collect();
                let scan = ConjunctiveQuery::new("Extent")
                    .with_head(columns.clone())
                    .with_atom(Atom::named(name, columns));
                db.query_strings(&scan)
            }
            ViewOutput::XmlFlat { document, .. } => {
                let doc = xml.document(document).expect("the view wrote its document");
                doc.child_elements(doc.root().unwrap())
                    .map(|row| doc.child_elements(row).map(|field| doc.text_of(field)).collect())
                    .collect()
            }
        }
    }

    fn compiled_body(view: &ViewDef) -> ConjunctiveQuery {
        compile_xbind(&mut CompileContext::new(), &view.body)
    }

    fn sorted<T: Ord>(mut rows: Vec<T>) -> Vec<T> {
        rows.sort();
        rows
    }

    fn absolute(document: &str, path: &str, var: &str) -> XBindAtom {
        XBindAtom::AbsolutePath {
            document: document.to_string(),
            path: mars_xml::parse_path(path).unwrap(),
            var: var.to_string(),
        }
    }

    fn relative(source: &str, path: &str, var: &str) -> XBindAtom {
        XBindAtom::RelativePath {
            path: mars_xml::parse_path(path).unwrap(),
            source: source.to_string(),
            var: var.to_string(),
        }
    }

    /// Rows are a set, written in the order the engine returns them.
    #[test]
    fn materialized_rows_are_distinct_and_in_engine_order() {
        let mut xml = XmlStore::new();
        xml.add_document(
            parse_document(
                "catalog.xml",
                "<catalog><drug><name>b</name><price>1</price></drug>\
                 <drug><name>a</name><price>2</price></drug>\
                 <drug><name>b</name><price>1</price></drug></catalog>",
            )
            .unwrap(),
        );
        let mut db = RelationalDatabase::new();
        let view = ViewDef::xml_flat("V", drug_price_view().body, "v.xml", "entry", &["n", "p"]);
        let router = BackendRouter::new(&db, &xml);
        let plan = router.plan_forced(&compiled_body(&view), Route::Xml);
        let engine: Vec<Vec<String>> = (router.execute(&plan).unwrap().rows.iter())
            .map(|row| row.iter().map(|t| t.as_const().unwrap().render()).collect())
            .collect();
        assert_eq!(materialize_view(&view, &mut xml, &mut db).unwrap(), 2);
        assert_eq!(stored_extent(&view, &xml, &db), engine);
        assert_eq!(sorted(engine), [["a", "2"], ["b", "1"]]);
    }

    /// A GAV body's relational atoms are joined — with each other and with
    /// the paths over a stored document — not skipped.
    #[test]
    fn gav_views_join_their_relational_atoms() {
        let mut xml = catalog_store();
        let mut db = RelationalDatabase::new();
        db.load_facts(&mars_grex::encode_document(xml.document("catalog.xml").unwrap()));
        for (who, what) in [("ann", "flu"), ("bob", "asthma"), ("cy", "flu")] {
            db.insert_strs("diag", &[who, what]);
        }
        for (who, drug) in
            [("ann", "aspirin"), ("bob", "inhaler"), ("bob", "aspirin"), ("dee", "statin")]
        {
            db.insert_strs("takes", &[who, drug]);
        }
        let table = |relation: &str, args: [&str; 2]| XBindAtom::Relational {
            relation: relation.to_string(),
            args: args.iter().map(|a| XBindTerm::var(a)).collect(),
        };
        let cases = XBindQuery::new("Cases")
            .with_head(&["what", "drug"])
            .with_atom(table("diag", ["who", "what"]))
            .with_atom(table("takes", ["who", "drug"]));
        let bills = XBindQuery::new("Bills")
            .with_head(&["who", "p"])
            .with_atom(table("takes", ["who", "n"]))
            .with_atom(absolute("catalog.xml", "//drug", "d"))
            .with_atom(relative("d", "./name/text()", "n"))
            .with_atom(relative("d", "./price/text()", "p"));
        for body in [cases, bills] {
            let view = ViewDef::xml_flat("V", body, "v.xml", "row", &["a", "b"]);
            assert_eq!(materialize_view(&view, &mut xml, &mut db).unwrap(), 3, "{}", view.body);
            let extent = stored_extent(&view, &xml, &db);
            assert_eq!(sorted(extent), sorted(db.query_strings(&compiled_body(&view))));
        }
    }

    /// What is stored satisfies `b_V`: `text()` of an empty element is no
    /// binding (GReX has no `text#d` fact for it), so the extent is exactly
    /// the compiled body's answer and a query through the view returns what
    /// direct navigation returns, on every route.
    #[test]
    fn an_extent_satisfies_its_own_constraints() {
        let source = "<c><d><n>a</n><p>1</p></d><d><n>b</n><p></p></d></c>";
        let body = XBindQuery::new("NP")
            .with_head(&["n", "p"])
            .with_atom(absolute("c.xml", "//d", "d"))
            .with_atom(relative("d", "./n/text()", "n"))
            .with_atom(relative("d", "./p/text()", "p"));
        let through_document = XBindQuery::new("NP")
            .with_head(&["n", "p"])
            .with_atom(absolute("np.xml", "//row", "r"))
            .with_atom(relative("r", "./n/text()", "n"))
            .with_atom(relative("r", "./p/text()", "p"));
        let through_relation = ConjunctiveQuery::new("NP")
            .with_head(vec![Term::var("n"), Term::var("p")])
            .with_atom(Atom::named("np", vec![Term::var("n"), Term::var("p")]));
        let views = [
            (ViewDef::relational("np", body.clone()), through_relation),
            (
                ViewDef::xml_flat("NPdoc", body, "np.xml", "row", &["n", "p"]),
                compile_xbind(&mut CompileContext::new(), &through_document),
            ),
        ];
        for (view, through_view) in views {
            let mut xml = XmlStore::new();
            xml.add_document(parse_document("c.xml", source).unwrap());
            let mut db = RelationalDatabase::new();
            assert_eq!(materialize_view(&view, &mut xml, &mut db).unwrap(), 1, "{}", view.name);
            for name in xml.document_names() {
                db.load_facts(&mars_grex::encode_document(xml.document(&name).unwrap()));
            }
            let navigation = compiled_body(&view);
            let extent = stored_extent(&view, &xml, &db);
            assert_eq!(extent, db.query_strings(&navigation), "{}", view.name);
            let router = BackendRouter::new(&db, &xml);
            let mut plans = vec![router.plan(&navigation), router.plan(&through_view)];
            for route in [Route::Relational, Route::Xml, Route::Mixed] {
                plans.push(router.plan_forced(&navigation, route));
                plans.push(router.plan_forced(&through_view, route));
            }
            for plan in &plans {
                let rows = router.execute(plan).unwrap().rows;
                assert_eq!(rows, db.query(&navigation), "{} on {:?}", plan.query, plan.decision);
            }
        }
    }

    /// An element-valued head column stores the element the interpreter
    /// binds, so rows that differ only in the element's identity stay apart.
    #[test]
    fn element_valued_columns_store_the_element() {
        let mut xml = XmlStore::new();
        let source = "<r><e>x<k>1</k></e><e>x<k>2</k></e><s><e>y</e></s></r>";
        xml.add_document(parse_document("r.xml", source).unwrap());
        let mut db = RelationalDatabase::new();
        let body = XBindQuery::new("E")
            .with_atom(absolute("r.xml", "//r", "r"))
            .with_atom(relative("r", "./e", "e"))
            .with_atom(relative("e", "./k/text()", "k"));
        let elements = ViewDef::relational("e", body.clone().with_head(&["e"]));
        assert_eq!(materialize_view(&elements, &mut xml, &mut db).unwrap(), 2);
        let extent = stored_rows(&elements, &xml, &db);
        assert_eq!(extent, oracle_rows(&elements, &xml, &db));
        assert!(extent.iter().all(|row| matches!(row[0], Term::Const(Constant::Node { .. }))));
        let keyed = ViewDef::relational("ek", body.with_head(&["e", "k"]));
        assert_eq!(materialize_view(&keyed, &mut xml, &mut db).unwrap(), 2);
        assert_eq!(stored_rows(&keyed, &xml, &db), oracle_rows(&keyed, &xml, &db));
    }

    /// A flat XML view cannot hold a node in a text field: it is refused,
    /// and no document is written.
    #[test]
    fn a_node_in_a_flat_view_is_refused() {
        let nodes = XBindQuery::new("Nodes").with_head(&["d"]).with_atom(absolute(
            "catalog.xml",
            "//drug",
            "d",
        ));
        let view = ViewDef::xml_flat("N", nodes, "n.xml", "n", &["drug"]);
        let (mut xml, mut db) = (catalog_store(), RelationalDatabase::new());
        let refused = XmlStoreError::NodeInFlatView {
            document: "n.xml".to_string(),
            field: "drug".to_string(),
        };
        assert_eq!(materialize_view(&view, &mut xml, &mut db), Err(refused));
        assert!(xml.document("n.xml").is_none());
    }

    /// A view over a document the store does not hold fails typed, even
    /// when the document's GReX copy is loaded.
    #[test]
    fn a_view_over_an_absent_document_is_refused() {
        let mut db = RelationalDatabase::new();
        db.load_facts(&mars_grex::encode_document(
            catalog_store().document("catalog.xml").unwrap(),
        ));
        let missing = XmlStoreError::MissingDocument { document: "catalog.xml".to_string() };
        let refused = materialize_view(&drug_price_view(), &mut XmlStore::new(), &mut db);
        assert_eq!(refused, Err(missing));
    }

    /// A head variable the body does not bind stores the empty string.
    #[test]
    fn an_unbound_head_variable_stores_empty() {
        let mut xml = catalog_store();
        let mut db = RelationalDatabase::new();
        let mut view = drug_price_view();
        view.body.head.push("nowhere".to_string());
        assert_eq!(materialize_view(&view, &mut xml, &mut db).unwrap(), 2);
        let extent = stored_extent(&view, &xml, &db);
        assert_eq!(sorted(extent), [["aspirin", "3", ""], ["inhaler", "25", ""]]);
    }

    /// The rows a view stored, as terms, sorted: a relation's rows, or a
    /// flat document's field texts.
    fn stored_rows(view: &ViewDef, xml: &XmlStore, db: &RelationalDatabase) -> Vec<Vec<Term>> {
        let rows = match &view.output {
            ViewOutput::Relation { name } => {
                db.inst.rows(Predicate::new(name)).map(<[Term]>::to_vec).collect()
            }
            ViewOutput::XmlFlat { .. } => (stored_extent(view, xml, db).iter())
                .map(|row| row.iter().map(|text| Term::constant_str(text)).collect())
                .collect(),
        };
        sorted(rows)
    }

    /// What `view`'s extent must hold, sorted and distinct: the naive
    /// interpreter's head bindings, an element as its `Constant::Node` and an
    /// unbound head variable as the empty string. The interpreter skips
    /// relational atoms, so a body with one is answered by the relational
    /// executor over `db` and the GReX facts of every stored document.
    fn oracle_rows(view: &ViewDef, xml: &XmlStore, db: &RelationalDatabase) -> Vec<Vec<Term>> {
        let body = &view.body;
        let mut rows: Vec<Vec<Term>> =
            if body.atoms.iter().any(|a| matches!(a, XBindAtom::Relational { .. })) {
                let mut facts = db.clone();
                for name in xml.document_names() {
                    facts.load_facts(&mars_grex::encode_document(xml.document(&name).unwrap()));
                }
                facts.query(&compiled_body(view))
            } else {
                let term = |value: Option<&Value>| match value {
                    Some(Value::Node { document, node }) => {
                        Term::Const(Constant::node(mars_cq::symbol(document), node.0))
                    }
                    Some(Value::Str(s)) => Term::constant_str(s),
                    None => Term::constant_str(""),
                };
                (xml.eval_xbind(body, &HashMap::new()).unwrap().iter())
                    .map(|row| body.head.iter().map(|var| term(row.get(var))).collect())
                    .collect()
            };
        rows.sort();
        rows.dedup();
        rows
    }

    /// Materialize `views` in order, requiring each stored extent to equal
    /// the oracle's rows. Returns the rows stored.
    fn materialize_as_the_oracle(
        views: &[ViewDef],
        xml: &mut XmlStore,
        db: &mut RelationalDatabase,
    ) -> usize {
        let mut total = 0;
        for view in views {
            let expected = oracle_rows(view, xml, db);
            assert_eq!(materialize_view(view, xml, db).unwrap(), expected.len(), "{}", view.name);
            assert_eq!(stored_rows(view, xml, db), expected, "{}", view.name);
            total += expected.len();
        }
        total
    }

    /// Stored extents equal the interpreter's rows, element columns as the
    /// elements, over the views and specialization relations of a small
    /// star, of XMark, of Example 1.1 and of every scenario with a view.
    #[test]
    fn stored_extents_equal_the_oracle_rows() {
        use mars_workloads::{example11, scenarios::Scenario, star::StarConfig, xmark};
        let stores = |doc| {
            let mut xml = XmlStore::new();
            xml.add_document(doc);
            (xml, RelationalDatabase::new())
        };

        let star = StarConfig::figure5(6);
        let mut views: Vec<ViewDef> = (1..=star.nv).map(|l| star.view(l)).collect();
        views.extend(star.specializations().iter().map(|m| m.definition_view()));
        let (mut xml, mut db) = stores(star.generate_document(6, 3, 1));
        assert!(materialize_as_the_oracle(&views, &mut xml, &mut db) > 0, "star");

        let correspondence = xmark::correspondence();
        let mut views = correspondence.lav_views.clone();
        views.extend(correspondence.specializations.iter().map(|m| m.definition_view()));
        let (mut xml, mut db) = stores(xmark::generate_document(8, 8, 8, 42));
        assert!(materialize_as_the_oracle(&views, &mut xml, &mut db) > 0, "XMark");

        // Example 1.1's base storage, copied from its populated stores.
        let (base_xml, base_db) = example11::populate(8);
        let catalog = base_xml.document(example11::names::CATALOG).unwrap().clone();
        let (mut xml, mut db) = stores(catalog);
        for (table, arity) in
            [(example11::names::PATIENT_DIAG, 2), (example11::names::PATIENT_DRUG, 3)]
        {
            let columns: Vec<Term> = (0..arity).map(|i| Term::var(&format!("c{i}"))).collect();
            let scan = ConjunctiveQuery::new("Table")
                .with_head(columns.clone())
                .with_atom(Atom::named(table, columns));
            for row in base_db.query(&scan) {
                db.inst.insert(Predicate::new(table), &row);
            }
        }
        let views = [example11::case_map(), example11::drug_price_map(), example11::cache_map()];
        assert!(materialize_as_the_oracle(&views, &mut xml, &mut db) > 0, "Example 1.1");

        // A head variable a GReX atom binds holds node constants in a value
        // column, and a relation stores them as they are.
        let nodes = XBindQuery::new("Nodes").with_head(&["e"]).with_atom(XBindAtom::Relational {
            relation: "el#catalog.xml".to_string(),
            args: vec![XBindTerm::var("e")],
        });
        let views = [ViewDef::relational("nodes", nodes)];
        assert!(materialize_as_the_oracle(&views, &mut catalog_store(), &mut db) > 0, "nodes");

        for scenario in Scenario::matrix().into_iter().filter(|s| s.redundancy > 0) {
            let doc = scenario.generate_document(20, 1);
            let facts = mars_grex::encode_document(&doc);
            let (mut xml, mut db) = stores(doc);
            db.load_facts(&facts);
            let mut views = scenario.views();
            let specializations = scenario.correspondence().specializations;
            views.extend(specializations.iter().map(|m| m.definition_view()));
            let stored = materialize_as_the_oracle(&views, &mut xml, &mut db);
            assert!(stored > 0, "{}", scenario.name());
        }
    }
}
