//! The XML store and the naive XBind evaluator.
//!
//! The evaluator executes XBind queries directly over the XML documents by
//! nested-loop enumeration of the path atoms — deliberately unsophisticated,
//! because it plays the role of the general-purpose XQuery engines (Galax,
//! Enosys) that the paper measures unreformulated queries on. It is that
//! baseline (`experiments --savings`, `publish_direct`) and the oracle of
//! the differential tests, and nothing else: no product path calls it
//! (`clippy.toml` bans it in this crate). Reformulated queries and view
//! bodies run through the [`BackendRouter`](crate::BackendRouter) — tables
//! via [`RelationalDatabase`](crate::RelationalDatabase), documents via this
//! store's navigation indexes — which is where the paper's net saving comes
//! from.
//!
//! It filters early, as any XQuery engine does. A decorrelated block lists
//! its `where` conditions after every `for` binding, and run in that order
//! a star block holds the whole product of its bindings (4 374 rows for one
//! answer of the six-corner lookup) before its first join condition. So
//! each condition runs right after the atom that binds the last of its
//! variables (`schedule`, which also says why no result can change).

use crate::doc_index::DocIndex;
use mars_cost::NavStats;
use mars_cq::{Constant, Predicate, Term};
use mars_xml::{eval_path, Document, NodeId, PathValue};
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::OnceLock;

/// A typed evaluation error from the XML store.
///
/// Historically a path atom over an absent document silently produced zero
/// bindings, which made "the document is not loaded" indistinguishable from
/// "the document is empty". Evaluation is now fallible, aligned with the
/// `MarsError`-style structured errors of the rest of the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlStoreError {
    /// A path atom referenced a document the store does not hold.
    MissingDocument {
        /// The name the atom (or a prior binding) referenced.
        document: String,
    },
    /// A plan routed to native navigation contains an atom that is not GReX
    /// navigation (a relation, a view, or a navigation predicate used at the
    /// wrong arity). Routing never produces such a plan; a hand-built
    /// `RoutedPlan` can.
    NotNavigable {
        /// The offending atom's predicate.
        predicate: Predicate,
    },
    /// A plan scans a relation the relational store does not hold: a
    /// document's encoding never loaded there, a view never materialized.
    NotLoaded {
        /// The unheld relation.
        predicate: Predicate,
    },
    /// A flat XML view's row binds a field to an element node: a text field
    /// holds a string, and a stored relation is where a node can be kept.
    NodeInFlatView {
        /// The document the view writes.
        document: String,
        /// The field's tag.
        field: String,
    },
}

impl fmt::Display for XmlStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlStoreError::MissingDocument { document } => {
                write!(f, "document '{document}' is not in the XML store")
            }
            XmlStoreError::NotNavigable { predicate } => {
                write!(f, "atom over '{}' cannot run on the XML backend", predicate.name())
            }
            XmlStoreError::NotLoaded { predicate } => {
                write!(f, "relation '{}' is not loaded in the relational store", predicate.name())
            }
            XmlStoreError::NodeInFlatView { document, field } => {
                write!(f, "flat view '{document}' binds its text field '{field}' to a node")
            }
        }
    }
}

impl std::error::Error for XmlStoreError {}

/// A value bound by XBind evaluation: an element node of a named document, or
/// a string.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// An element node.
    Node {
        /// Owning document name.
        document: String,
        /// Node handle.
        node: NodeId,
    },
    /// A string value (text content, attribute value, constant).
    Str(String),
}

impl Value {
    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            Value::Node { .. } => None,
        }
    }
}

/// A document with its navigation index. The index is built on first use
/// (relational-only tenants never pay for it) and lives exactly as long as
/// the document it describes: replacing the document replaces the pair.
#[derive(Clone, Debug)]
struct StoredDocument {
    document: Document,
    index: OnceLock<DocIndex>,
}

/// A set of named in-memory XML documents.
#[derive(Clone, Debug, Default)]
pub struct XmlStore {
    documents: HashMap<String, StoredDocument>,
}

impl XmlStore {
    /// An empty store.
    pub fn new() -> XmlStore {
        XmlStore::default()
    }

    /// Add (or replace) a document; its `name` field is the lookup key.
    pub fn add_document(&mut self, doc: Document) {
        let stored = StoredDocument { document: doc, index: OnceLock::new() };
        self.documents.insert(stored.document.name.clone(), stored);
    }

    /// Look up a document.
    pub fn document(&self, name: &str) -> Option<&Document> {
        self.documents.get(name).map(|s| &s.document)
    }

    /// A document with its navigation index, built now if this is its first
    /// use.
    pub(crate) fn indexed(&self, name: &str) -> Option<(&Document, &DocIndex)> {
        let stored = self.documents.get(name)?;
        Some((&stored.document, stored.index.get_or_init(|| DocIndex::new(&stored.document))))
    }

    /// Names of all stored documents.
    pub fn document_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.documents.keys().cloned().collect();
        names.sort();
        names
    }
}

/// The naive interpreter — baseline and oracle (see module docs).
#[allow(clippy::disallowed_methods)]
impl XmlStore {
    fn path_values(&self, value: &PathValue, document: &str) -> Value {
        match value {
            PathValue::Node(n) => Value::Node { document: document.to_string(), node: *n },
            PathValue::Text(s) => Value::Str(s.clone()),
        }
    }

    /// Evaluate an XBind query by nested loops over its atoms, optionally
    /// using previously computed results for `QueryRef` atoms (keyed by query
    /// name). Returns one binding map per result (deduplicated when the query
    /// is `distinct`, first occurrences in order).
    ///
    /// The binding atoms run in their listed order; each `where` condition
    /// runs as soon as its variables are bound (`schedule`), so a join
    /// condition filters before the next binding multiplies the rows.
    ///
    /// # Errors
    ///
    /// [`XmlStoreError::MissingDocument`] when a path atom references a
    /// document the store does not hold — an absent document is a storage
    /// misconfiguration, not an empty result.
    pub fn eval_xbind(
        &self,
        query: &XBindQuery,
        prior: &HashMap<String, Vec<HashMap<String, Value>>>,
    ) -> Result<Vec<HashMap<String, Value>>, XmlStoreError> {
        self.eval_in_order(query, prior, &schedule(&query.atoms))
    }

    /// [`XmlStore::eval_xbind`] with the atoms run in `order`, a permutation
    /// of their indices.
    fn eval_in_order(
        &self,
        query: &XBindQuery,
        prior: &HashMap<String, Vec<HashMap<String, Value>>>,
        order: &[usize],
    ) -> Result<Vec<HashMap<String, Value>>, XmlStoreError> {
        let missing =
            |document: &str| XmlStoreError::MissingDocument { document: document.to_string() };
        let mut rows: Vec<HashMap<String, Value>> = vec![HashMap::new()];
        for atom in order.iter().map(|&i| &query.atoms[i]) {
            let mut next = Vec::new();
            match atom {
                XBindAtom::AbsolutePath { document, path, var } => {
                    // An absolute path reaches the same values from every
                    // row, and an absent document fails whatever rows reach
                    // the atom.
                    let doc = self.document(document).ok_or_else(|| missing(document))?;
                    let values: Vec<Value> = eval_path(doc, path, None)
                        .iter()
                        .map(|v| self.path_values(v, document))
                        .collect();
                    for row in &rows {
                        bind(&mut next, row, var, values.iter().cloned());
                    }
                }
                XBindAtom::RelativePath { path, source, var } => {
                    for row in &rows {
                        let Some(Value::Node { document, node }) = row.get(source) else {
                            continue;
                        };
                        let doc = self.document(document).ok_or_else(|| missing(document))?;
                        let values = eval_path(doc, path, Some(*node));
                        let values = values.iter().map(|v| self.path_values(v, document));
                        bind(&mut next, row, var, values);
                    }
                }
                XBindAtom::QueryRef { name, vars } => {
                    for row in &rows {
                        for outer in prior.get(name).map(Vec::as_slice).unwrap_or(&[]) {
                            let mut r = row.clone();
                            let mut ok = true;
                            for v in vars {
                                let Some(val) = outer.get(v) else {
                                    ok = false;
                                    break;
                                };
                                match r.get(v) {
                                    Some(existing) if existing != val => {
                                        ok = false;
                                        break;
                                    }
                                    _ => {
                                        r.insert(v.clone(), val.clone());
                                    }
                                }
                            }
                            if ok {
                                next.push(r);
                            }
                        }
                    }
                }
                // Relational atoms are executed by the relational engine;
                // the naive XML engine ignores them (the workloads never mix
                // them in unreformulated queries).
                XBindAtom::Relational { .. } => next = rows,
                XBindAtom::Eq(a, b) => {
                    next = rows
                        .into_iter()
                        .filter(|row| self.compare(row, a, b) == Some(true))
                        .collect();
                }
                XBindAtom::Neq(a, b) => {
                    next = rows
                        .into_iter()
                        .filter(|row| self.compare(row, a, b) == Some(false))
                        .collect();
                }
            }
            rows = next;
        }
        if !query.distinct {
            return Ok(rows);
        }
        // Rows with the same head values project to the same map.
        let mut seen = HashSet::new();
        let mut projected = Vec::new();
        for row in &rows {
            let key: Vec<Option<&Value>> = query.head.iter().map(|h| row.get(h)).collect();
            if !seen.contains(&key) {
                let pairs = query.head.iter().zip(&key);
                projected
                    .push(pairs.filter_map(|(h, v)| Some((h.clone(), (*v)?.clone()))).collect());
                seen.insert(key);
            }
        }
        Ok(projected)
    }

    fn compare(&self, row: &HashMap<String, Value>, a: &XBindTerm, b: &XBindTerm) -> Option<bool> {
        // A string as `Ok`, a node as `Err`: `Value`'s equality, unowned.
        fn resolve<'a>(
            row: &'a HashMap<String, Value>,
            t: &'a XBindTerm,
        ) -> Option<Result<&'a str, &'a Value>> {
            match t {
                XBindTerm::Var(v) => row.get(v).map(|value| value.as_str().ok_or(value)),
                XBindTerm::Str(s) => Some(Ok(s)),
                // A canonical block's parameter stands for no value here.
                XBindTerm::Param(_) => None,
            }
        }
        Some(resolve(row, a)? == resolve(row, b)?)
    }

    /// Evaluate a chain of decorrelated blocks (outermost first), feeding each
    /// block the results of the previous ones. Returns the bindings of every
    /// block, keyed by block name.
    ///
    /// # Errors
    ///
    /// [`XmlStoreError::MissingDocument`] when any block references a
    /// document the store does not hold (see [`XmlStore::eval_xbind`]).
    pub fn eval_blocks(
        &self,
        blocks: &[XBindQuery],
    ) -> Result<HashMap<String, Vec<HashMap<String, Value>>>, XmlStoreError> {
        let mut results: HashMap<String, Vec<HashMap<String, Value>>> = HashMap::new();
        for block in blocks {
            let rows = self.eval_xbind(block, &results)?;
            results.insert(block.name.clone(), rows);
        }
        Ok(results)
    }
}

/// Extends `next` with `row` bound to each of `values` at `var` or, when
/// `var` is already bound, with `row` once per value equal to its own.
fn bind(
    next: &mut Vec<HashMap<String, Value>>,
    row: &HashMap<String, Value>,
    var: &str,
    values: impl Iterator<Item = Value>,
) {
    for val in values {
        match row.get(var) {
            Some(existing) if *existing == val => next.push(row.clone()),
            Some(_) => {}
            None => {
                let mut r = row.clone();
                r.insert(var.to_string(), val);
                next.push(r);
            }
        }
    }
}

/// The order [`XmlStore::eval_xbind`] runs `atoms` in: the binding atoms in
/// their listed order, each `where` condition (`Eq` / `Neq`) right after the
/// atom that binds the last of its variables. A variable is bound at the
/// first path or `QueryRef` atom that names it as its target; `Relational`
/// atoms bind nothing here. A condition without variables runs first, and
/// one with a variable not bound before its listed position stays there,
/// where it drops every row as it always did. Conditions sharing a point
/// keep their listed order.
///
/// No result changes: a condition reads only variables every row already
/// has at its new point, and no later atom rebinds them, so it drops the
/// same rows early as late; the binding atoms keep their order, so the
/// surviving rows come out in the same nested-loop order.
fn schedule(atoms: &[XBindAtom]) -> Vec<usize> {
    let mut bound_at: HashMap<&str, usize> = HashMap::new();
    for (i, atom) in atoms.iter().enumerate() {
        let vars = match atom {
            XBindAtom::AbsolutePath { var, .. } | XBindAtom::RelativePath { var, .. } => {
                std::slice::from_ref(var)
            }
            XBindAtom::QueryRef { vars, .. } => vars.as_slice(),
            XBindAtom::Relational { .. } | XBindAtom::Eq(..) | XBindAtom::Neq(..) => &[],
        };
        for v in vars {
            bound_at.entry(v.as_str()).or_insert(i);
        }
    }
    // The atom each one runs after (`None`: before every atom).
    let point = |i: usize| -> Option<usize> {
        let (XBindAtom::Eq(a, b) | XBindAtom::Neq(a, b)) = &atoms[i] else { return Some(i) };
        let mut last = None;
        for v in [a, b].into_iter().filter_map(XBindTerm::as_var) {
            match bound_at.get(v) {
                Some(&at) if at < i => last = last.max(Some(at)),
                _ => return Some(i),
            }
        }
        last
    };
    let mut order: Vec<usize> = (0..atoms.len()).collect();
    order.sort_by_cached_key(|&i| (point(i), i));
    order
}

/// Navigation statistics over the stored documents — the XML-side counters
/// the backend router prices native navigation with (the relational side
/// reads the exact [`StatisticsCatalog`](mars_cost::StatisticsCatalog)
/// counters instead). Each is an O(1) read of the document's resident
/// [index](crate::doc_index), which counted them while it was built: the
/// planner reads them on the request path. A document the store does not
/// hold has no record and empty buckets.
impl mars_cost::NavigationStatistics for XmlStore {
    fn stats(&self, document: &str) -> Option<NavStats> {
        self.indexed(document).map(|(_, index)| index.stats())
    }

    fn tag_count(&self, document: &str, tag: Constant) -> usize {
        self.indexed(document).map_or(0, |(_, index)| index.with_tag(Term::Const(tag)).len())
    }

    fn text_value_count(&self, document: &str, value: Constant) -> usize {
        self.indexed(document).map_or(0, |(_, index)| index.with_text(Term::Const(value)).len())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use mars_xml::parse_document;
    use mars_xquery::xbind::example_2_1;

    fn books_store() -> XmlStore {
        let mut store = XmlStore::new();
        store.add_document(
            parse_document(
                "books.xml",
                r#"<bib>
                     <book><title>TCP/IP</title><author>Stevens</author></book>
                     <book><title>Data on the Web</title><author>Abiteboul</author><author>Suciu</author></book>
                     <book><title>Advanced TCP/IP</title><author>Stevens</author></book>
                   </bib>"#,
            )
            .unwrap(),
        );
        store
    }

    #[test]
    fn example_2_1_blocks_evaluate_with_correlation() {
        let store = books_store();
        let (xbo, xbi) = example_2_1();
        // The example names the blocks Xbo/Xbi; the inner references "Xbo".
        let results = store.eval_blocks(&[xbo.clone(), xbi.clone()]).unwrap();
        // Distinct authors: Stevens, Abiteboul, Suciu.
        assert_eq!(results["Xbo"].len(), 3);
        // Correlated inner bindings: one per (author, book-with-that-author) pair
        // with title: Stevens×2 + Abiteboul×1 + Suciu×1 = 4.
        assert_eq!(results["Xbi"].len(), 4);
        for row in &results["Xbi"] {
            assert_eq!(row["a"], row["a1"]);
        }
    }

    #[test]
    fn distinct_eliminates_duplicate_head_bindings() {
        let store = books_store();
        let (xbo, _) = example_2_1();
        let mut non_distinct = xbo.clone();
        non_distinct.distinct = false;
        let with = store.eval_xbind(&xbo, &HashMap::new()).unwrap();
        let without = store.eval_xbind(&non_distinct, &HashMap::new()).unwrap();
        assert_eq!(with.len(), 3);
        assert_eq!(without.len(), 4); // Stevens appears twice
    }

    /// A path atom over an absent document is a typed error, not an empty
    /// result — the silent-empty behavior hid storage misconfigurations.
    #[test]
    fn missing_documents_are_a_typed_error() {
        let store = XmlStore::new();
        let (xbo, _) = example_2_1();
        let err = store.eval_xbind(&xbo, &HashMap::new()).unwrap_err();
        assert_eq!(err, XmlStoreError::MissingDocument { document: "books.xml".to_string() });
        assert!(err.to_string().contains("books.xml"));
        assert!(store.document_names().is_empty());
    }

    #[test]
    fn inequalities_and_constants() {
        let store = books_store();
        let q = XBindQuery::new("Q")
            .with_head(&["a"])
            .with_atom(XBindAtom::AbsolutePath {
                document: "books.xml".to_string(),
                path: mars_xml::parse_path("//author/text()").unwrap(),
                var: "a".to_string(),
            })
            .with_atom(XBindAtom::Neq(XBindTerm::var("a"), XBindTerm::str("Stevens")));
        let rows = store.eval_xbind(&q, &HashMap::new()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r["a"].as_str() != Some("Stevens")));
    }

    fn path(document: &str, path: &str, var: &str) -> XBindAtom {
        let (document, var) = (document.to_string(), var.to_string());
        XBindAtom::AbsolutePath { document, path: mars_xml::parse_path(path).unwrap(), var }
    }

    fn step(source: &str, path: &str, var: &str) -> XBindAtom {
        let (source, var) = (source.to_string(), var.to_string());
        XBindAtom::RelativePath { path: mars_xml::parse_path(path).unwrap(), source, var }
    }

    #[test]
    fn conditions_run_after_the_atom_binding_their_last_variable() {
        let [x, y, z, w] = ["x", "y", "z", "w"].map(XBindTerm::var);
        let atoms = [
            path("books.xml", "//book", "x"),
            step("x", "title/text()", "y"),
            XBindAtom::Eq(x.clone(), XBindTerm::str("c")),
            XBindAtom::Eq(y.clone(), x.clone()),
            XBindAtom::Neq(XBindTerm::str("a"), XBindTerm::Param(0)),
            XBindAtom::Eq(z, x.clone()),
            XBindAtom::Eq(w.clone(), y.clone()),
            XBindAtom::Relational { relation: "r".to_string(), args: vec![y.clone()] },
            XBindAtom::QueryRef { name: "P".to_string(), vars: vec!["y".into(), "w".into()] },
            XBindAtom::Neq(y, XBindTerm::str("d")),
            XBindAtom::Eq(w, x),
        ];
        // The constant-only condition first; `z = x` and `w = y` stay where
        // they are listed, since nothing binds `z` and `P` binds `w` only
        // later; a `Relational` atom binds nothing, so `y != "d"` runs after
        // `title/text()` binds `y`.
        assert_eq!(schedule(&atoms), [4, 0, 2, 1, 3, 9, 5, 6, 7, 8, 10]);
    }

    /// A condition listed before the atom that binds its variable is not
    /// moved after it: it still sees the variable unbound and keeps no row.
    #[test]
    fn a_condition_before_its_binding_still_yields_no_rows() {
        let store = books_store();
        let cond = XBindAtom::Eq(XBindTerm::var("a"), XBindTerm::str("Stevens"));
        let bind = path("books.xml", "//author/text()", "a");
        let before = XBindQuery::new("Q").with_atom(cond.clone()).with_atom(bind.clone());
        assert_eq!(schedule(&before.atoms), [0, 1]);
        assert!(store.eval_xbind(&before, &HashMap::new()).unwrap().is_empty());
        let after = XBindQuery::new("Q").with_atom(bind).with_atom(cond);
        assert_eq!(store.eval_xbind(&after, &HashMap::new()).unwrap().len(), 2);
    }

    mod scheduled {
        use super::*;
        use proptest::prelude::*;

        const VARS: [&str; 5] = ["b", "c", "a", "t", "u"];

        fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
            from[(rng.next_u64() % from.len() as u64) as usize]
        }

        /// A term over the block's variables, `z` (which nothing binds),
        /// two constants that match some text and one that matches none,
        /// or a parameter.
        fn term(rng: &mut TestRng) -> XBindTerm {
            match rng.next_u64() % 8 {
                0..=4 => XBindTerm::var(pick(rng, &["b", "c", "a", "t", "u", "z"])),
                5 | 6 => XBindTerm::str(pick(rng, &["Stevens", "TCP/IP", "x"])),
                _ => XBindTerm::Param(0),
            }
        }

        /// A random block over `books.xml` (rarely over an absent
        /// document): node and text bindings, some variables bound twice,
        /// an import of `P`, and conditions anywhere, some before their
        /// variables are bound.
        fn random_block(rng: &mut TestRng) -> XBindQuery {
            let mut q = XBindQuery::new("Q");
            for _ in 0..1 + rng.next_u64() % 6 {
                let var = pick(rng, &VARS);
                q = q.with_atom(match rng.next_u64() % 10 {
                    0 | 1 => {
                        let document = pick(rng, &["books.xml", "books.xml", "absent.xml"]);
                        let to = pick(rng, &["//book", "//author/text()", "//title/text()"]);
                        path(document, to, var)
                    }
                    2 | 3 => {
                        let to = pick(rng, &["author/text()", "title/text()", "author"]);
                        step(pick(rng, &["b", "c"]), to, var)
                    }
                    4 => {
                        let vars = pick(rng, &[&["a"][..], &["b", "a"], &["a", "c"]]);
                        XBindAtom::QueryRef {
                            name: "P".to_string(),
                            vars: vars.iter().map(|v| v.to_string()).collect(),
                        }
                    }
                    5 => XBindAtom::Relational { relation: "r".to_string(), args: vec![term(rng)] },
                    6 | 7 => XBindAtom::Eq(term(rng), term(rng)),
                    _ => XBindAtom::Neq(term(rng), term(rng)),
                });
            }
            let head = VARS.into_iter().filter(|_| rng.next_u64().is_multiple_of(2));
            q.head = head.map(str::to_string).collect();
            q.distinct = rng.next_u64().is_multiple_of(2);
            q
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// The scheduled order gives the listed order's result, rows
            /// and errors alike, row for row.
            #[test]
            fn scheduled_evaluation_equals_listed_order(seed in 0u64..u64::MAX) {
                let mut rng = TestRng::new(seed);
                let store = books_store();
                let import = XBindQuery::new("P")
                    .with_atom(path("books.xml", "//book", "b"))
                    .with_atom(step("b", "author/text()", "a"));
                let imported = store.eval_xbind(&import, &HashMap::new()).unwrap();
                let prior = HashMap::from([("P".to_string(), imported)]);
                let q = random_block(&mut rng);
                let order = schedule(&q.atoms);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                let listed: Vec<usize> = (0..q.atoms.len()).collect();
                prop_assert_eq!(&sorted, &listed);
                let scheduled = store.eval_in_order(&q, &prior, &order);
                prop_assert_eq!(&scheduled, &store.eval_in_order(&q, &prior, &listed), "{}", q);
                // `distinct` keeps each head binding's first projection.
                if let (Ok(rows), true) = (scheduled, q.distinct) {
                    let all = XBindQuery { distinct: false, ..q.clone() };
                    let mut first: Vec<HashMap<String, Value>> = Vec::new();
                    for mut row in store.eval_xbind(&all, &prior).unwrap() {
                        row.retain(|var, _| q.head.contains(var));
                        if !first.contains(&row) {
                            first.push(row);
                        }
                    }
                    prop_assert_eq!(rows, first, "{}", q);
                }
            }
        }
    }
}
