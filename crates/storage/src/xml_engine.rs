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

use crate::doc_index::DocIndex;
use mars_cost::NavStats;
use mars_cq::{Constant, Predicate, Term};
use mars_xml::{eval_path, Document, NodeId, PathValue};
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm};
use std::collections::HashMap;
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
    /// is `distinct`).
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
        let missing =
            |document: &str| XmlStoreError::MissingDocument { document: document.to_string() };
        let mut rows: Vec<HashMap<String, Value>> = vec![HashMap::new()];
        for atom in &query.atoms {
            let mut next = Vec::new();
            for row in &rows {
                match atom {
                    XBindAtom::AbsolutePath { document, path, var } => {
                        let doc = self.document(document).ok_or_else(|| missing(document))?;
                        for v in eval_path(doc, path, None) {
                            let val = self.path_values(&v, document);
                            if let Some(existing) = row.get(var) {
                                if existing == &val {
                                    next.push(row.clone());
                                }
                                continue;
                            }
                            let mut r = row.clone();
                            r.insert(var.clone(), val);
                            next.push(r);
                        }
                    }
                    XBindAtom::RelativePath { path, source, var } => {
                        let Some(Value::Node { document, node }) = row.get(source) else {
                            continue;
                        };
                        let doc = self.document(document).ok_or_else(|| missing(document))?;
                        for v in eval_path(doc, path, Some(*node)) {
                            let val = self.path_values(&v, document);
                            if let Some(existing) = row.get(var) {
                                if existing == &val {
                                    next.push(row.clone());
                                }
                                continue;
                            }
                            let mut r = row.clone();
                            r.insert(var.clone(), val);
                            next.push(r);
                        }
                    }
                    XBindAtom::QueryRef { name, vars } => {
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
                    XBindAtom::Relational { .. } => {
                        // Relational atoms are executed by the relational
                        // engine; the naive XML engine ignores them (the
                        // workloads never mix them in unreformulated queries).
                        next.push(row.clone());
                    }
                    XBindAtom::Eq(a, b) => {
                        if self.compare(row, a, b) == Some(true) {
                            next.push(row.clone());
                        }
                    }
                    XBindAtom::Neq(a, b) => {
                        if self.compare(row, a, b) == Some(false) {
                            next.push(row.clone());
                        }
                    }
                }
            }
            rows = next;
        }
        if query.distinct {
            let mut seen: Vec<HashMap<String, Value>> = Vec::new();
            for r in rows {
                let projected: HashMap<String, Value> = query
                    .head
                    .iter()
                    .filter_map(|h| r.get(h).map(|v| (h.clone(), v.clone())))
                    .collect();
                if !seen.contains(&projected) {
                    seen.push(projected);
                }
            }
            Ok(seen)
        } else {
            Ok(rows)
        }
    }

    fn compare(&self, row: &HashMap<String, Value>, a: &XBindTerm, b: &XBindTerm) -> Option<bool> {
        let resolve = |t: &XBindTerm| -> Option<Value> {
            match t {
                XBindTerm::Var(v) => row.get(v).cloned(),
                XBindTerm::Str(s) => Some(Value::Str(s.clone())),
                // A canonical block's parameter stands for no value here.
                XBindTerm::Param(_) => None,
            }
        };
        Some(resolve(a)? == resolve(b)?)
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
}
