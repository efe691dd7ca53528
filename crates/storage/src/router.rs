//! The backend router: execute one reformulated query block on the stores
//! that serve it cheapest.
//!
//! [`BackendRouter`] prices a conjunctive query (a minimal reformulation from
//! the backchase) with [`mars_cost::route_query`] against the relational
//! store's exact statistics and the XML store's navigation statistics. The
//! route it records is a description of one [`PhysicalPlan`] tree's leaves:
//!
//! * **relational** — every atom a `TableScan` over the loaded facts and
//!   materialized views;
//! * **xml** — one `NavScan`: the navigation atoms (`root#d`, `el#d`,
//!   `child#d`, `desc#d`, `tag#d`, `attr#d`, `id#d`, `text#d`) compiled, in
//!   the order the estimate was priced for, into the native navigation
//!   kernel ([`crate::navigation`]) over each stored
//!   [`Document`](mars_xml::Document)'s resident index, producing exactly the
//!   bindings joining `mars_grex::encode_document`'s facts would (node
//!   identities are the same typed constants, `mars_grex::node_constant`),
//!   so the two stores agree byte for byte;
//! * **mixed** — that `NavScan` hash-joined with `TableScan`s for the
//!   remaining atoms.
//!
//! The decision keeps the tree it priced for its route
//! ([`RoutingDecision::tree`]), and [`BackendRouter::execute`] runs that tree,
//! reading the query's terms from the plan's own query: it never plans. The
//! tree names terms by position, so a plan-cache hit, whose query has fresh
//! constants and its own variable names, runs the tree its entry keeps, built
//! once per shape from the statistics of the request that missed. Every route
//! runs through the one executor ([`crate::executor`]), so every route ends in
//! the same residual inequality filter, head projection (unsafe head
//! variables evaluate to themselves) and deduplication, which sorts the
//! result's row indices by the rows they name and drops adjacent repeats —
//! the routing decision is advisory, the row set is invariant
//! (property-tested in `tests/property_based.rs` and gated in CI), which is
//! also why a tree frozen at older statistics stays correct.

use crate::executor::execute_plan;
use crate::relational::{RelationalDatabase, Row};
use crate::xml_engine::{XmlStore, XmlStoreError};
use mars_cost::{route_forced, route_query, unheld_relation, PhysicalPlan};
pub use mars_cost::{Route, RouteCosts, RoutingDecision};
use mars_cq::{Atom, ConjunctiveQuery};
use std::time::{Duration, Instant};

/// A query paired with its priced routing decision (see [`BackendRouter::plan`]).
#[derive(Clone, Debug)]
pub struct RoutedPlan {
    /// The query to execute (a reformulation's `best_or_initial`): its
    /// constants and variable names are the ones the decision's tree runs
    /// with.
    pub query: ConjunctiveQuery,
    /// The decision: chosen route, per-backend estimates and the tree, priced
    /// for this query or for another of its shape (a plan-cache hit's).
    pub decision: RoutingDecision,
}

/// The outcome of executing a [`RoutedPlan`]: estimated vs actual cost.
#[derive(Clone, Debug)]
pub struct RoutedExecution {
    /// The route that actually executed: the one the executed tree's leaves
    /// describe (the plan's decision unless its route was edited by hand).
    pub route: Route,
    /// The navigation leaf's estimate, in rows touched: what `nav_tuples`
    /// is the actual of. 0 on the relational route.
    pub estimated_cost: f64,
    /// Candidate tuples the navigation kernel enumerated — the actual in
    /// the unit of the navigation estimate, exact and repeatable where the
    /// wall clock is not. 0 on the relational route.
    pub nav_tuples: u64,
    /// The result rows — deduplicated, ascending, identical on every route.
    pub rows: Vec<Row>,
    /// Wall-clock execution time (the actual cost).
    pub duration: Duration,
}

impl RoutedExecution {
    /// Number of result rows actually produced.
    pub fn actual_rows(&self) -> usize {
        self.rows.len()
    }
}

/// A router over one relational store and one XML store (see module docs).
/// It holds no state of its own — the navigation indexes live in the
/// [`XmlStore`] beside their documents — so one router serves any number of
/// threads.
pub struct BackendRouter<'a> {
    db: &'a RelationalDatabase,
    xml: &'a XmlStore,
}

impl<'a> BackendRouter<'a> {
    /// A router over the two stores.
    pub fn new(db: &'a RelationalDatabase, xml: &'a XmlStore) -> BackendRouter<'a> {
        BackendRouter { db, xml }
    }

    /// Price `query` against every backend and choose the cheapest (auto
    /// routing).
    pub fn plan(&self, query: &ConjunctiveQuery) -> RoutedPlan {
        let decision = route_query(query, self.db, self.xml);
        RoutedPlan { query: query.clone(), decision }
    }

    /// Force a route ([`mars_cost::route_forced`]): relational scans every
    /// atom; xml and mixed both mean "navigate natively", and the decision
    /// keeps that tree and records the route its leaves describe — mixed
    /// when relational atoms remain, relational when nothing navigates a
    /// stored document — so ablation results stay honest.
    pub fn plan_forced(&self, query: &ConjunctiveQuery, route: Route) -> RoutedPlan {
        let decision = route_forced(query, self.db, self.xml, route);
        RoutedPlan { query: query.clone(), decision }
    }

    /// Execute a routed plan: run its decision's tree with the plan's query.
    /// Nothing is planned; a decision without a tree (a body-less query) is
    /// answered by [`RelationalDatabase::query`].
    ///
    /// # Errors
    ///
    /// [`XmlStoreError::MissingDocument`] when an XML or mixed route
    /// references a document that left the store after planning, and
    /// [`XmlStoreError::NotNavigable`] when a hand-edited plan names a route
    /// its tree does not run and the query sends a non-navigation atom down
    /// it (routing itself never chooses a route over absent documents or
    /// foreign atoms), and [`XmlStoreError::NotLoaded`] when the tree scans
    /// a relation the relational store does not hold — a forced route, or a
    /// query no route can answer.
    pub fn execute(&self, plan: &RoutedPlan) -> Result<RoutedExecution, XmlStoreError> {
        let start = Instant::now();
        let (q, tree) = (&plan.query, plan.decision.tree.as_deref());
        let route = tree.map_or(Route::Relational, Route::of);
        if let Some(error) = (route != plan.decision.route).then(|| self.off_route(q)).flatten() {
            return Err(error);
        }
        let nav_scan = tree.and_then(PhysicalPlan::nav_scan);
        if let Some(atom) = unheld_relation(q, nav_scan.map_or(&[], |s| &s.atoms), self.db) {
            return Err(XmlStoreError::NotLoaded { predicate: atom.predicate });
        }
        let (rows, nav_tuples) = match tree {
            Some(tree) => execute_plan(tree, q, &self.db.inst, self.xml)?,
            None => (self.db.query(q), 0),
        };
        let estimated_cost = nav_scan.map_or(0.0, |s| s.cost);
        Ok(RoutedExecution { route, estimated_cost, nav_tuples, rows, duration: start.elapsed() })
    }

    /// Why `q`'s tree lacks the leaves its plan's route names: a
    /// navigation atom over a document the store does not hold, else an atom
    /// that is not navigation. `None` when neither exists, which leaves the
    /// tree running another route than the plan names: a cost, not an
    /// error.
    fn off_route(&self, q: &ConjunctiveQuery) -> Option<XmlStoreError> {
        let document = |atom: &Atom| atom.navigation().map(|(_, document)| document);
        match q.body.iter().filter_map(document).find(|d| self.xml.document(d).is_none()) {
            Some(d) => Some(XmlStoreError::MissingDocument { document: d.to_string() }),
            None => (q.body.iter().find(|atom| document(atom).is_none()))
                .map(|atom| XmlStoreError::NotNavigable { predicate: atom.predicate }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::Term;
    use mars_grex::{encode_document, node_constant};
    use mars_xml::{parse_document, Document, NodeId};

    fn sample_doc() -> Document {
        parse_document(
            "shop.xml",
            r#"<shop>
                 <item sku="a1"><name>bolt</name><price>3</price></item>
                 <item sku="b2"><name>nut</name><price>3</price></item>
                 <section><item sku="c3"><name>washer</name></item></section>
               </shop>"#,
        )
        .unwrap()
    }

    fn stores() -> (RelationalDatabase, XmlStore) {
        let doc = sample_doc();
        let mut db = RelationalDatabase::new();
        db.load_facts(&encode_document(&doc));
        let mut xml = XmlStore::new();
        xml.add_document(doc);
        (db, xml)
    }

    fn nav(base: &str, args: Vec<Term>) -> Atom {
        Atom::named(&format!("{base}#shop.xml"), args)
    }

    /// One query per navigation base: the native interpreter must return
    /// exactly what the relational executor returns over the loaded
    /// `encode_document` facts — the byte-identity anchor of routing.
    #[test]
    fn native_interpreter_matches_the_encoded_facts_per_base() {
        let (db, xml) = stores();
        let router = BackendRouter::new(&db, &xml);
        let x = Term::var("x");
        let y = Term::var("y");
        let z = Term::var("z");
        let cases: Vec<(&str, ConjunctiveQuery)> = vec![
            (
                "root",
                ConjunctiveQuery::new("Q").with_head(vec![x]).with_body(vec![nav("root", vec![x])]),
            ),
            (
                "el",
                ConjunctiveQuery::new("Q").with_head(vec![x]).with_body(vec![nav("el", vec![x])]),
            ),
            (
                "id",
                ConjunctiveQuery::new("Q")
                    .with_head(vec![x, y])
                    .with_body(vec![nav("id", vec![x, y])]),
            ),
            (
                "tag",
                ConjunctiveQuery::new("Q")
                    .with_head(vec![x, y])
                    .with_body(vec![nav("tag", vec![x, y])]),
            ),
            (
                "text",
                ConjunctiveQuery::new("Q")
                    .with_head(vec![x, y])
                    .with_body(vec![nav("text", vec![x, y])]),
            ),
            (
                "attr",
                ConjunctiveQuery::new("Q")
                    .with_head(vec![x, y, z])
                    .with_body(vec![nav("attr", vec![x, y, z])]),
            ),
            (
                "child",
                ConjunctiveQuery::new("Q")
                    .with_head(vec![x, y])
                    .with_body(vec![nav("child", vec![x, y])]),
            ),
            (
                "desc",
                ConjunctiveQuery::new("Q")
                    .with_head(vec![x, y])
                    .with_body(vec![nav("desc", vec![x, y])]),
            ),
        ];
        for (label, q) in cases {
            let native = router.execute(&router.plan_forced(&q, Route::Xml)).unwrap();
            assert_eq!(native.route, Route::Xml);
            let native = native.rows;
            assert_eq!(native, db.query(&q), "base {label} disagrees with the encoding");
            assert!(!native.is_empty(), "base {label} should match something");
        }
    }

    /// A multi-atom navigation join with a constant and an inequality: both
    /// backends and the forced routes agree.
    #[test]
    fn all_routes_agree_on_a_navigation_join() {
        let (db, xml) = stores();
        let router = BackendRouter::new(&db, &xml);
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("n"), Term::var("t")])
            .with_body(vec![
                nav("root", vec![Term::var("r")]),
                nav("desc", vec![Term::var("r"), Term::var("n")]),
                nav("tag", vec![Term::var("n"), Term::constant_str("item")]),
                nav("desc", vec![Term::var("n"), Term::var("m")]),
                nav("text", vec![Term::var("m"), Term::var("t")]),
            ])
            .with_inequality(Term::var("t"), Term::constant_str("nut"));
        let reference = db.query(&q);
        assert!(!reference.is_empty());
        for route in [Route::Relational, Route::Xml, Route::Mixed] {
            let plan = router.plan_forced(&q, route);
            let exec = router.execute(&plan).unwrap();
            assert_eq!(exec.rows, reference, "forced {route} must agree");
        }
        let auto = router.execute(&router.plan(&q)).unwrap();
        assert_eq!(auto.rows, reference);
        assert_eq!(auto.actual_rows(), reference.len());
    }

    /// The mixed route joins native navigation with a relational subquery on
    /// the shared variables.
    #[test]
    fn mixed_route_joins_navigation_with_relations() {
        let (mut db, xml) = stores();
        // A relational side table keyed by the item name.
        for (name, origin) in [("bolt", "de"), ("nut", "fr")] {
            db.insert_strs("origin", &[name, origin]);
        }
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("n"), Term::var("o")])
            .with_body(vec![
                nav("tag", vec![Term::var("i"), Term::constant_str("name")]),
                nav("text", vec![Term::var("i"), Term::var("n")]),
                Atom::named("origin", vec![Term::var("n"), Term::var("o")]),
            ]);
        let router = BackendRouter::new(&db, &xml);
        let plan = router.plan_forced(&q, Route::Mixed);
        assert_eq!(plan.decision.route, Route::Mixed);
        assert_eq!(plan.decision.navigation_atoms, 2);
        assert_eq!(plan.decision.relational_atoms, 1);
        let exec = router.execute(&plan).unwrap();
        assert_eq!(exec.rows, db.query(&q), "mixed must agree with relational");
        assert_eq!(exec.rows.len(), 2);
    }

    /// The tail after the mixed join: an inequality between a navigation and
    /// a relational variable, an unsafe head variable and a head constant;
    /// and a navigation half that shares no variable with the relational
    /// half, so it contributes a width-0 batch to a cross product.
    #[test]
    fn mixed_tails_and_cross_products_agree_with_relational() {
        let (mut db, xml) = stores();
        for row in [["bolt", "de", "nut"], ["nut", "fr", "nut"], ["washer", "uk", "bolt"]] {
            db.insert_strs("origin", &row);
        }
        let (i, n, o, alt) = (Term::var("i"), Term::var("n"), Term::var("o"), Term::var("alt"));
        let origin = Atom::named("origin", vec![n, o, alt]);
        let tail = ConjunctiveQuery::new("Q")
            .with_head(vec![n, o, Term::var("ghost"), Term::constant_str("lit")])
            .with_body(vec![
                nav("tag", vec![i, Term::constant_str("name")]),
                nav("text", vec![i, n]),
                origin.clone(),
            ])
            .with_inequality(n, alt);
        let cross = ConjunctiveQuery::new("Q")
            .with_head(vec![o])
            .with_body(vec![nav("tag", vec![i, Term::constant_str("item")]), origin]);
        let router = BackendRouter::new(&db, &xml);
        for (q, expected) in [(tail, 2), (cross, 3)] {
            let reference = db.query(&q);
            assert_eq!(reference.len(), expected, "{q}");
            let forced = router.plan_forced(&q, Route::Mixed);
            assert_eq!(forced.decision.route, Route::Mixed);
            for plan in [forced, router.plan(&q)] {
                assert_eq!(router.execute(&plan).unwrap().rows, reference, "{q} on {plan:?}");
            }
        }
    }

    /// Forcing XML on a query with relational atoms degrades to mixed, and
    /// to relational when nothing is navigational — the effective route is
    /// recorded, never silently lied about.
    #[test]
    fn forced_routes_clamp_to_feasibility() {
        let (mut db, xml) = stores();
        db.insert_strs("origin", &["bolt", "de"]);
        let router = BackendRouter::new(&db, &xml);

        let with_rel = ConjunctiveQuery::new("Q").with_head(vec![Term::var("n")]).with_body(vec![
            nav("text", vec![Term::var("i"), Term::var("n")]),
            Atom::named("origin", vec![Term::var("n"), Term::var("o")]),
        ]);
        assert_eq!(router.plan_forced(&with_rel, Route::Xml).decision.route, Route::Mixed);

        let rel_only = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("n")])
            .with_body(vec![Atom::named("origin", vec![Term::var("n"), Term::var("o")])]);
        assert_eq!(router.plan_forced(&rel_only, Route::Xml).decision.route, Route::Relational);
        assert_eq!(router.plan_forced(&rel_only, Route::Mixed).decision.route, Route::Relational);

        let nav_only = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("i")])
            .with_body(vec![nav("el", vec![Term::var("i")])]);
        assert_eq!(router.plan_forced(&nav_only, Route::Xml).decision.route, Route::Xml);
        assert_eq!(
            router.plan_forced(&nav_only, Route::Relational).decision.route,
            Route::Relational
        );
    }

    /// A forced decision keeps the tree the pricer built for its route: the
    /// all-scans tree for relational, the native tree for xml and mixed.
    /// Wherever the forced and the automatic route agree, the two decisions
    /// hold the same tree and the same costs.
    #[test]
    fn forced_trees_are_the_priced_trees() {
        let (mut db, xml) = stores();
        db.insert_strs("origin", &["bolt", "de"]);
        let (i, n, o) = (Term::var("i"), Term::var("n"), Term::var("o"));
        let queries = [
            vec![nav("el", vec![i])],
            vec![nav("root", vec![i]), nav("desc", vec![i, n]), nav("text", vec![n, o])],
            vec![nav("text", vec![i, n]), Atom::named("origin", vec![n, o])],
            vec![Atom::named("origin", vec![n, o])],
        ];
        let router = BackendRouter::new(&db, &xml);
        let mut agreed = Vec::new();
        for body in queries {
            let q = ConjunctiveQuery::new("Q").with_head(vec![n]).with_body(body);
            let auto = router.plan(&q).decision;
            for route in [Route::Relational, Route::Xml, Route::Mixed] {
                let forced = router.plan_forced(&q, route).decision;
                let nav = (route != Route::Relational).then_some(&xml as _);
                let priced = mars_cost::physical_plan(&q, &db, nav);
                assert_eq!(forced.tree.as_deref(), Some(&priced), "{q} forced {route}");
                assert_eq!(forced.costs, auto.costs, "{q} forced {route}");
                if forced.route == auto.route {
                    assert_eq!(forced.tree, auto.tree, "{q} forced {route}");
                    agreed.push(forced.route);
                }
            }
        }
        for route in [Route::Relational, Route::Xml, Route::Mixed] {
            assert!(agreed.contains(&route), "forced and automatic agree on {route}");
        }
    }

    /// A document that vanishes between planning and execution surfaces the
    /// typed store error, not an empty result.
    #[test]
    fn vanished_documents_error_at_execution() {
        let (db, xml) = stores();
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_body(vec![nav("el", vec![Term::var("x")])]);
        let plan = BackendRouter::new(&db, &xml).plan_forced(&q, Route::Xml);
        let empty = XmlStore::new();
        let err = BackendRouter::new(&db, &empty).execute(&plan).unwrap_err();
        assert_eq!(err, XmlStoreError::MissingDocument { document: "shop.xml".to_string() });
    }

    /// Unsafe head variables evaluate to themselves on every route, matching
    /// the naive evaluator's convention.
    #[test]
    fn unsafe_head_variables_agree_across_routes() {
        let (db, xml) = stores();
        let router = BackendRouter::new(&db, &xml);
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x"), Term::var("ghost"), Term::constant_str("lit")])
            .with_body(vec![nav("root", vec![Term::var("x")])]);
        let reference = db.query(&q);
        let native = router.execute(&router.plan_forced(&q, Route::Xml)).unwrap();
        assert_eq!(native.rows, reference);
        assert_eq!(native.rows[0][1], Term::var("ghost"));
    }

    /// The shapes the typed compiler has to special-case — repeated
    /// variables, constants in node positions, one variable used as a node
    /// and as a value, two documents — against the relational oracle. A
    /// node is a typed constant: a text spelled like one is a string and
    /// joins with no node.
    #[test]
    fn kernel_agrees_with_the_encoding_on_awkward_bodies() {
        let (mut db, mut xml) = stores();
        // A second document whose text values name nodes of the first.
        let refs = parse_document(
            "refs.xml",
            r#"<refs><ref kind="kind">shop.xml/n1</ref><ref kind="x">shop.xml/n999</ref></refs>"#,
        )
        .unwrap();
        db.load_facts(&encode_document(&refs));
        xml.add_document(refs);
        let router = BackendRouter::new(&db, &xml);
        let other = |base: &str, args: Vec<Term>| Atom::named(&format!("{base}#refs.xml"), args);
        let (x, y, z) = (Term::var("x"), Term::var("y"), Term::var("z"));
        let n1 = node_constant("shop.xml", NodeId(1));
        // Slot 3 of shop.xml is a text node, which no element constant names.
        assert_eq!(xml.document("shop.xml").unwrap().node(NodeId(3)).text_value(), Some("bolt"));
        let text_slot = node_constant("shop.xml", NodeId(3));
        let bodies: Vec<Vec<Atom>> = vec![
            vec![nav("child", vec![x, x])],
            vec![nav("desc", vec![x, x])],
            vec![nav("id", vec![x, x])],
            vec![nav("tag", vec![x, Term::constant_str("item")]), nav("id", vec![x, y])],
            vec![nav("desc", vec![n1, x]), nav("tag", vec![x, y])],
            vec![nav("child", vec![x, n1]), nav("desc", vec![y, n1])],
            vec![nav("el", vec![node_constant("shop.xml", NodeId(999))]), nav("el", vec![x])],
            vec![nav("el", vec![text_slot]), nav("el", vec![x])],
            vec![nav("child", vec![x, text_slot])],
            vec![nav("text", vec![x, Term::constant_int(3)])],
            // `y` is a text value of refs.xml and a node of shop.xml.
            vec![other("text", vec![x, y]), nav("child", vec![y, z])],
            vec![nav("child", vec![y, z]), other("text", vec![x, y])],
            vec![other("text", vec![x, y]), nav("el", vec![y]), nav("tag", vec![y, z])],
            // The same variable as a node of two documents never joins.
            vec![nav("el", vec![x]), other("el", vec![x])],
            vec![other("attr", vec![x, y, y])],
            vec![other("attr", vec![x, Term::constant_str("kind"), y]), other("text", vec![x, z])],
            vec![other("tag", vec![x, y]), other("tag", vec![z, y]), other("root", vec![z])],
        ];
        for body in bodies {
            let q = ConjunctiveQuery::new("Q").with_head(vec![x, y, z]).with_body(body);
            let native = router.execute(&router.plan_forced(&q, Route::Xml)).unwrap();
            assert_eq!(native.route, Route::Xml);
            assert_eq!(native.rows, db.query(&q), "{q}");
        }
        // refs.xml's first text prints as node 1 of shop.xml does, yet it is
        // that node on neither route; the node itself is an element.
        let spelled = Term::constant_str("shop.xml/n1");
        assert_eq!(spelled.to_string(), n1.to_string());
        for (node, rows) in [(spelled, 0), (n1, 1)] {
            let q = ConjunctiveQuery::new("Q")
                .with_head(vec![x])
                .with_body(vec![nav("el", vec![x]), nav("id", vec![x, node])]);
            let native = router.execute(&router.plan_forced(&q, Route::Xml)).unwrap().rows;
            assert_eq!((native.len(), db.query(&q)), (rows, native), "{q}");
        }
    }

    /// A hand-built plan that sends a relational atom down the XML route is
    /// a typed error (it used to panic in the interpreter).
    #[test]
    fn relational_atoms_on_the_xml_route_are_a_typed_error() {
        let (mut db, xml) = stores();
        db.insert_strs("origin", &["bolt", "de"]);
        let router = BackendRouter::new(&db, &xml);
        let q = ConjunctiveQuery::new("Q").with_head(vec![Term::var("n")]).with_body(vec![
            nav("text", vec![Term::var("i"), Term::var("n")]),
            Atom::named("origin", vec![Term::var("n"), Term::var("o")]),
        ]);
        let mut plan = router.plan(&q);
        plan.decision.route = Route::Xml;
        let err = router.execute(&plan).unwrap_err();
        assert_eq!(err, XmlStoreError::NotNavigable { predicate: q.body[1].predicate });
        assert!(err.to_string().contains("origin"));
    }

    /// So is an atom that only looks like navigation: an unknown base, or a
    /// known base at the wrong arity.
    #[test]
    fn unknown_bases_and_arities_are_a_typed_error() {
        let (db, xml) = stores();
        let router = BackendRouter::new(&db, &xml);
        for atom in [
            nav("sibling", vec![Term::var("x"), Term::var("y")]),
            nav("root", vec![Term::var("x"), Term::var("y")]),
            nav("attr", vec![Term::var("x"), Term::var("y"), Term::var("z"), Term::var("w")]),
        ] {
            let q = ConjunctiveQuery::new("Q")
                .with_head(vec![Term::var("x")])
                .with_body(vec![nav("el", vec![Term::var("x")]), atom.clone()]);
            let mut plan = router.plan(&q);
            assert!(plan.decision.costs.xml.is_none(), "not navigation: {atom}");
            plan.decision.route = Route::Xml;
            let err = router.execute(&plan).unwrap_err();
            assert_eq!(err, XmlStoreError::NotNavigable { predicate: atom.predicate });
        }
    }

    /// Router and store hold no thread-bound state: the navigation indexes
    /// live in the store behind `OnceLock`s.
    #[test]
    fn router_and_store_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<BackendRouter<'_>>();
        assert_sync::<XmlStore>();
    }

    /// Replacing a document replaces its index with it, and a cloned store
    /// answers like the original.
    #[test]
    fn replaced_documents_drop_their_index() {
        let (db, mut xml) = stores();
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("t")])
            .with_body(vec![nav("text", vec![Term::var("n"), Term::var("t")])]);
        let texts = |xml: &XmlStore| {
            let router = BackendRouter::new(&db, xml);
            let rows = router.execute(&router.plan_forced(&q, Route::Xml)).unwrap().rows;
            rows.into_iter().map(|r| r[0].to_string()).collect::<Vec<_>>()
        };
        let before = texts(&xml);
        assert!(before.contains(&"\"bolt\"".to_string()));
        assert_eq!(texts(&xml.clone()), before, "a clone answers identically");

        let replacement: Document =
            parse_document("shop.xml", "<shop><item><name>rivet</name></item></shop>").unwrap();
        xml.add_document(replacement);
        assert_eq!(texts(&xml), vec!["\"rivet\"".to_string()], "the old index is gone");
        assert_eq!(texts(&xml.clone()), texts(&xml));
    }
}
