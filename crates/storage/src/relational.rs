//! In-memory relational engine.
//!
//! Tables are stored as ground facts in a symbolic instance (the same
//! representation the chase uses, whose relations keep the exact counters
//! [`mars_cost::StatisticsCatalog`] reads), and
//! conjunctive queries — in particular, the relational parts of MARS
//! reformulations — execute directly against it through a cost-based
//! physical plan ([`RelationalDatabase::plan`], executed by
//! [`crate::executor`]). The historical naive evaluator survives as the
//! executor's correctness oracle ([`RelationalDatabase::query_naive`]).
//! [`sql_for_query`] renders the SQL text MARS would ship to an external
//! RDBMS.

use crate::executor::execute_plan;
use crate::xml_engine::XmlStore;
use mars_chase::{evaluate_bindings, SymbolicInstance};
use mars_cost::{physical_plan, PhysicalPlan, StatisticsCatalog};
use mars_cq::{Args, ConjunctiveQuery, NavBase, Predicate, Substitution, Term, Variable};
use mars_grex::GrexFacts;
use std::collections::BTreeSet;
use std::fmt;

/// A result row: one value per head term.
pub type Row = Vec<Term>;

/// An in-memory relational database of ground facts.
#[derive(Clone, Debug, Default)]
pub struct RelationalDatabase {
    pub(crate) inst: SymbolicInstance,
}

impl RelationalDatabase {
    /// An empty database.
    pub fn new() -> RelationalDatabase {
        RelationalDatabase::default()
    }

    /// Insert a row of string values into a relation.
    pub fn insert_strs(&mut self, relation: &str, values: &[&str]) {
        let row: Args = values.iter().map(|v| Term::constant_str(v)).collect();
        self.inst.insert(Predicate::new(relation), &row);
    }

    /// Load a document's GReX encoding, a relation at a time
    /// ([`SymbolicInstance::insert_rows`]). A document with facts
    /// [holds](StatisticsCatalog::holds) all eight GReX relations: without
    /// attributes, its `attr#d` is empty, not absent.
    pub fn load_facts(&mut self, facts: &GrexFacts) {
        if facts.is_empty() {
            return;
        }
        for base in NavBase::ALL {
            self.inst.insert_rows(facts.predicate(base), base.arity(), facts.relation(base));
        }
    }

    /// Number of stored facts.
    pub fn len(&self) -> usize {
        self.inst.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.inst.is_empty()
    }

    /// The stored facts, in the chase's instance representation: what the
    /// dependencies the chase reasons with must hold on.
    pub fn instance(&self) -> &SymbolicInstance {
        &self.inst
    }

    /// Cardinality of one relation.
    pub fn cardinality(&self, relation: &str) -> usize {
        self.inst.relation_len(Predicate::new(relation))
    }

    /// Compile `q` into a physical plan against this store's exact
    /// statistics (see [`mars_cost::physical_plan`]). The rendered plan is
    /// golden-snapshot-tested (`tests/golden/plans/`).
    ///
    /// # Panics
    ///
    /// Panics on a body-less query (nothing to scan); [`Self::query`]
    /// handles that degenerate case without planning.
    pub fn plan(&self, q: &ConjunctiveQuery) -> PhysicalPlan {
        physical_plan(q, self, None)
    }

    /// Execute a conjunctive query through its physical plan.
    ///
    /// Returns the deduplicated head rows in **ascending row order** — the
    /// engine's deterministic output contract, identical for every planner
    /// choice and for [`Self::query_naive`].
    pub fn query(&self, q: &ConjunctiveQuery) -> Vec<Row> {
        if q.body.is_empty() {
            // Nothing to scan, nothing to plan: the head itself, once, when
            // every inequality's two sides differ.
            let holds = q.inequalities.iter().all(|(a, b)| a != b);
            return if holds { vec![q.head.clone()] } else { Vec::new() };
        }
        let (rows, _) = execute_plan(&self.plan(q), q, &self.inst, &XmlStore::new())
            .expect("a plan of table scans reads no document");
        rows
    }

    /// Execute with the naive evaluator — the executor's correctness oracle
    /// (differential tests, `benches/executor.rs`): enumerate bindings with
    /// the chase's evaluator, project the head, deduplicate into ascending
    /// order. Same rows, same order as [`Self::query`].
    pub fn query_naive(&self, q: &ConjunctiveQuery) -> Vec<Row> {
        let bindings =
            evaluate_bindings(&q.body, &q.inequalities, &self.inst, &Substitution::new());
        // Rows move into the set (no per-row clone).
        let rows: BTreeSet<Row> =
            bindings.iter().map(|b| q.head.iter().map(|t| b.apply_term(*t)).collect()).collect();
        rows.into_iter().collect()
    }

    /// Execute and render the rows as strings (for tests and examples).
    pub fn query_strings(&self, q: &ConjunctiveQuery) -> Vec<Vec<String>> {
        self.query(q)
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|t| match t {
                        Term::Const(c) => c.render(),
                        Term::Var(v) => format!("?{v}"),
                    })
                    .collect()
            })
            .collect()
    }
}

/// The statistics the physical planner reads: the database keeps its facts
/// in the chase's instance representation, whose relations count their
/// tuples on insert and their per-column distincts on first read.
impl StatisticsCatalog for RelationalDatabase {
    fn holds(&self, relation: Predicate) -> bool {
        self.inst.relation_data(relation).is_some()
    }

    fn tuple_count(&self, relation: Predicate) -> usize {
        self.inst.relation_len(relation)
    }

    fn distinct_in_column(&self, relation: Predicate, col: usize) -> usize {
        self.inst.relation_data(relation).map_or(0, |r| r.distinct_in_column(col))
    }
}

/// SQL rendering failed: the query uses a variable its body never binds, so
/// there is no column to name (the engine-side evaluators handle such unsafe
/// queries; SQL cannot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SqlUnboundVariable {
    /// The variable with no binding column.
    pub variable: Variable,
    /// Where the variable occurred: `"head"` or `"inequality"`.
    pub place: &'static str,
}

impl fmt::Display for SqlUnboundVariable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot render SQL: {} variable {} is not bound by the query body",
            self.place, self.variable
        )
    }
}

impl std::error::Error for SqlUnboundVariable {}

/// A SQL string literal with embedded single quotes doubled
/// (`O'Brien` → `'O''Brien'`), so rendered constants cannot produce
/// malformed SQL.
fn sql_literal(c: &mars_cq::Constant) -> String {
    format!("'{}'", c.render().replace('\'', "''"))
}

/// Render a conjunctive query as the SQL text MARS would send to an RDBMS
/// (one alias per atom, equi-join predicates from repeated variables,
/// constant selections from constant arguments).
///
/// Errors with [`SqlUnboundVariable`] if the head or an inequality uses a
/// variable the body never binds — such unsafe queries execute on the
/// engine's evaluators but have no SQL rendering (the seed silently rendered
/// them as `NULL`).
pub fn sql_for_query(q: &ConjunctiveQuery) -> Result<String, SqlUnboundVariable> {
    let mut from = Vec::new();
    let mut wheres = Vec::new();
    let mut first_occurrence: Vec<(Variable, String)> = Vec::new();

    for (i, atom) in q.body.iter().enumerate() {
        let alias = format!("t{i}");
        from.push(format!("{} AS {alias}", atom.predicate.name().replace('#', "_")));
        for (j, arg) in atom.args.iter().enumerate() {
            let col = format!("{alias}.c{j}");
            match arg {
                Term::Const(c) => wheres.push(format!("{col} = {}", sql_literal(c))),
                Term::Var(v) => {
                    if let Some((_, prev)) = first_occurrence.iter().find(|(pv, _)| pv == v) {
                        wheres.push(format!("{col} = {prev}"));
                    } else {
                        first_occurrence.push((*v, col));
                    }
                }
            }
        }
    }
    let column = |t: &Term, place: &'static str| match t {
        Term::Const(c) => Ok(sql_literal(c)),
        Term::Var(v) => first_occurrence
            .iter()
            .find(|(pv, _)| pv == v)
            .map(|(_, c)| c.clone())
            .ok_or(SqlUnboundVariable { variable: *v, place }),
    };
    for (a, b) in &q.inequalities {
        wheres.push(format!("{} <> {}", column(a, "inequality")?, column(b, "inequality")?));
    }
    let select = q
        .head
        .iter()
        .map(|t| column(t, "head"))
        .collect::<Result<Vec<String>, SqlUnboundVariable>>()?;
    let mut sql = format!("SELECT DISTINCT {}\nFROM {}", select.join(", "), from.join(", "));
    if !wheres.is_empty() {
        sql.push_str(&format!("\nWHERE {}", wheres.join("\n  AND ")));
    }
    Ok(sql)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use mars_cq::Atom;

    fn patient_db() -> RelationalDatabase {
        // Example 1.1's proprietary tables.
        let mut db = RelationalDatabase::new();
        for (name, diag) in [("ann", "flu"), ("bob", "asthma")] {
            db.insert_strs("patientDiag", &[name, diag]);
        }
        for (name, drug, usage) in [
            ("ann", "aspirin", "daily"),
            ("bob", "inhaler", "as-needed"),
            ("ann", "vitaminC", "daily"),
        ] {
            db.insert_strs("patientDrug", &[name, drug, usage]);
        }
        db
    }

    fn case_query() -> ConjunctiveQuery {
        // CaseMap's navigation: join the two tables on the patient name and
        // project the name away.
        ConjunctiveQuery::new("Case")
            .with_head(vec![Term::var("diag"), Term::var("drug")])
            .with_body(vec![
                Atom::named("patientDiag", vec![Term::var("n"), Term::var("diag")]),
                Atom::named("patientDrug", vec![Term::var("n"), Term::var("drug"), Term::var("u")]),
            ])
    }

    #[test]
    fn join_query_over_tables() {
        let db = patient_db();
        let rows = db.query_strings(&case_query());
        assert_eq!(rows.len(), 3);
        assert!(rows.contains(&vec!["flu".to_string(), "aspirin".to_string()]));
        assert!(rows.contains(&vec!["asthma".to_string(), "inhaler".to_string()]));
    }

    #[test]
    fn constants_and_inequalities_filter_rows() {
        let db = patient_db();
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("drug")])
            .with_body(vec![Atom::named(
                "patientDrug",
                vec![Term::var("n"), Term::var("drug"), Term::constant_str("daily")],
            )])
            .with_inequality(Term::var("drug"), Term::constant_str("aspirin"));
        let rows = db.query_strings(&q);
        assert_eq!(rows, vec![vec!["vitaminC".to_string()]]);
        // The constant lands in the scan, not a separate filter.
        let plan = db.plan(&q).display(&q).to_string();
        assert!(plan.contains("pushdown=[c2='daily']"), "{plan}");
    }

    #[test]
    fn duplicate_rows_are_eliminated() {
        let db = patient_db();
        let q = ConjunctiveQuery::new("Q").with_head(vec![Term::var("n")]).with_body(vec![
            Atom::named("patientDrug", vec![Term::var("n"), Term::var("d"), Term::var("u")]),
        ]);
        assert_eq!(db.query(&q).len(), 2);
        assert_eq!(db.cardinality("patientDrug"), 3);
        assert_eq!(db.len(), 5);
        assert!(!db.is_empty());
    }

    /// Both executors return byte-identical rows in ascending order — the
    /// engine's deterministic output contract.
    #[test]
    fn physical_and_naive_executors_agree_byte_for_byte() {
        let db = patient_db();
        let q = case_query().with_inequality(Term::var("drug"), Term::constant_str("aspirin"));
        let physical = db.query(&q);
        let naive = db.query_naive(&q);
        assert_eq!(physical, naive);
        let mut sorted = physical.clone();
        sorted.sort();
        assert_eq!(physical, sorted, "rows must come back in ascending order");
    }

    /// A body-less query is answered without the oracle: its head once when
    /// every inequality's two sides differ, else nothing — what
    /// `query_naive` returns.
    #[test]
    fn a_body_less_query_is_its_head_when_its_inequalities_hold() {
        let db = patient_db();
        let (x, a) = (Term::var("x"), Term::constant_str("a"));
        let q = ConjunctiveQuery::new("Q").with_head(vec![x, a]);
        let holding = q.clone().with_inequality(x, a);
        let failing = q.clone().with_inequality(x, x);
        assert_eq!(db.query(&q), [vec![x, a]]);
        assert_eq!(db.query(&holding), [vec![x, a]]);
        assert!(db.query(&failing).is_empty());
        for q in [q, holding, failing] {
            assert_eq!(db.query(&q), db.query_naive(&q), "{q}");
        }
    }

    /// The shared statistics catalog is maintained on insert and visible
    /// through the storage layer.
    #[test]
    fn storage_implements_the_statistics_catalog() {
        let db = patient_db();
        let p = Predicate::new("patientDrug");
        assert_eq!(db.tuple_count(p), 3);
        assert_eq!(db.distinct_in_column(p, 0), 2, "ann appears twice");
        assert_eq!(db.distinct_in_column(p, 1), 3);
        assert_eq!(db.tuple_count(Predicate::new("missing")), 0);
        assert!(db.holds(p) && !db.holds(Predicate::new("missing")));
    }

    /// Loading a document's facts holds all eight of its GReX relations:
    /// one without attributes has an empty `attr#d`, not an absent one, so
    /// the relational route still answers over it, with no row.
    #[test]
    fn loaded_documents_hold_every_navigation_relation() {
        let doc = mars_xml::parse_document("plain.xml", "<a><b>x</b></a>").unwrap();
        let mut db = RelationalDatabase::new();
        db.load_facts(&mars_grex::encode_document(&doc));
        for base in NavBase::ALL {
            assert!(db.holds(base.predicate("plain.xml")), "{base:?}");
            assert!(!db.holds(base.predicate("other.xml")), "{base:?}");
        }
        let (n, k, v) = (Term::var("n"), Term::var("k"), Term::var("v"));
        let attr = Atom::new(NavBase::Attr.predicate("plain.xml"), vec![n, k, v]);
        let q = ConjunctiveQuery::new("Q").with_head(vec![n]).with_body(vec![attr]);
        let xml = crate::XmlStore::new();
        let router = crate::BackendRouter::new(&db, &xml);
        let plan = router.plan(&q);
        assert!(plan.decision.costs.relational.is_some(), "{}", plan.decision);
        assert_eq!(router.execute(&plan).unwrap().rows, Vec::<Row>::new());
    }

    /// How facts were loaded before `load_facts` took a relation at a time:
    /// each inserted alone, and the document's eight relations declared
    /// when its first fact opens a relation.
    fn load_one_at_a_time(db: &mut RelationalDatabase, facts: impl Iterator<Item = Atom>) {
        for fact in facts {
            let relations = db.inst.relation_count();
            db.inst.insert_atom(&fact);
            let opened = db.inst.relation_count() > relations;
            if let Some((_, document)) = opened.then(|| fact.navigation()).flatten() {
                NavBase::ALL.into_iter().for_each(|b| db.inst.declare(b.predicate(document)));
            }
        }
    }

    /// Loading a document's encoding a relation at a time gives the
    /// instance inserting its facts one at a time gives: every relation,
    /// declared-but-empty ones included, its rows in row order, and the
    /// fact count. The documents are the redundancy-0 scenarios at scale
    /// 50, a star NC 4 document, XMark and a hand-written one whose
    /// repeated attribute the parser keeps once; each is loaded twice, so
    /// the second load runs the dedup check on every row.
    #[test]
    fn bulk_loading_equals_one_fact_at_a_time() {
        use mars_workloads::{scenarios::Scenario, star::StarConfig, xmark};
        let mut documents: Vec<mars_xml::Document> = Scenario::matrix()
            .into_iter()
            .filter(|s| s.redundancy == 0)
            .map(|s| s.generate_document(50, 1))
            .collect();
        documents.push(StarConfig::figure5(4).generate_document(20, 5, 1));
        documents.push(xmark::generate_document(12, 10, 8, 1));
        let repeated = r#"<a k="1" k="1"><b k="2">x</b><b>y<c/>z</b><b/></a>"#;
        documents.push(mars_xml::parse_document("repeated.xml", repeated).unwrap());
        for doc in &documents {
            let facts = mars_grex::encode_document(doc);
            let (mut bulk, mut single) = (RelationalDatabase::new(), RelationalDatabase::new());
            for _ in 0..2 {
                bulk.load_facts(&facts);
                load_one_at_a_time(&mut single, facts.atoms());
                assert_eq!(bulk.len(), facts.len(), "{}", doc.name);
                assert_eq!(bulk.len(), single.len(), "{}", doc.name);
                assert_eq!(bulk.inst.relation_count(), 8, "{}", doc.name);
                assert_eq!(single.inst.relation_count(), 8, "{}", doc.name);
                for base in NavBase::ALL {
                    let p = facts.predicate(base);
                    assert!(bulk.holds(p) && single.holds(p), "{} {base:?}", doc.name);
                    assert!(bulk.inst.rows(p).eq(single.inst.rows(p)), "{} {base:?}", doc.name);
                    assert_eq!(bulk.tuple_count(p), single.tuple_count(p), "{} {base:?}", doc.name);
                }
            }
        }
    }

    #[test]
    fn sql_rendering() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("diag"), Term::var("price")])
            .with_body(vec![
                Atom::named("patientDiag", vec![Term::var("n"), Term::var("diag")]),
                Atom::named("patientDrug", vec![Term::var("n"), Term::var("drug"), Term::var("u")]),
                Atom::named("drugPrice", vec![Term::var("drug"), Term::var("price")]),
            ])
            .with_inequality(Term::var("price"), Term::constant_str("0"));
        let sql = sql_for_query(&q).unwrap();
        assert!(sql.starts_with("SELECT DISTINCT t0.c1, t2.c1"));
        assert!(sql.contains("FROM patientDiag AS t0, patientDrug AS t1, drugPrice AS t2"));
        assert!(sql.contains("t1.c0 = t0.c0"));
        assert!(sql.contains("t2.c0 = t1.c1"));
        assert!(sql.contains("<> '0'"));
    }

    #[test]
    fn grex_predicates_render_with_sanitized_names() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_body(vec![Atom::named("child#case.xml", vec![Term::var("p"), Term::var("x")])]);
        let sql = sql_for_query(&q).unwrap();
        assert!(sql.contains("child_case.xml AS t0"));
    }

    /// Unbound head/inequality variables are a rendering error, not `NULL`.
    #[test]
    fn unbound_variables_are_a_sql_error() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("ghost")])
            .with_body(vec![Atom::named("r", vec![Term::var("x")])]);
        let err = sql_for_query(&q).unwrap_err();
        assert_eq!(err.place, "head");
        assert_eq!(err.variable, Variable::named("ghost"));
        assert!(err.to_string().contains("not bound"));

        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_body(vec![Atom::named("r", vec![Term::var("x")])])
            .with_inequality(Term::var("x"), Term::var("ghost"));
        assert_eq!(sql_for_query(&q).unwrap_err().place, "inequality");
    }

    /// Single quotes in constants are doubled, SQL's escape for literals.
    #[test]
    fn quotes_in_constants_are_escaped() {
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::constant_str("O'Brien")])
            .with_body(vec![Atom::named(
                "person",
                vec![Term::constant_str("O'Brien"), Term::var("x")],
            )])
            .with_inequality(Term::var("x"), Term::constant_str("it's"));
        let sql = sql_for_query(&q).unwrap();
        assert!(sql.contains("SELECT DISTINCT 'O''Brien'"), "{sql}");
        assert!(sql.contains("t0.c0 = 'O''Brien'"), "{sql}");
        assert!(sql.contains("<> 'it''s'"), "{sql}");
    }
}
