//! The one adapter between `marsbench` and the product crates: every call
//! into `mars*` is in this file, and nothing else in `benchmark/` imports
//! them. The functions called here are the surface listed in the README.
//!
//! It holds the **publish driver** — XQuery text in, serialized XML out,
//! built only from public functions — plus tenant set-up, the direct
//! evaluation the oracle compares against, and the replays that time the
//! stages hidden inside `reformulate_xbind_routed`.

use crate::trace::Probe;
use mars::{BlockReformulation, Mars, MarsOptions, MarsService};
use mars_grex::{compile_xbind, encode_document, CompileContext, ViewDef};
use mars_specialize::specialize_query;
use mars_storage::{
    materialize_view, sql_for_query, tag_results, BackendRouter, RelationalDatabase, Route,
    RoutedPlan, Row, Value, XmlStore,
};
use mars_workloads::scenarios::Scenario;
use mars_workloads::star::StarConfig;
use mars_workloads::{example11, xmark};
use mars_xml::Document;
use mars_xquery::{
    decorrelate, parse_xquery, shape_of, DecorrelatedQuery, TemplateNode, XBindAtom,
};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// Which backend executed a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKind {
    Relational,
    Xml,
    Mixed,
}

impl From<Route> for RouteKind {
    fn from(r: Route) -> RouteKind {
        match r {
            Route::Relational => RouteKind::Relational,
            Route::Xml => RouteKind::Xml,
            Route::Mixed => RouteKind::Mixed,
        }
    }
}

/// One correspondence and the size of the storage behind it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenantSpec {
    /// `StarConfig { nc, nv, proprietary_includes_document: true }`.
    Star {
        nc: usize,
        nv: usize,
        hubs: usize,
        corner: usize,
    },
    /// A redundancy-0 point of `Scenario::matrix()`, by its stable name.
    Scenario {
        name: &'static str,
        scale: usize,
    },
    Xmark {
        people: usize,
        items: usize,
        auctions: usize,
    },
    Example11 {
        patients: usize,
    },
}

fn star_config(nc: usize, nv: usize) -> StarConfig {
    StarConfig { nc, nv, proprietary_includes_document: true }
}

fn scenario(name: &str) -> Scenario {
    let s = Scenario::matrix()
        .into_iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"));
    assert_eq!(s.redundancy, 0, "only view-less scenarios are set up here");
    s
}

impl TenantSpec {
    /// The document unqualified absolute paths navigate.
    fn default_document(&self) -> String {
        match *self {
            TenantSpec::Star { nc, nv, .. } => star_config(nc, nv).document(),
            TenantSpec::Scenario { name, .. } => scenario(name).document(),
            TenantSpec::Xmark { .. } => xmark::AUCTION.to_string(),
            TenantSpec::Example11 { .. } => example11::names::CASE.to_string(),
        }
    }
}

/// A tenant's populated storage.
pub struct Store {
    spec: TenantSpec,
    xml: XmlStore,
    db: RelationalDatabase,
}

/// Put `doc` into both stores (native, and as ground GReX facts so that
/// navigation atoms also execute relationally — what `Scenario::populate`
/// does), then materialize `views` from it.
fn load<P: Probe>(doc: Document, views: &[ViewDef], p: &mut P) -> (XmlStore, RelationalDatabase) {
    let mut xml = XmlStore::new();
    let mut db = RelationalDatabase::new();
    let facts = p.time("grex.encode_document", || encode_document(&doc));
    p.time("storage.load_facts", || db.load_facts(&facts));
    xml.add_document(doc);
    p.time("storage.materialize_views", || {
        for v in views {
            materialize_view(v, &mut xml, &mut db).expect("views navigate the document just added");
        }
    });
    (xml, db)
}

/// Generate a tenant's documents from `seed` and populate its storage the
/// way the `mars-workloads` `populate` functions do, one timed step each.
pub fn build_store<P: Probe>(spec: &TenantSpec, seed: u64, p: &mut P) -> Store {
    const GENERATE: &str = "workloads.generate";
    let (xml, db) = match *spec {
        TenantSpec::Star { nc, nv, hubs, corner } => {
            let cfg = star_config(nc, nv);
            let doc = p.time(GENERATE, || cfg.generate_document(hubs, corner, seed));
            let mut views: Vec<ViewDef> = (1..=cfg.nv).map(|l| cfg.view(l)).collect();
            views.extend(cfg.specializations().iter().map(|m| m.definition_view()));
            load(doc, &views, p)
        }
        TenantSpec::Scenario { name, scale } => {
            let scenario = scenario(name);
            let doc = p.time(GENERATE, || scenario.generate_document(scale, seed));
            load(doc, &scenario.views(), p)
        }
        TenantSpec::Xmark { people, items, auctions } => {
            let doc = p.time(GENERATE, || xmark::generate_document(people, items, auctions, seed));
            let mut views = xmark::correspondence().lav_views;
            views.extend(xmark::specializations().iter().map(|m| m.definition_view()));
            load(doc, &views, p)
        }
        // Example 1.1 has no seeded generator and populates in one call.
        TenantSpec::Example11 { patients } => p.time(GENERATE, || example11::populate(patients)),
    };
    p.count("storage.facts_loaded", db.len() as u64);
    Store { spec: spec.clone(), xml, db }
}

/// Compile the correspondence with the options the `mars-workloads`
/// constructors set (`MarsOptions::default()` / `specialized()` only).
fn build_system<P: Probe>(spec: &TenantSpec, p: &mut P) -> Mars {
    p.time("mars.compile_correspondence", || match *spec {
        TenantSpec::Star { nc, nv, .. } => star_config(nc, nv).mars(MarsOptions::specialized()),
        TenantSpec::Scenario { name, .. } => scenario(name).mars(),
        TenantSpec::Xmark { .. } => xmark::mars(true),
        TenantSpec::Example11 { .. } => example11::mars(),
    })
}

/// Plan-cache and request-outcome counters of a tenant, summed over every
/// service it has had.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub degraded_uncached: u64,
    pub entries: u64,
    pub served: u64,
    pub degraded: u64,
    pub shed: u64,
    pub panicked: u64,
}

impl ServiceCounters {
    fn zip(self, o: ServiceCounters, f: impl Fn(u64, u64) -> u64) -> ServiceCounters {
        ServiceCounters {
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            invalidations: f(self.invalidations, o.invalidations),
            degraded_uncached: f(self.degraded_uncached, o.degraded_uncached),
            entries: f(self.entries, o.entries),
            served: f(self.served, o.served),
            degraded: f(self.degraded, o.degraded),
            shed: f(self.shed, o.shed),
            panicked: f(self.panicked, o.panicked),
        }
    }

    pub fn plus(self, o: ServiceCounters) -> ServiceCounters {
        self.zip(o, |a, b| a + b)
    }

    /// What happened since `earlier`; `entries` stays the current count.
    pub fn since(self, earlier: ServiceCounters) -> ServiceCounters {
        ServiceCounters { entries: self.entries, ..self.zip(earlier, |a, b| a - b.min(a)) }
    }
}

/// Process-wide engine counters: dependency-set compilations and chase
/// column-index builds.
pub fn engine_counters() -> (u64, u64) {
    (mars_chase::compilation_count() as u64, mars_chase::index_build_count() as u64)
}

/// One correspondence with its storage, one resident `MarsService` and one
/// resident `BackendRouter`.
pub struct Tenant<'s> {
    store: &'s Store,
    service: MarsService,
    router: BackendRouter<'s>,
    default_document: String,
    /// Constants `shape_of` keeps literal; only the shape replay reads it.
    reserved: HashSet<String>,
    /// Counters of services this tenant no longer has.
    retired: ServiceCounters,
    executed: Cell<bool>,
}

impl<'s> Tenant<'s> {
    pub fn open<P: Probe>(store: &'s Store, p: &mut P) -> Tenant<'s> {
        let service = MarsService::new(build_system(&store.spec, p));
        Tenant {
            store,
            reserved: if P::ON { service.mars().reserved_constants() } else { HashSet::new() },
            service,
            router: BackendRouter::new(&store.db, &store.xml),
            default_document: store.spec.default_document(),
            retired: ServiceCounters::default(),
            executed: Cell::new(false),
        }
    }

    fn live_counters(&self) -> ServiceCounters {
        let c = self.service.cache_stats();
        let s = self.service.service_stats();
        ServiceCounters {
            hits: c.hits,
            misses: c.misses,
            invalidations: c.invalidations,
            degraded_uncached: c.degraded_uncached,
            entries: c.entries as u64,
            served: s.served,
            degraded: s.degraded,
            shed: s.shed,
            panicked: s.panicked,
        }
    }

    pub fn counters(&self) -> ServiceCounters {
        self.retired.plus(self.live_counters())
    }

    /// The DBA's tuning event: swap in a system rebuilt from `spec` (same
    /// storage, different correspondence), which strands every cached plan.
    pub fn retune<P: Probe>(&mut self, spec: &TenantSpec, p: &mut P) {
        let mars = build_system(spec, p);
        p.time("mars.replace", || self.service.replace(mars));
        if P::ON {
            self.reserved = self.service.mars().reserved_constants();
        }
    }

    /// Start over with an empty plan cache.
    pub fn fresh_service<P: Probe>(&mut self, p: &mut P) {
        let mut retired = self.retired.plus(self.live_counters());
        retired.entries = 0;
        self.retired = retired;
        self.service = MarsService::new(build_system(&self.store.spec, p));
    }
}

/// What one block of a publish went through.
struct BlockRun {
    index: usize,
    reformulation: BlockReformulation,
    cold: bool,
    route: RouteKind,
    actual_rows: usize,
    reformulate_span: usize,
    execute_span: usize,
}

/// The outcome of one publish.
pub struct Published {
    /// The serialized result document.
    pub xml: String,
    /// Rows the backends returned, over all blocks.
    pub rows: usize,
    /// The route of the last block executed.
    pub route: RouteKind,
    // Kept for `replay_hidden_stages`; the caller drops them off the clock.
    query: DecorrelatedQuery,
    blocks: Vec<BlockRun>,
}

fn template_variables(nodes: &[TemplateNode], out: &mut HashSet<String>) {
    for n in nodes {
        match n {
            TemplateNode::VarText { var, .. } => {
                out.insert(var.clone());
            }
            TemplateNode::Element { children, .. } | TemplateNode::ForEach { children, .. } => {
                template_variables(children, out);
            }
            TemplateNode::Literal(_) => {}
        }
    }
}

/// Keep in each block head only what assembling the result needs.
///
/// `decorrelate` exports every `for` variable, node-valued ones included; no
/// view can return a node of the public document, so with them in the head
/// the backchase can never drop the navigation that binds them. A head
/// variable stays when the tagging template prints it or the block imported
/// it from its parent (the correlation key). A block another block refers to
/// is left alone: its head is that block's import list.
pub fn project_heads(query: &mut DecorrelatedQuery) {
    let mut printed = HashSet::new();
    template_variables(&query.template.roots, &mut printed);
    let referenced: HashSet<String> = query
        .blocks
        .iter()
        .flat_map(|b| &b.atoms)
        .filter_map(|a| match a {
            XBindAtom::QueryRef { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    for block in &mut query.blocks {
        if referenced.contains(&block.name) {
            continue;
        }
        let imported: HashSet<&String> = block
            .atoms
            .iter()
            .filter_map(|a| match a {
                XBindAtom::QueryRef { vars, .. } => Some(vars),
                _ => None,
            })
            .flatten()
            .collect();
        let keep: Vec<String> = block
            .head
            .iter()
            .filter(|v| printed.contains(*v) || imported.contains(v))
            .cloned()
            .collect();
        block.head = keep;
    }
}

/// Name the columns of the rows a backend returned: one binding map per row,
/// the form `tag_results` takes.
pub fn bind_rows(head: &[String], rows: &[Row]) -> Vec<HashMap<String, Value>> {
    rows.iter()
        .map(|row| {
            head.iter()
                .zip(row)
                .map(|(name, term)| {
                    let text = match term.as_const() {
                        Some(c) => c.render(),
                        None => term.to_string(),
                    };
                    (name.clone(), Value::Str(text))
                })
                .collect()
        })
        .collect()
}

/// The unit of work: `publish(tenant, xquery_text)`.
///
/// parse → decorrelate → project heads → per block: reformulate through the
/// resident service (routed) → execute on the resident router → bind rows →
/// tag → serialize. Spans open and close around each call; with tracing off
/// the hooks compile to nothing.
pub fn publish<P: Probe>(tenant: &Tenant<'_>, text: &str, p: &mut P) -> Result<Published, String> {
    let root = p.begin("publish");
    let out = publish_steps(tenant, text, p);
    p.end(root);
    out
}

fn publish_steps<P: Probe>(
    tenant: &Tenant<'_>,
    text: &str,
    p: &mut P,
) -> Result<Published, String> {
    let (db, xml) = (&tenant.store.db, &tenant.store.xml);

    let ast = p.time("xquery.parse", || parse_xquery(text)).map_err(|e| format!("parse: {e}"))?;
    let mut query = p.time("xquery.decorrelate", || decorrelate(&ast, &tenant.default_document));
    p.time("driver.project_heads", || project_heads(&mut query));

    let mut bindings: HashMap<String, Vec<HashMap<String, Value>>> = HashMap::new();
    let mut blocks = Vec::new();
    let mut rows = 0;
    let mut route = RouteKind::Relational;
    for (index, block) in query.blocks.iter().enumerate() {
        if block.atoms.is_empty() {
            continue;
        }
        let misses = if P::ON { tenant.service.cache_stats().misses } else { 0 };
        let reformulate_span = p.begin("mars.warm_reformulate");
        let reformulation = tenant.service.reformulate_xbind_routed(block, db, xml);
        p.end(reformulate_span);
        let reformulation = reformulation.map_err(|e| format!("reformulate: {e}"))?;
        let cold = P::ON && tenant.service.cache_stats().misses > misses;
        if cold {
            p.rename(reformulate_span, "mars.cold_reformulate");
            report_chase_and_backchase(&reformulation, reformulate_span, p);
        }
        if let Some(why) = reformulation.degradation() {
            return Err(format!("degraded, {}: {why:?}", block.name));
        }
        let plan = match (reformulation.result.best_or_initial(), &reformulation.route) {
            (Some(best), Some(decision)) => {
                RoutedPlan { query: best.clone(), decision: decision.clone() }
            }
            _ => return Err(format!("no executable plan for block {}", block.name)),
        };

        let execute_span = p.begin(if tenant.executed.replace(true) {
            match plan.decision.route {
                Route::Relational => "storage.exec_relational",
                Route::Xml => "storage.exec_xml",
                Route::Mixed => "storage.exec_mixed",
            }
        } else {
            "storage.first_exec"
        });
        let executed = tenant.router.execute(&plan);
        p.end(execute_span);
        let executed = executed.map_err(|e| format!("execute: {e}"))?;

        let bound = p.time("driver.bind_rows", || bind_rows(&block.head, &executed.rows));

        rows += executed.rows.len();
        route = executed.route.into();
        bindings.insert(block.name.clone(), bound);
        blocks.push(BlockRun {
            index,
            reformulation,
            cold,
            route,
            actual_rows: executed.rows.len(),
            reformulate_span,
            execute_span,
        });
    }

    let document = p.time("storage.tag", || tag_results(&query, &bindings, xml, "result.xml"));
    let text = p.time("xml.serialize", || document.to_xml());
    // Freeing the binding tables and the result tree is part of serving the
    // request; it gets its own span instead of hiding in the root's self time.
    p.time("driver.release", || drop((document, bindings)));

    if P::ON {
        p.count("storage.rows_out", rows as u64);
        p.count("xml.result_bytes", text.len() as u64);
        for b in &blocks {
            p.count(
                match b.route {
                    RouteKind::Relational => "storage.route_relational",
                    RouteKind::Xml => "storage.route_xml",
                    RouteKind::Mixed => "storage.route_mixed",
                },
                1,
            );
        }
    }
    Ok(Published { xml: text, rows, route, query, blocks })
}

/// Children of a cold `mars.reformulate` that cannot be timed from outside:
/// synthesized from the durations and counts the call returns.
fn report_chase_and_backchase<P: Probe>(block: &BlockReformulation, parent: usize, p: &mut P) {
    let st = &block.result.stats;
    let initial = p.reported(parent, "chase.initial", Duration::ZERO, st.time_to_initial);
    p.reported(initial, "chase.universal_plan", Duration::ZERO, st.time_to_universal_plan);
    let backchase =
        p.reported(parent, "backchase.total", st.time_to_initial, st.backchase_duration);
    let mut offset = Duration::ZERO;
    for (name, length) in [
        ("backchase.cost", st.backchase_cost_phase),
        ("backchase.chase", st.backchase_chase_phase),
        ("backchase.containment", st.backchase_containment_phase),
    ] {
        p.reported(backchase, name, offset, length);
        offset += length;
    }
    for (name, n) in [
        ("chase.universal_plan_atoms", st.universal_plan_atoms),
        ("chase.rounds", st.chase.rounds),
        ("chase.applied_steps", st.chase.applied_steps),
        ("backchase.candidates_inspected", st.candidates_inspected),
        ("backchase.equivalence_checks", st.equivalence_checks),
        ("backchase.chase_cache_hits", st.chase_cache_hits),
        ("backchase.dead_cone_skips", st.containment_dead_cone_skips),
        ("backchase.success_transfers", st.containment_success_transfers),
        ("backchase.delta_searches", st.containment_delta_searches),
        ("backchase.minimal_found", block.result.minimal.len()),
    ] {
        p.count(name, n as u64);
    }
}

/// Run a hidden stage again on the request's inputs and time it. It runs
/// twice and the second call is timed: the first absorbs what the request's
/// release left in the allocator, which would otherwise be billed to
/// whichever stage is replayed first.
fn replayed<P: Probe, T>(
    p: &mut P,
    parent: usize,
    name: &'static str,
    mut stage: impl FnMut() -> T,
) -> T {
    drop(stage());
    let s = p.replay(parent, name);
    let out = stage();
    p.end(s);
    out
}

/// Time the cheap stages hidden inside the facade by calling them directly
/// on the inputs the request used, after its clock stopped. Traced run only.
pub fn replay_hidden_stages<P: Probe>(tenant: &Tenant<'_>, published: &Published, p: &mut P) {
    let (db, xml) = (&tenant.store.db, &tenant.store.xml);
    let specializations = &tenant.service.mars().correspondence().specializations;
    // Only the star and XMark constructors turn specialization on.
    let specialized =
        matches!(tenant.store.spec, TenantSpec::Star { .. } | TenantSpec::Xmark { .. });
    for run in &published.blocks {
        let block = &published.query.blocks[run.index];
        let parent = run.reformulate_span;

        replayed(p, parent, "xquery.shape", || shape_of(block, &tenant.reserved));
        let effective = if specialized {
            replayed(p, parent, "specialize.rewrite", || specialize_query(block, specializations))
        } else {
            block.clone()
        };
        replayed(p, parent, "grex.compile", || {
            compile_xbind(&mut CompileContext::new(), &effective)
        });
        p.count("grex.compiled_atoms", run.reformulation.compiled.body.len() as u64);

        let Some(best) = run.reformulation.result.best_or_initial() else { continue };
        replayed(p, parent, "storage.render_sql", || sql_for_query(best).ok());
        // A warm hit replays the cached decision; only a miss prices routes.
        if run.cold {
            replayed(p, parent, "cost.route", || mars_cost::route_query(best, db, xml));
        }
        if run.route == RouteKind::Relational && !best.body.is_empty() {
            let plan = replayed(p, run.execute_span, "cost.plan", || db.plan(best));
            let (estimated, actual) = (plan.est_rows(), run.actual_rows as f64);
            p.sample("cost.q_error", estimated.max(actual) / estimated.min(actual).max(1.0));
        }
    }
}

/// The oracle's reference: evaluate the **unprojected** decorrelated blocks
/// directly over the public documents with the naive engine, then tag and
/// serialize. Cross-product-bound, so for small stores only.
pub fn publish_direct(store: &Store, text: &str) -> Result<String, String> {
    let ast = parse_xquery(text).map_err(|e| e.to_string())?;
    let query = decorrelate(&ast, &store.spec.default_document());
    let bindings = store.xml.eval_blocks(&query.blocks).map_err(|e| e.to_string())?;
    Ok(tag_results(&query, &bindings, &store.xml, "result.xml").to_xml())
}

/// For every `element` of `document`, in document order, the text of its
/// first `leaf` child — what the request generator derives expectations from.
pub fn leaf_texts(store: &Store, document: &str, element: &str, leaf: &str) -> Vec<String> {
    let doc = store.xml.document(document).unwrap_or_else(|| panic!("no document {document}"));
    doc.all_nodes()
        .filter(|id| doc.node(*id).tag() == Some(element))
        .map(|id| {
            doc.children_with_tag(id, leaf).next().map(|c| doc.text_of(c)).unwrap_or_default()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::root_children;
    use crate::templates::{render, star_subsets, Filter, Shape};
    use crate::trace::Off;
    use mars_xquery::XBindQuery;
    use std::collections::BTreeSet;

    fn decorrelated(text: &str, document: &str) -> DecorrelatedQuery {
        decorrelate(&parse_xquery(text).expect("template parses"), document)
    }

    #[test]
    fn project_heads_keeps_only_printed_variables_of_a_flat_query() {
        let mut q = decorrelated(&render(&Shape::Star(vec![1, 3]), &Filter::None), "star.xml");
        assert_eq!(q.blocks[0].head, ["r", "k", "a1", "s1", "sa1", "b1", "a3", "s3", "sa3", "b3"]);
        project_heads(&mut q);
        assert_eq!(q.blocks[0].head, ["k", "b1", "b3"]);
        assert!(q.blocks[0].is_safe());
    }

    #[test]
    fn project_heads_keeps_correlation_keys_of_nested_blocks() {
        let mut q = decorrelated(
            "<result> for $a in distinct(//author/text()) return <item><writer>$a</writer> \
             {for $b in //book $a1 in $b/author/text() $t in $b/title/text() where $a = $a1 \
             return <title>$t</title>} </item> </result>",
            "books.xml",
        );
        project_heads(&mut q);
        // The outer block is imported by the inner one: untouched.
        assert_eq!(q.blocks[0].head, ["a"]);
        // The inner block keeps its import `a` and the printed `t`.
        assert_eq!(q.blocks[1].head, ["a", "t"]);
    }

    #[test]
    fn bind_rows_names_columns_and_renders_constants() {
        use mars_cq::Term;
        let head = vec!["k".to_string(), "b".to_string()];
        let rows: Vec<Row> = vec![
            vec![Term::constant_str("k1"), Term::constant_str("b<1>")],
            vec![Term::constant_str("k2"), Term::constant_int(7)],
        ];
        let bound = bind_rows(&head, &rows);
        assert_eq!(bound.len(), 2);
        assert_eq!(bound[0]["k"], Value::Str("k1".to_string()));
        assert_eq!(bound[0]["b"], Value::Str("b<1>".to_string()));
        assert_eq!(bound[1]["b"], Value::Str("7".to_string()));
        assert!(bind_rows(&head, &[]).is_empty());
    }

    /// Rows of `query` over `store`, through cold reformulation and the
    /// relational executor, as strings.
    fn executed_rows(
        mars: &Mars,
        store: &Store,
        query: &XBindQuery,
    ) -> (usize, BTreeSet<Vec<String>>) {
        let block = mars.reformulate_xbind(query);
        let best = block.result.best_or_initial().expect("reformulates");
        (block.result.minimal.len(), store.db.query_strings(best).into_iter().collect())
    }

    /// Drift guard: after `decorrelate` + `project_heads`, each full-width
    /// text template has the head, the number of minimal reformulations and
    /// the executed rows of the `mars-workloads` XBind query it mirrors.
    #[test]
    fn text_templates_match_the_workload_queries() {
        let star = TenantSpec::Star { nc: 3, nv: 2, hubs: 6, corner: 4 };
        let chain = TenantSpec::Scenario { name: "chain-uniform-r0", scale: 8 };
        let snowflake = TenantSpec::Scenario { name: "snowflake-skewed-r0", scale: 8 };
        let auction = TenantSpec::Xmark { people: 12, items: 8, auctions: 10 };
        let health = TenantSpec::Example11 { patients: 8 };
        let suite = xmark::query_suite();
        let cases: Vec<(&TenantSpec, Shape, XBindQuery)> = vec![
            (&star, Shape::Star(vec![1, 2, 3]), star_config(3, 2).client_query()),
            (&chain, Shape::Chain, scenario("chain-uniform-r0").client_query()),
            (
                &snowflake,
                Shape::Star(vec![1, 2, 3]),
                scenario("snowflake-skewed-r0").client_query(),
            ),
            (&auction, Shape::Xmark(1), suite[0].clone()),
            (&auction, Shape::Xmark(2), suite[1].clone()),
            (&auction, Shape::Xmark(3), suite[2].clone()),
            (&auction, Shape::Xmark(4), suite[3].clone()),
            (&health, Shape::Example11, example11::client_query()),
        ];
        for (spec, shape, reference) in cases {
            let store = build_store(spec, 3, &mut Off);
            let mars = build_system(spec, &mut Off);
            let mut q = decorrelated(&render(&shape, &Filter::None), &spec.default_document());
            project_heads(&mut q);
            assert_eq!(q.blocks.len(), 1, "{shape:?} is one block");
            assert_eq!(q.blocks[0].head, reference.head, "{shape:?}: head drifted");
            let (minimal, rows) = executed_rows(&mars, &store, &q.blocks[0]);
            let (ref_minimal, ref_rows) = executed_rows(&mars, &store, &reference);
            assert_eq!(minimal, ref_minimal, "{shape:?}: number of minimal reformulations");
            assert!(!rows.is_empty(), "{shape:?}: the guard needs rows to compare");
            assert_eq!(rows, ref_rows, "{shape:?}: executed rows drifted");
        }
    }

    /// The publish driver agrees with direct evaluation on every star
    /// subset, and a key lookup narrows it to one row.
    #[test]
    fn publish_matches_direct_evaluation() {
        let spec = TenantSpec::Star { nc: 3, nv: 2, hubs: 5, corner: 3 };
        let store = build_store(&spec, 1, &mut Off);
        let tenant = Tenant::open(&store, &mut Off);
        for corners in star_subsets(3) {
            let text = render(&Shape::Star(corners), &Filter::None);
            let published = publish(&tenant, &text, &mut Off).expect("publishes");
            assert_eq!(published.rows, 5);
            assert_eq!(published.route, RouteKind::Relational);
            let direct = publish_direct(&store, &text).expect("evaluates");
            let got: BTreeSet<&str> = root_children(&published.xml).into_iter().collect();
            let want: BTreeSet<&str> = root_children(&direct).into_iter().collect();
            assert_eq!(got.len(), 5);
            assert_eq!(got, want);
        }
        let keys = leaf_texts(&store, "star.xml", "R", "K");
        assert_eq!(keys.len(), 5);
        let text = render(&Shape::Star(vec![1, 2]), &Filter::Eq("k", keys[2].clone()));
        let one = publish(&tenant, &text, &mut Off).expect("publishes");
        assert_eq!(one.rows, 1);
        assert!(one.xml.contains(&format!("<k>{}</k>", keys[2])));
        let c = tenant.counters();
        assert_eq!((c.misses, c.hits, c.entries), (5, 0, 5));
    }
}
