//! Statistics-driven backend routing for reformulated query blocks.
//!
//! The backchase picks the cheapest *reformulation*; this module picks where
//! it runs. A minimal reformulation over GReX navigation predicates is one
//! [`PhysicalPlan`] tree whose leaves say which store serves them, and
//! [`route_query`] prices exactly two trees with
//! [`PhysicalPlan::estimated_cost`] against a [`StatisticsCatalog`] (the
//! relational side) and a [`NavigationStatistics`] source (the XML side):
//!
//! * every atom a `TableScan` over the loaded facts and materialized views;
//! * the atoms over stored documents one `NavScan`, run by native
//!   navigation, and the rest `TableScan`s joined with it.
//!
//! The cheaper tree's leaves name the [`Route`]: only table scans is
//! **relational**, only a navigation scan is **xml**, both is **mixed**. The
//! decision keeps that tree ([`RoutingDecision::tree`]), the one the
//! executor runs: it names the query's terms by position, so it serves
//! every query of the priced query's shape. [`route_forced`] keeps the tree
//! of a requested route instead.
//! The decision is **advisory by construction**: every feasible route
//! returns byte-identical rows (property-tested in `mars-storage`'s router
//! and in `tests/property_based.rs`), so a bad estimate costs time, never
//! correctness. Feasibility is not an estimate: a tree that scans a
//! relation the relational store does not hold ([`unheld_relation`]) — a
//! document's encoding never loaded, a view never materialized — cannot
//! answer, and is chosen only when no tree can, for its execution to fail.
//! Decisions render stably and are golden-snapshotted under
//! `tests/golden/routes/`.

use crate::physical::{physical_plan, NavScan, PhysicalPlan};
use crate::stats::StatisticsCatalog;
use mars_cq::{Atom, ConjunctiveQuery, Constant, NavBase, Term, Variable};
use std::fmt;
use std::sync::Arc;

/// The navigation counters of one stored document. Every count refers to
/// the document's *GReX encoding*, so it prices exactly the tuples native
/// navigation enumerates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NavStats {
    /// Element nodes (the `el#d` cardinality).
    pub elements: usize,
    /// Descendant-or-self pairs (the `desc#d` cardinality; reflexive).
    pub descendant_pairs: usize,
    /// Elements with non-empty direct text (the `text#d` cardinality).
    pub texts: usize,
    /// Distinct direct-text values (`texts / distinct_texts` is the expected
    /// bucket of a value probe whose value is a bound variable).
    pub distinct_texts: usize,
    /// Attribute entries across all elements (the `attr#d` cardinality).
    pub attributes: usize,
}

/// The statistics the XML side of the router reads (implemented by
/// `mars_storage::XmlStore`, which serves each in O(1) from its resident
/// per-document index — the planner reads them on the request path): one
/// [`NavStats`] record per document, and the two bucket probes a constant
/// `tag` or `text` argument is priced by.
pub trait NavigationStatistics {
    /// The counters of `document`; `None` when it is not stored (navigation
    /// atoms over an absent document make a route infeasible).
    fn stats(&self, document: &str) -> Option<NavStats>;
    /// Elements with tag `tag` (the exact bucket of `tag#d(n, 'tag')`).
    fn tag_count(&self, document: &str, tag: Constant) -> usize;
    /// Elements whose direct text is `value` (the exact bucket of
    /// `text#d(n, 'value')`).
    fn text_value_count(&self, document: &str, value: Constant) -> usize;
}

/// Which stores serve a plan's leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Route {
    /// Table scans only: loaded facts and views.
    Relational,
    /// A navigation scan only: native navigation of the stored documents.
    Xml,
    /// Both, joined.
    Mixed,
}

impl Route {
    /// The route `plan`'s leaves describe.
    pub fn of(plan: &PhysicalPlan) -> Route {
        match (plan.nav_scan(), plan.leaf_count()) {
            (None, _) => Route::Relational,
            (Some(_), 1) => Route::Xml,
            (Some(_), _) => Route::Mixed,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Route::Relational => write!(f, "relational"),
            Route::Xml => write!(f, "xml"),
            Route::Mixed => write!(f, "mixed"),
        }
    }
}

/// The estimated cost of each route for one query (`None` = infeasible).
/// The tree with a navigation scan prices whichever of `xml` and `mixed` its
/// leaves describe; the other stays `None`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteCosts {
    /// Every atom scanned, when the relational store holds every
    /// navigation relation (body-less queries cost 0).
    pub relational: Option<f64>,
    /// Native navigation, when every atom navigates a stored document.
    pub xml: Option<f64>,
    /// Native navigation joined with table scans, when both occur.
    pub mixed: Option<f64>,
}

/// A priced routing decision for one query.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingDecision {
    /// The chosen route: the native tree's only when it is feasible and
    /// strictly cheaper or the only feasible one, so equal estimates always
    /// resolve to relational and decisions are deterministic and
    /// snapshot-stable.
    pub route: Route,
    /// The per-route estimates the choice was made from.
    pub costs: RouteCosts,
    /// Body atoms classified as GReX navigation over a stored document.
    pub navigation_atoms: usize,
    /// Remaining body atoms (base relations, views, specializations).
    pub relational_atoms: usize,
    /// The tree the route runs: the one priced for it, shared. It names
    /// terms by position, so it runs any query of the priced query's shape;
    /// a plan-cache hit runs it as is. `None` for a body-less query, which
    /// scans nothing.
    pub tree: Option<Arc<PhysicalPlan>>,
}

fn render_cost(f: &mut fmt::Formatter<'_>, label: &str, c: Option<f64>) -> fmt::Result {
    match c {
        Some(c) => writeln!(f, "  {label}: {c:.1}"),
        None => writeln!(f, "  {label}: infeasible"),
    }
}

impl fmt::Display for RoutingDecision {
    /// Stable rendering, snapshot-tested under `tests/golden/routes/`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "route={} atoms={} navigation + {} relational",
            self.route, self.navigation_atoms, self.relational_atoms
        )?;
        render_cost(f, "relational", self.costs.relational)?;
        render_cost(f, "xml", self.costs.xml)?;
        render_cost(f, "mixed", self.costs.mixed)
    }
}

/// A navigation atom prepared for ordering: variables numbered densely, the
/// exact index bucket of a constant `tag`/`text` argument looked up once.
struct PlannedAtom {
    base: NavBase,
    /// Index of the atom's document in the planner's statistics.
    doc: usize,
    /// Dense variable number per argument; `None` for a constant.
    vars: [Option<usize>; 3],
    bucket: Option<f64>,
}

/// Estimated output bindings per input binding of `atom` when `is_bound`
/// holds of its arguments (`< 1` a selective check, `> 1` an enumeration).
/// `from_root`: argument 0 is known to be the document root.
///
/// The model is deliberately coarse — routing is advisory, so the estimates
/// only need to *rank* atoms and backends sensibly, never to be exact.
fn expansion(atom: &PlannedAtom, s: &NavStats, is_bound: [bool; 3], from_root: bool) -> f64 {
    let (n, d, x) = (s.elements.max(1) as f64, s.descendant_pairs.max(1) as f64, s.texts as f64);
    match (atom.base, is_bound[0], is_bound[1]) {
        (NavBase::Root, false, _) => 1.0,
        // Of the (ancestor, node) pairs, those whose ancestor is the root.
        (NavBase::Root, true, _) => n / d,
        (NavBase::El, true, _) => 1.0,
        (NavBase::El, false, _) => n,
        (NavBase::Id, false, false) => n,
        (NavBase::Id, ..) => 1.0,
        // Average element fanout: one child edge per non-root element.
        (NavBase::Child, true, false) => (n - 1.0) / n,
        (NavBase::Child, false, false) => (n - 1.0).max(1.0),
        // The parent is unique; two bound ends are a check.
        (NavBase::Child, _, true) => 1.0,
        (NavBase::Desc, true, true) => 1.0,
        (NavBase::Desc, true, false) if from_root => n,
        (NavBase::Desc, true, false) | (NavBase::Desc, false, true) => d / n,
        (NavBase::Desc, false, false) => d,
        // A constant tag is priced by its exact bucket; a bound node has
        // exactly one tag, so the check keeps a t/n fraction.
        (NavBase::Tag, true, _) => atom.bucket.map_or(1.0, |t| (t / n).min(1.0)),
        (NavBase::Tag, false, _) => atom.bucket.unwrap_or(n),
        (NavBase::Text, true, _) => (atom.bucket.unwrap_or(x) / n).min(1.0),
        // A value probe: the exact bucket of a constant, the average bucket
        // of a bound variable, every text otherwise.
        (NavBase::Text, false, true) => atom.bucket.unwrap_or(x / s.distinct_texts.max(1) as f64),
        (NavBase::Text, false, false) => x,
        (NavBase::Attr, true, _) => s.attributes as f64 / n,
        (NavBase::Attr, false, _) => s.attributes as f64,
    }
}

/// Order the atoms of `atoms` that navigate a document `nav` stores for
/// native navigation, skipping the others, and price that order: repeatedly
/// run the remaining atom with the smallest *estimated output cardinality
/// given what is bound* (constants count as bound; ties on body position),
/// charging each atom its estimated enumeration volume per surviving
/// binding. A constant-valued `text` or `tag` probe is therefore a seed like
/// `root`, not a filter waiting for a document scan to reach it. Returns
/// the navigation leaf of that order, its `output` left to the planner.
///
/// This is the one orderer of native navigation: [`physical_plan`] stores
/// the navigation atoms in its `NavScan` leaf in this order, [`route_query`]
/// prices that leaf, and `mars_storage` compiles the atoms in exactly that
/// order into the navigation kernel, so the estimate prices the plan that
/// runs by construction.
pub(crate) fn plan_native(atoms: &[Atom], nav: &dyn NavigationStatistics) -> NavScan {
    let mut native = Vec::new();
    let mut docs: Vec<(&str, NavStats)> = Vec::new();
    let mut variables: Vec<Variable> = Vec::new();
    let mut planned: Vec<PlannedAtom> = Vec::with_capacity(atoms.len());
    for (i, atom) in atoms.iter().enumerate() {
        let Some((base, document)) = atom.navigation() else { continue };
        let doc = match docs.iter().position(|(d, _)| *d == document) {
            Some(i) => i,
            None => match nav.stats(document) {
                Some(stats) => {
                    docs.push((document, stats));
                    docs.len() - 1
                }
                None => continue,
            },
        };
        let mut vars = [None; 3];
        for (k, t) in atom.args.iter().enumerate() {
            if let Term::Var(v) = t {
                vars[k] = Some(variables.iter().position(|w| w == v).unwrap_or_else(|| {
                    variables.push(*v);
                    variables.len() - 1
                }));
            }
        }
        let bucket = match (base, atom.args.get(1)) {
            (NavBase::Tag, Some(Term::Const(c))) => Some(nav.tag_count(document, *c) as f64),
            (NavBase::Text, Some(Term::Const(c))) => {
                Some(nav.text_value_count(document, *c) as f64)
            }
            _ => None,
        };
        native.push(i);
        planned.push(PlannedAtom { base, doc, vars, bucket });
    }

    let mut bound = vec![false; variables.len()];
    let mut is_root = vec![false; variables.len()];
    let mut remaining: Vec<usize> = (0..planned.len()).collect();
    let mut order = Vec::with_capacity(planned.len());
    let (mut rows, mut cost) = (1.0_f64, 0.0_f64);
    while !remaining.is_empty() {
        let mut best = (0, f64::INFINITY);
        for (pos, &i) in remaining.iter().enumerate() {
            let atom = &planned[i];
            let is_bound = atom.vars.map(|v| v.is_none_or(|v| bound[v]));
            let from_root = atom.vars[0].is_some_and(|v| is_root[v]);
            let e = expansion(atom, &docs[atom.doc].1, is_bound, from_root);
            // `remaining` ascends, so a strict improvement keeps ties on
            // body position.
            if e < best.1 {
                best = (pos, e);
            }
        }
        let i = remaining.remove(best.0);
        order.push(native[i]);
        cost += rows * best.1.max(1.0);
        rows *= best.1;
        for v in planned[i].vars.into_iter().flatten() {
            bound[v] = true;
            is_root[v] |= planned[i].base == NavBase::Root;
        }
    }
    NavScan { atoms: order, output: Vec::new(), cost, est_rows: rows }
}

/// The first atom of `q` outside `navigated` (the body indices a
/// navigation leaf serves) whose relation `rel` does not hold. A tree that
/// scans it cannot answer: the store lacks the relation — a document's GReX
/// encoding, a materialized view — not its rows.
pub fn unheld_relation<'q>(
    q: &'q ConjunctiveQuery,
    navigated: &[usize],
    rel: &dyn StatisticsCatalog,
) -> Option<&'q Atom> {
    let scanned = q.body.iter().enumerate().filter(|(i, _)| !navigated.contains(i));
    scanned.map(|(_, atom)| atom).find(|a| !rel.holds(a.predicate))
}

/// Price `q` as two trees and choose the cheaper: every atom a table scan
/// ([`physical_plan`] without navigation statistics), or the atoms over
/// stored documents navigated natively (with them). Both are priced by
/// [`PhysicalPlan::estimated_cost`], tails included; a tree that scans an
/// unheld relation ([`unheld_relation`]) is infeasible. The
/// native tree counts only when it has a navigation leaf, and wins when it
/// is feasible and strictly cheaper, or the relational tree is infeasible.
/// The decision keeps the chosen tree ([`RoutingDecision::tree`]).
pub fn route_query(
    q: &ConjunctiveQuery,
    rel: &dyn StatisticsCatalog,
    nav: &dyn NavigationStatistics,
) -> RoutingDecision {
    price(q, rel, nav, None)
}

/// [`route_query`] with the route forced: the same costs, and the tree the
/// pricer built for `route` — every atom a table scan for relational, the
/// native tree for xml and mixed alike — with the route its leaves
/// describe: mixed when relational atoms remain, relational when nothing
/// navigates a stored document. So an ablation runs the tree it names and
/// records the route it ran.
pub fn route_forced(
    q: &ConjunctiveQuery,
    rel: &dyn StatisticsCatalog,
    nav: &dyn NavigationStatistics,
    route: Route,
) -> RoutingDecision {
    price(q, rel, nav, Some(route))
}

/// The one pricer: build and price `q`'s two trees, then keep the native
/// one when `forced` asks for a navigating route, or, unforced, when it is
/// strictly cheaper.
fn price(
    q: &ConjunctiveQuery,
    rel: &dyn StatisticsCatalog,
    nav: &dyn NavigationStatistics,
    forced: Option<Route>,
) -> RoutingDecision {
    let mut decision = RoutingDecision {
        route: Route::Relational,
        costs: RouteCosts { relational: Some(0.0), xml: None, mixed: None },
        navigation_atoms: 0,
        relational_atoms: q.body.len(),
        tree: None,
    };
    if q.body.is_empty() {
        return decision;
    }
    let feasible = |tree: &PhysicalPlan, navigated: &[usize]| {
        unheld_relation(q, navigated, rel).is_none().then(|| tree.estimated_cost())
    };
    // Without a navigation leaf the native tree is the all-scans tree.
    let native = physical_plan(q, rel, Some(nav));
    let Some(scan) = native.nav_scan() else {
        decision.costs.relational = feasible(&native, &[]);
        decision.tree = Some(Arc::new(native));
        return decision;
    };
    let relational = physical_plan(q, rel, None);
    decision.costs.relational = feasible(&relational, &[]);
    decision.navigation_atoms = scan.atoms.len();
    decision.relational_atoms -= scan.atoms.len();
    let (route, cost) = (Route::of(&native), feasible(&native, &scan.atoms));
    *if route == Route::Xml { &mut decision.costs.xml } else { &mut decision.costs.mixed } = cost;
    let navigate = match forced {
        Some(forced) => forced != Route::Relational,
        None => cost.is_some_and(|c| decision.costs.relational.is_none_or(|r| c < r)),
    };
    let chosen = if navigate {
        decision.route = route;
        native
    } else {
        relational
    };
    decision.tree = Some(Arc::new(chosen));
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_cq::Predicate;
    use std::collections::HashMap;

    struct FixedRel(HashMap<Predicate, (usize, Vec<usize>)>);

    impl StatisticsCatalog for FixedRel {
        fn holds(&self, relation: Predicate) -> bool {
            self.0.contains_key(&relation)
        }
        fn tuple_count(&self, relation: Predicate) -> usize {
            self.0.get(&relation).map(|(n, _)| *n).unwrap_or(0)
        }
        fn distinct_in_column(&self, relation: Predicate, col: usize) -> usize {
            self.0.get(&relation).and_then(|(_, d)| d.get(col)).copied().unwrap_or(0)
        }
    }

    struct FixedNav {
        elements: usize,
        pairs: usize,
    }

    impl NavigationStatistics for FixedNav {
        fn stats(&self, document: &str) -> Option<NavStats> {
            (document == "d.xml").then_some(NavStats {
                elements: self.elements,
                descendant_pairs: self.pairs,
                texts: self.elements / 2,
                distinct_texts: self.elements / 4,
                attributes: 0,
            })
        }
        fn tag_count(&self, _d: &str, _t: Constant) -> usize {
            self.elements / 4
        }
        fn text_value_count(&self, _d: &str, v: Constant) -> usize {
            usize::from(v != Constant::str("never-seen"))
        }
    }

    fn nav_atom(base: &str, args: Vec<Term>) -> Atom {
        Atom::named(&format!("{base}#d.xml"), args)
    }

    /// A pure-navigation query over a stored document is feasible on all
    /// backends that apply; a view-only query is relational-only.
    #[test]
    fn feasibility_follows_atom_classification() {
        let rel = FixedRel(HashMap::new());
        let nav = FixedNav { elements: 100, pairs: 500 };
        let pure_nav = ConjunctiveQuery::new("Q").with_head(vec![Term::var("x")]).with_body(vec![
            nav_atom("root", vec![Term::var("r")]),
            nav_atom("desc", vec![Term::var("r"), Term::var("x")]),
        ]);
        let d = route_query(&pure_nav, &rel, &nav);
        assert!(d.costs.xml.is_some());
        assert!(d.costs.mixed.is_none(), "no relational atoms to mix");
        assert_eq!((d.navigation_atoms, d.relational_atoms), (2, 0));

        let view_only = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_body(vec![Atom::named("V1", vec![Term::var("x")])]);
        let d = route_query(&view_only, &rel, &nav);
        assert_eq!(d.route, Route::Relational);
        assert!(d.costs.xml.is_none());
        assert!(d.costs.mixed.is_none());
    }

    /// Navigation over an *absent* document is not routable to the XML
    /// engine, whatever the atom looks like.
    #[test]
    fn absent_documents_make_xml_infeasible() {
        let rel = FixedRel(HashMap::new());
        let nav = FixedNav { elements: 100, pairs: 500 };
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_body(vec![Atom::named("desc#other.xml", vec![Term::var("r"), Term::var("x")])]);
        let d = route_query(&q, &rel, &nav);
        assert_eq!(d.route, Route::Relational);
        assert!(d.costs.xml.is_none());
        assert_eq!((d.navigation_atoms, d.relational_atoms), (0, 1));
    }

    /// A navigation relation the relational store lacks is no empty table:
    /// scanning it would answer with nothing, so the native tree serves the
    /// query however cheap the scan looks, and with neither store holding
    /// the document no route is feasible.
    #[test]
    fn absent_relations_make_relational_infeasible() {
        let nav = FixedNav { elements: 100, pairs: 500 };
        let x = Term::var("x");
        let q = ConjunctiveQuery::new("Q").with_head(vec![x]).with_body(vec![
            nav_atom("el", vec![x]),
            nav_atom("tag", vec![x, Term::constant_str("item")]),
        ]);
        let d = route_query(&q, &FixedRel(HashMap::new()), &nav);
        assert_eq!((d.route, d.costs.relational), (Route::Xml, None), "{d}");
        assert!(d.costs.xml.is_some(), "{d}");
        let forced = route_forced(&q, &FixedRel(HashMap::new()), &nav, Route::Relational);
        assert_eq!(forced.route, Route::Relational, "forcing keeps the tree asked for");

        // The native tree scans what no store holds: nothing is feasible.
        let other = q.with_atom(Atom::named("el#other.xml", vec![x]));
        let d = route_query(&other, &FixedRel(HashMap::new()), &nav);
        assert_eq!(d.costs, RouteCosts { relational: None, xml: None, mixed: None }, "{d}");
        assert_eq!(d.route, Route::Relational, "{d}");
        let unheld = unheld_relation(&other, &[], &FixedRel(HashMap::new()));
        assert_eq!(unheld, Some(&other.body[0]), "what the chosen tree's execution fails on");
    }

    /// When the relational side would scan a huge loaded `desc#` table but
    /// native navigation starts from the unique root, the router picks XML.
    #[test]
    fn navigation_heavy_queries_route_to_xml() {
        let rel = FixedRel(
            [
                (Predicate::new("root#d.xml"), (1, vec![1])),
                (Predicate::new("desc#d.xml"), (50_000, vec![10_000, 10_000])),
                (Predicate::new("tag#d.xml"), (10_000, vec![10_000, 20])),
            ]
            .into_iter()
            .collect(),
        );
        let nav = FixedNav { elements: 10_000, pairs: 50_000 };
        let q = ConjunctiveQuery::new("Q").with_head(vec![Term::var("x")]).with_body(vec![
            nav_atom("root", vec![Term::var("r")]),
            nav_atom("desc", vec![Term::var("r"), Term::var("x")]),
            nav_atom("tag", vec![Term::var("x"), Term::constant_str("item")]),
        ]);
        let d = route_query(&q, &rel, &nav);
        assert_eq!(d.route, Route::Xml, "{d}");
        assert!(d.costs.xml.unwrap() < d.costs.relational.unwrap(), "{d}");
    }

    /// A constant-valued `text` probe is a one-row seed, not a filter that
    /// waits for `root → desc` to enumerate the document: it runs first, the
    /// walk up to the root follows, and the price no longer depends on the
    /// document size. A constant no element holds empties the plan at once.
    #[test]
    fn constant_probes_seed_the_plan() {
        let lookup = |key: &str| {
            vec![
                nav_atom("root", vec![Term::var("r")]),
                nav_atom("desc", vec![Term::var("r"), Term::var("x")]),
                nav_atom("tag", vec![Term::var("x"), Term::constant_str("item")]),
                nav_atom("child", vec![Term::var("x"), Term::var("k")]),
                nav_atom("text", vec![Term::var("k"), Term::constant_str(key)]),
            ]
        };
        let small = FixedNav { elements: 100, pairs: 500 };
        let large = FixedNav { elements: 10_000, pairs: 50_000 };
        let plan = plan_native(&lookup("present"), &large);
        // The two one-row seeds, then up from the key; `desc` ends as a check.
        assert_eq!(plan.atoms, [0, 4, 3, 2, 1]);
        assert_eq!(plan.cost, plan_native(&lookup("present"), &small).cost);

        let miss = plan_native(&lookup("never-seen"), &large);
        assert_eq!((miss.atoms[0], miss.cost, miss.est_rows), (4, 1.0, 0.0), "nothing can match");

        // Without the constant the smallest seed is the tag bucket.
        let mut scan = lookup("present");
        scan[4] = nav_atom("text", vec![Term::var("k"), Term::var("v")]);
        assert_eq!(plan_native(&scan, &large).atoms, [0, 2, 3, 4, 1]);
    }

    /// A small materialized view beats navigating a large document.
    #[test]
    fn view_backed_queries_route_to_relational() {
        let rel = FixedRel([(Predicate::new("V1"), (8, vec![8, 8]))].into_iter().collect());
        let nav = FixedNav { elements: 10_000, pairs: 50_000 };
        let q = ConjunctiveQuery::new("Q")
            .with_head(vec![Term::var("x")])
            .with_body(vec![Atom::named("V1", vec![Term::var("x"), Term::var("y")])]);
        let d = route_query(&q, &rel, &nav);
        assert_eq!(d.route, Route::Relational);
        // Scan (8) + project pass (8) + distinct pass (8).
        assert_eq!(d.costs.relational, Some(24.0));
    }

    /// The decision renders stably (golden-snapshot format).
    #[test]
    fn decision_display_is_stable() {
        let d = RoutingDecision {
            route: Route::Xml,
            costs: RouteCosts { relational: Some(120.0), xml: Some(14.5), mixed: None },
            navigation_atoms: 3,
            relational_atoms: 0,
            tree: None,
        };
        let text = d.to_string();
        assert_eq!(
            text,
            "route=xml atoms=3 navigation + 0 relational\n  relational: 120.0\n  xml: 14.5\n  mixed: infeasible\n"
        );
    }

    /// Equal estimates resolve to relational, so decisions can never flap
    /// between runs; a strictly cheaper native tree switches to the route its
    /// leaves name.
    #[test]
    fn ties_break_deterministically() {
        let x = Term::var("x");
        let q =
            ConjunctiveQuery::new("Q").with_head(vec![x]).with_body(vec![nav_atom("el", vec![x])]);
        let nav = FixedNav { elements: 100, pairs: 500 };
        let rel =
            |n: usize| FixedRel([(Predicate::new("el#d.xml"), (n, vec![n]))].into_iter().collect());
        // Scan (100) + project pass (100) + distinct pass (100), either way.
        let tie = route_query(&q, &rel(100), &nav);
        assert_eq!(
            (tie.route, tie.costs.relational, tie.costs.xml),
            (Route::Relational, Some(300.0), Some(300.0))
        );
        assert_eq!(route_query(&q, &rel(101), &nav).route, Route::Xml);

        let mut stats = rel(101);
        stats.0.insert(Predicate::new("V1"), (1, vec![1]));
        let mixed = route_query(&q.with_atom(Atom::named("V1", vec![x])), &stats, &nav);
        assert_eq!(mixed.route, Route::Mixed, "{mixed}");
        assert!(mixed.costs.xml.is_none(), "{mixed}");
    }
}
