//! What is stored satisfies what the chase assumes.
//!
//! A reformulation the C&B proves equivalent returns the query's answer only
//! on data that satisfies the dependency set Σ it was proved under: the view
//! constraints `c_V` / `b_V`, the XICs, TIX and the mappings' functional
//! dependencies. So on every workload tenant, every dependency of
//! `Mars::dependencies()` whose relations the store holds is evaluated on the
//! stored instance: its premise's bindings by `evaluate_bindings`, each of
//! them tested against the conclusions by `satisfiable`.
//!
//! The second half is the probe of a stored `id` column that did not hold
//! the element: the star block `Xb0(r, a1)`, reformulated over `Rspec`, must
//! return every hub.

use mars_system::chase::{evaluate_bindings, satisfiable, Binding, SymbolicInstance};
use mars_system::cq::{Conjunct, Ded, Term};
use mars_system::grex::{compile_xbind, encode_document, CompileContext};
use mars_system::mars::{Mars, MarsOptions, MarsService};
use mars_system::storage::{BackendRouter, RelationalDatabase, Route, RoutedPlan};
use mars_system::workloads::{example11, scenarios::Scenario, star::StarConfig, xmark};
use mars_system::xquery::{decorrelate, parse_xquery};

/// A tenant's relational store and the system that reformulates over it.
struct Tenant {
    name: String,
    db: RelationalDatabase,
    mars: Mars,
}

/// The star at `nc` corners (NV = NC − 1, the document proprietary), 5 hubs
/// and 3 rows a corner, seed 1, stored as the publish benchmark stores it:
/// the document and its GReX facts, the views and the specialization
/// relations.
fn star(nc: usize) -> Tenant {
    let cfg = StarConfig::figure5(nc);
    let (xml, mut db) = cfg.populate(5, 3, 1);
    db.load_facts(&encode_document(xml.document(&cfg.document()).expect("the star document")));
    Tenant { name: format!("star NC {nc}"), db, mars: cfg.mars(MarsOptions::specialized()) }
}

fn tenants() -> Vec<Tenant> {
    let mut tenants = vec![star(3), star(6)];
    let (_, db) = xmark::populate(12, 8, 10);
    tenants.push(Tenant { name: "XMark".to_string(), db, mars: xmark::mars(true) });
    let (_, db) = example11::populate(8);
    tenants.push(Tenant { name: "Example 1.1".to_string(), db, mars: example11::mars() });
    for scenario in Scenario::matrix() {
        let (_, db) = scenario.populate(12, 1);
        tenants.push(Tenant { name: scenario.name(), db, mars: scenario.mars() });
    }
    tenants
}

/// Does `conjunct` hold for the premise binding `binding`? Its equalities
/// bind its existential variables or compare what the premise bound, and its
/// atoms must then be satisfiable.
fn holds(conjunct: &Conjunct, binding: &Binding, inst: &SymbolicInstance) -> bool {
    let mut extended = binding.clone();
    for &(a, b) in &conjunct.equalities {
        let (a, b) = (extended.apply_term(a), extended.apply_term(b));
        let equal = match (a, b) {
            _ if a == b => true,
            (Term::Var(v), t) | (t, Term::Var(v)) if conjunct.exists.contains(&v) => {
                extended.bind(v, t)
            }
            _ => false,
        };
        if !equal {
            return false;
        }
    }
    satisfiable(&conjunct.atoms, &[], inst, &extended)
}

/// The first premise binding of `ded` on `inst` that no conclusion holds
/// for, if any.
fn witness(ded: &Ded, inst: &SymbolicInstance) -> Option<Binding> {
    let premise = evaluate_bindings(&ded.premise, &ded.premise_inequalities, inst, &Binding::new());
    premise.into_iter().find(|binding| !ded.conclusions.iter().any(|c| holds(c, binding, inst)))
}

/// Every dependency of the tenant's Σ whose relations the store holds that
/// the stored instance violates, with one witness each, and how many
/// dependencies were checked.
fn violations(tenant: &Tenant) -> (Vec<String>, usize) {
    let inst = tenant.db.instance();
    let held = |ded: &Ded| {
        let conclusions = ded.conclusions.iter().flat_map(|c| &c.atoms);
        ded.premise.iter().chain(conclusions).all(|a| inst.relation_data(a.predicate).is_some())
    };
    let checked: Vec<&Ded> = tenant.mars.dependencies().iter().filter(|d| held(d)).collect();
    let violated = checked
        .iter()
        .filter_map(|ded| Some(format!("{}: {} {:?}", tenant.name, ded.name, witness(ded, inst)?)))
        .collect();
    (violated, checked.len())
}

#[test]
fn every_tenant_store_satisfies_its_dependencies() {
    let mut violated = Vec::new();
    for tenant in tenants() {
        let (found, checked) = violations(&tenant);
        let sigma = tenant.mars.dependencies().len();
        println!(
            "{}: {checked} of {sigma} dependencies checked, {} violated",
            tenant.name,
            found.len()
        );
        assert!(checked > 0 || sigma == 0, "{}: Σ is over stored relations", tenant.name);
        violated.extend(found);
    }
    assert!(violated.is_empty(), "violated dependencies:\n{}", violated.join("\n"));
}

/// `for $r in //R, $a1 in $r/A1/text() return <a>$a1</a>` on the star NC 3 /
/// NV 2 tenant: its block `Xb0(r, a1)`, as `decorrelate` returns it, routed
/// and executed, returns one row per hub, the rows its GReX compilation
/// returns on the XML route. The reformulation reads `Rspec`, whose `id`
/// column must hold the `R` element for the hubs to stay apart.
#[test]
fn a_node_variable_over_a_specialization_relation_keeps_every_hub() {
    let cfg = StarConfig::figure5(3);
    let (xml, db) = cfg.populate(5, 3, 1);
    let query = parse_xquery("for $r in //R, $a1 in $r/A1/text() return <a>$a1</a>").unwrap();
    let decorrelated = decorrelate(&query, &cfg.document());
    let block = &decorrelated.blocks[0];
    assert_eq!(block.head, ["r", "a1"]);

    let service = MarsService::new(cfg.mars(MarsOptions::specialized()));
    let reformulated = service.reformulate_xbind_routed(block, &db, &xml).expect("reformulates");
    let best = reformulated.result.best.as_ref().expect("a reformulation is proved").0.clone();
    assert!(best.body.iter().all(|a| a.predicate.name() == "Rspec"), "{best}");
    let decision = reformulated.route.expect("a routed block carries its decision");
    let router = BackendRouter::new(&db, &xml);
    let mut rows = router.execute(&RoutedPlan { query: best, decision }).expect("executes").rows;

    let compiled = compile_xbind(&mut CompileContext::new(), block);
    let direct = router.plan_forced(&compiled, Route::Xml);
    let mut expected = router.execute(&direct).expect("navigates the star").rows;
    rows.sort();
    expected.sort();
    assert_eq!(rows.len(), 5, "one row per hub");
    assert_eq!(rows, expected);
}
