//! What one warm plan-cache hit costs.
//!
//! - `plan_cache/star_key_lookup_hit`: the star NC = 6, NV = 5 client query
//!   filtered on its hub key, served through a `MarsService` whose cache
//!   already holds the template (reformulated cold for another key). Each
//!   iteration is one `reformulate_xbind` hit: the request's shape key, the
//!   cache probe, and the instantiation that binds the new key into the
//!   queries a request runs, the initial and best reformulations. The
//!   compiled query, the universal plan (200 atoms) and the 32 minimal
//!   reformulations are the cached entry's, shared. This is the step that
//!   dominates a `warm_point` request of `marsbench` after parsing. The
//!   setup asserts that the hit equals a fresh service's cold answer to the
//!   same request, and that it runs what a cold `Mars` reformulation finds.
//! - `plan_cache/star_key_lookup_hit_and_execute`: the hit routed against
//!   populated stores (`reformulate_xbind_routed`), then executed on the
//!   router: what a `warm_point` request pays between its parse and its
//!   tagging. The execute runs the physical tree the entry keeps and plans
//!   nothing. The setup asserts that its rows equal those of a cold routed
//!   run of the same request.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mars::{BlockReformulation, MarsOptions, MarsService};
use mars_storage::{BackendRouter, RelationalDatabase, RoutedPlan, Row, XmlStore};
use mars_workloads::star::StarConfig;
use mars_xquery::{XBindAtom, XBindQuery, XBindTerm};

/// The star client query filtered on the hub key `key`.
fn key_lookup(cfg: &StarConfig, key: &str) -> XBindQuery {
    cfg.client_query().with_atom(XBindAtom::Eq(XBindTerm::var("k"), XBindTerm::str(key)))
}

/// Everything a client can observe of a block, durations excluded.
fn observable(block: &BlockReformulation) -> String {
    let result = &block.result;
    let minimal: Vec<String> = result.minimal.iter().map(|(q, c)| format!("{q} {c}")).collect();
    format!(
        "{}\n{}\n{:?}\n{minimal:?}\n{:?}\n{:?}",
        block.compiled,
        result.universal_plan,
        result.initial.as_ref().map(|q| q.to_string()),
        result.best.as_ref().map(|(q, c)| format!("{q} {c}")),
        block.sql()
    )
}

fn bench_hit(c: &mut Criterion) {
    let cfg = StarConfig::figure5(6);
    let service = MarsService::new(cfg.mars(MarsOptions::specialized()));
    service.reformulate_xbind(&key_lookup(&cfg, "k-cold")).expect("cold reformulation");
    let request = key_lookup(&cfg, "k-warm");
    let hit = service.reformulate_xbind(&request).expect("warm reformulation");
    assert_eq!(service.cache_stats().hits, 1, "the second key hits the cached template");
    let fresh = MarsService::new(cfg.mars(MarsOptions::specialized()));
    let cold = fresh.reformulate_xbind(&request).expect("cold reformulation");
    assert_eq!(observable(&hit), observable(&cold), "the hit is the cold answer");
    let direct = cfg.mars(MarsOptions::specialized()).try_reformulate_xbind(&request);
    let direct = direct.expect("cold reformulation");
    assert_eq!(direct.minimal_count(), 32);
    assert_eq!(
        (hit.sql(), hit.minimal_count(), hit.result.universal_plan.body.len()),
        (direct.sql(), direct.minimal_count(), direct.result.universal_plan.body.len()),
        "the hit runs the plan a cold reformulation finds"
    );

    let mut g = c.benchmark_group("plan_cache");
    g.bench_function("star_key_lookup_hit", |b| {
        b.iter(|| black_box(service.reformulate_xbind(black_box(&request)).expect("a hit")))
    });
    g.finish();
}

/// Serve `request` routed against the stores, then execute it.
fn serve_and_execute(
    service: &MarsService,
    request: &XBindQuery,
    (db, xml): (&RelationalDatabase, &XmlStore),
) -> Vec<Row> {
    let block = service.reformulate_xbind_routed(request, db, xml).expect("routed reformulation");
    let query = block.result.best_or_initial().expect("an executable query").clone();
    let plan = RoutedPlan { query, decision: block.route.expect("a routed decision") };
    BackendRouter::new(db, xml).execute(&plan).expect("executes").rows
}

fn bench_hit_and_execute(c: &mut Criterion) {
    let cfg = StarConfig::figure5(6);
    let (xml, db) = cfg.populate(40, 8, 5);
    let stores = (&db, &xml);
    let service = MarsService::new(cfg.mars(MarsOptions::specialized()));
    serve_and_execute(&service, &key_lookup(&cfg, "k3"), stores);
    let request = key_lookup(&cfg, "k17");
    let warm = serve_and_execute(&service, &request, stores);
    assert_eq!(service.cache_stats().hits, 1, "the second key hits the cached template");
    let cold = serve_and_execute(
        &MarsService::new(cfg.mars(MarsOptions::specialized())),
        &request,
        stores,
    );
    assert_eq!(warm.len(), 1, "one hub carries the key");
    assert_eq!(warm, cold, "the hit executes the cold rows");

    let mut g = c.benchmark_group("plan_cache");
    g.bench_function("star_key_lookup_hit_and_execute", |b| {
        b.iter(|| black_box(serve_and_execute(&service, black_box(&request), stores)))
    });
    g.finish();
}

criterion_group!(benches, bench_hit, bench_hit_and_execute);
criterion_main!(benches);
