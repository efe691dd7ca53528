//! What one warm plan-cache hit costs.
//!
//! - `plan_cache/star_key_lookup_hit`: the star NC = 6, NV = 5 client query
//!   filtered on its hub key, served through a `MarsService` whose cache
//!   already holds the template (reformulated cold for another key). Each
//!   iteration is one `reformulate_xbind` hit: the request's shape key, the
//!   cache probe, and the re-substitution that copies the cached block —
//!   the universal plan (200 atoms), 32 minimal reformulations, the
//!   initial, best and compiled queries — with the new key. This is the
//!   step that dominates a `warm_point` request of `marsbench` after
//!   parsing. The setup asserts that the hit equals a cold reformulation
//!   of the same request.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mars::{BlockReformulation, MarsOptions, MarsService};
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
    let cold = cfg.mars(MarsOptions::specialized()).try_reformulate_xbind(&request);
    let cold = cold.expect("cold reformulation");
    assert_eq!(hit.minimal_count(), 32);
    assert_eq!(observable(&hit), observable(&cold), "the hit is the cold block");

    let mut g = c.benchmark_group("plan_cache");
    g.bench_function("star_key_lookup_hit", |b| {
        b.iter(|| black_box(service.reformulate_xbind(black_box(&request)).expect("a hit")))
    });
    g.finish();
}

criterion_group!(benches, bench_hit);
criterion_main!(benches);
