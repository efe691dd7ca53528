//! How many allocations one warm plan-cache hit makes.
//!
//! A hit renames the queries a request runs — the compiled query, the
//! initial and the best reformulation — and shares the cached universal
//! plan and minimal reformulations, which it renames only if they are read.
//! An atom keeps up to four arguments in place, so copying a query costs its
//! own few buffers (name, head, body, an atom of a wider relation), never
//! one allocation per atom. The counting allocator (`common/counting.rs`) is
//! this binary's global allocator, which is why the test has a file of its
//! own.

use mars_system::mars::{MarsOptions, MarsService};

#[path = "common/counting.rs"]
mod counting;
#[path = "common/star.rs"]
mod star;

use counting::counted;
use star::{star_key_lookup, star_nc6};

#[test]
fn a_warm_hit_allocates_per_query_not_per_atom() {
    let service = MarsService::new(star_nc6().mars(MarsOptions::specialized()));
    service.reformulate_xbind(&star_key_lookup("k-cold", "cold")).expect("cold reformulation");
    // One hit first, so that the request's constants and variable names are
    // interned before the counted one: the count is the steady state of a
    // repeating request.
    let request = star_key_lookup("k-warm", "warm");
    service.reformulate_xbind(&request).expect("warm reformulation");

    let (hit, allocations) =
        counted(|| service.reformulate_xbind(&request).expect("warm reformulation"));
    assert_eq!(service.cache_stats().hits, 2);

    // Each renamed query owns a name, a head and a body buffer, and one
    // atom wider than `Args::INLINE`: the hub's `Rspec`, of arity 8. The
    // rest is the request's shape (its key, and two lists of the names it
    // borrows from the request), the renaming and the hit's few fixed
    // buffers: 37 in all, whatever the number of minimal reformulations;
    // 39 while a hit copied the cold run's statistics, 171 while it renamed
    // all 36 queries of the block.
    println!("one warm hit: {allocations} allocations before its deferred fields are read");
    assert!(allocations <= 38, "{allocations} allocations for a hit");

    // Reading the deferred fields renames them, four buffers a query plus
    // the minimal set's list.
    let result = &hit.result;
    let (queries, read) = counted(|| {
        assert_eq!((result.minimal.len(), result.universal_plan.body.len()), (32, 200));
        1 + result.minimal.len()
    });
    println!("reading them: {read} allocations for {queries} queries");
    assert!(read <= 4 * queries as u64 + 1, "{read} allocations for {queries} queries");
}
