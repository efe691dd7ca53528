//! How many allocations one warm plan-cache hit makes, and one execute of
//! the plan it returns.
//!
//! A hit binds the request's constants into the queries a request runs —
//! the initial and the best reformulation — and shares the cached compiled
//! query, universal plan and minimal reformulations, which the entry holds
//! in its canonical form. An atom keeps up to four arguments in place, so
//! copying a query costs its own few buffers (name, head, body, an atom of
//! a wider relation), never one allocation per atom. Executing the hit runs the physical tree its
//! entry keeps, so nothing is planned. The counting allocator (`common/counting.rs`) is
//! this binary's global allocator, which is why the test has a file of its
//! own.

use mars_system::mars::{MarsOptions, MarsService};
use mars_system::storage::{BackendRouter, RoutedPlan};

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
    // One hit first, so that the request's constant is interned before the
    // counted one: the count is the steady state of a repeating request.
    let request = star_key_lookup("k-warm", "warm");
    service.reformulate_xbind(&request).expect("warm reformulation");

    let (hit, allocations) =
        counted(|| service.reformulate_xbind(&request).expect("warm reformulation"));
    assert_eq!(service.cache_stats().hits, 2);

    // Each instantiated query owns a name, a head and a body buffer, and
    // one atom wider than `Args::INLINE`: the hub's `Rspec`, of arity 8. The
    // rest is the request's shape (its key, the list of the constants it
    // borrows from the request, and the variables' numbering, sized once),
    // the request's constants and the block's name: 13 in all, whatever the
    // number of minimal reformulations; 16 while the shape returned the
    // variables' names, in a list grown four times, 25 while a hit renamed
    // the compiled query too, 37 while the shape numbered names through two
    // hash maps, 39 while a hit copied the cold run's statistics, 171 while
    // it renamed all 36 queries of the block.
    println!("one warm hit: {allocations} allocations");
    assert!(allocations <= 13, "{allocations} allocations for a hit");

    // The universal plan and the minimal set are the entry's: reading them
    // copies nothing (it renamed them, four buffers a query, while an entry
    // kept the names of the request that filled it).
    let result = &hit.result;
    let (queries, read) = counted(|| {
        assert_eq!((result.minimal.len(), result.universal_plan.body.len()), (32, 200));
        1 + result.minimal.len()
    });
    println!("reading them: {read} allocations for {queries} queries");
    assert_eq!(read, 0, "{read} allocations for {queries} shared queries");
}

#[test]
fn a_warm_execute_runs_the_cached_tree() {
    let (xml, db) = star_nc6().populate(40, 8, 5);
    let service = MarsService::new(star_nc6().mars(MarsOptions::specialized()));
    let serve = |key: &str, suffix: &str| {
        let block = service
            .reformulate_xbind_routed(&star_key_lookup(key, suffix), &db, &xml)
            .expect("routed reformulation");
        let query = block.result.best_or_initial().expect("an executable query").clone();
        RoutedPlan { query, decision: block.route.expect("a routed decision") }
    };
    serve("k3", "cold");
    let plan = serve("k17", "warm");
    assert_eq!(service.cache_stats().hits, 1);
    // One execute first, so that the persistent column index the pushed-down
    // key probes exists before the counted one.
    let router = BackendRouter::new(&db, &xml);
    router.execute(&plan).expect("executes");

    // The operators' batches and join tables and the result rows: 29. It was
    // 48 while a join kept a `Vec` per key and `Distinct` a `BTreeSet`, and
    // 206 while every execute planned the tree again.
    let (executed, allocations) = counted(|| router.execute(&plan).expect("executes"));
    assert_eq!(executed.rows.len(), 1, "one hub carries the key");
    println!("one warm execute: {allocations} allocations");
    assert!(allocations <= 29, "{allocations} allocations for a warm execute");
}
