//! How many bytes building a document's relational copy holds live at once.
//!
//! Encoding the snowflake scenario at scale 1 000 (the `nav_mixed` tenant
//! whose set-up sets that workload's memory peak) and loading its 104 005
//! GReX facts into a `RelationalDatabase` holds, at its peak, the encoding's
//! eight relation buffers, the store's copy of them and its dedup tables,
//! and the symbols the load interns. One 64-byte `Atom` per fact would add
//! 104 005 × 64 B = 6.66 MB, so the bound leaves no room for one. The
//! counting allocator (`common/counting.rs`) is this binary's global
//! allocator, and the load is its only test, so no other test interns the
//! document's symbols first.

use mars_system::grex::encode_document;
use mars_system::storage::RelationalDatabase;
use mars_system::workloads::scenarios::Scenario;

#[path = "common/counting.rs"]
mod counting;

use counting::{counted, peak_bytes};

/// The most bytes encoding and loading the snowflake may hold live. It
/// peaks at 8 069 986 B in 7 105 allocations; at 13 782 894 B in 17 336
/// while the encoding was one `Atom` per fact and the store grew each
/// relation a fact at a time.
const SNOWFLAKE_LOAD_BOUND: u64 = 9_000_000;

#[test]
fn loading_the_snowflake_holds_no_atom_per_fact() {
    let snowflake =
        Scenario::matrix().into_iter().find(|s| s.name() == "snowflake-skewed-r0").unwrap();
    let doc = snowflake.generate_document(1000, 1);
    let ((db, allocations), peak) = peak_bytes(|| {
        counted(|| {
            let mut db = RelationalDatabase::new();
            db.load_facts(&encode_document(&doc));
            db
        })
    });
    println!("snowflake scale 1000: {} facts, {allocations} allocations, peak {peak} B", db.len());
    assert_eq!(db.len(), 104_005);
    assert!(peak < SNOWFLAKE_LOAD_BOUND, "loading peaked at {peak} B");
}
