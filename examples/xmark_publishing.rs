//! The XMark-like publishing scenario (Section 4.2): realistic queries over
//! an auction site document with redundant relational views.
//!
//! Run with `cargo run --release --example xmark_publishing`.

use mars_workloads::xmark;
use std::time::Instant;

fn main() {
    let system = xmark::mars(true);
    let (_, db) = xmark::populate(50, 20, 40);

    for q in xmark::query_suite() {
        let start = Instant::now();
        let block = system.reformulate_xbind(&q);
        let elapsed = start.elapsed();
        println!("{}", q.name);
        println!("  reformulation time: {elapsed:?}");
        // Only a reformulation the backchase proved equivalent is the best
        // one; without it the result falls back to the initial one.
        let (label, plan) = match (&block.result.best, &block.result.initial) {
            (Some((best, _)), _) => ("best reformulation", best),
            (None, Some(initial)) => ("no reformulation proved equivalent; initial one", initial),
            (None, None) => {
                println!("  no reformulation");
                continue;
            }
        };
        let answers = db.query(plan).len();
        println!("  {label}: {} atoms, {answers} answers over the views", plan.body.len());
    }
}
