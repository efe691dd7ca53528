//! The XML star scenario of Section 4.1: redundant materialized views make
//! exponentially many reformulations possible; MARS enumerates the minimal
//! ones and picks the cheapest.
//!
//! Run with `cargo run --release --example star_publishing [-- --nc N]`
//! (default: NC = 5).

use mars::MarsOptions;
use mars_workloads::star::StarConfig;
use std::collections::HashMap;

/// Parse `--nc N`, rejecting anything malformed (exit 2).
fn parse_args() -> usize {
    let mut nc = 5usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg != "--nc" {
            eprintln!("error: unknown argument {arg:?} (expected --nc N)");
            std::process::exit(2);
        }
        let value = it.next().unwrap_or_else(|| {
            eprintln!("error: {arg} requires a value");
            std::process::exit(2);
        });
        nc = value.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid {arg} value: {value:?} (expected a number)");
            std::process::exit(2);
        });
        if nc < 1 {
            eprintln!("error: {arg} must be at least 1");
            std::process::exit(2);
        }
    }
    nc
}

fn main() {
    let nc = parse_args();
    let cfg = StarConfig::figure5(nc);
    println!("star configuration: NC = {nc}, NV = {}", cfg.nv);

    let mars = cfg.mars(MarsOptions::specialized().exhaustive());
    let block = mars.reformulate_xbind(&cfg.client_query());

    println!("universal plan: {} atoms", block.result.stats.universal_plan_atoms);
    println!(
        "minimal reformulations found: {} (expected 2^NV = {})",
        block.result.minimal.len(),
        1usize << cfg.nv
    );
    if block.result.stats.backchase_truncated {
        eprintln!(
            "WARNING: backchase truncated at max_candidates — the enumeration \
             is incomplete and the count above cannot be trusted"
        );
    }
    if let Some((best, cost)) = &block.result.best {
        println!("best reformulation (cost {cost:.1}): {best}");
    }

    // Execute both the unreformulated query (naive XML engine) and the best
    // reformulation (relational engine over the materialized views and
    // specialization relations).
    let (xml, db) = cfg.populate(5, 4, 1);
    let unreformulated = xml.eval_xbind(&cfg.client_query(), &HashMap::new()).unwrap();
    let reformulated = block.result.best_or_initial().map(|q| db.query(q)).unwrap_or_default();
    println!(
        "answers: unreformulated = {}, reformulated over views = {}",
        unreformulated.len(),
        reformulated.len()
    );
}
