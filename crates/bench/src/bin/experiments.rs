//! Regenerate the paper's tables and figures.
//!
//! Usage: `cargo run -p mars-bench --release --bin experiments -- [--fig5] [--fig8]
//! [--stress] [--oldnew] [--savings] [--xmark] [--all] [--max-nc N]`
//!
//! Each experiment prints the same rows/series the paper reports (absolute
//! numbers differ — different hardware and substitute engines — but the shape
//! should match; see EXPERIMENTS.md). Latency and throughput of a resident
//! service are `marsbench`'s job (`benchmark/`), not this binary's.

use mars::MarsOptions;
use mars_bench::{measure_fig5, measure_fig8};
use mars_chase::{chase_to_resident_compiled, ChaseOptions, CompiledDeps};
use mars_cq::ConjunctiveQuery;
use mars_oracle::{naive_chase, ChaseBudget};
use mars_workloads::{example11, star::StarConfig, stress, xmark};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const USAGE: &str = "Usage: experiments [--fig5] [--fig8] [--stress] [--oldnew] [--savings] \
[--xmark] [--all] [--max-nc N]

Regenerates the paper's tables and figures (see EXPERIMENTS.md). With no
experiment flags, --all is assumed. --max-nc N (default 6) bounds the star
size of the fig5/fig8 sweeps.";

/// The parsed command line.
struct Args {
    selected: Vec<String>,
    max_nc: usize,
}

/// Parse the command line strictly: unknown flags and malformed values are
/// errors, not silently ignored (a typo must not produce an empty results
/// file with exit code 0).
fn parse_args(args: &[String]) -> Result<Args, String> {
    const FLAGS: [&str; 7] =
        ["--fig5", "--fig8", "--stress", "--oldnew", "--savings", "--xmark", "--all"];
    let mut parsed = Args { selected: Vec::new(), max_nc: 6 };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--max-nc" {
            let value = it.next().ok_or("--max-nc requires a value".to_string())?;
            parsed.max_nc = value
                .parse()
                .map_err(|_| format!("invalid --max-nc value: {value:?} (expected a number)"))?;
            if parsed.max_nc < 3 {
                return Err(format!("--max-nc must be at least 3, got {}", parsed.max_nc));
            }
        } else if FLAGS.contains(&arg.as_str()) {
            parsed.selected.push(arg.clone());
        } else {
            return Err(format!("unknown argument: {arg:?}"));
        }
    }
    Ok(parsed)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Args { selected: args, max_nc } = match parse_args(&raw) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let all = args.is_empty() || has("--all");

    let mut results: HashMap<String, serde_json::Value> = HashMap::new();
    // Per-phase wall-clock times, so a results file is self-describing about
    // how it was produced.
    let mut phase_wall_ms: Vec<(&str, f64)> = Vec::new();
    let mut timed =
        |name: &'static str,
         results: &mut HashMap<String, serde_json::Value>,
         f: &mut dyn FnMut(&mut HashMap<String, serde_json::Value>)| {
            let start = Instant::now();
            f(results);
            phase_wall_ms.push((name, ms(start.elapsed())));
        };

    // Summed backchase phase times across the fig5 sweep (None when fig5
    // did not run), recorded in the run metadata below.
    let mut fig5_phases: Option<(Duration, Duration)> = None;
    if all || has("--fig5") {
        timed("fig5", &mut results, &mut |r| {
            fig5_phases = Some(fig5(max_nc, r));
        });
    }
    if all || has("--fig8") {
        timed("fig8", &mut results, &mut |r| fig8(max_nc, r));
    }
    if all || has("--stress") {
        timed("stress", &mut results, &mut stress_experiment);
    }
    if all || has("--oldnew") {
        timed("old_vs_new", &mut results, &mut old_vs_new);
    }
    if all || has("--savings") {
        timed("net_savings", &mut results, &mut net_savings);
    }
    if all || has("--xmark") {
        timed("xmark", &mut results, &mut xmark_feasibility);
    }

    let phases: std::collections::BTreeMap<String, serde_json::Value> = phase_wall_ms
        .iter()
        .map(|(name, t)| (name.to_string(), serde_json::Value::from(*t)))
        .collect();
    // Environment metadata: record what produced this file.
    results.insert(
        "run".to_string(),
        serde_json::json!({
            "max_nc": max_nc,
            "fig5_backchase_chase_phase_ms":
                fig5_phases.map(|(c, _)| ms(c)).map(serde_json::Value::from)
                    .unwrap_or(serde_json::Value::Null),
            "fig5_backchase_containment_phase_ms":
                fig5_phases.map(|(_, c)| ms(c)).map(serde_json::Value::from)
                    .unwrap_or(serde_json::Value::Null),
            "cpu_cores": detected_cpu_cores(),
            "rustc": rustc_version(),
            "phase_wall_ms": serde_json::Value::Object(phases),
        }),
    );

    if let Ok(json) = serde_json::to_string_pretty(&results) {
        let _ = std::fs::write("experiments_results.json", json);
        println!("\n(results also written to experiments_results.json)");
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Chase `q` with `deds` to its universal plan and count the plan's atoms:
/// the "new implementation" the stress experiments time, dependency
/// compilation and rendering the plan included.
fn universal_plan_atoms(q: &ConjunctiveQuery, deps: &CompiledDeps) -> usize {
    let chase = chase_to_resident_compiled(q, deps, &ChaseOptions::default());
    chase.primary(&q.name).map_or(0, |plan| plan.body.len())
}

/// CPU cores visible to this process (0 when undetectable).
fn detected_cpu_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0)
}

/// The `rustc --version` line of the toolchain on PATH ("unknown" when rustc
/// is not invokable — e.g. a stripped runtime container).
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Figure 5: scalability of reformulation. Returns the backchase chase and
/// containment phase times summed across the sweep (for the run metadata).
fn fig5(max_nc: usize, results: &mut HashMap<String, serde_json::Value>) -> (Duration, Duration) {
    println!("== Figure 5: scalability of reformulation (XML star, NV = NC-1) ==");
    println!("{:>4} {:>18} {:>22} {:>10}", "NC", "initial (ms)", "delta to best (ms)", "#minimal");
    let mut rows = Vec::new();
    let (mut chase_total, mut containment_total) = (Duration::ZERO, Duration::ZERO);
    for nc in 3..=max_nc {
        let p = measure_fig5(nc);
        chase_total += p.chase_phase;
        containment_total += p.containment_phase;
        println!(
            "{:>4} {:>18.2} {:>22.2} {:>10}{}",
            p.nc,
            ms(p.initial),
            ms(p.delta_to_best),
            p.minimal_count,
            if p.truncated { "  (TRUNCATED)" } else { "" }
        );
        if p.truncated {
            eprintln!(
                "WARNING: NC={nc} backchase truncated at max_candidates — \
                 the minimal count is a lower bound, not the enumeration"
            );
        }
        rows.push(serde_json::json!({
            "nc": p.nc,
            "initial_ms": ms(p.initial),
            "delta_to_best_ms": ms(p.delta_to_best),
            "minimal": p.minimal_count,
            "truncated": p.truncated,
            "chase_phase_ms": ms(p.chase_phase),
            "containment_phase_ms": ms(p.containment_phase),
        }));
    }
    results.insert("fig5".to_string(), serde_json::Value::Array(rows));
    (chase_total, containment_total)
}

/// Figure 8: effect of schema specialization (ratio without/with).
fn fig8(max_nc: usize, results: &mut HashMap<String, serde_json::Value>) {
    println!("\n== Figure 8: effect of schema specialization (views-only storage) ==");
    println!("{:>4} {:>16} {:>14} {:>10}", "NC", "without (ms)", "with (ms)", "ratio");
    let mut rows = Vec::new();
    for nc in 3..=max_nc {
        let p = measure_fig8(nc);
        println!("{:>4} {:>16.2} {:>14.2} {:>10.1}", p.nc, ms(p.without), ms(p.with), p.ratio());
        rows.push(serde_json::json!({
            "nc": p.nc,
            "without_ms": ms(p.without),
            "with_ms": ms(p.with),
            "ratio": p.ratio(),
        }));
    }
    results.insert("fig8".to_string(), serde_json::Value::Array(rows));
}

/// Section 3 stress test: //a/b/.../j chased with TIX.
fn stress_experiment(results: &mut HashMap<String, serde_json::Value>) {
    println!("\n== Section 3 stress test: chase of //a/b/.../j with TIX ==");
    let depth = 10;
    let q = stress::compiled_stress_query(depth);
    let tix = stress::stress_constraints();

    // Old implementation (naive chase), capped at 10 s instead of >12 h.
    let cap = Duration::from_secs(10);
    let start = Instant::now();
    let naive = naive_chase(&q, &tix, &ChaseBudget::default().with_timeout(cap));
    let naive_time = start.elapsed();
    let naive_label = if naive.terminated() {
        format!("{:.0} ms", ms(naive_time))
    } else {
        format!(">{:.0} ms (timed out)", ms(cap))
    };

    // Each timing includes compiling the set: the ablation's Σ is compiled
    // without the shortcut, the other with it.
    let start = Instant::now();
    let join_tree_atoms = universal_plan_atoms(&q, &CompiledDeps::without_shortcut(&tix));
    let no_shortcut_time = start.elapsed();

    let start = Instant::now();
    let plan_atoms = universal_plan_atoms(&q, &CompiledDeps::new(&tix));
    let with_shortcut_time = start.elapsed();

    println!("input atoms:                 {}", q.body.len());
    println!("universal plan atoms:        {plan_atoms} (without the shortcut: {join_tree_atoms})");
    println!("old (naive) implementation:  {naive_label}   (paper: >12 h)");
    println!("new join-tree implementation: {:.1} ms   (paper: 2.6 s)", ms(no_shortcut_time));
    println!("new + closure shortcut:       {:.1} ms   (paper: 640 ms)", ms(with_shortcut_time));

    // Depth sweep, so chase-side perf is tracked over growing inputs (not
    // just the paper's depth-10 point).
    println!("{:>6} {:>12} {:>8}", "depth", "chase (ms)", "atoms");
    let mut sweep = Vec::new();
    for d in [6usize, 8, 10, 12] {
        let q = stress::compiled_stress_query(d);
        let start = Instant::now();
        let atoms = universal_plan_atoms(&q, &CompiledDeps::new(&tix));
        let time = start.elapsed();
        println!("{:>6} {:>12.1} {:>8}", d, ms(time), atoms);
        sweep.push(serde_json::json!({
            "depth": d,
            "chase_ms": ms(time),
            "universal_plan_atoms": atoms,
        }));
    }

    results.insert(
        "stress".to_string(),
        serde_json::json!({
            "universal_plan_atoms": plan_atoms,
            "join_tree_universal_plan_atoms": join_tree_atoms,
            "naive_ms": ms(naive_time),
            "naive_terminated": naive.terminated(),
            "join_tree_ms": ms(no_shortcut_time),
            "shortcut_ms": ms(with_shortcut_time),
            "depth_sweep": serde_json::Value::Array(sweep),
        }),
    );
}

/// Old vs new C&B implementation on path queries of growing depth.
fn old_vs_new(results: &mut HashMap<String, serde_json::Value>) {
    println!("\n== Old vs new C&B implementation (chase to universal plan) ==");
    println!("{:>6} {:>14} {:>14} {:>10}", "depth", "old (ms)", "new (ms)", "speedup");
    let mut rows = Vec::new();
    for depth in [4usize, 6, 8] {
        let q = stress::compiled_stress_query(depth);
        let tix = stress::stress_constraints();
        let cap = Duration::from_secs(5);
        let start = Instant::now();
        let old = naive_chase(&q, &tix, &ChaseBudget::default().with_timeout(cap));
        let old_time = start.elapsed();
        let start = Instant::now();
        universal_plan_atoms(&q, &CompiledDeps::new(&tix));
        let new_time = start.elapsed();
        let speedup = old_time.as_secs_f64() / new_time.as_secs_f64().max(1e-9);
        println!(
            "{:>6} {:>14.1}{} {:>14.2} {:>9.0}x",
            depth,
            ms(old_time),
            if old.terminated() { " " } else { "+" },
            ms(new_time),
            speedup
        );
        rows.push(serde_json::json!({
            "depth": depth,
            "old_ms": ms(old_time),
            "old_terminated": old.terminated(),
            "new_ms": ms(new_time),
            "speedup": speedup,
        }));
    }
    println!("(+ = the old implementation hit its timeout; speedup is a lower bound)");
    results.insert("old_vs_new".to_string(), serde_json::Value::Array(rows));
}

/// Section 4.2: reformulation time vs execution-time saving, at growing
/// document sizes. One cold reformulation per NC is charged against every
/// size's execution, and the first size where the saving turns positive is
/// printed per NC.
fn net_savings(results: &mut HashMap<String, serde_json::Value>) {
    println!("\n== Section 4.2: net saving of reformulation (star, growing document) ==");
    println!(
        "{:>4} {:>6} {:>16} {:>20} {:>18} {:>16}",
        "NC",
        "hubs",
        "reformulate (ms)",
        "unreformulated (ms)",
        "reformulated (ms)",
        "net saving (ms)"
    );
    let mut rows = Vec::new();
    let mut break_even = Vec::new();
    for nc in [3usize, 4, 5] {
        let cfg = StarConfig::figure5(nc);
        let mars = cfg.mars(MarsOptions::specialized());
        let start = Instant::now();
        let block = mars.reformulate_xbind(&cfg.client_query());
        let reform_time = start.elapsed();
        let best = block.result.best_or_initial().cloned();
        let mut positive_at = None;
        for hubs in [5usize, 50, 500] {
            let (xml, db) = cfg.populate(hubs, 4, 17);

            // Unreformulated execution on the naive XML engine (the Galax
            // stand-in).
            let start = Instant::now();
            let unref = xml
                .eval_xbind(&cfg.client_query(), &HashMap::new())
                .expect("star documents are stored");
            let unref_time = start.elapsed();

            // Reformulated execution: the best reformulation runs on the
            // relational engine over the materialized views.
            let start = Instant::now();
            let reformulated_rows = best.as_ref().map(|q| db.query(q).len()).unwrap_or(0);
            let ref_time = start.elapsed();

            let saving = unref_time.as_secs_f64() - (reform_time + ref_time).as_secs_f64();
            if saving > 0.0 && positive_at.is_none() {
                positive_at = Some(hubs);
            }
            println!(
                "{:>4} {:>6} {:>16.2} {:>20.2} {:>18.2} {:>16.2}",
                nc,
                hubs,
                ms(reform_time),
                ms(unref_time),
                ms(ref_time),
                saving * 1000.0
            );
            rows.push(serde_json::json!({
                "nc": nc,
                "hubs": hubs,
                "corner_size": 4,
                "reformulation_ms": ms(reform_time),
                "unreformulated_exec_ms": ms(unref_time),
                "reformulated_exec_ms": ms(ref_time),
                "net_saving_ms": saving * 1000.0,
                "unreformulated_rows": unref.len(),
                "reformulated_rows": reformulated_rows,
            }));
        }
        match positive_at {
            Some(hubs) => println!("NC {nc}: the net saving turns positive at {hubs} hubs"),
            None => println!("NC {nc}: the net saving stays negative up to 500 hubs"),
        }
        let positive_at = positive_at.map_or(serde_json::Value::Null, serde_json::Value::from);
        break_even.push(serde_json::json!({ "nc": nc, "positive_at_hubs": positive_at }));
    }
    results.insert("net_savings".to_string(), serde_json::Value::Array(rows));
    results.insert("net_savings_break_even".to_string(), serde_json::Value::Array(break_even));
    executor_scale_sweep(results);
}

/// Naive vs physical execution of the star's best reformulation at growing
/// scale factors (NC fixed at 3; hubs × corner size grow the materialized
/// views). Both executors must return byte-identical rows — the sweep aborts
/// otherwise — so the ratio isolates what the plan layer buys.
fn executor_scale_sweep(results: &mut HashMap<String, serde_json::Value>) {
    println!("\n-- executor scale sweep (star NC=3, naive vs physical relational execution) --");
    println!(
        "{:>6} {:>8} {:>8} {:>12} {:>14} {:>9}",
        "hubs", "corner", "tuples", "naive (ms)", "physical (ms)", "speedup"
    );
    let cfg = StarConfig::figure5(3);
    let mars = cfg.mars(MarsOptions::specialized());
    let block = mars.reformulate_xbind(&cfg.client_query());
    let best = block.result.best_or_initial().expect("star query must reformulate");
    let mut rows = Vec::new();
    for (hubs, corner) in [(40usize, 30usize), (160, 120), (640, 480), (1600, 1200), (4000, 3000)] {
        let (_xml, db) = cfg.populate(hubs, corner, 17);

        // Min of 3 per executor: single-shot ms-scale timings jitter ±20 %
        // on the 1-core container (same protocol as the fig5 record).
        let mut naive = Vec::new();
        let mut naive_time = Duration::MAX;
        for _ in 0..3 {
            let start = Instant::now();
            naive = db.query_naive(best);
            naive_time = naive_time.min(start.elapsed());
        }
        let mut physical = Vec::new();
        let mut physical_time = Duration::MAX;
        for _ in 0..3 {
            let start = Instant::now();
            physical = db.query(best);
            physical_time = physical_time.min(start.elapsed());
        }

        assert_eq!(naive, physical, "executors diverged at scale ({hubs}, {corner})");
        let speedup = naive_time.as_secs_f64() / physical_time.as_secs_f64().max(1e-9);
        println!(
            "{:>6} {:>8} {:>8} {:>12.2} {:>14.2} {:>8.2}x",
            hubs,
            corner,
            db.len(),
            ms(naive_time),
            ms(physical_time),
            speedup
        );
        rows.push(serde_json::json!({
            "hubs": hubs,
            "corner_size": corner,
            "tuples": db.len(),
            "rows": physical.len(),
            "naive_exec_ms": ms(naive_time),
            "physical_exec_ms": ms(physical_time),
            "speedup": speedup,
        }));
    }
    results.insert("executor_scale_sweep".to_string(), serde_json::Value::Array(rows));
}

/// Section 4.2: XMark-based feasibility (average reformulation time), plus
/// real execution of each reformulation over a populated store (the
/// physical executor is the headline; the naive oracle runs next to it and
/// must agree).
fn xmark_feasibility(results: &mut HashMap<String, serde_json::Value>) {
    println!("\n== Section 4.2: XMark-based scenario (reformulation feasibility) ==");
    let system = xmark::mars(true);
    let (_xml, db) = xmark::populate(300, 120, 200);
    let mut total = Duration::default();
    let mut rows = Vec::new();
    for q in xmark::query_suite() {
        let start = Instant::now();
        let block = system.reformulate_xbind(&q);
        let t = start.elapsed();
        total += t;

        // Execute the chosen reformulation over the materialized views with
        // the physical executor and with the naive oracle.
        let best = block.result.best_or_initial();
        let (result_rows, naive_ms, physical_ms) = match best {
            Some(best) => {
                let start = Instant::now();
                let naive = db.query_naive(best);
                let naive_time = start.elapsed();
                let start = Instant::now();
                let physical = db.query(best);
                let physical_time = start.elapsed();
                assert_eq!(naive, physical, "executors diverged on {}", q.name);
                (physical.len(), ms(naive_time), ms(physical_time))
            }
            None => (0, 0.0, 0.0),
        };
        println!(
            "{:<32} {:>10.2} ms   reformulated: {}   minimal: {}   exec: {:>8.2} ms ({} rows)",
            q.name,
            ms(t),
            block.result.has_reformulation(),
            block.result.minimal.len(),
            physical_ms,
            result_rows,
        );
        rows.push(serde_json::json!({
            "query": q.name,
            "ms": ms(t),
            "reformulated": block.result.has_reformulation(),
            "naive_exec_ms": naive_ms,
            "physical_exec_ms": physical_ms,
            "result_rows": result_rows,
        }));
    }
    let avg = total / xmark::query_suite().len() as u32;
    println!("average reformulation time: {:.2} ms   (paper: ~350 ms)", ms(avg));
    results
        .insert("xmark".to_string(), serde_json::json!({"queries": rows, "average_ms": ms(avg)}));

    // Example 1.1 sanity row (qualitative — which storage the best plan uses).
    let system = example11::mars();
    let block = system.reformulate_xbind(&example11::client_query());
    println!(
        "Example 1.1 client query: reformulated={}  minimal={}",
        block.result.has_reformulation(),
        block.result.minimal.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// Regression: degenerate values and anything outside the accepted set
    /// must be rejected at parse time (main exits 2 with the usage text on
    /// any parse error).
    #[test]
    fn zero_and_malformed_values_are_rejected() {
        assert!(parse(&["--max-nc", "2"]).is_err());
        assert!(parse(&["--max-nc", "six"]).is_err());
        assert!(parse(&["--max-nc"]).is_err(), "missing value");
        assert!(parse(&["--frobnicate"]).is_err(), "unknown flag");
        assert!(parse(&["--fig5", "--frobnicate", "2"]).is_err(), "unknown flag with a value");
    }

    #[test]
    fn defaults_and_valid_flags_parse() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.max_nc, 6);
        assert!(args.selected.is_empty());

        let flags = ["--fig5", "--fig8", "--stress", "--oldnew", "--savings", "--xmark", "--all"];
        let args = parse(&[&flags[..], &["--max-nc", "4"]].concat()).unwrap();
        assert_eq!(args.selected, flags);
        assert_eq!(args.max_nc, 4);
    }
}
