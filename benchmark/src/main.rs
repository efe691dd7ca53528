//! `marsbench`: end-to-end publish benchmark for MARS — XQuery text in,
//! tagged XML out — with per-layer attribution. See `benchmark/README.md`.

mod metrics;
mod pipeline;
mod run;
mod stats;
mod templates;
mod trace;
mod workloads;

use metrics::{benchmark_json, is_exact, END_TO_END, PER_LAYER, RUN_SECONDS};
use run::{run, Config, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Kind, Workload};

const USAGE: &str = "usage:
  marsbench --workload <cold_templates|warm_point|warm_scan|nav_mixed>
            [--seed N] [--seconds S] [--trace [0|1]] [--out-dir DIR]
  marsbench --selfcheck [--seed N] [--seconds S]   every workload twice, compared
  marsbench --smoke                                 all four at 1/20 size
  marsbench --print-benchmark-json                  the text of BENCHMARK.json";

enum Mode {
    One(Kind),
    Selfcheck,
    Smoke,
    PrintBenchmarkJson,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut parsed = Args {
        mode: Mode::Smoke,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                mode =
                    Some(Mode::One(Kind::parse(name).ok_or(format!("unknown workload {name}"))?));
            }
            "--seed" => {
                parsed.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value("a directory")?),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => mode = Some(Mode::Selfcheck),
            "--smoke" => mode = Some(Mode::Smoke),
            "--print-benchmark-json" => mode = Some(Mode::PrintBenchmarkJson),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.mode = mode.ok_or("one of --workload, --selfcheck, --smoke is required")?;
    Ok(parsed)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where the numbers come from: cores, compiler, commit.
fn environment_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = std::env::var("MARSBENCH_COMMIT")
        .unwrap_or_else(|_| command_line("git", &["rev-parse", "HEAD"]));
    format!(
        "  \"nproc\": {nproc},\n  \"rustc\": \"{}\",\n  \"commit\": \"{commit}\",\n",
        command_line("rustc", &["--version"])
    )
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", metrics.join(", "))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    )
}

fn header_json(o: &Outcome, seconds: f64) -> String {
    format!(
        "  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {seconds},\n  \"trace\": {},\n{}  \"rounds\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failed_share\": {},\n  \"oracle_checked\": {},\n  \"oracle_failed\": {},\n  \"output_digest\": \"{:016x}\",\n  \"per_round\": {:?},\n  \"wall_clock\": {},\n  \"metrics\": {},\n",
        o.workload,
        o.seed,
        o.trace,
        environment_json(),
        o.rounds,
        o.attempted,
        o.failed,
        o.failed_share(),
        o.oracle_checked,
        o.oracle_failed,
        o.output_digest,
        o.per_round,
        metrics_json(&o.wall_clock),
        metrics_json(&o.metrics)
    )
}

/// Print every metric by name and unit, then the result line; write the
/// result file and, when traced, the span trace.
fn report(o: &Outcome, seconds: f64, out_dir: &Path) -> Result<(), String> {
    println!(
        "workload {} seed {} {} — {} rounds, {} requests, {} failed (failed_share {}), oracle {}/{} ok",
        o.workload,
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        o.rounds,
        o.attempted,
        o.failed,
        o.failed_share(),
        o.oracle_checked - o.oracle_failed,
        o.oracle_checked
    );
    for f in &o.failures {
        println!("  FAILED {f}");
    }
    for (name, value, unit) in o.metrics.iter().chain(&o.wall_clock) {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!("output_digest: {:016x}", o.output_digest);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let header = header_json(o, seconds);
    let kind = if o.trace { "trace" } else { "result" };
    let path = out_dir.join(format!("{kind}-{}.json", o.workload));
    let body = match &o.recorder {
        Some(recorder) => recorder.to_json(&header),
        None => format!("{{\n{}\n}}\n", header.trim_end().trim_end_matches(',')),
    };
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result_line(o));
    Ok(())
}

/// The value of `name` in a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let after = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    after.split(',').next()?.trim().parse().ok()
}

/// Run this binary on one workload in a process of its own, so that set-up
/// time and peak memory are the process's; return the result line and the
/// digest.
fn child_run(kind: Kind, args: &Args, trace: bool) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", kind.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} exited with {}:\n{stdout}", kind.name(), out.status));
    }
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("output_digest: "))
        .ok_or("no output_digest line")?
        .to_string();
    Ok((line, digest))
}

/// Every workload twice, in alternation, same seed: end-to-end metrics must
/// agree within their bounds, digests and exact counts must be identical,
/// nothing may fail.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut first: Vec<[(String, String); 2]> = Vec::new();
    for repetition in 0..2 {
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            let pair = [child_run(kind, args, false)?, child_run(kind, args, true)?];
            for (line, _) in &pair {
                if !line.contains("\"correct\": true") || !line.contains("\"failed\": 0,") {
                    println!("FAIL {}: a run failed: {line}", kind.name());
                    ok = false;
                }
            }
            if repetition == 0 {
                first.push(pair);
                continue;
            }
            let (a, b) = (&first[i], &pair);
            for t in 0..2 {
                if a[t].1 != b[t].1 {
                    println!("FAIL {}: output_digest {} vs {}", kind.name(), a[t].1, b[t].1);
                    ok = false;
                }
            }
            for (m, bound) in &END_TO_END {
                let (x, y) = (metric_in(&a[0].0, m.name), metric_in(&b[0].0, m.name));
                let (Some(x), Some(y)) = (x, y) else {
                    return Err(format!("{}: no {} in the result line", kind.name(), m.name));
                };
                let apart = (x - y).abs() / x.min(y);
                let verdict = if apart <= *bound { "ok" } else { "FAIL" };
                println!(
                    "{verdict} {:<15} {:<16} {x:>12.4} {y:>12.4} {}  apart {:.1}% (bound {:.0}%)",
                    kind.name(),
                    m.name,
                    m.unit,
                    apart * 100.0,
                    bound * 100.0
                );
                ok &= apart <= *bound;
            }
            for m in PER_LAYER.iter().filter(|m| is_exact(m.name)) {
                let (x, y) = (metric_in(&a[1].0, m.name), metric_in(&b[1].0, m.name));
                if x != y || x.is_none() {
                    println!("FAIL {}: {} {x:?} vs {y:?}", kind.name(), m.name);
                    ok = false;
                }
            }
        }
    }
    Ok(ok)
}

/// All four workloads at 1/20 size, untraced and traced, in this process.
fn smoke(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for kind in Kind::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload: Workload { kind, div: 20 },
                seed: args.seed,
                seconds: 0.2,
                trace,
                setups: 1,
            };
            // Set-up time is per run here, not from the start of the process.
            let outcome = run(&cfg, Instant::now())?;
            report(&outcome, cfg.seconds, &args.out_dir.join("smoke"))?;
            ok &= outcome.correct();
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("marsbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let verdict = match args.mode {
        Mode::PrintBenchmarkJson => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Mode::One(kind) => {
            let cfg = Config {
                workload: Workload { kind, div: 1 },
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                setups: 3,
            };
            // A run with failed requests still reports them and exits 0; the
            // result line carries `correct: false`.
            run(&cfg, process_start)
                .and_then(|o| report(&o, cfg.seconds, &args.out_dir))
                .map(|()| true)
        }
        Mode::Selfcheck => selfcheck(&args),
        Mode::Smoke => smoke(&args),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("marsbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a =
            parse(&["--workload", "warm_scan", "--seed", "7", "--seconds", "3", "--trace", "0"])
                .unwrap();
        assert!(matches!(a.mode, Mode::One(Kind::WarmScan)));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, false));
        assert!(parse(&["--workload", "nav_mixed", "--trace", "1"]).unwrap().trace);
        assert!(parse(&["--workload", "nav_mixed", "--trace"]).unwrap().trace);
        assert!(parse(&["--workload", "nav_mixed", "--trace", "--seed", "2"]).unwrap().trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--smoke", "--seconds", "0"]).is_err());
    }

    #[test]
    fn metrics_are_read_back_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"publish_p50_ms\": {\"value\": 12.5, \"unit\": \"ms\"}}}";
        assert_eq!(metric_in(line, "setup_s"), Some(0.25));
        assert_eq!(metric_in(line, "publish_p50_ms"), Some(12.5));
        assert_eq!(metric_in(line, "absent"), None);
    }
}
